//! Baseline ANN indexes the paper compares JUNO against.
//!
//! * [`flat`] — exact brute-force search (the "Flat" index); the accuracy
//!   reference and the engine behind ground-truth sanity checks.
//! * [`ivf_flat`] — IVF filtering plus exact distances over the selected
//!   clusters; isolates the effect of the coarse quantiser.
//! * [`ivfpq`] — the FAISS-style `IVFx,PQy` pipeline with **dense** L2-LUT
//!   construction; the paper's main baseline and the subject of the Fig. 3(a)
//!   breakdown.
//! * [`hnsw`] — a hierarchical navigable small world graph, used by the
//!   paper's `+HNSW` baseline configurations.
//! * [`sim`] — helpers that turn per-query work counters into simulated GPU
//!   stage times so that baseline and JUNO engines report comparable
//!   throughput numbers.
//!
//! Every index implements [`juno_common::AnnIndex`], so the benchmark harness
//! can sweep them uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flat;
pub mod hnsw;
pub mod ivf_flat;
pub mod ivfpq;
pub mod sim;

pub use flat::FlatIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use ivf_flat::{IvfFlatConfig, IvfFlatIndex};
pub use ivfpq::{IvfPqConfig, IvfPqIndex};
