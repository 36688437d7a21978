//! The JUNO engine: sparsity-aware selective L2-LUT construction mapped onto a
//! (simulated) ray-tracing core.
//!
//! This crate implements the paper's primary contribution on top of the
//! substrates in `juno-quant` (IVF + PQ), `juno-rt` (the RT-core simulator)
//! and `juno-gpu` (the heterogeneous-core cost model):
//!
//! * [`config`] — engine configuration, including the JUNO-L/M/H quality
//!   modes and the user-facing threshold scaling factor.
//! * [`density`] — the per-subspace 100×100 density map computed offline.
//! * `regression` — the polynomial regressor that maps region density to a
//!   per-query distance threshold.
//! * [`threshold`] — the dynamic/static threshold strategies and the
//!   threshold → `t_max` conversion.
//! * `mapping` — placement of codebook entries as spheres (`z = 2s + 1`),
//!   per-subspace coordinate normalisation, the MIPS radius transform, and
//!   the scene's hit predicate in closed form (the serving path's front
//!   half).
//! * [`lut`] — the selective L2-LUT built from RT-core hits (the oracle and
//!   the simulator's source of RT work; searches use the closed form).
//! * `hitcount` — the hit-count based aggressive approximation (JUNO-L/M).
//! * [`persist`] — versioned snapshot save/load of the built engine
//!   (restart without rebuild; bit-identical search after restore).
//! * `pipeline` — RT + Tensor core stage times and pipelined execution,
//!   computed on request (`AnnIndex::simulate`).
//! * [`engine`] — [`JunoIndex`], the end-to-end engine implementing
//!   [`juno_common::AnnIndex`].
//!
//! # Quick start
//!
//! ```
//! use juno_core::engine::JunoIndex;
//! use juno_core::config::JunoConfig;
//! use juno_common::AnnIndex;
//! use juno_data::profiles::DatasetProfile;
//!
//! # fn main() -> Result<(), juno_common::Error> {
//! let dataset = DatasetProfile::DeepLike.generate(2_000, 4, 7)?;
//! let config = JunoConfig::small_test(dataset.dim(), dataset.metric());
//! let index = JunoIndex::build(&dataset.points, &config)?;
//! let result = index.search(dataset.queries.row(0), 10)?;
//! assert_eq!(result.neighbors.len(), 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod density;
pub mod drift;
pub mod engine;
mod hitcount;
pub mod lut;
mod mapping;
pub mod persist;
mod pipeline;
mod regression;
mod stamp;
pub mod threshold;

pub use config::{JunoConfig, QualityMode, ThresholdStrategy};
pub use engine::JunoIndex;
