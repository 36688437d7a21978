//! Shared primitives for the JUNO approximate nearest neighbour (ANN) search
//! reproduction.
//!
//! This crate hosts the building blocks that every other crate in the workspace
//! relies on:
//!
//! * [`metric`] — the two similarity metrics used by the paper (L2 distance and
//!   inner product), with scalar and batched kernels.
//! * [`vector`] — [`VectorSet`], a dense row-major set of
//!   `f32` vectors used for search points, queries, centroids and codebooks.
//! * [`topk`] — a bounded top-k selector used by every index implementation,
//!   plus the deterministic tie-by-id merge scatter-gather serving layers
//!   combine per-shard results with.
//! * [`recall`] — the paper's search-quality metrics (`R1@100`, `R100@1000`)
//!   and exact ground-truth computation.
//! * [`index`] — the [`AnnIndex`] trait implemented by the
//!   JUNO engine and every baseline.
//! * [`rng`] — deterministic random-number helpers shared by data generators
//!   and training code.
//! * [`parallel`] — scoped-thread work-stealing maps used by the batched
//!   query pipeline and PQ encoding.
//! * [`kernel`] — the fast-scan ADC kernel: u8-quantised LUTs, the
//!   block-interleaved accumulation kernel (AVX2 + scalar) and the
//!   early-abandon pruning pass shared by the JUNO engine and the IVFPQ
//!   baseline.
//! * [`atomic_file`] / [`wal`] — the durability plane: crash-safe snapshot
//!   publication (write-temp + fsync + atomic rename) and the append-only
//!   write-ahead log (checksummed LSN-stamped records, segment rotation,
//!   torn-tail-tolerant recovery) the serving layer logs mutations to.
//! * [`snapshot`] — the one byte codec under every on-disk format: the
//!   versioned, checksummed little-endian snapshot container, its section
//!   cursors (also the WAL record codec and the mapped `CODE`/`LAYT`
//!   headers), the FNV-1a checksums and the version heading.
//!
//! # Example
//!
//! ```
//! use juno_common::metric::Metric;
//! use juno_common::vector::VectorSet;
//! use juno_common::topk::TopK;
//!
//! let points = VectorSet::from_rows(vec![vec![0.0, 0.0], vec![3.0, 4.0]]).unwrap();
//! let query = [1.0, 1.0];
//! let mut topk = TopK::new(1, Metric::L2);
//! for (id, row) in points.iter().enumerate() {
//!     topk.push(id as u64, Metric::L2.distance(&query, row));
//! }
//! assert_eq!(topk.into_sorted_vec()[0].id, 0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod atomic_file;
pub mod error;
pub mod group;
pub mod index;
pub mod kernel;
pub mod metric;
pub mod metrics;
pub mod mmap;
pub mod parallel;
pub mod recall;
pub mod rng;
pub mod snapshot;
pub mod testing;
pub mod topk;
pub mod vector;
pub mod wal;

pub use error::{Error, Result};
pub use index::{AnnIndex, DriftReport, Neighbor, SearchResult};
pub use metric::Metric;
pub use topk::TopK;
pub use vector::VectorSet;
