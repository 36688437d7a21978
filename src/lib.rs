//! JUNO — sparsity-aware high-dimensional approximate nearest neighbour
//! search with a (simulated) ray-tracing core mapping.
//!
//! This is the facade crate of the workspace: it re-exports the public API of
//! every sub-crate so that applications can depend on `juno` alone.
//!
//! * [`core`] — the JUNO engine ([`core::engine::JunoIndex`]).
//! * [`baseline`] — Flat, IVF-Flat, IVFPQ and HNSW baselines.
//! * [`quant`] — k-means, product quantisation and the inverted file index.
//! * [`rt`] — the software ray-tracing core (BVH, spheres, rays, scenes).
//! * [`gpu`] — the analytic GPU cost and pipelining model.
//! * [`data`] — synthetic dataset profiles, fvecs I/O and the attention
//!   workload.
//! * [`serve`] — the sharded concurrent serving layer (scatter-gather
//!   search, epoch-published shards, whole-fleet snapshots).
//! * [`common`] — shared metrics, vectors, top-k selection and recall.
//!
//! # Quick start
//!
//! ```
//! use juno::prelude::*;
//!
//! # fn main() -> Result<(), juno::common::Error> {
//! // Generate a small DEEP-like dataset and build a JUNO index over it.
//! let dataset = DatasetProfile::DeepLike.generate(2_000, 4, 7)?;
//! let config = JunoConfig::small_test(dataset.dim(), dataset.metric());
//! let index = JunoIndex::build(&dataset.points, &config)?;
//!
//! // Search the 10 approximate nearest neighbours of the first query.
//! let result = index.search(dataset.queries.row(0), 10)?;
//! assert_eq!(result.neighbors.len(), 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use juno_baseline as baseline;
pub use juno_common as common;
pub use juno_core as core;
pub use juno_data as data;
pub use juno_gpu as gpu;
pub use juno_quant as quant;
pub use juno_rt as rt;
pub use juno_serve as serve;

/// Commonly used items, importable with `use juno::prelude::*`.
pub mod prelude {
    pub use juno_baseline::flat::FlatIndex;
    pub use juno_baseline::hnsw::{HnswConfig, HnswIndex};
    pub use juno_baseline::ivfpq::{IvfPqConfig, IvfPqIndex};
    pub use juno_common::index::{
        AnnIndex, BatchPlan, DriftReport, Neighbor, PlanUse, SearchResult,
    };
    pub use juno_common::metric::Metric;
    pub use juno_common::metrics::{HistogramSnapshot, LogHistogram, Registry, RegistrySnapshot};
    pub use juno_common::mmap::{Mmap, ResidencyConfig};
    pub use juno_common::recall::{r1_at_100, recall_at, GroundTruth};
    pub use juno_common::vector::VectorSet;
    pub use juno_common::wal::{FsyncPolicy, WalOptions};
    pub use juno_core::config::{JunoConfig, QualityMode, ThresholdStrategy};
    pub use juno_core::engine::JunoIndex;
    pub use juno_data::profiles::{Dataset, DatasetProfile};
    pub use juno_gpu::device::GpuDevice;
    pub use juno_gpu::pipeline::ExecutionMode;
    pub use juno_serve::{
        BackgroundCompactor, BreakerConfig, BreakerState, CheckpointReport, DegradedBatch,
        DegradedResult, DurabilityConfig, FaultKind, FaultOp, FaultPlan, FaultRule, FleetReader,
        HealthTracker, RebuildPolicy, RebuildReport, Rebuilder, RecoveryReport, RetryPolicy,
        ServeResponse, ServeStats, Server, ServerConfig, ShardRouter, ShardStatus, ShardedIndex,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_types() {
        use crate::prelude::*;
        // Compile-time check that the re-exports resolve; a tiny smoke test.
        let metric = Metric::L2;
        assert_eq!(metric.to_string(), "L2");
        let cfg = JunoConfig::small_test(96, metric);
        assert_eq!(cfg.pq_subspaces, 48);
    }
}
