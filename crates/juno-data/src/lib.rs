//! Dataset substrate for the JUNO reproduction.
//!
//! The paper evaluates on SIFT1M/100M, DEEP1M/100M and TTI1M. Those datasets
//! are not redistributable inside this repository, so this crate provides:
//!
//! * `synthetic` ([`generate_clustered`]) — deterministic clustered Gaussian-mixture generators that
//!   reproduce the structural properties JUNO exploits (clusterability →
//!   codebook sparsity and spatial locality);
//! * [`profiles`] — named dataset profiles matching the dimensionality and
//!   metric of the paper's datasets (SIFT-like 128-d L2, DEEP-like 96-d L2,
//!   TTI-like 200-d inner product), at configurable scale;
//! * [`attention`] — a synthetic multi-head-attention workload standing in
//!   for the Llama-7B experiment of Fig. 15.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod attention;
pub mod profiles;
mod synthetic;

pub use profiles::{Dataset, DatasetProfile};
pub use synthetic::{generate_clustered, ClusteredSpec};
