//! Analytic GPU execution model for the JUNO reproduction.
//!
//! The paper runs on NVIDIA GPUs and derives its performance from three kinds
//! of on-chip resources — CUDA cores, Tensor cores and RT cores — plus DRAM
//! bandwidth and the CUDA MPS resource partitioning used to pipeline stages
//! (Section 5.3). None of that hardware is available here, so this crate
//! models it analytically:
//!
//! * [`device`] — descriptors of the three GPUs evaluated in the paper
//!   (RTX 4090, A40, A100) with their core counts and throughputs.
//! * [`cost`] — a roofline-style kernel cost model: a kernel is characterised
//!   by FLOPs and bytes moved, its latency is the max of compute time and
//!   memory time plus a launch overhead. It also prices the ones-vector GEMM
//!   that maps JUNO's distance accumulation onto Tensor cores
//!   ([`cost::tensor_accumulation_cost`]).
//! * [`mps`] — CUDA MPS-style fractional SM partitioning.
//! * [`pipeline`] — the two-stage execution model (L2-LUT construction on RT
//!   cores overlapped with distance calculation on Tensor/CUDA cores),
//!   including the contention penalty of naive co-running that Fig. 11(a)
//!   reports.
//!
//! All absolute numbers are order-of-magnitude calibrations taken from the
//! white papers the paper cites; every benchmark conclusion drawn from this
//! model is a *ratio* between configurations that share the same calibration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod device;
pub mod mps;
pub mod pipeline;

pub use cost::{KernelCost, KernelKind};
pub use device::GpuDevice;
pub use mps::MpsPartition;
pub use pipeline::{ExecutionMode, PipelineModel, StageTimes};
