//! RT-core hardware throughput model.
//!
//! The simulator counts work units ([`TraversalStats`]); this module converts
//! them into simulated microseconds using per-generation throughput figures.
//! The relative numbers follow the sources the paper itself cites:
//!
//! * Ada (Gen-3) RT cores have ~2× the ray–triangle/box throughput of Ampere
//!   (Gen-2) RT cores (NVIDIA Ada white paper, cited as \[54\]).
//! * A100 has **no** RT cores; OptiX falls back to a CUDA-core software
//!   traversal, which the paper observes to erase JUNO's advantage at high
//!   recall (Fig. 14(a)). The fallback is modelled as a large per-test cost
//!   on CUDA cores.
//!
//! Absolute values are calibrated only to the order of magnitude; every
//! conclusion drawn from the model in the benches is about *ratios*.

use crate::stats::TraversalStats;

/// The RT-core generation of a GPU (or its absence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RtCoreGeneration {
    /// No RT cores: traversal runs as software on CUDA cores (e.g. A100).
    None,
    /// Turing-class (Gen-1) RT cores.
    Gen1Turing,
    /// Ampere-class (Gen-2) RT cores (e.g. A40).
    Gen2Ampere,
    /// Ada-class (Gen-3) RT cores (e.g. RTX 4090), ~2× Gen-2 throughput.
    Gen3Ada,
}

impl RtCoreGeneration {
    /// Relative traversal throughput versus a Gen-2 (Ampere) RT core.
    pub(crate) fn relative_throughput(self) -> f64 {
        match self {
            // Software fallback on CUDA cores is roughly an order of magnitude
            // slower per test than a hardware RT core.
            RtCoreGeneration::None => 0.1,
            RtCoreGeneration::Gen1Turing => 0.55,
            RtCoreGeneration::Gen2Ampere => 1.0,
            RtCoreGeneration::Gen3Ada => 2.0,
        }
    }

    /// Returns `true` when dedicated RT hardware is present.
    pub fn has_hardware(self) -> bool {
        !matches!(self, RtCoreGeneration::None)
    }
}

/// An analytic RT-core performance model for one GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtCoreModel {
    /// Generation of the RT cores.
    pub generation: RtCoreGeneration,
    /// Number of RT cores on the device (one per SM on RTX GPUs). When the
    /// generation is [`RtCoreGeneration::None`] this is the number of SMs
    /// executing the software fallback.
    pub core_count: usize,
    /// Box (AABB) tests per microsecond per Gen-2-equivalent core.
    pub box_tests_per_core_us: f64,
    /// Primitive (sphere / custom-IS) tests per microsecond per
    /// Gen-2-equivalent core.
    pub primitive_tests_per_core_us: f64,
    /// Fixed cost, in microseconds, of launching a batch of rays (kernel
    /// launch plus scheduling), independent of ray count.
    pub launch_overhead_us: f64,
    /// Cost of one any-hit shader invocation in nanoseconds (the hit shader
    /// body — a handful of FLOPs plus a list append in JUNO).
    pub hit_shader_ns: f64,
}

impl RtCoreModel {
    /// Model of an Ampere-class (A40-like) RT-core array.
    pub fn ampere(core_count: usize) -> Self {
        Self {
            generation: RtCoreGeneration::Gen2Ampere,
            core_count,
            box_tests_per_core_us: 800.0,
            primitive_tests_per_core_us: 400.0,
            launch_overhead_us: 8.0,
            hit_shader_ns: 4.0,
        }
    }

    /// Model of an Ada-class (RTX-4090-like) RT-core array.
    pub fn ada(core_count: usize) -> Self {
        Self {
            generation: RtCoreGeneration::Gen3Ada,
            ..Self::ampere(core_count)
        }
    }

    /// Model of a GPU with no RT cores (A100-like): the same traversal work is
    /// executed in software on `sm_count` SMs.
    pub fn cuda_fallback(sm_count: usize) -> Self {
        Self {
            generation: RtCoreGeneration::None,
            ..Self::ampere(sm_count)
        }
    }

    /// Effective aggregate box-test throughput (tests per microsecond).
    pub(crate) fn aggregate_box_rate(&self) -> f64 {
        self.box_tests_per_core_us * self.core_count as f64 * self.generation.relative_throughput()
    }

    /// Effective aggregate primitive-test throughput (tests per microsecond).
    pub(crate) fn aggregate_primitive_rate(&self) -> f64 {
        self.primitive_tests_per_core_us
            * self.core_count as f64
            * self.generation.relative_throughput()
    }

    /// Estimated time, in microseconds, to perform the given traversal work.
    pub fn estimate_us(&self, stats: &TraversalStats) -> f64 {
        let box_us = stats.aabb_tests as f64 / self.aggregate_box_rate().max(1e-9);
        let prim_us = stats.primitive_tests as f64 / self.aggregate_primitive_rate().max(1e-9);
        // Hit shaders run on the SMs; model them as a serial tail over the
        // same core count.
        let hit_us =
            stats.hits as f64 * self.hit_shader_ns / 1000.0 / self.core_count.max(1) as f64;
        self.launch_overhead_us + box_us + prim_us + hit_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> TraversalStats {
        TraversalStats {
            rays: 10_000,
            aabb_tests: 400_000,
            primitive_tests: 120_000,
            hits: 30_000,
        }
    }

    #[test]
    fn generation_ordering_matches_white_papers() {
        assert!(
            RtCoreGeneration::Gen3Ada.relative_throughput()
                > RtCoreGeneration::Gen2Ampere.relative_throughput()
        );
        assert!(
            RtCoreGeneration::Gen2Ampere.relative_throughput()
                > RtCoreGeneration::Gen1Turing.relative_throughput()
        );
        assert!(
            RtCoreGeneration::Gen1Turing.relative_throughput()
                > RtCoreGeneration::None.relative_throughput()
        );
        assert!(RtCoreGeneration::Gen3Ada.has_hardware());
        assert!(!RtCoreGeneration::None.has_hardware());
    }

    #[test]
    fn ada_is_roughly_twice_ampere() {
        let ada = RtCoreModel::ada(84);
        let ampere = RtCoreModel::ampere(84);
        let w = workload();
        let speedup = ampere.estimate_us(&w) / ada.estimate_us(&w);
        // The launch overhead dilutes the 2.0 ratio slightly.
        assert!(speedup > 1.25 && speedup < 2.0, "speedup {speedup}");
    }

    #[test]
    fn cuda_fallback_is_much_slower() {
        let hw = RtCoreModel::ampere(84);
        let sw = RtCoreModel::cuda_fallback(108);
        let w = workload();
        assert!(sw.estimate_us(&w) / hw.estimate_us(&w) > 3.0);
    }

    #[test]
    fn estimate_scales_with_work() {
        let m = RtCoreModel::ampere(84);
        let small = workload();
        let mut big = workload();
        big.aabb_tests *= 10;
        big.primitive_tests *= 10;
        big.hits *= 10;
        assert!(m.estimate_us(&big) > 5.0 * m.estimate_us(&small));
        // Empty work still pays the launch overhead.
        let zero = TraversalStats::new();
        assert!((m.estimate_us(&zero) - m.launch_overhead_us).abs() < 1e-9);
    }

    #[test]
    fn more_cores_mean_more_throughput() {
        let small = RtCoreModel::ada(28);
        let large = RtCoreModel::ada(128);
        assert!(large.aggregate_box_rate() > small.aggregate_box_rate());
        assert!(large.estimate_us(&workload()) < small.estimate_us(&workload()));
    }
}
