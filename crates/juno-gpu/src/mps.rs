//! CUDA MPS-style SM partitioning.
//!
//! JUNO uses CUDA MPS to split the GPU 9:1 — 90 % of the SMs run the L2-LUT
//! construction (RT cores) and 10 % run the distance calculation (Tensor
//! cores) — so the two stages can overlap with similar latencies (paper
//! Section 5.3). [`MpsPartition`] captures that split and produces the two
//! scaled device views.

use crate::device::GpuDevice;
use juno_common::error::{Error, Result};

/// A two-way fractional split of a device's SMs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpsPartition {
    /// Fraction of SMs given to the first stage (L2-LUT construction).
    pub lut_fraction: f64,
    /// Fraction of SMs given to the second stage (distance calculation).
    pub accumulate_fraction: f64,
}

impl Default for MpsPartition {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl MpsPartition {
    /// The paper's 9:1 split.
    pub(crate) fn paper_default() -> Self {
        Self {
            lut_fraction: 0.9,
            accumulate_fraction: 0.1,
        }
    }

    /// Creates a custom split.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] unless both fractions are positive and
    /// they sum to at most 1.
    pub fn new(lut_fraction: f64, accumulate_fraction: f64) -> Result<Self> {
        if lut_fraction <= 0.0 || accumulate_fraction <= 0.0 {
            return Err(Error::invalid_config(
                "partition fractions must be positive",
            ));
        }
        if lut_fraction + accumulate_fraction > 1.0 + 1e-9 {
            return Err(Error::invalid_config(format!(
                "partition fractions sum to {} > 1",
                lut_fraction + accumulate_fraction
            )));
        }
        Ok(Self {
            lut_fraction,
            accumulate_fraction,
        })
    }

    /// The device view seen by the L2-LUT construction stage.
    pub fn lut_device(&self, device: &GpuDevice) -> GpuDevice {
        device.partition(self.lut_fraction)
    }

    /// The device view seen by the distance-calculation stage.
    pub fn accumulate_device(&self, device: &GpuDevice) -> GpuDevice {
        device.partition(self.accumulate_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_nine_to_one() {
        let p = MpsPartition::default();
        assert!((p.lut_fraction - 0.9).abs() < 1e-12);
        assert!((p.accumulate_fraction - 0.1).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(MpsPartition::new(0.5, 0.5).is_ok());
        assert!(MpsPartition::new(0.0, 0.5).is_err());
        assert!(MpsPartition::new(0.7, 0.5).is_err());
        assert!(MpsPartition::new(0.5, -0.1).is_err());
    }

    #[test]
    fn device_views_scale_resources() {
        let dev = GpuDevice::rtx4090();
        let p = MpsPartition::paper_default();
        let lut = p.lut_device(&dev);
        let acc = p.accumulate_device(&dev);
        assert!(lut.sm_count > acc.sm_count);
        assert!(lut.rt.core_count > acc.rt.core_count);
        assert!(lut.sm_count < dev.sm_count);
    }
}
