//! Roofline-model helpers (paper Fig. 13).
//!
//! The roofline bounds achievable performance by
//! `min(peak_compute, AI × memory_bandwidth)` where `AI` is arithmetic
//! intensity in FLOP/byte of DRAM traffic.

use crate::config::GpuConfig;
use crate::timing::Pipeline;

/// The roof value at a given intensity.
pub fn attainable(intensity: f64, pipeline: Pipeline, cfg: &GpuConfig) -> f64 {
    let peak = match pipeline {
        Pipeline::Fp32 => cfg.fp32_flops,
        Pipeline::TensorFp16 => cfg.fp16_tc_flops,
    };
    peak.min(intensity * cfg.dram_bw * cfg.dram_efficiency)
}

/// The ridge point (intensity where compute == bandwidth roof).
pub fn ridge(pipeline: Pipeline, cfg: &GpuConfig) -> f64 {
    let peak = match pipeline {
        Pipeline::Fp32 => cfg.fp32_flops,
        Pipeline::TensorFp16 => cfg.fp16_tc_flops,
    };
    peak / (cfg.dram_bw * cfg.dram_efficiency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::a100;

    #[test]
    fn low_intensity_is_bandwidth_bound() {
        let cfg = a100();
        let r = attainable(0.5, Pipeline::Fp32, &cfg);
        assert!((r - 0.5 * cfg.dram_bw * cfg.dram_efficiency).abs() < 1.0);
    }

    #[test]
    fn high_intensity_is_compute_bound() {
        let cfg = a100();
        assert_eq!(attainable(1e6, Pipeline::Fp32, &cfg), cfg.fp32_flops);
    }

    #[test]
    fn ridge_separates_regimes() {
        let cfg = a100();
        let x = ridge(Pipeline::Fp32, &cfg);
        assert!(attainable(x * 0.9, Pipeline::Fp32, &cfg) < cfg.fp32_flops);
        assert_eq!(attainable(x * 1.1, Pipeline::Fp32, &cfg), cfg.fp32_flops);
    }
}
