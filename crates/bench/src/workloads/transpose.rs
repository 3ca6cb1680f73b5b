//! Trace-driven 2-D transpose simulation (Table V).
//!
//! The warp sweep — coalesced/strided global halves plus the staged
//! variant's bank passes — lives in
//! [`gpu_sim::trace::TransposeSweeps`]. The naive kernel is the
//! tuner's unstaged config and the smem kernel its swizzled staging
//! tile (conflict-free, the layout the generated kernel stages through),
//! both priced through the tuner's path.

use gpu_sim::{Estimate, GpuConfig};
use lego_codegen::cuda::transpose::TransposeVariant;
use lego_tune::{StagingChoice, TunedConfig, WorkloadKind};

/// Fraction of streaming bandwidth a transpose-pattern kernel achieves:
/// alternating read/write streams to distinct regions pay DRAM
/// turnaround and TLB costs that a pure copy does not (calibrated to the
/// CUDA-SDK transpose measurements the paper reports in Table V).
const TRANSPOSE_BW_DERATE: f64 = 0.45;

/// Result of one transpose configuration.
#[derive(Clone, Copy, Debug)]
pub struct TransposeResult {
    /// Effective throughput in GB/s (useful bytes / time).
    pub gbps: f64,
    /// DRAM bytes moved (with overfetch).
    pub dram_bytes: f64,
}

/// Scores one transpose configuration, returning the raw `gpu-sim`
/// estimate (no bandwidth derate applied).
pub fn estimate(n: i64, t: i64, variant: TransposeVariant, cfg: &GpuConfig) -> Estimate {
    let staging = match variant {
        TransposeVariant::Naive => None,
        TransposeVariant::SmemCoalesced => Some(StagingChoice::Swizzle),
    };
    super::price(
        WorkloadKind::Transpose { n },
        TunedConfig::Transpose { t, staging },
        cfg,
    )
}

/// Simulates an `n×n` fp32 transpose with `t×t` tiles.
pub fn simulate(n: i64, t: i64, variant: TransposeVariant, cfg: &GpuConfig) -> TransposeResult {
    let e = estimate(n, t, variant, cfg);
    TransposeResult {
        gbps: e.gbps() * TRANSPOSE_BW_DERATE,
        dram_bytes: e.dram_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::a100;

    #[test]
    fn smem_beats_naive_by_3x_or_more() {
        let cfg = a100();
        for n in [2048, 4096, 8192] {
            let naive = simulate(n, 32, TransposeVariant::Naive, &cfg);
            let smem = simulate(n, 32, TransposeVariant::SmemCoalesced, &cfg);
            let ratio = smem.gbps / naive.gbps;
            assert!(
                (2.5..6.0).contains(&ratio),
                "n={n}: ratio {ratio} (naive {} smem {})",
                naive.gbps,
                smem.gbps
            );
        }
    }

    #[test]
    fn naive_writes_dominate_traffic() {
        let cfg = a100();
        let r = simulate(2048, 32, TransposeVariant::Naive, &cfg);
        // Write amplification 8x on the write half: total 4.5x useful.
        let useful = 2.0 * (2048.0f64 * 2048.0 * 4.0);
        assert!(r.dram_bytes / useful > 4.0);
    }

    #[test]
    fn smem_reaches_streaming_bandwidth_range() {
        let cfg = a100();
        let r = simulate(8192, 32, TransposeVariant::SmemCoalesced, &cfg);
        // Table V band: several hundred GB/s.
        assert!(r.gbps > 400.0 && r.gbps < 1200.0, "{}", r.gbps);
    }
}
