//! Needleman–Wunsch simulation (Fig. 12a).
//!
//! The Rodinia NW processes an `n×n` scoring matrix in `b×b` blocks
//! along block anti-diagonals (one kernel launch per block diagonal); a
//! block's `(b+1)×(b+1)` shared buffer is updated over `2b-1` in-block
//! wavefront steps. The only difference between the two variants is the
//! *buffer layout*: row-major (stride-`b` bank conflicts) vs. the LEGO
//! anti-diagonal permutation (conflict-free).
//!
//! This driver owns **no pricing**: each variant is the tuner's NW
//! config for its buffer layout, priced through the tuner's path. The
//! wavefront trace lives in [`gpu_sim::trace::NwWavefront`] and the
//! calibrated additive launch timing (fixed instruction budget per
//! in-block step plus serialized bank passes, blocks issued `sm_count`
//! at a time per diagonal) lives in `gpu_sim`'s `CostModel` as the
//! workload's `PricingMode::AdditiveLaunch`, so table numbers and tuner
//! rankings are bit-identical.

use gpu_sim::{Estimate, GpuConfig};
use lego_tune::{NwLayoutChoice, TunedConfig, WorkloadKind};

/// Result for one NW configuration.
#[derive(Clone, Copy, Debug)]
pub struct NwResult {
    /// Estimated runtime in seconds.
    pub time_s: f64,
    /// Total shared-memory passes per block sweep.
    pub block_passes: f64,
}

/// Scores one NW configuration, returning the raw `gpu-sim` estimate:
/// the Rodinia row-major buffer, or LEGO's anti-diagonal one when
/// `optimized`.
pub fn estimate(n: i64, b: i64, optimized: bool, cfg: &GpuConfig) -> Estimate {
    let layout = if optimized {
        NwLayoutChoice::Antidiag
    } else {
        NwLayoutChoice::RowMajor
    };
    super::price(
        WorkloadKind::Nw { n, b },
        TunedConfig::Nw { b, layout },
        cfg,
    )
}

/// Simulates the full NW run for an `n×n` matrix with block size `b`.
pub fn simulate(n: i64, b: i64, optimized: bool, cfg: &GpuConfig) -> NwResult {
    let e = estimate(n, b, optimized, cfg);
    let blocks = {
        let nb = (n + b - 1) / b;
        2.0 * (nb * nb) as f64
    };
    NwResult {
        time_s: e.time_s,
        block_passes: e.smem_passes / blocks,
    }
}

/// Speedup of the anti-diagonal layout over the baseline at size `n`.
pub fn speedup(n: i64, b: i64, cfg: &GpuConfig) -> f64 {
    simulate(n, b, false, cfg).time_s / simulate(n, b, true, cfg).time_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{a100, mi300};

    #[test]
    fn antidiag_eliminates_conflicts() {
        let cfg = a100();
        let base = simulate(2048, 16, false, &cfg).block_passes;
        let opt = simulate(2048, 16, true, &cfg).block_passes;
        assert!(
            base / opt > 4.0,
            "expected large pass reduction: {base} vs {opt}"
        );
    }

    #[test]
    fn optimized_diagonal_passes_are_minimal() {
        // Conflict-free: 4 access groups x (2b-1) diagonals.
        let cfg = a100();
        let opt = simulate(2048, 16, true, &cfg).block_passes;
        assert!(opt <= (4 * (2 * 16 - 1)) as f64 * 1.5);
    }

    #[test]
    fn speedup_in_paper_band() {
        // Paper: 1.4x – 2.1x across sizes.
        let cfg = a100();
        for n in [2048, 4096, 8192, 16384] {
            let s = speedup(n, 16, &cfg);
            assert!(
                (1.3..=2.3).contains(&s),
                "speedup {s:.2} out of band at n={n}"
            );
        }
    }

    #[test]
    fn speedup_grows_with_size() {
        let cfg = a100();
        assert!(speedup(16384, 16, &cfg) >= speedup(2048, 16, &cfg));
    }

    #[test]
    fn antidiag_still_wins_on_warp64_banks() {
        // The 64-bank LDS roughly halves the row-major conflict degree
        // but cannot eliminate it; the anti-diagonal layout stays ahead
        // on an MI300-shaped device.
        let cfg = mi300();
        for n in [2048, 4096] {
            let s = speedup(n, 16, &cfg);
            assert!(s > 1.05, "speedup {s:.2} at n={n} on {}", cfg.name);
        }
    }
}
