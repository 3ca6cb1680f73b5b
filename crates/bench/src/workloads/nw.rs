//! Needleman–Wunsch simulation (Fig. 12a).
//!
//! The Rodinia NW processes an `n×n` scoring matrix in `b×b` blocks
//! along block anti-diagonals (one kernel launch per block diagonal); a
//! block's `(b+1)×(b+1)` shared buffer is updated over `2b-1` in-block
//! wavefront steps. The only difference between the two variants is the
//! *buffer layout*: row-major (stride-`b` bank conflicts) vs. the LEGO
//! anti-diagonal permutation (conflict-free).
//!
//! This driver owns **no pricing**: the wavefront trace lives in
//! [`gpu_sim::trace::NwWavefront`] and the calibrated additive launch
//! timing (fixed instruction budget per in-block step plus serialized
//! bank passes, blocks issued `sm_count` at a time per diagonal) lives
//! in `gpu_sim`'s `CostModel` as the workload's
//! `PricingMode::AdditiveLaunch` — the same path the `lego-tune` oracle
//! prices, so table numbers and tuner rankings are bit-identical.

use gpu_sim::trace::{NwWavefront, TraceBuilder};
use gpu_sim::{CostModel, Estimate, GpuConfig};
use lego_codegen::cuda::nw as nwgen;
use lego_core::Layout;

/// Result for one NW configuration.
#[derive(Clone, Copy, Debug)]
pub struct NwResult {
    /// Estimated runtime in seconds.
    pub time_s: f64,
    /// Total shared-memory passes per block sweep.
    pub block_passes: f64,
}

/// Shared-memory passes for one block's full wavefront sweep under a
/// given buffer layout on `cfg`'s warp/bank geometry — counted from the
/// shared trace builder's per-block wavefront walk.
pub fn block_smem_passes(layout: &Layout, b: i64, cfg: &GpuConfig) -> f64 {
    NwWavefront::block_passes(layout, b, cfg)
}

/// Scores one NW configuration through the shared trace builder and
/// cost model, returning the raw `gpu-sim` estimate.
pub fn estimate(n: i64, b: i64, optimized: bool, cfg: &GpuConfig) -> Estimate {
    let k = nwgen::generate(b).expect("nw layouts");
    let layout = if optimized { &k.optimized } else { &k.baseline };
    let workload = NwWavefront {
        n,
        b,
        index_flops: 0.0,
    }
    .build(cfg);
    CostModel::new(cfg).price(layout, &workload)
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
        let k = nwgen::generate(16).unwrap();
        let base = block_smem_passes(&k.baseline, 16, &cfg);
        let opt = block_smem_passes(&k.optimized, 16, &cfg);
        assert!(
            base / opt > 4.0,
            "expected large pass reduction: {base} vs {opt}"
        );
    }

    #[test]
    fn optimized_diagonal_passes_are_minimal() {
        // Conflict-free: 4 access groups x (2b-1) diagonals.
        let cfg = a100();
        let k = nwgen::generate(16).unwrap();
        let opt = block_smem_passes(&k.optimized, 16, &cfg);
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
