//! LU decomposition simulation (Fig. 12b / Fig. 13a).
//!
//! The Rodinia LUD factorizes an `n×n` matrix in `bs×bs` block steps:
//! per step a diagonal, a perimeter, and an internal kernel run. The
//! internal kernel dominates: every interior block re-reads its
//! perimeter row and column. Thread coarsening (LEGO's layout view of
//! it) enlarges the LUD block (`bs = r·16`), which divides both the
//! number of steps (launches) and the total perimeter traffic by `r` —
//! the arithmetic-intensity shift visible on the paper's roofline. The
//! panel walk lives in [`gpu_sim::trace::LudPanels`], shared with the
//! `lego-tune` oracle, and is priced by `gpu_sim`'s `CostModel` under
//! the workload's `PricingMode::AdditiveLaunch` — the dependent
//! diagonal/perimeter/internal kernels cannot overlap compute with
//! panel traffic, so the bottleneck terms add.

use gpu_sim::trace::{LudPanels, TraceBuilder};
use gpu_sim::{CostModel, Estimate, GpuConfig};
use lego_core::Layout;

/// Result for one LUD configuration.
#[derive(Clone, Copy, Debug)]
pub struct LudResult {
    /// Estimated runtime in seconds.
    pub time_s: f64,
    /// Achieved GFLOP/s.
    pub gflops: f64,
    /// Arithmetic intensity (FLOP / DRAM byte).
    pub intensity: f64,
    /// DRAM bytes moved.
    pub dram_bytes: f64,
}

/// Scores one LUD configuration through the shared trace builder,
/// returning the raw `gpu-sim` estimate.
pub fn estimate(n: i64, bs: i64, cfg: &GpuConfig) -> Estimate {
    assert!(n % bs == 0, "block must divide matrix");
    let workload = LudPanels {
        n,
        bs,
        t: 16,
        index_flops: 0.0,
    }
    .build(cfg);
    // The panel trace is pre-aggregated; the layout is unused.
    let layout = Layout::identity([bs, bs]).expect("identity");
    CostModel::new(cfg).price(&layout, &workload)
}

/// Simulates LUD with LUD-block side `bs` (the CUDA block stays 16×16;
/// coarsening factor is `bs/16`).
pub fn simulate(n: i64, bs: i64, cfg: &GpuConfig) -> LudResult {
    let e = estimate(n, bs, cfg);
    LudResult {
        time_s: e.time_s,
        gflops: e.flops / e.time_s / 1e9,
        intensity: e.flops / e.dram_bytes,
        dram_bytes: e.dram_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::a100;

    #[test]
    fn coarsening_raises_intensity() {
        let cfg = a100();
        let base = simulate(2048, 16, &cfg);
        let coarse = simulate(2048, 64, &cfg);
        // AI scales ~ bs/6: 16 -> ~2.7, 64 -> ~10.7.
        assert!(coarse.intensity > 3.0 * base.intensity);
    }

    #[test]
    fn coarsening_speeds_up() {
        let cfg = a100();
        for n in [1024, 2048, 4096, 8192] {
            let base = simulate(n, 16, &cfg);
            let coarse = simulate(n, 64, &cfg);
            assert!(
                coarse.time_s < base.time_s,
                "no speedup at n={n}: {} vs {}",
                coarse.time_s,
                base.time_s
            );
        }
    }

    #[test]
    fn intensity_matches_bs_over_six() {
        let cfg = a100();
        let r = simulate(4096, 64, &cfg);
        // flops/bytes ~ (2/3 bs^3) / (4*4*bs^2) = bs/24 per-tile… the
        // aggregate model lands near bs/12; just pin the scaling law:
        let r2 = simulate(4096, 16, &cfg);
        let ratio = r.intensity / r2.intensity;
        assert!((3.0..5.0).contains(&ratio), "AI ratio {ratio}");
    }

    #[test]
    fn flops_are_two_thirds_n_cubed() {
        let cfg = a100();
        let n = 2048i64;
        let r = simulate(n, 16, &cfg);
        let want = 2.0 / 3.0 * (n as f64).powi(3);
        let got = r.gflops * 1e9 * r.time_s;
        assert!((got / want - 1.0).abs() < 0.1, "flops {got} vs {want}");
    }
}
