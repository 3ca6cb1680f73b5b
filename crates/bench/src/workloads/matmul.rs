//! Tile-level matmul simulation (Fig. 11).
//!
//! Simulates the wave-by-wave execution of a tiled FP16 GEMM on the
//! A100 model. The trace itself — thread blocks issued `sm_count` at a
//! time in `pid` order, each block walking the K loop touching its `A`
//! and `B` tiles through a tile-granular L2 — lives in
//! [`gpu_sim::trace::MatmulWaves`], shared with the `lego-tune` oracle.
//! The *thread-block layout* decides which `(pid_m, pid_n)` a `pid`
//! gets — the grouped column-major layout of Fig. 1 vs. plain
//! row-major — and therefore how much reuse a wave finds in L2.

use gpu_sim::trace::{MatmulWaves, TraceBuilder};
use gpu_sim::{CostModel, Estimate, GpuConfig};
use lego_core::{sugar, Layout, OrderBy};
use lego_expr::Expr;

/// How program ids map to tile coordinates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Schedule {
    /// LEGO / Triton grouped column-major layout with group size `GM`.
    Grouped {
        /// The `GM` group size of Fig. 1.
        gm: i64,
    },
    /// Plain row-major pid mapping (the ablation baseline).
    RowMajor,
    /// Vendor-library model: ideal scheduling, no wave quantization,
    /// lower launch overhead (cuBLAS dispatch).
    Vendor,
}

/// Result of one simulated GEMM.
#[derive(Clone, Copy, Debug)]
pub struct MatmulResult {
    /// Estimated runtime in seconds.
    pub time_s: f64,
    /// Achieved TFLOP/s.
    pub tflops: f64,
    /// L2 hit rate of tile accesses.
    pub l2_hit_rate: f64,
    /// DRAM bytes moved.
    pub dram_bytes: f64,
}

/// Builds the concrete grouped thread layout for `nt_m × nt_n` tiles.
fn grouped_layout(nt_m: i64, nt_n: i64, gm: i64) -> Layout {
    let g = gm.min(nt_m);
    let gmax = (nt_m / gm).max(1);
    sugar::tile_by([vec![Expr::val(nt_m), Expr::val(nt_n)]])
        .expect("tile_by")
        .order_by(
            OrderBy::new([
                sugar::col([gmax, 1]).expect("col"),
                sugar::col([g, nt_n]).expect("col"),
            ])
            .expect("order_by"),
        )
        .build()
        .expect("layout")
}

/// Scores one GEMM configuration through the shared trace builder,
/// returning the raw `gpu-sim` estimate.
pub fn estimate(
    n: i64,
    (bm, bn, bk): (i64, i64, i64),
    schedule: Schedule,
    cfg: &GpuConfig,
) -> Estimate {
    let (nt_m, nt_n) = (n / bm, n / bn);
    // pid -> (pid_m, pid_n)
    let layout = match schedule {
        Schedule::Grouped { gm } => grouped_layout(nt_m, nt_n, gm),
        Schedule::RowMajor | Schedule::Vendor => Layout::identity([nt_m, nt_n]).expect("identity"),
    };
    let workload = MatmulWaves {
        vendor: matches!(schedule, Schedule::Vendor),
        ..MatmulWaves::with_tiles(n, (bm, bn, bk))
    }
    .build(cfg);
    CostModel::new(cfg).price(&layout, &workload)
}

/// Simulates `C = A·B` for square `n`, FP16, `BM×BN×BK` tiles.
pub fn simulate(
    n: i64,
    tiles: (i64, i64, i64),
    schedule: Schedule,
    cfg: &GpuConfig,
) -> MatmulResult {
    let e = estimate(n, tiles, schedule, cfg);
    MatmulResult {
        time_s: e.time_s,
        tflops: e.tflops(),
        l2_hit_rate: e.l2_hit_rate,
        dram_bytes: e.dram_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::a100;

    const TILES: (i64, i64, i64) = (128, 128, 64);

    #[test]
    fn grouped_layout_matches_reference_mapping() {
        // Cross-check against the reference formula from the Triton
        // tutorial (same as codegen's test, concrete path).
        let (nt_m, nt_n, gm) = (16i64, 16i64, 8i64);
        let l = grouped_layout(nt_m, nt_n, gm);
        for pid in 0..nt_m * nt_n {
            let v = l.inv_c(pid).unwrap();
            let npg = gm * nt_n;
            let want_m = (pid / npg) * gm + (pid % npg) % gm;
            let want_n = (pid % npg) / gm;
            assert_eq!((v[0], v[1]), (want_m, want_n), "pid {pid}");
        }
    }

    #[test]
    fn grouping_improves_l2_hit_rate_when_b_exceeds_l2() {
        // At 8192 the B matrix (128 MiB) no longer fits in L2, which is
        // when the grouped layout's 2-D wave footprint pays off; at 4096
        // B fits entirely and plain streaming is already optimal.
        let cfg = a100();
        let grouped = simulate(8192, TILES, Schedule::Grouped { gm: 8 }, &cfg);
        let plain = simulate(8192, TILES, Schedule::RowMajor, &cfg);
        assert!(
            grouped.l2_hit_rate > plain.l2_hit_rate,
            "grouped {} <= plain {}",
            grouped.l2_hit_rate,
            plain.l2_hit_rate
        );
        assert!(grouped.dram_bytes < plain.dram_bytes);
    }

    #[test]
    fn vendor_wins_small_sizes() {
        let cfg = a100();
        let lego = simulate(2048, TILES, Schedule::Grouped { gm: 8 }, &cfg);
        let vendor = simulate(2048, TILES, Schedule::Vendor, &cfg);
        assert!(vendor.tflops > lego.tflops);
    }

    #[test]
    fn gap_closes_at_large_sizes() {
        let cfg = a100();
        let small_ratio = {
            let l = simulate(2048, TILES, Schedule::Grouped { gm: 8 }, &cfg);
            let v = simulate(2048, TILES, Schedule::Vendor, &cfg);
            l.tflops / v.tflops
        };
        let large_ratio = {
            let l = simulate(8192, TILES, Schedule::Grouped { gm: 8 }, &cfg);
            let v = simulate(8192, TILES, Schedule::Vendor, &cfg);
            l.tflops / v.tflops
        };
        assert!(
            large_ratio > small_ratio,
            "no convergence: small {small_ratio}, large {large_ratio}"
        );
        assert!(large_ratio > 0.9, "large sizes should be near parity");
    }

    #[test]
    fn tensor_core_utilization_grows() {
        let cfg = a100();
        let r1 = simulate(2048, TILES, Schedule::Grouped { gm: 8 }, &cfg);
        let r2 = simulate(8192, TILES, Schedule::Grouped { gm: 8 }, &cfg);
        assert!(r2.tflops > r1.tflops);
        assert!(r2.tflops < cfg.fp16_tc_flops / 1e12);
    }
}
