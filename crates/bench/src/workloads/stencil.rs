//! Trace-driven 3-D stencil simulation (Fig. 12c / Fig. 13b).
//!
//! The per-warp lane walk — every stencil tap's 32 element addresses
//! computed through the *actual layout* (row-major vs. brick),
//! coalesced into 32-byte sectors and filtered through a scaled L2 —
//! lives in [`gpu_sim::trace::StencilWalk`], shared with the
//! `lego-tune` oracle.
//!
//! The mechanism is the one the paper names: bricks put "spatially
//! adjacent data related to a block of computation … physically
//! adjacent, eliminating unnecessary data movement over **strided**
//! data" (§V-B). The baseline array kernel's warps walk a strided
//! dimension of the row-major space (each lane in its own sector); with
//! the brick layout the same logical walk is unit-stride inside a brick.
//!
//! Scaling note (DESIGN.md §3): the paper's 512³ domains are simulated
//! at a smaller size with L2 capacity scaled by the same factor, so the
//! working-set-to-cache ratio that decides hit rates is preserved.

use gpu_sim::trace::{StencilWalk, TraceBuilder};
use gpu_sim::{CostModel, Estimate, GpuConfig};
use lego_codegen::cuda::stencil::{generate, StencilBench, StencilShape};
use lego_core::Layout;

pub use gpu_sim::trace::LaneAxis;

/// Result for one stencil configuration.
#[derive(Clone, Copy, Debug)]
pub struct StencilResult {
    /// Estimated runtime in seconds.
    pub time_s: f64,
    /// Achieved GFLOP/s.
    pub gflops: f64,
    /// DRAM bytes moved.
    pub dram_bytes: f64,
    /// L2↔SM bytes moved (sector traffic).
    pub l2_bytes: f64,
    /// Arithmetic intensity (FLOP / DRAM byte).
    pub intensity: f64,
}

/// Scores one stencil sweep through the shared trace builder, returning
/// the raw `gpu-sim` estimate.
pub fn estimate(
    layout: &Layout,
    shape: StencilShape,
    n: i64,
    block: (i64, i64, i64),
    lane_axis: LaneAxis,
    cfg: &GpuConfig,
) -> Estimate {
    let workload = StencilWalk {
        shape_name: shape.name(),
        offsets: shape.offsets(),
        radius: shape.radius(),
        n,
        block,
        lane_axis,
        index_flops: 0.0,
    }
    .build(cfg);
    CostModel::new(cfg).price(layout, &workload)
}

/// Simulates one stencil sweep over an `n³` domain with the given
/// layout, visiting points in `bx×by×bz` tiles with warps along
/// `lane_axis`.
pub fn sweep(
    layout: &Layout,
    shape: StencilShape,
    n: i64,
    block: (i64, i64, i64),
    lane_axis: LaneAxis,
    cfg: &GpuConfig,
) -> StencilResult {
    let e = estimate(layout, shape, n, block, lane_axis, cfg);
    StencilResult {
        time_s: e.time_s,
        gflops: e.flops / e.time_s / 1e9,
        dram_bytes: e.dram_bytes,
        l2_bytes: e.l2_bytes,
        intensity: e.flops / e.dram_bytes,
    }
}

/// Runs one shape with both layouts and returns
/// `(row_major, brick, speedup)`.
pub fn compare(
    shape: StencilShape,
    n: i64,
    b: i64,
    cfg: &GpuConfig,
) -> (StencilResult, StencilResult, f64) {
    let bench: StencilBench = generate(shape, n, b).expect("stencil layouts");
    // Baseline array kernel: 3-D tiles whose warps end up walking the
    // strided y dimension of the row-major space.
    let rm = sweep(&bench.row_major, shape, n, (4, 32, 4), LaneAxis::Y, cfg);
    // Brick kernel: one block per brick, threads in brick-local order —
    // which the brick layout makes memory-contiguous.
    let bk = sweep(&bench.brick, shape, n, (b, b, b), LaneAxis::YZ, cfg);
    (rm, bk, rm.time_s / bk.time_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::a100;

    #[test]
    fn brick_reduces_sector_traffic() {
        let cfg = a100();
        let (rm, bk, _) = compare(StencilShape::Star(2), 64, 8, &cfg);
        assert!(
            bk.l2_bytes < rm.l2_bytes / 2.0,
            "brick {} vs rm {}",
            bk.l2_bytes,
            rm.l2_bytes
        );
    }

    #[test]
    fn brick_speedup_in_paper_band() {
        // Paper: 3.4x – 3.9x across shapes.
        let cfg = a100();
        for shape in [StencilShape::Star(1), StencilShape::Cube(1)] {
            let (_, _, speedup) = compare(shape, 64, 8, &cfg);
            assert!(
                (2.0..6.0).contains(&speedup),
                "{}: speedup {speedup}",
                shape.name()
            );
        }
    }

    #[test]
    fn intensity_higher_for_bigger_stencils() {
        let cfg = a100();
        let (_, small, _) = compare(StencilShape::Star(1), 64, 8, &cfg);
        let (_, big, _) = compare(StencilShape::Cube(2), 64, 8, &cfg);
        assert!(big.intensity > small.intensity);
    }
}
