//! Workload drivers, one per paper experiment family. Each driver maps
//! its paper point to a `lego-tune` `(WorkloadKind, TunedConfig)` pair
//! and prices it through the tuner's own path — `build_layout`, then
//! `build_workload`, then `gpu_sim`'s `CostModel::price` — so a number
//! in a paper table and the estimate the tuner ranks for the same
//! config are one computation. The drivers build no layouts and render
//! no kernels of their own; the one model outside the tuner's space is
//! the vendor-library matmul baseline ([`matmul::Schedule::Vendor`]).

use gpu_sim::{CostModel, Estimate, GpuConfig};
use lego_tune::{build_layout, build_workload, Candidate, TunedConfig, WorkloadKind};

pub mod lud;
pub mod matmul;
pub mod nw;
pub mod rowwise;
pub mod stencil;
pub mod transpose;

/// Prices one paper point through the tuner's path. The candidate is
/// unannotated, so the estimate carries no index-expression flop term:
/// the paper tables price the memory and compute of the kernel alone.
fn price(kind: WorkloadKind, config: TunedConfig, cfg: &GpuConfig) -> Estimate {
    let layout = build_layout(&kind, &config).expect("paper configs build a layout");
    let candidate = Candidate {
        config,
        expr_variant: None,
        index_ops: None,
    };
    CostModel::new(cfg).price(&layout, &build_workload(&kind, &candidate, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::a100;
    use lego_codegen::cuda::stencil::StencilShape;
    use lego_codegen::cuda::transpose::TransposeVariant;

    /// Pricing a paper point builds its layout without running the
    /// simplifier: no kernel is generated just to read the layout.
    #[test]
    fn paper_points_price_without_simplifying() {
        let cfg = a100();
        let before = lego_expr::intern::stats();
        for n in [2048i64, 4096, 8192, 16384] {
            nw::simulate(n, 16, false, &cfg);
            nw::simulate(n, 16, true, &cfg);
        }
        transpose::simulate(2048, 32, TransposeVariant::SmemCoalesced, &cfg);
        stencil::compare(StencilShape::Star(1), 64, 8, &cfg);
        let after = lego_expr::intern::stats();
        assert_eq!(
            (after.simplify_hits, after.simplify_misses),
            (before.simplify_hits, before.simplify_misses),
            "a driver ran the simplifier"
        );
    }
}
