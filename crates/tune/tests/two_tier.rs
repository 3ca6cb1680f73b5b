//! Correctness gates for the two-tier pricing split and the
//! bound-pruned exhaustive sweep.
//!
//! The traffic memo and the branch-and-bound cutoff are pure
//! optimizations: by contract they change *nothing* observable.
//!
//! * memo on vs. memo off must produce bit-identical [`Estimate`]s for
//!   every candidate of every workload family on every device (a
//!   `traffic_key = None` workload bypasses the memo entirely, so
//!   pricing the same candidate both ways compares the cached and the
//!   uncached paths);
//! * [`gpu_sim::CostModel::bound`] must be admissible — never above
//!   the full-trace time — for every candidate, since the pruning
//!   proof rests on it;
//! * the pruned exhaustive search must return the same winner, naive
//!   baseline, frontier, and evaluation count as scoring everything.

use gpu_sim::{a100, h100, mi300, CostModel, GpuConfig};
use lego_codegen::cuda::stencil::StencilShape;
use lego_tune::cache::config_to_json;
use lego_tune::strategy::rank;
use lego_tune::{
    run_search, Budget, Candidate, Domain, RowwiseOp, SpaceScale, Strategy, WorkloadKind,
    FRONTIER_K,
};

fn kinds() -> Vec<WorkloadKind> {
    vec![
        WorkloadKind::Matmul { n: 512 },
        WorkloadKind::Transpose { n: 256 },
        WorkloadKind::Stencil {
            shape: StencilShape::Star(1),
            n: 32,
        },
        WorkloadKind::Nw { n: 256, b: 16 },
        WorkloadKind::Lud { n: 256, bs: 16 },
        WorkloadKind::Rowwise {
            op: RowwiseOp::Softmax,
            m: 256,
            n: 1000,
        },
    ]
}

fn devices() -> Vec<GpuConfig> {
    vec![a100(), h100(), mi300()]
}

/// Unique feasible candidates of the enlarged domain (default first,
/// deduplicated in evaluation order — the same order and dedup the
/// exhaustive search uses), thinned to every `step`-th config so the
/// all-devices sweeps stay fast.
fn feasible(kind: &WorkloadKind, step: usize) -> Vec<(Candidate, lego_core::Layout)> {
    let domain = Domain::new(*kind, SpaceScale::Enlarged);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    let all = domain.enumerate();
    for c in std::iter::once(domain.default_config()).chain(all.into_iter().step_by(step.max(1))) {
        if !seen.insert(config_to_json(&c).render()) {
            continue;
        }
        let cand = Candidate::annotated(kind, &c);
        if let Ok(layout) = lego_tune::build_layout(kind, &cand.config) {
            out.push((cand, layout));
        }
    }
    out
}

#[test]
fn memoized_pricing_is_bit_identical_to_uncached() {
    for gpu in &devices() {
        let model = CostModel::new(gpu);
        for kind in &kinds() {
            for (cand, layout) in feasible(kind, 13) {
                let wl = lego_tune::build_workload(kind, &cand, gpu);
                assert!(wl.traffic_key.is_some(), "{kind:?} builder must set a key");
                let cached_cold = model.price(&layout, &wl);
                let cached_warm = model.price(&layout, &wl);
                let mut bare = lego_tune::build_workload(kind, &cand, gpu);
                bare.traffic_key = None;
                let uncached = model.price(&layout, &bare);
                assert_eq!(
                    cached_cold, uncached,
                    "{kind:?} on {}: memoized price diverged from direct trace",
                    gpu.tag
                );
                assert_eq!(
                    cached_cold, cached_warm,
                    "{kind:?} on {}: warm memo hit diverged from its own miss",
                    gpu.tag
                );
            }
        }
    }
}

#[test]
fn bound_never_exceeds_full_price() {
    for gpu in &devices() {
        let model = CostModel::new(gpu);
        for kind in &kinds() {
            for (cand, layout) in feasible(kind, 7) {
                let wl = lego_tune::build_workload(kind, &cand, gpu);
                let est = model.price(&layout, &wl);
                let lo = model.bound(&wl);
                assert!(
                    lo <= est.time_s * (1.0 + 1e-9),
                    "{kind:?} on {}: bound {lo:e} exceeds priced time {:e} for {:?}",
                    gpu.tag,
                    est.time_s,
                    cand.config
                );
            }
        }
    }
}

#[test]
fn pruned_exhaustive_matches_score_everything_ground_truth() {
    let gpu = a100();
    let mut total_pruned = 0;
    for kind in &kinds() {
        let domain = Domain::new(*kind, SpaceScale::Enlarged);
        // Ground truth: score every unique feasible config, no pruning.
        let scored: Vec<(Candidate, gpu_sim::Estimate)> = feasible(kind, 1)
            .into_iter()
            .map(|(cand, layout)| {
                let wl = lego_tune::build_workload(kind, &cand, &gpu);
                let est = CostModel::new(&gpu).price(&layout, &wl);
                (cand, est)
            })
            .collect();
        let mut best = 0;
        for (i, (_, est)) in scored.iter().enumerate() {
            if rank(est) < rank(&scored[best].1) {
                best = i;
            }
        }
        let mut order: Vec<usize> = (0..scored.len()).collect();
        order.sort_by(|&a, &b| {
            rank(&scored[a].1)
                .partial_cmp(&rank(&scored[b].1))
                .expect("finite estimates")
                .then(a.cmp(&b))
        });
        let frontier: Vec<(lego_tune::TunedConfig, f64)> = order
            .iter()
            .take(FRONTIER_K)
            .map(|&i| (scored[i].0.config, scored[i].1.time_s))
            .collect();

        let outcome = run_search(
            Strategy::Exhaustive,
            &domain,
            &gpu,
            Budget::default(),
            "two-tier-parity",
            &[],
        )
        .expect("exhaustive search succeeds");
        assert_eq!(
            outcome.winner.config, scored[best].0.config,
            "{kind:?}: pruning changed the winner"
        );
        assert_eq!(
            outcome.tuned, scored[best].1,
            "{kind:?}: pruning changed the winning estimate"
        );
        assert_eq!(
            outcome.naive, scored[0].1,
            "{kind:?}: pruning changed the naive baseline"
        );
        assert_eq!(
            outcome.frontier, frontier,
            "{kind:?}: pruning changed the persisted frontier"
        );
        assert_eq!(
            outcome.evaluated,
            scored.len(),
            "{kind:?}: scored + pruned must equal the unpruned count"
        );
        assert!(
            outcome.traffic_hits + outcome.traffic_misses > 0,
            "{kind:?}: keyed workloads must probe the traffic memo"
        );
        total_pruned += outcome.pruned;
    }
    assert!(
        total_pruned > 0,
        "the admissible bound pruned nothing across any family"
    );
}
