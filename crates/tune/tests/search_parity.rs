//! The search-parity gate: the regression tests the CI `search-parity`
//! job runs on every push.
//!
//! Ground truth is the exhaustive enumeration of each workload's
//! *enlarged* (free-integer) domain at the legacy problem sizes. The
//! gate asserts that:
//!
//! * seeded `Anneal` and `Genetic` find a configuration whose estimate
//!   matches the exhaustive optimum while scoring at most 25% of the
//!   exhaustive evaluation count (with a small floor for the tiny
//!   stencil/rowwise spaces, where a quarter-budget would round to a
//!   handful of points);
//! * the enlarged spaces really are ≥ 10× the v2 enumeration in
//!   aggregate (and per-workload for the spaces with free-integer
//!   axes), so the budget above is a real saving, not a rounding
//!   artifact;
//! * the same seed replays the same search, and a larger budget never
//!   returns a worse winner;
//! * pinned to the legacy space with a budget of its size, both
//!   metaheuristics reach the legacy exhaustive optimum on every
//!   device model;
//! * a budget that covers the domain — any budget up to `usize::MAX`,
//!   and the persist-mix budget of 64 on the small persist-mix shapes —
//!   answers exactly the exhaustive winner after evaluating the whole
//!   domain once.
//!
//! A budget that covers the domain sweeps it instead of walking, so the
//! walks themselves are gated at a budget of the legacy domain's size
//! by the `strategy::tests` unit test the same CI job runs.
//!
//! Any oracle or space change that silently breaks the metaheuristics
//! (a neighborhood that can no longer reach the optimum, a scoring
//! change that reshapes the landscape) fails here rather than in a
//! paper table.

use gpu_sim::{a100, h100, mi300};
use lego_codegen::cuda::stencil::StencilShape;
use lego_tune::{Budget, Domain, RowwiseOp, SpaceScale, Strategy, TuneResult, Tuner, WorkloadKind};

/// The workloads of the gate, at the legacy problem sizes (kept small
/// enough that exhaustive ground truth stays cheap).
fn parity_kinds() -> Vec<WorkloadKind> {
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

/// The parity budget: ≤ 25% of the exhaustive count, floored at 16 for
/// spaces so small that a quarter rounds down to less than one genetic
/// founding population. (The floor moved from 8 when the additive
/// launch pricing sharpened the NW/LUD landscapes: the old roofline
/// `max()` left many configurations tied at the optimum, which a
/// handful of random probes would hit; the additive model's optima are
/// unique points.)
fn parity_budget(exhaustive_evals: usize) -> Budget {
    Budget((exhaustive_evals / 4).max(16))
}

/// Seeded Anneal and Genetic reach the exhaustive optimum of the
/// enlarged space on every workload, within a quarter of the
/// exhaustive evaluation count.
#[test]
fn metaheuristics_match_exhaustive_optimum_within_quarter_budget() {
    let gpu = a100();
    for kind in parity_kinds() {
        let truth = Tuner::new(gpu.clone())
            .with_space(SpaceScale::Enlarged)
            .tune(&kind)
            .unwrap_or_else(|e| panic!("{}: exhaustive: {e}", kind.name()));
        let budget = parity_budget(truth.evaluated);
        let len = Domain::new(kind, SpaceScale::Enlarged).len();
        for strategy in [Strategy::Anneal, Strategy::Genetic] {
            let r = Tuner::new(gpu.clone())
                .with_strategy(strategy)
                .with_budget(budget)
                .tune(&kind)
                .unwrap_or_else(|e| panic!("{}: {strategy}: {e}", kind.name()));
            assert!(
                r.evaluated <= budget.max_evals(),
                "{} {strategy}: {} evals > budget {}",
                kind.name(),
                r.evaluated,
                budget.max_evals()
            );
            // The 16-evaluation floor covers the tiny stencil and
            // rowwise domains, which are then swept, not walked.
            if budget.max_evals() >= len {
                assert_swept(&r, &truth, len, &format!("{} {strategy}", kind.name()));
            }
            assert!(
                r.tuned.time_s <= truth.tuned.time_s * (1.0 + 1e-9),
                "{} {strategy}: {} (config {}) misses optimum {} (config {}) \
                 with {}/{} evals",
                kind.name(),
                r.tuned.time_s,
                r.config,
                truth.tuned.time_s,
                truth.config,
                r.evaluated,
                truth.evaluated
            );
            assert!(
                r.tuned.time_s <= r.naive.time_s,
                "{} {strategy}: regressed the default",
                kind.name()
            );
        }
    }
}

/// Budgeted searches over the legacy space: with a budget equal to the
/// legacy domain's size, seeded Anneal and Genetic answer the legacy
/// exhaustive winner on every workload and device model. Such a budget
/// covers the domain, so both sweep it; the walks at this budget are
/// gated by `strategy::tests`.
#[test]
fn legacy_budgeted_searches_match_legacy_exhaustive() {
    for gpu in [a100(), h100(), mi300()] {
        for kind in parity_kinds() {
            let truth = Tuner::new(gpu.clone())
                .with_space(SpaceScale::Legacy)
                .tune(&kind)
                .unwrap_or_else(|e| panic!("{}: exhaustive: {e}", kind.name()));
            let len = Domain::new(kind, SpaceScale::Legacy).len();
            let budget = Budget(len);
            for strategy in [Strategy::Anneal, Strategy::Genetic] {
                let r = Tuner::new(gpu.clone())
                    .with_space(SpaceScale::Legacy)
                    .with_strategy(strategy)
                    .with_budget(budget)
                    .tune(&kind)
                    .unwrap_or_else(|e| panic!("{}: {strategy}: {e}", kind.name()));
                assert!(
                    r.evaluated <= budget.max_evals(),
                    "{} {strategy} on {}: {} evals > budget {}",
                    kind.name(),
                    gpu.name,
                    r.evaluated,
                    budget.max_evals()
                );
                assert!(
                    r.tuned.time_s <= truth.tuned.time_s * (1.0 + 1e-9),
                    "{} {strategy} on {}: {} (config {}) misses legacy optimum {} \
                     (config {}) with {}/{} evals",
                    kind.name(),
                    gpu.name,
                    r.tuned.time_s,
                    r.config,
                    truth.tuned.time_s,
                    truth.config,
                    r.evaluated,
                    truth.evaluated
                );
                let what = format!("{} {strategy} on {}", kind.name(), gpu.name);
                assert_swept(&r, &truth, len, &what);
            }
        }
    }
}

/// A budgeted search whose budget covers its `len`-point domain swept
/// it: it evaluated every point and answers the exhaustive winner,
/// ties included.
fn assert_swept(r: &TuneResult, truth: &TuneResult, len: usize, what: &str) {
    assert_eq!(r.evaluated, len, "{what}: a covering budget sweeps");
    assert_eq!(
        r.config, truth.config,
        "{what}: the sweep answers the exhaustive winner"
    );
    assert_eq!(r.tuned, truth.tuned, "{what}");
    assert_eq!(r.naive, truth.naive, "{what}");
}

/// A budget far beyond any domain used to overflow the walks'
/// proposal caps: anneal computed `64 × budget`, which wraps to 0 at
/// `1 << 58` and answered the naive default, and genetic planned about
/// 10^17 generations. Now every such budget sweeps the domain once.
#[test]
fn unbounded_budgets_sweep_to_the_exhaustive_winner() {
    let gpu = a100();
    for kind in [
        WorkloadKind::Transpose { n: 256 },
        WorkloadKind::Nw { n: 256, b: 16 },
    ] {
        let truth = Tuner::new(gpu.clone())
            .with_space(SpaceScale::Enlarged)
            .tune(&kind)
            .unwrap_or_else(|e| panic!("{}: exhaustive: {e}", kind.name()));
        let len = Domain::new(kind, SpaceScale::Enlarged).len();
        for budget in [1usize << 58, 1 << 62, usize::MAX] {
            for strategy in [Strategy::Anneal, Strategy::Genetic] {
                let r = Tuner::new(gpu.clone())
                    .with_strategy(strategy)
                    .with_budget(Budget(budget))
                    .tune(&kind)
                    .unwrap_or_else(|e| panic!("{}: {strategy}: {e}", kind.name()));
                let what = format!("{} {strategy} budget {budget}", kind.name());
                assert_swept(&r, &truth, len, &what);
            }
        }
    }
}

/// The budgeted keys of the persist-mix benchmark whose enlarged
/// domain fits its anneal budget of 64 — both NW and LUD shapes and
/// the three rowwise shapes — answer the exhaustive-enlarged winner
/// under anneal-64 and genetic-64 on every device model.
#[test]
fn persist_mix_budget_covers_the_small_domains() {
    const BUDGET: usize = 64;
    let shapes = [
        "matmul(n=512)",
        "matmul(n=1024)",
        "transpose(n=256)",
        "transpose(n=512)",
        "nw(n=64,b=16)",
        "nw(n=112,b=16)",
        "lud(n=256,bs=16)",
        "lud(n=512,bs=16)",
        "softmax(m=256,n=1024)",
        "layernorm-fwd(m=256,n=1024)",
        "layernorm-bwd(m=128,n=512)",
    ];
    let small: Vec<(WorkloadKind, usize)> = shapes
        .iter()
        .map(|s| WorkloadKind::parse(s).unwrap_or_else(|e| panic!("{s}: {e}")))
        .map(|kind| (kind, Domain::new(kind, SpaceScale::Enlarged).len()))
        .filter(|&(_, len)| len <= BUDGET)
        .collect();
    assert_eq!(small.len(), 7, "NW, LUD and rowwise shapes fit the budget");
    for gpu in [a100(), h100(), mi300()] {
        for &(kind, len) in &small {
            let truth = Tuner::new(gpu.clone())
                .with_space(SpaceScale::Enlarged)
                .tune(&kind)
                .unwrap_or_else(|e| panic!("{}: exhaustive: {e}", kind.name()));
            for strategy in [Strategy::Anneal, Strategy::Genetic] {
                let r = Tuner::new(gpu.clone())
                    .with_strategy(strategy)
                    .with_budget(Budget(BUDGET))
                    .tune(&kind)
                    .unwrap_or_else(|e| panic!("{}: {strategy}: {e}", kind.name()));
                let what = format!("{} {strategy} on {}", kind.name(), gpu.name);
                assert_swept(&r, &truth, len, &what);
            }
        }
    }
}

/// The enlarged free-integer spaces report ≥ 10× more candidates than
/// the v2 enumeration: per-workload for the kinds with free-integer
/// axes, and ≥ 10× in aggregate.
#[test]
fn enlarged_spaces_dwarf_v2_enumeration() {
    let mut v2_total = 0usize;
    let mut enlarged_total = 0usize;
    for kind in parity_kinds() {
        let v2 = Domain::new(kind, SpaceScale::Legacy).len();
        let enlarged = Domain::new(kind, SpaceScale::Enlarged).len();
        assert!(
            enlarged >= v2,
            "{}: enlarged {enlarged} < v2 {v2}",
            kind.name()
        );
        // The free-integer axes (tile sides, NW block sizes, LUD
        // coarsening) each unlock an order of magnitude on their own.
        match kind {
            WorkloadKind::Matmul { .. } | WorkloadKind::Nw { .. } | WorkloadKind::Lud { .. } => {
                assert!(
                    enlarged >= 10 * v2,
                    "{}: enlarged {enlarged} < 10× v2 {v2}",
                    kind.name()
                );
            }
            _ => {}
        }
        v2_total += v2;
        enlarged_total += enlarged;
    }
    assert!(
        enlarged_total >= 10 * v2_total,
        "aggregate: enlarged {enlarged_total} < 10× v2 {v2_total}"
    );
}

/// Same seed ⇒ identical winner, identical estimates, identical
/// evaluation count — for both metaheuristics.
#[test]
fn strategies_are_deterministic_per_seed() {
    let gpu = a100();
    for kind in [
        WorkloadKind::Transpose { n: 256 },
        WorkloadKind::Nw { n: 256, b: 16 },
        WorkloadKind::Lud { n: 256, bs: 16 },
    ] {
        for strategy in [Strategy::Anneal, Strategy::Genetic] {
            let tuner = Tuner::new(gpu.clone())
                .with_strategy(strategy)
                .with_budget(Budget(24));
            let a = tuner.tune(&kind).unwrap();
            let b = tuner.tune(&kind).unwrap();
            assert_eq!(a.config, b.config, "{} {strategy}", kind.name());
            assert_eq!(a.tuned, b.tuned, "{} {strategy}", kind.name());
            assert_eq!(a.naive, b.naive, "{} {strategy}", kind.name());
            assert_eq!(a.evaluated, b.evaluated, "{} {strategy}", kind.name());
        }
    }
}

/// A larger budget never returns a worse winner: the proposal stream is
/// budget-independent, so a longer run scores a superset of a shorter
/// one.
#[test]
fn budget_is_monotone() {
    let gpu = a100();
    for kind in [
        WorkloadKind::Transpose { n: 256 },
        WorkloadKind::Nw { n: 256, b: 16 },
        WorkloadKind::Lud { n: 256, bs: 16 },
    ] {
        for strategy in [Strategy::Anneal, Strategy::Genetic] {
            let mut last = f64::INFINITY;
            for budget in [4usize, 16, 48, 160] {
                let r = Tuner::new(gpu.clone())
                    .with_strategy(strategy)
                    .with_budget(Budget(budget))
                    .tune(&kind)
                    .unwrap();
                assert!(
                    r.tuned.time_s <= last * (1.0 + 1e-12),
                    "{} {strategy}: budget {budget} worsened {} -> {}",
                    kind.name(),
                    last,
                    r.tuned.time_s
                );
                last = r.tuned.time_s;
            }
        }
    }
}

/// Rowwise workloads are searchable end to end: the winner round-trips
/// through the generators' `from_tuned` constructors.
#[test]
fn rowwise_workloads_are_searchable() {
    let gpu = a100();
    for op in [
        RowwiseOp::Softmax,
        RowwiseOp::LayernormFwd,
        RowwiseOp::LayernormBwd,
    ] {
        let kind = WorkloadKind::Rowwise {
            op,
            m: 256,
            n: 1000,
        };
        let r = Tuner::new(gpu.clone())
            .with_strategy(Strategy::Anneal)
            .with_budget(Budget(16))
            .tune(&kind)
            .unwrap();
        assert!(r.tuned.time_s <= r.naive.time_s, "{}", kind.name());
        match op {
            RowwiseOp::Softmax => {
                let k = lego_codegen::triton::softmax::from_tuned(&r.config).unwrap();
                assert!(k.source.contains("lego-tune: BS="), "tuned header");
            }
            RowwiseOp::LayernormFwd | RowwiseOp::LayernormBwd => {
                let k = lego_codegen::triton::layernorm::from_tuned(&r.config).unwrap();
                assert!(k.source.contains("lego-tune: BS="), "tuned header");
            }
        }
    }

    // Degenerate tiny rows must not panic the metaheuristics: the block
    // list floors at one warp's worth, so every move axis stays
    // non-empty even when 4·next_pow2(n) < 32.
    let tiny = WorkloadKind::Rowwise {
        op: RowwiseOp::Softmax,
        m: 8,
        n: 4,
    };
    for strategy in [Strategy::Anneal, Strategy::Genetic] {
        let r = Tuner::new(gpu.clone())
            .with_strategy(strategy)
            .with_budget(Budget(8))
            .tune(&tiny)
            .unwrap();
        assert!(r.tuned.time_s <= r.naive.time_s, "tiny rowwise {strategy}");
    }
}

/// An unsatisfying cache entry (different strategy or smaller budget)
/// is not served, but its frontier warm-starts the new search; an
/// identical re-run afterwards is served from cache.
#[test]
fn cache_warm_starts_and_budget_aware_hits() {
    let dir = std::env::temp_dir().join(format!("lego-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("warm.json");
    let _ = std::fs::remove_file(&path);
    let gpu = a100();
    let kind = WorkloadKind::Nw { n: 256, b: 16 };

    let small = Tuner::new(gpu.clone())
        .with_strategy(Strategy::Anneal)
        .with_budget(Budget(12))
        .with_cache(&path);
    let first = small.tune(&kind).unwrap();
    assert!(!first.from_cache);

    // Same request again: a budget-satisfying entry exists — cache hit.
    let again = small.tune(&kind).unwrap();
    assert!(again.from_cache);
    assert_eq!(again.config, first.config);

    // A bigger budget is not satisfied by the cached 12-eval search; it
    // re-searches (warm-started from the stored frontier) and can only
    // do better.
    let big = Tuner::new(gpu.clone())
        .with_strategy(Strategy::Anneal)
        .with_budget(Budget(64))
        .with_cache(&path);
    let wider = big.tune(&kind).unwrap();
    assert!(!wider.from_cache, "larger budget must re-search");
    assert!(wider.tuned.time_s <= first.tuned.time_s * (1.0 + 1e-12));

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
