//! Tuner-level integration tests: every layout the search space emits
//! is a bijection, the search is deterministic, tuning never regresses
//! the default, and the JSON cache round-trips estimates bit-exactly.

use gpu_sim::a100;
use lego_codegen::cuda::stencil::StencilShape;
use lego_core::check::check_layout_bijective;
use lego_tune::cache::{cache_key, CachedTuning, TuningCache};
use lego_tune::{build_layout, Budget, Domain, SpaceScale, Strategy, Tuner, WorkloadKind};

fn small_kinds() -> Vec<WorkloadKind> {
    vec![
        WorkloadKind::Matmul { n: 1024 },
        WorkloadKind::Transpose { n: 512 },
        WorkloadKind::Stencil {
            shape: StencilShape::Star(1),
            n: 32,
        },
        WorkloadKind::Nw { n: 512, b: 16 },
        WorkloadKind::Lud { n: 512, bs: 16 },
    ]
}

/// Every candidate layout in every search space is bijective, and
/// `inv_c` inverts `apply_c` pointwise.
#[test]
fn search_space_layouts_are_bijective() {
    for kind in small_kinds() {
        let configs = Domain::new(kind, SpaceScale::Legacy).enumerate();
        assert!(
            configs.len() >= 3,
            "{}: only {} candidates",
            kind.name(),
            configs.len()
        );
        for config in &configs {
            let layout = build_layout(&kind, config).unwrap_or_else(|e| panic!("{}: {e}", config));
            let dims = layout.view().dims_const().unwrap();
            let size: i64 = dims.iter().product();
            if size <= 64 * 64 {
                // Exhaustive bijectivity for small spaces.
                check_layout_bijective(&layout).unwrap_or_else(|e| panic!("{}: {e}", config));
            }
            // Pointwise apply/inv round trip on scattered probes.
            for probe in 0..16 {
                let f = (probe * 7919) % size;
                let idx = layout.inv_c(f).unwrap();
                assert_eq!(layout.apply_c(&idx).unwrap(), f, "{}: flat {f}", config);
            }
        }
    }
}

/// The default configuration is always candidate zero, so the tuned
/// result can never be slower than the shipped default.
#[test]
fn default_config_is_first_candidate() {
    for kind in small_kinds() {
        let configs = Domain::new(kind, SpaceScale::Legacy).enumerate();
        assert_eq!(configs[0], kind.default_config());
    }
}

/// Same inputs → same winning configuration and identical estimates.
#[test]
fn tuning_is_deterministic() {
    let tuner = Tuner::new(a100());
    for kind in small_kinds() {
        let a = tuner.tune(&kind).unwrap();
        let b = tuner.tune(&kind).unwrap();
        assert_eq!(a.config, b.config, "{}", kind.name());
        assert_eq!(a.tuned, b.tuned, "{}", kind.name());
        assert_eq!(a.naive, b.naive, "{}", kind.name());
        assert_eq!(a.expr_variant, b.expr_variant, "{}", kind.name());
    }
}

/// Tuning never regresses the hand-picked default, and for these
/// workloads the model finds a strictly better configuration.
#[test]
fn tuned_configuration_never_regresses() {
    let tuner = Tuner::new(a100());
    for kind in small_kinds() {
        let r = tuner.tune(&kind).unwrap();
        assert!(
            r.tuned.time_s <= r.naive.time_s,
            "{}: tuned {} > naive {}",
            kind.name(),
            r.tuned.time_s,
            r.naive.time_s
        );
    }
    // Transpose and stencil have known large headroom over their naive
    // defaults (smem staging, bricks) — the search must find it.
    let t = tuner.tune(&WorkloadKind::Transpose { n: 512 }).unwrap();
    assert!(t.speedup() > 1.5, "transpose speedup {}", t.speedup());
    let s = tuner
        .tune(&WorkloadKind::Stencil {
            shape: StencilShape::Cube(1),
            n: 32,
        })
        .unwrap();
    assert!(s.speedup() > 1.5, "stencil speedup {}", s.speedup());
}

/// Cache write → read → identical `Estimate` (bit-exact floats).
#[test]
fn cache_round_trips_estimates() {
    let dir = std::env::temp_dir().join(format!("lego-tune-test-{}", std::process::id()));
    let path = dir.join("cache-roundtrip.json");
    let _ = std::fs::remove_file(&path);
    let gpu = a100();

    let tuner = Tuner::new(gpu.clone());
    let kind = WorkloadKind::Transpose { n: 512 };
    let fresh = tuner.tune(&kind).unwrap();

    let cache = TuningCache::new(&path);
    let key = cache_key(&fresh.workload, kind.pricing_mode(), &gpu);
    let entry = CachedTuning {
        config: fresh.config,
        expr_variant: fresh.expr_variant,
        index_ops: fresh.index_ops,
        naive: fresh.naive,
        tuned: fresh.tuned,
        evaluated: fresh.evaluated,
        strategy: "exhaustive".to_string(),
        budget: None,
        space: "legacy".to_string(),
        frontier: vec![(fresh.config, fresh.tuned.time_s)],
    };
    cache.store(&key, &entry).unwrap();
    let back = cache.lookup(&key).unwrap();
    assert_eq!(back, entry);
    assert_eq!(
        back.tuned, fresh.tuned,
        "estimate must survive the JSON trip"
    );

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

/// A cached tuner skips re-evaluation on the second run.
#[test]
fn second_run_hits_cache() {
    let dir = std::env::temp_dir().join(format!("lego-tune-test-{}", std::process::id()));
    let path = dir.join("cache-hit.json");
    let _ = std::fs::remove_file(&path);

    let tuner = Tuner::new(a100()).with_cache(&path);
    let kind = WorkloadKind::Stencil {
        shape: StencilShape::Star(1),
        n: 32,
    };
    let first = tuner.tune(&kind).unwrap();
    assert!(!first.from_cache);
    assert!(first.evaluated > 0);

    let second = tuner.tune(&kind).unwrap();
    assert!(second.from_cache, "second run must hit the cache");
    assert_eq!(second.evaluated, 0, "cache hit skips evaluation");
    assert_eq!(second.config, first.config);
    assert_eq!(second.tuned, first.tuned);
    assert_eq!(second.naive, first.naive);

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

/// Non-power-of-two problem sizes enumerate only constructible
/// schedules (GM must divide nt_m) and tune cleanly end to end.
#[test]
fn non_power_of_two_sizes_tune_cleanly() {
    let tuner = Tuner::new(a100());
    for n in [768i64, 1536] {
        let r = tuner
            .tune(&WorkloadKind::Matmul { n })
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
        assert!(r.tuned.time_s <= r.naive.time_s, "n={n}");
        assert!(r.evaluated > 1, "n={n}: space collapsed");
    }
}

/// Sizes that parse but leave an axis empty (no power-of-two transpose
/// tile divides 100; 257 and 4099 are prime, so no matmul tile divides
/// them) have a one-point domain: every strategy, at either scale,
/// scores the default alone instead of panicking on an empty axis.
#[test]
fn empty_axis_sizes_tune_to_the_default() {
    for name in ["transpose(n=100)", "matmul(n=257)", "matmul(n=4099)"] {
        let kind = WorkloadKind::parse(name).expect("size parses");
        for scale in [SpaceScale::Legacy, SpaceScale::Enlarged] {
            for strategy in [Strategy::Exhaustive, Strategy::Anneal, Strategy::Genetic] {
                let r = Tuner::new(a100())
                    .with_space(scale)
                    .with_strategy(strategy)
                    .with_budget(Budget(16))
                    .tune(&kind)
                    .unwrap_or_else(|e| panic!("{name} {scale:?} {strategy}: {e}"));
                assert_eq!(
                    r.config,
                    kind.default_config(),
                    "{name} {scale:?} {strategy}"
                );
                assert_eq!(r.evaluated, 1, "{name} {scale:?} {strategy}");
            }
        }
    }
}

/// The matmul search reproduces the paper's qualitative result: the
/// grouped schedule beats plain row-major once B no longer fits in L2,
/// and the tuner's winner is at least as good as both.
#[test]
fn matmul_winner_beats_row_major_at_large_sizes() {
    let tuner = Tuner::new(a100());
    let r = tuner.tune(&WorkloadKind::Matmul { n: 4096 }).unwrap();
    assert!(r.tuned.time_s <= r.naive.time_s);
    // The winner must retain decent L2 behavior.
    assert!(
        r.tuned.l2_hit_rate > 0.3,
        "hit rate {}",
        r.tuned.l2_hit_rate
    );
}
