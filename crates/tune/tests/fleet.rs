//! Fleet-driver integration tests: parallel runs match the sequential
//! tuner exactly, results are invariant to thread count and scheduling
//! (repeated keys included), the merged cache write persists every key
//! and the reports carry what it wrote, a panicking key fails alone,
//! and frontier transfer is sound — never worse than a cold search
//! beyond a fixed tolerance, and deterministic per seed.

use gpu_sim::a100;
use lego_codegen::cuda::stencil::StencilShape;
use lego_codegen::tuning::RowwiseOp;
use lego_tune::fleet::{FleetDriver, FleetSpec, TRANSFER_MIN_EVALS};
use lego_tune::{Budget, Strategy, TuneRequest, TuningCache, WorkloadKind};

/// Winner-quality tolerance of the transfer-soundness property: a
/// transferred search keeps a quarter of the budget, so its winner may
/// trail the cold one, but never by more than this factor.
const TRANSFER_TOL: f64 = 0.05;

fn small_grid() -> Vec<TuneRequest> {
    FleetSpec::parse("matmul:256..1024x2,softmax:512..2048x2@a100,h100")
        .unwrap()
        .requests(&a100(), Strategy::Anneal, Budget(48), None)
}

/// With transfer off, a fleet is exactly N independent sequential
/// searches — same winners, same bit-exact estimates, in any order.
#[test]
fn cold_fleet_matches_the_sequential_tuner() {
    let grid = small_grid();
    let report = FleetDriver::new(4).with_transfer(false).run(&grid);
    assert_eq!(report.keys.len(), grid.len());
    assert!(!report.transfer);
    for key in &report.keys {
        let fleet = key.result.as_ref().expect("search succeeded");
        let solo = key
            .request
            .tuner()
            .tune_seeded(&key.request.kind, &[], None)
            .unwrap();
        assert_eq!(fleet.config, solo.result.config, "{}", key.cache_key);
        assert_eq!(fleet.tuned, solo.result.tuned, "{}", key.cache_key);
        assert_eq!(fleet.naive, solo.result.naive, "{}", key.cache_key);
        assert_eq!(fleet.evaluated, solo.result.evaluated, "{}", key.cache_key);
        assert!(key.transferred_from.is_none());
    }
    let c = report.counters();
    assert_eq!(c.searched, grid.len() as u64);
    assert_eq!(c.transfers, 0);
    assert_eq!(c.errors, 0);
}

/// Transfer sources are pinned before the run (nearest earlier key),
/// so the whole report is invariant to worker count and queue order.
#[test]
fn transferred_fleet_is_thread_count_invariant() {
    let grid = small_grid();
    let one = FleetDriver::new(1).run(&grid);
    let many = FleetDriver::new(4).run(&grid);
    assert_eq!(one.keys.len(), many.keys.len());
    for (a, b) in one.keys.iter().zip(many.keys.iter()) {
        assert_eq!(a.cache_key, b.cache_key);
        assert_eq!(a.transferred_from, b.transferred_from, "{}", a.cache_key);
        assert_eq!(a.seeds, b.seeds, "{}", a.cache_key);
        let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(ra.config, rb.config, "{}", a.cache_key);
        assert_eq!(ra.tuned, rb.tuned, "{}", a.cache_key);
        assert_eq!(ra.evaluated, rb.evaluated, "{}", a.cache_key);
        assert_eq!(ra.evals_to_winner, rb.evals_to_winner, "{}", a.cache_key);
    }
    // Late keys in each (family, device) sweep transferred from early
    // ones: only the four sweep heads (2 families × 2 devices — the
    // cross-device heads transfer too, from the sibling device) plus
    // the two global heads run cold.
    let c = many.counters();
    assert!(
        c.transfers >= (grid.len() as u64) - 4,
        "expected most keys to transfer, got {} of {}",
        c.transfers,
        grid.len()
    );
}

/// A cache-backed fleet writes every fresh result in one merged batch;
/// a second run over the same grid is all instant hits; no tempfile
/// litter survives.
#[test]
fn fleet_persists_once_and_rehits() {
    let dir = std::env::temp_dir().join(format!("lego-fleet-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.json");
    let _ = std::fs::remove_file(&path);

    let grid = small_grid();
    let driver = FleetDriver::new(3).with_cache(&path);
    let first = driver.run(&grid);
    assert_eq!(first.counters().errors, 0);
    assert_eq!(first.counters().searched, grid.len() as u64);

    let cache = TuningCache::new(&path);
    let entries = cache.entries();
    for req in &grid {
        let hit = entries
            .iter()
            .find(|(k, _)| *k == req.cache_key())
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing entry for {}", req.cache_key()));
        assert!(req.satisfied_by(hit), "{}", req.cache_key());
        assert!(!hit.frontier.is_empty(), "frontier persisted");
    }
    // Each fresh key's report carries exactly the entry persisted.
    for key in &first.keys {
        let persisted = entries.iter().find(|(k, _)| *k == key.cache_key);
        assert_eq!(key.entry.as_ref(), persisted.map(|(_, v)| v));
    }

    let second = driver.run(&grid);
    let c = second.counters();
    assert_eq!(c.cache_hits, grid.len() as u64, "second run all hits");
    assert_eq!(c.searched, 0);
    for key in &second.keys {
        let (a, b) = (
            first
                .keys
                .iter()
                .find(|k| k.cache_key == key.cache_key)
                .unwrap(),
            key,
        );
        let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(ra.config, rb.config);
        assert_eq!(ra.tuned, rb.tuned);
        assert!(rb.from_cache);
        assert!(b.entry.is_none(), "a hit persists nothing");
    }

    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
        .collect();
    assert!(leftovers.is_empty(), "stale tempfiles: {leftovers:?}");

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

/// Transfer soundness, per workload family and budgeted strategy: a
/// search seeded from a neighboring size's frontier and cut to a
/// quarter budget must land within [`TRANSFER_TOL`] of the same-seed
/// cold search's winner — and must replay bit-identically.
#[test]
fn transfer_is_never_worse_than_cold_beyond_tolerance() {
    let pairs: Vec<(WorkloadKind, WorkloadKind)> = vec![
        (
            WorkloadKind::Matmul { n: 512 },
            WorkloadKind::Matmul { n: 1024 },
        ),
        (
            WorkloadKind::Transpose { n: 512 },
            WorkloadKind::Transpose { n: 1024 },
        ),
        (
            WorkloadKind::Stencil {
                shape: StencilShape::Star(1),
                n: 32,
            },
            WorkloadKind::Stencil {
                shape: StencilShape::Star(1),
                n: 64,
            },
        ),
        (
            WorkloadKind::Nw { n: 512, b: 16 },
            WorkloadKind::Nw { n: 1024, b: 16 },
        ),
        (
            WorkloadKind::Lud { n: 512, bs: 16 },
            WorkloadKind::Lud { n: 1024, bs: 16 },
        ),
        (
            WorkloadKind::Rowwise {
                op: RowwiseOp::Softmax,
                m: 64,
                n: 1024,
            },
            WorkloadKind::Rowwise {
                op: RowwiseOp::Softmax,
                m: 64,
                n: 2048,
            },
        ),
    ];
    let cold_budget = Budget(160);
    let cut = Budget((cold_budget.max_evals() / 4).max(TRANSFER_MIN_EVALS));
    for strategy in [Strategy::Anneal, Strategy::Genetic] {
        for (src_kind, dst_kind) in &pairs {
            let tuner = lego_tune::Tuner::new(a100())
                .with_strategy(strategy)
                .with_budget(cold_budget);
            let src = tuner.tune_seeded(src_kind, &[], None).unwrap();
            let seeds: Vec<_> = src.frontier.iter().map(|(c, _)| *c).collect();

            let cold = tuner.tune_seeded(dst_kind, &[], None).unwrap();
            let warm = tuner.tune_seeded(dst_kind, &seeds, Some(cut)).unwrap();
            assert!(warm.result.evaluated <= cut.max_evals());
            assert!(
                warm.result.tuned.time_s <= cold.result.tuned.time_s * (1.0 + TRANSFER_TOL),
                "{} via {strategy}: transferred {:.3e}s vs cold {:.3e}s exceeds tolerance",
                dst_kind.name(),
                warm.result.tuned.time_s,
                cold.result.tuned.time_s
            );

            // Determinism per seed, transfer enabled: same seeds, same
            // budget → bit-identical outcome.
            let replay = tuner.tune_seeded(dst_kind, &seeds, Some(cut)).unwrap();
            assert_eq!(warm.result.config, replay.result.config);
            assert_eq!(warm.result.tuned, replay.result.tuned);
            assert_eq!(warm.evals_to_winner, replay.evals_to_winner);
            assert_eq!(warm.frontier, replay.frontier);
        }
    }
}

/// A key whose search panics fails alone: its report carries the
/// error, its dependent starts cold, and every other key succeeds.
#[test]
fn a_panicking_key_fails_alone() {
    let mut grid = FleetSpec::parse("matmul:256..512x2,stencil:32")
        .unwrap()
        .requests(&a100(), Strategy::Anneal, Budget(48), None);
    // `stencil:2` is refused by the grid parser; built by hand it
    // panics inside pricing. The stencil:32 key after it is its
    // nearest earlier sibling's dependent.
    let mut bad = grid[2].clone();
    bad.kind = WorkloadKind::Stencil {
        shape: StencilShape::Star(1),
        n: 2,
    };
    grid.insert(2, bad);

    let report = FleetDriver::new(2).run(&grid);
    assert_eq!(report.keys.len(), 4);
    let err = report.keys[2].result.as_ref().unwrap_err();
    assert!(err.contains("panicked"), "{err}");
    assert!(report.keys[2].entry.is_none());
    for (i, key) in report.keys.iter().enumerate().filter(|(i, _)| *i != 2) {
        assert!(
            key.result.is_ok(),
            "key {i} ({}) must succeed",
            key.cache_key
        );
    }
    assert_eq!(report.keys[3].transferred_from, None, "dependent runs cold");
    assert_eq!(report.counters().errors, 1);
}

/// With transfer off, a repeated key still waits for its first
/// occurrence and is then a hit: one search, the same reports on any
/// thread count.
#[test]
fn repeated_keys_search_once_without_transfer() {
    let grid = FleetSpec::parse("softmax:1k,softmax:1k,softmax:1k,softmax:1k@a100")
        .unwrap()
        .requests(&a100(), Strategy::Anneal, Budget(48), None);
    let one = FleetDriver::new(1).with_transfer(false).run(&grid);
    let many = FleetDriver::new(4).with_transfer(false).run(&grid);
    for report in [&one, &many] {
        let c = report.counters();
        assert_eq!((c.searched, c.cache_hits), (1, 3));
        let first = report.keys[0].result.as_ref().unwrap();
        assert!(!first.from_cache, "the first occurrence is the search");
        assert!(report.keys[0].entry.is_some());
        assert!(report.keys[1..].iter().all(|k| k.entry.is_none()));
    }
    for (a, b) in one.keys.iter().zip(many.keys.iter()) {
        let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(ra.from_cache, rb.from_cache);
        assert_eq!(ra.config, rb.config);
        assert_eq!(ra.tuned, rb.tuned);
        assert_eq!(ra.evaluated, rb.evaluated);
    }
}
