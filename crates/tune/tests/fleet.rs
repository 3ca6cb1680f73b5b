//! Fleet-driver integration tests: every fleet answer equals the
//! sequential tuner's for the same key and knobs, on any thread count
//! and whatever the cache held before; a repeated key is searched once;
//! the merged cache write persists every key and the reports carry what
//! it wrote; a panicking key fails alone.

use gpu_sim::a100;
use lego_codegen::cuda::stencil::StencilShape;
use lego_tune::fleet::{FleetDriver, FleetSpec};
use lego_tune::{Budget, Strategy, TuneRequest, TuningCache, WorkloadKind};

fn small_grid() -> Vec<TuneRequest> {
    FleetSpec::parse("matmul:256..1024x2,softmax:512..2048x2@a100,h100")
        .unwrap()
        .requests(&a100(), Strategy::Anneal, Budget(48), None)
}

/// A fresh temp path for one cache file (removed if it exists).
fn temp_cache(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("lego-fleet-{name}-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// One answer per key: on 1 and 4 threads, and with a cache preloaded
/// with stale budget-12 entries for half the keys, every fleet key
/// answers and persists exactly what `Tuner::tune_entry` with the same
/// knobs does on a fresh cache.
#[test]
fn every_fleet_key_answers_like_a_plain_tune() {
    let grid = small_grid();
    let solo: Vec<_> = grid
        .iter()
        .map(|req| req.tuner().tune_entry(&req.kind).unwrap())
        .collect();

    // Stale entries: the six matmul keys (half the grid) searched at
    // budget 12, which the budget-48 requests do not accept. (A softmax
    // domain is small enough for budget 12 to sweep, which satisfies
    // any budget.)
    let stale_path = temp_cache("stale");
    let matmuls = grid
        .iter()
        .filter(|req| matches!(req.kind, WorkloadKind::Matmul { .. }));
    assert_eq!(matmuls.clone().count() * 2, grid.len());
    for req in matmuls {
        let tuner = req.tuner().with_budget(Budget(12)).with_cache(&stale_path);
        let (_, entry) = tuner.tune_entry(&req.kind).unwrap();
        assert!(!req.satisfied_by(&entry), "{}", req.cache_key());
    }

    for stale_cache in [false, true] {
        for threads in [1, 4] {
            let path = temp_cache("answers");
            if stale_cache {
                std::fs::copy(&stale_path, &path).unwrap();
            }
            let report = FleetDriver::new(threads).with_cache(&path).run(&grid);
            let what = format!("{threads} threads, stale cache: {stale_cache}");
            let c = report.counters();
            assert_eq!((c.searched, c.errors), (grid.len() as u64, 0), "{what}");
            let persisted = TuningCache::new(&path);
            for (key, (result, entry)) in report.keys.iter().zip(&solo) {
                assert_eq!(key.result.as_ref(), Ok(result), "{what}: {}", key.cache_key);
                assert_eq!(key.entry.as_ref(), Some(entry), "{what}: {}", key.cache_key);
                let on_disk = persisted.lookup(&key.cache_key);
                assert_eq!(on_disk.as_ref(), Some(entry), "{what}: {}", key.cache_key);
            }
            let _ = std::fs::remove_file(&path);
        }
    }
    let _ = std::fs::remove_file(&stale_path);
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

/// A key whose search panics fails alone: its report carries the
/// error, and every other key succeeds.
#[test]
fn a_panicking_key_fails_alone() {
    let mut grid = FleetSpec::parse("matmul:256..512x2,stencil:32")
        .unwrap()
        .requests(&a100(), Strategy::Anneal, Budget(48), None);
    // `stencil:2` is refused by the grid parser; built by hand it
    // panics inside pricing.
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
    assert_eq!(report.counters().errors, 1);
}

/// A repeated key is searched once, at its first occurrence, and every
/// repeat is a hit of that answer: the same reports on any thread
/// count.
#[test]
fn repeated_keys_search_once_without_transfer() {
    let grid = FleetSpec::parse("softmax:1k,softmax:1k,softmax:1k,softmax:1k@a100")
        .unwrap()
        .requests(&a100(), Strategy::Anneal, Budget(48), None);
    let one = FleetDriver::new(1).run(&grid);
    let many = FleetDriver::new(4).run(&grid);
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
