//! In-process fleet tests (`TuneService::fleet`): every fleet answer
//! equals the sequential tuner's for the same key and knobs, whatever
//! the cache held before; a repeated key is searched once; every key is
//! persisted and a restarted service answers the grid from the file; a
//! panicking key fails alone; a fleet replays the lanes a sequential
//! tuner loop does, on the calling thread.

use gpu_sim::a100;
use lego_served::TuneService;
use lego_tune::fleet::FleetSpec;
use lego_tune::{Budget, Knobs, Strategy, TuneRequest, TuningCache, WorkloadKind};

/// Budget-48 anneal on the a100 (the device of a grid without `@`).
fn anneal_48() -> Knobs {
    Knobs {
        strategy: Strategy::Anneal,
        budget: Budget(48),
        ..Knobs::new(a100())
    }
}

fn small_grid() -> Vec<TuneRequest> {
    FleetSpec::parse("matmul:256..1024x2,softmax:512..2048x2@a100,h100")
        .unwrap()
        .requests(&anneal_48())
}

/// A fresh temp path for one cache file (removed if it exists).
fn temp_cache(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("lego-fleet-{name}-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// One answer per key: on a fresh cache, and on a cache preloaded with
/// stale budget-12 entries for half the keys, every fleet key answers
/// and persists exactly what `Tuner::tune_entry` with the same knobs
/// does on a fresh cache.
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
        let path = temp_cache("answers");
        if stale_cache {
            std::fs::copy(&stale_path, &path).unwrap();
        }
        let service = TuneService::new(a100(), Some(path.clone()), None);
        let report = service.fleet(&grid);
        let what = format!("stale cache: {stale_cache}");
        let c = report.counters();
        assert_eq!((c.searched, c.errors), (grid.len() as u64, 0), "{what}");
        let persisted = TuningCache::new(&path);
        for (key, (result, entry)) in report.keys.iter().zip(&solo) {
            assert_eq!(key.result.as_ref(), Ok(result), "{what}: {}", key.cache_key);
            let on_disk = persisted.lookup(&key.cache_key);
            assert_eq!(on_disk.as_ref(), Some(entry), "{what}: {}", key.cache_key);
        }
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&stale_path);
}

/// A cache-backed fleet persists every fresh result; a restarted
/// service over the same file answers the whole grid from it; no
/// tempfile litter survives.
#[test]
fn fleet_persists_once_and_rehits() {
    let dir = std::env::temp_dir().join(format!("lego-fleet-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.json");
    let _ = std::fs::remove_file(&path);

    let grid = small_grid();
    let first = {
        let service = TuneService::new(a100(), Some(path.clone()), None);
        let report = service.fleet(&grid);
        service.flush().unwrap();
        report
    };
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

    let second = TuneService::new(a100(), Some(path.clone()), None).fleet(&grid);
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
        .requests(&anneal_48());
    // A device with zero-byte sectors is no device a front door
    // resolves; built by hand, it panics inside pricing (the global
    // phase divides by the sector width).
    let mut bad = grid[2].clone();
    bad.device = gpu_sim::GpuConfig {
        sector_bytes: 0,
        ..a100()
    };
    grid.insert(2, bad);

    let report = TuneService::new(a100(), None, None).fleet(&grid);
    assert_eq!(report.keys.len(), 4);
    let err = report.keys[2].result.as_ref().unwrap_err();
    assert!(err.contains("panicked"), "{err}");
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
/// repeat is a memory-tier hit of that answer that evaluated nothing.
#[test]
fn repeated_keys_search_once_without_transfer() {
    let grid = FleetSpec::parse("softmax:1k,softmax:1k,softmax:1k,softmax:1k@a100")
        .unwrap()
        .requests(&anneal_48());
    let report = TuneService::new(a100(), None, None).fleet(&grid);
    let c = report.counters();
    assert_eq!((c.searched, c.cache_hits), (1, 3));
    let first = report.keys[0].result.as_ref().unwrap();
    assert!(!first.from_cache, "the first occurrence is the search");
    assert!(first.evaluated > 0);
    for key in &report.keys[1..] {
        let repeat = key.result.as_ref().unwrap();
        assert!(repeat.from_cache);
        assert_eq!(repeat.evaluated, 0);
        assert_eq!(repeat.config, first.config);
        assert_eq!(repeat.tuned, first.tuned);
    }
}

/// The default `lego-fleet` grid (anneal-160), as `lego-fleet` expands
/// it.
fn default_cli_grid() -> Vec<TuneRequest> {
    let knobs = Knobs {
        strategy: Strategy::Anneal,
        budget: Budget(160),
        ..Knobs::new(a100())
    };
    FleetSpec::parse("matmul:256..2048x2,nw:512..4096x2,softmax:1k..16kx2@a100,h100")
        .unwrap()
        .requests(&knobs)
}

/// The replay lanes `work` adds to a fresh thread's count.
fn lanes_on_a_fresh_thread(work: impl FnOnce() + Send) -> u64 {
    std::thread::scope(|s| {
        s.spawn(|| {
            let before = gpu_sim::replay_work().lanes;
            work();
            gpu_sim::replay_work().lanes - before
        })
        .join()
        .unwrap()
    })
}

/// A fleet traces each geometry once, on the thread that asks for it:
/// over the default `lego-fleet` grid it replays exactly the lanes a
/// sequential `Tuner::tune_entry` loop over the same requests replays.
#[test]
fn a_fleet_replays_the_lanes_of_a_sequential_loop() {
    let grid = default_cli_grid();
    let fleet = lanes_on_a_fresh_thread(|| {
        let report = TuneService::new(a100(), None, None).fleet(&grid);
        assert_eq!(report.counters().searched, grid.len() as u64);
    });
    let sequential = lanes_on_a_fresh_thread(|| {
        for req in &grid {
            req.tuner().tune_entry(&req.kind).unwrap();
        }
    });
    assert!(sequential > 0);
    assert_eq!(fleet, sequential);
}
