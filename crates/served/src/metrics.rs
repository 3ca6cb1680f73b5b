//! Live service counters: per-request-class tier hits, latency
//! percentiles, QPS, and aggregated expression-arena hit rates.
//!
//! A *request class* is `workload-family@device-tag` (`matmul@a100`),
//! the granularity the ROADMAP asks metrics for — fine enough to see
//! which families are search-bound on which devices, coarse enough to
//! stay bounded. Latencies are kept as raw samples (one `f64` per
//! request) and reduced to p50/p99 only when a `metrics` request asks,
//! so memory and scrape cost grow with the run: a perfbench warm-hits
//! run records 125k–624k samples.
//!
//! The expression arena and its memo tables are *per worker thread*
//! ([`lego_expr::intern::stats`] reads the calling thread's counters),
//! so each worker publishes its own snapshot after every request that
//! ran the tuner on it (tiers `searched` and `cache`) and the report
//! sums across workers.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use lego_expr::intern::ArenaStats;
use lego_tune::Json;

use crate::service::Tier;

/// One class's counters.
#[derive(Clone, Debug, Default)]
struct ClassStats {
    requests: u64,
    errors: u64,
    tiers: [u64; 4],
    latencies_ms: Vec<f64>,
}

#[derive(Default)]
struct Inner {
    requests: u64,
    errors: u64,
    malformed: u64,
    /// Request lines cut off at the daemon's line cap (each also counts
    /// as one malformed request).
    oversized_lines: u64,
    tiers: [u64; 4],
    classes: BTreeMap<String, ClassStats>,
    /// Completed fleet runs (their keys count as `tune` requests).
    fleet_runs: u64,
    /// Latest arena snapshot per worker thread (counters are monotone
    /// per thread, so "latest" is "total").
    arena: BTreeMap<usize, ArenaStats>,
    /// Latest `(installed, hits)` of sidecar-imported annotations per
    /// worker thread (same monotone-snapshot convention).
    ann_sidecar: BTreeMap<usize, (u64, u64)>,
    /// Latest `(hits, misses)` of the traffic memo — the cost model's
    /// geometry-keyed trace cache — per worker thread (same
    /// monotone-snapshot convention).
    traffic: BTreeMap<usize, (u64, u64)>,
}

/// The service-wide metrics registry. All methods take `&self`.
pub struct Metrics {
    start: Instant,
    inner: Mutex<Inner>,
}

impl Metrics {
    /// An empty registry; the QPS clock starts now.
    pub fn new() -> Metrics {
        Metrics {
            start: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Records one resolved `tune` request.
    pub fn record_tune(&self, class: &str, tier: Tier, ok: bool, elapsed_ms: f64) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        inner.requests += 1;
        inner.tiers[tier_index(tier)] += 1;
        if !ok {
            inner.errors += 1;
        }
        let entry = inner.classes.entry(class.to_string()).or_default();
        entry.requests += 1;
        entry.tiers[tier_index(tier)] += 1;
        if !ok {
            entry.errors += 1;
        }
        entry.latencies_ms.push(elapsed_ms);
    }

    /// Records a request rejected before resolution (bad JSON, unknown
    /// verb/workload/device).
    pub fn record_rejected(&self) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        inner.requests += 1;
        inner.errors += 1;
        inner.malformed += 1;
    }

    /// Records a request line rejected for exceeding the line cap
    /// (counted as a malformed request too).
    pub fn record_oversized(&self) {
        self.record_rejected();
        self.inner.lock().expect("metrics poisoned").oversized_lines += 1;
    }

    /// Records one completed fleet run (its keys were recorded one by
    /// one through [`Metrics::record_tune`]).
    pub fn record_fleet_run(&self) {
        self.inner.lock().expect("metrics poisoned").fleet_runs += 1;
    }

    /// Publishes worker `idx`'s current arena counters.
    pub fn record_arena(&self, idx: usize, stats: ArenaStats) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        inner.arena.insert(idx, stats);
    }

    /// Publishes worker `idx`'s current annotation-sidecar counters
    /// (`(installed, hits)`, monotone per thread).
    pub fn record_sidecar(&self, idx: usize, stats: (u64, u64)) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        inner.ann_sidecar.insert(idx, stats);
    }

    /// Publishes worker `idx`'s current traffic-memo counters
    /// (`(hits, misses)`, monotone per thread).
    pub fn record_traffic(&self, idx: usize, stats: (u64, u64)) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        inner.traffic.insert(idx, stats);
    }

    /// Count of fresh searches run (the herd invariant's counter).
    pub fn searches_run(&self) -> u64 {
        self.inner.lock().expect("metrics poisoned").tiers[tier_index(Tier::Searched)]
    }

    /// Count of requests that blocked on another's in-flight search.
    pub fn coalesced_waits(&self) -> u64 {
        self.inner.lock().expect("metrics poisoned").tiers[tier_index(Tier::Coalesced)]
    }

    /// The full metrics report (the `metrics` verb's response).
    pub fn to_json(&self) -> Json {
        let inner = self.inner.lock().expect("metrics poisoned");
        let uptime_s = self.start.elapsed().as_secs_f64().max(1e-9);

        let tier_obj = |tiers: &[u64; 4]| {
            Json::Obj(
                Tier::ALL
                    .iter()
                    .map(|t| {
                        (
                            t.name().to_string(),
                            Json::Int(tiers[tier_index(*t)] as i64),
                        )
                    })
                    .collect(),
            )
        };

        let classes = Json::Obj(
            inner
                .classes
                .iter()
                .map(|(name, c)| {
                    let mut sorted = c.latencies_ms.clone();
                    sorted.sort_by(|a, b| a.total_cmp(b));
                    (
                        name.clone(),
                        Json::obj([
                            ("requests", Json::Int(c.requests as i64)),
                            ("errors", Json::Int(c.errors as i64)),
                            ("tiers", tier_obj(&c.tiers)),
                            ("qps", Json::num(c.requests as f64 / uptime_s)),
                            ("p50_ms", Json::num(percentile(&sorted, 0.50))),
                            ("p99_ms", Json::num(percentile(&sorted, 0.99))),
                        ]),
                    )
                })
                .collect(),
        );

        // Sum arena counters across workers; each worker's snapshot is
        // its thread's monotone total.
        let arena = inner
            .arena
            .values()
            .fold(ArenaStats::default(), |acc, s| acc.merge(s));
        let rate = |hits: u64, misses: u64| {
            let total = hits + misses;
            if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            }
        };

        // Sidecar warm-start attribution: annotation-cache entries
        // imported at startup and the hits served from them, summed
        // across workers.
        let (ann_installed, ann_hits) = inner
            .ann_sidecar
            .values()
            .fold((0u64, 0u64), |(i, h), (wi, wh)| (i + wi, h + wh));

        // Traffic-memo probes, summed across workers: how often the
        // two-tier cost model re-timed a known geometry without a
        // trace replay.
        let (tr_hits, tr_misses) = inner
            .traffic
            .values()
            .fold((0u64, 0u64), |(h, m), (wh, wm)| (h + wh, m + wm));

        Json::obj([
            ("ok", Json::Bool(true)),
            ("uptime_s", Json::num(uptime_s)),
            ("sidecar_warm_hits", Json::Int(ann_hits as i64)),
            ("sidecar_installed", Json::Int(ann_installed as i64)),
            ("requests", Json::Int(inner.requests as i64)),
            ("qps", Json::num(inner.requests as f64 / uptime_s)),
            ("errors", Json::Int(inner.errors as i64)),
            ("malformed", Json::Int(inner.malformed as i64)),
            ("oversized_lines", Json::Int(inner.oversized_lines as i64)),
            ("tiers", tier_obj(&inner.tiers)),
            (
                "searches_run",
                Json::Int(inner.tiers[tier_index(Tier::Searched)] as i64),
            ),
            (
                "coalesced_waits",
                Json::Int(inner.tiers[tier_index(Tier::Coalesced)] as i64),
            ),
            ("classes", classes),
            (
                "fleet",
                Json::obj([("runs", Json::Int(inner.fleet_runs as i64))]),
            ),
            (
                "traffic",
                Json::obj([
                    ("hits", Json::Int(tr_hits as i64)),
                    ("misses", Json::Int(tr_misses as i64)),
                    ("hit_rate", Json::num(rate(tr_hits, tr_misses))),
                ]),
            ),
            (
                "arena",
                Json::obj([
                    ("workers", Json::Int(inner.arena.len() as i64)),
                    ("nodes", Json::Int(arena.nodes as i64)),
                    (
                        "intern_hit_rate",
                        Json::num(rate(arena.intern_hits, arena.intern_misses)),
                    ),
                    (
                        "memo_hit_rate",
                        Json::num(rate(arena.memo_hits(), arena.memo_misses())),
                    ),
                ]),
            ),
        ])
    }
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

fn tier_index(tier: Tier) -> usize {
    match tier {
        Tier::Memory => 0,
        Tier::Cache => 1,
        Tier::Coalesced => 2,
        Tier::Searched => 3,
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.50), 51.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn tier_counters_and_classes_accumulate() {
        let m = Metrics::new();
        m.record_tune("matmul@a100", Tier::Searched, true, 10.0);
        m.record_tune("matmul@a100", Tier::Coalesced, true, 12.0);
        m.record_tune("matmul@a100", Tier::Memory, true, 0.1);
        m.record_tune("nw@h100", Tier::Searched, false, 5.0);
        m.record_rejected();
        assert_eq!(m.searches_run(), 2);
        assert_eq!(m.coalesced_waits(), 1);
        let j = m.to_json();
        assert_eq!(j.get("requests").and_then(Json::as_i64), Some(5));
        assert_eq!(j.get("errors").and_then(Json::as_i64), Some(2));
        assert_eq!(j.get("malformed").and_then(Json::as_i64), Some(1));
        let mm = j.get("classes").unwrap().get("matmul@a100").unwrap();
        assert_eq!(mm.get("requests").and_then(Json::as_i64), Some(3));
        assert_eq!(
            mm.get("tiers")
                .unwrap()
                .get("memory")
                .and_then(Json::as_i64),
            Some(1)
        );
        assert!(mm.get("p99_ms").and_then(Json::as_f64).unwrap() >= 10.0);
    }

    #[test]
    fn fleet_runs_count_at_the_top_level_and_keys_count_as_tunes() {
        let m = Metrics::new();
        m.record_tune("matmul@a100", Tier::Searched, true, 10.0);
        m.record_fleet_run();
        m.record_fleet_run();
        let j = m.to_json();
        let fleet = j.get("fleet").expect("top-level fleet object");
        assert_eq!(fleet, &Json::obj([("runs", Json::Int(2))]));
        let class = j.get("classes").and_then(|c| c.get("matmul@a100"));
        assert!(class.expect("the key's class").get("fleet").is_none());
    }
}
