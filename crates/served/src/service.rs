//! The three-tier resolution path behind every `tune` request.
//!
//! 1. **Memory** — a `HashMap` of completed [`CachedTuning`]s keyed by
//!    the schema-v4 cache key, preloaded from the persistent
//!    [`TuningCache`] at startup and extended after every search. A hit
//!    costs one lock acquisition.
//! 2. **In-flight coalescing** — a table of searches currently running,
//!    keyed by [`TuneRequest::coalesce_key`] (cache key + search
//!    knobs), held under the same mutex as the memory tier. A runner
//!    promotes its entry and removes its slot in one critical section,
//!    so every request sees the search either in flight or done. A
//!    thundering herd of N identical concurrent requests
//!    finds the first requester's slot here and blocks on its
//!    `Condvar`; all N receive the single search's result. Seeds derive
//!    from the key, so the shared result is exactly what each request
//!    would have computed alone.
//! 3. **Search** — a fresh [`lego_tune::Tuner`] run on the worker's
//!    warm per-thread expression arena, persisted through the
//!    concurrency-safe cache and promoted into the memory tier.
//!
//! The tier an answer came from is reported to [`Metrics`] but never
//! serialized into the response, so coalesced, memory-served and
//! freshly-searched answers for one key are byte-identical on the wire.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use gpu_sim::score::Estimate;
use gpu_sim::GpuConfig;
use lego_expr::Variant;
use lego_tune::cache::{config_to_json, estimate_to_json};
use lego_tune::fleet::FleetReport;
use lego_tune::{CachedTuning, FleetDriver, Json, TuneRequest, TunedConfig, TuningCache};

use crate::metrics::Metrics;

/// Which tier answered a request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tier {
    /// In-memory map of completed results.
    Memory,
    /// The persistent schema-v4 tuning cache (first touch after a
    /// restart without preload, or a file shared with batch runs).
    Cache,
    /// Blocked on another request's identical in-flight search.
    Coalesced,
    /// Ran a fresh search.
    Searched,
}

impl Tier {
    /// Stable metrics label.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Memory => "memory",
            Tier::Cache => "cache",
            Tier::Coalesced => "coalesced",
            Tier::Searched => "searched",
        }
    }

    /// All tiers, in serving order.
    pub const ALL: [Tier; 4] = [Tier::Memory, Tier::Cache, Tier::Coalesced, Tier::Searched];
}

/// A served tuning result — everything a `tune` response carries.
#[derive(Clone, Debug)]
pub struct Served {
    /// Workload display name.
    pub workload: String,
    /// Device tag the result was tuned for.
    pub device: &'static str,
    /// The winning configuration.
    pub config: TunedConfig,
    /// Expression variant the cost model chose.
    pub expr_variant: Option<Variant>,
    /// Index-expression op count of the winner.
    pub index_ops: Option<usize>,
    /// Estimate of the hand-picked default.
    pub naive: Estimate,
    /// Estimate of the winner.
    pub tuned: Estimate,
    /// Candidates the producing search evaluated.
    pub evaluated: usize,
    /// Strategy that produced the entry.
    pub strategy: String,
    /// Space scale that was searched.
    pub space: String,
}

impl Served {
    /// The deterministic success response. Contains no per-request
    /// data (tier, latency), so every requester of one result receives
    /// identical bytes.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("ok", Json::Bool(true)),
            ("workload", Json::Str(self.workload.clone())),
            ("device", Json::Str(self.device.to_string())),
            ("config", config_to_json(&self.config)),
            ("winner", Json::Str(self.config.to_string())),
            (
                "expr_variant",
                match self.expr_variant {
                    None => Json::Null,
                    Some(Variant::Unexpanded) => Json::Str("unexpanded".into()),
                    Some(Variant::Expanded) => Json::Str("expanded".into()),
                },
            ),
            (
                "index_ops",
                match self.index_ops {
                    None => Json::Null,
                    Some(v) => Json::Int(v as i64),
                },
            ),
            ("naive", estimate_to_json(&self.naive)),
            ("tuned", estimate_to_json(&self.tuned)),
            ("naive_s", Json::num(self.naive.time_s)),
            ("tuned_s", Json::num(self.tuned.time_s)),
            ("speedup", Json::num(self.naive.time_s / self.tuned.time_s)),
            ("evaluated", Json::Int(self.evaluated as i64)),
            ("strategy", Json::Str(self.strategy.clone())),
            ("space", Json::Str(self.space.clone())),
        ])
    }
}

/// One in-flight search: followers wait on the condvar until the
/// runner publishes into `result`.
struct Slot {
    result: Mutex<Option<Result<Served, String>>>,
    done: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            result: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn publish(&self, value: Result<Served, String>) {
        let mut slot = self.result.lock().expect("slot lock poisoned");
        *slot = Some(value);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<Served, String> {
        let mut slot = self.result.lock().expect("slot lock poisoned");
        while slot.is_none() {
            slot = self.done.wait(slot).expect("slot condvar poisoned");
        }
        slot.clone().expect("checked above")
    }
}

/// The memory tier and the in-flight table, guarded together: a probe
/// sees both at once, and a finished search leaves the one for the
/// other in a single critical section.
struct Tiers {
    memory: HashMap<String, CachedTuning>,
    inflight: HashMap<String, Arc<Slot>>,
}

/// The shared state of one daemon: tiers, metrics, shutdown flag.
pub struct TuneService {
    default_device: GpuConfig,
    cache: Option<TuningCache>,
    /// Persistent memo-sidecar path (`None` = no persistence). The
    /// document is parsed once at startup; every worker installs it
    /// into its thread-local caches before serving
    /// ([`TuneService::warm_worker`]) and contributes its derived
    /// results back on drain ([`TuneService::harvest_worker`]), so the
    /// shutdown flush writes one merged document.
    sidecar_path: Option<PathBuf>,
    sidecar_in: Option<lego_tune::Sidecar>,
    sidecar_out: Mutex<lego_tune::Sidecar>,
    tiers: Mutex<Tiers>,
    metrics: Metrics,
    shutdown: AtomicBool,
    /// Set once the listener is bound; `begin_shutdown` pokes it to
    /// wake the blocking accept loop.
    addr: OnceLock<SocketAddr>,
}

impl TuneService {
    /// A service persisting to `cache_path` (None = in-memory only),
    /// preloading every persisted entry into the memory tier, and
    /// re-warming worker caches from the sidecar at `sidecar_path`
    /// (None = cold workers, no persistence).
    pub fn new(
        default_device: GpuConfig,
        cache_path: Option<PathBuf>,
        sidecar_path: Option<PathBuf>,
    ) -> TuneService {
        let cache = cache_path.map(TuningCache::new);
        let memory = cache
            .as_ref()
            .map(|c| c.entries().into_iter().collect())
            .unwrap_or_default();
        let sidecar_in = sidecar_path
            .as_deref()
            .map(lego_tune::Sidecar::load)
            .filter(|sc| !sc.is_empty());
        TuneService {
            default_device,
            cache,
            sidecar_path,
            sidecar_in,
            sidecar_out: Mutex::new(lego_tune::Sidecar::new()),
            tiers: Mutex::new(Tiers {
                memory,
                inflight: HashMap::new(),
            }),
            metrics: Metrics::new(),
            shutdown: AtomicBool::new(false),
            addr: OnceLock::new(),
        }
    }

    /// Installs the startup sidecar into the calling worker thread's
    /// caches and publishes the resulting warm counters. Workers
    /// call this once, before taking connections.
    pub fn warm_worker(&self, idx: usize) {
        if let Some(sc) = &self.sidecar_in {
            lego_tune::sidecar::install(sc);
        }
        self.metrics.record_arena(idx, lego_expr::intern::stats());
        self.metrics
            .record_sidecar(idx, lego_tune::annotate_sidecar_stats());
        self.metrics
            .record_traffic(idx, gpu_sim::traffic_memo_stats());
    }

    /// Merges the calling worker thread's derived results into the
    /// shared outgoing sidecar. Workers call this once, on drain; the
    /// shutdown [`TuneService::flush`] persists the merged document.
    pub fn harvest_worker(&self) {
        if self.sidecar_path.is_none() {
            return;
        }
        let derived = lego_tune::sidecar::collect();
        self.sidecar_out
            .lock()
            .expect("sidecar poisoned")
            .merge(&derived);
    }

    /// The device used when a request names none.
    pub fn default_device(&self) -> &GpuConfig {
        &self.default_device
    }

    /// The live counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Number of completed results held in the memory tier.
    pub fn memory_len(&self) -> usize {
        self.tiers().memory.len()
    }

    /// Records the bound listener address (enables acceptor wakeup).
    pub fn set_addr(&self, addr: SocketAddr) {
        let _ = self.addr.set(addr);
    }

    /// Whether a shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flags shutdown and wakes the acceptor with a throwaway
    /// connection so it observes the flag immediately.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(addr) = self.addr.get() {
            let _ = TcpStream::connect(addr);
        }
    }

    /// Writes every memory-tier entry absent from the persistent cache
    /// back in one batch, compacting when superseded records outnumber
    /// live ones (searches persist their entries eagerly; this covers a
    /// cache file deleted or truncated while the daemon ran).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn flush(&self) -> std::io::Result<()> {
        // The merged per-worker sidecar first, alongside the cache.
        if let Some(path) = &self.sidecar_path {
            let merged = self.sidecar_out.lock().expect("sidecar poisoned").clone();
            merged.save(path)?;
        }
        let Some(cache) = &self.cache else {
            return Ok(());
        };
        let on_disk: std::collections::HashSet<String> =
            cache.entries().into_iter().map(|(k, _)| k).collect();
        let memory = self.tiers().memory.clone();
        let mut missing: Vec<_> = memory
            .into_iter()
            .filter(|(k, _)| !on_disk.contains(k))
            .collect();
        missing.sort_by(|a, b| a.0.cmp(&b.0));
        cache.store_and_compact(&missing)
    }

    /// Resolves one request through the three tiers. The `Tier` is
    /// reported even on failure (a failed fresh search reports
    /// `Searched`; followers of a failed search report `Coalesced`).
    pub fn resolve(&self, req: &TuneRequest) -> (Result<Served, String>, Tier) {
        let cache_key = req.cache_key();
        let coalesce_key = req.coalesce_key();

        let slot = {
            let mut tiers = self.tiers();

            // Tier 1: completed results in memory.
            if let Some(hit) = tiers.memory.get(&cache_key) {
                if req.satisfied_by(hit) {
                    return (Ok(served_from(req, hit)), Tier::Memory);
                }
            }

            // Tier 2: an identical search already in flight.
            if let Some(slot) = tiers.inflight.get(&coalesce_key) {
                let slot = Arc::clone(slot);
                drop(tiers);
                return (slot.wait(), Tier::Coalesced);
            }
            let slot = Arc::new(Slot::new());
            tiers
                .inflight
                .insert(coalesce_key.clone(), Arc::clone(&slot));
            slot
        };

        // Tier 3: we are the runner. The entry enters the memory tier
        // as the slot leaves the in-flight table, under one lock.
        let (entry, tier) = self.run_search(req);
        let mut tiers = self.tiers();
        tiers.inflight.remove(&coalesce_key);
        let result = entry.map(|entry| {
            let served = served_from(req, &entry);
            tiers.memory.insert(cache_key, entry);
            served
        });
        drop(tiers);
        slot.publish(result.clone());
        (result, tier)
    }

    /// Locks the memory tier and the in-flight table.
    fn tiers(&self) -> MutexGuard<'_, Tiers> {
        self.tiers.lock().expect("tier lock poisoned")
    }

    /// Tunes a whole grid through the [`FleetDriver`] — sharing the
    /// daemon's persistent cache, so already-served keys are instant
    /// hits and fresh results come back in one merged write. The
    /// entries the run persisted (or, without a cache, would have) are
    /// promoted into the memory tier, so a later `tune` of a fleet key
    /// hits tier 1 with the same bytes a fresh search would answer.
    /// The run's per-class counters land in the `metrics` report.
    pub fn fleet(&self, grid: &[TuneRequest], threads: usize) -> FleetReport {
        let mut driver = FleetDriver::new(threads);
        if let Some(cache) = &self.cache {
            driver = driver.with_cache(cache.path());
        }
        if let Some(path) = &self.sidecar_path {
            driver = driver.with_sidecar(path);
        }
        let report = driver.run(grid);

        let mut tiers = self.tiers();
        for key in &report.keys {
            if let Some(entry) = &key.entry {
                tiers.memory.insert(key.cache_key.clone(), entry.clone());
            }
        }
        drop(tiers);

        self.metrics.record_fleet(&report.class_counters());
        report
    }

    /// Runs the search tier: a tuner configured exactly as the request
    /// asks, persisting through the concurrency-safe cache. Returns the
    /// entry the tuner read or persisted, which the caller promotes into
    /// the memory tier as-is (frontier included), so the cache tier, the
    /// memory tier and a restarted daemon's preload answer the same
    /// bytes. Panics in the search are contained so a follower can never
    /// be left waiting on a dead slot.
    fn run_search(&self, req: &TuneRequest) -> (Result<CachedTuning, String>, Tier) {
        let mut tuner = req.tuner();
        if let Some(cache) = &self.cache {
            tuner = tuner.with_cache(cache.path());
        }
        let kind = req.kind;
        let outcome = catch_unwind(AssertUnwindSafe(|| tuner.tune_entry(&kind)));
        match outcome {
            Ok(Ok((r, entry))) => {
                let tier = if r.from_cache {
                    Tier::Cache
                } else {
                    Tier::Searched
                };
                (Ok(entry), tier)
            }
            Ok(Err(e)) => (Err(format!("tuning failed: {e}")), Tier::Searched),
            Err(_) => (
                Err(format!("tuning panicked for {}", kind.name())),
                Tier::Searched,
            ),
        }
    }
}

/// Maps a stored entry onto the wire shape for one request.
fn served_from(req: &TuneRequest, entry: &CachedTuning) -> Served {
    Served {
        workload: req.kind.name(),
        device: req.device.tag,
        config: entry.config,
        expr_variant: entry.expr_variant,
        index_ops: entry.index_ops,
        naive: entry.naive,
        tuned: entry.tuned,
        evaluated: entry.evaluated,
        strategy: entry.strategy.clone(),
        space: entry.space.clone(),
    }
}
