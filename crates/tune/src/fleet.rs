//! Fleet-scale tuning: a driver that tunes a whole grid of
//! `(workload, size, device)` keys on a small thread pool with
//! cross-key frontier transfer.
//!
//! Pre-tuning a model zoo is embarrassingly parallel *and* highly
//! self-similar: `matmul(n=4096)` on an A100 is one unit-lattice hop
//! away from `matmul(n=2048)`'s winner, and the schema-v4 cache already
//! persists each search's top-k frontier. The [`FleetDriver`] exploits
//! both:
//!
//! * **Parallelism** — a fixed pool of worker threads takes keys from
//!   one FIFO queue of runnable keys. Each worker keeps its
//!   thread-local expression arena warm across every key it tunes
//!   (the same per-thread-arena economics `lego-served` relies on).
//!   Completed entries land in one in-memory map, and each key's
//!   report carries the entry the run persists for it
//!   ([`FleetKeyReport::entry`]); the entries are written in grid
//!   order with a *single* [`TuningCache::store_and_compact`] batch at
//!   the end — one append (or compaction) instead of one write per key.
//! * **Transfer** — before a key falls back to a cold search, it seeds
//!   from the frontier of the *nearest already-tuned key* in its
//!   `(family, device)` class under [`crate::cache::key_distance`]
//!   (size distance in log2 space, cross-device fallback at a penalty).
//!   Completed keys feed the in-memory map as the run progresses, so
//!   late keys in a sweep transfer from early ones, and a transferred
//!   search runs at a fraction of the cold budget
//!   ([`TRANSFER_BUDGET_DIVISOR`]) because its seeds already contain a
//!   near-winner.
//!
//! Determinism: each key's dependency is fixed *before* the run — a
//! repeated key depends on its first occurrence, and with transfer on
//! any other key on the nearest earlier-in-grid key by distance, not
//! "whatever happened to finish first" — and a key only becomes
//! runnable once its dependency completed. Every search is a pure
//! function of `(key, knobs, seeds)`, so a fleet's results are
//! bit-identical across thread counts and scheduling orders (asserted
//! by the determinism tests). A search that panics fails only its own
//! key; its dependents start cold, as they do after any failed key.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use gpu_sim::score::Estimate;
use gpu_sim::GpuConfig;
use lego_codegen::cuda::stencil::StencilShape;
use lego_codegen::tuning::{RowwiseOp, TunedConfig};

use crate::cache::{config_to_json, nearest_neighbor, CachedTuning, TuningCache};
use crate::domain::{Domain, SpaceScale};
use crate::json::Json;
use crate::request::TuneRequest;
use crate::space::WorkloadKind;
use crate::strategy::{Budget, Strategy};

/// A transferred search runs at `cold_budget / TRANSFER_BUDGET_DIVISOR`
/// (floored at [`TRANSFER_MIN_EVALS`]): its seeds already contain a
/// near-winner, so the remaining budget only has to polish, and the cut
/// is where the fleet's keys/second win comes from.
pub const TRANSFER_BUDGET_DIVISOR: usize = 4;

/// Floor of the transferred budget, so the cut leaves room to evaluate
/// the seeds plus a polish neighborhood. Never raises a budget above
/// the cold one.
pub const TRANSFER_MIN_EVALS: usize = 32;

/// Row count of the rowwise workloads a [`FleetSpec`] expands to (the
/// tuned knob is the column block size; `m` only scales the trace).
pub const FLEET_ROWWISE_M: i64 = 256;

/// Baseline NW / LUD block size used by [`FleetSpec`] expansion (the
/// Rodinia default).
const FLEET_BASELINE_BLOCK: i64 = 16;

// ---------------------------------------------------------------------
// Grid specs
// ---------------------------------------------------------------------

/// A workload family a [`FleetSpec`] group can name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FleetFamily {
    /// Square FP16 GEMM.
    Matmul,
    /// Square FP32 transpose.
    Transpose,
    /// 3-D stencil of the given shape.
    Stencil(StencilShape),
    /// Needleman–Wunsch wavefront (baseline block 16).
    Nw,
    /// LU decomposition (baseline block 16).
    Lud,
    /// Row-wise streaming operator over [`FLEET_ROWWISE_M`] rows.
    Rowwise(RowwiseOp),
}

impl FleetFamily {
    fn parse(s: &str) -> Result<FleetFamily, String> {
        match s {
            "matmul" => Ok(FleetFamily::Matmul),
            "transpose" => Ok(FleetFamily::Transpose),
            "nw" => Ok(FleetFamily::Nw),
            "lud" => Ok(FleetFamily::Lud),
            "softmax" | "rowwise" => Ok(FleetFamily::Rowwise(RowwiseOp::Softmax)),
            "layernorm-fwd" => Ok(FleetFamily::Rowwise(RowwiseOp::LayernormFwd)),
            "layernorm-bwd" => Ok(FleetFamily::Rowwise(RowwiseOp::LayernormBwd)),
            "stencil" => Ok(FleetFamily::Stencil(StencilShape::Star(1))),
            other => match other.strip_prefix("stencil-").and_then(StencilShape::parse) {
                Some(shape) => Ok(FleetFamily::Stencil(shape)),
                None => Err(format!(
                    "unknown fleet family {other:?} (use matmul|transpose|stencil[-<shape>]|nw|lud|\
                     softmax|layernorm-fwd|layernorm-bwd|rowwise)"
                )),
            },
        }
    }

    /// The workload instance of this family at size `n`.
    pub fn kind(self, n: i64) -> WorkloadKind {
        match self {
            FleetFamily::Matmul => WorkloadKind::Matmul { n },
            FleetFamily::Transpose => WorkloadKind::Transpose { n },
            FleetFamily::Stencil(shape) => WorkloadKind::Stencil { shape, n },
            FleetFamily::Nw => WorkloadKind::Nw {
                n,
                b: FLEET_BASELINE_BLOCK,
            },
            FleetFamily::Lud => WorkloadKind::Lud {
                n,
                bs: FLEET_BASELINE_BLOCK,
            },
            FleetFamily::Rowwise(op) => WorkloadKind::Rowwise {
                op,
                m: FLEET_ROWWISE_M,
                n,
            },
        }
    }
}

impl fmt::Display for FleetFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetFamily::Matmul => f.write_str("matmul"),
            FleetFamily::Transpose => f.write_str("transpose"),
            FleetFamily::Stencil(shape) => write!(f, "stencil-{}", shape.name()),
            FleetFamily::Nw => f.write_str("nw"),
            FleetFamily::Lud => f.write_str("lud"),
            FleetFamily::Rowwise(op) => f.write_str(op.tag()),
        }
    }
}

/// One geometric size sweep of one family: `lo, lo·step, … ≤ hi`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FleetGroup {
    /// The workload family.
    pub family: FleetFamily,
    /// First size of the sweep.
    pub lo: i64,
    /// Inclusive upper bound of the sweep.
    pub hi: i64,
    /// Geometric step (≥ 2; a single-size group has `lo == hi`).
    pub step: i64,
}

impl FleetGroup {
    /// The sweep's sizes in ascending order.
    pub fn sizes(&self) -> Vec<i64> {
        let mut out = Vec::new();
        let mut n = self.lo;
        while n <= self.hi {
            out.push(n);
            match n.checked_mul(self.step) {
                Some(next) => n = next,
                None => break,
            }
        }
        out
    }
}

impl fmt::Display for FleetGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lo == self.hi {
            write!(f, "{}:{}", self.family, self.lo)
        } else {
            write!(f, "{}:{}..{}x{}", self.family, self.lo, self.hi, self.step)
        }
    }
}

/// A parsed fleet grid: comma-separated family sweeps, optionally
/// pinned to a device list.
///
/// ```text
/// matmul:512..4096x2,softmax:1k..64k@a100,h100
/// ```
///
/// means "matmul at 512, 1024, …, 4096 and softmax rows of 1024…65536
/// columns, each on both the A100 and the H100". Sizes take a `k`
/// suffix (×1024); the step after `x` defaults to 2; with no `@` the
/// driver's default device is used. The rendering round-trips
/// ([`fmt::Display`] prints the canonical form, which re-parses to an
/// equal spec).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FleetSpec {
    /// The family sweeps, in spec order.
    pub groups: Vec<FleetGroup>,
    /// Canonical device tags (empty = caller's default device).
    pub devices: Vec<String>,
}

fn parse_size(s: &str) -> Result<i64, String> {
    let (digits, mult) = match s.strip_suffix(['k', 'K']) {
        Some(d) => (d, 1024),
        None => (s, 1),
    };
    let v: i64 = digits
        .parse()
        .map_err(|_| format!("bad size {s:?} (use e.g. 512 or 4k)"))?;
    if v <= 0 {
        return Err(format!("size {s:?} must be positive"));
    }
    v.checked_mul(mult)
        .ok_or_else(|| format!("size {s:?} overflows"))
}

impl FleetSpec {
    /// Parses a grid spec (see the type docs for the syntax).
    ///
    /// # Errors
    ///
    /// Describes the malformed fragment: unknown family or device, bad
    /// size or step, a size [`WorkloadKind::validate`] rejects, empty
    /// spec.
    pub fn parse(s: &str) -> Result<FleetSpec, String> {
        let s = s.trim();
        let (body, device_list) = match s.split_once('@') {
            Some((b, d)) => (b, Some(d)),
            None => (s, None),
        };
        let mut devices = Vec::new();
        if let Some(list) = device_list {
            for tag in list.split(',') {
                let tag = tag.trim();
                let dev = gpu_sim::lookup(tag).ok_or_else(|| {
                    format!(
                        "unknown device {tag:?} (use {})",
                        gpu_sim::DEVICE_TAGS.join("|")
                    )
                })?;
                if !devices.contains(&dev.tag.to_string()) {
                    devices.push(dev.tag.to_string());
                }
            }
        }
        let mut groups = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (family, range) = part
                .split_once(':')
                .ok_or_else(|| format!("malformed group {part:?}: expected family:sizes"))?;
            let family = FleetFamily::parse(family.trim())?;
            let (lo, hi, step) = match range.split_once("..") {
                None => {
                    let n = parse_size(range.trim())?;
                    (n, n, 2)
                }
                Some((lo, rest)) => {
                    let (hi, step) = match rest.split_once('x') {
                        None => (parse_size(rest.trim())?, 2),
                        Some((hi, step)) => {
                            let step: i64 = step
                                .trim()
                                .parse()
                                .map_err(|_| format!("bad step in {part:?}"))?;
                            (parse_size(hi.trim())?, step)
                        }
                    };
                    (parse_size(lo.trim())?, hi, step)
                }
            };
            if step < 2 {
                return Err(format!("group {part:?}: step must be ≥ 2"));
            }
            if hi < lo {
                return Err(format!("group {part:?}: upper bound below lower"));
            }
            let group = FleetGroup {
                family,
                lo,
                hi,
                step,
            };
            for n in group.sizes() {
                family
                    .kind(n)
                    .validate()
                    .map_err(|e| format!("group {part:?}: size {n}: {e}"))?;
            }
            groups.push(group);
        }
        if groups.is_empty() {
            return Err("empty fleet spec (expected family:sizes[,...][@devices])".to_string());
        }
        Ok(FleetSpec { groups, devices })
    }

    /// Number of keys the spec expands to.
    pub fn len(&self) -> usize {
        let per_device: usize = self.groups.iter().map(|g| g.sizes().len()).sum();
        per_device * self.devices.len().max(1)
    }

    /// Whether the spec expands to no keys (never true for a parsed
    /// spec; groups reject empty sweeps).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the spec into concrete requests, every key carrying the
    /// given search knobs. Order is deterministic — per group, per
    /// device, sizes ascending — which is also the transfer topology:
    /// each key's nearest earlier sibling is its warm-start source.
    pub fn requests(
        &self,
        default_device: &GpuConfig,
        strategy: Strategy,
        budget: Budget,
        space: Option<SpaceScale>,
    ) -> Vec<TuneRequest> {
        let devices: Vec<GpuConfig> = if self.devices.is_empty() {
            vec![default_device.clone()]
        } else {
            self.devices
                .iter()
                .map(|t| gpu_sim::lookup(t).expect("tags validated at parse time"))
                .collect()
        };
        let mut out = Vec::new();
        for group in &self.groups {
            for device in &devices {
                for n in group.sizes() {
                    out.push(TuneRequest {
                        kind: group.family.kind(n),
                        device: device.clone(),
                        strategy,
                        budget,
                        space,
                    });
                }
            }
        }
        out
    }
}

impl fmt::Display for FleetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{g}")?;
        }
        if !self.devices.is_empty() {
            write!(f, "@{}", self.devices.join(","))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// The per-key payload of a completed fleet search or cache hit.
#[derive(Clone, Debug)]
pub struct FleetTuned {
    /// The winning configuration.
    pub config: TunedConfig,
    /// Estimate of the hand-picked default.
    pub naive: Estimate,
    /// Estimate of the winner.
    pub tuned: Estimate,
    /// Unique configurations scored (0 on a cache hit).
    pub evaluated: usize,
    /// 1-based index of the evaluation that first scored the winner
    /// (0 on a cache hit).
    pub evals_to_winner: usize,
    /// The budget the search actually ran under (`None` for exhaustive
    /// and cache hits) — reduced from the request's on a transfer.
    pub budget: Option<usize>,
    /// Evaluations the transfer saved versus the request's cold budget.
    pub evals_saved: usize,
    /// Whether the key was satisfied straight from the result map.
    pub from_cache: bool,
}

/// One grid key's outcome.
#[derive(Clone, Debug)]
pub struct FleetKeyReport {
    /// The request this key ran.
    pub request: TuneRequest,
    /// Its schema-v4 cache key.
    pub cache_key: String,
    /// The outcome (an error never aborts the fleet; dependents of a
    /// failed key fall back to cold starts).
    pub result: Result<FleetTuned, String>,
    /// `workload@device` label of the key whose frontier seeded this
    /// search (`None` for cold starts, cache hits, and same-key warm
    /// restarts).
    pub transferred_from: Option<String>,
    /// Warm-start configs offered to the search (before domain
    /// filtering).
    pub seeds: usize,
    /// Which worker ran the key.
    pub worker: usize,
    /// Wall-clock seconds this key took on its worker.
    pub elapsed_s: f64,
    /// The record this run persists for the key: the search's entry,
    /// recorded at the request's cold budget when a transfer cut it.
    /// `None` for cache hits and errors. Not part of [`Self::to_json`].
    pub entry: Option<CachedTuning>,
}

impl FleetKeyReport {
    /// The request class (`family@devicetag`) for metrics aggregation.
    pub fn class(&self) -> String {
        self.request.class()
    }

    /// One bench/wire row for this key.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("workload".to_string(), Json::Str(self.request.kind.name())),
            (
                "device".to_string(),
                Json::Str(self.request.device.tag.to_string()),
            ),
            ("class".to_string(), Json::Str(self.class())),
            (
                "transferred_from".to_string(),
                match &self.transferred_from {
                    None => Json::Null,
                    Some(src) => Json::Str(src.clone()),
                },
            ),
            ("seeds".to_string(), Json::Int(self.seeds as i64)),
            ("worker".to_string(), Json::Int(self.worker as i64)),
            ("elapsed_s".to_string(), Json::num(self.elapsed_s)),
        ];
        match &self.result {
            Ok(t) => {
                pairs.push(("ok".to_string(), Json::Bool(true)));
                pairs.push(("config".to_string(), config_to_json(&t.config)));
                pairs.push(("naive_s".to_string(), Json::num(t.naive.time_s)));
                pairs.push(("tuned_s".to_string(), Json::num(t.tuned.time_s)));
                pairs.push((
                    "speedup".to_string(),
                    Json::num(t.naive.time_s / t.tuned.time_s),
                ));
                pairs.push(("evaluated".to_string(), Json::Int(t.evaluated as i64)));
                pairs.push((
                    "evals_to_winner".to_string(),
                    Json::Int(t.evals_to_winner as i64),
                ));
                pairs.push((
                    "budget".to_string(),
                    match t.budget {
                        None => Json::Null,
                        Some(b) => Json::Int(b as i64),
                    },
                ));
                pairs.push(("evals_saved".to_string(), Json::Int(t.evals_saved as i64)));
                pairs.push(("from_cache".to_string(), Json::Bool(t.from_cache)));
            }
            Err(e) => {
                pairs.push(("ok".to_string(), Json::Bool(false)));
                pairs.push(("error".to_string(), Json::Str(e.clone())));
            }
        }
        Json::Obj(pairs)
    }
}

/// Aggregated fleet counters (whole-run or per request class).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FleetCounters {
    /// Keys tuned (completed, successfully or not).
    pub keys: u64,
    /// Keys served straight from the preloaded cache / earlier result.
    pub cache_hits: u64,
    /// Fresh searches run.
    pub searched: u64,
    /// Searches seeded from a *different* key's frontier.
    pub transfers: u64,
    /// Total unique configurations scored.
    pub evals_total: u64,
    /// Sum of evals-to-winner over fresh searches.
    pub evals_to_winner_total: u64,
    /// Evaluations saved by transfer budget cuts versus cold budgets.
    pub evals_saved: u64,
    /// Keys whose search failed.
    pub errors: u64,
}

impl FleetCounters {
    fn absorb(&mut self, key: &FleetKeyReport) {
        self.keys += 1;
        match &key.result {
            Ok(t) if t.from_cache => self.cache_hits += 1,
            Ok(t) => {
                self.searched += 1;
                if key.transferred_from.is_some() {
                    self.transfers += 1;
                }
                self.evals_total += t.evaluated as u64;
                self.evals_to_winner_total += t.evals_to_winner as u64;
                self.evals_saved += t.evals_saved as u64;
            }
            Err(_) => self.errors += 1,
        }
    }

    /// Accumulates another counter set (how `lego-served` aggregates
    /// fleet runs into its live metrics).
    pub fn merge(&mut self, other: &FleetCounters) {
        self.keys += other.keys;
        self.cache_hits += other.cache_hits;
        self.searched += other.searched;
        self.transfers += other.transfers;
        self.evals_total += other.evals_total;
        self.evals_to_winner_total += other.evals_to_winner_total;
        self.evals_saved += other.evals_saved;
        self.errors += other.errors;
    }

    /// Mean evaluations to the winner over fresh searches (0 when none
    /// ran).
    pub fn mean_evals_to_winner(&self) -> f64 {
        if self.searched == 0 {
            0.0
        } else {
            self.evals_to_winner_total as f64 / self.searched as f64
        }
    }

    /// The counters as a JSON object (the shape `lego-served`'s
    /// `metrics` verb embeds per class).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("keys_tuned", Json::Int(self.keys as i64)),
            ("cache_hits", Json::Int(self.cache_hits as i64)),
            ("searched", Json::Int(self.searched as i64)),
            ("transfer_hits", Json::Int(self.transfers as i64)),
            ("evals_total", Json::Int(self.evals_total as i64)),
            ("evals_saved", Json::Int(self.evals_saved as i64)),
            ("errors", Json::Int(self.errors as i64)),
        ])
    }
}

/// The outcome of one [`FleetDriver::run`].
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Per-key outcomes, in grid order.
    pub keys: Vec<FleetKeyReport>,
    /// Worker threads the run used.
    pub threads: usize,
    /// Whether transfer was enabled.
    pub transfer: bool,
    /// End-to-end wall-clock seconds.
    pub elapsed_s: f64,
}

impl FleetReport {
    /// End-to-end keys per second.
    pub fn keys_per_s(&self) -> f64 {
        self.keys.len() as f64 / self.elapsed_s.max(1e-12)
    }

    /// Whole-run counters.
    pub fn counters(&self) -> FleetCounters {
        let mut c = FleetCounters::default();
        for k in &self.keys {
            c.absorb(k);
        }
        c
    }

    /// Counters aggregated per request class (`family@devicetag`).
    pub fn class_counters(&self) -> BTreeMap<String, FleetCounters> {
        let mut out: BTreeMap<String, FleetCounters> = BTreeMap::new();
        for k in &self.keys {
            out.entry(k.class()).or_default().absorb(k);
        }
        out
    }

    /// The run summary as a JSON object (the shape `BENCH_fleet.json`
    /// and the `fleet` verb's response carry).
    pub fn summary_json(&self) -> Json {
        let c = self.counters();
        Json::obj([
            ("keys", Json::Int(self.keys.len() as i64)),
            ("threads", Json::Int(self.threads as i64)),
            ("transfer", Json::Bool(self.transfer)),
            ("elapsed_s", Json::num(self.elapsed_s)),
            ("keys_per_s", Json::num(self.keys_per_s())),
            ("cache_hits", Json::Int(c.cache_hits as i64)),
            ("searched", Json::Int(c.searched as i64)),
            ("transfer_hits", Json::Int(c.transfers as i64)),
            ("evals_total", Json::Int(c.evals_total as i64)),
            ("evals_saved", Json::Int(c.evals_saved as i64)),
            ("mean_evals_to_winner", Json::num(c.mean_evals_to_winner())),
            ("errors", Json::Int(c.errors as i64)),
        ])
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// The fleet driver. See the module docs for semantics.
#[derive(Clone, Debug)]
pub struct FleetDriver {
    threads: usize,
    cache: Option<TuningCache>,
    sidecar: Option<std::path::PathBuf>,
    transfer: bool,
}

impl FleetDriver {
    /// A driver with `threads` workers, transfer enabled, no cache.
    pub fn new(threads: usize) -> FleetDriver {
        FleetDriver {
            threads: threads.max(1),
            cache: None,
            sidecar: None,
            transfer: true,
        }
    }

    /// Attaches a persistent cache: its entries preload the result map
    /// (satisfying keys become instant hits, stale frontiers become
    /// seeds), and every fresh result is written back in one batched
    /// [`TuningCache::store_and_compact`] at the end of the run.
    #[must_use]
    pub fn with_cache(mut self, path: impl Into<std::path::PathBuf>) -> FleetDriver {
        self.cache = Some(TuningCache::new(path.into()));
        self
    }

    /// Attaches a persistent memo sidecar: every worker thread installs
    /// it before taking work (so the annotation cache and traffic memo
    /// start warm), and the per-worker derived results are merged into
    /// *one* sidecar write at the end of the run.
    #[must_use]
    pub fn with_sidecar(mut self, path: impl Into<std::path::PathBuf>) -> FleetDriver {
        self.sidecar = Some(path.into());
        self
    }

    /// Enables or disables frontier transfer (disabled = every miss is
    /// a cold full-budget search; the bench's baseline mode).
    #[must_use]
    pub fn with_transfer(mut self, transfer: bool) -> FleetDriver {
        self.transfer = transfer;
        self
    }

    /// Tunes every key of `grid` and returns the per-key outcomes plus
    /// run counters. Individual failures, panics included, are recorded,
    /// never fatal; the merged cache write happens once, after the last
    /// key.
    pub fn run(&self, grid: &[TuneRequest]) -> FleetReport {
        let t0 = Instant::now();
        let n = grid.len();
        let keys: Vec<String> = grid.iter().map(TuneRequest::cache_key).collect();

        // Static dependency topology, decided before anything runs: a
        // repeated key depends on its first occurrence (and is then a
        // hit), and with transfer on every other key depends on the
        // nearest comparable earlier key. The source is a function of
        // the grid, not of scheduling, which keeps the run
        // deterministic.
        let mut first_at: HashMap<&str, usize> = HashMap::new();
        for (i, k) in keys.iter().enumerate() {
            first_at.entry(k.as_str()).or_insert(i);
        }
        let deps: Vec<Option<usize>> = (0..n)
            .map(|i| match first_at[keys[i].as_str()] {
                first if first < i => Some(first),
                _ if self.transfer => {
                    nearest_neighbor(&keys[i], keys[..i].iter().map(String::as_str))
                        .map(|k| first_at[k])
                }
                _ => None,
            })
            .collect();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, dep) in deps.iter().enumerate() {
            if let Some(j) = *dep {
                children[j].push(i);
            }
        }

        // Completed entries by cache key, preloaded from the cache.
        let tuned: Mutex<HashMap<String, CachedTuning>> = Mutex::new(
            self.cache
                .as_ref()
                .map(|c| c.entries().into_iter().collect())
                .unwrap_or_default(),
        );
        let queue = ReadyQueue::new((0..n).filter(|&i| deps[i].is_none()), n);
        let threads = self.threads.min(n.max(1));

        // The persistent memo sidecar is parsed once here; each worker
        // installs it into its own thread-local caches before taking
        // work and hands back its derived results, merged below into
        // one document persisted in a single write.
        let sidecar_in = self
            .sidecar
            .as_deref()
            .map(crate::sidecar::Sidecar::load)
            .filter(|sc| !sc.is_empty());

        let mut slots: Vec<Option<FleetKeyReport>> = vec![None; n];
        let mut sidecar_out = crate::sidecar::Sidecar::new();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|w| {
                    let (queue, tuned, keys, deps, children) =
                        (&queue, &tuned, &keys, &deps, &children);
                    let sidecar_in = sidecar_in.as_ref();
                    scope.spawn(move || {
                        if let Some(sc) = sidecar_in {
                            crate::sidecar::install(sc);
                        }
                        let mut done = Vec::new();
                        while let Some(i) = queue.next() {
                            let report = run_key(grid, keys, deps, tuned, i, w);
                            if let Some(entry) = &report.entry {
                                tuned
                                    .lock()
                                    .expect("result map poisoned")
                                    .insert(keys[i].clone(), entry.clone());
                            }
                            // Dependents become runnable only now, with
                            // the entry already visible in the map.
                            queue.complete(&children[i]);
                            done.push((i, report));
                        }
                        (done, self.sidecar.is_some().then(crate::sidecar::collect))
                    })
                })
                .collect();
            for worker in workers {
                let (done, derived) = worker.join().expect("fleet worker panicked");
                for (i, report) in done {
                    slots[i] = Some(report);
                }
                if let Some(derived) = derived {
                    sidecar_out.merge(&derived);
                }
            }
        });
        let mut reports: Vec<FleetKeyReport> = slots
            .into_iter()
            .map(|r| r.expect("every key completed"))
            .collect();

        if let Some(path) = &self.sidecar {
            if let Err(e) = sidecar_out.save(path) {
                // Same best-effort stance as the cache write below.
                eprintln!("fleet: sidecar write failed: {e}");
            }
        }

        if let Some(cache) = &self.cache {
            let batch: Vec<(String, CachedTuning)> = reports
                .iter()
                .filter_map(|r| Some((r.cache_key.clone(), r.entry.clone()?)))
                .collect();
            if let Err(e) = cache.store_and_compact(&batch) {
                // Persisting is best-effort at this layer; surface the
                // failure on every fresh key's report instead of
                // panicking a completed run.
                for r in &mut reports {
                    if r.entry.take().is_some() {
                        r.result = Err(format!("cache write failed: {e}"));
                    }
                }
            }
        }

        FleetReport {
            keys: reports,
            threads,
            transfer: self.transfer,
            elapsed_s: t0.elapsed().as_secs_f64(),
        }
    }
}

/// Tunes grid key `i` on worker `w`. A fresh search's report carries
/// the entry to publish (the caller inserts it into the result map
/// *before* marking the key complete). A panicking search becomes an
/// error report for this key alone.
fn run_key(
    grid: &[TuneRequest],
    keys: &[String],
    deps: &[Option<usize>],
    tuned: &Mutex<HashMap<String, CachedTuning>>,
    i: usize,
    w: usize,
) -> FleetKeyReport {
    let t0 = Instant::now();
    let req = &grid[i];
    let lookup = |k: &str| -> Option<CachedTuning> {
        tuned.lock().expect("result map poisoned").get(k).cloned()
    };
    let mut report = FleetKeyReport {
        request: req.clone(),
        cache_key: keys[i].clone(),
        result: Err(format!("tuning panicked for {}", req.kind.name())),
        transferred_from: None,
        seeds: 0,
        worker: w,
        elapsed_s: 0.0,
        entry: None,
    };

    // Instant hit: a preloaded or earlier-completed entry satisfies the
    // request as-is (same rule the sequential tuner and daemon apply).
    let own = lookup(&keys[i]);
    if let Some(hit) = own.as_ref().filter(|hit| req.satisfied_by(hit)) {
        report.result = Ok(FleetTuned {
            config: hit.config,
            naive: hit.naive,
            tuned: hit.tuned,
            evaluated: 0,
            evals_to_winner: 0,
            budget: None,
            evals_saved: 0,
            from_cache: true,
        });
    } else {
        let source = deps[i]
            .filter(|&j| keys[j] != keys[i])
            .and_then(|j| Some((j, lookup(&keys[j])?)));
        // On a panic `report` keeps the error it was built with.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            search_key(grid, req, own, source, &mut report);
        }));
    }
    report.elapsed_s = t0.elapsed().as_secs_f64();
    report
}

/// Runs the search of a key that missed, seeded from its own stale
/// entry and its transfer source `(grid index, entry)`, and fills the
/// report's outcome fields in one step after the search returns.
fn search_key(
    grid: &[TuneRequest],
    req: &TuneRequest,
    own: Option<CachedTuning>,
    source: Option<(usize, CachedTuning)>,
    report: &mut FleetKeyReport,
) {
    // Seeds: the key's own stale frontier first (a differently-searched
    // entry still knows good points), then the transfer source's.
    let domain = Domain::new(req.kind, req.effective_space());
    let mut seeds: Vec<TunedConfig> = own
        .iter()
        .flat_map(|h| h.frontier.iter().map(|(c, _)| *c))
        .collect();
    let mut transferred_from = None;
    if let Some((j, src)) = source {
        let survivors: Vec<TunedConfig> = src
            .frontier
            .iter()
            .map(|(c, _)| *c)
            .filter(|c| domain.contains(c))
            .collect();
        if !survivors.is_empty() {
            transferred_from = Some(format!("{}@{}", grid[j].kind.name(), grid[j].device.tag));
            seeds.extend(survivors);
        }
    }

    // A transferred search keeps only a fraction of the cold budget:
    // the seeds carry a near-winner, so the remainder just polishes.
    let cold = req.budget.max_evals();
    let budget_override = (transferred_from.is_some()
        && !matches!(req.strategy, Strategy::Exhaustive))
    .then(|| Budget((cold / TRANSFER_BUDGET_DIVISOR).max(TRANSFER_MIN_EVALS.min(cold))));

    let tuner = req.tuner();
    let (result, entry) = match tuner.tune_seeded(&req.kind, &seeds, budget_override) {
        Ok(seeded) => {
            let tuned = FleetTuned {
                config: seeded.result.config,
                naive: seeded.result.naive,
                tuned: seeded.result.tuned,
                evaluated: seeded.result.evaluated,
                evals_to_winner: seeded.evals_to_winner,
                budget: seeded.budget,
                evals_saved: budget_override
                    .map_or(0, |_| cold.saturating_sub(seeded.result.evaluated)),
                from_cache: false,
            };
            let mut entry = tuner.entry_from(&seeded);
            if budget_override.is_some() {
                // A transferred entry is recorded at the request's cold
                // budget: transfer's contract — asserted by the
                // soundness tests — is cold-equivalent winner quality,
                // and recording the cut budget would make fleets
                // non-idempotent (every re-run would re-search exactly
                // the keys the fleet just tuned).
                entry.budget = Some(cold);
            }
            (Ok(tuned), Some(entry))
        }
        Err(e) => (Err(e.to_string()), None),
    };
    report.result = result;
    report.entry = entry;
    report.transferred_from = transferred_from;
    report.seeds = seeds.len();
}

// ---------------------------------------------------------------------
// The scheduler
// ---------------------------------------------------------------------

/// One FIFO of runnable keys shared by every worker. A key enters it
/// only once its dependency has completed, so a runnable key's seeds
/// are always visible in the result map.
struct ReadyQueue {
    inner: Mutex<Ready>,
    wake: Condvar,
}

struct Ready {
    runnable: VecDeque<usize>,
    /// Keys not yet completed (runnable, running, or still blocked on a
    /// dependency). Workers exit when it reaches zero.
    remaining: usize,
}

impl ReadyQueue {
    /// A queue seeded with the keys that have no dependency, in grid
    /// order, out of `total` keys.
    fn new(roots: impl Iterator<Item = usize>, total: usize) -> ReadyQueue {
        ReadyQueue {
            inner: Mutex::new(Ready {
                runnable: roots.collect(),
                remaining: total,
            }),
            wake: Condvar::new(),
        }
    }

    /// The next runnable key, blocking until a completion frees one.
    /// `None` once every key has completed.
    fn next(&self) -> Option<usize> {
        let mut inner = self.inner.lock().expect("scheduler poisoned");
        loop {
            if inner.remaining == 0 {
                return None;
            }
            if let Some(i) = inner.runnable.pop_front() {
                return Some(i);
            }
            inner = self.wake.wait(inner).expect("scheduler poisoned");
        }
    }

    /// Marks a key complete and makes its dependents runnable.
    fn complete(&self, dependents: &[usize]) {
        let mut inner = self.inner.lock().expect("scheduler poisoned");
        inner.remaining -= 1;
        inner.runnable.extend(dependents);
        drop(inner);
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_expands_the_readme_example() {
        let spec = FleetSpec::parse("matmul:512..4096x2,rowwise:1k..64k@a100,h100").unwrap();
        assert_eq!(spec.devices, vec!["a100", "h100"]);
        assert_eq!(spec.groups.len(), 2);
        assert_eq!(spec.groups[0].sizes(), vec![512, 1024, 2048, 4096]);
        assert_eq!(
            spec.groups[1].sizes(),
            vec![1024, 2048, 4096, 8192, 16384, 32768, 65536]
        );
        // 4 matmul sizes + 7 rowwise sizes, each on 2 devices.
        assert_eq!(spec.len(), 22);
        let reqs = spec.requests(&gpu_sim::a100(), Strategy::Anneal, Budget(64), None);
        assert_eq!(reqs.len(), 22);
        assert_eq!(reqs[0].kind, WorkloadKind::Matmul { n: 512 });
        assert_eq!(reqs[0].device.tag, "a100");
        assert_eq!(reqs[4].device.tag, "h100");
        assert_eq!(
            reqs[8].kind,
            WorkloadKind::Rowwise {
                op: RowwiseOp::Softmax,
                m: FLEET_ROWWISE_M,
                n: 1024
            }
        );
    }

    #[test]
    fn spec_display_round_trips() {
        for s in [
            "matmul:512..4096x2",
            "matmul:256",
            "transpose:1024..4096x4@mi300",
            "stencil-star-7pt:32..64x2,stencil-cube-27pt:48",
            "nw:512..2048x2,lud:512..2048x2@a100,h100",
            "softmax:1024..65536x2,layernorm-fwd:4096,layernorm-bwd:4096@h100",
        ] {
            let spec = FleetSpec::parse(s).unwrap();
            let printed = spec.to_string();
            let back = FleetSpec::parse(&printed).unwrap();
            assert_eq!(spec, back, "{s:?} -> {printed:?} must re-parse equal");
        }
        // Sugar forms normalize: k-suffix sizes, default step, aliases.
        let sugared = FleetSpec::parse("rowwise:1k..8kx2@a100").unwrap();
        assert_eq!(sugared.to_string(), "softmax:1024..8192x2@a100");
        assert_eq!(
            FleetSpec::parse("stencil:32").unwrap().to_string(),
            "stencil-star-7pt:32"
        );
        assert_eq!(
            FleetSpec::parse("matmul:512..4096").unwrap().to_string(),
            "matmul:512..4096x2"
        );
    }

    #[test]
    fn spec_rejects_malformed_grids() {
        for bad in [
            "",
            "matmul",
            "matmul:",
            "matmul:0",
            "matmul:-4",
            "matmul:4096..512x2",
            "matmul:512..4096x1",
            "matmul:512..4096xq",
            "frobnicate:512",
            "stencil-star-9pt:32",
            "matmul:512@v100",
            "matmul:9q",
        ] {
            assert!(FleetSpec::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn spec_rejects_sizes_the_workload_checks_refuse() {
        for (bad, size) in [
            ("matmul:33", "33"),
            ("transpose:16", "16"),
            ("nw:8", "8"),
            ("stencil:2", "2"),
            ("matmul:99999999999", "99999999999"),
            // A sweep is refused when any size fails, not just `lo`.
            ("matmul:4096..99999999999x1024", "4294967296"),
        ] {
            let err = FleetSpec::parse(bad).unwrap_err();
            assert!(
                err.starts_with(&format!("group {bad:?}: size {size}: ")),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn transfer_deps_point_at_nearest_earlier_same_class_key() {
        let spec = FleetSpec::parse("matmul:256..1024x2@a100,h100").unwrap();
        let grid = spec.requests(&gpu_sim::a100(), Strategy::Anneal, Budget(64), None);
        let keys: Vec<String> = grid.iter().map(TuneRequest::cache_key).collect();
        // a100: 256, 512, 1024 then h100: 256, 512, 1024.
        // First key has no earlier sibling.
        assert_eq!(
            nearest_neighbor(&keys[0], keys[..0].iter().map(String::as_str)),
            None
        );
        // a100 512 transfers from a100 256; a100 1024 from a100 512.
        assert_eq!(
            nearest_neighbor(&keys[1], keys[..1].iter().map(String::as_str)),
            Some(keys[0].as_str())
        );
        assert_eq!(
            nearest_neighbor(&keys[2], keys[..2].iter().map(String::as_str)),
            Some(keys[1].as_str())
        );
        // h100 256 has no same-device sibling yet: cross-device
        // fallback to a100 256 (distance = the device penalty).
        assert_eq!(
            nearest_neighbor(&keys[3], keys[..3].iter().map(String::as_str)),
            Some(keys[0].as_str())
        );
        // h100 512 prefers its same-device neighbor over the exact-size
        // cross-device one.
        assert_eq!(
            nearest_neighbor(&keys[4], keys[..4].iter().map(String::as_str)),
            Some(keys[3].as_str())
        );
    }
}
