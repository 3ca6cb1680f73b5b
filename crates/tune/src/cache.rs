//! The persistent tuning cache.
//!
//! Results are keyed by `(workload, problem size, hardware config)` so
//! repeated runs skip the search entirely. The file is a
//! [`crate::journal`] of `tune` records, each the compact JSON of one
//! [`CachedTuning`]; floats round-trip bit-exactly (see [`crate::json`]),
//! so a cached [`Estimate`] compares equal to the freshly computed one.
//! Its header carries [`CACHE_SCHEMA_VERSION`], so winners cached under
//! an older trace/occupancy model read as empty, never served stale.

use std::io;
use std::path::{Path, PathBuf};

use gpu_sim::score::Estimate;
use gpu_sim::timing::TimeEstimate;
use gpu_sim::GpuConfig;
use lego_codegen::tuning::{
    NwLayoutChoice, RowwiseOp, ScheduleChoice, StagingChoice, StencilLayoutChoice, TunedConfig,
};
use lego_expr::Variant;

use crate::journal::{self, Mode, Row, TUNE};
use crate::json::Json;
use crate::space::WorkloadKind;

/// Version of the cache schema *and* of the estimate semantics behind
/// it, stamped into every journal header (`cache=<version>`). Bump
/// whenever the trace builders, the timing model, or the entry shape
/// change incompatibly; a journal under another version is discarded
/// wholesale (a cache miss, not an error), memo sidecar included.
///
/// History: 1 = original per-crate trace loops; 2 = shared
/// `gpu_sim::trace` builders + occupancy-aware timing; 3 = entries
/// record their search strategy/budget/space and persist a top-k
/// frontier as the metaheuristics' warm-start population; 4 = the
/// device-generic `CostModel` — keys carry the full device identity
/// (warp size, bank geometry, segment width, saturation occupancies)
/// plus the workload's pricing mode, so per-device winners can never be
/// served cross-device and v3 roofline-priced NW/LUD entries are
/// invalidated wholesale.
pub const CACHE_SCHEMA_VERSION: i64 = 4;

/// One cached tuning outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedTuning {
    /// The winning configuration.
    pub config: TunedConfig,
    /// Expression variant the cost model chose for the winner.
    pub expr_variant: Option<Variant>,
    /// Index-expression op count of the winner.
    pub index_ops: Option<usize>,
    /// Estimate of the hand-picked default configuration.
    pub naive: Estimate,
    /// Estimate of the winning configuration.
    pub tuned: Estimate,
    /// How many candidates the search evaluated.
    pub evaluated: usize,
    /// Name of the strategy that produced the entry
    /// (`exhaustive`/`anneal`/`genetic`).
    pub strategy: String,
    /// Evaluation budget of the search (`None` for exhaustive).
    pub budget: Option<usize>,
    /// Which space scale was searched (`legacy`/`enlarged`).
    pub space: String,
    /// Top-k evaluated configurations (best first) with their estimated
    /// times — served as the warm-start population when a later search
    /// of the same key is not satisfied by this entry.
    pub frontier: Vec<(TunedConfig, f64)>,
}

/// A journal-backed tuning cache.
#[derive(Clone, Debug)]
pub struct TuningCache {
    path: PathBuf,
}

/// The cache key for one (workload, pricing mode, hardware) triple: the
/// workload name already encodes the problem size, the pricing mode
/// guards against entries estimated under another combining rule, and
/// the salient hardware parameters — including the warp/bank/segment
/// geometry and saturation occupancies the device-generic `CostModel`
/// consumes — guard against stale entries after config changes, so
/// per-device winners can never be served cross-device.
pub fn cache_key(workload_name: &str, mode: &str, gpu: &GpuConfig) -> String {
    format!(
        "{workload_name}|mode={mode}|{}|sm={}|warp={}|banks={}x{}|l2={}|bw={:e}|sec={}|regs={}|smem={}|warps={}|sat={}/{}",
        gpu.name,
        gpu.sm_count,
        gpu.warp_size,
        gpu.smem_banks,
        gpu.bank_bytes,
        gpu.l2_bytes,
        gpu.dram_bw,
        gpu.sector_bytes,
        gpu.regs_per_sm,
        gpu.smem_per_sm,
        gpu.max_warps_per_sm,
        gpu.mem_sat_occupancy,
        gpu.issue_sat_occupancy
    )
}

impl TuningCache {
    /// Opens (or will create on first store) the cache at `path`.
    pub fn new(path: impl Into<PathBuf>) -> TuningCache {
        TuningCache { path: path.into() }
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Looks up a cached tuning by key.
    pub fn lookup(&self, key: &str) -> Option<CachedTuning> {
        journal::read(&self.path, |live| decode(live.get(&(TUNE, key))?))
    }

    /// Every decodable entry, in key order: what the tuning-service
    /// daemon promotes into its in-memory tier at startup.
    pub fn entries(&self) -> Vec<(String, CachedTuning)> {
        journal::read(&self.path, |live| {
            live.iter()
                .filter(|((t, _), _)| *t == TUNE)
                .filter_map(|(&(_, k), v)| Some((k.to_string(), decode(v)?)))
                .collect()
        })
    }

    /// Stores (or replaces) a cached tuning under `key`: one record
    /// appended to the journal.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn store(&self, key: &str, value: &CachedTuning) -> io::Result<()> {
        self.store_many(&[(key.to_string(), value.clone())])
    }

    /// Stores (or replaces) a batch of entries: one locked append of one
    /// record each, whatever the journal's size. Later duplicates win;
    /// an empty batch never touches the file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn store_many(&self, batch: &[(String, CachedTuning)]) -> io::Result<()> {
        self.write(batch, Mode::Append)
    }

    /// [`TuningCache::store_many`], but rewrites the journal as its live
    /// records plus `batch` when superseded records outnumber live ones:
    /// the end-of-run write of the daemon's flush and the fleet driver.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn store_and_compact(&self, batch: &[(String, CachedTuning)]) -> io::Result<()> {
        self.write(batch, Mode::Compact)
    }

    fn write(&self, batch: &[(String, CachedTuning)], mode: Mode) -> io::Result<()> {
        let values: Vec<String> = batch
            .iter()
            .map(|(_, v)| tuning_to_json(v).render())
            .collect();
        let rows: Vec<Row<'_>> = batch
            .iter()
            .zip(&values)
            .map(|((k, _), v)| (TUNE, k.as_str(), v.as_str()))
            .collect();
        journal::write(&self.path, &rows, mode)
    }
}

/// Splits a schema-v4 cache key into its parsed workload and the
/// device-identity suffix (everything after the workload name: pricing
/// mode + hardware parameters). `None` for keys whose workload segment
/// does not parse — foreign or future-schema keys simply never match.
pub fn key_workload(key: &str) -> Option<(WorkloadKind, &str)> {
    let (name, rest) = key.split_once('|')?;
    let kind = WorkloadKind::parse(name).ok()?;
    Some((kind, rest))
}

/// Penalty added to [`key_distance`] when two keys' device identities
/// differ: large enough that any same-device candidate beats every
/// cross-device one, finite so a sweep's first key on a new device can
/// still transfer from a sibling device when nothing closer exists.
pub const CROSS_DEVICE_PENALTY: f64 = 256.0;

/// Penalty for two stencil workloads of different shapes (a star-7pt
/// frontier still seeds a cube-27pt search usefully — the tuned knobs
/// are sizes — but a same-shape neighbor must always win first).
const SHAPE_MISMATCH_PENALTY: f64 = 64.0;

/// The transfer distance between two cache keys: the L1 distance of
/// their workloads' size parameters in log2 space, plus
/// [`CROSS_DEVICE_PENALTY`] when the device identities differ. `None`
/// when the keys are incomparable — different workload families (a
/// matmul frontier holds no transpose configs), different pricing
/// modes, or an unparseable key.
pub fn key_distance(a: &str, b: &str) -> Option<f64> {
    let (ka, da) = key_workload(a)?;
    let (kb, db) = key_workload(b)?;
    if ka.family() != kb.family() {
        return None;
    }
    let mut dist = 0.0;
    if let (WorkloadKind::Stencil { shape: sa, .. }, WorkloadKind::Stencil { shape: sb, .. }) =
        (&ka, &kb)
    {
        if sa != sb {
            dist += SHAPE_MISMATCH_PENALTY;
        }
    }
    for ((_, va), (_, vb)) in ka.size_params().iter().zip(kb.size_params().iter()) {
        dist += ((*va as f64).log2() - (*vb as f64).log2()).abs();
    }
    if da != db {
        dist += CROSS_DEVICE_PENALTY;
    }
    Some(dist)
}

/// The comparable candidate key nearest to `target` under
/// [`key_distance`], ties broken toward the lexicographically smaller
/// key so the choice is deterministic regardless of candidate order.
/// This is the fleet driver's transfer index: "which already-tuned key
/// should seed this search".
pub fn nearest_neighbor<'a, I>(target: &str, candidates: I) -> Option<&'a str>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut best: Option<(f64, &'a str)> = None;
    for cand in candidates {
        let Some(d) = key_distance(target, cand) else {
            continue;
        };
        let better = match best {
            None => true,
            Some((bd, bk)) => d < bd || (d == bd && cand < bk),
        };
        if better {
            best = Some((d, cand));
        }
    }
    best.map(|(_, k)| k)
}

/// Serializes an [`Estimate`] (bit-exact float round trip).
pub fn estimate_to_json(e: &Estimate) -> Json {
    Json::obj([
        ("time_s", Json::num(e.time_s)),
        ("compute_s", Json::num(e.breakdown.compute_s)),
        ("dram_s", Json::num(e.breakdown.dram_s)),
        ("l2_s", Json::num(e.breakdown.l2_s)),
        ("smem_s", Json::num(e.breakdown.smem_s)),
        ("overhead_s", Json::num(e.breakdown.overhead_s)),
        ("total_s", Json::num(e.breakdown.total_s)),
        ("dram_bytes", Json::num(e.dram_bytes)),
        ("l2_bytes", Json::num(e.l2_bytes)),
        ("smem_passes", Json::num(e.smem_passes)),
        ("l2_hit_rate", Json::num(e.l2_hit_rate)),
        ("flops", Json::num(e.flops)),
        ("useful_bytes", Json::num(e.useful_bytes)),
    ])
}

/// Deserializes an [`Estimate`].
pub fn estimate_from_json(j: &Json) -> Option<Estimate> {
    let f = |k: &str| j.get(k).and_then(Json::as_f64);
    Some(Estimate {
        time_s: f("time_s")?,
        breakdown: TimeEstimate {
            compute_s: f("compute_s")?,
            dram_s: f("dram_s")?,
            l2_s: f("l2_s")?,
            smem_s: f("smem_s")?,
            overhead_s: f("overhead_s")?,
            total_s: f("total_s")?,
        },
        dram_bytes: f("dram_bytes")?,
        l2_bytes: f("l2_bytes")?,
        smem_passes: f("smem_passes")?,
        l2_hit_rate: f("l2_hit_rate")?,
        flops: f("flops")?,
        useful_bytes: f("useful_bytes")?,
    })
}

/// Serializes a [`TunedConfig`] as a tagged object.
pub fn config_to_json(c: &TunedConfig) -> Json {
    match *c {
        TunedConfig::Matmul {
            bm,
            bn,
            bk,
            schedule,
        } => {
            let (sched, p1, p2) = match schedule {
                ScheduleChoice::RowMajor => ("row-major", 0, 0),
                ScheduleChoice::Grouped { gm } => ("grouped", gm, 0),
                ScheduleChoice::Morton => ("morton", 0, 0),
                ScheduleChoice::BlockCyclic { p, b } => ("block-cyclic", p, b),
            };
            Json::obj([
                ("kind", Json::Str("matmul".into())),
                ("bm", Json::Int(bm)),
                ("bn", Json::Int(bn)),
                ("bk", Json::Int(bk)),
                ("schedule", Json::Str(sched.into())),
                ("p1", Json::Int(p1)),
                ("p2", Json::Int(p2)),
            ])
        }
        TunedConfig::Transpose { t, staging } => {
            let (name, p1, p2) = match staging {
                None => ("naive", 0, 0),
                Some(StagingChoice::Identity) => ("identity", 0, 0),
                Some(StagingChoice::Swizzle) => ("swizzle", 0, 0),
                Some(StagingChoice::ColMajor) => ("col-major", 0, 0),
                Some(StagingChoice::Antidiag) => ("antidiag", 0, 0),
                Some(StagingChoice::BlockCyclic { p, b }) => ("block-cyclic", p, b),
            };
            Json::obj([
                ("kind", Json::Str("transpose".into())),
                ("t", Json::Int(t)),
                ("staging", Json::Str(name.into())),
                ("p1", Json::Int(p1)),
                ("p2", Json::Int(p2)),
            ])
        }
        TunedConfig::Stencil { n, layout } => {
            let (name, b) = match layout {
                StencilLayoutChoice::RowMajorY => ("row-major-y", 0),
                StencilLayoutChoice::RowMajorZ => ("row-major-z", 0),
                StencilLayoutChoice::Brick { b } => ("brick", b),
            };
            Json::obj([
                ("kind", Json::Str("stencil".into())),
                ("n", Json::Int(n)),
                ("layout", Json::Str(name.into())),
                ("b", Json::Int(b)),
            ])
        }
        TunedConfig::Rowwise { op, bs } => {
            let name = match op {
                RowwiseOp::Softmax => "softmax",
                RowwiseOp::LayernormFwd => "layernorm-fwd",
                RowwiseOp::LayernormBwd => "layernorm-bwd",
            };
            Json::obj([
                ("kind", Json::Str("rowwise".into())),
                ("op", Json::Str(name.into())),
                ("bs", Json::Int(bs)),
            ])
        }
        TunedConfig::Nw { b, layout } => {
            let name = match layout {
                NwLayoutChoice::RowMajor => "row-major",
                NwLayoutChoice::Antidiag => "antidiag",
            };
            Json::obj([
                ("kind", Json::Str("nw".into())),
                ("b", Json::Int(b)),
                ("layout", Json::Str(name.into())),
            ])
        }
        TunedConfig::Lud { r, t } => Json::obj([
            ("kind", Json::Str("lud".into())),
            ("r", Json::Int(r)),
            ("t", Json::Int(t)),
        ]),
    }
}

/// Deserializes a [`TunedConfig`].
pub fn config_from_json(j: &Json) -> Option<TunedConfig> {
    let s = |k: &str| j.get(k).and_then(Json::as_str);
    let i = |k: &str| j.get(k).and_then(Json::as_i64);
    match s("kind")? {
        "matmul" => {
            let schedule = match s("schedule")? {
                "row-major" => ScheduleChoice::RowMajor,
                "grouped" => ScheduleChoice::Grouped { gm: i("p1")? },
                "morton" => ScheduleChoice::Morton,
                "block-cyclic" => ScheduleChoice::BlockCyclic {
                    p: i("p1")?,
                    b: i("p2")?,
                },
                _ => return None,
            };
            Some(TunedConfig::Matmul {
                bm: i("bm")?,
                bn: i("bn")?,
                bk: i("bk")?,
                schedule,
            })
        }
        "transpose" => {
            let staging = match s("staging")? {
                "naive" => None,
                "identity" => Some(StagingChoice::Identity),
                "swizzle" => Some(StagingChoice::Swizzle),
                "col-major" => Some(StagingChoice::ColMajor),
                "antidiag" => Some(StagingChoice::Antidiag),
                "block-cyclic" => Some(StagingChoice::BlockCyclic {
                    p: i("p1")?,
                    b: i("p2")?,
                }),
                _ => return None,
            };
            Some(TunedConfig::Transpose {
                t: i("t")?,
                staging,
            })
        }
        "stencil" => {
            let layout = match s("layout")? {
                "row-major-y" => StencilLayoutChoice::RowMajorY,
                "row-major-z" => StencilLayoutChoice::RowMajorZ,
                "brick" => StencilLayoutChoice::Brick { b: i("b")? },
                _ => return None,
            };
            Some(TunedConfig::Stencil { n: i("n")?, layout })
        }
        "rowwise" => {
            let op = match s("op")? {
                "softmax" => RowwiseOp::Softmax,
                "layernorm-fwd" => RowwiseOp::LayernormFwd,
                "layernorm-bwd" => RowwiseOp::LayernormBwd,
                _ => return None,
            };
            Some(TunedConfig::Rowwise { op, bs: i("bs")? })
        }
        "nw" => {
            let layout = match s("layout")? {
                "row-major" => NwLayoutChoice::RowMajor,
                "antidiag" => NwLayoutChoice::Antidiag,
                _ => return None,
            };
            Some(TunedConfig::Nw { b: i("b")?, layout })
        }
        "lud" => Some(TunedConfig::Lud {
            r: i("r")?,
            t: i("t")?,
        }),
        _ => None,
    }
}

pub(crate) fn tuning_to_json(t: &CachedTuning) -> Json {
    Json::obj([
        ("config", config_to_json(&t.config)),
        (
            "expr_variant",
            match t.expr_variant {
                None => Json::Null,
                Some(Variant::Unexpanded) => Json::Str("unexpanded".into()),
                Some(Variant::Expanded) => Json::Str("expanded".into()),
            },
        ),
        (
            "index_ops",
            match t.index_ops {
                None => Json::Null,
                Some(v) => Json::Int(v as i64),
            },
        ),
        ("naive", estimate_to_json(&t.naive)),
        ("tuned", estimate_to_json(&t.tuned)),
        ("evaluated", Json::Int(t.evaluated as i64)),
        ("strategy", Json::Str(t.strategy.clone())),
        (
            "budget",
            match t.budget {
                None => Json::Null,
                Some(v) => Json::Int(v as i64),
            },
        ),
        ("space", Json::Str(t.space.clone())),
        (
            "frontier",
            Json::Arr(
                t.frontier
                    .iter()
                    .map(|(c, time_s)| {
                        Json::obj([
                            ("config", config_to_json(c)),
                            ("time_s", Json::num(*time_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes the value of a `tune` record.
fn decode(value: &str) -> Option<CachedTuning> {
    tuning_from_json(&Json::parse(value).ok()?)
}

fn tuning_from_json(j: &Json) -> Option<CachedTuning> {
    let expr_variant = match j.get("expr_variant")? {
        Json::Null => None,
        Json::Str(s) if s == "unexpanded" => Some(Variant::Unexpanded),
        Json::Str(s) if s == "expanded" => Some(Variant::Expanded),
        _ => return None,
    };
    let frontier = j
        .get("frontier")?
        .as_arr()?
        .iter()
        .map(|e| {
            Some((
                config_from_json(e.get("config")?)?,
                e.get("time_s")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(CachedTuning {
        config: config_from_json(j.get("config")?)?,
        expr_variant,
        index_ops: j
            .get("index_ops")
            .and_then(Json::as_i64)
            .map(|v| v as usize),
        naive: estimate_from_json(j.get("naive")?)?,
        tuned: estimate_from_json(j.get("tuned")?)?,
        evaluated: j.get("evaluated")?.as_i64()? as usize,
        strategy: j.get("strategy")?.as_str()?.to_string(),
        budget: j.get("budget").and_then(Json::as_i64).map(|v| v as usize),
        space: j.get("space")?.as_str()?.to_string(),
        frontier,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_estimate(seed: f64) -> Estimate {
        Estimate {
            time_s: 1.23e-3 * seed,
            breakdown: TimeEstimate {
                compute_s: 0.1 * seed,
                dram_s: 0.2 * seed,
                l2_s: 0.3 / seed,
                smem_s: 0.0,
                overhead_s: 8e-6,
                total_s: 1.23e-3 * seed,
            },
            dram_bytes: 1e9 / seed,
            l2_bytes: 3e9,
            smem_passes: 42.0,
            l2_hit_rate: 0.875,
            flops: 2.0 * seed.powi(3),
            useful_bytes: 6.7e8,
        }
    }

    #[test]
    fn estimate_json_round_trips_exactly() {
        let e = sample_estimate(7.77);
        let back = estimate_from_json(&estimate_to_json(&e)).unwrap();
        assert_eq!(back, e);
        // Through text, too.
        let text = estimate_to_json(&e).render();
        let back = estimate_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn config_json_round_trips() {
        let configs = [
            TunedConfig::Matmul {
                bm: 128,
                bn: 64,
                bk: 32,
                schedule: ScheduleChoice::BlockCyclic { p: 8, b: 2 },
            },
            TunedConfig::Transpose {
                t: 32,
                staging: Some(StagingChoice::Antidiag),
            },
            TunedConfig::Transpose {
                t: 16,
                staging: None,
            },
            TunedConfig::Stencil {
                n: 64,
                layout: StencilLayoutChoice::Brick { b: 8 },
            },
            TunedConfig::Rowwise {
                op: RowwiseOp::Softmax,
                bs: 1024,
            },
            TunedConfig::Nw {
                b: 64,
                layout: NwLayoutChoice::Antidiag,
            },
            TunedConfig::Nw {
                b: 16,
                layout: NwLayoutChoice::RowMajor,
            },
            TunedConfig::Lud { r: 4, t: 16 },
        ];
        for c in configs {
            assert_eq!(config_from_json(&config_to_json(&c)), Some(c));
        }
    }

    #[test]
    fn cache_key_separates_occupancy_limits() {
        // The occupancy limits decide winners, so a config differing
        // only in them must not share a key with the stock A100.
        let a = gpu_sim::a100();
        let mut tweaked = a.clone();
        tweaked.smem_per_sm = gpu_sim::h100().smem_per_sm;
        assert_ne!(
            cache_key("nw(n=3584,b=16)", "additive-launch", &a),
            cache_key("nw(n=3584,b=16)", "additive-launch", &tweaked)
        );
    }

    #[test]
    fn cache_key_separates_devices_and_modes() {
        // Every device pair must key apart (warp-64 geometry included),
        // and the same workload priced under another mode must miss.
        let (a, h, m) = (gpu_sim::a100(), gpu_sim::h100(), gpu_sim::mi300());
        let keys: Vec<String> = [&a, &h, &m]
            .iter()
            .map(|g| cache_key("nw(n=2048,b=16)", "additive-launch", g))
            .collect();
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
        assert_ne!(
            cache_key("nw(n=2048,b=16)", "additive-launch", &a),
            cache_key("nw(n=2048,b=16)", "roofline", &a)
        );
        // Warp size alone must split keys even if everything else ties.
        let mut wide = a.clone();
        wide.warp_size = 64;
        assert_ne!(
            cache_key("matmul(n=2048)", "roofline", &a),
            cache_key("matmul(n=2048)", "roofline", &wide)
        );
    }

    #[test]
    fn v2_documents_are_invalidated_wholesale() {
        // A handcrafted v2 document (the PR 2 on-disk shape: no
        // strategy/budget/space/frontier fields) must read as empty
        // under the current schema — stale winners cached by the old
        // exhaustive search can never be served against the new
        // estimate semantics.
        let dir = std::env::temp_dir().join(format!("lego-cache-v2v3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v2.json");
        let v2_entry = Json::obj([
            ("config", config_to_json(&TunedConfig::Lud { r: 2, t: 16 })),
            ("expr_variant", Json::Null),
            ("index_ops", Json::Null),
            ("naive", estimate_to_json(&sample_estimate(1.0))),
            ("tuned", estimate_to_json(&sample_estimate(0.5))),
            ("evaluated", Json::Int(4)),
        ]);
        let doc = Json::obj([
            ("version", Json::Int(2)),
            ("entries", Json::Obj(vec![("k".to_string(), v2_entry)])),
        ]);
        std::fs::write(&path, doc.render_pretty()).unwrap();

        let cache = TuningCache::new(&path);
        assert_eq!(cache.lookup("k"), None, "v2 entries must not be served");

        // The next store rewrites the document under v3 and drops the
        // stale entry wholesale.
        let entry = CachedTuning {
            config: TunedConfig::Lud { r: 4, t: 16 },
            expr_variant: None,
            index_ops: None,
            naive: sample_estimate(1.0),
            tuned: sample_estimate(0.25),
            evaluated: 40,
            strategy: "genetic".to_string(),
            budget: Some(128),
            space: "enlarged".to_string(),
            frontier: vec![(TunedConfig::Lud { r: 4, t: 16 }, 0.25)],
        };
        cache.store("k2", &entry).unwrap();
        assert_eq!(cache.lookup("k2"), Some(entry));
        assert_eq!(cache.lookup("k"), None);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains(&format!("cache={CACHE_SCHEMA_VERSION}")),
            "rewritten under the current schema"
        );

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn concurrent_stores_drop_no_entries() {
        // The pre-fix `store()` was a bare read-modify-write of the
        // whole document: two racing writers would each load the same
        // snapshot and the slower one would erase the faster one's
        // entry. Hammer one file from many threads — half writing one
        // key at a time, half in `store_many` batches, so the two write
        // paths interleave on one document — and require every entry to
        // survive.
        // The memo sidecar shares the same journal write path
        // (`crate::journal`), so the same race must not lose
        // sidecar entries either: every thread also merges one distinct
        // annotation into a shared sidecar file.
        let dir = std::env::temp_dir().join(format!("lego-cache-conc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("concurrent.json");
        let sidecar_path = dir.join("concurrent-sidecar.txt");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&sidecar_path);

        const THREADS: usize = 8;
        const PER_THREAD: usize = 6;
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let path = path.clone();
                let sidecar_path = sidecar_path.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let cache = TuningCache::new(&path);
                    let entry_for = |t: usize, i: usize| CachedTuning {
                        config: TunedConfig::Lud {
                            r: (t + 1) as i64,
                            t: 16,
                        },
                        expr_variant: None,
                        index_ops: None,
                        naive: sample_estimate(1.0),
                        tuned: sample_estimate(0.5),
                        evaluated: i,
                        strategy: "exhaustive".to_string(),
                        budget: None,
                        space: "legacy".to_string(),
                        frontier: vec![],
                    };
                    barrier.wait();
                    let mut sc = crate::sidecar::Sidecar::new();
                    sc.set_annotation(&format!("conc-{t}"), "v");
                    sc.save(&sidecar_path).unwrap();
                    if t % 2 == 0 {
                        // Batched writers: all keys in one merged write
                        // (the fleet driver's end-of-run path).
                        let batch: Vec<(String, CachedTuning)> = (0..PER_THREAD)
                            .map(|i| (format!("k-{t}-{i}"), entry_for(t, i)))
                            .collect();
                        cache.store_many(&batch).unwrap();
                        assert!(
                            cache.lookup(&format!("k-{t}-0")).is_some(),
                            "reader observed a torn or clobbered document"
                        );
                    } else {
                        for i in 0..PER_THREAD {
                            cache
                                .store(&format!("k-{t}-{i}"), &entry_for(t, i))
                                .unwrap();
                            // Interleave a read: the atomic rename means
                            // a reader can never see a torn document
                            // (which `load` would silently treat as
                            // empty).
                            assert!(
                                cache.lookup(&format!("k-{t}-0")).is_some(),
                                "reader observed a torn or clobbered document"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let cache = TuningCache::new(&path);
        let entries = cache.entries();
        assert_eq!(
            entries.len(),
            THREADS * PER_THREAD,
            "concurrent stores dropped entries"
        );
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                assert!(
                    cache.lookup(&format!("k-{t}-{i}")).is_some(),
                    "entry k-{t}-{i} lost"
                );
            }
        }
        // Every thread's sidecar merge survived the same race.
        let sc = crate::sidecar::Sidecar::load(&sidecar_path);
        for t in 0..THREADS {
            assert!(
                sc.annotations().any(|(k, _)| k == format!("conc-{t}")),
                "sidecar annotation conc-{t} lost"
            );
        }
        // No tempfiles left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stale tempfiles: {leftovers:?}");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&sidecar_path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn mismatched_schema_version_invalidates_the_document() {
        let dir = std::env::temp_dir().join(format!("lego-cache-ver-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("versioned.json");
        let cache = TuningCache::new(&path);
        let entry = CachedTuning {
            config: TunedConfig::Lud { r: 2, t: 16 },
            expr_variant: None,
            index_ops: None,
            naive: sample_estimate(1.0),
            tuned: sample_estimate(0.5),
            evaluated: 4,
            strategy: "anneal".to_string(),
            budget: Some(64),
            space: "enlarged".to_string(),
            frontier: vec![
                (TunedConfig::Lud { r: 2, t: 16 }, 0.5),
                (TunedConfig::Lud { r: 4, t: 16 }, 0.75),
            ],
        };
        cache.store("k", &entry).unwrap();
        assert_eq!(cache.lookup("k"), Some(entry.clone()));

        // Rewrite the document under an older version: every entry is
        // invalidated, and the next store starts a fresh document.
        let text = std::fs::read_to_string(&path).unwrap();
        let stale = text.replacen(&format!("cache={CACHE_SCHEMA_VERSION}"), "cache=1", 1);
        assert_ne!(text, stale, "version field must be present");
        std::fs::write(&path, stale).unwrap();
        assert_eq!(cache.lookup("k"), None);

        // A document with no version at all is also discarded.
        std::fs::write(&path, "{\"entries\": {}}").unwrap();
        assert_eq!(cache.lookup("k"), None);

        cache.store("k2", &entry).unwrap();
        assert_eq!(cache.lookup("k2"), Some(entry));
        assert_eq!(cache.lookup("k"), None, "stale entries dropped on store");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn store_many_merges_in_batch_order() {
        let dir = std::env::temp_dir().join(format!("lego-cache-many-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("many.json");
        let _ = std::fs::remove_file(&path);
        let cache = TuningCache::new(&path);

        let entry = |evaluated: usize| CachedTuning {
            config: TunedConfig::Lud { r: 2, t: 16 },
            expr_variant: None,
            index_ops: None,
            naive: sample_estimate(1.0),
            tuned: sample_estimate(0.5),
            evaluated,
            strategy: "anneal".to_string(),
            budget: Some(64),
            space: "enlarged".to_string(),
            frontier: vec![],
        };

        // An empty batch never creates the file.
        cache.store_many(&[]).unwrap();
        assert!(!path.exists(), "empty batch must not touch the file");

        // One write, several keys; a later duplicate in the batch wins
        // (matching what sequential stores would have produced).
        cache
            .store_many(&[
                ("a".to_string(), entry(1)),
                ("b".to_string(), entry(2)),
                ("a".to_string(), entry(3)),
            ])
            .unwrap();
        assert_eq!(cache.lookup("a").unwrap().evaluated, 3);
        assert_eq!(cache.lookup("b").unwrap().evaluated, 2);

        // A second batch merges into (not replaces) the document.
        cache.store_many(&[("c".to_string(), entry(4))]).unwrap();
        assert_eq!(cache.entries().len(), 3);
        assert_eq!(cache.lookup("a").unwrap().evaluated, 3);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn key_distance_orders_by_size_then_device() {
        let (a, h) = (gpu_sim::a100(), gpu_sim::h100());
        let key = |n: i64, gpu: &GpuConfig| cache_key(&format!("matmul(n={n})"), "roofline", gpu);
        let target = key(1024, &a);
        // Same device: one octave is distance 1, two octaves 2.
        assert_eq!(key_distance(&target, &key(2048, &a)), Some(1.0));
        assert_eq!(key_distance(&target, &key(512, &a)), Some(1.0));
        assert_eq!(key_distance(&target, &key(4096, &a)), Some(2.0));
        assert_eq!(key_distance(&target, &target), Some(0.0));
        // Cross-device exact size costs exactly the penalty.
        assert_eq!(
            key_distance(&target, &key(1024, &h)),
            Some(CROSS_DEVICE_PENALTY)
        );
        // Other families are incomparable, not merely distant.
        assert_eq!(
            key_distance(&target, &cache_key("transpose(n=1024)", "roofline", &a)),
            None
        );
        assert_eq!(key_distance(&target, "garbage-key"), None);

        // Nearest-neighbor: same-device octave beats cross-device exact
        // size; incomparable candidates are skipped; ties break toward
        // the lexicographically smaller key.
        let candidates = [
            key(1024, &h),
            key(2048, &a),
            cache_key("transpose(n=1024)", "roofline", &a),
        ];
        assert_eq!(
            nearest_neighbor(&target, candidates.iter().map(String::as_str)),
            Some(candidates[1].as_str())
        );
        let tie = [key(2048, &a), key(512, &a)];
        let expect = tie.iter().map(String::as_str).min().unwrap();
        assert_eq!(
            nearest_neighbor(&target, tie.iter().map(String::as_str)),
            Some(expect)
        );
        assert_eq!(nearest_neighbor(&target, ["garbage"]), None);
    }
}
