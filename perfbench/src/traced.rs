//! The traced run: replays a workload's seeded stream in-process and
//! walks each key through the layers' public functions, timing every
//! call from outside.
//!
//! * **Stream replay.** Pass 0's stream goes through
//!   `protocol::parse_request` + `protocol::resolve`,
//!   `TuneService::resolve` and `Served::to_json` + `render_line` on one
//!   fresh thread, then again as a repeat (every key now a memory hit).
//! * **Key replay.** For every distinct key, on fresh threads: a direct
//!   `Tuner::tune` (its answer must equal the served bytes), `run_search`
//!   as a whole, and a layer walk — `Candidate::annotated` →
//!   `Domain::enumerate` → `build_layout` → `build_workload` →
//!   `CostModel::bound` → `CostModel::traffic` → `CostModel::assemble`
//!   — first cold, then again warm. Exhaustive keys walk their whole
//!   domain with the search's bound pruning; anneal keys, whose
//!   proposal stream is internal, walk their persisted frontier.
//! * **Persistence.** `TuningCache::store_many` and `entries` on a
//!   scratch cache of the keys' entries, and `sidecar::load_and_install`
//!   of the replay's harvested sidecar followed by a re-tune of every
//!   key on the warmed thread.

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gpu_sim::{CostModel, Estimate, GpuConfig};
use lego_served::protocol::{self, Request};
use lego_served::{Tier, TuneService, TuneSpec};
use lego_tune::strategy::rank;
use lego_tune::{
    build_layout, build_workload, run_search, Candidate, Domain, SpaceScale, Strategy, TuneRequest,
    TunedConfig, TuningCache, WorkloadKind, FRONTIER_K,
};

use crate::checks::render_reference;
use crate::pools::{Item, Workload};
use crate::prep::fail;
use crate::timed::{fresh_copy, Fixtures};
use crate::trace::Trace;

/// What the stream replay measured beyond its spans.
pub struct Replay {
    /// Tunes replayed in the first (non-repeat) round.
    pub tunes: usize,
    /// Wall time of that round, in seconds.
    pub wall_s: f64,
    /// The sidecar the replay's service flushed on drain.
    pub sidecar: PathBuf,
}

/// Interleaves per-client streams round-robin into one sequence.
fn interleave(stream: Vec<Vec<Item>>) -> Vec<Item> {
    let longest = stream.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| stream.iter().filter_map(move |c| c.get(i).copied()))
        .collect()
}

/// Replays pass 0 of `w`'s stream under `seed` through the served
/// layer, in-process, on a fresh thread. `answers[key]` is the line the
/// timed run was served; every replayed answer must equal it.
pub fn replay(
    w: Workload,
    seed: u64,
    fixtures: &Fixtures,
    answers: &BTreeMap<usize, String>,
    work: &Path,
) -> io::Result<(Trace, Replay)> {
    let dir = work.join("replay");
    std::fs::create_dir_all(&dir)?;
    let cache = fresh_copy(&fixtures.cache, dir.join("cache.json"))?;
    let sidecar = dir.join("sidecar.txt");
    if let Some(src) = &fixtures.sidecar {
        std::fs::copy(src, &sidecar)?;
    }
    let items = interleave(w.stream(seed, 0));
    let lines: Vec<String> = w.pool().iter().map(|s| s.to_json().render()).collect();
    let answers = answers.clone();
    let sidecar_out = sidecar.clone();
    let (trace, tunes, wall_s) = std::thread::spawn(move || -> io::Result<_> {
        let service = TuneService::new(gpu_sim::a100(), cache, Some(sidecar_out));
        service.warm_worker(0);
        let mut trace = Trace::default();
        let mut tunes = 0;
        let mut wall_s = 0.0;
        for round in 0..2 {
            let (h0, m0) = gpu_sim::traffic_memo_stats();
            let t_round = Instant::now();
            for item in &items {
                let Some(key) = item.key() else {
                    trace.time("served.metrics", || {
                        protocol::render_line(&service.metrics().to_json())
                    });
                    continue;
                };
                let (got, tier) = replay_one(&service, &lines[key], &mut trace)?;
                if got.strip_suffix('\n') != answers.get(&key).map(String::as_str) {
                    return Err(fail(format!(
                        "in-process answer for {} differs from the served one",
                        lines[key]
                    )));
                }
                if round == 0 {
                    tunes += 1;
                } else if tier != Tier::Memory {
                    return Err(fail(format!(
                        "repeat of {} met tier {}",
                        lines[key],
                        tier.name()
                    )));
                }
            }
            if round == 0 {
                wall_s = t_round.elapsed().as_secs_f64();
                let (h1, m1) = gpu_sim::traffic_memo_stats();
                trace.count("gpusim.traffic_hits", (h1 - h0) as f64);
                trace.count("gpusim.traffic_misses", (m1 - m0) as f64);
            }
        }
        for _ in 0..5 {
            trace.time("served.metrics", || {
                protocol::render_line(&service.metrics().to_json())
            });
        }
        service.harvest_worker();
        service.flush()?;
        Ok((trace, tunes, wall_s))
    })
    .join()
    .expect("replay thread panicked")?;
    Ok((
        trace,
        Replay {
            tunes,
            wall_s,
            sidecar,
        },
    ))
}

/// One request through the served layer, as the daemon's dispatch runs
/// it: parse, resolve, record, render.
fn replay_one(service: &TuneService, line: &str, trace: &mut Trace) -> io::Result<(String, Tier)> {
    let t = Instant::now();
    let req = match protocol::parse_request(line) {
        Ok(Request::Tune(spec)) => protocol::resolve(&spec, service.default_device()),
        Ok(other) => Err(format!("not a tune request: {other:?}")),
        Err(e) => Err(e),
    }
    .map_err(fail)?;
    let parse_s = t.elapsed().as_secs_f64();
    trace.span("served.parse", parse_s);

    let t = Instant::now();
    let (result, tier) = service.resolve(&req);
    let resolve_s = t.elapsed().as_secs_f64();
    trace.span(
        match tier {
            Tier::Memory => "served.resolve_memory",
            Tier::Searched => "served.resolve_search",
            Tier::Cache | Tier::Coalesced => "served.resolve_other",
        },
        resolve_s,
    );
    let metrics = service.metrics();
    metrics.record_tune(&req.class(), tier, result.is_ok(), resolve_s * 1e3);
    metrics.record_arena(0, lego_expr::intern::stats());
    metrics.record_sidecar(0, lego_tune::annotate_sidecar_stats());
    metrics.record_traffic(0, gpu_sim::traffic_memo_stats());
    let served = result.map_err(fail)?;

    let t = Instant::now();
    let out = protocol::render_line(&served.to_json());
    let render_s = t.elapsed().as_secs_f64();
    trace.span("served.render", render_s);
    if tier == Tier::Memory {
        trace.span("served.inproc_memory", parse_s + resolve_s + render_s);
    }
    Ok((out, tier))
}

/// The trace family label of a workload (`rowwise` for every rowwise
/// operator).
fn family(kind: &WorkloadKind) -> &'static str {
    match kind {
        WorkloadKind::Rowwise { .. } => "rowwise",
        k => k.family(),
    }
}

/// Runs `f` on a fresh thread — a cold process's stand-in: empty
/// arenas, annotation cache and traffic memo.
fn fresh<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f).join().expect("fresh thread panicked")
}

/// The key replay of one distinct key.
///
/// Returns the problems found (empty when every check held).
pub fn replay_key(
    spec: &TuneSpec,
    answer: &str,
    check_cache: &Path,
    trace: &mut Trace,
) -> io::Result<Vec<String>> {
    let req = protocol::resolve(spec, &gpu_sim::a100()).map_err(fail)?;
    let mut problems = Vec::new();

    // A direct `Tuner::tune`, rendered as the daemon would answer.
    let tuner = req.tuner().with_cache(check_cache);
    let kind = req.kind;
    let direct = fresh(move || tuner.tune(&kind).map_err(|e| e.to_string()));
    match direct.and_then(|r| render_reference(spec, &r)) {
        Ok(line) if line == answer => {}
        Ok(line) => problems.push(format!(
            "{}: direct Tuner::tune answers {line}, daemon answered {answer}",
            spec.workload
        )),
        Err(e) => problems.push(format!("{}: direct tune failed: {e}", spec.workload)),
    }

    // `run_search` as a whole.
    let r = req.clone();
    let (secs, outcome) = fresh(move || {
        let domain = Domain::new(r.kind, r.effective_space());
        let t = Instant::now();
        let out = run_search(
            r.strategy,
            &domain,
            &r.device,
            r.budget,
            &r.cache_key(),
            &[],
        )
        .map(|o| (o.winner.config, o.evaluated, o.pruned));
        (t.elapsed().as_secs_f64(), out.map_err(|e| e.to_string()))
    });
    trace.span("tune.search", secs);
    let winner = match outcome {
        Ok((winner, evaluated, pruned)) => {
            trace.count("tune.searches", 1.0);
            trace.count("tune.evaluated", evaluated as f64);
            trace.count("tune.pruned", pruned as f64);
            Some(winner)
        }
        Err(e) => {
            problems.push(format!("{}: run_search failed: {e}", spec.workload));
            None
        }
    };

    // The layer walk.
    let configs = match req.strategy {
        Strategy::Exhaustive => None,
        Strategy::Anneal | Strategy::Genetic => {
            let entry = TuningCache::new(check_cache.to_path_buf()).lookup(&req.cache_key());
            Some(entry.map_or_else(Vec::new, |e| {
                e.frontier.into_iter().map(|(c, _)| c).collect()
            }))
        }
    };
    let r = req.clone();
    let (walk, best) = fresh(move || walk(&r, configs));
    trace.merge(walk);
    if best != winner {
        problems.push(format!(
            "{}: layer walk picks {best:?}, run_search picks {winner:?}",
            spec.workload
        ));
    }
    Ok(problems)
}

/// The spans a cold layer walk is made of.
const WALK_LAYERS: [&str; 8] = [
    "expr.annotate",
    "tune.enumerate",
    "core.build_layout",
    "tune.build_workload",
    "gpusim.bound",
    "gpusim.trace",
    "gpusim.traffic_hit",
    "gpusim.assemble",
];

/// One walked candidate: its layout and workload, kept for the warm
/// re-walk.
type Job = (lego_core::Layout, gpu_sim::Workload);

/// Walks a key's candidates through the layers on the calling thread:
/// the exhaustive domain (with the search's bound pruning) when
/// `frontier` is `None`, else the given configs. Then walks the priced
/// candidates again, warm. Returns the spans and the best config.
fn walk(req: &TuneRequest, frontier: Option<Vec<TunedConfig>>) -> (Trace, Option<TunedConfig>) {
    let mut trace = Trace::default();
    let kind = req.kind;
    let gpu: &GpuConfig = &req.device;
    let model = CostModel::new(gpu);
    let fam = family(&kind);
    let exhaustive = frontier.is_none();

    // The config list, computed on a helper thread so this thread's
    // annotation cache stays cold for the timed annotation below.
    let configs = match frontier {
        Some(f) => f,
        None => fresh(move || Domain::new(kind, SpaceScale::Legacy).enumerate()),
    };

    // Expression layer: annotate every candidate cold.
    let s0 = lego_expr::intern::stats();
    let cands: Vec<Candidate> = configs
        .iter()
        .map(|c| trace.time("expr.annotate", || Candidate::annotated(&kind, c)))
        .collect();
    let ds = lego_expr::intern::stats().since(&s0);
    trace.count("expr.memo_hits", ds.memo_hits() as f64);
    trace.count("expr.memo_misses", ds.memo_misses() as f64);

    // Enumeration (annotation is warm now, so this is the domain's own
    // cost).
    let space = req.effective_space();
    let listed = trace.time("tune.enumerate", || Domain::new(kind, space).enumerate());
    std::hint::black_box(listed);

    // Pricing, in the exhaustive search's order: the default first,
    // then chunks pruned against the k-th best time scored so far.
    const PRUNE_CHUNK: usize = 32;
    let mut scored: Vec<(TunedConfig, Estimate)> = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    let mut seen: HashSet<TunedConfig> = HashSet::new();
    let chunks: Vec<&[Candidate]> = if exhaustive {
        // The default is scored on its own, then the whole list
        // (default included, now seen) sweeps in chunks.
        std::iter::once(&cands[..1])
            .chain(cands.chunks(PRUNE_CHUNK))
            .collect()
    } else {
        vec![&cands[..]]
    };
    for chunk in chunks {
        let cutoff = if exhaustive && scored.len() >= FRONTIER_K {
            let mut times: Vec<f64> = scored.iter().map(|(_, e)| e.time_s).collect();
            times.sort_by(f64::total_cmp);
            Some(times[FRONTIER_K - 1])
        } else {
            None
        };
        for cand in chunk {
            if !seen.insert(cand.config) {
                continue;
            }
            let Ok(layout) = trace.time("core.build_layout", || build_layout(&kind, &cand.config))
            else {
                continue;
            };
            let wl = trace.time("tune.build_workload", || build_workload(&kind, cand, gpu));
            let bound = trace.time("gpusim.bound", || model.bound(&wl));
            if cutoff.is_some_and(|t| bound > t) {
                continue;
            }
            let (_, m0) = gpu_sim::traffic_memo_stats();
            let t = Instant::now();
            let tc = model.traffic(&layout, &wl);
            let secs = t.elapsed().as_secs_f64();
            if gpu_sim::traffic_memo_stats().1 > m0 {
                trace.span("gpusim.trace", secs);
                trace.span(&format!("gpusim.trace.{fam}"), secs);
            } else {
                trace.span("gpusim.traffic_hit", secs);
            }
            let est = trace.time("gpusim.assemble", || model.assemble(&wl, &tc));
            scored.push((cand.config, est));
            jobs.push((layout, wl));
        }
    }
    let best = scored
        .iter()
        .enumerate()
        .min_by(|(i, a), (j, b)| {
            rank(&a.1)
                .partial_cmp(&rank(&b.1))
                .expect("estimates are finite")
                .then(i.cmp(j))
        })
        .map(|(_, (c, _))| *c);

    let layers: f64 = WALK_LAYERS.iter().map(|n| trace.total(n)).sum();
    trace.span("walk.layers", layers);

    // Warm: the same candidates again on this thread, every geometry
    // now in the traffic memo.
    for (layout, wl) in &jobs {
        let t = Instant::now();
        let tc = model.traffic(layout, wl);
        trace.span("gpusim.traffic_hit", t.elapsed().as_secs_f64());
        std::hint::black_box(tc);
    }
    (trace, best)
}

/// Times `TuningCache::store_many` one entry at a time into a scratch
/// cache built from `source`'s entries, then `TuningCache::entries` on
/// the full file.
pub fn persist_costs(source: &Path, work: &Path, trace: &mut Trace) -> io::Result<()> {
    let mut entries = TuningCache::new(source.to_path_buf()).entries();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let scratch = TuningCache::new(work.join("store-probe.json"));
    for entry in &entries {
        let t = Instant::now();
        scratch.store_many(std::slice::from_ref(entry))?;
        trace.span("tune.cache_store", t.elapsed().as_secs_f64());
    }
    trace.count("tune.cache_entries", entries.len() as f64);
    for _ in 0..5 {
        let got = trace.time("tune.cache_preload", || scratch.entries());
        if got.len() != entries.len() {
            return Err(fail("store probe lost entries"));
        }
    }
    Ok(())
}

/// Sidecar installs timed per run, each on its own fresh thread.
const INSTALLS: usize = 5;

/// Installs `sidecar` on fresh threads, then re-tunes every spec on the
/// last of them: the install time, the warm hits it buys, and the
/// answers (which must not change).
pub fn sidecar_probe(
    sidecar: &Path,
    specs: Vec<(TuneSpec, String)>,
    trace: &mut Trace,
) -> Vec<String> {
    for _ in 1..INSTALLS {
        let path = sidecar.to_path_buf();
        let secs = fresh(move || {
            let t = Instant::now();
            lego_tune::sidecar::load_and_install(&path);
            t.elapsed().as_secs_f64()
        });
        trace.span("tune.sidecar_install", secs);
    }
    let path = sidecar.to_path_buf();
    let (probe, problems) = fresh(move || {
        let mut trace = Trace::default();
        let mut problems = Vec::new();
        trace.time("tune.sidecar_install", || {
            lego_tune::sidecar::load_and_install(&path)
        });
        let arena0 = lego_expr::intern::stats().sidecar_hits;
        let ann0 = lego_tune::annotate_sidecar_stats().1;
        for (spec, answer) in &specs {
            let outcome = protocol::resolve(spec, &gpu_sim::a100()).and_then(|req| {
                let r = req.tuner().tune(&req.kind).map_err(|e| e.to_string())?;
                render_reference(spec, &r)
            });
            match outcome {
                Ok(line) if line == *answer => {}
                Ok(_) => problems.push(format!(
                    "{}: sidecar-warmed tune answers differently",
                    spec.workload
                )),
                Err(e) => problems.push(format!("{}: warmed tune failed: {e}", spec.workload)),
            }
        }
        let hits = (lego_expr::intern::stats().sidecar_hits - arena0)
            + (lego_tune::annotate_sidecar_stats().1 - ann0);
        trace.count("expr.sidecar_hits", hits as f64);
        (trace, problems)
    });
    trace.merge(probe);
    problems
}
