//! The repository benchmark: `tune` requests against an embedded
//! `lego-served` daemon, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload cold-search|warm-hits|persist-mix --seed N
//!           --seconds S --trace 0|1 [--record FILE]
//! perfbench --compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! `--trace 0` is the timed run: closed-loop clients drive the daemon
//! over TCP and the run prints the end-to-end metrics. `--trace 1` runs
//! the same timed run, then replays the stream in-process and walks
//! every key through the layers, printing the per-layer metrics. Both
//! check every answer and end with one JSON result line; the exit
//! status is nonzero when a check fails. `--record FILE` appends the
//! result to a JSON-lines file, and `--compare` reports two such files
//! against the bounds in `BENCHMARK.json`.

mod checks;
mod compare;
mod metrics;
mod pools;
mod prep;
mod stats;
mod timed;
mod trace;
mod traced;

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use lego_tune::Json;

use crate::metrics::{Metric, Winners};
use crate::pools::Workload;
use crate::trace::Trace;

/// The trace families `gpusim.trace_ms.<family>` is reported for.
pub const FAMILIES: [&str; 6] = ["matmul", "transpose", "stencil", "nw", "lud", "rowwise"];

/// End-to-end metrics in the result line of a `--trace 0` run. The
/// printed report also holds `latency_p99_ms` (where a run has the
/// samples for it), `error_rate` (carried by the line's `failed` and
/// `attempted`) and `peak_rss_mb` (its median moved by 60% between
/// two identical sets of cold-search runs).
pub const E2E_METRICS: [&str; 6] = [
    "setup_s",
    "throughput_rps",
    "latency_p50_ms",
    "latency_p90_ms",
    "winner_time_geomean_us",
    "index_ops_total",
];

/// Per-layer metrics in the result line of a `--trace 1` run: those
/// every workload measures. The printed report holds more.
pub const LAYER_METRICS: [&str; 33] = [
    "served.parse_us",
    "served.resolve_memory_us",
    "served.resolve_search_ms",
    "served.render_us",
    "served.metrics_us",
    "served.tier_memory",
    "served.tier_coalesced",
    "served.tier_searched",
    "tune.search_ms",
    "tune.evaluated",
    "tune.pruned_ratio",
    "tune.enumerate_us",
    "tune.build_workload_us",
    "tune.cache_store_ms",
    "tune.cache_entries",
    "tune.cache_preload_ms",
    "tune.sidecar_install_ms",
    "expr.sidecar_hits",
    "expr.annotate_us",
    "expr.memo_hit_rate",
    "core.build_layout_us",
    "gpusim.bound_us",
    "gpusim.trace_ms",
    "gpusim.trace_ms.matmul",
    "gpusim.trace_ms.transpose",
    "gpusim.trace_ms.nw",
    "gpusim.trace_ms.lud",
    "gpusim.trace_ms.rowwise",
    "gpusim.traffic_hit_us",
    "gpusim.assemble_us",
    "gpusim.traffic_hit_rate",
    "codegen.emit_us",
    "codegen.index_ops",
];

const USAGE: &str = "usage: perfbench --workload cold-search|warm-hits|persist-mix --seed N \
                     --seconds S --trace 0|1 [--record FILE]\n       \
                     perfbench --compare PARENT.jsonl CHANGE.jsonl";

/// Parsed command line of a benchmark run.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--record" => record = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        record,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        let code = match args.as_slice() {
            [_, parent, change] => compare::run(Path::new(parent), Path::new(change)),
            _ => {
                eprintln!("{USAGE}");
                2
            }
        };
        std::process::exit(code);
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Scratch files live inside the checkout, under the build
    // directory, and go when the run ends.
    let work = PathBuf::from(".bench_build").join(format!("perfbench-{}", std::process::id()));
    let outcome = std::fs::create_dir_all(&work).and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One benchmark run; returns whether every check held.
fn run(args: &Args, work: &Path) -> io::Result<bool> {
    let w = args.workload;
    let pool = w.pool();
    println!(
        "perfbench {} seed={} seconds={} trace={} clients={} pool={} keys",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.clients(),
        pool.len()
    );

    let (fixtures, mut trace) = prep::prepare(w, work)?;
    let run = timed::run(w, args.seed, args.seconds, &fixtures, work)?;
    let mut problems = run.problems.clone();

    // Answer-level checks on every distinct answer.
    let answers: BTreeMap<usize, String> = run.answers.clone().into_iter().collect();
    let mut bad_keys = BTreeSet::new();
    let mut winners = Winners {
        tuned_s: Vec::new(),
        index_ops: Vec::new(),
    };
    for (&key, line) in &answers {
        match checks::parse_answer(&pool[key], line)
            .and_then(|a| checks::check_answer(&a, &mut trace).map(|()| a))
        {
            Ok(a) => {
                winners.tuned_s.push(a.tuned_s);
                winners.index_ops.push(a.index_ops.unwrap_or(0));
            }
            Err(e) => {
                problems.push(format!("{}: {e}", pool[key].workload));
                bad_keys.insert(key);
            }
        }
    }
    if answers.len() != pool.len() {
        problems.push(format!(
            "{} of {} pool keys answered",
            answers.len(),
            pool.len()
        ));
    }

    let mut layer: Vec<Metric> = Vec::new();
    if args.trace {
        let (replay_trace, replay) = traced::replay(w, args.seed, &fixtures, &answers, work)?;
        trace.merge(replay_trace);
        let check_cache = work.join("check-cache.json");
        for (&key, line) in &answers {
            for p in traced::replay_key(&pool[key], line, &check_cache, &mut trace)? {
                problems.push(p);
                bad_keys.insert(key);
            }
        }
        traced::persist_costs(&check_cache, work, &mut trace)?;
        let specs = answers
            .iter()
            .map(|(&k, a)| (pool[k].clone(), a.clone()))
            .collect();
        problems.extend(traced::sidecar_probe(&replay.sidecar, specs, &mut trace));
        layer = metrics::per_layer(&trace, &run, answers.len());
        print_traced_report(w, &run, &trace, &replay, &layer);
    }

    // A request fails when its answer differs from its client's first
    // answer for the key, or when the key's answer failed a check.
    let failed: usize = (0..pool.len())
        .map(|k| {
            if bad_keys.contains(&k) {
                run.tunes[k]
            } else {
                run.mismatched[k]
            }
        })
        .sum();
    let e2e = metrics::end_to_end(&run, &winners, failed);
    metrics::print_table(
        &format!(
            "end-to-end ({} passes, {} tunes, {} metrics scrapes)",
            run.passes(),
            run.attempted(),
            run.scrapes
        ),
        &e2e,
    );
    print!("{}", metrics::omitted_percentiles(&e2e, run.attempted()));

    let (reported, keep): (&[Metric], &[&str]) = if args.trace {
        (&layer, &LAYER_METRICS)
    } else {
        (&e2e, &E2E_METRICS)
    };
    for name in keep {
        if !reported.iter().any(|m| m.name == *name) {
            problems.push(format!("metric {name} was not measured"));
        }
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    let result = metrics::result_json(correct, run.attempted(), failed, reported, keep);
    if let Some(path) = &args.record {
        let record = Json::obj([
            ("workload", Json::Str(w.name().to_string())),
            ("seed", Json::Int(args.seed as i64)),
            ("trace", Json::Bool(args.trace)),
            ("result", result.clone()),
        ]);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{}", record.render())?;
    }
    println!("{}", result.render());
    Ok(correct)
}

fn print_traced_report(
    w: Workload,
    run: &timed::TimedRun,
    trace: &Trace,
    replay: &traced::Replay,
    layer: &[Metric],
) {
    metrics::print_table(&format!("per-layer ({})", w.name()), layer);
    let measured: BTreeSet<&str> = layer.iter().map(|m| m.name.as_str()).collect();
    let absent: Vec<&str> = LAYER_METRICS
        .iter()
        .copied()
        .chain(["served.wire_us", "gpusim.trace_ms.stencil"])
        .filter(|n| !measured.contains(n))
        .collect();
    if !absent.is_empty() {
        println!("  no work on this workload: {}", absent.join(", "));
    }
    let untraced = run.attempted() as f64 / run.wall_s;
    let traced = replay.tunes as f64 / replay.wall_s;
    println!(
        "throughput: untraced {untraced:.1} req/s over TCP ({} clients), traced {traced:.1} req/s \
         in-process (1 thread, {} tunes); the difference is transport plus tracing overhead",
        w.clients(),
        replay.tunes
    );
    let resolve = match trace.total("served.resolve_search") {
        t if t > 0.0 => t,
        _ => trace.total("prep.resolve_search"),
    };
    let walked = trace.total("walk.layers");
    if w == Workload::PersistMix {
        println!(
            "unaccounted resolve time: not attributed (anneal searches are timed only as a whole)"
        );
    } else if resolve > 0.0 {
        println!(
            "unaccounted resolve time: {:.1}% of {:.1} ms of traced searched resolves is not in \
             the named layers ({:.1} ms walked; cold traces run in parallel inside a search, \
             so this share can be negative)",
            100.0 * (1.0 - walked / resolve),
            resolve * 1e3,
            walked * 1e3
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("list in BENCHMARK.json")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` declares exactly the workloads and result-line
    /// metrics this program produces.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names(&doc, "workloads"), workloads);
        assert_eq!(names(&doc, "end_to_end"), E2E_METRICS);
        assert_eq!(names(&doc, "per_layer"), LAYER_METRICS);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload warm-hits --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.workload, a.seed, a.trace), (Workload::WarmHits, 3, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload warm-hits --seed 1 --seconds 0 --trace 0",
            "--workload warm-hits --seed 1 --seconds 1 --trace 2",
            "--workload warm-hits --seed 1 --seconds 1",
            "--workload warm-hits --seed x --seconds 1 --trace 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
