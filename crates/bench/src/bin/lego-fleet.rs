//! `lego-fleet`: fleet-scale tuning from the command line.
//!
//! Expands a [`FleetSpec`] grid (`family:lo..hixSTEP[,...][@devices]`)
//! into tuning requests and tunes them on an in-process
//! [`TuneService`], the engine behind the `lego-served` daemon: one
//! resolution per key (memory tier, cache tier, search), in grid order
//! on the main thread, then one [`TuneService::flush`] that compacts
//! the cache and writes the memo sidecar. Prints a per-key table and
//! emits `BENCH_fleet.json`. Every answer equals the one the sequential
//! tuner gives for the same key and knobs.
//!
//! Flags: `--grid SPEC`, `--strategy anneal|genetic`, `--budget N`,
//! `--space legacy|enlarged`, `--device TAG` (default device for specs
//! without `@`; a tag or full name, in any case), `--cache PATH`,
//! `--sidecar PATH` (warm the tuning thread from the persisted memo
//! sidecar and write its derived results back on completion). The
//! search knobs go through the resolver every front door shares
//! ([`lego_tune::Knobs::resolve`]); bad input, a flag given where a
//! value belongs, or a flag outside this list exits with status 2. A
//! key that fails, or a failed final write, exits with status 1.

use std::path::PathBuf;
use std::process::exit;

use lego_bench::emit;
use lego_bench::tuned::{flag_value, knobs_from_args, reject_unknown_flags};
use lego_served::TuneService;
use lego_tune::fleet::FleetReport;
use lego_tune::{Budget, FleetSpec, Json, Knobs, Strategy, TuneRequest};

/// Every flag `lego-fleet` knows.
const FLAGS: [&str; 7] = [
    "--grid",
    "--strategy",
    "--budget",
    "--space",
    "--device",
    "--cache",
    "--sidecar",
];

/// The default smoke grid: three families × two devices, 26 keys.
const DEFAULT_GRID: &str = "matmul:256..2048x2,nw:512..4096x2,softmax:1k..16kx2@a100,h100";

/// Prints the per-key table of one fleet run.
fn print_report(report: &FleetReport) {
    println!(
        "{:<22} {:>6} {:>6} {:>10} {:>8}  source",
        "workload", "dev", "evals", "tuned (ms)", "speedup"
    );
    for key in &report.keys {
        let dev = key.request.device.tag;
        match &key.result {
            Ok(t) => println!(
                "{:<22} {:>6} {:>6} {:>10.4} {:>7.2}x  {}",
                key.request.kind.name(),
                dev,
                t.evaluated,
                t.tuned.time_s * 1e3,
                t.speedup(),
                if t.from_cache { "cache" } else { "search" }
            ),
            Err(e) => println!("{:<22} {:>6} FAILED: {e}", key.request.kind.name(), dev),
        }
    }
    let c = report.counters();
    println!(
        "{} keys in {:.2}s ({:.2} keys/s) — {} hits, {} searched, \
         {} evals total, {} errors",
        report.keys.len(),
        report.elapsed_s,
        report.keys_per_s(),
        c.cache_hits,
        c.searched,
        c.evals_total,
        c.errors,
    );
}

fn main() {
    reject_unknown_flags(&FLAGS);
    let spec_text = flag_value("--grid").unwrap_or_else(|| DEFAULT_GRID.to_string());
    let spec = FleetSpec::parse(&spec_text).unwrap_or_else(|e| {
        eprintln!("bad --grid: {e}");
        exit(2);
    });
    let knobs = knobs_from_args(Knobs {
        strategy: Strategy::Anneal,
        budget: Budget(160),
        ..Knobs::new(gpu_sim::a100())
    });
    let cache = flag_value("--cache").map(PathBuf::from);
    let sidecar = flag_value("--sidecar").map(PathBuf::from);

    let grid: Vec<TuneRequest> = spec.requests(&knobs);
    println!(
        "-- lego-fleet: {} keys ({spec}), {} @ {} evals --",
        grid.len(),
        knobs.strategy,
        knobs.budget.max_evals()
    );

    let service = TuneService::new(knobs.device.clone(), cache, sidecar);
    service.warm_worker(0);
    let report = service.fleet(&grid);
    service.harvest_worker();
    print_report(&report);
    let flushed = service.flush();
    let mut rows: Vec<Json> = report.keys.iter().map(|k| k.to_json()).collect();
    if let Json::Obj(mut summary) = report.summary_json() {
        summary.insert(0, ("phase".to_string(), Json::Str("summary".to_string())));
        rows.push(Json::Obj(summary));
    }
    emit::announce(emit::write_bench_json("fleet", rows));
    if let Err(e) = flushed {
        eprintln!("lego-fleet: cache or sidecar write failed: {e}");
        exit(1);
    }
    if report.counters().errors > 0 {
        exit(1);
    }
}
