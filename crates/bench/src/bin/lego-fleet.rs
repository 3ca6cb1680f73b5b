//! `lego-fleet`: fleet-scale parallel tuning from the command line.
//!
//! Expands a [`FleetSpec`] grid (`family:lo..hixSTEP[,...][@devices]`)
//! into tuning requests and runs them through the [`FleetDriver`] —
//! one FIFO of runnable keys, warm per-worker expression arenas,
//! frontier transfer between neighboring keys, one merged cache write. Two
//! modes:
//!
//! * **run** (default) — tune the grid once (transfer on unless
//!   `--no-transfer`, persistent `--cache` and memo `--sidecar`
//!   optional), print a per-key table, and emit `BENCH_fleet.json`.
//! * **`--compare`** — the CI smoke: tune the same grid twice without
//!   a cache, first cold (transfer off, every key at full budget) and
//!   then with transfer, and assert the transferred run is at least
//!   `--min-speedup` (default 1.5) times faster in keys/second while
//!   every winner stays within `--tol` (default 0.05) of the cold
//!   winner. Exit status 1 when either gate fails, so CI can hang an
//!   acceptance check directly on this binary.
//!
//! Flags: `--grid SPEC`, `--threads N`, `--strategy anneal|genetic`,
//! `--budget N`, `--space legacy|enlarged`, `--device TAG` (default
//! device for specs without `@`; a tag or full name, in any case),
//! `--cache PATH`, `--sidecar PATH` (warm every worker from the
//! persisted memo sidecar and merge the derived results back on
//! completion), `--no-transfer`, `--compare`, `--min-speedup X`,
//! `--tol X`. The search knobs go through the resolver every front
//! door shares ([`lego_tune::Knobs::resolve`]); bad input, or a flag
//! given where a value belongs, exits with status 2.

use std::collections::HashMap;
use std::process::exit;

use lego_bench::emit;
use lego_bench::tuned::{flag_value, has_flag, knobs_from_args, parsed_flag};
use lego_tune::fleet::FleetReport;
use lego_tune::{Budget, FleetDriver, FleetSpec, Json, Knobs, Strategy, TuneRequest};

/// The default smoke grid: three families × two devices, 26 keys.
const DEFAULT_GRID: &str = "matmul:256..2048x2,nw:512..4096x2,softmax:1k..16kx2@a100,h100";

/// Prints the per-key table of one fleet run.
fn print_report(report: &FleetReport) {
    println!(
        "{:<22} {:>6} {:<8} {:>6} {:>6} {:>10} {:>8}  source",
        "workload", "dev", "", "evals", "saved", "tuned (ms)", "speedup"
    );
    for key in &report.keys {
        let dev = key.request.device.tag;
        match &key.result {
            Ok(t) => println!(
                "{:<22} {:>6} {:<8} {:>6} {:>6} {:>10.4} {:>7.2}x  {}",
                key.request.kind.name(),
                dev,
                "",
                t.evaluated,
                t.evals_saved,
                t.tuned.time_s * 1e3,
                t.naive.time_s / t.tuned.time_s,
                if t.from_cache {
                    "cache".to_string()
                } else {
                    match &key.transferred_from {
                        Some(src) => format!("transfer<{src}"),
                        None => "cold".to_string(),
                    }
                }
            ),
            Err(e) => println!(
                "{:<22} {:>6} {:<8} FAILED: {e}",
                key.request.kind.name(),
                dev,
                ""
            ),
        }
    }
    let c = report.counters();
    println!(
        "{} keys on {} threads in {:.2}s ({:.2} keys/s) — {} hits, {} searched \
         ({} transferred, {} evals saved, mean {:.1} evals to winner)",
        report.keys.len(),
        report.threads,
        report.elapsed_s,
        report.keys_per_s(),
        c.cache_hits,
        c.searched,
        c.transfers,
        c.evals_saved,
        c.mean_evals_to_winner(),
    );
}

/// A key row tagged with the phase it ran in.
fn phase_row(key_json: Json, phase: &str) -> Json {
    match key_json {
        Json::Obj(mut pairs) => {
            pairs.insert(0, ("phase".to_string(), Json::Str(phase.to_string())));
            Json::Obj(pairs)
        }
        other => other,
    }
}

/// A summary row tagged with the phase it describes.
fn phase_summary(report: &FleetReport, phase: &str) -> Json {
    phase_row(report.summary_json(), phase)
}

fn main() {
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
    let threads = parsed_flag("--threads").unwrap_or(4);
    let min_speedup: f64 = parsed_flag("--min-speedup").unwrap_or(1.5);
    let tol: f64 = parsed_flag("--tol").unwrap_or(0.05);
    let cache = flag_value("--cache");
    let sidecar = flag_value("--sidecar");

    let grid: Vec<TuneRequest> =
        spec.requests(&knobs.device, knobs.strategy, knobs.budget, knobs.space);
    println!(
        "-- lego-fleet: {} keys ({spec}), {threads} threads, {} @ {} evals --",
        grid.len(),
        knobs.strategy,
        knobs.budget.max_evals()
    );

    if has_flag("--compare") {
        compare(&grid, threads, min_speedup, tol);
        return;
    }

    let mut driver = FleetDriver::new(threads).with_transfer(!has_flag("--no-transfer"));
    if let Some(path) = cache {
        driver = driver.with_cache(path);
    }
    if let Some(path) = sidecar {
        driver = driver.with_sidecar(path);
    }
    let report = driver.run(&grid);
    print_report(&report);
    let mut rows: Vec<Json> = report.keys.iter().map(|k| k.to_json()).collect();
    rows.push(phase_summary(&report, "summary"));
    emit::announce(emit::write_bench_json("fleet", rows));
    if report.counters().errors > 0 {
        exit(1);
    }
}

/// The `--compare` smoke: cold fleet, then transferred fleet, assert
/// the throughput and winner-quality gates, emit both phases into
/// `BENCH_fleet.json`.
fn compare(grid: &[TuneRequest], threads: usize, min_speedup: f64, tol: f64) {
    println!("\n== phase 1: cold (transfer off) ==");
    let cold = FleetDriver::new(threads).with_transfer(false).run(grid);
    print_report(&cold);

    println!("\n== phase 2: transferred ==");
    let warm = FleetDriver::new(threads).run(grid);
    print_report(&warm);

    // Gate 1: throughput. The transferred fleet runs most keys at a
    // quarter budget, so end-to-end keys/second must clear the bar.
    let speedup = warm.keys_per_s() / cold.keys_per_s().max(1e-12);

    // Gate 2: winner quality. Per key, the transferred winner must be
    // within `tol` of the cold winner (identical or better is the
    // common case; the tolerance absorbs budget-cut noise).
    let cold_by_key: HashMap<&str, f64> = cold
        .keys
        .iter()
        .filter_map(|k| {
            k.result
                .as_ref()
                .ok()
                .map(|t| (k.cache_key.as_str(), t.tuned.time_s))
        })
        .collect();
    let mut worst_ratio: f64 = 0.0;
    let mut violations = Vec::new();
    for key in &warm.keys {
        let (Ok(t), Some(cold_s)) = (&key.result, cold_by_key.get(key.cache_key.as_str())) else {
            violations.push(format!("{}: missing result", key.cache_key));
            continue;
        };
        let ratio = t.tuned.time_s / cold_s;
        worst_ratio = worst_ratio.max(ratio);
        if ratio > 1.0 + tol {
            violations.push(format!(
                "{}: transferred winner {:.3e}s vs cold {:.3e}s ({:.1}% worse)",
                key.cache_key,
                t.tuned.time_s,
                cold_s,
                (ratio - 1.0) * 100.0
            ));
        }
    }

    let errors = cold.counters().errors + warm.counters().errors;
    let pass = speedup >= min_speedup && violations.is_empty() && errors == 0;
    println!(
        "\ncompare: {:.2} keys/s cold, {:.2} keys/s transferred — {speedup:.2}x \
         (gate {min_speedup:.2}x); worst winner ratio {worst_ratio:.4} (gate {:.4}) — {}",
        cold.keys_per_s(),
        warm.keys_per_s(),
        1.0 + tol,
        if pass { "PASS" } else { "FAIL" }
    );
    for v in &violations {
        eprintln!("  winner violation: {v}");
    }

    let mut rows: Vec<Json> = Vec::new();
    rows.extend(cold.keys.iter().map(|k| phase_row(k.to_json(), "cold")));
    rows.extend(
        warm.keys
            .iter()
            .map(|k| phase_row(k.to_json(), "transferred")),
    );
    rows.push(phase_summary(&cold, "summary_cold"));
    rows.push(phase_summary(&warm, "summary_transferred"));
    rows.push(Json::obj([
        ("phase", Json::Str("comparison".to_string())),
        ("cold_keys_per_s", Json::num(cold.keys_per_s())),
        ("transferred_keys_per_s", Json::num(warm.keys_per_s())),
        ("speedup", Json::num(speedup)),
        ("min_speedup", Json::num(min_speedup)),
        ("worst_winner_ratio", Json::num(worst_ratio)),
        ("winner_tolerance", Json::num(tol)),
        ("transfer_hits", Json::Int(warm.counters().transfers as i64)),
        ("evals_saved", Json::Int(warm.counters().evals_saved as i64)),
        (
            "cold_mean_evals_to_winner",
            Json::num(cold.counters().mean_evals_to_winner()),
        ),
        (
            "transferred_mean_evals_to_winner",
            Json::num(warm.counters().mean_evals_to_winner()),
        ),
        ("pass", Json::Bool(pass)),
    ]));
    emit::announce(emit::write_bench_json("fleet", rows));
    if !pass {
        exit(1);
    }
}
