//! The `--tuned` mode of the bench binaries: run the `lego-tune` search
//! for the binary's workloads and report naive-vs-tuned estimates,
//! backed by the persistent `TUNE_CACHE.json`.
//!
//! The search is steered from the command line:
//!
//! * `--device TAG` — which hardware model to simulate and tune
//!   against (default `a100`): a tag or full device name, in any case,
//!   as the daemon's wire protocol accepts; non-default devices suffix
//!   the `BENCH_*.json` artifacts, so per-device results sit side by
//!   side;
//! * `--strategy exhaustive|anneal|genetic` — how to explore the space
//!   (default `exhaustive`, the v2 behavior);
//! * `--budget N` — evaluation cap for the metaheuristics (default
//!   2000);
//! * `--space legacy|enlarged` — pin the space scale (by default
//!   exhaustive enumerates the legacy space and the metaheuristics
//!   search the enlarged free-integer one).
//!
//! The knobs are resolved by [`lego_tune::Knobs::resolve`], the one
//! resolver every front door shares; bad input exits with status 2.

use std::process::exit;
use std::str::FromStr;

use gpu_sim::GpuConfig;
use lego_tune::{Json, KnobText, Knobs, Tuner, WorkloadKind};

use crate::emit;

/// Whether `flag` was passed on the command line.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Whether `--tuned` was passed on the command line.
pub fn tuned_requested() -> bool {
    has_flag("--tuned")
}

/// Every flag a paper-table binary knows: `--tuned`, then the
/// value-taking knobs of [`maybe_report`].
pub const BENCH_FLAGS: [&str; 6] = [
    "--tuned",
    "--device",
    "--strategy",
    "--budget",
    "--space",
    "--sidecar",
];

/// The command-line flags that take a value — skipped (with their
/// values) by [`positional_args`].
const VALUE_FLAGS: &[&str] = BENCH_FLAGS.split_at(1).1;

/// Aborts with status 2, before any work, when the command line holds
/// a `--flag` outside `known`, so a misspelled or retired flag cannot
/// run something else without a word.
pub fn reject_unknown_flags(known: &[&str]) {
    let unknown = std::env::args()
        .skip(1)
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()));
    if let Some(flag) = unknown {
        eprintln!("unknown flag {flag} (known: {})", known.join(" "));
        exit(2);
    }
}

/// The positional (non-flag) arguments: everything after the binary
/// name minus `--tuned` and the value-taking flags with their values.
pub fn positional_args() -> Vec<String> {
    let mut out = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            let _ = args.next();
        } else if !a.starts_with("--") {
            out.push(a);
        }
    }
    out
}

/// The value following `flag` on the command line. `None` when the
/// flag is absent; a flag given without a value (end of line, or
/// followed by another `--flag`) aborts with a usage message instead of
/// silently falling back to the default.
pub fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return match args.next() {
                Some(v) if !v.starts_with("--") => Some(v),
                _ => {
                    eprintln!("{flag} requires a value");
                    exit(2);
                }
            };
        }
    }
    None
}

/// The value following `flag`, parsed; a value that does not parse
/// aborts with a usage message.
fn parsed_flag<T: FromStr>(flag: &str) -> Option<T> {
    flag_value(flag).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("bad value {v:?} for {flag}");
            exit(2);
        })
    })
}

/// The search knobs on the command line (`--device`, `--strategy`,
/// `--budget`, `--space`) resolved against `defaults`. Bad input aborts
/// with the resolver's message.
pub fn knobs_from_args(defaults: Knobs) -> Knobs {
    let device = flag_value("--device");
    let strategy = flag_value("--strategy");
    let space = flag_value("--space");
    let text = KnobText {
        device: device.as_deref(),
        strategy: strategy.as_deref(),
        space: space.as_deref(),
        budget: parsed_flag("--budget"),
    };
    defaults.resolve(text).unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2);
    })
}

/// The bench binaries' knobs: the A100, exhaustive, budget 2000 unless
/// the command line says otherwise.
pub fn bench_knobs() -> Knobs {
    knobs_from_args(Knobs::new(gpu_sim::a100()))
}

/// The device model selected by `--device` (default A100).
pub fn device_from_args() -> GpuConfig {
    bench_knobs().device
}

/// The `BENCH_*.json` name for `base` on device `cfg`: the default
/// A100 keeps the historical name, other devices are suffixed
/// (`fig12_mi300`), so per-device artifacts coexist.
pub fn bench_name(base: &str, cfg: &GpuConfig) -> String {
    if cfg.tag == "a100" {
        base.to_string()
    } else {
        format!("{base}_{}", cfg.tag)
    }
}

/// Warm-start this thread from the `--sidecar` file, if one was given
/// (`none` disables, mirroring `lego-served`): installs the persisted
/// candidate annotations and traffic geometries and prints what got
/// re-warmed. Returns the path for [`sidecar_teardown`].
pub fn sidecar_setup() -> Option<std::path::PathBuf> {
    let path = std::path::PathBuf::from(flag_value("--sidecar").filter(|v| v != "none")?);
    let warm = lego_tune::sidecar::load_and_install(&path);
    println!(
        "-- sidecar {}: installed {} annotations + {} traffic geometries --",
        path.display(),
        warm.annotations,
        warm.traffics
    );
    Some(path)
}

/// Merges this thread's derived results back into the `--sidecar` file
/// (no-op when [`sidecar_setup`] returned `None`). Persistence is
/// best-effort: failures are reported, never fatal to a completed
/// bench run.
pub fn sidecar_teardown(path: &Option<std::path::PathBuf>) {
    let Some(path) = path else { return };
    if let Err(e) = lego_tune::sidecar::collect_and_save(path) {
        eprintln!("sidecar write failed for {}: {e}", path.display());
    }
}

/// If `--tuned` was requested, tunes `kinds` on the `--device` model
/// with the strategy/budget from the command line, prints a
/// naive-vs-tuned table, and emits `BENCH_<name>[_<device>]_tuned.json`.
/// Returns whether the report ran.
pub fn maybe_report(name: &str, kinds: &[WorkloadKind]) -> bool {
    if !tuned_requested() {
        return false;
    }
    let sidecar = sidecar_setup();
    let Knobs {
        device,
        strategy,
        budget,
        space,
    } = bench_knobs();
    let mut tuner = Tuner::new(device.clone())
        .with_cache("TUNE_CACHE.json")
        .with_strategy(strategy)
        .with_budget(budget);
    if let Some(space) = space {
        tuner = tuner.with_space(space);
    }
    println!(
        "\n-- lego-tune: naive vs tuned ({} estimates; strategy={}, space={}) --",
        device.name,
        strategy,
        tuner.effective_space().name()
    );
    println!(
        "{:<26} {:>12} {:>12} {:>8}  {:<34} source",
        "workload", "naive (ms)", "tuned (ms)", "speedup", "winner"
    );
    let mut rows = Vec::new();
    for kind in kinds {
        match tuner.tune(kind) {
            Ok(r) => {
                println!(
                    "{:<26} {:>12.4} {:>12.4} {:>7.2}x  {:<34} {}",
                    r.workload,
                    r.naive.time_s * 1e3,
                    r.tuned.time_s * 1e3,
                    r.speedup(),
                    r.config.to_string(),
                    if r.from_cache {
                        "cache".to_string()
                    } else {
                        format!("searched {}", r.evaluated)
                    }
                );
                rows.push(Json::obj([
                    ("workload", Json::Str(r.workload.clone())),
                    ("naive_s", Json::num(r.naive.time_s)),
                    ("tuned_s", Json::num(r.tuned.time_s)),
                    ("speedup", Json::num(r.speedup())),
                    ("winner", Json::Str(r.config.to_string())),
                    ("from_cache", Json::Bool(r.from_cache)),
                    ("evaluated", Json::Int(r.evaluated as i64)),
                    ("strategy", Json::Str(strategy.name().to_string())),
                    ("device", Json::Str(device.tag.to_string())),
                ]));
            }
            Err(e) => eprintln!("{}: tuning failed: {e}", kind.name()),
        }
    }
    emit::announce(emit::write_bench_json(
        &format!("{}_tuned", bench_name(name, &device)),
        rows,
    ));
    sidecar_teardown(&sidecar);
    true
}
