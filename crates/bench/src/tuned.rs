//! The `--tuned` mode of the bench binaries: run the `lego-tune` search
//! for the binary's workloads and report naive-vs-tuned estimates,
//! backed by the persistent `TUNE_CACHE.json`.
//!
//! The search is steered from the command line:
//!
//! * `--device a100|h100|mi300` — which hardware model to simulate and
//!   tune against (default `a100`); non-default devices suffix the
//!   `BENCH_*.json` artifacts, so per-device results sit side by side;
//! * `--strategy exhaustive|anneal|genetic` — how to explore the space
//!   (default `exhaustive`, the v2 behavior);
//! * `--budget N` — evaluation cap for the metaheuristics (default
//!   2000);
//! * `--space legacy|enlarged` — pin the space scale (by default
//!   exhaustive enumerates the legacy space and the metaheuristics
//!   search the enlarged free-integer one).

use gpu_sim::GpuConfig;
use lego_tune::{Budget, Json, SpaceScale, Strategy, Tuner, WorkloadKind};

use crate::emit;

/// Whether `--tuned` was passed on the command line.
pub fn tuned_requested() -> bool {
    std::env::args().any(|a| a == "--tuned")
}

/// The command-line flags that take a value — skipped (with their
/// values) by [`positional_args`].
const VALUE_FLAGS: [&str; 5] = ["--device", "--strategy", "--budget", "--space", "--sidecar"];

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

/// The device model selected by `--device` (default A100). Unknown
/// tags abort with a usage message rather than silently falling back.
pub fn device_from_args() -> GpuConfig {
    match flag_value("--device") {
        None => gpu_sim::a100(),
        Some(v) => gpu_sim::by_name(&v).unwrap_or_else(|| {
            eprintln!(
                "unknown --device {v:?} (use {})",
                gpu_sim::DEVICE_TAGS.join("|")
            );
            std::process::exit(2);
        }),
    }
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

/// The value following `flag` on the command line. `None` when the
/// flag is absent; a flag given without a value (end of line, or
/// followed by another `--flag`) aborts with a usage message instead of
/// silently falling back to the default.
fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return match args.next() {
                Some(v) if !v.starts_with("--") => Some(v),
                _ => {
                    eprintln!("{flag} requires a value");
                    std::process::exit(2);
                }
            };
        }
    }
    None
}

/// The search strategy selected by `--strategy` (default exhaustive).
/// Unknown names abort with a usage message rather than silently
/// falling back.
pub fn strategy_from_args() -> Strategy {
    match flag_value("--strategy") {
        None => Strategy::Exhaustive,
        Some(v) => Strategy::parse(&v).unwrap_or_else(|| {
            eprintln!("unknown --strategy {v:?} (use exhaustive|anneal|genetic)");
            std::process::exit(2);
        }),
    }
}

/// The evaluation budget selected by `--budget` (default 2000).
pub fn budget_from_args() -> Budget {
    match flag_value("--budget") {
        None => Budget::default(),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Budget(n),
            _ => {
                eprintln!("--budget requires a positive integer, got {v:?}");
                std::process::exit(2);
            }
        },
    }
}

/// The space-scale pin selected by `--space`, if any.
pub fn space_from_args() -> Option<SpaceScale> {
    flag_value("--space").map(|v| {
        SpaceScale::parse(&v).unwrap_or_else(|| {
            eprintln!("unknown --space {v:?} (use legacy|enlarged)");
            std::process::exit(2);
        })
    })
}

/// The persistent memo-sidecar path selected by `--sidecar`, if any
/// (`none` disables, mirroring `lego-served`).
pub fn sidecar_from_args() -> Option<std::path::PathBuf> {
    flag_value("--sidecar")
        .filter(|v| v != "none")
        .map(std::path::PathBuf::from)
}

/// Warm-start this thread from the `--sidecar` file, if one was given:
/// installs the persisted candidate annotations and traffic geometries
/// and prints what got re-warmed. Returns the path for
/// [`sidecar_teardown`].
pub fn sidecar_setup() -> Option<std::path::PathBuf> {
    let path = sidecar_from_args()?;
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
    let device = device_from_args();
    let strategy = strategy_from_args();
    let budget = budget_from_args();
    let mut tuner = Tuner::new(device.clone())
        .with_cache("TUNE_CACHE.json")
        .with_strategy(strategy)
        .with_budget(budget);
    if let Some(space) = space_from_args() {
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
