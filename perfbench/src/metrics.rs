//! Turning a run's samples and spans into named metrics, and printing
//! them.

use std::fmt::Write as _;

use lego_tune::Json;

use crate::stats::{geomean, median, MIN_BEYOND};
use crate::timed::TimedRun;
use crate::trace::Trace;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Stable metric name.
    pub name: String,
    /// Its value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// A note for the printed report (sample counts, calls).
    pub note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: note.into(),
    }
}

/// The deterministic end-to-end metrics: they repeat exactly for one
/// program, so comparisons are exact rather than bounded.
pub const DETERMINISTIC: [&str; 2] = ["winner_time_geomean_us", "index_ops_total"];

/// Per-answer facts the deterministic metrics are built from.
pub struct Winners {
    /// Modeled run time of each distinct key's winner, in seconds.
    pub tuned_s: Vec<f64>,
    /// Index-op count of each distinct key's winner (0 when the
    /// layout has no symbolic form).
    pub index_ops: Vec<usize>,
}

/// Peak resident set (`VmHWM`) of this process in MB, if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics of a timed run. Latency percentiles with
/// fewer than ten samples beyond them are left out.
pub fn end_to_end(run: &TimedRun, winners: &Winners, failed: usize) -> Vec<Metric> {
    let mut out = Vec::new();
    let n = run.attempted();
    if let Some(s) = median(&run.setup_s) {
        out.push(metric(
            "setup_s",
            s,
            "s",
            format!("median of {} daemon starts", run.setup_s.len()),
        ));
    }
    // Every pass sends the same number of tunes, so the median pass
    // rate is the run's rate with stalled passes discounted.
    if let Some(rps) = median(&run.pass_rps) {
        out.push(metric(
            "throughput_rps",
            rps,
            "req/s",
            format!(
                "median of {} passes; {n} tunes in {:.3} s overall",
                run.passes(),
                run.wall_s
            ),
        ));
    }
    for (name, q) in [
        ("latency_p50_ms", 0.50),
        ("latency_p90_ms", 0.90),
        ("latency_p99_ms", 0.99),
    ] {
        if let Some(v) = run.latency.percentile_ms(q) {
            out.push(metric(name, v, "ms", format!("n={n}")));
        }
    }
    out.push(metric(
        "error_rate",
        failed as f64 / n.max(1) as f64,
        "ratio",
        format!("{failed} failed of {n}"),
    ));
    if let Some(rss) = peak_rss_mb() {
        out.push(metric(
            "peak_rss_mb",
            rss,
            "MB",
            "VmHWM at the end of the run",
        ));
    }
    if let Some(g) = geomean(&winners.tuned_s) {
        out.push(metric(
            "winner_time_geomean_us",
            g * 1e6,
            "model-us",
            format!("{} distinct winners", winners.tuned_s.len()),
        ));
    }
    out.push(metric(
        "index_ops_total",
        winners.index_ops.iter().sum::<usize>() as f64,
        "ops",
        format!("{} distinct winners", winners.index_ops.len()),
    ));
    out
}

/// The per-layer metrics of a traced run. A metric whose layer did no
/// work on this workload is left out.
pub fn per_layer(trace: &Trace, run: &TimedRun, keys: usize) -> Vec<Metric> {
    let mut out = Vec::new();
    let per_call = |out: &mut Vec<Metric>, name: &str, span: &str, scale: f64, unit| {
        let s = trace.spans(span);
        if let Some(m) = median(s) {
            let calls = s.len();
            out.push(metric(
                name,
                m * scale,
                unit,
                format!(
                    "median of {calls} calls, {:.2} per key",
                    calls as f64 / keys.max(1) as f64
                ),
            ));
        }
    };
    let ratio = |out: &mut Vec<Metric>, name: &str, hits: &str, misses: &str| {
        let (h, m) = (trace.counted(hits), trace.counted(misses));
        if h + m > 0.0 {
            out.push(metric(
                name,
                h / (h + m),
                "ratio",
                format!("{h} of {}", h + m),
            ));
        }
    };

    per_call(&mut out, "served.parse_us", "served.parse", 1e6, "us");
    per_call(
        &mut out,
        "served.resolve_memory_us",
        "served.resolve_memory",
        1e6,
        "us",
    );
    // Searched resolves come from the stream replay; a workload whose
    // stream searches nothing (warm-hits) reports the fixture build's.
    let search = if trace.spans("served.resolve_search").is_empty() {
        "prep.resolve_search"
    } else {
        "served.resolve_search"
    };
    per_call(&mut out, "served.resolve_search_ms", search, 1e3, "ms");
    per_call(&mut out, "served.render_us", "served.render", 1e6, "us");
    per_call(&mut out, "served.metrics_us", "served.metrics", 1e6, "us");
    let hits = (
        run.hit_latency.percentile_ms(0.5),
        median(trace.spans("served.inproc_memory")),
    );
    if let (Some(wire), Some(inproc)) = hits {
        out.push(metric(
            "served.wire_us",
            wire * 1e3 - inproc * 1e6,
            "us",
            "untraced memory-hit p50 minus in-process parse+resolve+render p50",
        ));
    }
    for (i, tier) in [(0, "memory"), (2, "coalesced"), (3, "searched")] {
        out.push(metric(
            &format!("served.tier_{tier}"),
            run.tiers[i] as f64,
            "count",
            "timed run, read through the metrics verb",
        ));
    }

    per_call(&mut out, "tune.search_ms", "tune.search", 1e3, "ms");
    let searches = trace.counted("tune.searches");
    if searches > 0.0 {
        let evaluated = trace.counted("tune.evaluated");
        out.push(metric(
            "tune.evaluated",
            evaluated / searches,
            "count",
            format!("per search, {searches} searches"),
        ));
        out.push(metric(
            "tune.pruned_ratio",
            trace.counted("tune.pruned") / evaluated.max(1.0),
            "ratio",
            "bound-pruned over evaluated",
        ));
    }
    per_call(&mut out, "tune.enumerate_us", "tune.enumerate", 1e6, "us");
    per_call(
        &mut out,
        "tune.build_workload_us",
        "tune.build_workload",
        1e6,
        "us",
    );
    per_call(
        &mut out,
        "tune.cache_store_ms",
        "tune.cache_store",
        1e3,
        "ms",
    );
    if trace.counted("tune.cache_entries") > 0.0 {
        out.push(metric(
            "tune.cache_entries",
            trace.counted("tune.cache_entries"),
            "count",
            "entries in the file store_many rewrites",
        ));
    }
    per_call(
        &mut out,
        "tune.cache_preload_ms",
        "tune.cache_preload",
        1e3,
        "ms",
    );
    per_call(
        &mut out,
        "tune.sidecar_install_ms",
        "tune.sidecar_install",
        1e3,
        "ms",
    );
    if !trace.spans("tune.sidecar_install").is_empty() {
        out.push(metric(
            "expr.sidecar_hits",
            trace.counted("expr.sidecar_hits"),
            "count",
            "arena + annotation hits served from the sidecar",
        ));
    }

    per_call(&mut out, "expr.annotate_us", "expr.annotate", 1e6, "us");
    ratio(
        &mut out,
        "expr.memo_hit_rate",
        "expr.memo_hits",
        "expr.memo_misses",
    );
    per_call(
        &mut out,
        "core.build_layout_us",
        "core.build_layout",
        1e6,
        "us",
    );
    per_call(&mut out, "gpusim.bound_us", "gpusim.bound", 1e6, "us");
    per_call(&mut out, "gpusim.trace_ms", "gpusim.trace", 1e3, "ms");
    for fam in crate::FAMILIES {
        per_call(
            &mut out,
            &format!("gpusim.trace_ms.{fam}"),
            &format!("gpusim.trace.{fam}"),
            1e3,
            "ms",
        );
    }
    per_call(
        &mut out,
        "gpusim.traffic_hit_us",
        "gpusim.traffic_hit",
        1e6,
        "us",
    );
    per_call(&mut out, "gpusim.assemble_us", "gpusim.assemble", 1e6, "us");
    let probes = trace.counted("gpusim.traffic_hits") + trace.counted("gpusim.traffic_misses");
    let memo = if probes > 0.0 { "gpusim" } else { "prep" };
    ratio(
        &mut out,
        "gpusim.traffic_hit_rate",
        &format!("{memo}.traffic_hits"),
        &format!("{memo}.traffic_misses"),
    );

    per_call(&mut out, "codegen.emit_us", "codegen.emit", 1e6, "us");
    let kernels = trace.counted("codegen.kernels");
    if kernels > 0.0 {
        out.push(metric(
            "codegen.index_ops",
            trace.counted("codegen.index_ops") / kernels,
            "ops",
            "arithmetic operators per emitted kernel source",
        ));
    }
    out
}

/// Prints a metric table under a heading.
pub fn print_table(heading: &str, metrics: &[Metric]) {
    println!("{heading}");
    for m in metrics {
        println!(
            "  {:<28} {:>16.6} {:<9} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// Explains, for the printed report, any latency percentile left out.
pub fn omitted_percentiles(metrics: &[Metric], samples: usize) -> String {
    let mut s = String::new();
    for name in ["latency_p50_ms", "latency_p90_ms", "latency_p99_ms"] {
        if !metrics.iter().any(|m| m.name == name) {
            let _ = writeln!(
                s,
                "  {name} omitted: {samples} samples leave fewer than {MIN_BEYOND} beyond it"
            );
        }
    }
    s
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`
/// holding `metrics` whose names are in `keep`.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
    keep: &[&str],
) -> Json {
    let chosen: Vec<(String, Json)> = metrics
        .iter()
        .filter(|m| keep.contains(&m.name.as_str()))
        .map(|m| {
            (
                m.name.clone(),
                Json::obj([
                    ("value", Json::num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Int(attempted as i64)),
        ("failed".to_string(), Json::Int(failed as i64)),
        ("metrics".to_string(), Json::Obj(chosen)),
    ])
}
