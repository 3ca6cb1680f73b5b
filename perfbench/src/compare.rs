//! `--compare`: two sets of recorded results (parent and change), one
//! row per workload × end-to-end metric, judged against the bounds in
//! `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;

use lego_tune::Json;

use crate::metrics::DETERMINISTIC;
use crate::stats::quartiles;

/// One end-to-end metric's definition from `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// workload → metric → values, in file order.
type Results = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_results(path: &Path) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Results::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), i + 1))?;
        let Some(metrics) = rec
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
        else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// The verdict on one metric: `parent` and `change` values, the share
/// the metric may worsen by, and its direction.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    bound: f64,
    lower_is_better: bool,
    exact: bool,
) -> &'static str {
    let (Some((p1, pm, p3)), Some((_, cm, _))) = (quartiles(parent), quartiles(change)) else {
        return "unresolved";
    };
    // Positive = the change is worse.
    let worse = |a: f64, b: f64| if lower_is_better { b - a } else { a - b };
    if exact {
        return match worse(pm, cm) {
            d if d > 0.0 => "worse",
            d if d < 0.0 => "better",
            _ => "unchanged",
        };
    }
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| worse(p, c) < 0.0));
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| worse(p, c) < 0.0)
        .count();
    let spread = (p3 - p1).abs();
    if all_better || (wins * 10 >= pairs * 9 && -worse(pm, cm) > spread) {
        "better"
    } else if worse(pm, cm) > bound * pm.abs() {
        "worse"
    } else if spread > bound * pm.abs() {
        "unresolved"
    } else {
        "unchanged"
    }
}

/// Prints the compare report; returns the exit status (1 when any
/// metric is worse).
pub fn run(parent: &Path, change: &Path) -> i32 {
    let loaded = load_bounds(Path::new("BENCHMARK.json"))
        .and_then(|b| Ok((b, load_results(parent)?, load_results(change)?)));
    let (bounds, parent, change) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench --compare: {e}");
            return 2;
        }
    };
    let mut any_worse = false;
    println!(
        "{:<12} {:<24} {:>36} {:>36}  verdict",
        "workload", "metric", "parent q1 / median / q3", "change q1 / median / q3"
    );
    let fmt = |v: &[f64]| match quartiles(v) {
        Some((a, b, c)) => format!("{a:.4} / {b:.4} / {c:.4} (n={})", v.len()),
        None => format!("too few runs (n={})", v.len()),
    };
    for (workload, pm) in &parent {
        let Some(cm) = change.get(workload) else {
            println!("{workload:<12} (no change runs)");
            continue;
        };
        for b in &bounds {
            let (Some(p), Some(c)) = (pm.get(&b.name), cm.get(&b.name)) else {
                continue;
            };
            let exact = DETERMINISTIC.contains(&b.name.as_str());
            let v = verdict(p, c, b.bound, b.lower_is_better, exact);
            any_worse |= v == "worse";
            println!(
                "{workload:<12} {:<24} {:>36} {:>36}  {v}",
                b.name,
                fmt(p),
                fmt(c)
            );
        }
    }
    i32::from(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0];
        // Clearly faster on every run.
        assert_eq!(
            verdict(&parent, &[8.0, 8.1, 7.9, 8.0, 8.2], 0.1, true, false),
            "better"
        );
        // Slower by 20% with a 10% bound.
        assert_eq!(
            verdict(&parent, &[12.0, 12.1, 11.9, 12.0, 12.2], 0.1, true, false),
            "worse"
        );
        // Within the bound.
        assert_eq!(
            verdict(&parent, &[10.1, 10.0, 10.2, 9.9, 10.0], 0.1, true, false),
            "unchanged"
        );
        // Higher is better flips the direction.
        assert_eq!(
            verdict(&parent, &[8.0, 8.1, 7.9, 8.0, 8.2], 0.1, false, false),
            "worse"
        );
        // A parent spread wider than the bound cannot resolve a small move.
        let noisy = [5.0, 15.0, 10.0, 6.0, 14.0];
        assert_eq!(
            verdict(&noisy, &[10.5, 10.6, 10.4, 10.5, 10.7], 0.1, true, false),
            "unresolved"
        );
        // Deterministic metrics compare exactly.
        assert_eq!(
            verdict(&[3.0, 3.0], &[3.0, 3.0], 0.1, true, true),
            "unchanged"
        );
        assert_eq!(
            verdict(&[3.0, 3.0], &[3.0001, 3.0001], 0.1, true, true),
            "worse"
        );
    }
}
