//! Spans and counts recorded from the benchmark's own code, around
//! calls into each layer's public functions. Nothing inside the crates
//! is instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

/// Durations (seconds) and counts, by metric name.
#[derive(Default, Debug)]
pub struct Trace {
    spans: BTreeMap<String, Vec<f64>>,
    counts: BTreeMap<String, f64>,
}

impl Trace {
    /// Records one span of `secs` under `name`.
    pub fn span(&mut self, name: &str, secs: f64) {
        self.spans.entry(name.to_string()).or_default().push(secs);
    }

    /// Runs `f`, recording its duration under `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.span(name, t.elapsed().as_secs_f64());
        out
    }

    /// Adds `v` to the count `name`.
    pub fn count(&mut self, name: &str, v: f64) {
        *self.counts.entry(name.to_string()).or_default() += v;
    }

    /// Every span recorded under `name` (empty if none).
    pub fn spans(&self, name: &str) -> &[f64] {
        self.spans.get(name).map_or(&[], Vec::as_slice)
    }

    /// The count `name` (0 if never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every span recorded under `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans(name).iter().sum()
    }

    /// Folds another trace (e.g. one recorded on a worker thread) in.
    pub fn merge(&mut self, other: Trace) {
        for (k, v) in other.spans {
            self.spans.entry(k).or_default().extend(v);
        }
        for (k, v) in other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }
}
