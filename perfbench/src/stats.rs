//! Order statistics: latency percentiles that refuse to report a tail
//! they have too few samples for, plus medians and quartiles.

use std::collections::BTreeMap;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// An exact latency multiset: nanoseconds → occurrences. Its size
/// grows with the number of *distinct* latencies, not with the request
/// count, so a fast run does not pay for its own bookkeeping in memory.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    len: u64,
}

impl Histogram {
    /// Records one sample of `ns` nanoseconds.
    pub fn add(&mut self, ns: u64) {
        *self.counts.entry(ns).or_default() += 1;
        self.len += 1;
    }

    /// Folds `other` in.
    pub fn merge(&mut self, other: &Histogram) {
        for (&ns, &c) in &other.counts {
            *self.counts.entry(ns).or_default() += c;
        }
        self.len += other.len;
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// The nearest-rank `q` percentile of the recorded samples, in
    /// milliseconds: the smallest sample with at least `q·n` samples at
    /// or below it. `None` when fewer than [`MIN_BEYOND`] samples would
    /// lie beyond it.
    pub fn percentile_ms(&self, q: f64) -> Option<f64> {
        let n = self.len;
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        if n - rank < MIN_BEYOND as u64 {
            return None;
        }
        let mut seen = 0;
        for (&ns, &c) in &self.counts {
            seen += c;
            if seen >= rank {
                return Some(ns as f64 / 1e6);
            }
        }
        None
    }
}

/// Sorts a copy of `v` ascending.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The median (mean of the middle pair for even counts); `None` when
/// empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the same rule as
/// Python's `statistics.quantiles(v, n=4)` (the "exclusive" method).
/// Needs at least two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let m = ((n + 1) * i) as i64;
        let j = (m / 4).clamp(1, n as i64 - 1);
        let delta = (m - 4 * j) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Geometric mean of positive values; `None` when empty.
pub fn geomean(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    Some((v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    /// A histogram of 1..=n milliseconds.
    fn ramp_ms(n: u64) -> Histogram {
        let mut h = Histogram::default();
        for i in (1..=n).rev() {
            h.add(i * 1_000_000);
        }
        h
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples: rank 90, ten beyond.
        assert_eq!(ramp_ms(100).percentile_ms(0.90), Some(90.0));
        // p90 of 99: rank 90, nine beyond — omitted.
        assert_eq!(ramp_ms(99).percentile_ms(0.90), None);
        // p99 needs a thousand.
        assert_eq!(ramp_ms(1000).percentile_ms(0.99), Some(990.0));
        assert_eq!(ramp_ms(999).percentile_ms(0.99), None);
        assert_eq!(ramp_ms(20).percentile_ms(0.50), Some(10.0));
        assert_eq!(ramp_ms(19).percentile_ms(0.50), None);
        assert_eq!(Histogram::default().percentile_ms(0.5), None);
    }

    #[test]
    fn histogram_counts_repeated_values_and_merges() {
        let mut h = Histogram::default();
        // 30 samples of 1 ms and 10 of 2 ms: p75 (rank 30) has ten
        // samples beyond it, p76 (rank 31) only nine.
        for _ in 0..30 {
            h.add(1_000_000);
        }
        for _ in 0..10 {
            h.add(2_000_000);
        }
        assert_eq!(h.percentile_ms(0.5), Some(1.0));
        assert_eq!(h.percentile_ms(0.75), Some(1.0));
        assert_eq!(h.percentile_ms(0.76), None);
        let mut merged = Histogram::default();
        merged.merge(&h);
        merged.merge(&h);
        assert_eq!(merged.len(), 80);
        assert_eq!(merged.percentile_ms(0.76), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&ramp(4)), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), Some((0.0, 3.0, 6.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
    }
}
