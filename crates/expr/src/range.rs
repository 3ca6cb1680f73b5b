//! Range (interval) analysis for expressions.
//!
//! LEGO propagates index-range information through layouts (§IV-A of the
//! paper) so that the simplifier can discharge the side conditions of the
//! Table II rules. Ranges come in two flavours here:
//!
//! * a numeric interval [`NumRange`] computed by interval arithmetic, and
//! * *symbolic* per-symbol bounds recorded in a [`RangeEnv`]
//!   (e.g. `pid ∈ [0, nt_m*nt_n)` where the upper bound is itself an
//!   expression).
//!
//! The symbolic bounds power the structural prover in [`crate::prove`].

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::expr::{Expr, ExprKind};
use crate::intern;

/// A (possibly unbounded) inclusive numeric interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NumRange {
    /// Inclusive lower bound; `None` = −∞.
    pub lo: Option<i64>,
    /// Inclusive upper bound; `None` = +∞.
    pub hi: Option<i64>,
}

impl NumRange {
    /// The full interval (−∞, +∞).
    pub const TOP: NumRange = NumRange { lo: None, hi: None };

    /// A single point.
    pub fn point(v: i64) -> NumRange {
        NumRange {
            lo: Some(v),
            hi: Some(v),
        }
    }

    /// Inclusive `[lo, hi]`.
    pub fn closed(lo: i64, hi: i64) -> NumRange {
        NumRange {
            lo: Some(lo),
            hi: Some(hi),
        }
    }

    /// `[lo, +∞)`.
    pub fn at_least(lo: i64) -> NumRange {
        NumRange {
            lo: Some(lo),
            hi: None,
        }
    }

    /// `(-∞, hi]`.
    pub fn at_most(hi: i64) -> NumRange {
        NumRange {
            lo: None,
            hi: Some(hi),
        }
    }

    /// True if every value in the interval is `>= 0`.
    pub fn is_nonneg(&self) -> bool {
        matches!(self.lo, Some(l) if l >= 0)
    }

    /// True if every value in the interval is `> 0`.
    pub fn is_pos(&self) -> bool {
        matches!(self.lo, Some(l) if l > 0)
    }

    /// True if the interval excludes 0.
    pub fn is_nonzero(&self) -> bool {
        self.is_pos() || matches!(self.hi, Some(h) if h < 0)
    }

    fn add(self, o: NumRange) -> NumRange {
        NumRange {
            lo: opt2(self.lo, o.lo, |a, b| a.saturating_add(b)),
            hi: opt2(self.hi, o.hi, |a, b| a.saturating_add(b)),
        }
    }

    fn mul(self, o: NumRange) -> NumRange {
        // Interval multiplication needs all four corner products; any
        // missing (infinite) corner makes the result unbounded on that side
        // unless sign information saves us. We keep it simple and sound:
        // finite×finite uses corners, otherwise special-case non-negative
        // operands.
        match (self.lo, self.hi, o.lo, o.hi) {
            (Some(a), Some(b), Some(c), Some(d)) => {
                let ps = [
                    a.saturating_mul(c),
                    a.saturating_mul(d),
                    b.saturating_mul(c),
                    b.saturating_mul(d),
                ];
                NumRange {
                    lo: ps.iter().min().copied(),
                    hi: ps.iter().max().copied(),
                }
            }
            _ => {
                if self.is_nonneg() && o.is_nonneg() {
                    let lo = match (self.lo, o.lo) {
                        (Some(a), Some(c)) => Some(a.saturating_mul(c)),
                        _ => Some(0),
                    };
                    let hi = match (self.hi, o.hi) {
                        (Some(b), Some(d)) => Some(b.saturating_mul(d)),
                        _ => None,
                    };
                    NumRange { lo, hi }
                } else {
                    NumRange::TOP
                }
            }
        }
    }

    fn min(self, o: NumRange) -> NumRange {
        NumRange {
            lo: opt_min_lo(self.lo, o.lo),
            hi: match (self.hi, o.hi) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (Some(a), None) => Some(a),
                (None, Some(b)) => Some(b),
                (None, None) => None,
            },
        }
    }

    fn max(self, o: NumRange) -> NumRange {
        NumRange {
            lo: match (self.lo, o.lo) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (Some(a), None) => Some(a),
                (None, Some(b)) => Some(b),
                (None, None) => None,
            },
            hi: opt_max_hi(self.hi, o.hi),
        }
    }

    fn union(self, o: NumRange) -> NumRange {
        NumRange {
            lo: opt_min_lo(self.lo, o.lo),
            hi: opt_max_hi(self.hi, o.hi),
        }
    }
}

fn opt2(a: Option<i64>, b: Option<i64>, f: impl Fn(i64, i64) -> i64) -> Option<i64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(f(a, b)),
        _ => None,
    }
}

fn opt_min_lo(a: Option<i64>, b: Option<i64>) -> Option<i64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        _ => None,
    }
}

fn opt_max_hi(a: Option<i64>, b: Option<i64>) -> Option<i64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.max(b)),
        _ => None,
    }
}

/// Symbolic bounds for one symbol: `lo <= sym < hi` where either bound may
/// itself be an expression (or absent).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SymBounds {
    /// Inclusive lower bound.
    pub lo: Option<Expr>,
    /// *Exclusive* upper bound.
    pub hi: Option<Expr>,
}

/// The range environment: per-symbol bounds used by the prover and the
/// simplifier. This plays the role that index ranges + user constraints play
/// for the paper's Z3 queries.
///
/// # Examples
///
/// ```
/// use lego_expr::{Expr, RangeEnv};
/// let mut env = RangeEnv::new();
/// env.set_bounds("pid", Expr::val(0), Expr::sym("nt_m") * Expr::sym("nt_n"));
/// env.assume_pos("nt_m");
/// assert!(env.num_range(&Expr::sym("pid")).is_nonneg());
/// ```
#[derive(Clone, Debug, Default)]
pub struct RangeEnv {
    bounds: HashMap<String, SymBounds>,
    divs: Vec<(Expr, Expr)>,
    /// Lazily computed session identity (see [`RangeEnv::id`]); reset
    /// by every mutator.
    interned: OnceLock<u64>,
}

impl RangeEnv {
    /// An empty environment (every symbol unbounded).
    pub fn new() -> RangeEnv {
        RangeEnv::default()
    }

    /// The environment's session identity: environments with identical
    /// content (same bounds, same divisibility facts, by interned node
    /// identity) share one id, which keys the per-environment memo
    /// tables of [`crate::Engine::simplify`], [`RangeEnv::num_range`] and the
    /// prover. Computed once and cached; any mutation invalidates it.
    pub fn id(&self) -> u64 {
        *self.interned.get_or_init(|| {
            let mut bounds: Vec<(String, Option<u64>, Option<u64>)> = self
                .bounds
                .iter()
                .map(|(name, b)| {
                    (
                        name.clone(),
                        b.lo.as_ref().map(|e| e.id().get()),
                        b.hi.as_ref().map(|e| e.id().get()),
                    )
                })
                .collect();
            bounds.sort();
            let mut divs: Vec<(u64, u64)> = self
                .divs
                .iter()
                .map(|(d, x)| (d.id().get(), x.id().get()))
                .collect();
            divs.sort_unstable();
            intern::intern_env((bounds, divs))
        })
    }

    /// Drops the cached identity after a mutation.
    fn touch(&mut self) {
        self.interned = OnceLock::new();
    }

    /// Declares the user constraint `d | x` (`d` evenly divides `x`),
    /// e.g. "`BM` divides `M`" when the problem avoids partial tiles.
    /// The simplifier then rewrites `(x/d)*d → x` and treats `x/d` as an
    /// exact quotient.
    pub fn assume_divides(&mut self, d: impl Into<Expr>, x: impl Into<Expr>) -> &mut Self {
        let (d, x) = (d.into(), x.into());
        if !self.divides(&d, &x) {
            self.divs.push((d, x));
            self.touch();
        }
        self
    }

    /// True if `d | x` has been declared (syntactic match).
    pub fn divides(&self, d: &Expr, x: &Expr) -> bool {
        self.divs.iter().any(|(dd, xx)| dd == d && xx == x)
    }

    /// Declares `lo <= name < hi`.
    pub fn set_bounds(&mut self, name: &str, lo: Expr, hi: Expr) -> &mut Self {
        self.bounds.insert(
            name.to_string(),
            SymBounds {
                lo: Some(lo),
                hi: Some(hi),
            },
        );
        self.touch();
        self
    }

    /// Declares `name >= 1` (a size parameter such as `M` or `BM`).
    pub fn assume_pos(&mut self, name: &str) -> &mut Self {
        let e = self.bounds.entry(name.to_string()).or_default();
        e.lo = Some(Expr::one());
        self.touch();
        self
    }

    /// Declares `name >= 0`.
    pub fn assume_nonneg(&mut self, name: &str) -> &mut Self {
        let e = self.bounds.entry(name.to_string()).or_default();
        e.lo = Some(Expr::zero());
        self.touch();
        self
    }

    /// Looks up the declared bounds of a symbol.
    pub fn bounds(&self, name: &str) -> Option<&SymBounds> {
        self.bounds.get(name)
    }

    /// Iterates over all `(symbol, bounds)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &SymBounds)> {
        self.bounds.iter()
    }

    /// Computes a sound numeric interval for `e` by interval arithmetic,
    /// using whatever numeric information the per-symbol bounds carry.
    /// Results are memoized per `(environment, node)` for the session,
    /// so shared subtrees are analyzed once.
    pub fn num_range(&self, e: &Expr) -> NumRange {
        let key = (self.id(), e.id().get());
        if let Some(hit) = intern::range_get(key.0, key.1) {
            return hit;
        }
        let r = self.num_range_uncached(e);
        intern::range_insert(key.0, key.1, r);
        r
    }

    fn num_range_uncached(&self, e: &Expr) -> NumRange {
        match e.kind() {
            ExprKind::Const(v) => NumRange::point(*v),
            ExprKind::Sym(s) => {
                let Some(b) = self.bounds.get(&**s) else {
                    return NumRange::TOP;
                };
                let lo = b.lo.as_ref().and_then(|e| self.num_range(e).lo);
                // hi is exclusive: sym <= hi - 1, so we need a numeric lower
                // bound on nothing — we need an upper bound on `hi`.
                let hi =
                    b.hi.as_ref()
                        .and_then(|e| self.num_range(e).hi)
                        .map(|h| h - 1);
                NumRange { lo, hi }
            }
            ExprKind::Add(ts) => ts
                .iter()
                .map(|t| self.num_range(t))
                .fold(NumRange::point(0), NumRange::add),
            ExprKind::Mul(ts) => ts
                .iter()
                .map(|t| self.num_range(t))
                .fold(NumRange::point(1), NumRange::mul),
            ExprKind::FloorDiv(a, b) => {
                let (ra, rb) = (self.num_range(a), self.num_range(b));
                if ra.is_nonneg() && rb.is_pos() {
                    let lo = Some(0);
                    let hi = match (ra.hi, rb.lo) {
                        (Some(ah), Some(bl)) if bl > 0 => Some(ah.div_euclid(bl)),
                        _ => None,
                    };
                    NumRange { lo, hi }
                } else {
                    NumRange::TOP
                }
            }
            ExprKind::Mod(a, b) => {
                let (ra, rb) = (self.num_range(a), self.num_range(b));
                if rb.is_pos() {
                    // Floor modulo with positive divisor is in [0, b-1];
                    // additionally bounded by a's own range when a >= 0.
                    let mut hi = rb.hi.map(|h| h - 1);
                    if ra.is_nonneg() {
                        hi = match (hi, ra.hi) {
                            (Some(x), Some(y)) => Some(x.min(y)),
                            (Some(x), None) => Some(x),
                            (None, y) => y,
                        };
                    }
                    NumRange { lo: Some(0), hi }
                } else {
                    NumRange::TOP
                }
            }
            ExprKind::Min(a, b) => self.num_range(a).min(self.num_range(b)),
            ExprKind::Max(a, b) => self.num_range(a).max(self.num_range(b)),
            ExprKind::Xor(a, b) => {
                // For non-negative operands below 2^k, the XOR stays
                // below 2^k.
                let (ra, rb) = (self.num_range(a), self.num_range(b));
                if ra.is_nonneg() && rb.is_nonneg() {
                    let hi = match (ra.hi, rb.hi) {
                        (Some(x), Some(y)) => {
                            let m = x.max(y).max(0) as u64;
                            Some(((m + 1).next_power_of_two() - 1) as i64)
                        }
                        _ => None,
                    };
                    NumRange { lo: Some(0), hi }
                } else {
                    NumRange::TOP
                }
            }
            ExprKind::Select(_, t, f) => self.num_range(t).union(self.num_range(f)),
            ExprKind::ISqrt(a) => {
                let ra = self.num_range(a);
                NumRange {
                    lo: Some(0),
                    hi: ra.hi.map(|h| crate::expr::isqrt64(h.max(0))),
                }
            }
            ExprKind::Range { lo, len, .. } => {
                let rl = self.num_range(lo);
                let rn = self.num_range(len);
                NumRange {
                    lo: rl.lo,
                    hi: opt2(rl.hi, rn.hi, |l, n| l + n - 1),
                }
            }
        }
    }

    /// A symbolic *inclusive* upper bound for `e`, derived structurally
    /// (e.g. `x % d <= d - 1`, `range(0, n) <= n - 1`, `a*b <= ua*ub` for
    /// non-negative factors). This function is total: when no better bound
    /// is known for a node, the node itself is used (`e <= e`), so the
    /// result only ever *replaces bounded index symbols by their bounds*.
    pub fn upper_inclusive(&self, e: &Expr) -> Expr {
        match e.kind() {
            ExprKind::Const(_) => e.clone(),
            ExprKind::Sym(s) => match self.bounds.get(&**s).and_then(|b| b.hi.as_ref()) {
                Some(h) => h - Expr::one(),
                None => e.clone(),
            },
            ExprKind::Add(ts) => Expr::add_all(ts.iter().map(|t| self.upper_inclusive(t))),
            ExprKind::Mul(ts) => {
                // `prod <= prod of uppers` is only valid when every factor
                // is provably non-negative; otherwise fall back to `e`.
                if ts.iter().all(|t| crate::prove::nonneg(t, self)) {
                    Expr::mul_all(ts.iter().map(|t| self.upper_inclusive(t)))
                } else {
                    e.clone()
                }
            }
            ExprKind::FloorDiv(a, b) => {
                // (x % m) / b <= q - 1 when m = b*q exactly (the quotient
                // of an unflatten never exceeds the outer extent).
                if let ExprKind::Mod(_, m) = a.kind() {
                    if crate::prove::pos(b, self) && crate::prove::pos(m, self) {
                        if let Some(q) = crate::prove::div_exact(m, b, self) {
                            return q - Expr::one();
                        }
                    }
                }
                // a/b <= upper(a) when a >= 0 and b >= 1.
                if crate::prove::nonneg(a, self) && crate::prove::pos(b, self) {
                    self.upper_inclusive(a)
                } else {
                    e.clone()
                }
            }
            ExprKind::Mod(_, d) => {
                if crate::prove::pos(d, self) {
                    d - Expr::one()
                } else {
                    e.clone()
                }
            }
            ExprKind::Min(a, b) => {
                // Preserve the Min structure: the grouped-layout lemma
                // needs min(g, x) intact, and Min of constants folds.
                self.upper_inclusive(a).min(&self.upper_inclusive(b))
            }
            ExprKind::Max(a, b) => self.upper_inclusive(a).max(&self.upper_inclusive(b)),
            ExprKind::Xor(_, _) => e.clone(),
            ExprKind::Select(_, t, f) => self.upper_inclusive(t).max(&self.upper_inclusive(f)),
            ExprKind::ISqrt(a) => self.upper_inclusive(a),
            ExprKind::Range { lo, len, .. } => lo + self.upper_inclusive(len) - Expr::one(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_range_is_point() {
        let env = RangeEnv::new();
        assert_eq!(env.num_range(&Expr::val(7)), NumRange::point(7));
    }

    #[test]
    fn sym_bounds_propagate() {
        let mut env = RangeEnv::new();
        env.set_bounds("i", Expr::val(0), Expr::val(16));
        let r = env.num_range(&(Expr::sym("i") * Expr::val(4) + Expr::val(3)));
        assert_eq!(r, NumRange::closed(3, 63));
    }

    #[test]
    fn mod_pos_divisor_bounded() {
        let env = RangeEnv::new();
        let e = Expr::sym("x").rem(&Expr::val(32));
        assert_eq!(env.num_range(&e), NumRange::closed(0, 31));
    }

    #[test]
    fn mod_bounded_by_numerator() {
        let mut env = RangeEnv::new();
        env.set_bounds("x", Expr::val(0), Expr::val(5));
        let e = Expr::sym("x").rem(&Expr::val(32));
        assert_eq!(env.num_range(&e), NumRange::closed(0, 4));
    }

    #[test]
    fn div_nonneg_range() {
        let mut env = RangeEnv::new();
        env.set_bounds("x", Expr::val(0), Expr::val(100));
        let e = Expr::sym("x").floor_div(&Expr::val(10));
        assert_eq!(env.num_range(&e), NumRange::closed(0, 9));
    }

    #[test]
    fn unknown_sym_is_top() {
        let env = RangeEnv::new();
        assert_eq!(env.num_range(&Expr::sym("q")), NumRange::TOP);
    }

    #[test]
    fn upper_inclusive_of_flattened_index() {
        // i1*n2 + i2 with i1 < n1, i2 < n2 has inclusive upper bound
        // (n1-1)*n2 + (n2-1) = n1*n2 - 1.
        let mut env = RangeEnv::new();
        env.set_bounds("i1", Expr::val(0), Expr::sym("n1"));
        env.set_bounds("i2", Expr::val(0), Expr::sym("n2"));
        env.assume_pos("n1");
        env.assume_pos("n2");
        let e = Expr::sym("i1") * Expr::sym("n2") + Expr::sym("i2");
        let u = env.upper_inclusive(&e);
        // (n1 - 1)*n2 + n2 - 1 expands to n1*n2 - 1.
        let expanded = crate::simplify::fixpoint_simplify(&crate::expand::distribute(&u), &env);
        let target = crate::simplify::fixpoint_simplify(
            &crate::expand::distribute(&(Expr::sym("n1") * Expr::sym("n2") - Expr::one())),
            &env,
        );
        assert_eq!(expanded, target);
    }

    #[test]
    fn range_node_bounds() {
        let env = RangeEnv::new();
        let r = Expr::range(Expr::val(0), Expr::val(64), 0, 1);
        assert_eq!(env.num_range(&r), NumRange::closed(0, 63));
    }

    #[test]
    fn min_max_ranges() {
        let mut env = RangeEnv::new();
        env.set_bounds("a", Expr::val(2), Expr::val(10));
        env.set_bounds("b", Expr::val(5), Expr::val(20));
        let mn = Expr::sym("a").min(&Expr::sym("b"));
        let mx = Expr::sym("a").max(&Expr::sym("b"));
        assert_eq!(env.num_range(&mn), NumRange::closed(2, 9));
        assert_eq!(env.num_range(&mx), NumRange::closed(5, 19));
    }
}
