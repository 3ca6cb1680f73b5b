//! The declarative rewrite-rule table of the fixpoint rewriter.
//!
//! Every rule the rewriter ([`crate::simplify`][mod@crate::simplify])
//! can fire is a variant of [`RewriteRule`]; the single root-level
//! applier (`apply_root`) dispatches them, and [`RuleStats`] counts
//! firings per typed rule.

use std::collections::HashMap;

use crate::cost::ops;
use crate::expr::{Expr, ExprKind};
use crate::prove::{div_exact, in_half_open, le, nonzero, pos};
use crate::range::RangeEnv;

/// One rewrite rule of the fixpoint rewriter, named.
///
/// Every variant is a destructive (size-reducing or size-preserving)
/// rule; see the table in the [`crate::simplify`][mod@crate::simplify]
/// module for the paper's Table II numbering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RewriteRule {
    /// Like-term collection in a sum: `2*x + 3*x -> 5*x`.
    Collect,
    /// Rule 7: `a*(x/a) + x%a -> x`.
    Recompose,
    /// `(x/d) * d -> x` when the environment declares `d | x`.
    DivMulExact,
    /// `(d*q) % d -> 0` (exact divisibility).
    ModExactZero,
    /// Rule 5: `x % d -> x` when `0 <= x < d`.
    ModInRange,
    /// `(x % m) % d -> x % d` when `d | m` (and `(x%d)%d -> x%d`).
    ModOfMod,
    /// Rule 1: `(d*q + r) % d -> r % d`.
    ModSplit,
    /// `(d*q) / d -> q` (exact division).
    DivExact,
    /// Rule 3: `(x % d) / d -> 0`.
    DivOfModZero,
    /// Rule 4: `x / d -> 0` when `0 <= x < d`.
    DivInRange,
    /// `(x / a) / b -> x / (a*b)` for positive divisors.
    DivDiv,
    /// Rule 2: `(d*q + r) / d -> q (+ r/d)`.
    DivSplit,
    /// `min(a, b) -> a` when `a <= b` is provable (either order).
    MinOrder,
    /// `max(a, b) -> b` when `a <= b` is provable (either order).
    MaxOrder,
}

impl RewriteRule {
    /// Every rule, in declaration order.
    pub const ALL: [RewriteRule; 14] = [
        RewriteRule::Collect,
        RewriteRule::Recompose,
        RewriteRule::DivMulExact,
        RewriteRule::ModExactZero,
        RewriteRule::ModInRange,
        RewriteRule::ModOfMod,
        RewriteRule::ModSplit,
        RewriteRule::DivExact,
        RewriteRule::DivOfModZero,
        RewriteRule::DivInRange,
        RewriteRule::DivDiv,
        RewriteRule::DivSplit,
        RewriteRule::MinOrder,
        RewriteRule::MaxOrder,
    ];

    /// The legacy snake-case name (as reported by pre-table `RuleStats`).
    pub fn name(self) -> &'static str {
        match self {
            RewriteRule::Collect => "collect",
            RewriteRule::Recompose => "recompose",
            RewriteRule::DivMulExact => "div_mul_exact",
            RewriteRule::ModExactZero => "mod_exact_zero",
            RewriteRule::ModInRange => "mod_in_range",
            RewriteRule::ModOfMod => "mod_of_mod",
            RewriteRule::ModSplit => "mod_split",
            RewriteRule::DivExact => "div_exact",
            RewriteRule::DivOfModZero => "div_of_mod_zero",
            RewriteRule::DivInRange => "div_in_range",
            RewriteRule::DivDiv => "div_div",
            RewriteRule::DivSplit => "div_split",
            RewriteRule::MinOrder => "min_order",
            RewriteRule::MaxOrder => "max_order",
        }
    }
}

/// A fingerprint of the whole rewrite-rule registry: an FNV-1a hash
/// over the rule count and names, in declaration order. The persistent
/// memo sidecar (`lego_tune::sidecar`) stamps its documents with this
/// value, so adding, removing, or renaming a rule invalidates every
/// persisted candidate annotation wholesale — a rule change can never
/// serve an op count derived under the old rules.
pub fn table_fingerprint() -> u64 {
    let mut h = crate::intern::Fnv::new();
    h.u64(RewriteRule::ALL.len() as u64);
    for rule in RewriteRule::ALL {
        h.str(rule.name());
    }
    h.finish()
}

/// Counts how many times each rewrite rule fired.
///
/// Under the interned IR the rewrite passes are memoized per node, so a
/// rule firing is counted **once per unique `(environment, node)`
/// within a stats-reporting call**: when a shared subtree is reached
/// again (or the fixpoint loop revisits an already-rewritten node), the
/// memoized result is reused and nothing is re-counted. The counts are
/// therefore a property of the expression DAG, not of how many tree
/// paths happen to reach each node — and they stay deterministic per
/// call because stats-reporting entry points use a fresh per-call memo
/// rather than the session tables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleStats {
    counts: HashMap<RewriteRule, usize>,
}

impl RuleStats {
    /// Number of firings of `rule`.
    pub fn count(&self, rule: RewriteRule) -> usize {
        self.counts.get(&rule).copied().unwrap_or(0)
    }

    /// Total number of rule firings.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// Iterates over `(rule, firings)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (RewriteRule, usize)> + '_ {
        let mut pairs: Vec<(RewriteRule, usize)> =
            self.counts.iter().map(|(k, v)| (*k, *v)).collect();
        pairs.sort_unstable();
        pairs.into_iter()
    }

    pub(crate) fn hit(&mut self, rule: RewriteRule) {
        *self.counts.entry(rule).or_insert(0) += 1;
    }

    pub(crate) fn hit_n(&mut self, rule: RewriteRule, n: usize) {
        *self.counts.entry(rule).or_insert(0) += n;
    }
}

/// Applies every applicable destructive rule at the root of `e` (one
/// step; callers iterate). The fixpoint rewriter loops it inside its
/// bottom-up pass.
pub(crate) fn apply_root(e: &Expr, env: &RangeEnv, stats: &mut RuleStats) -> Expr {
    match e.kind() {
        ExprKind::Add(ts) => simplify_add(ts, env, stats),
        ExprKind::Mul(ts) => simplify_mul(ts, e, env, stats),
        ExprKind::Mod(a, d) => simplify_mod(a, d, e, env, stats),
        ExprKind::FloorDiv(a, d) => simplify_div(a, d, e, env, stats),
        ExprKind::Min(a, b) => {
            if le(a, b, env) {
                stats.hit(RewriteRule::MinOrder);
                a.clone()
            } else if le(b, a, env) {
                stats.hit(RewriteRule::MinOrder);
                b.clone()
            } else {
                e.clone()
            }
        }
        ExprKind::Max(a, b) => {
            if le(a, b, env) {
                stats.hit(RewriteRule::MaxOrder);
                b.clone()
            } else if le(b, a, env) {
                stats.hit(RewriteRule::MaxOrder);
                a.clone()
            } else {
                e.clone()
            }
        }
        _ => e.clone(),
    }
}

/// Splits a term into `(constant coefficient, core)` where `core` carries
/// no leading constant.
fn coeff_core(t: &Expr) -> (i64, Expr) {
    match t.kind() {
        ExprKind::Const(v) => (*v, Expr::one()),
        ExprKind::Mul(fs) => {
            if let Some(c) = fs[0].as_const() {
                (c, Expr::mul_all(fs[1..].iter().cloned()))
            } else {
                (1, t.clone())
            }
        }
        _ => (1, t.clone()),
    }
}

fn simplify_add(ts: &[Expr], env: &RangeEnv, stats: &mut RuleStats) -> Expr {
    // Collect like terms: map core -> coefficient.
    let mut order: Vec<Expr> = Vec::new();
    let mut coeffs: HashMap<Expr, i64> = HashMap::new();
    for t in ts {
        let (c, core) = coeff_core(t);
        let entry = coeffs.entry(core.clone()).or_insert_with(|| {
            order.push(core.clone());
            0
        });
        *entry += c;
    }
    let mut terms: Vec<(i64, Expr)> = order
        .into_iter()
        .filter_map(|core| {
            let c = coeffs[&core];
            (c != 0).then_some((c, core))
        })
        .collect();
    if terms.len() < ts.len() {
        stats.hit(RewriteRule::Collect);
    }

    // Rule 7: a*(x/a) + x%a -> x (matching coefficients).
    'outer: loop {
        for i in 0..terms.len() {
            let (ci, core_i) = &terms[i];
            // core_i must be a product containing FloorDiv(x, a) whose
            // remaining factors multiply to `a`, or be FloorDiv(x, a) with
            // a == 1 (already erased), so look for the Mul form.
            let found = match core_i.kind() {
                ExprKind::Mul(fs) => find_recompose_product(fs),
                _ => None,
            };
            let Some((x, a)) = found else { continue };
            if !nonzero(&a, env) {
                continue;
            }
            for j in 0..terms.len() {
                if i == j {
                    continue;
                }
                let (cj, core_j) = &terms[j];
                if ci != cj {
                    continue;
                }
                if let ExprKind::Mod(xj, aj) = core_j.kind() {
                    if *xj == x && *aj == a {
                        let c = *ci;
                        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                        terms.remove(hi);
                        terms.remove(lo);
                        terms.push((c, x.clone()));
                        stats.hit(RewriteRule::Recompose);
                        continue 'outer;
                    }
                }
            }
        }
        break;
    }

    Expr::add_all(terms.into_iter().map(|(c, core)| {
        if c == 1 {
            core
        } else {
            Expr::mul_all([Expr::val(c), core])
        }
    }))
}

/// Inside a product, cancels `(x / d) * d -> x` when the environment
/// declares `d | x` (exact tiling). The matching `x % d -> 0` fold falls
/// out of `div_exact` consulting the same declarations.
fn simplify_mul(ts: &[Expr], orig: &Expr, env: &RangeEnv, stats: &mut RuleStats) -> Expr {
    for (i, f) in ts.iter().enumerate() {
        let ExprKind::FloorDiv(x, d) = f.kind() else {
            continue;
        };
        if !env.divides(d, x) {
            continue;
        }
        // Find a matching factor `d` elsewhere in the product.
        if let Some(j) = ts.iter().enumerate().position(|(j, g)| j != i && g == d) {
            stats.hit(RewriteRule::DivMulExact);
            let rest = ts
                .iter()
                .enumerate()
                .filter(|(k, _)| *k != i && *k != j)
                .map(|(_, g)| g.clone());
            return Expr::mul_all(rest.chain([x.clone()]));
        }
    }
    orig.clone()
}

/// For factors `fs` of a product, finds `(x, a)` such that the product is
/// `a * (x / a)` (one `FloorDiv(x, a)` factor; the rest multiply to `a`).
fn find_recompose_product(fs: &[Expr]) -> Option<(Expr, Expr)> {
    for (pos, f) in fs.iter().enumerate() {
        if let ExprKind::FloorDiv(x, a) = f.kind() {
            let rest = Expr::mul_all(
                fs.iter()
                    .enumerate()
                    .filter(|(i, _)| *i != pos)
                    .map(|(_, f)| f.clone()),
            );
            if &rest == a {
                return Some((x.clone(), a.clone()));
            }
        }
    }
    None
}

fn simplify_mod(a: &Expr, d: &Expr, orig: &Expr, env: &RangeEnv, stats: &mut RuleStats) -> Expr {
    // Exact divisibility: (d*q) % d -> 0.
    if div_exact(a, d, env).is_some() {
        stats.hit(RewriteRule::ModExactZero);
        return Expr::zero();
    }
    // Rule 5: 0 <= a < d  =>  a % d = a.
    if pos(d, env) && in_half_open(a, d, env) {
        stats.hit(RewriteRule::ModInRange);
        return a.clone();
    }
    // (x % d) % d -> x % d, and more generally (x % m) % d -> x % d when
    // d | m (e.g. (pid % (g*nt_n)) % g -> pid % g in the grouped thread
    // layout of Fig. 10).
    if let ExprKind::Mod(x2, m2) = a.kind() {
        if m2 == d && nonzero(d, env) {
            stats.hit(RewriteRule::ModOfMod);
            return a.clone();
        }
        if pos(d, env) && pos(m2, env) && div_exact(m2, d, env).is_some() {
            stats.hit(RewriteRule::ModOfMod);
            let inner = x2.rem(d);
            return simplify_mod(x2, d, &inner, env, stats);
        }
    }
    // Rule 1: (d*q + r) % d -> r % d, splitting the sum by divisibility.
    if let ExprKind::Add(ts) = a.kind() {
        if nonzero(d, env) {
            let (div_part, rest): (Vec<_>, Vec<_>) = ts
                .iter()
                .cloned()
                .partition(|t| div_exact(t, d, env).is_some());
            if !div_part.is_empty() && !rest.is_empty() {
                stats.hit(RewriteRule::ModSplit);
                let r = Expr::add_all(rest);
                return simplify_mod(&r, d, &r.rem(d), env, stats);
            }
        }
    }
    orig.clone()
}

fn simplify_div(a: &Expr, d: &Expr, orig: &Expr, env: &RangeEnv, stats: &mut RuleStats) -> Expr {
    // Exact division: (d*q) / d -> q.
    if let Some(q) = div_exact(a, d, env) {
        stats.hit(RewriteRule::DivExact);
        return q;
    }
    // Rule 3: (x % d) / d -> 0.
    if let ExprKind::Mod(_, d2) = a.kind() {
        if d2 == d && pos(d, env) {
            stats.hit(RewriteRule::DivOfModZero);
            return Expr::zero();
        }
    }
    // Rule 4: 0 <= a < d  =>  a / d = 0.
    if pos(d, env) && in_half_open(a, d, env) {
        stats.hit(RewriteRule::DivInRange);
        return Expr::zero();
    }
    // (x / a) / b -> x / (a*b) for positive divisors.
    if let ExprKind::FloorDiv(x, inner) = a.kind() {
        if pos(inner, env) && pos(d, env) {
            stats.hit(RewriteRule::DivDiv);
            return x.floor_div(&(inner * d));
        }
    }
    // Rule 2: (d*q + r) / d -> q (+ r/d), splitting the sum.
    if let ExprKind::Add(ts) = a.kind() {
        if nonzero(d, env) {
            let mut q_parts: Vec<Expr> = Vec::new();
            let mut rest: Vec<Expr> = Vec::new();
            for t in ts {
                match div_exact(t, d, env) {
                    Some(q) => q_parts.push(q),
                    None => rest.push(t.clone()),
                }
            }
            if !q_parts.is_empty() && !rest.is_empty() {
                let q = Expr::add_all(q_parts);
                let r = Expr::add_all(rest);
                if in_half_open(&r, d, env) {
                    stats.hit(RewriteRule::DivSplit);
                    return q;
                }
                // General split is exact for floor division with d != 0;
                // keep it only when it does not grow the expression.
                let mut sub = RuleStats::default();
                let rd = simplify_div(&r, d, &r.floor_div(d), env, &mut sub);
                let candidate = q + &rd;
                if ops(&candidate) <= ops(orig) {
                    stats.hit(RewriteRule::DivSplit);
                    for (rule, n) in sub.iter() {
                        stats.hit_n(rule, n);
                    }
                    return candidate;
                }
            }
        }
    }
    orig.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_a_unique_name() {
        for (i, a) in RewriteRule::ALL.iter().enumerate() {
            for b in &RewriteRule::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
