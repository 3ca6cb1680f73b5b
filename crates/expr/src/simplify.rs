//! The fixpoint rewrite engine implementing the paper's Table II integer
//! division/modulo rules, plus standard algebraic normalization
//! (like-term collection, nested-div fusion, min/max ordering).
//!
//! | # | Pattern | Result | Condition |
//! |---|---------|--------|-----------|
//! | 1 | `(d*q + r) % d` | `r % d` | `d != 0` |
//! | 2 | `(d*q + r) / d` | `q` | `d != 0`, `0 <= r < d` |
//! |   |                 | `q + r / d` | otherwise (kept only if cheaper) |
//! | 3 | `(x % d) / d` | `0` | `d > 0` |
//! | 4 | `x / a` | `0` | `a > 0`, `0 <= x < a` |
//! | 5 | `x % a` | `x` | `a > 0`, `0 <= x < a` |
//! | 6 | `(n + y) / 1` | `n + (y / 1)` | (division by one is erased) |
//! | 7 | `a*(x / a) + x % a` | `x` | `a != 0` |
//!
//! The rules themselves live in the table [`crate::rules`]; this module
//! owns the *strategy*: a bottom-up pass iterated to fixpoint, applying
//! rules destructively in a fixed order. Side conditions are discharged by
//! [`crate::prove`] from the ranges in a [`RangeEnv`]. Statistics on
//! which rules fired are available through
//! [`crate::Engine::simplify_with_stats`], which the tests use to
//! assert which rules are exercised by each paper benchmark.

use std::collections::HashMap;

use crate::expr::{Expr, ExprKind};
use crate::intern;
use crate::prove::at_depth0;
use crate::range::RangeEnv;
use crate::rules::{self, RuleStats};

/// Core of [`crate::Engine::simplify`]: simplifies to fixpoint (bounded
/// at 12 passes).
///
/// Results are memoized for the session per `(environment, node)` —
/// both the full fixpoint result and every per-node single-pass result
/// — so shared subtrees across different call sites (e.g. the
/// tile-offset terms thousands of neighboring tuner candidates have in
/// common) are rewritten once.
pub(crate) fn fixpoint_simplify(e: &Expr, env: &RangeEnv) -> Expr {
    if !at_depth0() {
        // Inside a prover query the depth budget is partially spent and
        // pass results are not pure; stay off the session tables.
        return fixpoint_simplify_stats(e, env).0;
    }
    let env_id = env.id();
    if let Some(hit) = intern::simplify_get(env_id, e.id().get()) {
        return hit;
    }
    let mut stats = RuleStats::default();
    let result = fixpoint(e, env, &mut stats, &mut PassMemo::Session);
    intern::simplify_insert(env_id, e.id().get(), result.clone());
    result
}

/// Core of [`crate::Engine::simplify_with_stats`]: simplifies to
/// fixpoint and reports which rules fired.
///
/// Uses a fresh per-call memo instead of the session tables, so the
/// reported [`RuleStats`] are a deterministic function of `(e, env)`
/// (counted once per unique node — see [`RuleStats`]) no matter what
/// was simplified earlier in the session.
pub(crate) fn fixpoint_simplify_stats(e: &Expr, env: &RangeEnv) -> (Expr, RuleStats) {
    let mut stats = RuleStats::default();
    let mut local = HashMap::new();
    let result = fixpoint(e, env, &mut stats, &mut PassMemo::Local(&mut local));
    (result, stats)
}

/// A single bottom-up simplification pass (no fixpoint iteration). Used
/// internally by the prover to normalize bound differences without
/// unbounded recursion.
pub(crate) fn single_pass(e: &Expr, env: &RangeEnv) -> Expr {
    let mut stats = RuleStats::default();
    let mut local = HashMap::new();
    pass(e, env, &mut stats, &mut PassMemo::Local(&mut local))
}

/// Where a rewrite pass looks up (and records) per-node results.
enum PassMemo<'a> {
    /// The session-lifetime table in [`crate::intern`], keyed by
    /// `(environment, node)`. Only consulted at prover depth 0, where
    /// pass results are pure.
    Session,
    /// A per-call table keyed by node id (stats runs and prover-internal
    /// normalization, where session entries must not be touched).
    Local(&'a mut HashMap<u64, Expr>),
}

/// Iterates [`pass`] to fixpoint (bounded at 12 sweeps).
fn fixpoint(e: &Expr, env: &RangeEnv, stats: &mut RuleStats, memo: &mut PassMemo) -> Expr {
    let mut cur = e.clone();
    for _ in 0..12 {
        let next = pass(&cur, env, stats, memo);
        if next == cur {
            break;
        }
        cur = next;
    }
    cur
}

fn pass(e: &Expr, env: &RangeEnv, stats: &mut RuleStats, memo: &mut PassMemo) -> Expr {
    // Memoized? Reuse without re-counting any rule firings.
    match memo {
        PassMemo::Session => {
            if at_depth0() {
                if let Some(hit) = intern::pass_get(env.id(), e.id().get()) {
                    return hit;
                }
            }
        }
        PassMemo::Local(map) => {
            if let Some(hit) = map.get(&e.id().get()) {
                return hit.clone();
            }
        }
    }
    // Rebuild children first.
    let rebuilt = match e.kind() {
        ExprKind::Const(_) | ExprKind::Sym(_) => e.clone(),
        ExprKind::Add(ts) => {
            let ts: Vec<Expr> = ts.iter().map(|t| pass(t, env, stats, memo)).collect();
            Expr::add_all(ts)
        }
        ExprKind::Mul(ts) => {
            let ts: Vec<Expr> = ts.iter().map(|t| pass(t, env, stats, memo)).collect();
            Expr::mul_all(ts)
        }
        ExprKind::FloorDiv(a, b) => pass(a, env, stats, memo).floor_div(&pass(b, env, stats, memo)),
        ExprKind::Mod(a, b) => pass(a, env, stats, memo).rem(&pass(b, env, stats, memo)),
        ExprKind::Xor(a, b) => pass(a, env, stats, memo).xor(&pass(b, env, stats, memo)),
        ExprKind::Min(a, b) => pass(a, env, stats, memo).min(&pass(b, env, stats, memo)),
        ExprKind::Max(a, b) => pass(a, env, stats, memo).max(&pass(b, env, stats, memo)),
        ExprKind::Select(c, t, f) => Expr::select(
            c.clone(),
            pass(t, env, stats, memo),
            pass(f, env, stats, memo),
        ),
        ExprKind::ISqrt(a) => pass(a, env, stats, memo).isqrt(),
        ExprKind::Range {
            lo,
            len,
            axis,
            ndims,
        } => Expr::range(
            pass(lo, env, stats, memo),
            pass(len, env, stats, memo),
            *axis,
            *ndims,
        ),
    };
    // Then apply node-level rules until the node stops changing.
    let mut cur = rebuilt;
    for _ in 0..8 {
        let next = rules::apply_root(&cur, env, stats);
        if next == cur {
            break;
        }
        cur = next;
    }
    match memo {
        PassMemo::Session => {
            if at_depth0() {
                intern::pass_insert(env.id(), e.id().get(), cur.clone());
            }
        }
        PassMemo::Local(map) => {
            map.insert(e.id().get(), cur.clone());
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RewriteRule;

    fn env_tile() -> RangeEnv {
        let mut env = RangeEnv::new();
        env.assume_pos("d");
        env.assume_pos("n");
        env.set_bounds("q", Expr::val(0), Expr::sym("n"));
        env.set_bounds("r", Expr::val(0), Expr::sym("d"));
        env.assume_nonneg("x");
        env
    }

    #[test]
    fn rule1_mod_split() {
        let env = env_tile();
        // (d*q + r) % d -> r   (r already < d so the inner mod erases too)
        let e = (Expr::sym("d") * Expr::sym("q") + Expr::sym("r")).rem(&Expr::sym("d"));
        let (s, st) = fixpoint_simplify_stats(&e, &env);
        assert_eq!(s, Expr::sym("r"));
        assert!(st.count(RewriteRule::ModSplit) >= 1);
    }

    #[test]
    fn rule2_div_split_exact() {
        let env = env_tile();
        let e = (Expr::sym("d") * Expr::sym("q") + Expr::sym("r")).floor_div(&Expr::sym("d"));
        let (s, st) = fixpoint_simplify_stats(&e, &env);
        assert_eq!(s, Expr::sym("q"));
        assert!(st.count(RewriteRule::DivSplit) >= 1);
    }

    #[test]
    fn rule3_mod_over_div() {
        let mut env = RangeEnv::new();
        env.assume_pos("d");
        let e = Expr::sym("x")
            .rem(&Expr::sym("d"))
            .floor_div(&Expr::sym("d"));
        let (s, st) = fixpoint_simplify_stats(&e, &env);
        assert_eq!(s, Expr::zero());
        assert!(st.count(RewriteRule::DivOfModZero) >= 1);
    }

    #[test]
    fn rule4_small_div() {
        let env = env_tile();
        let e = Expr::sym("r").floor_div(&Expr::sym("d"));
        let (s, st) = fixpoint_simplify_stats(&e, &env);
        assert_eq!(s, Expr::zero());
        assert!(st.count(RewriteRule::DivInRange) >= 1);
    }

    #[test]
    fn rule5_small_mod() {
        let env = env_tile();
        let e = Expr::sym("r").rem(&Expr::sym("d"));
        let (s, st) = fixpoint_simplify_stats(&e, &env);
        assert_eq!(s, Expr::sym("r"));
        assert!(st.count(RewriteRule::ModInRange) >= 1);
    }

    #[test]
    fn rule6_div_by_one() {
        let env = RangeEnv::new();
        let e = (Expr::sym("n") + Expr::sym("y")).floor_div(&Expr::one());
        assert_eq!(fixpoint_simplify(&e, &env), Expr::sym("n") + Expr::sym("y"));
    }

    #[test]
    fn rule7_recompose() {
        let mut env = RangeEnv::new();
        env.assume_pos("a");
        env.assume_nonneg("x");
        let x = Expr::sym("x");
        let a = Expr::sym("a");
        let e = &a * x.floor_div(&a) + x.rem(&a);
        let (s, st) = fixpoint_simplify_stats(&e, &env);
        assert_eq!(s, x);
        assert!(st.count(RewriteRule::Recompose) >= 1);
    }

    #[test]
    fn collect_cancels() {
        let env = RangeEnv::new();
        let a = Expr::sym("a");
        let e = &a + &a - &a - &a;
        assert_eq!(fixpoint_simplify(&e, &env), Expr::zero());
    }

    #[test]
    fn nested_div_fuses() {
        let mut env = RangeEnv::new();
        env.assume_pos("p");
        env.assume_pos("q");
        let e = Expr::sym("x")
            .floor_div(&Expr::sym("p"))
            .floor_div(&Expr::sym("q"));
        let s = fixpoint_simplify(&e, &env);
        assert_eq!(
            s,
            Expr::sym("x").floor_div(&(Expr::sym("p") * Expr::sym("q")))
        );
    }

    #[test]
    fn flatten_unflatten_roundtrip_simplifies_away() {
        // B^-1(B(i,j)) over (n, m): ((i*m + j) / m, (i*m + j) % m) -> (i, j)
        let mut env = RangeEnv::new();
        env.set_bounds("i", Expr::val(0), Expr::sym("n"));
        env.set_bounds("j", Expr::val(0), Expr::sym("m"));
        env.assume_pos("n");
        env.assume_pos("m");
        let flat = Expr::sym("i") * Expr::sym("m") + Expr::sym("j");
        let i2 = flat.floor_div(&Expr::sym("m"));
        let j2 = flat.rem(&Expr::sym("m"));
        assert_eq!(fixpoint_simplify(&i2, &env), Expr::sym("i"));
        assert_eq!(fixpoint_simplify(&j2, &env), Expr::sym("j"));
    }

    #[test]
    fn min_collapses_under_proof() {
        let mut env = RangeEnv::new();
        env.set_bounds("i", Expr::val(0), Expr::val(4));
        // min(i, 100) = i
        let e = Expr::sym("i").min(&Expr::val(100));
        assert_eq!(fixpoint_simplify(&e, &env), Expr::sym("i"));
    }

    #[test]
    fn stats_total_counts() {
        let env = env_tile();
        let e = (Expr::sym("d") * Expr::sym("q") + Expr::sym("r")).rem(&Expr::sym("d"));
        let (_, st) = fixpoint_simplify_stats(&e, &env);
        assert!(st.total() >= 1);
    }

    #[test]
    fn stats_count_once_per_unique_node() {
        // The same rewritable subtree twice over: with the per-node
        // memo, `ModSplit` fires once for the unique node, not once
        // per occurrence (hits don't double-count).
        let env = env_tile();
        let sub = (Expr::sym("d") * Expr::sym("q") + Expr::sym("r")).rem(&Expr::sym("d"));
        let e = Expr::min(sub.clone(), &Expr::val(1_000_000)) + sub.rem(&Expr::val(7));
        let (_, st) = fixpoint_simplify_stats(&e, &env);
        assert_eq!(st.count(RewriteRule::ModSplit), 1);
    }

    #[test]
    fn stats_are_deterministic_per_call() {
        // The stats entry point must report the same counts no matter
        // what the session memo tables already contain — including a
        // prior simplify of the very same expression.
        let env = env_tile();
        let e = (Expr::sym("d") * Expr::sym("q") + Expr::sym("r")).rem(&Expr::sym("d"));
        let first = fixpoint_simplify_stats(&e, &env);
        let _ = fixpoint_simplify(&e, &env); // populate session tables
        let second = fixpoint_simplify_stats(&e, &env);
        assert_eq!(first.0, second.0);
        assert_eq!(first.1, second.1);
        assert!(second.1.count(RewriteRule::ModSplit) >= 1);
    }
}
