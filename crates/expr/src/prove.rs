//! A lightweight decision procedure for the side conditions of the Table II
//! rewrite rules.
//!
//! The paper discharges conditions such as `d != 0`, `0 <= r < d`, and
//! `0 <= x < a` with Z3, seeded with the index ranges derived from the
//! layout specification. Every query LEGO actually issues is of one of
//! those shapes over *non-negative, structurally bounded* index arithmetic,
//! so a combination of
//!
//! 1. numeric interval arithmetic ([`crate::range::RangeEnv::num_range`]),
//! 2. structural non-negativity (sums/products/div/mod of non-negative
//!    parts), and
//! 3. symbolic upper bounds compared by expand-and-cancel
//!
//! decides them without an SMT solver. This module is that substitute; the
//! substitution is documented in `DESIGN.md` §3. The public entry points
//! are the `prove_*` methods on [`crate::Engine`].

use crate::expand::distribute;
use crate::expr::{Expr, ExprKind};
use crate::intern;
use crate::range::RangeEnv;
use crate::simplify::single_pass;

/// Memo discriminants for the unary proof facts.
const FACT_NONNEG: u8 = 0;
const FACT_POS: u8 = 1;

/// Proves `e >= 0`. Sound but incomplete (may return `false` for true
/// facts); never returns `true` for a falsifiable one given a sound
/// environment.
///
/// Verdicts established at recursion depth 0 — where the prover's depth
/// budget is full, making the answer a pure function of `(env, e)` —
/// are memoized for the session. Deeper (budget-truncated) queries are
/// answered fresh and never cached, so memoization can't strengthen or
/// weaken any proof.
pub(crate) fn nonneg(e: &Expr, env: &RangeEnv) -> bool {
    if at_depth0() {
        let key = (env.id(), e.id().get());
        if let Some(v) = intern::prove_unary_get(key.0, key.1, FACT_NONNEG) {
            return v;
        }
        let v = nonneg_uncached(e, env);
        intern::prove_unary_insert(key.0, key.1, FACT_NONNEG, v);
        return v;
    }
    nonneg_uncached(e, env)
}

fn nonneg_uncached(e: &Expr, env: &RangeEnv) -> bool {
    if env.num_range(e).is_nonneg() {
        return true;
    }
    let structural = match e.kind() {
        ExprKind::Add(ts) | ExprKind::Mul(ts) => ts.iter().all(|t| nonneg(t, env)),
        ExprKind::FloorDiv(a, b) => nonneg(a, env) && pos(b, env),
        ExprKind::Mod(_, d) => pos(d, env),
        ExprKind::Min(a, b) => nonneg(a, env) && nonneg(b, env),
        ExprKind::Max(a, b) => nonneg(a, env) || nonneg(b, env),
        ExprKind::Select(_, t, f) => nonneg(t, env) && nonneg(f, env),
        ExprKind::ISqrt(_) => true,
        ExprKind::Xor(a, b) => nonneg(a, env) && nonneg(b, env),
        ExprKind::Range { lo, len, .. } => nonneg(lo, env) && nonneg(len, env),
        _ => false,
    };
    structural || nonneg_factored_difference(e, env)
}

/// Proves `p - n >= 0` for a two-term sum `p + (-1)*n·…` by cancelling
/// common non-negative factors and comparing the residues, e.g.
/// `nt_m*nt_n - nt_n*max(nt_m/GM,1)*min(GM,nt_m) >= 0` reduces to the
/// grouped-layout lemma `max(x/g,1)*min(g,x) <= x`.
fn nonneg_factored_difference(e: &Expr, env: &RangeEnv) -> bool {
    let ExprKind::Add(ts) = e.kind() else {
        return false;
    };
    if ts.len() != 2 {
        return false;
    }
    // Identify the negated term.
    let (pos_t, neg) = {
        let is_neg = |t: &Expr| {
            matches!(t.kind(), ExprKind::Mul(fs)
                if fs.first().and_then(Expr::as_const) == Some(-1))
        };
        if is_neg(&ts[1]) && !is_neg(&ts[0]) {
            (&ts[0], &ts[1])
        } else if is_neg(&ts[0]) && !is_neg(&ts[1]) {
            (&ts[1], &ts[0])
        } else {
            return false;
        }
    };
    let mut pf: Vec<Expr> = match pos_t.kind() {
        ExprKind::Mul(fs) => fs.clone(),
        _ => vec![pos_t.clone()],
    };
    let ExprKind::Mul(nfs) = neg.kind() else {
        return false;
    };
    let mut nf: Vec<Expr> = nfs[1..].to_vec(); // drop the -1
                                               // Cancel common non-negative factors.
    let mut i = 0;
    while i < pf.len() {
        if let Some(j) = nf.iter().position(|f| f == &pf[i]) {
            if nonneg(&pf[i], env) {
                pf.remove(i);
                nf.remove(j);
                continue;
            }
        }
        i += 1;
    }
    let p = Expr::mul_all(pf);
    let n = Expr::mul_all(nf);
    if p == *pos_t && n.as_const() != Some(-1) && *neg == Expr::mul_all([Expr::val(-1), n.clone()])
    {
        // Nothing cancelled; avoid infinite recursion through le.
        return grouped_bound_lemma(&n, &p, env);
    }
    grouped_bound_lemma(&n, &p, env) || le(&n, &p, env)
}

/// The grouped thread-block bound: `max(x/g, 1) * min(g, x) <= x` for
/// positive `x`, `g` (both `Min`/`Max` argument orders accepted).
fn grouped_bound_lemma(a: &Expr, b: &Expr, env: &RangeEnv) -> bool {
    let ExprKind::Mul(fs) = a.kind() else {
        return false;
    };
    if fs.len() != 2 {
        return false;
    }
    let (mx, mn) = match (fs[0].kind(), fs[1].kind()) {
        (ExprKind::Max(..), ExprKind::Min(..)) => (&fs[0], &fs[1]),
        (ExprKind::Min(..), ExprKind::Max(..)) => (&fs[1], &fs[0]),
        _ => return false,
    };
    let ExprKind::Max(m1, m2) = mx.kind() else {
        return false;
    };
    let ExprKind::Min(n1, n2) = mn.kind() else {
        return false;
    };
    // One Max arm must be the literal 1, the other x/g.
    let div = if m1.is_const(1) {
        m2
    } else if m2.is_const(1) {
        m1
    } else {
        return false;
    };
    let ExprKind::FloorDiv(x, g) = div.kind() else {
        return false;
    };
    if x != b {
        return false;
    }
    let min_matches = (n1 == g && n2 == x) || (n2 == g && n1 == x);
    min_matches && pos(x, env) && pos(g, env)
}

/// Proves `e > 0`. Depth-0 verdicts are memoized (see [`nonneg`]).
pub(crate) fn pos(e: &Expr, env: &RangeEnv) -> bool {
    if at_depth0() {
        let key = (env.id(), e.id().get());
        if let Some(v) = intern::prove_unary_get(key.0, key.1, FACT_POS) {
            return v;
        }
        let v = pos_uncached(e, env);
        intern::prove_unary_insert(key.0, key.1, FACT_POS, v);
        return v;
    }
    pos_uncached(e, env)
}

fn pos_uncached(e: &Expr, env: &RangeEnv) -> bool {
    if env.num_range(e).is_pos() {
        return true;
    }
    match e.kind() {
        ExprKind::Mul(ts) => ts.iter().all(|t| pos(t, env)),
        // x/d > 0 when d | x exactly and both are positive: x = d*(x/d)
        // with x >= 1 forces x/d >= 1 (e.g. K/BK >= 1 under exact tiling).
        ExprKind::FloorDiv(x, d) => env.divides(d, x) && pos(x, env) && pos(d, env),
        ExprKind::Min(a, b) => pos(a, env) && pos(b, env),
        ExprKind::Max(a, b) => {
            (pos(a, env) && nonneg(b, env))
                || (pos(b, env) && nonneg(a, env))
                || (pos(a, env) && pos(b, env))
        }
        ExprKind::Add(ts) => {
            // A sum is positive if all terms are non-negative and at least
            // one is positive.
            ts.iter().all(|t| nonneg(t, env)) && ts.iter().any(|t| pos(t, env))
        }
        ExprKind::Select(_, t, f) => pos(t, env) && pos(f, env),
        _ => false,
    }
}

/// Proves `e != 0`.
pub(crate) fn nonzero(e: &Expr, env: &RangeEnv) -> bool {
    env.num_range(e).is_nonzero() || pos(e, env)
}

/// Proves `a < b` (strict).
///
/// Tries, in order: numeric intervals, syntactic bound matching
/// (`x % b < b`, `range(0, b) < b`, declared symbol bounds), and the
/// symbolic comparison `upper_inclusive(a) <= b - 1` checked by
/// expand-and-cancel.
pub(crate) fn lt(a: &Expr, b: &Expr, env: &RangeEnv) -> bool {
    if at_depth0() {
        let key = (env.id(), a.id().get(), b.id().get());
        if let Some(v) = intern::prove_lt_get(key.0, key.1, key.2) {
            return v;
        }
        let v = lt_uncached(a, b, env);
        intern::prove_lt_insert(key.0, key.1, key.2, v);
        return v;
    }
    lt_uncached(a, b, env)
}

fn lt_uncached(a: &Expr, b: &Expr, env: &RangeEnv) -> bool {
    // Numeric fast path.
    let (ra, rb) = (env.num_range(a), env.num_range(b));
    if let (Some(ah), Some(bl)) = (ra.hi, rb.lo) {
        if ah < bl {
            return true;
        }
    }
    // Syntactic: a is a mod by exactly b, and b > 0.
    if let ExprKind::Mod(_, d) = a.kind() {
        if d == b && pos(b, env) {
            return true;
        }
    }
    // Syntactic: a is range(0, b).
    if let ExprKind::Range { lo, len, .. } = a.kind() {
        if lo.is_const(0) && len == b {
            return true;
        }
    }
    // Declared symbol bound: a's exclusive hi is syntactically b.
    if let ExprKind::Sym(s) = a.kind() {
        if let Some(bounds) = env.bounds(s) {
            if bounds.hi.as_ref() == Some(b) {
                return true;
            }
        }
    }
    // min(x, y) < b if either side is.
    if let ExprKind::Min(x, y) = a.kind() {
        if lt(x, b, env) || lt(y, b, env) {
            return true;
        }
    }
    // x / d < b when d > 0 and x < d*b (the quotient bound used to erase
    // the unflatten div of a flatten: e.g. (pid % (g*n)) / g < n).
    if let ExprKind::FloorDiv(x, d) = a.kind() {
        if pos(d, env) {
            let prod = Expr::mul_all([d.clone(), b.clone()]);
            let ok = with_depth(|| lt(x, &prod, env));
            if ok == Some(true) {
                return true;
            }
        }
    }
    // Symbolic bound: upper_inclusive(a) <= b - 1, i.e.
    // b - 1 - upper(a) >= 0 after expansion and cancellation. The
    // normalization re-enters the simplifier, which may query the prover
    // again; a depth guard bounds that mutual recursion.
    let ua = env.upper_inclusive(a);
    let ok = with_depth(|| {
        let diff = b - Expr::one() - ua;
        let norm = single_pass(&distribute(&diff), env);
        nonneg(&norm, env)
    });
    ok == Some(true)
}

thread_local! {
    static PROVE_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// True when the prover's mutual recursion with the simplifier is at
/// its top level (full depth budget). Only then are proof verdicts and
/// single-pass rewrites pure functions of their inputs, so only then
/// may they be served from (or stored into) the session memo tables.
pub(crate) fn at_depth0() -> bool {
    PROVE_DEPTH.with(|d| d.get() == 0)
}

/// Runs `f` with the recursion-depth counter incremented; returns `None`
/// (give up, unproved) beyond a fixed depth.
fn with_depth<T>(f: impl FnOnce() -> T) -> Option<T> {
    PROVE_DEPTH.with(|d| {
        if d.get() >= 6 {
            return None;
        }
        d.set(d.get() + 1);
        let r = f();
        d.set(d.get() - 1);
        Some(r)
    })
}

/// Proves `a <= b`.
pub(crate) fn le(a: &Expr, b: &Expr, env: &RangeEnv) -> bool {
    if a == b {
        return true;
    }
    lt(a, &(b + Expr::one()), env) || lt(a, b, env)
}

/// Proves `0 <= x < d` — the guard of Table II rules 2, 4, and 5.
pub(crate) fn in_half_open(x: &Expr, d: &Expr, env: &RangeEnv) -> bool {
    nonneg(x, env) && lt(x, d, env)
}

/// Proves the syntactic divisibility `d | e`: every additive term of `e`
/// contains `d` as a factor (or a constant multiple of a constant `d`).
/// Returns the quotient when successful.
pub(crate) fn div_exact(e: &Expr, d: &Expr, env: &RangeEnv) -> Option<Expr> {
    if !nonzero(d, env) {
        return None;
    }
    match e.kind() {
        ExprKind::Add(ts) => {
            let mut qs = Vec::with_capacity(ts.len());
            for t in ts {
                qs.push(divide_term_env(t, d, env)?);
            }
            Some(Expr::add_all(qs))
        }
        _ => divide_term_env(e, d, env),
    }
}

/// [`divide_term`] extended with declared divisibility facts: `x` divides
/// exactly when `env` records `d | x`, with quotient `x / d`; a product
/// containing such an `x` as a factor divides likewise.
fn divide_term_env(t: &Expr, d: &Expr, env: &RangeEnv) -> Option<Expr> {
    if let Some(q) = divide_term(t, d) {
        return Some(q);
    }
    if env.divides(d, t) {
        return Some(t.floor_div(d));
    }
    if let ExprKind::Mul(fs) = t.kind() {
        if let Some(pos) = fs.iter().position(|f| env.divides(d, f)) {
            let mut rest: Vec<Expr> = Vec::with_capacity(fs.len());
            for (i, f) in fs.iter().enumerate() {
                if i == pos {
                    rest.push(f.floor_div(d));
                } else {
                    rest.push(f.clone());
                }
            }
            return Some(Expr::mul_all(rest));
        }
    }
    None
}

/// Divides a single (non-`Add`) term by `d`, if `d` appears syntactically
/// as a factor (or divides the constant coefficient for constant `d`).
/// The quotient is exact by construction: `t == d * divide_term(t, d)`
/// as integers, so [`div_exact`] needs no environment conditions to use
/// it.
fn divide_term(t: &Expr, d: &Expr) -> Option<Expr> {
    if t == d {
        return Some(Expr::one());
    }
    // Declared divisibility is handled in `div_exact`, which has the
    // environment; here only syntactic structure is inspected.
    if let (Some(tv), Some(dv)) = (t.as_const(), d.as_const()) {
        if dv != 0 && tv % dv == 0 {
            return Some(Expr::val(tv / dv));
        }
        return None;
    }
    if let ExprKind::Mul(fs) = t.kind() {
        // Remove one occurrence of `d` among the factors…
        if let Some(pos) = fs.iter().position(|f| f == d) {
            let rest: Vec<Expr> = fs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != pos)
                .map(|(_, f)| f.clone())
                .collect();
            return Some(Expr::mul_all(rest));
        }
        // …or divide the constant coefficient when `d` is constant.
        if let Some(dv) = d.as_const() {
            if dv != 0 {
                if let Some(pos) = fs
                    .iter()
                    .position(|f| f.as_const().is_some_and(|c| c % dv == 0))
                {
                    let mut rest: Vec<Expr> = Vec::with_capacity(fs.len());
                    for (i, f) in fs.iter().enumerate() {
                        if i == pos {
                            let c = f.as_const().expect("checked above");
                            rest.push(Expr::val(c / dv));
                        } else {
                            rest.push(f.clone());
                        }
                    }
                    return Some(Expr::mul_all(rest));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_idx() -> RangeEnv {
        let mut env = RangeEnv::new();
        env.set_bounds("i", Expr::val(0), Expr::sym("n"));
        env.set_bounds("j", Expr::val(0), Expr::sym("m"));
        env.assume_pos("n");
        env.assume_pos("m");
        env
    }

    #[test]
    fn nonneg_of_index_arith() {
        let env = env_idx();
        let e = Expr::sym("i") * Expr::sym("m") + Expr::sym("j");
        assert!(nonneg(&e, &env));
    }

    #[test]
    fn pos_of_product_of_sizes() {
        let env = env_idx();
        assert!(pos(&(Expr::sym("n") * Expr::sym("m")), &env));
    }

    #[test]
    fn lt_mod_divisor() {
        let env = env_idx();
        let e = Expr::sym("i").rem(&Expr::sym("m"));
        assert!(lt(&e, &Expr::sym("m"), &env));
    }

    #[test]
    fn lt_declared_bound() {
        let env = env_idx();
        assert!(lt(&Expr::sym("i"), &Expr::sym("n"), &env));
    }

    #[test]
    fn lt_flattened_index_below_product() {
        let env = env_idx();
        // i*m + j < n*m
        let e = Expr::sym("i") * Expr::sym("m") + Expr::sym("j");
        let bound = Expr::sym("n") * Expr::sym("m");
        assert!(lt(&e, &bound, &env));
    }

    #[test]
    fn lt_range_len() {
        let env = RangeEnv::new();
        let r = Expr::range(Expr::zero(), Expr::sym("BM"), 0, 2);
        assert!(lt(&r, &Expr::sym("BM"), &env));
    }

    #[test]
    fn not_provable_when_unknown() {
        let env = RangeEnv::new();
        assert!(!lt(&Expr::sym("x"), &Expr::sym("y"), &env));
        assert!(!nonneg(&Expr::sym("x"), &env));
    }

    #[test]
    fn divide_exact_extracts_quotient() {
        let env = env_idx();
        let d = Expr::sym("m");
        // m*i + 2*m  ->  i + 2
        let e = Expr::sym("m") * Expr::sym("i") + Expr::val(2) * Expr::sym("m");
        let q = div_exact(&e, &d, &env).expect("divisible");
        assert_eq!(q, Expr::sym("i") + Expr::val(2));
    }

    #[test]
    fn divide_exact_constant() {
        let mut env = RangeEnv::new();
        env.assume_pos("x");
        let e = Expr::val(6) * Expr::sym("x");
        let q = div_exact(&e, &Expr::val(3), &env).expect("divisible");
        assert_eq!(q, Expr::val(2) * Expr::sym("x"));
    }

    #[test]
    fn divide_exact_fails_on_remainder() {
        let env = env_idx();
        let e = Expr::sym("m") * Expr::sym("i") + Expr::sym("j");
        assert!(div_exact(&e, &Expr::sym("m"), &env).is_none());
    }

    #[test]
    fn in_half_open_for_mod() {
        let env = env_idx();
        let x = Expr::sym("i").rem(&Expr::sym("m"));
        assert!(in_half_open(&x, &Expr::sym("m"), &env));
    }
}
