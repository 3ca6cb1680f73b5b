//! The unified pass API: one struct owning the environment, fronting
//! every expression pass.
//!
//! Downstream code constructs one [`Engine`] per environment and calls
//! its methods: simplification (the fixpoint rewriter over the paper's
//! Table II rules), proving, range analysis, op counting, expansion,
//! and variant selection.
//!
//! ```
//! use lego_expr::{Engine, Expr, RangeEnv};
//!
//! let mut env = RangeEnv::new();
//! env.set_bounds("i", Expr::val(0), Expr::sym("n"));
//! env.set_bounds("j", Expr::val(0), Expr::sym("m"));
//! env.assume_pos("n");
//! env.assume_pos("m");
//!
//! let flat = Expr::sym("i") * Expr::sym("m") + Expr::sym("j");
//! let back = flat.floor_div(&Expr::sym("m"));
//!
//! let eng = Engine::with_env(env);
//! assert_eq!(eng.simplify(&back), Expr::sym("i"));
//! ```

use crate::cost::{self, CostChoice};
use crate::expand::distribute;
use crate::expr::Expr;
use crate::prove;
use crate::range::{NumRange, RangeEnv};
use crate::rules::RuleStats;
use crate::simplify::{fixpoint_simplify, fixpoint_simplify_stats};

/// The single entry point for expression passes: simplification,
/// proving, range analysis, op counting, expansion, and variant
/// selection — owning the [`RangeEnv`] they are conditioned on.
///
/// Engines are cheap to construct and clone (the environment is the
/// only owned state; all memoization lives in the session-wide arena
/// tables of [`crate::intern`], keyed by environment id, so two engines
/// over equal environments share their memo entries).
#[derive(Clone, Debug, Default)]
pub struct Engine {
    env: RangeEnv,
}

impl Engine {
    /// An engine over an empty environment.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// An engine owning `env`.
    pub fn with_env(env: RangeEnv) -> Engine {
        Engine { env }
    }

    /// The environment the passes are conditioned on.
    pub fn env(&self) -> &RangeEnv {
        &self.env
    }

    /// Mutable access to the environment (bounds/divisibility updates).
    pub fn env_mut(&mut self) -> &mut RangeEnv {
        &mut self.env
    }

    /// Simplifies `e` to fixpoint under the Table II rules. Results are
    /// memoized per `(environment, node)` for the session.
    pub fn simplify(&self, e: &Expr) -> Expr {
        fixpoint_simplify(e, &self.env)
    }

    /// Simplifies `e` and reports which rules fired. Bypasses the
    /// session memo so the stats are a deterministic function of
    /// `(e, env)`.
    pub fn simplify_with_stats(&self, e: &Expr) -> (Expr, RuleStats) {
        fixpoint_simplify_stats(e, &self.env)
    }

    /// Proves `e >= 0` (sound, incomplete).
    pub fn prove_nonneg(&self, e: &Expr) -> bool {
        prove::nonneg(e, &self.env)
    }

    /// Proves `e > 0`.
    pub fn prove_pos(&self, e: &Expr) -> bool {
        prove::pos(e, &self.env)
    }

    /// Proves `e != 0`.
    pub fn prove_nonzero(&self, e: &Expr) -> bool {
        prove::nonzero(e, &self.env)
    }

    /// Proves `a < b` (strict).
    pub fn prove_lt(&self, a: &Expr, b: &Expr) -> bool {
        prove::lt(a, b, &self.env)
    }

    /// Proves `a <= b`.
    pub fn prove_le(&self, a: &Expr, b: &Expr) -> bool {
        prove::le(a, b, &self.env)
    }

    /// Proves `0 <= x < d` — the guard of Table II rules 2, 4, and 5.
    pub fn prove_in_half_open(&self, x: &Expr, d: &Expr) -> bool {
        prove::in_half_open(x, d, &self.env)
    }

    /// Proves the divisibility `d | e`, returning the quotient.
    pub fn divide_exact(&self, e: &Expr, d: &Expr) -> Option<Expr> {
        prove::div_exact(e, d, &self.env)
    }

    /// The numeric interval of `e` under the environment's bounds.
    pub fn num_range(&self, e: &Expr) -> NumRange {
        self.env.num_range(e)
    }

    /// Counts arithmetic operations in `e` (environment-free; memoized
    /// per node for the session).
    pub fn op_count(&self, e: &Expr) -> usize {
        cost::ops(e)
    }

    /// Recursively distributes products over sums (environment-free;
    /// memoized per node for the session).
    pub fn expand(&self, e: &Expr) -> Expr {
        distribute(e)
    }

    /// Simplifies `e` both ways — directly, and after full expansion —
    /// and returns the variant with the
    /// lower operation count (ties prefer the unexpanded form).
    pub fn pick_cheaper(&self, e: &Expr) -> CostChoice {
        let plain = self.simplify(e);
        let expanded = self.simplify(&distribute(e));
        cost::choose(plain, expanded)
    }
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
        env
    }

    /// The memoized and the stats-reporting simplify paths land on the
    /// same Table II form.
    #[test]
    fn strategies_agree_on_table2_forms() {
        let e = (Expr::sym("d") * Expr::sym("q") + Expr::sym("r")).rem(&Expr::sym("d"));
        let eng = Engine::with_env(env_tile());
        assert_eq!(eng.simplify(&e), Expr::sym("r"));
        assert_eq!(eng.simplify_with_stats(&e).0, Expr::sym("r"));
    }

    #[test]
    fn rewrite_stats_only_fire_destructive_rules() {
        let env = env_tile();
        let e = (Expr::sym("d") * Expr::sym("q") + Expr::sym("r")).rem(&Expr::sym("d"));
        let (_, st) = Engine::with_env(env).simplify_with_stats(&e);
        assert!(st.total() > 0);
        for (rule, n) in st.iter() {
            assert!(n > 0);
            assert!(RewriteRule::ALL.contains(&rule), "unknown rule {rule:?}");
        }
    }
}
