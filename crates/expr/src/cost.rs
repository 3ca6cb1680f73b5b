//! The arithmetic-operation cost model.
//!
//! §IV-A: "we use a simple cost model that counts operations in the
//! generated expression and selects the variant with the lowest count,
//! choosing the unexpanded form for NW and the expanded form for LUD."
//! [`crate::Engine::pick_cheaper`] implements exactly that selection,
//! and [`crate::Engine::op_count`] is also what Table IV reports
//! (arithmetic ops in user-visible code).

use crate::expr::{Cond, Expr, ExprKind};
use crate::intern;

/// Counts arithmetic operations in an expression: each n-ary sum/product
/// contributes `n-1`, every division/modulo/min/max/select/isqrt counts 1,
/// and comparisons inside conditions count 1 each. Leaves are free.
/// Counts are memoized per interned node for the session.
pub(crate) fn ops(e: &Expr) -> usize {
    let id = e.id().get();
    if let Some(n) = intern::opcount_get(id) {
        return n;
    }
    let n = ops_uncached(e);
    intern::opcount_insert(id, n);
    n
}

fn ops_uncached(e: &Expr) -> usize {
    match e.kind() {
        ExprKind::Const(_) | ExprKind::Sym(_) => 0,
        ExprKind::Add(ts) | ExprKind::Mul(ts) => ts.len() - 1 + ts.iter().map(ops).sum::<usize>(),
        ExprKind::FloorDiv(a, b) | ExprKind::Mod(a, b) => 1 + ops(a) + ops(b),
        ExprKind::Min(a, b) | ExprKind::Max(a, b) | ExprKind::Xor(a, b) => 1 + ops(a) + ops(b),
        ExprKind::Select(c, t, f) => 1 + cond_op_count(c) + ops(t) + ops(f),
        ExprKind::ISqrt(a) => 1 + ops(a),
        // A lane range is materialized by one `arange`; its bounds may
        // still contain arithmetic.
        ExprKind::Range { lo, len, .. } => ops(lo) + ops(len),
    }
}

/// Operation count of a condition (each comparison costs 1).
pub fn cond_op_count(c: &Cond) -> usize {
    match c {
        Cond::Cmp(_, a, b) => 1 + ops(a) + ops(b),
        Cond::All(cs) | Cond::Any(cs) => cs.iter().map(cond_op_count).sum(),
        Cond::Not(c) => cond_op_count(c),
    }
}

/// Which simplification strategy won in
/// [`crate::Engine::pick_cheaper`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// The expression was simplified without pre-expansion (NW-style).
    Unexpanded,
    /// The expression was expanded before simplification (LUD-style).
    Expanded,
}

/// The result of cost-based variant selection.
#[derive(Clone, Debug)]
pub struct CostChoice {
    /// The selected (cheaper) expression.
    pub expr: Expr,
    /// Which variant won.
    pub variant: Variant,
    /// Op count of the unexpanded-then-simplified variant.
    pub unexpanded_ops: usize,
    /// Op count of the expanded-then-simplified variant.
    pub expanded_ops: usize,
}

/// Selects between the simplified unexpanded form `plain` and the
/// simplified expanded form `expanded` by op count (ties prefer the
/// unexpanded form, which tends to preserve factored structure).
pub(crate) fn choose(plain: Expr, expanded: Expr) -> CostChoice {
    let (pc, ec) = (ops(&plain), ops(&expanded));
    if ec < pc {
        CostChoice {
            expr: expanded,
            variant: Variant::Expanded,
            unexpanded_ops: pc,
            expanded_ops: ec,
        }
    } else {
        CostChoice {
            expr: plain,
            variant: Variant::Unexpanded,
            unexpanded_ops: pc,
            expanded_ops: ec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    #[test]
    fn leaf_costs_zero() {
        assert_eq!(ops(&Expr::sym("x")), 0);
        assert_eq!(ops(&Expr::val(3)), 0);
    }

    #[test]
    fn nary_counts_n_minus_one() {
        let e = Expr::sym("a") + Expr::sym("b") + Expr::sym("c");
        assert_eq!(ops(&e), 2);
        let m = Expr::sym("a") * Expr::sym("b") * Expr::sym("c");
        assert_eq!(ops(&m), 2);
    }

    #[test]
    fn div_mod_count_one() {
        let e = Expr::sym("a").floor_div(&Expr::sym("b"));
        assert_eq!(ops(&e), 1);
        let m = Expr::sym("a").rem(&Expr::sym("b"));
        assert_eq!(ops(&m), 1);
    }

    #[test]
    fn pick_cheaper_prefers_factored_on_tie() {
        let eng = Engine::new();
        let e = Expr::sym("a") * (Expr::sym("b") + Expr::sym("c"));
        let choice = eng.pick_cheaper(&e);
        assert_eq!(choice.variant, Variant::Unexpanded);
        assert_eq!(choice.unexpanded_ops, 2);
        assert_eq!(choice.expanded_ops, 3);
    }

    #[test]
    fn pick_cheaper_takes_expansion_when_it_cancels() {
        // a*(x + 1) - a*x collapses to a only after expansion.
        let eng = Engine::new();
        let a = Expr::sym("a");
        let x = Expr::sym("x");
        let e = &a * (&x + Expr::one()) - &a * &x;
        let choice = eng.pick_cheaper(&e);
        assert_eq!(choice.variant, Variant::Expanded);
        assert_eq!(choice.expr, a);
        assert_eq!(choice.expanded_ops, 0);
    }
}
