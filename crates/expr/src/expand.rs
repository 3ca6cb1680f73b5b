//! Expression expansion: distributing products over sums.
//!
//! §IV-A of the paper evaluates whether *pre-expanding* index expressions
//! before simplification exposes more rewriting opportunities. Expansion
//! helped LUD and hurt NW, so LEGO picks the cheaper result by op count —
//! see [`crate::Engine::pick_cheaper`].

use crate::expr::{Expr, ExprKind};
use crate::intern;

/// Recursively distributes every product over sums, e.g.
/// `a*(b + c) → a*b + a*c`. Division, modulo, min/max, and select children
/// are expanded but not distributed through. Results are memoized per
/// interned node for the session (expansion is environment-free).
pub(crate) fn distribute(e: &Expr) -> Expr {
    let id = e.id().get();
    if let Some(hit) = intern::expand_get(id) {
        return hit;
    }
    let r = distribute_uncached(e);
    intern::expand_insert(id, r.clone());
    r
}

fn distribute_uncached(e: &Expr) -> Expr {
    match e.kind() {
        ExprKind::Const(_) | ExprKind::Sym(_) => e.clone(),
        ExprKind::Add(ts) => Expr::add_all(ts.iter().map(distribute)),
        ExprKind::Mul(ts) => {
            // Expand children first, then distribute pairwise.
            let mut acc: Vec<Expr> = vec![Expr::one()];
            for t in ts {
                let t = distribute(t);
                let addends: Vec<Expr> = match t.kind() {
                    ExprKind::Add(us) => us.clone(),
                    _ => vec![t.clone()],
                };
                let mut next = Vec::with_capacity(acc.len() * addends.len());
                for a in &acc {
                    for b in &addends {
                        next.push(a * b);
                    }
                }
                acc = next;
            }
            Expr::add_all(acc)
        }
        ExprKind::FloorDiv(a, b) => distribute(a).floor_div(&distribute(b)),
        ExprKind::Mod(a, b) => distribute(a).rem(&distribute(b)),
        ExprKind::Min(a, b) => distribute(a).min(&distribute(b)),
        ExprKind::Max(a, b) => distribute(a).max(&distribute(b)),
        ExprKind::Xor(a, b) => distribute(a).xor(&distribute(b)),
        ExprKind::Select(c, t, f) => Expr::select(c.clone(), distribute(t), distribute(f)),
        ExprKind::ISqrt(a) => distribute(a).isqrt(),
        ExprKind::Range {
            lo,
            len,
            axis,
            ndims,
        } => Expr::range(distribute(lo), distribute(len), *axis, *ndims),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributes_simple_product() {
        let (a, b, c) = (Expr::sym("a"), Expr::sym("b"), Expr::sym("c"));
        let e = &a * (&b + &c);
        assert_eq!(distribute(&e), &a * &b + &a * &c);
    }

    #[test]
    fn distributes_both_sides() {
        let (a, b, c, d) = (
            Expr::sym("a"),
            Expr::sym("b"),
            Expr::sym("c"),
            Expr::sym("d"),
        );
        let e = (&a + &b) * (&c + &d);
        let x = distribute(&e);
        assert_eq!(x, &a * &c + &a * &d + &b * &c + &b * &d);
    }

    #[test]
    fn does_not_distribute_through_div() {
        let (a, b, c) = (Expr::sym("a"), Expr::sym("b"), Expr::sym("c"));
        let e = (&a * (&b + &c)).floor_div(&Expr::sym("d"));
        let x = distribute(&e);
        // Numerator expands, but division is preserved.
        assert_eq!(x, (&a * &b + &a * &c).floor_div(&Expr::sym("d")));
    }

    #[test]
    fn expansion_preserves_value() {
        use crate::subst::{eval, Bindings};
        let e = (Expr::sym("a") + Expr::val(3)) * (Expr::sym("b") + Expr::sym("a")) * Expr::val(2);
        let x = distribute(&e);
        let mut bind = Bindings::new();
        for (a, b) in [(0i64, 0i64), (5, -3), (17, 11), (-2, 9)] {
            bind.insert("a".into(), a);
            bind.insert("b".into(), b);
            assert_eq!(eval(&e, &bind).unwrap(), eval(&x, &bind).unwrap());
        }
    }
}
