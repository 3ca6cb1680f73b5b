//! Block-cyclic distribution as a permutation (1-D).
//!
//! The ScaLAPACK/HPF distribution the paper's related work (§VI-e)
//! connects layouts to: element `i` of a length `p·b·c` space goes to
//! "processor" `(i / b) % p`, block slot `(i / b) / p`, offset `i % b` —
//! laid out processor-major. Expressible in LEGO as a stripmine +
//! interchange, provided here as a ready-made `GenP` with symbolic
//! forms.

use std::sync::Arc;

use lego_expr::Expr;

use crate::error::{LayoutError, Result};
use crate::perm::{GenFns, Perm};
use crate::shape::Ix;

/// Builds the block-cyclic `GenP` for `p` processors, block size `b`,
/// and `c` cycles (total length `p*b*c`).
///
/// # Errors
///
/// [`LayoutError::Unsupported`] for non-positive parameters.
///
/// # Examples
///
/// ```
/// use lego_core::perms::block_cyclic;
/// // 2 processors, blocks of 2, 2 cycles: [0,1,2,3,4,5,6,7] distributes
/// // as P0:[0,1,4,5] P1:[2,3,6,7].
/// let p = block_cyclic(2, 2, 2)?;
/// assert_eq!(p.apply_c(&[4])?, 2); // element 4 = P0's second block
/// assert_eq!(p.apply_c(&[2])?, 4); // element 2 = P1's first block
/// # Ok::<(), lego_core::LayoutError>(())
/// ```
pub fn block_cyclic(p: Ix, b: Ix, c: Ix) -> Result<Perm> {
    if p <= 0 || b <= 0 || c <= 0 {
        return Err(LayoutError::Unsupported(
            "block-cyclic parameters must be positive",
        ));
    }
    let n = p * b * c;
    let fns = GenFns {
        name: format!("block_cyclic(p={p},b={b},c={c})"),
        fwd: Arc::new(move |idx: &[Ix]| bc_fwd(idx[0], p, b, c)),
        inv: Arc::new(move |f: Ix| vec![bc_inv(f, p, b, c)]),
        fwd_sym: Some(Arc::new(move |idx: &[Expr]| bc_fwd_sym(&idx[0], p, b, c))),
        inv_sym: Some(Arc::new(move |f: &Expr| vec![bc_inv_sym(f, p, b, c)])),
    };
    Perm::gen([n], fns)
}

/// The scalar block-cyclic forward map (`p` processors, block `b`,
/// `c` cycles), shared by [`block_cyclic`] and the rank-2 wrappers.
fn bc_fwd(i: Ix, p: Ix, b: Ix, c: Ix) -> Ix {
    let proc = (i / b) % p;
    let slot = (i / b) / p;
    let off = i % b;
    (proc * c + slot) * b + off
}

/// The scalar block-cyclic inverse map.
fn bc_inv(f: Ix, p: Ix, b: Ix, c: Ix) -> Ix {
    let off = f % b;
    let slot = (f / b) % c;
    let proc = (f / b) / c;
    (slot * p + proc) * b + off
}

/// Symbolic block-cyclic forward map with expression-valued parameters
/// — the single definition of the distribution, also usable with
/// symbolic `p`/`b`/`c` (e.g. `c = nt_m // (p·b)` in tuned kernels).
pub fn block_cyclic_fwd_sym(i: &Expr, p: &Expr, b: &Expr, c: &Expr) -> Expr {
    let proc = i.floor_div(b).rem(p);
    let slot = i.floor_div(b).floor_div(p);
    let off = i.rem(b);
    (proc * c + slot) * b + off
}

/// Symbolic block-cyclic inverse map with expression-valued parameters.
pub fn block_cyclic_inv_sym(f: &Expr, p: &Expr, b: &Expr, c: &Expr) -> Expr {
    let off = f.rem(b);
    let slot = f.floor_div(b).rem(c);
    let proc = f.floor_div(b).floor_div(c);
    (slot * p + proc) * b + off
}

/// Concrete-parameter wrapper over [`block_cyclic_fwd_sym`].
fn bc_fwd_sym(i: &Expr, p: Ix, b: Ix, c: Ix) -> Expr {
    block_cyclic_fwd_sym(i, &Expr::val(p), &Expr::val(b), &Expr::val(c))
}

/// Concrete-parameter wrapper over [`block_cyclic_inv_sym`].
fn bc_inv_sym(f: &Expr, p: Ix, b: Ix, c: Ix) -> Expr {
    block_cyclic_inv_sym(f, &Expr::val(p), &Expr::val(b), &Expr::val(c))
}

/// The name of a rank-2 block-cyclic `GenP`. With one processor
/// (`p = 1`) or one cycle (`c = 1`) the distribution is the identity,
/// whatever the block size, so every such parameter choice gets the one
/// name `{base}({rows}x{cols},identity)` and layout keys that differ
/// only there coincide. Other coincidences keep their own names:
/// `block_cyclic_elems(t×t, p=t, b=1)` is the column-major transpose a
/// `RegP` also spells, and `block_cyclic_rows(2x2,identity)` is
/// `morton2`.
fn bc_name(base: &str, rows: Ix, cols: Ix, p: Ix, b: Ix, c: Ix) -> String {
    if p == 1 || c == 1 {
        format!("{base}({rows}x{cols},identity)")
    } else {
        format!("{base}({rows}x{cols},p={p},b={b})")
    }
}

/// Rank-2 block-cyclic over the *row* axis: `(i, j) → bc(i)·cols + j`.
///
/// Distributes the rows of a `rows×cols` space block-cyclically while
/// keeping each row contiguous — the thread-block schedule variant of
/// the §VI-e distribution (used by the `lego-tune` matmul search).
///
/// # Errors
///
/// [`LayoutError::Unsupported`] unless `p·b` divides `rows` and all
/// parameters are positive.
pub fn block_cyclic_rows(rows: Ix, cols: Ix, p: Ix, b: Ix) -> Result<Perm> {
    if p <= 0 || b <= 0 || rows <= 0 || cols <= 0 || rows % (p * b) != 0 {
        return Err(LayoutError::Unsupported(
            "block_cyclic_rows requires positive parameters with p*b | rows",
        ));
    }
    let c = rows / (p * b);
    let fns = GenFns {
        name: bc_name("block_cyclic_rows", rows, cols, p, b, c),
        fwd: Arc::new(move |idx: &[Ix]| bc_fwd(idx[0], p, b, c) * cols + idx[1]),
        inv: Arc::new(move |f: Ix| vec![bc_inv(f / cols, p, b, c), f % cols]),
        fwd_sym: Some(Arc::new(move |idx: &[Expr]| {
            bc_fwd_sym(&idx[0], p, b, c) * Expr::val(cols) + &idx[1]
        })),
        inv_sym: Some(Arc::new(move |f: &Expr| {
            vec![
                bc_inv_sym(&f.floor_div(&Expr::val(cols)), p, b, c),
                f.rem(&Expr::val(cols)),
            ]
        })),
    };
    Perm::gen([rows, cols], fns)
}

/// Rank-2 block-cyclic over the *flattened elements* of a `rows×cols`
/// tile: `(i, j) → bc(i·cols + j)`.
///
/// Scatters consecutive elements across "processors" — a shared-memory
/// staging candidate in the `lego-tune` transpose search.
///
/// # Errors
///
/// [`LayoutError::Unsupported`] unless `p·b` divides `rows·cols` and
/// all parameters are positive.
pub fn block_cyclic_elems(rows: Ix, cols: Ix, p: Ix, b: Ix) -> Result<Perm> {
    if p <= 0 || b <= 0 || rows <= 0 || cols <= 0 || (rows * cols) % (p * b) != 0 {
        return Err(LayoutError::Unsupported(
            "block_cyclic_elems requires positive parameters with p*b | rows*cols",
        ));
    }
    let c = rows * cols / (p * b);
    let fns = GenFns {
        name: bc_name("block_cyclic_elems", rows, cols, p, b, c),
        fwd: Arc::new(move |idx: &[Ix]| bc_fwd(idx[0] * cols + idx[1], p, b, c)),
        inv: Arc::new(move |f: Ix| {
            let i = bc_inv(f, p, b, c);
            vec![i / cols, i % cols]
        }),
        fwd_sym: Some(Arc::new(move |idx: &[Expr]| {
            bc_fwd_sym(&(&idx[0] * Expr::val(cols) + &idx[1]), p, b, c)
        })),
        inv_sym: Some(Arc::new(move |f: &Expr| {
            let i = bc_inv_sym(f, p, b, c);
            vec![i.floor_div(&Expr::val(cols)), i.rem(&Expr::val(cols))]
        })),
    };
    Perm::gen([rows, cols], fns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_example() {
        // p=2, b=3, c=2: blocks 0..4 go P0,P1,P0,P1.
        let p = block_cyclic(2, 3, 2).unwrap();
        // Element 0..3 (block 0) -> P0 slot 0 -> positions 0..3.
        assert_eq!(p.apply_c(&[0]).unwrap(), 0);
        assert_eq!(p.apply_c(&[2]).unwrap(), 2);
        // Block 1 (elements 3..6) -> P1 slot 0 -> positions 6..9.
        assert_eq!(p.apply_c(&[3]).unwrap(), 6);
        // Block 2 (elements 6..9) -> P0 slot 1 -> positions 3..6.
        assert_eq!(p.apply_c(&[6]).unwrap(), 3);
    }

    #[test]
    fn bijective_various_shapes() {
        for (p_, b, c) in [(2i64, 2i64, 2i64), (3, 4, 2), (4, 1, 5), (1, 7, 3)] {
            let perm = block_cyclic(p_, b, c).unwrap();
            crate::check::check_genp_bijective(&perm).unwrap();
        }
    }

    #[test]
    fn symbolic_matches_concrete() {
        use lego_expr::{eval, Bindings};
        let perm = block_cyclic(3, 2, 4).unwrap();
        let e = perm.apply_sym(&[Expr::sym("i")]).unwrap();
        let inv = perm.inv_sym(&Expr::sym("f")).unwrap();
        let mut bind = Bindings::new();
        for i in 0..24 {
            bind.insert("i".into(), i);
            bind.insert("f".into(), i);
            assert_eq!(eval(&e, &bind).unwrap(), perm.apply_c(&[i]).unwrap());
            assert_eq!(eval(&inv[0], &bind).unwrap(), perm.inv_c(i).unwrap()[0]);
        }
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(block_cyclic(0, 2, 2).is_err());
        assert!(block_cyclic(2, -1, 2).is_err());
    }

    #[test]
    fn rows_variant_is_bijective_and_row_contiguous() {
        let perm = block_cyclic_rows(8, 3, 2, 2).unwrap();
        crate::check::check_genp_bijective(&perm).unwrap();
        // Each row stays contiguous: (i, j) and (i, j+1) are adjacent.
        for i in 0..8 {
            let a = perm.apply_c(&[i, 0]).unwrap();
            let b = perm.apply_c(&[i, 1]).unwrap();
            assert_eq!(b, a + 1);
        }
    }

    #[test]
    fn elems_variant_is_bijective() {
        let perm = block_cyclic_elems(4, 4, 2, 2).unwrap();
        crate::check::check_genp_bijective(&perm).unwrap();
    }

    #[test]
    fn rank2_symbolic_matches_concrete() {
        use lego_expr::{eval, Bindings};
        for perm in [
            block_cyclic_rows(8, 3, 2, 2).unwrap(),
            block_cyclic_elems(4, 6, 3, 2).unwrap(),
        ] {
            let e = perm.apply_sym(&[Expr::sym("i"), Expr::sym("j")]).unwrap();
            let inv = perm.inv_sym(&Expr::sym("f")).unwrap();
            let dims = perm.tile().dims_const().unwrap();
            let mut bind = Bindings::new();
            for i in 0..dims[0] {
                for j in 0..dims[1] {
                    bind.insert("i".into(), i);
                    bind.insert("j".into(), j);
                    assert_eq!(eval(&e, &bind).unwrap(), perm.apply_c(&[i, j]).unwrap());
                }
            }
            for f in 0..dims[0] * dims[1] {
                bind.insert("f".into(), f);
                let conc = perm.inv_c(f).unwrap();
                for (s, c) in inv.iter().zip(&conc) {
                    assert_eq!(eval(s, &bind).unwrap(), *c);
                }
            }
        }
    }

    /// Identity-valued parameter choices share one name; the rest keep
    /// theirs.
    #[test]
    fn identity_valued_rank2_variants_share_a_name() {
        let name = |perm: Perm| match perm {
            Perm::Gen { fns, .. } => fns.name,
            Perm::Reg { .. } => unreachable!("block-cyclic is a GenP"),
        };
        for (p_, b) in [(1, 1), (1, 2), (1, 8), (2, 4), (4, 2), (8, 1)] {
            let rows = block_cyclic_rows(8, 8, p_, b).unwrap();
            assert_eq!(
                name(rows),
                "block_cyclic_rows(8x8,identity)",
                "p={p_} b={b}"
            );
        }
        for (p_, b) in [(1, 4), (4, 16), (64, 1)] {
            let elems = block_cyclic_elems(8, 8, p_, b).unwrap();
            assert_eq!(
                name(elems),
                "block_cyclic_elems(8x8,identity)",
                "p={p_} b={b}"
            );
        }
        let rows = block_cyclic_rows(8, 8, 2, 2).unwrap();
        assert_eq!(name(rows), "block_cyclic_rows(8x8,p=2,b=2)");
        let elems = block_cyclic_elems(8, 8, 8, 1).unwrap();
        assert_eq!(name(elems), "block_cyclic_elems(8x8,p=8,b=1)");
    }

    #[test]
    fn rank2_invalid_params_rejected() {
        assert!(block_cyclic_rows(7, 3, 2, 2).is_err()); // 4 ∤ 7
        assert!(block_cyclic_elems(3, 3, 2, 2).is_err()); // 4 ∤ 9
    }
}
