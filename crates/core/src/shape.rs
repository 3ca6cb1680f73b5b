//! Shapes and the canonical bijections `B` / `B⁻¹`.
//!
//! The canonical bijection `B` flattens a multi-dimensional index into a
//! flat offset in row-major (inner-dimension-fastest) order, and `B⁻¹`
//! unflattens it back (Fig. 4 of the paper):
//!
//! ```text
//! B_{n1..nq}(i1..iq) = i1·(n2·…·nq) + … + i_{q-1}·n_q + i_q
//! ```
//!
//! Both a concrete (`i64`) and a symbolic ([`Expr`]) version are provided;
//! the symbolic one is the source of every `//` and `%` the simplifier
//! later erases.

use lego_expr::Expr;

use crate::error::{LayoutError, Result};

/// Concrete index/offset scalar used by the fast evaluation path.
pub type Ix = i64;

/// A dimension vector whose sizes are (possibly symbolic) expressions.
///
/// Constant shapes (`Shape::from([6, 4])`) support the concrete fast path;
/// symbolic shapes (`Shape::syms(["M", "K"])`) support code generation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Shape(Vec<Expr>);

impl Shape {
    /// Builds a shape from anything convertible to expressions.
    pub fn new<I, T>(dims: I) -> Shape
    where
        I: IntoIterator<Item = T>,
        T: Into<Expr>,
    {
        Shape(dims.into_iter().map(Into::into).collect())
    }

    /// A shape of named symbolic sizes.
    pub fn syms<'a, I: IntoIterator<Item = &'a str>>(names: I) -> Shape {
        Shape(names.into_iter().map(Expr::sym).collect())
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[Expr] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total element count as an expression.
    pub fn size(&self) -> Expr {
        Expr::mul_all(self.0.iter().cloned())
    }

    /// Concrete dimension sizes.
    ///
    /// # Errors
    ///
    /// [`LayoutError::NonConstDims`] if any size is symbolic.
    pub fn dims_const(&self) -> Result<Vec<Ix>> {
        self.0
            .iter()
            .map(|d| {
                d.as_const()
                    .ok_or_else(|| LayoutError::NonConstDims { dim: d.to_string() })
            })
            .collect()
    }

    /// Concrete total element count.
    ///
    /// # Errors
    ///
    /// [`LayoutError::NonConstDims`] if any size is symbolic.
    pub fn size_const(&self) -> Result<Ix> {
        Ok(self.dims_const()?.iter().product())
    }

    /// Concatenates two shapes.
    pub fn concat(&self, other: &Shape) -> Shape {
        let mut v = self.0.clone();
        v.extend(other.0.iter().cloned());
        Shape(v)
    }
}

impl<T: Into<Expr>, const N: usize> From<[T; N]> for Shape {
    fn from(dims: [T; N]) -> Shape {
        Shape::new(dims)
    }
}

impl From<Vec<Expr>> for Shape {
    fn from(dims: Vec<Expr>) -> Shape {
        Shape(dims)
    }
}

impl From<&[Expr]> for Shape {
    fn from(dims: &[Expr]) -> Shape {
        Shape(dims.to_vec())
    }
}

/// The canonical bijection `B`: flattens `idx` over `dims` (row-major).
///
/// # Errors
///
/// Rank mismatches and out-of-bounds coordinates are reported; bounds are
/// checked so that layout bugs surface at the point of error.
pub fn flatten(dims: &[Ix], idx: &[Ix]) -> Result<Ix> {
    if dims.len() != idx.len() {
        return Err(LayoutError::RankMismatch {
            expected: dims.len(),
            got: idx.len(),
        });
    }
    let mut flat: Ix = 0;
    for (axis, (&n, &i)) in dims.iter().zip(idx).enumerate() {
        if i < 0 || i >= n {
            return Err(LayoutError::IndexOutOfBounds {
                index: i,
                size: n,
                axis,
            });
        }
        flat = flat * n + i;
    }
    Ok(flat)
}

/// The canonical bijection `B⁻¹`: unflattens `flat` over `dims`.
///
/// # Errors
///
/// [`LayoutError::FlatOutOfBounds`] when `flat` is outside `0..size`.
pub fn unflatten(dims: &[Ix], flat: Ix) -> Result<Vec<Ix>> {
    let size: Ix = dims.iter().product();
    if flat < 0 || flat >= size {
        return Err(LayoutError::FlatOutOfBounds { flat, size });
    }
    let mut idx = vec![0; dims.len()];
    let mut rest = flat;
    for (slot, &n) in idx.iter_mut().zip(dims).rev() {
        *slot = rest % n;
        rest /= n;
    }
    Ok(idx)
}

/// Symbolic `B`: flattens symbolic coordinates over symbolic sizes.
/// No bounds checks are possible; the caller's [`lego_expr::RangeEnv`]
/// carries the range facts instead.
pub fn flatten_sym(dims: &[Expr], idx: &[Expr]) -> Result<Expr> {
    if dims.len() != idx.len() {
        return Err(LayoutError::RankMismatch {
            expected: dims.len(),
            got: idx.len(),
        });
    }
    let mut flat = Expr::zero();
    for (n, i) in dims.iter().zip(idx) {
        flat = flat * n + i;
    }
    Ok(flat)
}

/// Symbolic `B⁻¹`: unflattens a symbolic offset, producing one
/// div/mod pair per dimension (which the simplifier then erases where the
/// ranges allow).
pub fn unflatten_sym(dims: &[Expr], flat: &Expr) -> Vec<Expr> {
    let mut idx = vec![Expr::zero(); dims.len()];
    let mut rest = flat.clone();
    for (slot, n) in idx.iter_mut().zip(dims).rev() {
        *slot = rest.rem(n);
        rest = rest.floor_div(n);
    }
    idx
}

/// Appends `tag` and then each of `ints`, comma-terminated, to a memo
/// key. Integers are written by hand in zigzag hex (a key is rendered
/// for every priced candidate); tags are never hex digits, so a key
/// reads back unambiguously.
pub fn key_ints(out: &mut String, tag: char, ints: &[Ix]) {
    out.push(tag);
    for &v in ints {
        let z = ((v << 1) ^ (v >> 63)) as u64;
        let digits = (64 - z.leading_zeros()).div_ceil(4).max(1);
        let digit = |i: u32| char::from_digit((z >> (4 * i)) as u32 & 15, 16);
        out.extend((0..digits).rev().filter_map(digit));
        out.push(',');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_expr::{eval, Bindings};

    #[test]
    fn flatten_row_major() {
        // A[4,1] in a 6x4 view = 4*4 + 1 = 17 (paper Fig. 2).
        assert_eq!(flatten(&[6, 4], &[4, 1]).unwrap(), 17);
    }

    #[test]
    fn unflatten_inverts_flatten() {
        let dims = [2, 3, 2, 3];
        for flat in 0..36 {
            let idx = unflatten(&dims, flat).unwrap();
            assert_eq!(flatten(&dims, &idx).unwrap(), flat);
        }
    }

    #[test]
    fn flatten_bounds_checked() {
        assert!(matches!(
            flatten(&[6, 4], &[6, 0]),
            Err(LayoutError::IndexOutOfBounds { axis: 0, .. })
        ));
        assert!(matches!(
            flatten(&[6, 4], &[0, -1]),
            Err(LayoutError::IndexOutOfBounds { axis: 1, .. })
        ));
    }

    #[test]
    fn unflatten_bounds_checked() {
        assert!(matches!(
            unflatten(&[6, 4], 24),
            Err(LayoutError::FlatOutOfBounds { .. })
        ));
    }

    #[test]
    fn rank_mismatch_reported() {
        assert!(matches!(
            flatten(&[6, 4], &[1]),
            Err(LayoutError::RankMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn symbolic_matches_concrete() {
        let dims_c = [5i64, 7, 3];
        let dims_s: Vec<Expr> = dims_c.iter().map(|&d| Expr::val(d)).collect();
        let idx_s = [Expr::sym("a"), Expr::sym("b"), Expr::sym("c")];
        let flat_s = flatten_sym(&dims_s, &idx_s).unwrap();
        let mut bind = Bindings::new();
        for (a, b, c) in [(0i64, 0i64, 0i64), (4, 6, 2), (2, 3, 1)] {
            bind.insert("a".into(), a);
            bind.insert("b".into(), b);
            bind.insert("c".into(), c);
            assert_eq!(
                eval(&flat_s, &bind).unwrap(),
                flatten(&dims_c, &[a, b, c]).unwrap()
            );
        }
    }

    #[test]
    fn symbolic_unflatten_matches_concrete() {
        let dims_c = [4i64, 5];
        let dims_s = [Expr::val(4), Expr::val(5)];
        let flat = Expr::sym("f");
        let idx_s = unflatten_sym(&dims_s, &flat);
        let mut bind = Bindings::new();
        for f in 0..20 {
            bind.insert("f".into(), f);
            let idx_c = unflatten(&dims_c, f).unwrap();
            for (s, c) in idx_s.iter().zip(&idx_c) {
                assert_eq!(eval(s, &bind).unwrap(), *c);
            }
        }
    }

    #[test]
    fn shape_size() {
        let s = Shape::from([6, 4]);
        assert_eq!(s.size_const().unwrap(), 24);
        let sym = Shape::syms(["M", "K"]);
        assert!(sym.size_const().is_err());
        assert_eq!(sym.size(), Expr::sym("M") * Expr::sym("K"));
    }

    #[test]
    fn empty_shape_flattens_to_zero() {
        assert_eq!(flatten(&[], &[]).unwrap(), 0);
        assert_eq!(unflatten(&[], 0).unwrap(), Vec::<Ix>::new());
    }
}
