//! Tile permutations: the `RegP` and `GenP` building blocks (Fig. 3/4).
//!
//! * [`Perm::reg`] — a *regular* permutation `σ` of a tile's **dimensions**
//!   (e.g. `[2,1]` transposes a 2-D tile);
//! * [`Perm::gen`] — a *general* user-defined bijection of a tile's
//!   **elements**, given as forward/inverse closures, with optional
//!   symbolic counterparts for code generation.
//!
//! Both expose the `apply` / `inv` / `dims` interface of Fig. 4.

use std::fmt;
use std::sync::Arc;

use lego_expr::Expr;

use crate::error::{LayoutError, Result};
use crate::shape::{flatten, flatten_sym, unflatten, unflatten_sym, Ix, Shape};

/// Concrete forward function of a `GenP`: multi-dim index → flat offset.
pub type GenFwd = Arc<dyn Fn(&[Ix]) -> Ix + Send + Sync>;
/// Concrete inverse function of a `GenP`: flat offset → multi-dim index.
pub type GenInv = Arc<dyn Fn(Ix) -> Vec<Ix> + Send + Sync>;
/// Symbolic forward function of a `GenP`.
pub type GenFwdSym = Arc<dyn Fn(&[Expr]) -> Expr + Send + Sync>;
/// Symbolic inverse function of a `GenP`.
pub type GenInvSym = Arc<dyn Fn(&Expr) -> Vec<Expr> + Send + Sync>;

/// The function bundle of a general permutation.
#[derive(Clone)]
pub struct GenFns {
    /// The bijection's name (used in errors, `Debug` and layout keys).
    ///
    /// **Identity contract:** equal names on equal tiles must denote
    /// equal concrete bijections, so a name carries every parameter
    /// the map depends on beyond the tile (`morton8`,
    /// `block_cyclic_rows(8x4,p=2,b=2)`). [`Layout::key`](crate::Layout::key)
    /// renders a `GenP` by its tile and name, and the traffic memo and
    /// its persisted sidecar rows are keyed by that rendering, so two
    /// closures sharing a name on one tile would share a memoized
    /// trace. Different names for one map are allowed; they only cost
    /// a duplicate trace.
    pub name: String,
    /// Concrete forward bijection.
    pub fwd: GenFwd,
    /// Concrete inverse bijection.
    pub inv: GenInv,
    /// Symbolic forward bijection, if expressible.
    pub fwd_sym: Option<GenFwdSym>,
    /// Symbolic inverse bijection, if expressible.
    pub inv_sym: Option<GenInvSym>,
}

impl fmt::Debug for GenFns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GenFns")
            .field("name", &self.name)
            .field("fwd_sym", &self.fwd_sym.is_some())
            .field("inv_sym", &self.inv_sym.is_some())
            .finish()
    }
}

/// One permutation level inside an [`OrderBy`](crate::OrderBy).
#[derive(Clone, Debug)]
pub enum Perm {
    /// `RegP(tile, σ)` — permute tile *dimensions* by the 1-based constant
    /// permutation `σ`.
    Reg {
        /// Tile shape in logical order.
        tile: Shape,
        /// 1-based permutation of `1..=rank` ("gather": output axis `j`
        /// takes logical axis `σ[j]`).
        sigma: Vec<usize>,
    },
    /// `GenP(tile, f, f⁻¹)` — permute tile *elements* by a user bijection.
    Gen {
        /// Tile shape in logical order.
        tile: Shape,
        /// The forward/inverse function bundle.
        fns: GenFns,
    },
}

impl Perm {
    /// Builds a `RegP`, validating that `sigma` is a 1-based permutation
    /// of the tile's axes.
    ///
    /// # Errors
    ///
    /// [`LayoutError::InvalidPermutation`] if `sigma` is not a permutation
    /// of `1..=rank`; [`LayoutError::Empty`] for rank-0 tiles.
    pub fn reg(tile: impl Into<Shape>, sigma: impl Into<Vec<usize>>) -> Result<Perm> {
        let tile = tile.into();
        let sigma = sigma.into();
        let d = tile.rank();
        if d == 0 {
            return Err(LayoutError::Empty("RegP tile"));
        }
        let mut seen = vec![false; d];
        let valid = sigma.len() == d
            && sigma.iter().all(|&s| {
                if s >= 1 && s <= d && !seen[s - 1] {
                    seen[s - 1] = true;
                    true
                } else {
                    false
                }
            });
        if !valid {
            return Err(LayoutError::InvalidPermutation { sigma, rank: d });
        }
        Ok(Perm::Reg { tile, sigma })
    }

    /// Builds a `GenP` from a tile shape and function bundle.
    ///
    /// The bijectivity of `fns` is the caller's responsibility (as in the
    /// paper §III-B(a)); [`crate::check::check_genp_bijective`] can verify
    /// it exhaustively for constant tiles.
    ///
    /// # Errors
    ///
    /// [`LayoutError::Empty`] for rank-0 tiles.
    pub fn gen(tile: impl Into<Shape>, fns: GenFns) -> Result<Perm> {
        let tile = tile.into();
        if tile.rank() == 0 {
            return Err(LayoutError::Empty("GenP tile"));
        }
        Ok(Perm::Gen { tile, fns })
    }

    /// The tile shape in logical order (`dims()` of Fig. 4).
    pub fn tile(&self) -> &Shape {
        match self {
            Perm::Reg { tile, .. } | Perm::Gen { tile, .. } => tile,
        }
    }

    /// Tile rank.
    pub fn rank(&self) -> usize {
        self.tile().rank()
    }

    /// Concrete `apply`: logical tile index → flat offset within the tile.
    ///
    /// # Errors
    ///
    /// Rank mismatches, out-of-bounds coordinates, and symbolic tiles are
    /// reported as [`LayoutError`]s.
    pub fn apply_c(&self, idx: &[Ix]) -> Result<Ix> {
        if idx.len() != self.rank() {
            return Err(LayoutError::RankMismatch {
                expected: self.rank(),
                got: idx.len(),
            });
        }
        match self {
            Perm::Reg { tile, sigma } => {
                let dims = tile.dims_const()?;
                let pd = gather(&dims, sigma);
                let pi = gather(idx, sigma);
                flatten(&pd, &pi)
            }
            Perm::Gen { tile, fns } => {
                let dims = tile.dims_const()?;
                for (axis, (&i, &n)) in idx.iter().zip(&dims).enumerate() {
                    if i < 0 || i >= n {
                        return Err(LayoutError::IndexOutOfBounds {
                            index: i,
                            size: n,
                            axis,
                        });
                    }
                }
                Ok((fns.fwd)(idx))
            }
        }
    }

    /// Concrete `inv`: flat offset within the tile → logical tile index.
    ///
    /// # Errors
    ///
    /// Out-of-bounds offsets and symbolic tiles are reported.
    pub fn inv_c(&self, flat: Ix) -> Result<Vec<Ix>> {
        match self {
            Perm::Reg { tile, sigma } => {
                let dims = tile.dims_const()?;
                let pd = gather(&dims, sigma);
                let pi = unflatten(&pd, flat)?;
                Ok(scatter(&pi, sigma))
            }
            Perm::Gen { tile, fns } => {
                let size = tile.size_const()?;
                if flat < 0 || flat >= size {
                    return Err(LayoutError::FlatOutOfBounds { flat, size });
                }
                Ok((fns.inv)(flat))
            }
        }
    }

    /// Symbolic `apply`.
    ///
    /// # Errors
    ///
    /// [`LayoutError::MissingSymbolicFn`] for a `GenP` without a symbolic
    /// forward function; rank mismatches otherwise.
    pub fn apply_sym(&self, idx: &[Expr]) -> Result<Expr> {
        if idx.len() != self.rank() {
            return Err(LayoutError::RankMismatch {
                expected: self.rank(),
                got: idx.len(),
            });
        }
        match self {
            Perm::Reg { tile, sigma } => {
                let pd = gather(tile.dims(), sigma);
                let pi = gather(idx, sigma);
                flatten_sym(&pd, &pi)
            }
            Perm::Gen { fns, .. } => match &fns.fwd_sym {
                Some(f) => Ok(f(idx)),
                None => Err(LayoutError::MissingSymbolicFn {
                    name: fns.name.clone(),
                }),
            },
        }
    }

    /// Symbolic `inv`.
    ///
    /// # Errors
    ///
    /// [`LayoutError::MissingSymbolicFn`] for a `GenP` without a symbolic
    /// inverse.
    pub fn inv_sym(&self, flat: &Expr) -> Result<Vec<Expr>> {
        match self {
            Perm::Reg { tile, sigma } => {
                let pd = gather(tile.dims(), sigma);
                let pi = unflatten_sym(&pd, flat);
                Ok(scatter(&pi, sigma))
            }
            Perm::Gen { fns, .. } => match &fns.inv_sym {
                Some(f) => Ok(f(flat)),
                None => Err(LayoutError::MissingSymbolicFn {
                    name: fns.name.clone(),
                }),
            },
        }
    }
}

/// Gather `x` by the 1-based permutation: `out[j] = x[σ[j]-1]`.
pub(crate) fn gather<T: Clone>(x: &[T], sigma: &[usize]) -> Vec<T> {
    sigma.iter().map(|&s| x[s - 1].clone()).collect()
}

/// Scatter `x` by the 1-based permutation (the inverse of [`gather`]):
/// `out[σ[j]-1] = x[j]`.
pub(crate) fn scatter<T: Clone + Default>(x: &[T], sigma: &[usize]) -> Vec<T> {
    let mut out = vec![T::default(); x.len()];
    for (j, &s) in sigma.iter().enumerate() {
        out[s - 1] = x[j].clone();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_transpose_2d() {
        // RegP([2,3], [2,1]) on a 2x3 tile: (i,j) -> j*2 + i.
        let p = Perm::reg([2i64, 3], [2usize, 1]).unwrap();
        assert_eq!(p.apply_c(&[0, 0]).unwrap(), 0);
        assert_eq!(p.apply_c(&[1, 0]).unwrap(), 1);
        assert_eq!(p.apply_c(&[0, 1]).unwrap(), 2);
        assert_eq!(p.apply_c(&[1, 2]).unwrap(), 5);
    }

    #[test]
    fn reg_identity_is_row_major() {
        let p = Perm::reg([4i64, 5], [1usize, 2]).unwrap();
        assert_eq!(p.apply_c(&[2, 3]).unwrap(), 13);
    }

    #[test]
    fn reg_roundtrip_all_elements() {
        let p = Perm::reg([2i64, 3, 4], [3usize, 1, 2]).unwrap();
        for f in 0..24 {
            let idx = p.inv_c(f).unwrap();
            assert_eq!(p.apply_c(&idx).unwrap(), f);
        }
    }

    #[test]
    fn reg_is_bijection() {
        let p = Perm::reg([3i64, 4], [2usize, 1]).unwrap();
        let mut seen = [false; 12];
        for i in 0..3 {
            for j in 0..4 {
                let f = p.apply_c(&[i, j]).unwrap() as usize;
                assert!(!seen[f], "duplicate flat {f}");
                seen[f] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn invalid_sigma_rejected() {
        assert!(Perm::reg([2i64, 2], [1usize, 1]).is_err());
        assert!(Perm::reg([2i64, 2], [0usize, 1]).is_err());
        assert!(Perm::reg([2i64, 2], [1usize, 3]).is_err());
        assert!(Perm::reg([2i64, 2], [1usize]).is_err());
    }

    #[test]
    fn reg_bounds_checked() {
        let p = Perm::reg([2i64, 3], [1usize, 2]).unwrap();
        assert!(p.apply_c(&[2, 0]).is_err());
        assert!(p.inv_c(6).is_err());
        assert!(p.inv_c(-1).is_err());
    }

    #[test]
    fn gen_reverse_perm() {
        // The paper's Fig. 2 inner permutation: reverse both dims of a
        // [n1, n2] tile.
        let (n1, n2) = (3i64, 2i64);
        let fns = GenFns {
            name: "reverse".into(),
            fwd: Arc::new(move |i: &[Ix]| (n1 - 1 - i[0]) * n2 + (n2 - 1 - i[1])),
            inv: Arc::new(move |f: Ix| {
                let r = n1 * n2 - 1 - f;
                vec![r / n2, r % n2]
            }),
            fwd_sym: None,
            inv_sym: None,
        };
        let p = Perm::gen([3i64, 2], fns).unwrap();
        assert_eq!(p.apply_c(&[0, 0]).unwrap(), 5);
        assert_eq!(p.apply_c(&[2, 1]).unwrap(), 0);
        for f in 0..6 {
            assert_eq!(p.apply_c(&p.inv_c(f).unwrap()).unwrap(), f);
        }
    }

    #[test]
    fn gen_without_symbolic_reports_missing() {
        let fns = GenFns {
            name: "opaque".into(),
            fwd: Arc::new(|i: &[Ix]| i[0]),
            inv: Arc::new(|f: Ix| vec![f]),
            fwd_sym: None,
            inv_sym: None,
        };
        let p = Perm::gen([4i64], fns).unwrap();
        assert!(matches!(
            p.apply_sym(&[Expr::sym("i")]),
            Err(LayoutError::MissingSymbolicFn { .. })
        ));
    }

    #[test]
    fn symbolic_reg_matches_concrete() {
        use lego_expr::{eval, Bindings};
        let p = Perm::reg([3i64, 4], [2usize, 1]).unwrap();
        let e = p.apply_sym(&[Expr::sym("i"), Expr::sym("j")]).unwrap();
        let mut bind = Bindings::new();
        for i in 0..3 {
            for j in 0..4 {
                bind.insert("i".into(), i);
                bind.insert("j".into(), j);
                assert_eq!(eval(&e, &bind).unwrap(), p.apply_c(&[i, j]).unwrap());
            }
        }
    }

    #[test]
    fn gather_scatter_inverse() {
        let sigma = [3usize, 1, 2];
        let x = [10i64, 20, 30];
        let g = gather(&x, &sigma);
        assert_eq!(g, vec![30, 10, 20]);
        assert_eq!(scatter(&g, &sigma), x.to_vec());
    }
}
