//! Compiled concrete layouts: a [`Layout`] lowered once into flat
//! lookup tables.
//!
//! [`Layout::apply_c`]/[`Layout::inv_c`] interpret the layout at every
//! call: they re-derive each level's constant dims and unflatten through
//! every `OrderBy`. That is the right reference semantics, but a trace
//! that maps every lane of every warp pays it millions of times. LEGO
//! lowers a layout once into index arithmetic; [`Layout::compile`] does
//! the concrete analogue — it tabulates the whole logical→physical map
//! into a [`ConcreteLayout`], so `apply` is a flatten plus one table
//! read and `inv` one table read plus an unflatten.
//!
//! Compilation tabulates each [`Perm`] once over its own tile, expands
//! every `OrderBy` level into a full table by mixed-radix composition of
//! its tile tables (no per-element division), and composes the levels
//! in order. Layouts whose map is the identity store no table at all.
//!
//! A compiled layout is what a trace indexes, never what names it: the
//! traffic memo keys a layout by its specification
//! ([`Layout::key`]), so a memo hit compiles nothing and only a miss
//! pays for the tables.

use crate::error::{LayoutError, Result};
use crate::group_by::Layout;
use crate::order_by::OrderBy;
use crate::perm::Perm;
use crate::shape::{flatten, unflatten, Ix};

/// A constant-shaped [`Layout`] compiled into lookup tables: a flat
/// forward table and its inverse (none when the map is the identity).
/// Built by [`Layout::compile`].
///
/// # Examples
///
/// ```
/// use lego_core::{Layout, OrderBy, Perm, perms};
///
/// # fn main() -> Result<(), lego_core::LayoutError> {
/// let layout = Layout::builder([6i64, 4])
///     .order_by(OrderBy::new([
///         Perm::reg([2i64, 2], [2usize, 1])?,
///         perms::reverse_perm(&[3, 2])?,
///     ])?)
///     .build()?;
/// let c = layout.compile()?;
/// assert_eq!(c.apply(&[4, 1])?, layout.apply_c(&[4, 1])?);
/// assert_eq!(c.inv(6)?, layout.inv_c(6)?);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ConcreteLayout {
    dims: Vec<Ix>,
    size: Ix,
    /// `(fwd, inv)`: `fwd[logical_flat] = physical`, `inv` its inverse;
    /// `None` when the map is the identity.
    tables: Option<(Vec<Ix>, Vec<Ix>)>,
}

impl Layout {
    /// Compiles this layout into a [`ConcreteLayout`]: one pass that
    /// tabulates the full logical→physical map, after which `apply` and
    /// `inv` are table lookups.
    ///
    /// # Errors
    ///
    /// [`LayoutError::NonConstDims`] for symbolic view or tile sizes,
    /// [`LayoutError::SizeMismatch`] when an `OrderBy` covers a
    /// different element count than the view, and, for a `GenP` whose
    /// closures are not a bijection, [`LayoutError::FlatOutOfBounds`]
    /// or [`LayoutError::Unsupported`].
    pub fn compile(&self) -> Result<ConcreteLayout> {
        let dims = self.view().dims_const()?;
        let size: Ix = dims.iter().product();
        if self.orders().is_empty() {
            return Ok(ConcreteLayout {
                dims,
                size,
                tables: None,
            });
        }
        let mut fwd: Vec<Ix> = Vec::new();
        for (position, ob) in self.orders().iter().enumerate() {
            let level = level_table(ob)?;
            if level.len() as Ix != size {
                return Err(LayoutError::SizeMismatch {
                    view: size,
                    order_by: level.len() as Ix,
                    position,
                });
            }
            if position == 0 {
                fwd = level;
            } else {
                for p in fwd.iter_mut() {
                    *p = level[*p as usize];
                }
            }
        }
        let tables = if fwd.iter().enumerate().all(|(i, &p)| p == i as Ix) {
            None
        } else {
            let mut inv = vec![-1; fwd.len()];
            for (logical, &p) in fwd.iter().enumerate() {
                let slot = &mut inv[p as usize];
                if *slot != -1 {
                    return Err(LayoutError::Unsupported(
                        "layout is not injective (duplicate flat position)",
                    ));
                }
                *slot = logical as Ix;
            }
            Some((fwd, inv))
        };
        Ok(ConcreteLayout { dims, size, tables })
    }
}

/// The full table of one `OrderBy` level over its own flat index space:
/// a flat index is the mixed-radix number of its per-tile flat indices
/// (outermost digit first), and the level maps each digit through its
/// tile's table and recombines in the same radix.
fn level_table(ob: &OrderBy) -> Result<Vec<Ix>> {
    let mut table = vec![0];
    for perm in ob.perms() {
        let tile = perm_table(perm)?;
        let s = tile.len() as Ix;
        table = expand(&table, s, |hi, d| hi * s + tile[d as usize]);
    }
    Ok(table)
}

/// Row-major expansion by one more (innermost) digit of radix `n`:
/// `next[f·n + d] = combine(table[f], d)`. Tabulating digit by digit
/// needs no division.
fn expand(table: &[Ix], n: Ix, combine: impl Fn(Ix, Ix) -> Ix) -> Vec<Ix> {
    let mut next = Vec::with_capacity(table.len() * n as usize);
    for &hi in table {
        next.extend((0..n).map(|d| combine(hi, d)));
    }
    next
}

/// One permutation tabulated over its tile: `table[f] = apply(B⁻¹(f))`.
fn perm_table(perm: &Perm) -> Result<Vec<Ix>> {
    let dims = perm.tile().dims_const()?;
    match perm {
        Perm::Reg { sigma, .. } => {
            // Output axis j takes logical axis σ[j]-1; its stride in the
            // permuted row-major order is the product of the permuted
            // dims after it. Expand axis by axis in logical order.
            let mut stride = vec![0; dims.len()];
            let mut acc: Ix = 1;
            for &s in sigma.iter().rev() {
                stride[s - 1] = acc;
                acc *= dims[s - 1];
            }
            Ok(dims.iter().zip(&stride).fold(vec![0], |table, (&n, &st)| {
                expand(&table, n, |hi, i| hi + i * st)
            }))
        }
        Perm::Gen { fns, .. } => {
            let size: Ix = dims.iter().product();
            let mut table = Vec::with_capacity(size as usize);
            let mut idx = vec![0; dims.len()];
            for _ in 0..size {
                let p = (fns.fwd)(&idx);
                if p < 0 || p >= size {
                    return Err(LayoutError::FlatOutOfBounds { flat: p, size });
                }
                table.push(p);
                // Row-major odometer over the tile.
                for (i, &n) in idx.iter_mut().zip(&dims).rev() {
                    *i += 1;
                    if *i < n {
                        break;
                    }
                    *i = 0;
                }
            }
            Ok(table)
        }
    }
}

impl ConcreteLayout {
    /// The logical view dims.
    pub fn dims(&self) -> &[Ix] {
        &self.dims
    }

    /// Total element count.
    pub fn size(&self) -> Ix {
        self.size
    }

    /// Logical index → physical flat position; equal to
    /// [`Layout::apply_c`].
    ///
    /// # Errors
    ///
    /// [`LayoutError::RankMismatch`] and
    /// [`LayoutError::IndexOutOfBounds`], exactly as `apply_c`.
    pub fn apply(&self, idx: &[Ix]) -> Result<Ix> {
        let flat = flatten(&self.dims, idx)?;
        Ok(match &self.tables {
            Some((fwd, _)) => fwd[flat as usize],
            None => flat,
        })
    }

    /// Row-major logical flat position → physical flat position:
    /// [`apply`](ConcreteLayout::apply) after its per-axis checks, for
    /// callers that flatten (and check) indices themselves.
    ///
    /// # Panics
    ///
    /// When `flat` is outside `0..size`.
    #[inline]
    pub fn apply_flat(&self, flat: Ix) -> Ix {
        match &self.tables {
            Some((fwd, _)) => fwd[flat as usize],
            None => {
                assert!(
                    (0..self.size).contains(&flat),
                    "flat {flat} outside the layout"
                );
                flat
            }
        }
    }

    /// Physical flat position → logical index; equal to
    /// [`Layout::inv_c`].
    ///
    /// # Errors
    ///
    /// [`LayoutError::FlatOutOfBounds`], exactly as `inv_c`.
    pub fn inv(&self, flat: Ix) -> Result<Vec<Ix>> {
        if flat < 0 || flat >= self.size {
            return Err(LayoutError::FlatOutOfBounds {
                flat,
                size: self.size,
            });
        }
        let logical = match &self.tables {
            Some((_, inv)) => inv[flat as usize],
            None => flat,
        };
        unflatten(&self.dims, logical)
    }

    /// The permutation `perm[flat_logical] = flat_physical` (what
    /// [`Layout::to_permutation`] returns).
    pub fn permutation(&self) -> Vec<Ix> {
        match &self.tables {
            Some((fwd, _)) => fwd.clone(),
            None => (0..self.size).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perms::{morton, reverse_perm};

    /// Every element and every out-of-range probe agrees with the
    /// reference interpreter, over a multi-level chain with both
    /// permutation kinds.
    #[test]
    fn matches_the_interpreter_on_a_two_level_chain() {
        let l = Layout::builder([4i64, 8])
            .order_by(OrderBy::new([Perm::reg([8i64, 4], [2usize, 1]).unwrap()]).unwrap())
            .order_by(
                OrderBy::new([
                    Perm::reg([2i64, 2], [2usize, 1]).unwrap(),
                    reverse_perm(&[2, 4]).unwrap(),
                ])
                .unwrap(),
            )
            .build()
            .unwrap();
        let c = l.compile().unwrap();
        assert!(c.tables.is_some());
        for i in 0..4 {
            for j in 0..8 {
                assert_eq!(c.apply(&[i, j]), l.apply_c(&[i, j]), "[{i},{j}]");
            }
        }
        for f in -2..34 {
            assert_eq!(c.inv(f), l.inv_c(f), "inv({f})");
        }
        for bad in [vec![4, 0], vec![0, -1], vec![1], vec![0, 0, 0]] {
            assert_eq!(c.apply(&bad), l.apply_c(&bad), "{bad:?}");
        }
    }

    /// A chain that happens to compute the identity stores no table.
    #[test]
    fn identity_valued_chain_drops_its_table() {
        let l = Layout::builder([4i64, 4])
            .order_by(OrderBy::new([Perm::reg([4i64, 4], [1usize, 2]).unwrap()]).unwrap())
            .build()
            .unwrap();
        let c = l.compile().unwrap();
        assert!(c.tables.is_none());
        assert_eq!(c.permutation(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn genp_tables_match_on_morton() {
        let l = Layout::builder([8i64, 8])
            .order_by(OrderBy::new([morton(8).unwrap()]).unwrap())
            .build()
            .unwrap();
        let c = l.compile().unwrap();
        for f in 0..64 {
            assert_eq!(c.inv(f), l.inv_c(f));
        }
    }

    #[test]
    fn symbolic_dims_do_not_compile() {
        let l = Layout::identity(crate::shape::Shape::syms(["M", "K"])).unwrap();
        assert!(matches!(l.compile(), Err(LayoutError::NonConstDims { .. })));
    }

    #[test]
    fn broken_genp_is_rejected() {
        use crate::perm::GenFns;
        use std::sync::Arc;
        let collapse = GenFns {
            name: "collapse".into(),
            fwd: Arc::new(|_idx: &[i64]| 0),
            inv: Arc::new(|_f: i64| vec![0, 0]),
            fwd_sym: None,
            inv_sym: None,
        };
        let l = Layout::builder([2i64, 2])
            .order_by(OrderBy::new([Perm::gen([2i64, 2], collapse).unwrap()]).unwrap())
            .build()
            .unwrap();
        assert!(matches!(l.compile(), Err(LayoutError::Unsupported(_))));
    }
}
