//! `GroupBy` + the chained `OrderBy`s: the complete [`Layout`] (Fig. 5).
//!
//! A [`Layout`] is the user-facing ensemble: a logical view shape plus a
//! chain of reordering [`OrderBy`] transformations glued together by the
//! canonical bijections. `apply` maps a logical multi-dimensional index to
//! its flat physical position; `inv` is the exact inverse.
//!
//! The chain is stored in *application order*: the first `OrderBy` added
//! is the first applied (closest to the logical view), matching the
//! dot-chained notation of the paper's Eq. (2).

use lego_expr::{Expr, RangeEnv};

use crate::error::{LayoutError, Result};
use crate::order_by::OrderBy;
use crate::perm::Perm;
use crate::shape::{flatten, flatten_sym, key_ints, unflatten, unflatten_sym, Ix, Shape};

/// An index argument for [`Layout::apply_sliced`]: either a point
/// coordinate or a full-dimension slice (the `:` of the paper's Triton
/// integration, which lowers to `tl.arange`).
#[derive(Clone, Debug)]
pub enum IdxArg {
    /// A single (possibly symbolic) coordinate.
    At(Expr),
    /// The whole dimension (`:`), materialized as a lane range.
    Slice,
}

impl<T: Into<Expr>> From<T> for IdxArg {
    fn from(e: T) -> IdxArg {
        IdxArg::At(e.into())
    }
}

/// A complete hierarchical layout: logical view + reordering chain.
///
/// # Examples
///
/// The 6×4 example of the paper's Fig. 2:
///
/// ```
/// use lego_core::{Layout, OrderBy, Perm, perms};
///
/// # fn main() -> Result<(), lego_core::LayoutError> {
/// let layout = Layout::builder([6i64, 4])
///     .order_by(OrderBy::new([
///         Perm::reg([2i64, 2], [2usize, 1])?,          // transpose outer tiles
///         perms::reverse_perm(&[3, 2])?,                // reverse inner tiles
///     ])?)
///     .build()?;
/// assert_eq!(layout.apply_c(&[4, 1])?, 6);
/// assert_eq!(layout.inv_c(6)?, vec![4, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Layout {
    view: Shape,
    orders: Vec<OrderBy>,
}

/// Incremental builder for [`Layout`] (the `GroupBy(..).OrderBy(..)` dot
/// chain).
#[derive(Clone, Debug)]
pub struct LayoutBuilder {
    view: Shape,
    orders: Vec<OrderBy>,
}

impl LayoutBuilder {
    /// Appends a reordering transformation (applied after those already
    /// added).
    pub fn order_by(mut self, ob: OrderBy) -> LayoutBuilder {
        self.orders.push(ob);
        self
    }

    /// Finalizes the layout.
    ///
    /// # Errors
    ///
    /// [`LayoutError::SizeMismatch`] when the element counts of the view
    /// and any `OrderBy` are both constant and differ (the paper's cheap
    /// dynamic check); symbolic sizes are deferred to evaluation time.
    /// [`LayoutError::Empty`] for a rank-0 view.
    pub fn build(self) -> Result<Layout> {
        if self.view.rank() == 0 {
            return Err(LayoutError::Empty("GroupBy view"));
        }
        if let Ok(vsize) = self.view.size_const() {
            for (position, ob) in self.orders.iter().enumerate() {
                if let Some(osize) = ob.size().as_const() {
                    if osize != vsize {
                        return Err(LayoutError::SizeMismatch {
                            view: vsize,
                            order_by: osize,
                            position,
                        });
                    }
                }
            }
        }
        Ok(Layout {
            view: self.view,
            orders: self.orders,
        })
    }
}

impl Layout {
    /// Starts a layout from its logical view shape (`GroupBy`).
    pub fn builder(view: impl Into<Shape>) -> LayoutBuilder {
        LayoutBuilder {
            view: view.into(),
            orders: Vec::new(),
        }
    }

    /// An identity layout over `view` (no reordering).
    ///
    /// # Errors
    ///
    /// [`LayoutError::Empty`] for a rank-0 view.
    pub fn identity(view: impl Into<Shape>) -> Result<Layout> {
        Layout::builder(view).build()
    }

    /// The logical view shape.
    pub fn view(&self) -> &Shape {
        &self.view
    }

    /// The reordering chain in application order.
    pub fn orders(&self) -> &[OrderBy] {
        &self.orders
    }

    /// Total element count as an expression.
    pub fn size(&self) -> Expr {
        self.view.size()
    }

    /// Concrete `apply` (Fig. 5): logical index → physical flat position.
    ///
    /// This is the reference interpreter: every call walks the chain,
    /// re-deriving each level's dims and unflattening through it. Code
    /// that maps many elements of one layout should
    /// [`compile`](Layout::compile) it once and use
    /// [`ConcreteLayout::apply`](crate::ConcreteLayout::apply), which is
    /// tested equal to this method.
    ///
    /// # Errors
    ///
    /// Rank mismatches, out-of-bounds coordinates, symbolic dimensions,
    /// and (at evaluation time) size mismatches between chain levels.
    pub fn apply_c(&self, idx: &[Ix]) -> Result<Ix> {
        let vd = self.view.dims_const()?;
        let mut flat = flatten(&vd, idx)?;
        for ob in &self.orders {
            let od = ob.shape().dims_const()?;
            let cur = unflatten(&od, flat)?;
            flat = ob.apply_c(&cur)?;
        }
        Ok(flat)
    }

    /// Concrete `inv` (Fig. 5): physical flat position → logical index.
    ///
    /// The reference interpreter, like [`Layout::apply_c`]; the compiled
    /// counterpart is [`ConcreteLayout::inv`](crate::ConcreteLayout::inv).
    ///
    /// # Errors
    ///
    /// Same classes as [`Layout::apply_c`].
    pub fn inv_c(&self, flat: Ix) -> Result<Vec<Ix>> {
        let mut flat = flat;
        for ob in self.orders.iter().rev() {
            let idx = ob.inv_c(flat)?;
            let od = ob.shape().dims_const()?;
            flat = flatten(&od, &idx)?;
        }
        let vd = self.view.dims_const()?;
        unflatten(&vd, flat)
    }

    /// Symbolic `apply`: logical index expressions → physical offset
    /// expression (unsimplified; feed the result to
    /// [`lego_expr::Engine::simplify`] with ranges from
    /// [`Layout::declare_index_bounds`]).
    ///
    /// Lowering emits through the interned expression arena: the
    /// returned expression is a hash-consed DAG, so repeated lowering
    /// of the same layout yields pointer-equal nodes and the simplifier
    /// reuses any memoized work from earlier candidates.
    ///
    /// # Errors
    ///
    /// Rank mismatches and `GenP`s without symbolic implementations.
    pub fn apply_sym(&self, idx: &[Expr]) -> Result<Expr> {
        let mut flat = flatten_sym(self.view.dims(), idx)?;
        for ob in &self.orders {
            let od = ob.shape();
            let cur = unflatten_sym(od.dims(), &flat);
            flat = ob.apply_sym(&cur)?;
        }
        Ok(flat)
    }

    /// Symbolic `inv`: physical offset expression → logical index
    /// expressions.
    ///
    /// # Errors
    ///
    /// `GenP`s without symbolic inverses.
    pub fn inv_sym(&self, flat: &Expr) -> Result<Vec<Expr>> {
        let mut flat = flat.clone();
        for ob in self.orders.iter().rev() {
            let idx = ob.inv_sym(&flat)?;
            flat = flatten_sym(ob.shape().dims(), &idx)?;
        }
        Ok(unflatten_sym(self.view.dims(), &flat))
    }

    /// Symbolic `apply` with slicing: `:` arguments become lane ranges
    /// (`tl.arange` in the Triton printer), numbered left-to-right.
    ///
    /// This is the paper's `DL_a[lpid_m, k, :, :]` notation.
    ///
    /// # Errors
    ///
    /// Same as [`Layout::apply_sym`].
    pub fn apply_sliced(&self, args: &[IdxArg]) -> Result<Expr> {
        if args.len() != self.view.rank() {
            return Err(LayoutError::RankMismatch {
                expected: self.view.rank(),
                got: args.len(),
            });
        }
        let nslices = args.iter().filter(|a| matches!(a, IdxArg::Slice)).count();
        let mut axis = 0usize;
        let idx: Vec<Expr> = args
            .iter()
            .zip(self.view.dims())
            .map(|(a, dim)| match a {
                IdxArg::At(e) => e.clone(),
                IdxArg::Slice => {
                    let r = Expr::range(Expr::zero(), dim.clone(), axis, nslices);
                    axis += 1;
                    r
                }
            })
            .collect();
        self.apply_sym(&idx)
    }

    /// Declares `0 <= name < dim` bounds for a logical index named
    /// `names[k]` on axis `k`, so the simplifier can erase the div/mod
    /// pairs `apply_sym`/`inv_sym` introduce.
    ///
    /// # Errors
    ///
    /// [`LayoutError::RankMismatch`] when `names` does not match the view
    /// rank.
    pub fn declare_index_bounds(&self, env: &mut RangeEnv, names: &[&str]) -> Result<()> {
        if names.len() != self.view.rank() {
            return Err(LayoutError::RankMismatch {
                expected: self.view.rank(),
                got: names.len(),
            });
        }
        for (name, dim) in names.iter().zip(self.view.dims()) {
            env.set_bounds(name, Expr::zero(), dim.clone());
        }
        Ok(())
    }

    /// The free symbols of the view's dimension expressions (size
    /// parameters such as `M` or `BM`), deduplicated and in
    /// lexicographic order — the deterministic ordering guarantee of
    /// the `BTreeSet`-backed collector in [`lego_expr`], so callers can
    /// bind or declare them in a reproducible order.
    pub fn free_syms(&self) -> Vec<std::sync::Arc<str>> {
        let mut set = std::collections::BTreeSet::new();
        for d in self.view.dims() {
            d.collect_syms(&mut set);
        }
        set.into_iter().collect()
    }

    /// The permutation `perm[flat_logical] = flat_physical` over the
    /// whole (constant) view. Useful for visualization and exhaustive
    /// checks. Built by [`compile`](Layout::compile), so it tabulates
    /// each permutation once instead of interpreting every element.
    ///
    /// # Errors
    ///
    /// As [`Layout::compile`].
    pub fn to_permutation(&self) -> Result<Vec<Ix>> {
        Ok(self.compile()?.permutation())
    }

    /// Appends a structural rendering of this layout to a memo key: the
    /// view dims, then each `OrderBy`'s permutations in order — a
    /// `RegP` as its tile dims and `σ`, a `GenP` as its tile dims and
    /// its length-prefixed [`GenFns::name`](crate::GenFns::name).
    ///
    /// The specification determines every index, so equal keys mean
    /// equal view dims and equal [permutations](Layout::to_permutation)
    /// — given the `GenFns::name` contract that equal names on equal
    /// tiles denote equal bijections. The converse does not hold:
    /// different specifications of one map (an identity-valued `RegP`
    /// and no `OrderBy`, `morton(2)` and the `2x2` block-cyclic
    /// identity) get different keys. Rendering reads no element, so it
    /// costs O(chain length), not O(view size), and it validates
    /// nothing beyond constant dims: a key is only a name for what
    /// [`compile`](Layout::compile) would produce.
    ///
    /// # Errors
    ///
    /// [`LayoutError::NonConstDims`] for symbolic view or tile sizes.
    pub fn key(&self, out: &mut String) -> Result<()> {
        key_ints(out, 'v', &self.view.dims_const()?);
        for ob in &self.orders {
            out.push('o');
            for perm in ob.perms() {
                match perm {
                    Perm::Reg { tile, sigma } => {
                        key_ints(out, 'r', &tile.dims_const()?);
                        let sigma: Vec<Ix> = sigma.iter().map(|&s| s as Ix).collect();
                        key_ints(out, 's', &sigma);
                    }
                    Perm::Gen { tile, fns } => {
                        key_ints(out, 'g', &tile.dims_const()?);
                        key_ints(out, 'n', &[fns.name.len() as Ix]);
                        out.push_str(&fns.name);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perms::reverse_perm;

    /// The Fig. 2 layout: GroupBy([6,4], OrderBy(RegP([2,2],[2,1]),
    /// GenP([3,2], reverse))).
    fn fig2() -> Layout {
        Layout::builder([6i64, 4])
            .order_by(
                OrderBy::new([
                    Perm::reg([2i64, 2], [2usize, 1]).unwrap(),
                    reverse_perm(&[3, 2]).unwrap(),
                ])
                .unwrap(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn fig2_apply_and_inv() {
        let l = fig2();
        // Paper: apply([4,1]) = 6 and inv(6) = [4,1].
        assert_eq!(l.apply_c(&[4, 1]).unwrap(), 6);
        assert_eq!(l.inv_c(6).unwrap(), vec![4, 1]);
    }

    #[test]
    fn fig2_full_physical_order() {
        // Physical order derived by hand from the Fig. 2 definition:
        // outer 2x2 tiles transposed, inner 3x2 tiles fully reversed.
        // Physical positions 0..6 hold logical elements 5..0 (first inner
        // tile reversed), positions 6..12 hold 17..12 (transposition
        // brings logical tile [1,0] second), and so on.
        let l = fig2();
        let perm = l.to_permutation().unwrap();
        let mut phys = [0i64; 24];
        for (logical, &p) in perm.iter().enumerate() {
            phys[p as usize] = logical as i64;
        }
        assert_eq!(&phys[0..6], &[5, 4, 3, 2, 1, 0]);
        assert_eq!(&phys[6..12], &[17, 16, 15, 14, 13, 12]);
        assert_eq!(&phys[12..18], &[11, 10, 9, 8, 7, 6]);
        assert_eq!(&phys[18..24], &[23, 22, 21, 20, 19, 18]);
    }

    #[test]
    fn fig2_element_17_lands_in_tile_0_1_0_0() {
        // Paper: element 17's physical position 6 corresponds to index
        // [0,1,0,0] of the (2x2)x(3x2) tiled space.
        let l = fig2();
        let p = l.apply_c(&[4, 1]).unwrap();
        let tiled = crate::shape::unflatten(&[2, 2, 3, 2], p).unwrap();
        assert_eq!(tiled, vec![0, 1, 0, 0]);
    }

    #[test]
    fn layout_is_bijection() {
        let l = fig2();
        let mut perm = l.to_permutation().unwrap();
        perm.sort_unstable();
        let want: Vec<Ix> = (0..24).collect();
        assert_eq!(perm, want);
    }

    #[test]
    fn identity_layout_is_row_major() {
        let l = Layout::identity([3i64, 5]).unwrap();
        assert_eq!(l.apply_c(&[2, 4]).unwrap(), 14);
        assert_eq!(l.inv_c(14).unwrap(), vec![2, 4]);
    }

    #[test]
    fn size_mismatch_detected_at_build() {
        let bad = Layout::builder([6i64, 4])
            .order_by(OrderBy::new([Perm::reg([5i64, 5], [1usize, 2]).unwrap()]).unwrap());
        assert!(matches!(
            bad.build(),
            Err(LayoutError::SizeMismatch {
                view: 24,
                order_by: 25,
                ..
            })
        ));
    }

    #[test]
    fn symbolic_apply_matches_concrete() {
        use lego_expr::{eval, Bindings};
        let l = fig2();
        let e = l.apply_sym(&[Expr::sym("i"), Expr::sym("j")]).unwrap();
        let mut bind = Bindings::new();
        for i in 0..6 {
            for j in 0..4 {
                bind.insert("i".into(), i);
                bind.insert("j".into(), j);
                assert_eq!(
                    eval(&e, &bind).unwrap(),
                    l.apply_c(&[i, j]).unwrap(),
                    "at [{i},{j}]"
                );
            }
        }
    }

    fn key(l: &Layout) -> Result<String> {
        let mut out = String::new();
        l.key(&mut out).map(|()| out)
    }

    /// The key spells out the specification in zigzag hex: the view,
    /// then per `OrderBy` (`o`) each `RegP`'s tile and σ or each
    /// `GenP`'s tile and length-prefixed name.
    #[test]
    fn key_renders_the_specification() {
        assert_eq!(
            key(&fig2()).unwrap(),
            "vc,8,or4,4,s4,2,g6,4,n1a,reverse[3, 2]"
        );
        assert_eq!(key(&Layout::identity([3i64, 5]).unwrap()).unwrap(), "v6,a,");
        let two_levels = Layout::builder([4i64, 4])
            .order_by(OrderBy::new([Perm::reg([4i64, 4], [2usize, 1]).unwrap()]).unwrap())
            .order_by(OrderBy::new([reverse_perm(&[4, 4]).unwrap()]).unwrap())
            .build()
            .unwrap();
        assert_eq!(
            key(&two_levels).unwrap(),
            "v8,8,or8,8,s4,2,og8,8,n1a,reverse[4, 4]"
        );
        let symbolic = Layout::identity(Shape::syms(["M", "K"])).unwrap();
        assert!(matches!(
            key(&symbolic),
            Err(LayoutError::NonConstDims { .. })
        ));
    }

    #[test]
    fn sliced_apply_materializes_ranges() {
        let l = Layout::identity([4i64, 8]).unwrap();
        let e = l
            .apply_sliced(&[IdxArg::At(Expr::sym("i")), IdxArg::Slice])
            .unwrap();
        // Evaluating lane k of the slice equals apply([i, k]).
        for i in 0..4 {
            for k in 0..8 {
                let mut bind = lego_expr::Bindings::new();
                bind.insert("i".into(), i);
                let v = lego_expr::eval_lane(&e, &bind, &|_| k).unwrap();
                assert_eq!(v, l.apply_c(&[i, k]).unwrap());
            }
        }
    }

    #[test]
    fn declare_bounds_enables_simplification() {
        use lego_expr::Engine;
        let l = Layout::identity([4i64, 8]).unwrap();
        let mut env = RangeEnv::new();
        l.declare_index_bounds(&mut env, &["i", "j"]).unwrap();
        // inv(apply([i,j])) must simplify back to [i, j].
        let flat = l.apply_sym(&[Expr::sym("i"), Expr::sym("j")]).unwrap();
        let back = l.inv_sym(&flat).unwrap();
        let eng = Engine::with_env(env);
        assert_eq!(eng.simplify(&back[0]), Expr::sym("i"));
        assert_eq!(eng.simplify(&back[1]), Expr::sym("j"));
    }
}
