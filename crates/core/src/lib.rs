//! # lego-core — the LEGO layout algebra
//!
//! A from-scratch Rust implementation of **LEGO** (Tavakkoli, Oancea,
//! Hall; CGO 2026): a layout expression language for hierarchical,
//! bijective mappings between logical multi-dimensional index spaces and
//! flat physical memory, used to derive the complex indexing expressions
//! of tiled GPU code from declarative layout specifications.
//!
//! ## The pieces
//!
//! * [`Shape`] and the canonical bijections `B`/`B⁻¹`
//!   ([`shape::flatten`]/[`shape::unflatten`]) that glue everything;
//! * [`Perm`] — `RegP` (dimension permutations) and `GenP` (arbitrary
//!   user bijections such as [`perms::antidiag`]);
//! * [`OrderBy`] — one reordering level: a sequence of tile permutations;
//! * [`Layout`] — a `GroupBy` view plus a chain of `OrderBy`s, with
//!   concrete (`apply_c`/`inv_c`) and symbolic (`apply_sym`/`inv_sym`)
//!   evaluation plus NumPy-style slicing ([`Layout::apply_sliced`]);
//! * [`ConcreteLayout`] — a constant layout compiled once
//!   ([`Layout::compile`]) into flat lookup tables, for hot loops that
//!   map every element (the `gpu-sim` traces);
//! * [`ExpandBy`] — partial tiles beyond the bijective fragment;
//! * [`InjectiveLayout`] — apply-only broadcasts and dilations;
//! * sugar: [`sugar::row`], [`sugar::col`], [`sugar::tile_by`],
//!   [`sugar::tile_order_by`];
//! * a permutation library ([`perms`]) and the 3-D [`brick`] layout;
//! * dynamic verification ([`check`]).
//!
//! ## Quickstart: the paper's Fig. 2
//!
//! ```
//! use lego_core::{Layout, OrderBy, Perm, perms};
//!
//! # fn main() -> Result<(), lego_core::LayoutError> {
//! // GroupBy([6,4], OrderBy(RegP([2,2],[2,1]), GenP([3,2], p, p⁻¹)))
//! let layout = Layout::builder([6i64, 4])
//!     .order_by(OrderBy::new([
//!         Perm::reg([2i64, 2], [2usize, 1])?,
//!         perms::reverse_perm(&[3, 2])?,
//!     ])?)
//!     .build()?;
//!
//! assert_eq!(layout.apply_c(&[4, 1])?, 6); // element 17 lands at slot 6
//! assert_eq!(layout.inv_c(6)?, vec![4, 1]);
//! # Ok(())
//! # }
//! ```
//!
//! ## Symbolic use (code generation)
//!
//! ```
//! use lego_core::Layout;
//! use lego_expr::{Engine, Expr};
//!
//! # fn main() -> Result<(), lego_core::LayoutError> {
//! // Row-major M×K matrix; the offset of (i, j) is i*K + j.
//! let a = Layout::identity([Expr::sym("M"), Expr::sym("K")])?;
//! let off = a.apply_sym(&[Expr::sym("i"), Expr::sym("j")])?;
//! let simplified = Engine::new().simplify(&off);
//! assert_eq!(simplified, Expr::sym("K") * Expr::sym("i") + Expr::sym("j"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brick;
pub mod check;
mod concrete;
mod error;
mod expand_by;
mod group_by;
mod injective;
mod order_by;
pub mod parse;
mod perm;
pub mod perms;
pub mod shape;
pub mod sugar;

pub use concrete::ConcreteLayout;
pub use error::{LayoutError, Result};
pub use expand_by::ExpandBy;
pub use group_by::{IdxArg, Layout, LayoutBuilder};
pub use injective::InjectiveLayout;
pub use order_by::OrderBy;
pub use perm::{GenFns, GenFwd, GenFwdSym, GenInv, GenInvSym, Perm};
pub use shape::{Ix, Shape};
