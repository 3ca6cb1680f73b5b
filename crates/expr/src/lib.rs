//! # lego-expr — symbolic integer expressions for the LEGO layout algebra
//!
//! This crate is the from-scratch substitute for the SymPy + Z3 stack the
//! LEGO paper builds on (§IV-A): a small symbolic engine for the integer
//! index expressions produced by hierarchical layouts, with
//!
//! * an immutable, *hash-consed* expression IR ([`Expr`]) covering
//!   `+ - * // % min max select isqrt` and Triton-style lane ranges —
//!   every construction interns its node in a per-thread arena
//!   ([`intern`]), so structurally identical subtrees share one
//!   allocation ([`ExprId`]), equality is (usually) an integer compare,
//!   and commutative chains take one canonical sorted n-ary form;
//! * range analysis ([`RangeEnv`]) seeded from layout-derived index bounds;
//! * a unified pass facade ([`Engine`]) fronting simplification, proving,
//!   range analysis, op counting, expansion, and variant selection —
//!   simplification is the fixpoint rewriter over the paper's Table II
//!   rules (the [`simplify`][mod@simplify] module);
//! * the declarative rule table ([`rules::RewriteRule`]) the rewriter
//!   applies, with side conditions discharged by a structural prover
//!   ([`prove`]) instead of an SMT solver — simplification, interval
//!   analysis, op counting, expansion and depth-0 proof facts are all
//!   memoized per `(environment, node)` for the session, so shared
//!   subtrees are processed once across an entire tuner enumeration
//!   ([`intern::stats`] reports the hit rates). The memos are
//!   per-process: what persists across processes is the tuner's
//!   answer per candidate (variant and op count), in `lego-tune`'s
//!   sidecar, never the derivations behind it;
//! * expression expansion and the op-count cost model ([`cost`]) that
//!   picks expanded vs. unexpanded variants (NW vs. LUD);
//! * printers for Python/Triton, C/CUDA, and MLIR (`printer`).
//!
//! # Quickstart
//!
//! ```
//! use lego_expr::{Engine, Expr, RangeEnv};
//!
//! // A flatten-unflatten round trip like the ones GroupBy generates:
//! let mut env = RangeEnv::new();
//! env.set_bounds("i", Expr::val(0), Expr::sym("n"));
//! env.set_bounds("j", Expr::val(0), Expr::sym("m"));
//! env.assume_pos("n");
//! env.assume_pos("m");
//!
//! let flat = Expr::sym("i") * Expr::sym("m") + Expr::sym("j");
//! let back = flat.floor_div(&Expr::sym("m"));
//! let eng = Engine::with_env(env);
//! assert_eq!(eng.simplify(&back), Expr::sym("i"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod engine;
pub mod expand;
mod expr;
pub mod intern;
pub mod printer;
pub mod prove;
pub mod range;
pub mod rules;
pub mod simplify;
pub mod subst;

pub use cost::{CostChoice, Variant};
pub use engine::Engine;
pub use expr::{isqrt64, CmpOp, Cond, Expr, ExprKind};
pub use intern::{ArenaStats, ExprId};
pub use range::{NumRange, RangeEnv, SymBounds};
pub use rules::{RewriteRule, RuleStats};
pub use subst::{eval, eval_cond, eval_lane, map_ranges, subst, transform, Bindings, EvalError};
