//! The symbolic integer expression AST.
//!
//! Expressions are immutable, *hash-consed* DAGs: every construction
//! interns its node in the thread's [`crate::intern`] arena, so
//! structurally identical subtrees are the same allocation (same
//! [`ExprId`]), cloning is an `Arc` bump, equality is usually one
//! integer compare, and the rewrite passes memoize their work per node.
//! Commutative chains are canonicalized into sorted n-ary `Add`/`Mul`
//! forms by the constructors before interning, so each algebraic sum or
//! product has exactly one node. All arithmetic is over mathematical
//! integers; `/` and `%` denote *floor* division and the matching
//! modulo (which coincide with C semantics on the non-negative operands
//! LEGO produces).
//!
//! # Examples
//!
//! ```
//! use lego_expr::Expr;
//! let m = Expr::sym("M");
//! let i = Expr::sym("i");
//! let flat = &i * &m + Expr::val(3);
//! assert_eq!(flat.to_string(), "M*i + 3");
//! // Rebuilding the same structure yields the same interned node.
//! let again = &i * &m + Expr::val(3);
//! assert!(flat.ptr_eq(&again));
//! assert_eq!(flat.id(), again.id());
//! ```

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::intern::{self, structural_hash, ExprId};

/// Comparison operators usable inside [`Cond`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on two concrete integers.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The token used by the C and Python printers.
    pub fn token(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A boolean condition over integer expressions, used by [`ExprKind::Select`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Cond {
    /// A binary comparison between two integer expressions.
    Cmp(CmpOp, Expr, Expr),
    /// Conjunction of conditions (empty = true).
    All(Vec<Cond>),
    /// Disjunction of conditions (empty = false).
    Any(Vec<Cond>),
    /// Negation.
    Not(Box<Cond>),
}

impl Cond {
    /// Builds `a < b`.
    pub fn lt(a: Expr, b: Expr) -> Cond {
        Cond::Cmp(CmpOp::Lt, a, b)
    }
    /// Builds `a <= b`.
    pub fn le(a: Expr, b: Expr) -> Cond {
        Cond::Cmp(CmpOp::Le, a, b)
    }
    /// Builds `a == b`.
    pub fn eq(a: Expr, b: Expr) -> Cond {
        Cond::Cmp(CmpOp::Eq, a, b)
    }
    /// Builds `a >= b`.
    pub fn ge(a: Expr, b: Expr) -> Cond {
        Cond::Cmp(CmpOp::Ge, a, b)
    }

    /// Collects the free symbols of the condition into `out`. The
    /// `BTreeSet` deduplicates and keeps the names in lexicographic
    /// order, so downstream iteration is deterministic.
    pub fn collect_syms(&self, out: &mut BTreeSet<Arc<str>>) {
        match self {
            Cond::Cmp(_, a, b) => {
                a.collect_syms(out);
                b.collect_syms(out);
            }
            Cond::All(cs) | Cond::Any(cs) => {
                for c in cs {
                    c.collect_syms(out);
                }
            }
            Cond::Not(c) => c.collect_syms(out),
        }
    }
}

/// The node payload of an [`Expr`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ExprKind {
    /// An integer literal.
    Const(i64),
    /// A free symbol, e.g. a kernel parameter (`M`) or an index (`pid`).
    Sym(Arc<str>),
    /// N-ary sum. Invariant after canonicalization: at least two operands,
    /// no nested `Add`, at most one constant (last).
    Add(Vec<Expr>),
    /// N-ary product. Invariant after canonicalization: at least two
    /// operands, no nested `Mul`, at most one constant (first).
    Mul(Vec<Expr>),
    /// Floor division `a / b`.
    FloorDiv(Expr, Expr),
    /// Floor modulo `a % b` (result has the sign of `b`; non-negative for
    /// the positive divisors LEGO generates).
    Mod(Expr, Expr),
    /// Binary minimum.
    Min(Expr, Expr),
    /// Binary maximum.
    Max(Expr, Expr),
    /// Bitwise XOR (used by bank-swizzle layouts); operands are
    /// non-negative in all LEGO uses.
    Xor(Expr, Expr),
    /// `if cond { a } else { b }` as a value.
    Select(Cond, Expr, Expr),
    /// Integer square root, `floor(sqrt(a))`; used by the anti-diagonal
    /// inverse of the paper's Fig. 7.
    ISqrt(Expr),
    /// A lane-range placeholder: the half-open interval `[lo, lo+len)`
    /// materialized as a vector of lanes (Triton `tl.arange`). `axis` and
    /// `ndims` record where the vector broadcasts in a multi-dimensional
    /// tile, e.g. `axis=0, ndims=2` prints as `tl.arange(..)[:, None]`.
    Range {
        /// Inclusive lower bound of the lane range.
        lo: Expr,
        /// Number of lanes (exclusive length).
        len: Expr,
        /// Broadcast axis of this vector among `ndims` sliced axes.
        axis: usize,
        /// Total number of sliced axes in the surrounding expression.
        ndims: usize,
    },
}

/// One interned expression node: the payload plus its session identity
/// and a cached structural hash (a pure function of the tree shape, so
/// it agrees across threads even when ids do not).
pub(crate) struct Node {
    id: u64,
    shash: u64,
    /// Cached `node_count` (the tree-size measure used to order sums).
    count: usize,
    kind: ExprKind,
}

/// A handle to an interned symbolic integer expression.
///
/// `Expr` supports the `+`, `-`, `*` operators (by value and by reference),
/// plus [`Expr::floor_div`], [`Expr::rem`], [`Expr::min`], [`Expr::max`],
/// [`Expr::select`] and [`Expr::isqrt`] constructors. Construction performs
/// light local canonicalization (constant folding, flattening, operand
/// sorting) and then hash-conses the node, so structurally identical
/// expressions share one allocation; the full rewriting lives in
/// [`crate::Engine::simplify`].
///
/// Equality, ordering and hashing are *structural* (unchanged from the
/// tree representation), but accelerated: two handles to the same node
/// compare equal by id, and differing structural hashes prove
/// inequality without a walk. Only structurally identical expressions
/// interned from different threads fall back to the deep comparison.
#[derive(Clone)]
pub struct Expr(pub(crate) Arc<Node>);

impl PartialEq for Expr {
    fn eq(&self, other: &Expr) -> bool {
        self.0.id == other.0.id || (self.0.shash == other.0.shash && self.0.kind == other.0.kind)
    }
}

impl Eq for Expr {}

impl std::hash::Hash for Expr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.shash);
    }
}

impl PartialOrd for Expr {
    fn partial_cmp(&self, other: &Expr) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Expr {
    fn cmp(&self, other: &Expr) -> std::cmp::Ordering {
        if self.0.id == other.0.id {
            return std::cmp::Ordering::Equal;
        }
        self.0.kind.cmp(&other.0.kind)
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Expr({self})")
    }
}

impl Expr {
    /// Allocates a fresh node for `kind` (interner-miss path; called
    /// only by [`crate::intern::intern`]).
    pub(crate) fn new_node(kind: ExprKind) -> Expr {
        let shash = structural_hash(&kind);
        let mut count = 1usize;
        for_each_child_of(&kind, |c| count += c.node_count());
        Expr(Arc::new(Node {
            id: intern::fresh_node_id(),
            shash,
            count,
            kind,
        }))
    }

    /// Interns an [`ExprKind`] as-is, without any canonicalization of
    /// the node itself (children are whatever the caller built).
    pub fn raw(kind: ExprKind) -> Expr {
        intern::intern(kind)
    }

    /// The node's session-unique identity (see [`ExprId`]). Equal ids
    /// imply structural equality; on one thread the converse holds too.
    pub fn id(&self) -> ExprId {
        ExprId(self.0.id)
    }

    /// The cached structural hash (thread-independent).
    pub(crate) fn shash(&self) -> u64 {
        self.0.shash
    }

    /// True if both handles point at the same interned node.
    pub fn ptr_eq(&self, other: &Expr) -> bool {
        self.0.id == other.0.id
    }

    /// An integer literal.
    pub fn val(v: i64) -> Expr {
        Expr::raw(ExprKind::Const(v))
    }

    /// A free symbol.
    pub fn sym(name: impl Into<Arc<str>>) -> Expr {
        Expr::raw(ExprKind::Sym(name.into()))
    }

    /// The zero literal.
    pub fn zero() -> Expr {
        Expr::val(0)
    }

    /// The one literal.
    pub fn one() -> Expr {
        Expr::val(1)
    }

    /// A lane range `[lo, lo+len)` broadcasting on `axis` of `ndims`.
    pub fn range(lo: Expr, len: Expr, axis: usize, ndims: usize) -> Expr {
        Expr::raw(ExprKind::Range {
            lo,
            len,
            axis,
            ndims,
        })
    }

    /// Borrow the node payload.
    pub fn kind(&self) -> &ExprKind {
        &self.0.kind
    }

    /// Returns the literal value if this expression is a constant.
    pub fn as_const(&self) -> Option<i64> {
        match self.kind() {
            ExprKind::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the symbol name if this expression is a bare symbol.
    pub fn as_sym(&self) -> Option<&str> {
        match self.kind() {
            ExprKind::Sym(s) => Some(s),
            _ => None,
        }
    }

    /// True if this is the literal `v`.
    pub fn is_const(&self, v: i64) -> bool {
        self.as_const() == Some(v)
    }

    /// Floor division. Folds constants (using Euclidean semantics on
    /// non-negative divisors) and `x / 1 == x` immediately.
    pub fn floor_div(&self, d: &Expr) -> Expr {
        if d.is_const(1) {
            return self.clone();
        }
        if let (Some(a), Some(b)) = (self.as_const(), d.as_const()) {
            if b != 0 {
                return Expr::val(a.div_euclid(b));
            }
        }
        if self.is_const(0) {
            return Expr::zero();
        }
        Expr::raw(ExprKind::FloorDiv(self.clone(), d.clone()))
    }

    /// Floor modulo. Folds constants and `x % 1 == 0` immediately.
    pub fn rem(&self, d: &Expr) -> Expr {
        if d.is_const(1) {
            return Expr::zero();
        }
        if let (Some(a), Some(b)) = (self.as_const(), d.as_const()) {
            if b != 0 {
                return Expr::val(a.rem_euclid(b));
            }
        }
        if self.is_const(0) {
            return Expr::zero();
        }
        Expr::raw(ExprKind::Mod(self.clone(), d.clone()))
    }

    /// Binary minimum (constant-folds).
    ///
    /// Takes `self` by value so that it is selected over [`Ord::min`]
    /// during method resolution; `Expr` is `Arc`-backed, so passing by
    /// value is cheap.
    pub fn min(self, other: &Expr) -> Expr {
        if let (Some(a), Some(b)) = (self.as_const(), other.as_const()) {
            return Expr::val(a.min(b));
        }
        if &self == other {
            return self;
        }
        Expr::raw(ExprKind::Min(self, other.clone()))
    }

    /// Binary maximum (constant-folds).
    ///
    /// Takes `self` by value so that it is selected over [`Ord::max`]
    /// during method resolution.
    pub fn max(self, other: &Expr) -> Expr {
        if let (Some(a), Some(b)) = (self.as_const(), other.as_const()) {
            return Expr::val(a.max(b));
        }
        if &self == other {
            return self;
        }
        Expr::raw(ExprKind::Max(self, other.clone()))
    }

    /// Bitwise XOR (constant-folds).
    pub fn xor(&self, other: &Expr) -> Expr {
        if let (Some(a), Some(b)) = (self.as_const(), other.as_const()) {
            return Expr::val(a ^ b);
        }
        if self.is_const(0) {
            return other.clone();
        }
        if other.is_const(0) {
            return self.clone();
        }
        Expr::raw(ExprKind::Xor(self.clone(), other.clone()))
    }

    /// Conditional value `if cond { t } else { e }`.
    pub fn select(cond: Cond, t: Expr, e: Expr) -> Expr {
        if t == e {
            return t;
        }
        Expr::raw(ExprKind::Select(cond, t, e))
    }

    /// Integer square root `floor(sqrt(self))` (constant-folds on
    /// non-negative constants).
    pub fn isqrt(&self) -> Expr {
        if let Some(a) = self.as_const() {
            if a >= 0 {
                return Expr::val(isqrt64(a));
            }
        }
        Expr::raw(ExprKind::ISqrt(self.clone()))
    }

    /// Ceiling division `ceil(self / d)`, built as `(self + d - 1) / d` —
    /// Triton's `tl.cdiv`.
    pub fn ceil_div(&self, d: &Expr) -> Expr {
        if let (Some(a), Some(b)) = (self.as_const(), d.as_const()) {
            if b > 0 {
                return Expr::val((a + b - 1).div_euclid(b));
            }
        }
        (self + d - Expr::one()).floor_div(d)
    }

    /// N-ary sum with light canonicalization: flattens nested sums, folds
    /// constants, drops zeros, and sorts operands deterministically
    /// (non-constants first).
    pub fn add_all<I: IntoIterator<Item = Expr>>(terms: I) -> Expr {
        let mut flat: Vec<Expr> = Vec::new();
        let mut k: i64 = 0;
        for t in terms {
            match t.kind() {
                ExprKind::Const(v) => k += v,
                ExprKind::Add(ts) => {
                    for t in ts {
                        match t.kind() {
                            ExprKind::Const(v) => k += v,
                            _ => flat.push(t.clone()),
                        }
                    }
                }
                _ => flat.push(t),
            }
        }
        // Sort larger terms first (then structurally) so sums print in the
        // conventional `i*n + j + 1` order and stay deterministic.
        flat.sort_by(|a, b| b.node_count().cmp(&a.node_count()).then_with(|| a.cmp(b)));
        if k != 0 {
            flat.push(Expr::val(k));
        }
        match flat.len() {
            0 => Expr::zero(),
            1 => flat.pop().expect("len checked"),
            _ => Expr::raw(ExprKind::Add(flat)),
        }
    }

    /// N-ary product with light canonicalization: flattens nested products,
    /// folds constants, and short-circuits on zero.
    pub fn mul_all<I: IntoIterator<Item = Expr>>(factors: I) -> Expr {
        let mut flat: Vec<Expr> = Vec::new();
        let mut k: i64 = 1;
        for t in factors {
            match t.kind() {
                ExprKind::Const(v) => k *= v,
                ExprKind::Mul(ts) => {
                    for t in ts {
                        match t.kind() {
                            ExprKind::Const(v) => k *= v,
                            _ => flat.push(t.clone()),
                        }
                    }
                }
                _ => flat.push(t),
            }
        }
        if k == 0 {
            return Expr::zero();
        }
        flat.sort();
        if k != 1 {
            flat.insert(0, Expr::val(k));
        }
        match flat.len() {
            0 => Expr::one(),
            1 => flat.pop().expect("len checked"),
            _ => Expr::raw(ExprKind::Mul(flat)),
        }
    }

    /// Collects every free symbol into `out`. The `BTreeSet` collector
    /// deduplicates as it goes and iterates in lexicographic name
    /// order, so every consumer of the result sees the same
    /// deterministic ordering regardless of traversal order.
    pub fn collect_syms(&self, out: &mut BTreeSet<Arc<str>>) {
        match self.kind() {
            ExprKind::Const(_) => {}
            ExprKind::Sym(s) => {
                out.insert(s.clone());
            }
            ExprKind::Add(ts) | ExprKind::Mul(ts) => {
                for t in ts {
                    t.collect_syms(out);
                }
            }
            ExprKind::FloorDiv(a, b)
            | ExprKind::Mod(a, b)
            | ExprKind::Min(a, b)
            | ExprKind::Max(a, b)
            | ExprKind::Xor(a, b) => {
                a.collect_syms(out);
                b.collect_syms(out);
            }
            ExprKind::Select(c, t, e) => {
                c.collect_syms(out);
                t.collect_syms(out);
                e.collect_syms(out);
            }
            ExprKind::ISqrt(a) => a.collect_syms(out),
            ExprKind::Range { lo, len, .. } => {
                lo.collect_syms(out);
                len.collect_syms(out);
            }
        }
    }

    /// The set of free symbol names, deduplicated and in lexicographic
    /// order (the iteration order of the [`BTreeSet`] collector).
    pub fn free_syms(&self) -> Vec<Arc<str>> {
        let mut set = BTreeSet::new();
        self.collect_syms(&mut set);
        set.into_iter().collect()
    }

    /// Number of nodes in the tree (a crude size measure). Cached on
    /// the interned node, so this is a field read.
    pub fn node_count(&self) -> usize {
        self.0.count
    }
}

/// Visits each direct child expression of a node payload.
pub(crate) fn for_each_child_of(kind: &ExprKind, mut f: impl FnMut(&Expr)) {
    match kind {
        ExprKind::Const(_) | ExprKind::Sym(_) => {}
        ExprKind::Add(ts) | ExprKind::Mul(ts) => {
            for t in ts {
                f(t);
            }
        }
        ExprKind::FloorDiv(a, b)
        | ExprKind::Mod(a, b)
        | ExprKind::Min(a, b)
        | ExprKind::Max(a, b)
        | ExprKind::Xor(a, b) => {
            f(a);
            f(b);
        }
        ExprKind::Select(_, t, e) => {
            f(t);
            f(e);
        }
        ExprKind::ISqrt(a) => f(a),
        ExprKind::Range { lo, len, .. } => {
            f(lo);
            f(len);
        }
    }
}

/// `floor(sqrt(v))` for non-negative `v`.
pub fn isqrt64(v: i64) -> i64 {
    debug_assert!(v >= 0, "isqrt of negative value");
    if v < 2 {
        return v;
    }
    let mut x = (v as f64).sqrt() as i64;
    // Correct the float estimate in both directions.
    while x > 0 && x * x > v {
        x -= 1;
    }
    while (x + 1) * (x + 1) <= v {
        x += 1;
    }
    x
}

// ---- operator overloads -------------------------------------------------

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $ctor:expr) => {
        impl std::ops::$trait for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                #[allow(clippy::redundant_closure_call)]
                ($ctor)(&self, &rhs)
            }
        }
        impl std::ops::$trait<&Expr> for Expr {
            type Output = Expr;
            fn $method(self, rhs: &Expr) -> Expr {
                #[allow(clippy::redundant_closure_call)]
                ($ctor)(&self, rhs)
            }
        }
        impl std::ops::$trait<Expr> for &Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                #[allow(clippy::redundant_closure_call)]
                ($ctor)(self, &rhs)
            }
        }
        impl std::ops::$trait<&Expr> for &Expr {
            type Output = Expr;
            fn $method(self, rhs: &Expr) -> Expr {
                #[allow(clippy::redundant_closure_call)]
                ($ctor)(self, rhs)
            }
        }
    };
}

impl_binop!(Add, add, |a: &Expr, b: &Expr| Expr::add_all([
    a.clone(),
    b.clone()
]));
impl_binop!(Mul, mul, |a: &Expr, b: &Expr| Expr::mul_all([
    a.clone(),
    b.clone()
]));
impl_binop!(Sub, sub, |a: &Expr, b: &Expr| Expr::add_all([
    a.clone(),
    Expr::mul_all([Expr::val(-1), b.clone()])
]));

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::mul_all([Expr::val(-1), self])
    }
}

impl std::ops::Neg for &Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::mul_all([Expr::val(-1), self.clone()])
    }
}

impl Default for Expr {
    /// The zero literal.
    fn default() -> Expr {
        Expr::zero()
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Expr {
        Expr::val(v)
    }
}

impl From<usize> for Expr {
    fn from(v: usize) -> Expr {
        Expr::val(v as i64)
    }
}

impl From<i32> for Expr {
    fn from(v: i32) -> Expr {
        Expr::val(i64::from(v))
    }
}

impl From<u32> for Expr {
    fn from(v: u32) -> Expr {
        Expr::val(i64::from(v))
    }
}

impl From<&str> for Expr {
    fn from(name: &str) -> Expr {
        Expr::sym(name)
    }
}

// ---- display (debug-ish human syntax; language printers live in
// `crate::printer`) ---------------------------------------------------------

fn prec(kind: &ExprKind) -> u8 {
    match kind {
        ExprKind::Add(_) => 1,
        ExprKind::Mul(_) | ExprKind::FloorDiv(..) | ExprKind::Mod(..) => 2,
        _ => 3,
    }
}

fn fmt_child(e: &Expr, parent: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if prec(e.kind()) < parent {
        write!(f, "({e})")
    } else {
        write!(f, "{e}")
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            ExprKind::Const(v) => write!(f, "{v}"),
            ExprKind::Sym(s) => write!(f, "{s}"),
            ExprKind::Add(ts) => {
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    fmt_child(t, 1, f)?;
                }
                Ok(())
            }
            ExprKind::Mul(ts) => {
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "*")?;
                    }
                    fmt_child(t, 3, f)?;
                }
                Ok(())
            }
            ExprKind::FloorDiv(a, b) => {
                fmt_child(a, 2, f)?;
                write!(f, " // ")?;
                fmt_child(b, 3, f)
            }
            ExprKind::Mod(a, b) => {
                fmt_child(a, 2, f)?;
                write!(f, " % ")?;
                fmt_child(b, 3, f)
            }
            ExprKind::Min(a, b) => write!(f, "min({a}, {b})"),
            ExprKind::Xor(a, b) => write!(f, "({a} ^ {b})"),
            ExprKind::Max(a, b) => write!(f, "max({a}, {b})"),
            ExprKind::Select(c, t, e) => write!(f, "({t} if {c} else {e})"),
            ExprKind::ISqrt(a) => write!(f, "isqrt({a})"),
            ExprKind::Range {
                lo,
                len,
                axis,
                ndims,
            } => {
                write!(f, "range({lo}, {lo}+{len}; axis={axis}/{ndims})")
            }
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::Cmp(op, a, b) => write!(f, "{a} {} {b}", op.token()),
            Cond::All(cs) => {
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " and ")?;
                    }
                    write!(f, "({c})")?;
                }
                Ok(())
            }
            Cond::Any(cs) => {
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " or ")?;
                    }
                    write!(f, "({c})")?;
                }
                Ok(())
            }
            Cond::Not(c) => write!(f, "not ({c})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding_in_ctors() {
        assert_eq!(Expr::val(2) + Expr::val(3), Expr::val(5));
        assert_eq!(Expr::val(2) * Expr::val(3), Expr::val(6));
        assert_eq!(Expr::val(7).floor_div(&Expr::val(2)), Expr::val(3));
        assert_eq!(Expr::val(7).rem(&Expr::val(2)), Expr::val(1));
        assert_eq!(Expr::val(-7).floor_div(&Expr::val(2)), Expr::val(-4));
        assert_eq!(Expr::val(-7).rem(&Expr::val(2)), Expr::val(1));
    }

    #[test]
    fn add_flattens_and_sorts() {
        let a = Expr::sym("a");
        let b = Expr::sym("b");
        let e = (&a + Expr::val(1)) + (&b + Expr::val(2));
        match e.kind() {
            ExprKind::Add(ts) => {
                assert_eq!(ts.len(), 3);
                assert_eq!(ts[2], Expr::val(3));
            }
            k => panic!("expected Add, got {k:?}"),
        }
    }

    #[test]
    fn mul_zero_annihilates() {
        let a = Expr::sym("a");
        assert_eq!(a * Expr::zero(), Expr::zero());
    }

    #[test]
    fn div_by_one_is_identity() {
        let a = Expr::sym("a");
        assert_eq!(a.floor_div(&Expr::one()), a);
        assert_eq!(a.rem(&Expr::one()), Expr::zero());
    }

    #[test]
    fn sub_cancels_via_collect() {
        // Light canonicalization does not collect like terms; a - a stays
        // as a two-term Add until `simplify`.
        let a = Expr::sym("a");
        let e = &a - &a;
        assert!(matches!(e.kind(), ExprKind::Add(_)));
    }

    #[test]
    fn isqrt_exact_and_between() {
        for v in 0..2000i64 {
            let r = isqrt64(v);
            assert!(r * r <= v && (r + 1) * (r + 1) > v, "isqrt({v}) = {r}");
        }
    }

    #[test]
    fn display_is_readable() {
        let e = (Expr::sym("i") * Expr::sym("n") + Expr::sym("j")).floor_div(&Expr::sym("d"));
        assert_eq!(e.to_string(), "(i*n + j) // d");
    }

    #[test]
    fn free_syms_sorted_dedup() {
        let e = Expr::sym("b") * Expr::sym("a") + Expr::sym("b");
        let syms = e.free_syms();
        let names: Vec<&str> = syms.iter().map(|s| &**s).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn ceil_div_matches_formula() {
        assert_eq!(Expr::val(7).ceil_div(&Expr::val(2)), Expr::val(4));
        assert_eq!(Expr::val(8).ceil_div(&Expr::val(2)), Expr::val(4));
    }
}
