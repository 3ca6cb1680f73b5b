//! The hash-consing expression arena and the session memo tables.
//!
//! Every [`Expr`] is interned on construction: structurally identical
//! subtrees resolve to the *same* node (same [`ExprId`], same
//! allocation), so equality is usually a single integer compare and the
//! rewrite passes can memoize their results per node id. The arena is
//! thread-local and lock-free; node ids are drawn from one global
//! atomic counter, so an id names the same structure on every thread
//! and memo entries can never collide across threads. An `Expr` that
//! crosses a thread boundary stays fully usable — the receiving
//! thread's arena simply doesn't know it yet, so a structural duplicate
//! built there gets a fresh id and the (structural-hash-accelerated)
//! deep comparison in `Expr::eq` still answers correctly.
//!
//! The memo tables cache the expensive passes per `(environment id,
//! node id)`:
//!
//! * [`crate::Engine::simplify`] — full fixpoint results *and*
//!   single-pass results (so shared subtrees across different candidate
//!   expressions simplify once per tuning session),
//! * [`crate::range::RangeEnv::num_range`] — interval analysis,
//! * `prove_nonneg` / `prove_pos` / `prove_lt` facts (only those
//!   established at recursion depth 0, where the prover's depth budget
//!   is full and the answer is a pure function of the query),
//! * [`crate::Engine::op_count`] and [`crate::Engine::expand`] —
//!   environment-free, keyed by node id alone.
//!
//! [`ArenaStats`] exposes hit/miss counters for all of the above; the
//! `tuner-bench` binary reports them per workload in
//! `BENCH_tuner.json`.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::expr::{Cond, Expr, ExprKind};
use crate::range::NumRange;

/// The stable identity of an interned expression node.
///
/// Ids are unique per structure *within a thread's arena* and unique
/// across threads by construction (one global counter), so they are
/// safe keys for session-lifetime memo tables. They are **not** stable
/// across processes — never persist them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ExprId(pub(crate) u64);

impl ExprId {
    /// The raw id value (for diagnostics and memo keys).
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Global id allocator: one `fetch_add` per *new* node (interner misses
/// only), so ids are globally unique without a global lock on the
/// construction hot path.
static NEXT_NODE_ID: AtomicU64 = AtomicU64::new(1);

/// Global allocator for [`crate::range::RangeEnv`] identities.
static NEXT_ENV_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn fresh_node_id() -> u64 {
    NEXT_NODE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Hit/miss counters of the arena and every memo table, as observed by
/// the current thread. All counters are monotone; rates are computed by
/// the consumer (`tuner-bench`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Unique nodes currently interned.
    pub nodes: u64,
    /// Constructions answered by an existing node.
    pub intern_hits: u64,
    /// Constructions that allocated a new node.
    pub intern_misses: u64,
    /// Full `simplify` fixpoint results served from memo.
    pub simplify_hits: u64,
    /// Full `simplify` fixpoint results computed.
    pub simplify_misses: u64,
    /// Single-pass rewrite results served from memo.
    pub pass_hits: u64,
    /// Single-pass rewrite results computed.
    pub pass_misses: u64,
    /// `op_count` lookups served from memo.
    pub opcount_hits: u64,
    /// `op_count` values computed.
    pub opcount_misses: u64,
    /// `num_range` lookups served from memo.
    pub range_hits: u64,
    /// `num_range` values computed.
    pub range_misses: u64,
    /// Depth-0 prover facts served from memo.
    pub prove_hits: u64,
    /// Depth-0 prover facts computed.
    pub prove_misses: u64,
    /// `expand` results served from memo.
    pub expand_hits: u64,
    /// `expand` results computed.
    pub expand_misses: u64,
    /// Memo hits served by entries installed from a persistent
    /// sidecar. Always 0: the memo tables are per-process and nothing
    /// installs into them. The persistent sidecar (`lego-tune`) carries
    /// per-candidate answers instead, and counts its own hits. Kept for
    /// API compatibility with existing readers of the counters.
    pub sidecar_hits: u64,
}

impl ArenaStats {
    /// Total memo hits across all pass tables (everything except the
    /// interner itself).
    pub fn memo_hits(&self) -> u64 {
        self.simplify_hits
            + self.pass_hits
            + self.opcount_hits
            + self.range_hits
            + self.prove_hits
            + self.expand_hits
    }

    /// Total memo misses across all pass tables.
    pub fn memo_misses(&self) -> u64 {
        self.simplify_misses
            + self.pass_misses
            + self.opcount_misses
            + self.range_misses
            + self.prove_misses
            + self.expand_misses
    }

    /// Counter-wise difference `self - earlier` (for per-phase deltas).
    /// Saturating on every field, so a snapshot taken before a
    /// [`reset_memos`] (which zeroes the counters) yields zeros instead
    /// of underflowing.
    #[must_use]
    pub fn since(&self, earlier: &ArenaStats) -> ArenaStats {
        self.zip_with(earlier, u64::saturating_sub)
    }

    /// Counter-wise sum `self + other` (for totals across threads).
    #[must_use]
    pub fn merge(&self, other: &ArenaStats) -> ArenaStats {
        self.zip_with(other, |a, b| a + b)
    }

    /// Applies `f` to every pair of same-named counters.
    fn zip_with(&self, o: &ArenaStats, f: impl Fn(u64, u64) -> u64) -> ArenaStats {
        ArenaStats {
            nodes: f(self.nodes, o.nodes),
            intern_hits: f(self.intern_hits, o.intern_hits),
            intern_misses: f(self.intern_misses, o.intern_misses),
            simplify_hits: f(self.simplify_hits, o.simplify_hits),
            simplify_misses: f(self.simplify_misses, o.simplify_misses),
            pass_hits: f(self.pass_hits, o.pass_hits),
            pass_misses: f(self.pass_misses, o.pass_misses),
            opcount_hits: f(self.opcount_hits, o.opcount_hits),
            opcount_misses: f(self.opcount_misses, o.opcount_misses),
            range_hits: f(self.range_hits, o.range_hits),
            range_misses: f(self.range_misses, o.range_misses),
            prove_hits: f(self.prove_hits, o.prove_hits),
            prove_misses: f(self.prove_misses, o.prove_misses),
            expand_hits: f(self.expand_hits, o.expand_hits),
            expand_misses: f(self.expand_misses, o.expand_misses),
            sidecar_hits: f(self.sidecar_hits, o.sidecar_hits),
        }
    }
}

/// A hash-cons set entry whose hash/equality delegate to the interned
/// node's own payload, so the arena stores each `ExprKind` exactly once
/// (inside the node) instead of duplicating it as a map key.
struct ByKind(Expr);

impl std::borrow::Borrow<ExprKind> for ByKind {
    fn borrow(&self) -> &ExprKind {
        self.0.kind()
    }
}

impl PartialEq for ByKind {
    fn eq(&self, other: &ByKind) -> bool {
        self.0.kind() == other.0.kind()
    }
}

impl Eq for ByKind {}

impl std::hash::Hash for ByKind {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.kind().hash(state);
    }
}

/// One thread's arena: the hash-consing set plus every memo table.
#[derive(Default)]
struct ArenaInner {
    /// The canonical node per structure, keyed by its own payload
    /// (`ByKind` borrows `ExprKind` out of the node). `ExprKind`
    /// hashes/compares children by their (already interned) identity,
    /// so lookups never walk whole subtrees.
    nodes: std::collections::HashSet<ByKind>,
    /// `(env, expr)` → fixpoint-simplified expr.
    simplify: HashMap<(u64, u64), Expr>,
    /// `(env, expr)` → single-pass-rewritten expr (depth-0 only).
    pass: HashMap<(u64, u64), Expr>,
    /// `expr` → arithmetic op count.
    opcount: HashMap<u64, usize>,
    /// `(env, expr)` → numeric interval.
    range: HashMap<(u64, u64), NumRange>,
    /// `(env, expr, fact)` → proof verdict, depth-0 only. `fact` is 0
    /// for non-negativity, 1 for positivity.
    prove_unary: HashMap<(u64, u64, u8), bool>,
    /// `(env, lhs, rhs)` → `lhs < rhs` verdict, depth-0 only.
    prove_lt: HashMap<(u64, u64, u64), bool>,
    /// `expr` → distributed (expanded) expr.
    expand: HashMap<u64, Expr>,
    /// Canonical environment content → environment id.
    envs: HashMap<EnvKey, u64>,
}

/// Canonical content of a `RangeEnv`, in node ids: sorted
/// `(symbol, lo, hi)` bounds and sorted divisibility facts.
pub(crate) type EnvKey = (Vec<(String, Option<u64>, Option<u64>)>, Vec<(u64, u64)>);

thread_local! {
    static ARENA: RefCell<ArenaInner> = RefCell::new(ArenaInner::default());
    static STATS: Cell<ArenaStats> = Cell::new(ArenaStats::default());
}

fn bump(f: impl FnOnce(&mut ArenaStats)) {
    STATS.with(|s| {
        let mut v = s.get();
        f(&mut v);
        s.set(v);
    });
}

/// A snapshot of the current thread's arena/memo counters.
pub fn stats() -> ArenaStats {
    let mut s = STATS.with(Cell::get);
    s.nodes = ARENA.with(|a| a.borrow().nodes.len() as u64);
    s
}

/// Clears every memo table and resets the counters (the interned nodes
/// themselves stay — handles out there keep them alive anyway).
/// Intended for long-running sessions that switch to an unrelated
/// problem; the tuner never needs it.
pub fn reset_memos() {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        a.simplify.clear();
        a.pass.clear();
        a.opcount.clear();
        a.range.clear();
        a.prove_unary.clear();
        a.prove_lt.clear();
        a.expand.clear();
    });
    STATS.with(|s| s.set(ArenaStats::default()));
}

/// Interns `kind`, returning the canonical node for its structure.
pub(crate) fn intern(kind: ExprKind) -> Expr {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        if let Some(hit) = a.nodes.get(&kind) {
            let e = hit.0.clone();
            drop(a);
            bump(|s| s.intern_hits += 1);
            return e;
        }
        let e = Expr::new_node(kind);
        a.nodes.insert(ByKind(e.clone()));
        drop(a);
        bump(|s| s.intern_misses += 1);
        e
    })
}

/// Interns an environment's canonical content, returning its id.
pub(crate) fn intern_env(key: EnvKey) -> u64 {
    ARENA.with(|a| {
        let mut a = a.borrow_mut();
        *a.envs
            .entry(key)
            .or_insert_with(|| NEXT_ENV_ID.fetch_add(1, Ordering::Relaxed))
    })
}

// ---- memo table accessors ----------------------------------------------
//
// All follow the same shape: a `get` that counts a hit when it returns
// `Some`, and an `insert` that counts the miss (the caller computes the
// value between the two, so recursion through the tables is safe — no
// borrow is held while computing).

pub(crate) fn simplify_get(env: u64, expr: u64) -> Option<Expr> {
    let hit = ARENA.with(|a| a.borrow().simplify.get(&(env, expr)).cloned());
    if hit.is_some() {
        bump(|s| s.simplify_hits += 1);
    }
    hit
}

pub(crate) fn simplify_insert(env: u64, expr: u64, result: Expr) {
    ARENA.with(|a| a.borrow_mut().simplify.insert((env, expr), result));
    bump(|s| s.simplify_misses += 1);
}

pub(crate) fn pass_get(env: u64, expr: u64) -> Option<Expr> {
    let hit = ARENA.with(|a| a.borrow().pass.get(&(env, expr)).cloned());
    if hit.is_some() {
        bump(|s| s.pass_hits += 1);
    }
    hit
}

pub(crate) fn pass_insert(env: u64, expr: u64, result: Expr) {
    ARENA.with(|a| a.borrow_mut().pass.insert((env, expr), result));
    bump(|s| s.pass_misses += 1);
}

pub(crate) fn opcount_get(expr: u64) -> Option<usize> {
    let hit = ARENA.with(|a| a.borrow().opcount.get(&expr).copied());
    if hit.is_some() {
        bump(|s| s.opcount_hits += 1);
    }
    hit
}

pub(crate) fn opcount_insert(expr: u64, n: usize) {
    ARENA.with(|a| a.borrow_mut().opcount.insert(expr, n));
    bump(|s| s.opcount_misses += 1);
}

pub(crate) fn range_get(env: u64, expr: u64) -> Option<NumRange> {
    let hit = ARENA.with(|a| a.borrow().range.get(&(env, expr)).copied());
    if hit.is_some() {
        bump(|s| s.range_hits += 1);
    }
    hit
}

pub(crate) fn range_insert(env: u64, expr: u64, r: NumRange) {
    ARENA.with(|a| a.borrow_mut().range.insert((env, expr), r));
    bump(|s| s.range_misses += 1);
}

pub(crate) fn prove_unary_get(env: u64, expr: u64, fact: u8) -> Option<bool> {
    let hit = ARENA.with(|a| a.borrow().prove_unary.get(&(env, expr, fact)).copied());
    if hit.is_some() {
        bump(|s| s.prove_hits += 1);
    }
    hit
}

pub(crate) fn prove_unary_insert(env: u64, expr: u64, fact: u8, v: bool) {
    ARENA.with(|a| a.borrow_mut().prove_unary.insert((env, expr, fact), v));
    bump(|s| s.prove_misses += 1);
}

pub(crate) fn prove_lt_get(env: u64, a: u64, b: u64) -> Option<bool> {
    let hit = ARENA.with(|ar| ar.borrow().prove_lt.get(&(env, a, b)).copied());
    if hit.is_some() {
        bump(|s| s.prove_hits += 1);
    }
    hit
}

pub(crate) fn prove_lt_insert(env: u64, a: u64, b: u64, v: bool) {
    ARENA.with(|ar| ar.borrow_mut().prove_lt.insert((env, a, b), v));
    bump(|s| s.prove_misses += 1);
}

pub(crate) fn expand_get(expr: u64) -> Option<Expr> {
    let hit = ARENA.with(|a| a.borrow().expand.get(&expr).cloned());
    if hit.is_some() {
        bump(|s| s.expand_hits += 1);
    }
    hit
}

pub(crate) fn expand_insert(expr: u64, result: Expr) {
    ARENA.with(|a| a.borrow_mut().expand.insert(expr, result));
    bump(|s| s.expand_misses += 1);
}

// ---- structural hashing -------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A tiny FNV-1a accumulator for the thread-independent structural
/// hash stored on every node.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    pub(crate) fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// The structural hash of a node-to-be: a pure function of the tree
/// shape (children contribute their cached structural hashes), so two
/// structurally identical expressions hash identically on *any* thread.
pub(crate) fn structural_hash(kind: &ExprKind) -> u64 {
    let mut h = Fnv::new();
    hash_kind(kind, &mut h);
    h.finish()
}

fn hash_kind(kind: &ExprKind, h: &mut Fnv) {
    match kind {
        ExprKind::Const(v) => {
            h.byte(0);
            h.u64(*v as u64);
        }
        ExprKind::Sym(s) => {
            h.byte(1);
            h.str(s);
        }
        ExprKind::Add(ts) => {
            h.byte(2);
            h.u64(ts.len() as u64);
            for t in ts {
                h.u64(t.shash());
            }
        }
        ExprKind::Mul(ts) => {
            h.byte(3);
            h.u64(ts.len() as u64);
            for t in ts {
                h.u64(t.shash());
            }
        }
        ExprKind::FloorDiv(a, b) => {
            h.byte(4);
            h.u64(a.shash());
            h.u64(b.shash());
        }
        ExprKind::Mod(a, b) => {
            h.byte(5);
            h.u64(a.shash());
            h.u64(b.shash());
        }
        ExprKind::Min(a, b) => {
            h.byte(6);
            h.u64(a.shash());
            h.u64(b.shash());
        }
        ExprKind::Max(a, b) => {
            h.byte(7);
            h.u64(a.shash());
            h.u64(b.shash());
        }
        ExprKind::Xor(a, b) => {
            h.byte(8);
            h.u64(a.shash());
            h.u64(b.shash());
        }
        ExprKind::Select(c, t, e) => {
            h.byte(9);
            hash_cond(c, h);
            h.u64(t.shash());
            h.u64(e.shash());
        }
        ExprKind::ISqrt(a) => {
            h.byte(10);
            h.u64(a.shash());
        }
        ExprKind::Range {
            lo,
            len,
            axis,
            ndims,
        } => {
            h.byte(11);
            h.u64(lo.shash());
            h.u64(len.shash());
            h.u64(*axis as u64);
            h.u64(*ndims as u64);
        }
    }
}

fn hash_cond(c: &Cond, h: &mut Fnv) {
    match c {
        Cond::Cmp(op, a, b) => {
            h.byte(20);
            h.byte(*op as u8);
            h.u64(a.shash());
            h.u64(b.shash());
        }
        Cond::All(cs) => {
            h.byte(21);
            h.u64(cs.len() as u64);
            for c in cs {
                hash_cond(c, h);
            }
        }
        Cond::Any(cs) => {
            h.byte(22);
            h.u64(cs.len() as u64);
            for c in cs {
                hash_cond(c, h);
            }
        }
        Cond::Not(c) => {
            h.byte(23);
            hash_cond(c, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::RangeEnv;
    use crate::simplify::fixpoint_simplify as simplify;
    use crate::Expr;

    #[test]
    fn duplicate_construction_hits_the_interner() {
        let before = stats();
        let a = Expr::sym("zq_intern_test") + Expr::val(41);
        let b = Expr::sym("zq_intern_test") + Expr::val(41);
        let after = stats();
        assert!(a.ptr_eq(&b));
        assert!(
            after.intern_hits > before.intern_hits,
            "rebuilding an identical expression must hit the arena"
        );
    }

    #[test]
    fn repeated_simplify_hits_the_memo() {
        let mut env = RangeEnv::new();
        env.assume_pos("zq_memo_d");
        let e = Expr::sym("zq_memo_x")
            .rem(&Expr::sym("zq_memo_d"))
            .floor_div(&Expr::sym("zq_memo_d"));
        let first = simplify(&e, &env);
        let before = stats();
        let second = simplify(&e, &env);
        let after = stats();
        assert!(first.ptr_eq(&second));
        assert!(
            after.simplify_hits > before.simplify_hits,
            "second simplify of the same (env, expr) must be a memo hit"
        );
    }

    /// A distinct power of two in every counter, so a field summed
    /// into or subtracted from a neighbour cannot cancel out.
    fn distinct_stats(shift: u64) -> ArenaStats {
        let v = |i: u64| 1 << (i + shift);
        ArenaStats {
            nodes: v(0),
            intern_hits: v(1),
            intern_misses: v(2),
            simplify_hits: v(3),
            simplify_misses: v(4),
            pass_hits: v(5),
            pass_misses: v(6),
            opcount_hits: v(7),
            opcount_misses: v(8),
            range_hits: v(9),
            range_misses: v(10),
            prove_hits: v(11),
            prove_misses: v(12),
            expand_hits: v(13),
            expand_misses: v(14),
            sidecar_hits: v(15),
        }
    }

    #[test]
    fn merge_is_undone_by_since() {
        let a = distinct_stats(20);
        let b = distinct_stats(0);
        assert_eq!(a.merge(&b).since(&a), b);
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&ArenaStats::default()), a);
        assert_eq!(b.since(&a), ArenaStats::default(), "since saturates");
    }

    #[test]
    fn identical_envs_share_one_id() {
        let mut a = RangeEnv::new();
        let mut b = RangeEnv::new();
        a.set_bounds("zq_env_i", Expr::zero(), Expr::sym("zq_env_n"));
        b.set_bounds("zq_env_i", Expr::zero(), Expr::sym("zq_env_n"));
        assert_eq!(a.id(), b.id());
        b.assume_pos("zq_env_n");
        assert_ne!(a.id(), b.id(), "mutation must change the identity");
    }
}
