//! The persistent memo sidecar: derived results on disk, keyed by
//! structure.
//!
//! The arena's memo tables ([`crate::intern`]) make warm re-enumeration
//! orders of magnitude faster than cold — but they are per-process, so
//! every daemon restart and every fresh bench invocation pays the full
//! cold derivation cost again. This module persists the derivable
//! subset of those tables next to the tuning cache:
//!
//! * fixpoint-simplified forms per environment,
//! * op counts,
//! * plus an opaque annotation section the tuner layer uses for its
//!   `(workload, config) → (variant, index_ops)` cache.
//!
//! **Keys are structural, never ids.** `ExprId`s are session-local by
//! design, so every expression and environment is stored as its
//! canonical printed form (a compact, space-free encoding that
//! [`Sidecar::install`] re-interns on load — memo hits against
//! installed entries are genuine arena nodes). Each entry also carries
//! the input's thread-independent structural hash as an integrity
//! check; an entry whose decoded form does not hash to its recorded
//! value is dropped.
//!
//! **Invalidation is wholesale.** The document header records a schema
//! version and a fingerprint of the rewrite-rule registry
//! ([`crate::rules::table_fingerprint`]); a mismatch in either — or any
//! parse error anywhere in the file — makes [`Sidecar::load`] return an
//! empty store. A stale or corrupt sidecar is a cold start, never an
//! error and never a stale simplification.
//!
//! Writes go through the shared atomic-replace path
//! ([`crate::atomicfile`]): [`Sidecar::save`] merges with whatever is
//! on disk under the per-file lock and renames a tempfile into place,
//! so concurrent writers (fleet workers, daemon shutdown) cannot lose
//! each other's entries and readers never see a torn document.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::atomicfile;
use crate::expr::{CmpOp, Cond, Expr, ExprKind};
use crate::intern::{self, EnvKey};
use crate::range::RangeEnv;
use crate::rules;

/// Version of the sidecar document format *and* of the encoding
/// semantics behind it. Bump on any incompatible change; mismatched
/// documents are discarded wholesale (a cold start, not an error).
pub const SIDECAR_SCHEMA_VERSION: u64 = 1;

/// First token of every sidecar document.
const MAGIC: &str = "lego-expr-sidecar";

/// Value row of the simplify section: `(input structural hash, encoded
/// result)`.
type FormRow = (u64, String);

/// What [`Sidecar::install`] did: entries newly installed per table
/// (entries the session had already derived are not counted — the
/// in-process result is kept), plus entries dropped by the integrity
/// checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstallReport {
    /// Fixpoint-simplify entries installed.
    pub simplify: usize,
    /// Op-count entries installed.
    pub opcount: usize,
    /// Entries skipped: undecodable environment or expression, or a
    /// structural-hash mismatch.
    pub skipped: usize,
}

impl InstallReport {
    /// Total entries installed across all tables.
    pub fn installed(&self) -> usize {
        self.simplify + self.opcount
    }
}

/// An in-memory sidecar document: derived results keyed by canonical
/// printed forms. Build one with [`Sidecar::collect`] (snapshot this
/// thread's memo tables) or [`Sidecar::load`] (read from disk), move
/// results between processes with [`Sidecar::save`] /
/// [`Sidecar::install`], and combine per-worker documents with
/// [`Sidecar::merge`].
#[derive(Clone, Debug, Default)]
pub struct Sidecar {
    /// Deduplicated canonical environment encodings; entries reference
    /// them by index.
    envs: Vec<String>,
    /// Reverse index of `envs`.
    env_ids: HashMap<String, u32>,
    /// `(env slot, encoded input)` → `(input shash, encoded result)`.
    simplify: HashMap<(u32, String), FormRow>,
    /// Encoded input → `(input shash, op count)`.
    opcount: HashMap<String, (u64, u64)>,
    /// Opaque annotation entries (the tuner layer's section). Sorted
    /// map so rendering is deterministic.
    annotations: BTreeMap<String, String>,
    /// Opaque traffic entries (the cost model's geometry → traffic
    /// memo, owned by `gpu-sim` and routed here by the tuner layer).
    /// Sorted map so rendering is deterministic.
    traffics: BTreeMap<String, String>,
}

impl Sidecar {
    /// An empty document.
    pub fn new() -> Sidecar {
        Sidecar::default()
    }

    /// Total entries across every section.
    pub fn len(&self) -> usize {
        self.expr_entries() + self.annotations.len() + self.traffics.len()
    }

    /// True when no section has any entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries in the expression sections (simplify + opcount),
    /// excluding annotations.
    pub fn expr_entries(&self) -> usize {
        self.simplify.len() + self.opcount.len()
    }

    /// The slot of `enc` in the environment table, interning it if new.
    fn env_slot(&mut self, enc: &str) -> u32 {
        if let Some(&i) = self.env_ids.get(enc) {
            return i;
        }
        let i = u32::try_from(self.envs.len()).expect("sidecar env table overflow");
        self.envs.push(enc.to_string());
        self.env_ids.insert(enc.to_string(), i);
        i
    }

    /// Adds (or keeps) an opaque annotation entry. The expression layer
    /// never interprets these; the tuner layer round-trips its
    /// `(workload, config) → (variant, index_ops)` cache through them.
    /// Keys and values containing newlines are dropped at render time.
    pub fn set_annotation(&mut self, key: &str, value: &str) {
        self.annotations.insert(key.to_string(), value.to_string());
    }

    /// Iterates the annotation section in sorted key order.
    pub fn annotations(&self) -> impl Iterator<Item = (&str, &str)> {
        self.annotations.iter().map(|(k, v)| (&**k, &**v))
    }

    /// Adds (or keeps) an opaque traffic entry: a geometry fingerprint
    /// mapped to an encoded traffic cost. Like annotations, the
    /// expression layer never interprets these; `gpu-sim`'s traffic
    /// memo round-trips through them. Keys and values containing
    /// newlines are dropped at render time.
    pub fn set_traffic(&mut self, key: &str, value: &str) {
        self.traffics.insert(key.to_string(), value.to_string());
    }

    /// Iterates the traffic section in sorted key order.
    pub fn traffics(&self) -> impl Iterator<Item = (&str, &str)> {
        self.traffics.iter().map(|(k, v)| (&**k, &**v))
    }

    /// Snapshots the current thread's memo tables into a document:
    /// every simplify/op-count entry whose key resolves to
    /// nodes this thread knows (entries keyed by another thread's ids
    /// are skipped — they will be collected by that thread).
    pub fn collect() -> Sidecar {
        let snap = intern::snapshot();
        let mut sc = Sidecar::default();
        let env_enc: HashMap<u64, Option<String>> = snap
            .envs
            .iter()
            .map(|(id, key)| (*id, enc_env_key(key, &snap.exprs)))
            .collect();
        for (env, expr, result) in &snap.simplify {
            let Some(Some(env_enc)) = env_enc.get(env) else {
                continue;
            };
            let Some((input_enc, shash)) = enc_input(&snap.exprs, *expr) else {
                continue;
            };
            let slot = sc.env_slot(env_enc);
            sc.simplify
                .entry((slot, input_enc))
                .or_insert_with(|| (shash, enc_expr_string(result)));
        }
        for (expr, n) in &snap.opcount {
            let Some((input_enc, shash)) = enc_input(&snap.exprs, *expr) else {
                continue;
            };
            sc.opcount.entry(input_enc).or_insert((shash, *n as u64));
        }
        sc
    }

    /// Re-interns every entry on the calling thread and installs it
    /// into the session memo tables. Decoding rebuilds the exact stored
    /// structure (so installed results are served for the very nodes
    /// the tuner constructs); environments are rebuilt and re-identified
    /// through [`RangeEnv::id`]. Entries that fail to decode or whose
    /// structural hash does not match are skipped, never an error.
    pub fn install(&self) -> InstallReport {
        let mut rep = InstallReport::default();
        let env_ids: Vec<Option<u64>> = self.envs.iter().map(|enc| dec_env(enc)).collect();
        let env_of = |slot: &u32, rep: &mut InstallReport| -> Option<u64> {
            match env_ids.get(*slot as usize) {
                Some(Some(id)) => Some(*id),
                _ => {
                    rep.skipped += 1;
                    None
                }
            }
        };
        for ((slot, input_enc), (shash, result_enc)) in &self.simplify {
            let Some(env) = env_of(slot, &mut rep) else {
                continue;
            };
            let Some((input, result)) = dec_entry(input_enc, *shash, result_enc) else {
                rep.skipped += 1;
                continue;
            };
            if intern::sidecar_install_simplify(env, input.id().get(), result) {
                rep.simplify += 1;
            }
        }
        for (input_enc, (shash, n)) in &self.opcount {
            let Some(input) = dec_expr_full(input_enc) else {
                rep.skipped += 1;
                continue;
            };
            if input.shash() != *shash {
                rep.skipped += 1;
                continue;
            }
            if intern::sidecar_install_opcount(input.id().get(), *n as usize) {
                rep.opcount += 1;
            }
        }
        rep
    }

    /// Unions `other` into `self`. Existing entries win (all entries
    /// are deterministic derivations, so which copy survives is
    /// immaterial; keeping the first makes merge order-insensitive for
    /// equal documents).
    pub fn merge(&mut self, other: &Sidecar) {
        for ((slot, input), row) in &other.simplify {
            let slot = self.env_slot(&other.envs[*slot as usize]);
            self.simplify
                .entry((slot, input.clone()))
                .or_insert_with(|| row.clone());
        }
        for (input, row) in &other.opcount {
            self.opcount.entry(input.clone()).or_insert(*row);
        }
        for (k, v) in &other.annotations {
            self.annotations
                .entry(k.clone())
                .or_insert_with(|| v.clone());
        }
        for (k, v) in &other.traffics {
            self.traffics.entry(k.clone()).or_insert_with(|| v.clone());
        }
    }

    /// Renders the document: a header stamping the schema version and
    /// rule-table fingerprint, the referenced environments renumbered
    /// in sorted order, then every section's rows sorted — so the same
    /// content always renders to the same bytes regardless of insertion
    /// or merge order.
    pub fn render(&self) -> String {
        let clean = |s: &str| !s.contains(['\n', '\r']);
        // Renumber only the environments that entries actually
        // reference, in sorted-encoding order.
        let referenced: BTreeSet<u32> = self.simplify.keys().map(|(slot, _)| *slot).collect();
        let mut env_order: Vec<(&str, u32)> = referenced
            .iter()
            .map(|&slot| (&*self.envs[slot as usize], slot))
            .collect();
        env_order.sort_unstable();
        let renumber: HashMap<u32, usize> = env_order
            .iter()
            .enumerate()
            .map(|(new, (_, old))| (*old, new))
            .collect();

        let mut out = format!(
            "{MAGIC} v{SIDECAR_SCHEMA_VERSION} rules={:016x}\n",
            rules::table_fingerprint()
        );
        for (i, (enc, _)) in env_order.iter().enumerate() {
            let _ = writeln!(out, "env {i} {enc}");
        }
        let mut rows: Vec<String> = self
            .simplify
            .iter()
            .map(|((slot, input), (shash, result))| {
                format!("simplify {} {shash:016x} {input} {result}", renumber[slot])
            })
            .collect();
        rows.sort_unstable();
        for row in rows.drain(..).filter(|r| clean(r)) {
            out.push_str(&row);
            out.push('\n');
        }
        let mut rows: Vec<String> = self
            .opcount
            .iter()
            .map(|(input, (shash, n))| format!("opcount {shash:016x} {n} {input}"))
            .collect();
        rows.sort_unstable();
        for row in rows.drain(..).filter(|r| clean(r)) {
            out.push_str(&row);
            out.push('\n');
        }
        for (k, v) in &self.annotations {
            if clean(k) && clean(v) {
                let _ = writeln!(out, "ann {}:{k} {}:{v}", k.len(), v.len());
            }
        }
        for (k, v) in &self.traffics {
            if clean(k) && clean(v) {
                let _ = writeln!(out, "traffic {}:{k} {}:{v}", k.len(), v.len());
            }
        }
        out
    }

    /// Parses a rendered document. `None` on *any* anomaly — wrong
    /// magic, schema version, or rule fingerprint; a malformed line; an
    /// out-of-order or unknown environment reference — so callers
    /// degrade to an empty store (cold start) rather than trusting a
    /// stale or truncated file.
    pub fn parse(text: &str) -> Option<Sidecar> {
        let mut lines = text.lines();
        let mut header = lines.next()?.split_whitespace();
        if header.next()? != MAGIC {
            return None;
        }
        if header.next()? != format!("v{SIDECAR_SCHEMA_VERSION}") {
            return None;
        }
        let fp = header.next()?.strip_prefix("rules=")?;
        if u64::from_str_radix(fp, 16).ok()? != rules::table_fingerprint() {
            return None;
        }
        if header.next().is_some() {
            return None;
        }
        let mut sc = Sidecar::default();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (tag, rest) = line.split_once(' ')?;
            match tag {
                "env" => {
                    let (idx, enc) = rest.split_once(' ')?;
                    let idx: usize = idx.parse().ok()?;
                    // Environments must appear in slot order, undup'd.
                    if sc.env_slot(enc) as usize != idx {
                        return None;
                    }
                }
                "simplify" => {
                    let f: Vec<&str> = rest.split_whitespace().collect();
                    let [slot, shash, input, result] = f[..] else {
                        return None;
                    };
                    let slot: u32 = slot.parse().ok()?;
                    if slot as usize >= sc.envs.len() {
                        return None;
                    }
                    let shash = u64::from_str_radix(shash, 16).ok()?;
                    sc.simplify
                        .insert((slot, input.to_string()), (shash, result.to_string()));
                }
                "opcount" => {
                    let f: Vec<&str> = rest.split_whitespace().collect();
                    let [shash, n, input] = f[..] else {
                        return None;
                    };
                    let shash = u64::from_str_radix(shash, 16).ok()?;
                    let n: u64 = n.parse().ok()?;
                    sc.opcount.insert(input.to_string(), (shash, n));
                }
                "ann" => {
                    let mut c = Cur::new(rest);
                    let klen = c.uint()? as usize;
                    c.expect(b':')?;
                    let key = c.take(klen)?.to_string();
                    c.expect(b' ')?;
                    let vlen = c.uint()? as usize;
                    c.expect(b':')?;
                    let value = c.take(vlen)?.to_string();
                    if !c.done() {
                        return None;
                    }
                    sc.annotations.insert(key, value);
                }
                "traffic" => {
                    let mut c = Cur::new(rest);
                    let klen = c.uint()? as usize;
                    c.expect(b':')?;
                    let key = c.take(klen)?.to_string();
                    c.expect(b' ')?;
                    let vlen = c.uint()? as usize;
                    c.expect(b':')?;
                    let value = c.take(vlen)?.to_string();
                    if !c.done() {
                        return None;
                    }
                    sc.traffics.insert(key, value);
                }
                _ => return None,
            }
        }
        Some(sc)
    }

    /// Reads the sidecar at `path`. A missing, stale (schema or rule
    /// fingerprint mismatch), truncated, or corrupt file yields an
    /// empty document — persistence failures degrade to cold starts,
    /// never errors.
    pub fn load(path: &Path) -> Sidecar {
        match std::fs::read_to_string(path) {
            Ok(text) => Sidecar::parse(&text).unwrap_or_default(),
            Err(_) => Sidecar::default(),
        }
    }

    /// Merges this document into the file at `path` atomically: under
    /// the shared per-file lock, loads whatever is on disk (empty if
    /// stale or corrupt — which means a save after a rule change
    /// rewrites the file fresh), merges `self` in, and replaces the
    /// file via tempfile + rename. Missing parent directories are
    /// created.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let lock = atomicfile::path_lock(path);
        let _guard = lock.lock().expect("sidecar file lock poisoned");
        let mut doc = Sidecar::load(path);
        doc.merge(self);
        atomicfile::write_atomic(path, &doc.render())
    }
}

// ---- expression encoding ------------------------------------------------
//
// A compact, space-free, self-delimiting prefix encoding, so entry
// lines can be split on whitespace and every decoded token rebuilds the
// exact stored structure via `Expr::raw` (re-interning it on the
// decoding thread). Leaves: `c<int>` (constant), `y<len>:<bytes>`
// (symbol). Compounds: `(<tag>...)` with one-byte tags.

fn enc_expr(e: &Expr, out: &mut String) {
    match e.kind() {
        ExprKind::Const(v) => {
            let _ = write!(out, "c{v}");
        }
        ExprKind::Sym(s) => {
            let _ = write!(out, "y{}:{s}", s.len());
        }
        ExprKind::Add(ts) => {
            out.push_str("(+");
            for t in ts {
                enc_expr(t, out);
            }
            out.push(')');
        }
        ExprKind::Mul(ts) => {
            out.push_str("(*");
            for t in ts {
                enc_expr(t, out);
            }
            out.push(')');
        }
        ExprKind::FloorDiv(a, b) => enc_pair('/', a, b, out),
        ExprKind::Mod(a, b) => enc_pair('%', a, b, out),
        ExprKind::Min(a, b) => enc_pair('m', a, b, out),
        ExprKind::Max(a, b) => enc_pair('M', a, b, out),
        ExprKind::Xor(a, b) => enc_pair('x', a, b, out),
        ExprKind::Select(c, t, e) => {
            out.push_str("(s");
            enc_cond(c, out);
            enc_expr(t, out);
            enc_expr(e, out);
            out.push(')');
        }
        ExprKind::ISqrt(a) => {
            out.push_str("(q");
            enc_expr(a, out);
            out.push(')');
        }
        ExprKind::Range {
            lo,
            len,
            axis,
            ndims,
        } => {
            out.push_str("(r");
            enc_expr(lo, out);
            enc_expr(len, out);
            let _ = write!(out, "a{axis}n{ndims}");
            out.push(')');
        }
    }
}

fn enc_pair(tag: char, a: &Expr, b: &Expr, out: &mut String) {
    out.push('(');
    out.push(tag);
    enc_expr(a, out);
    enc_expr(b, out);
    out.push(')');
}

fn enc_cond(c: &Cond, out: &mut String) {
    match c {
        Cond::Cmp(op, a, b) => {
            out.push_str("(C");
            out.push(match op {
                CmpOp::Lt => '<',
                CmpOp::Le => 'l',
                CmpOp::Eq => '=',
                CmpOp::Ne => '!',
                CmpOp::Gt => '>',
                CmpOp::Ge => 'g',
            });
            enc_expr(a, out);
            enc_expr(b, out);
            out.push(')');
        }
        Cond::All(cs) => {
            out.push_str("(A");
            for c in cs {
                enc_cond(c, out);
            }
            out.push(')');
        }
        Cond::Any(cs) => {
            out.push_str("(O");
            for c in cs {
                enc_cond(c, out);
            }
            out.push(')');
        }
        Cond::Not(c) => {
            out.push_str("(N");
            enc_cond(c, out);
            out.push(')');
        }
    }
}

fn enc_expr_string(e: &Expr) -> String {
    let mut s = String::new();
    enc_expr(e, &mut s);
    s
}

/// Encodes the input expression behind memo key `id`, returning the
/// encoding and the structural hash. `None` when this thread's arena
/// does not know the id, or when the encoding would not survive the
/// line-oriented document (whitespace in a symbol name).
fn enc_input(exprs: &HashMap<u64, Expr>, id: u64) -> Option<(String, u64)> {
    let e = exprs.get(&id)?;
    let enc = enc_expr_string(e);
    if enc.contains(char::is_whitespace) {
        return None;
    }
    Some((enc, e.shash()))
}

/// Encodes an interned environment's canonical content. Bounds render
/// in `EnvKey` order (sorted by name); divisibility facts are sorted by
/// their encoded text, so the encoding is content-deterministic across
/// sessions even though `EnvKey` orders divs by session-local ids.
fn enc_env_key(key: &EnvKey, exprs: &HashMap<u64, Expr>) -> Option<String> {
    let mut s = String::from("(E");
    for (name, lo, hi) in &key.0 {
        s.push_str("(b");
        let _ = write!(s, "{}:{name}", name.len());
        for side in [lo, hi] {
            match side {
                None => s.push('_'),
                Some(id) => enc_expr(exprs.get(id)?, &mut s),
            }
        }
        s.push(')');
    }
    let mut divs: Vec<String> = Vec::with_capacity(key.1.len());
    for (d, x) in &key.1 {
        let mut t = String::from("(d");
        enc_expr(exprs.get(d)?, &mut t);
        enc_expr(exprs.get(x)?, &mut t);
        t.push(')');
        divs.push(t);
    }
    divs.sort_unstable();
    for d in divs {
        s.push_str(&d);
    }
    s.push(')');
    if s.contains(char::is_whitespace) {
        return None;
    }
    Some(s)
}

// ---- decoding -----------------------------------------------------------

/// A byte cursor over one encoded token.
struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    fn new(s: &'a str) -> Cur<'a> {
        Cur {
            b: s.as_bytes(),
            i: 0,
        }
    }

    fn done(&self) -> bool {
        self.i == self.b.len()
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.i += 1;
        Some(b)
    }

    fn expect(&mut self, want: u8) -> Option<()> {
        (self.bump()? == want).then_some(())
    }

    /// A non-negative decimal integer (at least one digit).
    fn uint(&mut self) -> Option<u64> {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if self.i == start {
            return None;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()?
            .parse()
            .ok()
    }

    /// A decimal integer with an optional leading minus.
    fn int(&mut self) -> Option<i64> {
        let neg = self.peek() == Some(b'-');
        if neg {
            self.i += 1;
        }
        let v = self.uint()?;
        if neg {
            Some(-(i64::try_from(v).ok()?))
        } else {
            i64::try_from(v).ok()
        }
    }

    /// Exactly `n` bytes as UTF-8 (fails on a split code point).
    fn take(&mut self, n: usize) -> Option<&'a str> {
        let bytes = self.b.get(self.i..self.i.checked_add(n)?)?;
        self.i += n;
        std::str::from_utf8(bytes).ok()
    }
}

fn dec_expr(c: &mut Cur) -> Option<Expr> {
    match c.peek()? {
        b'c' => {
            c.bump();
            Some(Expr::val(c.int()?))
        }
        b'y' => {
            c.bump();
            let n = c.uint()? as usize;
            c.expect(b':')?;
            Some(Expr::sym(c.take(n)?))
        }
        b'(' => {
            c.bump();
            match c.bump()? {
                b'+' => Some(Expr::raw(ExprKind::Add(dec_list(c)?))),
                b'*' => Some(Expr::raw(ExprKind::Mul(dec_list(c)?))),
                b'/' => dec_pair(c, ExprKind::FloorDiv),
                b'%' => dec_pair(c, ExprKind::Mod),
                b'm' => dec_pair(c, ExprKind::Min),
                b'M' => dec_pair(c, ExprKind::Max),
                b'x' => dec_pair(c, ExprKind::Xor),
                b's' => {
                    let cond = dec_cond(c)?;
                    let t = dec_expr(c)?;
                    let e = dec_expr(c)?;
                    c.expect(b')')?;
                    Some(Expr::raw(ExprKind::Select(cond, t, e)))
                }
                b'q' => {
                    let a = dec_expr(c)?;
                    c.expect(b')')?;
                    Some(Expr::raw(ExprKind::ISqrt(a)))
                }
                b'r' => {
                    let lo = dec_expr(c)?;
                    let len = dec_expr(c)?;
                    c.expect(b'a')?;
                    let axis = c.uint()? as usize;
                    c.expect(b'n')?;
                    let ndims = c.uint()? as usize;
                    c.expect(b')')?;
                    Some(Expr::raw(ExprKind::Range {
                        lo,
                        len,
                        axis,
                        ndims,
                    }))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Child expressions up to the closing paren (which is consumed).
fn dec_list(c: &mut Cur) -> Option<Vec<Expr>> {
    let mut out = Vec::new();
    while c.peek()? != b')' {
        out.push(dec_expr(c)?);
    }
    c.bump();
    Some(out)
}

fn dec_pair(c: &mut Cur, build: impl FnOnce(Expr, Expr) -> ExprKind) -> Option<Expr> {
    let a = dec_expr(c)?;
    let b = dec_expr(c)?;
    c.expect(b')')?;
    Some(Expr::raw(build(a, b)))
}

fn dec_cond(c: &mut Cur) -> Option<Cond> {
    c.expect(b'(')?;
    match c.bump()? {
        b'C' => {
            let op = match c.bump()? {
                b'<' => CmpOp::Lt,
                b'l' => CmpOp::Le,
                b'=' => CmpOp::Eq,
                b'!' => CmpOp::Ne,
                b'>' => CmpOp::Gt,
                b'g' => CmpOp::Ge,
                _ => return None,
            };
            let a = dec_expr(c)?;
            let b = dec_expr(c)?;
            c.expect(b')')?;
            Some(Cond::Cmp(op, a, b))
        }
        b'A' => Some(Cond::All(dec_cond_list(c)?)),
        b'O' => Some(Cond::Any(dec_cond_list(c)?)),
        b'N' => {
            let inner = dec_cond(c)?;
            c.expect(b')')?;
            Some(Cond::Not(Box::new(inner)))
        }
        _ => None,
    }
}

fn dec_cond_list(c: &mut Cur) -> Option<Vec<Cond>> {
    let mut out = Vec::new();
    while c.peek()? != b')' {
        out.push(dec_cond(c)?);
    }
    c.bump();
    Some(out)
}

/// Decodes a whole token (the cursor must be fully consumed).
fn dec_expr_full(enc: &str) -> Option<Expr> {
    let mut c = Cur::new(enc);
    let e = dec_expr(&mut c)?;
    c.done().then_some(e)
}

/// Decodes one memo entry: the input (verified against its recorded
/// structural hash) and the result.
fn dec_entry(input_enc: &str, shash: u64, result_enc: &str) -> Option<(Expr, Expr)> {
    let input = dec_expr_full(input_enc)?;
    if input.shash() != shash {
        return None;
    }
    let result = dec_expr_full(result_enc)?;
    Some((input, result))
}

/// Decodes an environment encoding, rebuilds the [`RangeEnv`], and
/// returns its session id — which matches the id any equal environment
/// constructed by this session's tuner code gets, so installed entries
/// are served for real lookups.
fn dec_env(enc: &str) -> Option<u64> {
    let mut c = Cur::new(enc);
    c.expect(b'(')?;
    c.expect(b'E')?;
    let mut env = RangeEnv::new();
    while c.peek()? == b'(' {
        c.bump();
        match c.bump()? {
            b'b' => {
                let n = c.uint()? as usize;
                c.expect(b':')?;
                let name = c.take(n)?.to_string();
                let side = |c: &mut Cur| -> Option<Option<Expr>> {
                    if c.peek()? == b'_' {
                        c.bump();
                        Some(None)
                    } else {
                        Some(Some(dec_expr(c)?))
                    }
                };
                let lo = side(&mut c)?;
                let hi = side(&mut c)?;
                c.expect(b')')?;
                env.set_bounds_opt(&name, lo, hi);
            }
            b'd' => {
                let d = dec_expr(&mut c)?;
                let x = dec_expr(&mut c)?;
                c.expect(b')')?;
                env.assume_divides(d, x);
            }
            _ => return None,
        }
    }
    c.expect(b')')?;
    if !c.done() {
        return None;
    }
    Some(env.id())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(e: &Expr) {
        let enc = enc_expr_string(e);
        let back = dec_expr_full(&enc).unwrap_or_else(|| panic!("decode failed: {enc}"));
        assert!(back.ptr_eq(e), "{enc} decoded to a different node");
    }

    #[test]
    fn every_node_kind_round_trips() {
        let x = Expr::sym("x");
        let n = Expr::sym("n");
        let samples = [
            Expr::val(-42),
            Expr::val(0),
            Expr::sym("long_symbol_name"),
            &x * &n + Expr::val(3),
            &x + &n,
            x.floor_div(&n),
            x.rem(&n),
            x.clone().min(&n),
            x.clone().max(&n),
            x.xor(&n),
            x.isqrt(),
            Expr::range(Expr::zero(), Expr::val(64), 1, 2),
            Expr::select(
                Cond::All(vec![
                    Cond::lt(x.clone(), n.clone()),
                    Cond::Any(vec![Cond::ge(x.clone(), Expr::zero())]),
                    Cond::Not(Box::new(Cond::eq(x.clone(), n.clone()))),
                ]),
                &x + Expr::one(),
                n.clone(),
            ),
        ];
        for e in &samples {
            round_trip(e);
        }
        // Every comparison operator.
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            round_trip(&Expr::raw(ExprKind::Select(
                Cond::Cmp(op, x.clone(), n.clone()),
                x.clone(),
                n.clone(),
            )));
        }
    }

    #[test]
    fn render_parse_round_trips_and_is_deterministic() {
        let mut env = RangeEnv::new();
        env.set_bounds("zq_sc_i", Expr::zero(), Expr::sym("zq_sc_n"));
        env.assume_pos("zq_sc_n");
        env.assume_divides(Expr::sym("zq_sc_b"), Expr::sym("zq_sc_n"));
        let e = (Expr::sym("zq_sc_i") * Expr::sym("zq_sc_n")).floor_div(&Expr::sym("zq_sc_n"));
        let _ = crate::simplify::fixpoint_simplify(&e, &env);
        let _ = crate::cost::ops(&e);
        let sc = Sidecar::collect();
        assert!(!sc.is_empty());
        let text = sc.render();
        let back = Sidecar::parse(&text).expect("rendered document must parse");
        assert_eq!(text, back.render(), "render must be canonical");
    }

    #[test]
    fn foreign_header_is_rejected() {
        assert!(Sidecar::parse("not-a-sidecar v1 rules=0\n").is_none());
        assert!(Sidecar::parse(&format!(
            "{MAGIC} v999 rules={:016x}\n",
            rules::table_fingerprint()
        ))
        .is_none());
        assert!(
            Sidecar::parse(&format!("{MAGIC} v{SIDECAR_SCHEMA_VERSION} rules=dead\n")).is_none()
        );
        // The happy header parses.
        assert!(Sidecar::parse(&format!(
            "{MAGIC} v{SIDECAR_SCHEMA_VERSION} rules={:016x}\n",
            rules::table_fingerprint()
        ))
        .is_some());
    }

    #[test]
    fn merge_is_a_union() {
        let mut a = Sidecar::default();
        a.set_annotation("k1", "v1");
        let mut b = Sidecar::default();
        b.set_annotation("k2", "v2");
        b.set_annotation("k1", "other");
        a.merge(&b);
        let anns: Vec<(&str, &str)> = a.annotations().collect();
        assert_eq!(anns, [("k1", "v1"), ("k2", "v2")]);
    }
}
