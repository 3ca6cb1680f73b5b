//! The persistent memo sidecar: the tuner's derived answers on disk.
//!
//! A search spends its time deriving two things per candidate, both
//! pure functions of structural keys, so both persist across processes
//! next to the tuning cache:
//!
//! * `ann` rows — the candidate-annotation cache mapping `(workload,
//!   config)` to `(expression variant, index op count)`
//!   ([`crate::space::export_annotations`]); a warmed process serves
//!   [`crate::space::Candidate::annotated`] straight from them, without
//!   lowering or simplifying a single index expression;
//! * `traffic` rows — the cost model's geometry → traffic memo
//!   ([`gpu_sim::export_traffic`]); a warmed process re-times a known
//!   geometry without replaying its trace.
//!
//! Both sections are opaque here: keys and values are length-prefixed
//! strings whose encodings belong to their owners.
//!
//! **Invalidation is wholesale.** The document header records a schema
//! version and a fingerprint of the rewrite-rule registry
//! ([`lego_expr::rules::table_fingerprint`] — annotations are derived
//! through the same rule table, so a rule change stales them). A
//! mismatch in either, or any malformed or unknown line anywhere in the
//! file, makes [`Sidecar::load`] return an empty document: a stale or
//! corrupt sidecar is a cold start, never an error and never a stale
//! answer.
//!
//! Writes go through the shared atomic-replace path
//! ([`lego_expr::atomicfile`]): [`Sidecar::save`] merges with whatever
//! is on disk under the per-file lock and renames a tempfile into
//! place, so concurrent writers (fleet workers, daemon shutdown) cannot
//! lose each other's entries and readers never see a torn document.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use lego_expr::{atomicfile, rules};

use crate::space;

/// First token of every sidecar document.
const MAGIC: &str = "lego-expr-sidecar";

/// Version of the document format. Bump on any incompatible change;
/// mismatched documents are discarded wholesale (a cold start).
const SCHEMA: &str = "v1";

/// An in-memory sidecar document. Build one with [`collect`] (snapshot
/// this thread's derived state) or [`Sidecar::load`] (read from disk),
/// move it between processes with [`Sidecar::save`] / [`install`], and
/// combine per-worker documents with [`Sidecar::merge`].
#[derive(Clone, Debug, Default)]
pub struct Sidecar {
    /// Annotation entries. Sorted so rendering is deterministic.
    annotations: BTreeMap<String, String>,
    /// Traffic entries. Sorted so rendering is deterministic.
    traffics: BTreeMap<String, String>,
}

impl Sidecar {
    /// An empty document.
    pub fn new() -> Sidecar {
        Sidecar::default()
    }

    /// Total entries across both sections.
    pub fn len(&self) -> usize {
        self.annotations.len() + self.traffics.len()
    }

    /// True when neither section has any entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds (or replaces) an annotation entry. Keys and values
    /// containing newlines are dropped at render time.
    pub fn set_annotation(&mut self, key: &str, value: &str) {
        self.annotations.insert(key.to_string(), value.to_string());
    }

    /// Iterates the annotation section in sorted key order.
    pub fn annotations(&self) -> impl Iterator<Item = (&str, &str)> {
        self.annotations.iter().map(|(k, v)| (&**k, &**v))
    }

    /// Adds (or replaces) a traffic entry: a geometry fingerprint mapped
    /// to an encoded traffic cost. Keys and values containing newlines
    /// are dropped at render time.
    pub fn set_traffic(&mut self, key: &str, value: &str) {
        self.traffics.insert(key.to_string(), value.to_string());
    }

    /// Iterates the traffic section in sorted key order.
    pub fn traffics(&self) -> impl Iterator<Item = (&str, &str)> {
        self.traffics.iter().map(|(k, v)| (&**k, &**v))
    }

    /// Unions `other` into `self`. Existing entries win (all entries
    /// are deterministic derivations, so which copy survives is
    /// immaterial; keeping the first makes merge order-insensitive for
    /// equal documents).
    pub fn merge(&mut self, other: &Sidecar) {
        for (mine, theirs) in [
            (&mut self.annotations, &other.annotations),
            (&mut self.traffics, &other.traffics),
        ] {
            for (k, v) in theirs {
                mine.entry(k.clone()).or_insert_with(|| v.clone());
            }
        }
    }

    /// Renders the document: a header stamping the schema version and
    /// rule-table fingerprint, then the `ann` rows and the `traffic`
    /// rows in key order — so the same content always renders to the
    /// same bytes regardless of insertion or merge order.
    pub fn render(&self) -> String {
        let mut out = header();
        for (tag, section) in [("ann", &self.annotations), ("traffic", &self.traffics)] {
            for (k, v) in section {
                if !k.contains(['\n', '\r']) && !v.contains(['\n', '\r']) {
                    let _ = writeln!(out, "{tag} {}:{k} {}:{v}", k.len(), v.len());
                }
            }
        }
        out
    }

    /// Parses a rendered document. `None` on *any* anomaly — wrong
    /// magic, schema version, or rule fingerprint; a malformed line; a
    /// row of an unknown section — so callers degrade to an empty store
    /// (cold start) rather than trusting a stale or truncated file.
    pub fn parse(text: &str) -> Option<Sidecar> {
        let mut lines = text.lines();
        let mut header = lines.next()?.split_whitespace();
        if header.next()? != MAGIC || header.next()? != SCHEMA {
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
        for line in lines.filter(|l| !l.is_empty()) {
            let (tag, rest) = line.split_once(' ')?;
            let section = match tag {
                "ann" => &mut sc.annotations,
                "traffic" => &mut sc.traffics,
                _ => return None,
            };
            let (key, rest) = length_prefixed(rest)?;
            let (value, rest) = length_prefixed(rest.strip_prefix(' ')?)?;
            if !rest.is_empty() {
                return None;
            }
            section.insert(key.to_string(), value.to_string());
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

/// The header line every document starts with: magic, schema version
/// and the rule-table fingerprint.
fn header() -> String {
    format!(
        "{MAGIC} {SCHEMA} rules={:016x}\n",
        rules::table_fingerprint()
    )
}

/// Splits one `<len>:<bytes>` field off the front of `s`, returning the
/// field and the remainder. The length is plain decimal digits and must
/// end on a character boundary.
fn length_prefixed(s: &str) -> Option<(&str, &str)> {
    let (len, rest) = s.split_once(':')?;
    if len.is_empty() || !len.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let len: usize = len.parse().ok()?;
    Some((rest.get(..len)?, rest.get(len..)?))
}

/// What a sidecar install warmed, per section.
#[derive(Clone, Copy, Debug, Default)]
pub struct SidecarWarm {
    /// Annotation entries installed into the candidate cache.
    pub annotations: u64,
    /// Traffic entries installed into the cost model's geometry memo.
    pub traffics: u64,
}

impl SidecarWarm {
    /// Total entries installed across both sections.
    pub fn installed(&self) -> usize {
        (self.annotations + self.traffics) as usize
    }
}

/// Installs `sidecar` into this thread's session state: annotations
/// into the candidate cache, traffic entries into the cost model's
/// geometry memo.
pub fn install(sidecar: &Sidecar) -> SidecarWarm {
    SidecarWarm {
        annotations: space::import_annotations(sidecar),
        traffics: gpu_sim::import_traffic(sidecar.traffics()),
    }
}

/// Loads the sidecar at `path` (empty if missing, stale, or corrupt)
/// and installs it. The warm-start entry point for every consumer: the
/// tuning daemon's workers, the fleet driver, and the bench binaries
/// all go through here.
pub fn load_and_install(path: &Path) -> SidecarWarm {
    install(&Sidecar::load(path))
}

/// Snapshots this thread's derived answers — the annotation cache and
/// the traffic memo — into one document.
pub fn collect() -> Sidecar {
    let mut sc = Sidecar::new();
    space::export_annotations(&mut sc);
    for (k, v) in gpu_sim::export_traffic() {
        sc.set_traffic(&k, &v);
    }
    sc
}

/// [`collect`]s and merges the result into the sidecar at `path`
/// atomically (lock + tempfile + rename; concurrent savers cannot lose
/// each other's entries).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn collect_and_save(path: &Path) -> io::Result<()> {
    collect().save(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{Candidate, WorkloadKind};

    #[test]
    fn render_parse_round_trips_and_is_deterministic() {
        let mut sc = Sidecar::new();
        sc.set_traffic("geom-b", "1,2,3");
        sc.set_annotation("matmul(n=64)|{}", "u|7");
        sc.set_traffic("geom-a", "4:5 6");
        sc.set_annotation("nw(n=16,b=16)|{}", "-|-");
        sc.set_annotation("dropped\nkey", "v");
        let text = sc.render();
        assert!(!text.contains("dropped"), "newline keys must not render");
        let back = Sidecar::parse(&text).expect("rendered document must parse");
        assert_eq!(back.len(), 4);
        assert_eq!(text, back.render(), "render must be canonical");
        assert_eq!(
            text,
            header()
                + "ann 15:matmul(n=64)|{} 3:u|7\n\
                   ann 16:nw(n=16,b=16)|{} 3:-|-\n\
                   traffic 6:geom-a 5:4:5 6\n\
                   traffic 6:geom-b 5:1,2,3\n"
        );
    }

    #[test]
    fn foreign_header_is_rejected() {
        assert!(Sidecar::parse("not-a-sidecar v1 rules=0\n").is_none());
        assert!(Sidecar::parse(&header().replacen(SCHEMA, "v999", 1)).is_none());
        assert!(Sidecar::parse(&format!("{MAGIC} {SCHEMA} rules=dead\n")).is_none());
        assert!(Sidecar::parse(&header().replacen('\n', " extra\n", 1)).is_none());
        // The happy header parses.
        assert!(Sidecar::parse(&header()).is_some());
    }

    #[test]
    fn malformed_rows_reject_the_document() {
        for row in [
            "ann 3:abc 1:xy",
            "ann +3:abc 1:x",
            "ann 3:abc1:x",
            "ann 9:abc 1:x",
            "traffic 1:a",
            "simplify 0 0000000000000000 c1 c1",
            "opcount 0000000000000000 0 c1",
            "env 0 (E)",
        ] {
            assert!(
                Sidecar::parse(&format!("{}{row}\n", header())).is_none(),
                "{row:?} was accepted"
            );
        }
        assert!(Sidecar::parse(&format!("{}ann 3:abc 2:xy\n", header())).is_some());
    }

    #[test]
    fn merge_is_a_union() {
        let mut a = Sidecar::default();
        a.set_annotation("k1", "v1");
        let mut b = Sidecar::default();
        b.set_annotation("k2", "v2");
        b.set_annotation("k1", "other");
        b.set_traffic("t1", "x");
        a.merge(&b);
        let anns: Vec<(&str, &str)> = a.annotations().collect();
        assert_eq!(anns, [("k1", "v1"), ("k2", "v2")]);
        assert_eq!(a.traffics().collect::<Vec<_>>(), [("t1", "x")]);
    }

    #[test]
    fn annotations_round_trip_through_a_document() {
        let kind = WorkloadKind::Matmul { n: 64 };
        let cand = Candidate::annotated(&kind, &kind.default_config());
        let sc = collect();
        let text = sc.render();
        let parsed = Sidecar::parse(&text).expect("collected document must parse");
        // A fresh thread models a fresh process: empty caches, then the
        // parsed document warms them.
        let config = kind.default_config();
        let warmed = std::thread::spawn(move || {
            let warm = install(&parsed);
            assert!(warm.annotations > 0, "no annotations installed");
            let c = Candidate::annotated(&kind, &config);
            let (_, hits) = space::annotate_sidecar_stats();
            assert!(hits > 0, "annotation served cold despite import");
            (c.expr_variant, c.index_ops)
        })
        .join()
        .unwrap();
        assert_eq!(warmed, (cand.expr_variant, cand.index_ops));
    }

    #[test]
    fn traffic_round_trips_through_a_document() {
        fn price() -> gpu_sim::Estimate {
            use crate::space::{build_layout, build_workload};
            let kind = WorkloadKind::Matmul { n: 64 };
            let gpu = gpu_sim::a100();
            let cand = Candidate::annotated(&kind, &kind.default_config());
            let layout = build_layout(&kind, &cand.config).expect("default builds");
            let wl = build_workload(&kind, &cand, &gpu);
            gpu_sim::CostModel::new(&gpu).price(&layout, &wl)
        }
        let cold = price();
        let text = collect().render();
        // A fresh thread models a fresh process: an empty traffic memo,
        // then the parsed document warms it and serves the same price.
        let warm_est = std::thread::spawn(move || {
            let parsed = Sidecar::parse(&text).expect("collected document must parse");
            let warm = install(&parsed);
            assert!(warm.traffics > 0, "no traffic entries installed");
            let est = price();
            let (_, hits) = gpu_sim::traffic_sidecar_stats();
            assert!(hits > 0, "traffic traced cold despite import");
            est
        })
        .join()
        .unwrap();
        assert_eq!(cold, warm_est, "imported traffic must price identically");
    }
}
