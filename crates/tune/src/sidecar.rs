//! The persistent memo sidecar: the tuner's derived answers on disk,
//! a [`crate::journal`] of two record kinds, both pure functions of
//! structural keys:
//!
//! * `ann` — the candidate-annotation cache, `(workload, config)` →
//!   `(expression variant, index op count)`: a warmed process serves
//!   [`crate::space::Candidate::annotated`] without lowering or
//!   simplifying an index expression;
//! * `traffic` — the cost model's geometry → traffic memo
//!   ([`gpu_sim::export_traffic`]): a warmed process re-times a known
//!   geometry without replaying its trace. Rows whose key is in another
//!   memo-key format are skipped on load and left out of the next save.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::journal::{self, Live, Mode, Row, ANN, TRAFFIC};
use crate::space;

/// An in-memory sidecar document. Build one with [`collect`] (snapshot
/// this thread's derived state) or [`Sidecar::load`] (read from disk),
/// move it between processes with [`Sidecar::save`] / [`install`], and
/// combine per-worker documents with [`Sidecar::merge`].
#[derive(Clone, Debug, Default)]
pub struct Sidecar {
    /// `ann` and `traffic` entries by `(tag, key)`. Sorted, so the
    /// `ann` rows render first and rendering is deterministic.
    entries: BTreeMap<(&'static str, String), String>,
}

impl Sidecar {
    /// An empty document.
    pub fn new() -> Sidecar {
        Sidecar::default()
    }

    /// Total entries across both sections.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when neither section has any entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds (or replaces) an annotation entry. Keys and values
    /// containing newlines are dropped at render time.
    pub fn set_annotation(&mut self, key: &str, value: &str) {
        self.entries
            .insert((ANN, key.to_string()), value.to_string());
    }

    /// Iterates the annotation section in sorted key order.
    pub fn annotations(&self) -> impl Iterator<Item = (&str, &str)> {
        self.section(ANN)
    }

    /// Adds (or replaces) a traffic entry: a geometry key mapped
    /// to an encoded traffic cost. Keys and values containing newlines
    /// are dropped at render time.
    pub fn set_traffic(&mut self, key: &str, value: &str) {
        self.entries
            .insert((TRAFFIC, key.to_string()), value.to_string());
    }

    /// Iterates the traffic section in sorted key order.
    pub fn traffics(&self) -> impl Iterator<Item = (&str, &str)> {
        self.section(TRAFFIC)
    }

    fn section(&self, tag: &'static str) -> impl Iterator<Item = (&str, &str)> {
        self.rows()
            .filter(move |row| row.0 == tag)
            .map(|(_, k, v)| (k, v))
    }

    /// Both sections as journal rows, in `(tag, key)` order.
    fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        self.entries.iter().map(|((t, k), v)| (*t, &**k, &**v))
    }

    /// Unions `other` into `self`. Existing entries win (all entries
    /// are deterministic derivations, so which copy survives is
    /// immaterial; keeping the first makes merge order-insensitive for
    /// equal documents).
    pub fn merge(&mut self, other: &Sidecar) {
        for (k, v) in &other.entries {
            self.entries.entry(k.clone()).or_insert_with(|| v.clone());
        }
    }

    /// The document holding the `ann` and `traffic` records of `live`.
    fn from_live(live: &Live<'_>) -> Sidecar {
        let mut sc = Sidecar::default();
        for (&(tag, key), value) in live {
            if let Some(tag) = [ANN, TRAFFIC].into_iter().find(|t| *t == tag) {
                sc.entries.insert((tag, key.to_string()), value.to_string());
            }
        }
        sc
    }

    /// Renders the document as a fresh journal: the header, then the
    /// rows in `(tag, key)` order — so the same content always renders
    /// to the same bytes regardless of insertion or merge order.
    pub fn render(&self) -> String {
        let mut out = journal::header();
        for row in self.rows() {
            journal::push_row(&mut out, row);
        }
        out
    }

    /// Parses journal text. `None` on *any* anomaly but a torn tail — a
    /// stale header, a malformed line, an unknown tag — so callers
    /// degrade to an empty store (cold start) rather than trusting a
    /// stale or corrupt file.
    pub fn parse(text: &str) -> Option<Sidecar> {
        let records = journal::replay(text.as_bytes())?.0;
        Some(Sidecar::from_live(&journal::live(&records)))
    }

    /// Reads the sidecar at `path`. A missing, stale, or corrupt file
    /// yields an empty document — persistence failures degrade to cold
    /// starts, never errors.
    pub fn load(path: &Path) -> Sidecar {
        journal::read(path, Sidecar::from_live)
    }

    /// Merges this document into the journal at `path`: appends only
    /// the keys absent on disk ([`journal::Mode::Merge`]), so a healthy
    /// file is never rewritten and concurrent savers lose nothing. A
    /// file holding `traffic` rows of another memo-key format is
    /// rewritten without them.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        journal::write(path, &self.rows().collect::<Vec<_>>(), Mode::Merge)
    }
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
/// ([`Sidecar::save`]; concurrent savers cannot lose each other's
/// entries).
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
    use crate::journal::header;
    use crate::space::{Candidate, WorkloadKind};

    #[test]
    fn render_parse_round_trips_and_is_deterministic() {
        let [a, b] = ["geom-a", "geom-b"].map(|k| format!("{}{k}", gpu_sim::traffic::KEY_FORMAT));
        let mut sc = Sidecar::new();
        sc.set_traffic(&b, "1,2,3");
        sc.set_annotation("matmul(n=64)|{}", "u|7");
        sc.set_traffic(&a, "4:5 6");
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
                   ann 16:nw(n=16,b=16)|{} 3:-|-\n"
                + &format!("traffic {}:{a} 5:4:5 6\n", a.len())
                + &format!("traffic {}:{b} 5:1,2,3\n", b.len())
        );
    }

    #[test]
    fn foreign_header_is_rejected() {
        assert!(Sidecar::parse("not-a-sidecar v1 rules=0\n").is_none());
        assert!(Sidecar::parse(&header().replacen("v1", "v999", 1)).is_none());
        assert!(Sidecar::parse(&format!(
            "lego-journal v1 cache={} rules=dead\n",
            crate::CACHE_SCHEMA_VERSION
        ))
        .is_none());
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

    /// A `traffic` row in an older memo-key format is never installed,
    /// and the next save rewrites the file without it; later saves of
    /// the same state leave the file as it is.
    #[test]
    fn old_format_traffic_rows_are_shed() {
        let path = std::env::temp_dir().join(format!("lego_sidecar_shed_{}", std::process::id()));
        let old_key = "a100|20,40,2800000,40,8,d8,|-";
        let value = "0000000000000000.0000000000000000.0000000000000000.0.0";
        std::fs::write(
            &path,
            format!(
                "{}traffic {}:{old_key} {}:{value}\n",
                header(),
                old_key.len(),
                value.len()
            ),
        )
        .unwrap();
        let sizes = std::thread::spawn({
            let path = path.clone();
            move || {
                let loaded = Sidecar::load(&path);
                assert_eq!(loaded.traffics().count(), 0, "old-format row loaded");
                assert_eq!(install(&loaded).traffics, 0);
                let kind = WorkloadKind::Lud { n: 64, bs: 16 };
                let cand = Candidate::annotated(&kind, &kind.default_config());
                let gpu = gpu_sim::a100();
                let layout = crate::space::build_layout(&kind, &cand.config).expect("builds");
                let wl = crate::space::build_workload(&kind, &cand, &gpu);
                gpu_sim::CostModel::new(&gpu).price(&layout, &wl);
                let mut sizes = Vec::new();
                for _ in 0..2 {
                    collect_and_save(&path).unwrap();
                    let text = std::fs::read_to_string(&path).unwrap();
                    assert!(!text.contains(old_key), "old-format row survived a save");
                    assert!(text.contains(gpu_sim::traffic::KEY_FORMAT));
                    sizes.push(text.len());
                }
                sizes
            }
        })
        .join()
        .unwrap();
        assert_eq!(
            sizes[0], sizes[1],
            "a second save of the same state grew the file"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// Every legacy candidate of all six families, at the two-tier
    /// gate's sizes, priced on a100, h100 and mi300 by a fresh thread
    /// (a fresh process's empty memo): cold, or after installing a
    /// document collected from a cold run. The warmed run must price
    /// bit-identically without a single memo miss.
    #[test]
    fn traffic_round_trips_through_a_document() {
        use crate::space::{build_layout, build_workload};
        use crate::{Domain, RowwiseOp, SpaceScale};
        use lego_codegen::cuda::stencil::StencilShape;

        fn price_all() -> Vec<gpu_sim::Estimate> {
            let kinds = [
                WorkloadKind::Matmul { n: 512 },
                WorkloadKind::Transpose { n: 256 },
                WorkloadKind::Stencil {
                    shape: StencilShape::Star(1),
                    n: 32,
                },
                WorkloadKind::Nw { n: 256, b: 16 },
                WorkloadKind::Lud { n: 256, bs: 16 },
                WorkloadKind::Rowwise {
                    op: RowwiseOp::Softmax,
                    m: 256,
                    n: 1000,
                },
            ];
            let mut ests = Vec::new();
            for gpu in [gpu_sim::a100(), gpu_sim::h100(), gpu_sim::mi300()] {
                let model = gpu_sim::CostModel::new(&gpu);
                for kind in &kinds {
                    for config in Domain::new(*kind, SpaceScale::Legacy).enumerate() {
                        let cand = Candidate::annotated(kind, &config);
                        let Ok(layout) = build_layout(kind, &cand.config) else {
                            continue;
                        };
                        ests.push(model.price(&layout, &build_workload(kind, &cand, &gpu)));
                    }
                }
            }
            ests
        }
        let (cold, text) = std::thread::spawn(|| (price_all(), collect().render()))
            .join()
            .unwrap();
        let (warm, warm_misses) = std::thread::spawn(move || {
            let parsed = Sidecar::parse(&text).expect("collected document must parse");
            assert!(
                install(&parsed).traffics > 0,
                "no traffic entries installed"
            );
            (price_all(), gpu_sim::traffic_memo_stats().1)
        })
        .join()
        .unwrap();
        assert!(cold.len() > 6, "too few legacy candidates priced");
        assert_eq!(cold, warm, "imported traffic must price identically");
        assert_eq!(warm_misses, 0, "a geometry was traced despite the import");
    }
}
