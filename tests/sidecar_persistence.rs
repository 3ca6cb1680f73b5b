//! Cross-session persistence properties of the memo sidecar.
//!
//! The sidecar's contract has three legs, each pinned here at the
//! workspace level (the unit suites in `lego_tune::journal` and
//! `lego_tune::sidecar` cover the file format; these tests cover the
//! *process-boundary* behavior the consumers rely on):
//!
//! 1. **Round trip** — candidate annotations collected on one thread
//!    and re-installed on a fresh thread (a fresh thread-local arena
//!    and an empty annotation cache: the closest a single process gets
//!    to a restart) reproduce bit-identical candidate results, and the
//!    re-saved file is byte-identical to the original.
//! 2. **Staleness** — a schema-version or rewrite-rule-fingerprint
//!    mismatch, or a row of a section the format no longer has,
//!    silently ignores the whole file: consumers re-derive from
//!    scratch, nothing crashes, nothing half-installs.
//! 3. **Corruption** — garbled files degrade to a cold start and a
//!    truncated file loses only its torn last record: loads never
//!    panic, and whatever survives the integrity checks never changes
//!    a derived result.

mod prop_support;

use std::path::{Path, PathBuf};

use lego_codegen::cuda::stencil::StencilShape;
use lego_tune::{Candidate, Domain, RowwiseOp, Sidecar, SpaceScale, WorkloadKind};
use prop_support::Rng;

/// The workloads the properties enumerate — small enough that a fresh
/// thread re-derives them in milliseconds, varied enough to exercise
/// both expression variants in the annotation rows, and one of every
/// [`WorkloadKind::parse`] form, so each family's name round-trips
/// through an `ann` key.
fn kinds() -> Vec<WorkloadKind> {
    let rowwise = |op| WorkloadKind::Rowwise { op, m: 16, n: 256 };
    vec![
        WorkloadKind::Matmul { n: 256 },
        WorkloadKind::Transpose { n: 128 },
        WorkloadKind::Stencil {
            shape: StencilShape::Star(1),
            n: 16,
        },
        WorkloadKind::Nw { n: 112, b: 16 },
        WorkloadKind::Lud { n: 64, bs: 16 },
        rowwise(RowwiseOp::Softmax),
        rowwise(RowwiseOp::LayernormFwd),
        rowwise(RowwiseOp::LayernormBwd),
    ]
}

/// A scratch directory unique to `tag` and this process.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lego-sidecar-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Enumerates every workload on the calling thread and renders each
/// candidate's derived results — config, chosen expression variant,
/// index-op count — as one comparable line.
fn enumerate_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for kind in kinds() {
        for config in Domain::new(kind, SpaceScale::Legacy).enumerate() {
            let c = Candidate::annotated(&kind, &config);
            lines.push(format!(
                "{}|{}|{:?}|{:?}",
                kind.name(),
                c.config,
                c.expr_variant,
                c.index_ops
            ));
        }
    }
    lines
}

/// Runs `enumerate_lines` on a brand-new thread after installing the
/// sidecar at `path` (when given), returning the result lines plus how
/// many entries the install put in and how many annotation hits the
/// enumeration scored on installed entries.
fn fresh_thread_enumeration(path: Option<PathBuf>) -> (Vec<String>, usize, u64) {
    std::thread::spawn(move || {
        let installed = match &path {
            Some(p) => lego_tune::sidecar::load_and_install(p).installed(),
            None => 0,
        };
        let lines = enumerate_lines();
        let (_, hits) = lego_tune::annotate_sidecar_stats();
        (lines, installed, hits)
    })
    .join()
    .expect("fresh enumeration thread")
}

/// Derives the workloads on a fresh thread and saves its sidecar to
/// `path`, returning the result lines the save captured.
fn derive_and_save(path: &Path) -> Vec<String> {
    let path = path.to_path_buf();
    std::thread::spawn(move || {
        let lines = enumerate_lines();
        lego_tune::sidecar::collect_and_save(&path).expect("sidecar write");
        lines
    })
    .join()
    .expect("derivation thread")
}

#[test]
fn round_trip_is_bit_identical_across_fresh_threads() {
    let dir = scratch("roundtrip");
    let path = dir.join("memo.txt");
    let _ = std::fs::remove_file(&path);

    let cold_lines = derive_and_save(&path);
    let saved = std::fs::read_to_string(&path).unwrap();
    assert!(!saved.is_empty(), "derivation saved an empty sidecar");

    // parse ∘ render is the identity on rendered documents: loading the
    // file and rendering it back reproduces the bytes on disk.
    assert_eq!(
        Sidecar::load(&path).render(),
        saved,
        "load+render is not bit-identical to the saved document"
    );

    // A fresh thread warmed from the file reproduces every derived
    // result bit-identically, and answers every candidate from the
    // sidecar: an `ann` key that does not parse back would be re-derived.
    let (warm_lines, installed, hits) = fresh_thread_enumeration(Some(path.clone()));
    assert_eq!(warm_lines, cold_lines, "warmed results diverged from cold");
    assert!(installed > 0, "install put nothing into the fresh thread");
    assert_eq!(
        hits,
        warm_lines.len() as u64,
        "warmed enumeration re-derived a candidate the sidecar holds"
    );

    // And re-collecting from the warmed thread writes the same bytes: no
    // information is lost or invented across the process boundary.
    let path2 = dir.join("memo-resaved.txt");
    let _ = std::fs::remove_file(&path2);
    {
        let path = path.clone();
        let path2 = path2.clone();
        std::thread::spawn(move || {
            lego_tune::sidecar::load_and_install(&path);
            let _ = enumerate_lines();
            lego_tune::sidecar::collect_and_save(&path2).expect("re-save");
        })
        .join()
        .expect("re-save thread");
    }
    assert_eq!(
        std::fs::read_to_string(&path2).unwrap(),
        saved,
        "re-saved sidecar is not byte-identical to the original"
    );
}

#[test]
fn stale_schema_or_rule_fingerprint_is_silently_ignored() {
    let dir = scratch("stale");
    let path = dir.join("memo.txt");
    let _ = std::fs::remove_file(&path);
    let cold_lines = derive_and_save(&path);
    let valid = std::fs::read_to_string(&path).unwrap();
    let (header, _) = valid.split_once('\n').unwrap();
    assert!(header.starts_with("lego-journal v1 cache="));

    // A future schema version and a foreign rule-table fingerprint must
    // both be ignored wholesale — stale derived results from another
    // build must never be served. So must a document from a build that
    // still persisted expression derivations: its `env`/`simplify`/
    // `opcount` rows are not part of the format.
    let future = valid.replacen("lego-journal v1 ", "lego-journal v999 ", 1);
    let foreign = {
        let fp_at = header.len() - 16;
        let mut doc = String::from(&valid[..fp_at]);
        doc.push_str("ffffffffffffffff");
        doc.push_str(&valid[header.len()..]);
        assert_ne!(doc, valid, "fingerprint tamper was a no-op");
        doc
    };
    let legacy = format!(
        "{header}\nenv 0 (E(b1:i_c0c8))\n\
         simplify 0 0123456789abcdef (+y1:ic0) y1:i\n\
         opcount 0123456789abcdef 0 y1:i\n{}",
        valid
            .lines()
            .filter(|l| l.starts_with("ann ") || l.starts_with("traffic "))
            .map(|l| format!("{l}\n"))
            .collect::<String>()
    );
    for (name, doc) in [
        ("future schema", future),
        ("foreign rules", foreign),
        ("expression sections", legacy),
    ] {
        let stale = dir.join("stale.txt");
        std::fs::write(&stale, &doc).unwrap();
        assert!(
            Sidecar::load(&stale).is_empty(),
            "{name}: stale sidecar was not ignored"
        );
        let (lines, installed, hits) = fresh_thread_enumeration(Some(stale));
        assert_eq!(installed, 0, "{name}: stale sidecar installed entries");
        assert_eq!(hits, 0, "{name}: stale sidecar scored hits");
        assert_eq!(lines, cold_lines, "{name}: cold re-derivation diverged");
    }
}

#[test]
fn corrupt_or_truncated_files_degrade_to_cold_start() {
    let dir = scratch("corrupt");
    let path = dir.join("memo.txt");
    let _ = std::fs::remove_file(&path);
    let cold_lines = derive_and_save(&path);
    let valid = std::fs::read_to_string(&path).unwrap();

    // Missing, empty, and binary-garbage files all load as empty.
    for (name, contents) in [
        ("empty", String::new()),
        (
            "binary garbage",
            "\u{1}\u{2}\u{3}\u{fffd}\n\u{4}".to_string(),
        ),
    ] {
        let p = dir.join("degenerate.txt");
        std::fs::write(&p, &contents).unwrap();
        assert!(Sidecar::load(&p).is_empty(), "{name}: load was not empty");
    }
    assert!(Sidecar::load(&dir.join("no-such-file.txt")).is_empty());

    let mut rng = Rng::new(0x51d3_ca41);

    // A whole replaced line is an anomaly, and the parser is strict:
    // one bad line invalidates the document rather than guessing.
    let lines: Vec<&str> = valid.lines().collect();
    for _ in 0..8 {
        let victim = rng.index(lines.len());
        let mut doc: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        doc[victim] = "garbled #$%! row".to_string();
        let p = dir.join("garbled.txt");
        std::fs::write(&p, doc.join("\n")).unwrap();
        assert!(
            Sidecar::load(&p).is_empty(),
            "garbling line {victim} did not invalidate the document"
        );
    }

    // Truncation at a random byte: a cut inside the header rejects the
    // whole file; any later cut loads every complete record before it
    // (a cut mid-record drops that torn record). Both are safe:
    // installs never panic, and a fresh thread still derives
    // bit-identical results — every surviving entry passed the
    // integrity checks.
    for case in 0..16 {
        let cut = 1 + rng.index(valid.len() - 1);
        let p = dir.join("truncated.txt");
        std::fs::write(&p, &valid.as_bytes()[..cut]).unwrap();
        let loaded = Sidecar::load(&p);
        let (lines, _, _) = fresh_thread_enumeration(Some(p));
        assert_eq!(
            lines,
            cold_lines,
            "case {case}: truncation at byte {cut} changed derived results \
             (loaded {} entries)",
            loaded.len()
        );
    }
}
