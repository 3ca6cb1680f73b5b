//! The tuner's view of the persistent memo sidecar.
//!
//! `lego_expr::sidecar` persists the expression layer's derived results
//! (simplified forms, op counts). This module layers the
//! tuner's own derived state on top — the candidate-annotation cache
//! mapping `(workload, config)` to `(expression variant, index op
//! count)` — carried in the sidecar's opaque annotation section, so one
//! file re-warms the whole enumeration pipeline: a warmed process
//! serves [`crate::space::Candidate::annotated`] straight from the
//! imported entries, and any fresh annotation work underneath hits the
//! re-interned expression memos.
//!
//! The invalidation contract is the expression layer's: a schema or
//! rewrite-rule-fingerprint mismatch empties the document wholesale,
//! annotations included (they are derived through the same rule table,
//! so they go stale together).

use std::io;
use std::path::Path;

pub use lego_expr::sidecar::{InstallReport, Sidecar};

use crate::space;

/// What a sidecar install warmed, per layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SidecarWarm {
    /// Expression-layer entries installed (simplify/opcount).
    pub exprs: InstallReport,
    /// Annotation entries installed into the candidate cache.
    pub annotations: u64,
    /// Traffic entries installed into the cost model's geometry memo.
    pub traffics: u64,
}

impl SidecarWarm {
    /// Total entries installed across all layers.
    pub fn installed(&self) -> usize {
        self.exprs.installed() + (self.annotations + self.traffics) as usize
    }
}

/// Installs `sidecar` into this thread's session state: expression
/// memos into the arena tables, annotations into the candidate cache,
/// traffic entries into the cost model's geometry memo.
pub fn install(sidecar: &Sidecar) -> SidecarWarm {
    SidecarWarm {
        exprs: sidecar.install(),
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

/// Snapshots this thread's derived results — expression memos, the
/// annotation cache, and the traffic memo — into one document.
pub fn collect() -> Sidecar {
    let mut sc = Sidecar::collect();
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
