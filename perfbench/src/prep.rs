//! Fixture preparation: the cache and sidecar files a workload's daemon
//! starts from, built before any timing by resolving the pool through
//! an in-process service, exactly as a daemon worker would.

use std::collections::HashSet;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lego_served::{protocol, Tier, TuneService, TuneSpec};
use lego_tune::TuningCache;

use crate::pools::Workload;
use crate::timed::Fixtures;
use crate::trace::Trace;

/// Wraps a message as an I/O error (the benchmark's one error type).
pub fn fail(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// The cache key of a pool spec.
fn cache_key(spec: &TuneSpec) -> io::Result<String> {
    Ok(protocol::resolve(spec, &gpu_sim::a100())
        .map_err(fail)?
        .cache_key())
}

/// Builds `w`'s fixtures under `work`. The returned trace holds every
/// resolve the preparation ran (all of them fresh searches) under
/// `prep.*` names.
///
/// * `cold-search`: none.
/// * `warm-hits`: a cache file holding every pool key.
/// * `persist-mix`: a sidecar harvested from a prior pass over the whole
///   pool, and a cache file holding the cached half of it.
pub fn prepare(w: Workload, work: &Path) -> io::Result<(Fixtures, Trace)> {
    let pool = w.pool();
    match w {
        Workload::ColdSearch => Ok((Fixtures::default(), Trace::default())),
        Workload::WarmHits => {
            let cache = work.join("fixture-cache.json");
            let trace = resolve_all(pool, Some(cache.clone()), None)?;
            Ok((
                Fixtures {
                    cache: Some(cache),
                    sidecar: None,
                },
                trace,
            ))
        }
        Workload::PersistMix => {
            let prior = work.join("prior-pass-cache.json");
            let sidecar = work.join("fixture-sidecar.txt");
            let trace = resolve_all(pool.clone(), Some(prior.clone()), Some(sidecar.clone()))?;
            let mut keep = HashSet::new();
            for (i, spec) in pool.iter().enumerate() {
                if w.cached(i) {
                    keep.insert(cache_key(spec)?);
                }
            }
            let entries: Vec<_> = TuningCache::new(prior)
                .entries()
                .into_iter()
                .filter(|(k, _)| keep.contains(k))
                .collect();
            if entries.len() != keep.len() {
                return Err(fail(format!(
                    "prior pass persisted {} of {} cached keys",
                    entries.len(),
                    keep.len()
                )));
            }
            let cache = work.join("fixture-cache.json");
            TuningCache::new(&cache).store_many(&entries)?;
            Ok((
                Fixtures {
                    cache: Some(cache),
                    sidecar: Some(sidecar),
                },
                trace,
            ))
        }
    }
}

/// Resolves every spec through a fresh service on a fresh thread (a
/// daemon worker's stand-in), then drains it as a daemon shutdown
/// would: harvest the worker's derived results and flush.
fn resolve_all(
    specs: Vec<TuneSpec>,
    cache: Option<PathBuf>,
    sidecar: Option<PathBuf>,
) -> io::Result<Trace> {
    std::thread::spawn(move || {
        let service = TuneService::new(gpu_sim::a100(), cache, sidecar);
        service.warm_worker(0);
        let mut trace = Trace::default();
        let (h0, m0) = gpu_sim::traffic_memo_stats();
        for spec in &specs {
            let req = protocol::resolve(spec, service.default_device()).map_err(fail)?;
            let t = Instant::now();
            let (result, tier) = service.resolve(&req);
            trace.span("prep.resolve_search", t.elapsed().as_secs_f64());
            result.map_err(fail)?;
            if tier != Tier::Searched {
                return Err(fail(format!(
                    "fixture key {} met tier {}",
                    spec.workload,
                    tier.name()
                )));
            }
        }
        let (h1, m1) = gpu_sim::traffic_memo_stats();
        trace.count("prep.traffic_hits", (h1 - h0) as f64);
        trace.count("prep.traffic_misses", (m1 - m0) as f64);
        service.harvest_worker();
        service.flush()?;
        Ok(trace)
    })
    .join()
    .expect("fixture thread panicked")
}
