//! The memoized tier-1 **traffic pass** of the two-tier pricing split.
//!
//! [`CostModel::price`](crate::CostModel::price) replays a candidate's
//! warp-level trace (coalescing, bank conflicts, L2 filtering) to
//! produce the bytes-moved totals, then assembles a timing estimate
//! from them. The replay depends only on the candidate's *geometry* —
//! the trace-builder parameters, the layout under test, and the device
//! — while expression variants only perturb the cheap closed-form
//! assembly (`flops`, resources). This module caches the replay's
//! result, a [`TrafficCost`], in a per-thread map keyed by a
//! **geometry fingerprint**, so N variants per geometry cost one trace
//! replay plus N re-timings.
//!
//! The fingerprint is opt-in at the producer: a
//! [`Workload`](crate::Workload) whose `traffic_key` is `None` (every
//! hand-built workload) bypasses the memo entirely, because closures in
//! [`Phase`](crate::Phase) traces are opaque — only the code that built
//! them can promise that a key captures everything the trace reads.
//! The built-in [`crate::trace`] builders all set keys covering their
//! full parameter set plus the device tag; the cost model appends the
//! pricing-device geometry and a structural layout fingerprint before
//! probing the memo (see `CostModel::traffic`).
//!
//! Like the expression memos, the map is thread-local (searches are
//! sharded across threads with no locks) and exportable: the
//! [`export`]/[`import`] pair round-trips entries as stable strings so
//! `lego_tune`'s sidecar can persist the memo across processes.
//! Imported entries are tracked separately so re-warm benefit is
//! measurable ([`sidecar_stats`]).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// The trace-derived traffic totals of one geometry: everything
/// [`CostModel::price`](crate::CostModel::price) learns from replaying
/// the phase traces, and nothing it learns elsewhere.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrafficCost {
    /// Bytes that miss past L2 to DRAM, summed over phases (before the
    /// workload's `streamed_bytes` is added at assembly time).
    pub dram_bytes: f64,
    /// Bytes moved through L2, summed over phases (before
    /// `streamed_bytes`).
    pub l2_bytes: f64,
    /// Serialized shared-memory passes, summed over phases.
    pub smem_passes: f64,
    /// L2 / tile-cache hits across the traced phases.
    pub hits: u64,
    /// L2 / tile-cache misses across the traced phases.
    pub misses: u64,
}

thread_local! {
    /// key → (traffic, from_sidecar).
    static MEMO: RefCell<HashMap<String, (TrafficCost, bool)>> =
        RefCell::new(HashMap::new());
    /// (hits, misses) of memo probes — only cacheable prices count.
    static STATS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// (installed, hits) attributable to sidecar-imported entries.
    static SIDECAR: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Probes this thread's traffic memo. Counts a hit or miss; hits on
/// sidecar-imported entries are also attributed to [`sidecar_stats`].
pub(crate) fn lookup(key: &str) -> Option<TrafficCost> {
    MEMO.with(|m| {
        let got = m.borrow().get(key).copied();
        let (h, mi) = STATS.get();
        match got {
            Some((tc, from_sidecar)) => {
                STATS.set((h + 1, mi));
                if from_sidecar {
                    let (inst, sh) = SIDECAR.get();
                    SIDECAR.set((inst, sh + 1));
                }
                Some(tc)
            }
            None => {
                STATS.set((h, mi + 1));
                None
            }
        }
    })
}

/// Records a freshly traced geometry in this thread's memo.
pub(crate) fn insert(key: String, tc: TrafficCost) {
    MEMO.with(|m| {
        m.borrow_mut().entry(key).or_insert((tc, false));
    });
}

/// (hits, misses) of this thread's traffic-memo probes. Uncacheable
/// prices (no `traffic_key`) are not counted.
pub fn memo_stats() -> (u64, u64) {
    STATS.get()
}

/// (installed, hits) of sidecar-imported traffic entries on this
/// thread: how many entries [`import`] added, and how many memo hits
/// they served since.
pub fn sidecar_stats() -> (u64, u64) {
    SIDECAR.get()
}

/// Encodes a [`TrafficCost`] as a stable ASCII string. The f64 fields
/// go through `to_bits` so the round-trip is bit-exact — a memo entry
/// re-imported from disk must price identically to a fresh trace.
fn encode(tc: &TrafficCost) -> String {
    format!(
        "{:016x}.{:016x}.{:016x}.{}.{}",
        tc.dram_bytes.to_bits(),
        tc.l2_bytes.to_bits(),
        tc.smem_passes.to_bits(),
        tc.hits,
        tc.misses
    )
}

/// Decodes [`encode`]'s format. `None` on any malformed field.
fn decode(s: &str) -> Option<TrafficCost> {
    let mut parts = s.split('.');
    let mut bits = |radix| -> Option<u64> { u64::from_str_radix(parts.next()?, radix).ok() };
    let tc = TrafficCost {
        dram_bytes: f64::from_bits(bits(16)?),
        l2_bytes: f64::from_bits(bits(16)?),
        smem_passes: f64::from_bits(bits(16)?),
        hits: bits(10)?,
        misses: bits(10)?,
    };
    match parts.next() {
        None => Some(tc),
        Some(_) => None,
    }
}

/// Snapshots this thread's traffic memo as (geometry key, encoded
/// traffic) pairs for sidecar persistence. Keys are structural — no
/// session-local state — so they remain valid across processes.
pub fn export() -> Vec<(String, String)> {
    MEMO.with(|m| {
        m.borrow()
            .iter()
            .map(|(k, (tc, _))| (k.clone(), encode(tc)))
            .collect()
    })
}

/// Installs persisted (key, encoded traffic) pairs into this thread's
/// memo. Entries this session already traced win over the import;
/// malformed values are skipped. Returns how many entries were added.
pub fn import<'k, I>(entries: I) -> u64
where
    I: IntoIterator<Item = (&'k str, &'k str)>,
{
    MEMO.with(|m| {
        let mut map = m.borrow_mut();
        let mut added = 0u64;
        for (k, v) in entries {
            let Some(tc) = decode(v) else { continue };
            if let std::collections::hash_map::Entry::Vacant(e) = map.entry(k.to_string()) {
                e.insert((tc, true));
                added += 1;
            }
        }
        let (inst, h) = SIDECAR.get();
        SIDECAR.set((inst + added, h));
        added
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_encoding_round_trips_bit_exactly() {
        let tc = TrafficCost {
            dram_bytes: 1.0e9 / 3.0,
            l2_bytes: f64::MIN_POSITIVE,
            smem_passes: 12345.678,
            hits: u64::MAX,
            misses: 7,
        };
        assert_eq!(decode(&encode(&tc)), Some(tc));
        assert_eq!(decode(""), None);
        assert_eq!(decode("zz.0.0.0.0"), None);
        assert_eq!(decode(&format!("{}.tail", encode(&tc))), None);
    }

    #[test]
    fn import_respects_session_entries_and_tracks_attribution() {
        std::thread::spawn(|| {
            let fresh = TrafficCost {
                dram_bytes: 1.0,
                ..TrafficCost::default()
            };
            insert("geo-a".into(), fresh);
            let stale = encode(&TrafficCost {
                dram_bytes: 2.0,
                ..TrafficCost::default()
            });
            let new = encode(&TrafficCost {
                dram_bytes: 3.0,
                ..TrafficCost::default()
            });
            let added = import(vec![("geo-a", stale.as_str()), ("geo-b", new.as_str())]);
            assert_eq!(added, 1, "session entry wins over import");
            assert_eq!(lookup("geo-a").unwrap().dram_bytes, 1.0);
            assert_eq!(lookup("geo-b").unwrap().dram_bytes, 3.0);
            assert_eq!(lookup("geo-c"), None);
            assert_eq!(memo_stats(), (2, 1));
            assert_eq!(sidecar_stats(), (1, 1), "one imported, one hit on it");
        })
        .join()
        .unwrap();
    }
}
