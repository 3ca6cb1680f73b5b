//! The memoized tier-1 **traffic pass** of the two-tier pricing split.
//!
//! [`CostModel::price`](crate::CostModel::price) replays a candidate's
//! warp-level trace (coalescing, bank conflicts, L2 filtering) to
//! produce the bytes-moved totals, then assembles a timing estimate
//! from them. The replay depends only on the candidate's *geometry* —
//! the phase descriptions, the layout under test, and the device fields
//! each phase reads — while expression variants only perturb the cheap
//! closed-form assembly (`flops`, resources). This module caches the
//! replay's results in a per-thread map keyed by **geometry keys**, so
//! N variants per geometry cost one trace replay plus N re-timings.
//!
//! The memo is kept per phase, not per workload. The cost model
//! derives each phase's key itself (see `CostModel::phase_key`): the
//! phases are plain data ([`crate::access`]), so it renders one exactly
//! (a global phase's L2 model included) with the device fields that
//! phase reads — a global phase's sector width, a shared phase's bank
//! count and width, a tile phase's L2 capacity — and, when the phase
//! reads the layout, the layout's specification
//! ([`lego_core::Layout::key`]). A flat access map never reads it, nor
//! does a tile phase whose distinct tiles fit the L2: such a stream is
//! priced in closed form ([`crate::TileWaves::resident`]) because no
//! schedule can change it, so its key ends in `|-` and every schedule
//! of one matmul tile shape shares its entry. The phase's `scale` (how
//! many blocks or tiles repeat its representative trace) is not in the
//! key: the value is the phase's *unscaled* totals, a [`TrafficCost`],
//! and a workload's traffic multiplies each by its scale while folding
//! its phases in order. So one NW block buffer or one transpose staging
//! tile is traced once whatever the problem size, a flat phase (which
//! never reads the layout) is shared by every layout, and the device is
//! not named, so two devices that agree on a phase's fields share its
//! trace. Rendering a key reads no layout element, so a hit costs a
//! key and a probe (hashed a word at a time, not by SipHash); only a
//! miss replays the phase, compiling the layout if the phase reads it.
//! Every workload is memoizable, hand-built ones included; a workload
//! with no phase (LUD's, whose traffic is all streamed bytes)
//! probes one entry, keyed `KEY_FORMAT` then `|-`, that holds the empty
//! trace, so every priced workload shows in the memo statistics.
//! `CostModel::trace` is the unmemoized pass.
//!
//! Like the expression memos, the map is thread-local (searches are
//! sharded across threads with no locks) and exportable: the
//! [`export`]/[`import`] pair round-trips entries as stable strings so
//! `lego_tune`'s sidecar can persist the memo across processes. Every
//! key starts with [`KEY_FORMAT`], so the sidecar can recognise and
//! shed entries persisted under another key format
//! ([`is_current_key`]). An imported entry is indistinguishable from a
//! traced one: a hit on it counts as any other hit ([`memo_stats`]).
//! The work the replays did for a thread is counted too
//! ([`replay_work`]), so a change to the traffic pass can be measured
//! without a timer.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use crate::tilecache::FoldHasher;

/// Trace-derived traffic totals: everything
/// [`CostModel::price`](crate::CostModel::price) learns from replaying
/// the phase traces, and nothing it learns elsewhere. A memo entry
/// holds one phase's unscaled totals; a workload's traffic is its
/// phases' totals, each times its scale.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrafficCost {
    /// Bytes that miss past L2 to DRAM, summed over phases (before the
    /// workload's `streamed_dram_bytes` is added at assembly time).
    pub dram_bytes: f64,
    /// Bytes moved through L2, summed over phases (before
    /// `streamed_l2_bytes`).
    pub l2_bytes: f64,
    /// Serialized shared-memory passes, summed over phases.
    pub smem_passes: f64,
    /// L2 / tile-cache hits across the traced phases.
    pub hits: u64,
    /// L2 / tile-cache misses across the traced phases.
    pub misses: u64,
}

/// The simulation work trace replays did: the deterministic measure of
/// the traffic pass's cost, where a timer is noisy. Counted per thread:
/// a batch or an unmemoized trace adds its replays' work once, on the
/// thread that asked for it (helpers' replays included).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayWork {
    /// Tile touches fed through the LRU tile cache by tile phases that
    /// do not fit the L2 (a resident stream is priced in closed form
    /// and touches nothing).
    pub tile_touches: u64,
    /// Lanes of the warp accesses global and shared phases replayed.
    pub lanes: u64,
}

impl std::ops::AddAssign for ReplayWork {
    fn add_assign(&mut self, other: ReplayWork) {
        self.tile_touches += other.tile_touches;
        self.lanes += other.lanes;
    }
}

/// The prefix of every memo key, naming its format. Change it whenever
/// the key's rendering changes, so entries persisted under the old
/// format read as stale instead of being carried forever.
pub const KEY_FORMAT: &str = "v4;";

/// Whether `key` is in the current memo-key format ([`KEY_FORMAT`]):
/// a key in any other format can never be probed again.
pub fn is_current_key(key: &str) -> bool {
    key.starts_with(KEY_FORMAT)
}

/// key → traffic, hashed a word at a time ([`FoldHasher`]) rather than
/// by SipHash.
type Memo = HashMap<String, TrafficCost, BuildHasherDefault<FoldHasher>>;

thread_local! {
    static MEMO: RefCell<Memo> = RefCell::new(Memo::default());
    /// (hits, misses) of memo probes, one per phase priced.
    static STATS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Replay work done for this thread.
    static WORK: Cell<ReplayWork> = const {
        Cell::new(ReplayWork { tile_touches: 0, lanes: 0 })
    };
}

/// Adds replays' work to this thread's [`replay_work`].
pub(crate) fn count_work(work: ReplayWork) {
    let mut total = WORK.get();
    total += work;
    WORK.set(total);
}

/// The replay work done for this thread so far: every traced phase of
/// its memoized and unmemoized traffic passes.
pub fn replay_work() -> ReplayWork {
    WORK.get()
}

/// Probes this thread's traffic memo, counting a hit or miss.
pub(crate) fn lookup(key: &str) -> Option<TrafficCost> {
    let got = MEMO.with(|m| m.borrow().get(key).copied());
    let (h, mi) = STATS.get();
    STATS.set(match got {
        Some(_) => (h + 1, mi),
        None => (h, mi + 1),
    });
    got
}

/// Counts a probe answered by a trace an earlier job of the same batch
/// queued: a hit, since nothing is traced for it.
pub(crate) fn count_queued_hit() {
    let (h, mi) = STATS.get();
    STATS.set((h + 1, mi));
}

/// Records a freshly traced phase geometry in this thread's memo.
pub(crate) fn insert(key: String, tc: TrafficCost) {
    MEMO.with(|m| {
        m.borrow_mut().entry(key).or_insert(tc);
    });
}

/// (hits, misses) of this thread's traffic-memo probes, one per phase
/// priced: a miss is one phase geometry traced. Unmemoized traces
/// (`CostModel::trace`) are not counted.
pub fn memo_stats() -> (u64, u64) {
    STATS.get()
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
            .map(|(k, tc)| (k.clone(), encode(tc)))
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
                e.insert(tc);
                added += 1;
            }
        }
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
    fn import_respects_session_entries() {
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
        })
        .join()
        .unwrap();
    }
}
