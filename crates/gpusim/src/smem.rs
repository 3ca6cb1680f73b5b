//! Shared-memory bank-conflict model.
//!
//! Shared memory (LDS on AMD) is divided into banks of fixed-width
//! words — 32 four-byte banks on NVIDIA parts, 64 on an MI300-class
//! device. A warp access serializes into as many passes as the maximum
//! number of *distinct addresses* mapped to one bank (identical
//! addresses broadcast for free). The NW anti-diagonal layout (§V-B)
//! exists precisely to bring this number from ~16-32 down to 1. The
//! bank count and bank word width come from
//! [`GpuConfig::smem_banks`] / [`GpuConfig::bank_bytes`]; the
//! 32-bank/4-byte entry points remain as NVIDIA-shaped conveniences.

use crate::config::GpuConfig;

/// Lanes [`bank_conflicts`] buffers on the stack before spilling to the
/// heap: one 64-lane wavefront.
const STACK_LANES: usize = 64;

/// The result of one warp's shared-memory access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BankConflictResult {
    /// Serialized passes (1 = conflict-free).
    pub passes: usize,
    /// Number of lanes that participated.
    pub lanes: usize,
}

/// Computes the conflict degree of a warp access to shared memory.
/// `addrs` are per-lane *byte* addresses; lanes may be fewer than 32
/// (inactive lanes simply absent).
pub fn bank_conflicts(addrs: &[i64], banks: usize, bank_bytes: usize) -> BankConflictResult {
    bank_passes(addrs.iter().copied(), addrs.len(), banks, bank_bytes)
}

/// Computes conflicts for a warp of *element indices* into a 4-byte
/// shared array.
pub fn bank_conflicts_elems(elem_idx: &[i64], banks: usize) -> BankConflictResult {
    bank_passes(elem_idx.iter().map(|&i| i * 4), elem_idx.len(), banks, 4)
}

/// Computes conflicts for a warp of element indices into an
/// `elem_bytes`-wide shared array on the bank geometry of the device
/// `cfg` — the entry point the [`crate::model`] pricing engine uses.
pub fn bank_conflicts_elems_on(
    elem_idx: &[i64],
    elem_bytes: usize,
    cfg: &GpuConfig,
) -> BankConflictResult {
    let addrs = elem_idx.iter().map(|&i| i * elem_bytes as i64);
    bank_passes(addrs, elem_idx.len(), cfg.smem_banks, cfg.bank_bytes)
}

/// The passes of `lanes` accesses at byte addresses `addrs`: each lane's
/// `(bank, word)` pair goes into one buffer (on the stack for
/// warp-sized inputs), which is sorted so that each bank's words form a
/// run; equal pairs are one broadcast word, and the longest run of
/// distinct words is the serialization.
fn bank_passes(
    addrs: impl Iterator<Item = i64>,
    lanes: usize,
    banks: usize,
    bank_bytes: usize,
) -> BankConflictResult {
    let mut stack = [(0i64, 0i64); STACK_LANES];
    let mut heap = Vec::new();
    let buf: &mut [(i64, i64)] = if lanes <= STACK_LANES {
        &mut stack[..lanes]
    } else {
        heap.resize(lanes, (0, 0));
        &mut heap
    };
    for (slot, a) in buf.iter_mut().zip(addrs) {
        let word = a / bank_bytes as i64;
        *slot = (word.rem_euclid(banks as i64), word);
    }
    buf.sort_unstable();
    let (mut passes, mut run) = (0, 0);
    let mut prev: Option<(i64, i64)> = None;
    for &(bank, word) in buf.iter() {
        run = match prev {
            Some((b, w)) if b == bank => run + usize::from(w != word),
            _ => 1,
        };
        passes = passes.max(run);
        prev = Some((bank, word));
    }
    BankConflictResult { passes, lanes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Lcg;
    use std::collections::HashMap;

    /// The hash-map bank model the sort-and-dedup one replaced: the
    /// reference the property tests below hold it to.
    fn bank_conflicts_oracle(addrs: &[i64], banks: usize, bank_bytes: usize) -> BankConflictResult {
        // bank -> set of distinct word addresses (same word broadcasts).
        let mut per_bank: HashMap<usize, Vec<i64>> = HashMap::new();
        for &a in addrs {
            let word = a / bank_bytes as i64;
            let bank = (word.rem_euclid(banks as i64)) as usize;
            let entry = per_bank.entry(bank).or_default();
            if !entry.contains(&word) {
                entry.push(word);
            }
        }
        let passes = per_bank
            .values()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .max(usize::from(!addrs.is_empty()));
        BankConflictResult {
            passes,
            lanes: addrs.len(),
        }
    }

    #[test]
    fn unit_stride_is_conflict_free() {
        let idx: Vec<i64> = (0..32).collect();
        assert_eq!(bank_conflicts_elems(&idx, 32).passes, 1);
    }

    #[test]
    fn stride_32_is_fully_serialized() {
        let idx: Vec<i64> = (0..32).map(|i| i * 32).collect();
        assert_eq!(bank_conflicts_elems(&idx, 32).passes, 32);
    }

    #[test]
    fn stride_17_is_conflict_free() {
        // Odd strides are co-prime with 32 banks.
        let idx: Vec<i64> = (0..32).map(|i| i * 17).collect();
        assert_eq!(bank_conflicts_elems(&idx, 32).passes, 1);
    }

    #[test]
    fn broadcast_is_free() {
        let idx = vec![5i64; 32];
        assert_eq!(bank_conflicts_elems(&idx, 32).passes, 1);
    }

    #[test]
    fn stride_16_is_two_way_conflict_times_sixteen() {
        // Stride 16 maps lanes onto 2 banks with 16 distinct words each.
        let idx: Vec<i64> = (0..32).map(|i| i * 16).collect();
        assert_eq!(bank_conflicts_elems(&idx, 32).passes, 16);
    }

    #[test]
    fn empty_access_is_zero_passes() {
        assert_eq!(bank_conflicts_elems(&[], 32).passes, 0);
    }

    /// Doubling the bank count can only reduce conflicts: two words
    /// that collide modulo 64 also collide modulo 32, so any wave-64
    /// pattern that is conflict-free on 32 banks stays conflict-free on
    /// 64 — the MI300 LDS geometry never makes an NVIDIA-clean access
    /// pattern dirty.
    #[test]
    fn doubling_banks_never_adds_conflicts() {
        let mut rng = Lcg(0x5eed_ba4c);
        for round in 0..500 {
            // Mix structured strides with raw random addresses.
            let idx: Vec<i64> = if round % 3 == 0 {
                let stride = 1 + rng.below(48);
                (0..64).map(|l| l * stride).collect()
            } else {
                (0..64).map(|_| rng.below(4096)).collect()
            };
            let p32 = bank_conflicts_elems(&idx, 32).passes;
            let p64 = bank_conflicts_elems(&idx, 64).passes;
            assert!(p64 <= p32, "banks 32->64 worsened {p32} -> {p64}: {idx:?}");
            if p32 == 1 {
                assert_eq!(p64, 1, "conflict-free on 32 banks must stay so on 64");
            }
        }
        // A known witness: an odd-stride wave-64 pattern is 2-way on 32
        // banks (lane i and i+32 collide) but conflict-free on 64 —
        // doubled banks absorb the doubled lane count exactly.
        let idx: Vec<i64> = (0..64).map(|i| i * 17).collect();
        assert_eq!(bank_conflicts_elems(&idx, 32).passes, 2);
        assert_eq!(bank_conflicts_elems(&idx, 64).passes, 1);
    }

    /// Broadcast duplication is free on every geometry: repeating lanes
    /// that access an already-present address never changes the pass
    /// count (same-word accesses broadcast).
    #[test]
    fn conflict_counts_invariant_under_broadcast_duplication() {
        let mut rng = Lcg(0xb40a_dca5);
        for _ in 0..500 {
            let n = 1 + rng.below(64) as usize;
            let idx: Vec<i64> = (0..n).map(|_| rng.below(2048)).collect();
            // Duplicate a random subset of lanes (a wave-64 pattern built
            // by broadcasting a 32-lane one, in the extreme).
            let mut dup = idx.clone();
            for _ in 0..rng.below(64) {
                let pick = idx[rng.below(n as u64) as usize];
                dup.push(pick);
            }
            for (banks, word) in [(32usize, 4usize), (64, 4), (32, 8)] {
                let addrs: Vec<i64> = idx.iter().map(|&i| i * 4).collect();
                let dup_addrs: Vec<i64> = dup.iter().map(|&i| i * 4).collect();
                let a = bank_conflicts(&addrs, banks, word).passes;
                let b = bank_conflicts(&dup_addrs, banks, word).passes;
                assert_eq!(a, b, "broadcast changed passes on {banks}x{word}");
            }
        }
    }

    /// Random warps of 32 and 64 lanes on 32- and 64-bank geometries
    /// with 2-, 4- and 8-byte elements (on 4- and 8-byte bank words):
    /// strided, random, broadcast, duplicate and negative lanes all
    /// serialize exactly as the hash-map oracle does, through every
    /// entry point, including warps wider than the stack buffer.
    #[test]
    fn sort_dedup_matches_the_hash_map_oracle() {
        let mut rng = Lcg(0x0ba4_c0de);
        for round in 0..3000 {
            let lanes = [32usize, 64, 1 + rng.below(128) as usize][round % 3];
            let banks = [32usize, 64][rng.below(2) as usize];
            let word = [4usize, 8][rng.below(2) as usize];
            let elem = [2usize, 4, 8][rng.below(3) as usize];
            let idx: Vec<i64> = match round % 5 {
                0 => {
                    let stride = rng.below(70);
                    (0..lanes as i64).map(|l| l * stride).collect()
                }
                1 => vec![rng.below(4096); lanes],
                2 => {
                    let run: Vec<i64> = (0..lanes as i64).map(|l| l * 33).collect();
                    (0..lanes)
                        .map(|_| run[rng.below(lanes as u64) as usize])
                        .collect()
                }
                3 => (0..lanes).map(|_| rng.below(8192) - 4096).collect(),
                _ => (0..lanes).map(|_| rng.below(1 << 14)).collect(),
            };
            let addrs: Vec<i64> = idx.iter().map(|&i| i * elem as i64).collect();
            let want = bank_conflicts_oracle(&addrs, banks, word);
            assert_eq!(bank_conflicts(&addrs, banks, word), want, "{addrs:?}");
            let cfg = crate::config::GpuConfig {
                smem_banks: banks,
                bank_bytes: word,
                ..crate::config::a100()
            };
            assert_eq!(bank_conflicts_elems_on(&idx, elem, &cfg), want);
            if elem == 4 && word == 4 {
                assert_eq!(bank_conflicts_elems(&idx, banks), want);
            }
        }
        assert_eq!(
            bank_conflicts(&[], 32, 4),
            bank_conflicts_oracle(&[], 32, 4)
        );
    }

    #[test]
    fn cfg_entry_point_matches_manual_geometry() {
        let cfg = crate::config::mi300();
        let idx: Vec<i64> = (0..64).map(|i| i * 3 + 1).collect();
        assert_eq!(
            bank_conflicts_elems_on(&idx, 4, &cfg),
            bank_conflicts(
                &idx.iter().map(|&i| i * 4).collect::<Vec<_>>(),
                cfg.smem_banks,
                cfg.bank_bytes
            )
        );
    }
}
