//! Global-memory coalescing model.
//!
//! A warp's lane addresses (32 on NVIDIA, 64 on a CDNA wavefront) are
//! serviced in fixed-size memory segments (32-byte sectors on
//! A100/H100, 64-byte cache lines on MI300): the memory system moves
//! `distinct_segments × segment_bytes` regardless of how many bytes the
//! warp actually uses. Layout quality is exactly the ratio of useful to
//! moved bytes. The segment width comes from
//! [`GpuConfig::sector_bytes`]; nothing here assumes a lane count — the
//! trace builders emit warp-sized groups for the device being modeled.

use crate::config::GpuConfig;

/// Sector slots a warp can fill before [`coalesce`] spills its
/// buffer to the heap: two per lane (an access no wider than a sector
/// straddles at most one boundary) for a 64-lane wavefront.
const STACK_SECTORS: usize = 128;

/// The result of coalescing one warp access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoalesceResult {
    /// Number of distinct sectors touched (memory transactions).
    pub sectors: usize,
    /// Bytes actually requested by the lanes.
    pub useful_bytes: usize,
    /// Bytes moved (`sectors * sector_bytes`).
    pub moved_bytes: usize,
}

impl CoalesceResult {
    /// Useful / moved — 1.0 for perfectly coalesced access.
    pub fn efficiency(&self) -> f64 {
        if self.moved_bytes == 0 {
            return 1.0;
        }
        self.useful_bytes as f64 / self.moved_bytes as f64
    }
}

/// Coalesces one warp access: `addrs` are per-lane *byte* addresses,
/// `access_bytes` the per-lane access width, `sector_bytes` the
/// transaction segment size (32 on A100/H100, 64 on MI300).
pub fn coalesce_warp(addrs: &[i64], access_bytes: usize, sector_bytes: usize) -> CoalesceResult {
    coalesce(
        addrs.iter().copied(),
        addrs.len(),
        access_bytes,
        sector_bytes,
    )
}

/// Convenience: coalesces a warp of *element indices* into an array of
/// `elem_bytes`-wide elements starting at byte offset `base`.
pub fn coalesce_elems(
    elem_idx: &[i64],
    elem_bytes: usize,
    base: i64,
    sector_bytes: usize,
) -> CoalesceResult {
    let addrs = elem_idx.iter().map(|&i| base + i * elem_bytes as i64);
    coalesce(addrs, elem_idx.len(), elem_bytes, sector_bytes)
}

/// Coalesces `lanes` accesses of `access_bytes` at byte addresses
/// `addrs`: every lane's sector span goes into one buffer (on the stack
/// for warp-sized inputs), which is sorted and counted without its
/// duplicates.
fn coalesce(
    addrs: impl Iterator<Item = i64>,
    lanes: usize,
    access_bytes: usize,
    sector_bytes: usize,
) -> CoalesceResult {
    let (access, sector) = (access_bytes as i64, sector_bytes as i64);
    // An access of `access` bytes touches at most this many sectors.
    let max_span = ((access - 1).max(0) / sector + 2) as usize;
    let cap = lanes * max_span;
    let mut stack = [0i64; STACK_SECTORS];
    let mut heap = Vec::new();
    let buf: &mut [i64] = if cap <= STACK_SECTORS {
        &mut stack[..cap]
    } else {
        heap.resize(cap, 0);
        &mut heap
    };
    let mut len = 0;
    for a in addrs {
        for s in a / sector..=(a + access - 1) / sector {
            buf[len] = s;
            len += 1;
        }
    }
    let buf = &mut buf[..len];
    buf.sort_unstable();
    let sectors = usize::from(len > 0) + buf.windows(2).filter(|w| w[0] != w[1]).count();
    CoalesceResult {
        sectors,
        useful_bytes: lanes * access_bytes,
        moved_bytes: sectors * sector_bytes,
    }
}

/// Coalesces a warp of element indices using the memory-segment width
/// of the device `cfg`, so no caller has to know which parameter is the
/// device-dependent one.
pub fn coalesce_elems_on(
    elem_idx: &[i64],
    elem_bytes: usize,
    base: i64,
    cfg: &GpuConfig,
) -> CoalesceResult {
    coalesce_elems(elem_idx, elem_bytes, base, cfg.sector_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Lcg;
    use std::collections::HashSet;

    /// The hash-set coalescer the sort-and-dedup one replaced: the
    /// reference the property test below holds it to.
    fn coalesce_warp_oracle(
        addrs: &[i64],
        access_bytes: usize,
        sector_bytes: usize,
    ) -> CoalesceResult {
        let mut sectors: HashSet<i64> = HashSet::with_capacity(addrs.len());
        for &a in addrs {
            let first = a / sector_bytes as i64;
            let last = (a + access_bytes as i64 - 1) / sector_bytes as i64;
            for s in first..=last {
                sectors.insert(s);
            }
        }
        CoalesceResult {
            sectors: sectors.len(),
            useful_bytes: addrs.len() * access_bytes,
            moved_bytes: sectors.len() * sector_bytes,
        }
    }

    /// Random warps of 32 and 64 lanes on 32- and 64-byte sectors with
    /// 2-, 4- and 8-byte elements: strided, random, broadcast and
    /// duplicate lanes, and unaligned bases that straddle sectors all
    /// coalesce exactly as the hash-set oracle does, through every entry
    /// point.
    #[test]
    fn sort_dedup_matches_the_hash_set_oracle() {
        let mut rng = Lcg(0xc0a1_e5ce);
        for round in 0..3000 {
            let lanes = [32usize, 64, 1 + rng.below(64) as usize][round % 3];
            let sector = [32usize, 64][rng.below(2) as usize];
            let elem = [2usize, 4, 8][rng.below(3) as usize];
            let idx: Vec<i64> = match round % 5 {
                0 => {
                    let stride = rng.below(40);
                    (0..lanes as i64).map(|l| l * stride).collect()
                }
                1 => vec![rng.below(4096); lanes],
                2 => {
                    // Duplicate a random subset of a contiguous run.
                    let run: Vec<i64> = (0..lanes as i64).collect();
                    (0..lanes)
                        .map(|_| run[rng.below(lanes as u64) as usize])
                        .collect()
                }
                _ => (0..lanes).map(|_| rng.below(1 << 14)).collect(),
            };
            let base = rng.below(3 * sector as u64) - sector as i64;
            let addrs: Vec<i64> = idx.iter().map(|&i| base + i * elem as i64).collect();
            let want = coalesce_warp_oracle(&addrs, elem, sector);
            assert_eq!(coalesce_warp(&addrs, elem, sector), want, "{addrs:?}");
            assert_eq!(coalesce_elems(&idx, elem, base, sector), want);
        }
        // Unaligned lanes that each straddle a sector, and accesses wider
        // than a sector (which spill past the stack buffer).
        let straddle: Vec<i64> = (0..64).map(|l| l * 64 + 30).collect();
        assert_eq!(
            coalesce_warp(&straddle, 4, 32),
            coalesce_warp_oracle(&straddle, 4, 32)
        );
        assert_eq!(coalesce_warp(&straddle, 4, 32).sectors, 128);
        let wide: Vec<i64> = (0..64).map(|l| l * 100).collect();
        assert_eq!(
            coalesce_warp(&wide, 96, 32),
            coalesce_warp_oracle(&wide, 96, 32)
        );
        assert_eq!(coalesce_warp(&[], 4, 32), coalesce_warp_oracle(&[], 4, 32));
    }

    #[test]
    fn fully_coalesced_fp32_warp_is_4_sectors() {
        // 32 lanes x 4B contiguous = 128B = 4 x 32B sectors.
        let addrs: Vec<i64> = (0..32).map(|i| i * 4).collect();
        let r = coalesce_warp(&addrs, 4, 32);
        assert_eq!(r.sectors, 4);
        assert_eq!(r.useful_bytes, 128);
        assert_eq!(r.moved_bytes, 128);
        assert!((r.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn strided_warp_touches_32_sectors() {
        // Stride 2048*4B (a column walk): every lane in its own sector.
        let addrs: Vec<i64> = (0..32).map(|i| i * 2048 * 4).collect();
        let r = coalesce_warp(&addrs, 4, 32);
        assert_eq!(r.sectors, 32);
        assert!((r.efficiency() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn broadcast_is_one_sector() {
        let addrs = vec![64i64; 32];
        let r = coalesce_warp(&addrs, 4, 32);
        assert_eq!(r.sectors, 1);
    }

    #[test]
    fn unaligned_access_straddles() {
        // One lane touching bytes 30..34 crosses a sector boundary.
        let r = coalesce_warp(&[30], 4, 32);
        assert_eq!(r.sectors, 2);
    }

    #[test]
    fn elem_helper_matches_manual() {
        let idx: Vec<i64> = (0..32).collect();
        let a = coalesce_elems(&idx, 4, 0, 32);
        let b = coalesce_warp(&(0..32).map(|i| i * 4).collect::<Vec<_>>(), 4, 32);
        assert_eq!(a, b);
    }

    #[test]
    fn wave64_on_64b_segments_is_fully_coalesced() {
        // 64 contiguous fp32 lanes = 256 B = 4 x 64 B segments on an
        // MI300-shaped device; efficiency stays 1.0 even though both
        // the lane count and the segment width doubled.
        let cfg = crate::config::mi300();
        let idx: Vec<i64> = (0..64).collect();
        let r = coalesce_elems_on(&idx, 4, 0, &cfg);
        assert_eq!(r.sectors, 4);
        assert_eq!(r.moved_bytes, 256);
        assert!((r.efficiency() - 1.0).abs() < 1e-12);
        // A strided wave-64 column walk still pays one segment per lane.
        let col: Vec<i64> = (0..64).map(|i| i * 2048).collect();
        let r = coalesce_elems_on(&col, 4, 0, &cfg);
        assert_eq!(r.sectors, 64);
    }
}
