//! Access maps: a workload's memory accesses as plain data.
//!
//! A trace builder describes each traced phase of its kernel as data —
//! an [`AccessMap`] for lane-parallel element accesses (global or
//! shared memory) or [`TileWaves`] for matmul's wave-by-wave tile
//! touches — and the cost model replays every description with the
//! one interpreter here. Because the descriptions are data, the cost
//! model derives the traffic-memo key from them (see
//! [`crate::traffic`]), and later passes can read the iteration space
//! instead of only running it.

use lego_core::shape::key_ints;
use lego_core::ConcreteLayout;

/// The lane-dependent term of a [`Coord`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// `a·lane`.
    Mul(i64),
    /// `lane / q`.
    Div(i64),
    /// `lane % q`.
    Mod(i64),
}

impl Lane {
    /// Appends the term of each lane `0..lanes` to `out`.
    fn tabulate(self, lanes: i64, out: &mut Vec<i64>) {
        // Lanes are non-negative: powers of two shift and mask.
        let pow2 = |q: i64| q > 0 && q & (q - 1) == 0;
        let lanes = 0..lanes;
        match self {
            Lane::Mul(a) => out.extend(lanes.map(|l| a * l)),
            Lane::Div(q) if pow2(q) => out.extend(lanes.map(|l| l >> q.trailing_zeros())),
            Lane::Mod(q) if pow2(q) => out.extend(lanes.map(|l| l & (q - 1))),
            Lane::Div(q) => out.extend(lanes.map(|l| l / q)),
            Lane::Mod(q) => out.extend(lanes.map(|l| l % q)),
        }
    }
}

/// One coordinate of a lane's access, `Coord(base, outer, lane)`:
/// `base + Σ outer[i]·o_i + lane term`, with `o` the outer iteration
/// point (missing trailing coefficients are zero).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coord(pub i64, pub Vec<i64>, pub Lane);

/// A lane-parallel access pattern. For every point of the rectangular
/// `outer` space (last index fastest), the lanes `0..lanes` that pass
/// the mask are chunked into warps of `warp` lanes; each chunk emits
/// one warp access per coordinate map and tap, in that order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AccessMap {
    /// Outer iteration extents.
    pub outer: Vec<i64>,
    /// Lane extent of one outer point.
    pub lanes: i64,
    /// Warp width the lanes are chunked into.
    pub warp: usize,
    /// Coordinate maps, one warp access each per chunk and tap; every
    /// map has the same number of coordinates.
    pub maps: Vec<Vec<Coord>>,
    /// Offsets added to every coordinate; one warp access each.
    pub taps: Vec<Vec<i64>>,
    /// Inclusive range every base coordinate (before taps) of every map
    /// must lie in for a lane to be active; inactive lanes are dropped
    /// before chunking.
    pub mask: Option<(i64, i64)>,
    /// Inclusive range every tapped coordinate is clamped to.
    pub clamp: Option<(i64, i64)>,
    /// Whether the single coordinate of each map is the element index
    /// itself, without going through the layout.
    pub flat: bool,
}

impl AccessMap {
    /// `maps` through the layout, with one zero tap, no mask and no
    /// clamp.
    pub fn new(outer: Vec<i64>, lanes: i64, warp: usize, maps: Vec<Vec<Coord>>) -> AccessMap {
        AccessMap {
            outer,
            lanes,
            warp,
            taps: vec![vec![0; maps.first().map_or(0, Vec::len)]],
            maps,
            ..AccessMap::default()
        }
    }

    /// Appends the map to a traffic-memo key, exactly: two maps that
    /// replay differently append different text.
    pub fn key(&self, out: &mut String) {
        let rank = self.maps.first().map_or(0, Vec::len) as i64;
        let lanes = [self.lanes, self.warp as i64, rank, self.flat as i64];
        key_ints(out, 'o', &self.outer);
        key_ints(out, 'l', &lanes);
        for Coord(base, outer, lane) in self.maps.iter().flatten() {
            let (kind, q) = match *lane {
                Lane::Mul(a) => ('*', a),
                Lane::Div(q) => ('/', q),
                Lane::Mod(q) => ('%', q),
            };
            key_ints(out, kind, &[q, *base]);
            key_ints(out, ':', outer);
        }
        for tap in &self.taps {
            key_ints(out, 't', tap);
        }
        for (tag, range) in [('k', self.mask), ('z', self.clamp)] {
            if let Some((lo, hi)) = range {
                key_ints(out, tag, &[lo, hi]);
            }
        }
    }

    /// Feeds every warp access, in order, to `sink` as element indices
    /// (through `layout` unless the map is flat). Lane terms are
    /// tabulated once, each outer point's coordinate bases once per
    /// point, and one index buffer is reused.
    ///
    /// # Panics
    ///
    /// When a non-flat map gets no layout, when the maps do not have
    /// one coordinate per layout axis (one to three), or when an access
    /// falls outside the layout.
    pub fn replay(&self, layout: Option<&ConcreteLayout>, sink: impl FnMut(&[i64])) {
        match self.maps.first().map_or(0, Vec::len) {
            1 => self.replay_rank::<1>(layout, sink),
            2 => self.replay_rank::<2>(layout, sink),
            3 => self.replay_rank::<3>(layout, sink),
            rank => panic!("access maps have one to three coordinates, not {rank}"),
        }
    }

    /// [`replay`](AccessMap::replay) at rank `R`, so the per-lane
    /// coordinate loop unrolls.
    fn replay_rank<const R: usize>(
        &self,
        layout: Option<&ConcreteLayout>,
        mut sink: impl FnMut(&[i64]),
    ) {
        let layout = (!self.flat).then(|| layout.expect("a non-flat map reads the layout"));
        // A flat map's one coordinate is the element index itself.
        let dims: [i64; R] =
            layout.map_or([i64::MAX; R], |l| l.dims().try_into().expect("map rank"));
        // One column of lane terms per coordinate of every map.
        let (lanes, nc) = (self.lanes.max(0) as usize, self.maps.len() * R);
        let mut terms = Vec::with_capacity(lanes * nc);
        for c in self.maps.iter().flatten() {
            c.2.tabulate(self.lanes, &mut terms);
        }
        let column = |k: usize| &terms[k * lanes..][..lanes];
        let (lo, hi) = self.clamp.unwrap_or((i64::MIN, i64::MAX));
        let (mut point, mut bases) = (vec![0i64; self.outer.len()], vec![0i64; nc]);
        let (mut active, mut idx) = (Vec::with_capacity(lanes), Vec::with_capacity(self.warp));
        for p in 0..self.outer.iter().map(|&e| e.max(0)).product::<i64>() {
            // The outer point (last index fastest) and its coordinate bases.
            let mut rest = p;
            for (o, &e) in point.iter_mut().zip(&self.outer).rev() {
                (*o, rest) = (rest % e, rest / e);
            }
            for (b, c) in bases.iter_mut().zip(self.maps.iter().flatten()) {
                *b = c.0 + c.1.iter().zip(&point).map(|(k, o)| k * o).sum::<i64>();
            }
            active.clear();
            active.extend(0..lanes);
            if let Some((lo, hi)) = self.mask {
                for (k, b) in bases.iter().enumerate() {
                    let col = column(k);
                    active.retain(|&lane| (lo..=hi).contains(&(b + col[lane])));
                }
            }
            for chunk in active.chunks(self.warp.max(1)) {
                for (m, base) in bases.chunks_exact(R).enumerate() {
                    let cols: [&[i64]; R] = std::array::from_fn(|c| column(m * R + c));
                    for tap in &self.taps {
                        let start: [i64; R] = std::array::from_fn(|c| base[c] + tap[c]);
                        idx.clear();
                        for &lane in chunk {
                            let mut flat = 0;
                            for c in 0..R {
                                let x = (start[c] + cols[c][lane]).clamp(lo, hi);
                                let inside = layout.is_none() || (0..dims[c]).contains(&x);
                                assert!(inside, "access {x} outside a layout axis of {}", dims[c]);
                                flat = flat * dims[c] + x;
                            }
                            idx.push(layout.map_or(flat, |l| l.apply_flat(flat)));
                        }
                        sink(&idx);
                    }
                }
            }
        }
    }
}

/// Tiled GEMM's wave-by-wave tile touches: thread blocks issue `wave`
/// at a time in `pid` order, the layout maps each `pid` to its
/// `(pid_m, pid_n)` tile, and every block of a wave touches its `A`
/// and `B` tiles at each K step.
///
/// The layout is a schedule: it maps the pids `0..blocks` one-to-one
/// onto the `rows × tiles_n` grid of output tiles, `rows = blocks /
/// tiles_n`. Every tiled-GEMM layout does, and
/// [`TileWaves::resident`] relies on it: the stream then touches exactly
/// `rows·ksteps` distinct `A` tiles and `ksteps·tiles_n` distinct `B`
/// tiles whatever the schedule, so when they all fit the cache, the
/// schedule cannot change what the stream costs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileWaves {
    /// Thread blocks.
    pub blocks: i64,
    /// Blocks per wave.
    pub wave: i64,
    /// K steps per block.
    pub ksteps: i64,
    /// Tile columns of `B` (`n / bn`).
    pub tiles_n: i64,
    /// Bytes of one `A` tile.
    pub a_bytes: usize,
    /// Bytes of one `B` tile.
    pub b_bytes: usize,
}

/// What a tile stream costs through an LRU tile cache
/// ([`crate::TileCache`]): bytes touched, hits, misses and the bytes
/// the misses fetch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TileTotals {
    /// Bytes of every touch, hit or miss.
    pub touched_bytes: u64,
    /// Touches of a resident tile.
    pub hits: u64,
    /// Touches that fetch their tile.
    pub misses: u64,
    /// Bytes the misses fetch.
    pub miss_bytes: u64,
}

impl TileWaves {
    /// The stream's totals through an LRU cache of `capacity` bytes,
    /// in closed form, when every distinct tile fits in it — `None`
    /// otherwise, when [`replay`](TileWaves::replay) through the cache
    /// must price it.
    ///
    /// With `A = rows·ksteps` distinct `A` tiles and `B =
    /// ksteps·tiles_n` distinct `B` tiles (none without blocks), the
    /// stream is resident when `A·a_bytes + B·b_bytes ≤ capacity`:
    /// nothing is ever evicted, because the resident bytes plus a
    /// missing tile never exceed the distinct bytes. Then each distinct
    /// tile misses once (`misses = A + B`, fetching `A·a_bytes +
    /// B·b_bytes`) and every other touch of the `2·blocks·ksteps` hits,
    /// whatever the pid order. `touched_bytes` is
    /// `blocks·ksteps·(a_bytes + b_bytes)`, at most 2^53 here, so every
    /// partial sum of a per-touch `f64` accumulation is exact and
    /// `touched_bytes as f64` equals it bit for bit.
    ///
    /// `None` also when the fields do not describe a grid (`tiles_n`
    /// not dividing `blocks`, a negative count) or a count overflows.
    pub fn resident(&self, capacity: usize) -> Option<TileTotals> {
        let count = |x: i64| u64::try_from(x).ok();
        let (blocks, ksteps, tiles_n) = (
            count(self.blocks)?,
            count(self.ksteps)?,
            count(self.tiles_n)?,
        );
        if tiles_n == 0 || blocks % tiles_n != 0 {
            return None;
        }
        let (a_bytes, b_bytes) = (self.a_bytes as u64, self.b_bytes as u64);
        let a = (blocks / tiles_n).checked_mul(ksteps)?;
        let b = if blocks == 0 {
            0
        } else {
            ksteps.checked_mul(tiles_n)?
        };
        let miss_bytes = a
            .checked_mul(a_bytes)?
            .checked_add(b.checked_mul(b_bytes)?)?;
        // Each block's K step touches one A and one B tile.
        let steps = blocks.checked_mul(ksteps)?;
        let touches = steps.checked_mul(2)?;
        let touched_bytes = steps.checked_mul(a_bytes.checked_add(b_bytes)?)?;
        let fits = miss_bytes <= capacity as u64 && touched_bytes <= 1 << f64::MANTISSA_DIGITS;
        fits.then_some(TileTotals {
            touched_bytes,
            hits: touches - (a + b),
            misses: a + b,
            miss_bytes,
        })
    }

    /// Feeds every `(tile_id, bytes)` touch to `sink` in execution
    /// order; `A` tiles take even ids and `B` tiles odd ones.
    ///
    /// # Panics
    ///
    /// When a `pid` falls outside the layout.
    pub fn replay(&self, layout: &ConcreteLayout, mut sink: impl FnMut(i64, usize)) {
        let ksteps = self.ksteps;
        for pid0 in (0..self.blocks).step_by(self.wave.max(1) as usize) {
            let pids: Vec<(i64, i64)> = (pid0..(pid0 + self.wave).min(self.blocks))
                .map(|pid| layout.inv(pid).map(|v| (v[0], v[1])).expect("pid in range"))
                .collect();
            for kk in 0..ksteps {
                for &(pm, pn) in &pids {
                    sink((pm * ksteps + kk) << 1, self.a_bytes);
                    sink(((kk * self.tiles_n + pn) << 1) | 1, self.b_bytes);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Lcg;
    use crate::TileCache;
    use lego_core::{GenFns, Layout, OrderBy, Perm};
    use std::sync::Arc;

    /// A `rows × cols` grid layout whose pid order is the shuffled
    /// `order`: pid `p` runs tile `order[p]` (row-major).
    fn pid_order(rows: i64, cols: i64, order: Vec<i64>) -> ConcreteLayout {
        let mut pos = vec![0; order.len()];
        for (pid, &tile) in order.iter().enumerate() {
            pos[tile as usize] = pid as i64;
        }
        let name = format!("pid_order{order:?}");
        let fns = GenFns {
            name,
            fwd: Arc::new(move |idx: &[i64]| pos[(idx[0] * cols + idx[1]) as usize]),
            inv: Arc::new(move |pid: i64| {
                let tile = order[pid as usize];
                vec![tile / cols, tile % cols]
            }),
            fwd_sym: None,
            inv_sym: None,
        };
        Layout::builder([rows, cols])
            .order_by(OrderBy::new([Perm::gen([rows, cols], fns).unwrap()]).unwrap())
            .build()
            .unwrap()
            .compile()
            .unwrap()
    }

    /// The stream replayed through a [`TileCache`], bytes summed per
    /// touch in `f64` as the cost model's LRU arm sums them.
    fn through_cache(
        waves: &TileWaves,
        layout: &ConcreteLayout,
        capacity: usize,
    ) -> (TileTotals, f64) {
        let mut cache = TileCache::new(capacity);
        let (mut touched, mut touched_f64) = (0u64, 0f64);
        waves.replay(layout, |id, bytes| {
            cache.touch(id, bytes);
            touched += bytes as u64;
            touched_f64 += bytes as f64;
        });
        let totals = TileTotals {
            touched_bytes: touched,
            hits: cache.hits(),
            misses: cache.misses(),
            miss_bytes: cache.miss_bytes(),
        };
        (totals, touched_f64)
    }

    /// Random grids, tile sizes, wave widths and one-to-one pid orders:
    /// at every capacity from well below the distinct bytes to well
    /// above — the distinct bytes exactly, and one byte short, included —
    /// the closed form is `None` below the distinct bytes and equals
    /// the LRU replay field for field (and the `f64` byte sum bit for
    /// bit) from there up. Covers `ksteps = 0` and a single-tile grid.
    #[test]
    fn resident_streams_match_the_lru_replay() {
        let mut rng = Lcg(0x7e5_1de47);
        for round in 0..300 {
            let (rows, cols) = match round % 10 {
                0 => (1, 1),
                _ => (1 + rng.below(6), 1 + rng.below(6)),
            };
            let ksteps = if round % 7 == 0 { 0 } else { 1 + rng.below(5) };
            let waves = TileWaves {
                blocks: rows * cols,
                wave: 1 + rng.below(8),
                ksteps,
                tiles_n: cols,
                a_bytes: 1 + rng.below(64) as usize,
                b_bytes: [0, 1, 33, 64][rng.below(4) as usize],
            };
            let mut order: Vec<i64> = (0..rows * cols).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let layout = pid_order(rows, cols, order);
            let distinct =
                rows * ksteps * waves.a_bytes as i64 + ksteps * cols * waves.b_bytes as i64;
            for capacity in [
                0,
                distinct / 2,
                distinct - 1,
                distinct,
                distinct + 1,
                4 * distinct + 64,
            ] {
                let Ok(capacity) = usize::try_from(capacity) else {
                    continue;
                };
                let (lru, touched_f64) = through_cache(&waves, &layout, capacity);
                match waves.resident(capacity) {
                    Some(closed) => {
                        assert!(capacity as i64 >= distinct, "{waves:?} at {capacity}");
                        assert_eq!(closed, lru, "{waves:?} at {capacity}");
                        assert_eq!(
                            (closed.touched_bytes as f64).to_bits(),
                            touched_f64.to_bits()
                        );
                    }
                    None => assert!((capacity as i64) < distinct, "{waves:?} at {capacity}"),
                }
            }
        }
    }

    /// Fields that do not describe a grid are never priced in closed
    /// form.
    #[test]
    fn non_grid_streams_are_not_resident() {
        let grid = TileWaves {
            blocks: 6,
            wave: 2,
            ksteps: 2,
            tiles_n: 3,
            a_bytes: 8,
            b_bytes: 8,
        };
        assert!(grid.resident(usize::MAX).is_some());
        for waves in [
            TileWaves { tiles_n: 0, ..grid },
            TileWaves { tiles_n: 4, ..grid },
            TileWaves { blocks: -6, ..grid },
            TileWaves { ksteps: -1, ..grid },
            TileWaves {
                ksteps: i64::MAX,
                ..grid
            },
        ] {
            assert_eq!(waves.resident(usize::MAX), None, "{waves:?}");
        }
        let none = TileWaves { blocks: 0, ..grid }.resident(0);
        assert_eq!(
            none,
            Some(TileTotals::default()),
            "no block touches nothing"
        );
    }
}
