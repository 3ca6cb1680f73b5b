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

impl TileWaves {
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
