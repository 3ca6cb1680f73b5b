//! The parameterized search domain: the one definition of each
//! workload's configuration space, at both scales, with the
//! `neighbor`/`crossover` moves the metaheuristic strategies walk.
//!
//! A workload's configuration is a point on a few integer axes (tile
//! sides, coarsening factors, permutation families and their
//! parameters). Per-axis value functions (`matmul_tiles`,
//! `transpose_stagings`, `nw_b_values`, …) list each axis's legal
//! values, and they are the only code that depends on the
//! [`SpaceScale`]. The domain is the workload's default configuration
//! followed by the cross product of those axes; it knows how to
//!
//! * [`Domain::enumerate`] every point, default first (exhaustive
//!   ground truth — affordable for the legacy ranges, expensive for
//!   the enlarged ones),
//! * draw a uniform [`Domain::random`] axis point (population seeding),
//! * take a [`Domain::neighbor`] step — perturb one tile dimension to
//!   an adjacent legal value, swap the permutation family, or flip a
//!   coarsening factor (simulated annealing),
//! * [`Domain::crossover`] two parents axis-wise (genetic search), and
//! * list the deterministic [`Domain::local_neighbors`] of a point
//!   (incumbent polishing).
//!
//! Every move result is repaired to the nearest legal point: dependent
//! axes are snapped (a grouped schedule's `gm` must divide the new tile
//! count, a staging must fit the new tile) and a value off its axis
//! moves to the closest legal one. A repair draws no random numbers and
//! returns a member unchanged. A domain whose axis product is empty
//! (e.g. `transpose(n=100)`, where no power-of-two tile divides `n`)
//! holds only the default, and every move returns it.
//!
//! [`SpaceScale::Legacy`] is the v2 space exhaustive search was built
//! on (hand-picked matmul tile triples, power-of-two transpose tiles,
//! bricks of 4 and 8); the free-integer [`SpaceScale::Enlarged`] ranges
//! are roughly an order of magnitude bigger — the spaces exhaustive
//! enumeration couldn't afford, which is exactly what the budgeted
//! strategies are for.
//!
//! Every configuration a search scores is annotated through
//! [`crate::space::Candidate::annotated`], so the whole search shares
//! one expression arena per tuning session (the thread's `lego_expr`
//! interner): a neighbor or crossover of the incumbent re-derives only
//! the index subexpressions its changed axes actually touch — the rest
//! are memo hits on the incumbent's interned subtrees — and revisited
//! configurations skip lowering entirely via the annotation fast path.

use lego_codegen::tuning::{
    NwLayoutChoice, ScheduleChoice, StagingChoice, StencilLayoutChoice, TunedConfig,
};

use crate::rng::Rng;
use crate::space::WorkloadKind;

/// Which parameter ranges a domain spans.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SpaceScale {
    /// The v2 hand-picked ranges (what exhaustive search affords).
    #[default]
    Legacy,
    /// Free-integer tile ranges and composed-perm parameter grids —
    /// roughly 10× more candidates, meant for budgeted strategies.
    Enlarged,
}

impl SpaceScale {
    /// Stable name, used in the cache document.
    pub fn name(self) -> &'static str {
        match self {
            SpaceScale::Legacy => "legacy",
            SpaceScale::Enlarged => "enlarged",
        }
    }

    /// Parses a `--space` argument.
    pub fn parse(s: &str) -> Option<SpaceScale> {
        match s {
            "legacy" => Some(SpaceScale::Legacy),
            "enlarged" => Some(SpaceScale::Enlarged),
            _ => None,
        }
    }
}

/// A workload's parameterized configuration domain at one scale.
#[derive(Clone, Debug)]
pub struct Domain {
    /// The workload being tuned.
    pub kind: WorkloadKind,
    /// Parameter ranges.
    pub scale: SpaceScale,
    /// The legal matmul tiles (empty for other workloads) and whether
    /// the axis product holds any point, worked out once here because
    /// every move asks. When the product holds no point, the domain is
    /// the default alone and every move returns it.
    tiles: Vec<Tile>,
    axis_points: bool,
}

/// A matmul tile: `(bm, bn, bk)`.
type Tile = (i64, i64, i64);

/// The v2 matmul tile triples, in enumeration order.
const LEGACY_TILES: [Tile; 8] = [
    (128, 128, 64),
    (128, 128, 32),
    (64, 64, 64),
    (64, 64, 32),
    (256, 128, 64),
    (128, 256, 64),
    (128, 64, 64),
    (64, 128, 64),
];

/// Divisors of `n` inside `[lo, hi]`, ascending.
fn divisors_in(n: i64, lo: i64, hi: i64) -> Vec<i64> {
    (lo.max(1)..=hi.min(n)).filter(|d| n % d == 0).collect()
}

/// Index of the legal value nearest to `cur` (ties toward the smaller
/// value), or `None` on an empty axis.
fn nearest_at(values: &[i64], cur: i64) -> Option<usize> {
    (0..values.len()).min_by_key(|&i| ((values[i] - cur).abs(), values[i]))
}

/// The legal value nearest to `cur` (ties toward the smaller value).
fn nearest(values: &[i64], cur: i64) -> Option<i64> {
    nearest_at(values, cur).map(|i| values[i])
}

/// One step along a non-empty axis: move 1, 2, 4, or 8 legal values
/// (geometric stride, so long axes are crossed in logarithmically many
/// moves) to a random side, clamped at the ends. `cur` is first snapped
/// to the axis.
fn step(values: &[i64], cur: i64, rng: &mut Rng) -> i64 {
    let i = nearest_at(values, cur).expect("moves walk non-empty axes");
    let dist = 1usize << rng.below(4);
    let j = if rng.chance(0.5) {
        i.saturating_sub(dist)
    } else {
        (i + dist).min(values.len() - 1)
    };
    values[j]
}

/// The distinct values of one tile component, ascending: the axis a
/// random draw or a step walks before the triple is repaired.
fn tile_values(tiles: &[Tile], component: fn(&Tile) -> i64) -> Vec<i64> {
    let mut out: Vec<i64> = tiles.iter().map(component).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The other NW layout.
fn flip(layout: NwLayoutChoice) -> NwLayoutChoice {
    match layout {
        NwLayoutChoice::RowMajor => NwLayoutChoice::Antidiag,
        NwLayoutChoice::Antidiag => NwLayoutChoice::RowMajor,
    }
}

impl Domain {
    /// The domain of `kind` at `scale`.
    pub fn new(kind: WorkloadKind, scale: SpaceScale) -> Domain {
        let mut domain = Domain {
            kind,
            scale,
            tiles: Vec::new(),
            axis_points: true,
        };
        if let WorkloadKind::Matmul { n } = kind {
            domain.tiles = domain.matmul_tiles(n);
        }
        domain.axis_points = domain.has_axis_points();
        domain
    }

    /// The hand-picked default configuration (always evaluated first, so
    /// the search can never regress it).
    pub fn default_config(&self) -> TunedConfig {
        self.kind.default_config()
    }

    /// Number of points in the domain.
    pub fn len(&self) -> usize {
        self.enumerate().len()
    }

    /// Whether the domain is empty: never, the default is a member.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Materializes every configuration of the domain: the default,
    /// then the axis product in a deterministic order.
    pub fn enumerate(&self) -> Vec<TunedConfig> {
        let default = self.default_config();
        let mut out = vec![default];
        // Axis products hold no repeats, so the default is the only
        // point that could appear twice.
        let mut push = |c: TunedConfig| {
            if c != default {
                out.push(c);
            }
        };
        match self.kind {
            WorkloadKind::Matmul { n } => {
                for &(bm, bn, bk) in &self.tiles {
                    for schedule in self.matmul_schedules(n, bm, bn) {
                        push(TunedConfig::Matmul {
                            bm,
                            bn,
                            bk,
                            schedule,
                        });
                    }
                }
            }
            WorkloadKind::Transpose { n } => {
                for t in self.transpose_t_values(n) {
                    for staging in self.transpose_stagings(t) {
                        push(TunedConfig::Transpose { t, staging });
                    }
                }
            }
            WorkloadKind::Stencil { n, .. } => {
                for layout in self.stencil_layouts(n) {
                    push(TunedConfig::Stencil { n, layout });
                }
            }
            WorkloadKind::Nw { n, .. } => {
                for b in self.nw_b_values(n) {
                    for layout in [NwLayoutChoice::RowMajor, NwLayoutChoice::Antidiag] {
                        push(TunedConfig::Nw { b, layout });
                    }
                }
            }
            WorkloadKind::Lud { n, bs } => {
                for t in self.lud_t_values(n, bs) {
                    for r in self.lud_r_values(n, t) {
                        push(TunedConfig::Lud { r, t });
                    }
                }
            }
            WorkloadKind::Rowwise { op, n, .. } => {
                for bs in self.rowwise_bs_values(n) {
                    push(TunedConfig::Rowwise { op, bs });
                }
            }
        }
        out
    }

    /// Whether `c` is a member of this domain: the default, or a point
    /// whose every axis value is legal.
    pub fn contains(&self, c: &TunedConfig) -> bool {
        if *c == self.default_config() {
            return true;
        }
        match (*c, self.kind) {
            (
                TunedConfig::Matmul {
                    bm,
                    bn,
                    bk,
                    schedule,
                },
                WorkloadKind::Matmul { n },
            ) => {
                self.tiles.contains(&(bm, bn, bk))
                    && self.matmul_schedules(n, bm, bn).contains(&schedule)
            }
            (TunedConfig::Transpose { t, staging }, WorkloadKind::Transpose { n }) => {
                self.transpose_t_values(n).contains(&t)
                    && self.transpose_stagings(t).contains(&staging)
            }
            (TunedConfig::Stencil { n, layout }, WorkloadKind::Stencil { n: wn, .. }) => {
                n == wn && self.stencil_layouts(n).contains(&layout)
            }
            (TunedConfig::Nw { b, .. }, WorkloadKind::Nw { n, .. }) => {
                self.nw_b_values(n).contains(&b)
            }
            (TunedConfig::Lud { r, t }, WorkloadKind::Lud { n, bs }) => {
                self.lud_t_values(n, bs).contains(&t) && self.lud_r_values(n, t).contains(&r)
            }
            (TunedConfig::Rowwise { op, bs }, WorkloadKind::Rowwise { op: wop, n, .. }) => {
                op == wop && self.rowwise_bs_values(n).contains(&bs)
            }
            _ => false,
        }
    }

    /// Whether the axis product holds any point.
    fn has_axis_points(&self) -> bool {
        match self.kind {
            WorkloadKind::Matmul { .. } => !self.tiles.is_empty(),
            WorkloadKind::Transpose { n } => !self.transpose_t_values(n).is_empty(),
            WorkloadKind::Stencil { .. } => true,
            WorkloadKind::Nw { n, .. } => !self.nw_b_values(n).is_empty(),
            WorkloadKind::Lud { n, bs } => self
                .lud_t_values(n, bs)
                .iter()
                .any(|&t| !self.lud_r_values(n, t).is_empty()),
            WorkloadKind::Rowwise { n, .. } => !self.rowwise_bs_values(n).is_empty(),
        }
    }

    /// The legal point nearest to `c`: a member is returned unchanged;
    /// otherwise each off-axis value moves to the closest legal one
    /// (the matmul tile to the closest legal triple) and dependent axes
    /// are repaired. Falls back to the default when `c` has no legal
    /// neighbor here (a foreign config, an off-list stencil layout, or
    /// an empty axis product). Draws no random numbers.
    fn repair(&self, c: TunedConfig) -> TunedConfig {
        if self.contains(&c) {
            return c;
        }
        let repaired = match (c, self.kind) {
            (
                TunedConfig::Matmul {
                    bm,
                    bn,
                    bk,
                    schedule,
                },
                WorkloadKind::Matmul { n },
            ) => self
                .tiles
                .iter()
                .copied()
                .min_by_key(|&(m, nn, k)| {
                    ((m - bm).abs() + (nn - bn).abs() + (k - bk).abs(), m, nn, k)
                })
                .map(|(bm, bn, bk)| TunedConfig::Matmul {
                    bm,
                    bn,
                    bk,
                    schedule: self.repair_schedule(n, bm, bn, schedule),
                }),
            (TunedConfig::Transpose { t, staging }, WorkloadKind::Transpose { n }) => {
                nearest(&self.transpose_t_values(n), t).map(|t| TunedConfig::Transpose {
                    t,
                    staging: self.repair_staging(t, staging),
                })
            }
            (TunedConfig::Nw { b, layout }, WorkloadKind::Nw { n, .. }) => {
                nearest(&self.nw_b_values(n), b).map(|b| TunedConfig::Nw { b, layout })
            }
            (TunedConfig::Lud { r, t }, WorkloadKind::Lud { n, bs }) => {
                nearest(&self.lud_t_values(n, bs), t).and_then(|t| {
                    nearest(&self.lud_r_values(n, t), r).map(|r| TunedConfig::Lud { r, t })
                })
            }
            (TunedConfig::Rowwise { op, bs }, WorkloadKind::Rowwise { op: wop, n, .. })
                if op == wop =>
            {
                nearest(&self.rowwise_bs_values(n), bs).map(|bs| TunedConfig::Rowwise { op, bs })
            }
            _ => None,
        };
        repaired.unwrap_or_else(|| self.default_config())
    }

    /// A uniform random point of the axis product (repaired where the
    /// axes are not independent, e.g. the legacy matmul tile triples).
    pub fn random(&self, rng: &mut Rng) -> TunedConfig {
        if !self.axis_points {
            return self.default_config();
        }
        let c = self.random_axes(rng);
        self.repair(c)
    }

    /// One uniform draw per axis.
    fn random_axes(&self, rng: &mut Rng) -> TunedConfig {
        match self.kind {
            WorkloadKind::Matmul { n } => {
                let bm = *rng.pick(&tile_values(&self.tiles, |t| t.0));
                let bn = *rng.pick(&tile_values(&self.tiles, |t| t.1));
                let bk = *rng.pick(&tile_values(&self.tiles, |t| t.2));
                let schedule = *rng.pick(&self.matmul_schedules(n, bm, bn));
                TunedConfig::Matmul {
                    bm,
                    bn,
                    bk,
                    schedule,
                }
            }
            WorkloadKind::Transpose { n } => {
                let t = *rng.pick(&self.transpose_t_values(n));
                let staging = *rng.pick(&self.transpose_stagings(t));
                TunedConfig::Transpose { t, staging }
            }
            WorkloadKind::Stencil { n, .. } => TunedConfig::Stencil {
                n,
                layout: *rng.pick(&self.stencil_layouts(n)),
            },
            WorkloadKind::Nw { n, .. } => TunedConfig::Nw {
                // Half the samples land on the launch-schedule tooth
                // bottoms — the sub-lattice every additive-pricing
                // optimum lives on — so population seeding covers the
                // meaningful coordinate, not just the raw axis.
                b: if rng.chance(0.5) {
                    *rng.pick(&self.nw_tooth_values(n))
                } else {
                    *rng.pick(&self.nw_b_values(n))
                },
                layout: if rng.chance(0.5) {
                    NwLayoutChoice::RowMajor
                } else {
                    NwLayoutChoice::Antidiag
                },
            },
            WorkloadKind::Lud { n, bs } => {
                let t = *rng.pick(&self.lud_t_values(n, bs));
                let r = *rng.pick(&self.lud_r_values(n, t));
                TunedConfig::Lud { r, t }
            }
            WorkloadKind::Rowwise { op, n, .. } => TunedConfig::Rowwise {
                op,
                bs: *rng.pick(&self.rowwise_bs_values(n)),
            },
        }
    }

    /// One local move: perturb a single axis of `c` to an adjacent legal
    /// value (tile dimension, coarsening factor) or swap the
    /// permutation/layout choice, then repair.
    pub fn neighbor(&self, c: &TunedConfig, rng: &mut Rng) -> TunedConfig {
        if !self.axis_points {
            return self.default_config();
        }
        let m = self.neighbor_axes(c, rng);
        self.repair(m)
    }

    /// The raw axis move behind [`Domain::neighbor`].
    fn neighbor_axes(&self, c: &TunedConfig, rng: &mut Rng) -> TunedConfig {
        match (*c, self.kind) {
            (
                TunedConfig::Matmul {
                    mut bm,
                    mut bn,
                    mut bk,
                    mut schedule,
                },
                WorkloadKind::Matmul { n },
            ) => {
                match rng.below(4) {
                    0 => bm = step(&tile_values(&self.tiles, |t| t.0), bm, rng),
                    1 => bn = step(&tile_values(&self.tiles, |t| t.1), bn, rng),
                    2 => bk = step(&tile_values(&self.tiles, |t| t.2), bk, rng),
                    _ => schedule = *rng.pick(&self.matmul_schedules(n, bm, bn)),
                }
                schedule = self.repair_schedule(n, bm, bn, schedule);
                TunedConfig::Matmul {
                    bm,
                    bn,
                    bk,
                    schedule,
                }
            }
            (TunedConfig::Transpose { mut t, mut staging }, WorkloadKind::Transpose { n }) => {
                if rng.chance(0.5) {
                    t = step(&self.transpose_t_values(n), t, rng);
                    staging = self.repair_staging(t, staging);
                } else {
                    staging = *rng.pick(&self.transpose_stagings(t));
                }
                TunedConfig::Transpose { t, staging }
            }
            (TunedConfig::Stencil { n, layout }, WorkloadKind::Stencil { .. }) => {
                let layouts = self.stencil_layouts(n);
                let i = layouts.iter().position(|&l| l == layout).unwrap_or(0);
                let j = if rng.chance(0.5) {
                    i.saturating_sub(1)
                } else {
                    (i + 1).min(layouts.len() - 1)
                };
                TunedConfig::Stencil {
                    n,
                    layout: layouts[j],
                }
            }
            (TunedConfig::Nw { mut b, mut layout }, WorkloadKind::Nw { n, .. }) => {
                if rng.chance(0.7) {
                    // Half the block-size moves walk the launch-schedule
                    // tooth bottoms (the additive pricing's meaningful
                    // coordinate), half walk the raw axis.
                    let axis = if rng.chance(0.5) {
                        self.nw_tooth_values(n)
                    } else {
                        self.nw_b_values(n)
                    };
                    b = step(&axis, b, rng);
                } else {
                    layout = flip(layout);
                }
                TunedConfig::Nw { b, layout }
            }
            (TunedConfig::Lud { mut r, mut t }, WorkloadKind::Lud { n, bs }) => {
                if rng.chance(0.7) {
                    r = step(&self.lud_r_values(n, t), r, rng);
                } else {
                    // A CUDA-tile step preserves the coarsened LUD block
                    // `bs = r·t` (the coordinate the panel traffic and
                    // launch count depend on), re-deriving r for the new
                    // tile instead of dragging the old r along.
                    let lud_block = r * t;
                    t = step(&self.lud_t_values(n, bs), t, rng);
                    r = nearest(&self.lud_r_values(n, t), lud_block / t).unwrap_or(r);
                }
                TunedConfig::Lud { r, t }
            }
            (TunedConfig::Rowwise { op, bs }, WorkloadKind::Rowwise { n, .. }) => {
                TunedConfig::Rowwise {
                    op,
                    bs: step(&self.rowwise_bs_values(n), bs, rng),
                }
            }
            // A foreign config (e.g. a stale cache frontier from another
            // workload) has no neighborhood here; restart randomly.
            _ => self.random(rng),
        }
    }

    /// The deterministic unit-step neighborhood of `c`, repaired: each
    /// integer axis moved one legal value in each direction, each
    /// categorical axis moved one position in its legal list. Used to
    /// polish a new incumbent best — probing these guarantees the walk
    /// converges to a local optimum of the unit lattice.
    pub fn local_neighbors(&self, c: &TunedConfig) -> Vec<TunedConfig> {
        let adjacent = |values: &[i64], cur: i64| -> Vec<i64> {
            let Some(i) = nearest_at(values, cur) else {
                return Vec::new();
            };
            let mut out = Vec::new();
            if i > 0 {
                out.push(values[i - 1]);
            }
            if i + 1 < values.len() {
                out.push(values[i + 1]);
            }
            out
        };
        let mut out = Vec::new();
        match (*c, self.kind) {
            (
                TunedConfig::Matmul {
                    bm,
                    bn,
                    bk,
                    schedule,
                },
                WorkloadKind::Matmul { n },
            ) => {
                for v in adjacent(&tile_values(&self.tiles, |t| t.0), bm) {
                    let s = self.repair_schedule(n, v, bn, schedule);
                    out.push(TunedConfig::Matmul {
                        bm: v,
                        bn,
                        bk,
                        schedule: s,
                    });
                }
                for v in adjacent(&tile_values(&self.tiles, |t| t.1), bn) {
                    let s = self.repair_schedule(n, bm, v, schedule);
                    out.push(TunedConfig::Matmul {
                        bm,
                        bn: v,
                        bk,
                        schedule: s,
                    });
                }
                for v in adjacent(&tile_values(&self.tiles, |t| t.2), bk) {
                    out.push(TunedConfig::Matmul {
                        bm,
                        bn,
                        bk: v,
                        schedule,
                    });
                }
                let schedules = self.matmul_schedules(n, bm, bn);
                if let Some(i) = schedules.iter().position(|&s| s == schedule) {
                    for j in [i.wrapping_sub(1), i + 1] {
                        if let Some(&s) = schedules.get(j) {
                            out.push(TunedConfig::Matmul {
                                bm,
                                bn,
                                bk,
                                schedule: s,
                            });
                        }
                    }
                }
            }
            (TunedConfig::Transpose { t, staging }, WorkloadKind::Transpose { n }) => {
                for v in adjacent(&self.transpose_t_values(n), t) {
                    out.push(TunedConfig::Transpose {
                        t: v,
                        staging: self.repair_staging(v, staging),
                    });
                }
                let stagings = self.transpose_stagings(t);
                if let Some(i) = stagings.iter().position(|&s| s == staging) {
                    for j in [i.wrapping_sub(1), i + 1] {
                        if let Some(&s) = stagings.get(j) {
                            out.push(TunedConfig::Transpose { t, staging: s });
                        }
                    }
                }
            }
            (TunedConfig::Stencil { n, layout }, WorkloadKind::Stencil { .. }) => {
                let layouts = self.stencil_layouts(n);
                if let Some(i) = layouts.iter().position(|&l| l == layout) {
                    for j in [i.wrapping_sub(1), i + 1] {
                        if let Some(&l) = layouts.get(j) {
                            out.push(TunedConfig::Stencil { n, layout: l });
                        }
                    }
                }
            }
            (TunedConfig::Nw { b, layout }, WorkloadKind::Nw { n, .. }) => {
                // The adjacent launch-schedule tooth bottoms first, so
                // polishing converges across the additive pricing's
                // sawtooth instead of stalling at one tooth's floor;
                // then the raw-axis steps for within-tooth refinement.
                for v in adjacent(&self.nw_tooth_values(n), b) {
                    out.push(TunedConfig::Nw { b: v, layout });
                }
                for v in adjacent(&self.nw_b_values(n), b) {
                    out.push(TunedConfig::Nw { b: v, layout });
                }
                out.push(TunedConfig::Nw {
                    b,
                    layout: flip(layout),
                });
            }
            (TunedConfig::Lud { r, t }, WorkloadKind::Lud { n, bs }) => {
                // Tile moves first, holding the coarsened block r·t
                // fixed: the same LUD block on another CUDA tile changes
                // only the occupancy footprint, which is exactly the
                // refinement polishing is for.
                for v in adjacent(&self.lud_t_values(n, bs), t) {
                    out.push(TunedConfig::Lud {
                        r: nearest(&self.lud_r_values(n, v), (r * t) / v).unwrap_or(r),
                        t: v,
                    });
                }
                for v in adjacent(&self.lud_r_values(n, t), r) {
                    out.push(TunedConfig::Lud { r: v, t });
                }
            }
            (TunedConfig::Rowwise { op, bs }, WorkloadKind::Rowwise { n, .. }) => {
                for v in adjacent(&self.rowwise_bs_values(n), bs) {
                    out.push(TunedConfig::Rowwise { op, bs: v });
                }
            }
            _ => {}
        }
        let mut out: Vec<TunedConfig> = out
            .into_iter()
            .map(|x| self.repair(x))
            .filter(|x| x != c)
            .collect();
        out.dedup();
        out
    }

    /// Axis-wise recombination of two parents: each axis is inherited
    /// from a random parent, then the child is repaired.
    pub fn crossover(&self, a: &TunedConfig, b: &TunedConfig, rng: &mut Rng) -> TunedConfig {
        if !self.axis_points {
            return self.default_config();
        }
        let c = self.crossover_axes(a, b, rng);
        self.repair(c)
    }

    /// The raw axis recombination behind [`Domain::crossover`].
    fn crossover_axes(&self, a: &TunedConfig, b: &TunedConfig, rng: &mut Rng) -> TunedConfig {
        match (*a, *b) {
            (
                TunedConfig::Matmul {
                    bm: am,
                    bn: an,
                    bk: ak,
                    schedule: asched,
                },
                TunedConfig::Matmul {
                    bm: bm_,
                    bn: bn_,
                    bk: bk_,
                    schedule: bsched,
                },
            ) => {
                let WorkloadKind::Matmul { n } = self.kind else {
                    return self.random(rng);
                };
                let bm = if rng.chance(0.5) { am } else { bm_ };
                let bn = if rng.chance(0.5) { an } else { bn_ };
                let bk = if rng.chance(0.5) { ak } else { bk_ };
                let schedule =
                    self.repair_schedule(n, bm, bn, if rng.chance(0.5) { asched } else { bsched });
                TunedConfig::Matmul {
                    bm,
                    bn,
                    bk,
                    schedule,
                }
            }
            (
                TunedConfig::Transpose {
                    t: at,
                    staging: astage,
                },
                TunedConfig::Transpose {
                    t: bt,
                    staging: bstage,
                },
            ) => {
                let t = if rng.chance(0.5) { at } else { bt };
                let staging = self.repair_staging(t, if rng.chance(0.5) { astage } else { bstage });
                TunedConfig::Transpose { t, staging }
            }
            (TunedConfig::Stencil { n, layout: al }, TunedConfig::Stencil { layout: bl, .. }) => {
                TunedConfig::Stencil {
                    n,
                    layout: if rng.chance(0.5) { al } else { bl },
                }
            }
            (
                TunedConfig::Nw {
                    b: ab,
                    layout: alay,
                },
                TunedConfig::Nw {
                    b: bb,
                    layout: blay,
                },
            ) => TunedConfig::Nw {
                b: if rng.chance(0.5) { ab } else { bb },
                layout: if rng.chance(0.5) { alay } else { blay },
            },
            (TunedConfig::Lud { r: ar, t: at }, TunedConfig::Lud { r: br, t: bt }) => {
                let WorkloadKind::Lud { n, .. } = self.kind else {
                    return self.random(rng);
                };
                let t = if rng.chance(0.5) { at } else { bt };
                let r = if rng.chance(0.5) { ar } else { br };
                let r = nearest(&self.lud_r_values(n, t), r).unwrap_or(r);
                TunedConfig::Lud { r, t }
            }
            (TunedConfig::Rowwise { op, bs: abs }, TunedConfig::Rowwise { bs: bbs, .. }) => {
                TunedConfig::Rowwise {
                    op,
                    bs: if rng.chance(0.5) { abs } else { bbs },
                }
            }
            // Mismatched parents (shouldn't happen inside one search):
            // fall back to a fresh sample.
            _ => self.random(rng),
        }
    }

    // -- per-axis values: the only code that depends on the scale -------

    /// Legal `(bm, bn, bk)` matmul tiles. The enlarged set is the full
    /// product of its side and depth ranges; the legacy set is the v2
    /// triples, which are hand-picked rather than a product.
    fn matmul_tiles(&self, n: i64) -> Vec<Tile> {
        let divides = |&(bm, bn, bk): &Tile| n % bm == 0 && n % bn == 0 && n % bk == 0;
        match self.scale {
            SpaceScale::Legacy => LEGACY_TILES.into_iter().filter(divides).collect(),
            SpaceScale::Enlarged => {
                let sides = divisors_in(n, 32, 256);
                let depths = divisors_in(n, 16, 128);
                let mut out = Vec::new();
                for &bm in &sides {
                    for &bn in &sides {
                        for &bk in &depths {
                            out.push((bm, bn, bk));
                        }
                    }
                }
                out
            }
        }
    }

    /// Legal schedules for an `(n/bm) × (n/bn)` tile grid.
    fn matmul_schedules(&self, n: i64, bm: i64, bn: i64) -> Vec<ScheduleChoice> {
        let (nt_m, nt_n) = (n / bm, n / bn);
        let mut out = vec![ScheduleChoice::RowMajor];
        // The concrete grouped layout factorizes nt_m as (nt_m/gm)·gm,
        // so gm must divide nt_m. v2 also offers Morton on a 1×1 grid.
        let (gms, morton_min) = match self.scale {
            SpaceScale::Legacy => (
                [4, 8, 16].into_iter().filter(|g| nt_m % g == 0).collect(),
                1,
            ),
            SpaceScale::Enlarged => (divisors_in(nt_m, 2, 64), 2),
        };
        for gm in gms {
            out.push(ScheduleChoice::Grouped { gm });
        }
        if nt_m == nt_n && nt_m.count_ones() == 1 && nt_m >= morton_min {
            out.push(ScheduleChoice::Morton);
        }
        let bc: &[(i64, i64)] = match self.scale {
            SpaceScale::Legacy => &[(8, 2)],
            SpaceScale::Enlarged => &[
                (2, 1),
                (2, 2),
                (2, 4),
                (4, 1),
                (4, 2),
                (4, 4),
                (8, 1),
                (8, 2),
                (8, 4),
                (16, 1),
                (16, 2),
                (16, 4),
            ],
        };
        for &(p, b) in bc {
            if nt_m % (p * b) == 0 {
                out.push(ScheduleChoice::BlockCyclic { p, b });
            }
        }
        out
    }

    /// Snaps a schedule onto the legal set for the `(bm, bn)` grid.
    fn repair_schedule(
        &self,
        n: i64,
        bm: i64,
        bn: i64,
        schedule: ScheduleChoice,
    ) -> ScheduleChoice {
        let legal = self.matmul_schedules(n, bm, bn);
        if legal.contains(&schedule) {
            return schedule;
        }
        match schedule {
            ScheduleChoice::Grouped { gm } => {
                let gms: Vec<i64> = legal
                    .iter()
                    .filter_map(|s| match s {
                        ScheduleChoice::Grouped { gm } => Some(*gm),
                        _ => None,
                    })
                    .collect();
                nearest(&gms, gm).map_or(ScheduleChoice::RowMajor, |gm| ScheduleChoice::Grouped {
                    gm,
                })
            }
            _ => ScheduleChoice::RowMajor,
        }
    }

    /// Legal transpose tile sides (powers of two dividing `n`).
    fn transpose_t_values(&self, n: i64) -> Vec<i64> {
        let (lo, hi) = match self.scale {
            SpaceScale::Legacy => (16, 32),
            SpaceScale::Enlarged => (8, 64),
        };
        divisors_in(n, lo, hi)
            .into_iter()
            .filter(|v| v.count_ones() == 1)
            .collect()
    }

    /// Legal staging layouts for a `t×t` tile (`None` = unstaged). The
    /// legacy space stages every tile; its unstaged point is the
    /// default alone.
    fn transpose_stagings(&self, t: i64) -> Vec<Option<StagingChoice>> {
        let (unstaged, ps, bs): (&[_], &[i64], &[i64]) = match self.scale {
            SpaceScale::Legacy => (&[], &[8], &[4]),
            SpaceScale::Enlarged => (&[None], &[2, 4, 8, 16, 32], &[1, 2, 4, 8, 16]),
        };
        let mut out = unstaged.to_vec();
        out.extend([
            Some(StagingChoice::Identity),
            Some(StagingChoice::Swizzle),
            Some(StagingChoice::ColMajor),
            Some(StagingChoice::Antidiag),
        ]);
        for &p in ps {
            for &b in bs {
                // block_cyclic_elems needs p·b | t².
                if p * b <= t * t && (t * t) % (p * b) == 0 {
                    out.push(Some(StagingChoice::BlockCyclic { p, b }));
                }
            }
        }
        out
    }

    /// Snaps a staging choice onto the legal set for tile side `t`.
    fn repair_staging(&self, t: i64, staging: Option<StagingChoice>) -> Option<StagingChoice> {
        let legal = self.transpose_stagings(t);
        if legal.contains(&staging) {
            return staging;
        }
        if let Some(StagingChoice::BlockCyclic { p, b }) = staging {
            let pairs: Vec<(i64, i64)> = legal
                .iter()
                .filter_map(|s| match s {
                    Some(StagingChoice::BlockCyclic { p, b }) => Some((*p, *b)),
                    _ => None,
                })
                .collect();
            if let Some(&(np, nb)) = pairs
                .iter()
                .min_by_key(|(lp, lb)| (lp - p).abs() + (lb - b).abs())
            {
                return Some(StagingChoice::BlockCyclic { p: np, b: nb });
            }
        }
        Some(StagingChoice::Swizzle)
    }

    /// Legal stencil layouts, flattened (row-major walks + brick sides).
    fn stencil_layouts(&self, n: i64) -> Vec<StencilLayoutChoice> {
        let mut out = vec![
            StencilLayoutChoice::RowMajorY,
            StencilLayoutChoice::RowMajorZ,
        ];
        let bricks = match self.scale {
            SpaceScale::Legacy => [4, 8].into_iter().filter(|b| n % b == 0).collect(),
            SpaceScale::Enlarged => divisors_in(n, 2, 16),
        };
        for b in bricks {
            out.push(StencilLayoutChoice::Brick { b });
        }
        out
    }

    /// Legal NW block sizes. The legacy list requires `b | n`; the
    /// enlarged range frees `b` to any multiple of 4 (the trace pads the
    /// last block diagonal, as the generated kernel does).
    fn nw_b_values(&self, n: i64) -> Vec<i64> {
        match self.scale {
            SpaceScale::Legacy => [16i64, 32, 64, 112, 128, 224]
                .into_iter()
                .filter(|b| n % b == 0)
                .collect(),
            SpaceScale::Enlarged => (2..=64)
                .map(|k| k * 4)
                .filter(|&b| b <= 256.min(n))
                .collect(),
        }
    }

    /// The NW block sizes at the "tooth bottoms" of the additive launch
    /// schedule: the smallest legal `b` for each distinct block-diagonal
    /// count `ceil(n/b)`. The additive pricing is sawtooth in `b` —
    /// time drops whenever the diagonal count falls, then climbs within
    /// a tooth — so the meaningful search coordinate is the diagonal
    /// count, and moves that step between tooth bottoms cross the
    /// sawtooth in one hop instead of fighting uphill through it.
    fn nw_tooth_values(&self, n: i64) -> Vec<i64> {
        let all = self.nw_b_values(n);
        let mut out = Vec::new();
        let mut last_nb = i64::MIN;
        for &b in &all {
            let nb = (n + b - 1) / b;
            if nb != last_nb {
                out.push(b);
                last_nb = nb;
            }
        }
        out
    }

    /// Legal LUD CUDA block sides.
    fn lud_t_values(&self, n: i64, bs: i64) -> Vec<i64> {
        match self.scale {
            SpaceScale::Legacy => vec![bs],
            SpaceScale::Enlarged => [8i64, 16, 32].into_iter().filter(|&t| t <= n).collect(),
        }
    }

    /// Legal LUD coarsening factors for block side `t`.
    fn lud_r_values(&self, n: i64, t: i64) -> Vec<i64> {
        match self.scale {
            SpaceScale::Legacy => [1i64, 2, 4, 8]
                .into_iter()
                .filter(|r| n % (r * t) == 0)
                .collect(),
            // Free integers: any coarsening whose LUD block fits a sane
            // panel (r·t ≤ 256); the trace pads a partial last step.
            SpaceScale::Enlarged => (1..=16).filter(|r| r * t <= 256.min(n)).collect(),
        }
    }

    /// Legal rowwise column block sizes (powers of two — the generated
    /// Triton kernels require it). Both scales share the list.
    fn rowwise_bs_values(&self, n: i64) -> Vec<i64> {
        crate::space::rowwise_block_sizes(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::build_layout;
    use lego_codegen::cuda::stencil::StencilShape;
    use std::collections::HashSet;

    /// One workload per family, plus sizes whose default lies off the
    /// axes (matmul n=1000 and `gm: 1` grids, transpose n=48), whose
    /// axis product is empty (transpose n=100, matmul n=257, NW and LUD
    /// n=100) or whose divisors the power-of-two lists skip.
    fn kinds() -> Vec<WorkloadKind> {
        let mut out = vec![
            WorkloadKind::Stencil {
                shape: StencilShape::Star(1),
                n: 32,
            },
            WorkloadKind::Stencil {
                shape: StencilShape::Star(1),
                n: 12,
            },
            WorkloadKind::Rowwise {
                op: lego_codegen::tuning::RowwiseOp::Softmax,
                m: 128,
                n: 1024,
            },
        ];
        for n in [64, 128, 192, 257, 384, 512, 1000] {
            out.push(WorkloadKind::Matmul { n });
        }
        for n in [48, 100, 256, 1000] {
            out.push(WorkloadKind::Transpose { n });
        }
        for n in [100, 256] {
            out.push(WorkloadKind::Nw { n, b: 16 });
            out.push(WorkloadKind::Lud { n, bs: 16 });
        }
        out
    }

    #[test]
    fn every_enumerated_config_builds_a_layout() {
        for kind in kinds() {
            let scales = [SpaceScale::Legacy, SpaceScale::Enlarged];
            for scale in scales {
                let domain = Domain::new(kind, scale);
                let configs = domain.enumerate();
                let name = format!("{} {scale:?}", kind.name());
                assert_eq!(configs[0], kind.default_config(), "{name}: default first");
                let members: HashSet<TunedConfig> = configs.iter().copied().collect();
                assert_eq!(members.len(), configs.len(), "{name}: duplicates");
                for c in &configs {
                    assert!(domain.contains(c), "{name}: contains rejects {c}");
                    build_layout(&kind, c).unwrap_or_else(|e| panic!("{name} {c}: {e}"));
                }
                // contains(c) ⇔ c ∈ enumerate(), probed with the other
                // scale's points too.
                for other in scales {
                    for c in Domain::new(kind, other).enumerate() {
                        assert_eq!(
                            domain.contains(&c),
                            members.contains(&c),
                            "{name}: contains disagrees with enumerate on {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn moves_stay_inside_the_domain() {
        for kind in kinds() {
            for scale in [SpaceScale::Legacy, SpaceScale::Enlarged] {
                let domain = Domain::new(kind, scale);
                let all: HashSet<TunedConfig> = domain.enumerate().into_iter().collect();
                let mut rng = Rng::from_key(&kind.name());
                let mut c = domain.default_config();
                for i in 0..200 {
                    c = match i % 3 {
                        0 => domain.neighbor(&c, &mut rng),
                        1 => domain.random(&mut rng),
                        _ => {
                            let other = domain.random(&mut rng);
                            // Crossing with the default reaches off-axis
                            // values when the default lies off the axes.
                            let parent = if i % 2 == 0 {
                                domain.default_config()
                            } else {
                                c
                            };
                            domain.crossover(&parent, &other, &mut rng)
                        }
                    };
                    assert!(
                        all.contains(&c),
                        "{}: {scale:?} move left the domain: {c}",
                        kind.name()
                    );
                    for p in domain
                        .local_neighbors(&c)
                        .into_iter()
                        .chain(domain.local_neighbors(&domain.default_config()))
                    {
                        assert!(
                            all.contains(&p),
                            "{}: {scale:?} local neighbor left the domain: {p}",
                            kind.name()
                        );
                    }
                }
            }
        }
    }

    /// A repair draws nothing and keeps members: the moves of a domain
    /// whose axis product is empty all return the default.
    #[test]
    fn empty_axis_products_hold_only_the_default() {
        for kind in [
            WorkloadKind::Transpose { n: 100 },
            WorkloadKind::Matmul { n: 257 },
            WorkloadKind::Matmul { n: 4099 },
        ] {
            for scale in [SpaceScale::Legacy, SpaceScale::Enlarged] {
                let domain = Domain::new(kind, scale);
                let d = domain.default_config();
                assert_eq!(domain.enumerate(), vec![d], "{}", kind.name());
                let mut rng = Rng::from_key("empty");
                assert_eq!(domain.random(&mut rng), d);
                assert_eq!(domain.neighbor(&d, &mut rng), d);
                assert_eq!(domain.crossover(&d, &d, &mut rng), d);
                assert!(domain.local_neighbors(&d).is_empty());
            }
        }
    }

    #[test]
    fn neighbor_usually_moves() {
        // The walk must not get stuck returning the same point forever.
        for kind in kinds() {
            let domain = Domain::new(kind, SpaceScale::Enlarged);
            if domain.len() < 4 {
                continue;
            }
            let mut rng = Rng::from_key("move-check");
            let c = domain.default_config();
            let moved = (0..64)
                .filter(|_| domain.neighbor(&c, &mut rng) != c)
                .count();
            assert!(moved > 16, "{}: only {moved}/64 moves", kind.name());
        }
    }
}
