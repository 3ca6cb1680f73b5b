//! Shared workload builders — one source of truth for how each paper
//! workload touches memory.
//!
//! Historically the repo carried *two* encodings of every workload's
//! access pattern: the `lego-bench` drivers replayed traces for the
//! paper tables, and `lego-tune`'s search space re-implemented the same
//! loops for the tuning oracle, so the two could silently drift apart.
//! This module is the merge point: each builder struct owns one
//! workload's logical access pattern and its `build` method describes
//! it as data — [`Phase`]s carrying an [`AccessMap`] or [`TileWaves`] —
//! producing a [`Workload`] that [`crate::CostModel::price`] prices. An
//! estimate printed in a paper table and an estimate ranked by the tuner
//! now come from literally the same code path.
//!
//! Builders also declare the kernel's per-block resource footprint
//! ([`BlockResources`]) from the device config, so
//! register/warp estimates come from the generator family and scale
//! with the device's warp size — and the occupancy term of
//! [`crate::timing`] can penalize register/smem-hungry configurations.
//! Lanes are chunked into warps of [`GpuConfig::warp_size`] (32-lane
//! NVIDIA warps, 64-lane CDNA wavefronts), so the same descriptions
//! price both device families.
//!
//! Builders describe geometry only: the tuner's index-expression flop
//! term is added to the built workload by `lego_tune::build_workload`.

use crate::access::{AccessMap, Coord, Lane, TileWaves};
use crate::config::GpuConfig;
use crate::model::PricingMode;
use crate::score::{BlockResources, L2Model, Phase, Workload};
use crate::timing::Pipeline;

/// Non-smem instruction cycles per NW in-block wavefront step
/// (calibrated against the Rodinia kernel).
pub const NW_STEP_CYCLES: f64 = 40.0;

/// Cycles per serialized NW shared-memory pass (calibrated).
pub const NW_PASS_CYCLES: f64 = 5.0;

/// Per-launch overhead of the short NW wavefront kernels as a fraction
/// of the device's [`GpuConfig::launch_overhead`] — dependent back-to-
/// back kernels pipeline their dispatch better than large kernels
/// (calibrated at half the A100's 4 µs), and scaling by the config
/// keeps the device descriptor authoritative for dispatch cost.
pub const NW_LAUNCH_OVERHEAD_RATIO: f64 = 0.5;

// ---------------------------------------------------------------------
// Matmul: wave-by-wave tile touches.
// ---------------------------------------------------------------------

/// Tiled FP16 GEMM, simulated wave-by-wave: thread blocks are issued
/// `sm_count` at a time in `pid` order; each block walks the K loop
/// touching its `A` and `B` tiles, filtered through a tile-granular L2.
/// The layout under evaluation is the *thread-block schedule*
/// (`pid → (pid_m, pid_n)`), which decides how much reuse a wave finds.
#[derive(Clone, Copy, Debug)]
pub struct MatmulWaves {
    /// Problem side length.
    pub n: i64,
    /// Tile rows.
    pub bm: i64,
    /// Tile columns.
    pub bn: i64,
    /// K-step depth.
    pub bk: i64,
    /// Vendor-library model: ideal scheduling (no wave quantization)
    /// and a single dispatch instead of the two-launch LEGO pipeline.
    pub vendor: bool,
}

impl MatmulWaves {
    /// A LEGO-scheduled GEMM with the given tile shape.
    pub fn with_tiles(n: i64, (bm, bn, bk): (i64, i64, i64)) -> MatmulWaves {
        MatmulWaves {
            n,
            bm,
            bn,
            bk,
            vendor: false,
        }
    }

    /// 256 threads (8 NVIDIA warps, 4 CDNA wavefronts), single-buffered
    /// `A`/`B` staging tiles in shared memory, and accumulator
    /// registers growing with the tile area.
    fn resources(&self, cfg: &GpuConfig) -> BlockResources {
        let threads = 256.0;
        BlockResources {
            warps_per_block: (threads / cfg.warp_size as f64).ceil(),
            regs_per_block: threads * ((self.bm * self.bn) as f64 / 1024.0 + 24.0),
            smem_per_block: ((self.bm + self.bn) * self.bk * 2) as f64,
        }
    }

    /// Builds the scoreable workload for hardware `cfg`.
    pub fn build(&self, cfg: &GpuConfig) -> Workload {
        let MatmulWaves { n, bm, bn, bk, .. } = *self;
        let elem = 2i64; // fp16
        let (nt_m, nt_n) = (n / bm, n / bn);
        let ksteps = n / bk;
        let nblocks = nt_m * nt_n;
        let waves = TileWaves {
            blocks: nblocks,
            wave: cfg.sm_count as i64,
            ksteps,
            tiles_n: nt_n,
            a_bytes: (bm * bk * elem) as usize,
            b_bytes: (bk * bn * elem) as usize,
        };
        let c_bytes = (n * n * elem) as f64;
        Workload {
            pipeline: Pipeline::TensorFp16,
            flops: 2.0 * (n as f64).powi(3),
            useful_bytes: 3.0 * c_bytes,
            streamed_dram_bytes: c_bytes,
            streamed_l2_bytes: c_bytes,
            blocks: nblocks as f64,
            launches: if self.vendor { 1.0 } else { 2.0 },
            resources: self.resources(cfg),
            mode: PricingMode::Roofline {
                wave_quantized: !self.vendor,
            },
            phases: vec![Phase::TileTouches { waves }],
        }
    }
}

// ---------------------------------------------------------------------
// Transpose: representative warp sweeps per tile.
// ---------------------------------------------------------------------

/// Square FP32 out-of-place transpose with `t×t` tiles. One
/// representative tile is traced and scaled — every tile has identical
/// coalescing. Unstaged, the write half strides by `n`; staged, both
/// global halves are row-contiguous and the staging tile pays bank
/// passes through the layout under evaluation.
#[derive(Clone, Copy, Debug)]
pub struct TransposeSweeps {
    /// Problem side length.
    pub n: i64,
    /// Tile side.
    pub t: i64,
    /// Whether a shared-memory staging tile is used.
    pub staged: bool,
}

impl TransposeSweeps {
    /// Per-block resources: `t×t` threads, a `t×t` fp32 staging tile
    /// when staged.
    fn resources(&self, cfg: &GpuConfig) -> BlockResources {
        let threads = (self.t * self.t) as f64;
        BlockResources {
            warps_per_block: (threads / cfg.warp_size as f64).ceil(),
            regs_per_block: threads * 24.0,
            smem_per_block: if self.staged { threads * 4.0 } else { 0.0 },
        }
    }

    /// Builds the scoreable workload for hardware `cfg`.
    pub fn build(&self, cfg: &GpuConfig) -> Workload {
        let TransposeSweeps { n, t, staged, .. } = *self;
        let tiles = (n / t) * (n / t);
        // One representative warp per global access group, scaled to the
        // tile's thread count.
        let lanes = (cfg.warp_size as i64).min(t * t);
        let warps_per_tile = (t * t) as f64 / lanes as f64;
        // Both global halves read one row-contiguous warp when staged;
        // unstaged, the write half strides by `n`. Flat element indices.
        let row = vec![Coord(0, vec![], Lane::Mul(1))];
        let write = vec![Coord(0, vec![], Lane::Mul(if staged { 1 } else { n }))];
        let mut phases = vec![Phase::Global {
            map: AccessMap {
                flat: true,
                ..AccessMap::new(vec![], lanes, cfg.warp_size, vec![row, write])
            },
            elem_bytes: 4,
            scale: warps_per_tile * tiles as f64,
            l2: None,
        }];
        if staged {
            // The staging tile's threads in row-major order, chunked
            // into device-warp lane groups: each warp stores its slice
            // row-wise and loads it transposed.
            let ty = Coord(0, vec![], Lane::Div(t));
            let tx = Coord(0, vec![], Lane::Mod(t));
            let maps = vec![vec![ty.clone(), tx.clone()], vec![tx, ty]];
            phases.push(Phase::Shared {
                map: AccessMap::new(vec![], t * t, cfg.warp_size, maps),
                scale: tiles as f64,
            });
        }
        Workload {
            pipeline: Pipeline::Fp32,
            flops: 0.0,
            useful_bytes: 2.0 * (n * n * 4) as f64,
            streamed_dram_bytes: 0.0,
            streamed_l2_bytes: 0.0,
            blocks: tiles as f64,
            launches: 1.0,
            resources: self.resources(cfg),
            mode: PricingMode::Roofline {
                wave_quantized: false,
            },
            phases,
        }
    }
}

// ---------------------------------------------------------------------
// Stencil: per-warp lane walks over a 3-D domain.
// ---------------------------------------------------------------------

/// Which logical order a stencil warp's 32 lanes follow.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LaneAxis {
    /// Lanes along `y` (stride `n` in row-major) — the strided walk of
    /// the baseline array kernel (§V-B).
    Y,
    /// Lanes along `z` (unit stride in row-major).
    Z,
    /// Lanes along the tile-local `(y, z)` plane in row-major order —
    /// the brick-local thread order that the brick layout makes
    /// memory-contiguous by construction.
    YZ,
}

/// A 3-D stencil sweep: for every warp of every thread block the
/// builder emits the 32 element addresses of each stencil tap through
/// the layout under evaluation (row-major vs. brick), coalesced into
/// sectors and filtered through a scaled L2 (DESIGN.md §3: the paper's
/// 512³ domains are simulated smaller with L2 capacity scaled by the
/// same factor, preserving the working-set-to-cache ratio).
#[derive(Clone, Debug)]
pub struct StencilWalk {
    /// The neighbor offsets `(dx, dy, dz)` of the stencil.
    pub offsets: Vec<(i64, i64, i64)>,
    /// Halo radius (taps are clamped to `[r, n-1-r]`).
    pub radius: i64,
    /// Domain side length.
    pub n: i64,
    /// Thread-block tile `(bx, by, bz)`.
    pub block: (i64, i64, i64),
    /// Warp lane walk order.
    pub lane_axis: LaneAxis,
}

impl StencilWalk {
    /// Per-block resources: one thread per tile point, no shared
    /// staging.
    fn resources(&self, cfg: &GpuConfig) -> BlockResources {
        let (bx, by, bz) = self.block;
        let threads = (bx * by * bz) as f64;
        BlockResources {
            warps_per_block: (threads / cfg.warp_size as f64).ceil(),
            regs_per_block: threads * 32.0,
            smem_per_block: 0.0,
        }
    }

    /// Builds the scoreable workload for hardware `cfg`.
    pub fn build(&self, cfg: &GpuConfig) -> Workload {
        let StencilWalk {
            n,
            block: (bx, by, bz),
            lane_axis,
            radius: r,
            ..
        } = *self;
        let points = self.offsets.len() as f64;
        // Outer space: tile (tx, ty, tz), then the warp row (wi, wj)
        // inside it; the lanes walk the rest of the tile.
        let (wj, lanes, (y_wj, y_lane), (z_wj, z_lane)) = match lane_axis {
            LaneAxis::Z => (by, bz, (1, Lane::Mul(0)), (0, Lane::Mul(1))),
            LaneAxis::Y => (bz, by, (0, Lane::Mul(1)), (1, Lane::Mul(0))),
            LaneAxis::YZ => (1, by * bz, (0, Lane::Div(bz)), (0, Lane::Mod(bz))),
        };
        let walk = vec![
            Coord(0, vec![bx, 0, 0, 1, 0], Lane::Mul(0)),
            Coord(0, vec![0, by, 0, 0, y_wj], y_lane),
            Coord(0, vec![0, 0, bz, 0, z_wj], z_lane),
        ];
        let outer = vec![n / bx, n / by, n / bz, bx, wj];
        let taps = self
            .offsets
            .iter()
            .map(|&(x, y, z)| vec![x, y, z])
            .collect();
        let map = AccessMap {
            taps,
            clamp: Some((r, n - 1 - r)),
            ..AccessMap::new(outer, lanes, cfg.warp_size, vec![walk])
        };
        // Scaled L2: preserve the paper's 512³·4B : 40 MiB ratio.
        let domain_bytes = (n * n * n * 4) as f64;
        let lines = ((domain_bytes / 12.8) as usize / cfg.sector_bytes).max(1024);
        Workload {
            pipeline: Pipeline::Fp32,
            flops: 2.0 * points * (n * n * n) as f64,
            useful_bytes: 2.0 * domain_bytes,
            streamed_dram_bytes: domain_bytes,
            streamed_l2_bytes: domain_bytes,
            blocks: ((n / bx) * (n / by) * (n / bz)) as f64,
            launches: 1.0,
            resources: self.resources(cfg),
            mode: PricingMode::Roofline {
                wave_quantized: false,
            },
            phases: vec![Phase::Global {
                map,
                elem_bytes: 4,
                scale: 1.0,
                l2: Some(L2Model { lines, assoc: 16 }),
            }],
        }
    }
}

// ---------------------------------------------------------------------
// NW: anti-diagonal wavefront passes through the shared buffer.
// ---------------------------------------------------------------------

/// Needleman–Wunsch: an `n×n` scoring matrix processed in `b×b` blocks
/// along block anti-diagonals (one launch per block diagonal, two
/// triangular sweeps); a block's `(b+1)×(b+1)` shared buffer is updated
/// over `2b-1` in-block wavefront steps. The layout under evaluation is
/// the *buffer layout*: row-major (bank-conflicted) vs. the LEGO
/// anti-diagonal permutation (conflict-free).
#[derive(Clone, Copy, Debug)]
pub struct NwWavefront {
    /// Scoring-matrix side length.
    pub n: i64,
    /// Block size (buffer side is `b + 1`).
    pub b: i64,
}

impl NwWavefront {
    /// One block's wavefront accesses: on each of the `2b-1` in-block
    /// diagonals `d`, the lanes `t` inside the buffer's `b×b` interior
    /// write `(t+1, d-t+1)` and read the three neighbors (NW, N, W) —
    /// four taps off `(t, d-t)` — through the buffer layout, in
    /// `warp`-lane chunks (a diagonal longer than the device's warp
    /// takes several warp instructions).
    pub fn block_map(b: i64, warp: usize) -> AccessMap {
        let diagonal = vec![
            Coord(0, vec![0], Lane::Mul(1)),
            Coord(0, vec![1], Lane::Mul(-1)),
        ];
        AccessMap {
            taps: vec![vec![1, 1], vec![0, 0], vec![0, 1], vec![1, 0]],
            mask: Some((0, b - 1)),
            ..AccessMap::new(vec![2 * b - 1], b, warp, vec![diagonal])
        }
    }

    /// The dependency-limited launch schedule over `nb × nb` blocks:
    /// two triangular sweeps over block anti-diagonals, one kernel
    /// launch per diagonal running its blocks `sm_count` at a time.
    /// Returns `(rounds, launches)`.
    pub fn schedule(nb: i64, cfg: &GpuConfig) -> (f64, f64) {
        let mut rounds = 0f64;
        let mut launches = 0f64;
        for _sweep in 0..2 {
            for d in 0..(2 * nb - 1) {
                let len = (d + 1).min(2 * nb - 1 - d).min(nb);
                rounds += (len as f64 / cfg.sm_count as f64).ceil();
                launches += 1.0;
            }
        }
        (rounds, launches)
    }

    /// Per-block resources: `b` threads (one per wavefront lane) and
    /// the `(b+1)²` fp32 scoring buffer in shared memory. Large blocks
    /// are smem-bound: a `b=224` buffer fits an H100's 228 KiB carveout
    /// but neither an A100's 164 KiB nor an MI300's 64 KiB LDS.
    fn resources(&self, cfg: &GpuConfig) -> BlockResources {
        let b = self.b as f64;
        BlockResources {
            warps_per_block: (b / cfg.warp_size as f64).ceil().max(1.0),
            regs_per_block: b * 32.0,
            smem_per_block: (b + 1.0) * (b + 1.0) * 4.0,
        }
    }

    /// Builds the scoreable workload for hardware `cfg`.
    pub fn build(&self, cfg: &GpuConfig) -> Workload {
        let NwWavefront { n, b, .. } = *self;
        // Block sizes need not divide n (the kernel pads the last block
        // diagonal); a partial block costs a full one.
        let nb = (n + b - 1) / b;
        // Two triangular sweeps over block anti-diagonals: every block
        // runs once per sweep, one kernel launch per block diagonal.
        let blocks = 2.0 * (nb * nb) as f64;
        let (rounds, launches) = NwWavefront::schedule(nb, cfg);
        let matrix_bytes = (n * n * 4) as f64;
        Workload {
            pipeline: Pipeline::Fp32,
            flops: 0.0,
            useful_bytes: 2.0 * matrix_bytes,
            // Matrix read + write plus one reference-matrix read.
            streamed_dram_bytes: 3.0 * matrix_bytes,
            streamed_l2_bytes: 3.0 * matrix_bytes,
            blocks,
            launches,
            resources: self.resources(cfg),
            // The calibrated additive wavefront pricing that used to be
            // the NW bench driver's private loop: each of the `2b-1`
            // in-block steps costs a fixed instruction budget plus its
            // serialized bank passes, rounds cannot overlap traffic.
            mode: PricingMode::AdditiveLaunch {
                rounds,
                step_cycles: (2 * b - 1) as f64 * NW_STEP_CYCLES,
                pass_cycles: NW_PASS_CYCLES,
                launch_overhead_s: NW_LAUNCH_OVERHEAD_RATIO * cfg.launch_overhead,
            },
            phases: vec![Phase::Shared {
                map: NwWavefront::block_map(b, cfg.warp_size),
                scale: blocks,
            }],
        }
    }
}

// ---------------------------------------------------------------------
// LUD: coarsened panel factorization.
// ---------------------------------------------------------------------

/// LU decomposition in `bs×bs` block steps (diagonal, perimeter,
/// internal kernels per step); thread coarsening enlarges the LUD block
/// (`bs = r·t`), dividing launches and perimeter traffic by `r`. Reuse
/// is modeled analytically at panel granularity, so the workload has no
/// phases: its panel traffic is the workload's streamed bytes, with the
/// L2 term charged 1.5× the DRAM term.
#[derive(Clone, Copy, Debug)]
pub struct LudPanels {
    /// Matrix side length.
    pub n: i64,
    /// LUD block side (`r·t`).
    pub bs: i64,
    /// CUDA block side (16 in Rodinia).
    pub t: i64,
}

impl LudPanels {
    /// Per-block resources: a `t×t` CUDA block staging the perimeter
    /// row and column panels, with `r²` accumulators per thread.
    fn resources(&self, cfg: &GpuConfig) -> BlockResources {
        let threads = (self.t * self.t) as f64;
        let r = (self.bs / self.t) as f64;
        BlockResources {
            warps_per_block: (threads / cfg.warp_size as f64).ceil(),
            regs_per_block: threads * (r * r + 24.0),
            smem_per_block: (2 * self.bs * self.t * 4) as f64,
        }
    }

    /// Builds the scoreable workload for hardware `cfg`.
    pub fn build(&self, cfg: &GpuConfig) -> Workload {
        let LudPanels { n, bs, .. } = *self;
        // Block sides need not divide n: the Rodinia driver pads the
        // trailing step, so a partial panel is priced as a full one.
        let steps = (n + bs - 1) / bs;
        let mut dram = 0f64;
        let mut flops = 0f64;
        let mut launches = 0f64;
        let mut blocks = 0f64;
        for d in 0..steps {
            let rem = (steps - d - 1) as f64; // interior blocks per side
            let tile = (bs * bs * 4) as f64;
            // Diagonal kernel: one bs x bs block.
            dram += tile * 2.0;
            flops += 2.0 / 3.0 * (bs as f64).powi(3);
            // Perimeter kernel: 2*rem blocks, each reads the diagonal
            // block and updates its own.
            dram += rem * 2.0 * tile * 2.0;
            flops += rem * 2.0 * (bs as f64).powi(3);
            // Internal kernel: rem^2 blocks; each reads its tile + the
            // perimeter row tile + the perimeter column tile and writes
            // back.
            dram += rem * rem * tile * 4.0;
            flops += rem * rem * 2.0 * (bs as f64).powi(3);
            launches += 3.0;
            blocks += 1.0 + 2.0 * rem + rem * rem;
        }
        Workload {
            pipeline: Pipeline::Fp32,
            flops,
            useful_bytes: 2.0 * (n * n * 4) as f64,
            streamed_dram_bytes: dram,
            streamed_l2_bytes: dram * 1.5,
            blocks,
            launches,
            resources: self.resources(cfg),
            // The three kernels of every factorization step depend on
            // each other: panel traffic and compute cannot overlap
            // across launches, so the terms add (no wavefront rounds —
            // compute comes from the flop count).
            mode: PricingMode::AdditiveLaunch {
                rounds: 0.0,
                step_cycles: 0.0,
                pass_cycles: 0.0,
                launch_overhead_s: cfg.launch_overhead,
            },
            phases: vec![],
        }
    }
}

// ---------------------------------------------------------------------
// Rowwise: streaming row-block sweeps (softmax / LayerNorm).
// ---------------------------------------------------------------------

/// Non-smem instruction cycles per rowwise column-chunk iteration
/// (pointer bump, mask computation, partial-reduction bookkeeping).
pub const ROWWISE_CHUNK_CYCLES: f64 = 28.0;

/// A row-wise streaming operator (softmax, LayerNorm fwd/bwd) over an
/// `m×n` fp16 matrix: one program per row walks the row in `bs`-wide
/// column chunks. The layout under evaluation is the program's lane
/// block (`row·BS + lane` in the generated kernels — unit stride by
/// construction). The tunable tension is the block size: small `bs`
/// pays per-chunk loop instructions, large `bs` pays masked-lane
/// compute past the row end and register pressure that lowers
/// occupancy below the bandwidth-saturation point.
#[derive(Clone, Copy, Debug)]
pub struct RowwiseSweep {
    /// Number of rows (one program each).
    pub m: i64,
    /// Row length in elements.
    pub n: i64,
    /// Column block size (elements per chunk).
    pub bs: i64,
    /// Element passes over the matrix (reads + writes per element).
    pub passes: f64,
    /// Floating-point work per processed (lane-padded) element.
    pub flops_per_elem: f64,
}

impl RowwiseSweep {
    /// Per-block resources: Triton-style `num_warps` scaling with the
    /// block size (8 warp-widths of work per warp, as in the 32-lane
    /// `bs/256` heuristic), with the row chunk held live in registers.
    fn resources(&self, cfg: &GpuConfig) -> BlockResources {
        let warps = ((self.bs / (8 * cfg.warp_size as i64)) as f64).clamp(1.0, 16.0);
        BlockResources {
            warps_per_block: warps,
            // Each program keeps its bs-wide chunk (value + accumulator)
            // in registers, plus a fixed per-thread base cost.
            regs_per_block: self.bs as f64 * 2.0 + warps * cfg.warp_size as f64 * 24.0,
            // Cross-warp reduction scratch.
            smem_per_block: warps * 128.0,
        }
    }

    /// Builds the scoreable workload for hardware `cfg`.
    pub fn build(&self, cfg: &GpuConfig) -> Workload {
        let RowwiseSweep { m, n, bs, .. } = *self;
        let chunks = ((n + bs - 1) / bs).max(1);
        let elems = (m * n) as f64;
        // Masked lanes past the row end still execute the vector ops.
        let padded = (m * chunks * bs) as f64;
        let instr_flops = (m * chunks) as f64 * ROWWISE_CHUNK_CYCLES * cfg.fp32_flops
            / (cfg.sm_count as f64 * cfg.clock_hz);
        let bytes = elems * 2.0 * self.passes;
        // One representative warp: a device-warp's worth of consecutive
        // lanes of a chunk through the lane-block layout; every warp of
        // every chunk is identical, so the trace is scaled to the full
        // traffic.
        let lanes = (cfg.warp_size as i64).min(bs);
        let lane = vec![vec![Coord(0, vec![], Lane::Mul(1))]];
        let map = AccessMap::new(vec![], lanes, cfg.warp_size, lane);
        let warp_bytes = lanes as f64 * 2.0;
        Workload {
            pipeline: Pipeline::Fp32,
            flops: padded * self.flops_per_elem + instr_flops,
            useful_bytes: 2.0 * elems * 2.0,
            streamed_dram_bytes: 0.0,
            streamed_l2_bytes: 0.0,
            blocks: m as f64,
            launches: 1.0,
            resources: self.resources(cfg),
            mode: PricingMode::Roofline {
                wave_quantized: false,
            },
            phases: vec![Phase::Global {
                map,
                elem_bytes: 2,
                scale: bytes / warp_bytes,
                l2: None,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{a100, h100};
    use crate::model::CostModel;
    use crate::smem::bank_conflicts_elems_on;
    use lego_core::Layout;

    #[test]
    fn matmul_builder_matches_legacy_semantics() {
        let cfg = a100();
        let b = MatmulWaves::with_tiles(2048, (128, 128, 64));
        let w = b.build(&cfg);
        assert_eq!(w.blocks, 256.0);
        assert_eq!(w.launches, 2.0);
        assert_eq!(
            w.mode,
            PricingMode::Roofline {
                wave_quantized: true
            }
        );
        assert!((w.flops - 2.0 * 2048f64.powi(3)).abs() < 1.0);
    }

    #[test]
    fn vendor_matmul_is_single_launch_unquantized() {
        let cfg = a100();
        let w = MatmulWaves {
            vendor: true,
            ..MatmulWaves::with_tiles(2048, (128, 128, 64))
        }
        .build(&cfg);
        assert_eq!(w.launches, 1.0);
        assert_eq!(
            w.mode,
            PricingMode::Roofline {
                wave_quantized: false
            }
        );
    }

    #[test]
    fn nw_block_passes_distinguish_layouts() {
        use lego_core::perms::antidiag;
        use lego_core::OrderBy;
        let cfg = a100();
        let b = 16i64;
        let nsz = b + 1;
        let baseline = Layout::identity([nsz, nsz]).unwrap();
        let optimized = Layout::builder([nsz, nsz])
            .order_by(OrderBy::new([antidiag(nsz).unwrap()]).unwrap())
            .build()
            .unwrap();
        // One block's wavefront sweep, counted pass by pass.
        let passes = |layout: &Layout| {
            let layout = layout.compile().unwrap();
            let mut passes = 0usize;
            NwWavefront::block_map(b, cfg.warp_size).replay(Some(&layout), |g| {
                passes += bank_conflicts_elems_on(g, 4, &cfg).passes;
            });
            passes as f64
        };
        let (base, opt) = (passes(&baseline), passes(&optimized));
        assert!(base / opt > 1.5, "base {base} opt {opt}");
        // Conflict-free floor: 4 groups per step.
        assert!(opt >= (4 * (2 * b - 1)) as f64);
    }

    #[test]
    fn nw_giant_block_fits_h100_not_a100() {
        let w = NwWavefront { n: 3584, b: 224 };
        let r = w.resources(&a100());
        let p = crate::timing::KernelProfile {
            warps_per_block: r.warps_per_block,
            regs_per_block: r.regs_per_block,
            smem_per_block: r.smem_per_block,
            ..Default::default()
        };
        assert_eq!(p.resident_warps(&a100()), 0.0);
        assert!(p.resident_warps(&h100()) > 0.0);
    }

    #[test]
    fn lud_coarsening_raises_intensity_and_cuts_launches() {
        let cfg = a100();
        let base = LudPanels {
            n: 2048,
            bs: 16,
            t: 16,
        }
        .build(&cfg);
        let coarse = LudPanels {
            n: 2048,
            bs: 64,
            t: 16,
        }
        .build(&cfg);
        assert!(coarse.launches < base.launches / 3.0);
        let id = Layout::identity([16i64, 16]).unwrap();
        let eb = CostModel::new(&cfg).price(&id, &base);
        let ec = CostModel::new(&cfg).price(&id, &coarse);
        assert!(ec.dram_bytes < eb.dram_bytes);
        assert!(ec.time_s < eb.time_s);
    }

    #[test]
    fn nw_and_lud_pad_non_dividing_blocks() {
        let cfg = a100();
        // 512 = 5·96 + 32: six block diagonals, the last one partial.
        let padded = NwWavefront { n: 512, b: 96 }.build(&cfg);
        assert_eq!(padded.launches, 2.0 * 11.0);
        assert_eq!(padded.blocks, 2.0 * 36.0);
        let lud = LudPanels {
            n: 512,
            bs: 96,
            t: 16,
        }
        .build(&cfg);
        // ceil(512/96) = 6 factorization steps, 3 launches each.
        assert_eq!(lud.launches, 18.0);
    }

    #[test]
    fn rowwise_block_size_is_a_real_tradeoff() {
        let cfg = a100();
        let layout = |bs: i64| Layout::identity([bs]).unwrap();
        let sweep = |bs: i64| RowwiseSweep {
            m: 4096,
            n: 3000,
            bs,
            passes: 2.0,
            flops_per_elem: 6.0,
        };
        let t = |bs: i64| {
            let w = sweep(bs).build(&cfg);
            CostModel::new(&cfg).price(&layout(bs), &w).time_s
        };
        // A mid-size block beats both a tiny one (chunk-loop overhead)
        // and a grossly padded one (masked-lane compute + occupancy).
        let (tiny, mid, huge) = (t(32), t(512), t(16384));
        assert!(mid < tiny, "mid {mid} tiny {tiny}");
        assert!(mid < huge, "mid {mid} huge {huge}");
    }

    #[test]
    fn rowwise_traffic_scales_with_passes() {
        let cfg = a100();
        let mk = |passes: f64| RowwiseSweep {
            m: 1024,
            n: 1024,
            bs: 1024,
            passes,
            flops_per_elem: 8.0,
        };
        let l = Layout::identity([1024i64]).unwrap();
        let two = CostModel::new(&cfg).price(&l, &mk(2.0).build(&cfg));
        let four = CostModel::new(&cfg).price(&l, &mk(4.0).build(&cfg));
        assert!((four.dram_bytes / two.dram_bytes - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stencil_builder_charges_strided_walks_more() {
        let cfg = a100();
        use lego_core::brick::row_major3d;
        let n = 32;
        let rm = row_major3d(n).unwrap();
        let offsets = vec![(0, 0, 0), (1, 0, 0), (-1, 0, 0)];
        let mk = |lane_axis, block| StencilWalk {
            offsets: offsets.clone(),
            radius: 1,
            n,
            block,
            lane_axis,
        };
        let y = CostModel::new(&cfg).price(&rm, &mk(LaneAxis::Y, (4, 8, 4)).build(&cfg));
        let z = CostModel::new(&cfg).price(&rm, &mk(LaneAxis::Z, (4, 4, 8)).build(&cfg));
        assert!(
            y.l2_bytes > 2.0 * z.l2_bytes,
            "y {} z {}",
            y.l2_bytes,
            z.l2_bytes
        );
    }

    /// The hand-written loop nests the builders emitted before their
    /// phases became access maps, kept verbatim (as functions of what
    /// each closure captured) as the reference the replay must match.
    mod reference {
        use super::LaneAxis;
        use lego_core::ConcreteLayout;

        fn emit_warp_chunks(idx: &[i64], warp: usize, sink: &mut dyn FnMut(&[i64])) {
            for chunk in idx.chunks(warp.max(1)) {
                sink(chunk);
            }
        }

        #[allow(clippy::too_many_arguments)]
        pub(super) fn matmul(
            (nblocks, wave, ksteps, nt_n): (i64, i64, i64, i64),
            a_bytes: usize,
            b_bytes: usize,
            layout: &ConcreteLayout,
            sink: &mut dyn FnMut(i64, usize),
        ) {
            let mut pid0 = 0i64;
            while pid0 < nblocks {
                let pids: Vec<(i64, i64)> = (pid0..(pid0 + wave).min(nblocks))
                    .map(|pid| {
                        let v = layout.inv(pid).expect("pid in range");
                        (v[0], v[1])
                    })
                    .collect();
                for kk in 0..ksteps {
                    for &(pm, pn) in &pids {
                        // Tile ids: disjoint namespaces for A and B.
                        sink((pm * ksteps + kk) << 1, a_bytes);
                        sink(((kk * nt_n + pn) << 1) | 1, b_bytes);
                    }
                }
                pid0 += wave;
            }
        }

        pub(super) fn transpose_global(
            n: i64,
            staged: bool,
            lanes: i64,
            sink: &mut dyn FnMut(&[i64]),
        ) {
            let row: Vec<i64> = (0..lanes).collect();
            if staged {
                // Both global accesses row-contiguous.
                sink(&row);
                sink(&row);
            } else {
                // Coalesced read, stride-n write.
                let col: Vec<i64> = (0..lanes).map(|l| l * n).collect();
                sink(&row);
                sink(&col);
            }
        }

        pub(super) fn transpose_shared(
            t: i64,
            warp: usize,
            layout: &ConcreteLayout,
            sink: &mut dyn FnMut(&[i64]),
        ) {
            let threads: Vec<(i64, i64)> = (0..t)
                .flat_map(|ty| (0..t).map(move |tx| (ty, tx)))
                .collect();
            let mut store = Vec::with_capacity(warp);
            let mut load = Vec::with_capacity(warp);
            for chunk in threads.chunks(warp) {
                store.clear();
                load.clear();
                for &(ty, tx) in chunk {
                    store.push(layout.apply(&[ty, tx]).expect("in tile"));
                    load.push(layout.apply(&[tx, ty]).expect("in tile"));
                }
                sink(&store);
                sink(&load);
            }
        }

        #[allow(clippy::too_many_arguments)]
        pub(super) fn stencil(
            n: i64,
            (bx, by, bz): (i64, i64, i64),
            lane_axis: LaneAxis,
            r: i64,
            offs: &[(i64, i64, i64)],
            warp_lanes: i64,
            layout: &ConcreteLayout,
            sink: &mut dyn FnMut(&[i64]),
        ) {
            let clamp = |v: i64| v.clamp(r, n - 1 - r);
            let lanes = warp_lanes;
            let mut idx = Vec::with_capacity(lanes as usize);
            for tx in 0..n / bx {
                for ty in 0..n / by {
                    for tz in 0..n / bz {
                        // Enumerate warps inside the tile.
                        let (wi_max, wj_max, lane_max) = match lane_axis {
                            LaneAxis::Z => (bx, by, bz),
                            LaneAxis::Y => (bx, bz, by),
                            LaneAxis::YZ => (bx, 1, by * bz),
                        };
                        for wi in 0..wi_max {
                            for wj in 0..wj_max {
                                let mut l0 = 0i64;
                                while l0 < lane_max {
                                    let nl = lanes.min(lane_max - l0);
                                    for &(dx, dy, dz) in offs {
                                        idx.clear();
                                        for lane in 0..nl {
                                            let (x, y, z) = match lane_axis {
                                                LaneAxis::Z => (
                                                    tx * bx + wi,
                                                    ty * by + wj,
                                                    tz * bz + l0 + lane,
                                                ),
                                                LaneAxis::Y => (
                                                    tx * bx + wi,
                                                    ty * by + l0 + lane,
                                                    tz * bz + wj,
                                                ),
                                                LaneAxis::YZ => {
                                                    let local = l0 + lane;
                                                    (
                                                        tx * bx + wi,
                                                        ty * by + local / bz,
                                                        tz * bz + local % bz,
                                                    )
                                                }
                                            };
                                            idx.push(
                                                layout
                                                    .apply(&[
                                                        clamp(x + dx),
                                                        clamp(y + dy),
                                                        clamp(z + dz),
                                                    ])
                                                    .expect("in bounds"),
                                            );
                                        }
                                        sink(&idx);
                                    }
                                    l0 += lanes;
                                }
                            }
                        }
                    }
                }
            }
        }

        pub(super) fn nw(
            b: i64,
            warp: usize,
            layout: &ConcreteLayout,
            sink: &mut dyn FnMut(&[i64]),
        ) {
            // Per step: the write (t+1, d-t+1), then the NW, N and W
            // reads, as (row, col) offsets from (t, d-t).
            const GROUPS: [(i64, i64); 4] = [(1, 1), (0, 0), (0, 1), (1, 0)];
            let mut group = Vec::with_capacity(b as usize);
            for d in 0..(2 * b - 1) {
                let lo = (d + 1 - b).max(0);
                let hi = d.min(b - 1);
                for (di, dj) in GROUPS {
                    group.clear();
                    group.extend(
                        (lo..=hi).map(|t| layout.apply(&[t + di, d - t + dj]).expect("in bounds")),
                    );
                    emit_warp_chunks(&group, warp, sink);
                }
            }
        }

        pub(super) fn rowwise(lanes: i64, layout: &ConcreteLayout, sink: &mut dyn FnMut(&[i64])) {
            let idx: Vec<i64> = (0..lanes)
                .map(|l| layout.apply(&[l]).expect("lane in block"))
                .collect();
            sink(&idx);
        }
    }

    fn devices() -> [GpuConfig; 3] {
        [a100(), h100(), crate::config::mi300()]
    }

    /// The identity and the reversed layout over `dims`, compiled.
    fn layouts<const N: usize>(dims: [i64; N]) -> [lego_core::ConcreteLayout; 2] {
        use lego_core::perms::reverse_perm;
        use lego_core::OrderBy;
        let reversed = Layout::builder(dims)
            .order_by(OrderBy::new([reverse_perm(&dims).unwrap()]).unwrap())
            .build()
            .unwrap();
        [Layout::identity(dims).unwrap(), reversed].map(|l| l.compile().unwrap())
    }

    /// Warp accesses, in emission order.
    fn warps(emit: impl FnOnce(&mut dyn FnMut(&[i64]))) -> Vec<Vec<i64>> {
        let mut out = Vec::new();
        emit(&mut |idx: &[i64]| out.push(idx.to_vec()));
        out
    }

    /// The single access map of `phase`, replayed.
    fn replayed(phase: &Phase, layout: &lego_core::ConcreteLayout) -> Vec<Vec<i64>> {
        match phase {
            Phase::Global { map, .. } | Phase::Shared { map, .. } => {
                warps(|sink| map.replay(Some(layout), sink))
            }
            other => panic!("not an access map: {other:?}"),
        }
    }

    fn sorted(mut warps: Vec<Vec<i64>>) -> Vec<Vec<i64>> {
        warps.sort();
        warps
    }

    #[test]
    fn matmul_waves_replay_the_reference_touches() {
        for cfg in devices() {
            for (n, tiles) in [
                (512, (64, 64, 32)),
                (1024, (128, 64, 64)),
                (768, (128, 128, 64)),
            ] {
                let w = MatmulWaves::with_tiles(n, tiles).build(&cfg);
                let [Phase::TileTouches { waves }] = &w.phases[..] else {
                    panic!("matmul is one tile-touch phase");
                };
                let (bm, bn, bk) = tiles;
                for layout in layouts([n / bm, n / bn]) {
                    let mut got = Vec::new();
                    waves.replay(&layout, |id, bytes| got.push((id, bytes)));
                    let mut want = Vec::new();
                    let shape = ((n / bm) * (n / bn), cfg.sm_count as i64, n / bk, n / bn);
                    let (a, b) = ((bm * bk * 2) as usize, (bk * bn * 2) as usize);
                    reference::matmul(shape, a, b, &layout, &mut |id, bytes| {
                        want.push((id, bytes))
                    });
                    assert_eq!(got, want, "matmul(n={n},{tiles:?}) on {}", cfg.tag);
                }
            }
        }
    }

    #[test]
    fn transpose_maps_replay_the_reference_warps() {
        for cfg in devices() {
            for t in [4, 8, 32] {
                for staged in [false, true] {
                    let n = 256;
                    let w = TransposeSweeps { n, t, staged }.build(&cfg);
                    let what = format!("transpose t={t} staged={staged} on {}", cfg.tag);
                    let Phase::Global { map, .. } = &w.phases[0] else {
                        panic!("{what}: global phase first");
                    };
                    let lanes = (cfg.warp_size as i64).min(t * t);
                    assert_eq!(
                        warps(|sink| map.replay(None, sink)),
                        warps(|sink| reference::transpose_global(n, staged, lanes, sink)),
                        "{what}"
                    );
                    assert_eq!(w.phases.len(), 1 + staged as usize, "{what}");
                    for layout in layouts([t, t]).iter().filter(|_| staged) {
                        assert_eq!(
                            sorted(replayed(&w.phases[1], layout)),
                            sorted(warps(|sink| {
                                reference::transpose_shared(t, cfg.warp_size, layout, sink)
                            })),
                            "{what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stencil_maps_replay_the_reference_warps() {
        let offsets = vec![(0, 0, 0), (1, 0, 0), (0, -1, 0), (0, 0, 1), (-1, 1, -1)];
        for cfg in devices() {
            for n in [8, 16, 32] {
                for lane_axis in [LaneAxis::Y, LaneAxis::Z, LaneAxis::YZ] {
                    for block in [(2, 4, 8), (4, 8, 4), (1, 8, 8)] {
                        let walk = StencilWalk {
                            offsets: offsets.clone(),
                            radius: 1,
                            n,
                            block,
                            lane_axis,
                        };
                        let w = walk.build(&cfg);
                        for layout in layouts([n, n, n]) {
                            let want = warps(|sink| {
                                let warp = cfg.warp_size as i64;
                                reference::stencil(
                                    n, block, lane_axis, 1, &offsets, warp, &layout, sink,
                                )
                            });
                            assert_eq!(
                                replayed(&w.phases[0], &layout),
                                want,
                                "stencil n={n} {lane_axis:?} {block:?} on {}",
                                cfg.tag
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn nw_block_map_replays_the_reference_warps() {
        for cfg in devices() {
            for b in [16, 48, 96] {
                let w = NwWavefront { n: 4 * b, b }.build(&cfg);
                for layout in layouts([b + 1, b + 1]) {
                    // Chunk and tap order may swap; passes are summed.
                    assert_eq!(
                        sorted(replayed(&w.phases[0], &layout)),
                        sorted(warps(|sink| reference::nw(b, cfg.warp_size, &layout, sink))),
                        "nw b={b} on {}",
                        cfg.tag
                    );
                }
            }
        }
    }

    #[test]
    fn rowwise_map_replays_the_reference_warp() {
        for cfg in devices() {
            for bs in [16, 32, 48, 256] {
                let w = RowwiseSweep {
                    m: 64,
                    n: 1000,
                    bs,
                    passes: 2.0,
                    flops_per_elem: 6.0,
                }
                .build(&cfg);
                let lanes = (cfg.warp_size as i64).min(bs);
                for layout in layouts([bs]) {
                    assert_eq!(
                        replayed(&w.phases[0], &layout),
                        warps(|sink| reference::rowwise(lanes, &layout, sink)),
                        "rowwise bs={bs} on {}",
                        cfg.tag
                    );
                }
            }
        }
    }
}
