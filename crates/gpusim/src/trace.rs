//! Shared workload trace builders — one source of truth for how each
//! paper workload touches memory.
//!
//! Historically the repo carried *two* encodings of every workload's
//! access pattern: the `lego-bench` drivers replayed traces for the
//! paper tables, and `lego-tune`'s search space re-implemented the same
//! loops for the tuning oracle, so the two could silently drift apart.
//! This module is the merge point: each [`TraceBuilder`] owns one
//! workload's logical access pattern and emits it as [`Phase`]s through
//! the existing [`AddrGen`] / [`TouchGen`] callbacks, producing a
//! [`Workload`] that [`crate::CostModel::price`] prices. An estimate printed
//! in a paper table and an estimate ranked by the tuner now come from
//! literally the same code path.
//!
//! Builders also declare the kernel's per-block resource footprint
//! ([`BlockResources`]) — a trait method taking the device config, so
//! register/warp estimates come from the generator family and scale
//! with the device's warp size — and the occupancy term of
//! [`crate::timing`] can penalize register/smem-hungry configurations.
//! Warp-sized lane groups are emitted per [`GpuConfig::warp_size`]
//! (32-lane NVIDIA warps, 64-lane CDNA wavefronts), so the same trace
//! code prices both device families.

use lego_core::Layout;

use crate::config::GpuConfig;
use crate::model::PricingMode;
use crate::score::{AddrGen, BlockResources, L2Model, Phase, TouchGen, Workload};
use crate::smem::bank_conflicts_elems_on;
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

/// A builder of one workload's memory trace: given the hardware model,
/// produces the [`Workload`] whose phases replay the kernel's logical
/// access pattern through whatever layout is scored against it.
pub trait TraceBuilder {
    /// Stable display name, e.g. `matmul(n=2048,128x128x64)`.
    fn name(&self) -> String;

    /// The kernel family's per-block resource footprint on `cfg` —
    /// warps per block follow the device's warp size; register and
    /// shared-memory estimates are the family's calibrated heuristics.
    fn resources(&self, cfg: &GpuConfig) -> BlockResources;

    /// Builds the scoreable workload for hardware `cfg`.
    fn build(&self, cfg: &GpuConfig) -> Workload;
}

/// Splits `idx` into device-warp-sized lane groups and feeds each to
/// `sink` — the shared "what is one warp access on this device"
/// helper of the trace builders.
fn emit_warp_chunks(idx: &[i64], warp: usize, sink: &mut dyn FnMut(&[i64])) {
    for chunk in idx.chunks(warp.max(1)) {
        sink(chunk);
    }
}

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
    /// Extra flops charged for index computation (tuner cost model).
    pub index_flops: f64,
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
            index_flops: 0.0,
            vendor: false,
        }
    }
}

impl TraceBuilder for MatmulWaves {
    fn name(&self) -> String {
        format!("matmul(n={},{}x{}x{})", self.n, self.bm, self.bn, self.bk)
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

    fn build(&self, cfg: &GpuConfig) -> Workload {
        let MatmulWaves { n, bm, bn, bk, .. } = *self;
        let elem = 2i64; // fp16
        let (nt_m, nt_n) = (n / bm, n / bn);
        let ksteps = n / bk;
        let nblocks = nt_m * nt_n;
        let wave = cfg.sm_count as i64;
        let a_bytes = (bm * bk * elem) as usize;
        let b_bytes = (bk * bn * elem) as usize;
        let trace: TouchGen = Box::new(move |layout, sink| {
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
        });
        let c_bytes = (n * n * elem) as f64;
        Workload {
            name: self.name(),
            pipeline: Pipeline::TensorFp16,
            flops: 2.0 * (n as f64).powi(3) + self.index_flops,
            useful_bytes: 3.0 * c_bytes,
            streamed_bytes: c_bytes,
            blocks: nblocks as f64,
            launches: if self.vendor { 1.0 } else { 2.0 },
            wave_quantized: !self.vendor,
            l2: None,
            resources: self.resources(cfg),
            mode: PricingMode::Roofline,
            // The trace reads n/bm/bn/bk plus the wave width (sm_count)
            // baked in above; vendor/index_flops only touch assembly.
            traffic_key: Some(format!("mm:n{n}:t{bm}x{bn}x{bk}:d{}", cfg.tag)),
            phases: vec![Phase::TileTouches { trace, scale: 1.0 }],
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
    /// Extra flops charged for index computation (tuner cost model).
    pub index_flops: f64,
}

impl TraceBuilder for TransposeSweeps {
    fn name(&self) -> String {
        format!("transpose(n={},t={})", self.n, self.t)
    }

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

    fn build(&self, cfg: &GpuConfig) -> Workload {
        let TransposeSweeps { n, t, staged, .. } = *self;
        let tiles = (n / t) * (n / t);
        // One representative warp per global access group, scaled to the
        // tile's thread count.
        let lanes = (cfg.warp_size as i64).min(t * t);
        let warps_per_tile = (t * t) as f64 / lanes as f64;
        let global: AddrGen = Box::new(move |_layout, sink| {
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
        });
        let mut phases = vec![Phase::Global {
            trace: global,
            elem_bytes: 4,
            scale: warps_per_tile * tiles as f64,
        }];
        if staged {
            // The staging tile's threads in row-major order, chunked
            // into device-warp lane groups: each warp stores its slice
            // row-wise and loads it transposed.
            let warp = cfg.warp_size;
            let shared: AddrGen = Box::new(move |layout, sink| {
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
            });
            phases.push(Phase::Shared {
                trace: shared,
                scale: tiles as f64,
            });
        }
        Workload {
            name: self.name(),
            pipeline: Pipeline::Fp32,
            flops: self.index_flops,
            useful_bytes: 2.0 * (n * n * 4) as f64,
            streamed_bytes: 0.0,
            blocks: tiles as f64,
            launches: 1.0,
            wave_quantized: false,
            l2: None,
            resources: self.resources(cfg),
            mode: PricingMode::Roofline,
            // The traces read n/t/staged plus the warp width baked in.
            traffic_key: Some(format!("tr:n{n}:t{t}:s{}:d{}", staged as u8, cfg.tag)),
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
    /// Display name of the stencil shape, e.g. `star-13pt`.
    pub shape_name: String,
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
    /// Extra flops charged for index computation (tuner cost model).
    pub index_flops: f64,
}

impl TraceBuilder for StencilWalk {
    fn name(&self) -> String {
        format!("stencil({},n={})", self.shape_name, self.n)
    }

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

    fn build(&self, cfg: &GpuConfig) -> Workload {
        let StencilWalk {
            n,
            block: (bx, by, bz),
            lane_axis,
            radius: r,
            ..
        } = *self;
        let offs = self.offsets.clone();
        let points = offs.len() as f64;
        let warp_lanes = cfg.warp_size as i64;
        let trace: AddrGen = Box::new(move |layout, sink| {
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
                                    for &(dx, dy, dz) in &offs {
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
        });
        // Scaled L2: preserve the paper's 512³·4B : 40 MiB ratio.
        let domain_bytes = (n * n * n * 4) as f64;
        let lines = ((domain_bytes / 12.8) as usize / cfg.sector_bytes).max(1024);
        // The offsets are the only unbounded trace parameter: fold them
        // into an FNV tag so custom shapes sharing a display name
        // cannot collide in the traffic memo.
        let mut off_tag: u64 = 0xcbf2_9ce4_8422_2325;
        for &(dx, dy, dz) in &self.offsets {
            for v in [dx, dy, dz] {
                off_tag ^= v as u64;
                off_tag = off_tag.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Workload {
            name: self.name(),
            pipeline: Pipeline::Fp32,
            flops: 2.0 * points * (n * n * n) as f64 + self.index_flops,
            useful_bytes: 2.0 * domain_bytes,
            streamed_bytes: domain_bytes,
            blocks: ((n / bx) * (n / by) * (n / bz)) as f64,
            launches: 1.0,
            wave_quantized: false,
            l2: Some(L2Model { lines, assoc: 16 }),
            resources: self.resources(cfg),
            mode: PricingMode::Roofline,
            traffic_key: Some(format!(
                "st:o{off_tag:016x}:r{r}:n{n}:b{bx}x{by}x{bz}:a{}:d{}",
                match lane_axis {
                    LaneAxis::Y => "y",
                    LaneAxis::Z => "z",
                    LaneAxis::YZ => "yz",
                },
                cfg.tag
            )),
            phases: vec![Phase::Global {
                trace,
                elem_bytes: 4,
                scale: 1.0,
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
    /// Extra flops charged for index computation (tuner cost model).
    pub index_flops: f64,
}

impl NwWavefront {
    /// The per-block wavefront warp trace: on each of the `2b-1`
    /// in-block diagonals the active lanes write `(t+1, d-t+1)` and
    /// read the three neighbors (NW, N, W) — four access groups per
    /// step, each emitted through the buffer layout in `warp`-lane
    /// chunks (a diagonal longer than the device's warp takes several
    /// warp instructions).
    pub fn block_trace(b: i64, warp: usize) -> AddrGen {
        Box::new(move |layout, sink| {
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
        })
    }

    /// Shared-memory passes for one block's full wavefront sweep under
    /// a given buffer layout, on the warp and bank geometry of `cfg` —
    /// the quantity the additive pricing mode charges per round.
    ///
    /// # Panics
    ///
    /// When `layout` does not [`compile`](Layout::compile) (symbolic
    /// dims or a broken `GenP`).
    pub fn block_passes(layout: &Layout, b: i64, cfg: &GpuConfig) -> f64 {
        let layout = layout.compile().expect("NW buffer layout compiles");
        let trace = NwWavefront::block_trace(b, cfg.warp_size);
        let mut passes = 0usize;
        trace(&layout, &mut |g: &[i64]| {
            passes += bank_conflicts_elems_on(g, 4, cfg).passes;
        });
        passes as f64
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
}

impl TraceBuilder for NwWavefront {
    fn name(&self) -> String {
        format!("nw(n={},b={})", self.n, self.b)
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

    fn build(&self, cfg: &GpuConfig) -> Workload {
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
            name: self.name(),
            pipeline: Pipeline::Fp32,
            flops: self.index_flops,
            useful_bytes: 2.0 * matrix_bytes,
            // Matrix read + write plus one reference-matrix read.
            streamed_bytes: 3.0 * matrix_bytes,
            blocks,
            launches,
            wave_quantized: false,
            l2: None,
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
            // The trace reads b plus the warp width baked in; n only
            // enters through the phase scale, which the memo key covers.
            traffic_key: Some(format!("nw:n{n}:b{b}:d{}", cfg.tag)),
            phases: vec![Phase::Shared {
                trace: NwWavefront::block_trace(b, cfg.warp_size),
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
/// is modeled analytically at panel granularity, so the trace emits
/// pre-aggregated [`Phase::Streamed`] traffic.
#[derive(Clone, Copy, Debug)]
pub struct LudPanels {
    /// Matrix side length.
    pub n: i64,
    /// LUD block side (`r·t`).
    pub bs: i64,
    /// CUDA block side (16 in Rodinia).
    pub t: i64,
    /// Extra flops charged for index computation (tuner cost model).
    pub index_flops: f64,
}

impl TraceBuilder for LudPanels {
    fn name(&self) -> String {
        format!("lud(n={},bs={})", self.n, self.bs)
    }

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

    fn build(&self, cfg: &GpuConfig) -> Workload {
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
            name: self.name(),
            pipeline: Pipeline::Fp32,
            flops: flops + self.index_flops,
            useful_bytes: 2.0 * (n * n * 4) as f64,
            streamed_bytes: 0.0,
            blocks,
            launches,
            wave_quantized: false,
            l2: None,
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
            // Pure pre-aggregated traffic: no closures, no layout.
            traffic_key: Some(format!("lud:n{n}:bs{bs}:d{}", cfg.tag)),
            phases: vec![Phase::Streamed {
                dram_bytes: dram,
                l2_bytes: dram * 1.5,
            }],
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
#[derive(Clone, Debug)]
pub struct RowwiseSweep {
    /// Display name of the operator, e.g. `softmax`.
    pub op_name: String,
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
    /// Extra flops charged for index computation (tuner cost model).
    pub index_flops: f64,
}

impl TraceBuilder for RowwiseSweep {
    fn name(&self) -> String {
        format!("{}(m={},n={},bs={})", self.op_name, self.m, self.n, self.bs)
    }

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

    fn build(&self, cfg: &GpuConfig) -> Workload {
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
        let trace: AddrGen = Box::new(move |layout, sink| {
            let idx: Vec<i64> = (0..lanes)
                .map(|l| layout.apply(&[l]).expect("lane in block"))
                .collect();
            sink(&idx);
        });
        let warp_bytes = lanes as f64 * 2.0;
        Workload {
            name: self.name(),
            pipeline: Pipeline::Fp32,
            flops: padded * self.flops_per_elem + instr_flops + self.index_flops,
            useful_bytes: 2.0 * elems * 2.0,
            streamed_bytes: 0.0,
            blocks: m as f64,
            launches: 1.0,
            wave_quantized: false,
            l2: None,
            resources: self.resources(cfg),
            mode: PricingMode::Roofline,
            // `passes` is spelled out explicitly: unlike `name()`, the
            // memo key must separate operators that share m/n/bs but
            // sweep the matrix a different number of times.
            traffic_key: Some(format!(
                "rw:m{m}:n{n}:bs{bs}:p{:x}:d{}",
                self.passes.to_bits(),
                cfg.tag
            )),
            phases: vec![Phase::Global {
                trace,
                elem_bytes: 2,
                scale: bytes / warp_bytes,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{a100, h100};
    use crate::model::CostModel;

    #[test]
    fn matmul_builder_matches_legacy_semantics() {
        let cfg = a100();
        let b = MatmulWaves::with_tiles(2048, (128, 128, 64));
        let w = b.build(&cfg);
        assert_eq!(w.blocks, 256.0);
        assert_eq!(w.launches, 2.0);
        assert!(w.wave_quantized);
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
        assert!(!w.wave_quantized);
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
        let base = NwWavefront::block_passes(&baseline, b, &cfg);
        let opt = NwWavefront::block_passes(&optimized, b, &cfg);
        assert!(base / opt > 1.5, "base {base} opt {opt}");
        // Conflict-free floor: 4 groups per step.
        assert!(opt >= (4 * (2 * b - 1)) as f64);
    }

    #[test]
    fn nw_giant_block_fits_h100_not_a100() {
        let w = NwWavefront {
            n: 3584,
            b: 224,
            index_flops: 0.0,
        };
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
            index_flops: 0.0,
        }
        .build(&cfg);
        let coarse = LudPanels {
            n: 2048,
            bs: 64,
            t: 16,
            index_flops: 0.0,
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
        let padded = NwWavefront {
            n: 512,
            b: 96,
            index_flops: 0.0,
        }
        .build(&cfg);
        assert_eq!(padded.launches, 2.0 * 11.0);
        assert_eq!(padded.blocks, 2.0 * 36.0);
        let lud = LudPanels {
            n: 512,
            bs: 96,
            t: 16,
            index_flops: 0.0,
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
            op_name: "softmax".into(),
            m: 4096,
            n: 3000,
            bs,
            passes: 2.0,
            flops_per_elem: 6.0,
            index_flops: 0.0,
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
            op_name: "layernorm".into(),
            m: 1024,
            n: 1024,
            bs: 1024,
            passes,
            flops_per_elem: 8.0,
            index_flops: 0.0,
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
            shape_name: "test".into(),
            offsets: offsets.clone(),
            radius: 1,
            n,
            block,
            lane_axis,
            index_flops: 0.0,
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
}
