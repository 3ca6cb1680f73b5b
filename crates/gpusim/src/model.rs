//! The device-generic pricing engine: one [`CostModel`] owns the full
//! trace→estimate path.
//!
//! Every estimate, bench or tuner, on any device, is produced by
//! [`CostModel::price`] (or [`CostModel::price_batch`]), so an NW table
//! number and the tuner's NW ranking cannot disagree. A [`Workload`]
//! carries its [`PricingMode`], so the dependency-serialized wavefront
//! workloads
//! (NW, LUD) are priced additively by the same engine that prices the
//! overlapped streaming workloads with the roofline — and both crates
//! get bit-identical numbers by construction.
//!
//! Every device-shaped constant — warp size, memory-segment width, bank
//! count and bank word, saturation occupancies — comes from the
//! [`GpuConfig`] handed to [`CostModel::new`], so an MI300-class
//! (warp-64, 64-bank LDS, 64-byte segment) device prices through
//! exactly the same code as the A100.
//!
//! The engine reads each pricing input in one place: a
//! [`Phase::Global`]'s own L2 model while replaying it, the workload's
//! `streamed_*` bytes while assembling, and wave quantization from
//! [`PricingMode::Roofline`].

use lego_core::shape::key_ints;
use lego_core::{ConcreteLayout, Layout};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::cache::Cache;
use crate::coalesce::coalesce_elems;
use crate::config::GpuConfig;
use crate::score::{Estimate, Phase, Workload};
use crate::smem::bank_passes;
use crate::tilecache::TileCache;
use crate::timing::{estimate, occupancy_derate, KernelProfile, Pipeline, TimeEstimate};
use crate::traffic::{self, TrafficCost};

/// How a workload's bottleneck terms combine into a runtime.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PricingMode {
    /// Overlapped bulk-synchronous execution: runtime is the *maximum*
    /// of the compute / DRAM / L2 / shared-memory terms plus launch
    /// overhead — the standard roofline. Used by matmul, transpose,
    /// stencil and rowwise workloads.
    Roofline {
        /// Whether compute time is wave-quantized (a partial last wave
        /// costs a full wave), as in the LEGO matmul pipeline.
        wave_quantized: bool,
    },
    /// Dependency-serialized execution (wavefront and panel pipelines):
    /// the launch schedule forbids overlapping compute with the
    /// streamed traffic, so the terms *add*, and in-block compute is
    /// round-quantized by the wavefront schedule. Used by NW and LUD.
    AdditiveLaunch {
        /// Sequential block rounds of the dependency-limited schedule
        /// (`0` = no round quantization: compute comes from `flops`
        /// alone, as in LUD's panel pipeline).
        rounds: f64,
        /// Non-smem instruction cycles each round's block executes.
        step_cycles: f64,
        /// Cycles per serialized shared-memory pass (bank passes are
        /// priced inside the rounds, not as a separate smem term).
        pass_cycles: f64,
        /// Per-launch overhead in seconds — short dependent kernels
        /// pipeline their launches better than the config default.
        launch_overhead_s: f64,
    },
}

impl PricingMode {
    /// Stable name for cache keys and reports.
    pub fn name(&self) -> &'static str {
        match self {
            PricingMode::Roofline { .. } => "roofline",
            PricingMode::AdditiveLaunch { .. } => "additive-launch",
        }
    }
}

/// The pricing engine for one device: turns `(layout, workload)` pairs
/// into [`Estimate`]s. This is the *only* path from a trace to cycles —
/// `lego-bench` drivers and the `lego-tune` oracle both go through it.
#[derive(Clone, Copy, Debug)]
pub struct CostModel<'a> {
    cfg: &'a GpuConfig,
}

impl<'a> CostModel<'a> {
    /// A pricing engine for the device `cfg`.
    pub fn new(cfg: &'a GpuConfig) -> CostModel<'a> {
        CostModel { cfg }
    }

    /// The device being modeled.
    pub fn device(&self) -> &GpuConfig {
        self.cfg
    }

    /// Prices one candidate layout against a workload in two tiers:
    /// the [`traffic`](CostModel::traffic) pass replays every phase's
    /// trace through the coalescing / bank-conflict / cache models (all
    /// parameterized by the device) — memoized per geometry — and
    /// [`assemble`](CostModel::assemble) combines the resulting
    /// [`TrafficCost`] with the variant-dependent flops/resources under
    /// the workload's [`PricingMode`].
    pub fn price(&self, layout: &Layout, workload: &Workload) -> Estimate {
        let tc = self.traffic(layout, workload);
        self.assemble(workload, &tc)
    }

    /// Tier 1: the trace-driven traffic pass, memoized in this thread's
    /// geometry cache (see [`crate::traffic`]). This is the one-job
    /// case of the batch pass behind
    /// [`price_batch`](CostModel::price_batch).
    ///
    /// The memo key names the layout by its specification
    /// ([`Layout::key`]), so a hit does no work proportional to the
    /// layout: the layout is [compiled](Layout::compile) only on a miss,
    /// for its trace, and only when the workload has a phase.
    ///
    /// # Panics
    ///
    /// When the workload has a phase and the layout does not compile
    /// (symbolic dims, or on a miss a broken `GenP`): a traced layout
    /// must be concrete.
    pub fn traffic(&self, layout: &Layout, workload: &Workload) -> TrafficCost {
        self.traffic_batch(&[(layout, workload)])[0]
    }

    /// The traffic pass without the memo: compiles the layout (when
    /// the workload has a phase) and replays every phase. What
    /// [`traffic`](CostModel::traffic) returns on a memo miss.
    ///
    /// # Panics
    ///
    /// As [`traffic`](CostModel::traffic).
    pub fn trace(&self, layout: &Layout, workload: &Workload) -> TrafficCost {
        let compiled = (!workload.phases.is_empty()).then(|| {
            layout
                .compile()
                .unwrap_or_else(|e| panic!("traced layout must compile: {e}"))
        });
        replay(TraceGeometry::of(self.cfg), compiled.as_ref(), workload)
    }

    /// The memo key of a (layout, workload) pair: the key format, every
    /// phase description with the device fields that phase's replay
    /// reads ([`TraceGeometry`]; a global phase's L2 model included)
    /// and, when the workload has a phase, the layout's structural
    /// [key](Layout::key) — everything the traffic pass reads, rendered
    /// exactly (floats by their bits). The device itself is not named,
    /// so devices that agree on a phase's fields share its trace.
    ///
    /// # Panics
    ///
    /// When the workload has a phase and the layout has symbolic dims.
    fn memo_key(&self, layout: &Layout, workload: &Workload) -> String {
        let geo = TraceGeometry::of(self.cfg);
        let mut key = String::with_capacity(256);
        key.push_str(traffic::KEY_FORMAT);
        for phase in &workload.phases {
            match phase {
                Phase::Global {
                    map,
                    elem_bytes,
                    scale,
                    l2,
                } => {
                    let (elem, sector) = (*elem_bytes as i64, geo.sector_bytes as i64);
                    key_ints(&mut key, 'G', &[elem, scale.to_bits() as i64, sector]);
                    if let Some(l2) = l2 {
                        key_ints(&mut key, 'L', &[l2.lines as i64, l2.assoc as i64]);
                    }
                    map.key(&mut key);
                }
                Phase::Shared { map, scale } => {
                    let (banks, bank) = (geo.smem_banks as i64, geo.bank_bytes as i64);
                    key_ints(&mut key, 'S', &[scale.to_bits() as i64, banks, bank]);
                    map.key(&mut key);
                }
                Phase::TileTouches { waves: w } => {
                    let bytes = [w.a_bytes, w.b_bytes, geo.l2_bytes].map(|b| b as i64);
                    let waves = [
                        w.blocks, w.wave, w.ksteps, w.tiles_n, bytes[0], bytes[1], bytes[2],
                    ];
                    key_ints(&mut key, 'T', &waves);
                }
            }
        }
        key.push('|');
        if workload.phases.is_empty() {
            key.push('-');
        } else if let Err(e) = layout.key(&mut key) {
            panic!("traced layout must compile: {e}");
        }
        key
    }

    /// Tier 2: the closed-form timing assembly. Combines a traced (or
    /// memoized) [`TrafficCost`] with the variant-dependent parts of
    /// the workload — flops, resources, launches, pricing mode — into
    /// the final [`Estimate`]. Cheap enough that N expression variants
    /// per geometry cost one trace replay plus N calls here.
    pub fn assemble(&self, workload: &Workload, tc: &TrafficCost) -> Estimate {
        let profile = KernelProfile {
            flops: workload.flops,
            dram_bytes: tc.dram_bytes + workload.streamed_dram_bytes,
            l2_bytes: tc.l2_bytes + workload.streamed_l2_bytes,
            smem_passes: tc.smem_passes,
            blocks: workload.blocks,
            launches: workload.launches,
            warps_per_block: workload.resources.warps_per_block,
            regs_per_block: workload.resources.regs_per_block,
            smem_per_block: workload.resources.smem_per_block,
        };
        let t = match workload.mode {
            PricingMode::Roofline { wave_quantized } => {
                self.price_roofline(workload, &profile, wave_quantized)
            }
            PricingMode::AdditiveLaunch {
                rounds,
                step_cycles,
                pass_cycles,
                launch_overhead_s,
            } => self.price_additive(
                workload,
                &profile,
                rounds,
                step_cycles,
                pass_cycles,
                launch_overhead_s,
            ),
        };

        let accesses = tc.hits + tc.misses;
        Estimate {
            time_s: t.total_s,
            breakdown: t,
            dram_bytes: profile.dram_bytes,
            l2_bytes: profile.l2_bytes,
            smem_passes: tc.smem_passes,
            l2_hit_rate: if accesses == 0 {
                0.0
            } else {
                tc.hits as f64 / accesses as f64
            },
            flops: workload.flops,
            useful_bytes: workload.useful_bytes,
        }
    }

    /// An admissible analytic lower bound on [`price`](CostModel::price)
    /// — no trace replay, so it costs nanoseconds and can prune a
    /// candidate before tier 1 runs.
    ///
    /// Admissibility argument, term by term against the pricing modes:
    ///
    /// * **compute floor** — `flops / peak`: every derate in the model
    ///   (`occupancy_derate`) is ≤ 1, so real compute time only grows.
    ///   Under wave quantization the floor sharpens to
    ///   `⌈blocks/sms⌉ · flops/blocks/(peak/sms)` (≥ the plain floor),
    ///   because a partial wave bills as a full one.
    ///
    /// Each floor is computed in the same operation order as the price
    /// it bounds, with the derates at 1 and the replayed traffic at 0.
    /// IEEE rounding is monotone in every operand, so the bound is
    /// admissible exactly — never even one ulp above the price — and a
    /// strict `bound > cutoff` never prunes a candidate that ties.
    /// * **memory floor** — guaranteed bytes at un-derated peak
    ///   bandwidth. Guaranteed traffic is the workload's
    ///   `streamed_dram_bytes` and `streamed_l2_bytes`; replayed
    ///   traffic only ever *adds* to them, and the bandwidth derate ≤ 1.
    ///   (`useful_bytes` is deliberately not used: under non-dividing
    ///   tiles the nominal algorithmic minimum can exceed what a
    ///   floored trace actually touches, which would break
    ///   admissibility.)
    /// * **launch floor** — `launches·overhead` is charged exactly by
    ///   both modes, never overlapped.
    ///
    /// Roofline takes the max of the floors (the mode maxes the real
    /// terms); additive-launch adds them (the mode adds the real
    /// terms), plus the round floor `rounds·step_cycles/clock` (real
    /// rounds cost `step_cycles + bank passes` at a derated clock).
    pub fn bound(&self, workload: &Workload) -> f64 {
        let cfg = self.cfg;
        let dram_s = workload.streamed_dram_bytes / (cfg.dram_bw * cfg.dram_efficiency);
        let mem_floor = dram_s.max(workload.streamed_l2_bytes / cfg.l2_bw);
        let peak = self.peak(workload.pipeline);
        let mut compute_floor = workload.flops / peak;
        match workload.mode {
            PricingMode::Roofline { wave_quantized } => {
                if wave_quantized && workload.blocks > 0.0 {
                    // `price_roofline`'s wave time at full issue rate.
                    let sms = cfg.sm_count as f64;
                    let wave_time = workload.flops / workload.blocks / (peak / sms);
                    compute_floor = (workload.blocks / sms).ceil() * wave_time;
                }
                compute_floor.max(mem_floor) + workload.launches.max(1.0) * cfg.launch_overhead
            }
            PricingMode::AdditiveLaunch {
                rounds,
                step_cycles,
                launch_overhead_s,
                ..
            } => {
                compute_floor
                    + rounds * step_cycles / cfg.clock_hz
                    + mem_floor
                    + workload.launches.max(1.0) * launch_overhead_s
            }
        }
    }

    /// Roofline pricing: overlapped bottleneck terms, with matmul-style
    /// wave quantization when the mode asks for it.
    fn price_roofline(
        &self,
        workload: &Workload,
        profile: &KernelProfile,
        wave_quantized: bool,
    ) -> TimeEstimate {
        let cfg = self.cfg;
        let mut t = estimate(profile, workload.pipeline, cfg);
        if wave_quantized && workload.blocks > 0.0 {
            // A partial last wave occupies the machine for a full wave.
            let peak = self.peak(workload.pipeline);
            let issue = occupancy_derate(profile.occupancy(cfg), cfg.issue_sat_occupancy, cfg);
            let per_sm = peak * issue / cfg.sm_count as f64;
            let wave_time = workload.flops / workload.blocks / per_sm;
            let waves = (workload.blocks / cfg.sm_count as f64).ceil();
            t.compute_s = waves * wave_time;
            t.total_s = t.compute_s.max(t.dram_s).max(t.l2_s).max(t.smem_s) + t.overhead_s;
        }
        t
    }

    /// Additive-launch pricing: the calibrated dependent-kernel model
    /// the NW driver used to keep private. Compute is round-quantized
    /// (`rounds` sequential block sweeps, each `step_cycles` plus the
    /// block's serialized bank passes at `pass_cycles` each), memory is
    /// the streamed traffic at derated bandwidth, and the terms *add* —
    /// a wavefront cannot overlap its traffic with the next diagonal's
    /// compute. Occupancy derates both, so a block too big for the SM
    /// (e.g. an NW `b=224` buffer on a 64 KiB-LDS device) is still
    /// finite but punished.
    fn price_additive(
        &self,
        workload: &Workload,
        profile: &KernelProfile,
        rounds: f64,
        step_cycles: f64,
        pass_cycles: f64,
        launch_overhead_s: f64,
    ) -> TimeEstimate {
        let cfg = self.cfg;
        let occ = profile.occupancy(cfg);
        let mem = occupancy_derate(occ, cfg.mem_sat_occupancy, cfg);
        let issue = occupancy_derate(occ, cfg.issue_sat_occupancy, cfg);
        // Bank passes of one block's sweep (the shared phase scales by
        // the block count).
        let block_passes = if workload.blocks > 0.0 {
            profile.smem_passes / workload.blocks
        } else {
            0.0
        };
        let round_cycles = step_cycles + block_passes * pass_cycles;
        let compute_s = profile.flops / (self.peak(workload.pipeline) * issue)
            + rounds * round_cycles / (cfg.clock_hz * issue);
        let dram_s = profile.dram_bytes / (cfg.dram_bw * cfg.dram_efficiency * mem);
        let l2_s = profile.l2_bytes / (cfg.l2_bw * mem);
        let overhead_s = profile.launches.max(1.0) * launch_overhead_s;
        // Bank serialization is inside the rounds; no separate smem term.
        let total_s = compute_s + dram_s.max(l2_s) + overhead_s;
        TimeEstimate {
            compute_s,
            dram_s,
            l2_s,
            smem_s: 0.0,
            overhead_s,
            total_s,
        }
    }

    fn peak(&self, pipeline: Pipeline) -> f64 {
        match pipeline {
            Pipeline::Fp32 => self.cfg.fp32_flops,
            Pipeline::TensorFp16 => self.cfg.fp16_tc_flops,
        }
    }

    /// Prices a batch of candidates in parallel, preserving order: one
    /// [`traffic`](CostModel::traffic) pass over the whole batch, then
    /// [`assemble`](CostModel::assemble) per job.
    ///
    /// # Panics
    ///
    /// As [`traffic`](CostModel::traffic).
    pub fn price_batch(&self, jobs: Vec<(Layout, Workload)>) -> Vec<Estimate> {
        let refs: Vec<(&Layout, &Workload)> = jobs.iter().map(|(l, w)| (l, w)).collect();
        self.traffic_batch(&refs)
            .iter()
            .zip(&jobs)
            .map(|(tc, (_, w))| self.assemble(w, tc))
            .collect()
    }

    /// The traffic pass of a batch, in order: probe → trace → record.
    ///
    /// The traffic memo is probed on the calling thread first (spawned
    /// threads would see fresh thread-locals): warm geometries are
    /// answered inline without compiling their layouts, and only the
    /// cold jobs are [traced](CostModel::trace), each compiling its
    /// layout on the thread that replays it. The cold jobs form one
    /// queue behind an atomic cursor: the calling thread works it, and
    /// when two or more are cold, so do `cores − 1` scoped helpers, so
    /// a slow trace never leaves a core idle behind a fixed split.
    /// Fresh traces are recorded back into the calling thread's memo.
    fn traffic_batch(&self, jobs: &[(&Layout, &Workload)]) -> Vec<TrafficCost> {
        let mut keys: Vec<String> = jobs.iter().map(|&(l, w)| self.memo_key(l, w)).collect();
        let mut traffic: Vec<Option<TrafficCost>> = vec![None; jobs.len()];
        let mut cold: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            match traffic::lookup(key) {
                Some(tc) => traffic[i] = Some(tc),
                None => cold.push(i),
            }
        }
        if cold.is_empty() {
            return traffic.into_iter().map(|tc| tc.expect("hit")).collect();
        }
        let next = AtomicUsize::new(0);
        let work = || {
            let mut traced = Vec::new();
            while let Some(&i) = cold.get(next.fetch_add(1, Ordering::Relaxed)) {
                traced.push((i, self.trace(jobs[i].0, jobs[i].1)));
            }
            traced
        };
        let helpers = if cold.len() < 2 {
            0
        } else {
            cores().min(cold.len()) - 1
        };
        let traced = std::thread::scope(|s| {
            let handles: Vec<_> = (0..helpers).map(|_| s.spawn(work)).collect();
            let mut traced = work();
            for h in handles {
                traced.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            }
            traced
        });
        for (i, tc) in traced {
            traffic[i] = Some(tc);
        }
        for &i in &cold {
            traffic::insert(std::mem::take(&mut keys[i]), traffic[i].expect("traced"));
        }
        traffic.into_iter().map(|tc| tc.expect("traced")).collect()
    }
}

/// The cores [`CostModel::traffic_batch`] spreads cold traces over,
/// queried once: `available_parallelism` reads cgroup files, which
/// would cost more than a batch of memo hits.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// The device fields a trace replay reads, and all it reads: a global
/// phase's sector width, a shared phase's bank geometry and a tile
/// phase's L2 capacity. [`replay`] sees the device only through this
/// value, and `CostModel::memo_key` renders each field into the key
/// segment of the phase that reads it, so no unkeyed field can reach
/// a trace.
#[derive(Clone, Copy, Debug)]
struct TraceGeometry {
    sector_bytes: usize,
    smem_banks: usize,
    bank_bytes: usize,
    l2_bytes: usize,
}

impl TraceGeometry {
    fn of(cfg: &GpuConfig) -> TraceGeometry {
        TraceGeometry {
            sector_bytes: cfg.sector_bytes,
            smem_banks: cfg.smem_banks,
            bank_bytes: cfg.bank_bytes,
            l2_bytes: cfg.l2_bytes,
        }
    }
}

/// Replays the phases and accumulates their traffic totals — the
/// uncached body of tier 1. `layout` is the compiled layout, `None`
/// only for workloads without phases.
fn replay(geo: TraceGeometry, layout: Option<&ConcreteLayout>, workload: &Workload) -> TrafficCost {
    let mut tc = TrafficCost::default();
    for phase in &workload.phases {
        match phase {
            Phase::Global {
                map,
                elem_bytes,
                scale,
                l2,
            } => {
                let mut moved = 0f64;
                let mut cache = l2.map(|m| Cache::new(m.lines, m.assoc));
                let mut sectors = Vec::with_capacity(map.warp);
                map.replay(layout, |idx| {
                    moved += global_warp(
                        geo.sector_bytes,
                        idx,
                        *elem_bytes,
                        cache.as_mut(),
                        &mut sectors,
                    );
                });
                let stats = cache.map(|c| c.stats()).unwrap_or_default();
                tc.hits += stats.hits;
                tc.misses += stats.misses;
                tc.l2_bytes += moved * scale;
                tc.dram_bytes += match l2 {
                    Some(_) => stats.misses as f64 * geo.sector_bytes as f64 * scale,
                    // No L2 filtering: streamed straight to DRAM.
                    None => moved * scale,
                };
            }
            Phase::Shared { map, scale } => {
                let mut passes = 0f64;
                map.replay(layout, |idx| {
                    let addrs = idx.iter().map(|&i| i * 4);
                    passes +=
                        bank_passes(addrs, idx.len(), geo.smem_banks, geo.bank_bytes).passes as f64;
                });
                tc.smem_passes += passes * scale;
            }
            Phase::TileTouches { waves } => {
                let mut tiles = TileCache::new(geo.l2_bytes);
                let mut touched = 0f64;
                waves.replay(layout.expect("tile phases read the layout"), |id, bytes| {
                    tiles.touch(id, bytes);
                    touched += bytes as f64;
                });
                tc.l2_bytes += touched;
                tc.dram_bytes += tiles.miss_bytes() as f64;
                tc.hits += tiles.hits();
                tc.misses += tiles.misses();
            }
        }
    }
    tc
}

/// Moved bytes of one global warp access on `sector_bytes`-wide
/// sectors, which also go through `cache` when there is an L2. When the
/// width divides the sector, an element at a non-negative index lies in
/// one sector, so the warp's sorted L2 sectors are also the coalescer's
/// sector set, and their count prices the moved bytes.
fn global_warp(
    sector_bytes: usize,
    idx: &[i64],
    elem_bytes: usize,
    cache: Option<&mut Cache>,
    sectors: &mut Vec<i64>,
) -> f64 {
    let Some(cache) = cache else {
        return coalesce_elems(idx, elem_bytes, 0, sector_bytes).moved_bytes as f64;
    };
    let (elem, sector) = (elem_bytes as i64, sector_bytes as i64);
    sectors.clear();
    sectors.extend(idx.iter().map(|&i| i * elem / sector));
    sectors.sort_unstable();
    sectors.dedup();
    for &s in sectors.iter() {
        cache.access(s);
    }
    if sector % elem == 0 && idx.iter().all(|&i| i >= 0) {
        (sectors.len() * sector_bytes) as f64
    } else {
        coalesce_elems(idx, elem_bytes, 0, sector_bytes).moved_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessMap, Coord, Lane};
    use crate::coalesce::coalesce_elems_on;
    use crate::config::a100;
    use crate::score::{BlockResources, Phase, Workload};

    fn additive_workload(rounds: f64, launches: f64) -> Workload {
        Workload {
            pipeline: Pipeline::Fp32,
            flops: 0.0,
            useful_bytes: 1e6,
            streamed_dram_bytes: 1e6,
            streamed_l2_bytes: 1e6,
            blocks: 8.0,
            launches,
            resources: BlockResources::default(),
            mode: PricingMode::AdditiveLaunch {
                rounds,
                step_cycles: 100.0,
                pass_cycles: 5.0,
                launch_overhead_s: 2.0e-6,
            },
            phases: vec![Phase::Shared {
                map: AccessMap {
                    flat: true,
                    ..AccessMap::new(vec![], 32, 32, vec![vec![Coord(0, vec![], Lane::Mul(1))]])
                },
                // One conflict-free pass per block.
                scale: 8.0,
            }],
        }
    }

    #[test]
    fn additive_terms_sum_instead_of_overlapping() {
        let cfg = a100();
        let model = CostModel::new(&cfg);
        let layout = Layout::identity([64i64]).unwrap();
        let e = model.price(&layout, &additive_workload(10.0, 4.0));
        let b = e.breakdown;
        // compute = rounds * (step + passes_per_block * pass_cycles) / clock.
        let want_compute = 10.0 * (100.0 + 1.0 * 5.0) / cfg.clock_hz;
        assert!((b.compute_s - want_compute).abs() < 1e-15);
        assert!((b.overhead_s - 4.0 * 2.0e-6).abs() < 1e-18);
        assert!((b.total_s - (b.compute_s + b.dram_s + b.overhead_s)).abs() < 1e-15);
        assert_eq!(b.smem_s, 0.0, "bank passes priced inside the rounds");
    }

    #[test]
    fn additive_rounds_scale_compute_linearly() {
        let cfg = a100();
        let model = CostModel::new(&cfg);
        let layout = Layout::identity([64i64]).unwrap();
        let e1 = model.price(&layout, &additive_workload(10.0, 1.0));
        let e2 = model.price(&layout, &additive_workload(20.0, 1.0));
        assert!((e2.breakdown.compute_s / e1.breakdown.compute_s - 2.0).abs() < 1e-12);
    }

    /// A hand-built workload: one `Phase::Global` at scale 3 replaying
    /// `warps` — one flat map each, `base + stride·lane` over 32 lanes —
    /// through a small L2, so that they both hit and evict.
    fn global_workload(elem_bytes: usize, warps: &[(i64, i64)]) -> Workload {
        let maps = warps
            .iter()
            .map(|&(base, stride)| vec![Coord(base, vec![], Lane::Mul(stride))])
            .collect();
        Workload {
            pipeline: Pipeline::Fp32,
            flops: 0.0,
            useful_bytes: 0.0,
            streamed_dram_bytes: 0.0,
            streamed_l2_bytes: 0.0,
            blocks: 1.0,
            launches: 1.0,
            resources: BlockResources::default(),
            mode: PricingMode::Roofline {
                wave_quantized: false,
            },
            phases: vec![Phase::Global {
                map: AccessMap {
                    flat: true,
                    ..AccessMap::new(vec![], 32, 32, maps)
                },
                elem_bytes,
                scale: 3.0,
                l2: Some(crate::score::L2Model {
                    lines: 64,
                    assoc: 4,
                }),
            }],
        }
    }

    /// The `Phase::Global` arm as it was before the one-sort path:
    /// moved bytes from the coalescer, then a second sort for the L2.
    fn coalescer_path(cfg: &GpuConfig, elem_bytes: usize, warps: &[Vec<i64>]) -> TrafficCost {
        let mut moved = 0f64;
        let mut cache = Cache::new(64, 4);
        for idx in warps {
            moved += coalesce_elems_on(idx, elem_bytes, 0, cfg).moved_bytes as f64;
            let mut sectors: Vec<i64> = idx
                .iter()
                .map(|&i| i * elem_bytes as i64 / cfg.sector_bytes as i64)
                .collect();
            sectors.sort_unstable();
            sectors.dedup();
            for &s in &sectors {
                cache.access(s);
            }
        }
        let stats = cache.stats();
        TrafficCost {
            dram_bytes: stats.misses as f64 * cfg.sector_bytes as f64 * 3.0,
            l2_bytes: moved * 3.0,
            smem_passes: 0.0,
            hits: stats.hits,
            misses: stats.misses,
        }
    }

    /// Widths that divide the sector take one sort per warp; the traffic
    /// it gives equals the coalescer path field for field on 32- and
    /// 64-byte sectors, over unit-stride, strided, broadcast, reversed
    /// and repeated warps through the whole `Phase::Global` arm (scale
    /// and L2 included), and over shuffled and empty warps, which no
    /// access map expresses, through `global_warp` alone. A 12-byte
    /// width, whose elements straddle sectors, keeps the coalescer's
    /// count — as does a warp with a negative lane.
    #[test]
    fn one_sort_sector_path_matches_the_coalescer_path() {
        // (base, stride): lane l reads base + stride·l.
        let strided = [(0, 1), (0, 9), (7, 0), (31, -1), (5, 101), (-20, 3), (0, 1)];
        let warps: Vec<Vec<i64>> = strided
            .iter()
            .map(|&(base, stride)| (0..32).map(|l| base + stride * l).collect())
            .collect();
        let mut shuffled: Vec<i64> = (0..32).map(|l| (l * 13) % 32 + 40).collect();
        shuffled.swap(3, 17);
        let layout = Layout::identity([64i64]).unwrap();
        for sector in [32usize, 64] {
            let cfg = GpuConfig {
                sector_bytes: sector,
                ..a100()
            };
            for elem in [1usize, 2, 4, 8, 32, 12] {
                let wl = global_workload(elem, &strided);
                let got = CostModel::new(&cfg).traffic(&layout, &wl);
                let want = coalescer_path(&cfg, elem, &warps);
                assert_eq!(got, want, "elem {elem} on {sector}-byte sectors");
                assert!(got.hits > 0 && got.misses > 0);
                for warp in [shuffled.clone(), Vec::new()] {
                    let mut cache = Cache::new(64, 4);
                    let moved = global_warp(sector, &warp, elem, Some(&mut cache), &mut Vec::new());
                    let want = coalescer_path(&cfg, elem, std::slice::from_ref(&warp));
                    assert_eq!(moved * 3.0, want.l2_bytes, "elem {elem}: {warp:?}");
                    let stats = cache.stats();
                    assert_eq!((stats.hits, stats.misses), (want.hits, want.misses));
                }
            }
        }
    }

    #[test]
    fn mode_names_are_stable() {
        for wave_quantized in [false, true] {
            assert_eq!(PricingMode::Roofline { wave_quantized }.name(), "roofline");
        }
        assert_eq!(
            PricingMode::AdditiveLaunch {
                rounds: 0.0,
                step_cycles: 0.0,
                pass_cycles: 0.0,
                launch_overhead_s: 0.0
            }
            .name(),
            "additive-launch"
        );
    }
}
