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

use lego_core::{ConcreteLayout, Layout};

use crate::cache::Cache;
use crate::coalesce::coalesce_elems_on;
use crate::config::GpuConfig;
use crate::score::{Estimate, Phase, Workload};
use crate::smem::bank_conflicts_elems_on;
use crate::tilecache::TileCache;
use crate::timing::{estimate, occupancy_derate, KernelProfile, Pipeline, TimeEstimate};
use crate::traffic::{self, TrafficCost};

/// How a workload's bottleneck terms combine into a runtime.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum PricingMode {
    /// Overlapped bulk-synchronous execution: runtime is the *maximum*
    /// of the compute / DRAM / L2 / shared-memory terms plus launch
    /// overhead — the standard roofline. Used by matmul, transpose,
    /// stencil and rowwise workloads.
    #[default]
    Roofline,
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
            PricingMode::Roofline => "roofline",
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

    /// Tier 1: the trace-driven traffic pass. When the workload carries
    /// a [`traffic_key`](Workload::traffic_key), the result is memoized
    /// in this thread's geometry cache (see [`crate::traffic`]);
    /// keyless workloads replay the trace unconditionally. This is the
    /// one-job case of the batch pass behind
    /// [`price_batch`](CostModel::price_batch).
    ///
    /// The layout is [compiled](Layout::compile) at most once, and only
    /// when some phase reads it; the compiled form serves both the memo
    /// key and the trace.
    ///
    /// # Panics
    ///
    /// When a phase reads the layout and it does not compile (symbolic
    /// dims or a broken `GenP`): a traced layout must be concrete.
    pub fn traffic(&self, layout: &Layout, workload: &Workload) -> TrafficCost {
        self.traffic_batch(&[(layout, workload)])[0]
    }

    /// The full memo key of a cacheable (layout, workload) pair, or
    /// `None` when the pair must be traced fresh. Built from the
    /// producer's geometry prefix plus everything the traffic pass
    /// reads *outside* the trace closures: the pricing device's traffic
    /// geometry, the workload's L2 model and per-phase scalars, and the
    /// compiled layout's [fingerprint](ConcreteLayout::fingerprint)
    /// (`layout` is `None` exactly when no phase reads the layout). The
    /// trace closures themselves are the only trust gap, which is
    /// exactly what the producer's key opt-in promises to cover.
    fn memo_key(&self, layout: Option<&ConcreteLayout>, workload: &Workload) -> Option<String> {
        let prefix = workload.traffic_key.as_deref()?;
        let cfg = self.cfg;
        let mut key = String::with_capacity(prefix.len() + 96);
        key.push_str(prefix);
        use std::fmt::Write as _;
        let _ = write!(
            key,
            "|{}:w{}:s{}:c{}:b{}x{}:m{}",
            cfg.tag,
            cfg.warp_size,
            cfg.sector_bytes,
            cfg.l2_bytes,
            cfg.smem_banks,
            cfg.bank_bytes,
            cfg.sm_count
        );
        match workload.l2 {
            Some(m) => {
                let _ = write!(key, "|l2:{}:{}", m.lines, m.assoc);
            }
            None => key.push_str("|l2-"),
        }
        for phase in &workload.phases {
            match phase {
                Phase::Global {
                    elem_bytes, scale, ..
                } => {
                    let _ = write!(key, "|G{}:{:x}", elem_bytes, scale.to_bits());
                }
                Phase::Shared { scale, .. } => {
                    let _ = write!(key, "|S{:x}", scale.to_bits());
                }
                Phase::TileTouches { scale, .. } => {
                    let _ = write!(key, "|T{:x}", scale.to_bits());
                }
                Phase::Streamed {
                    dram_bytes,
                    l2_bytes,
                } => {
                    let _ = write!(key, "|X{:x}:{:x}", dram_bytes.to_bits(), l2_bytes.to_bits());
                }
            }
        }
        match layout {
            // No phase receives the layout: traffic is layout-independent.
            None => key.push_str("|-"),
            Some(layout) => {
                key.push('|');
                key.push_str(&layout.fingerprint());
            }
        }
        Some(key)
    }

    /// Replays the phase traces and accumulates their traffic totals —
    /// the uncached body of tier 1.
    /// `layout` is the compiled layout, `None` only for workloads whose
    /// phases never read it.
    fn trace_traffic(&self, layout: Option<&ConcreteLayout>, workload: &Workload) -> TrafficCost {
        let cfg = self.cfg;
        let layout = || layout.expect("layout compiled for a layout-reading phase");
        let mut l2_bytes = 0f64;
        let mut dram_bytes = 0f64;
        let mut smem_passes = 0f64;
        let mut hits = 0u64;
        let mut misses = 0u64;

        for phase in &workload.phases {
            match phase {
                Phase::Global {
                    trace,
                    elem_bytes,
                    scale,
                } => {
                    let mut moved = 0f64;
                    let mut cache = workload.l2.map(|m| Cache::new(m.lines, m.assoc));
                    let mut sectors: Vec<i64> = Vec::with_capacity(cfg.warp_size);
                    trace(layout(), &mut |idx: &[i64]| {
                        let c = coalesce_elems_on(idx, *elem_bytes, 0, cfg);
                        moved += c.moved_bytes as f64;
                        if let Some(cache) = cache.as_mut() {
                            sectors.clear();
                            sectors.extend(
                                idx.iter()
                                    .map(|&i| i * *elem_bytes as i64 / cfg.sector_bytes as i64),
                            );
                            sectors.sort_unstable();
                            sectors.dedup();
                            for &s in sectors.iter() {
                                cache.access(s);
                            }
                        }
                    });
                    l2_bytes += moved * scale;
                    match cache {
                        Some(cache) => {
                            let stats = cache.stats();
                            hits += stats.hits;
                            misses += stats.misses;
                            dram_bytes += stats.misses as f64 * cfg.sector_bytes as f64 * scale;
                        }
                        // No L2 filtering: streamed straight to DRAM.
                        None => dram_bytes += moved * scale,
                    }
                }
                Phase::Shared { trace, scale } => {
                    let mut passes = 0f64;
                    trace(layout(), &mut |idx: &[i64]| {
                        passes += bank_conflicts_elems_on(idx, 4, cfg).passes as f64;
                    });
                    smem_passes += passes * scale;
                }
                Phase::TileTouches { trace, scale } => {
                    let mut tiles = TileCache::new(cfg.l2_bytes);
                    let mut touched = 0f64;
                    trace(layout(), &mut |id: i64, bytes: usize| {
                        tiles.touch(id, bytes);
                        touched += bytes as f64;
                    });
                    l2_bytes += touched * scale;
                    dram_bytes += tiles.miss_bytes() as f64 * scale;
                    hits += tiles.hits();
                    misses += tiles.misses();
                }
                Phase::Streamed {
                    dram_bytes: d,
                    l2_bytes: l,
                } => {
                    dram_bytes += d;
                    l2_bytes += l;
                }
            }
        }

        TrafficCost {
            dram_bytes,
            l2_bytes,
            smem_passes,
            hits,
            misses,
        }
    }

    /// Tier 2: the closed-form timing assembly. Combines a traced (or
    /// memoized) [`TrafficCost`] with the variant-dependent parts of
    /// the workload — flops, resources, launches, pricing mode — into
    /// the final [`Estimate`]. Cheap enough that N expression variants
    /// per geometry cost one trace replay plus N calls here.
    pub fn assemble(&self, workload: &Workload, tc: &TrafficCost) -> Estimate {
        let profile = KernelProfile {
            flops: workload.flops,
            dram_bytes: tc.dram_bytes + workload.streamed_bytes,
            l2_bytes: tc.l2_bytes + workload.streamed_bytes,
            smem_passes: tc.smem_passes,
            blocks: workload.blocks,
            launches: workload.launches,
            warps_per_block: workload.resources.warps_per_block,
            regs_per_block: workload.resources.regs_per_block,
            smem_per_block: workload.resources.smem_per_block,
        };
        let t = match workload.mode {
            PricingMode::Roofline => self.price_roofline(workload, &profile),
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
    ///   `flops/peak · ⌈blocks/sms⌉·sms/blocks` (≥ the plain floor),
    ///   because a partial wave bills as a full one.
    /// * **memory floor** — guaranteed bytes at un-derated peak
    ///   bandwidth. Guaranteed traffic is `streamed_bytes` plus the
    ///   closure-free [`Phase::Streamed`] charges; trace-derived
    ///   traffic only ever *adds* to it, and the bandwidth derate ≤ 1.
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
        let mut dram = workload.streamed_bytes;
        let mut l2 = workload.streamed_bytes;
        for phase in &workload.phases {
            if let Phase::Streamed {
                dram_bytes,
                l2_bytes,
            } = phase
            {
                dram += dram_bytes;
                l2 += l2_bytes;
            }
        }
        let mem_floor = (dram / (cfg.dram_bw * cfg.dram_efficiency)).max(l2 / cfg.l2_bw);
        let mut compute_floor = workload.flops / self.peak(workload.pipeline);
        match workload.mode {
            PricingMode::Roofline => {
                if workload.wave_quantized && workload.blocks > 0.0 {
                    let sms = cfg.sm_count as f64;
                    compute_floor *= (workload.blocks / sms).ceil() * sms / workload.blocks;
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
    /// wave quantization when the workload asks for it.
    fn price_roofline(&self, workload: &Workload, profile: &KernelProfile) -> TimeEstimate {
        let cfg = self.cfg;
        let mut t = estimate(profile, workload.pipeline, cfg);
        if workload.wave_quantized && workload.blocks > 0.0 {
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
    /// Each layout is compiled once on the calling thread (when its
    /// workload reads it) and serves both its memo key and its trace.
    /// The traffic memo is probed on the calling thread first (spawned
    /// threads would see fresh thread-locals): warm geometries are
    /// answered inline, and only the cold traces fan out, with their
    /// compiled layouts, over `available_parallelism` OS threads —
    /// inline when fewer than `INLINE_BATCH` remain, since spawning
    /// costs more than a handful of traces. Fresh traces are recorded
    /// back into the calling thread's memo. Chunks are sized so no
    /// spawned thread receives an empty tail.
    fn traffic_batch(&self, jobs: &[(&Layout, &Workload)]) -> Vec<TrafficCost> {
        let compiled: Vec<Option<ConcreteLayout>> =
            jobs.iter().map(|&(l, w)| compile_for(l, w)).collect();
        let mut keys: Vec<Option<String>> = jobs
            .iter()
            .zip(&compiled)
            .map(|(&(_, w), c)| self.memo_key(c.as_ref(), w))
            .collect();
        let mut traffic: Vec<Option<TrafficCost>> = vec![None; jobs.len()];
        let mut cold: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            match key.as_deref().and_then(traffic::lookup) {
                Some(tc) => traffic[i] = Some(tc),
                None => cold.push(i),
            }
        }
        let threads = if cold.len() < Self::INLINE_BATCH {
            1
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(cold.len())
        };
        if threads <= 1 {
            for &i in &cold {
                traffic[i] = Some(self.trace_traffic(compiled[i].as_ref(), jobs[i].1));
            }
        } else {
            let mut traced: Vec<Option<TrafficCost>> = vec![None; cold.len()];
            let chunk = cold.len().div_ceil(threads);
            let (compiled_ref, cold_ref) = (&compiled, &cold);
            std::thread::scope(|s| {
                for (ci, out) in traced.chunks_mut(chunk).enumerate() {
                    s.spawn(move || {
                        for (k, slot) in out.iter_mut().enumerate() {
                            let i = cold_ref[ci * chunk + k];
                            *slot = Some(self.trace_traffic(compiled_ref[i].as_ref(), jobs[i].1));
                        }
                    });
                }
            });
            for (k, tc) in traced.into_iter().enumerate() {
                traffic[cold[k]] = tc;
            }
        }
        for &i in &cold {
            if let Some(key) = keys[i].take() {
                traffic::insert(key, traffic[i].expect("traced"));
            }
        }
        traffic.into_iter().map(|tc| tc.expect("traced")).collect()
    }

    /// Below this many cold traces, [`traffic_batch`](Self::traffic_batch)
    /// stays on the calling thread: thread spawn + scope teardown cost
    /// more than the traces themselves.
    const INLINE_BATCH: usize = 8;
}

/// Compiles `layout` when some phase of `workload` reads it (every
/// phase but [`Phase::Streamed`]); `None` for layout-free workloads.
///
/// # Panics
///
/// When the layout is read but does not compile.
fn compile_for(layout: &Layout, workload: &Workload) -> Option<ConcreteLayout> {
    let reads_layout = workload
        .phases
        .iter()
        .any(|p| !matches!(p, Phase::Streamed { .. }));
    reads_layout.then(|| {
        layout
            .compile()
            .unwrap_or_else(|e| panic!("traced layout must compile: {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::a100;
    use crate::score::{BlockResources, Phase, Workload};

    fn additive_workload(rounds: f64, launches: f64) -> Workload {
        Workload {
            name: "wavefront".into(),
            pipeline: Pipeline::Fp32,
            flops: 0.0,
            useful_bytes: 1e6,
            streamed_bytes: 1e6,
            blocks: 8.0,
            launches,
            wave_quantized: false,
            l2: None,
            resources: BlockResources::default(),
            mode: PricingMode::AdditiveLaunch {
                rounds,
                step_cycles: 100.0,
                pass_cycles: 5.0,
                launch_overhead_s: 2.0e-6,
            },
            traffic_key: None,
            phases: vec![Phase::Shared {
                trace: Box::new(|_layout, sink| {
                    let idx: Vec<i64> = (0..32).collect();
                    sink(&idx);
                }),
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

    #[test]
    fn mode_names_are_stable() {
        assert_eq!(PricingMode::Roofline.name(), "roofline");
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
