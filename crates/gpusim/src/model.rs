//! The device-generic pricing engine: one [`CostModel`] owns the full
//! trace→estimate path.
//!
//! Every estimate, bench or tuner, on any device, is produced by
//! [`CostModel::price`] (or a [`CostModel::traffic_batch`] pass and
//! [`CostModel::assemble`]), so an NW table
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
use crate::traffic::{self, ReplayWork, TrafficCost};

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
    /// parameterized by the device) — memoized per phase geometry — and
    /// [`assemble`](CostModel::assemble) combines the resulting
    /// [`TrafficCost`] with the variant-dependent flops/resources under
    /// the workload's [`PricingMode`].
    pub fn price(&self, layout: &Layout, workload: &Workload) -> Estimate {
        let tc = self.traffic(layout, workload);
        self.assemble(workload, &tc)
    }

    /// Tier 1: the trace-driven traffic pass, memoized per phase in
    /// this thread's geometry cache (see [`crate::traffic`]). This is
    /// the one-job case of [`traffic_batch`](CostModel::traffic_batch).
    ///
    /// The memo keys name the layout by its specification
    /// ([`Layout::key`]), so a hit does no work proportional to the
    /// layout: the layout is [compiled](Layout::compile) only on a miss,
    /// for its trace, and only when a missed phase reads it.
    ///
    /// # Panics
    ///
    /// When a phase reads the layout and the layout does not compile
    /// (symbolic dims, or on a miss a broken `GenP`): a traced layout
    /// must be concrete. When a tile phase's layout does not view its
    /// `rows × tiles_n` tile grid, whether or not the phase reads it.
    pub fn traffic(&self, layout: &Layout, workload: &Workload) -> TrafficCost {
        self.traffic_batch(&[(layout, workload)], || ()).0[0]
    }

    /// The traffic pass without the memo: compiles the layout (when a
    /// phase reads it) and replays every phase, counting the work in
    /// this thread's [`traffic::replay_work`]. What
    /// [`traffic`](CostModel::traffic) returns on a memo miss.
    ///
    /// # Panics
    ///
    /// As [`traffic`](CostModel::traffic).
    pub fn trace(&self, layout: &Layout, workload: &Workload) -> TrafficCost {
        let geo = TraceGeometry::of(self.cfg);
        for phase in &workload.phases {
            check_schedule(layout, phase);
        }
        let compiled = workload
            .phases
            .iter()
            .any(|p| reads_layout(geo, p))
            .then(|| compile(layout));
        let (mut tc, mut work) = (TrafficCost::default(), ReplayWork::default());
        for phase in &workload.phases {
            let (raw, w) = replay(geo, compiled.as_ref(), phase);
            fold(&mut tc, phase, &raw);
            work += w;
        }
        traffic::count_work(work);
        tc
    }

    /// The memo key of one phase: the key format, the phase description
    /// without its `scale` (a global phase's L2 model included), the
    /// device fields its replay reads ([`TraceGeometry`]) and, when the
    /// phase [reads the layout](reads_layout), `layout_key` (the
    /// layout's structural [key](Layout::key)) — everything [`replay`]
    /// reads, rendered exactly. A tile phase whose stream fits the L2
    /// does not read the layout, so its key ends in `|-` and every
    /// schedule of its tile shape shares it. The device itself is not
    /// named, so devices that agree on a phase's fields share its trace;
    /// the scale only multiplies the replayed totals ([`fold`]), so
    /// problems that repeat one block or tile a different number of
    /// times share it too.
    ///
    /// Rendered into `key`, which is cleared first, so a batch probes
    /// all its phases through one buffer.
    fn phase_key(geo: TraceGeometry, phase: &Phase, layout_key: &str, key: &mut String) {
        key.clear();
        key.push_str(traffic::KEY_FORMAT);
        match phase {
            Phase::Global {
                map,
                elem_bytes,
                l2,
                ..
            } => {
                key_ints(key, 'G', &[*elem_bytes as i64, geo.sector_bytes as i64]);
                if let Some(l2) = l2 {
                    key_ints(key, 'L', &[l2.lines as i64, l2.assoc as i64]);
                }
                map.key(key);
            }
            Phase::Shared { map, .. } => {
                key_ints(key, 'S', &[geo.smem_banks as i64, geo.bank_bytes as i64]);
                map.key(key);
            }
            Phase::TileTouches { waves: w } => {
                let bytes = [w.a_bytes, w.b_bytes, geo.l2_bytes].map(|b| b as i64);
                let waves = [
                    w.blocks, w.wave, w.ksteps, w.tiles_n, bytes[0], bytes[1], bytes[2],
                ];
                key_ints(key, 'T', &waves);
            }
        }
        key.push('|');
        key.push_str(if reads_layout(geo, phase) {
            layout_key
        } else {
            "-"
        });
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

    /// An admissible lower bound on [`price`](CostModel::price) with no
    /// trace replay, so it costs nanoseconds and can prune a candidate
    /// before tier 1 runs: the workload [assembled](CostModel::assemble)
    /// with zero replayed traffic.
    ///
    /// Assembly is monotone non-decreasing in every traffic total (each
    /// one only adds bytes or passes to a term that is summed or maxed,
    /// through IEEE operations that are monotone in every operand), and
    /// replayed totals are never negative, so the bound never exceeds
    /// the price — not even by one ulp, and a strict `bound > cutoff`
    /// never prunes a candidate that ties. The same argument covers
    /// `flops`: a workload built without its index-expression term
    /// bounds the annotated one.
    pub fn bound(&self, workload: &Workload) -> f64 {
        self.assemble(workload, &TrafficCost::default()).time_s
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

    /// The traffic pass of a batch, in order: probe → trace → record,
    /// with `meanwhile` run on the calling thread while helpers trace.
    ///
    /// Each phase of each job is probed in the calling thread's memo
    /// first (spawned threads would see fresh thread-locals), under its
    /// own key (see [`crate::traffic`]; a job with no phase probes the
    /// entry of the empty trace); a key already queued by an earlier job
    /// of the batch counts as a hit and waits for that trace. A missed
    /// tile phase that is [resident](crate::TileWaves::resident) in the
    /// L2 is priced in closed form on the spot and recorded at once, so
    /// it queues nothing and starts no helper. A job is traced only when
    /// it queued a phase, and then only those phases, compiling its layout on the thread that
    /// replays it when one of them reads it. The traced jobs form one
    /// queue behind an atomic cursor: when two or more are queued,
    /// `cores − 1` scoped helpers start on it, the calling thread runs
    /// `meanwhile`, and then works the queue too, so a slow trace never
    /// leaves a core idle behind a fixed split. `meanwhile` runs exactly
    /// once, on the calling thread, whether or not anything was traced.
    /// Fresh phase totals are recorded in the calling thread's memo, and
    /// each job's [`TrafficCost`] folds its phases in order.
    ///
    /// # Panics
    ///
    /// As [`traffic`](CostModel::traffic).
    pub fn traffic_batch<R>(
        &self,
        jobs: &[(&Layout, &Workload)],
        meanwhile: impl FnOnce() -> R,
    ) -> (Vec<TrafficCost>, R) {
        let geo = TraceGeometry::of(self.cfg);
        // Each job's phases in order, where their totals come from; per
        // queued phase, its key, job and phase index.
        let mut sources: Vec<Source> = Vec::new();
        let mut queued: Vec<(String, usize, usize)> = Vec::new();
        let (mut key, mut layout_key) = (String::with_capacity(256), String::new());
        for (j, &(layout, wl)) in jobs.iter().enumerate() {
            if wl.phases.is_empty() {
                // One entry stands for the empty trace, so every priced
                // workload probes the memo at least once.
                key.clear();
                key.push_str(traffic::KEY_FORMAT);
                key.push_str("|-");
                if traffic::lookup(&key).is_none() {
                    traffic::insert(key.clone(), TrafficCost::default());
                }
            }
            layout_key.clear();
            if wl.phases.iter().any(|p| reads_layout(geo, p)) {
                if let Err(e) = layout.key(&mut layout_key) {
                    panic!("traced layout must compile: {e}");
                }
            }
            for (p, phase) in wl.phases.iter().enumerate() {
                check_schedule(layout, phase);
                Self::phase_key(geo, phase, &layout_key, &mut key);
                let source = if let Some(q) = queued.iter().position(|(k, ..)| *k == key) {
                    traffic::count_queued_hit();
                    Source::Queued(q)
                } else if let Some(raw) = traffic::lookup(&key) {
                    Source::Memo(raw)
                } else if let Some(raw) = resident(geo, phase) {
                    // Priced in closed form here: nothing to trace, so
                    // no helper starts for it.
                    traffic::insert(key.clone(), raw);
                    Source::Memo(raw)
                } else {
                    queued.push((key.clone(), j, p));
                    Source::Queued(queued.len() - 1)
                };
                sources.push(source);
            }
        }
        // One unit per traced job: its run of `queued`.
        let mut units: Vec<std::ops::Range<usize>> = Vec::new();
        for (q, &(_, j, _)) in queued.iter().enumerate() {
            match units.last_mut() {
                Some(run) if queued[run.start].1 == j => run.end = q + 1,
                _ => units.push(q..q + 1),
            }
        }
        let next = AtomicUsize::new(0);
        let work = || {
            let (mut traced, mut work) = (Vec::new(), ReplayWork::default());
            while let Some(run) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
                let (layout, wl) = jobs[queued[run.start].1];
                let phases = run.clone().map(|q| &wl.phases[queued[q].2]);
                let compiled = phases
                    .clone()
                    .any(|p| reads_layout(geo, p))
                    .then(|| compile(layout));
                for (q, phase) in run.clone().zip(phases) {
                    let (raw, w) = replay(geo, compiled.as_ref(), phase);
                    traced.push((q, raw));
                    work += w;
                }
            }
            (traced, work)
        };
        let helpers = if units.len() < 2 {
            0
        } else {
            cores().min(units.len()) - 1
        };
        let ((traced, done), r) = if helpers == 0 {
            let r = meanwhile();
            (work(), r)
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..helpers).map(|_| s.spawn(work)).collect();
                let r = meanwhile();
                let (mut traced, mut done) = work();
                for h in handles {
                    let (more, w) = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                    traced.extend(more);
                    done += w;
                }
                ((traced, done), r)
            })
        };
        traffic::count_work(done);
        let mut raws = vec![TrafficCost::default(); queued.len()];
        for (q, raw) in traced {
            raws[q] = raw;
        }
        for ((key, ..), raw) in queued.into_iter().zip(&raws) {
            traffic::insert(key, *raw);
        }
        let mut sources = sources.iter();
        let traffic = jobs
            .iter()
            .map(|&(_, wl)| {
                let mut tc = TrafficCost::default();
                for phase in &wl.phases {
                    let raw = match *sources.next().expect("one source per phase") {
                        Source::Memo(raw) => raw,
                        Source::Queued(q) => raws[q],
                    };
                    fold(&mut tc, phase, &raw);
                }
                tc
            })
            .collect();
        (traffic, r)
    }
}

/// Where a phase of a batched job gets its unscaled totals.
#[derive(Clone, Copy)]
enum Source {
    /// A memo hit.
    Memo(TrafficCost),
    /// The trace of the batch's queued phase at this index.
    Queued(usize),
}

/// Whether replaying `phase` on `geo` reads the layout: an access map
/// unless it is flat, and a tile phase unless its stream is
/// [resident](crate::TileWaves::resident) in the L2 — then its price is
/// the same for every schedule, and [`replay`] computes it without one.
fn reads_layout(geo: TraceGeometry, phase: &Phase) -> bool {
    match phase {
        Phase::Global { map, .. } | Phase::Shared { map, .. } => !map.flat,
        Phase::TileTouches { waves } => waves.resident(geo.l2_bytes).is_none(),
    }
}

/// Checks what can be checked of a tile phase's schedule without
/// compiling it: the layout's view is the phase's `rows × tiles_n`
/// tile grid ([`TileWaves`](crate::TileWaves)). A resident stream is
/// priced and keyed without the layout, on the promise that the layout
/// maps the pids one-to-one onto that grid, so a layout built for
/// another tile shape would otherwise pass unnoticed.
///
/// # Panics
///
/// When a tile phase's layout does not view its tile grid.
fn check_schedule(layout: &Layout, phase: &Phase) {
    if let Phase::TileTouches { waves } = phase {
        let grid = [waves.blocks / waves.tiles_n.max(1), waves.tiles_n];
        let view = layout.view().dims();
        assert!(
            view.len() == 2 && view.iter().zip(grid).all(|(d, g)| d.as_const() == Some(g)),
            "tile schedule views {:?}, not the {}x{} tile grid",
            layout.view(),
            grid[0],
            grid[1]
        );
    }
}

/// The layout compiled for a trace.
///
/// # Panics
///
/// When it does not compile: a traced layout must be concrete.
fn compile(layout: &Layout) -> ConcreteLayout {
    layout
        .compile()
        .unwrap_or_else(|e| panic!("traced layout must compile: {e}"))
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
/// value, and `CostModel::phase_key` renders each field into the key
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

/// Replays one phase and returns its unscaled totals — the uncached
/// body of tier 1: a global phase's moved bytes (`l2_bytes`), the bytes
/// past its L2 (`dram_bytes`: `misses × sector`, or every moved byte
/// without an L2) and its L2 hits and misses; a shared phase's bank
/// passes; a tile phase's touched and missed bytes, hits and misses,
/// in closed form when its stream is resident in the L2 and through the
/// LRU tile cache otherwise — and the work the replay did. `layout` is
/// the compiled layout, `None` only when the phase does not [read
/// it](reads_layout).
fn replay(
    geo: TraceGeometry,
    layout: Option<&ConcreteLayout>,
    phase: &Phase,
) -> (TrafficCost, ReplayWork) {
    let mut work = ReplayWork::default();
    let raw = match phase {
        Phase::Global {
            map,
            elem_bytes,
            l2,
            ..
        } => {
            let mut moved = 0f64;
            let mut cache = l2.map(|m| Cache::new(m.lines, m.assoc));
            let mut sectors = Vec::with_capacity(map.warp);
            map.replay(layout, |idx| {
                work.lanes += idx.len() as u64;
                moved += global_warp(
                    geo.sector_bytes,
                    idx,
                    *elem_bytes,
                    cache.as_mut(),
                    &mut sectors,
                );
            });
            let stats = cache.map(|c| c.stats()).unwrap_or_default();
            TrafficCost {
                l2_bytes: moved,
                dram_bytes: match l2 {
                    Some(_) => stats.misses as f64 * geo.sector_bytes as f64,
                    // No L2 filtering: streamed straight to DRAM.
                    None => moved,
                },
                smem_passes: 0.0,
                hits: stats.hits,
                misses: stats.misses,
            }
        }
        Phase::Shared { map, .. } => {
            let mut passes = 0f64;
            map.replay(layout, |idx| {
                work.lanes += idx.len() as u64;
                let addrs = idx.iter().map(|&i| i * 4);
                passes +=
                    bank_passes(addrs, idx.len(), geo.smem_banks, geo.bank_bytes).passes as f64;
            });
            TrafficCost {
                smem_passes: passes,
                ..TrafficCost::default()
            }
        }
        Phase::TileTouches { waves } => match resident(geo, phase) {
            Some(raw) => raw,
            None => {
                let mut tiles = TileCache::new(geo.l2_bytes);
                let mut touched = 0f64;
                let layout = layout.expect("a stream that overflows the L2 reads the layout");
                waves.replay(layout, |id, bytes| {
                    tiles.touch(id, bytes);
                    touched += bytes as f64;
                });
                work.tile_touches = tiles.hits() + tiles.misses();
                TrafficCost {
                    l2_bytes: touched,
                    dram_bytes: tiles.miss_bytes() as f64,
                    smem_passes: 0.0,
                    hits: tiles.hits(),
                    misses: tiles.misses(),
                }
            }
        },
    };
    (raw, work)
}

/// A tile phase's unscaled totals in closed form, when its stream is
/// [resident](crate::TileWaves::resident) in the L2 of `geo`: no replay
/// and no layout. `None` for any other phase.
fn resident(geo: TraceGeometry, phase: &Phase) -> Option<TrafficCost> {
    let Phase::TileTouches { waves } = phase else {
        return None;
    };
    let t = waves.resident(geo.l2_bytes)?;
    Some(TrafficCost {
        l2_bytes: t.touched_bytes as f64,
        dram_bytes: t.miss_bytes as f64,
        smem_passes: 0.0,
        hits: t.hits,
        misses: t.misses,
    })
}

/// Adds one phase's unscaled totals `raw` ([`replay`]) to `tc`, times
/// the phase's `scale` (a tile phase is not scaled). Folding a
/// workload's phases in order from zero is the arithmetic of replaying
/// them into one accumulator, operation for operation.
fn fold(tc: &mut TrafficCost, phase: &Phase, raw: &TrafficCost) {
    match phase {
        Phase::Global { scale, .. } => {
            tc.l2_bytes += raw.l2_bytes * scale;
            tc.dram_bytes += raw.dram_bytes * scale;
        }
        Phase::Shared { scale, .. } => tc.smem_passes += raw.smem_passes * scale,
        Phase::TileTouches { .. } => {
            tc.l2_bytes += raw.l2_bytes;
            tc.dram_bytes += raw.dram_bytes;
        }
    }
    tc.hits += raw.hits;
    tc.misses += raw.misses;
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
