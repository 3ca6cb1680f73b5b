//! The scoring vocabulary: what a kernel touches ([`Workload`],
//! [`Phase`]) and what pricing it returns ([`Estimate`]).
//!
//! Pricing itself is [`crate::CostModel::price`] (or
//! [`crate::CostModel::price_batch`] for many candidates in parallel),
//! which composes the crate's primitive models — warp coalescing
//! ([`crate::coalesce`]), shared-memory bank serialization
//! ([`crate::smem`]), sector- and tile-granular L2 filtering
//! ([`crate::cache`] / [`crate::tilecache`]) and the timing model
//! ([`crate::timing`]) — under the workload's [`PricingMode`].
//!
//! A [`Workload`] describes *what* a kernel touches in logical terms;
//! the [`lego_core::Layout`] under evaluation decides *where* those
//! touches land. The cost model compiles the layout once into a
//! [`ConcreteLayout`]; the workload's trace generators receive that and
//! emit warp-level element indices (or tile touches) through a callback,
//! so traces never have to be materialized in memory.

use lego_core::{ConcreteLayout, Layout};

use crate::model::PricingMode;
use crate::timing::{Pipeline, TimeEstimate};

/// Generator of warp-level element-index groups: called with the
/// compiled layout under evaluation and a sink receiving one warp's flat
/// element indices per call.
pub type AddrGen = Box<dyn Fn(&ConcreteLayout, &mut dyn FnMut(&[i64])) + Send + Sync>;

/// Generator of tile-granular touches: called with the compiled layout
/// under evaluation and a sink receiving `(tile_id, bytes)` per touch,
/// in execution order.
pub type TouchGen = Box<dyn Fn(&ConcreteLayout, &mut dyn FnMut(i64, usize)) + Send + Sync>;

/// A sector-granular L2 model for [`Phase::Global`] traffic.
#[derive(Clone, Copy, Debug)]
pub struct L2Model {
    /// Number of cache lines (sectors).
    pub lines: usize,
    /// Associativity.
    pub assoc: usize,
}

/// One traffic phase of a workload.
pub enum Phase {
    /// Global-memory warp accesses: each emitted warp is coalesced into
    /// `cfg.sector_bytes` sectors; the sector stream is filtered through
    /// the workload's L2 model (if any) to split L2 from DRAM traffic.
    Global {
        /// The warp trace.
        trace: AddrGen,
        /// Element size in bytes.
        elem_bytes: usize,
        /// How many times the representative trace repeats.
        scale: f64,
    },
    /// Shared-memory warp accesses, serialized by bank conflicts.
    Shared {
        /// The warp trace (element indices into the staging buffer).
        trace: AddrGen,
        /// How many times the representative trace repeats.
        scale: f64,
    },
    /// Tile-granular touches filtered through an LRU of L2 capacity —
    /// the wave-reuse model of the matmul driver.
    TileTouches {
        /// The touch trace.
        trace: TouchGen,
        /// How many times the representative trace repeats.
        scale: f64,
    },
    /// Pre-aggregated traffic charged directly to the DRAM and L2
    /// terms, without cache filtering — for workloads (LUD panels)
    /// whose reuse is modeled analytically at panel granularity.
    Streamed {
        /// Bytes charged to the DRAM term.
        dram_bytes: f64,
        /// Bytes charged to the L2 term.
        l2_bytes: f64,
    },
}

/// Per-thread-block resource footprint of a workload's kernel — feeds
/// the occupancy term of [`crate::timing::estimate`]. The zero default
/// means "unspecified": full occupancy, no derating.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BlockResources {
    /// Warps per thread block.
    pub warps_per_block: f64,
    /// Registers allocated per thread block.
    pub regs_per_block: f64,
    /// Shared memory per thread block in bytes.
    pub smem_per_block: f64,
}

/// A workload description: fixed logical structure, layout left free.
pub struct Workload {
    /// Display name.
    pub name: String,
    /// Compute pipeline the kernel saturates.
    pub pipeline: Pipeline,
    /// Floating-point work (layout-independent).
    pub flops: f64,
    /// Useful bytes (for bandwidth accounting).
    pub useful_bytes: f64,
    /// Streaming traffic not covered by the traces (e.g. result
    /// writeback) — added to both DRAM and L2 terms.
    pub streamed_bytes: f64,
    /// Thread blocks launched.
    pub blocks: f64,
    /// Kernel launches.
    pub launches: f64,
    /// Whether compute time is wave-quantized (a partial last wave costs
    /// a full wave).
    pub wave_quantized: bool,
    /// Sector-granular L2 for [`Phase::Global`] traffic; `None` sends
    /// all coalesced traffic to DRAM (streaming kernels).
    pub l2: Option<L2Model>,
    /// Per-block resource footprint for the occupancy model.
    pub resources: BlockResources,
    /// How the bottleneck terms combine into a runtime (roofline for
    /// overlapped kernels, additive for dependency-serialized ones).
    pub mode: PricingMode,
    /// Geometry fingerprint prefix for the traffic memo (see
    /// [`crate::traffic`]): a stable string covering *every* parameter
    /// the phase traces read — builder params and the device the
    /// closures were built against. `None` (the default for hand-built
    /// workloads) keeps the closure-carrying phases uncacheable; only
    /// the producer that wrote the closures can promise completeness,
    /// so cacheability is opt-in at construction. The cost model
    /// appends the pricing-device geometry and a structural layout
    /// fingerprint before using it as a memo key.
    pub traffic_key: Option<String>,
    /// The traffic phases.
    pub phases: Vec<Phase>,
}

/// The scored result of one (layout, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Final runtime estimate in seconds.
    pub time_s: f64,
    /// Bottleneck breakdown.
    pub breakdown: TimeEstimate,
    /// DRAM bytes moved.
    pub dram_bytes: f64,
    /// L2↔SM bytes moved.
    pub l2_bytes: f64,
    /// Bank-conflict-serialized shared-memory passes.
    pub smem_passes: f64,
    /// Hit rate of the cache model(s), traffic-weighted.
    pub l2_hit_rate: f64,
    /// FLOPs of the workload (copied through for throughput helpers).
    pub flops: f64,
    /// Useful bytes of the workload.
    pub useful_bytes: f64,
}

impl Estimate {
    /// Achieved TFLOP/s.
    pub fn tflops(&self) -> f64 {
        self.flops / self.time_s / 1e12
    }

    /// Achieved useful GB/s.
    pub fn gbps(&self) -> f64 {
        self.useful_bytes / self.time_s / 1e9
    }
}

/// One unit of batch work: a candidate layout plus the workload it is
/// scored against (workloads may differ per candidate, e.g. tile sizes).
pub type ScoreJob = (Layout, Workload);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::a100;
    use crate::model::CostModel;

    fn streaming_workload(stride: i64) -> Workload {
        Workload {
            name: format!("stream-stride-{stride}"),
            pipeline: Pipeline::Fp32,
            flops: 0.0,
            useful_bytes: 32.0 * 4.0 * 1000.0,
            streamed_bytes: 0.0,
            blocks: 1.0,
            launches: 1.0,
            wave_quantized: false,
            l2: None,
            resources: BlockResources::default(),
            mode: PricingMode::Roofline,
            traffic_key: None,
            phases: vec![Phase::Global {
                trace: Box::new(move |layout, sink| {
                    let idx: Vec<i64> = (0..32)
                        .map(|l| layout.apply(&[l * stride]).unwrap())
                        .collect();
                    sink(&idx);
                }),
                elem_bytes: 4,
                scale: 1000.0,
            }],
        }
    }

    #[test]
    fn strided_stream_scores_slower_than_unit_stride() {
        let cfg = a100();
        let model = CostModel::new(&cfg);
        let layout = Layout::identity([100_000i64]).unwrap();
        let unit = model.price(&layout, &streaming_workload(1));
        let strided = model.price(&layout, &streaming_workload(64));
        assert!(strided.time_s > unit.time_s);
        assert!(strided.dram_bytes > unit.dram_bytes);
    }

    #[test]
    fn batch_matches_sequential() {
        let cfg = a100();
        let jobs: Vec<ScoreJob> = (1..9)
            .map(|s| {
                (
                    Layout::identity([100_000i64]).unwrap(),
                    streaming_workload(s),
                )
            })
            .collect();
        let model = CostModel::new(&cfg);
        let seq: Vec<Estimate> = jobs.iter().map(|(l, w)| model.price(l, w)).collect();
        let par = model.price_batch(jobs);
        assert_eq!(seq, par);
    }

    #[test]
    fn shared_phase_counts_conflict_passes() {
        let cfg = a100();
        let layout = Layout::identity([32i64, 32]).unwrap();
        // Column walk through an unswizzled 32x32 tile: 32-way conflicts.
        let w = Workload {
            name: "smem".into(),
            pipeline: Pipeline::Fp32,
            flops: 0.0,
            useful_bytes: 0.0,
            streamed_bytes: 0.0,
            blocks: 1.0,
            launches: 1.0,
            wave_quantized: false,
            l2: None,
            resources: BlockResources::default(),
            mode: PricingMode::Roofline,
            traffic_key: None,
            phases: vec![Phase::Shared {
                trace: Box::new(|layout, sink| {
                    let idx: Vec<i64> = (0..32).map(|r| layout.apply(&[r, 0]).unwrap()).collect();
                    sink(&idx);
                }),
                scale: 1.0,
            }],
        };
        let e = CostModel::new(&cfg).price(&layout, &w);
        assert_eq!(e.smem_passes, 32.0);
    }
}
