//! The scoring vocabulary: what a kernel touches ([`Workload`],
//! [`Phase`]) and what pricing it returns ([`Estimate`]).
//!
//! Pricing itself is [`crate::CostModel::price`] (or
//! [`crate::CostModel::traffic_batch`] for many candidates in parallel),
//! which composes the crate's primitive models — warp coalescing
//! ([`crate::coalesce`]), shared-memory bank serialization
//! ([`crate::smem`]), sector- and tile-granular L2 filtering
//! ([`crate::cache`] / [`crate::tilecache`]) and the timing model
//! ([`crate::timing`]) — under the workload's [`PricingMode`].
//!
//! A [`Workload`] describes *what* a kernel touches in logical terms;
//! the [`lego_core::Layout`] under evaluation decides *where* those
//! touches land. The traced phases are plain data — an [`AccessMap`]
//! or [`TileWaves`] — which the cost model replays through the layout,
//! compiled once into a [`lego_core::ConcreteLayout`], one warp (or
//! tile touch) at a time, so traces never have to be materialized in
//! memory.
//!
//! Each pricing input lives where the cost model reads it: the L2
//! model on the [`Phase::Global`] it filters, wave quantization on
//! [`PricingMode::Roofline`], and traffic that no phase replays (result
//! writeback, LUD's analytic panel charges) in the workload's
//! `streamed_*` bytes.

use crate::access::{AccessMap, TileWaves};
use crate::model::PricingMode;
use crate::timing::{Pipeline, TimeEstimate};

/// A sector-granular L2 model for [`Phase::Global`] traffic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct L2Model {
    /// Number of cache lines (sectors).
    pub lines: usize,
    /// Associativity.
    pub assoc: usize,
}

/// One traffic phase of a workload.
#[derive(Clone, Debug, PartialEq)]
pub enum Phase {
    /// Global-memory warp accesses: each emitted warp is coalesced into
    /// `cfg.sector_bytes` sectors; the sector stream is filtered through
    /// the phase's L2 model (if any) to split L2 from DRAM traffic.
    Global {
        /// The warp accesses.
        map: AccessMap,
        /// Element size in bytes.
        elem_bytes: usize,
        /// How many times the representative trace repeats.
        scale: f64,
        /// Sector-granular L2, fresh for this phase; `None` sends all
        /// coalesced traffic to DRAM (streaming kernels).
        l2: Option<L2Model>,
    },
    /// Shared-memory warp accesses, serialized by bank conflicts.
    Shared {
        /// The warp accesses (element indices into the staging buffer).
        map: AccessMap,
        /// How many times the representative trace repeats.
        scale: f64,
    },
    /// Tile-granular touches filtered through an LRU of L2 capacity —
    /// the wave-reuse model of the matmul driver.
    TileTouches {
        /// The wave schedule.
        waves: TileWaves,
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
#[derive(Clone, Debug)]
pub struct Workload {
    /// Compute pipeline the kernel saturates.
    pub pipeline: Pipeline,
    /// Floating-point work (layout-independent).
    pub flops: f64,
    /// Useful bytes (for bandwidth accounting).
    pub useful_bytes: f64,
    /// Traffic no phase replays (result writeback, analytically
    /// modeled panels), charged to the DRAM term as is.
    pub streamed_dram_bytes: f64,
    /// Traffic no phase replays, charged to the L2 term as is.
    pub streamed_l2_bytes: f64,
    /// Thread blocks launched.
    pub blocks: f64,
    /// Kernel launches.
    pub launches: f64,
    /// Per-block resource footprint for the occupancy model.
    pub resources: BlockResources,
    /// How the bottleneck terms combine into a runtime (roofline for
    /// overlapped kernels, additive for dependency-serialized ones).
    pub mode: PricingMode,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Coord, Lane};
    use crate::config::a100;
    use crate::model::CostModel;
    use lego_core::Layout;

    fn streaming_workload(stride: i64) -> Workload {
        Workload {
            pipeline: Pipeline::Fp32,
            flops: 0.0,
            useful_bytes: 32.0 * 4.0 * 1000.0,
            streamed_dram_bytes: 0.0,
            streamed_l2_bytes: 0.0,
            blocks: 1.0,
            launches: 1.0,
            resources: BlockResources::default(),
            mode: PricingMode::Roofline {
                wave_quantized: false,
            },
            phases: vec![Phase::Global {
                map: AccessMap::new(
                    vec![],
                    32,
                    32,
                    vec![vec![Coord(0, vec![], Lane::Mul(stride))]],
                ),
                elem_bytes: 4,
                scale: 1000.0,
                l2: None,
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
        let jobs: Vec<(Layout, Workload)> = (1..9)
            .map(|s| {
                (
                    Layout::identity([100_000i64]).unwrap(),
                    streaming_workload(s),
                )
            })
            .collect();
        let model = CostModel::new(&cfg);
        let refs: Vec<(&Layout, &Workload)> = jobs.iter().map(|(l, w)| (l, w)).collect();
        let (traffic, ()) = model.traffic_batch(&refs, || ());
        let par: Vec<Estimate> = jobs
            .iter()
            .zip(&traffic)
            .map(|((_, w), tc)| model.assemble(w, tc))
            .collect();
        let seq: Vec<Estimate> = jobs
            .iter()
            .map(|(l, w)| model.assemble(w, &model.trace(l, w)))
            .collect();
        assert_eq!(seq, par);
    }

    #[test]
    fn shared_phase_counts_conflict_passes() {
        let cfg = a100();
        let layout = Layout::identity([32i64, 32]).unwrap();
        // Column walk through an unswizzled 32x32 tile: 32-way conflicts.
        let w = Workload {
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
            phases: vec![Phase::Shared {
                map: AccessMap::new(
                    vec![],
                    32,
                    32,
                    vec![vec![
                        Coord(0, vec![], Lane::Mul(1)),
                        Coord(0, vec![], Lane::Mul(0)),
                    ]],
                ),
                scale: 1.0,
            }],
        };
        let e = CostModel::new(&cfg).price(&layout, &w);
        assert_eq!(e.smem_passes, 32.0);
    }
}
