//! # gpu-sim — a trace-driven GPU performance model
//!
//! The hardware substrate for the LEGO reproduction: the paper evaluates
//! on an NVIDIA A100; this crate replaces the GPU with an analytic +
//! trace-driven model of exactly the quantities the paper's layout
//! experiments manipulate:
//!
//! * [`coalesce`] — warp-level global-memory sector coalescing;
//! * [`smem`] — shared-memory bank-conflict serialization (NW);
//! * [`cache`] / [`tilecache`] — LRU L2 models at element and tile
//!   granularity (stencils, matmul grouping);
//! * [`timing`] — the bulk-synchronous roofline timing model with a
//!   per-SM occupancy term;
//! * [`roofline`] — Fig. 13-style attainable-performance curves;
//! * [`config`] — A100, H100 and MI300 (warp-64) hardware parameters,
//!   including per-device bank geometry, segment width and saturation
//!   occupancies;
//! * [`access`] — access maps: each traced phase as plain data
//!   (iteration space, coordinate maps, taps, mask, clamp, or matmul's
//!   tile waves), replayed by one interpreter;
//! * [`model`] — the device-generic pricing engine: one [`CostModel`]
//!   owns the full trace→estimate path under a per-workload
//!   [`PricingMode`] (roofline, optionally wave-quantized, for
//!   overlapped kernels; additive launch for the NW/LUD wavefront
//!   pipelines);
//! * [`mod@score`] — the [`Workload`] / [`Estimate`] vocabulary the
//!   cost model prices and the `lego-tune` autotuner ranks by; each
//!   pricing input is stated once, where the model reads it (a global
//!   phase's L2, the mode's wave quantization, the workload's
//!   unreplayed DRAM and L2 bytes);
//! * [`traffic`] — the per-thread geometry-keyed memo of the two-tier
//!   pricing split: one trace replay serves every expression variant of
//!   a geometry, under a key the cost model derives from the phase
//!   descriptions, and the memo exports/imports through the persistent
//!   sidecar;
//! * [`trace`] — the shared workload builders that both the
//!   `lego-bench` paper reproductions and the `lego-tune` search space
//!   consume, so their estimates cannot drift apart. Builders describe
//!   geometry only; the tuner adds its index-expression flops.
//!
//! Layouts change *addresses*; this model turns address streams into
//! sectors, conflicts, hits, and finally time. Absolute times are
//! modeled, but the relative effects — who wins, by what factor, where
//! the crossovers sit — derive from the same mechanisms as on silicon.
//!
//! ```
//! use gpu_sim::coalesce::coalesce_elems;
//! // A warp reading a matrix column (stride 2048) moves 8x the data of
//! // a row read:
//! let col: Vec<i64> = (0..32).map(|i| i * 2048).collect();
//! let row: Vec<i64> = (0..32).collect();
//! let (c, r) = (coalesce_elems(&col, 4, 0, 32), coalesce_elems(&row, 4, 0, 32));
//! assert_eq!(c.moved_bytes / r.moved_bytes, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod cache;
pub mod coalesce;
pub mod config;
pub mod model;
pub mod roofline;
pub mod score;
pub mod smem;
pub mod tilecache;
pub mod timing;
pub mod trace;
pub mod traffic;

pub use access::{AccessMap, Coord, Lane, TileTotals, TileWaves};
pub use cache::{Cache, CacheStats};
pub use coalesce::{coalesce_elems, coalesce_elems_on, coalesce_warp, CoalesceResult};
pub use config::{a100, h100, lookup, mi300, GpuConfig, DEVICE_TAGS};
pub use model::{CostModel, PricingMode};
pub use roofline::{attainable, ridge};
pub use score::{BlockResources, Estimate, L2Model, Phase, Workload};
pub use smem::{bank_conflicts, bank_conflicts_elems, bank_conflicts_elems_on, BankConflictResult};
pub use tilecache::TileCache;
pub use timing::{estimate, KernelProfile, Pipeline, TimeEstimate};
pub use trace::{
    LaneAxis, LudPanels, MatmulWaves, NwWavefront, RowwiseSweep, StencilWalk, TransposeSweeps,
};
pub use traffic::{
    export as export_traffic, import as import_traffic, is_current_key as is_current_traffic_key,
    memo_stats as traffic_memo_stats, replay_work, ReplayWork, TrafficCost,
};

/// A tiny deterministic LCG for the property tests of the warp models
/// (the workspace has no proptest in registry-less containers).
#[cfg(test)]
mod test_rng {
    pub(crate) struct Lcg(pub(crate) u64);

    impl Lcg {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        pub(crate) fn below(&mut self, n: u64) -> i64 {
            (self.next() % n) as i64
        }
    }
}
