//! # lego-tune — analytic layout autotuning
//!
//! The LEGO algebra makes whole families of layouts *expressible*; this
//! crate makes them *searchable*. For each workload it:
//!
//! 1. models the configuration space once, as a [`Domain`]: the
//!    default plus the product of per-axis legal values — tile shapes
//!    and `OrderBy` permutation choices (grouped, Morton, block-cyclic,
//!    XOR-swizzle, anti-diagonal, …) — at the v2 legacy scale (what
//!    exhaustive enumeration affords) or the free-integer enlarged
//!    scale, with `neighbor`/`crossover` moves repaired back onto it;
//!    each scored candidate carries the expanded-vs-unexpanded
//!    expression variant of the §IV-A cost model
//!    ([`lego_expr::cost`]);
//! 2. explores it with a [`Strategy`] — [`Strategy::Exhaustive`]
//!    batch-scoring, or budgeted [`Strategy::Anneal`] /
//!    [`Strategy::Genetic`] metaheuristics driven by a seeded in-crate
//!    RNG ([`rng::Rng`]) so every search replays deterministically —
//!    every candidate priced by `gpu-sim`'s [`gpu_sim::CostModel`]
//!    (coalescing + bank conflicts + cache filtering + roofline timing
//!    in one call);
//! 3. persists the winner in a journal-backed [`TuningCache`] keyed by
//!    `(workload, problem size, hardware config)`, so a repeated run
//!    whose knobs the entry satisfies skips the search; any other run
//!    searches afresh, so an answer never depends on what the cache
//!    held before;
//! 4. hands the winning [`TunedConfig`] back to `lego-codegen`'s
//!    `from_tuned` constructors to instantiate the tuned kernel.
//!
//! ```
//! use gpu_sim::a100;
//! use lego_tune::{Budget, Strategy, Tuner, WorkloadKind};
//!
//! let tuner = Tuner::new(a100());
//! let r = tuner.tune(&WorkloadKind::Transpose { n: 1024 }).unwrap();
//! // The space always contains the hand-picked default, so tuning
//! // never regresses it.
//! assert!(r.tuned.time_s <= r.naive.time_s);
//!
//! // Budgeted annealing over the enlarged free-integer space: same
//! // guarantee, bounded evaluations, deterministic per seed.
//! let tuner = Tuner::new(a100())
//!     .with_strategy(Strategy::Anneal)
//!     .with_budget(Budget(64));
//! let r = tuner.tune(&WorkloadKind::Transpose { n: 1024 }).unwrap();
//! assert!(r.evaluated <= 64 && r.tuned.time_s <= r.naive.time_s);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod domain;
pub mod fleet;
pub mod journal;
pub mod json;
pub mod request;
pub mod rng;
pub mod sidecar;
pub mod space;
pub mod strategy;
pub mod tuner;

pub use cache::{cache_key, CachedTuning, TuningCache, CACHE_SCHEMA_VERSION};
pub use domain::{Domain, SpaceScale};
pub use fleet::{FleetCounters, FleetDriver, FleetReport, FleetSpec};
pub use json::Json;
pub use lego_codegen::tuning::{
    NwLayoutChoice, RowwiseOp, ScheduleChoice, StagingChoice, StencilLayoutChoice, TunedConfig,
};
pub use request::{KnobText, Knobs, TuneRequest};
pub use sidecar::{Sidecar, SidecarWarm};
pub use space::{
    annotate_cache_stats, annotate_sidecar_stats, build_layout, build_workload,
    rowwise_block_sizes, stencil_block, symbolic_exprs, Candidate, WorkloadKind,
};
pub use strategy::{run_search, Budget, SearchOutcome, Strategy, FRONTIER_K};
pub use tuner::{TuneError, TuneResult, Tuner};
