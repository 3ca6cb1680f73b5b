//! The search driver: pick a strategy, spend the budget, cache the
//! winner (with its frontier) per `(workload, hardware)`.

use std::fmt;
use std::path::PathBuf;

use gpu_sim::score::Estimate;
use gpu_sim::GpuConfig;
use lego_codegen::tuning::TunedConfig;
use lego_core::LayoutError;
use lego_expr::Variant;

use crate::cache::{cache_key, CachedTuning, TuningCache};
use crate::domain::{Domain, SpaceScale};
use crate::space::WorkloadKind;
use crate::strategy::{run_search, Budget, Strategy};

/// Errors of the tuning pipeline.
#[derive(Debug)]
pub enum TuneError {
    /// A candidate layout failed to build.
    Layout(LayoutError),
    /// The cache file could not be written.
    Io(std::io::Error),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Layout(e) => write!(f, "layout error: {e}"),
            TuneError::Io(e) => write!(f, "cache i/o error: {e}"),
        }
    }
}

impl std::error::Error for TuneError {}

impl From<LayoutError> for TuneError {
    fn from(e: LayoutError) -> TuneError {
        TuneError::Layout(e)
    }
}

impl From<std::io::Error> for TuneError {
    fn from(e: std::io::Error) -> TuneError {
        TuneError::Io(e)
    }
}

/// The outcome of tuning one workload.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// Workload name (also the first half of the cache key).
    pub workload: String,
    /// The winning configuration.
    pub config: TunedConfig,
    /// Expression variant the §IV-A cost model chose for the winner.
    pub expr_variant: Option<Variant>,
    /// Index-expression op count of the winner.
    pub index_ops: Option<usize>,
    /// Estimate of the hand-picked default configuration.
    pub naive: Estimate,
    /// Estimate of the winning configuration.
    pub tuned: Estimate,
    /// How many candidates were evaluated (0 on a cache hit).
    pub evaluated: usize,
    /// Whether the result came from the tuning cache.
    pub from_cache: bool,
}

impl TuneResult {
    /// Naive-over-tuned speedup.
    pub fn speedup(&self) -> f64 {
        self.naive.time_s / self.tuned.time_s
    }
}

/// The outcome of one cache-free seeded search
/// ([`Tuner::tune_seeded`]): the result plus everything a fleet driver
/// needs to feed later keys and persist the entry itself.
#[derive(Clone, Debug)]
pub struct SeededTune {
    /// The tuning result (never `from_cache`; the caller owns caching).
    pub result: TuneResult,
    /// The search's top-k frontier — the warm-start population for
    /// neighboring keys and the cache entry's persisted frontier.
    pub frontier: Vec<(TunedConfig, f64)>,
    /// 1-based index of the evaluation that first scored the winner.
    pub evals_to_winner: usize,
    /// The evaluation budget the search actually ran under (`None` when
    /// it swept its domain: exhaustive, or a budget that covered the
    /// domain) — what a cache entry must record so satisfaction checks
    /// stay honest when a transfer cut the budget.
    pub budget: Option<usize>,
}

/// The autotuner: a hardware model, a search strategy with its budget,
/// and an optional persistent cache.
#[derive(Clone, Debug)]
pub struct Tuner {
    gpu: GpuConfig,
    cache: Option<TuningCache>,
    strategy: Strategy,
    budget: Budget,
    space: Option<SpaceScale>,
}

impl Tuner {
    /// A tuner for the given hardware model: exhaustive search over the
    /// legacy space, no cache.
    pub fn new(gpu: GpuConfig) -> Tuner {
        Tuner {
            gpu,
            cache: None,
            strategy: Strategy::default(),
            budget: Budget::default(),
            space: None,
        }
    }

    /// Attaches a journal-backed tuning cache at `path`.
    #[must_use]
    pub fn with_cache(mut self, path: impl Into<PathBuf>) -> Tuner {
        self.cache = Some(TuningCache::new(path.into()));
        self
    }

    /// Selects the search strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: Strategy) -> Tuner {
        self.strategy = strategy;
        self
    }

    /// Sets the evaluation budget (ignored by `Exhaustive`).
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Tuner {
        self.budget = budget;
        self
    }

    /// Pins the space scale. Without a pin, `Exhaustive` enumerates the
    /// legacy space (what it can afford) and the budgeted strategies
    /// search the enlarged one (what they exist for).
    #[must_use]
    pub fn with_space(mut self, space: SpaceScale) -> Tuner {
        self.space = Some(space);
        self
    }

    /// The hardware model being tuned against.
    pub fn gpu(&self) -> &GpuConfig {
        &self.gpu
    }

    /// The strategy in use.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The space scale the current strategy will search.
    pub fn effective_space(&self) -> SpaceScale {
        self.space.unwrap_or(match self.strategy {
            Strategy::Exhaustive => SpaceScale::Legacy,
            Strategy::Anneal | Strategy::Genetic => SpaceScale::Enlarged,
        })
    }

    /// Whether a cached entry satisfies the current search request: the
    /// strategy and space must match, and a budgeted entry must have
    /// spent at least the requested budget or have swept its whole
    /// domain (recorded as no budget), which no larger budget could
    /// improve on. Public so services layering their own in-memory tier
    /// over the cache (the `lego-served` daemon) apply exactly the
    /// serving rule `tune` does.
    pub fn satisfied_by(&self, hit: &CachedTuning) -> bool {
        hit.strategy == self.strategy.name()
            && hit.space == self.effective_space().name()
            && match self.strategy {
                Strategy::Exhaustive => true,
                Strategy::Anneal | Strategy::Genetic => {
                    hit.budget.is_none_or(|b| b >= self.budget.max_evals())
                }
            }
    }

    /// Tunes one workload: returns the cached result when the cache has
    /// a satisfying entry for `(workload, hardware)`, otherwise runs the
    /// configured [`Strategy`] over the workload's [`Domain`] — warm-
    /// started from any unsatisfying entry's persisted frontier — picks
    /// the fastest evaluated configuration, and persists it together
    /// with the new top-k frontier.
    ///
    /// The default configuration is always evaluated first, so
    /// `tuned.time_s <= naive.time_s` holds by construction under every
    /// strategy.
    ///
    /// # Errors
    ///
    /// Propagates layout construction and cache write failures.
    pub fn tune(&self, kind: &WorkloadKind) -> Result<TuneResult, TuneError> {
        self.tune_entry(kind).map(|(result, _)| result)
    }

    /// [`Tuner::tune`], also returning the cache entry behind the
    /// answer: the entry read on a cache hit, otherwise the one the
    /// search persisted (or, without a cache, would have). A service
    /// layering its own memory tier over the cache promotes this entry
    /// as-is, so every tier answers from the same record.
    ///
    /// # Errors
    ///
    /// As [`Tuner::tune`].
    pub fn tune_entry(&self, kind: &WorkloadKind) -> Result<(TuneResult, CachedTuning), TuneError> {
        let workload = kind.name();
        let key = cache_key(&workload, kind.pricing_mode(), &self.gpu);
        let mut warm_start: Vec<TunedConfig> = Vec::new();
        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.lookup(&key) {
                if self.satisfied_by(&hit) {
                    let result = TuneResult {
                        workload,
                        config: hit.config,
                        expr_variant: hit.expr_variant,
                        index_ops: hit.index_ops,
                        naive: hit.naive,
                        tuned: hit.tuned,
                        evaluated: 0,
                        from_cache: true,
                    };
                    return Ok((result, hit));
                }
                // A differently-searched entry still knows good points:
                // reuse its frontier as the warm-start population.
                warm_start = hit.frontier.iter().map(|(c, _)| *c).collect();
            }
        }

        let seeded = self.tune_seeded(kind, &warm_start, None)?;
        let entry = self.entry_from(&seeded);
        if let Some(cache) = &self.cache {
            // One journal append, through the same batched writer a
            // fleet uses.
            cache.store_many(&[(key, entry.clone())])?;
        }
        Ok((seeded.result, entry))
    }

    /// Runs the configured search for `kind`, seeded by `seeds` (configs
    /// outside the effective domain are dropped first) and optionally
    /// under a budget override — without touching the cache in either
    /// direction. This is the fleet driver's primitive: it decides
    /// seeding and persistence itself, and a transferred frontier rides
    /// in here with a cut-down budget.
    ///
    /// Deterministic: the RNG seed derives from the cache key and
    /// strategy, so the outcome is a pure function of
    /// `(kind, gpu, strategy, space, budget, seeds)`.
    ///
    /// # Errors
    ///
    /// Propagates layout construction failures.
    pub fn tune_seeded(
        &self,
        kind: &WorkloadKind,
        seeds: &[TunedConfig],
        budget: Option<Budget>,
    ) -> Result<SeededTune, TuneError> {
        let workload = kind.name();
        let key = cache_key(&workload, kind.pricing_mode(), &self.gpu);
        let domain = Domain::new(*kind, self.effective_space());
        // A frontier cached under another space scale (or transferred
        // from another problem size) may hold configs this search must
        // not return (e.g. an enlarged-only NW block size when the
        // caller pinned --space legacy, or a tile larger than the new
        // problem).
        let mut warm_start: Vec<TunedConfig> = seeds.to_vec();
        warm_start.retain(|c| domain.contains(c));
        warm_start.dedup();
        let budget = budget.unwrap_or(self.budget);
        let outcome = run_search(self.strategy, &domain, &self.gpu, budget, &key, &warm_start)?;
        Ok(SeededTune {
            result: TuneResult {
                workload,
                config: outcome.winner.config,
                expr_variant: outcome.winner.expr_variant,
                index_ops: outcome.winner.index_ops,
                naive: outcome.naive,
                tuned: outcome.tuned,
                evaluated: outcome.evaluated,
                from_cache: false,
            },
            frontier: outcome.frontier,
            evals_to_winner: outcome.evals_to_winner,
            // A budget that covers the domain sweeps it (see
            // `run_search`), so no budget limited the search.
            budget: match self.strategy {
                Strategy::Exhaustive => None,
                Strategy::Anneal | Strategy::Genetic => {
                    Some(budget.max_evals()).filter(|&b| b < domain.len())
                }
            },
        })
    }

    /// The cache entry a seeded outcome persists as (under this tuner's
    /// strategy/space and the budget the search actually ran with).
    pub fn entry_from(&self, seeded: &SeededTune) -> CachedTuning {
        CachedTuning {
            config: seeded.result.config,
            expr_variant: seeded.result.expr_variant,
            index_ops: seeded.result.index_ops,
            naive: seeded.result.naive,
            tuned: seeded.result.tuned,
            evaluated: seeded.result.evaluated,
            strategy: self.strategy.name().to_string(),
            budget: seeded.budget,
            space: self.effective_space().name().to_string(),
            frontier: seeded.frontier.clone(),
        }
    }

    /// Tunes a list of workloads in order.
    ///
    /// # Errors
    ///
    /// Stops at the first failing workload.
    pub fn tune_all(&self, kinds: &[WorkloadKind]) -> Result<Vec<TuneResult>, TuneError> {
        kinds.iter().map(|k| self.tune(k)).collect()
    }
}
