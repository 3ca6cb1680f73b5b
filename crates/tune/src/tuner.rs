//! The search driver: pick a strategy, spend the budget, cache the
//! winner per `(workload, hardware)`.

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
#[derive(Clone, Debug, PartialEq)]
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
    /// The result `entry` answers: a cache hit when `from_cache`
    /// (nothing evaluated to answer it), else the search that produced
    /// the entry.
    pub fn from_entry(workload: String, entry: &CachedTuning, from_cache: bool) -> TuneResult {
        TuneResult {
            workload,
            config: entry.config,
            expr_variant: entry.expr_variant,
            index_ops: entry.index_ops,
            naive: entry.naive,
            tuned: entry.tuned,
            evaluated: if from_cache { 0 } else { entry.evaluated },
            from_cache,
        }
    }

    /// Naive-over-tuned speedup.
    pub fn speedup(&self) -> f64 {
        self.naive.time_s / self.tuned.time_s
    }
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
    /// configured [`Strategy`] over the workload's [`Domain`], picks the
    /// fastest evaluated configuration, and persists it together with
    /// the search's top-k frontier.
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
    /// This is the one search primitive: the daemon and the fleet driver
    /// call it too. An unsatisfying entry is replaced, never used to
    /// seed the search, and the search's RNG derives from the cache key
    /// and strategy, so every answer is a pure function of
    /// `(kind, gpu, strategy, space, budget)` whatever the cache held.
    ///
    /// # Errors
    ///
    /// As [`Tuner::tune`].
    pub fn tune_entry(&self, kind: &WorkloadKind) -> Result<(TuneResult, CachedTuning), TuneError> {
        let workload = kind.name();
        let key = cache_key(&workload, kind.pricing_mode(), &self.gpu);
        let hit = self.cache.as_ref().and_then(|cache| cache.lookup(&key));
        if let Some(hit) = hit.filter(|hit| self.satisfied_by(hit)) {
            return Ok((TuneResult::from_entry(workload, &hit, true), hit));
        }

        let domain = Domain::new(*kind, self.effective_space());
        let outcome = run_search(self.strategy, &domain, &self.gpu, self.budget, &key, &[])?;
        let entry = CachedTuning {
            config: outcome.winner.config,
            expr_variant: outcome.winner.expr_variant,
            index_ops: outcome.winner.index_ops,
            naive: outcome.naive,
            tuned: outcome.tuned,
            evaluated: outcome.evaluated,
            strategy: self.strategy.name().to_string(),
            // A budget that covers the domain sweeps it (see
            // `run_search`), so no budget limited the search.
            budget: match self.strategy {
                Strategy::Exhaustive => None,
                Strategy::Anneal | Strategy::Genetic => {
                    Some(self.budget.max_evals()).filter(|&b| b < domain.len())
                }
            },
            space: self.effective_space().name().to_string(),
            frontier: outcome.frontier,
        };
        if let Some(cache) = &self.cache {
            // One journal append, through the same batched writer a
            // fleet uses.
            cache.store_many(&[(key, entry.clone())])?;
        }
        Ok((TuneResult::from_entry(workload, &entry, false), entry))
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
