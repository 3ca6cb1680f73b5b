//! [`TuneRequest`]: the reusable "what do you want tuned, and how
//! hard" key type shared by the batch CLI paths and the `lego-served`
//! tuning daemon.
//!
//! A request bundles the workload instance with the device model and
//! the search knobs (strategy, budget, optional space pin). Two string
//! keys fall out of it:
//!
//! * [`TuneRequest::cache_key`] — the schema-v4 [`crate::TuningCache`]
//!   key: `(workload, pricing mode, device identity)`. Results live
//!   under this key; whether a stored entry *satisfies* a request is a
//!   separate check ([`TuneRequest::satisfied_by`]) because a
//!   higher-budget entry may serve a lower-budget request.
//! * [`TuneRequest::coalesce_key`] — the cache key plus the search
//!   knobs. Two requests with equal coalesce keys are guaranteed to run
//!   the *same deterministic search* (seeds derive from the cache key
//!   and strategy), which is what lets the daemon collapse a thundering
//!   herd of identical concurrent requests onto one in-flight slot.
//!
//! Every front door that takes the search knobs from a user — the
//! daemon's wire protocol, the bench binaries' `--tuned` mode, the
//! fleet CLI, fleet grid specs — resolves their text form through one
//! function, [`Knobs::resolve`], so they all accept the same spellings
//! and refuse bad input with the same messages.

use gpu_sim::GpuConfig;

use crate::cache::{cache_key, CachedTuning};
use crate::domain::SpaceScale;
use crate::space::WorkloadKind;
use crate::strategy::{Budget, Strategy};
use crate::tuner::Tuner;

/// One fully-specified tuning request: workload, device, search knobs.
#[derive(Clone, Debug)]
pub struct TuneRequest {
    /// The workload instance to tune.
    pub kind: WorkloadKind,
    /// The device model to tune against.
    pub device: GpuConfig,
    /// How to explore the space.
    pub strategy: Strategy,
    /// Evaluation cap for the budgeted strategies.
    pub budget: Budget,
    /// Optional space-scale pin (`None` = the strategy's default).
    pub space: Option<SpaceScale>,
}

/// The search knobs of a request: device, strategy, budget and
/// optional space pin. A front door states its defaults as a `Knobs`
/// and overrides them from user text with [`Knobs::resolve`].
#[derive(Clone, Debug)]
pub struct Knobs {
    /// The device model to tune against.
    pub device: GpuConfig,
    /// How to explore the space.
    pub strategy: Strategy,
    /// Evaluation cap for the budgeted strategies.
    pub budget: Budget,
    /// Optional space-scale pin (`None` = the strategy's default).
    pub space: Option<SpaceScale>,
}

/// The text form of the search knobs, as a user gave them; `None`
/// keeps the front door's default.
#[derive(Clone, Copy, Debug, Default)]
pub struct KnobText<'a> {
    /// Device tag or full name, in any case.
    pub device: Option<&'a str>,
    /// Strategy name (`exhaustive`, `anneal` or `genetic`).
    pub strategy: Option<&'a str>,
    /// Space scale name (`legacy` or `enlarged`).
    pub space: Option<&'a str>,
    /// Evaluation budget; zero is refused.
    pub budget: Option<usize>,
}

impl Knobs {
    /// The default search knobs on `device`: exhaustive, default
    /// budget, unpinned space.
    pub fn new(device: GpuConfig) -> Knobs {
        Knobs {
            device,
            strategy: Strategy::default(),
            budget: Budget::default(),
            space: None,
        }
    }

    /// Resolves `text` against these defaults: every knob the user gave
    /// replaces its default.
    ///
    /// # Errors
    ///
    /// Unknown device, strategy or space, or a zero budget; the message
    /// names the accepted values.
    pub fn resolve(self, text: KnobText<'_>) -> Result<Knobs, String> {
        let device = match text.device {
            None => self.device,
            Some(name) => gpu_sim::lookup(name).ok_or_else(|| {
                format!(
                    "unknown device {name:?} (use {})",
                    gpu_sim::DEVICE_TAGS.join("|")
                )
            })?,
        };
        let strategy = match text.strategy {
            None => self.strategy,
            Some(name) => Strategy::parse(name).ok_or_else(|| {
                format!("unknown strategy {name:?} (use exhaustive|anneal|genetic)")
            })?,
        };
        let space = match text.space {
            None => self.space,
            Some(name) => Some(
                SpaceScale::parse(name)
                    .ok_or_else(|| format!("unknown space {name:?} (use legacy|enlarged)"))?,
            ),
        };
        let budget = match text.budget {
            None => self.budget,
            Some(0) => return Err("\"budget\" must be a positive integer".to_string()),
            Some(n) => Budget(n),
        };
        Ok(Knobs {
            device,
            strategy,
            budget,
            space,
        })
    }

    /// The request for `kind` under these knobs.
    pub fn request(self, kind: WorkloadKind) -> TuneRequest {
        TuneRequest {
            kind,
            device: self.device,
            strategy: self.strategy,
            budget: self.budget,
            space: self.space,
        }
    }
}

impl TuneRequest {
    /// A request with the default search knobs (exhaustive, default
    /// budget, unpinned space) — the v2 CLI behavior.
    pub fn new(kind: WorkloadKind, device: GpuConfig) -> TuneRequest {
        Knobs::new(device).request(kind)
    }

    /// A [`Tuner`] configured exactly as this request asks (no cache
    /// attached; callers decide persistence).
    pub fn tuner(&self) -> Tuner {
        let mut t = Tuner::new(self.device.clone())
            .with_strategy(self.strategy)
            .with_budget(self.budget);
        if let Some(space) = self.space {
            t = t.with_space(space);
        }
        t
    }

    /// The space scale the request's strategy will actually search.
    pub fn effective_space(&self) -> SpaceScale {
        self.tuner().effective_space()
    }

    /// The schema-v4 tuning-cache key for this request.
    pub fn cache_key(&self) -> String {
        cache_key(&self.kind.name(), self.kind.pricing_mode(), &self.device)
    }

    /// The in-flight coalescing key: the cache key extended with every
    /// knob that changes what a search would compute. Requests agreeing
    /// on this key run byte-identical deterministic searches and may
    /// share one result.
    pub fn coalesce_key(&self) -> String {
        format!(
            "{}|strategy={}|space={}|budget={}",
            self.cache_key(),
            self.strategy.name(),
            self.effective_space().name(),
            match self.strategy {
                Strategy::Exhaustive => 0,
                Strategy::Anneal | Strategy::Genetic => self.budget.max_evals(),
            }
        )
    }

    /// The request class for metrics aggregation: workload family @
    /// device tag, e.g. `matmul@a100`.
    pub fn class(&self) -> String {
        format!("{}@{}", self.kind.family(), self.device.tag)
    }

    /// Whether a stored entry satisfies this request (same rule the
    /// [`Tuner`] applies on a cache hit).
    pub fn satisfied_by(&self, hit: &CachedTuning) -> bool {
        self.tuner().satisfied_by(hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(strategy: Strategy, budget: usize) -> TuneRequest {
        TuneRequest {
            kind: WorkloadKind::Transpose { n: 512 },
            device: gpu_sim::a100(),
            strategy,
            budget: Budget(budget),
            space: None,
        }
    }

    #[test]
    fn coalesce_key_separates_search_knobs() {
        let exhaustive = req(Strategy::Exhaustive, 64);
        let anneal = req(Strategy::Anneal, 64);
        let bigger = req(Strategy::Anneal, 128);
        // Same result slot...
        assert_eq!(exhaustive.cache_key(), anneal.cache_key());
        // ...but never the same in-flight search.
        assert_ne!(exhaustive.coalesce_key(), anneal.coalesce_key());
        assert_ne!(anneal.coalesce_key(), bigger.coalesce_key());
        // Exhaustive ignores the budget, so budgets must not split it.
        assert_eq!(
            req(Strategy::Exhaustive, 64).coalesce_key(),
            req(Strategy::Exhaustive, 128).coalesce_key()
        );
        // Devices split both keys.
        let mut on_h100 = req(Strategy::Anneal, 64);
        on_h100.device = gpu_sim::h100();
        assert_ne!(anneal.cache_key(), on_h100.cache_key());
        assert_ne!(anneal.coalesce_key(), on_h100.coalesce_key());
    }

    #[test]
    fn knobs_resolve_against_the_callers_defaults() {
        let defaults = Knobs {
            strategy: Strategy::Anneal,
            budget: Budget(160),
            ..Knobs::new(gpu_sim::a100())
        };
        let kept = defaults.clone().resolve(KnobText::default()).unwrap();
        assert_eq!(kept.device.tag, "a100");
        assert_eq!(
            (kept.strategy, kept.budget.0, kept.space),
            (Strategy::Anneal, 160, None)
        );

        // Tag or full name, in any case, reaches the same model.
        for name in ["h100", "H100", "NVIDIA H100-SXM5-80GB"] {
            let text = KnobText {
                device: Some(name),
                ..KnobText::default()
            };
            assert_eq!(defaults.clone().resolve(text).unwrap().device.tag, "h100");
        }
        let text = KnobText {
            strategy: Some("genetic"),
            space: Some("legacy"),
            budget: Some(7),
            ..KnobText::default()
        };
        let set = defaults.clone().resolve(text).unwrap();
        assert_eq!(
            (set.strategy, set.budget.0, set.space),
            (Strategy::Genetic, 7, Some(SpaceScale::Legacy))
        );
    }

    #[test]
    fn knobs_refuse_bad_text_and_a_zero_budget() {
        let refuse = |text: KnobText<'_>| Knobs::new(gpu_sim::a100()).resolve(text).unwrap_err();
        let device = refuse(KnobText {
            device: Some("v100"),
            ..KnobText::default()
        });
        assert_eq!(device, "unknown device \"v100\" (use a100|h100|mi300)");
        let strategy = refuse(KnobText {
            strategy: Some("greedy"),
            ..KnobText::default()
        });
        assert!(strategy.starts_with("unknown strategy"), "{strategy}");
        let space = refuse(KnobText {
            space: Some("huge"),
            ..KnobText::default()
        });
        assert!(space.starts_with("unknown space"), "{space}");
        let budget = refuse(KnobText {
            budget: Some(0),
            ..KnobText::default()
        });
        assert_eq!(budget, "\"budget\" must be a positive integer");
    }

    #[test]
    fn class_labels_family_and_device() {
        assert_eq!(req(Strategy::Exhaustive, 1).class(), "transpose@a100");
        let r = TuneRequest::new(
            WorkloadKind::Rowwise {
                op: crate::RowwiseOp::Softmax,
                m: 64,
                n: 256,
            },
            gpu_sim::mi300(),
        );
        assert_eq!(r.class(), "softmax@mi300");
    }

    #[test]
    fn satisfaction_mirrors_the_tuner_rule() {
        let estimate = gpu_sim::score::Estimate {
            time_s: 1.0,
            breakdown: gpu_sim::timing::TimeEstimate {
                compute_s: 0.2,
                dram_s: 0.8,
                l2_s: 0.1,
                smem_s: 0.0,
                overhead_s: 0.0,
                total_s: 1.0,
            },
            dram_bytes: 1.0,
            l2_bytes: 1.0,
            smem_passes: 0.0,
            l2_hit_rate: 0.5,
            flops: 1.0,
            useful_bytes: 1.0,
        };
        let hit = CachedTuning {
            config: lego_codegen::tuning::TunedConfig::Transpose {
                t: 32,
                staging: None,
            },
            expr_variant: None,
            index_ops: None,
            naive: estimate,
            tuned: estimate,
            evaluated: 64,
            strategy: "anneal".to_string(),
            budget: Some(64),
            space: "enlarged".to_string(),
            frontier: vec![],
        };
        assert!(req(Strategy::Anneal, 64).satisfied_by(&hit));
        assert!(
            req(Strategy::Anneal, 32).satisfied_by(&hit),
            "bigger budget serves smaller"
        );
        assert!(!req(Strategy::Anneal, 128).satisfied_by(&hit));
        assert!(!req(Strategy::Genetic, 64).satisfied_by(&hit));
        assert!(!req(Strategy::Exhaustive, 64).satisfied_by(&hit));
        let swept = CachedTuning {
            budget: None,
            ..hit
        };
        assert!(
            req(Strategy::Anneal, 1 << 20).satisfied_by(&swept),
            "a swept domain serves any budget"
        );
        assert!(!req(Strategy::Genetic, 64).satisfied_by(&swept));
    }
}
