//! Search strategies: how the tuner spends its evaluation budget.
//!
//! The v2 tuner had exactly one move — enumerate everything and
//! batch-price it — which caps how rich the configuration space can get
//! before batch pricing dominates. This module adds budgeted
//! metaheuristics over the parameterized [`Domain`]:
//!
//! * [`Strategy::Exhaustive`] — score every point (the v2 behavior;
//!   ground truth for the CI search-parity gate);
//! * [`Strategy::Anneal`] — simulated annealing: a [`Domain::neighbor`]
//!   walk with Metropolis acceptance on relative slowdown, geometric
//!   cooling, and greedy reheats from the incumbent best;
//! * [`Strategy::Genetic`] — a (μ+λ) genetic search: elite carry-over,
//!   tournament parent selection, axis-wise [`Domain::crossover`] and
//!   neighbor-mutation, with the population seeded from the cache's
//!   persisted top-k frontier when one is available.
//!
//! Every strategy scores through one `Evaluator` built by
//! [`run_search`]: it scores the default first (entry zero, the naive
//! baseline), then whatever the strategy proposes. Its one scoring
//! routine annotates, builds and prices candidates in chunks of one
//! [`CostModel::price_batch`] each, with an admissible-bound cutoff
//! that only the exhaustive sweep turns on. A [`Budget`] bounds
//! *unique* configurations scored or pruned; re-proposing an
//! already-seen point costs nothing.
//!
//! All strategies are deterministic: randomness comes from the in-crate
//! [`Rng`] seeded by the tuning cache key plus the strategy name, so
//! the same search replays bit-identically (the basis of the
//! determinism tests and the CI gate). Because the proposal stream does
//! not depend on the budget, a larger budget evaluates a superset of a
//! smaller one — the winner can only improve (asserted by the
//! budget-monotonicity test).

use std::collections::HashMap;
use std::fmt;

use gpu_sim::{CostModel, Estimate, GpuConfig};
use lego_codegen::tuning::TunedConfig;

use crate::domain::Domain;
use crate::rng::Rng;
use crate::space::{build_layout, build_workload, Candidate, WorkloadKind};
use crate::tuner::TuneError;

/// Maximum number of unique configurations a search may score. The
/// default (2000) comfortably covers every built-in enlarged space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Budget(pub usize);

impl Default for Budget {
    fn default() -> Budget {
        Budget(2000)
    }
}

impl Budget {
    /// The evaluation cap (at least 1: the default config is always
    /// scored so the search can never regress it).
    pub fn max_evals(self) -> usize {
        self.0.max(1)
    }
}

/// How the tuner explores a search space.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// Enumerate and score every candidate (the v2 behavior).
    #[default]
    Exhaustive,
    /// Simulated annealing over the parameterized domain.
    Anneal,
    /// Genetic search with cache-frontier warm starts.
    Genetic,
}

impl Strategy {
    /// Stable name, used for seeds, the cache document, and `--strategy`.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Exhaustive => "exhaustive",
            Strategy::Anneal => "anneal",
            Strategy::Genetic => "genetic",
        }
    }

    /// Parses a `--strategy` argument.
    pub fn parse(s: &str) -> Option<Strategy> {
        match s {
            "exhaustive" => Some(Strategy::Exhaustive),
            "anneal" => Some(Strategy::Anneal),
            "genetic" => Some(Strategy::Genetic),
            _ => None,
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Ranking key of an estimate: the roofline `max()` hides
/// non-bottleneck improvements, so ties break toward fewer
/// shared-memory passes, then less DRAM traffic.
pub fn rank(e: &Estimate) -> (f64, f64, f64) {
    (e.time_s, e.smem_passes, e.dram_bytes)
}

/// The outcome of one search run.
pub struct SearchOutcome {
    /// The winning candidate (annotated with its expression variant).
    pub winner: Candidate,
    /// Estimate of the winner.
    pub tuned: Estimate,
    /// Estimate of the default configuration (always evaluated first).
    pub naive: Estimate,
    /// Unique configurations evaluated: scored plus bound-pruned. A
    /// pruned candidate counts — its fate was decided — so this number
    /// is identical with and without pruning (the basis of the
    /// search-parity budget and the cache's budget-satisfaction check).
    pub evaluated: usize,
    /// Candidates dismissed by the admissible lower bound without a
    /// traffic pass (exhaustive strategy only; always 0 for the
    /// metaheuristics, whose proposal streams pruning must not touch).
    pub pruned: usize,
    /// Traffic-memo hits during this search (geometries priced without
    /// a trace replay).
    pub traffic_hits: u64,
    /// Traffic-memo misses during this search (geometries traced and
    /// recorded).
    pub traffic_misses: u64,
    /// 1-based index of the evaluation that first scored the winner —
    /// the "evals to optimum" a transferred warm start is meant to
    /// shrink (seeds are evaluated first, so a transfer that already
    /// contains a near-winner pushes this toward 1).
    pub evals_to_winner: usize,
    /// The top-k evaluated configs (best first) with their times — the
    /// warm-start population persisted in the cache.
    pub frontier: Vec<(TunedConfig, f64)>,
}

/// Memoizing, budget-enforcing evaluation oracle shared by all
/// strategies. [`Evaluator::score`] is the one routine that annotates,
/// builds and prices candidates; everything else looks its results up.
/// Every unique config is scored, pruned or found infeasible once, and
/// the default config is entry zero.
struct Evaluator<'a> {
    kind: WorkloadKind,
    gpu: &'a GpuConfig,
    /// Cap on scored plus pruned configs (`usize::MAX` for the
    /// exhaustive sweep, which ignores the budget).
    max_evals: usize,
    /// Config → index into `entries` (scored) or `usize::MAX` (failed
    /// to build: treated as infeasible, not charged — or dismissed by
    /// the admissible bound, which is charged as pruned).
    seen: HashMap<TunedConfig, usize>,
    entries: Vec<(Candidate, Estimate)>,
    best: usize,
    /// Candidates dismissed by [`gpu_sim::CostModel::bound`] without a
    /// full traffic pass (exhaustive strategy only).
    pruned: usize,
}

impl<'a> Evaluator<'a> {
    fn new(kind: WorkloadKind, gpu: &'a GpuConfig, max_evals: usize) -> Evaluator<'a> {
        Evaluator {
            kind,
            gpu,
            max_evals,
            seen: HashMap::new(),
            entries: Vec::new(),
            best: 0,
            pruned: 0,
        }
    }

    fn evals(&self) -> usize {
        self.entries.len()
    }

    fn exhausted(&self) -> bool {
        self.entries.len() + self.pruned >= self.max_evals
    }

    /// Scores `configs` in order, skipping any seen before (in this
    /// batch or earlier), until scored plus pruned configs reach the
    /// budget. Unbuildable configs are infeasible and not charged.
    ///
    /// The sweep proceeds in chunks priced by one
    /// [`CostModel::price_batch`] each. With `cutoff` (the exhaustive
    /// sweep only), the [`FRONTIER_K`]-th best scored time before each
    /// chunk becomes a cutoff, and any candidate whose
    /// [`CostModel::bound`] *strictly* exceeds it is pruned without a
    /// traffic pass. That is winner- and frontier-identical to the
    /// unpruned sweep: the bound never exceeds the true time, and the
    /// cutoff only tightens, so a pruned candidate's time strictly
    /// exceeds at least [`FRONTIER_K`] final times — it could not have
    /// won or entered the frontier (ties break toward lower indices,
    /// which scored entries keep). Pruned candidates count as
    /// evaluated, so budgets and cache bookkeeping are numerically
    /// unchanged.
    fn score(&mut self, configs: &[TunedConfig], cutoff: bool) {
        /// Candidates between cutoff recomputations. Small enough that
        /// the cutoff tightens while the sweep is still hot; large
        /// enough that `price_batch` can fan out.
        const CHUNK: usize = 32;
        let model = CostModel::new(self.gpu);
        for chunk in configs.chunks(CHUNK) {
            let threshold = if cutoff { self.prune_threshold() } else { None };
            let mut fresh: Vec<Candidate> = Vec::new();
            let mut jobs = Vec::new();
            for &key in chunk {
                if self.entries.len() + self.pruned + fresh.len() >= self.max_evals {
                    break;
                }
                if self.seen.contains_key(&key) || fresh.iter().any(|c| c.config == key) {
                    continue;
                }
                let cand = Candidate::annotated(&self.kind, &key);
                let Ok(layout) = build_layout(&self.kind, &cand.config) else {
                    self.seen.insert(key, usize::MAX);
                    continue;
                };
                let wl = build_workload(&self.kind, &cand, self.gpu);
                // Prune only after a successful build, so the
                // infeasible/evaluated split matches the unpruned sweep.
                if threshold.is_some_and(|t| model.bound(&wl) > t) {
                    self.seen.insert(key, usize::MAX);
                    self.pruned += 1;
                    continue;
                }
                jobs.push((layout, wl));
                fresh.push(cand);
            }
            if fresh.is_empty() {
                continue;
            }
            for (cand, est) in fresh.into_iter().zip(model.price_batch(jobs)) {
                let idx = self.entries.len();
                self.seen.insert(cand.config, idx);
                self.entries.push((cand, est));
                if rank(&est) < rank(&self.entries[self.best].1) {
                    self.best = idx;
                }
            }
        }
    }

    /// The branch-and-bound cutoff: the [`FRONTIER_K`]-th smallest time
    /// scored so far, or `None` until that many entries exist (nothing
    /// may be pruned before the frontier could possibly be full).
    fn prune_threshold(&self) -> Option<f64> {
        if self.entries.len() < FRONTIER_K {
            return None;
        }
        let mut times: Vec<f64> = self.entries.iter().map(|(_, e)| e.time_s).collect();
        times.sort_by(f64::total_cmp);
        Some(times[FRONTIER_K - 1])
    }

    /// Scores the default configuration — always the first evaluation,
    /// so it becomes entry zero (the naive baseline every strategy is
    /// compared against). Unlike [`Evaluator::eval`], a build failure
    /// here is an error, not an infeasible point: a default that does
    /// not build is a bug in the space, and skipping it would silently
    /// misattribute the naive baseline to some other candidate.
    fn eval_default(&mut self, c: &TunedConfig) -> Result<(), TuneError> {
        debug_assert!(self.entries.is_empty(), "default must be entry zero");
        build_layout(&self.kind, c)?;
        self.score(std::slice::from_ref(c), false);
        Ok(())
    }

    /// Scores one config and looks it up: its estimate, or `None` when
    /// it is infeasible, pruned, or unseen with the budget exhausted.
    fn eval(&mut self, c: &TunedConfig) -> Option<Estimate> {
        let idx = match self.seen.get(c) {
            Some(&idx) => idx,
            None => {
                self.score(std::slice::from_ref(c), false);
                *self.seen.get(c)?
            }
        };
        (idx != usize::MAX).then(|| self.entries[idx].1)
    }

    fn best_config(&self) -> TunedConfig {
        self.entries[self.best].0.config
    }

    /// The outcome so far. Entry zero exists: every search starts with
    /// [`Evaluator::eval_default`].
    fn finish(self) -> SearchOutcome {
        let naive = self.entries[0].1;
        let (winner, tuned) = self.entries[self.best].clone();
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by(|&a, &b| {
            rank(&self.entries[a].1)
                .partial_cmp(&rank(&self.entries[b].1))
                .expect("estimates are finite")
                .then(a.cmp(&b))
        });
        let frontier = order
            .into_iter()
            .take(FRONTIER_K)
            .map(|i| (self.entries[i].0.config, self.entries[i].1.time_s))
            .collect();
        SearchOutcome {
            winner,
            tuned,
            naive,
            evaluated: self.entries.len() + self.pruned,
            pruned: self.pruned,
            // Filled in by `run_search` from the memo-stat deltas.
            traffic_hits: 0,
            traffic_misses: 0,
            // Entries are appended in evaluation order, so the winning
            // index is exactly how many evaluations it took to find it.
            evals_to_winner: self.best + 1,
            frontier,
        }
    }
}

/// How many frontier configs are persisted per cache entry.
pub const FRONTIER_K: usize = 8;

/// Runs `strategy` over `domain` and returns the outcome: one
/// `Evaluator` scores the default, the strategy spends the budget on
/// proposals, and the evaluator's entries become the outcome.
///
/// `seed_key` derives the deterministic RNG (pass the tuning cache key);
/// `warm_start` is a previously persisted frontier to seed from (ignored
/// by `Exhaustive`).
///
/// # Errors
///
/// [`TuneError::Layout`] when the domain's default does not build.
pub fn run_search(
    strategy: Strategy,
    domain: &Domain,
    gpu: &GpuConfig,
    budget: Budget,
    seed_key: &str,
    warm_start: &[TunedConfig],
) -> Result<SearchOutcome, TuneError> {
    let mut rng = Rng::from_key(&format!("{seed_key}|{}", strategy.name()));
    // Traffic-memo probes all land on this thread (`price_batch` looks
    // keys up before fanning out), so the stat delta around the search
    // is exactly this search's hit/miss count.
    let (hits0, misses0) = gpu_sim::traffic_memo_stats();
    // Exhaustive ignores the budget: it is the ground truth the
    // budgeted strategies are gated against.
    let max_evals = match strategy {
        Strategy::Exhaustive => usize::MAX,
        Strategy::Anneal | Strategy::Genetic => budget.max_evals(),
    };
    let mut eval = Evaluator::new(domain.kind, gpu, max_evals);
    eval.eval_default(&domain.default_config())?;
    match strategy {
        // The enumerated sweep is the one place bound pruning is
        // winner-safe by construction, so only it turns the cutoff on.
        Strategy::Exhaustive => eval.score(&domain.enumerate(), true),
        Strategy::Anneal => anneal(domain, &mut eval, &mut rng, warm_start),
        Strategy::Genetic => genetic(domain, &mut eval, &mut rng, warm_start),
    }
    let mut outcome = eval.finish();
    let (hits1, misses1) = gpu_sim::traffic_memo_stats();
    outcome.traffic_hits = hits1 - hits0;
    outcome.traffic_misses = misses1 - misses0;
    Ok(outcome)
}

/// Simulated annealing: Metropolis acceptance on *relative* slowdown
/// with geometric cooling; when the chain freezes it reheats from the
/// incumbent best. A small fraction of proposals are uniform random
/// points (basin hopping) so jagged landscapes — e.g. NW's padded
/// block sizes — cannot trap the walk in a local valley, and every new
/// incumbent best is polished by probing its deterministic unit-step
/// neighborhood, so the returned winner is always a local optimum of
/// the unit lattice (budget permitting). The whole proposal stream is
/// a function of the evaluation history only — never of the budget —
/// so a longer run extends (never reshuffles) a shorter one.
fn anneal(domain: &Domain, eval: &mut Evaluator<'_>, rng: &mut Rng, warm_start: &[TunedConfig]) {
    const T0: f64 = 0.06;
    const ALPHA: f64 = 0.88;
    const TMIN: f64 = 1.5e-3;
    const JUMP_P: f64 = 0.15;

    // The default is entry zero already (`run_search` scored it)…
    let default = domain.default_config();
    let Some(mut cur_est) = eval.eval(&default) else {
        return;
    };
    let mut current = default;
    // …then the walk starts from the best warm-start point, if any.
    for c in warm_start {
        if let Some(e) = eval.eval(c) {
            if rank(&e) < rank(&cur_est) {
                current = *c;
                cur_est = e;
            }
        }
    }

    let mut t = T0;
    let max_proposals = 64 * eval.max_evals;
    let mut proposals = 0usize;
    // Whenever a new incumbent best appears, its unit-step neighborhood
    // is queued for systematic probing before random proposals resume.
    let mut polish: std::collections::VecDeque<TunedConfig> = std::collections::VecDeque::new();
    let mut polished_best = eval.best_config();
    polish.extend(domain.local_neighbors(&polished_best));
    while !eval.exhausted() && proposals < max_proposals {
        proposals += 1;
        let cand = if let Some(p) = polish.pop_front() {
            p
        } else if rng.chance(JUMP_P) {
            domain.random(rng)
        } else {
            domain.neighbor(&current, rng)
        };
        if cand == current {
            continue;
        }
        let fresh = eval.evals();
        let Some(est) = eval.eval(&cand) else {
            // Infeasible or out of budget; out-of-budget ends the walk.
            if eval.exhausted() {
                break;
            }
            continue;
        };
        let delta = (est.time_s - cur_est.time_s) / cur_est.time_s.max(f64::MIN_POSITIVE);
        if delta <= 0.0 || rng.f64() < (-delta / t).exp() {
            current = cand;
            cur_est = est;
        }
        // Cool per *new* evaluation so the schedule tracks budget
        // consumption (re-proposing a seen point is free and must not
        // freeze the chain), yet stays budget-independent: a longer run
        // replays a shorter one exactly and keeps going.
        if eval.evals() > fresh {
            t *= ALPHA;
        }
        let best = eval.best_config();
        if best != polished_best {
            polished_best = best;
            polish.clear();
            polish.extend(domain.local_neighbors(&polished_best));
        }
        if t < TMIN {
            // Reheat greedily from the best point found so far.
            t = T0;
            current = eval.best_config();
            cur_est = eval.eval(&current).expect("best is evaluated");
        }
    }
}

/// (μ+λ) genetic search: elites survive, parents are picked by binary
/// tournament, children are axis-wise crossovers with neighbor
/// mutation. Each generation is batch-scored in parallel, and every
/// new incumbent best has its deterministic unit-step neighborhood
/// probed (same local-optimum guarantee as the annealer).
fn genetic(domain: &Domain, eval: &mut Evaluator<'_>, rng: &mut Rng, warm_start: &[TunedConfig]) {
    const POP: usize = 16;
    const ELITE: usize = 4;
    const LAMBDA: usize = POP - ELITE;
    const MUTATE_P: f64 = 0.4;

    // Founding population: default first (the naive baseline), then the
    // persisted frontier, then random samples.
    let mut pop: Vec<TunedConfig> = vec![domain.default_config()];
    for c in warm_start {
        if !pop.contains(c) {
            pop.push(*c);
        }
    }
    let mut attempts = 0;
    while pop.len() < POP && attempts < 64 * POP {
        attempts += 1;
        let c = domain.random(rng);
        if !pop.contains(&c) {
            pop.push(c);
        }
    }
    // Seed in two halves with a polish chain between them: a tight
    // budget (the CI parity gate runs at a quarter of the exhaustive
    // count, floored at one founding population) then still spends
    // some evaluations *adaptively* — walking the early incumbent's
    // unit-lattice neighborhood to a local optimum — instead of being
    // eaten whole by random seeding. The proposal order depends only
    // on the evaluation history, so a larger budget still evaluates a
    // superset of a smaller one.
    let mut polished_best: Option<TunedConfig> = None;
    let half = POP / 2;
    eval.score(&pop[..half.min(pop.len())], false);
    loop {
        let best = eval.best_config();
        if polished_best == Some(best) || eval.exhausted() {
            break;
        }
        polished_best = Some(best);
        eval.score(&domain.local_neighbors(&best), false);
    }
    if pop.len() > half {
        eval.score(&pop[half..], false);
    }

    let max_generations = 4 * eval.max_evals / LAMBDA.min(eval.max_evals).max(1) + 4;
    for _ in 0..max_generations {
        if eval.exhausted() {
            break;
        }
        // Polish a new incumbent best to its unit-lattice local optimum
        // before spending budget on the next generation.
        loop {
            let best = eval.best_config();
            if polished_best == Some(best) || eval.exhausted() {
                break;
            }
            polished_best = Some(best);
            eval.score(&domain.local_neighbors(&best), false);
        }
        if eval.exhausted() {
            break;
        }
        // Rank the current population (unevaluated members sink).
        let mut ranked: Vec<(TunedConfig, (f64, f64, f64))> = pop
            .iter()
            .map(|c| {
                let r = eval
                    .eval(c)
                    .map_or((f64::INFINITY, f64::INFINITY, f64::INFINITY), |e| rank(&e));
                (*c, r)
            })
            .collect();
        ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite or inf ranks"));
        let elites: Vec<TunedConfig> = ranked.iter().take(ELITE).map(|(c, _)| *c).collect();

        let tournament = |rng: &mut Rng| -> TunedConfig {
            let a = rng.below(ranked.len());
            let b = rng.below(ranked.len());
            if ranked[a].1 <= ranked[b].1 {
                ranked[a].0
            } else {
                ranked[b].0
            }
        };
        let mut children: Vec<TunedConfig> = Vec::new();
        let mut stall = 0;
        while children.len() < LAMBDA && stall < 64 * LAMBDA {
            let pa = tournament(rng);
            let pb = tournament(rng);
            let mut child = domain.crossover(&pa, &pb, rng);
            if rng.chance(MUTATE_P) {
                child = domain.neighbor(&child, rng);
            }
            if elites.contains(&child) || children.contains(&child) {
                stall += 1;
                continue;
            }
            children.push(child);
        }
        eval.score(&children, false);
        pop = elites;
        pop.extend(children);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::SpaceScale;

    /// A sweep the cutoff prunes: 544 configs, about half of them
    /// dismissed by the bound in a full exhaustive pass.
    fn sweep() -> (WorkloadKind, Vec<TunedConfig>) {
        let kind = WorkloadKind::Matmul { n: 512 };
        (kind, Domain::new(kind, SpaceScale::Enlarged).enumerate())
    }

    /// What the evaluator has charged and chosen so far.
    fn state(eval: &Evaluator<'_>) -> (usize, usize, usize, usize) {
        (eval.entries.len(), eval.pruned, eval.best, eval.seen.len())
    }

    #[test]
    fn a_batch_crossing_the_budget_stops_exactly_at_it() {
        let gpu = gpu_sim::a100();
        let (kind, all) = sweep();
        // Past the first pruned configs, mid-chunk.
        const CAP: usize = 250;
        for cutoff in [false, true] {
            let mut eval = Evaluator::new(kind, &gpu, CAP);
            eval.eval_default(&all[0]).expect("default builds");
            eval.score(&all, cutoff);
            // Scored plus pruned is exactly the budget, and the charged
            // configs are exactly the sweep's first CAP.
            assert_eq!(eval.entries.len() + eval.pruned, CAP, "cutoff: {cutoff}");
            assert!(eval.exhausted());
            assert_eq!(eval.seen.len(), CAP);
            assert!(all[..CAP].iter().all(|c| eval.seen.contains_key(c)));
            if cutoff {
                assert!(eval.pruned > 0, "the budget must cross pruned configs");
            } else {
                assert_eq!(eval.pruned, 0);
                let scored: Vec<TunedConfig> = eval.entries.iter().map(|(c, _)| c.config).collect();
                assert_eq!(scored, all[..CAP]);
            }
            // Nothing more fits: seen configs are free, unseen ones are
            // refused.
            let before = state(&eval);
            eval.score(&all, cutoff);
            assert_eq!(state(&eval), before);
            assert!(eval.eval(&all[CAP]).is_none());
            assert_eq!(state(&eval), before);
        }
    }

    #[test]
    fn rescoring_a_seen_config_costs_nothing() {
        let gpu = gpu_sim::a100();
        let (kind, all) = sweep();
        let mut eval = Evaluator::new(kind, &gpu, usize::MAX);
        eval.eval_default(&all[0]).expect("default builds");
        eval.score(&all[..64], false);
        let before = state(&eval);
        let best = eval.entries[eval.best].1;
        assert_eq!(before.0, 64);

        eval.score(&all[..64], false);
        eval.score(&all[..64], true);
        for c in &all[..64] {
            let idx = eval.seen[c];
            assert_eq!(
                eval.eval(c).map(|e| e.time_s),
                Some(eval.entries[idx].1.time_s)
            );
        }
        assert_eq!(state(&eval), before);
        assert_eq!(eval.entries[eval.best].1.time_s, best.time_s);

        // A batch mixing seen and fresh configs charges only the fresh.
        eval.score(&all[48..80], false);
        assert_eq!(eval.entries.len(), 80);
    }
}
