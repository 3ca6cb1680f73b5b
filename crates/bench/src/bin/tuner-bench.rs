//! `tuner-bench`: the tuner-side perf series.
//!
//! The paper tables track what the *kernels* cost; this binary tracks
//! what the *tuner* costs — candidate construction
//! (`Layout` → `Expr` → simplify/op-count) is the search hot path, and
//! the interned expression IR exists to make it fast. Per workload
//! family it measures
//!
//! * a **cold** legacy-space enumeration (every candidate annotated
//!   from scratch — though even here the expression arena shares
//!   subtree work *across* candidates),
//! * a **warm** re-enumeration (the per-session candidate fast path:
//!   every annotation is a map hit), and
//! * a budgeted **anneal** search whose neighbor moves revisit
//!   incumbent-adjacent configurations, and
//! * a **two-tier pricing** phase: the legacy space's `(layout,
//!   workload)` jobs priced twice on a fresh thread — cold (every
//!   geometry traced) then warm (every price served from the traffic
//!   memo and re-assembled) — asserting bit-identical estimates, a
//!   warm pass that replays no trace ([`gpu_sim::replay_work`]) and a
//!   ≥ 2× warm speedup on the variant-heavy rowwise space, whose cold
//!   pass replays its access maps (this matmul's tiles fit the L2, so
//!   its cold pass is priced in closed form and replays nothing; the
//!   paper-size phase gates a matmul that overflows it), plus a
//!   bound-pruned exhaustive search over the enlarged domain reporting
//!   its pruned count and traffic hit rate,
//!
//! and reports candidates/second plus the arena and memo hit rates
//! from [`lego_expr::intern::stats`]. Results land in
//! `BENCH_tuner[_<device>].json` (`--device a100|h100|mi300`), uploaded
//! by CI next to the paper-table artifacts so the tuner's throughput
//! finally has its own trajectory.
//!
//! A final **sidecar** phase persists the run's answers — candidate
//! annotations and traffic geometries — into the cross-session memo
//! sidecar (`--sidecar PATH`, or a temp file removed afterwards) and
//! replays the full enumeration twice on fresh threads — a fresh thread
//! owns a fresh thread-local arena and an empty annotation cache, the
//! closest a single process gets to a restart. The cold replay
//! re-derives everything; the warmed replay installs the sidecar first
//! and answers every annotation from it. The phase asserts the two
//! produce byte-identical per-candidate results and that the warmed
//! replay's candidates/second is at least the cold one's, and emits a
//! `sidecar-rewarm` summary row (`cold_process_candidates_per_s`,
//! `sidecar_candidates_per_s`, `sidecar_speedup`, load time, entry and
//! annotation warm-hit counts). A matching `traffic-rewarm` row replays the
//! pricing jobs the same way: a cold process traces every geometry, a
//! sidecar-warmed one re-times from the persisted traffic memo, and
//! the two must price bit-identically.
//!
//! A **cold-search pass** phase tunes the benchmark's 39 `cold-search`
//! keys (13 exhaustive shapes on three devices) in a fixed order on a
//! fresh thread, twice. The `cold-search-pass` row reports each pass's
//! time and, per pass, its traffic-memo and annotation-cache hits and
//! misses and its replay work (tile touches fed through the LRU and
//! access-map lanes replayed, [`gpu_sim::replay_work`]): counts, which
//! the phase checks repeat exactly.
//!
//! A last **paper-size** phase prices the legacy matmul space at the
//! paper's Fig. 11 sizes (`n` ∈ {2048, 4096, 8192}) on the A100 model,
//! whatever `--device` says: each candidate traced cold (median and max
//! per-candidate price time), then the whole exhaustive search on a
//! fresh thread. One `matmul-paper-n<N>` row per size; the run fails
//! when the n=4096 search takes [`PAPER_SEARCH_GATE_S`] or more, or
//! touches no tile: its tiles overflow the A100's L2, so the LRU must
//! simulate its schedules. For n=4096 a `matmul-paper-n4096-two-tier`
//! row then prices the legacy jobs cold and warm on a fresh thread and
//! fails unless the cold pass fed tiles through the LRU and the warm
//! pass is at least 2× faster: the memo's gate where a matmul's cold
//! pricing still replays.

use std::time::Instant;

use gpu_sim::{CostModel, Estimate, GpuConfig, ReplayWork, Workload};
use lego_bench::{emit, tuned};
use lego_codegen::cuda::stencil::StencilShape;
use lego_core::Layout;
use lego_expr::intern::stats as arena_stats;
use lego_tune::space::annotate_cache_stats;
use lego_tune::{
    build_layout, build_workload, run_search, Budget, Candidate, Domain, Json, RowwiseOp,
    SpaceScale, Strategy, Tuner, WorkloadKind,
};

/// The benchmarked workload instances (gate-sized: every legacy tile
/// and block choice divides the problem).
fn workloads() -> Vec<WorkloadKind> {
    vec![
        WorkloadKind::Matmul { n: 1024 },
        WorkloadKind::Transpose { n: 512 },
        WorkloadKind::Stencil {
            shape: StencilShape::Star(1),
            n: 64,
        },
        WorkloadKind::Nw { n: 448, b: 16 },
        WorkloadKind::Lud { n: 512, bs: 16 },
        WorkloadKind::Rowwise {
            op: RowwiseOp::Softmax,
            m: 256,
            n: 1024,
        },
    ]
}

/// Hit rate of a `(hits, misses)` pair, `0.0` when idle.
fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Candidates per second, guarding tiny elapsed times.
fn per_second(count: usize, secs: f64) -> f64 {
    count as f64 / secs.max(1e-9)
}

/// A kind's legacy space, each candidate annotated (through the
/// session's annotation fast path).
fn legacy_candidates(kind: &WorkloadKind) -> Vec<Candidate> {
    Domain::new(*kind, SpaceScale::Legacy)
        .enumerate()
        .iter()
        .map(|c| Candidate::annotated(kind, c))
        .collect()
}

/// The `(layout, workload)` pricing jobs of a kind's legacy space,
/// built on the calling thread so candidate-construction cost stays
/// out of the timed pricing loops.
fn pricing_jobs(kind: &WorkloadKind, device: &GpuConfig) -> Vec<(Layout, Workload)> {
    legacy_candidates(kind)
        .iter()
        .filter_map(|c| {
            let layout = build_layout(kind, &c.config).ok()?;
            Some((layout, build_workload(kind, c, device)))
        })
        .collect()
}

/// Prices every workload's legacy jobs once on the calling thread:
/// `(jobs, seconds, estimates, traffic (hits, misses))`. On a fresh
/// `std::thread` the traffic memo starts empty, so this is the
/// cold-process stand-in for the pricing tier — unless a sidecar
/// installed its geometries first.
fn fresh_pricing(kinds: &[WorkloadKind], device: &GpuConfig) -> (usize, f64, Vec<Estimate>, f64) {
    let jobs: Vec<(Layout, Workload)> =
        kinds.iter().flat_map(|k| pricing_jobs(k, device)).collect();
    let model = CostModel::new(device);
    let t = Instant::now();
    let ests: Vec<Estimate> = jobs.iter().map(|(l, w)| model.price(l, w)).collect();
    let secs = t.elapsed().as_secs_f64();
    let (h, m) = gpu_sim::traffic_memo_stats();
    (jobs.len(), secs, ests, rate(h, m))
}

/// A two-tier pricing measurement ([`two_tier_pricing`]).
struct TwoTier {
    cold_s: f64,
    warm_s: f64,
    /// What the cold pass replayed; the warm pass replays nothing.
    cold_work: ReplayWork,
}

/// Prices `jobs` twice on the calling thread, which must be fresh (its
/// traffic memo and work counters start empty): cold, every geometry
/// traced, then warm, every price served from the memo the cold pass
/// filled. Checks the warm pass prices bit-identically and replays no
/// trace.
fn two_tier_pricing(jobs: &[(Layout, Workload)], device: &GpuConfig) -> TwoTier {
    let model = CostModel::new(device);
    let pass = || {
        let t = Instant::now();
        let ests: Vec<Estimate> = jobs.iter().map(|(l, w)| model.price(l, w)).collect();
        (ests, t.elapsed().as_secs_f64())
    };
    let (cold, cold_s) = pass();
    let cold_work = gpu_sim::replay_work();
    let (warm, warm_s) = pass();
    assert_eq!(cold, warm, "warm re-pricing diverged from the cold trace");
    assert_eq!(
        gpu_sim::replay_work(),
        cold_work,
        "warm re-pricing replayed a trace the memo holds"
    );
    TwoTier {
        cold_s,
        warm_s,
        cold_work,
    }
}

/// The shapes of the benchmark's `cold-search` key pool (its
/// exhaustive shapes), in pool order.
const COLD_SEARCH_SHAPES: [&str; 13] = [
    "softmax(m=256,n=1024)",
    "layernorm-fwd(m=256,n=1024)",
    "lud(n=256,bs=16)",
    "matmul(n=512)",
    "transpose(n=128)",
    "transpose(n=256)",
    "transpose(n=512)",
    "stencil(star-7pt,n=8)",
    "matmul(n=1024)",
    "stencil(cube-27pt,n=8)",
    "nw(n=112,b=16)",
    "stencil(star-7pt,n=16)",
    "nw(n=224,b=16)",
];

/// The devices the `cold-search` pool spreads each shape over.
const COLD_SEARCH_DEVICES: [&str; 3] = ["a100", "h100", "mi300"];

/// The work one cold-search pass did, in counts that depend on the keys
/// and their order alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PassCounts {
    traffic_hits: u64,
    traffic_misses: u64,
    annotate_hits: u64,
    annotate_misses: u64,
    /// Tile touches the traced matmul phases fed through the LRU.
    tile_touches: u64,
    /// Access-map lanes the traced global and shared phases replayed.
    lanes: u64,
}

/// One cold pass over the benchmark's `cold-search` keys: every shape
/// on every device, tuned exhaustively without a cache, in a fixed
/// order on a fresh thread (fresh traffic and annotation memos, as a
/// fresh daemon worker has). Returns the pass's seconds and its counts,
/// which two passes repeat exactly.
fn cold_search_pass() -> (f64, PassCounts) {
    std::thread::spawn(|| {
        let t = Instant::now();
        for shape in COLD_SEARCH_SHAPES {
            let kind = WorkloadKind::parse(shape).expect("cold-search shape parses");
            for tag in COLD_SEARCH_DEVICES {
                let device = gpu_sim::lookup(tag).expect("cold-search device");
                Tuner::new(device).tune(&kind).expect("cold-search tune");
            }
        }
        let secs = t.elapsed().as_secs_f64();
        let (traffic_hits, traffic_misses) = gpu_sim::traffic_memo_stats();
        let (annotate_hits, annotate_misses) = annotate_cache_stats();
        let work = gpu_sim::replay_work();
        let counts = PassCounts {
            traffic_hits,
            traffic_misses,
            annotate_hits,
            annotate_misses,
            tile_touches: work.tile_touches,
            lanes: work.lanes,
        };
        (secs, counts)
    })
    .join()
    .expect("cold-search pass thread")
}

/// The paper's Fig. 11 matmul sizes, priced by the paper-size phase.
const PAPER_MATMUL_SIZES: [i64; 3] = [2048, 4096, 8192];

/// Ceiling on the legacy exhaustive `matmul(n=4096)` search, in
/// seconds: five times the one-second target, so runner noise cannot
/// flip it.
const PAPER_SEARCH_GATE_S: f64 = 5.0;

/// Prices the legacy matmul space at size `n` on the A100 model and
/// returns its summary row: every candidate traced cold (through the
/// unmemoized `CostModel::trace`), then the whole exhaustive search
/// on a fresh thread, whose traffic memo starts empty. Also returns the
/// search's seconds and the tile touches it fed through the LRU (none
/// when the tiles fit the L2, as up to n=2048).
fn paper_matmul_row(n: i64) -> (Json, f64, u64) {
    let device = gpu_sim::a100();
    let kind = WorkloadKind::Matmul { n };
    let model = CostModel::new(&device);
    let mut times: Vec<f64> = pricing_jobs(&kind, &device)
        .into_iter()
        .map(|(l, w)| {
            let t = Instant::now();
            std::hint::black_box(model.assemble(&w, &model.trace(&l, &w)));
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let median = times.get(times.len() / 2).copied().unwrap_or(0.0);
    let max = times.last().copied().unwrap_or(0.0);
    let (search_s, evaluated, touches) = std::thread::scope(|s| {
        s.spawn(|| {
            let t = Instant::now();
            let outcome = run_search(
                Strategy::Exhaustive,
                &Domain::new(kind, SpaceScale::Legacy),
                &device,
                Budget::default(),
                "tuner-bench",
                &[],
            )
            .expect("paper-size exhaustive search");
            let touches = gpu_sim::replay_work().tile_touches;
            (t.elapsed().as_secs_f64(), outcome.evaluated, touches)
        })
        .join()
        .expect("paper-size search thread")
    });
    println!(
        "{:<22} {:>6} cands  price median {:.2}ms max {:.2}ms  exhaustive {:.2}s \
         ({} evaluated, {} tile touches)",
        format!("matmul(n={n}) a100"),
        times.len(),
        median * 1e3,
        max * 1e3,
        search_s,
        evaluated,
        touches,
    );
    let row = Json::obj([
        ("workload", Json::Str(format!("matmul-paper-n{n}"))),
        ("device", Json::Str(device.tag.to_string())),
        ("candidates", Json::Int(times.len() as i64)),
        ("price_median_s", Json::Num(median)),
        ("price_max_s", Json::Num(max)),
        ("exhaustive_evaluated", Json::Int(evaluated as i64)),
        ("exhaustive_search_s", Json::Num(search_s)),
        ("exhaustive_tile_touches", Json::Int(touches as i64)),
    ]);
    (row, search_s, touches)
}

/// The two-tier pricing gate on the paper-size matmul at `n` on the
/// A100 model, whose tiles overflow its L2 (n ≥ 4096): the legacy jobs
/// priced cold and warm on a fresh thread ([`two_tier_pricing`]). The
/// cold pass feeds every schedule through the LRU, so the memoized
/// traffic pass must at least double pricing throughput.
fn paper_two_tier_row(n: i64) -> Json {
    let device = gpu_sim::a100();
    let jobs = pricing_jobs(&WorkloadKind::Matmul { n }, &device);
    let (jobs_n, tag) = (jobs.len(), device.tag.to_string());
    let tiers = std::thread::spawn(move || two_tier_pricing(&jobs, &device))
        .join()
        .expect("paper-size pricing thread");
    let cold = per_second(jobs_n, tiers.cold_s);
    let warm = per_second(jobs_n, tiers.warm_s);
    println!(
        "{:<22} {:>6} jobs  cold {cold:.0} evals/s  warm {warm:.0} evals/s \
         ({:.0}x, {} cold tile touches)",
        "  two-tier pricing",
        jobs_n,
        warm / cold.max(1e-9),
        tiers.cold_work.tile_touches,
    );
    assert!(
        tiers.cold_work.tile_touches > 0,
        "matmul(n={n}): cold pricing fed no tile through the LRU"
    );
    assert!(
        warm >= 2.0 * cold,
        "matmul(n={n}): two-tier pricing below 2x ({warm:.0} vs {cold:.0} evals/s)"
    );
    Json::obj([
        ("workload", Json::Str(format!("matmul-paper-n{n}-two-tier"))),
        ("device", Json::Str(tag)),
        ("pricing_jobs", Json::Int(jobs_n as i64)),
        ("pricing_cold_s", Json::Num(tiers.cold_s)),
        ("pricing_warm_s", Json::Num(tiers.warm_s)),
        ("pricing_cold_evals_per_s", Json::Num(cold)),
        ("pricing_warm_evals_per_s", Json::Num(warm)),
        ("pricing_speedup", Json::Num(warm / cold.max(1e-9))),
        (
            "pricing_cold_tile_touches",
            Json::Int(tiers.cold_work.tile_touches as i64),
        ),
    ])
}

/// Enumerates every workload once on the *calling* thread and returns
/// `(candidates, seconds, per-candidate result lines, memo hit rate)`.
/// Run on a fresh `std::thread` this is a cold-process stand-in: the
/// thread-local arena and annotation cache start empty, so the only
/// possible warm-up is whatever a sidecar installed beforehand.
fn fresh_enumeration(kinds: &[WorkloadKind]) -> (usize, f64, Vec<String>, f64) {
    let before = arena_stats();
    let t = Instant::now();
    let mut lines = Vec::new();
    for kind in kinds {
        for c in &legacy_candidates(kind) {
            lines.push(format!(
                "{}|{}|{:?}|{:?}",
                kind.name(),
                c.config,
                c.expr_variant,
                c.index_ops
            ));
        }
    }
    let secs = t.elapsed().as_secs_f64();
    let stats = arena_stats().since(&before);
    let n = lines.len();
    (n, secs, lines, rate(stats.memo_hits(), stats.memo_misses()))
}

fn main() {
    tuned::reject_unknown_flags(&["--device", "--sidecar"]);
    let device = tuned::device_from_args();
    println!(
        "-- tuner-bench: candidate-construction throughput ({}) --",
        device.name
    );
    println!(
        "{:<22} {:>6} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "workload", "cands", "cold c/s", "warm c/s", "intern%", "memo%", "anneal c/s"
    );

    let mut rows = Vec::new();
    let mut total_pruned = 0usize;
    for kind in workloads() {
        let before = arena_stats();
        let (ann_h0, ann_m0) = annotate_cache_stats();

        // Cold: every candidate annotated for the first time.
        let t0 = Instant::now();
        let candidates = legacy_candidates(&kind).len();
        let cold_s = t0.elapsed().as_secs_f64();
        let cold_stats = arena_stats().since(&before);

        // Warm: the annotation fast path answers from the session map.
        let t1 = Instant::now();
        let warm = legacy_candidates(&kind);
        let warm_s = t1.elapsed().as_secs_f64();
        assert_eq!(warm.len(), candidates);

        // Anneal: neighbor/crossover moves share the incumbent's
        // subtrees through the same arena.
        let t2 = Instant::now();
        let result = Tuner::new(device.clone())
            .with_strategy(Strategy::Anneal)
            .with_budget(Budget(128))
            .tune(&kind)
            .expect("anneal search");
        let anneal_s = t2.elapsed().as_secs_f64();

        // Two-tier pricing: price the legacy jobs once on the main
        // thread (feeding the session traffic memo that the sidecar
        // phase below persists), then measure the cold-vs-warm pricing
        // split on a fresh thread whose traffic memo starts empty, and
        // run the bound-pruned exhaustive sweep over the enlarged
        // domain there while its memo is hot.
        let jobs = pricing_jobs(&kind, &device);
        let jobs_n = jobs.len();
        {
            let model = CostModel::new(&device);
            for (l, w) in &jobs {
                let _ = model.price(l, w);
            }
        }
        let (tiers, tr_rate, ex) = {
            let device = device.clone();
            std::thread::spawn(move || {
                let tiers = two_tier_pricing(&jobs, &device);
                let (h, m) = gpu_sim::traffic_memo_stats();
                let outcome = run_search(
                    Strategy::Exhaustive,
                    &Domain::new(kind, SpaceScale::Enlarged),
                    &device,
                    Budget::default(),
                    "tuner-bench",
                    &[],
                )
                .expect("exhaustive search");
                (
                    tiers,
                    rate(h, m),
                    (
                        outcome.evaluated,
                        outcome.pruned,
                        outcome.traffic_hits,
                        outcome.traffic_misses,
                    ),
                )
            })
            .join()
            .expect("pricing thread")
        };
        let (ex_evaluated, ex_pruned, ex_hits, ex_misses) = ex;
        total_pruned += ex_pruned;
        let TwoTier {
            cold_s: price_cold_s,
            warm_s: price_warm_s,
            cold_work,
        } = tiers;
        let price_cold = per_second(jobs_n, price_cold_s);
        let price_warm = per_second(jobs_n, price_warm_s);

        let total_stats = arena_stats().since(&before);
        let (ann_h1, ann_m1) = annotate_cache_stats();
        let intern_rate = rate(total_stats.intern_hits, total_stats.intern_misses);
        let memo_rate = rate(total_stats.memo_hits(), total_stats.memo_misses());
        // The cold enumeration alone must already share work across
        // candidates; this is the number the acceptance gate watches.
        let cold_memo_rate = rate(cold_stats.memo_hits(), cold_stats.memo_misses());

        println!(
            "{:<22} {:>6} {:>12.0} {:>12.0} {:>9.1}% {:>9.1}% {:>10.0}",
            kind.name(),
            candidates,
            per_second(candidates, cold_s),
            per_second(candidates, warm_s),
            intern_rate * 100.0,
            memo_rate * 100.0,
            per_second(result.evaluated, anneal_s),
        );
        println!(
            "{:<22} {:>6} {:>12.0} {:>12.0} {:>9.1}%   pruned {}/{} (traffic {:.1}%)",
            "  two-tier pricing",
            jobs_n,
            price_cold,
            price_warm,
            tr_rate * 100.0,
            ex_pruned,
            ex_evaluated,
            rate(ex_hits, ex_misses) * 100.0,
        );

        rows.push(Json::obj([
            ("workload", Json::Str(kind.name())),
            ("candidates", Json::Int(candidates as i64)),
            ("cold_enumerate_s", Json::Num(cold_s)),
            ("warm_enumerate_s", Json::Num(warm_s)),
            (
                "cold_candidates_per_s",
                Json::Num(per_second(candidates, cold_s)),
            ),
            (
                "warm_candidates_per_s",
                Json::Num(per_second(candidates, warm_s)),
            ),
            ("anneal_evaluated", Json::Int(result.evaluated as i64)),
            ("anneal_s", Json::Num(anneal_s)),
            (
                "anneal_evals_per_s",
                Json::Num(per_second(result.evaluated, anneal_s)),
            ),
            ("arena_nodes", Json::Int(arena_stats().nodes as i64)),
            ("intern_hit_rate", Json::Num(intern_rate)),
            ("memo_hit_rate", Json::Num(memo_rate)),
            ("cold_memo_hit_rate", Json::Num(cold_memo_rate)),
            (
                "simplify_hit_rate",
                Json::Num(rate(total_stats.simplify_hits, total_stats.simplify_misses)),
            ),
            (
                "pass_hit_rate",
                Json::Num(rate(total_stats.pass_hits, total_stats.pass_misses)),
            ),
            (
                "opcount_hit_rate",
                Json::Num(rate(total_stats.opcount_hits, total_stats.opcount_misses)),
            ),
            (
                "prove_hit_rate",
                Json::Num(rate(total_stats.prove_hits, total_stats.prove_misses)),
            ),
            ("annotate_cache_hits", Json::Int((ann_h1 - ann_h0) as i64)),
            ("annotate_cache_misses", Json::Int((ann_m1 - ann_m0) as i64)),
            ("pricing_jobs", Json::Int(jobs_n as i64)),
            ("pricing_cold_s", Json::Num(price_cold_s)),
            ("pricing_warm_s", Json::Num(price_warm_s)),
            ("pricing_cold_evals_per_s", Json::Num(price_cold)),
            ("pricing_warm_evals_per_s", Json::Num(price_warm)),
            (
                "pricing_speedup",
                Json::Num(price_warm / price_cold.max(1e-9)),
            ),
            (
                "pricing_cold_tile_touches",
                Json::Int(cold_work.tile_touches as i64),
            ),
            ("pricing_cold_lanes", Json::Int(cold_work.lanes as i64)),
            ("traffic_hit_rate", Json::Num(tr_rate)),
            ("exhaustive_evaluated", Json::Int(ex_evaluated as i64)),
            ("exhaustive_pruned", Json::Int(ex_pruned as i64)),
            (
                "exhaustive_traffic_hit_rate",
                Json::Num(rate(ex_hits, ex_misses)),
            ),
        ]));

        // The whole point of the interned IR: candidate construction
        // work repeats, and the memo tables must be absorbing it —
        // already during the *cold* enumeration (cross-candidate
        // subtree sharing), not just on warm revisits.
        assert!(
            cold_stats.memo_hits() > 0,
            "{}: cold enumeration shared no expression work",
            kind.name()
        );
        // Warm revisits must short-circuit in the annotation fast path
        // (they never even reach the expression tables).
        assert!(
            ann_h1 - ann_h0 >= candidates as u64,
            "{}: warm enumeration missed the annotation cache",
            kind.name()
        );
        // The warm pricing pass answers every probe from the traffic
        // memo, so the phase's overall hit rate must be positive and
        // re-timing can never be slower than re-tracing.
        assert!(
            tr_rate > 0.0,
            "{}: pricing phase never hit the traffic memo",
            kind.name()
        );
        assert!(
            price_warm >= price_cold,
            "{}: warm pricing slower than cold ({price_warm:.0} vs {price_cold:.0} evals/s)",
            kind.name()
        );
        // The acceptance gate: where the cold pass replays traces, the
        // memoized traffic pass must at least double pricing throughput.
        // Rowwise replays its access maps. This matmul's tiles fit the
        // L2, so its cold pass is priced in closed form and replays
        // nothing for the memo to save; the paper-size phase gates a
        // matmul whose tiles overflow the L2 instead.
        if matches!(kind, WorkloadKind::Rowwise { .. }) {
            assert!(
                cold_work.lanes > 0,
                "{}: cold pricing replayed no access map",
                kind.name()
            );
            assert!(
                price_warm >= 2.0 * price_cold,
                "{}: two-tier pricing below 2x ({price_warm:.0} vs {price_cold:.0} evals/s)",
                kind.name()
            );
        }
    }
    // Across the families, the admissible bound must actually prune
    // (NW's rounds floor and LUD's stream floor dismiss far-from-peak
    // tiles; matmul's wave-quantization factor sharpens the rest).
    assert!(
        total_pruned > 0,
        "the admissible bound pruned nothing across any family"
    );

    // Cross-session sidecar: persist everything the run above derived,
    // then replay the full enumeration on two fresh threads — one cold,
    // one warmed from the sidecar — and compare results and throughput.
    let kinds = workloads();
    let (sidecar_path, keep_sidecar) = match tuned::sidecar_from_args() {
        Some(p) => (p, true),
        None => {
            let p = std::env::temp_dir()
                .join(format!("tuner-bench-sidecar-{}.txt", std::process::id()));
            let _ = std::fs::remove_file(&p);
            (p, false)
        }
    };
    lego_tune::sidecar::collect_and_save(&sidecar_path).expect("sidecar write");
    let entries = lego_tune::Sidecar::load(&sidecar_path).len();

    let cold = {
        let kinds = kinds.clone();
        std::thread::spawn(move || fresh_enumeration(&kinds))
            .join()
            .expect("cold replay thread")
    };
    let (warmed, load_s, installed, warm_hits) = {
        let kinds = kinds.clone();
        let path = sidecar_path.clone();
        std::thread::spawn(move || {
            let t = Instant::now();
            let warm = lego_tune::sidecar::load_and_install(&path);
            let load_s = t.elapsed().as_secs_f64();
            let r = fresh_enumeration(&kinds);
            let (_, hits) = lego_tune::space::annotate_sidecar_stats();
            (r, load_s, warm.installed(), hits)
        })
        .join()
        .expect("warmed replay thread")
    };

    let (cold_n, cold_s, cold_lines, cold_memo) = cold;
    let (warm_n, warm_s, warm_lines, warm_memo) = warmed;
    assert_eq!(cold_n, warm_n, "replay candidate counts diverged");
    assert_eq!(
        cold_lines, warm_lines,
        "sidecar-warmed replay produced different results than cold"
    );
    assert!(
        installed > 0,
        "sidecar installed nothing after a full bench run"
    );
    assert!(warm_hits > 0, "sidecar-warmed replay never hit the sidecar");
    let cold_cps = per_second(cold_n, cold_s);
    let warm_cps = per_second(warm_n, warm_s);
    assert!(
        warm_cps >= cold_cps,
        "sidecar-warmed replay was slower than a cold process \
         ({warm_cps:.0} vs {cold_cps:.0} candidates/s)"
    );
    println!(
        "sidecar rewarm: {entries} entries ({installed} installed, load {:.2}ms); \
         cold {cold_cps:.0} c/s -> warmed {warm_cps:.0} c/s ({:.1}x), \
         {warm_hits} warm hits, byte-identical results",
        load_s * 1e3,
        warm_cps / cold_cps.max(1e-9)
    );
    rows.push(Json::obj([
        ("workload", Json::Str("sidecar-rewarm".to_string())),
        ("candidates", Json::Int(cold_n as i64)),
        ("sidecar_entries", Json::Int(entries as i64)),
        ("sidecar_installed", Json::Int(installed as i64)),
        ("sidecar_load_s", Json::Num(load_s)),
        ("sidecar_warm_hits", Json::Int(warm_hits as i64)),
        ("cold_process_candidates_per_s", Json::Num(cold_cps)),
        ("sidecar_candidates_per_s", Json::Num(warm_cps)),
        ("sidecar_speedup", Json::Num(warm_cps / cold_cps.max(1e-9))),
        ("cold_process_memo_hit_rate", Json::Num(cold_memo)),
        ("sidecar_memo_hit_rate", Json::Num(warm_memo)),
        ("byte_identical", Json::Bool(true)),
    ]));
    // Traffic rewarm: the same fresh-thread replay for the pricing
    // tier. The cold process traces every geometry from scratch; the
    // warmed one installs the sidecar's traffic section first and
    // re-times from it. Both must price bit-identically.
    let tcold = {
        let kinds = kinds.clone();
        let device = device.clone();
        std::thread::spawn(move || fresh_pricing(&kinds, &device))
            .join()
            .expect("cold pricing thread")
    };
    let (twarm, tload_s, tinstalled, tside_hits) = {
        let kinds = kinds.clone();
        let device = device.clone();
        let path = sidecar_path.clone();
        std::thread::spawn(move || {
            let t = Instant::now();
            let warm = lego_tune::sidecar::load_and_install(&path);
            let load_s = t.elapsed().as_secs_f64();
            let r = fresh_pricing(&kinds, &device);
            let (_, hits) = gpu_sim::traffic_sidecar_stats();
            (r, load_s, warm.traffics, hits)
        })
        .join()
        .expect("warmed pricing thread")
    };
    let (tcold_n, tcold_s, tcold_ests, _) = tcold;
    let (twarm_n, twarm_s, twarm_ests, twarm_rate) = twarm;
    assert_eq!(tcold_n, twarm_n, "pricing replay job counts diverged");
    assert_eq!(
        tcold_ests, twarm_ests,
        "sidecar-warmed pricing produced different estimates than cold"
    );
    assert!(tinstalled > 0, "sidecar carried no traffic geometries");
    assert!(
        tside_hits > 0,
        "warmed pricing never hit the imported traffic memo"
    );
    let tcold_eps = per_second(tcold_n, tcold_s);
    let twarm_eps = per_second(twarm_n, twarm_s);
    assert!(
        twarm_eps >= tcold_eps,
        "traffic-rewarmed pricing was slower than a cold process \
         ({twarm_eps:.0} vs {tcold_eps:.0} evals/s)"
    );
    println!(
        "traffic rewarm: {tinstalled} geometries (load {:.2}ms); \
         cold {tcold_eps:.0} evals/s -> warmed {twarm_eps:.0} evals/s ({:.1}x), \
         {tside_hits} warm hits, bit-identical estimates",
        tload_s * 1e3,
        twarm_eps / tcold_eps.max(1e-9)
    );
    rows.push(Json::obj([
        ("workload", Json::Str("traffic-rewarm".to_string())),
        ("pricing_jobs", Json::Int(tcold_n as i64)),
        ("traffic_installed", Json::Int(tinstalled as i64)),
        ("sidecar_load_s", Json::Num(tload_s)),
        ("traffic_warm_hits", Json::Int(tside_hits as i64)),
        ("cold_process_evals_per_s", Json::Num(tcold_eps)),
        ("sidecar_evals_per_s", Json::Num(twarm_eps)),
        (
            "traffic_speedup",
            Json::Num(twarm_eps / tcold_eps.max(1e-9)),
        ),
        ("sidecar_traffic_hit_rate", Json::Num(twarm_rate)),
        ("bit_identical", Json::Bool(true)),
    ]));
    if !keep_sidecar {
        let _ = std::fs::remove_file(&sidecar_path);
    }

    println!("-- cold-search pass: the benchmark's cold keys on fresh threads --");
    let passes = [cold_search_pass(), cold_search_pass()];
    assert_eq!(
        passes[0].1, passes[1].1,
        "two cold-search passes did different work"
    );
    let c = passes[0].1;
    println!(
        "{:<22} {:>6} keys   {} traffic misses ({} hits), \
         {} annotation misses ({} hits), {} tile touches, {} lanes per pass; \
         {:.1}ms / {:.1}ms",
        "cold-search pass",
        COLD_SEARCH_SHAPES.len() * COLD_SEARCH_DEVICES.len(),
        c.traffic_misses,
        c.traffic_hits,
        c.annotate_misses,
        c.annotate_hits,
        c.tile_touches,
        c.lanes,
        passes[0].0 * 1e3,
        passes[1].0 * 1e3,
    );
    rows.push(Json::obj([
        ("workload", Json::Str("cold-search-pass".to_string())),
        (
            "keys",
            Json::Int((COLD_SEARCH_SHAPES.len() * COLD_SEARCH_DEVICES.len()) as i64),
        ),
        ("traffic_hits", Json::Int(c.traffic_hits as i64)),
        ("traffic_misses", Json::Int(c.traffic_misses as i64)),
        ("annotate_hits", Json::Int(c.annotate_hits as i64)),
        ("annotate_misses", Json::Int(c.annotate_misses as i64)),
        ("tile_touches", Json::Int(c.tile_touches as i64)),
        ("lanes", Json::Int(c.lanes as i64)),
        ("pass_s", Json::Num(passes[0].0)),
        ("second_pass_s", Json::Num(passes[1].0)),
    ]));

    println!("-- paper-size matmul: legacy exhaustive on the A100 model --");
    for n in PAPER_MATMUL_SIZES {
        let (row, search_s, touches) = paper_matmul_row(n);
        rows.push(row);
        if n == 4096 {
            assert!(
                search_s < PAPER_SEARCH_GATE_S,
                "legacy exhaustive matmul(n=4096) took {search_s:.2}s \
                 (gate {PAPER_SEARCH_GATE_S}s)"
            );
            // Its tiles overflow the A100's L2, so the schedule matters
            // and the search must simulate it.
            assert!(touches > 0, "matmul(n=4096) was priced without the LRU");
            rows.push(paper_two_tier_row(n));
        }
    }

    emit::announce(emit::write_bench_json(
        &tuned::bench_name("tuner", &device),
        rows,
    ));
}
