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
//!   rowwise cold pass that replays its access maps, plus a
//!   bound-pruned exhaustive search over the enlarged domain reporting
//!   its pruned count and traffic hit rate,
//!
//! and reports candidates/second plus the arena and memo hit rates
//! from [`lego_expr::intern::stats`]. Results land in
//! `BENCH_tuner[_<device>].json` (`--device a100|h100|mi300`), uploaded
//! by CI next to the paper-table artifacts so the tuner's throughput
//! has its own trajectory. Rates are reported, never compared with
//! each other: wall-clock pairs are noisy, so the asserts check counts
//! and identities, and the tests (`two_tier`, `sidecar_persistence`,
//! `lego_tune::sidecar`) pin the memo and sidecar contracts.
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
//! simulate its schedules.

use std::time::Instant;

use gpu_sim::{CostModel, Estimate, GpuConfig, ReplayWork, Workload};
use lego_bench::{emit, tuned};
use lego_codegen::cuda::stencil::StencilShape;
use lego_core::Layout;
use lego_expr::intern::stats as arena_stats;
use lego_tune::space::annotate_cache_stats;
use lego_tune::{
    build_layout, build_workload, run_search, Budget, Candidate, Domain, Json, RowwiseOp,
    SearchOutcome, SpaceScale, Strategy, Tuner, WorkloadKind,
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

/// A kind's pricing phase ([`pricing_phase`]).
struct Pricing {
    jobs: usize,
    cold_s: f64,
    warm_s: f64,
    /// What the cold pass replayed; the warm pass replays nothing.
    cold_work: ReplayWork,
    /// Traffic-memo hit rate over both passes.
    hit_rate: f64,
    /// The bound-pruned exhaustive search over the enlarged domain.
    exhaustive: SearchOutcome,
}

/// Prices a kind's legacy jobs twice on a fresh thread (its traffic
/// memo and work counters start empty): cold, every geometry traced,
/// then warm, every price served from the memo the cold pass filled.
/// Checks the warm pass prices bit-identically and replays no trace,
/// then runs the bound-pruned exhaustive search over the enlarged
/// domain there while the memo is hot.
fn pricing_phase(kind: WorkloadKind, device: &GpuConfig) -> Pricing {
    let jobs = pricing_jobs(&kind, device);
    let device = device.clone();
    std::thread::spawn(move || {
        let model = CostModel::new(&device);
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
        let (h, m) = gpu_sim::traffic_memo_stats();
        let exhaustive = run_search(
            Strategy::Exhaustive,
            &Domain::new(kind, SpaceScale::Enlarged),
            &device,
            Budget::default(),
            "tuner-bench",
            &[],
        )
        .expect("exhaustive search");
        Pricing {
            jobs: jobs.len(),
            cold_s,
            warm_s,
            cold_work,
            hit_rate: rate(h, m),
            exhaustive,
        }
    })
    .join()
    .expect("pricing thread")
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

fn main() {
    tuned::reject_unknown_flags(&["--device"]);
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

        let pricing = pricing_phase(kind, &device);
        let ex = &pricing.exhaustive;
        total_pruned += ex.pruned;
        let price_cold = per_second(pricing.jobs, pricing.cold_s);
        let price_warm = per_second(pricing.jobs, pricing.warm_s);
        let ex_rate = rate(ex.traffic_hits, ex.traffic_misses);

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
            pricing.jobs,
            price_cold,
            price_warm,
            pricing.hit_rate * 100.0,
            ex.pruned,
            ex.evaluated,
            ex_rate * 100.0,
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
            ("pricing_jobs", Json::Int(pricing.jobs as i64)),
            ("pricing_cold_s", Json::Num(pricing.cold_s)),
            ("pricing_warm_s", Json::Num(pricing.warm_s)),
            ("pricing_cold_evals_per_s", Json::Num(price_cold)),
            ("pricing_warm_evals_per_s", Json::Num(price_warm)),
            (
                "pricing_cold_tile_touches",
                Json::Int(pricing.cold_work.tile_touches as i64),
            ),
            (
                "pricing_cold_lanes",
                Json::Int(pricing.cold_work.lanes as i64),
            ),
            ("traffic_hit_rate", Json::Num(pricing.hit_rate)),
            ("exhaustive_evaluated", Json::Int(ex.evaluated as i64)),
            ("exhaustive_pruned", Json::Int(ex.pruned as i64)),
            ("exhaustive_traffic_hit_rate", Json::Num(ex_rate)),
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
        // memo, so the phase's overall hit rate must be positive.
        assert!(
            pricing.hit_rate > 0.0,
            "{}: pricing phase never hit the traffic memo",
            kind.name()
        );
        // Rowwise replays its access maps, so its warm pass has a trace
        // to save. (This matmul's tiles fit the L2: its cold pass is
        // priced in closed form and replays nothing.)
        if matches!(kind, WorkloadKind::Rowwise { .. }) {
            assert!(
                pricing.cold_work.lanes > 0,
                "{}: cold pricing replayed no access map",
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
        }
    }

    emit::announce(emit::write_bench_json(
        &tuned::bench_name("tuner", &device),
        rows,
    ));
}
