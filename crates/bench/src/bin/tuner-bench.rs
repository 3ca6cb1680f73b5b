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
//!   memo and re-assembled) — asserting bit-identical estimates and a
//!   ≥ 2× warm speedup on the variant-heavy matmul/rowwise spaces,
//!   plus a bound-pruned exhaustive search over the enlarged domain
//!   reporting its pruned count and traffic hit rate,
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

use std::time::Instant;

use gpu_sim::score::ScoreJob;
use gpu_sim::{CostModel, Estimate, GpuConfig};
use lego_bench::{emit, tuned};
use lego_codegen::cuda::stencil::StencilShape;
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
fn pricing_jobs(kind: &WorkloadKind, device: &GpuConfig) -> Vec<ScoreJob> {
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
    let jobs: Vec<ScoreJob> = kinds.iter().flat_map(|k| pricing_jobs(k, device)).collect();
    let model = CostModel::new(device);
    let t = Instant::now();
    let ests: Vec<Estimate> = jobs.iter().map(|(l, w)| model.price(l, w)).collect();
    let secs = t.elapsed().as_secs_f64();
    let (h, m) = gpu_sim::traffic_memo_stats();
    (jobs.len(), secs, ests, rate(h, m))
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
        let (price_cold_s, price_warm_s, tr_rate, ex) = {
            let device = device.clone();
            std::thread::spawn(move || {
                let model = CostModel::new(&device);
                let t = Instant::now();
                let cold: Vec<Estimate> = jobs.iter().map(|(l, w)| model.price(l, w)).collect();
                let cold_s = t.elapsed().as_secs_f64();
                let t = Instant::now();
                let warm: Vec<Estimate> = jobs.iter().map(|(l, w)| model.price(l, w)).collect();
                let warm_s = t.elapsed().as_secs_f64();
                assert_eq!(cold, warm, "warm re-pricing diverged from the cold trace");
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
                    cold_s,
                    warm_s,
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
        // The acceptance gate: on the variant-heavy spaces the memoized
        // traffic pass must at least double pricing throughput.
        if matches!(
            kind,
            WorkloadKind::Matmul { .. } | WorkloadKind::Rowwise { .. }
        ) {
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

    emit::announce(emit::write_bench_json(
        &tuned::bench_name("tuner", &device),
        rows,
    ));
}
