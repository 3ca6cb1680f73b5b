//! Correctness gates for the two-tier pricing split and the
//! bound-pruned exhaustive sweep.
//!
//! The traffic memo and the branch-and-bound cutoff are pure
//! optimizations: by contract they change *nothing* observable.
//!
//! * memo on vs. memo off must produce bit-identical [`Estimate`]s for
//!   every candidate of every workload family on every device
//!   ([`gpu_sim::CostModel::trace`] is the unmemoized traffic pass, so
//!   assembling its result compares the cached and the uncached
//!   paths), and a memo hit replays nothing ([`gpu_sim::replay_work`]);
//! * the memo key, derived from the phase descriptions, separates
//!   workloads whose traces differ and serves hand-built workloads too;
//! * [`gpu_sim::CostModel::bound`] must be admissible — never above
//!   the full-trace time — for every candidate, since the pruning
//!   proof rests on it;
//! * the pruned exhaustive search must return the same winner, naive
//!   baseline, frontier, and evaluation count as scoring everything.

use gpu_sim::trace::{LaneAxis, StencilWalk};
use gpu_sim::{a100, h100, mi300, CostModel, GpuConfig};
use lego_codegen::cuda::stencil::StencilShape;
use lego_tune::cache::config_to_json;
use lego_tune::strategy::rank;
use lego_tune::{
    run_search, Budget, Candidate, Domain, RowwiseOp, SpaceScale, Strategy, WorkloadKind,
    FRONTIER_K,
};

fn kinds() -> Vec<WorkloadKind> {
    vec![
        WorkloadKind::Matmul { n: 512 },
        WorkloadKind::Transpose { n: 256 },
        WorkloadKind::Stencil {
            shape: StencilShape::Star(1),
            n: 32,
        },
        WorkloadKind::Nw { n: 256, b: 16 },
        WorkloadKind::Lud { n: 256, bs: 16 },
        WorkloadKind::Rowwise {
            op: RowwiseOp::Softmax,
            m: 256,
            n: 1000,
        },
    ]
}

fn devices() -> Vec<GpuConfig> {
    vec![a100(), h100(), mi300()]
}

/// Unique feasible candidates of the enlarged domain (default first,
/// deduplicated in evaluation order — the same order and dedup the
/// exhaustive search uses), thinned to every `step`-th config so the
/// all-devices sweeps stay fast.
fn feasible(kind: &WorkloadKind, step: usize) -> Vec<(Candidate, lego_core::Layout)> {
    let domain = Domain::new(*kind, SpaceScale::Enlarged);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    let all = domain.enumerate();
    for c in std::iter::once(domain.default_config()).chain(all.into_iter().step_by(step.max(1))) {
        if !seen.insert(config_to_json(&c).render()) {
            continue;
        }
        let cand = Candidate::annotated(kind, &c);
        if let Ok(layout) = lego_tune::build_layout(kind, &cand.config) {
            out.push((cand, layout));
        }
    }
    out
}

#[test]
fn memoized_pricing_is_bit_identical_to_uncached() {
    for gpu in &devices() {
        let model = CostModel::new(gpu);
        for kind in &kinds() {
            for (cand, layout) in feasible(kind, 13) {
                let wl = lego_tune::build_workload(kind, &cand, gpu);
                let cached_cold = model.price(&layout, &wl);
                let work = gpu_sim::replay_work();
                let cached_warm = model.price(&layout, &wl);
                assert_eq!(
                    gpu_sim::replay_work(),
                    work,
                    "{kind:?} on {}: a warm memo hit replayed a trace",
                    gpu.tag
                );
                let uncached = model.assemble(&wl, &model.trace(&layout, &wl));
                assert_eq!(
                    cached_cold, uncached,
                    "{kind:?} on {}: memoized price diverged from direct trace",
                    gpu.tag
                );
                assert_eq!(
                    cached_cold, cached_warm,
                    "{kind:?} on {}: warm memo hit diverged from its own miss",
                    gpu.tag
                );
            }
        }
    }
}

/// Memo (hits, misses) on a fresh thread — a fresh memo — after
/// pricing `jobs` in order.
fn memo_probes(gpu: &GpuConfig, jobs: &[(lego_core::Layout, gpu_sim::Workload)]) -> (u64, u64) {
    std::thread::scope(|s| {
        s.spawn(|| {
            let model = CostModel::new(gpu);
            for (layout, wl) in jobs {
                let est = model.price(layout, wl);
                assert_eq!(est, model.assemble(wl, &model.trace(layout, wl)));
            }
            gpu_sim::traffic_memo_stats()
        })
        .join()
        .expect("memo probe thread")
    })
}

fn stencil(offsets: Vec<(i64, i64, i64)>) -> StencilWalk {
    StencilWalk {
        offsets,
        radius: 1,
        n: 16,
        block: (2, 4, 8),
        lane_axis: LaneAxis::YZ,
    }
}

/// Two stencils differing only in their offsets trace differently, so
/// they must not share a memo entry.
#[test]
fn stencils_differing_only_in_offsets_get_different_keys() {
    let gpu = a100();
    let layout = lego_core::brick::row_major3d(16).unwrap();
    let a = stencil(vec![(0, 0, 0), (1, 0, 0), (-1, 0, 0)]).build(&gpu);
    let b = stencil(vec![(0, 0, 0), (0, 1, 0), (0, -1, 0)]).build(&gpu);
    assert_eq!(
        memo_probes(&gpu, &[(layout.clone(), a), (layout, b)]),
        (0, 2)
    );
}

/// The L2 model lives on the global phase it filters, and the key
/// renders it there: two stencils differing only in their phase's L2
/// lines filter the same sectors differently, so they must not share a
/// memo entry (while a repeat of either is a hit).
#[test]
fn stencils_differing_only_in_l2_lines_get_different_keys() {
    use gpu_sim::Phase;
    let gpu = a100();
    let layout = lego_core::brick::row_major3d(16).unwrap();
    let a = stencil(vec![(0, 0, 0), (1, 0, 0), (-1, 0, 0)]).build(&gpu);
    let mut b = a.clone();
    let [Phase::Global { l2: Some(l2), .. }] = &mut b.phases[..] else {
        panic!("a stencil is one L2-filtered global phase");
    };
    l2.lines *= 2;
    let jobs = [
        (layout.clone(), a.clone()),
        (layout.clone(), b),
        (layout, a),
    ];
    assert_eq!(memo_probes(&gpu, &jobs), (1, 2));
}

/// LUD's panel traffic is the workload's streamed bytes, with no phase
/// to replay: the traced traffic is zero, the price is bit-identical to
/// assembling the direct trace, and the estimate's bytes are exactly
/// the streamed bytes.
#[test]
fn a_phaseless_lud_workload_prices_like_its_direct_trace() {
    for gpu in &devices() {
        let model = CostModel::new(gpu);
        let kind = WorkloadKind::Lud { n: 256, bs: 16 };
        for (cand, layout) in feasible(&kind, 1) {
            let wl = lego_tune::build_workload(&kind, &cand, gpu);
            assert!(wl.phases.is_empty(), "{:?}", cand.config);
            let tc = model.trace(&layout, &wl);
            assert_eq!(tc, gpu_sim::TrafficCost::default());
            let est = model.price(&layout, &wl);
            assert_eq!(est, model.assemble(&wl, &tc), "{:?}", cand.config);
            assert_eq!(est.dram_bytes, wl.streamed_dram_bytes);
            assert_eq!(est.l2_bytes, wl.streamed_l2_bytes);
        }
    }
}

/// A builder built for 32-lane warps and for 64-lane wavefronts
/// chunks its lanes differently, so the two must not share a memo
/// entry even when priced on one device.
#[test]
fn warp_widths_get_different_keys() {
    let gpu = a100();
    let wide = GpuConfig {
        warp_size: 64,
        ..a100()
    };
    let layout = lego_core::brick::row_major3d(16).unwrap();
    let walk = stencil(vec![(0, 0, 0), (1, 0, 0)]);
    let jobs = [
        (layout.clone(), walk.build(&gpu)),
        (layout, walk.build(&wide)),
    ];
    assert_eq!(memo_probes(&gpu, &jobs), (0, 2));
}

/// The device is not part of a trace: pricing every legacy candidate
/// of a family on the A100 and then on the H100, on one thread, traces
/// nothing new on the H100 for the families whose phases read only
/// fields the two devices share (sector width, bank geometry), while
/// matmul's tile phase, which reads the L2 capacity and the SM count,
/// traces again. Every estimate equals a fresh thread's direct trace.
#[test]
fn a100_and_h100_share_every_trace_but_matmuls() {
    let families = [
        WorkloadKind::Rowwise {
            op: RowwiseOp::Softmax,
            m: 256,
            n: 1024,
        },
        WorkloadKind::Lud { n: 256, bs: 16 },
        WorkloadKind::Transpose { n: 256 },
        WorkloadKind::Stencil {
            shape: StencilShape::Star(1),
            n: 16,
        },
        WorkloadKind::Nw { n: 112, b: 16 },
        WorkloadKind::Matmul { n: 512 },
    ];
    let (a, h) = (a100(), h100());
    for kind in &families {
        let (on_a, on_h) = (legacy_jobs(kind, &a), legacy_jobs(kind, &h));
        assert!(!on_a.is_empty(), "{kind:?}");
        let (priced, h_misses) = std::thread::scope(|s| {
            s.spawn(|| {
                let mut priced = Vec::new();
                for (layout, wl) in &on_a {
                    priced.push(CostModel::new(&a).price(layout, wl));
                }
                let before = gpu_sim::traffic_memo_stats().1;
                for (layout, wl) in &on_h {
                    priced.push(CostModel::new(&h).price(layout, wl));
                }
                (priced, gpu_sim::traffic_memo_stats().1 - before)
            })
            .join()
            .expect("pricing thread")
        });
        let direct = std::thread::scope(|s| {
            s.spawn(|| {
                let on = |gpu, jobs: &[(lego_core::Layout, gpu_sim::Workload)]| {
                    let model = CostModel::new(gpu);
                    let direct: Vec<_> = jobs
                        .iter()
                        .map(|(l, w)| model.assemble(w, &model.trace(l, w)))
                        .collect();
                    direct
                };
                [on(&a, &on_a), on(&h, &on_h)].concat()
            })
            .join()
            .expect("direct-trace thread")
        });
        assert_eq!(priced, direct, "{kind:?}: a memoized price diverged");
        match kind {
            WorkloadKind::Matmul { .. } => assert!(h_misses > 0, "matmul shared its tile traces"),
            _ => assert_eq!(h_misses, 0, "{kind:?} traced again on the h100"),
        }
    }
}

/// The memo key holds every device field a replay reads and no other:
/// a device differing from the A100 only in a field some phase reads
/// misses on the workloads with that phase and hits on the rest, and
/// one differing only in fields no replay reads hits everywhere. Each
/// answer, hit or miss, equals a direct trace on the device asked.
#[test]
fn the_memo_key_holds_exactly_the_device_fields_replay_reads() {
    let gpu = a100();
    let kind = WorkloadKind::Matmul { n: 512 };
    let cand = Candidate::annotated(&kind, &kind.default_config());
    let jobs = [
        // Global phase: reads the sector width.
        (
            lego_core::brick::row_major3d(16).unwrap(),
            stencil(vec![(0, 0, 0), (1, 0, 0), (-1, 0, 0)]).build(&gpu),
        ),
        // Shared phase: reads the bank count and width.
        (
            lego_core::Layout::identity([32i64, 32]).unwrap(),
            column_workload(),
        ),
        // Tile phase: reads the L2 capacity.
        (
            lego_tune::build_layout(&kind, &cand.config).unwrap(),
            lego_tune::build_workload(&kind, &cand, &gpu),
        ),
    ];
    let variants: [(&str, GpuConfig, [bool; 3]); 9] = [
        (
            "sector_bytes",
            GpuConfig {
                sector_bytes: 64,
                ..a100()
            },
            [true, false, false],
        ),
        (
            "smem_banks",
            GpuConfig {
                smem_banks: 64,
                ..a100()
            },
            [false, true, false],
        ),
        (
            "bank_bytes",
            GpuConfig {
                bank_bytes: 8,
                ..a100()
            },
            [false, true, false],
        ),
        (
            "l2_bytes",
            GpuConfig {
                l2_bytes: 8 << 20,
                ..a100()
            },
            [false, false, true],
        ),
        (
            "tag",
            GpuConfig {
                tag: "other",
                ..a100()
            },
            [false; 3],
        ),
        (
            "name",
            GpuConfig {
                name: "Other",
                ..a100()
            },
            [false; 3],
        ),
        (
            "sm_count",
            GpuConfig {
                sm_count: 7,
                ..a100()
            },
            [false; 3],
        ),
        (
            "dram_bw",
            GpuConfig {
                dram_bw: 1e9,
                ..a100()
            },
            [false; 3],
        ),
        (
            "l2_bw",
            GpuConfig {
                l2_bw: 1e9,
                ..a100()
            },
            [false; 3],
        ),
    ];
    for (field, device, misses) in &variants {
        std::thread::scope(|s| {
            s.spawn(|| {
                for (layout, wl) in &jobs {
                    CostModel::new(&gpu).traffic(layout, wl);
                }
                let model = CostModel::new(device);
                for ((layout, wl), &miss) in jobs.iter().zip(misses) {
                    let before = gpu_sim::traffic_memo_stats().1;
                    let got = model.traffic(layout, wl);
                    let missed = gpu_sim::traffic_memo_stats().1 > before;
                    assert_eq!(missed, miss, "{field}: phases {:?}", wl.phases.len());
                    assert_eq!(got, model.trace(layout, wl), "{field}: a stale trace");
                }
            });
        });
    }
}

/// A hand-built workload: one shared phase reading a 32×32 layout
/// column by column.
fn column_workload() -> gpu_sim::Workload {
    use gpu_sim::{AccessMap, BlockResources, Coord, Lane, Phase, Pipeline, PricingMode, Workload};
    let column = vec![
        Coord(0, vec![], Lane::Mul(1)),
        Coord(0, vec![1], Lane::Mul(0)),
    ];
    Workload {
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
            map: AccessMap::new(vec![32], 32, 32, vec![column]),
            scale: 1.0,
        }],
    }
}

/// A workload built by hand, not by a `gpu_sim::trace` builder, is
/// memoized like any other: pricing it again is a memo hit.
#[test]
fn a_hand_built_workload_is_memoized() {
    let gpu = a100();
    let wl = column_workload();
    let layout = lego_core::Layout::identity([32i64, 32]).unwrap();
    let jobs = [(layout.clone(), wl.clone()), (layout, wl)];
    assert_eq!(memo_probes(&gpu, &jobs), (1, 1));
}

/// The memo keys a layout by its specification, so a hit compiles
/// nothing: a freshly built layout equal to one already priced is
/// answered without a single call of its `GenP`'s forward closure,
/// while the miss that first priced it tabulated the whole tile.
#[test]
fn a_memo_hit_never_calls_the_layout_closures() {
    use lego_core::{GenFns, Layout, OrderBy, Perm};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let calls = Arc::new(AtomicUsize::new(0));
    // A 32×32 transpose whose forward closure counts its calls.
    let layout = || {
        let counter = Arc::clone(&calls);
        let fns = GenFns {
            name: "counted_transpose32".into(),
            fwd: Arc::new(move |idx: &[i64]| {
                counter.fetch_add(1, Ordering::Relaxed);
                idx[1] * 32 + idx[0]
            }),
            inv: Arc::new(|f: i64| vec![f % 32, f / 32]),
            fwd_sym: None,
            inv_sym: None,
        };
        let perm = Perm::gen([32i64, 32], fns).unwrap();
        Layout::builder([32i64, 32])
            .order_by(OrderBy::new([perm]).unwrap())
            .build()
            .unwrap()
    };
    let gpu = a100();
    let wl = column_workload();
    std::thread::scope(|s| {
        s.spawn(|| {
            let model = CostModel::new(&gpu);
            let first = model.traffic(&layout(), &wl);
            assert_eq!(calls.swap(0, Ordering::Relaxed), 32 * 32, "a miss compiles");
            let second = model.traffic(&layout(), &wl);
            assert_eq!(
                calls.load(Ordering::Relaxed),
                0,
                "a hit compiled the layout"
            );
            assert_eq!(first, second);
            assert_eq!(gpu_sim::traffic_memo_stats(), (1, 1));
        });
    });
}

/// The shapes of the benchmark's key pools (its exhaustive and
/// anneal pools together).
const POOL_SHAPES: [&str; 16] = [
    "softmax(m=256,n=1024)",
    "layernorm-fwd(m=256,n=1024)",
    "layernorm-bwd(m=128,n=512)",
    "lud(n=256,bs=16)",
    "lud(n=512,bs=16)",
    "matmul(n=512)",
    "matmul(n=1024)",
    "transpose(n=128)",
    "transpose(n=256)",
    "transpose(n=512)",
    "stencil(star-7pt,n=8)",
    "stencil(cube-27pt,n=8)",
    "stencil(star-7pt,n=16)",
    "nw(n=64,b=16)",
    "nw(n=112,b=16)",
    "nw(n=224,b=16)",
];

/// The bound is admissible exactly, not up to rounding: it never
/// exceeds the priced time by even one ulp, so a strict `bound >
/// cutoff` never prunes a candidate that ties the cutoff. Checked over
/// a thinned enlarged domain of every family and over the whole legacy
/// domain of every benchmark pool shape, on every device.
#[test]
fn bound_never_exceeds_full_price() {
    let pools: Vec<(WorkloadKind, Vec<lego_tune::TunedConfig>)> = POOL_SHAPES
        .iter()
        .map(|shape| {
            let kind = WorkloadKind::parse(shape).expect("pool shape parses");
            (kind, Domain::new(kind, SpaceScale::Legacy).enumerate())
        })
        .collect();
    for gpu in &devices() {
        let model = CostModel::new(gpu);
        let thinned = kinds().into_iter().map(|kind| {
            let configs = feasible(&kind, 7).into_iter().map(|(c, _)| c.config);
            (kind, configs.collect::<Vec<_>>())
        });
        for (kind, configs) in thinned.chain(pools.iter().cloned()) {
            for config in configs {
                let Ok(layout) = lego_tune::build_layout(&kind, &config) else {
                    continue;
                };
                let cand = Candidate::annotated(&kind, &config);
                let wl = lego_tune::build_workload(&kind, &cand, gpu);
                let est = model.price(&layout, &wl);
                let lo = model.bound(&wl);
                assert!(
                    lo <= est.time_s,
                    "{kind:?} on {}: bound {lo:e} exceeds priced time {:e} for {:?}",
                    gpu.tag,
                    est.time_s,
                    cand.config
                );
            }
        }
    }
}

#[test]
fn pruned_exhaustive_matches_score_everything_ground_truth() {
    let gpu = a100();
    let mut total_pruned = 0;
    for kind in &kinds() {
        let domain = Domain::new(*kind, SpaceScale::Enlarged);
        // Ground truth: score every unique feasible config, no pruning.
        let scored: Vec<(Candidate, gpu_sim::Estimate)> = feasible(kind, 1)
            .into_iter()
            .map(|(cand, layout)| {
                let wl = lego_tune::build_workload(kind, &cand, &gpu);
                let est = CostModel::new(&gpu).price(&layout, &wl);
                (cand, est)
            })
            .collect();
        let mut best = 0;
        for (i, (_, est)) in scored.iter().enumerate() {
            if rank(est) < rank(&scored[best].1) {
                best = i;
            }
        }
        let mut order: Vec<usize> = (0..scored.len()).collect();
        order.sort_by(|&a, &b| {
            rank(&scored[a].1)
                .partial_cmp(&rank(&scored[b].1))
                .expect("finite estimates")
                .then(a.cmp(&b))
        });
        let frontier: Vec<(lego_tune::TunedConfig, f64)> = order
            .iter()
            .take(FRONTIER_K)
            .map(|&i| (scored[i].0.config, scored[i].1.time_s))
            .collect();

        let outcome = run_search(
            Strategy::Exhaustive,
            &domain,
            &gpu,
            Budget::default(),
            "two-tier-parity",
            &[],
        )
        .expect("exhaustive search succeeds");
        assert_eq!(
            outcome.winner.config, scored[best].0.config,
            "{kind:?}: pruning changed the winner"
        );
        assert_eq!(
            outcome.tuned, scored[best].1,
            "{kind:?}: pruning changed the winning estimate"
        );
        assert_eq!(
            outcome.naive, scored[0].1,
            "{kind:?}: pruning changed the naive baseline"
        );
        assert_eq!(
            outcome.frontier, frontier,
            "{kind:?}: pruning changed the persisted frontier"
        );
        assert_eq!(
            outcome.evaluated,
            scored.len(),
            "{kind:?}: scored + pruned must equal the unpruned count"
        );
        assert!(
            outcome.traffic_hits + outcome.traffic_misses > 0,
            "{kind:?}: keyed workloads must probe the traffic memo"
        );
        total_pruned += outcome.pruned;
    }
    assert!(
        total_pruned > 0,
        "the admissible bound pruned nothing across any family"
    );
}

/// The `(layout, workload)` jobs of a kind's legacy domain on `gpu`.
fn legacy_jobs(
    kind: &WorkloadKind,
    gpu: &GpuConfig,
) -> Vec<(lego_core::Layout, gpu_sim::Workload)> {
    Domain::new(*kind, SpaceScale::Legacy)
        .enumerate()
        .into_iter()
        .filter_map(|c| {
            let layout = lego_tune::build_layout(kind, &c).ok()?;
            let wl = lego_tune::build_workload(kind, &Candidate::annotated(kind, &c), gpu);
            Some((layout, wl))
        })
        .collect()
}

/// Prices every job set in order on one fresh thread (a fresh memo)
/// and returns each set's estimates and traffic-memo misses, after
/// checking that every estimate equals a second fresh thread's
/// unmemoized `assemble(wl, &trace(..))` bit for bit.
fn price_in_order(
    gpu: &GpuConfig,
    sets: &[Vec<(lego_core::Layout, gpu_sim::Workload)>],
) -> Vec<u64> {
    let (priced, misses): (Vec<Vec<gpu_sim::Estimate>>, Vec<u64>) = std::thread::scope(|s| {
        s.spawn(|| {
            let model = CostModel::new(gpu);
            sets.iter()
                .map(|jobs| {
                    let before = gpu_sim::traffic_memo_stats().1;
                    let priced = jobs.iter().map(|(l, w)| model.price(l, w)).collect();
                    (priced, gpu_sim::traffic_memo_stats().1 - before)
                })
                .unzip()
        })
        .join()
        .expect("pricing thread")
    });
    let direct: Vec<Vec<gpu_sim::Estimate>> = std::thread::scope(|s| {
        s.spawn(|| {
            let model = CostModel::new(gpu);
            let direct = |jobs: &Vec<(lego_core::Layout, gpu_sim::Workload)>| {
                jobs.iter()
                    .map(|(l, w)| model.assemble(w, &model.trace(l, w)))
                    .collect()
            };
            sets.iter().map(direct).collect()
        })
        .join()
        .expect("direct-trace thread")
    });
    assert_eq!(
        priced, direct,
        "a memoized price diverged from a direct trace"
    );
    misses
}

/// A phase's scale is not part of its trace: after every legacy
/// `nw(n=224,b=16)` candidate is priced, every `nw(n=112,b=16)`
/// candidate (the same blocks and layouts, fewer of them) is priced
/// without a single trace, on every device.
#[test]
fn nw_problem_sizes_share_their_block_traces() {
    let (large, small) = (
        WorkloadKind::Nw { n: 224, b: 16 },
        WorkloadKind::Nw { n: 112, b: 16 },
    );
    for gpu in &devices() {
        let sets = [legacy_jobs(&large, gpu), legacy_jobs(&small, gpu)];
        assert!(!sets[1].is_empty());
        let misses = price_in_order(gpu, &sets);
        assert!(misses[0] > 0, "{}: nothing traced", gpu.tag);
        assert_eq!(misses[1], 0, "{}: nw(n=112) traced again", gpu.tag);
    }
}

/// The staged transposes of the benchmark share their staging tiles
/// across problem sizes: after `transpose(n=128)`'s legacy candidates
/// are priced, the shared phases of every staged `n=256` and `n=512`
/// candidate hit, as does their flat global phase, which reads no
/// layout.
#[test]
fn staged_transposes_share_their_tile_traces_across_sizes() {
    use gpu_sim::Phase;
    let gpu = a100();
    let sets: Vec<_> = [128, 256, 512]
        .map(|n| legacy_jobs(&WorkloadKind::Transpose { n }, &gpu))
        .into_iter()
        .map(|jobs| {
            jobs.into_iter()
                .filter(|(_, wl)| wl.phases.iter().any(|p| matches!(p, Phase::Shared { .. })))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(
        sets.iter().all(|jobs| !jobs.is_empty()),
        "no staged transpose"
    );
    let misses = price_in_order(&gpu, &sets);
    assert!(misses[0] > 0);
    assert_eq!(misses[1..], [0, 0], "a staging tile was traced per size");
}

/// The key holds what a replay reads and nothing it only multiplies:
/// a shared phase priced again at another scale hits (and prices its
/// own scale), while a different access map or bank geometry misses.
#[test]
fn a_phase_scale_is_not_in_the_key() {
    use gpu_sim::Phase;
    let gpu = a100();
    let layout = lego_core::Layout::identity([32i64, 32]).unwrap();
    let scaled = |scale: f64, outer: i64| {
        let mut wl = column_workload();
        let Phase::Shared { map, scale: s } = &mut wl.phases[0] else {
            panic!("one shared phase");
        };
        (*s, map.outer) = (scale, vec![outer]);
        wl
    };
    let banks = GpuConfig {
        smem_banks: 16,
        ..a100()
    };
    std::thread::scope(|s| {
        s.spawn(|| {
            let probe = |gpu: &GpuConfig, wl: &gpu_sim::Workload| {
                let model = CostModel::new(gpu);
                let before = gpu_sim::traffic_memo_stats();
                let got = model.traffic(&layout, wl);
                assert_eq!(got, model.trace(&layout, wl), "a stale trace");
                let after = gpu_sim::traffic_memo_stats();
                (after.0 - before.0, after.1 - before.1)
            };
            assert_eq!(probe(&gpu, &scaled(1.0, 32)), (0, 1));
            assert_eq!(probe(&gpu, &scaled(7.0, 32)), (1, 0), "scale missed");
            assert_eq!(probe(&gpu, &scaled(7.0, 16)), (0, 1), "map hit");
            assert_eq!(probe(&banks, &scaled(7.0, 32)), (0, 1), "banks hit");
        });
    });
}

/// `traffic_batch` runs its `meanwhile` closure exactly once, on the
/// calling thread, whether the batch is all hits, one cold job (traced
/// inline) or many cold jobs (traced by helpers too), and its traffic
/// equals a direct trace of every job.
#[test]
fn traffic_batch_runs_meanwhile_once_on_the_calling_thread() {
    let gpu = a100();
    let jobs = legacy_jobs(&WorkloadKind::Transpose { n: 256 }, &gpu);
    let refs: Vec<_> = jobs.iter().map(|(l, w)| (l, w)).collect();
    assert!(refs.len() > 4);
    std::thread::scope(|s| {
        s.spawn(|| {
            let model = CostModel::new(&gpu);
            let caller = std::thread::current().id();
            // Many cold, one cold (the rest now hits), all hits.
            for (batch, cold) in [(&refs[1..], true), (&refs[..2], true), (&refs[..], false)] {
                let calls = std::cell::Cell::new(0);
                let before = gpu_sim::traffic_memo_stats().1;
                let (traffic, ran_on) = model.traffic_batch(batch, || {
                    calls.set(calls.get() + 1);
                    std::thread::current().id()
                });
                assert_eq!((calls.get(), ran_on), (1, caller));
                assert_eq!(gpu_sim::traffic_memo_stats().1 > before, cold);
                let direct: Vec<_> = batch.iter().map(|&(l, w)| model.trace(l, w)).collect();
                assert_eq!(traffic, direct);
            }
        });
    });
}

/// The tile arm as it priced every stream before resident streams got
/// a closed form: the stream replayed through the LRU tile cache, its
/// bytes summed per touch.
fn lru_tile_traffic(
    waves: &gpu_sim::TileWaves,
    layout: &lego_core::ConcreteLayout,
    l2_bytes: usize,
) -> gpu_sim::TrafficCost {
    let mut tiles = gpu_sim::TileCache::new(l2_bytes);
    let mut touched = 0f64;
    waves.replay(layout, |id, bytes| {
        tiles.touch(id, bytes);
        touched += bytes as f64;
    });
    gpu_sim::TrafficCost {
        l2_bytes: touched,
        dram_bytes: tiles.miss_bytes() as f64,
        smem_passes: 0.0,
        hits: tiles.hits(),
        misses: tiles.misses(),
    }
}

/// The single tile phase of a matmul workload.
fn tile_waves(wl: &gpu_sim::Workload) -> gpu_sim::TileWaves {
    match wl.phases[..] {
        [gpu_sim::Phase::TileTouches { waves }] => waves,
        _ => panic!("matmul is one tile-touch phase"),
    }
}

/// Every matmul candidate of both spaces, on every device, at every
/// size up to the paper's n=4096: a candidate's stream is resident
/// exactly when its `A` and `B` tiles (4n² bytes of fp16) fit the L2,
/// as on the MI300 at n=4096, with the capacity met exactly. Every
/// resident candidate's schedule maps its pids one-to-one onto the tile
/// grid — what the closed form assumes — and its unmemoized traffic
/// equals the LRU replay field for field: for every candidate at the
/// benchmark's sizes (n ≤ 1024), and once per tile shape and device
/// above them, where replaying every schedule would take ten times as
/// long (the random pid orders of `gpu_sim`'s own oracle test cover
/// the schedules).
#[test]
fn resident_matmul_streams_price_as_the_lru_replay() {
    let mut resident_shapes = 0;
    for n in [512i64, 1024, 2048, 4096] {
        let kind = WorkloadKind::Matmul { n };
        for scale in [SpaceScale::Legacy, SpaceScale::Enlarged] {
            let configs = Domain::new(kind, scale).enumerate();
            for gpu in &devices() {
                let model = CostModel::new(gpu);
                let fits = 4 * n * n <= gpu.l2_bytes as i64;
                let mut replayed = Vec::new();
                for config in &configs {
                    let layout = lego_tune::build_layout(&kind, config).expect("matmul builds");
                    let cand = Candidate {
                        config: *config,
                        expr_variant: None,
                        index_ops: None,
                    };
                    let wl = lego_tune::build_workload(&kind, &cand, gpu);
                    let waves = tile_waves(&wl);
                    let what = format!("{config:?} n={n} on {}", gpu.tag);
                    assert_eq!(waves.resident(gpu.l2_bytes).is_some(), fits, "{what}");
                    if !fits {
                        continue;
                    }
                    let concrete = layout.compile().expect("matmul compiles");
                    let (rows, cols) = (waves.blocks / waves.tiles_n, waves.tiles_n);
                    let mut seen = vec![false; waves.blocks as usize];
                    for pid in 0..waves.blocks {
                        let v = concrete.inv(pid).expect("pid in range");
                        assert!(
                            (0..rows).contains(&v[0]) && (0..cols).contains(&v[1]),
                            "{what}"
                        );
                        let tile = &mut seen[(v[0] * cols + v[1]) as usize];
                        assert!(!*tile, "{what}: two pids run one tile");
                        *tile = true;
                    }
                    let new_shape = !replayed.contains(&waves);
                    if new_shape {
                        replayed.push(waves);
                    }
                    if new_shape || n <= 1024 {
                        let want = lru_tile_traffic(&waves, &concrete, gpu.l2_bytes);
                        assert_eq!(model.trace(&layout, &wl), want, "{what}");
                    }
                }
                resident_shapes += replayed.len();
            }
        }
    }
    assert!(resident_shapes > 0);
}

/// A `rows × cols` grid layout whose `GenP` counts every call of its
/// forward closure in `calls`: the transpose of the row-major pid
/// order, named `name`.
fn counted_grid(
    rows: i64,
    cols: i64,
    name: &str,
    calls: &std::sync::Arc<std::sync::atomic::AtomicUsize>,
) -> lego_core::Layout {
    use lego_core::{GenFns, Layout, OrderBy, Perm};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    let counter = Arc::clone(calls);
    let fns = GenFns {
        name: name.into(),
        fwd: Arc::new(move |idx: &[i64]| {
            counter.fetch_add(1, Ordering::Relaxed);
            idx[1] * rows + idx[0]
        }),
        inv: Arc::new(move |f: i64| vec![f % rows, f / rows]),
        fwd_sym: None,
        inv_sym: None,
    };
    Layout::builder([rows, cols])
        .order_by(OrderBy::new([Perm::gen([rows, cols], fns).unwrap()]).unwrap())
        .build()
        .unwrap()
}

/// A matmul whose tiles fit the L2 is priced without its schedule:
/// every legacy `matmul(n=1024)` candidate on a fresh thread misses the
/// memo once per tile shape, and a miss under a schedule whose closures
/// count their calls compiles nothing — nor does a hit under a second
/// schedule of that tile shape.
#[test]
fn resident_matmuls_miss_once_per_tile_shape_and_compile_nothing() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let kind = WorkloadKind::Matmul { n: 1024 };
    for gpu in &devices() {
        let jobs = legacy_jobs(&kind, gpu);
        let mut shapes: Vec<gpu_sim::TileWaves> =
            jobs.iter().map(|(_, wl)| tile_waves(wl)).collect();
        shapes.sort_by_key(|w| (w.a_bytes, w.b_bytes, w.ksteps, w.tiles_n));
        shapes.dedup();
        assert!(
            jobs.len() > shapes.len(),
            "{}: one schedule per shape",
            gpu.tag
        );
        let misses = price_in_order(gpu, &[jobs]);
        assert_eq!(misses, [shapes.len() as u64], "{}", gpu.tag);
    }
    let gpu = a100();
    let wl = gpu_sim::MatmulWaves::with_tiles(1024, (128, 64, 64)).build(&gpu);
    let calls = Arc::new(AtomicUsize::new(0));
    let (first, second) = (
        counted_grid(8, 16, "counted_grid_a", &calls),
        counted_grid(8, 16, "counted_grid_b", &calls),
    );
    std::thread::scope(|s| {
        s.spawn(|| {
            let model = CostModel::new(&gpu);
            let traffic = [model.traffic(&first, &wl), model.traffic(&second, &wl)];
            assert_eq!(gpu_sim::traffic_memo_stats(), (1, 1));
            assert_eq!(
                calls.load(Ordering::Relaxed),
                0,
                "a resident stream compiled"
            );
            assert_eq!(traffic[0], traffic[1]);
            assert_eq!(gpu_sim::replay_work().tile_touches, 0);
        });
    });
}

/// Where the tiles overflow the L2 the schedule decides the reuse, so
/// the key holds the layout and the LRU prices it: two schedules of one
/// `matmul(n=4096)` tile shape on the A100 miss apart, a repeat hits,
/// and the miss compiles the layout and feeds its stream through the
/// tile cache.
#[test]
fn an_overflowing_matmul_is_still_keyed_by_its_layout() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let gpu = a100();
    let kind = WorkloadKind::Matmul { n: 4096 };
    let shape = |wl: &gpu_sim::Workload| {
        let w = tile_waves(wl);
        (w.a_bytes, w.b_bytes, w.ksteps)
    };
    let jobs = legacy_jobs(&kind, &gpu);
    let (layout, wl) = &jobs[0];
    let same: Vec<_> = jobs.iter().filter(|(_, w)| shape(w) == shape(wl)).collect();
    assert!(same.len() > 1, "one schedule for {:?}", shape(wl));
    let other = &same[1].0;
    let waves = tile_waves(wl);
    assert_eq!(waves.resident(gpu.l2_bytes), None);
    let grid = (waves.blocks / waves.tiles_n, waves.tiles_n);
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = counted_grid(grid.0, grid.1, "counted_grid", &calls);
    std::thread::scope(|s| {
        s.spawn(|| {
            let model = CostModel::new(&gpu);
            let traffic = [layout, other, layout].map(|l| model.traffic(l, wl));
            assert_eq!(gpu_sim::traffic_memo_stats(), (1, 2));
            let touches = gpu_sim::replay_work().tile_touches;
            assert_eq!(
                touches,
                2 * 2 * (waves.blocks * waves.ksteps) as u64,
                "two misses"
            );
            assert_eq!(traffic, [layout, other, layout].map(|l| model.trace(l, wl)));
            model.traffic(&counted, wl);
            assert_eq!(gpu_sim::traffic_memo_stats(), (1, 3));
            assert_eq!(
                calls.load(Ordering::Relaxed),
                waves.blocks as usize,
                "the miss compiled"
            );
        });
    });
}

/// A resident stream's price never reads its schedule, so a schedule
/// built for another tile grid would price silently as a perfect one:
/// `traffic` (a miss and a hit of the shared entry) and `trace` refuse
/// a layout that does not view the phase's `rows × tiles_n` grid.
#[test]
fn a_resident_matmul_refuses_a_schedule_of_another_grid() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    let gpu = a100();
    let wl = gpu_sim::MatmulWaves::with_tiles(1024, (128, 64, 64)).build(&gpu);
    let waves = tile_waves(&wl);
    assert!(waves.resident(gpu.l2_bytes).is_some());
    let calls = Arc::new(AtomicUsize::new(0));
    let fits = counted_grid(8, 16, "counted_grid", &calls);
    let transposed = counted_grid(16, 8, "counted_grid", &calls);
    std::thread::scope(|s| {
        s.spawn(|| {
            let model = CostModel::new(&gpu);
            let refused = |price: &dyn Fn() -> gpu_sim::TrafficCost| {
                catch_unwind(AssertUnwindSafe(price)).is_err()
            };
            assert!(refused(&|| model.traffic(&transposed, &wl)), "miss");
            model.traffic(&fits, &wl);
            assert!(refused(&|| model.traffic(&transposed, &wl)), "hit");
            assert!(refused(&|| model.trace(&transposed, &wl)), "trace");
        });
    });
}
