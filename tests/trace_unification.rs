//! Cross-crate price unification: the estimate a `lego-bench` driver
//! prints in a paper table and the estimate the `lego-tune` oracle
//! ranks are *bit-identical* for the same (workload, config,
//! hardware) — for **every** workload, including the additive-launch
//! NW/LUD wavefronts, on every device (A100, H100 and the warp-64
//! MI300). They agree by construction: each driver maps its paper
//! point to a `(WorkloadKind, TunedConfig)` pair and prices it through
//! the tuner's own `build_layout` → `build_workload` → `CostModel`
//! path. These tests pin that mapping (grouped/row-major schedules,
//! naive/swizzled transpose staging, row-major/anti-diagonal NW
//! buffers, LUD coarsening `bs/16`, rowwise block sizes, row-major/brick
//! stencils) and that the layouts the code generators emit price the
//! same as the tuner's. Plus property tests for the occupancy model.

mod prop_support;

use gpu_sim::trace::NwWavefront;
use gpu_sim::{
    a100, bank_conflicts_elems_on, h100, mi300, CostModel, Estimate, GpuConfig, KernelProfile,
};
use lego_bench::workloads::matmul::Schedule;
use lego_bench::workloads::rowwise::RowwiseBench;
use lego_bench::workloads::{lud as bench_lud, matmul, nw as bench_nw, stencil, transpose};
use lego_codegen::cuda::stencil::StencilShape;
use lego_codegen::cuda::transpose::TransposeVariant;
use lego_core::Layout;
use lego_tune::{
    build_layout, build_workload, Candidate, RowwiseOp, ScheduleChoice, StagingChoice,
    StencilLayoutChoice, TunedConfig, WorkloadKind,
};
use prop_support::Rng;

/// Every device configuration of the model — each parity test runs on
/// all of them, so an NVIDIA-shaped assumption anywhere in the pricing
/// path shows up as a cross-crate mismatch on the MI300.
fn devices() -> [GpuConfig; 3] {
    [a100(), h100(), mi300()]
}

/// The tuner-oracle estimate for a config, with the tuner-only
/// index-expression flop term zeroed so it prices exactly what the
/// bench drivers price.
fn oracle(kind: WorkloadKind, config: TunedConfig, cfg: &GpuConfig) -> Estimate {
    let layout = build_layout(&kind, &config).expect("layout");
    priced_as(&layout, kind, config, cfg)
}

/// `layout` priced against the unannotated trace of `(kind, config)` —
/// how a generated kernel's own layout is checked against the oracle.
fn priced_as(
    layout: &Layout,
    kind: WorkloadKind,
    config: TunedConfig,
    cfg: &GpuConfig,
) -> Estimate {
    let candidate = Candidate {
        config,
        expr_variant: None,
        index_ops: None,
    };
    let workload = build_workload(&kind, &candidate, cfg);
    CostModel::new(cfg).price(layout, &workload)
}

#[test]
fn matmul_bench_and_oracle_estimates_are_bit_identical() {
    for cfg in devices() {
        for (n, tiles, gm) in [(2048i64, (128, 128, 64), 8i64), (4096, (64, 64, 32), 4)] {
            let bench = matmul::estimate(n, tiles, Schedule::Grouped { gm }, &cfg);
            let (bm, bn, bk) = tiles;
            let tuned = oracle(
                WorkloadKind::Matmul { n },
                TunedConfig::Matmul {
                    bm,
                    bn,
                    bk,
                    schedule: ScheduleChoice::Grouped { gm },
                },
                &cfg,
            );
            assert_eq!(bench, tuned, "n={n} tiles={tiles:?} on {}", cfg.name);

            // Row-major schedule too.
            let bench = matmul::estimate(n, tiles, Schedule::RowMajor, &cfg);
            let tuned = oracle(
                WorkloadKind::Matmul { n },
                TunedConfig::Matmul {
                    bm,
                    bn,
                    bk,
                    schedule: ScheduleChoice::RowMajor,
                },
                &cfg,
            );
            assert_eq!(bench, tuned, "row-major n={n} on {}", cfg.name);
        }
    }
}

#[test]
fn transpose_bench_and_oracle_estimates_are_bit_identical() {
    for cfg in devices() {
        for n in [1024i64, 2048] {
            // Naive <-> staging None.
            let bench = transpose::estimate(n, 32, TransposeVariant::Naive, &cfg);
            let tuned = oracle(
                WorkloadKind::Transpose { n },
                TunedConfig::Transpose {
                    t: 32,
                    staging: None,
                },
                &cfg,
            );
            assert_eq!(bench, tuned, "naive n={n} on {}", cfg.name);

            // SmemCoalesced <-> Swizzle staging, and the generated
            // kernel's staging layout prices as the swizzle.
            let bench = transpose::estimate(n, 32, TransposeVariant::SmemCoalesced, &cfg);
            let kind = WorkloadKind::Transpose { n };
            let config = TunedConfig::Transpose {
                t: 32,
                staging: Some(StagingChoice::Swizzle),
            };
            let tuned = oracle(kind, config, &cfg);
            assert_eq!(bench, tuned, "smem n={n} on {}", cfg.name);
            let kernel =
                lego_codegen::cuda::transpose::generate(TransposeVariant::SmemCoalesced, 32)
                    .unwrap();
            let generated = priced_as(&kernel.smem_layout.unwrap(), kind, config, &cfg);
            assert_eq!(generated, tuned, "generated smem n={n} on {}", cfg.name);
        }
    }
}

#[test]
fn stencil_bench_and_oracle_estimates_are_bit_identical() {
    for cfg in devices() {
        stencil_parity_on(&cfg);
    }
}

fn stencil_parity_on(cfg: &GpuConfig) {
    for shape in [StencilShape::Star(2), StencilShape::Cube(1)] {
        let n = 32i64;
        let kind = WorkloadKind::Stencil { shape, n };
        // Row-major baseline (lanes along y) and 8³ bricks (brick-local
        // lanes).
        let (bench_rm, bench_bk) = stencil::estimate(shape, n, 8, cfg);
        let generated = lego_codegen::cuda::stencil::generate(shape, n, 8).unwrap();
        for (bench, layout, kernel_layout) in [
            (
                bench_rm,
                StencilLayoutChoice::RowMajorY,
                &generated.row_major,
            ),
            (
                bench_bk,
                StencilLayoutChoice::Brick { b: 8 },
                &generated.brick,
            ),
        ] {
            let config = TunedConfig::Stencil { n, layout };
            let tuned = oracle(kind, config, cfg);
            assert_eq!(bench, tuned, "{} {layout:?}", shape.name());
            let kernel = priced_as(kernel_layout, kind, config, cfg);
            assert_eq!(kernel, tuned, "{} generated {layout:?}", shape.name());
        }
    }
}

/// NW and LUD prices — not just traces — are bit-identical between the
/// bench drivers and the tuner oracle on every device: both go through
/// the one `CostModel` under `PricingMode::AdditiveLaunch`, and the
/// bench crate no longer owns any pricing loop of its own.
#[test]
fn nw_and_lud_prices_are_bit_identical() {
    use lego_codegen::tuning::NwLayoutChoice;
    for cfg in devices() {
        // NW: the full additive-launch estimate, both buffer layouts.
        for (optimized, layout) in [
            (false, NwLayoutChoice::RowMajor),
            (true, NwLayoutChoice::Antidiag),
        ] {
            let bench = bench_nw::estimate(2048, 16, optimized, &cfg);
            let tuned = oracle(
                WorkloadKind::Nw { n: 2048, b: 16 },
                TunedConfig::Nw { b: 16, layout },
                &cfg,
            );
            assert_eq!(bench, tuned, "nw optimized={optimized} on {}", cfg.name);
        }

        // The per-block pass count of the generated kernel's buffers is
        // the oracle's smem phase, block for block.
        let k = lego_codegen::cuda::nw::generate(16).unwrap();
        for layout in [&k.baseline, &k.optimized] {
            let compiled = layout.compile().unwrap();
            let mut passes = 0usize;
            NwWavefront::block_map(16, cfg.warp_size).replay(Some(&compiled), |g| {
                passes += bank_conflicts_elems_on(g, 4, &cfg).passes;
            });
            let block_passes = passes as f64;
            let nb = 2048 / 16;
            let blocks = 2.0 * (nb * nb) as f64;
            let tuned =
                CostModel::new(&cfg).price(layout, &NwWavefront { n: 2048, b: 16 }.build(&cfg));
            assert_eq!(tuned.smem_passes, block_passes * blocks);
        }

        // LUD: the bench estimate IS the oracle estimate (layout-free
        // panel trace).
        for (n, bs) in [(2048i64, 16i64), (2048, 64), (4096, 128)] {
            let bench = bench_lud::estimate(n, bs, &cfg);
            let tuned = oracle(
                WorkloadKind::Lud { n, bs: 16 },
                TunedConfig::Lud { r: bs / 16, t: 16 },
                &cfg,
            );
            assert_eq!(bench, tuned, "lud n={n} bs={bs} on {}", cfg.name);
        }
    }
}

/// The row-wise operators complete the "every workload" guarantee: the
/// bench-side `RowwiseBench::estimate` and the tuner oracle price the
/// same `RowwiseSweep` trace through the same cost model.
#[test]
fn rowwise_prices_are_bit_identical() {
    let pairs = [
        (RowwiseBench::Softmax, RowwiseOp::Softmax),
        (RowwiseBench::LayernormFwd, RowwiseOp::LayernormFwd),
        (RowwiseBench::LayernormBwd, RowwiseOp::LayernormBwd),
    ];
    for cfg in devices() {
        for (bench_op, tune_op) in pairs {
            for bs in [256i64, 4096] {
                let bench = bench_op.estimate(4096, 4096, bs, &cfg);
                let tuned = oracle(
                    WorkloadKind::Rowwise {
                        op: tune_op,
                        m: 4096,
                        n: 4096,
                    },
                    TunedConfig::Rowwise { op: tune_op, bs },
                    &cfg,
                );
                assert_eq!(bench, tuned, "{:?} bs={bs} on {}", bench_op, cfg.name);
            }
        }
    }
}

/// Occupancy is monotone non-increasing in registers and shared memory
/// per block, and resident warps never exceed the hardware cap.
#[test]
fn occupancy_is_monotone_and_capped() {
    let mut rng = Rng::new(0x0cc0_9a7e);
    for cfg in devices() {
        for _ in 0..500 {
            let warps = rng.range_i64(1, 33) as f64;
            let regs = rng.range_i64(0, 80_000) as f64;
            let smem = rng.range_i64(0, 300 * 1024) as f64;
            let p = KernelProfile {
                warps_per_block: warps,
                regs_per_block: regs,
                smem_per_block: smem,
                ..Default::default()
            };
            let occ = p.occupancy(&cfg);
            assert!((0.0..=1.0).contains(&occ), "occ {occ}");
            assert!(
                p.resident_warps(&cfg) <= cfg.max_warps_per_sm as f64,
                "resident warps exceed cap"
            );

            // Monotone non-increasing in each resource.
            let more_regs = KernelProfile {
                regs_per_block: regs + rng.range_i64(1, 20_000) as f64,
                ..p
            };
            assert!(
                more_regs.occupancy(&cfg) <= occ,
                "occupancy rose with registers: {} regs {} -> {}",
                cfg.name,
                regs,
                more_regs.regs_per_block
            );
            let more_smem = KernelProfile {
                smem_per_block: smem + rng.range_i64(1, 64 * 1024) as f64,
                ..p
            };
            assert!(
                more_smem.occupancy(&cfg) <= occ,
                "occupancy rose with smem: {} {} -> {}",
                cfg.name,
                smem,
                more_smem.smem_per_block
            );
        }
    }
}

/// Lower occupancy can only slow a kernel down, never speed it up, and
/// a resource-free profile estimates exactly as before the occupancy
/// term existed.
#[test]
fn estimates_never_improve_with_lower_occupancy() {
    let mut rng = Rng::new(0xe571_aa7e);
    let cfg = a100();
    for _ in 0..200 {
        let base = KernelProfile {
            flops: rng.range_i64(1, 1_000_000) as f64 * 1e6,
            dram_bytes: rng.range_i64(1, 1_000_000) as f64 * 1e3,
            l2_bytes: rng.range_i64(1, 1_000_000) as f64 * 1e3,
            smem_passes: rng.range_i64(0, 1_000_000) as f64,
            blocks: 1024.0,
            launches: 1.0,
            warps_per_block: 8.0,
            regs_per_block: rng.range_i64(1, 65_536) as f64,
            smem_per_block: rng.range_i64(1, 164 * 1024) as f64,
        };
        let starved = KernelProfile {
            regs_per_block: base.regs_per_block * 2.0,
            smem_per_block: base.smem_per_block * 2.0,
            ..base
        };
        let t_base = gpu_sim::estimate(&base, gpu_sim::Pipeline::Fp32, &cfg);
        let t_starved = gpu_sim::estimate(&starved, gpu_sim::Pipeline::Fp32, &cfg);
        assert!(
            t_starved.total_s >= t_base.total_s - 1e-18,
            "starved kernel got faster"
        );
    }
}

/// The tuner handles the new NW and LUD kinds end to end and never
/// regresses their default configurations.
#[test]
fn nw_and_lud_tune_end_to_end() {
    use lego_tune::Tuner;
    for cfg in [a100(), h100()] {
        let tuner = Tuner::new(cfg.clone());
        for kind in [
            WorkloadKind::Nw { n: 2048, b: 16 },
            WorkloadKind::Lud { n: 2048, bs: 16 },
        ] {
            let r = tuner
                .tune(&kind)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", kind.name(), cfg.name));
            assert!(r.evaluated > 1, "{}: space collapsed", kind.name());
            assert!(
                r.tuned.time_s <= r.naive.time_s,
                "{} regressed on {}",
                kind.name(),
                cfg.name
            );
            // Both workloads have real headroom over the Rodinia
            // defaults (conflict-free buffer, coarsened panels).
            assert!(
                r.speedup() > 1.5,
                "{}: speedup {}",
                kind.name(),
                r.speedup()
            );
        }
    }
}

/// The oracle path builds a concrete layout for every kind, including
/// the panel-granular LUD whose trace ignores it.
#[test]
fn every_kind_builds_a_layout_for_its_default_config() {
    for kind in [
        WorkloadKind::Matmul { n: 1024 },
        WorkloadKind::Transpose { n: 512 },
        WorkloadKind::Stencil {
            shape: StencilShape::Star(1),
            n: 32,
        },
        WorkloadKind::Nw { n: 1024, b: 16 },
        WorkloadKind::Lud { n: 1024, bs: 16 },
    ] {
        let layout: Layout = build_layout(&kind, &kind.default_config()).expect("layout");
        let dims = layout.view().dims_const().expect("const dims");
        assert!(!dims.is_empty(), "{}", kind.name());
    }
}
