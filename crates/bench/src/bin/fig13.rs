//! **Figure 13** (a/b): roofline plots for LUD and the stencils —
//! arithmetic intensity vs. achieved performance against the A100
//! compute and bandwidth roofs. Both panels are priced through the
//! shared `gpu_sim::trace` builders, so these points and the
//! `lego-tune` estimates come from the same code path. Pass `--tuned`
//! to additionally run the LUD/stencil searches and report
//! naive-vs-tuned estimates (`--strategy anneal|genetic` with
//! `--budget N` searches the enlarged free-integer space).

use gpu_sim::timing::Pipeline;
use gpu_sim::{attainable, ridge};
use lego_bench::workloads::{lud, stencil};
use lego_bench::{emit, tuned};
use lego_codegen::cuda::stencil::StencilShape;
use lego_tune::{Json, WorkloadKind};

fn main() {
    tuned::reject_unknown_flags(&tuned::BENCH_FLAGS);
    let cfg = tuned::device_from_args();
    println!("Figure 13: rooflines ({} FP32 model)", cfg.name);
    println!(
        "peak = {:.1} TFLOP/s, BW roof = {:.0} GB/s, ridge at {:.1} FLOP/B\n",
        cfg.fp32_flops / 1e12,
        cfg.dram_bw * cfg.dram_efficiency / 1e9,
        ridge(Pipeline::Fp32, &cfg)
    );

    println!("Fig 13a: LUD (N = 4096)");
    println!(
        "{:<16} {:>12} {:>14} {:>16}",
        "variant", "AI (F/B)", "achieved GF/s", "attainable GF/s"
    );
    let mut rows = Vec::new();
    for (name, bs) in [("16x16 baseline", 16i64), ("64x64 coarsened", 64)] {
        let r = lud::simulate(4096, bs, &cfg);
        let roof = attainable(r.intensity, Pipeline::Fp32, &cfg) / 1e9;
        println!(
            "{:<16} {:>12.2} {:>14.1} {:>16.1}",
            name, r.intensity, r.gflops, roof
        );
        rows.push(Json::obj([
            ("panel", Json::Str("lud".to_string())),
            ("variant", Json::Str(name.to_string())),
            ("intensity", Json::num(r.intensity)),
            ("achieved_gflops", Json::num(r.gflops)),
            ("attainable_gflops", Json::num(roof)),
        ]));
    }

    println!("\nFig 13b: stencils (64^3 domain, scaled L2; brick = 8^3)");
    println!(
        "{:<12} {:<8} {:>12} {:>14} {:>16}",
        "stencil", "layout", "AI (F/B)", "achieved GF/s", "attainable GF/s"
    );
    for shape in StencilShape::ALL {
        let (rm, bk, _) = stencil::compare(shape, 64, 8, &cfg);
        for (layout, r) in [("array", rm), ("brick", bk)] {
            let roof = attainable(r.intensity, Pipeline::Fp32, &cfg) / 1e9;
            println!(
                "{:<12} {:<8} {:>12.2} {:>14.1} {:>16.1}",
                shape.name(),
                layout,
                r.intensity,
                r.gflops,
                roof
            );
            rows.push(Json::obj([
                ("panel", Json::Str("stencil".to_string())),
                ("shape", Json::Str(shape.name())),
                ("layout", Json::Str(layout.to_string())),
                ("intensity", Json::num(r.intensity)),
                ("achieved_gflops", Json::num(r.gflops)),
                ("attainable_gflops", Json::num(roof)),
            ]));
        }
    }
    emit::announce(emit::write_bench_json(
        &tuned::bench_name("fig13", &cfg),
        rows,
    ));
    tuned::maybe_report(
        "fig13",
        &[
            WorkloadKind::Lud { n: 4096, bs: 16 },
            WorkloadKind::Stencil {
                shape: StencilShape::Star(2),
                n: 64,
            },
            WorkloadKind::Stencil {
                shape: StencilShape::Cube(2),
                n: 64,
            },
        ],
    );
}
