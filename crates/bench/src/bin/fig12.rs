//! **Figure 12** (a–c): the CUDA benchmarks — NW anti-diagonal layout,
//! LUD thread coarsening, and brick vs. row-major stencils.
//!
//! Run all three panels, or one: `fig12 [nw|lud|stencil]`. Pass
//! `--device a100|h100|mi300` to simulate another hardware model
//! (non-default devices suffix the JSON artifact), and `--tuned` to
//! additionally run the `lego-tune` searches and report naive-vs-tuned
//! estimates (`--strategy anneal|genetic` with `--budget N` searches
//! the enlarged free-integer space).

use lego_bench::workloads::{lud, nw, stencil};
use lego_bench::{emit, tuned};
use lego_codegen::cuda::stencil::StencilShape;
use lego_tune::{Json, WorkloadKind};

fn main() {
    tuned::reject_unknown_flags(&tuned::BENCH_FLAGS);
    let which = tuned::positional_args()
        .into_iter()
        .next()
        .unwrap_or_else(|| "all".to_string());
    let cfg = tuned::device_from_args();
    println!("(device model: {})\n", cfg.name);
    let mut rows = Vec::new();

    if which == "all" || which == "nw" {
        println!("Figure 12a: NW — anti-diagonal buffer layout vs Rodinia baseline");
        println!(
            "{:<8} {:>14} {:>14} {:>9}  (paper: 1.4x–2.1x)",
            "N", "baseline (ms)", "LEGO (ms)", "speedup"
        );
        for n in [2048i64, 4096, 8192, 16384] {
            let b = nw::simulate(n, 16, false, &cfg);
            let o = nw::simulate(n, 16, true, &cfg);
            println!(
                "{:<8} {:>14.2} {:>14.2} {:>8.2}x",
                n,
                b.time_s * 1e3,
                o.time_s * 1e3,
                b.time_s / o.time_s
            );
            rows.push(Json::obj([
                ("panel", Json::Str("nw".to_string())),
                ("n", Json::Int(n)),
                ("baseline_s", Json::num(b.time_s)),
                ("lego_s", Json::num(o.time_s)),
                ("speedup", Json::num(b.time_s / o.time_s)),
            ]));
        }
        println!();
    }

    if which == "all" || which == "lud" {
        println!("Figure 12b: LUD — thread coarsening as a layout");
        println!(
            "{:<8} {:>15} {:>15} {:>9}",
            "N", "16x16 (GF/s)", "64x64/c4 (GF/s)", "speedup"
        );
        for n in [1024i64, 2048, 4096, 8192] {
            let base = lud::simulate(n, 16, &cfg);
            let coarse = lud::simulate(n, 64, &cfg);
            println!(
                "{:<8} {:>15.1} {:>15.1} {:>8.2}x",
                n,
                base.gflops,
                coarse.gflops,
                base.time_s / coarse.time_s
            );
            rows.push(Json::obj([
                ("panel", Json::Str("lud".to_string())),
                ("n", Json::Int(n)),
                ("baseline_gflops", Json::num(base.gflops)),
                ("coarsened_gflops", Json::num(coarse.gflops)),
                ("speedup", Json::num(base.time_s / coarse.time_s)),
            ]));
        }
        println!();
    }

    if which == "all" || which == "stencil" {
        println!("Figure 12c: stencils — brick vs row-major data layout");
        println!(
            "{:<12} {:>14} {:>14} {:>9}  (paper: 3.4x–3.9x)",
            "stencil", "array (GF/s)", "brick (GF/s)", "speedup"
        );
        for shape in StencilShape::ALL {
            let (rm, bk, speedup) = stencil::compare(shape, 64, 8, &cfg);
            println!(
                "{:<12} {:>14.1} {:>14.1} {:>8.2}x",
                shape.name(),
                rm.gflops,
                bk.gflops,
                speedup
            );
            rows.push(Json::obj([
                ("panel", Json::Str("stencil".to_string())),
                ("shape", Json::Str(shape.name())),
                ("array_gflops", Json::num(rm.gflops)),
                ("brick_gflops", Json::num(bk.gflops)),
                ("speedup", Json::num(speedup)),
            ]));
        }
    }

    emit::announce(emit::write_bench_json(
        &tuned::bench_name("fig12", &cfg),
        rows,
    ));
    tuned::maybe_report(
        "fig12",
        &[
            WorkloadKind::Nw { n: 2048, b: 16 },
            WorkloadKind::Lud { n: 2048, bs: 16 },
            WorkloadKind::Stencil {
                shape: StencilShape::Star(1),
                n: 64,
            },
            WorkloadKind::Stencil {
                shape: StencilShape::Star(2),
                n: 64,
            },
            WorkloadKind::Stencil {
                shape: StencilShape::Cube(1),
                n: 64,
            },
        ],
    );
}
