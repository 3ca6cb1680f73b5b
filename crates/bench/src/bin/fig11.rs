//! **Figure 11** (a–c): the Triton benchmark suite at N ∈ {2048, 4096,
//! 8192} — matmul (four layout variants), grouped GEMM, LayerNorm
//! forward/backward, softmax; series: Triton, LEGO, PyTorch.
//!
//! LEGO and Triton generate identical indexing (verified by the codegen
//! tests), so their series coincide except LayerNorm-FWD where the paper
//! attributes a codegen inefficiency to the reference Triton loop.
//!
//! Pass `--tuned` to additionally run the `lego-tune` search for the
//! matmul sizes and the row-wise operators (softmax / LayerNorm block
//! sizes) and report naive-vs-tuned estimates; `--strategy
//! anneal|genetic` with `--budget N` selects a budgeted metaheuristic
//! over the enlarged space instead of exhaustive enumeration.

use lego_bench::workloads::matmul::{simulate, Schedule};
use lego_bench::workloads::rowwise::{grouped_gemm_tflops, Impl, RowwiseBench};
use lego_bench::{emit, tuned};
use lego_codegen::triton::matmul::MatmulVariant;
use lego_tune::{Json, RowwiseOp, WorkloadKind};

const TILES: (i64, i64, i64) = (128, 128, 64);

fn main() {
    tuned::reject_unknown_flags(&tuned::BENCH_FLAGS);
    let cfg = tuned::device_from_args();
    let sizes = [2048i64, 4096, 8192];
    let mut rows = Vec::new();

    println!(
        "Figure 11: Triton suite (TFLOP/s for GEMMs, GB/s for row-wise; {})\n",
        cfg.name
    );

    for variant in MatmulVariant::ALL {
        println!("-- Matmul {} (TFLOP/s) --", variant.name());
        println!(
            "{:<8} {:>10} {:>10} {:>10}",
            "N", "Triton", "LEGO", "PyTorch"
        );
        for n in sizes {
            // LEGO and Triton share the same generated kernel; the data
            // layout variant changes only address formulas, which the
            // tile-level simulation is insensitive to (traffic volume is
            // equal for row/col-major whole-tile loads).
            let lego = simulate(n, TILES, Schedule::Grouped { gm: 8 }, &cfg);
            let torch = simulate(n, TILES, Schedule::Vendor, &cfg);
            println!(
                "{:<8} {:>10.1} {:>10.1} {:>10.1}",
                n, lego.tflops, lego.tflops, torch.tflops
            );
            rows.push(Json::obj([
                ("bench", Json::Str(format!("matmul-{}", variant.name()))),
                ("n", Json::Int(n)),
                ("triton_tflops", Json::num(lego.tflops)),
                ("lego_tflops", Json::num(lego.tflops)),
                ("pytorch_tflops", Json::num(torch.tflops)),
            ]));
        }
        println!();
    }

    println!("-- Grouped GEMM (TFLOP/s, 8 problems per group) --");
    println!(
        "{:<8} {:>10} {:>10} {:>10}",
        "N", "Triton", "LEGO", "PyTorch"
    );
    for n in sizes {
        let lego = grouped_gemm_tflops(8, n / 2, Impl::Lego, &cfg);
        let triton = grouped_gemm_tflops(8, n / 2, Impl::Triton, &cfg);
        let torch = grouped_gemm_tflops(8, n / 2, Impl::PyTorch, &cfg);
        println!("{:<8} {:>10.1} {:>10.1} {:>10.1}", n, triton, lego, torch);
        rows.push(Json::obj([
            ("bench", Json::Str("grouped-gemm".to_string())),
            ("n", Json::Int(n)),
            ("triton_tflops", Json::num(triton)),
            ("lego_tflops", Json::num(lego)),
            ("pytorch_tflops", Json::num(torch)),
        ]));
    }
    println!();

    for bench in [
        RowwiseBench::LayernormFwd,
        RowwiseBench::LayernormBwd,
        RowwiseBench::Softmax,
    ] {
        println!("-- {} (GB/s) --", bench.name());
        println!(
            "{:<8} {:>10} {:>10} {:>10}",
            "N", "Triton", "LEGO", "PyTorch"
        );
        for n in sizes {
            let t = bench.gbps(n, n, Impl::Triton, &cfg);
            let l = bench.gbps(n, n, Impl::Lego, &cfg);
            let p = bench.gbps(n, n, Impl::PyTorch, &cfg);
            println!("{:<8} {:>10.0} {:>10.0} {:>10.0}", n, t, l, p);
            rows.push(Json::obj([
                ("bench", Json::Str(bench.name().to_string())),
                ("n", Json::Int(n)),
                ("triton_gbps", Json::num(t)),
                ("lego_gbps", Json::num(l)),
                ("pytorch_gbps", Json::num(p)),
            ]));
        }
        println!();
    }

    // The grouping ablation called out in DESIGN.md §5.
    println!("-- Ablation: grouped vs row-major thread-block layout --");
    println!(
        "{:<8} {:>12} {:>12} {:>14} {:>14}",
        "N", "grp L2 hit", "rm L2 hit", "grp DRAM (GB)", "rm DRAM (GB)"
    );
    for n in sizes {
        let g = simulate(n, TILES, Schedule::Grouped { gm: 8 }, &cfg);
        let r = simulate(n, TILES, Schedule::RowMajor, &cfg);
        println!(
            "{:<8} {:>12.3} {:>12.3} {:>14.3} {:>14.3}",
            n,
            g.l2_hit_rate,
            r.l2_hit_rate,
            g.dram_bytes / 1e9,
            r.dram_bytes / 1e9
        );
        rows.push(Json::obj([
            ("bench", Json::Str("grouping-ablation".to_string())),
            ("n", Json::Int(n)),
            ("grouped_l2_hit", Json::num(g.l2_hit_rate)),
            ("rowmajor_l2_hit", Json::num(r.l2_hit_rate)),
            ("grouped_dram_bytes", Json::num(g.dram_bytes)),
            ("rowmajor_dram_bytes", Json::num(r.dram_bytes)),
        ]));
    }

    emit::announce(emit::write_bench_json(
        &tuned::bench_name("fig11", &cfg),
        rows,
    ));
    tuned::maybe_report(
        "fig11",
        &[
            WorkloadKind::Matmul { n: 2048 },
            WorkloadKind::Matmul { n: 4096 },
            WorkloadKind::Rowwise {
                op: RowwiseOp::Softmax,
                m: 4096,
                n: 4096,
            },
            WorkloadKind::Rowwise {
                op: RowwiseOp::LayernormFwd,
                m: 4096,
                n: 4096,
            },
            WorkloadKind::Rowwise {
                op: RowwiseOp::LayernormBwd,
                m: 4096,
                n: 4096,
            },
        ],
    );
}
