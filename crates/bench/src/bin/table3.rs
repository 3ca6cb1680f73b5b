//! **Table III**: per-application code generation and simplification
//! latency. Reproduces the paper's one-time cost table by timing this
//! repository's actual generators. Every row but the two Bricks rows
//! times layout construction + symbolic apply/inv + Table II
//! simplification + printing. The Bricks rows
//! (`lego_codegen::cuda::stencil::generate`) build the row-major and
//! brick layouts and render a template whose taps index through an
//! `IDX` macro: no symbolic apply and no simplification, so the paper's
//! two dearest rows are among this table's cheapest.
//!
//! Pass `--tuned` to additionally run the `lego-tune` search for every
//! generator family (through the shared `gpu_sim::trace` builders) and
//! report naive-vs-tuned estimates (`--strategy anneal|genetic` with
//! `--budget N` searches the enlarged free-integer space).

use std::time::Instant;

use lego_bench::{emit, tuned};
use lego_codegen::cuda::{lud, nw, stencil, transpose};
use lego_codegen::mlir::{transpose_module, MlirTranspose};
use lego_codegen::triton::{grouped_gemm, layernorm, matmul, softmax};
use lego_tune::{Json, WorkloadKind};

/// Seconds `f` takes on its first call on a fresh thread: the
/// expression arena and every memo table are per thread, so this is a
/// cold generation, the one-time cost the paper's column measures.
fn time<F: FnOnce() + Send>(f: F) -> f64 {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .join()
            .expect("generator panicked")
    })
}

fn main() {
    tuned::reject_unknown_flags(&tuned::BENCH_FLAGS);
    println!("Table III: per-application code generation and simplification");
    println!("(paper column: Apple M2 Max + SymPy/Z3; measured column: this");
    println!(" Rust implementation, first call on a fresh thread with a cold");
    println!(" expression arena and cold memo tables)\n");
    println!(
        "{:<28} {:>14} {:>14}",
        "Benchmark", "measured (ms)", "paper (s)"
    );

    let rows: Vec<(&str, f64, &str)> = vec![
        (
            "Layernorm FWD + BWD",
            time(|| {
                layernorm::generate(layernorm::Pass::Fwd).unwrap();
                layernorm::generate(layernorm::Pass::Bwd).unwrap();
            }),
            "0.33",
        ),
        (
            "Grouped GEMM",
            time(|| {
                grouped_gemm::generate().unwrap();
            }),
            "0.65",
        ),
        (
            "Softmax",
            time(|| {
                softmax::generate().unwrap();
            }),
            "0.05",
        ),
        (
            "Matmul (each variant)",
            time(|| {
                matmul::generate(matmul::MatmulVariant::NN).unwrap();
            }),
            "1.11",
        ),
        (
            "LUD",
            time(|| {
                lud::generate(4, 16).unwrap();
            }),
            "0.87",
        ),
        (
            "NW",
            time(|| {
                nw::generate(16).unwrap();
            }),
            "0.46",
        ),
        (
            "Bricks (Cube)",
            time(|| {
                stencil::generate(stencil::StencilShape::Cube(2), 128, 8).unwrap();
            }),
            "5.95",
        ),
        (
            "Bricks (Star)",
            time(|| {
                stencil::generate(stencil::StencilShape::Star(4), 128, 8).unwrap();
            }),
            "18.07",
        ),
        (
            "Transpose (Naive)",
            time(|| {
                transpose::generate(transpose::TransposeVariant::Naive, 32).unwrap();
                transpose_module(MlirTranspose::Naive).unwrap();
            }),
            "1.07",
        ),
        (
            "Transpose (SMEM)",
            time(|| {
                transpose::generate(transpose::TransposeVariant::SmemCoalesced, 32).unwrap();
                transpose_module(MlirTranspose::SmemCoalesced).unwrap();
            }),
            "1.15",
        ),
    ];
    let mut json_rows = Vec::new();
    for (name, secs, paper) in rows {
        println!("{name:<28} {:>14.3} {paper:>14}", secs * 1e3);
        json_rows.push(Json::obj([
            ("benchmark", Json::Str(name.to_string())),
            ("measured_s", Json::num(secs)),
            ("paper_s", Json::Str(paper.to_string())),
        ]));
    }
    emit::announce(emit::write_bench_json(
        // Codegen latency does not depend on the device model; only the
        // maybe_report sidecar below is per-device.
        "table3", json_rows,
    ));
    // One search per generator family timed above, so the one-time
    // codegen cost can be read next to the tuning payoff.
    tuned::maybe_report(
        "table3",
        &[
            WorkloadKind::Matmul { n: 2048 },
            WorkloadKind::Transpose { n: 2048 },
            WorkloadKind::Stencil {
                shape: stencil::StencilShape::Star(2),
                n: 64,
            },
            WorkloadKind::Nw { n: 2048, b: 16 },
            WorkloadKind::Lud { n: 2048, bs: 16 },
        ],
    );
}
