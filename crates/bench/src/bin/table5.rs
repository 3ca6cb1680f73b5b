//! **Table V**: 2-D transpose throughput (GB/s), naive vs
//! smem+coalesced, CUDA-SDK baseline vs LEGO-MLIR.
//!
//! Both implementations execute the same memory access pattern; the
//! paper's small LEGO edge comes from linearized (rank-1) array
//! accesses, modeled as a 2% address-arithmetic overhead on the
//! 2-D-indexed SDK kernels. Shapes (naive ≪ smem; near-parity between
//! toolchains) are the reproduced result.
//!
//! Pass `--tuned` to additionally run the `lego-tune` staging-layout
//! search and report naive-vs-tuned estimates (`--strategy
//! anneal|genetic` with `--budget N` searches the enlarged
//! free-integer space).

use lego_bench::workloads::transpose::simulate;
use lego_bench::{emit, tuned};
use lego_codegen::cuda::transpose::TransposeVariant;
use lego_tune::{Json, WorkloadKind};

/// Instruction-overhead factor for the SDK's 2-D indexed accesses
/// relative to LEGO-MLIR's linearized accesses.
const SDK_OVERHEAD: f64 = 0.98;

fn main() {
    tuned::reject_unknown_flags(&tuned::BENCH_FLAGS);
    let cfg = tuned::device_from_args();
    let sizes = [2048i64, 4096, 8192];

    println!(
        "Table V: 2-D transpose throughput (GB/s; higher is better; {})\n",
        cfg.name
    );
    println!(
        "{:<12} {:>8} {:>8} {:>8}   {:>8} {:>8} {:>8}",
        "", "2048", "4096", "8192", "2048", "4096", "8192"
    );
    println!("{:<12} {:^26}   {:^26}", "", "Naive", "Smem+Coalesced");

    let mut rows = vec![];
    let mut json_rows = vec![];
    for factor in [SDK_OVERHEAD, 1.0] {
        let name = if factor < 1.0 {
            "CUDA-SDK"
        } else {
            "LEGO-MLIR"
        };
        let naive: Vec<f64> = sizes
            .iter()
            .map(|&n| simulate(n, 32, TransposeVariant::Naive, &cfg).gbps * factor)
            .collect();
        let smem: Vec<f64> = sizes
            .iter()
            .map(|&n| simulate(n, 32, TransposeVariant::SmemCoalesced, &cfg).gbps * factor)
            .collect();
        for (i, &n) in sizes.iter().enumerate() {
            json_rows.push(Json::obj([
                ("impl", Json::Str(name.to_string())),
                ("n", Json::Int(n)),
                ("naive_gbps", Json::num(naive[i])),
                ("smem_gbps", Json::num(smem[i])),
            ]));
        }
        rows.push((name, naive, smem));
    }
    for (name, naive, smem) in rows {
        println!(
            "{:<12} {:>8.1} {:>8.1} {:>8.1}   {:>8.1} {:>8.1} {:>8.1}",
            name, naive[0], naive[1], naive[2], smem[0], smem[1], smem[2]
        );
    }
    println!("\npaper:      212.0    175.8    175.4      670.0    718.2    735.7  (CUDA-SDK)");
    println!("            206.8    178.0    190.7      681.7    741.2    759.4  (LEGO-MLIR)");

    emit::announce(emit::write_bench_json(
        &tuned::bench_name("table5", &cfg),
        json_rows,
    ));
    tuned::maybe_report(
        "table5",
        &[
            WorkloadKind::Transpose { n: 2048 },
            WorkloadKind::Transpose { n: 4096 },
        ],
    );
}
