//! Bandwidth-bound row-wise Triton benchmarks for Fig. 11: LayerNorm
//! forward/backward, softmax, and the grouped-GEMM wrapper.
//!
//! These kernels stream their operands; their runtime is traffic over
//! bandwidth plus per-launch overhead. The LEGO and Triton versions
//! generate identical indexing (verified in `lego-codegen` tests), so
//! they differ only where the paper reports a codegen artifact: Triton's
//! LayerNorm-forward loop with an explicit step compiles to ~10% more
//! dynamic instructions (§V-A), modeled as a compute-side tax. The
//! PyTorch baselines run the operation as multiple passes (uncoalesced
//! fusion), modeled as extra traffic.

use gpu_sim::{estimate, Estimate, GpuConfig, KernelProfile, Pipeline};
use lego_tune::{RowwiseOp, TunedConfig, WorkloadKind};

use crate::workloads::matmul::{simulate as simulate_matmul, Schedule};

/// Implementations compared in Fig. 11.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Impl {
    /// LEGO-generated kernel.
    Lego,
    /// Reference Triton kernel.
    Triton,
    /// PyTorch (dispatching to cuBLAS / eager kernels).
    PyTorch,
}

/// The non-matmul benchmarks of Fig. 11.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RowwiseBench {
    /// LayerNorm forward.
    LayernormFwd,
    /// LayerNorm backward (dx).
    LayernormBwd,
    /// Row softmax.
    Softmax,
}

impl RowwiseBench {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            RowwiseBench::LayernormFwd => "LayerNorm FWD",
            RowwiseBench::LayernormBwd => "LayerNorm BWD",
            RowwiseBench::Softmax => "Softmax",
        }
    }

    /// The tuner-side operator this benchmark corresponds to — and the
    /// single home of the per-op traffic/flop calibration constants.
    pub fn op(self) -> RowwiseOp {
        match self {
            RowwiseBench::LayernormFwd => RowwiseOp::LayernormFwd,
            RowwiseBench::LayernormBwd => RowwiseOp::LayernormBwd,
            RowwiseBench::Softmax => RowwiseOp::Softmax,
        }
    }

    /// Bytes moved per element pass (reads + writes per fp16 element),
    /// per implementation.
    fn traffic_factor(self, im: Impl) -> f64 {
        let base = self.op().traffic_passes();
        match im {
            Impl::Lego | Impl::Triton => base,
            // Eager multi-kernel execution re-reads intermediates.
            Impl::PyTorch => base * 1.35,
        }
    }

    /// Estimated runtime for an `m×n` fp16 problem.
    pub fn time_s(self, m: i64, n: i64, im: Impl, cfg: &GpuConfig) -> f64 {
        let elems = (m * n) as f64;
        let bytes = elems * 2.0 * self.traffic_factor(im);
        let mut flops = elems * self.op().flops_per_elem();
        // §V-A: Triton's codegen handles the explicit-step loop of the
        // reference LayerNorm-fwd less efficiently.
        if self == RowwiseBench::LayernormFwd && im == Impl::Triton {
            flops *= 1.35;
        }
        let launches = match im {
            Impl::PyTorch => 3.0,
            _ => 1.0,
        };
        let profile = KernelProfile {
            flops,
            dram_bytes: bytes,
            l2_bytes: bytes,
            smem_passes: 0.0,
            blocks: m as f64,
            launches,
            ..Default::default()
        };
        estimate(&profile, Pipeline::Fp32, cfg).total_s
    }

    /// Effective throughput in GB/s of useful traffic.
    pub fn gbps(self, m: i64, n: i64, im: Impl, cfg: &GpuConfig) -> f64 {
        let useful = (m * n) as f64 * 2.0 * self.traffic_factor(Impl::Lego);
        useful / self.time_s(m, n, im, cfg) / 1e9
    }

    /// Scores one block-size configuration through the tuner's path,
    /// returning the raw `gpu-sim` estimate — bit-identical to the
    /// `lego-tune` oracle's estimate for the same `(op, m, n, bs)` on
    /// the same device.
    pub fn estimate(self, m: i64, n: i64, bs: i64, cfg: &GpuConfig) -> Estimate {
        let op = self.op();
        super::price(
            WorkloadKind::Rowwise { op, m, n },
            TunedConfig::Rowwise { op, bs },
            cfg,
        )
    }
}

/// Grouped GEMM modeled as `g` back-to-back GEMMs sharing one launch for
/// the fused implementations.
pub fn grouped_gemm_time_s(g: i64, n: i64, im: Impl, cfg: &GpuConfig) -> f64 {
    // Small problems underutilize the device identically for every
    // implementation (wave quantization); what differs is dispatch: the
    // fused kernel walks all problems in one launch, the eager path
    // launches per problem.
    let per = simulate_matmul(n, (64, 64, 64), Schedule::RowMajor, cfg).time_s
        - 2.0 * cfg.launch_overhead;
    let launches = match im {
        // One persistent kernel walks all problems.
        Impl::Lego | Impl::Triton => 1.0,
        // One cuBLAS call per problem.
        Impl::PyTorch => g as f64,
    };
    g as f64 * per + launches * cfg.launch_overhead
}

/// TFLOP/s for the grouped GEMM.
pub fn grouped_gemm_tflops(g: i64, n: i64, im: Impl, cfg: &GpuConfig) -> f64 {
    let flops = g as f64 * 2.0 * (n as f64).powi(3);
    flops / grouped_gemm_time_s(g, n, im, cfg) / 1e12
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::a100;

    #[test]
    fn lego_beats_triton_on_layernorm_fwd_only() {
        let cfg = a100();
        let b = RowwiseBench::LayernormFwd;
        assert!(b.time_s(4096, 4096, Impl::Lego, &cfg) <= b.time_s(4096, 4096, Impl::Triton, &cfg));
        let s = RowwiseBench::Softmax;
        let l = s.time_s(4096, 4096, Impl::Lego, &cfg);
        let t = s.time_s(4096, 4096, Impl::Triton, &cfg);
        assert!((l - t).abs() / t < 1e-9, "softmax should tie");
    }

    #[test]
    fn fused_kernels_beat_pytorch() {
        let cfg = a100();
        for b in [
            RowwiseBench::LayernormFwd,
            RowwiseBench::LayernormBwd,
            RowwiseBench::Softmax,
        ] {
            assert!(
                b.time_s(4096, 4096, Impl::Lego, &cfg) < b.time_s(4096, 4096, Impl::PyTorch, &cfg),
                "{}",
                b.name()
            );
        }
    }

    #[test]
    fn grouped_gemm_fusion_helps_small_problems() {
        let cfg = a100();
        // Many small GEMMs: launch overhead dominates the per-call path.
        let lego = grouped_gemm_tflops(64, 512, Impl::Lego, &cfg);
        let torch = grouped_gemm_tflops(64, 512, Impl::PyTorch, &cfg);
        assert!(lego > torch, "lego {lego} vs torch {torch}");
    }

    #[test]
    fn softmax_is_bandwidth_bound() {
        let cfg = a100();
        let g = RowwiseBench::Softmax.gbps(8192, 8192, Impl::Lego, &cfg);
        // Within streaming-bandwidth territory.
        assert!(g > 500.0 && g < 2200.0, "{g}");
    }
}
