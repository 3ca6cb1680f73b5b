//! The roofline-style timing model, with a per-SM occupancy term.
//!
//! A kernel's runtime is estimated as the maximum of its bottleneck
//! times (compute, DRAM traffic, L2 traffic, shared-memory serialization)
//! plus launch overhead — the standard bulk-synchronous GPU model. The
//! experiments compare *layouts*, so what matters is that each layout's
//! traffic and conflict counts feed these terms; absolute constants only
//! scale the axes.
//!
//! When a profile declares its per-block resources (warps, registers,
//! shared memory), [`KernelProfile::occupancy`] computes the resident
//! warps per SM against the [`GpuConfig`] limits and [`estimate`]
//! derates achievable bandwidth and issue rate below the saturation
//! occupancies — so register/smem-hungry tiles that cap residency pay
//! for the latency they can no longer hide.

use crate::config::GpuConfig;

/// The NVIDIA-calibrated default for
/// [`GpuConfig::mem_sat_occupancy`]: the fraction of the warp cap at
/// which memory latency is fully hidden; below it, achievable DRAM/L2
/// bandwidth scales linearly with occupancy (a standard little's-law
/// approximation). The saturation points are per-device config fields
/// now — `a100()`/`h100()` keep this value, `mi300()` sets its own.
pub const MEM_SAT_OCCUPANCY: f64 = 0.25;

/// The NVIDIA-calibrated default for
/// [`GpuConfig::issue_sat_occupancy`]: the fraction of the warp cap at
/// which the issue pipelines (compute and shared-memory access)
/// saturate.
pub const ISSUE_SAT_OCCUPANCY: f64 = 0.5;

/// Which compute pipeline a kernel saturates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pipeline {
    /// CUDA-core FP32 FMA.
    Fp32,
    /// Tensor-core FP16.
    TensorFp16,
}

/// Aggregated execution profile of one kernel launch.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelProfile {
    /// Floating-point operations executed.
    pub flops: f64,
    /// Bytes moved between DRAM and L2 (after cache filtering).
    pub dram_bytes: f64,
    /// Bytes moved between L2 and the SMs (before cache filtering).
    pub l2_bytes: f64,
    /// Total shared-memory access passes (bank-conflict serialized).
    pub smem_passes: f64,
    /// Number of thread blocks launched.
    pub blocks: f64,
    /// Number of kernel launches this profile covers.
    pub launches: f64,
    /// Warps per thread block (`0` = unspecified: full occupancy).
    pub warps_per_block: f64,
    /// Registers allocated per thread block (`0` = no register limit).
    pub regs_per_block: f64,
    /// Shared memory per thread block in bytes (`0` = no smem limit).
    pub smem_per_block: f64,
}

impl KernelProfile {
    /// Resident warps per SM under `cfg`'s occupancy limits: how many
    /// whole blocks fit the register file, the shared-memory carveout,
    /// and the warp cap, times warps per block. Returns the warp cap
    /// when the profile declares no per-block resources.
    pub fn resident_warps(&self, cfg: &GpuConfig) -> f64 {
        let cap = cfg.max_warps_per_sm as f64;
        if self.warps_per_block <= 0.0 {
            return cap;
        }
        let mut blocks = cap / self.warps_per_block;
        if self.regs_per_block > 0.0 {
            blocks = blocks.min(cfg.regs_per_sm as f64 / self.regs_per_block);
        }
        if self.smem_per_block > 0.0 {
            blocks = blocks.min(cfg.smem_per_sm as f64 / self.smem_per_block);
        }
        (blocks.floor() * self.warps_per_block).min(cap)
    }

    /// Occupancy fraction: resident warps over the hardware warp cap,
    /// in `[0, 1]`. Zero means the block does not fit the SM at all.
    pub fn occupancy(&self, cfg: &GpuConfig) -> f64 {
        self.resident_warps(cfg) / cfg.max_warps_per_sm as f64
    }

    /// Arithmetic intensity against DRAM traffic (FLOP/byte) — the
    /// roofline x-axis.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.dram_bytes == 0.0 {
            return f64::INFINITY;
        }
        self.flops / self.dram_bytes
    }
}

/// A time estimate broken into bottleneck terms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeEstimate {
    /// Compute-bound time (s).
    pub compute_s: f64,
    /// DRAM-bound time (s).
    pub dram_s: f64,
    /// L2-bound time (s).
    pub l2_s: f64,
    /// Shared-memory-bound time (s).
    pub smem_s: f64,
    /// Launch overhead (s).
    pub overhead_s: f64,
    /// The final estimate: `max(terms) + overhead`.
    pub total_s: f64,
}

/// Derate factor for a resource that saturates at occupancy `sat`:
/// linear below saturation, flat at `1.0` above it. An occupancy of
/// zero (block does not fit) is priced as a single resident warp —
/// terrible but finite, so the tuner can still rank such candidates.
pub fn occupancy_derate(occ: f64, sat: f64, cfg: &GpuConfig) -> f64 {
    let floor = 1.0 / cfg.max_warps_per_sm as f64;
    (occ.max(floor) / sat).min(1.0)
}

/// Estimates the runtime of a kernel profile on `cfg`.
///
/// Shared-memory passes are serviced at one pass per SM per cycle
/// (128 bytes/pass), aggregated over all SMs. When the profile declares
/// per-block resources, achievable bandwidth scales with
/// `occupancy / cfg.mem_sat_occupancy` and issue rate (compute + smem)
/// with `occupancy / cfg.issue_sat_occupancy`, both capped at 1 — the
/// saturation points are per-device [`GpuConfig`] fields.
pub fn estimate(profile: &KernelProfile, pipeline: Pipeline, cfg: &GpuConfig) -> TimeEstimate {
    let peak = match pipeline {
        Pipeline::Fp32 => cfg.fp32_flops,
        Pipeline::TensorFp16 => cfg.fp16_tc_flops,
    };
    let occ = profile.occupancy(cfg);
    let mem = occupancy_derate(occ, cfg.mem_sat_occupancy, cfg);
    let issue = occupancy_derate(occ, cfg.issue_sat_occupancy, cfg);
    let compute_s = profile.flops / (peak * issue);
    let dram_s = profile.dram_bytes / (cfg.dram_bw * cfg.dram_efficiency * mem);
    let l2_s = profile.l2_bytes / (cfg.l2_bw * mem);
    // One warp smem pass per SM per cycle across all SMs.
    let smem_s = profile.smem_passes / (cfg.sm_count as f64 * cfg.clock_hz * issue);
    let overhead_s = profile.launches.max(1.0) * cfg.launch_overhead;
    let total_s = compute_s.max(dram_s).max(l2_s).max(smem_s) + overhead_s;
    TimeEstimate {
        compute_s,
        dram_s,
        l2_s,
        smem_s,
        overhead_s,
        total_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::a100;

    #[test]
    fn compute_bound_kernel() {
        let cfg = a100();
        let p = KernelProfile {
            flops: 1e12,
            dram_bytes: 1e6,
            launches: 1.0,
            ..Default::default()
        };
        let t = estimate(&p, Pipeline::TensorFp16, &cfg);
        assert!(t.compute_s > t.dram_s);
        assert!(t.total_s >= t.compute_s);
    }

    #[test]
    fn memory_bound_kernel() {
        let cfg = a100();
        let p = KernelProfile {
            flops: 1e6,
            dram_bytes: 1e9,
            launches: 1.0,
            ..Default::default()
        };
        let t = estimate(&p, Pipeline::Fp32, &cfg);
        assert!(t.dram_s > t.compute_s);
    }

    #[test]
    fn overhead_dominates_tiny_kernels() {
        let cfg = a100();
        let p = KernelProfile {
            flops: 1.0,
            launches: 100.0,
            ..Default::default()
        };
        let t = estimate(&p, Pipeline::Fp32, &cfg);
        assert!((t.total_s - 100.0 * cfg.launch_overhead).abs() / t.total_s < 0.01);
    }

    #[test]
    fn smem_term_scales_with_passes() {
        let cfg = a100();
        let p1 = KernelProfile {
            smem_passes: 1e9,
            ..Default::default()
        };
        let p2 = KernelProfile {
            smem_passes: 2e9,
            ..Default::default()
        };
        let t1 = estimate(&p1, Pipeline::Fp32, &cfg).smem_s;
        let t2 = estimate(&p2, Pipeline::Fp32, &cfg).smem_s;
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_intensity() {
        let p = KernelProfile {
            flops: 100.0,
            dram_bytes: 50.0,
            ..Default::default()
        };
        assert!((p.arithmetic_intensity() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unspecified_resources_run_at_full_occupancy() {
        let cfg = a100();
        let p = KernelProfile::default();
        assert_eq!(p.occupancy(&cfg), 1.0);
        assert_eq!(p.resident_warps(&cfg), cfg.max_warps_per_sm as f64);
    }

    #[test]
    fn occupancy_respects_each_limit() {
        let cfg = a100();
        // Warp-cap bound: 8-warp blocks, no other limits -> 8 blocks.
        let p = KernelProfile {
            warps_per_block: 8.0,
            ..Default::default()
        };
        assert_eq!(p.resident_warps(&cfg), 64.0);
        // Smem bound: 48 KiB blocks -> 3 blocks of 8 warps on A100.
        let p = KernelProfile {
            warps_per_block: 8.0,
            smem_per_block: 48.0 * 1024.0,
            ..Default::default()
        };
        assert_eq!(p.resident_warps(&cfg), 24.0);
        // The H100's larger carveout fits one more block.
        assert_eq!(p.resident_warps(&crate::config::h100()), 32.0);
        // Register bound: 32k regs per block -> 2 blocks.
        let p = KernelProfile {
            warps_per_block: 8.0,
            regs_per_block: 32.0 * 1024.0,
            ..Default::default()
        };
        assert_eq!(p.resident_warps(&cfg), 16.0);
    }

    #[test]
    fn low_occupancy_slows_memory_bound_kernels() {
        let cfg = a100();
        let full = KernelProfile {
            dram_bytes: 1e9,
            warps_per_block: 8.0,
            ..Default::default()
        };
        let starved = KernelProfile {
            // One 4-warp block resident: occupancy 1/16, below MEM_SAT.
            smem_per_block: 160.0 * 1024.0,
            warps_per_block: 4.0,
            ..full
        };
        let t_full = estimate(&full, Pipeline::Fp32, &cfg);
        let t_starved = estimate(&starved, Pipeline::Fp32, &cfg);
        assert!(t_starved.dram_s > 3.0 * t_full.dram_s);
    }

    #[test]
    fn unfittable_block_is_finite_but_terrible() {
        let cfg = a100();
        let p = KernelProfile {
            flops: 1e12,
            warps_per_block: 8.0,
            smem_per_block: 1024.0 * 1024.0, // exceeds any SM
            ..Default::default()
        };
        assert_eq!(p.occupancy(&cfg), 0.0);
        let t = estimate(&p, Pipeline::Fp32, &cfg);
        assert!(t.total_s.is_finite());
        assert!(
            t.compute_s
                > estimate(
                    &KernelProfile {
                        smem_per_block: 0.0,
                        ..p
                    },
                    Pipeline::Fp32,
                    &cfg
                )
                .compute_s
        );
    }
}
