//! GPU hardware configurations for the performance model.
//!
//! The default is an NVIDIA A100-80GB (SXM), the machine of the paper's
//! evaluation (§V); [`h100`] is a Hopper-class sibling for cross-hardware
//! tuning, and [`mi300`] is an AMD CDNA3-class device with a 64-lane
//! wavefront, LDS-style banking and 64-byte memory segments — the
//! portability stress test for every place the model used to assume
//! NVIDIA shapes. Only parameters the model actually uses are included.

/// Hardware parameters consumed by the timing model.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuConfig {
    /// Human-readable device name.
    pub name: &'static str,
    /// Short stable tag (`a100`/`h100`/`mi300`) for CLI flags and
    /// artifact file names.
    pub tag: &'static str,
    /// Number of streaming multiprocessors (compute units).
    pub sm_count: usize,
    /// Threads per warp (wavefront).
    pub warp_size: usize,
    /// Number of shared-memory (LDS) banks.
    pub smem_banks: usize,
    /// Bytes per shared-memory bank word.
    pub bank_bytes: usize,
    /// DRAM (HBM) bandwidth in bytes/second.
    pub dram_bw: f64,
    /// L2 bandwidth in bytes/second.
    pub l2_bw: f64,
    /// L2 capacity in bytes.
    pub l2_bytes: usize,
    /// Global-memory transaction (sector / segment) size in bytes.
    pub sector_bytes: usize,
    /// FP32 FMA peak in FLOP/s.
    pub fp32_flops: f64,
    /// FP16 tensor/matrix-core peak in FLOP/s.
    pub fp16_tc_flops: f64,
    /// SM clock in Hz.
    pub clock_hz: f64,
    /// Fraction of peak DRAM bandwidth achievable by a well-tuned
    /// streaming kernel (measured copy efficiency).
    pub dram_efficiency: f64,
    /// Fixed per-kernel-launch overhead in seconds.
    pub launch_overhead: f64,
    /// Register file size per SM (32-bit registers).
    pub regs_per_sm: usize,
    /// Shared memory per SM in bytes (maximum carveout).
    pub smem_per_sm: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// Occupancy fraction (of the warp cap) at which memory latency is
    /// fully hidden; below it achievable DRAM/L2 bandwidth scales
    /// linearly with occupancy.
    pub mem_sat_occupancy: f64,
    /// Occupancy fraction at which the issue pipelines (compute and
    /// shared-memory access) saturate.
    pub issue_sat_occupancy: f64,
}

/// The A100-80GB configuration used throughout the evaluation.
pub fn a100() -> GpuConfig {
    GpuConfig {
        name: "NVIDIA A100-SXM4-80GB",
        tag: "a100",
        sm_count: 108,
        warp_size: 32,
        smem_banks: 32,
        bank_bytes: 4,
        dram_bw: 2.039e12, // 2039 GB/s HBM2e
        l2_bw: 5.0e12,     // ~5 TB/s aggregate L2
        l2_bytes: 40 * 1024 * 1024,
        sector_bytes: 32,
        fp32_flops: 19.5e12,
        fp16_tc_flops: 312.0e12,
        clock_hz: 1.41e9,
        dram_efficiency: 0.85,
        launch_overhead: 4.0e-6,
        regs_per_sm: 64 * 1024,
        smem_per_sm: 164 * 1024,
        max_warps_per_sm: 64,
        mem_sat_occupancy: crate::timing::MEM_SAT_OCCUPANCY,
        issue_sat_occupancy: crate::timing::ISSUE_SAT_OCCUPANCY,
    }
}

/// An H100-80GB (SXM5) configuration: more SMs, faster HBM3, a larger
/// L2 and shared-memory carveout than the A100 — the same register file
/// and warp cap, so occupancy limits bind differently across the two.
pub fn h100() -> GpuConfig {
    GpuConfig {
        name: "NVIDIA H100-SXM5-80GB",
        tag: "h100",
        sm_count: 132,
        warp_size: 32,
        smem_banks: 32,
        bank_bytes: 4,
        dram_bw: 3.35e12, // 3350 GB/s HBM3
        l2_bw: 7.5e12,
        l2_bytes: 50 * 1024 * 1024,
        sector_bytes: 32,
        fp32_flops: 66.9e12,
        fp16_tc_flops: 989.4e12, // dense (no sparsity)
        clock_hz: 1.98e9,
        dram_efficiency: 0.85,
        launch_overhead: 4.0e-6,
        regs_per_sm: 64 * 1024,
        smem_per_sm: 228 * 1024,
        max_warps_per_sm: 64,
        mem_sat_occupancy: crate::timing::MEM_SAT_OCCUPANCY,
        issue_sat_occupancy: crate::timing::ISSUE_SAT_OCCUPANCY,
    }
}

/// An MI300X-class (CDNA3) configuration: 64-lane wavefronts, 64
/// LDS banks of 4-byte words, 64-byte memory segments, a 64 KiB LDS
/// per CU and a 32-wave residency cap — every shape the NVIDIA configs
/// share is different here, which is exactly what makes it the
/// portability stress test. Wider waves hide latency with fewer
/// resident waves, so the saturation occupancies sit higher than the
/// NVIDIA defaults relative to the (smaller) wave cap.
pub fn mi300() -> GpuConfig {
    GpuConfig {
        name: "AMD Instinct MI300X",
        tag: "mi300",
        sm_count: 304, // compute units across all XCDs
        warp_size: 64,
        smem_banks: 64,
        bank_bytes: 4,
        dram_bw: 5.3e12, // 5300 GB/s HBM3
        l2_bw: 1.0e13,
        l2_bytes: 64 * 1024 * 1024, // LLC working slice
        sector_bytes: 64,           // 64 B cache-line segments
        fp32_flops: 163.4e12,
        fp16_tc_flops: 1307.4e12,
        clock_hz: 2.1e9,
        dram_efficiency: 0.80,
        launch_overhead: 6.0e-6, // ROCm dispatch is a bit heavier
        regs_per_sm: 128 * 1024, // 512 KiB VGPR file per CU
        smem_per_sm: 64 * 1024,  // LDS
        max_warps_per_sm: 32,    // 8 waves x 4 SIMDs
        mem_sat_occupancy: 0.375,
        issue_sat_occupancy: 0.5,
    }
}

/// The tags of every device model, for usage messages.
pub const DEVICE_TAGS: [&str; 3] = ["a100", "h100", "mi300"];

/// Looks a device up by tag *or* full marketing name,
/// ASCII-case-insensitively and ignoring surrounding whitespace, so
/// `"h100"`, `"H100"` and `"NVIDIA H100-SXM5-80GB"` all reach the same
/// model. Every front door (the wire protocol and the CLIs) resolves
/// devices through this one lookup.
pub fn lookup(name: &str) -> Option<GpuConfig> {
    let want = name.trim();
    [a100 as fn() -> GpuConfig, h100, mi300]
        .into_iter()
        .map(|device| device())
        .find(|cfg| cfg.tag.eq_ignore_ascii_case(want) || cfg.name.eq_ignore_ascii_case(want))
}

impl Default for GpuConfig {
    fn default() -> GpuConfig {
        a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_basics() {
        let c = a100();
        assert_eq!(c.sm_count, 108);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.smem_banks, 32);
        assert!(c.fp16_tc_flops > c.fp32_flops);
    }

    #[test]
    fn default_is_a100() {
        assert_eq!(GpuConfig::default(), a100());
    }

    #[test]
    fn h100_outclasses_a100_except_occupancy_limits() {
        let (a, h) = (a100(), h100());
        assert!(h.sm_count > a.sm_count);
        assert!(h.dram_bw > a.dram_bw);
        assert!(h.smem_per_sm > a.smem_per_sm);
        // Same register file and warp cap: register-bound kernels
        // occupy both generations identically.
        assert_eq!(h.regs_per_sm, a.regs_per_sm);
        assert_eq!(h.max_warps_per_sm, a.max_warps_per_sm);
    }

    #[test]
    fn mi300_breaks_every_nvidia_shape() {
        let (a, m) = (a100(), mi300());
        // Warp-64 wavefronts, doubled banks, wider segments: every
        // parameter the coalescer and bank model consume differs.
        assert_eq!(m.warp_size, 2 * a.warp_size);
        assert_eq!(m.smem_banks, 2 * a.smem_banks);
        assert_eq!(m.sector_bytes, 2 * a.sector_bytes);
        // A smaller LDS and wave cap than the NVIDIA carveouts: the
        // occupancy model must bind differently.
        assert!(m.smem_per_sm < a.smem_per_sm);
        assert!(m.max_warps_per_sm < a.max_warps_per_sm);
        // Per-device saturation points are fields now, not globals.
        assert!(m.mem_sat_occupancy > a.mem_sat_occupancy);
    }

    #[test]
    fn lookup_round_trips_tags() {
        for tag in DEVICE_TAGS {
            let cfg = lookup(tag).expect("known tag");
            assert_eq!(cfg.tag, tag);
        }
        assert!(lookup("v100").is_none());
    }

    #[test]
    fn lookup_accepts_tags_and_full_names() {
        for tag in DEVICE_TAGS {
            let strict = lookup(tag).unwrap();
            assert_eq!(lookup(tag).unwrap().tag, tag);
            assert_eq!(lookup(&tag.to_uppercase()).unwrap().tag, tag);
            assert_eq!(lookup(strict.name).unwrap().tag, tag);
            assert_eq!(
                lookup(&format!("  {}  ", strict.name.to_lowercase()))
                    .unwrap()
                    .tag,
                tag
            );
        }
        assert!(lookup("v100").is_none());
        assert!(lookup("").is_none());
    }
}
