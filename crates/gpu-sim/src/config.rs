//! Device configuration.
//!
//! Defaults model the NVIDIA Titan V (Volta GV100) the paper evaluates on
//! (§II, Table I): 80 SMs × 64 cores, 32-thread warps, 256 KB register file
//! and ≤128 KB combined L1/shared memory per SM, 32-byte DRAM transactions.

/// Static parameters of the simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Marketing name, for reports.
    pub name: String,
    /// Streaming multiprocessors.
    pub sm_count: u32,
    /// Scalar cores per SM.
    pub cores_per_sm: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// 32-bit register-file entries per SM (256 KB = 65536 words).
    pub regfile_words_per_sm: u32,
    /// Hardware cap on 32-bit registers per thread; demand beyond this
    /// spills to local memory (LMEM), which lives in DRAM.
    pub max_regs_per_thread: u32,
    /// Usable shared memory per SM in bytes (96 KB of the 128 KB combined
    /// L1/SMEM on Volta is configurable as scratchpad).
    pub smem_bytes_per_sm: u32,
    /// Maximum shared memory per block in bytes.
    pub max_smem_per_block: u32,
    /// DRAM transaction granularity in bytes (§II: 32 B).
    pub transaction_bytes: u32,
    /// Peak DRAM bandwidth in bytes/second. The paper reports 86.7% of
    /// peak = 564.4 GB/s, giving 651 GB/s peak (HBM2, 3 stacks).
    pub peak_dram_bw: f64,
    /// L2/texture-path bandwidth for read-only cached loads, bytes/second.
    pub l2_bw: f64,
    /// Shared-memory bytes per SM per cycle (128 B/clk on Volta).
    pub smem_bytes_per_cycle_per_sm: u32,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Host↔device (PCIe) bandwidth in bytes/second — the bus the stream
    /// scheduler charges uploads/downloads against.
    pub pcie_bw: f64,
    /// Inter-device link bandwidth in bytes/second — the peer-to-peer
    /// path a sharded multi-device backend charges base-conversion /
    /// all-gather traffic against (key-switch digit decomposition is the
    /// interesting consumer, per HEAAN Demystified). Titan V has no
    /// NVLink bridge, so the default models P2P over the PCIe switch.
    pub link_bw: f64,
    /// Fixed per-message latency of one inter-device transfer, seconds.
    pub link_latency_s: f64,
}

impl GpuConfig {
    /// The paper's evaluation platform: NVIDIA Titan V.
    pub fn titan_v() -> Self {
        Self {
            name: "NVIDIA Titan V (simulated)".to_string(),
            sm_count: 80,
            cores_per_sm: 64,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 32,
            regfile_words_per_sm: 65536,
            max_regs_per_thread: 255,
            smem_bytes_per_sm: 96 * 1024,
            max_smem_per_block: 96 * 1024,
            transaction_bytes: 32,
            peak_dram_bw: 651.0e9,
            l2_bw: 2.1e12,
            smem_bytes_per_cycle_per_sm: 128,
            clock_hz: 1.455e9,
            // Titan V: PCIe 3.0 x16, ~12 GB/s effective.
            pcie_bw: 12.0e9,
            // Device-to-device over the PCIe switch: no host bounce, so
            // a bit faster than host staging, plus switch latency.
            link_bw: 10.0e9,
            link_latency_s: 2.0e-6,
        }
    }

    /// Total scalar cores on the device.
    pub fn total_cores(&self) -> u32 {
        self.sm_count * self.cores_per_sm
    }

    /// Peak scalar-op throughput in ops/second (one op per core per clock).
    pub fn peak_ops_per_s(&self) -> f64 {
        self.total_cores() as f64 * self.clock_hz
    }

    /// Aggregate shared-memory bandwidth in bytes/second.
    pub fn smem_bw(&self) -> f64 {
        self.sm_count as f64 * self.smem_bytes_per_cycle_per_sm as f64 * self.clock_hz
    }

    /// Words (u64) per DRAM transaction.
    pub fn words_per_transaction(&self) -> usize {
        (self.transaction_bytes / 8) as usize
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::titan_v()
    }
}

impl std::fmt::Display for GpuConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} SMs x {} cores @ {:.2} GHz, {:.0} GB/s DRAM",
            self.name,
            self.sm_count,
            self.cores_per_sm,
            self.clock_hz / 1e9,
            self.peak_dram_bw / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_v_shape() {
        let c = GpuConfig::titan_v();
        assert_eq!(c.total_cores(), 5120);
        assert_eq!(c.words_per_transaction(), 4);
        // The paper's measured saturation point must be below peak.
        assert!(564.4e9 < c.peak_dram_bw);
        assert!((564.4e9 / c.peak_dram_bw - 0.867).abs() < 0.01);
    }

    #[test]
    fn derived_rates() {
        let c = GpuConfig::titan_v();
        assert!(c.peak_ops_per_s() > 7e12);
        assert!(c.smem_bw() > 1e13);
    }

    #[test]
    fn display_mentions_device() {
        assert!(GpuConfig::titan_v().to_string().contains("Titan V"));
    }
}
