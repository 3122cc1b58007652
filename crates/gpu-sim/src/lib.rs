//! A functional + performance model of a Titan-V-class GPU.
//!
//! This crate is the hardware substrate for the reproduction of
//! *"Accelerating NTT for Bootstrappable HE on GPUs"* (IISWC 2020). The
//! paper's experiments run CUDA kernels on an NVIDIA Titan V; this
//! environment has no GPU, so — per the reproduction's substitution rule —
//! we model one:
//!
//! * **Functional**: kernels are *warp programs* ([`WarpKernel`]) executed
//!   against simulated global/shared memory. Data really moves; the NTT
//!   results coming out of the simulator are checked bit-exact against the
//!   scalar reference in `ntt-core`.
//! * **Performance**: every warp-level load/store is classified into 32-byte
//!   DRAM transactions (memory coalescing, §II of the paper), read-only
//!   table loads go through a modeled L2/texture path, shared-memory
//!   traffic and block barriers are counted, and occupancy is derived from
//!   register/SMEM pressure ([`occupancy`]). A calibrated analytical model
//!   ([`perf`], [`calibrate`]) converts the counts into time.
//!
//! What this preserves from the paper: every effect the paper measures is a
//! *counted* quantity here (bytes, transactions, wasted lanes, spills,
//! occupancy), so the shapes of the paper's figures emerge from first
//! principles; only the count→seconds conversion is calibrated, against the
//! anchor points the paper discloses (86.7% saturated DRAM utilization,
//! 59.9% at radix-32's occupancy, spills from radix-64 up).
//!
//! A launch's record depends on its kernel's parameters and on where its
//! operands sit, never on the words they hold, so a caller may simulate a
//! launch once and reuse its record. [`Gpu::launch`] runs the kernel
//! (a miss, for such a caller) and then charges its record to the active
//! stream and appends it to the trace; [`Gpu::replay`] is that second
//! step alone, for a repeat (a hit) whose outputs the caller computed
//! some other way. The `ntt-gpu` backend memoizes its launches this way.
//!
//! # Example
//!
//! ```
//! use gpu_sim::{Gpu, GpuConfig, LaunchConfig, WarpKernel, WarpCtx};
//!
//! /// Doubles every element of a buffer.
//! struct DoubleKernel { buf: gpu_sim::Buf }
//! impl WarpKernel for DoubleKernel {
//!     fn phases(&self) -> usize { 1 }
//!     fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
//!         let lanes = ctx.lanes();
//!         let addrs: Vec<Option<usize>> = (0..lanes)
//!             .map(|l| Some(self.buf.word(ctx.global_thread(l))))
//!             .collect();
//!         let vals = ctx.gmem_load(&addrs);
//!         let writes: Vec<Option<(usize, u64)>> = (0..lanes)
//!             .map(|l| Some((self.buf.word(ctx.global_thread(l)), vals[l].unwrap() * 2)))
//!             .collect();
//!         ctx.gmem_store(&writes);
//!     }
//! }
//!
//! let mut gpu = Gpu::new(GpuConfig::titan_v());
//! let buf = gpu.gmem.alloc_from(&[1u64, 2, 3, 4]);
//! let cfg = LaunchConfig::new("double", 1, 4).regs_per_thread(16);
//! let total_s = gpu.launch(&DoubleKernel { buf }, &cfg).timing.total_s;
//! assert_eq!(gpu.gmem.slice(buf), &[2, 4, 6, 8]);
//! assert!(total_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod config;
pub mod engine;
pub mod fault;
pub mod mem;
pub mod occupancy;
pub mod perf;
pub mod stats;
pub mod stream;

pub use config::GpuConfig;
pub use engine::{LaunchConfig, LaunchRecord, WarpCtx, WarpKernel};
pub use fault::{FaultKind, FaultOp, FaultPlan};
pub use mem::{Buf, Gmem};
pub use occupancy::OccupancyInfo;
pub use perf::KernelTiming;
pub use stats::{KernelStats, OpClass, TransferStats};
pub use stream::{DeviceTimeline, Event, Stream, StreamScheduler, TimeSpan};

/// The simulated device: configuration, global memory, a trace of every
/// kernel launch with its statistics and modeled timing, and the stream
/// scheduler deciding how launches from different streams overlap in
/// modeled time.
#[derive(Debug)]
pub struct Gpu {
    /// Device configuration (Titan V by default).
    pub config: GpuConfig,
    /// Simulated global memory.
    pub gmem: Gmem,
    /// One record per launch, in launch order.
    pub trace: Vec<LaunchRecord>,
    /// The stream scheduler (overlapped-time accounting; see
    /// [`stream::StreamScheduler`]).
    pub streams: StreamScheduler,
    active_stream: Stream,
    fault: Option<FaultPlan>,
}

impl Gpu {
    /// A fresh device with empty memory.
    pub fn new(config: GpuConfig) -> Self {
        let streams = StreamScheduler::new(config.sm_count, config.pcie_bw);
        Self {
            config,
            gmem: Gmem::new(),
            trace: Vec::new(),
            streams,
            active_stream: Stream::DEFAULT,
            fault: None,
        }
    }

    /// Arm (or with `None`, disarm) a deterministic fault schedule. The
    /// plan is consulted only by the fallible entry points of the
    /// execution backend in `ntt-gpu` (`NttBackend::gate`, which an
    /// armed evaluator checkout passes for every op, and the device
    /// memory's `try_alloc`) via [`Gpu::fault_check`]; infallible paths
    /// — unarmed evaluators, host↔device staging, split sweeps, the
    /// figure harness — never draw from it. Disarming also "resets" a
    /// sticky-wedged device.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The armed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Draw the armed fault schedule for one fallible operation of class
    /// `op` (`Ok(())` when no plan is armed). A fired fault charges a
    /// zero-word transfer — one PCIe latency — to the active stream, so
    /// the aborted command still lands on the modeled timeline the way a
    /// failed command occupies a real hardware queue.
    pub fn fault_check(&mut self, op: FaultOp) -> Result<(), FaultKind> {
        let Some(plan) = self.fault.as_mut() else {
            return Ok(());
        };
        plan.check(op).inspect_err(|_| {
            self.streams.enqueue_transfer(self.active_stream, 0);
        })
    }

    /// Draw the armed fault schedule for an allocation that would bring
    /// the device address space to `projected_words` (OOM cap plus, under
    /// a non-zero alloc rate, the regular [`FaultOp::Alloc`] schedule;
    /// see [`FaultPlan::check_alloc`]). Timeline charging as in
    /// [`Gpu::fault_check`].
    pub fn fault_check_alloc(&mut self, projected_words: usize) -> Result<(), FaultKind> {
        let Some(plan) = self.fault.as_mut() else {
            return Ok(());
        };
        plan.check_alloc(projected_words).inspect_err(|_| {
            self.streams.enqueue_transfer(self.active_stream, 0);
        })
    }

    /// Execute a kernel and record its statistics and modeled time. The
    /// launch is charged to the **active stream**: functionally it runs to
    /// completion right here (enqueue order is execution order), while its
    /// modeled time is scheduled against other streams' work subject to SM
    /// capacity ([`occupancy::sm_demand`]).
    ///
    /// Returns the recorded [`LaunchRecord`]: the trace entry.
    pub fn launch<K: WarpKernel>(&mut self, kernel: &K, cfg: &LaunchConfig) -> &LaunchRecord {
        let record = engine::run_kernel(&self.config, &mut self.gmem, kernel, cfg);
        self.replay(record)
    }

    /// Charge a recorded launch to the active stream and append it to the
    /// trace, exactly as [`Gpu::launch`] does after running its kernel,
    /// without running one: a caller that already knows a launch's record
    /// (and computes its outputs some other way) moves the timeline and
    /// the trace as the launch would have.
    ///
    /// Returns the trace entry.
    pub fn replay(&mut self, record: LaunchRecord) -> &LaunchRecord {
        let demand = occupancy::sm_demand(&self.config, &record.launch);
        self.streams
            .enqueue_kernel(self.active_stream, record.timing.total_s, demand);
        self.trace.push(record);
        self.trace.last().expect("the record was just pushed")
    }

    /// Create a new stream (an independent command queue for the
    /// overlapped-time model).
    pub fn create_stream(&mut self) -> Stream {
        self.streams.create_stream()
    }

    /// Destroy a stream created with [`Gpu::create_stream`].
    pub fn destroy_stream(&mut self, s: Stream) {
        self.streams.destroy_stream(s);
    }

    /// Select the stream subsequent launches and charged transfers run on.
    pub fn set_active_stream(&mut self, s: Stream) {
        self.active_stream = s;
    }

    /// The stream launches are currently charged to.
    pub fn active_stream(&self) -> Stream {
        self.active_stream
    }

    /// Record an event on `s` (a fence at the completion of all work
    /// enqueued on `s` so far).
    pub fn record_event(&mut self, s: Stream) -> Event {
        self.streams.record_event(s)
    }

    /// Make stream `s` wait for event `e` before running later commands.
    pub fn wait_event(&mut self, s: Stream, e: Event) {
        self.streams.wait_event(s, e);
    }

    /// Host→device copy charged to the active stream (ledger **and**
    /// modeled bus time; plain [`Gmem::upload`] only counts the ledger).
    ///
    /// # Panics
    ///
    /// Panics if the copy exceeds the buffer.
    pub fn stream_upload(&mut self, buf: Buf, offset: usize, data: &[u64]) {
        self.streams
            .enqueue_transfer(self.active_stream, data.len());
        self.gmem.upload(buf, offset, data);
    }

    /// Device→host copy charged to the active stream (see
    /// [`Gpu::stream_upload`]). The host blocks until the stream drains.
    ///
    /// # Panics
    ///
    /// Panics if `out` is longer than the buffer.
    pub fn stream_download(&mut self, buf: Buf, out: &mut [u64]) {
        self.streams.enqueue_transfer(self.active_stream, out.len());
        self.gmem.download(buf, out);
    }

    /// Charge one leg of an inter-device (peer-to-peer) copy of `words`
    /// 64-bit words to the active stream, using the configured
    /// [`GpuConfig::link_bw`] / [`GpuConfig::link_latency_s`]. The sharded
    /// backend calls this on **both** endpoints of a cross-shard move, so
    /// base-conversion all-gathers occupy every participating device's
    /// timeline. Data movement itself is done by the caller through raw
    /// [`Gmem`] access; this charges only the modeled time.
    pub fn link_stall(&mut self, words: usize) {
        let (bw, lat) = (self.config.link_bw, self.config.link_latency_s);
        self.streams
            .enqueue_link_transfer(self.active_stream, words, bw, lat);
    }

    /// Device-wide barrier in modeled time (see
    /// [`StreamScheduler::sync_all`]): later work on any stream starts at
    /// or after the current makespan. Call before opening a measurement
    /// window.
    pub fn sync_all(&mut self) {
        self.streams.sync_all();
    }

    /// The stream schedule's accounting: serialized vs overlapped modeled
    /// device time, launches, transfers.
    pub fn timeline(&self) -> DeviceTimeline {
        self.streams.timeline()
    }

    /// Total modeled time of all launches since the last reset.
    pub fn total_time_s(&self) -> f64 {
        self.trace.iter().map(|r| r.timing.total_s).sum()
    }

    /// Total DRAM bytes moved (reads + writes + spills) across the trace.
    pub fn total_dram_bytes(&self) -> u64 {
        self.trace
            .iter()
            .map(|r| r.stats.dram_bytes(&self.config) + r.timing.lmem_bytes)
            .sum()
    }

    /// Aggregate achieved DRAM bandwidth utilization (fraction of peak)
    /// over the whole trace.
    pub fn dram_utilization(&self) -> f64 {
        let t = self.total_time_s();
        if t == 0.0 {
            return 0.0;
        }
        self.total_dram_bytes() as f64 / t / self.config.peak_dram_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Copy {
        src: Buf,
        dst: Buf,
    }

    impl WarpKernel for Copy {
        fn phases(&self) -> usize {
            1
        }
        fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
            let lanes = ctx.lanes();
            let addrs: Vec<Option<usize>> = (0..lanes)
                .map(|l| Some(self.src.word(ctx.global_thread(l))))
                .collect();
            let vals = ctx.gmem_load(&addrs);
            let writes: Vec<Option<(usize, u64)>> = (0..lanes)
                .map(|l| Some((self.dst.word(ctx.global_thread(l)), vals[l].unwrap())))
                .collect();
            ctx.gmem_store(&writes);
        }
    }

    #[test]
    fn copy_kernel_moves_data_and_counts_traffic() {
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let data: Vec<u64> = (0..1024).collect();
        let src = gpu.gmem.alloc_from(&data);
        let dst = gpu.gmem.alloc(1024);
        let cfg = LaunchConfig::new("copy", 4, 256).regs_per_thread(16);
        let rec = gpu.launch(&Copy { src, dst }, &cfg).clone();
        assert_eq!(gpu.gmem.slice(dst), &data[..]);
        // Fully coalesced: 1024 words * 8 B / 32 B per transaction, each way.
        assert_eq!(rec.stats.dram_read_transactions, 256);
        assert_eq!(rec.stats.dram_write_transactions, 256);
        assert!(rec.timing.total_s > 0.0);
        assert_eq!(gpu.trace.len(), 1);
    }

    #[test]
    fn streams_overlap_small_launches() {
        // Two copy kernels that each fill a fraction of the device: on one
        // stream they serialize; on two streams the makespan shrinks.
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let data: Vec<u64> = (0..1024).collect();
        let (src, dst) = (gpu.gmem.alloc_from(&data), gpu.gmem.alloc(1024));
        let cfg = LaunchConfig::new("copy", 4, 256).regs_per_thread(16);
        let (s1, s2) = (gpu.create_stream(), gpu.create_stream());
        gpu.set_active_stream(s1);
        gpu.launch(&Copy { src, dst }, &cfg);
        gpu.set_active_stream(s2);
        gpu.launch(&Copy { src, dst }, &cfg);
        let t = gpu.timeline();
        assert_eq!(t.launches, 2);
        assert!(
            t.overlapped_s < t.serialized_s * 0.75,
            "expected overlap: {t}"
        );
        // Data still moved correctly (functional model unchanged).
        assert_eq!(gpu.gmem.slice(dst), &data[..]);
    }

    #[test]
    fn replaying_a_record_moves_timeline_and_trace_as_launching_it() {
        // Two identical devices, each with a second stream that overlaps
        // the default one: one launches the copy, the other replays the
        // first device's record on the same stream.
        let setup = || {
            let mut gpu = Gpu::new(GpuConfig::titan_v());
            let data: Vec<u64> = (0..1024).collect();
            let (src, dst) = (gpu.gmem.alloc_from(&data), gpu.gmem.alloc(1024));
            let cfg = LaunchConfig::new("copy", 4, 256).regs_per_thread(16);
            gpu.launch(&Copy { src, dst }, &cfg);
            let s = gpu.create_stream();
            gpu.set_active_stream(s);
            (gpu, Copy { src, dst }, cfg)
        };
        let (mut launched, kernel, cfg) = setup();
        let (mut replayed, ..) = setup();
        let record = launched.launch(&kernel, &cfg).clone();
        assert_eq!(replayed.replay(record.clone()), &record);
        assert_eq!(launched.timeline(), replayed.timeline());
        assert_eq!(launched.trace, replayed.trace);
        let s = launched.active_stream();
        assert_eq!(launched.streams.cursor(s), replayed.streams.cursor(s));
    }

    #[test]
    fn utilization_is_bounded() {
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let src = gpu.gmem.alloc_from(&vec![7u64; 1 << 16]);
        let dst = gpu.gmem.alloc(1 << 16);
        let cfg = LaunchConfig::new("copy", 64, 256).regs_per_thread(32);
        gpu.launch(&Copy { src, dst }, &cfg);
        let u = gpu.dram_utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u} out of range");
    }
}
