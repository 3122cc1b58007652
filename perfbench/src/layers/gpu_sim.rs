//! Adapter for `gpu-sim` (layer `gpu-sim`): the simulated device's stream
//! timeline, transfer ledger and launch trace, read at the boundaries of
//! the benchmark's calls.

use super::ntt_gpu::{kernel_class, route_of};
use gpu_sim::calibrate::PCIE_LATENCY_S;
use gpu_sim::DeviceTimeline;
use ntt_gpu::backend::SimMemory;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A handle on one simulated device, shared with the backend driving it.
#[derive(Clone)]
pub struct Device(Arc<Mutex<SimMemory>>);

/// Counter values at one boundary.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    timeline: DeviceTimeline,
    trace_len: usize,
    words: u64,
}

/// Counter deltas between two boundaries. `dram_bytes`, the kernel-class
/// split and `route` are filled only for detailed windows (traced runs),
/// because they walk the launch-trace tail.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Serialized kernel + transfer time (the modeled device-busy time).
    pub device_s: f64,
    /// Makespan growth of the stream schedule.
    pub makespan_s: f64,
    pub launches: u64,
    pub transfers: u64,
    pub transfer_words: u64,
    /// Modeled PCIe time of the window's transfers.
    pub transfer_s: f64,
    pub dram_bytes: u64,
    /// Modeled seconds and launches per `KernelClass`.
    pub class_s: [f64; 3],
    pub class_launches: [u64; 3],
    /// Galois-automorphism and gadget-decompose launches (one rotation
    /// or key switch each issues a fixed number of them).
    pub automorphisms: u64,
    pub decomposes: u64,
    /// Forward-NTT kernel family first launched in the window.
    pub route: Option<&'static str>,
}

impl Window {
    pub fn add(&mut self, o: &Window) {
        self.device_s += o.device_s;
        self.makespan_s += o.makespan_s;
        self.launches += o.launches;
        self.transfers += o.transfers;
        self.transfer_words += o.transfer_words;
        self.transfer_s += o.transfer_s;
        self.dram_bytes += o.dram_bytes;
        for c in 0..3 {
            self.class_s[c] += o.class_s[c];
            self.class_launches[c] += o.class_launches[c];
        }
        self.automorphisms += o.automorphisms;
        self.decomposes += o.decomposes;
        self.route = self.route.or(o.route);
    }

    /// The deltas as span counters.
    pub fn counters(&self) -> [(&'static str, f64); 5] {
        [
            ("device_us", self.device_s * 1e6),
            ("launches", self.launches as f64),
            ("transfers", self.transfers as f64),
            ("transfer_words", self.transfer_words as f64),
            ("dram_bytes", self.dram_bytes as f64),
        ]
    }
}

impl Device {
    pub fn new(mem: Arc<Mutex<SimMemory>>) -> Self {
        Device(mem)
    }

    fn lock(&self) -> MutexGuard<'_, SimMemory> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drain every stream (the modeled device synchronize) and read the
    /// counters, so a window opened here starts from an idle device.
    pub fn mark(&self) -> Mark {
        let mut mem = self.lock();
        mem.gpu_mut().sync_all();
        let gpu = mem.gpu();
        let t = gpu.gmem.transfer_stats();
        Mark {
            timeline: gpu.timeline(),
            trace_len: gpu.trace.len(),
            words: t.upload_words + t.download_words,
        }
    }

    /// Deltas since `m`, after draining the device.
    pub fn since(&self, m: &Mark, detailed: bool) -> Window {
        let end = self.mark();
        let d = end.timeline.since(&m.timeline);
        let mem = self.lock();
        let gpu = mem.gpu();
        let words = end.words - m.words;
        let mut w = Window {
            device_s: d.serialized_s,
            makespan_s: d.overlapped_s,
            launches: d.launches,
            transfers: d.transfers,
            transfer_words: words,
            transfer_s: d.transfers as f64 * PCIE_LATENCY_S
                + words as f64 * 8.0 / gpu.config.pcie_bw,
            ..Window::default()
        };
        if detailed {
            let tail = &gpu.trace[m.trace_len..end.trace_len];
            for rec in tail {
                let c = kernel_class(&rec.launch.label) as usize;
                w.class_s[c] += rec.timing.total_s;
                w.class_launches[c] += 1;
                w.dram_bytes += rec.dram_bytes(&gpu.config);
                match rec.launch.label.as_str() {
                    "sim-automorphism" => w.automorphisms += 1,
                    "sim-decompose" => w.decomposes += 1,
                    _ => {}
                }
            }
            w.route = route_of(tail.iter().map(|r| r.launch.label.as_str()));
        }
        w
    }
}

/// Peak DRAM bandwidth of the modeled device (a Titan V), bytes/s.
pub fn peak_dram_bw() -> f64 {
    gpu_sim::GpuConfig::titan_v().peak_dram_bw
}

/// Modeled seconds of every kernel class plus transfers, over the
/// window's device time: the share of device time the split explains.
pub fn class_coverage(w: &Window) -> f64 {
    (w.class_s.iter().sum::<f64>() + w.transfer_s) / w.device_s.max(f64::MIN_POSITIVE)
}
