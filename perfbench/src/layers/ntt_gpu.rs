//! Adapter for `ntt-gpu` (layer `ntt-gpu`): the simulated-GPU backend, the
//! paper's kernel families at one shape, and the kernel class and family
//! of each launch label.

use super::gpu_sim::Device;
use gpu_sim::GpuConfig;
use ntt_core::backend::NttBackend;
use ntt_gpu::backend::SimMemory;
use ntt_gpu::batch::DeviceBatch;
use ntt_gpu::radix2::ModMul;
use ntt_gpu::smem::SmemConfig;
use ntt_gpu::{hier, radix2, smem, SimBackend};

/// A fresh simulated Titan V: the backend to hand to an engine or
/// context, and the device handle its counters are read through.
pub fn sim_backend() -> (Box<dyn NttBackend>, Device) {
    let backend = SimBackend::titan_v();
    let device = Device::new(backend.memory_handle());
    (Box::new(backend), device)
}

/// What a launch does, by its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClass {
    /// Forward/inverse NTT kernels of every family.
    Ntt = 0,
    /// Key-switch kernels: gadget decompose, FMA accumulation, Galois
    /// automorphism.
    KeySwitch = 1,
    /// Everything else: pointwise, add/sub/neg, rescale, mod-raise.
    Elementwise = 2,
}

pub fn kernel_class(label: &str) -> KernelClass {
    if route_family(label).is_some()
        || label.starts_with("iradix2")
        || label.starts_with("dft-")
        || label == "intt-scale"
    {
        KernelClass::Ntt
    } else if matches!(label, "sim-decompose" | "sim-fma" | "sim-automorphism") {
        KernelClass::KeySwitch
    } else {
        KernelClass::Elementwise
    }
}

/// The forward-NTT family a launch label belongs to.
fn route_family(label: &str) -> Option<&'static str> {
    if label.starts_with("smem-") {
        Some("smem")
    } else if label.starts_with("hier-") {
        Some("hier")
    } else if label.starts_with("radix2-") {
        Some("radix2")
    } else if label.starts_with("radix") {
        Some("high-radix")
    } else {
        None
    }
}

/// The family of the first forward-NTT launch among `labels`.
pub fn route_of<'a>(labels: impl IntoIterator<Item = &'a str>) -> Option<&'static str> {
    labels.into_iter().find_map(route_family)
}

/// Modeled microseconds of one forward NTT batch (`np` primes, `2^log_n`
/// points) for the paper's Table II families, each on a fresh device:
/// radix-2 (Shoup), two-kernel SMEM without and with on-the-fly
/// twiddling (the paper's first split for this size), and the
/// hierarchical 4-step plan at the near-square split.
pub fn table2_us(log_n: u32, np: usize, prime_bits: u32) -> [f64; 4] {
    let run = |f: &dyn Fn(&mut SimMemory, &DeviceBatch) -> f64| {
        let mut mem = SimMemory::new(GpuConfig::titan_v());
        let batch = DeviceBatch::sequential_on(&mut mem, log_n, np, prime_bits)
            .expect("Table II shape has NTT primes");
        f(&mut mem, &batch)
    };
    let n1 = SmemConfig::paper_splits(log_n)[0];
    [
        run(&|m, b| radix2::run(m.gpu_mut(), b, ModMul::Shoup).total_us()),
        run(&|m, b| smem::run(m.gpu_mut(), b, &SmemConfig::new(n1)).total_us()),
        run(&|m, b| smem::run(m.gpu_mut(), b, &SmemConfig::new(n1).ot_stages(2)).total_us()),
        run(&|m, b| hier::run(m.gpu_mut(), b, 1 << (log_n / 2)).total_us()),
    ]
}
