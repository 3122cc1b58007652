//! The experiments behind every figure and table in the paper.

use gpu_sim::{Gpu, GpuConfig};
use ntt_gpu::backend::SimMemory;
use ntt_gpu::batch::DeviceBatch;
use ntt_gpu::dft::DftBatch;
use ntt_gpu::fpga_baseline::FpgaNtt;
use ntt_gpu::ot::DeviceOt;
use ntt_gpu::radix2::ModMul;
use ntt_gpu::smem::SmemConfig;
use ntt_gpu::{dft, high_radix, radix2, smem, MemoStats, RunReport};

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Configuration label.
    pub label: String,
    /// Total modeled time for the whole batch, microseconds.
    pub time_us: f64,
    /// Time per transform (total / np), microseconds.
    pub per_ntt_us: f64,
    /// DRAM traffic (including spills), megabytes.
    pub dram_mb: f64,
    /// Achieved DRAM bandwidth utilization (fraction of peak).
    pub utilization: f64,
    /// Minimum occupancy across the launches.
    pub occupancy: f64,
}

fn measure(label: impl Into<String>, gpu: &Gpu, report: &RunReport, np: usize) -> Measurement {
    Measurement {
        label: label.into(),
        time_us: report.total_us(),
        per_ntt_us: report.per_ntt_us(np),
        dram_mb: report.dram_mb(gpu),
        utilization: report.dram_utilization(gpu),
        occupancy: report.min_occupancy(),
    }
}

/// A fresh simulated device **through the handle layer** ([`SimMemory`]):
/// the batch's buffers are [`ntt_core::backend::DeviceBuf`] handles with
/// counted, stream-charged staging — the same allocator the residency
/// layer uses — while the raw views still drive the kernels.
fn fresh_batch(log_n: u32, np: usize) -> (SimMemory, DeviceBatch) {
    let mut mem = SimMemory::new(GpuConfig::titan_v());
    let batch = DeviceBatch::sequential_on(&mut mem, log_n, np, 60)
        .expect("paper parameters always have valid prime chains");
    (mem, batch)
}

/// The best-performing SMEM split for a given `log N`, determined the way
/// the paper does (minimum over the Fig. 12(a) splits), per-thread size 8.
pub fn best_split(log_n: u32, np: usize, ot_stages: u32) -> (usize, Measurement) {
    let mut best: Option<(usize, Measurement)> = None;
    for n1 in SmemConfig::paper_splits(log_n) {
        let (mut mem, batch) = fresh_batch(log_n, np);
        let gpu = mem.gpu_mut();
        let cfg = SmemConfig::new(n1).ot_stages(ot_stages);
        let rep = smem::run(gpu, &batch, &cfg);
        debug_assert!(rep.verify(gpu, &batch));
        let m = measure(cfg.label(batch.n()), gpu, &rep, np);
        if best.as_ref().is_none_or(|(_, b)| m.time_us < b.time_us) {
            best = Some((n1, m));
        }
    }
    best.expect("at least one split")
}

/// Fig. 1 — Shoup's modmul vs the native modulo on the optimized NTT
/// (the paper: 332.9 µs vs 789.2 µs, 2.4×, at `N = 2^17`, `np = 45`).
pub fn fig1(log_n: u32, np: usize) -> Vec<Measurement> {
    let n1 = SmemConfig::paper_splits(log_n)[0];
    [ModMul::Shoup, ModMul::Native]
        .into_iter()
        .map(|mode| {
            let (mut mem, batch) = fresh_batch(log_n, np);
            let gpu = mem.gpu_mut();
            let cfg = SmemConfig::new(n1).modmul(mode);
            let rep = smem::run(gpu, &batch, &cfg);
            measure(
                match mode {
                    ModMul::Shoup => "Shoup",
                    ModMul::Native => "Native",
                },
                gpu,
                &rep,
                np,
            )
        })
        .collect()
}

/// Fig. 3(a) — radix-2 NTT across batch sizes: per-NTT time drops then
/// saturates while DRAM utilization climbs to ~86.7%.
pub fn fig3a(log_n: u32, batch_sizes: &[usize]) -> Vec<Measurement> {
    batch_sizes
        .iter()
        .map(|&np| {
            let (mut mem, batch) = fresh_batch(log_n, np);
            let gpu = mem.gpu_mut();
            let rep = radix2::run(gpu, &batch, ModMul::Shoup);
            measure(format!("batch {np}"), gpu, &rep, np)
        })
        .collect()
}

/// Fig. 3(b) — the same batching sweep for the radix-2 DFT.
pub fn fig3b(log_n: u32, batch_sizes: &[usize]) -> Vec<Measurement> {
    batch_sizes
        .iter()
        .map(|&np| {
            let mut gpu = Gpu::new(GpuConfig::titan_v());
            let batch = DftBatch::sequential(&mut gpu, log_n, np);
            let rep = dft::run_radix2(&mut gpu, &batch);
            debug_assert!(batch.verify(&gpu));
            measure(format!("batch {np}"), &gpu, &rep, np)
        })
        .collect()
}

/// Fig. 4(a,b,c) — NTT register-based high-radix sweep.
pub fn fig4(log_n: u32, np: usize, radices: &[usize]) -> Vec<Measurement> {
    radices
        .iter()
        .map(|&r| {
            let (mut mem, batch) = fresh_batch(log_n, np);
            let gpu = mem.gpu_mut();
            let rep = high_radix::run(gpu, &batch, r);
            measure(format!("radix-{r}"), gpu, &rep, np)
        })
        .collect()
}

/// Fig. 5(a,b,c) — DFT register-based high-radix sweep.
pub fn fig5(log_n: u32, np: usize, radices: &[usize]) -> Vec<Measurement> {
    radices
        .iter()
        .map(|&r| {
            let mut gpu = Gpu::new(GpuConfig::titan_v());
            let batch = DftBatch::sequential(&mut gpu, log_n, np);
            let rep = dft::run_high_radix(&mut gpu, &batch, r);
            measure(format!("radix-{r}"), &gpu, &rep, np)
        })
        .collect()
}

/// Fig. 7 — Kernel-1 with and without coalesced access, across Kernel-1
/// sizes. Returns (label, kernel-1 time µs) pairs: first uncoalesced,
/// then coalesced, per size.
pub fn fig7(log_n: u32, np: usize, k1_sizes: &[usize]) -> Vec<Measurement> {
    let mut out = Vec::new();
    for &n1 in k1_sizes {
        for coalesced in [false, true] {
            let (mut mem, batch) = fresh_batch(log_n, np);
            let gpu = mem.gpu_mut();
            let cfg = SmemConfig::new(n1).coalesced(coalesced);
            let rep = smem::run(gpu, &batch, &cfg);
            let k1_us = rep.launches[0].timing.total_s * 1e6;
            out.push(Measurement {
                label: format!(
                    "K1={n1} {}",
                    if coalesced {
                        "coalesced"
                    } else {
                        "uncoalesced"
                    }
                ),
                time_us: k1_us,
                per_ntt_us: k1_us / np as f64,
                dram_mb: rep.launches[0].dram_bytes(&gpu.config) as f64 / (1 << 20) as f64,
                utilization: rep.launches[0]
                    .timing
                    .dram_utilization(rep.launches[0].dram_bytes(&gpu.config), &gpu.config),
                occupancy: rep.launches[0].timing.occupancy,
            });
        }
    }
    out
}

/// Fig. 8 — relative twiddle-table vs input bytes per radix-2 stage
/// (pure accounting; returns `(stage, ratio)`).
pub fn fig8(log_n: u32) -> Vec<(u32, f64)> {
    let table = ntt_core::NttTable::new_with_bits(1 << log_n, 60).expect("valid table");
    table.relative_stage_sizes()
}

/// Fig. 8, measured: run the radix-2 stage launches and derive the same
/// ratio from counted DRAM transactions — per stage, twiddle read
/// transactions (total reads minus the one-pass data traffic) over input
/// bytes. Returns `(stage, analytic, measured)`; the two columns agree
/// exactly from the first stage whose slice-pair fills a 32-byte sector
/// (`m ≥ 4` — below that the model floors at one sector per table).
pub fn fig8_measured(log_n: u32, np: usize) -> Vec<(u32, f64, f64)> {
    let (mut mem, batch) = fresh_batch(log_n, np);
    let gpu = mem.gpu_mut();
    let n = batch.n();
    let rep = radix2::run(gpu, &batch, ModMul::Shoup);
    let analytic = fig8(log_n);
    rep.launches
        .iter()
        .zip(analytic)
        .map(|(launch, (stage, ratio))| {
            let data_txns = (np * n / 4) as u64;
            let tw_txns = launch
                .stats
                .dram_read_transactions
                .saturating_sub(data_txns);
            let measured = (tw_txns * 32) as f64 / (np * n * 8) as f64;
            (stage, ratio, measured)
        })
        .collect()
}

/// Fig. 9 — Kernel-1 with and without preloading twiddles into SMEM.
pub fn fig9(log_n: u32, np: usize, k1_sizes: &[usize]) -> Vec<Measurement> {
    let mut out = Vec::new();
    for &n1 in k1_sizes {
        for preload in [false, true] {
            let (mut mem, batch) = fresh_batch(log_n, np);
            let gpu = mem.gpu_mut();
            let cfg = SmemConfig::new(n1).preload(preload);
            let rep = smem::run(gpu, &batch, &cfg);
            let k1_us = rep.launches[0].timing.total_s * 1e6;
            out.push(Measurement {
                label: format!("K1={n1} {}", if preload { "preload" } else { "direct" }),
                time_us: k1_us,
                per_ntt_us: k1_us / np as f64,
                dram_mb: rep.launches[0].dram_bytes(&gpu.config) as f64 / (1 << 20) as f64,
                utilization: 0.0,
                occupancy: rep.launches[0].timing.occupancy,
            });
        }
    }
    out
}

/// Fig. 11(a) — SMEM NTT across splits and per-thread sizes 2/4/8.
pub fn fig11a(log_n: u32, np: usize) -> Vec<Measurement> {
    let mut out = Vec::new();
    for t in [2usize, 4, 8] {
        for n1 in SmemConfig::paper_splits(log_n) {
            let (mut mem, batch) = fresh_batch(log_n, np);
            let gpu = mem.gpu_mut();
            let cfg = SmemConfig::new(n1).per_thread(t);
            let rep = smem::run(gpu, &batch, &cfg);
            out.push(measure(cfg.label(batch.n()), gpu, &rep, np));
        }
    }
    out
}

/// Fig. 11(b) — SMEM DFT across splits and per-thread sizes.
pub fn fig11b(log_n: u32, np: usize) -> Vec<Measurement> {
    let mut out = Vec::new();
    for t in [2usize, 4, 8] {
        for n1 in SmemConfig::paper_splits(log_n) {
            let mut gpu = Gpu::new(GpuConfig::titan_v());
            let batch = DftBatch::sequential(&mut gpu, log_n, np);
            let rep = dft::run_smem(&mut gpu, &batch, n1, t);
            out.push(measure(
                format!("{}x{} t{}", n1, batch.n() / n1, t),
                &gpu,
                &rep,
                np,
            ));
        }
    }
    out
}

/// Fig. 11(c) — OT on the last 0/1/2 stages across splits (t = 8).
pub fn fig11c(log_n: u32, np: usize) -> Vec<Measurement> {
    let mut out = Vec::new();
    for ot in [0u32, 1, 2] {
        for n1 in SmemConfig::paper_splits(log_n) {
            let (mut mem, batch) = fresh_batch(log_n, np);
            let gpu = mem.gpu_mut();
            let cfg = SmemConfig::new(n1).ot_stages(ot);
            let rep = smem::run(gpu, &batch, &cfg);
            out.push(measure(cfg.label(batch.n()), gpu, &rep, np));
        }
    }
    out
}

/// Fig. 12(b,c) — best SMEM configuration with and without OT per `log N`:
/// returns `(log_n, without, with)` rows.
pub fn fig12(log_ns: &[u32], np: usize) -> Vec<(u32, Measurement, Measurement)> {
    log_ns
        .iter()
        .map(|&log_n| {
            let (_, without) = best_split(log_n, np, 0);
            let (_, with) = best_split(log_n, np, 2);
            (log_n, without, with)
        })
        .collect()
}

/// Fig. 13 — execution time vs batch size at the best split of `N = 2^17`
/// (returns one measurement per `np`, with nominal `log Q = 60·np`).
pub fn fig13(log_n: u32, batch_sizes: &[usize]) -> Vec<Measurement> {
    let n1 = SmemConfig::paper_splits(log_n)[0];
    batch_sizes
        .iter()
        .map(|&np| {
            let (mut mem, batch) = fresh_batch(log_n, np);
            let gpu = mem.gpu_mut();
            let cfg = SmemConfig::new(n1);
            let rep = smem::run(gpu, &batch, &cfg);
            measure(format!("np={np} logQ={}", 60 * np), gpu, &rep, np)
        })
        .collect()
}

/// Table II — radix-2 vs SMEM without OT vs SMEM with OT, per `log N`.
/// Returns `(log_n, radix2, smem, smem_ot)`.
pub fn table2(log_ns: &[u32], np: usize) -> Vec<(u32, Measurement, Measurement, Measurement)> {
    log_ns
        .iter()
        .map(|&log_n| {
            let (mut mem, batch) = fresh_batch(log_n, np);
            let gpu = mem.gpu_mut();
            let rep = radix2::run(gpu, &batch, ModMul::Shoup);
            let r2 = measure("radix-2", gpu, &rep, np);
            let (_, s) = best_split(log_n, np, 0);
            let (_, s_ot) = best_split(log_n, np, 2);
            (log_n, r2, s, s_ot)
        })
        .collect()
}

/// §VIII — comparison against the FCCM'20 FPGA accelerator at
/// `(N = 2^17, np = 36)` and `(N = 2^17, np = 42)`.
/// Returns `(np, gpu_us, fpga_us, speedup)`.
pub fn fpga_comparison(log_n: u32, batch_sizes: &[usize]) -> Vec<(usize, f64, f64, f64)> {
    let fpga = FpgaNtt::fccm20();
    batch_sizes
        .iter()
        .map(|&np| {
            let (_, m) = best_split(log_n, np, 2);
            let f_us = fpga.time_us(1 << log_n, np);
            (np, m.time_us, f_us, f_us / m.time_us)
        })
        .collect()
}

/// §IV word-size ablation: `Q ≈ 2^1200` as 40 × 30-bit vs 20 × 60-bit
/// primes. Returns the two measurements (30-bit path models half-width
/// elements by halving N-word traffic — see EXPERIMENTS.md).
pub fn wordsize(log_n: u32) -> Vec<Measurement> {
    // 60-bit path: 20 primes of full-width words.
    let n1 = SmemConfig::paper_splits(log_n)[0];
    let (mut mem, batch) = fresh_batch(log_n, 20);
    let gpu = mem.gpu_mut();
    let rep = smem::run(gpu, &batch, &SmemConfig::new(n1));
    let m60 = measure("20 x 60-bit", gpu, &rep, 20);
    // 30-bit path: 40 primes; elements are half-width so the modeled time
    // halves the per-element traffic but doubles the transform count.
    let (mut mem2, batch2) = fresh_batch(log_n, 40);
    let gpu2 = mem2.gpu_mut();
    let rep2 = smem::run(gpu2, &batch2, &SmemConfig::new(n1));
    let mut m30 = measure("40 x 30-bit", gpu2, &rep2, 40);
    m30.time_us *= 0.5;
    m30.dram_mb *= 0.5;
    vec![m60, m30]
}

/// Residency accounting for a device-resident `he-lite` chain on the
/// simulated GPU.
#[derive(Debug, Clone)]
pub struct ResidencyReport {
    /// Parameter description.
    pub params: String,
    /// Transfers during setup: table upload, keygen key upload, two
    /// encryptions (the chain's "initial upload").
    pub initial: ntt_core::TransferStats,
    /// Transfers during one steady-state multiply/relinearize/rescale —
    /// the quantity the residency gates pin to zero.
    pub steady: ntt_core::TransferStats,
    /// Modeled device-time accounting (serialized vs overlapped) over the
    /// steady-state window — the `figures residency` overlap line.
    pub timeline: gpu_sim::DeviceTimeline,
}

/// Run keygen → encrypt ×2 → multiply on a `SimBackend`-resident
/// `HeContext` and split the transfer ledger into the initial-upload and
/// steady-state windows (the figures harness prints this as the
/// transfer-count line; `tests/residency.rs` and the `bench_guard` gate
/// assert the steady window stays at zero).
pub fn residency(log_n: u32) -> ResidencyReport {
    use he_lite::{sampling, HeContext, HeLiteParams};
    let params = HeLiteParams {
        log_n,
        prime_bits: 50,
        levels: 3,
        scale_bits: 46,
        gadget_bits: 10,
        error_eta: 6,
    };
    let backend = ntt_gpu::SimBackend::titan_v();
    let dev = backend.memory_handle();
    let timeline_of = |dev: &std::sync::Arc<std::sync::Mutex<SimMemory>>| {
        dev.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .gpu()
            .timeline()
    };
    let ctx = HeContext::with_backend(params, Box::new(backend)).expect("sim context builds");
    let keys = ctx.keygen(&mut sampling::seeded_rng(42));
    let mut rng = sampling::seeded_rng(7);
    let a = ctx.encrypt(&ctx.encode(&[2.5, -1.0]), &keys.public, &mut rng);
    let b = ctx.encrypt(&ctx.encode(&[3.0, 0.5]), &keys.public, &mut rng);
    let initial = ctx.transfer_stats();
    let t0 = timeline_of(&dev);
    let _ = ctx.multiply(&a, &b, &keys.relin);
    let steady = ctx.transfer_stats().since(&initial);
    let timeline = timeline_of(&dev).since(&t0);
    ResidencyReport {
        params: format!("{params}"),
        initial,
        steady,
        timeline,
    }
}

/// Modeled-overlap accounting for independent chains on pooled-evaluator
/// streams (the `figures streams` line and the `bench_guard` overlap
/// gate's input).
#[derive(Debug, Clone, Copy)]
pub struct StreamsReport {
    /// Evaluators (= streams = chains).
    pub evaluators: usize,
    /// The measured window's device-time accounting (serialized schedule
    /// cost vs overlapped makespan, launch/transfer counts).
    pub timeline: gpu_sim::DeviceTimeline,
}

impl StreamsReport {
    /// Serialized / overlapped — the headline overlap factor (gated at
    /// ≥ 1.3× for the 4-evaluator chain in `scripts/bench_smoke.sh`).
    pub fn overlap(&self) -> f64 {
        self.timeline.overlap()
    }
}

/// A [`streams`] run plus the result digest needed for cross-driver
/// bit-identity checks: the synced host rows of every polynomial each
/// chain produced, in chain order. Streams (and host threads) are a
/// performance model, never a semantic one — any driver enqueueing the
/// same chains must produce an equal digest, which `tests/streams.rs`
/// pins for the threaded driver against the serialized one.
#[derive(Debug, Clone)]
pub struct StreamsRun {
    /// Modeled-time accounting over the chain window.
    pub report: StreamsReport,
    /// Per-chain host rows of every polynomial the chain produced.
    pub digest: Vec<Vec<u64>>,
}

/// Deterministic chain input polynomial.
fn streams_poly(ring: &ntt_core::RnsRing, seed: i64) -> ntt_core::RnsPoly {
    let coeffs: Vec<i64> = (0..ring.degree() as i64)
        .map(|i| (seed.wrapping_mul(i + 3) % 97) - 48)
        .collect();
    ntt_core::RnsPoly::from_i64_coeffs(ring, &coeffs)
}

/// One independent encrypt ×2 → tensor-multiply → rescale chain on one
/// evaluator. Returns every polynomial the chain touched so its device
/// buffers stay alive until the measurement window closes — the
/// multi-stream discipline real CUDA code follows: a freed buffer may be
/// recycled by another stream, whose first use then (correctly) fences
/// on the previous owner's completion event and serializes the chains
/// right back.
fn streams_chain(
    ev: &mut ntt_core::backend::Evaluator,
    ring: &ntt_core::RnsRing,
    pk_b: &ntt_core::RnsPoly,
    pk_a: &ntt_core::RnsPoly,
    index: usize,
) -> Vec<ntt_core::RnsPoly> {
    use ntt_core::backend::Evaluator;
    use ntt_core::RnsPoly;

    let seed = 11 + 7 * index as i64;
    let mut keep: Vec<RnsPoly> = Vec::new();
    let encrypt = |ev: &mut Evaluator, keep: &mut Vec<RnsPoly>, s: i64| -> (RnsPoly, RnsPoly) {
        let (mut u, mut e0, mut e1, mut msg) = (
            streams_poly(ring, s),
            streams_poly(ring, s + 1),
            streams_poly(ring, s + 2),
            streams_poly(ring, s + 3),
        );
        ev.make_resident(&mut u);
        ev.make_resident(&mut e0);
        ev.make_resident(&mut e1);
        ev.make_resident(&mut msg);
        ev.forward_polys(&mut [&mut u, &mut e0, &mut e1, &mut msg]);
        let mut c0 = pk_b.clone();
        ev.mul_pointwise(&mut c0, &u);
        ev.add_assign(&mut c0, &e0);
        ev.add_assign(&mut c0, &msg);
        let mut c1 = pk_a.clone();
        ev.mul_pointwise(&mut c1, &u);
        ev.add_assign(&mut c1, &e1);
        keep.extend([u, e0, e1, msg]);
        (c0, c1)
    };
    let (mut c0, c1) = encrypt(ev, &mut keep, seed);
    let (d0, d1) = encrypt(ev, &mut keep, seed + 40);
    // Tensor multiply (no relinearization: chains stay independent).
    let mut cross = c0.clone();
    ev.mul_pointwise(&mut cross, &d1);
    let mut cross2 = c1.clone();
    ev.mul_pointwise(&mut cross2, &d0);
    ev.add_assign(&mut cross, &cross2);
    let mut e2 = c1.clone();
    ev.mul_pointwise(&mut e2, &d1);
    ev.mul_pointwise(&mut c0, &d0);
    // Rescale every component a level down, in the evaluation domain.
    ev.rescale_polys(&mut [&mut c0, &mut cross, &mut e2]);
    keep.extend([c0, c1, d0, d1, cross, cross2, e2]);
    keep
}

/// Everything the streams drivers share: the ring, the device handle, the
/// setup evaluator (owner of the root stream and the resident "public
/// key" halves every chain fences on), and one forked evaluator per
/// chain. The device is drained on return, so the caller's window starts
/// from a synchronized clock.
struct StreamsSetup {
    ring: ntt_core::RnsRing,
    dev: std::sync::Arc<std::sync::Mutex<SimMemory>>,
    /// Keeps the root backend (and its stream) alive for the run.
    _setup: ntt_core::backend::Evaluator,
    evs: Vec<ntt_core::backend::Evaluator>,
    pk_b: ntt_core::RnsPoly,
    pk_a: ntt_core::RnsPoly,
}

fn streams_setup(log_n: u32, evaluators: usize) -> StreamsSetup {
    use ntt_core::backend::{Evaluator, NttBackend};
    use ntt_core::RnsRing;
    use ntt_gpu::SimBackend;

    let n = 1usize << log_n;
    let ring = RnsRing::new(n, ntt_math::ntt_primes(50, 2 * n as u64, 3)).expect("valid ring");
    let root = SimBackend::titan_v();
    let dev = root.memory_handle();
    let forks: Vec<Box<dyn NttBackend>> = (0..evaluators).map(|_| root.fork()).collect();
    let mut setup = Evaluator::with_backend(&ring, Box::new(root));
    let evs: Vec<Evaluator> = forks
        .into_iter()
        .map(|b| Evaluator::new(ring.plan(), b))
        .collect();

    // Shared "public key" halves, uploaded and transformed on the root
    // backend's stream — the setup stream every chain fences on once.
    let (mut pk_b, mut pk_a) = (streams_poly(&ring, 3), streams_poly(&ring, 5));
    setup.make_resident(&mut pk_b);
    setup.make_resident(&mut pk_a);
    setup.to_evaluation(&mut pk_b);
    setup.to_evaluation(&mut pk_a);

    // Drain the device before the window opens (modeled
    // `cudaDeviceSynchronize`): every fork stream is fenced on the setup
    // work, so the makespan growth the caller measures is exactly the
    // chain schedule's length — no chain work can hide under the setup
    // schedule's tail and inflate the overlap factor.
    dev.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .gpu_mut()
        .sync_all();
    StreamsSetup {
        ring,
        dev,
        _setup: setup,
        evs,
        pk_b,
        pk_a,
    }
}

fn device_timeline(dev: &std::sync::Arc<std::sync::Mutex<SimMemory>>) -> gpu_sim::DeviceTimeline {
    dev.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .gpu()
        .timeline()
}

/// Sync every chain polynomial and flatten its host rows, per chain.
fn streams_digest(chains: &mut [Vec<ntt_core::RnsPoly>]) -> Vec<Vec<u64>> {
    chains
        .iter_mut()
        .map(|polys| {
            polys
                .iter_mut()
                .flat_map(|p| {
                    p.sync();
                    p.flat().to_vec()
                })
                .collect()
        })
        .collect()
}

/// Run `evaluators` independent encrypt → multiply → rescale chains, one
/// per pooled `SimBackend` fork (each fork owns a device stream), and
/// report serialized vs overlapped modeled device time over the chain
/// window.
///
/// The driver is single-threaded and fully deterministic: overlap comes
/// from the *stream schedule*, not host threading — chain `i`'s kernels
/// enqueue on fork `i`'s stream, fenced only by the shared "public key"
/// upload on the root (setup) stream, so the modeled makespan approaches
/// the longest single chain rather than the serial sum.
pub fn streams(log_n: u32, evaluators: usize) -> StreamsReport {
    streams_run(log_n, evaluators).report
}

/// [`streams`] with the result digest attached (the serialized driver).
pub fn streams_run(log_n: u32, evaluators: usize) -> StreamsRun {
    let mut s = streams_setup(log_n, evaluators);
    let t0 = device_timeline(&s.dev);
    let mut chains: Vec<Vec<ntt_core::RnsPoly>> = s
        .evs
        .iter_mut()
        .enumerate()
        .map(|(i, ev)| streams_chain(ev, &s.ring, &s.pk_b, &s.pk_a, i))
        .collect();
    let d = device_timeline(&s.dev).since(&t0);
    StreamsRun {
        report: StreamsReport {
            evaluators,
            timeline: d,
        },
        digest: streams_digest(&mut chains),
    }
}

/// The same chains driven by **real host threads** — one thread per
/// evaluator, racing on the shared device mutex, allocator and bus the
/// way a multi-tenant server does (ROADMAP item o). Stream assignment,
/// event fencing and the free-list recycling discipline must keep every
/// chain's results bit-identical to [`streams_run`]'s serialized driver,
/// whatever interleaving the OS scheduler picks; `tests/streams.rs`
/// asserts exactly that on the returned digest.
pub fn streams_threaded(log_n: u32, evaluators: usize) -> StreamsRun {
    let s = streams_setup(log_n, evaluators);
    let StreamsSetup {
        ring,
        dev,
        _setup,
        mut evs,
        pk_b,
        pk_a,
    } = s;
    let t0 = device_timeline(&dev);
    let barrier = std::sync::Barrier::new(evs.len().max(1));
    let mut chains: Vec<Vec<ntt_core::RnsPoly>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = evs
            .iter_mut()
            .enumerate()
            .map(|(i, ev)| {
                let (ring, pk_b, pk_a, barrier) = (&ring, &pk_b, &pk_a, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    streams_chain(ev, ring, pk_b, pk_a, i)
                })
            })
            .collect();
        chains = handles
            .into_iter()
            .map(|h| h.join().expect("chain thread panicked"))
            .collect();
    });
    let d = device_timeline(&dev).since(&t0);
    StreamsRun {
        report: StreamsReport {
            evaluators,
            timeline: d,
        },
        digest: streams_digest(&mut chains),
    }
}

/// One serving configuration's outcome: wall-clock throughput and tail
/// latency from a closed-loop multi-tenant load run, plus the modeled
/// device-time accounting over the serving window (the `figures serve`
/// rows).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Serving worker threads (each borrows a pooled evaluator, so this
    /// is also the stream count).
    pub workers: usize,
    /// Jobs answered.
    pub completed: u64,
    /// Jobs refused with backpressure.
    pub rejected: u64,
    /// Dispatch groups executed (`batched_jobs / batches` is the
    /// achieved batching factor).
    pub batches: u64,
    /// Jobs executed across all groups.
    pub batched_jobs: u64,
    /// Chain results that missed the expected value (must be 0).
    pub mismatches: u64,
    /// Median end-to-end latency, microseconds (interpolated within
    /// the histogram's log2 bucket, clamped to the recorded maximum).
    pub p50_us: f64,
    /// 99th-percentile end-to-end latency, microseconds.
    pub p99_us: f64,
    /// Answered jobs per wall-clock second.
    pub throughput: f64,
    /// Modeled device time over the serving window.
    pub timeline: gpu_sim::DeviceTimeline,
    /// Transient gate failures re-drawn in place (0 unless a fault plan
    /// is armed).
    pub op_retries: u64,
}

fn serve_params(log_n: u32) -> he_lite::HeLiteParams {
    he_lite::HeLiteParams {
        log_n,
        prime_bits: 50,
        levels: 3,
        scale_bits: 40,
        gadget_bits: 10,
        error_eta: 4,
    }
}

fn drain_device(dev: &std::sync::Arc<std::sync::Mutex<SimMemory>>) {
    dev.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .gpu_mut()
        .sync_all();
}

/// Serve a closed-loop multi-tenant load (encrypt → eval → decrypt
/// chains per tenant) through an [`he_serve::HeServer`] on a simulated
/// device, and report throughput, tail latency and the modeled device
/// window. Deterministic in results (seeded randomness end to end);
/// wall-clock throughput and batch sizes vary with the host scheduler.
pub fn serve(log_n: u32, workers: usize, tenants: u32, chains_per_tenant: usize) -> ServeReport {
    use he_serve::{loadgen, ArrivalMode, HeServer, LoadConfig, ServeConfig};

    let backend = ntt_gpu::SimBackend::titan_v();
    let dev = backend.memory_handle();
    let ctx = he_lite::HeContext::with_backend(serve_params(log_n), Box::new(backend))
        .expect("sim context builds");
    let server = HeServer::start(
        ctx,
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
    );
    // Key generation is setup traffic; open the window after it drains.
    drain_device(&dev);
    let t0 = device_timeline(&dev);
    let load = loadgen::run(
        &server,
        &LoadConfig {
            tenants,
            chains_per_tenant,
            mode: ArrivalMode::Closed,
            max_values: 8,
            seed: 1,
        },
    );
    let snap = server.shutdown();
    drain_device(&dev);
    let timeline = device_timeline(&dev).since(&t0);
    let lat = snap.merged_latency();
    ServeReport {
        workers,
        completed: snap.completed(),
        rejected: snap.rejected(),
        batches: snap.batches,
        batched_jobs: snap.batched_jobs,
        mismatches: load.mismatches,
        p50_us: lat.p50() as f64 / 1e3,
        p99_us: lat.p99() as f64 / 1e3,
        throughput: load.throughput(),
        timeline,
        op_retries: snap.op_retries,
    }
}

/// Modeled device time for one job set through the batched pipelines vs
/// the identical set dispatched one job at a time — the deterministic
/// input to the `bench_smoke` batching gate (≥ 1.5× required).
#[derive(Debug, Clone, Copy)]
pub struct ServeBatchingReport {
    /// Jobs in the set.
    pub jobs: usize,
    /// Modeled device window for the batched dispatch (one host batch
    /// per pipeline stage for the whole set).
    pub batched: gpu_sim::DeviceTimeline,
    /// Modeled device window for the chunk-of-1 control.
    pub unbatched: gpu_sim::DeviceTimeline,
}

impl ServeBatchingReport {
    /// Unbatched / batched modeled serialized device time — how much
    /// schedule the batcher saves by amortizing staging round trips and
    /// launch overhead.
    pub fn speedup(&self) -> f64 {
        self.unbatched.serialized_s / self.batched.serialized_s.max(f64::MIN_POSITIVE)
    }
}

/// Run `jobs` encrypt → eval → decrypt chains through the
/// [`he_serve::Batcher`] twice on a simulated device — once batched
/// (three group dispatches) and once as a chunk-of-1 control — and
/// measure the modeled device time of each window. Asserts the two
/// dispatch shapes produce identical results before returning.
pub fn serve_batching(log_n: u32, jobs: usize) -> ServeBatchingReport {
    use he_serve::{job_seed, Batcher, EncryptJob, TenantId};

    let backend = ntt_gpu::SimBackend::titan_v();
    let dev = backend.memory_handle();
    let ctx = he_lite::HeContext::with_backend(serve_params(log_n), Box::new(backend))
        .expect("sim context builds");
    let keys = ctx.keygen(&mut he_lite::sampling::seeded_rng(7));
    let batcher = Batcher::new(&keys);
    let encrypt_jobs: Vec<EncryptJob> = (0..jobs)
        .map(|j| EncryptJob {
            seed: job_seed(7, TenantId(j as u32), 0),
            values: vec![1.0 + j as f64, -0.5 * j as f64],
        })
        .collect();
    let chain = |group: &[EncryptJob]| -> Vec<he_lite::Plaintext> {
        ctx.with_pooled_evaluator(|ev| {
            let cts = batcher.encrypt_batch(&ctx, ev, group);
            let evald = batcher.eval_batch(
                &ctx,
                ev,
                cts.into_iter().map(|ct| (ct, vec![2.0])).collect(),
            );
            batcher.decrypt_batch(&ctx, ev, evald)
        })
    };

    drain_device(&dev);
    let t0 = device_timeline(&dev);
    let batched_out = chain(&encrypt_jobs);
    drain_device(&dev);
    let batched = device_timeline(&dev).since(&t0);

    let t1 = device_timeline(&dev);
    let unbatched_out: Vec<_> = encrypt_jobs.chunks(1).flat_map(&chain).collect();
    drain_device(&dev);
    let unbatched = device_timeline(&dev).since(&t1);

    assert_eq!(
        batched_out, unbatched_out,
        "batched dispatch changed the bits"
    );
    ServeBatchingReport {
        jobs,
        batched,
        unbatched,
    }
}

/// Modeled device time for the serve-path pipelines on an armed
/// checkout with the fault plane disarmed vs armed with all-zero rates —
/// the input to the `bench_smoke` fault-plane overhead gate (armed must
/// stay within 5% of off).
#[derive(Debug, Clone, Copy)]
pub struct ServeFaultOverheadReport {
    /// Jobs in the set.
    pub jobs: usize,
    /// Modeled device window with no [`gpu_sim::FaultPlan`] armed.
    pub off: gpu_sim::DeviceTimeline,
    /// Modeled device window with a zero-rate plan armed: every op of
    /// the armed checkout consults the plane, no fault ever fires.
    pub armed: gpu_sim::DeviceTimeline,
}

impl ServeFaultOverheadReport {
    /// Armed / off modeled serialized device time — the fault plane's
    /// zero-fault overhead factor.
    pub fn overhead(&self) -> f64 {
        self.armed.serialized_s / self.off.serialized_s.max(f64::MIN_POSITIVE)
    }
}

/// Run `jobs` encrypt → eval → decrypt chains through the he-serve
/// batcher on an armed checkout
/// ([`he_lite::HeContext::try_with_pooled_evaluator`]), as the server
/// does, twice — fault plane disarmed, then armed with a zero-rate
/// [`gpu_sim::FaultPlan`] — and measure each window's modeled device
/// time. A zero-rate plan draws the same gate checks a chaotic one would
/// but never injects, so the difference is exactly the fault plane's
/// bookkeeping. Asserts both runs produce identical results before
/// returning.
pub fn serve_fault_overhead(log_n: u32, jobs: usize) -> ServeFaultOverheadReport {
    use he_serve::{job_seed, Batcher, EncryptJob, TenantId};

    let backend = ntt_gpu::SimBackend::titan_v();
    let dev = backend.memory_handle();
    let ctx = he_lite::HeContext::with_backend(serve_params(log_n), Box::new(backend))
        .expect("sim context builds");
    let keys = ctx.keygen(&mut he_lite::sampling::seeded_rng(7));
    let batcher = Batcher::new(&keys);
    let encrypt_jobs: Vec<EncryptJob> = (0..jobs)
        .map(|j| EncryptJob {
            seed: job_seed(7, TenantId(j as u32), 0),
            values: vec![1.0 + j as f64, -0.5 * j as f64],
        })
        .collect();
    let chain = |group: &[EncryptJob]| -> Vec<he_lite::Plaintext> {
        ctx.try_with_pooled_evaluator(|ev| {
            let cts = batcher.encrypt_batch(&ctx, ev, group);
            let evald = batcher.eval_batch(
                &ctx,
                ev,
                cts.into_iter().map(|ct| (ct, vec![2.0])).collect(),
            );
            batcher.decrypt_batch(&ctx, ev, evald)
        })
        .expect("a zero-rate fault plan never faults")
    };
    let set_plan = |plan: Option<gpu_sim::FaultPlan>| {
        dev.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .gpu_mut()
            .set_fault_plan(plan);
    };

    // Warm-up pass: tables, split sweep and pool setup happen once, so
    // the two measured windows see the same steady state.
    let _ = chain(&encrypt_jobs);

    drain_device(&dev);
    let t0 = device_timeline(&dev);
    let off_out = chain(&encrypt_jobs);
    drain_device(&dev);
    let off = device_timeline(&dev).since(&t0);

    set_plan(Some(gpu_sim::FaultPlan::seeded(1)));
    let t1 = device_timeline(&dev);
    let armed_out = chain(&encrypt_jobs);
    drain_device(&dev);
    let armed = device_timeline(&dev).since(&t1);
    set_plan(None);

    assert_eq!(off_out, armed_out, "the fault plane changed the bits");
    ServeFaultOverheadReport { jobs, off, armed }
}

/// Modeled device windows of one steady shallow bootstrap, unarmed and
/// armed — the inputs of the bootstrap's fault-plane overhead gate.
#[derive(Debug, Clone, Copy)]
pub struct BootFaultOverheadReport {
    /// [`he_boot::Bootstrapper::bootstrap`] with no fault plan armed.
    pub unarmed: gpu_sim::DeviceTimeline,
    /// [`he_boot::Bootstrapper::try_bootstrap`] under a zero-rate plan.
    pub armed_zero: gpu_sim::DeviceTimeline,
    /// Gate draws of the armed bootstrap.
    pub draws: u64,
    /// Launches of the unarmed bootstrap.
    pub launches: u64,
}

/// One steady shallow bootstrap at `N = 2^log_n` on a simulated device,
/// twice: unarmed, then through `try_bootstrap` (the whole pipeline on
/// one armed checkout) under a zero-rate [`gpu_sim::FaultPlan`], which
/// draws every gate a chaotic plan would and never injects. Asserts the
/// two outputs are bit-identical before returning.
pub fn boot_fault_overhead(log_n: u32) -> BootFaultOverheadReport {
    let (dev, _ctx, boot, low, _) = warm_bootstrapper(he_boot::BootParams::shallow(), log_n, None);
    let synced = |mut ct: he_lite::Ciphertext| {
        ct.sync();
        let (c0, c1) = ct.components();
        (c0.clone(), c1.clone())
    };
    let lock = || {
        dev.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    };

    let (t0, trace0) = (device_timeline(&dev), lock().gpu().trace.len());
    let unarmed_out = boot.bootstrap(&low);
    drain_device(&dev);
    let unarmed = device_timeline(&dev).since(&t0);
    let launches = (lock().gpu().trace.len() - trace0) as u64;

    lock()
        .gpu_mut()
        .set_fault_plan(Some(gpu_sim::FaultPlan::seeded(1)));
    let t1 = device_timeline(&dev);
    let armed_out = boot
        .try_bootstrap(&low)
        .expect("a zero-rate fault plan never faults");
    drain_device(&dev);
    let armed_zero = device_timeline(&dev).since(&t1);
    let draws = lock().gpu().fault_plan().map_or(0, |p| p.ops_seen());
    lock().gpu_mut().set_fault_plan(None);

    assert_eq!(
        synced(unarmed_out),
        synced(armed_out),
        "arming changed the bits"
    );
    BootFaultOverheadReport {
        unarmed,
        armed_zero,
        draws,
        launches,
    }
}

/// One kernel-class row of the bootstrap op-mix: launches, modeled
/// device seconds and DRAM bytes attributed to the class.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpMixRow {
    /// Kernel launches in the class.
    pub launches: u64,
    /// Modeled device seconds in the class.
    pub time_s: f64,
    /// DRAM bytes the class's launches move, register spills included.
    pub dram_bytes: u64,
}

/// The flagship workload's accounting: one full CKKS-style bootstrap on
/// the simulated GPU, with modeled device time split by kernel class.
///
/// The paper's thesis is that NTTs (and the key switches they feed)
/// dominate bootstrappable HE — `figures bootstrap` prints this split
/// and `bench_smoke.sh` gates the NTT + key-switch share of the deep
/// pipeline ([`bootstrap_deep`] at `N = 2^8`) at ≥ 60% of the modeled
/// device time.
#[derive(Debug, Clone)]
pub struct BootstrapReport {
    /// Parameter description.
    pub params: String,
    /// Transfers during setup: keygen, rotation-key + DFT-diagonal
    /// upload, encryption, and the warm-up bootstrap that populates the
    /// EvalMod constant cache.
    pub initial: ntt_core::TransferStats,
    /// Transfers during one steady-state bootstrap — pinned to zero by
    /// `tests/residency.rs` and the bench gate.
    pub steady: ntt_core::TransferStats,
    /// Forward/inverse NTT kernels (every transform family the paper
    /// studies: fused SMEM, radix-2, high-radix, DFT).
    pub ntt: OpMixRow,
    /// Key-switch kernels: fused multiply-add accumulation and Galois
    /// automorphism (the gadget decomposition rides the digit forward,
    /// booked as NTT). The multi-term `sim-fma` launch also carries what
    /// is fused into it — a relinearizing multiply's tensor terms and the
    /// homomorphic DFT's plaintext-product sums — so those
    /// multiply-accumulates are booked here too.
    pub key_switch: OpMixRow,
    /// Everything else: the element-wise kernels (pointwise multiply,
    /// add, sub, neg). A rescale's and a mod-raise's lift ride their
    /// forward transforms, booked as NTT.
    pub pointwise: OpMixRow,
    /// The device's launch memo over the warm-up bootstrap: launches
    /// simulated (misses) and computed natively and replayed (hits).
    pub warmup_memo: MemoStats,
    /// The launch memo over the steady-state bootstrap.
    pub steady_memo: MemoStats,
}

impl BootstrapReport {
    /// Total modeled device seconds across every class.
    pub fn total_s(&self) -> f64 {
        self.ntt.time_s + self.key_switch.time_s + self.pointwise.time_s
    }

    /// Fraction of modeled device time in NTT + key-switch kernels —
    /// the headline the title workload exists to measure.
    pub fn ntt_keyswitch_share(&self) -> f64 {
        (self.ntt.time_s + self.key_switch.time_s) / self.total_s()
    }
}

/// Kernel class of a simulated launch label (see `BootstrapReport`).
/// Every `sim-fma` launch is key switch, including the multiply's tensor
/// terms and the DFT's plaintext-product sums that run as multi-term
/// FMAs.
fn launch_class(label: &str) -> usize {
    if label.starts_with("smem-k")
        || label.starts_with("radix")
        || label.starts_with("iradix2")
        || label.starts_with("dft-")
        || label.starts_with("hier-")
        || label == "intt-scale"
    {
        0 // NTT
    } else if matches!(label, "sim-fma" | "sim-automorphism") {
        1 // key switch
    } else {
        2 // pointwise / other
    }
}

/// Run one full bootstrap (ModRaise → CoeffToSlot → EvalMod →
/// SlotToCoeff) on a device-resident context and split the kernel trace
/// into the op-mix classes. Depth-minimal [`he_boot::BootParams`], so
/// the quick CI path stays fast. The mix depends on size and depth: a
/// small ring is launch-bound, with every NTT below `N = 2^8` one
/// whole-row launch, so its shares follow launch counts. NTT + key switch
/// read about 74% at `N = 2^4` since the multiply-accumulate chains run
/// as `sim-fma` launches, which book as key switch (46% before, when the
/// element-wise kernels outweighed them); the op-mix gate reads
/// [`bootstrap_deep`].
pub fn bootstrap(log_n: u32) -> BootstrapReport {
    bootstrap_with(he_boot::BootParams::shallow(), log_n, None)
}

/// The same accounting at bootstrapping scale: `BootParams::deep()` (the
/// full 21-level pipeline — 4 sine terms, 6 double-angle steps) with a
/// sparsely packed slot matrix (`mat_slots` ≪ N/2), which keeps DFT
/// diagonal and key material tractable at N = 2¹⁶ while preserving the
/// op sequence — and therefore the kernel-class mix — of a dense run.
/// The Sim forwards run the ring's swept best fused-SMEM split.
pub fn bootstrap_deep(log_n: u32, mat_slots: usize) -> BootstrapReport {
    bootstrap_with(he_boot::BootParams::deep(), log_n, Some(mat_slots))
}

/// A bootstrap engine for `bp` at `N = 2^log_n` (50-bit primes, seeded
/// keys) on a fresh simulated device, and a level-1 input, after one
/// warm-up bootstrap: the twiddle tables are uploaded and the EvalMod
/// constant cache is full, so the next bootstrap is the steady state a
/// serving loop lives in. `mat_slots` caps the DFT matrix
/// ([`he_boot::Bootstrapper::with_matrix_slots`]). Also returns the
/// device's launch-memo counts over the warm-up bootstrap.
fn warm_bootstrapper(
    bp: he_boot::BootParams,
    log_n: u32,
    mat_slots: Option<usize>,
) -> (
    std::sync::Arc<std::sync::Mutex<SimMemory>>,
    std::sync::Arc<he_lite::HeContext>,
    he_boot::Bootstrapper,
    he_lite::Ciphertext,
    MemoStats,
) {
    use he_boot::Bootstrapper;
    use he_lite::{sampling, HeContext};
    use std::sync::Arc;

    let backend = ntt_gpu::SimBackend::titan_v();
    let dev = backend.memory_handle();
    let ctx = Arc::new(
        HeContext::with_backend(bp.he_params(log_n, 50), Box::new(backend))
            .expect("sim context builds"),
    );
    let mut rng = sampling::seeded_rng(42);
    let keys = ctx.keygen(&mut rng);
    let boot = match mat_slots {
        Some(ms) => Bootstrapper::with_matrix_slots(Arc::clone(&ctx), &keys, bp, ms, &mut rng),
        None => Bootstrapper::new(Arc::clone(&ctx), &keys, bp, &mut rng),
    };
    let pt = ctx.encode_with_scale(&[0.4, -0.2, 0.1], boot.input_scale());
    let ct = ctx.encrypt(&pt, &keys.public, &mut sampling::seeded_rng(7));
    let low = ctx.drop_to_level(&ct, 1);
    let before = memo_stats(&dev);
    let _ = boot.bootstrap(&low);
    drain_device(&dev);
    let warmup = memo_stats(&dev).since(&before);
    (dev, ctx, boot, low, warmup)
}

fn memo_stats(dev: &std::sync::Arc<std::sync::Mutex<SimMemory>>) -> MemoStats {
    dev.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .memo_stats()
}

fn bootstrap_with(
    bp: he_boot::BootParams,
    log_n: u32,
    mat_slots: Option<usize>,
) -> BootstrapReport {
    let params = bp.he_params(log_n, 50);
    let (dev, ctx, boot, low, warmup_memo) = warm_bootstrapper(bp, log_n, mat_slots);

    let initial = ctx.transfer_stats();
    let memo_from = memo_stats(&dev);
    let trace_from = dev
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .gpu()
        .trace
        .len();
    let _ = boot.bootstrap(&low);
    drain_device(&dev);
    let steady = ctx.transfer_stats().since(&initial);
    let steady_memo = memo_stats(&dev).since(&memo_from);

    let mut rows = [OpMixRow::default(); 3];
    {
        let mem = dev
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let gpu = mem.gpu();
        for rec in &gpu.trace[trace_from..] {
            let row = &mut rows[launch_class(&rec.launch.label)];
            row.launches += 1;
            row.time_s += rec.timing.total_s;
            row.dram_bytes += rec.dram_bytes(&gpu.config);
        }
    }
    let [ntt, key_switch, pointwise] = rows;
    BootstrapReport {
        params: format!("{params} ({} boot levels)", bp.min_levels()),
        initial,
        steady,
        ntt,
        key_switch,
        pointwise,
        warmup_memo,
        steady_memo,
    }
}

/// The hierarchical 4-step NTT against the single-kernel family — the
/// inputs behind the `ntt_hier/*` pseudo-benchmarks and their
/// `bench_smoke.sh` ratio gates. All values are modeled device time
/// from one deterministic simulated device, so the gates hold on any
/// host.
#[derive(Debug, Clone)]
pub struct HierBenchReport {
    /// Mid-size ring exponent (the single-kernel home turf).
    pub log_small: u32,
    /// Bootstrapping-scale ring exponent.
    pub log_big: u32,
    /// Column split `n1` used for the big-ring 4-step run.
    pub split_big: usize,
    /// 3-kernel hierarchical plan at `2^log_big`, µs.
    pub four_step_big_us: f64,
    /// Best single fused-SMEM kernel at `2^log_small`, extrapolated to
    /// `2^log_big` by its `c · N log N` scaling law, µs.
    pub single_extrapolated_big_us: f64,
    /// The backend's auto-routed forward at `2^log_small` (the swept
    /// best fused-SMEM split, OT included), µs.
    pub auto_small_us: f64,
    /// Best single fused-SMEM kernel at `2^log_small`, measured, µs.
    pub best_single_small_us: f64,
}

/// Measure the [`HierBenchReport`] pair of comparisons:
///
/// * at `2^log_big` the 4-step plan must not exceed the single-kernel
///   cost extrapolated from its mid-size measurement (`c · N log N`) —
///   the hierarchy's reduced table traffic has to pay for its extra
///   global-memory pass;
/// * at `2^log_small` the auto-routed choice must stay within 5% of the
///   best single fused kernel — the backend's split choice cannot lose
///   to one fixed kernel at mid-size rings.
pub fn hier_bench(log_small: u32, log_big: u32, np: usize) -> HierBenchReport {
    use ntt_core::backend::{Evaluator, RingPlan};

    // Best single fused-SMEM kernel, measured at the mid-size ring.
    let (_, small_best) = best_split(log_small, np, 0);

    // The 3-kernel hierarchical plan at the bootstrapping-scale ring,
    // near-square split.
    let split_big = 1usize << (log_big / 2);
    let (mut mem, batch) = fresh_batch(log_big, np);
    let gpu = mem.gpu_mut();
    let rep = ntt_gpu::hier::run(gpu, &batch, split_big);
    debug_assert!(rep.verify(gpu, &batch));
    let four_step_big_us = rep.total_us();

    // `c · N log N` extrapolation of the single-kernel family.
    let scale = ((1u64 << log_big) * u64::from(log_big)) as f64
        / ((1u64 << log_small) * u64::from(log_small)) as f64;
    let single_extrapolated_big_us = small_best.time_us * scale;

    // The auto-routed forward at the mid-size ring, end to end through
    // the backend: warm once (split sweep + table upload), then
    // sum the launch timings of one steady-state forward.
    let backend = ntt_gpu::SimBackend::titan_v();
    let dev = backend.memory_handle();
    let n_small = 1usize << log_small;
    let ring = ntt_core::RnsRing::new(n_small, ntt_math::ntt_primes(59, 2 * n_small as u64, np))
        .expect("bench ring builds");
    let mut ev = Evaluator::new(RingPlan::new(&ring), Box::new(backend));
    let rand_poly = |seed: u64| {
        let mut x = ntt_core::RnsPoly::zero(&ring);
        for i in 0..ring.np() {
            let p = ring.basis().primes()[i];
            for (j, v) in x.row_mut(i).iter_mut().enumerate() {
                *v = (seed | 1)
                    .wrapping_mul((j as u64).wrapping_add(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add((i as u64) << 40)
                    % p;
            }
        }
        x
    };
    let mut warm = rand_poly(0x41);
    ev.make_resident(&mut warm);
    ev.to_evaluation(&mut warm);
    let mut x = rand_poly(0x42);
    ev.make_resident(&mut x);
    let trace_from = {
        let mem = dev
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        mem.gpu().trace.len()
    };
    ev.to_evaluation(&mut x);
    let auto_small_us = {
        let mem = dev
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        mem.gpu().trace[trace_from..]
            .iter()
            .map(|r| r.timing.total_s)
            .sum::<f64>()
            * 1e6
    };

    HierBenchReport {
        log_small,
        log_big,
        split_big,
        four_step_big_us,
        single_extrapolated_big_us,
        auto_small_us,
        best_single_small_us: small_best.time_us,
    }
}

/// §VII — OT base sweep: analytic table cost plus simulated time for the
/// feasible two-level bases. Returns `(base, entries, modmuls, time_us)`;
/// time is `NaN` for analytic-only rows.
pub fn ot_base_sweep(log_n: u32, np: usize) -> Vec<(usize, usize, usize, f64)> {
    let n = 1usize << log_n;
    let analytic = ntt_core::ot::base_sweep(n, &[2, 4, 16, 64, 256, 512, 1024, 2048, 4096, 8192]);
    let n1 = SmemConfig::paper_splits(log_n)[0];
    analytic
        .into_iter()
        .map(|c| {
            let time = if c.base * c.base >= n && c.base >= 2 {
                let (mut mem, batch) = fresh_batch(log_n, np);
                let gpu = mem.gpu_mut();
                let ot = DeviceOt::upload(gpu, &batch, c.base);
                let cfg = SmemConfig {
                    ot_base: c.base,
                    ..SmemConfig::new(n1).ot_stages(2)
                };
                let rep = smem::run_with_ot(gpu, &batch, &cfg, Some(&ot));
                rep.total_us()
            } else {
                f64::NAN
            };
            (c.base, c.entries, c.modmuls, time)
        })
        .collect()
}

/// One shard count's outcome in the multi-device sweep.
#[derive(Debug, Clone)]
pub struct ShardingReport {
    /// Simulated devices the RNS residue rows partition across.
    pub shards: usize,
    /// Modeled device window for the job set: `overlapped_s` is the
    /// slowest shard's clock (the devices run concurrently), while
    /// serialized time and launches sum over the set.
    pub timeline: gpu_sim::DeviceTimeline,
    /// Inter-device words moved inside the window — the key-switch base
    /// conversion's all-gather traffic (zero at K = 1).
    pub link_words: usize,
    /// Inter-device transfer messages inside the window.
    pub link_transfers: usize,
}

/// The multi-device sweep: the same serving job set per shard count,
/// with the K = 1 entry as the single-device control (the `figures
/// sharding` rows and the `bench_smoke` scaling gate's inputs).
#[derive(Debug, Clone)]
pub struct ShardingSweep {
    /// Ring degree log2.
    pub log_n: u32,
    /// Modulus-chain depth (residue rows at full level).
    pub levels: usize,
    /// encrypt → multiply/relinearize → rescale → decrypt chains per
    /// configuration.
    pub jobs: usize,
    /// One report per requested shard count, in request order.
    pub reports: Vec<ShardingReport>,
}

impl ShardingSweep {
    /// The single-device control (the K = 1 entry; falls back to the
    /// smallest swept K when 1 was not requested).
    pub fn baseline(&self) -> &ShardingReport {
        self.reports
            .iter()
            .min_by_key(|r| r.shards)
            .expect("sweep ran at least one shard count")
    }

    /// Modeled device-time speedup of `r` over the single-device
    /// control (overlapped clocks: the devices run concurrently).
    pub fn speedup(&self, r: &ShardingReport) -> f64 {
        self.baseline().timeline.overlapped_s / r.timeline.overlapped_s.max(f64::MIN_POSITIVE)
    }

    /// Scaling efficiency of `r`: speedup over the control divided by
    /// its device count (1.0 = perfect linear scaling).
    pub fn efficiency(&self, r: &ShardingReport) -> f64 {
        self.speedup(r) / r.shards as f64
    }
}

/// Scheme parameters for the sharding sweep: a deeper modulus chain
/// than [`serve_params`] (5 key-switch digits, caller-chosen depth) so
/// an 8-way partition still has residue rows on every device and the
/// kernels are row-work-bound rather than launch-overhead-bound. Every
/// kernel launch costs a fixed modeled overhead regardless of its row
/// count, and the per-shard launch count does not shrink with K — so
/// scaling efficiency is a function of ring degree and chain depth
/// (work per launch), which is exactly the regime split real multi-GPU
/// HE stacks report: small rings don't scale, bootstrapping-scale
/// rings do. Keep `levels % 8 == 0` so the K = 1/2/4/8 sweep hits the
/// key-switch digit-alignment fast path at every point.
fn sharding_params(log_n: u32, levels: usize) -> he_lite::HeLiteParams {
    he_lite::HeLiteParams {
        log_n,
        prime_bits: 50,
        levels,
        scale_bits: 40,
        gadget_bits: 10,
        error_eta: 4,
    }
}

/// The serving chain body shared by every sweep configuration: `jobs`
/// seeded encrypt → multiply/relinearize → rescale → decrypt chains,
/// returning the decoded results (the bit-exactness digest).
fn sharding_run(ctx: &he_lite::HeContext, keys: &he_lite::KeySet, jobs: usize) -> Vec<Vec<f64>> {
    (0..jobs)
        .map(|j| {
            let mut rng = he_lite::sampling::seeded_rng(100 + j as u64);
            let a = ctx.encrypt(&ctx.encode(&[1.0 + j as f64, -0.5]), &keys.public, &mut rng);
            let b = ctx.encrypt(&ctx.encode(&[2.0, 0.25 * j as f64]), &keys.public, &mut rng);
            let mut prod = ctx.multiply(&a, &b, &keys.relin);
            ctx.rescale(&mut prod);
            ctx.decode(&ctx.decrypt(&prod, &keys.secret))
        })
        .collect()
}

/// Sweep the serving chain across shard counts on the multi-device
/// [`ntt_gpu::ShardedBackend`], asserting every configuration's results
/// are bit-identical to a `CpuBackend` reference before reporting
/// modeled device windows and inter-device link traffic. Modeled time
/// on both sides of any derived gate comes from the same deterministic
/// run, so the gates hold on any host.
///
/// Keys are generated **once** on the CPU backend and adopted into
/// every sharded configuration ([`he_lite::HeContext::adopt_keys`],
/// the PR 9 cross-backend key-adoption path): keygen is bit-identical
/// across backends, and re-simulating the key NTTs per configuration
/// would dominate the sweep's wall clock at gate scale without
/// changing a single measured number.
pub fn sharding(log_n: u32, levels: usize, jobs: usize, shard_counts: &[usize]) -> ShardingSweep {
    type SharedShards = std::sync::Arc<std::sync::Mutex<ntt_gpu::ShardedMemory>>;
    fn drain_shards(dev: &SharedShards) {
        dev.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .sync_all();
    }
    fn snapshot(dev: &SharedShards) -> (gpu_sim::DeviceTimeline, ntt_gpu::LinkStats) {
        let m = dev
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (m.timeline(), m.link_stats())
    }

    let params = sharding_params(log_n, levels);
    let cpu = he_lite::HeContext::new(params).expect("cpu context builds");
    let keys = cpu.keygen(&mut he_lite::sampling::seeded_rng(7));
    let reference = sharding_run(&cpu, &keys, jobs);

    let mut reports = Vec::new();
    for &k in shard_counts {
        let backend = ntt_gpu::ShardedBackend::titan_v(k, 1usize << log_n);
        let dev = backend.memory_handle();
        let ctx = he_lite::HeContext::with_backend(params, Box::new(backend))
            .expect("sharded context builds");
        let keys = ctx.adopt_keys(&keys);

        // Warm-up: twiddle tables, the split sweep and pool
        // setup happen once, outside the measured window.
        let _ = sharding_run(&ctx, &keys, 1);
        drain_shards(&dev);
        let (t0, l0) = snapshot(&dev);
        let outs = sharding_run(&ctx, &keys, jobs);
        drain_shards(&dev);
        let (t1, l1) = snapshot(&dev);

        assert_eq!(
            outs, reference,
            "K={k} sharded chains depart from the CPU reference"
        );
        let link = l1.since(&l0);
        reports.push(ShardingReport {
            shards: k,
            timeline: t1.since(&t0),
            link_words: link.words,
            link_transfers: link.transfers,
        });
    }
    ShardingSweep {
        log_n,
        levels,
        jobs,
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Shape tests at reduced size (log_n = 10, np = 3) so the suite stays
    // fast; the figures binary runs the paper-scale versions.

    #[test]
    fn streams_overlap_independent_chains() {
        let r = streams(6, 4);
        assert_eq!(r.evaluators, 4);
        assert!(r.timeline.launches > 0);
        assert!(
            r.timeline.overlapped_s <= r.timeline.serialized_s + 1e-12,
            "overlap cannot exceed the serialized schedule: {r:?}"
        );
        assert!(
            r.overlap() > 1.3,
            "4 independent chains must overlap >= 1.3x, got {:.2}x",
            r.overlap()
        );
        // More evaluators -> more overlap than a single-stream run.
        let solo = streams(6, 1);
        assert!(r.overlap() > solo.overlap());
    }

    #[test]
    fn residency_reports_overlap_line() {
        let r = residency(6);
        assert!(r.timeline.serialized_s > 0.0);
        assert!(r.timeline.overlapped_s <= r.timeline.serialized_s + 1e-12);
    }

    #[test]
    fn fig1_shoup_wins() {
        // Needs enough butterflies for compute to rival the DRAM floor
        // (at paper scale the gap is 2.4x; here it is smaller but real).
        let rows = fig1(14, 8);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].time_us > rows[0].time_us,
            "native {} vs shoup {}",
            rows[1].time_us,
            rows[0].time_us
        );
    }

    #[test]
    fn fig3_batching_improves_per_ntt_time() {
        let rows = fig3a(10, &[1, 2, 4, 8]);
        assert!(rows.last().unwrap().per_ntt_us < rows[0].per_ntt_us);
        // Utilization should be non-decreasing-ish from batch 1 to max.
        assert!(rows.last().unwrap().utilization > rows[0].utilization * 0.9);
    }

    #[test]
    fn fig4_high_radix_beats_radix2() {
        let rows = fig4(12, 3, &[2, 16]);
        assert!(rows[1].time_us < rows[0].time_us);
        assert!(rows[1].dram_mb < rows[0].dram_mb);
    }

    #[test]
    fn fig8_ends_at_parity() {
        let rows = fig8(12);
        assert_eq!(rows.len(), 12);
        assert!((rows[11].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table2_ordering_holds() {
        // N must be large enough that the OT factor tables (1024 + N/1024
        // entries) are smaller than the late-stage twiddles they replace.
        let rows = table2(&[12], 3);
        let (_, r2, s, s_ot) = &rows[0];
        assert!(s.time_us < r2.time_us, "SMEM beats radix-2");
        assert!(
            s_ot.dram_mb < s.dram_mb,
            "OT cuts traffic: {} vs {}",
            s_ot.dram_mb,
            s.dram_mb
        );
    }

    #[test]
    fn fpga_rows_have_positive_speedup() {
        let rows = fpga_comparison(10, &[2]);
        assert!(rows[0].3 > 0.0);
    }
}
