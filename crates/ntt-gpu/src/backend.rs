//! `SimBackend`: the simulated-GPU implementation of
//! [`ntt_core::backend::NttBackend`] on one device, and the device layer
//! every simulated backend runs on.
//!
//! [`SimBackend`] is the `K = 1` instance of [`SimDevices`], the one
//! implementation the multi-device [`crate::ShardedBackend`] is the
//! `K`-device instance of — two constructors, one body (see
//! [`crate::sharded`]). This module holds what a single device owns: the
//! [`SimMemory`] shard (GMEM, launch trace, stream scheduler, handle map,
//! plan tables, readiness events), the forward-route calibration, and
//! the row-local kernels (element-wise ops, automorphism).
//!
//! Every trait call executes through the warp kernels on the `gpu-sim`
//! substrate — data really moves through simulated GMEM, twiddles stream
//! through the read-only cache path as per-stage `(value, companion)`
//! slice-pairs, and the launch trace keeps the paper's traffic accounting.
//! Outputs are **bit-identical** to [`ntt_core::backend::CpuBackend`]
//! (pinned by `tests/backend_conformance.rs` and `tests/residency.rs`).
//!
//! Three layers of device state:
//!
//! * **Tables** upload once per plan (re-uploaded only when the plan
//!   changes) and are shared by every fork of the backend.
//! * **Host-batch staging** (the `*Batch` variants of [`BackendOp`])
//!   reuses cached device buffers, but still pays one upload and one
//!   download per call — both charged to the [`gpu_sim::Gmem`] transfer
//!   ledger, which is exactly the per-call round-trip the residency layer
//!   exists to remove.
//! * **Device-resident execution** (the device [`BackendOp`]s over
//!   [`DeviceBuf`] handles) runs whole pipelines on buffers that live in
//!   simulated GMEM: forward/inverse NTTs over several polynomials per
//!   launch, element-wise ring ops, RNS base conversion, the
//!   evaluation-domain rescale (its subtract-and-scale folded into the
//!   SMEM forward's store) and gadget digit decomposition, with **zero**
//!   host↔device transfers. Every row-mapped kernel reads its rows
//!   through a per-row address table (`crate::rows`), so one launch can
//!   cover rows of separate allocations.
//!
//! Transforms are routed per shape: large forward batches go through the
//! two-kernel SMEM implementation (+OT) the paper's Table II favors or
//! the three-kernel hierarchical 4-step plan ([`crate::hier`]) at
//! bootstrapping scale, with the winner chosen like `best_split` — by the
//! minimum *modeled* time over the Fig. 12(a) candidates plus the
//! near-square hierarchical column counts, measured once per `N` on a
//! scratch device and cached (deterministic, so plans are reproducible).
//! Rows below 256 points run whole in one packed SMEM launch per
//! direction (the degenerate `N × 1` split, no sweep; radix-2 only for
//! `N < 4`). Inverses take the forward's verdict without a sweep of
//! their own (`run_inverse`): an SMEM split, whole rows included, runs
//! the mirrored SMEM inverse at the same split, radix-2 stays radix-2,
//! and a hierarchical verdict (there is no hierarchical inverse) runs
//! the shape's best SMEM split. Set `NTT_WARP_SIM_FORWARD=radix2` (or
//! `smem`, which takes the best two-kernel split at every `N`, or
//! `hier`) to pin one implementation in both directions, and
//! `NTT_WARP_SPLIT=AxB` to pin the hierarchical split itself; swept
//! hierarchical winners persist in the per-host calibration file
//! (`ntt_core::calibration`).
//!
//! # Fallible surface and fault injection
//!
//! [`NttBackend::gate`] is the one fault gate: it validates operand
//! handles and draws the armed [`gpu_sim::FaultPlan`] of every shard
//! *before* any data moves, returning a classified [`BackendError`]
//! instead of panicking. [`NttBackend::run`] is the unchanged body and
//! never draws; the provided [`NttBackend::try_run`] is gate then run.
//! Because an `Err` always leaves host and device state untouched, the
//! gate can simply be drawn again: an armed `Evaluator` checkout passes
//! it for every op and re-draws a transient failure in place up to three
//! times before it latches (`ntt_core::backend::Evaluator::gated`).
//! [`DeviceMemory::try_alloc`] is the injected-OOM hook, through which an
//! armed evaluator makes its own allocations. Everything else, host↔device
//! staging included, never consults the plan, which keeps calibration
//! sweeps and the figure harness fault-free even when `NTT_WARP_FAULTS`
//! is set (the env plan is armed when a backend is constructed, not in
//! [`SimMemory::new`], for the same reason).
//!
//! # Panic audit
//!
//! The panic sites that remain in this crate after the fallible surface
//! was introduced are *invariant assertions*, not recoverable device
//! conditions:
//!
//! * "freed or foreign DeviceBuf" — a caller using a handle after `free`
//!   or against the wrong memory. The fallible surface pre-validates
//!   handles and reports [`BackendError::Fatal`] instead; reaching the
//!   panic means an *infallible* caller broke the handle contract.
//! * "tables uploaded" — every trait op calls `ensure_tables` before the
//!   kernel helpers run, so an absent table is an internal sequencing
//!   bug, unreachable through the trait.
//! * Shape `assert!`s on op entry (`Decompose`, `PointwiseBatch`) —
//!   caller-contract violations, mirrored from the documented panics of
//!   the `ntt-core` trait.
//! * Kernel-lane `expect`s ("rhs loaded", "lane active") — a warp lane
//!   reading a value its own address computation requested; failure is a
//!   kernel bug, independent of any device state a caller controls.
//!
//! # Example
//!
//! ```
//! use ntt_core::backend::Evaluator;
//! use ntt_core::{RnsPoly, RnsRing};
//! use ntt_gpu::SimBackend;
//!
//! let ring = RnsRing::new(16, ntt_math::ntt_primes(59, 32, 2))?;
//! // The one-line substrate swap: Evaluator::cpu(&ring) vs this.
//! let mut ev = Evaluator::with_backend(&ring, Box::new(SimBackend::titan_v()));
//! let mut a = RnsPoly::from_i64_coeffs(&ring, &[1, 1]);
//! ev.make_resident(&mut a); // one upload; every op below stays on-device
//! let mut c = ev.multiply(&a, &a); // fused multiply on the warp kernels
//! c.sync(); // one download
//! assert_eq!(c.coefficient_centered(&ring, 1), Some(2));
//! # Ok::<(), ntt_core::RingError>(())
//! ```

use crate::batch::upload_table;
use crate::hier::{self, DeviceTwist};
use crate::ot::DeviceOt;
use crate::radix2::{launch_forward, launch_inverse, ModMul};
use crate::rows::{FoldRows, RowTable};
use crate::sharded::{ShardedMemory, SimDevices, Single};
use crate::smem::{self, Direction, SmemConfig, SmemJob};
use gpu_sim::{Buf, Event, Gpu, GpuConfig, LaunchConfig, OpClass, Stream, WarpCtx, WarpKernel};
use ntt_core::backend::{BackendError, DeviceBuf, DeviceMemory, RingPlan, TransferStats};
#[cfg(doc)]
use ntt_core::backend::{BackendOp, NttBackend};
use ntt_math::modops::{add_mod, mul_mod, neg_mod, sub_mod};
use ntt_math::shoup::mul_shoup;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Threads per block for the element-wise kernels.
pub(crate) const THREADS: usize = 256;

/// Rows shorter than this (and at least 4 points) run whole, several
/// per block, in one SMEM launch per direction — the degenerate `N × 1`
/// split, chosen from `N` alone with no calibration sweep: a two-kernel
/// split needs enough columns per kernel to fill its blocks, and the
/// packed row kernel models no slower than radix-2 or any split or
/// hierarchical candidate at every such `N` (pinned by
/// the `smem::tests::whole_rows_beat_every_candidate_*` tests).
/// Longer rows take the calibrated winner.
pub(crate) const SMEM_MIN_N: usize = 256;

/// Device-resident twiddle tables for one plan (shared by all forks).
struct DevTables {
    n: usize,
    primes: Vec<u64>,
    tw: Buf,
    twc: Buf,
    itw: Buf,
    itwc: Buf,
    /// Per-prime `(N^{-1}, companion, p)` for the inverse scaling pass.
    n_inv: Vec<(u64, u64, u64)>,
    /// Cached OT factor tables over `ψ` and `ψ⁻¹`, built together on the
    /// first OT-routed transform, so the first inverse after a warm-up
    /// forward uploads nothing.
    ot: Option<[DeviceOt; 2]>,
    /// Cached hierarchical twist-factor tables (built on first
    /// hier-routed forward).
    twist: Option<DeviceTwist>,
}

/// A reusable device data buffer (outgrown buffers are returned to the
/// GMEM free list).
#[derive(Default, Clone, Copy)]
pub(crate) struct DevData {
    buf: Option<Buf>,
}

impl DevData {
    pub(crate) fn ensure(&mut self, gpu: &mut Gpu, words: usize) -> Buf {
        match self.buf {
            Some(b) if b.len() >= words => b,
            old => {
                if let Some(b) = old {
                    gpu.gmem.free(b);
                }
                let b = gpu.gmem.alloc(words);
                self.buf = Some(b);
                b
            }
        }
    }
}

/// One simulated device — a shard of [`ShardedMemory`]: the [`Gpu`]
/// itself (GMEM + launch trace + stream scheduler), the shard-local
/// [`DeviceBuf`] handle map, the plan tables, and the per-buffer readiness
/// events that guard cross-stream buffer reuse. One mutex guards all of
/// it — forks of a backend share the shard, so resident data is visible
/// to every fork. The mutex keeps the *functional* execution sequentially
/// consistent (one simulated address space); the *modeled* time is not
/// serialized: each fork enqueues its kernels and transfers on its own
/// [`Stream`], and the scheduler overlaps them subject to SM capacity
/// (see [`gpu_sim::stream`]).
pub struct SimMemory {
    gpu: Gpu,
    bufs: HashMap<u64, Buf>,
    next_id: u64,
    tables: Option<DevTables>,
    /// Completion event of the last *write* touching an allocation, keyed
    /// by its GMEM base address. Because the free list recycles exact
    /// sizes at stable addresses, a recycled buffer inherits its previous
    /// life's event — which is precisely the fence a new owner on another
    /// stream must wait on before reusing the storage.
    buf_ready: HashMap<usize, Event>,
    /// Scratch released by [`SimMemory::release_scratch`], kept allocated
    /// for the next acquisition of its exact size.
    spare: Vec<Buf>,
    /// Fence for the one-time plan-table upload (every kernel reads the
    /// tables, so every op waits on it).
    tables_ready: Event,
}

impl SimMemory {
    /// Fresh simulated device memory over an explicit device model.
    ///
    /// Handle ids start in a process-unique namespace
    /// ([`ntt_core::backend::handle_namespace`]) so a [`DeviceBuf`] minted
    /// by one memory never accidentally resolves against another.
    pub fn new(config: GpuConfig) -> Self {
        Self {
            gpu: Gpu::new(config),
            bufs: HashMap::new(),
            next_id: ntt_core::backend::handle_namespace(),
            tables: None,
            buf_ready: HashMap::new(),
            spare: Vec::new(),
            tables_ready: Event::DONE,
        }
    }

    /// Translate an opaque handle view into a GMEM buffer view.
    ///
    /// # Panics
    ///
    /// Panics on a freed or foreign handle — an invariant assertion (the
    /// fallible surface pre-validates logical handles in
    /// [`ShardedMemory`] and returns [`BackendError::Fatal`] instead).
    pub(crate) fn resolve(&self, buf: DeviceBuf) -> Buf {
        self.bufs
            .get(&buf.id())
            .expect("freed or foreign DeviceBuf")
            .sub(buf.base(), buf.len())
    }

    /// The GMEM view behind a handle (for kernels driven outside the
    /// backend, e.g. figure experiments on the handle layer).
    pub fn raw_buf(&self, buf: DeviceBuf) -> Buf {
        self.resolve(buf)
    }

    /// The simulated device (launch trace, traffic counters, timeline).
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Mutable access to the simulated device (for experiments that drive
    /// kernels directly over handle-layer buffers).
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }

    /// Root allocation base of a handle (the readiness-map key).
    pub(crate) fn root_base(&self, buf: DeviceBuf) -> usize {
        self.bufs
            .get(&buf.id())
            .expect("freed or foreign DeviceBuf")
            .base()
    }

    /// Route subsequent launches and charged transfers to `s`.
    pub(crate) fn bind(&mut self, s: Stream) {
        self.gpu.set_active_stream(s);
    }

    /// Fence the active stream on the table upload and on the last write
    /// to each involved allocation (keys are GMEM base addresses).
    pub(crate) fn wait_ready(&mut self, bases: &[usize]) {
        let s = self.gpu.active_stream();
        let mut fence = self.tables_ready;
        for b in bases {
            if let Some(e) = self.buf_ready.get(b) {
                fence = fence.max(*e);
            }
        }
        self.gpu.wait_event(s, fence);
    }

    /// The readiness fence for a set of allocations *without* waiting on
    /// it: the latest of the table upload and the last recorded write to
    /// each base. Cross-device copy engines fence **their own** streams
    /// on this event instead of stalling this device's compute stream —
    /// the data dependency crosses the link, the schedule does not.
    pub(crate) fn ready_fence(&self, bases: &[usize]) -> Event {
        let mut fence = self.tables_ready;
        for b in bases {
            if let Some(e) = self.buf_ready.get(b) {
                fence = fence.max(*e);
            }
        }
        fence
    }

    /// Push an allocation's readiness fence forward to `e` if it is
    /// later than what is recorded (write-after-read hazard: a
    /// cross-device read in flight must finish before the next local
    /// writer may land).
    pub(crate) fn fence_until(&mut self, base: usize, e: Event) {
        let cur = self.buf_ready.entry(base).or_insert(e);
        *cur = cur.max(e);
    }

    /// Record the active stream's completion event as the readiness fence
    /// of each written allocation.
    pub(crate) fn mark_written(&mut self, bases: &[usize]) {
        let s = self.gpu.active_stream();
        let e = self.gpu.record_event(s);
        for &b in bases {
            self.buf_ready.insert(b, e);
        }
    }

    /// Borrow a scratch buffer for one multi-kernel launch plan (e.g.
    /// the hierarchical NTT's transposed intermediate) or one gathered
    /// operand: a released one of the same size, else a fresh GMEM
    /// allocation, so steady-state ops allocate nothing. Its contents
    /// are stale; callers overwrite what they read. The readiness event
    /// a recycled base carries is *consumed* — the active stream fences
    /// on it and then owns the storage — so repeated acquire/release
    /// cycles keep at most one `buf_ready` entry per recycled base
    /// instead of leaking one per cycle. Pair every call with
    /// [`release_scratch`](SimMemory::release_scratch).
    pub fn acquire_scratch(&mut self, words: usize) -> Buf {
        let buf = match self.spare.iter().position(|b| b.len() == words) {
            Some(i) => self.spare.swap_remove(i),
            None => self.gpu.gmem.alloc(words),
        };
        if let Some(e) = self.buf_ready.remove(&buf.base()) {
            let s = self.gpu.active_stream();
            self.gpu.wait_event(s, e);
        }
        buf
    }

    /// Return a scratch buffer for reuse, recording the active stream's
    /// completion event as the base's readiness fence (the next owner of
    /// the recycled storage waits on it before touching the bytes).
    pub fn release_scratch(&mut self, buf: Buf) {
        let s = self.gpu.active_stream();
        let e = self.gpu.record_event(s);
        self.buf_ready.insert(buf.base(), e);
        self.spare.push(buf);
    }

    /// Number of live per-allocation readiness entries (test hook for the
    /// boundedness of the event map under scratch recycling).
    pub fn readiness_entries(&self) -> usize {
        self.buf_ready.len()
    }

    /// Draw the device's armed fault plan (if any) for one fallible
    /// backend entry point, classifying a fired fault into the typed
    /// error surface. A fault charges a stall on the active stream — see
    /// [`Gpu::fault_check`].
    pub(crate) fn fault_gate(
        &mut self,
        op: &'static str,
        kind: gpu_sim::FaultOp,
    ) -> Result<(), BackendError> {
        self.gpu.fault_check(kind).map_err(|k| classify(k, op, 0))
    }
}

/// Map an injected [`gpu_sim::FaultKind`] onto the typed error surface:
/// transient faults stay retryable, a sticky-wedged device is fatal for
/// every executor sharing it, and OOM carries the request size.
pub(crate) fn classify(kind: gpu_sim::FaultKind, op: &'static str, words: usize) -> BackendError {
    match kind {
        gpu_sim::FaultKind::Transient => BackendError::Transient { op },
        gpu_sim::FaultKind::Sticky => BackendError::Fatal { op },
        gpu_sim::FaultKind::Oom => BackendError::Oom { op, words },
    }
}

impl DeviceMemory for SimMemory {
    fn alloc(&mut self, words: usize) -> DeviceBuf {
        let b = self.gpu.gmem.alloc(words);
        self.next_id += 1;
        self.bufs.insert(self.next_id, b);
        DeviceBuf::root(self.next_id, words)
    }

    fn upload(&mut self, dst: DeviceBuf, src: &[u64]) {
        let b = self.resolve(dst);
        let root = self.root_base(dst);
        self.wait_ready(&[root]);
        self.gpu.stream_upload(b, 0, src);
        self.mark_written(&[root]);
    }

    fn download(&mut self, src: DeviceBuf, dst: &mut [u64]) {
        let b = self.resolve(src);
        let root = self.root_base(src);
        self.wait_ready(&[root]);
        self.gpu.stream_download(b.sub(0, dst.len()), dst);
    }

    fn copy(&mut self, src: DeviceBuf, dst: DeviceBuf) {
        let (s, d) = (self.resolve(src), self.resolve(dst));
        let roots = [self.root_base(src), self.root_base(dst)];
        self.wait_ready(&roots);
        self.gpu.gmem.copy(s, d);
        self.mark_written(&roots[1..]);
    }

    fn free(&mut self, buf: DeviceBuf) {
        if let Some(b) = self.bufs.remove(&buf.id()) {
            self.gpu.gmem.free(b);
        }
    }

    fn stats(&self) -> TransferStats {
        let t = self.gpu.gmem.transfer_stats();
        TransferStats {
            uploads: t.uploads,
            upload_words: t.upload_words,
            downloads: t.downloads,
            download_words: t.download_words,
            d2d_copies: t.d2d_copies,
            allocs: t.allocs,
            frees: t.frees,
        }
    }

    fn reset_stats(&mut self) {
        self.gpu.gmem.reset_transfer_stats();
    }
}

/// Lock a shared [`SimMemory`], recovering from poisoning (free function
/// so callers can hold `&mut` to other backend fields across the guard).
pub(crate) fn lock_mem(mem: &Arc<Mutex<SimMemory>>) -> MutexGuard<'_, SimMemory> {
    mem.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Which implementation a forward batch of a given shape routes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ForwardImpl {
    /// One stage-kernel launch per Cooley–Tukey stage.
    Radix2,
    /// Two-kernel SMEM implementation with this split (+OT stages);
    /// `n1 = N` is the one-launch whole-row kernel (no OT).
    Smem { n1: usize, ot_stages: u32 },
    /// Three-kernel hierarchical (4-step) implementation with this
    /// column count (`n2 = N / n1`).
    Hier { n1: usize },
}

/// The memoized calibration verdict for one shape: the overall
/// modeled-time winner, plus the best SMEM split for the forced-`smem`
/// mode and the best hierarchical split for the forced-`hier` mode
/// (radix-2 when no candidate is feasible at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShapeChoice {
    pub(crate) auto: ForwardImpl,
    pub(crate) best_smem: ForwardImpl,
    pub(crate) best_hier: ForwardImpl,
}

/// Forced routing mode from `NTT_WARP_SIM_FORWARD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ForwardMode {
    Auto,
    Radix2,
    Smem,
    Hier,
}

/// The routing mode, resolved from `NTT_WARP_SIM_FORWARD` once per
/// process (this sits on every launch's hot path).
pub(crate) fn forward_mode() -> ForwardMode {
    static MODE: std::sync::OnceLock<ForwardMode> = std::sync::OnceLock::new();
    *MODE.get_or_init(|| {
        match std::env::var("NTT_WARP_SIM_FORWARD")
            .unwrap_or_default()
            .trim()
            .to_ascii_lowercase()
            .as_str()
        {
            "radix2" => ForwardMode::Radix2,
            "smem" => ForwardMode::Smem,
            "hier" => ForwardMode::Hier,
            _ => ForwardMode::Auto,
        }
    })
}

/// Element-wise warp kernels over batches of limb rows: one thread per
/// element, row `r` reduced mod `moduli[row_prime[r]]`.
#[derive(Clone, Copy)]
pub(crate) enum ElemOp {
    /// `a[i] <- a[i] * b[i]` (the paper's pointwise stage).
    Mul,
    /// `a[i] <- a[i] + b[i]`.
    Add,
    /// `a[i] <- a[i] - b[i]`.
    Sub,
    /// `a[i] <- -a[i]`.
    Neg,
}

impl ElemOp {
    fn label(&self) -> &'static str {
        match self {
            ElemOp::Mul => "sim-pointwise",
            ElemOp::Add => "sim-add",
            ElemOp::Sub => "sim-sub",
            ElemOp::Neg => "sim-neg",
        }
    }
}

struct ElemwiseKernel<'a> {
    op: ElemOp,
    a: Buf,
    b: Option<Buf>,
    n: usize,
    rows: usize,
    row_prime: &'a [usize],
    moduli: &'a [u64],
}

impl WarpKernel for ElemwiseKernel<'_> {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let total = self.rows * self.n;
        let lanes = ctx.lanes();
        let mut addr_a = vec![None; lanes];
        let mut addr_b = vec![None; lanes];
        let mut prime = vec![0usize; lanes];
        let mut active = 0u64;
        for l in 0..lanes {
            let gt = ctx.global_thread(l);
            if gt >= total {
                continue;
            }
            active += 1;
            prime[l] = self.row_prime[gt / self.n];
            addr_a[l] = Some(self.a.word(gt));
            if let Some(b) = self.b {
                addr_b[l] = Some(b.word(gt));
            }
        }
        if active == 0 {
            return;
        }
        let (a, b) = if self.b.is_some() {
            ctx.gmem_load2(&addr_a, &addr_b)
        } else {
            (ctx.gmem_load(&addr_a), vec![None; lanes])
        };
        let writes: Vec<Option<(usize, u64)>> = (0..lanes)
            .map(|l| {
                let av = a[l]?;
                let p = self.moduli[prime[l]];
                let v = match self.op {
                    ElemOp::Mul => mul_mod(av, b[l].expect("rhs loaded"), p),
                    ElemOp::Add => add_mod(av, b[l].expect("rhs loaded"), p),
                    ElemOp::Sub => sub_mod(av, b[l].expect("rhs loaded"), p),
                    ElemOp::Neg => neg_mod(av, p),
                };
                Some((addr_a[l].expect("lane active"), v))
            })
            .collect();
        match self.op {
            ElemOp::Mul => ctx.count_op(OpClass::NativeModMul, active),
            ElemOp::Add | ElemOp::Sub | ElemOp::Neg => ctx.count_op(OpClass::ModAddSub, active),
        }
        ctx.gmem_store(&writes);
    }
}

/// Multi-term key-switch accumulate (contract per [`BackendOp::Fma`]):
/// one thread per accumulator element keeps the running sum in a
/// register, so `acc` is read once and written once while every term
/// streams in its two factors — one modular product and one modular add
/// per element and term.
struct FmaKernel<'a> {
    acc: Buf,
    /// The factor pairs, `[x_0, y_0, x_1, y_1, …]`.
    terms: &'a [Buf],
    n: usize,
    rows: usize,
    row_prime: &'a [usize],
    moduli: &'a [u64],
}

impl WarpKernel for FmaKernel<'_> {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let total = self.rows * self.n;
        let lanes = ctx.lanes();
        let mut elem = vec![None; lanes];
        let mut prime = vec![0u64; lanes];
        let mut active = 0u64;
        for l in 0..lanes {
            let gt = ctx.global_thread(l);
            if gt >= total {
                continue;
            }
            active += 1;
            elem[l] = Some(gt);
            prime[l] = self.moduli[self.row_prime[gt / self.n]];
        }
        if active == 0 {
            return;
        }
        let addrs = |buf: Buf| -> Vec<Option<usize>> {
            elem.iter().map(|gt| gt.map(|g| buf.word(g))).collect()
        };
        let addr_acc = addrs(self.acc);
        let mut sum = ctx.gmem_load(&addr_acc);
        for pair in self.terms.chunks_exact(2) {
            let (x, y) = ctx.gmem_load2(&addrs(pair[0]), &addrs(pair[1]));
            for (l, s) in sum.iter_mut().enumerate() {
                if let Some(s) = s {
                    let p = prime[l];
                    let xy = mul_mod(x[l].expect("x loaded"), y[l].expect("y loaded"), p);
                    *s = add_mod(*s, xy, p);
                }
            }
            ctx.count_op(OpClass::NativeModMul, active);
            ctx.count_op(OpClass::ModAddSub, active);
        }
        let writes: Vec<Option<(usize, u64)>> = addr_acc
            .iter()
            .zip(&sum)
            .map(|(&a, &s)| Some((a?, s?)))
            .collect();
        ctx.gmem_store(&writes);
    }
}

/// Device-side Galois automorphism `X → X^g` (index map per
/// [`BackendOp::Automorphism`]): one thread per *input* element — a
/// coalesced read, a scattered sign-wrapped write — the same shape a
/// real permutation kernel takes.
struct AutomorphismKernel<'a> {
    src: Buf,
    dst: Buf,
    n: usize,
    rows: usize,
    /// Galois element already reduced mod `2N`.
    g: u64,
    row_prime: &'a [usize],
    moduli: &'a [u64],
}

impl WarpKernel for AutomorphismKernel<'_> {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let total = self.rows * self.n;
        let two_n = 2 * self.n as u64;
        let lanes = ctx.lanes();
        let mut addr_s = vec![None; lanes];
        let mut addr_d = vec![0usize; lanes];
        let mut wrap = vec![false; lanes];
        let mut prime = vec![0usize; lanes];
        let mut active = 0u64;
        for l in 0..lanes {
            let gt = ctx.global_thread(l);
            if gt >= total {
                continue;
            }
            active += 1;
            let (r, i) = (gt / self.n, gt % self.n);
            prime[l] = self.row_prime[r];
            let idx = (i as u64 * self.g) % two_n;
            wrap[l] = idx >= self.n as u64;
            let t = if wrap[l] {
                idx as usize - self.n
            } else {
                idx as usize
            };
            addr_s[l] = Some(self.src.word(gt));
            addr_d[l] = self.dst.word(r * self.n + t);
        }
        if active == 0 {
            return;
        }
        let vals = ctx.gmem_load(&addr_s);
        let writes: Vec<Option<(usize, u64)>> = (0..lanes)
            .map(|l| {
                let v = vals[l]?;
                let p = self.moduli[prime[l]];
                Some((addr_d[l], if wrap[l] { neg_mod(v, p) } else { v }))
            })
            .collect();
        ctx.count_op(OpClass::ModAddSub, active);
        ctx.gmem_store(&writes);
    }
}

/// Upload (or reuse) the plan's twiddle tables into shared device state.
/// Tables are keyed on `(N, primes)`; a plan over the same ring never
/// re-uploads (table uploads are the counted, one-time part of a resident
/// chain's "initial upload").
pub(crate) fn ensure_tables(m: &mut SimMemory, plan: &RingPlan) {
    let n = plan.degree();
    let primes = plan.ring().basis().primes();
    if let Some(t) = &m.tables {
        if t.n == n && t.primes == primes {
            return;
        }
    }
    // Plan change: return the previous plan's table (OT, twist) buffers
    // to the free list before uploading the new ones, so alternating
    // between rings does not grow the simulated address space without
    // bound.
    if let Some(old) = m.tables.take() {
        for buf in [old.tw, old.twc, old.itw, old.itwc] {
            m.gpu.gmem.free(buf);
        }
        for ot in old.ot.into_iter().flatten() {
            ot.free(&mut m.gpu);
        }
        if let Some(twist) = old.twist {
            twist.free(&mut m.gpu);
        }
    }
    let np = plan.np();
    let mut tw = Vec::with_capacity(np * n);
    let mut twc = Vec::with_capacity(np * n);
    let mut itw = Vec::with_capacity(np * n);
    let mut itwc = Vec::with_capacity(np * n);
    let mut n_inv = Vec::with_capacity(np);
    for i in 0..np {
        let t = plan.table(i);
        tw.extend_from_slice(t.forward_values());
        twc.extend_from_slice(t.forward_companions());
        itw.extend_from_slice(t.inverse_values());
        itwc.extend_from_slice(t.inverse_companions());
        n_inv.push((t.n_inv().value(), t.n_inv().companion(), t.modulus()));
    }
    // Table uploads are charged to whichever stream first needs the plan
    // (typically the keygen/setup stream); every later op on any stream
    // fences on `tables_ready` before launching.
    let g = &mut m.gpu;
    let (tw, twc) = (upload_table(g, &tw), upload_table(g, &twc));
    let (itw, itwc) = (upload_table(g, &itw), upload_table(g, &itwc));
    m.tables = Some(DevTables {
        n,
        primes: primes.to_vec(),
        tw,
        twc,
        itw,
        itwc,
        n_inv,
        ot: None,
        twist: None,
    });
    let s = m.gpu.active_stream();
    m.tables_ready = m.gpu.record_event(s);
}

/// The cached OT factor tables of `direction` for the current plan
/// tables; the first OT-routed transform builds both directions.
fn ensure_ot(m: &mut SimMemory, plan: &RingPlan, base: usize, direction: Direction) -> DeviceOt {
    let tables = m.tables.as_ref().expect("tables uploaded");
    let [fwd, inv] = match tables.ot {
        Some(ot) => ot,
        None => {
            let host: Vec<&ntt_core::NttTable> = (0..plan.np()).map(|i| plan.table(i)).collect();
            let ot = [Direction::Forward, Direction::Inverse]
                .map(|d| DeviceOt::upload_tables(&mut m.gpu, plan.degree(), &host, base, d));
            m.tables.as_mut().expect("tables uploaded").ot = Some(ot);
            ot
        }
    };
    match direction {
        Direction::Forward => fwd,
        Direction::Inverse => inv,
    }
}

/// The cached hierarchical twist-factor tables for the current plan
/// tables, built on the first hier-routed forward.
fn ensure_twist(m: &mut SimMemory, plan: &RingPlan) -> DeviceTwist {
    let tables = m.tables.as_ref().expect("tables uploaded");
    if let Some(twist) = tables.twist {
        return twist;
    }
    let host_tables: Vec<&ntt_core::NttTable> = (0..plan.np()).map(|i| plan.table(i)).collect();
    let base = hier::TWIST_BASE.min(2 * plan.degree());
    let twist = DeviceTwist::upload_tables(&mut m.gpu, plan.degree(), &host_tables, base);
    m.tables.as_mut().expect("tables uploaded").twist = Some(twist);
    twist
}

/// Launch a forward NTT over `rows` through the chosen implementation
/// (radix-2 stage kernels, an SMEM split — two kernels, or one over whole
/// rows — or the hierarchical three-kernel plan, per `choice`). With a
/// `fold`, the transformed rows land in the fold's accumulators: the
/// SMEM kernels fold the subtract-and-scale into their final store, the
/// radix-2 and hierarchical routes transform in place and then run one
/// `sim-subscale` launch.
pub(crate) fn run_forward(
    m: &mut SimMemory,
    plan: &RingPlan,
    rows: &RowTable,
    choice: ForwardImpl,
    fold: Option<&FoldRows>,
) {
    match choice {
        ForwardImpl::Radix2 => {
            let SimMemory { gpu, tables, .. } = &mut *m;
            let t = tables.as_ref().expect("tables uploaded");
            launch_forward(gpu, rows, (t.tw, t.twc), t.n, &t.primes, ModMul::Shoup);
        }
        ForwardImpl::Smem { n1, ot_stages } => {
            run_smem(m, plan, rows, (n1, ot_stages), Direction::Forward, fold);
            return;
        }
        ForwardImpl::Hier { n1 } => {
            let twist = ensure_twist(m, plan);
            let scratch = m.acquire_scratch(rows.len() * plan.degree());
            {
                let SimMemory { gpu, tables, .. } = &mut *m;
                let t = tables.as_ref().expect("tables uploaded");
                let job = hier::HierJob {
                    rows,
                    scratch,
                    tw: t.tw,
                    twc: t.twc,
                    n: t.n,
                    log_n: t.n.trailing_zeros(),
                    moduli: &t.primes,
                };
                hier::launch_job(gpu, &job, n1, &twist, hier::PER_THREAD);
            }
            m.release_scratch(scratch);
        }
    }
    if let Some(fold) = fold {
        launch_sub_scale(m, fold, rows, plan.degree());
    }
}

/// Launch an inverse NTT over `rows`, routed by the shape's forward
/// verdict `choice`: radix-2 stages plus the `N⁻¹`
/// scaling launch for [`ForwardImpl::Radix2`], the mirrored SMEM inverse
/// at the same split (OT included, `N⁻¹` folded into its last store) for
/// [`ForwardImpl::Smem`] — two kernels, or for whole rows (`n1 = N`)
/// the one `smem-k1-{N}-inv` launch. There is no hierarchical
/// inverse: the routing maps that verdict to the shape's best SMEM split
/// before it gets here, and one that does arrive runs the radix-2 stages.
pub(crate) fn run_inverse(
    m: &mut SimMemory,
    plan: &RingPlan,
    rows: &RowTable,
    choice: ForwardImpl,
) {
    match choice {
        ForwardImpl::Smem { n1, ot_stages } => {
            run_smem(m, plan, rows, (n1, ot_stages), Direction::Inverse, None);
        }
        ForwardImpl::Radix2 | ForwardImpl::Hier { .. } => {
            let SimMemory { gpu, tables, .. } = m;
            let t = tables.as_ref().expect("tables uploaded");
            let tw = (t.itw, t.itwc);
            launch_inverse(gpu, rows, tw, t.n, &t.primes, &t.n_inv);
        }
    }
}

/// Launch the SMEM kernels of split `n1` in `direction` over the plan's
/// table of that direction, with OT on `ot_stages` stages and `fold` in
/// the forward's final store.
fn run_smem(
    m: &mut SimMemory,
    plan: &RingPlan,
    rows: &RowTable,
    (n1, ot_stages): (usize, u32),
    direction: Direction,
    fold: Option<&FoldRows>,
) {
    let cfg = SmemConfig::new(n1).ot_stages(ot_stages);
    let ot = (ot_stages > 0).then(|| ensure_ot(m, plan, cfg.ot_base, direction));
    let SimMemory { gpu, tables, .. } = m;
    let t = tables.as_ref().expect("tables uploaded");
    let (tw, twc) = match direction {
        Direction::Forward => (t.tw, t.twc),
        Direction::Inverse => (t.itw, t.itwc),
    };
    let job = SmemJob {
        rows,
        tw,
        twc,
        n: t.n,
        log_n: t.n.trailing_zeros(),
        moduli: &t.primes,
        fold,
    };
    smem::launch_job(gpu, &job, &cfg, ot.as_ref(), direction);
}

/// Launch one element-wise kernel.
pub(crate) fn launch_elemwise(
    m: &mut SimMemory,
    op: ElemOp,
    a: Buf,
    b: Option<Buf>,
    n: usize,
    row_prime: &[usize],
) {
    let t = m.tables.as_ref().expect("tables uploaded");
    let kernel = ElemwiseKernel {
        a,
        b,
        n,
        rows: row_prime.len(),
        row_prime,
        moduli: &t.primes,
        op,
    };
    launch_rows(&mut m.gpu, op.label(), row_prime.len() * n, &kernel);
}

/// Launch one multi-term FMA kernel over `row_prime.len()` local rows of
/// `acc`, `terms` holding each term's `[x_k, y_k]` pair back to back.
pub(crate) fn launch_fma(
    m: &mut SimMemory,
    acc: Buf,
    terms: &[Buf],
    n: usize,
    row_prime: &[usize],
) {
    let t = m.tables.as_ref().expect("tables uploaded");
    let kernel = FmaKernel {
        acc,
        terms,
        n,
        rows: row_prime.len(),
        row_prime,
        moduli: &t.primes,
    };
    launch_rows(&mut m.gpu, "sim-fma", row_prime.len() * n, &kernel);
}

/// Launch the Galois automorphism kernel over `row_prime.len()` local
/// rows (`X → X^g`, `g` already reduced mod `2N`). The permutation is
/// row-local — row `r` of `dst` depends only on row `r` of `src` — which
/// is what lets the sharded backend run it shard-parallel on row slices.
pub(crate) fn launch_automorphism(
    m: &mut SimMemory,
    src: Buf,
    dst: Buf,
    n: usize,
    g: u64,
    row_prime: &[usize],
) {
    let t = m.tables.as_ref().expect("tables uploaded");
    let kernel = AutomorphismKernel {
        src,
        dst,
        n,
        rows: row_prime.len(),
        g,
        row_prime,
        moduli: &t.primes,
    };
    launch_rows(&mut m.gpu, "sim-automorphism", row_prime.len() * n, &kernel);
}

/// A rescale's subtract-and-scale as a launch of its own (the radix-2 and
/// hierarchical forward routes, whose kernels carry no fold): one thread
/// per element, `acc ← (acc − t)·p_d⁻¹` with `t` the transformed row.
struct SubScaleKernel<'a> {
    fold: &'a FoldRows,
    t: &'a RowTable,
    n: usize,
    moduli: &'a [u64],
}

impl WarpKernel for SubScaleKernel<'_> {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let total = self.t.len() * self.n;
        let lanes = ctx.lanes();
        let mut addr_a = vec![None; lanes];
        let mut addr_t = vec![None; lanes];
        let mut prime = vec![0usize; lanes];
        let mut active = 0u64;
        for l in 0..lanes {
            let gt = ctx.global_thread(l);
            if gt >= total {
                continue;
            }
            active += 1;
            prime[l] = self.fold.acc.prime(gt / self.n);
            addr_a[l] = Some(self.fold.acc.flat_word(self.n, gt));
            addr_t[l] = Some(self.t.flat_word(self.n, gt));
        }
        if active == 0 {
            return;
        }
        let (a, t) = ctx.gmem_load2(&addr_a, &addr_t);
        let writes: Vec<Option<(usize, u64)>> = (0..lanes)
            .map(|l| {
                let av = a[l]?;
                let p = self.moduli[prime[l]];
                let (w, wc) = self.fold.inv[prime[l]];
                let diff = sub_mod(av, t[l].expect("row loaded"), p);
                Some((addr_a[l]?, mul_shoup(diff, w, wc, p)))
            })
            .collect();
        ctx.count_op(OpClass::ModAddSub, active);
        ctx.count_op(OpClass::ShoupMul, active);
        ctx.gmem_store(&writes);
    }
}

/// Launch the stand-alone subtract-and-scale of `fold` over the
/// transformed rows `t`.
fn launch_sub_scale(m: &mut SimMemory, fold: &FoldRows, t: &RowTable, n: usize) {
    let tables = m.tables.as_ref().expect("tables uploaded");
    let kernel = SubScaleKernel {
        fold,
        t,
        n,
        moduli: &tables.primes,
    };
    launch_rows(&mut m.gpu, "sim-subscale", t.len() * n, &kernel);
}

/// Launch a one-thread-per-element kernel over `threads` elements.
pub(crate) fn launch_rows<K: WarpKernel>(
    gpu: &mut Gpu,
    label: &'static str,
    threads: usize,
    kernel: &K,
) {
    let cfg = LaunchConfig::new(label, threads.div_ceil(THREADS), THREADS).regs_per_thread(40);
    gpu.launch(kernel, &cfg);
}

/// The simulated GPU on one device: the `K = 1` instance of
/// [`SimDevices`], reporting `gpu-sim`. The root backend runs on
/// [`Stream::DEFAULT`]; every [`NttBackend::fork`] allocates its own
/// stream, so concurrent evaluators from the pool enqueue on independent
/// queues and their modeled device time overlaps (subject to SM
/// capacity).
pub type SimBackend = SimDevices<Single>;

impl SimDevices<Single> {
    /// Backend over an explicit device model.
    pub fn new(config: GpuConfig) -> Self {
        // One device partitions nothing, so the partition degree is moot.
        Self::over(ShardedMemory::new(config, 1, 1))
    }

    /// Backend over the paper's Titan-V device model.
    pub fn titan_v() -> Self {
        Self::new(GpuConfig::titan_v())
    }

    /// A clone of the live device's handle, typed — lets harnesses
    /// observe the device (timeline, trace) after the backend has been
    /// boxed into an evaluator or `HeContext`. Every op holds this lock
    /// for its whole duration, so an observer sees whole ops.
    pub fn memory_handle(&self) -> Arc<Mutex<SimMemory>> {
        self.lock().shard(0)
    }

    /// Inspect the underlying simulated device (launch trace, traffic
    /// counters) under its lock.
    pub fn with_gpu<R>(&self, f: impl FnOnce(&Gpu) -> R) -> R {
        f(lock_mem(&self.memory_handle()).gpu())
    }
}

/// A forward-implementation candidate in the calibration sweep.
enum Cand {
    Radix2,
    Smem(SmemConfig),
    Hier(usize),
}

/// Pick the forward implementation for `n`-point rows the way
/// `best_split` does: run every feasible Fig. 12(a) split (with and
/// without OT), every hierarchical 4-step column count, and the radix-2
/// baseline on a **scratch** device of the same model, and keep the
/// minimum modeled time. Purely simulated, so the verdict is
/// deterministic and reproducible across runs. The overall winner
/// (`auto`, which may be radix-2), the best SMEM split (forced-`smem`
/// mode) and the best hierarchical split (forced-`hier` mode) are all
/// returned and cached — a radix-2 verdict must not re-trigger the
/// sweep on every launch.
///
/// Hierarchical candidates follow a precedence chain: an
/// `NTT_WARP_SPLIT=AxB` override (with `A*B == n`) is authoritative; a
/// split persisted in the per-host calibration file is reused next; only
/// when neither applies does the sweep try the near-square column counts,
/// persisting the winner for future processes.
pub(crate) fn calibrate_forward_choice(config: &GpuConfig, n: usize, rows: usize) -> ShapeChoice {
    let log_n = n.trailing_zeros();
    let np = rows.clamp(1, 4);
    let bench = |cand: &Cand| -> Option<f64> {
        // Scratch device through the handle layer, so even calibration
        // sweeps exercise the same allocator as resident execution.
        let mut mem = SimMemory::new(config.clone());
        let batch = crate::batch::DeviceBatch::sequential_on(&mut mem, log_n, np, 60).ok()?;
        let rep = match cand {
            Cand::Radix2 => crate::radix2::run(mem.gpu_mut(), &batch, ModMul::Shoup),
            Cand::Smem(c) => smem::run(mem.gpu_mut(), &batch, c),
            Cand::Hier(n1) => hier::run(mem.gpu_mut(), &batch, *n1),
        };
        Some(rep.total_s())
    };
    let mut auto: Option<(ForwardImpl, f64)> =
        bench(&Cand::Radix2).map(|t| (ForwardImpl::Radix2, t));
    let mut best_smem: Option<(ForwardImpl, f64)> = None;
    for n1 in SmemConfig::paper_splits(log_n) {
        if !(n1.is_power_of_two() && n1 >= 2 && n1 <= n / 2) {
            continue;
        }
        for ot_stages in [0u32, 2] {
            let cfg = SmemConfig::new(n1).ot_stages(ot_stages);
            if ot_stages > 0 && ((1usize << ot_stages) > n / n1 || cfg.ot_base * cfg.ot_base < n) {
                continue;
            }
            if !smem::job_feasible(n, &cfg, config) {
                continue;
            }
            if let Some(t) = bench(&Cand::Smem(cfg)) {
                let choice = ForwardImpl::Smem { n1, ot_stages };
                if best_smem.as_ref().is_none_or(|(_, b)| t < *b) {
                    best_smem = Some((choice, t));
                }
                if auto.as_ref().is_none_or(|(_, b)| t < *b) {
                    auto = Some((choice, t));
                }
            }
        }
    }
    let forced = ntt_core::hier::env_split().filter(|&(a, b)| a * b == n);
    let calib_path = ntt_core::calibration::calibration_path();
    // Persisted splits are keyed by the device-model fingerprint: a split
    // swept under one config is never adopted under another (it would be
    // stale the moment SM count, bandwidths, or link parameters change).
    let fp = config.fingerprint();
    let persisted = if forced.is_none() {
        calib_path
            .as_deref()
            .and_then(|p| ntt_core::calibration::load_hier_split(p, n, fp))
    } else {
        None
    };
    let hier_splits: Vec<usize> = match forced.or(persisted) {
        Some((a, _)) => vec![a],
        None => {
            let l = log_n as usize;
            let mut v = vec![
                1usize << (l / 2),
                1usize << l.div_ceil(2),
                1usize << (l / 2 + 1),
            ];
            if l / 2 >= 1 {
                v.push(1usize << (l / 2 - 1));
            }
            v.sort_unstable();
            v.dedup();
            v
        }
    };
    let mut best_hier: Option<(ForwardImpl, f64)> = None;
    for n1 in hier_splits {
        if !hier::job_feasible(n, n1, hier::PER_THREAD, config) {
            continue;
        }
        if let Some(t) = bench(&Cand::Hier(n1)) {
            let choice = ForwardImpl::Hier { n1 };
            if best_hier.as_ref().is_none_or(|(_, b)| t < *b) {
                best_hier = Some((choice, t));
            }
            if auto.as_ref().is_none_or(|(_, b)| t < *b) {
                auto = Some((choice, t));
            }
        }
    }
    if forced.is_none() && persisted.is_none() {
        if let (Some(path), Some((ForwardImpl::Hier { n1 }, _))) =
            (calib_path.as_deref(), best_hier.as_ref())
        {
            ntt_core::calibration::store_hier_split(path, n, fp, (*n1, n / n1));
        }
    }
    ShapeChoice {
        auto: auto.map_or(ForwardImpl::Radix2, |(c, _)| c),
        best_smem: best_smem.map_or(ForwardImpl::Radix2, |(c, _)| c),
        best_hier: best_hier.map_or(ForwardImpl::Radix2, |(c, _)| c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt_core::backend::{
        BackendOp as Op, CpuBackend, Evaluator, LimbBatch, NttBackend, PolyView,
    };
    use ntt_core::{RnsPoly, RnsRing};

    fn ring(n: usize, np: usize) -> RnsRing {
        RnsRing::new(n, ntt_math::ntt_primes(59, 2 * n as u64, np)).unwrap()
    }

    fn sample(ring: &RnsRing, seed: i64) -> RnsPoly {
        let coeffs: Vec<i64> = (0..ring.degree() as i64)
            .map(|i| (seed.wrapping_mul(i + 3) % 97) - 48)
            .collect();
        RnsPoly::from_i64_coeffs(ring, &coeffs)
    }

    #[test]
    fn sim_matches_cpu_on_every_trait_op() {
        let ring = ring(32, 3);
        let plan = RingPlan::new(&ring);
        let a = sample(&ring, 5);
        let b = sample(&ring, 11);

        let mut cpu = CpuBackend::default();
        let mut sim = SimBackend::titan_v();

        // forward
        let (mut fc, mut fs) = (a.clone(), a.clone());
        cpu.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut fc)));
        sim.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut fs)));
        assert_eq!(fc.flat(), fs.flat(), "forward");

        // pointwise on the transformed rows
        let (mut pc, mut ps) = (fc.clone(), fs.clone());
        cpu.run(
            &plan,
            Op::PointwiseBatch {
                acc: LimbBatch::from_poly(&mut pc),
                rhs: fc.flat(),
            },
        );
        sim.run(
            &plan,
            Op::PointwiseBatch {
                acc: LimbBatch::from_poly(&mut ps),
                rhs: fs.flat(),
            },
        );
        assert_eq!(pc.flat(), ps.flat(), "pointwise");

        // inverse
        cpu.run(&plan, Op::InverseBatch(LimbBatch::from_poly(&mut pc)));
        sim.run(&plan, Op::InverseBatch(LimbBatch::from_poly(&mut ps)));
        assert_eq!(pc.flat(), ps.flat(), "inverse");

        // fused multiply
        let (mut mc, mut ms) = (RnsPoly::zero(&ring), RnsPoly::zero(&ring));
        cpu.run(
            &plan,
            Op::MultiplyBatch {
                a: a.flat(),
                b: b.flat(),
                out: LimbBatch::from_poly(&mut mc),
            },
        );
        sim.run(
            &plan,
            Op::MultiplyBatch {
                a: a.flat(),
                b: b.flat(),
                out: LimbBatch::from_poly(&mut ms),
            },
        );
        assert_eq!(mc.flat(), ms.flat(), "multiply");
    }

    #[test]
    fn sim_evaluator_multiplies_correctly() {
        let ring = ring(16, 2);
        let mut ev = Evaluator::with_backend(&ring, Box::new(SimBackend::titan_v()));
        assert_eq!(ev.backend_name(), "gpu-sim");
        // (1 + 2x)(3 + x) = 3 + 7x + 2x^2
        let a = RnsPoly::from_i64_coeffs(&ring, &[1, 2]);
        let b = RnsPoly::from_i64_coeffs(&ring, &[3, 1]);
        let c = ev.multiply(&a, &b);
        assert_eq!(c.coefficient_centered(&ring, 0), Some(3));
        assert_eq!(c.coefficient_centered(&ring, 1), Some(7));
        assert_eq!(c.coefficient_centered(&ring, 2), Some(2));
    }

    #[test]
    fn stacked_digit_batch_matches_cpu() {
        // The key-switch shape: 2 polynomials of `level` limbs stacked in
        // one buffer — prime mapping r % level must hold on both backends.
        let ring = ring(16, 3);
        let plan = RingPlan::new(&ring);
        let x = sample(&ring, 7);
        let y = sample(&ring, 13);
        let mut host: Vec<u64> = [x.flat(), y.flat()].concat();
        let mut host_sim = host.clone();
        let mut cpu = CpuBackend::default();
        let mut sim = SimBackend::titan_v();
        cpu.run(&plan, Op::ForwardBatch(LimbBatch::new(&mut host, 16, 3)));
        sim.run(
            &plan,
            Op::ForwardBatch(LimbBatch::new(&mut host_sim, 16, 3)),
        );
        assert_eq!(host, host_sim);
    }

    #[test]
    fn tables_upload_once_per_plan() {
        let ring = ring(16, 2);
        let plan = RingPlan::new(&ring);
        let mut sim = SimBackend::titan_v();
        let mut x = sample(&ring, 3);
        sim.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut x)));
        let after_first = sim.with_gpu(|g| g.gmem.allocated_words());
        sim.run(&plan, Op::InverseBatch(LimbBatch::from_poly(&mut x)));
        sim.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut x)));
        assert_eq!(
            sim.with_gpu(|g| g.gmem.allocated_words()),
            after_first,
            "repeat calls must reuse device tables and data buffers"
        );
    }

    #[test]
    fn alternating_ring_degrees_stay_exact_in_bounded_memory() {
        // One device serves any plan: switching ring degree re-uploads
        // the plan tables (returning the previous plan's buffers to the
        // free list), results stay bit-exact with the CPU, and the
        // address space stops growing after the first round. N = 16 and
        // 32 run whole rows (one `smem-k1-{N}` launch per direction, no
        // OT); N = 2^11 and 2^13 route to SMEM with OT in both
        // directions, so their ψ and ψ⁻¹ factor tables are freed on every
        // plan change too.
        let rings = [ring(16, 2), ring(32, 3), ring(1 << 11, 2), ring(1 << 13, 2)];
        let plans = rings.each_ref().map(RingPlan::new);
        let mut sim = SimBackend::titan_v();
        let mut cpu = CpuBackend::default();
        let mut after_first = None;
        for round in 0..8i64 {
            for (ring, plan) in rings.iter().zip(&plans) {
                let n = ring.degree();
                let (a, b) = (sample(ring, 3 + round), sample(ring, 7 + round));
                let (mut fc, mut fs) = (a.clone(), a.clone());
                cpu.run(plan, Op::ForwardBatch(LimbBatch::from_poly(&mut fc)));
                sim.run(plan, Op::ForwardBatch(LimbBatch::from_poly(&mut fs)));
                assert_eq!(fc.flat(), fs.flat(), "forward N={n} round {round}");
                let (mut mc, mut ms) = (RnsPoly::zero(ring), RnsPoly::zero(ring));
                cpu.run(
                    plan,
                    Op::MultiplyBatch {
                        a: a.flat(),
                        b: b.flat(),
                        out: LimbBatch::from_poly(&mut mc),
                    },
                );
                sim.run(
                    plan,
                    Op::MultiplyBatch {
                        a: a.flat(),
                        b: b.flat(),
                        out: LimbBatch::from_poly(&mut ms),
                    },
                );
                assert_eq!(mc.flat(), ms.flat(), "multiply N={n} round {round}");
                // The resident path through the same plan switch.
                let (mem, level) = (sim.memory(), plan.np());
                let buf = mem.lock().unwrap().alloc(a.flat().len());
                mem.lock().unwrap().upload(buf, a.flat());
                let views = [PolyView::new(buf, 0..level)];
                sim.run(
                    plan,
                    Op::Forward {
                        views: &views,
                        fold: None,
                    },
                );
                let mut got = vec![0u64; a.flat().len()];
                mem.lock().unwrap().download(buf, &mut got);
                assert_eq!(got, fc.flat(), "resident forward N={n} round {round}");
                sim.run(plan, Op::Inverse { views: &views });
                mem.lock().unwrap().download(buf, &mut got);
                mem.lock().unwrap().free(buf);
                assert_eq!(got, a.flat(), "resident inverse N={n} round {round}");
                // The route: the inverse ran the SMEM kernels, at the
                // forward's split, whose OT tables exist.
                let shard = sim.memory_handle();
                let dev = lock_mem(&shard);
                let last = &dev.gpu().trace.last().expect("launched").launch.label;
                let ot = dev.tables.as_ref().expect("tables uploaded").ot.is_some();
                let smem = last.starts_with("smem-k1-") && last.ends_with("-inv");
                assert_eq!((smem, ot), (true, n >= 1 << 11), "N={n}: {last}");
            }
            let words = sim.with_gpu(|g| g.gmem.allocated_words());
            match after_first {
                None => after_first = Some(words),
                Some(w) => assert_eq!(words, w, "round {round} grew the address space"),
            }
        }
    }

    #[test]
    fn host_batch_calls_pay_roundtrip_transfers() {
        // The pre-residency behavior, now *measured*: every host-batch
        // trait call costs one upload and one download.
        let ring = ring(16, 2);
        let plan = RingPlan::new(&ring);
        let mut sim = SimBackend::titan_v();
        let mut x = sample(&ring, 3);
        sim.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut x)));
        let t0 = sim.transfer_stats();
        sim.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut x)));
        let dt = sim.transfer_stats().since(&t0);
        assert_eq!(dt.uploads, 1);
        assert_eq!(dt.downloads, 1);
    }

    #[test]
    fn smem_routing_matches_radix2_and_cpu() {
        // Above the SMEM floor the forward path routes through the
        // two-kernel implementation; results must stay bit-exact with the
        // radix-2 route and the CPU reference.
        let ring = ring(512, 2);
        let plan = RingPlan::new(&ring);
        let x = sample(&ring, 21);

        let mut cpu = CpuBackend::default();
        let mut fc = x.clone();
        cpu.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut fc)));

        let mut sim = SimBackend::titan_v();
        let mut fs = x.clone();
        sim.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut fs)));
        assert_eq!(fc.flat(), fs.flat(), "auto-routed forward");

        // The auto route above the floor must actually be SMEM: its trace
        // contains the two smem kernels rather than log2(N) stage
        // launches.
        let launches: Vec<String> =
            sim.with_gpu(|g| g.trace.iter().map(|l| l.launch.label.clone()).collect());
        assert!(
            launches.iter().any(|l| l.starts_with("smem-k1-")),
            "expected smem routing in {launches:?}"
        );
    }

    #[test]
    fn forked_backends_share_device_memory_and_tables() {
        let ring = ring(16, 2);
        let plan = RingPlan::new(&ring);
        let mut sim = SimBackend::titan_v();
        let mut x = sample(&ring, 3);
        sim.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut x)));
        let words = sim.with_gpu(|g| g.gmem.allocated_words());
        let mut forked = sim.fork();
        assert!(ntt_core::backend::same_memory(
            &sim.memory(),
            &forked.memory()
        ));
        // The fork reuses the shared tables (no re-upload) but allocates
        // its own staging buffer.
        let mut y = sample(&ring, 4);
        forked.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut y)));
        let words_after = sim.with_gpu(|g| g.gmem.allocated_words());
        assert_eq!(words_after, words + x.flat().len());
    }

    #[test]
    fn resident_elementwise_ops_match_cpu_reference() {
        let ring = ring(32, 3);
        let mut sim_ev = Evaluator::with_backend(&ring, Box::new(SimBackend::titan_v()));
        let mut cpu_ev = Evaluator::cpu(&ring);
        let a = sample(&ring, 9);
        let b = sample(&ring, 17);

        let (mut ca, mut cb) = (a.clone(), b.clone());
        cpu_ev.to_evaluation(&mut ca);
        cpu_ev.to_evaluation(&mut cb);
        cpu_ev.mul_pointwise(&mut ca, &cb);
        cpu_ev.add_assign(&mut ca, &cb);
        cpu_ev.sub_assign(&mut ca, &cb);
        cpu_ev.negate(&mut ca);
        cpu_ev.to_coefficient(&mut ca);

        let (mut sa, mut sb) = (a.clone(), b.clone());
        sim_ev.make_resident(&mut sa);
        sim_ev.make_resident(&mut sb);
        // Warm-up round trip: uploads the plan tables (the one-time part
        // of the "initial upload") before the steady-state window opens.
        sim_ev.to_evaluation(&mut sa);
        sim_ev.to_coefficient(&mut sa);
        let before = sim_ev.transfer_stats();
        sim_ev.to_evaluation(&mut sa);
        sim_ev.to_evaluation(&mut sb);
        sim_ev.mul_pointwise(&mut sa, &sb);
        sim_ev.add_assign(&mut sa, &sb);
        sim_ev.sub_assign(&mut sa, &sb);
        sim_ev.negate(&mut sa);
        sim_ev.to_coefficient(&mut sa);
        assert_eq!(
            sim_ev.transfer_stats().since(&before).host_transfers(),
            0,
            "resident chain crosses the bus"
        );
        sa.sync();
        assert_eq!(sa, ca);
    }

    #[test]
    fn resident_automorphism_matches_host() {
        let ring = ring(32, 3);
        for g in [1u64, 3, 5, 63, 2 * 32 - 1] {
            let x = sample(&ring, 27);
            let mut cpu_ev = Evaluator::cpu(&ring);
            let mut host = x.clone();
            cpu_ev.automorphism(&mut host, g);
            let mut ev = Evaluator::with_backend(&ring, Box::new(SimBackend::titan_v()));
            let mut dev = x.clone();
            ev.make_resident(&mut dev);
            // Warm-up: uploads the plan tables (the one-time part of the
            // "initial upload") before the steady-state window opens.
            ev.automorphism(&mut dev, 1);
            let before = ev.transfer_stats();
            ev.automorphism(&mut dev, g);
            assert_eq!(
                ev.transfer_stats().since(&before).host_transfers(),
                0,
                "resident automorphism crosses the bus (g={g})"
            );
            dev.sync();
            assert_eq!(dev, host, "g={g}");
        }
    }

    #[test]
    fn resident_modraise_matches_host() {
        let ring = ring(32, 4);
        let x = sample(&ring, 41);
        let mut cpu_ev = Evaluator::cpu(&ring);
        let mut low = x.clone();
        cpu_ev.drop_level(&mut low, 1);
        let mut host_low = low.clone();
        let host = cpu_ev.mod_raise(&mut [&mut host_low], 4).remove(0);

        let mut ev = Evaluator::with_backend(&ring, Box::new(SimBackend::titan_v()));
        let mut dev_low = low.clone();
        ev.make_resident(&mut dev_low);
        // Warm-up launch uploads the plan tables before the window opens.
        ev.automorphism(&mut dev_low, 1);
        let before = ev.transfer_stats();
        let mut dev = ev.mod_raise(&mut [&mut dev_low], 4).remove(0);
        assert_eq!(
            ev.transfer_stats().since(&before).host_transfers(),
            0,
            "resident mod-raise crosses the bus"
        );
        dev.sync();
        assert_eq!(dev, host);
    }

    #[test]
    fn resident_rescale_matches_host() {
        let ring = ring(32, 3);
        let mut ev = Evaluator::with_backend(&ring, Box::new(SimBackend::titan_v()));
        let x = sample(&ring, 31);
        let mut host = x.clone();
        host.rescale(&ring);
        let mut dev = x.clone();
        ev.make_resident(&mut dev);
        ev.rescale(&mut dev);
        dev.sync();
        assert_eq!(dev, host);
    }

    /// A backend with the forward route pinned to the hierarchical
    /// implementation for one shape (bypasses the process-global
    /// `NTT_WARP_SIM_FORWARD` OnceLock so tests stay independent).
    fn hier_pinned(n: usize, n1: usize) -> SimBackend {
        let sim = SimBackend::titan_v();
        let choice = ForwardImpl::Hier { n1 };
        sim.split_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(
                n,
                ShapeChoice {
                    auto: choice,
                    best_smem: choice,
                    best_hier: choice,
                },
            );
        sim
    }

    #[test]
    fn hier_routing_matches_cpu_at_bootstrap_scale() {
        // The full trait path through the 3-kernel hierarchical plan at
        // N = 2^16 — twist upload, scratch acquire/release, forward —
        // must stay bit-exact with the CPU reference, and the trace must
        // actually contain the hier kernels.
        let n = 1 << 16;
        let ring = ring(n, 2);
        let plan = RingPlan::new(&ring);
        let x = sample(&ring, 77);

        let mut fc = x.clone();
        CpuBackend::default().run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut fc)));

        let mut sim = hier_pinned(n, 256);
        let mut fs = x.clone();
        sim.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut fs)));
        assert_eq!(fc.flat(), fs.flat(), "hier-routed forward");

        let launches: Vec<String> =
            sim.with_gpu(|g| g.trace.iter().map(|l| l.launch.label.clone()).collect());
        for k in ["hier-col-256", "hier-twt", "hier-row-256"] {
            assert!(
                launches.iter().any(|l| l == k),
                "missing {k} in {launches:?}"
            );
        }

        // And the inverse (radix-2) undoes it.
        sim.run(&plan, Op::InverseBatch(LimbBatch::from_poly(&mut fs)));
        assert_eq!(fs.flat(), x.flat(), "roundtrip through hier forward");
    }

    #[test]
    fn hier_scratch_recycling_keeps_readiness_map_bounded() {
        // Satellite (f): repeated hier forwards acquire and release the
        // transpose scratch every call. The consumed-on-acquire protocol
        // must keep the per-base readiness map bounded instead of leaking
        // one event per launch.
        let n = 1 << 12;
        let ring = ring(n, 1);
        let plan = RingPlan::new(&ring);
        let mut sim = hier_pinned(n, 64);
        let mut x = sample(&ring, 5);
        sim.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut x)));
        let shard = sim.memory_handle();
        let baseline = lock_mem(&shard).readiness_entries();
        for _ in 0..32 {
            sim.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut x)));
        }
        let after = lock_mem(&shard).readiness_entries();
        assert!(
            after <= baseline + 1,
            "readiness map grew {baseline} -> {after} across 32 hier forwards"
        );
    }

    #[test]
    fn smem_inverse_ranks_splits_like_the_forward() {
        // The inverse takes the forward's verdict instead of a sweep of
        // its own. That is sound because the mirrored inverse costs what
        // its forward costs, plus the `N⁻¹` fold, at every split: each
        // candidate's inverse is within 5% of its forward, the inverses
        // rank in the forwards' order, and the routed inverse is the
        // fastest inverse among the calibration's candidates.
        let config = GpuConfig::titan_v();
        let (log_n, rows) = (13u32, 2usize);
        let n = 1usize << log_n;
        // Modeled seconds of one transform: SMEM at `cfg`, or radix-2.
        let time = |direction: Direction, cfg: Option<&SmemConfig>| -> f64 {
            let mut mem = SimMemory::new(config.clone());
            let batch =
                crate::batch::DeviceBatch::sequential_on(&mut mem, log_n, rows, 60).unwrap();
            let gpu = mem.gpu_mut();
            let rep = match (direction, cfg) {
                (Direction::Forward, None) => crate::radix2::run(gpu, &batch, ModMul::Shoup),
                (Direction::Inverse, None) => crate::radix2::run_inverse(gpu, &batch),
                (Direction::Forward, Some(c)) => smem::run(gpu, &batch, c),
                (Direction::Inverse, Some(c)) => smem::run_inverse(gpu, &batch, c),
            };
            rep.total_s()
        };
        // (route, forward s, inverse s) for radix-2 and every feasible split.
        let mut cands = vec![(
            ForwardImpl::Radix2,
            time(Direction::Forward, None),
            time(Direction::Inverse, None),
        )];
        for n1 in (1..log_n).map(|k| 1usize << k) {
            for ot_stages in [0u32, 2] {
                let cfg = SmemConfig::new(n1).ot_stages(ot_stages);
                if (1usize << ot_stages) > n / n1 || !smem::job_feasible(n, &cfg, &config) {
                    continue;
                }
                let (fwd, inv) = (
                    time(Direction::Forward, Some(&cfg)),
                    time(Direction::Inverse, Some(&cfg)),
                );
                assert!(
                    inv <= 1.05 * fwd,
                    "{}: {inv:e} s vs {fwd:e} s",
                    cfg.label(n)
                );
                cands.push((ForwardImpl::Smem { n1, ot_stages }, fwd, inv));
            }
        }
        assert!(cands.len() > 20, "sweep covers the splits: {cands:?}");
        let order = |key: fn(&(ForwardImpl, f64, f64)) -> f64| -> Vec<ForwardImpl> {
            let mut sorted = cands.clone();
            sorted.sort_by(|a, b| key(a).total_cmp(&key(b)));
            sorted.into_iter().map(|c| c.0).collect()
        };
        assert_eq!(order(|c| c.1), order(|c| c.2), "rank order differs");

        let choice = calibrate_forward_choice(&config, n, rows);
        let routed = match choice.auto {
            ForwardImpl::Hier { .. } => choice.best_smem,
            other => other,
        };
        let fastest = cands
            .iter()
            .filter(|c| match c.0 {
                ForwardImpl::Smem { n1, .. } => SmemConfig::paper_splits(log_n).contains(&n1),
                _ => true,
            })
            .min_by(|a, b| a.2.total_cmp(&b.2))
            .map(|c| c.0);
        assert_eq!(Some(routed), fastest, "verdict {choice:?}");
    }

    #[test]
    fn auto_calibration_includes_hier_candidates() {
        // The sweep itself (no pin, no env): calibrating a large shape
        // must produce a feasible hierarchical winner in `best_hier` and
        // leave `auto` pointing at *some* modeled-time winner that stays
        // bit-exact (checked via the normal forward path).
        let config = GpuConfig::titan_v();
        let n = 1 << 13;
        let choice = calibrate_forward_choice(&config, n, 2);
        match choice.best_hier {
            ForwardImpl::Hier { n1 } => {
                assert!(n1.is_power_of_two() && n1 >= 2 && n1 <= n / 2);
            }
            other => panic!("expected a hier split for N=2^13, got {other:?}"),
        }

        let ring = ring(n, 2);
        let plan = RingPlan::new(&ring);
        let x = sample(&ring, 19);
        let mut fc = x.clone();
        CpuBackend::default().run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut fc)));
        let mut sim = SimBackend::titan_v();
        let mut fs = x.clone();
        sim.run(&plan, Op::ForwardBatch(LimbBatch::from_poly(&mut fs)));
        assert_eq!(fc.flat(), fs.flat(), "auto-routed forward at N=2^13");
    }
}
