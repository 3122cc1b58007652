//! `SimBackend`: the simulated-GPU implementation of
//! [`ntt_core::backend::NttBackend`] on one device, and the device layer
//! every simulated backend runs on.
//!
//! [`SimBackend`] is the `K = 1` instance of [`SimDevices`], the one
//! implementation the multi-device [`crate::ShardedBackend`] is the
//! `K`-device instance of — two constructors, one body (see
//! [`crate::sharded`]). This module holds what a single device owns: the
//! [`SimMemory`] shard (GMEM, launch trace, stream scheduler, handle map,
//! plan tables, readiness events), the transform's split sweep, and the
//! row-local kernels (element-wise ops, FMA, automorphism).
//!
//! Every trait call executes on the `gpu-sim` substrate — data really
//! moves through simulated GMEM, twiddles stream through the read-only
//! cache path as per-stage `(value, companion)` slice-pairs, and the
//! launch trace keeps the paper's traffic accounting. Each kernel entry
//! point (the SMEM transform job, the element-wise, FMA and automorphism
//! launches) runs through the device's launch memo (the crate's `memo`
//! module), keyed by the kernel's parameters and the layout of its
//! operand rows.
//! A **miss** runs the warp kernels and keeps their launch records; a
//! **hit** computes the same outputs natively over the same GMEM rows with
//! `ntt-core`'s `host_*_rows` functions and
//! [`NttExecutor::transform_rows_under`], and replays the kept records
//! through [`Gpu::replay`], so the trace, the stream timeline and every
//! modeled number are those of simulating it. Outputs are
//! **bit-identical** to [`ntt_core::backend::CpuBackend`] (pinned by
//! `tests/backend_conformance.rs` and `tests/residency.rs`).
//!
//! Three layers of device state:
//!
//! * **Tables** upload once per plan (re-uploaded only when the plan
//!   changes) and are shared by every fork of the backend.
//! * **Host-batch staging** (the `*Batch` variants of [`BackendOp`])
//!   uploads each operand into one of the executor's two grow-only
//!   staging allocations, runs the batch's device op over them and
//!   downloads the rows: one upload per operand and one download per
//!   call, all charged to the [`gpu_sim::Gmem`] transfer ledger, which is
//!   exactly the per-call round-trip the residency layer exists to
//!   remove. The executor frees its staging when it drops.
//! * **Device-resident execution** (the device [`BackendOp`]s over
//!   [`DeviceBuf`] handles) runs whole pipelines on buffers that live in
//!   simulated GMEM: forward/inverse NTTs over several polynomials per
//!   launch, element-wise ring ops, FMA and automorphism, with **zero**
//!   host↔device transfers. The producers of a forward's rows ride its
//!   SMEM kernels instead of launching on their own: gadget digit
//!   decomposition and the one-source-prime RNS lift (a rescale's, a
//!   mod-raise's) are folded into the first kernel's load, and a
//!   rescale's subtract-and-scale into the last kernel's store, so no
//!   digit or lifted row is ever stored. Every kernel a backend op
//!   launches takes one shape of operand, a per-row address table
//!   (`crate::rows`): one table of the rows it writes and one per read
//!   operand, filled by one per-shard dispatcher for every device op (see
//!   [`crate::sharded`]). So one launch can cover rows of separate
//!   allocations.
//!
//! Every transform runs the SMEM family the paper's Table II favors, at
//! one split per ring degree `N` that depends on `N` and the device model
//! alone:
//!
//! * rows below 256 points run whole, several per block, in one packed
//!   launch per direction (the degenerate `N × 1` split, no sweep); their
//!   strided level's GMEM access (the forward's store, the inverse's
//!   load) goes through a cooperative SMEM tile, so it stays coalesced;
//! * longer rows take the two-kernel split (OT on 0 or 2 stages) with the
//!   minimum *modeled* time over the Fig. 12(a) candidates, swept once
//!   per `N` on one row of a scratch device and cached, so the verdict is
//!   deterministic and does not depend on which call came first.
//!
//! An inverse runs the mirrored SMEM kernels at its forward's split, with
//! no sweep of its own: the mirrored inverse ranks the splits as the
//! forward does. The radix-2 and hierarchical kernels ([`crate::radix2`],
//! [`crate::hier`]) stay as the Table II and figure harnesses; no
//! backend op routes to them.
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
//! staging included, never consults the plan, which keeps split sweeps
//! and the figure harness fault-free.
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
//! * Shape `assert!`s on op entry (a forward's `Load`, `PointwiseBatch`) —
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
use crate::memo::{element_adjacency, Entry, KeyBuilder, LaunchMemo, MemoStats};
use crate::ot::DeviceOt;
use crate::rows::{LoadRows, RowTable};
use crate::sharded::{ShardedMemory, SimDevices, Single};
use crate::smem::{self, Direction, Folds, SmemConfig, SmemJob};
use gpu_sim::{
    Buf, Event, Gmem, Gpu, GpuConfig, LaunchConfig, OpClass, Stream, WarpCtx, WarpKernel,
};
use ntt_core::backend::{
    host_addsub_rows, host_automorphism_rows, host_fma_rows, host_negate_rows, host_pointwise_rows,
    host_sub_scale_rows, BackendError, DeviceBuf, DeviceMemory, RingPlan, TransferStats,
};
#[cfg(doc)]
use ntt_core::backend::{BackendOp, NttBackend};
use ntt_core::{NttExecutor, ThreadPolicy};
use ntt_math::modops::{add_mod, mul_mod, neg_mod, sub_mod};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Threads per block for the element-wise kernels.
pub(crate) const THREADS: usize = 256;

/// Rows shorter than this run whole, several per block, in one SMEM
/// launch per direction — the degenerate `N × 1` split, chosen from `N`
/// alone with no sweep: a two-kernel split needs enough columns per
/// kernel to fill its blocks, and the packed row kernel models no slower
/// than radix-2 or any split or hierarchical candidate at every
/// `4 ≤ N < 256` (pinned by the
/// `smem::tests::whole_rows_beat_every_candidate_*` tests; at `N = 2`
/// there is nothing to split). Longer rows take the swept [`best_split`].
pub(crate) const SMEM_MIN_N: usize = 256;

/// Device-resident twiddle tables for one plan (shared by all forks).
struct DevTables {
    n: usize,
    primes: Vec<u64>,
    tw: Buf,
    twc: Buf,
    itw: Buf,
    itwc: Buf,
    /// Cached OT factor tables over `ψ` and `ψ⁻¹`, built together on the
    /// first OT-routed transform, so the first inverse after a warm-up
    /// forward uploads nothing.
    ot: Option<[DeviceOt; 2]>,
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
    /// The records of the launches this device simulated, by launch key
    /// (see [`crate::memo`]).
    memo: LaunchMemo,
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
            memo: LaunchMemo::default(),
        }
    }

    /// The launch memo's counters: launches computed natively and
    /// replayed, launches simulated, and keys held (at most
    /// [`crate::MEMO_CAP`]).
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
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

    /// Borrow a scratch buffer for one operand gathered across shards:
    /// a released one of the same size, else a fresh GMEM
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

/// Element-wise warp kernels over row tables: one thread per element, each
/// row reduced mod its prime.
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
    /// The rows updated in place.
    a: &'a RowTable,
    /// Per row of `a`, the right-hand row (`None` for a negation).
    b: Option<&'a RowTable>,
    n: usize,
    moduli: &'a [u64],
}

impl WarpKernel for ElemwiseKernel<'_> {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let total = self.a.len() * self.n;
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
            prime[l] = self.a.prime(gt / self.n);
            addr_a[l] = Some(self.a.flat_word(self.n, gt));
            if let Some(b) = self.b {
                addr_b[l] = Some(b.flat_word(self.n, gt));
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
    /// The rows of every accumulator.
    acc: &'a RowTable,
    /// The factor pairs, `[x_0, y_0, x_1, y_1, …]`, each holding per
    /// accumulator row the row it reads.
    terms: &'a [RowTable],
    n: usize,
    moduli: &'a [u64],
}

impl WarpKernel for FmaKernel<'_> {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let total = self.acc.len() * self.n;
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
            prime[l] = self.moduli[self.acc.prime(gt / self.n)];
        }
        if active == 0 {
            return;
        }
        let addrs = |rows: &RowTable| -> Vec<Option<usize>> {
            elem.iter()
                .map(|gt| gt.map(|g| rows.flat_word(self.n, g)))
                .collect()
        };
        let addr_acc = addrs(self.acc);
        let mut sum = ctx.gmem_load(&addr_acc);
        for pair in self.terms.chunks_exact(2) {
            let (x, y) = ctx.gmem_load2(&addrs(&pair[0]), &addrs(&pair[1]));
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
    /// Per destination row, its source row.
    src: &'a RowTable,
    dst: &'a RowTable,
    n: usize,
    /// Galois element already reduced mod `2N`.
    g: u64,
    moduli: &'a [u64],
}

impl WarpKernel for AutomorphismKernel<'_> {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let total = self.dst.len() * self.n;
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
            prime[l] = self.dst.prime(r);
            let idx = (i as u64 * self.g) % two_n;
            wrap[l] = idx >= self.n as u64;
            let t = if wrap[l] {
                idx as usize - self.n
            } else {
                idx as usize
            };
            addr_s[l] = Some(self.src.flat_word(self.n, gt));
            addr_d[l] = self.dst.word(r, t);
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
    // Plan change: return the previous plan's table (and OT) buffers to
    // the free list before uploading the new ones, so alternating between
    // rings does not grow the simulated address space without bound.
    if let Some(old) = m.tables.take() {
        for buf in [old.tw, old.twc, old.itw, old.itwc] {
            m.gpu.gmem.free(buf);
        }
        for ot in old.ot.into_iter().flatten() {
            ot.free(&mut m.gpu);
        }
    }
    let np = plan.np();
    let mut tw = Vec::with_capacity(np * n);
    let mut twc = Vec::with_capacity(np * n);
    let mut itw = Vec::with_capacity(np * n);
    let mut itwc = Vec::with_capacity(np * n);
    for i in 0..np {
        let t = plan.table(i);
        tw.extend_from_slice(t.forward_values());
        twc.extend_from_slice(t.forward_companions());
        itw.extend_from_slice(t.inverse_values());
        itwc.extend_from_slice(t.inverse_companions());
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
        ot: None,
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

/// Launch a forward NTT over `rows` at `split` ([`best_split`]): two SMEM
/// kernels, or one over whole rows. With a `load`, the first kernel reads
/// each row from the load's source; with a `dropped` prime `d`, the last
/// kernel's store folds the transform into the rows' own words as
/// `(x − t)·p_d⁻¹` (a rescale's subtract-and-scale).
pub(crate) fn run_forward(
    m: &mut SimMemory,
    plan: &RingPlan,
    rows: &RowTable,
    split: SmemConfig,
    load: Option<&LoadRows>,
    dropped: Option<usize>,
) {
    // A split's folded store reads the rows' words in its second kernel,
    // so its first kernel stores into scratch instead of over them.
    let n = plan.degree();
    let scratch = (dropped.is_some() && split.n1 < n).then(|| m.acquire_scratch(rows.len() * n));
    let mid = scratch.map(|buf| RowTable::contiguous(buf, n, rows.primes()));
    let folds = Folds {
        load,
        dropped,
        mid: mid.as_ref(),
    };
    run_smem(m, plan, rows, split, Direction::Forward, folds);
    if let Some(buf) = scratch {
        m.release_scratch(buf);
    }
}

/// Launch an inverse NTT over `rows`: the forward's `split` mirrored, OT
/// included and `N⁻¹` folded into the last store — two kernels, or for
/// whole rows (`n1 = N`) the one `smem-k1-{N}-inv` launch.
pub(crate) fn run_inverse(m: &mut SimMemory, plan: &RingPlan, rows: &RowTable, split: SmemConfig) {
    run_smem(m, plan, rows, split, Direction::Inverse, Folds::default());
}

/// Launch the SMEM kernels of `cfg` in `direction` over the plan's table
/// of that direction, with a forward's `folds`, through the launch memo.
fn run_smem(
    m: &mut SimMemory,
    plan: &RingPlan,
    rows: &RowTable,
    cfg: SmemConfig,
    direction: Direction,
    folds: Folds<'_>,
) {
    let ot = (cfg.ot_stages > 0).then(|| ensure_ot(m, plan, cfg.ot_base, direction));
    let SimMemory {
        gpu, tables, memo, ..
    } = m;
    let t = tables.as_ref().expect("tables uploaded");
    let tw = match direction {
        Direction::Forward => (t.tw, t.twc),
        Direction::Inverse => (t.itw, t.itwc),
    };
    // Whole rows pack several rows into each warp; a split's warps stay
    // in one row.
    let key = KeyBuilder::new(Entry::Smem, cfg.n1 == t.n)
        .scalar(direction as u64)
        .scalars(&[
            cfg.n1 as u64,
            cfg.per_thread as u64,
            u64::from(cfg.coalesced),
            u64::from(cfg.preload),
            u64::from(cfg.ot_stages),
            cfg.ot_base as u64,
            cfg.modmul as u64,
        ])
        .scalars(&t.primes)
        .rows(rows)
        .span(tw.0)
        .span(tw.1);
    let key = match &ot {
        Some(o) => [o.lo_w, o.lo_c, o.hi_w, o.hi_c].into_iter().fold(
            key.scalars(&[o.base as u64, o.lo_len as u64, o.hi_len as u64]),
            KeyBuilder::span,
        ),
        None => key.scalar(0),
    };
    let key = match folds.load {
        Some(load) => load.key(key.scalar(1)),
        None => key.scalar(0),
    }
    .scalar(folds.dropped.map_or(0, |d| d as u64 + 1))
    .opt_rows(folds.mid);
    let job = SmemJob {
        folds,
        ..SmemJob::new(rows, t.n, tw, &t.primes)
    };
    memo.run(
        gpu,
        key,
        rows,
        |gpu| {
            smem::launch_job(gpu, &job, &cfg, ot.as_ref(), direction);
        },
        |gmem| transform_natively(gmem, plan, &job, direction),
    );
}

/// A memo hit's SMEM job on the CPU engine: each row loaded (through
/// the job's load), transformed under its prime
/// ([`NttExecutor::transform_rows_under`]) and stored (through the
/// rescale's fold, [`host_sub_scale_rows`]), in place over GMEM.
fn transform_natively(gmem: &mut Gmem, plan: &RingPlan, job: &SmemJob<'_>, direction: Direction) {
    let mut exec = NttExecutor::new(ThreadPolicy::Single);
    let rows = job.rows;
    for r in 0..rows.len() {
        let p = rows.prime(r);
        let mut row = match job.folds.load {
            Some(load) => load.host_row(plan, r, gmem.slice(load.src.row(r)), p),
            None => gmem.slice(rows.row(r)).to_vec(),
        };
        let forward = direction == Direction::Forward;
        exec.transform_rows_under(plan.ring(), p..p + 1, &mut row, forward);
        let out = gmem.slice_mut(rows.row(r));
        match job.folds.dropped {
            Some(d) => host_sub_scale_rows(plan, p..p + 1, d, out, &row),
            None => out.copy_from_slice(&row),
        }
    }
}

/// Launch one element-wise kernel over the rows of `a`, each paired
/// with its row of `b`, through the launch memo: a hit runs the CPU row
/// function of `op` on each row under its prime.
pub(crate) fn launch_elemwise(
    m: &mut SimMemory,
    plan: &RingPlan,
    op: ElemOp,
    a: &RowTable,
    b: Option<&RowTable>,
) {
    let SimMemory {
        gpu, tables, memo, ..
    } = m;
    let t = tables.as_ref().expect("tables uploaded");
    let kernel = ElemwiseKernel {
        op,
        a,
        b,
        n: t.n,
        moduli: &t.primes,
    };
    let key = KeyBuilder::new(Entry::Elemwise, element_adjacency(t.n))
        .scalar(op as u64)
        .scalar(t.n as u64)
        .scalars(&t.primes)
        .rows(a)
        .opt_rows(b);
    memo.run(
        gpu,
        key,
        a,
        |gpu| launch_rows(gpu, op.label(), a.len() * t.n, &kernel),
        |gmem| {
            let ring = plan.ring();
            for r in 0..a.len() {
                let (p, rhs) = (a.prime(r), b.map(|b| gmem.slice(b.row(r)).to_vec()));
                let row = gmem.slice_mut(a.row(r));
                match (op, rhs.as_deref()) {
                    (ElemOp::Mul, Some(y)) => host_pointwise_rows(plan, p..p + 1, row, y),
                    (ElemOp::Add, Some(y)) => host_addsub_rows(ring, p..p + 1, row, y, false),
                    (ElemOp::Sub, Some(y)) => host_addsub_rows(ring, p..p + 1, row, y, true),
                    (ElemOp::Neg, None) => host_negate_rows(ring, p..p + 1, row),
                    _ => unreachable!("a binary op reads a right-hand side, a negation none"),
                }
            }
        },
    );
}

/// Launch one multi-term FMA kernel over the rows of `acc`, `terms`
/// holding each term's `[x_k, y_k]` pair back to back, through the launch
/// memo: a hit accumulates each row's terms with the CPU row function.
pub(crate) fn launch_fma(m: &mut SimMemory, plan: &RingPlan, acc: &RowTable, terms: &[RowTable]) {
    let SimMemory {
        gpu, tables, memo, ..
    } = m;
    let t = tables.as_ref().expect("tables uploaded");
    let kernel = FmaKernel {
        acc,
        terms,
        n: t.n,
        moduli: &t.primes,
    };
    let key = KeyBuilder::new(Entry::Fma, element_adjacency(t.n))
        .scalar(t.n as u64)
        .scalars(&t.primes)
        .rows(acc)
        .scalar(terms.len() as u64);
    let key = terms.iter().fold(key, KeyBuilder::rows);
    memo.run(
        gpu,
        key,
        acc,
        |gpu| launch_rows(gpu, "sim-fma", acc.len() * t.n, &kernel),
        |gmem| {
            // Every factor is read before the row is written, as each
            // warp of the kernel loads all its terms before its store.
            for r in 0..acc.len() {
                let (p, mut sum) = (acc.prime(r), gmem.slice(acc.row(r)).to_vec());
                for pair in terms.chunks_exact(2) {
                    let (x, y) = (gmem.slice(pair[0].row(r)), gmem.slice(pair[1].row(r)));
                    host_fma_rows(plan, p..p + 1, &mut sum, x, y);
                }
                gmem.slice_mut(acc.row(r)).copy_from_slice(&sum);
            }
        },
    );
}

/// Launch the Galois automorphism kernel from `src` into the rows of
/// `dst` (`X → X^g`, `g` already reduced mod `2N`), through the launch
/// memo. The permutation is row-local — each row of `dst` depends only on
/// its row of `src` — which is what lets the sharded backend run it
/// shard-parallel, and a hit permute row by row on the CPU.
pub(crate) fn launch_automorphism(
    m: &mut SimMemory,
    plan: &RingPlan,
    src: &RowTable,
    dst: &RowTable,
    g: u64,
) {
    let SimMemory {
        gpu, tables, memo, ..
    } = m;
    let t = tables.as_ref().expect("tables uploaded");
    let kernel = AutomorphismKernel {
        src,
        dst,
        n: t.n,
        g,
        moduli: &t.primes,
    };
    let key = KeyBuilder::new(Entry::Automorphism, element_adjacency(t.n))
        .scalar(t.n as u64)
        .scalar(g)
        .scalars(&t.primes)
        .rows(src)
        .rows(dst);
    memo.run(
        gpu,
        key,
        dst,
        |gpu| launch_rows(gpu, "sim-automorphism", dst.len() * t.n, &kernel),
        |gmem| {
            for r in 0..dst.len() {
                let (p, row) = (dst.prime(r), gmem.slice(src.row(r)).to_vec());
                host_automorphism_rows(plan, p..p + 1, g, &row, gmem.slice_mut(dst.row(r)));
            }
        },
    );
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

/// The SMEM configuration of every `n`-point transform, `n ≥ 2`, in both
/// directions: whole rows (`n1 = N`) below [`SMEM_MIN_N`]; above it, the
/// two-kernel split with the minimum *modeled* time over every feasible
/// Fig. 12(a) candidate, with OT on 0 or 2 stages, run forward on one row
/// of a **scratch** device of the same model. Purely simulated and a
/// function of `n` and the model alone, so the verdict is deterministic
/// and reproducible across runs.
///
/// # Panics
///
/// Panics if no candidate fits the device's block limits (from
/// `N = 2^25` on the Titan-V model).
pub(crate) fn best_split(config: &GpuConfig, n: usize) -> SmemConfig {
    if n < SMEM_MIN_N {
        return SmemConfig::new(n);
    }
    let log_n = n.trailing_zeros();
    let mut best: Option<(SmemConfig, f64)> = None;
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
            // Scratch device through the handle layer, so even the sweep
            // exercises the same allocator as resident execution.
            let mut mem = SimMemory::new(config.clone());
            let Ok(batch) = crate::batch::DeviceBatch::sequential_on(&mut mem, log_n, 1, 60) else {
                continue;
            };
            let t = smem::run(mem.gpu_mut(), &batch, &cfg).total_s();
            if best.as_ref().is_none_or(|(_, b)| t < *b) {
                best = Some((cfg, t));
            }
        }
    }
    best.expect("an SMEM split of N fits the device").0
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
                        load: None,
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
        // CPU reference.
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

    #[test]
    fn smem_inverse_ranks_splits_like_the_forward() {
        // The inverse takes the forward's split instead of a sweep of its
        // own. That is sound because the mirrored inverse costs what its
        // forward costs, plus the `N⁻¹` fold, at every split: each
        // candidate's inverse is within 5% of its forward, the inverses
        // rank in the forwards' order, and the routed inverse is the
        // fastest inverse among the sweep's candidates.
        let config = GpuConfig::titan_v();
        let log_n = 13u32;
        let n = 1usize << log_n;
        // Modeled seconds of one transform of one row at `cfg`.
        let time = |direction: Direction, cfg: &SmemConfig| -> f64 {
            let mut mem = SimMemory::new(config.clone());
            let batch = crate::batch::DeviceBatch::sequential_on(&mut mem, log_n, 1, 60).unwrap();
            let gpu = mem.gpu_mut();
            let rep = match direction {
                Direction::Forward => smem::run(gpu, &batch, cfg),
                Direction::Inverse => smem::run_inverse(gpu, &batch, cfg),
            };
            rep.total_s()
        };
        // (split, forward s, inverse s) for every feasible split.
        let mut cands = Vec::new();
        for n1 in (1..log_n).map(|k| 1usize << k) {
            for ot_stages in [0u32, 2] {
                let cfg = SmemConfig::new(n1).ot_stages(ot_stages);
                if (1usize << ot_stages) > n / n1 || !smem::job_feasible(n, &cfg, &config) {
                    continue;
                }
                let (fwd, inv) = (
                    time(Direction::Forward, &cfg),
                    time(Direction::Inverse, &cfg),
                );
                assert!(
                    inv <= 1.05 * fwd,
                    "{}: {inv:e} s vs {fwd:e} s",
                    cfg.label(n)
                );
                cands.push((cfg, fwd, inv));
            }
        }
        assert!(cands.len() > 20, "sweep covers the splits: {cands:?}");
        let order = |key: fn(&(SmemConfig, f64, f64)) -> f64| -> Vec<SmemConfig> {
            let mut sorted = cands.clone();
            sorted.sort_by(|a, b| key(a).total_cmp(&key(b)));
            sorted.into_iter().map(|c| c.0).collect()
        };
        assert_eq!(order(|c| c.1), order(|c| c.2), "rank order differs");

        let routed = best_split(&config, n);
        let fastest = cands
            .iter()
            .filter(|c| SmemConfig::paper_splits(log_n).contains(&c.0.n1))
            .min_by(|a, b| a.2.total_cmp(&b.2))
            .map(|c| c.0);
        assert_eq!(Some(routed), fastest, "verdict {routed:?}");
    }

    #[test]
    fn split_verdicts_depend_on_n_alone() {
        // The sweep runs one row whatever the caller's batch, so the split
        // a process takes for `N` does not depend on which call came
        // first. Whole rows below `SMEM_MIN_N`; above it, the swept
        // `(n1, OT stages)` verdicts of the Titan-V model.
        let config = GpuConfig::titan_v();
        for n in [2, 4, 64, 128] {
            assert_eq!(best_split(&config, n), SmemConfig::new(n), "N = {n}");
        }
        for (log_n, n1, ot_stages) in [
            (8, 16, 0),
            (9, 16, 0),
            (10, 32, 0),
            (11, 32, 2),
            (12, 64, 2),
        ] {
            let got = best_split(&config, 1 << log_n);
            let want = SmemConfig::new(n1).ot_stages(ot_stages);
            assert_eq!(got, want, "N = 2^{log_n}");
        }
    }
}
