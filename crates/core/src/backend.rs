//! Pluggable execution backends and plan-based batched NTT execution.
//!
//! The paper's central claim is that one NTT workload — batches of RNS
//! limb transforms — runs on very different execution substrates (a scalar
//! CPU reference, GPU kernels at several radices). This module is the API
//! boundary that makes the substrate swappable:
//!
//! * [`NttBackend`] — the trait every execution substrate implements. Its
//!   vocabulary is one typed op, [`BackendOp`]: *batched RNS operations*
//!   over host [`LimbBatch`] views (forward, inverse, pointwise and the
//!   fused multiply) and over device-resident [`DeviceBuf`] views. A
//!   backend implements two steps per op: [`NttBackend::gate`], its
//!   handle check and fault draws, and [`NttBackend::run`], which moves
//!   the data; [`NttBackend::try_run`] is the one provided composition,
//!   gate then run. Backends never see individual polynomials — only
//!   flat buffers of limbs, the layout both the CPU engine and the
//!   simulated GPU kernels natively consume.
//! * [`RingPlan`] — an FFTW-style precomputed plan handle: the ring's
//!   twiddle tables (per-stage `(value, companion)` slice-pairs in
//!   bit-reversed order), workspace sizing, and a per-prime pointwise
//!   reduction strategy ([`PointwiseStrategy`], Montgomery vs. Barrett)
//!   chosen **once at plan time** from the prime alone. Plans are cheap
//!   handles (`Arc` internals) and are memoized on the ring
//!   ([`crate::poly::RnsRing::plan`]).
//! * [`CpuBackend`] — the reference backend wrapping the fused
//!   lazy-reduction [`NttExecutor`] and its grow-only workspace.
//! * [`Evaluator`] — a backend-generic driver pairing a plan with a boxed
//!   backend; `he-lite` routes every context operation through one, so
//!   swapping the execution substrate is a one-line constructor change.
//!   Every op it issues runs through `run`; while the evaluator is
//!   armed ([`Evaluator::gated`]) it passes `gate` first, a transient
//!   failure re-drawn in place up to three times before it latches.
//!   (The simulated-GPU backend lives in the `ntt-gpu` crate as
//!   `SimBackend`, since the warp kernels live there.)
//!
//! # Example
//!
//! ```
//! use ntt_core::backend::{Evaluator, LimbBatch, NttBackend, RingPlan};
//! use ntt_core::{RnsPoly, RnsRing};
//!
//! let ring = RnsRing::new(16, ntt_math::ntt_primes(59, 32, 3))?;
//! let plan = RingPlan::new(&ring); // tables + strategies chosen here
//! let mut ev = Evaluator::cpu(&ring);
//!
//! let a = RnsPoly::from_i64_coeffs(&ring, &[1, 1]); // 1 + x
//! let c = ev.multiply(&a, &a); // one fused MultiplyBatch op
//! assert_eq!(c.coefficient_centered(&ring, 1), Some(2));
//! assert_eq!(plan.np(), 3);
//! # Ok::<(), ntt_core::RingError>(())
//! ```

use crate::engine::{NttExecutor, ThreadPolicy};
use crate::poly::{Representation, RnsPoly, RnsRing};
use crate::table::NttTable;
use ntt_math::modops::{add_mod, neg_mod, sub_mod};
use ntt_math::mont::Montgomery;
use ntt_math::shoup::MAX_LAZY_MODULUS;
use ntt_math::Barrett;
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// How the plan reduces pointwise products for one prime.
///
/// Both strategies return the exact canonical product `a·b mod p`, so the
/// choice never changes results — only throughput. Barrett costs five wide
/// multiplies per product; Montgomery (double-REDC on ordinary-form
/// operands, [`Montgomery::mul_plain`]) costs four, with a longer
/// dependency chain. The plan takes Montgomery wherever its preconditions
/// hold and Barrett for every other prime ([`PointwiseStrategy::choose`]):
/// a rule of the prime alone, so every run plans a ring alike.
#[derive(Debug, Clone, Copy)]
pub enum PointwiseStrategy {
    /// Barrett reduction with a precomputed 128-bit reciprocal.
    Barrett(Barrett),
    /// Montgomery double-REDC on ordinary-form operands.
    Montgomery(Montgomery),
}

impl PointwiseStrategy {
    /// The prime this strategy reduces for.
    #[inline]
    pub fn modulus(&self) -> u64 {
        match self {
            PointwiseStrategy::Barrett(b) => b.modulus(),
            PointwiseStrategy::Montgomery(m) => m.modulus(),
        }
    }

    /// Short label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PointwiseStrategy::Barrett(_) => "barrett",
            PointwiseStrategy::Montgomery(_) => "montgomery",
        }
    }

    /// Canonical product `a·b mod p` for canonical operands.
    #[inline(always)]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        match self {
            PointwiseStrategy::Barrett(br) => br.mul(a, b),
            PointwiseStrategy::Montgomery(m) => m.mul_plain(a, b),
        }
    }

    /// Plan-time selection for one prime: Montgomery where its
    /// preconditions hold — an odd modulus and, for the fused lazy
    /// pipeline, `p < 2^62` — and Barrett otherwise.
    pub fn choose(p: u64) -> Self {
        if p % 2 == 1 && p < MAX_LAZY_MODULUS {
            PointwiseStrategy::Montgomery(Montgomery::new(p))
        } else {
            PointwiseStrategy::Barrett(Barrett::new(p))
        }
    }

    /// Selection for a whole prime basis (one strategy per prime).
    pub fn choose_all(primes: &[u64]) -> Arc<[PointwiseStrategy]> {
        primes.iter().map(|&p| Self::choose(p)).collect()
    }
}

/// A mutable view over a flat batch of RNS limbs: `rows × N` residues
/// under a run of primes, row `r` reduced mod prime
/// `primes.start + r % primes.len()`, as a [`PolyView`]'s rows are.
///
/// This covers every shape backends care about:
///
/// * one polynomial at `level` active primes (`rows == level`, primes
///   `0..level`), e.g. an [`RnsPoly`]'s storage;
/// * several polynomials of `level` limbs stacked back to back
///   (`rows == k·level`), e.g. the key-switch **buffer of digits** that
///   submits all `level × digits` digit NTTs as one batched call;
/// * rows under primes that do not start at 0, e.g. the dropped rows of
///   `k` polynomials at a rescale from level `l` (`k` rows under
///   `l − 1..l`).
pub struct LimbBatch<'a> {
    data: &'a mut [u64],
    n: usize,
    primes: Range<usize>,
}

impl<'a> LimbBatch<'a> {
    /// Wrap a flat buffer of whole `n`-word rows, `level` rows per
    /// polynomial under primes `0..level`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not a whole number of rows or the row count
    /// is not a multiple of `level`.
    pub fn new(data: &'a mut [u64], n: usize, level: usize) -> Self {
        Self::under(data, n, 0..level)
    }

    /// Wrap a flat buffer of whole `n`-word rows under `primes`: row `r`
    /// under prime `primes.start + r % primes.len()`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not a whole number of rows, the range is
    /// empty, or the row count is not a multiple of its length.
    pub fn under(data: &'a mut [u64], n: usize, primes: Range<usize>) -> Self {
        assert!(n >= 1 && !primes.is_empty(), "degenerate batch shape");
        assert_eq!(data.len() % n, 0, "flat buffer must be rows × N");
        assert_eq!(
            (data.len() / n) % primes.len(),
            0,
            "rows must form whole polynomials"
        );
        Self { data, n, primes }
    }

    /// View over one polynomial's limbs.
    ///
    /// The caller is responsible for re-tagging the polynomial's
    /// representation afterwards ([`RnsPoly::set_repr`]) — batches carry no
    /// domain tag.
    pub fn from_poly(poly: &'a mut RnsPoly) -> Self {
        let (n, level) = (poly.degree(), poly.level());
        Self::new(poly.flat_mut(), n, level)
    }

    /// Row length `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Limbs per polynomial.
    #[inline]
    pub fn level(&self) -> usize {
        self.primes.len()
    }

    /// The primes the rows cycle through.
    #[inline]
    pub fn primes(&self) -> Range<usize> {
        self.primes.clone()
    }

    /// Total rows across all stacked polynomials.
    #[inline]
    pub fn rows(&self) -> usize {
        self.data.len() / self.n
    }

    /// The RNS prime index of row `r`.
    #[inline]
    pub fn prime_of(&self, r: usize) -> usize {
        self.primes.start + r % self.primes.len()
    }

    /// The whole flat buffer.
    #[inline]
    pub fn data(&mut self) -> &mut [u64] {
        self.data
    }

    /// Immutable view of the flat buffer.
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        self.data
    }
}

/// An opaque handle to a backend-owned device buffer.
///
/// The id names an allocation inside one backend's [`DeviceMemory`]; the
/// `(base, len)` pair is a word range within it, so [`DeviceBuf::sub`]
/// carves sub-views (e.g. one digit polynomial out of a key-switch digit
/// buffer) without new allocations — the handle algebra of a CUDA device
/// pointer. Handles are meaningless outside the memory that issued them.
///
/// # Example
///
/// ```
/// use ntt_core::backend::{CpuBackend, NttBackend};
///
/// let be = CpuBackend::default();
/// let mem = be.memory();
/// let buf = mem.lock().unwrap().alloc(64); // zeroed device words
/// assert_eq!(buf.len(), 64);
/// let tail = buf.sub(32, 32); // a view, not a copy
/// assert_eq!(tail.len(), 32);
/// let mut host = vec![1u64; 64];
/// mem.lock().unwrap().download(buf, &mut host);
/// assert_eq!(host, vec![0u64; 64]);
/// assert_eq!(mem.lock().unwrap().stats().downloads, 1);
/// # mem.lock().unwrap().free(buf);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceBuf {
    id: u64,
    base: usize,
    len: usize,
}

/// Reserve a process-unique id namespace for one [`DeviceMemory`]
/// instance: the returned value is the starting `next_id` for that
/// memory's allocations (ids are minted by incrementing past it).
///
/// Every memory in the process draws from one atomic counter, shifted
/// into the high bits, so two memories can never mint the same handle id.
/// Without this, per-instance counters all start at 1 and a [`DeviceBuf`]
/// from backend A *silently resolves* against backend B's unrelated
/// allocation of the same ordinal — the worst form of the foreign-handle
/// bug, corrupting data instead of failing. With disjoint namespaces a
/// foreign handle misses the map, which the fallible surface reports as
/// [`BackendError::Fatal`] (and infallible paths fail fast on).
///
/// The low 40 bits leave room for a trillion allocations per memory; the
/// high 24 bits allow sixteen million memory instances per process.
pub fn handle_namespace() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(0);
    NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed) << 40
}

impl DeviceBuf {
    /// A whole-allocation handle — for [`DeviceMemory`] implementors
    /// returning freshly allocated buffers (`base` 0, full length).
    pub fn root(id: u64, len: usize) -> DeviceBuf {
        DeviceBuf { id, base: 0, len }
    }

    /// The allocation id within the issuing [`DeviceMemory`].
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Word offset of this view within its allocation.
    #[inline]
    pub fn base(&self) -> usize {
        self.base
    }

    /// View length in 64-bit words.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for zero-length views.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view (`offset..offset + len` within this view).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the view.
    pub fn sub(&self, offset: usize, len: usize) -> DeviceBuf {
        assert!(offset + len <= self.len, "device sub-buffer out of range");
        DeviceBuf {
            id: self.id,
            base: self.base + offset,
            len,
        }
    }
}

/// Host↔device transfer counters for one [`DeviceMemory`].
///
/// This is the residency ledger: `uploads`/`downloads` cross the
/// (simulated) bus, `d2d_copies` stay on the device, `allocs`/`frees`
/// track buffer churn. A chain that claims device residency is gated on
/// `host_transfers()` staying zero over its steady-state window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Host→device copies (calls).
    pub uploads: u64,
    /// Host→device words moved.
    pub upload_words: u64,
    /// Device→host copies (calls).
    pub downloads: u64,
    /// Device→host words moved.
    pub download_words: u64,
    /// Device-to-device copies.
    pub d2d_copies: u64,
    /// Buffer allocations served.
    pub allocs: u64,
    /// Buffers released.
    pub frees: u64,
}

impl TransferStats {
    /// Transfers that crossed the host↔device bus (uploads + downloads).
    pub fn host_transfers(&self) -> u64 {
        self.uploads + self.downloads
    }

    /// Counter-wise difference `self - earlier` (steady-state windows).
    pub fn since(&self, earlier: &TransferStats) -> TransferStats {
        TransferStats {
            uploads: self.uploads - earlier.uploads,
            upload_words: self.upload_words - earlier.upload_words,
            downloads: self.downloads - earlier.downloads,
            download_words: self.download_words - earlier.download_words,
            d2d_copies: self.d2d_copies - earlier.d2d_copies,
            allocs: self.allocs - earlier.allocs,
            frees: self.frees - earlier.frees,
        }
    }
}

/// Classification of a [`BackendError`] — what a caller should *do* about
/// the failure.
///
/// * [`Transient`](FaultClass::Transient) → bounded retry of the identical
///   operation may succeed.
/// * [`Fatal`](FaultClass::Fatal) → the executor is gone; quarantine the
///   backend fork, re-fork, or degrade to the host path.
/// * [`Oom`](FaultClass::Oom) → device memory exhausted; shrink the
///   working set or degrade.
/// * [`Deadline`](FaultClass::Deadline) → a caller-imposed time budget
///   expired; the work was abandoned, not the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Retryable one-shot fault.
    Transient,
    /// The executor is wedged; retrying on it cannot succeed.
    Fatal,
    /// Device memory exhausted.
    Oom,
    /// A caller-imposed deadline expired.
    Deadline,
}

/// Why a fallible (`try_*`) backend operation failed — the typed error
/// surface of the device layer.
///
/// The variants map one-to-one onto [`FaultClass`]; callers almost always
/// branch on [`class`](BackendError::class) /
/// [`is_transient`](BackendError::is_transient) rather than the variant,
/// and carry `op` (the backend entry point that failed) purely for
/// diagnostics and metrics.
///
/// The fallible surface guarantees **failure atomicity** where the
/// backend can provide it: the shipped backends fire their fault gates
/// *before* touching operand data, so an `Err` means host and device
/// state are exactly as they were and the identical call can be retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// A one-shot fault (flaky link, spurious launch abort): the
    /// operation did not run, the device is otherwise healthy, and an
    /// identical retry may succeed.
    Transient {
        /// The backend entry point that failed.
        op: &'static str,
    },
    /// The executor is wedged (sticky device fault, freed/foreign buffer
    /// handle): every further operation on it will fail until it is
    /// reinitialized.
    Fatal {
        /// The backend entry point that failed.
        op: &'static str,
    },
    /// Device memory exhausted.
    Oom {
        /// The backend entry point that failed.
        op: &'static str,
        /// Words the failing request asked for.
        words: usize,
    },
    /// A caller-imposed deadline expired before (or while) the operation
    /// ran. Produced by schedulers above the backend, never by the
    /// device itself.
    Deadline {
        /// The operation or request stage that timed out.
        op: &'static str,
    },
}

impl BackendError {
    /// The failure class callers branch on.
    pub fn class(&self) -> FaultClass {
        match self {
            BackendError::Transient { .. } => FaultClass::Transient,
            BackendError::Fatal { .. } => FaultClass::Fatal,
            BackendError::Oom { .. } => FaultClass::Oom,
            BackendError::Deadline { .. } => FaultClass::Deadline,
        }
    }

    /// The backend entry point (or request stage) that failed.
    pub fn op(&self) -> &'static str {
        match self {
            BackendError::Transient { op }
            | BackendError::Fatal { op }
            | BackendError::Oom { op, .. }
            | BackendError::Deadline { op } => op,
        }
    }

    /// Whether a bounded retry of the identical operation is worthwhile.
    pub fn is_transient(&self) -> bool {
        self.class() == FaultClass::Transient
    }
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Transient { op } => write!(f, "transient device fault in {op}"),
            BackendError::Fatal { op } => write!(f, "fatal device fault in {op}"),
            BackendError::Oom { op, words } => {
                write!(f, "device out of memory in {op} ({words} words)")
            }
            BackendError::Deadline { op } => write!(f, "deadline expired in {op}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// A backend's device memory: allocation, host↔device staging, and the
/// transfer ledger.
///
/// Implementations are shared between a backend and every device-resident
/// [`RnsPoly`] through a [`SharedDeviceMemory`] handle, which is what lets
/// a polynomial lazily download itself on a host read without holding the
/// backend. [`CpuBackend`] supplies the trivial identity implementation
/// ([`HostArena`]: "device" memory is host memory, transfers are counted
/// memcpys); the simulated GPU backend charges real `gpu-sim` GMEM
/// traffic.
pub trait DeviceMemory: Send {
    /// Allocate `words` zeroed device words.
    fn alloc(&mut self, words: usize) -> DeviceBuf;

    /// Host→device copy of `src` into the front of `dst` (counted).
    ///
    /// # Panics
    ///
    /// Panics if `src` exceeds the buffer view.
    fn upload(&mut self, dst: DeviceBuf, src: &[u64]);

    /// Device→host copy of the front of `src` into `dst` (counted).
    ///
    /// # Panics
    ///
    /// Panics if `dst` exceeds the buffer view.
    fn download(&mut self, src: DeviceBuf, dst: &mut [u64]);

    /// Device-to-device copy (`src` → front of `dst`); never crosses the
    /// bus.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is shorter than `src`.
    fn copy(&mut self, src: DeviceBuf, dst: DeviceBuf);

    /// Release a buffer for reuse. The handle (and every sub-view of it)
    /// must not be used afterwards.
    fn free(&mut self, buf: DeviceBuf);

    /// The transfer ledger since construction or the last reset.
    fn stats(&self) -> TransferStats;

    /// Zero the transfer ledger.
    fn reset_stats(&mut self);

    /// Fallible [`DeviceMemory::alloc`], the injected-OOM hook: fails
    /// with [`BackendError::Oom`] when the device cannot serve the
    /// request, or a classified fault under an armed fault model. An
    /// armed [`Evaluator`] makes its own allocations through it. The
    /// default never fails; the simulated GPU overrides it. Transfers
    /// have no fallible twin: a host↔device copy never draws a fault.
    fn try_alloc(&mut self, words: usize) -> Result<DeviceBuf, BackendError> {
        Ok(self.alloc(words))
    }
}

/// The shared handle to a backend's [`DeviceMemory`] — held by the backend
/// and embedded in every device-resident [`RnsPoly`].
pub type SharedDeviceMemory = Arc<Mutex<dyn DeviceMemory>>;

/// Whether two memory handles name the same device memory (pointer
/// identity on the shared allocation, ignoring trait-object metadata).
pub fn same_memory(a: &SharedDeviceMemory, b: &SharedDeviceMemory) -> bool {
    std::ptr::eq(Arc::as_ptr(a) as *const u8, Arc::as_ptr(b) as *const u8)
}

/// Lock a device memory, recovering from poisoning (the arena holds plain
/// words; a panic mid-operation cannot corrupt the allocator maps beyond
/// what the panicking operation already owned).
pub(crate) fn lock_memory(
    mem: &SharedDeviceMemory,
) -> std::sync::MutexGuard<'_, dyn DeviceMemory + 'static> {
    mem.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The identity [`DeviceMemory`]: "device" buffers are host vectors.
///
/// This is [`CpuBackend`]'s memory — uploads and downloads are memcpys,
/// but they are **counted** exactly like real bus transfers, so the
/// residency state machine is testable (and conformance-comparable against
/// the simulated GPU) without any device at all.
#[derive(Debug)]
pub struct HostArena {
    bufs: HashMap<u64, Vec<u64>>,
    next_id: u64,
    stats: TransferStats,
}

impl Default for HostArena {
    /// An empty arena whose handle ids start in a process-unique
    /// namespace ([`handle_namespace`]) — a handle minted by one arena
    /// can never resolve against another.
    fn default() -> Self {
        Self {
            bufs: HashMap::new(),
            next_id: handle_namespace(),
            stats: TransferStats::default(),
        }
    }
}

impl HostArena {
    /// Uncounted read of a buffer view (backend-internal access: for the
    /// identity backend, compute *is* host compute, not a transfer).
    pub(crate) fn read_raw(&self, buf: DeviceBuf, dst: &mut [u64]) {
        assert!(dst.len() <= buf.len, "read exceeds device buffer");
        let v = self.bufs.get(&buf.id).expect("freed or foreign DeviceBuf");
        dst.copy_from_slice(&v[buf.base..buf.base + dst.len()]);
    }

    /// Uncounted write of a buffer view.
    pub(crate) fn write_raw(&mut self, buf: DeviceBuf, src: &[u64]) {
        assert!(src.len() <= buf.len, "write exceeds device buffer");
        let v = self
            .bufs
            .get_mut(&buf.id)
            .expect("freed or foreign DeviceBuf");
        v[buf.base..buf.base + src.len()].copy_from_slice(src);
    }

    /// Whether a handle view still resolves to a live allocation (the
    /// typed surface's non-panicking handle check).
    fn is_live(&self, buf: DeviceBuf) -> bool {
        self.bufs
            .get(&buf.id)
            .is_some_and(|v| buf.base + buf.len <= v.len())
    }

    /// Live allocations (leak checks in tests).
    pub fn live_buffers(&self) -> usize {
        self.bufs.len()
    }
}

impl DeviceMemory for HostArena {
    fn alloc(&mut self, words: usize) -> DeviceBuf {
        self.next_id += 1;
        self.stats.allocs += 1;
        self.bufs.insert(self.next_id, vec![0; words]);
        DeviceBuf {
            id: self.next_id,
            base: 0,
            len: words,
        }
    }

    fn upload(&mut self, dst: DeviceBuf, src: &[u64]) {
        self.stats.uploads += 1;
        self.stats.upload_words += src.len() as u64;
        self.write_raw(dst, src);
    }

    fn download(&mut self, src: DeviceBuf, dst: &mut [u64]) {
        assert!(dst.len() <= src.len, "download exceeds device buffer");
        self.stats.downloads += 1;
        self.stats.download_words += dst.len() as u64;
        self.read_raw(src, dst);
    }

    fn copy(&mut self, src: DeviceBuf, dst: DeviceBuf) {
        assert!(src.len <= dst.len, "device copy exceeds destination");
        self.stats.d2d_copies += 1;
        let mut tmp = vec![0u64; src.len];
        self.read_raw(src, &mut tmp);
        self.write_raw(dst, &tmp);
    }

    fn free(&mut self, buf: DeviceBuf) {
        // Sub-views share their parent's id, so any view of an allocation
        // releases all of it; a second free of it finds nothing.
        if self.bufs.remove(&buf.id).is_some() {
            self.stats.frees += 1;
        }
    }

    fn stats(&self) -> TransferStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = TransferStats::default();
    }
}

/// Shared host reference semantics for the element-wise device operations
/// (`acc[i] *= rhs[i]` per row under `primes`, as a [`LimbBatch`]'s rows
/// are, plan strategies for the products). Every backend's device kernels
/// must match these bit for bit.
pub fn host_pointwise_rows(plan: &RingPlan, primes: Range<usize>, acc: &mut [u64], rhs: &[u64]) {
    let n = plan.degree();
    for (r, (row, rhs_row)) in acc.chunks_exact_mut(n).zip(rhs.chunks_exact(n)).enumerate() {
        // One strategy match per row keeps the element loops branch-free.
        match plan.strategy(primes.start + r % primes.len()) {
            PointwiseStrategy::Barrett(br) => {
                for (x, &y) in row.iter_mut().zip(rhs_row) {
                    *x = br.mul(*x, y);
                }
            }
            PointwiseStrategy::Montgomery(m) => {
                for (x, &y) in row.iter_mut().zip(rhs_row) {
                    *x = m.mul_plain(*x, y);
                }
            }
        }
    }
}

/// `acc[i] += x[i] * y[i]` per row under `primes` (the key-switch
/// accumulate step).
pub fn host_fma_rows(plan: &RingPlan, primes: Range<usize>, acc: &mut [u64], x: &[u64], y: &[u64]) {
    let n = plan.degree();
    for (r, ((arow, xrow), yrow)) in acc
        .chunks_exact_mut(n)
        .zip(x.chunks_exact(n))
        .zip(y.chunks_exact(n))
        .enumerate()
    {
        let s = plan.strategy(primes.start + r % primes.len());
        let p = s.modulus();
        for ((a, &xv), &yv) in arow.iter_mut().zip(xrow).zip(yrow) {
            // `add_mod` without its branch: whether the sum wraps is
            // random, and a mispredicted branch per element made this
            // loop 2.6x slower than a pointwise pass plus an add pass.
            let sum = *a + s.mul(xv, yv);
            *a = sum.min(sum.wrapping_sub(p));
        }
    }
}

/// `acc[i] = acc[i] ± rhs[i]` per row under `primes`.
pub fn host_addsub_rows(
    ring: &RnsRing,
    primes: Range<usize>,
    acc: &mut [u64],
    rhs: &[u64],
    subtract: bool,
) {
    let n = ring.degree();
    let moduli = ring.basis().primes();
    for (r, (row, rhs_row)) in acc.chunks_exact_mut(n).zip(rhs.chunks_exact(n)).enumerate() {
        let p = moduli[primes.start + r % primes.len()];
        for (x, &y) in row.iter_mut().zip(rhs_row) {
            *x = if subtract {
                sub_mod(*x, y, p)
            } else {
                add_mod(*x, y, p)
            };
        }
    }
}

/// Row-wise negation under `primes`.
pub fn host_negate_rows(ring: &RnsRing, primes: Range<usize>, data: &mut [u64]) {
    let n = ring.degree();
    let moduli = ring.basis().primes();
    for (r, row) in data.chunks_exact_mut(n).enumerate() {
        let p = moduli[primes.start + r % primes.len()];
        for x in row.iter_mut() {
            *x = neg_mod(*x, p);
        }
    }
}

/// Galois automorphism `X → X^g` (g odd) of a coefficient buffer:
/// `dst[r·N + (i·g mod 2N)] = ±src[r·N + i]`, negated when the exponent
/// wraps past `N` (negacyclic: `X^N = −1`), with row `r` under prime
/// `primes.start + r % primes.len()`. Out-of-place — the map is a
/// permutation, so an in-place gather would trample unread inputs.
pub fn host_automorphism_rows(
    plan: &RingPlan,
    primes: Range<usize>,
    g: u64,
    src: &[u64],
    dst: &mut [u64],
) {
    let n = plan.degree();
    let two_n = 2 * n as u64;
    let g = g % two_n;
    assert_eq!(g % 2, 1, "Galois element must be odd");
    assert_eq!(src.len(), dst.len(), "operand shape mismatch");
    let moduli = plan.ring().basis().primes();
    for (r, (out, row)) in dst.chunks_exact_mut(n).zip(src.chunks_exact(n)).enumerate() {
        let p = moduli[primes.start + r % primes.len()];
        for (i, &x) in row.iter().enumerate() {
            let idx = (i as u64 * g) % two_n;
            if idx < n as u64 {
                out[idx as usize] = x;
            } else {
                out[idx as usize - n] = neg_mod(x, p);
            }
        }
    }
}

/// One-source-prime RNS base conversion, the reference every backend's
/// [`Load::Lift`] matches: lift one coefficient row under prime `from`
/// exactly into every row of `dst` (row `r` under prime
/// `dst_primes.start + r % dst_primes.len()`). The plain lift keeps `v`;
/// the centered one maps `v > q/2` to `v − q` — CKKS mod-raise, whose
/// output decrypts to the same small polynomial plus a `q·I` overflow
/// term that `EvalMod` removes.
pub fn host_lift_rows(
    plan: &RingPlan,
    (src, from): (&[u64], usize),
    centered: bool,
    dst: &mut [u64],
    dst_primes: Range<usize>,
) {
    let n = plan.degree();
    let primes = plan.ring().basis().primes();
    let q = primes[from];
    let half = if centered { q >> 1 } else { q };
    assert_eq!(src.len(), n, "source must be one row");
    assert_eq!(dst.len() % n, 0, "destination must be whole rows");
    for (r, row) in dst.chunks_exact_mut(n).enumerate() {
        let p = primes[dst_primes.start + r % dst_primes.len()];
        for (out, &v) in row.iter_mut().zip(src) {
            *out = if v <= half {
                v % p
            } else {
                neg_mod((q - v) % p, p)
            };
        }
    }
}

/// The rescale's subtract-and-scale per row, the reference of a
/// [`BackendOp::Forward`] with a [`SubScale`] store:
/// `acc ← (acc − t)·p_dropped⁻¹` with row `r` under prime
/// `primes.start + r % primes.len()`.
pub fn host_sub_scale_rows(
    plan: &RingPlan,
    primes: Range<usize>,
    dropped: usize,
    acc: &mut [u64],
    t: &[u64],
) {
    let n = plan.degree();
    let moduli = plan.ring().basis().primes();
    for (r, (row, t_row)) in acc.chunks_exact_mut(n).zip(t.chunks_exact(n)).enumerate() {
        let p = moduli[primes.start + r % primes.len()];
        let inv = ntt_math::inv_mod(moduli[dropped] % p, p).expect("distinct primes are coprime");
        for (x, &tv) in row.iter_mut().zip(t_row) {
            *x = ntt_math::mul_mod(sub_mod(*x, tv, p), inv, p);
        }
    }
}

/// The rows view `view` of a [`BackendOp::Forward`] loads through `load`
/// from its source `src`, whose rows are `from`: the host reference of
/// [`Load`].
fn host_load_rows(
    plan: &RingPlan,
    load: Load<'_>,
    (src, from): (&PolyView, &[u64]),
    view: &PolyView,
    out: &mut [u64],
) {
    match load {
        Load::Digits {
            digits,
            gadget_bits,
            ..
        } => {
            let (n, level) = (plan.degree(), src.primes.len());
            host_decompose_rows(n, level, digits, gadget_bits, from, out);
        }
        Load::Lift { centered, .. } => {
            assert_eq!(src.primes.len(), 1, "a lift reads one row");
            let from = (from, src.primes.start);
            host_lift_rows(plan, from, centered, out, view.primes.clone());
        }
    }
}

/// Gadget digit decomposition of one `level`-row coefficient polynomial
/// into a `level·digits`-polynomial buffer-of-digits: digit `(j, d)`
/// occupies polynomial slot `j·digits + d` as `level` **replicated** rows
/// of `(src_row_j >> (w·d)) & (2^w − 1)` (small digits are the same
/// residue mod every active prime). This is the host branch of
/// [`Evaluator::decompose`] and the reference every backend's
/// [`Load::Digits`] matches.
pub fn host_decompose_rows(
    n: usize,
    level: usize,
    digits: usize,
    gadget_bits: u32,
    src: &[u64],
    dst: &mut [u64],
) {
    assert_eq!(src.len(), level * n, "source must be level x N");
    assert_eq!(
        dst.len(),
        level * digits * level * n,
        "digit buffer must be level*digits polynomials of level rows"
    );
    let mask = (1u64 << gadget_bits) - 1;
    for j in 0..level {
        for d in 0..digits {
            let shift = gadget_bits * d as u32;
            let poly = (j * digits + d) * level * n;
            for rep in 0..level {
                for t in 0..n {
                    dst[poly + rep * n + t] = (src[j * n + t] >> shift) & mask;
                }
            }
        }
    }
}

/// A precomputed execution plan for one [`RnsRing`] (FFTW-style).
///
/// Construction resolves everything the backends would otherwise redo per
/// call: the twiddle tables (already laid out as per-stage
/// `(value, companion)` slice-pairs inside [`NttTable`]), workspace sizing
/// for the fused multiply path, and the per-prime [`PointwiseStrategy`].
/// Plans are cheap to clone and thread-safe; prefer
/// [`RnsRing::plan`], which memoizes the strategy choice on the ring.
///
/// # Example
///
/// ```
/// use ntt_core::backend::RingPlan;
/// use ntt_core::RnsRing;
///
/// let ring = RnsRing::new(32, ntt_math::ntt_primes(59, 64, 2))?;
/// let plan = RingPlan::new(&ring);
/// assert_eq!(plan.degree(), 32);
/// // Two scratch rows per limb for the fused multiply path:
/// assert_eq!(plan.workspace_words(plan.np()), 2 * 2 * 32);
/// for i in 0..plan.np() {
///     assert_eq!(plan.strategy(i).modulus(), plan.table(i).modulus());
/// }
/// # Ok::<(), ntt_core::RingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RingPlan {
    ring: RnsRing,
    strategy: Arc<[PointwiseStrategy]>,
}

impl RingPlan {
    /// Plan for a ring (delegates to the ring's memoized plan cache).
    pub fn new(ring: &RnsRing) -> Self {
        ring.plan()
    }

    pub(crate) fn from_parts(ring: RnsRing, strategy: Arc<[PointwiseStrategy]>) -> Self {
        Self { ring, strategy }
    }

    /// The planned ring.
    #[inline]
    pub fn ring(&self) -> &RnsRing {
        &self.ring
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.ring.degree()
    }

    /// Number of primes in the full basis.
    #[inline]
    pub fn np(&self) -> usize {
        self.ring.np()
    }

    /// Twiddle table for prime `i` (per-stage slice-pairs, bit-reversed).
    #[inline]
    pub fn table(&self, i: usize) -> &NttTable {
        self.ring.ring(i).table()
    }

    /// The pointwise reduction strategy chosen for prime `i` at plan time.
    #[inline]
    pub fn strategy(&self, i: usize) -> &PointwiseStrategy {
        &self.strategy[i]
    }

    /// All per-prime strategies.
    #[inline]
    pub fn strategies(&self) -> &[PointwiseStrategy] {
        &self.strategy
    }

    /// Scratch words the fused multiply path needs for a `rows`-row batch
    /// (two operand staging rows per limb) — backends size their
    /// workspaces from this.
    #[inline]
    pub fn workspace_words(&self, rows: usize) -> usize {
        2 * rows * self.degree()
    }
}

/// One polynomial's rows in a device transform or base conversion: a
/// row-aligned view and the primes its rows sit under, row `r` reduced
/// mod prime `primes.start + r % primes.len()`. A whole polynomial at
/// level `l` is `0..l`; its dropped row at a rescale is `l - 1..l`; a
/// stacked buffer of `level`-row digits is `0..level`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolyView {
    /// The rows.
    pub buf: DeviceBuf,
    /// The primes the rows cycle through.
    pub primes: Range<usize>,
}

impl PolyView {
    /// `buf` under `primes`.
    pub fn new(buf: DeviceBuf, primes: Range<usize>) -> Self {
        Self { buf, primes }
    }

    /// The RNS prime index of row `r`.
    #[inline]
    pub fn prime_of(&self, r: usize) -> usize {
        self.primes.start + r % self.primes.len()
    }
}

/// The subtract-and-scale step of an evaluation-domain rescale, folded
/// into a [`BackendOp::Forward`]'s store: the transform `t` of each
/// written row lands in it as `x ← (x − t)·p_dropped⁻¹` (under the row's
/// prime) instead of replacing it. It folds only a plain [`Load::Lift`]
/// (of the dropped row), which makes it exactly `poly::rescale_rows` in
/// the evaluation domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubScale {
    /// Index of the prime the rescale drops.
    pub dropped: usize,
}

/// A producer folded into a [`BackendOp::Forward`]'s load: every written
/// row reads a row of its view's source instead of its own, and maps each
/// word before the transform, so the produced rows are never stored. Row
/// `r` of a `W`-row view reads row `r / (W / R)` of its `R`-row source.
#[derive(Debug, Clone, Copy)]
pub enum Load<'a> {
    /// Gadget digit decomposition, laid out as [`host_decompose_rows`]
    /// writes it: `src[k]` holds `level` coefficient rows and view `k`
    /// the `level·digits` digit polynomials of `level` rows each. Digit
    /// `(j, d)` occupies polynomial slot `j·digits + d`, every row of it
    /// `(src_row_j >> (w·d)) & (2^w − 1)`, `w = gadget_bits`.
    Digits {
        /// The coefficient rows, one view per written view.
        src: &'a [PolyView],
        /// Digits per residue.
        digits: usize,
        /// Digit width `w` in bits.
        gadget_bits: u32,
    },
    /// One-source-prime RNS base conversion ([`host_lift_rows`]):
    /// `src[k]` is one coefficient row under one prime `q`, and every row
    /// of view `k` reads its exact lift under that row's prime, `v` itself
    /// (plain) or, when `centered`, `v − q` for `v > q/2` (CKKS
    /// mod-raise). The many-prime case of hybrid key switching is not
    /// implemented.
    Lift {
        /// One-row source views, one per written view.
        src: &'a [PolyView],
        /// Centered instead of plain lift.
        centered: bool,
    },
}

impl<'a> Load<'a> {
    /// The source views, one per written view.
    pub fn src(&self) -> &'a [PolyView] {
        match *self {
            Load::Digits { src, .. } | Load::Lift { src, .. } => src,
        }
    }
}

/// One backend operation: the typed vocabulary every [`NttBackend`]
/// gates ([`NttBackend::gate`]) and executes ([`NttBackend::run`]).
///
/// Two families share the enum:
///
/// * **host batches** (`*Batch`) work on host [`LimbBatch`] views, so a
///   backend with a real device stages every call through its memory;
/// * **device ops** work on [`DeviceBuf`] views in the backend's own
///   memory ([`NttBackend::memory`]) and move nothing across the bus.
///   Every device op takes one [`PolyView`] per polynomial, each under
///   its own primes, and any other operand as one buffer per view,
///   shaped like it. So both components of a ciphertext (or one dropped
///   row of each) go in one op, on a simulated GPU one launch per device.
///   The gadget decomposition and the base conversion are no ops of
///   their own: they are [`Load`]s of the forward transform that
///   consumes their rows.
///
/// One op is also the unit a backend's fault model gates: [`label`]
/// names it in a [`BackendError`], and [`handles`] lists the buffers
/// the gate validates before any data moves.
///
/// [`label`]: BackendOp::label
/// [`handles`]: BackendOp::handles
pub enum BackendOp<'a> {
    /// Forward-NTT every row of the batch in place.
    ForwardBatch(LimbBatch<'a>),
    /// Inverse-NTT every row of the batch in place.
    InverseBatch(LimbBatch<'a>),
    /// Element-wise product in the evaluation domain: `acc[i] *= rhs[i]`
    /// per row, reduced mod the row's prime with the plan's strategy.
    /// `rhs` must have the batch's exact shape.
    PointwiseBatch {
        /// The batch multiplied in place.
        acc: LimbBatch<'a>,
        /// The right-hand rows, shaped like `acc`.
        rhs: &'a [u64],
    },
    /// Fused negacyclic products, one per row triple: `out = a ·̄ b` where
    /// all three buffers share the batch's shape and hold coefficient-form
    /// rows. Implementations fuse forward transforms, pointwise reduction
    /// and the inverse transform however their substrate prefers.
    MultiplyBatch {
        /// Left operand rows.
        a: &'a [u64],
        /// Right operand rows.
        b: &'a [u64],
        /// The products.
        out: LimbBatch<'a>,
    },
    /// Forward-NTT device-resident rows, one view per polynomial, in one
    /// op (one launch per device on a simulated GPU below 256 points).
    Forward {
        /// The rows written, each view under its own primes.
        views: &'a [PolyView],
        /// `None` transforms the views' own rows. `Some` reads each row
        /// from its view's source instead, through the [`Load`]'s map:
        /// a key switch's digits, a rescale's or mod-raise's lift.
        load: Option<Load<'a>>,
        /// `None` stores the transform `t`. `Some` is the tail of an
        /// evaluation-domain rescale: each row becomes
        /// `(x − t)·p_dropped⁻¹`. It requires a plain [`Load::Lift`]
        /// (backends panic otherwise).
        fold: Option<SubScale>,
    },
    /// Inverse-NTT device-resident rows in place, one view per
    /// polynomial, in one op.
    Inverse {
        /// The rows transformed in place, each view under its own primes.
        views: &'a [PolyView],
    },
    /// Device-resident pointwise products `acc[k][i] *= rhs[k][i]` per
    /// row, one view per polynomial, in one op.
    Pointwise {
        /// The rows multiplied in place, each view under its own primes.
        acc: &'a [PolyView],
        /// The right-hand rows, `rhs[k]` shaped like `acc[k]`.
        rhs: &'a [DeviceBuf],
    },
    /// Device-resident multi-term multiply-accumulate
    /// `acc[k][i] += Σ_t x[k][t][i] · y[k][t][i]` per row: whole
    /// multiply-accumulate chains over one or more accumulators, every
    /// accumulator with as many terms, in one op. The key switch passes
    /// its two accumulators, its digit sub-views as `x` and the matching
    /// key halves as `y`, plus any product terms it folds in; a
    /// baby-step/giant-step inner sum passes ciphertext components and
    /// diagonal plaintexts.
    Fma {
        /// The accumulators, each view under its own primes.
        acc: &'a [PolyView],
        /// The first factor of each term, shaped like its accumulator
        /// (any views, separate allocations or slices of one stacked
        /// buffer), accumulator by accumulator: with `m = x.len() /
        /// acc.len()` terms each, accumulator `k` takes
        /// `x[k·m..(k + 1)·m]`.
        x: &'a [DeviceBuf],
        /// The second factor of each term, laid out like `x`;
        /// `y.len() == x.len()`.
        y: &'a [DeviceBuf],
    },
    /// Device-resident row-wise sums `acc[k][i] += rhs[k][i]`, or
    /// differences `acc[k][i] -= rhs[k][i]` when `subtract` is set, one
    /// view per polynomial, in one op.
    AddSub {
        /// The rows updated in place, each view under its own primes.
        acc: &'a [PolyView],
        /// The right-hand rows, `rhs[k]` shaped like `acc[k]`.
        rhs: &'a [DeviceBuf],
        /// Subtract instead of add.
        subtract: bool,
    },
    /// Device-resident negation of every row of every view, in one op.
    Negate {
        /// The rows negated in place, each view under its own primes.
        views: &'a [PolyView],
    },
    /// Device-resident Galois automorphism `X → X^g` (`g` odd) of
    /// coefficient rows, one view per polynomial, in one op: `dst[k]`
    /// receives the permuted rows of `src[k]`, `dst[i·g mod 2N] =
    /// ±src[i]` per row, negated where the exponent wraps past `N`.
    Automorphism {
        /// The source rows, each view under its own primes.
        src: &'a [PolyView],
        /// The permuted rows, `dst[k]` shaped like `src[k]` (and not
        /// aliasing it).
        dst: &'a [DeviceBuf],
        /// The Galois element.
        g: u64,
    },
}

impl BackendOp<'_> {
    /// The entry point this op names in diagnostics and in the `op` of a
    /// [`BackendError`]: `forward_batch`, `dev_forward`, and so on.
    pub fn label(&self) -> &'static str {
        match self {
            BackendOp::ForwardBatch(_) => "forward_batch",
            BackendOp::InverseBatch(_) => "inverse_batch",
            BackendOp::PointwiseBatch { .. } => "pointwise_batch",
            BackendOp::MultiplyBatch { .. } => "multiply_batch",
            BackendOp::Forward { .. } => "dev_forward",
            BackendOp::Inverse { .. } => "dev_inverse",
            BackendOp::Pointwise { .. } => "dev_pointwise",
            BackendOp::Fma { .. } => "dev_fma",
            BackendOp::AddSub { .. } => "dev_addsub",
            BackendOp::Negate { .. } => "dev_negate",
            BackendOp::Automorphism { .. } => "dev_automorphism",
        }
    }

    /// Whether this is a host batch (staged per call) rather than a
    /// device op.
    pub fn is_host_batch(&self) -> bool {
        matches!(
            self,
            BackendOp::ForwardBatch(_)
                | BackendOp::InverseBatch(_)
                | BackendOp::PointwiseBatch { .. }
                | BackendOp::MultiplyBatch { .. }
        )
    }

    /// The device buffers the op touches (none for a host batch): what
    /// [`NttBackend::gate`] checks are live before it draws a fault.
    pub fn handles(&self) -> Vec<DeviceBuf> {
        match *self {
            BackendOp::ForwardBatch(_)
            | BackendOp::InverseBatch(_)
            | BackendOp::PointwiseBatch { .. }
            | BackendOp::MultiplyBatch { .. } => Vec::new(),
            BackendOp::Forward { views, load, .. } => views
                .iter()
                .chain(load.iter().flat_map(|l| l.src()))
                .map(|v| v.buf)
                .collect(),
            BackendOp::Inverse { views } | BackendOp::Negate { views } => {
                views.iter().map(|v| v.buf).collect()
            }
            BackendOp::Pointwise { acc, rhs }
            | BackendOp::AddSub { acc, rhs, .. }
            | BackendOp::Automorphism {
                src: acc, dst: rhs, ..
            } => acc
                .iter()
                .map(|v| v.buf)
                .chain(rhs.iter().copied())
                .collect(),
            BackendOp::Fma { acc, x, y } => acc
                .iter()
                .map(|v| v.buf)
                .chain(x.iter().copied())
                .chain(y.iter().copied())
                .collect(),
        }
    }
}

/// An execution substrate for batched RNS NTT workloads.
///
/// All operations are *batched*: one [`BackendOp`] covers every limb in
/// its [`LimbBatch`] or device view, which is where both the CPU engine
/// (residue-parallel threading, one dispatch) and the GPU kernels (one
/// launch over the `np`-polynomial batch, §III of the paper) get their
/// throughput.
///
/// Contracts shared by all implementations:
///
/// * residues are **canonical** (`< p`) on entry and exit of every call;
/// * forward transforms take natural-order input to bit-reversed
///   evaluations; inverse transforms undo exactly that;
/// * outputs are **bit-identical across backends** — the conformance suite
///   (`tests/backend_conformance.rs`) pins `CpuBackend` and the simulated
///   GPU backend to each other exactly.
///
/// # Example
///
/// ```
/// use ntt_core::backend::{BackendOp, CpuBackend, LimbBatch, NttBackend, RingPlan};
/// use ntt_core::{RnsPoly, RnsRing};
///
/// let ring = RnsRing::new(8, ntt_math::ntt_primes(59, 16, 2))?;
/// let plan = RingPlan::new(&ring);
/// let mut be = CpuBackend::default();
/// let mut x = RnsPoly::from_i64_coeffs(&ring, &[1, 2, 3]);
/// let orig = x.clone();
/// be.run(&plan, BackendOp::ForwardBatch(LimbBatch::from_poly(&mut x)));
/// be.run(&plan, BackendOp::InverseBatch(LimbBatch::from_poly(&mut x)));
/// assert_eq!(x.flat(), orig.flat()); // round trip is exact
/// # Ok::<(), ntt_core::RingError>(())
/// ```
pub trait NttBackend: Send {
    /// Short label for reports and conformance-test diagnostics.
    fn name(&self) -> &'static str;

    /// This backend's device memory. Device-resident [`RnsPoly`]s embed a
    /// clone of this handle, which is how a host read can lazily download
    /// without holding the backend.
    fn memory(&self) -> SharedDeviceMemory;

    /// A new executor sharing this backend's device memory (and any cached
    /// device tables), for per-thread evaluator pools: forks execute
    /// concurrently but see one device, so resident data is visible to all
    /// of them.
    fn fork(&self) -> Box<dyn NttBackend>;

    /// Whether callers should keep polynomials device-resident by default.
    /// `false` for [`CpuBackend`] (host memory *is* the identity device;
    /// staging through the arena would only add memcpys), `true` for
    /// backends with a real host↔device boundary.
    fn prefers_residency(&self) -> bool {
        false
    }

    /// Route device-memory traffic initiated *outside* the backend — lazy
    /// polynomial uploads/downloads through [`NttBackend::memory`] — to
    /// this executor's stream in the backend's overlapped-time model.
    /// Called by the [`Evaluator`] before such transfers; backends without
    /// a stream model (e.g. [`CpuBackend`]) ignore it. Purely a
    /// performance-model hint: results never depend on it.
    fn bind_stream(&self) {}

    /// Execute one op. Never draws from a fault model: `run` alone
    /// cannot fail, so split sweeps, the figure harness and every unarmed
    /// caller stay deterministic even with faults armed.
    ///
    /// # Panics
    ///
    /// Panics on a freed or foreign handle or a shape mismatch (caller
    /// bugs).
    fn run(&mut self, plan: &RingPlan, op: BackendOp<'_>);

    /// The fault gate of one op: check that its
    /// [`handles`](BackendOp::handles) are live (a freed or foreign one
    /// is [`BackendError::Fatal`]), then draw the backend's fault model
    /// for the commands the op would issue. Nothing moves: on `Err`
    /// every operand is unchanged, so a transient failure can be drawn
    /// again and the op run after it.
    fn gate(&mut self, op: &BackendOp<'_>) -> Result<(), BackendError>;

    /// [`NttBackend::gate`], then [`NttBackend::run`]: a classified
    /// [`BackendError`] instead of a panic, with every operand unchanged
    /// on `Err`.
    fn try_run(&mut self, plan: &RingPlan, op: BackendOp<'_>) -> Result<(), BackendError> {
        self.gate(&op)?;
        self.run(plan, op);
        Ok(())
    }
}

/// The reference backend: the fused lazy-reduction CPU engine
/// ([`NttExecutor`]) behind the [`NttBackend`] vocabulary.
///
/// Thread policy comes from the executor ([`ThreadPolicy`], env-tunable
/// via `NTT_WARP_THREADS`); the workspace is grow-only, so steady-state
/// batches allocate nothing.
///
/// Device memory is the identity [`HostArena`]: "resident" buffers are
/// host vectors and the device operations run the same executor directly
/// on them (no staging transfers), so the residency machinery is fully
/// exercisable — and conformance-testable against the simulated GPU —
/// on a host-only build. [`NttBackend::prefers_residency`] stays `false`:
/// routine CPU callers gain nothing from staging host data through the
/// arena.
#[derive(Debug)]
pub struct CpuBackend {
    exec: NttExecutor,
    arena: Arc<Mutex<HostArena>>,
    /// Grow-only staging rows for arena-resident compute (three operand
    /// slots: acc/out, x, y).
    stage: [Vec<u64>; 3],
}

impl Default for CpuBackend {
    fn default() -> Self {
        Self::new(ThreadPolicy::default())
    }
}

impl CpuBackend {
    /// CPU backend with an explicit thread policy.
    pub fn new(policy: ThreadPolicy) -> Self {
        Self {
            exec: NttExecutor::new(policy),
            arena: Arc::new(Mutex::new(HostArena::default())),
            stage: Default::default(),
        }
    }

    /// CPU backend configured from `NTT_WARP_THREADS`.
    pub fn from_env() -> Self {
        Self::new(ThreadPolicy::from_env())
    }

    /// The wrapped executor (e.g. for workspace accounting).
    #[inline]
    pub fn executor(&self) -> &NttExecutor {
        &self.exec
    }

    /// Mutable access to the wrapped executor (single-prime convenience
    /// paths route through here).
    #[inline]
    pub fn executor_mut(&mut self) -> &mut NttExecutor {
        &mut self.exec
    }

    fn arena(&self) -> std::sync::MutexGuard<'_, HostArena> {
        self.arena
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Pull an arena buffer into staging slot `slot` (uncounted: identity
    /// memory, this *is* the device-side access).
    fn stage_in(&mut self, slot: usize, buf: DeviceBuf) {
        let mut tmp = std::mem::take(&mut self.stage[slot]);
        tmp.clear();
        tmp.resize(buf.len(), 0);
        self.arena().read_raw(buf, &mut tmp);
        self.stage[slot] = tmp;
    }

    /// Write staging slot `slot` back to its arena buffer.
    fn stage_out(&mut self, slot: usize, buf: DeviceBuf) {
        let tmp = std::mem::take(&mut self.stage[slot]);
        self.arena().write_raw(buf, &tmp);
        self.stage[slot] = tmp;
    }
}

impl NttBackend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn memory(&self) -> SharedDeviceMemory {
        self.arena.clone()
    }

    fn fork(&self) -> Box<dyn NttBackend> {
        Box::new(CpuBackend {
            exec: NttExecutor::new(self.exec.policy()),
            arena: Arc::clone(&self.arena),
            stage: Default::default(),
        })
    }

    fn run(&mut self, plan: &RingPlan, op: BackendOp<'_>) {
        match op {
            BackendOp::ForwardBatch(mut batch) => {
                let primes = batch.primes();
                self.exec
                    .transform_rows_under(plan.ring(), primes, batch.data(), true);
            }
            BackendOp::InverseBatch(mut batch) => {
                let primes = batch.primes();
                self.exec
                    .transform_rows_under(plan.ring(), primes, batch.data(), false);
            }
            BackendOp::PointwiseBatch { mut acc, rhs } => {
                assert_eq!(acc.as_slice().len(), rhs.len(), "operand shape mismatch");
                let primes = acc.primes();
                host_pointwise_rows(plan, primes, acc.data(), rhs);
            }
            BackendOp::MultiplyBatch { a, b, mut out } => {
                let primes = out.primes();
                self.exec.multiply_rows_under(
                    plan.ring(),
                    primes,
                    a,
                    b,
                    out.data(),
                    Some(plan.strategies()),
                );
            }
            BackendOp::Forward { views, load, fold } => {
                let plain_lift = matches!(load, Some(Load::Lift { centered, .. }) if !centered);
                assert!(
                    fold.is_none() || plain_lift,
                    "a sub-scale store folds a plain lift"
                );
                if let Some(load) = load {
                    assert_eq!(load.src().len(), views.len(), "one source per view");
                }
                for (k, view) in views.iter().enumerate() {
                    match load {
                        None => self.stage_in(0, view.buf),
                        Some(load) => {
                            let src = &load.src()[k];
                            self.stage_in(1, src.buf);
                            let mut t = std::mem::take(&mut self.stage[0]);
                            t.clear();
                            t.resize(view.buf.len(), 0);
                            host_load_rows(plan, load, (src, &self.stage[1]), view, &mut t);
                            self.stage[0] = t;
                        }
                    }
                    let mut t = std::mem::take(&mut self.stage[0]);
                    self.exec
                        .transform_rows_under(plan.ring(), view.primes.clone(), &mut t, true);
                    if let Some(SubScale { dropped }) = fold {
                        assert_eq!(view.primes.start, 0, "a fold's rows start at prime 0");
                        self.stage_in(1, view.buf);
                        let mut acc = std::mem::take(&mut self.stage[1]);
                        host_sub_scale_rows(plan, view.primes.clone(), dropped, &mut acc, &t);
                        std::mem::swap(&mut t, &mut acc);
                        self.stage[1] = acc;
                    }
                    self.stage[0] = t;
                    self.stage_out(0, view.buf);
                }
            }
            BackendOp::Inverse { views } => {
                for view in views {
                    self.stage_in(0, view.buf);
                    let mut t = std::mem::take(&mut self.stage[0]);
                    self.exec
                        .transform_rows_under(plan.ring(), view.primes.clone(), &mut t, false);
                    self.stage[0] = t;
                    self.stage_out(0, view.buf);
                }
            }
            BackendOp::Pointwise { acc, rhs } => {
                assert_eq!(acc.len(), rhs.len(), "one right-hand view per view");
                for (view, &rhs) in acc.iter().zip(rhs) {
                    self.stage_in(0, view.buf);
                    self.stage_in(1, rhs);
                    let mut a = std::mem::take(&mut self.stage[0]);
                    host_pointwise_rows(plan, view.primes.clone(), &mut a, &self.stage[1]);
                    self.stage[0] = a;
                    self.stage_out(0, view.buf);
                }
            }
            BackendOp::Fma { acc, x, y } => {
                assert_eq!(x.len(), y.len(), "fma term count mismatch");
                assert_eq!(
                    x.len() % acc.len(),
                    0,
                    "every accumulator takes as many terms"
                );
                let m = x.len() / acc.len();
                for (k, view) in acc.iter().enumerate() {
                    self.stage_in(0, view.buf);
                    let mut a = std::mem::take(&mut self.stage[0]);
                    for (&xk, &yk) in x[k * m..(k + 1) * m].iter().zip(&y[k * m..(k + 1) * m]) {
                        assert_eq!(xk.len(), view.buf.len(), "fma term shape mismatch");
                        assert_eq!(yk.len(), view.buf.len(), "fma term shape mismatch");
                        self.stage_in(1, xk);
                        self.stage_in(2, yk);
                        let primes = view.primes.clone();
                        host_fma_rows(plan, primes, &mut a, &self.stage[1], &self.stage[2]);
                    }
                    self.stage[0] = a;
                    self.stage_out(0, view.buf);
                }
            }
            BackendOp::AddSub { acc, rhs, subtract } => {
                assert_eq!(acc.len(), rhs.len(), "one right-hand view per view");
                for (view, &rhs) in acc.iter().zip(rhs) {
                    self.stage_in(0, view.buf);
                    self.stage_in(1, rhs);
                    let mut a = std::mem::take(&mut self.stage[0]);
                    let primes = view.primes.clone();
                    host_addsub_rows(plan.ring(), primes, &mut a, &self.stage[1], subtract);
                    self.stage[0] = a;
                    self.stage_out(0, view.buf);
                }
            }
            BackendOp::Negate { views } => {
                for view in views {
                    self.stage_in(0, view.buf);
                    let mut a = std::mem::take(&mut self.stage[0]);
                    host_negate_rows(plan.ring(), view.primes.clone(), &mut a);
                    self.stage[0] = a;
                    self.stage_out(0, view.buf);
                }
            }
            BackendOp::Automorphism { src, dst, g } => {
                assert_eq!(src.len(), dst.len(), "one destination per view");
                for (view, &dst) in src.iter().zip(dst) {
                    self.stage_in(1, view.buf);
                    let mut d = std::mem::take(&mut self.stage[0]);
                    d.clear();
                    d.resize(dst.len(), 0);
                    let primes = view.primes.clone();
                    host_automorphism_rows(plan, primes, g, &self.stage[1], &mut d);
                    self.stage[0] = d;
                    self.stage_out(0, dst);
                }
            }
        }
    }

    /// No fault model, but a freed or foreign handle is still a
    /// recoverable condition on the typed surface: validated up front
    /// instead of letting the arena's invariant check panic mid-op.
    fn gate(&mut self, op: &BackendOp<'_>) -> Result<(), BackendError> {
        if op.handles().iter().all(|&b| self.arena().is_live(b)) {
            Ok(())
        } else {
            Err(BackendError::Fatal { op: op.label() })
        }
    }
}

thread_local! {
    static DEFAULT_BACKEND: RefCell<CpuBackend> = RefCell::new(CpuBackend::from_env());
}

/// Run `f` with this thread's default [`CpuBackend`] (thread policy from
/// `NTT_WARP_THREADS`, workspace persisted across calls). The ring-level
/// convenience APIs ([`RnsRing::multiply`], [`RnsPoly::to_evaluation`], …)
/// route through here, so ordinary callers get plan-based batched
/// execution without holding an [`Evaluator`].
///
/// `f` must not itself re-enter this function (the backend is held in a
/// `RefCell`).
pub fn with_default_backend<R>(f: impl FnOnce(&mut CpuBackend) -> R) -> R {
    DEFAULT_BACKEND.with(|b| f(&mut b.borrow_mut()))
}

/// The first factor of one [`Evaluator::fma`] term.
#[derive(Debug, Clone, Copy)]
pub enum FmaFactor<'a> {
    /// An evaluation-form polynomial, wherever it lives.
    Poly(&'a RnsPoly),
    /// An accumulator-shaped view in the evaluator's device memory, such
    /// as one device digit of [`Evaluator::decompose`].
    View(DeviceBuf),
}

/// The transformed gadget digits of one [`Evaluator::decompose`], digit
/// `k = j·digits + d` in evaluation form with the source's level.
#[derive(Debug)]
pub enum Digits {
    /// Consecutive `words`-word views of the evaluator's device scratch,
    /// valid until its next decompose or automorphism.
    Device {
        /// The whole buffer of digits.
        buf: DeviceBuf,
        /// Words per digit (`level · N`).
        words: usize,
    },
    /// One host polynomial per digit.
    Host(Vec<RnsPoly>),
}

impl Digits {
    /// Digit `k` as the first factor of an [`Evaluator::fma`] term.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn factor(&self, k: usize) -> FmaFactor<'_> {
        match self {
            Digits::Device { buf, words } => FmaFactor::View(buf.sub(k * words, *words)),
            Digits::Host(polys) => FmaFactor::Poly(&polys[k]),
        }
    }
}

/// A backend-generic driver: one [`RingPlan`] plus one boxed
/// [`NttBackend`], with polynomial-level operations on top of the batched
/// trait vocabulary.
///
/// This is the object `he-lite` holds; swapping the execution substrate is
/// a one-line constructor change:
///
/// ```
/// use ntt_core::backend::{CpuBackend, Evaluator};
/// use ntt_core::{RnsPoly, RnsRing};
///
/// let ring = RnsRing::new(16, ntt_math::ntt_primes(59, 32, 2))?;
/// // let mut ev = Evaluator::with_backend(&ring, Box::new(SimBackend::titan_v()));
/// let mut ev = Evaluator::with_backend(&ring, Box::new(CpuBackend::default()));
///
/// let mut x = RnsPoly::from_i64_coeffs(&ring, &[2, 0, 1]);
/// ev.to_evaluation(&mut x);
/// ev.to_coefficient(&mut x);
/// assert_eq!(x.coefficient_centered(&ring, 2), Some(1));
/// # Ok::<(), ntt_core::RingError>(())
/// ```
pub struct Evaluator {
    plan: RingPlan,
    backend: Box<dyn NttBackend>,
    /// Grow-only device scratch in the backend's memory, one allocation
    /// per slot (freed on drop): slot 0 holds the key switch's
    /// buffer-of-digits, slot `1 + k` the automorphism's output of its
    /// `k`-th polynomial, viewed from row 0 like that polynomial.
    scratch: Vec<Option<DeviceBuf>>,
    /// The fault gate: `None` unarmed, `Some(Ok(()))` armed and healthy,
    /// `Some(Err(_))` the first fault since arming (see
    /// [`Evaluator::gated`]).
    gate: Option<Result<(), BackendError>>,
    /// Transient gate failures re-drawn in place since the evaluator was
    /// last armed.
    retries: u64,
}

/// In-place re-draws an armed evaluator gives one transient gate failure
/// before it latches.
const OP_RETRIES: u64 = 3;

/// Draw `gate`, re-drawing a transient failure in place up to
/// [`OP_RETRIES`] times: the outcome and the re-draws it took.
fn retried<T>(mut gate: impl FnMut() -> Result<T, BackendError>) -> (Result<T, BackendError>, u64) {
    let mut retries = 0;
    loop {
        match gate() {
            Err(e) if e.is_transient() && retries < OP_RETRIES => retries += 1,
            outcome => return (outcome, retries),
        }
    }
}

impl Drop for Evaluator {
    fn drop(&mut self) {
        let mem = self.backend.memory();
        for buf in self.scratch.drain(..).flatten() {
            lock_memory(&mem).free(buf);
        }
    }
}

impl std::fmt::Debug for Evaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Evaluator")
            .field("backend", &self.backend.name())
            .field("degree", &self.plan.degree())
            .field("np", &self.plan.np())
            .finish()
    }
}

impl Evaluator {
    /// Pair an existing plan with a backend.
    pub fn new(plan: RingPlan, backend: Box<dyn NttBackend>) -> Self {
        Self {
            plan,
            backend,
            scratch: Vec::new(),
            gate: None,
            retries: 0,
        }
    }

    /// Evaluator over `ring` with the given backend (plans the ring).
    pub fn with_backend(ring: &RnsRing, backend: Box<dyn NttBackend>) -> Self {
        Self::new(ring.plan(), backend)
    }

    /// Evaluator over `ring` with the default CPU backend.
    pub fn cpu(ring: &RnsRing) -> Self {
        Self::with_backend(ring, Box::new(CpuBackend::from_env()))
    }

    /// The plan in force.
    #[inline]
    pub fn plan(&self) -> &RingPlan {
        &self.plan
    }

    /// The planned ring.
    #[inline]
    pub fn ring(&self) -> &RnsRing {
        self.plan.ring()
    }

    /// The backend's label.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The backend's device memory handle.
    pub fn memory(&self) -> SharedDeviceMemory {
        self.backend.memory()
    }

    /// Whether this evaluator keeps polynomials device-resident by default
    /// (see [`NttBackend::prefers_residency`]).
    pub fn prefers_residency(&self) -> bool {
        self.backend.prefers_residency()
    }

    /// The backend's transfer ledger.
    pub fn transfer_stats(&self) -> TransferStats {
        lock_memory(&self.backend.memory()).stats()
    }

    /// Upload `poly` into this backend's device memory (one counted
    /// transfer if the host copy is the fresh one; a no-op if the poly is
    /// already resident and clean here). From then on every evaluator
    /// operation on it runs device-side.
    pub fn make_resident(&mut self, poly: &mut RnsPoly) {
        self.backend.bind_stream();
        let mem = self.backend.memory();
        poly.make_resident_in(&mem);
    }

    /// A zero polynomial born **mirrored**: zeroed device buffer + zeroed
    /// host rows, in sync, no transfer charged (allocation is not an
    /// upload). Accumulators in device-resident chains start here.
    pub fn zero_resident(&mut self, level: usize, repr: Representation) -> RnsPoly {
        self.backend.bind_stream();
        let mut poly = RnsPoly::zero_with_repr(self.plan.ring(), level, repr);
        let buf = self.device_alloc(level * self.plan.degree());
        poly.adopt_mirror(&self.backend.memory(), buf);
        poly
    }

    /// Allocate `words` zeroed device words. Armed and healthy, the
    /// evaluator allocates through [`DeviceMemory::try_alloc`], so an
    /// injected OOM latches like a launch fault; the infallible
    /// [`DeviceMemory::alloc`] then serves the request, so every buffer
    /// the rest of the checkout touches stays valid while nothing is
    /// issued on it.
    fn device_alloc(&mut self, words: usize) -> DeviceBuf {
        let mem = self.backend.memory();
        if matches!(self.gate, Some(Ok(()))) {
            let drawn = retried(|| lock_memory(&mem).try_alloc(words));
            if let Some(buf) = self.settle(drawn) {
                return buf;
            }
        }
        let buf = lock_memory(&mem).alloc(words);
        buf
    }

    /// `poly`'s active device view if it is resident **in this backend's
    /// memory** with an up-to-date device copy.
    fn dev_buf(&self, poly: &RnsPoly) -> Option<DeviceBuf> {
        poly.device_buf_in(&self.backend.memory())
    }

    /// Dispatch guard for in-place ops: if `poly` has a mirror in this
    /// backend's memory, flush any host-side edits to the device and hand
    /// back its buffer (residency is sticky — mirrored polys stay on the
    /// device). `None` → caller runs the host path.
    fn device_target(&mut self, poly: &mut RnsPoly) -> Option<DeviceBuf> {
        let mem = self.backend.memory();
        if !poly.has_mirror_in(&mem) {
            return None;
        }
        poly.make_resident_in(&mem); // flush host_dirty, if any
        Some(poly.device_buf_in(&mem).expect("just flushed"))
    }

    /// Forward-transform a polynomial (no-op if already in evaluation
    /// form). Device-resident polynomials are transformed on the device;
    /// host polynomials through the batched host path.
    pub fn to_evaluation(&mut self, poly: &mut RnsPoly) {
        self.forward_polys(&mut [poly]);
    }

    /// Inverse-transform a polynomial (no-op if already in coefficient
    /// form).
    pub fn to_coefficient(&mut self, poly: &mut RnsPoly) {
        self.inverse_polys(&mut [poly]);
    }

    /// Forward-transform several polynomials (each already-transformed one
    /// is skipped). Every one resident in this backend's memory joins
    /// **one** [`BackendOp::Forward`], one view per polynomial — on a
    /// device, one launch for all of them; the host ones of each level
    /// share one [`BackendOp::ForwardBatch`].
    pub fn forward_polys(&mut self, polys: &mut [&mut RnsPoly]) {
        self.transform_polys(polys, Representation::Evaluation);
    }

    /// Inverse counterpart of [`Evaluator::forward_polys`]: the resident
    /// polynomials share one [`BackendOp::Inverse`], the host ones of each
    /// level one [`BackendOp::InverseBatch`].
    pub fn inverse_polys(&mut self, polys: &mut [&mut RnsPoly]) {
        self.transform_polys(polys, Representation::Coefficient);
    }

    /// The one transform path: every polynomial not already in `to`
    /// form, the resident ones in one device op, the host ones in one
    /// host batch per level.
    fn transform_polys(&mut self, polys: &mut [&mut RnsPoly], to: Representation) {
        let (mut views, mut resident, mut host) = (Vec::new(), Vec::new(), Vec::new());
        for poly in polys.iter_mut().filter(|p| p.repr() != to) {
            match self.device_target(poly) {
                Some(buf) => {
                    views.push(PolyView::new(buf, 0..poly.level()));
                    resident.push(&mut **poly);
                }
                None => {
                    poly.set_repr(to);
                    host.push((&mut **poly, None));
                }
            }
        }
        let forward = to == Representation::Evaluation;
        self.host_batches(
            host,
            if forward {
                |rows, _| BackendOp::ForwardBatch(rows)
            } else {
                |rows, _| BackendOp::InverseBatch(rows)
            },
        );
        if views.is_empty() {
            return;
        }
        self.dispatch(if forward {
            BackendOp::Forward {
                views: &views,
                load: None,
                fold: None,
            }
        } else {
            BackendOp::Inverse { views: &views }
        });
        for poly in resident {
            poly.mark_device_dirty();
            poly.set_repr(to);
        }
    }

    /// Issue `op` over host polynomials as host batches, one per level
    /// (a batch's rows share one prime range). A lone polynomial runs in
    /// place; several are packed back to back into one buffer, so a
    /// staging backend uploads, launches and downloads once for all of
    /// them, and unpacked after. An entry's right-hand polynomial, if
    /// any, is packed alongside as the op's second operand.
    fn host_batches(&mut self, mut items: Vec<HostRows<'_>>, op: HostOp) {
        let n = self.plan.degree();
        while let Some(level) = items.first().map(|(p, _)| p.level()) {
            let (mut batch, rest): (Vec<_>, Vec<_>) =
                items.into_iter().partition(|(p, _)| p.level() == level);
            items = rest;
            for (poly, _) in &mut batch {
                poly.sync();
            }
            if let [(poly, rhs)] = &mut batch[..] {
                let rhs = rhs.map_or(&[][..], RnsPoly::flat);
                self.dispatch(op(LimbBatch::from_poly(poly), rhs));
                continue;
            }
            let mut rows: Vec<u64> = batch.iter().flat_map(|(p, _)| p.flat()).copied().collect();
            let rhs: Vec<u64> = batch
                .iter()
                .filter_map(|(_, r)| r.map(RnsPoly::flat))
                .flatten()
                .copied()
                .collect();
            self.dispatch(op(LimbBatch::new(&mut rows, n, level), &rhs));
            for ((poly, _), rows) in batch.iter_mut().zip(rows.chunks_exact(level * n)) {
                poly.flat_mut().copy_from_slice(rows);
            }
        }
    }

    /// Run `f` with this evaluator **armed**, and return `f`'s result, or
    /// the first fault any of its ops hit.
    ///
    /// Every [`BackendOp`] the evaluator issues goes through one private
    /// dispatch: unarmed it calls [`NttBackend::run`], which never draws
    /// a fault; armed it passes [`NttBackend::gate`] first. A transient
    /// gate failure is drawn again in place, up to three times, before
    /// it counts; the gate fires before any operand moves, so the op then
    /// runs on unchanged data ([`Evaluator::op_retries`] counts these
    /// re-draws). The first failure that counts is latched, and from then
    /// on the evaluator issues nothing — no further draw, no launch —
    /// while `f` runs to its end over stale data, like a GPU stream that
    /// reports a failed launch at the next synchronization. So on `Err`
    /// nothing `f` computed may be used (or decoded) afterwards; its
    /// inputs are untouched and the identical work can be retried. The
    /// evaluator's own device allocations (zero accumulators and
    /// scratch) go through [`DeviceMemory::try_alloc`] and latch an
    /// injected OOM the same way; host↔device staging never draws, armed
    /// or not.
    ///
    /// A nested call shares the outer latch. The evaluator is unarmed
    /// again when the outermost call returns. [`Evaluator::arm`] and
    /// [`Evaluator::disarm`] are the same two steps for an armed span
    /// that is not one closure.
    ///
    /// ```
    /// use ntt_core::backend::Evaluator;
    /// use ntt_core::{RnsPoly, RnsRing};
    ///
    /// let ring = RnsRing::new(16, ntt_math::ntt_primes(59, 32, 2))?;
    /// let mut ev = Evaluator::cpu(&ring);
    /// let mut x = RnsPoly::from_i64_coeffs(&ring, &[2, 0, 1]);
    /// // The CPU engine has no fault model: an armed run cannot fail.
    /// ev.gated(|ev| ev.to_evaluation(&mut x)).expect("no fault model");
    /// ev.to_coefficient(&mut x);
    /// assert_eq!(x.coefficient_centered(&ring, 2), Some(1));
    /// # Ok::<(), ntt_core::RingError>(())
    /// ```
    pub fn gated<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> Result<R, BackendError> {
        let outer = self.gate.is_some();
        self.arm();
        let r = f(self);
        let latch = if outer {
            self.gate.clone().expect("armed for the call")
        } else {
            self.disarm()
        };
        latch.map(|()| r)
    }

    /// Arm the evaluator until [`Evaluator::disarm`] (see
    /// [`Evaluator::gated`]) and zero its [`Evaluator::op_retries`]. A
    /// no-op on an armed evaluator.
    pub fn arm(&mut self) {
        if self.gate.is_none() {
            self.gate = Some(Ok(()));
            self.retries = 0;
        }
    }

    /// Unarm the evaluator and return its latch: the first fault since
    /// [`Evaluator::arm`], or `Ok` (also when it was not armed).
    ///
    /// # Errors
    ///
    /// The latched [`BackendError`].
    pub fn disarm(&mut self) -> Result<(), BackendError> {
        self.gate.take().unwrap_or(Ok(()))
    }

    /// Transient gate failures the evaluator re-drew in place since it
    /// was last armed.
    pub fn op_retries(&self) -> u64 {
        self.retries
    }

    /// Book an armed draw (after its in-place re-draws): its value if it
    /// passed, else `None` with the failure latched.
    fn settle<T>(&mut self, (outcome, retries): (Result<T, BackendError>, u64)) -> Option<T> {
        self.retries += retries;
        outcome.map_err(|e| self.gate = Some(Err(e))).ok()
    }

    /// Issue `op`: [`NttBackend::run`] unarmed, [`NttBackend::gate`] and
    /// then `run` armed, nothing once a fault is latched.
    fn dispatch(&mut self, op: BackendOp<'_>) {
        match self.gate {
            None => {}
            Some(Ok(())) => {
                let drawn = retried(|| self.backend.gate(&op));
                if self.settle(drawn).is_none() {
                    return;
                }
            }
            Some(Err(_)) => return,
        }
        self.backend.run(&self.plan, op);
    }

    /// Dispatch guard for binary ops: device path iff `rhs` is
    /// device-fresh in this backend's memory (then `acc` is pulled to the
    /// device too). Returns the pair of device views, or `None` for the
    /// host path (where `acc` is lazily synced).
    fn device_pair(&mut self, acc: &mut RnsPoly, rhs: &RnsPoly) -> Option<(DeviceBuf, DeviceBuf)> {
        let rbuf = self.dev_buf(rhs)?;
        let mem = self.backend.memory();
        acc.make_resident_in(&mem);
        let abuf = acc.device_buf_in(&mem).expect("just uploaded");
        Some((abuf, rbuf))
    }

    /// Pointwise product `acc *= rhs` (both in evaluation form): the
    /// one-pair case of [`Evaluator::mul_pointwise_polys`]. Runs on the
    /// device when `rhs` is device-resident.
    ///
    /// # Panics
    ///
    /// Panics on level mismatch or if either operand is in coefficient
    /// form.
    pub fn mul_pointwise(&mut self, acc: &mut RnsPoly, rhs: &RnsPoly) {
        self.mul_pointwise_polys(&mut [(acc, rhs)]);
    }

    /// Pointwise products `acc *= rhs` of evaluation-form pairs. The
    /// pairs whose `rhs` is device-resident in this backend's memory run
    /// on the device (each `acc` pulled there too) in **one**
    /// [`BackendOp::Pointwise`], one view per pair; the host pairs of
    /// each level share one [`BackendOp::PointwiseBatch`].
    ///
    /// # Panics
    ///
    /// Panics on a level mismatch within a pair or if an operand is in
    /// coefficient form.
    pub fn mul_pointwise_polys(&mut self, pairs: &mut [(&mut RnsPoly, &RnsPoly)]) {
        let (mut acc, mut rhs, mut resident, mut host) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (a, r) in pairs.iter_mut() {
            assert_eq!(a.level(), r.level(), "level mismatch");
            assert_eq!(a.repr(), Representation::Evaluation, "lhs not in NTT form");
            assert_eq!(r.repr(), Representation::Evaluation, "rhs not in NTT form");
            match self.device_pair(a, r) {
                Some((abuf, rbuf)) => {
                    acc.push(PolyView::new(abuf, 0..a.level()));
                    rhs.push(rbuf);
                    resident.push(&mut **a);
                }
                None => host.push((&mut **a, Some(*r))),
            }
        }
        if !acc.is_empty() {
            self.dispatch(BackendOp::Pointwise {
                acc: &acc,
                rhs: &rhs,
            });
            for a in resident {
                a.mark_device_dirty();
            }
        }
        self.host_batches(host, |acc, rhs| BackendOp::PointwiseBatch { acc, rhs });
    }

    /// Row-wise sum `acc += rhs` (representations must match; valid in
    /// either domain): the one-pair case of [`Evaluator::add_polys`].
    ///
    /// # Panics
    ///
    /// Panics on level or representation mismatch.
    pub fn add_assign(&mut self, acc: &mut RnsPoly, rhs: &RnsPoly) {
        self.add_polys(&mut [(acc, rhs)]);
    }

    /// Row-wise difference `acc -= rhs`: the one-pair case of
    /// [`Evaluator::sub_polys`].
    ///
    /// # Panics
    ///
    /// Panics on level or representation mismatch.
    pub fn sub_assign(&mut self, acc: &mut RnsPoly, rhs: &RnsPoly) {
        self.sub_polys(&mut [(acc, rhs)]);
    }

    /// Row-wise sums `acc += rhs` of pairs whose representations match.
    /// The pairs whose `rhs` is device-resident in this backend's memory
    /// run on the device (each `acc` pulled there too) in **one**
    /// [`BackendOp::AddSub`], one view per pair; the others add on the
    /// host.
    ///
    /// # Panics
    ///
    /// Panics on a level or representation mismatch within a pair.
    pub fn add_polys(&mut self, pairs: &mut [(&mut RnsPoly, &RnsPoly)]) {
        self.addsub_polys(pairs, false);
    }

    /// Row-wise differences `acc -= rhs`, issued as
    /// [`Evaluator::add_polys`] issues its sums.
    ///
    /// # Panics
    ///
    /// Panics on a level or representation mismatch within a pair.
    pub fn sub_polys(&mut self, pairs: &mut [(&mut RnsPoly, &RnsPoly)]) {
        self.addsub_polys(pairs, true);
    }

    fn addsub_polys(&mut self, pairs: &mut [(&mut RnsPoly, &RnsPoly)], subtract: bool) {
        let (mut acc, mut rhs, mut resident) = (Vec::new(), Vec::new(), Vec::new());
        for (a, r) in pairs.iter_mut() {
            assert_eq!(a.level(), r.level(), "level mismatch");
            assert_eq!(a.repr(), r.repr(), "representation mismatch");
            match self.device_pair(a, r) {
                Some((abuf, rbuf)) => {
                    acc.push(PolyView::new(abuf, 0..a.level()));
                    rhs.push(rbuf);
                    resident.push(&mut **a);
                }
                None if subtract => a.sub_assign(r, self.plan.ring()),
                None => a.add_assign(r, self.plan.ring()),
            }
        }
        if acc.is_empty() {
            return;
        }
        self.dispatch(BackendOp::AddSub {
            acc: &acc,
            rhs: &rhs,
            subtract,
        });
        for a in resident {
            a.mark_device_dirty();
        }
    }

    /// Negate `poly` in place: the one-polynomial case of
    /// [`Evaluator::negate_polys`].
    pub fn negate(&mut self, poly: &mut RnsPoly) {
        self.negate_polys(&mut [poly]);
    }

    /// Negate polynomials in place: the ones resident in this backend's
    /// memory in **one** [`BackendOp::Negate`], one view each, the others
    /// on the host.
    pub fn negate_polys(&mut self, polys: &mut [&mut RnsPoly]) {
        let (mut views, mut resident) = (Vec::new(), Vec::new());
        for poly in polys.iter_mut() {
            match self.device_target(poly) {
                Some(buf) => {
                    views.push(PolyView::new(buf, 0..poly.level()));
                    resident.push(&mut **poly);
                }
                None => poly.negate(self.plan.ring()),
            }
        }
        if views.is_empty() {
            return;
        }
        self.dispatch(BackendOp::Negate { views: &views });
        for poly in resident {
            poly.mark_device_dirty();
        }
    }

    /// CKKS-style exact rescale of one polynomial: divide by the last
    /// active prime and drop a level, in either representation. It runs
    /// [`Evaluator::rescale_polys`], so a coefficient-form polynomial
    /// pays a forward transform before and an inverse one after; the HE
    /// layer keeps ciphertexts in evaluation form and rescales both
    /// components through `rescale_polys` directly.
    ///
    /// # Panics
    ///
    /// Panics if only one level remains.
    pub fn rescale(&mut self, poly: &mut RnsPoly) {
        let repr = poly.repr();
        self.to_evaluation(poly);
        self.rescale_polys(&mut [&mut *poly]);
        if repr == Representation::Coefficient {
            self.to_coefficient(poly);
        }
    }

    /// Exact CKKS rescale of several evaluation-form polynomials at one
    /// level `l`, in the evaluation domain: each is divided by `p_{l-1}`
    /// and drops that prime, bit-identical to [`RnsPoly::rescale`] on its
    /// coefficients.
    ///
    /// Only the dropped rows cross domains. One inverse transform covers
    /// every polynomial's dropped row, and one [`BackendOp::Forward`]
    /// writes the `l − 1` remaining rows of every polynomial: each row
    /// loads the plain lift of its dropped row ([`Load::Lift`]) and stores
    /// `(c_i − t_i)·p_{l-1}⁻¹` ([`SubScale`]) — `2l` NTT rows per
    /// polynomial instead of `4l − 2`, no lifted row stored, and on a
    /// simulated GPU below 256 points two launches for a whole
    /// ciphertext. The NTT is exact and linear mod each `p_i`, so the
    /// result is the coefficient-domain rescale's. If any polynomial is
    /// resident in this backend's memory, all are made resident and
    /// nothing crosses the bus; otherwise the same steps run as two host
    /// batches, one [`BackendOp::InverseBatch`] of every dropped row and
    /// one [`BackendOp::ForwardBatch`] of every lifted row.
    ///
    /// # Panics
    ///
    /// Panics on a coefficient-form polynomial, on mixed levels, or if
    /// only one level remains.
    pub fn rescale_polys(&mut self, polys: &mut [&mut RnsPoly]) {
        let Some(level) = polys.first().map(|p| p.level()) else {
            return;
        };
        assert!(level > 1, "cannot rescale past the last prime");
        for poly in polys.iter() {
            assert_eq!(poly.level(), level, "level mismatch");
            assert_eq!(
                poly.repr(),
                Representation::Evaluation,
                "rescale_polys requires evaluation form"
            );
        }
        let (n, last) = (self.plan.degree(), level - 1);
        let mem = self.backend.memory();
        if !polys.iter().any(|p| p.has_mirror_in(&mem)) {
            return self.host_rescale(polys);
        }
        let bufs: Vec<DeviceBuf> = polys
            .iter_mut()
            .map(|p| {
                p.make_resident_in(&mem);
                p.device_buf_in(&mem).expect("just made resident")
            })
            .collect();
        let dropped: Vec<PolyView> = bufs
            .iter()
            .map(|b| PolyView::new(b.sub(last * n, n), last..level))
            .collect();
        self.dispatch(BackendOp::Inverse { views: &dropped });
        let acc: Vec<PolyView> = bufs
            .iter()
            .map(|b| PolyView::new(b.sub(0, last * n), 0..last))
            .collect();
        self.dispatch(BackendOp::Forward {
            views: &acc,
            load: Some(Load::Lift {
                src: &dropped,
                centered: false,
            }),
            fold: Some(SubScale { dropped: last }),
        });
        for poly in polys.iter_mut() {
            poly.device_truncate_level();
        }
    }

    /// The host path of [`Evaluator::rescale_polys`]: every dropped row
    /// in one inverse call under `l − 1..l`, the lift on the host, and the
    /// lifted rows of every polynomial in one forward call.
    fn host_rescale(&mut self, polys: &mut [&mut RnsPoly]) {
        let (n, level) = (self.plan.degree(), polys[0].level());
        let last = level - 1;
        let mut dropped = Vec::with_capacity(polys.len() * n);
        for poly in polys.iter_mut() {
            poly.sync();
            dropped.extend_from_slice(poly.row(last));
        }
        let op = BackendOp::InverseBatch(LimbBatch::under(&mut dropped, n, last..level));
        self.dispatch(op);
        let mut lifted = vec![0u64; polys.len() * last * n];
        for (t, row) in lifted
            .chunks_exact_mut(last * n)
            .zip(dropped.chunks_exact(n))
        {
            host_lift_rows(&self.plan, (row, last), false, t, 0..last);
        }
        let op = BackendOp::ForwardBatch(LimbBatch::new(&mut lifted, n, last));
        self.dispatch(op);
        for (poly, t) in polys.iter_mut().zip(lifted.chunks_exact(last * n)) {
            poly.drop_last_level();
            host_sub_scale_rows(&self.plan, 0..last, last, poly.flat_mut(), t);
        }
    }

    /// Galois automorphism `X → X^g` in place (coefficient form; `g`
    /// odd): the one-polynomial case of [`Evaluator::automorphism_polys`].
    ///
    /// # Panics
    ///
    /// Panics if `poly` is in evaluation form or `g` is even.
    pub fn automorphism(&mut self, poly: &mut RnsPoly, g: u64) {
        self.automorphism_polys(&mut [poly], g);
    }

    /// Galois automorphism `X → X^g` of several polynomials in place
    /// (coefficient form; `g` odd). The ones resident in this backend's
    /// memory permute on the device in **one** [`BackendOp::Automorphism`]
    /// into the evaluator's scratch, one buffer each — no host transfer;
    /// each write-back is a device-to-device copy. The others permute on
    /// the host.
    ///
    /// # Panics
    ///
    /// Panics if a polynomial is in evaluation form or `g` is even.
    pub fn automorphism_polys(&mut self, polys: &mut [&mut RnsPoly], g: u64) {
        let (mut src, mut dst, mut resident) = (Vec::new(), Vec::new(), Vec::new());
        for poly in polys.iter_mut() {
            assert_eq!(
                poly.repr(),
                Representation::Coefficient,
                "automorphism requires coefficient form"
            );
            if let Some(buf) = self.device_target(poly) {
                dst.push(self.scratch(1 + src.len(), buf.len()));
                src.push(PolyView::new(buf, 0..poly.level()));
                resident.push(&mut **poly);
            } else {
                poly.sync();
                let mut out = vec![0u64; poly.flat().len()];
                let primes = 0..poly.level();
                host_automorphism_rows(&self.plan, primes, g, poly.flat(), &mut out);
                poly.flat_mut().copy_from_slice(&out);
            }
        }
        if src.is_empty() {
            return;
        }
        self.dispatch(BackendOp::Automorphism {
            src: &src,
            dst: &dst,
            g,
        });
        let mem = self.backend.memory();
        for (view, &tmp) in src.iter().zip(&dst) {
            lock_memory(&mem).copy(tmp, view.buf);
        }
        for poly in resident {
            poly.mark_device_dirty();
        }
    }

    /// Mod-raise: re-embed last-level (single-prime) coefficient
    /// polynomials into the first `to_level` primes of the RNS basis by a
    /// centered lift mod `p₀`, in evaluation form — the bootstrapping
    /// entry point. The sources are unchanged. Resident sources are
    /// raised together by one [`BackendOp::Forward`] that loads the
    /// centered lift ([`Load::Lift`]) into resident results, with no host
    /// transfer and no lifted row stored; host sources are lifted on the
    /// host and transformed in one host batch.
    ///
    /// # Panics
    ///
    /// Panics unless every polynomial is at level 1 and in coefficient
    /// form.
    pub fn mod_raise(&mut self, polys: &mut [&mut RnsPoly], to_level: usize) -> Vec<RnsPoly> {
        for poly in polys.iter() {
            assert_eq!(poly.level(), 1, "mod_raise input must be at level 1");
            assert_eq!(
                poly.repr(),
                Representation::Coefficient,
                "mod_raise requires coefficient form"
            );
        }
        let (mut src, mut outs) = (Vec::new(), Vec::new());
        for poly in polys.iter_mut() {
            if let Some(buf) = self.device_target(poly) {
                src.push(PolyView::new(buf, 0..1));
                outs.push(self.zero_resident(to_level, Representation::Evaluation));
            } else {
                poly.sync();
                let ring = self.plan.ring();
                let mut out = RnsPoly::zero_with_repr(ring, to_level, Representation::Coefficient);
                let from = (poly.flat(), 0);
                host_lift_rows(&self.plan, from, true, out.flat_mut(), 0..to_level);
                outs.push(out);
            }
        }
        // The resident results are born in evaluation form, so this
        // transforms the host lifts alone.
        self.forward_polys(&mut outs.iter_mut().collect::<Vec<_>>());
        if !src.is_empty() {
            let mem = self.backend.memory();
            let views: Vec<PolyView> = outs
                .iter()
                .filter_map(|out| out.device_buf_in(&mem))
                .map(|buf| PolyView::new(buf, 0..to_level))
                .collect();
            self.dispatch(BackendOp::Forward {
                views: &views,
                load: Some(Load::Lift {
                    src: &src,
                    centered: true,
                }),
                fold: None,
            });
            for out in outs.iter_mut().filter(|o| o.has_mirror_in(&mem)) {
                out.mark_device_dirty();
            }
        }
        outs
    }

    /// Drop RNS moduli down to `target` level with no scale change — exact
    /// basis truncation (the dropped rows are simply discarded). Used to
    /// align ciphertext levels before an add/multiply. Device-resident
    /// polynomials shrink their logical view in place; nothing crosses the
    /// bus.
    ///
    /// # Panics
    ///
    /// Panics if `target` is 0 or above the current level.
    pub fn drop_level(&mut self, poly: &mut RnsPoly, target: usize) {
        assert!(
            target >= 1 && target <= poly.level(),
            "invalid drop_level target"
        );
        if poly.level() == target {
            return;
        }
        if self.device_target(poly).is_some() {
            while poly.level() > target {
                poly.device_truncate_level();
            }
        } else {
            poly.sync();
            *poly = poly.truncated(target);
        }
    }

    /// Multiply-accumulate `acc += Σ_k x_k ⊙ y_k` over evaluation-form
    /// terms: the one-accumulator case of [`Evaluator::fma_polys`].
    ///
    /// # Panics
    ///
    /// As [`Evaluator::fma_polys`].
    pub fn fma(&mut self, acc: &mut RnsPoly, terms: &[(FmaFactor<'_>, &RnsPoly)]) {
        self.fma_polys(&mut [(acc, terms)]);
    }

    /// Multiply-accumulates `acc += Σ_k x_k ⊙ y_k` over evaluation-form
    /// terms, one term list per accumulator: a key switch's two inner
    /// products (digit views × key halves, plus any product terms it
    /// folds in) or the two components of a plaintext-product sum.
    ///
    /// Every term with a factor device-fresh in this backend's memory
    /// goes to the device; its other factor, if it is on the host, is
    /// staged up for the op (one counted upload, freed after), and its
    /// accumulator is pulled to the device like [`Evaluator::add_polys`]
    /// pulls its accumulators. The accumulators with as many device terms
    /// share **one** [`BackendOp::Fma`], so the same-shaped inner products
    /// of a key switch or a ciphertext are one op. A term with both
    /// factors on the host is added straight into its accumulator's host
    /// rows, with the row function `CpuBackend`'s `Fma` arm runs: no
    /// backend op, so nothing is staged or drawn. Products are canonical
    /// under the plan's strategy and sums mod `p` are exact in any order,
    /// so the bits are those of a [`Evaluator::mul_pointwise`] +
    /// [`Evaluator::add_assign`] chain either way.
    ///
    /// # Panics
    ///
    /// Panics on level or representation mismatch, on a
    /// [`FmaFactor::View`] whose partner is not device-fresh here, or on
    /// a view that is not accumulator-shaped.
    pub fn fma_polys(&mut self, accs: &mut [(&mut RnsPoly, &[(FmaFactor<'_>, &RnsPoly)])]) {
        // Per accumulator with device terms: its index and factor views.
        let (mut device, mut staged) = (Vec::new(), Vec::new());
        for (i, (acc, terms)) in accs.iter_mut().enumerate() {
            assert_eq!(
                acc.repr(),
                Representation::Evaluation,
                "accumulator not in NTT form"
            );
            let (level, words) = (acc.level(), acc.level() * self.plan.degree());
            let (mut xs, mut ys) = (Vec::new(), Vec::new());
            for &(x, y) in terms.iter() {
                assert_eq!(level, y.level(), "level mismatch");
                assert_eq!(y.repr(), Representation::Evaluation, "rhs not in NTT form");
                let yb = self.dev_buf(y);
                let x = match x {
                    FmaFactor::View(view) => {
                        assert_eq!(view.len(), words, "fma view shape mismatch");
                        xs.push(view);
                        ys.push(yb.expect("a device view's partner must be device-resident"));
                        continue;
                    }
                    FmaFactor::Poly(x) => x,
                };
                assert_eq!(level, x.level(), "level mismatch");
                assert_eq!(x.repr(), Representation::Evaluation, "lhs not in NTT form");
                match (self.dev_buf(x), yb) {
                    (None, None) => {
                        host_fma_rows(&self.plan, 0..level, acc.flat_mut(), x.flat(), y.flat())
                    }
                    (xb, yb) => {
                        let mut on_device = |buf: Option<DeviceBuf>, poly: &RnsPoly| {
                            buf.unwrap_or_else(|| {
                                let up = self.stage_up(poly);
                                staged.push(up);
                                up
                            })
                        };
                        xs.push(on_device(xb, x));
                        ys.push(on_device(yb, y));
                    }
                }
            }
            if !xs.is_empty() {
                device.push((i, xs, ys));
            }
        }
        let mem = self.backend.memory();
        while let Some(terms) = device.first().map(|(_, xs, _)| xs.len()) {
            let (group, rest): (Vec<_>, Vec<_>) =
                device.into_iter().partition(|(_, xs, _)| xs.len() == terms);
            device = rest;
            let (mut views, mut x, mut y) = (Vec::new(), Vec::new(), Vec::new());
            for (i, xs, ys) in &group {
                let acc = &mut *accs[*i].0;
                acc.make_resident_in(&mem);
                let buf = acc.device_buf_in(&mem).expect("just uploaded");
                views.push(PolyView::new(buf, 0..acc.level()));
                x.extend_from_slice(xs);
                y.extend_from_slice(ys);
            }
            self.dispatch(BackendOp::Fma {
                acc: &views,
                x: &x,
                y: &y,
            });
            for (i, ..) in group {
                accs[i].0.mark_device_dirty();
            }
        }
        for buf in staged {
            lock_memory(&mem).free(buf);
        }
    }

    /// A device copy of a host polynomial's rows in a buffer of its own
    /// (one counted upload, like [`Evaluator::make_resident`]'s), for an
    /// op that reads it once; the caller frees it.
    fn stage_up(&mut self, poly: &RnsPoly) -> DeviceBuf {
        self.backend.bind_stream();
        let mem = self.backend.memory();
        let mut mem = lock_memory(&mem);
        let buf = mem.alloc(poly.flat().len());
        mem.upload(buf, poly.flat());
        buf
    }

    /// Gadget-decompose a coefficient polynomial and forward-NTT every
    /// digit in one batched call: the `level·digits` digits of a key
    /// switch, zero digits included.
    ///
    /// A source that is device-fresh in this backend's memory is
    /// decomposed inside one [`BackendOp::Forward`] into the evaluator's
    /// device scratch: each digit row loads its source row and extracts
    /// its digit ([`Load::Digits`]) before the transform, so no digit is
    /// stored in coefficient form and nothing crosses the bus. Any other
    /// source is decomposed on the host and transformed by one
    /// [`BackendOp::ForwardBatch`] over the whole buffer of digits. Both
    /// give the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `poly` is in evaluation form.
    pub fn decompose(&mut self, poly: &mut RnsPoly, digits: usize, gadget_bits: u32) -> Digits {
        assert_eq!(
            poly.repr(),
            Representation::Coefficient,
            "decomposition requires coefficient form"
        );
        let (n, level) = (self.plan.degree(), poly.level());
        let words = level * n;
        if let Some(src) = self.dev_buf(poly) {
            let buf = self.scratch(0, level * digits * words);
            self.dispatch(BackendOp::Forward {
                views: &[PolyView::new(buf, 0..level)],
                load: Some(Load::Digits {
                    src: &[PolyView::new(src, 0..level)],
                    digits,
                    gadget_bits,
                }),
                fold: None,
            });
            return Digits::Device { buf, words };
        }
        poly.sync();
        let mut flat = vec![0u64; level * digits * words];
        host_decompose_rows(n, level, digits, gadget_bits, poly.flat(), &mut flat);
        let op = BackendOp::ForwardBatch(LimbBatch::new(&mut flat, n, level));
        self.dispatch(op);
        let ring = self.plan.ring();
        Digits::Host(
            flat.chunks_exact(words)
                .map(|rows| {
                    let mut digit =
                        RnsPoly::zero_with_repr(ring, level, Representation::Evaluation);
                    digit.flat_mut().copy_from_slice(rows);
                    digit
                })
                .collect(),
        )
    }

    /// Scratch slot `slot`, grown to at least `words` words and viewed
    /// as exactly that.
    fn scratch(&mut self, slot: usize, words: usize) -> DeviceBuf {
        if self.scratch.len() <= slot {
            self.scratch.resize(slot + 1, None);
        }
        match self.scratch[slot] {
            Some(buf) if buf.len() >= words => return buf.sub(0, words),
            Some(old) => lock_memory(&self.backend.memory()).free(old),
            None => {}
        }
        let buf = self.device_alloc(words);
        self.scratch[slot] = Some(buf);
        buf
    }

    /// Negacyclic product of two coefficient-form polynomials. Two host
    /// operands take one fused [`BackendOp::MultiplyBatch`]. When either
    /// is device-resident, the product is computed and left on the
    /// device: copies of both — a host co-operand made resident first,
    /// one counted upload — are forward-transformed in one op, multiplied
    /// pointwise and inverse-transformed, one launch each per device.
    ///
    /// # Panics
    ///
    /// Panics on level mismatch or non-coefficient operands.
    pub fn multiply(&mut self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        if self.dev_buf(a).is_none() && self.dev_buf(b).is_none() {
            let ring = self.plan.ring().clone();
            return multiply_with(&ring, a, b, |op| self.dispatch(op));
        }
        check_factors(a, b);
        let (mut x, mut y) = (a.clone(), b.clone());
        self.make_resident(&mut x);
        self.make_resident(&mut y);
        self.forward_polys(&mut [&mut x, &mut y]);
        self.mul_pointwise(&mut x, &y);
        self.to_coefficient(&mut x);
        x
    }
}

/// The host batches of [`Evaluator`]'s multi-polynomial ops: one
/// polynomial's rows plus, for a pointwise product, its right-hand rows.
type HostRows<'p> = (&'p mut RnsPoly, Option<&'p RnsPoly>);

/// Builds one host batch op from the packed rows and right-hand rows
/// (empty for a transform).
type HostOp = for<'b> fn(LimbBatch<'b>, &'b [u64]) -> BackendOp<'b>;

/// The operand contract of a negacyclic product.
///
/// # Panics
///
/// Panics on level mismatch or non-coefficient operands.
fn check_factors(a: &RnsPoly, b: &RnsPoly) {
    assert_eq!(a.level(), b.level(), "level mismatch");
    assert_eq!(
        a.repr(),
        Representation::Coefficient,
        "lhs must be coefficients"
    );
    assert_eq!(
        b.repr(),
        Representation::Coefficient,
        "rhs must be coefficients"
    );
}

/// The one fused-multiply entry: precondition checks plus the batched
/// backend op, handed to `run`. Shared by [`Evaluator::multiply`] and the
/// ring-level convenience API ([`RnsRing::multiply`]) so the operand
/// contract lives in exactly one place.
///
/// # Panics
///
/// Panics on level mismatch or non-coefficient operands.
pub(crate) fn multiply_with(
    ring: &RnsRing,
    a: &RnsPoly,
    b: &RnsPoly,
    run: impl FnOnce(BackendOp<'_>),
) -> RnsPoly {
    check_factors(a, b);
    let mut out = RnsPoly::zero_at_level(ring, a.level());
    run(BackendOp::MultiplyBatch {
        a: a.flat(),
        b: b.flat(),
        out: LimbBatch::from_poly(&mut out),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::BackendOp as Op;
    use super::*;
    use crate::naive::negacyclic_convolution;

    fn ring(n: usize, np: usize) -> RnsRing {
        RnsRing::new(n, ntt_math::ntt_primes(59, 2 * n as u64, np)).unwrap()
    }

    #[test]
    fn strategies_agree_on_canonical_products() {
        for p in [
            ntt_math::ntt_prime(31, 64).unwrap(),
            ntt_math::ntt_prime(59, 64).unwrap(),
            ntt_math::ntt_prime(61, 64).unwrap(),
        ] {
            let br = PointwiseStrategy::Barrett(Barrett::new(p));
            let mo = PointwiseStrategy::choose(p);
            assert!(matches!(mo, PointwiseStrategy::Montgomery(_)));
            for (a, b) in [(0, 1), (p - 1, p - 1), (p / 2, p / 3), (12345, p - 7)] {
                assert_eq!(br.mul(a, b), mo.mul(a, b), "a={a} b={b} p={p}");
                assert_eq!(br.mul(a, b), ntt_math::mul_mod(a, b, p));
            }
        }
    }

    #[test]
    fn oversized_modulus_falls_back_to_barrett() {
        // A 63-bit prime is above the 2^62 lazy bound: Montgomery must not
        // be selected.
        let p = 0x7FFF_FFFF_FFFF_FD21u64;
        assert!(ntt_math::is_prime(p));
        let s = PointwiseStrategy::choose(p);
        assert!(matches!(s, PointwiseStrategy::Barrett(_)));
    }

    #[test]
    fn limb_batch_shape_checks() {
        let mut data = vec![0u64; 6 * 8];
        let batch = LimbBatch::new(&mut data, 8, 3); // 2 stacked polys of 3 limbs
        assert_eq!(batch.rows(), 6);
        assert_eq!(batch.prime_of(4), 1);
    }

    #[test]
    #[should_panic(expected = "whole polynomials")]
    fn limb_batch_rejects_ragged_stack() {
        let mut data = vec![0u64; 5 * 8];
        let _ = LimbBatch::new(&mut data, 8, 3);
    }

    #[test]
    #[should_panic(expected = "a sub-scale store folds a plain lift")]
    fn forward_rejects_a_sub_scale_without_a_plain_lift() {
        let ring = ring(16, 2);
        let plan = RingPlan::new(&ring);
        let mut be = CpuBackend::default();
        let buf = be.memory().lock().unwrap().alloc(16);
        let views = [PolyView::new(buf, 0..1)];
        be.run(
            &plan,
            Op::Forward {
                views: &views,
                load: None,
                fold: Some(SubScale { dropped: 1 }),
            },
        );
    }

    #[test]
    fn cpu_backend_multiply_matches_naive() {
        let ring = ring(16, 3);
        let plan = RingPlan::new(&ring);
        let a = RnsPoly::from_i64_coeffs(&ring, &[3, -1, 4]);
        let b = RnsPoly::from_i64_coeffs(&ring, &[-2, 7]);
        let mut out = RnsPoly::zero(&ring);
        let mut be = CpuBackend::default();
        be.run(
            &plan,
            Op::MultiplyBatch {
                a: a.flat(),
                b: b.flat(),
                out: LimbBatch::from_poly(&mut out),
            },
        );
        for i in 0..3 {
            let p = ring.basis().primes()[i];
            let want = negacyclic_convolution(a.row(i), b.row(i), p);
            assert_eq!(out.row(i), &want[..], "limb {i}");
        }
    }

    #[test]
    fn stacked_batch_transforms_each_poly_independently() {
        // Two polynomials stacked in one buffer-of-digits batch must give
        // the same rows as two separate per-poly transforms.
        let ring = ring(16, 2);
        let plan = RingPlan::new(&ring);
        let x = RnsPoly::from_i64_coeffs(&ring, &[1, -2, 3]);
        let y = RnsPoly::from_i64_coeffs(&ring, &[7, 0, -5, 2]);
        let mut stacked: Vec<u64> = [x.flat(), y.flat()].concat();
        let mut be = CpuBackend::default();
        be.run(&plan, Op::ForwardBatch(LimbBatch::new(&mut stacked, 16, 2)));
        let (mut ex, mut ey) = (x.clone(), y.clone());
        ex.to_evaluation(&ring);
        ey.to_evaluation(&ring);
        assert_eq!(&stacked[..2 * 16], ex.flat());
        assert_eq!(&stacked[2 * 16..], ey.flat());
    }

    #[test]
    fn host_arena_counts_transfers_and_frees() {
        let mut arena = HostArena::default();
        let buf = arena.alloc(8);
        arena.upload(buf, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let dst = arena.alloc(8);
        arena.copy(buf, dst);
        let mut out = [0u64; 4];
        arena.download(dst.sub(2, 4), &mut out);
        assert_eq!(out, [3, 4, 5, 6]);
        let s = arena.stats();
        assert_eq!((s.uploads, s.upload_words), (1, 8));
        assert_eq!((s.downloads, s.download_words), (1, 4));
        assert_eq!((s.d2d_copies, s.allocs), (1, 2));
        assert_eq!(arena.live_buffers(), 2);
        arena.free(buf);
        arena.free(dst.sub(0, 2)); // sub-view shares the parent's id
        assert_eq!(arena.live_buffers(), 0);
        assert_eq!(arena.stats().frees, 2);
        arena.reset_stats();
        assert_eq!(arena.stats(), TransferStats::default());
    }

    #[test]
    fn resident_chain_matches_host_chain_with_zero_steady_transfers() {
        // forward -> pointwise -> add -> inverse -> negate, device-resident
        // on the identity backend, must equal the host-only run bit for
        // bit, with no transfers after the initial uploads.
        let ring = ring(32, 3);
        let a = RnsPoly::from_i64_coeffs(&ring, &[5, -3, 2, 9]);
        let b = RnsPoly::from_i64_coeffs(&ring, &[-1, 4, 7]);

        // Host-only reference.
        let mut ev_h = Evaluator::cpu(&ring);
        let (mut ha, mut hb) = (a.clone(), b.clone());
        ev_h.to_evaluation(&mut ha);
        ev_h.to_evaluation(&mut hb);
        ev_h.mul_pointwise(&mut ha, &hb);
        ev_h.add_assign(&mut ha, &hb);
        ev_h.to_coefficient(&mut ha);
        ev_h.negate(&mut ha);

        // Device-resident run.
        let mut ev = Evaluator::cpu(&ring);
        let (mut da, mut db) = (a.clone(), b.clone());
        ev.make_resident(&mut da);
        ev.make_resident(&mut db);
        let before = ev.transfer_stats();
        ev.to_evaluation(&mut da);
        ev.to_evaluation(&mut db);
        ev.mul_pointwise(&mut da, &db);
        ev.add_assign(&mut da, &db);
        ev.to_coefficient(&mut da);
        ev.negate(&mut da);
        let steady = ev.transfer_stats().since(&before);
        assert_eq!(steady.host_transfers(), 0, "chain must stay resident");

        assert_eq!(da.residency(), crate::poly::Residency::DeviceOnly);
        da.sync(); // exactly one lazy download, here
        assert_eq!(ev.transfer_stats().since(&before).downloads, 1);
        assert_eq!(da, ha);
    }

    #[test]
    fn resident_multiply_and_rescale_match_host() {
        let ring = ring(16, 3);
        let a = RnsPoly::from_i64_coeffs(&ring, &[2, 0, -1, 3]);
        let b = RnsPoly::from_i64_coeffs(&ring, &[1, 5]);

        let mut ev = Evaluator::cpu(&ring);
        let host_prod = ev.multiply(&a, &b);
        let mut host_rescaled = host_prod.clone();
        host_rescaled.rescale(&ring);

        let (mut da, mut db) = (a.clone(), b.clone());
        ev.make_resident(&mut da);
        ev.make_resident(&mut db);
        let mut dev_prod = ev.multiply(&da, &db);
        assert_eq!(
            dev_prod.residency(),
            crate::poly::Residency::DeviceOnly,
            "resident inputs produce a resident product"
        );
        let mut dev_rescaled = dev_prod.clone();
        ev.rescale(&mut dev_rescaled);
        assert_eq!(dev_rescaled.level(), a.level() - 1);
        dev_prod.sync();
        dev_rescaled.sync();
        assert_eq!(dev_prod, host_prod);
        assert_eq!(dev_rescaled, host_rescaled);
    }

    #[test]
    fn mixed_residency_multiply_stages_the_host_operand() {
        // One resident operand, one host-only: the product must still be
        // computed (device-side) and match the host-only result — the
        // chained case `multiply(resident_product, host_poly)`.
        let ring = ring(16, 2);
        let a = RnsPoly::from_i64_coeffs(&ring, &[1, 4, -2]);
        let b = RnsPoly::from_i64_coeffs(&ring, &[3, -1]);
        let mut ev = Evaluator::cpu(&ring);
        let host = ev.multiply(&a, &b);
        let mut da = a.clone();
        ev.make_resident(&mut da);
        let prod = ev.multiply(&da, &a); // both resident-path product
        let mut chained = ev.multiply(&prod, &b); // prod DeviceOnly, b host
        let mut expect = ev.multiply(&a, &a);
        expect = ev.multiply(&expect, &b);
        chained.sync();
        assert_eq!(chained, expect);
        let mut mixed = ev.multiply(&da, &b); // Mirrored x HostOnly
        mixed.sync();
        assert_eq!(mixed, host);
    }

    #[test]
    fn host_writes_on_mirrored_polys_are_flushed_before_device_ops() {
        let ring = ring(16, 2);
        let mut ev = Evaluator::cpu(&ring);
        let mut x = RnsPoly::from_i64_coeffs(&ring, &[1, 2]);
        ev.make_resident(&mut x);
        // Host edit: marks the device copy stale.
        x.row_mut(0)[0] = 7;
        assert_eq!(
            x.residency(),
            crate::poly::Residency::Mirrored { host_dirty: true }
        );
        // Device op must flush the edit first (one upload), then run.
        let y = x.clone();
        ev.to_evaluation(&mut x);
        ev.to_coefficient(&mut x);
        x.sync();
        let mut y_host = y.clone();
        y_host.evict_device();
        assert_eq!(x.flat(), y_host.flat(), "flushed edit survives round trip");
    }

    #[test]
    fn decompose_resident_matches_host_reference() {
        let ring = ring(8, 2);
        let mut ev = Evaluator::cpu(&ring);
        let (digits, w) = (3usize, 5u32);
        let src = RnsPoly::from_i64_coeffs(&ring, &[100, 37, 2, 1 << 10]);
        // Reference: decompose then forward the whole digit buffer.
        let (n, level) = (8, 2);
        let mut expect = vec![0u64; level * digits * level * n];
        host_decompose_rows(n, level, digits, w, src.flat(), &mut expect);
        let plan = RingPlan::new(&ring);
        let mut cpu = CpuBackend::default();
        cpu.run(
            &plan,
            Op::ForwardBatch(LimbBatch::new(&mut expect, n, level)),
        );
        // A resident source takes the device branch, a host one the host
        // branch; both must give the reference digits.
        for resident in [true, false] {
            let mut e2c = src.clone();
            if resident {
                ev.make_resident(&mut e2c);
            }
            let got = match ev.decompose(&mut e2c, digits, w) {
                Digits::Device { buf, .. } if resident => {
                    let mut got = vec![0u64; buf.len()];
                    lock_memory(&ev.memory()).download(buf, &mut got);
                    got
                }
                Digits::Host(polys) if !resident => polys
                    .iter()
                    .inspect(|p| assert_eq!(p.repr(), Representation::Evaluation))
                    .flat_map(|p| p.flat().to_vec())
                    .collect(),
                other => panic!("resident = {resident} took the other branch: {other:?}"),
            };
            assert_eq!(got, expect, "resident = {resident}");
        }
    }

    #[test]
    #[should_panic(expected = "device-dirty")]
    fn stale_host_read_panics() {
        let ring = ring(16, 2);
        let mut ev = Evaluator::cpu(&ring);
        let mut x = RnsPoly::from_i64_coeffs(&ring, &[1]);
        ev.make_resident(&mut x);
        ev.to_evaluation(&mut x);
        let _ = x.flat(); // host read while the fresh copy is on the device
    }

    #[test]
    fn dropping_resident_polys_frees_their_buffers() {
        let ring = ring(16, 2);
        let mut ev = Evaluator::cpu(&ring);
        let mem = ev.memory();
        let mut x = RnsPoly::from_i64_coeffs(&ring, &[1, 2, 3]);
        ev.make_resident(&mut x);
        let y = x.clone();
        let allocs = lock_memory(&mem).stats().allocs;
        drop(x);
        drop(y);
        assert_eq!(lock_memory(&mem).stats().frees, allocs);
    }

    #[test]
    fn fork_shares_device_memory() {
        let be = CpuBackend::default();
        let forked = be.fork();
        assert!(same_memory(&be.memory(), &forked.memory()));
        assert!(!same_memory(&be.memory(), &CpuBackend::default().memory()));
    }

    #[test]
    fn forward_polys_transforms_many_and_skips_eval() {
        // A polynomial already in evaluation form is left as it is; the
        // others are transformed in the same call, and the inverse undoes
        // both.
        let ring = ring(16, 2);
        let a = RnsPoly::from_i64_coeffs(&ring, &[1, -2, 3]);
        let b = RnsPoly::from_i64_coeffs(&ring, &[-4, 5]);
        let (mut ea, mut eb) = (a.clone(), b.clone());
        ea.to_evaluation(&ring);
        eb.to_evaluation(&ring);
        let mut ev = Evaluator::cpu(&ring);
        let (mut ma, mut mb) = (ea.clone(), b.clone());
        ev.forward_polys(&mut [&mut ma, &mut mb]);
        assert_eq!((&ma, &mb), (&ea, &eb));
        ev.inverse_polys(&mut [&mut ma, &mut mb]);
        assert_eq!((ma.flat(), mb.flat()), (a.flat(), b.flat()));
    }

    #[test]
    fn evaluator_roundtrip_and_pointwise() {
        let ring = ring(16, 3);
        let mut ev = Evaluator::cpu(&ring);
        assert_eq!(ev.backend_name(), "cpu");
        let a = RnsPoly::from_i64_coeffs(&ring, &[1, 2]);
        let b = RnsPoly::from_i64_coeffs(&ring, &[3, -1]);
        // multiply via fused batch == transform + pointwise + inverse.
        let fused = ev.multiply(&a, &b);
        let (mut ea, mut eb) = (a.clone(), b.clone());
        ev.forward_polys(&mut [&mut ea, &mut eb]);
        ev.mul_pointwise(&mut ea, &eb);
        ev.to_coefficient(&mut ea);
        assert_eq!(fused, ea);
    }

    /// The multi-polynomial forms give their one-polynomial calls' bits,
    /// host or resident. `fma_polys` over accumulators with unequal
    /// device-term counts (the second also has a host-only term) issues
    /// one op per count and loses no term.
    #[test]
    fn multi_polynomial_forms_match_their_one_polynomial_calls() {
        let ring = ring(16, 3);
        let mut ev = Evaluator::cpu(&ring);
        for resident in [false, true] {
            let mut poly = |seed: i64, repr| {
                let coeffs: Vec<i64> = (0..16).map(|i| (seed * (i + 3)) % 29 - 14).collect();
                let mut p = RnsPoly::from_i64_coeffs(&ring, &coeffs);
                if resident {
                    ev.make_resident(&mut p);
                }
                if repr == Representation::Evaluation {
                    ev.to_evaluation(&mut p);
                }
                p
            };
            let coef = Representation::Coefficient;
            let [a0, a1, b0, b1] = [1, 2, 3, 4].map(|k| poly(k, coef));
            let eval = Representation::Evaluation;
            let [e0, e1, f0, f1, x0, x1, x2, y0, y1, y2] =
                [5, 6, 7, 8, 9, 10, 11, 12, 13, 14].map(|k| poly(k, eval));
            let (mut host_x, mut host_y) = (poly(15, eval), poly(16, eval));
            host_x.evict_device();
            host_y.evict_device();
            let ctx = format!("resident = {resident}");

            let (mut m0, mut m1) = (a0.clone(), a1.clone());
            ev.add_polys(&mut [(&mut m0, &b0), (&mut m1, &b1)]);
            ev.sub_polys(&mut [(&mut m0, &b1), (&mut m1, &b0)]);
            ev.negate_polys(&mut [&mut m0, &mut m1]);
            ev.automorphism_polys(&mut [&mut m0, &mut m1], 5);
            let (mut s0, mut s1) = (a0.clone(), a1.clone());
            for (s, b, c) in [(&mut s0, &b0, &b1), (&mut s1, &b1, &b0)] {
                ev.add_assign(s, b);
                ev.sub_assign(s, c);
                ev.negate(s);
                ev.automorphism(s, 5);
            }
            for p in [&mut m0, &mut m1, &mut s0, &mut s1] {
                p.sync();
            }
            assert_eq!(
                (&m0, &m1),
                (&s0, &s1),
                "{ctx}: add, sub, negate, automorphism"
            );

            let t0 = [(FmaFactor::Poly(&x0), &y0), (FmaFactor::Poly(&x1), &y1)];
            let t1 = [
                (FmaFactor::Poly(&x2), &y2),
                (FmaFactor::Poly(&host_x), &host_y),
            ];
            let (mut m0, mut m1) = (e0.clone(), e1.clone());
            ev.mul_pointwise_polys(&mut [(&mut m0, &f0), (&mut m1, &f1)]);
            ev.fma_polys(&mut [(&mut m0, &t0), (&mut m1, &t1)]);
            let (mut s0, mut s1) = (e0.clone(), e1.clone());
            for (s, f, t) in [(&mut s0, &f0, &t0[..]), (&mut s1, &f1, &t1[..])] {
                ev.mul_pointwise(s, f);
                ev.fma(s, t);
            }
            for p in [&mut m0, &mut m1, &mut s0, &mut s1] {
                p.sync();
            }
            assert_eq!((&m0, &m1), (&s0, &s1), "{ctx}: pointwise, fma");
        }
    }
}
