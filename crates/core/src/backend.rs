//! Pluggable execution backends and plan-based batched NTT execution.
//!
//! The paper's central claim is that one NTT workload — batches of RNS
//! limb transforms — runs on very different execution substrates (a scalar
//! CPU reference, GPU kernels at several radices). This module is the API
//! boundary that makes the substrate swappable:
//!
//! * [`NttBackend`] — the trait every execution substrate implements. Its
//!   vocabulary is one typed op, [`BackendOp`], run through
//!   [`NttBackend::run`] or the fallible [`NttBackend::try_run`]: *batched
//!   RNS operations* over host [`LimbBatch`] views (forward, inverse,
//!   pointwise and the fused multiply) and over device-resident
//!   [`DeviceBuf`] views. Backends never see individual polynomials —
//!   only flat buffers of limbs, the layout both the CPU engine and the
//!   simulated GPU kernels natively consume.
//! * [`RingPlan`] — an FFTW-style precomputed plan handle: the ring's
//!   twiddle tables (per-stage `(value, companion)` slice-pairs in
//!   bit-reversed order), workspace sizing, and a per-prime pointwise
//!   reduction strategy ([`PointwiseStrategy`], Montgomery vs. Barrett)
//!   chosen **once at plan time** from a micro-benchmark. Plans are cheap
//!   handles (`Arc` internals) and are memoized on the ring
//!   ([`crate::poly::RnsRing::plan`]).
//! * [`CpuBackend`] — the reference backend wrapping the fused
//!   lazy-reduction [`NttExecutor`] and its grow-only workspace.
//! * [`Evaluator`] — a backend-generic driver pairing a plan with a boxed
//!   backend; `he-lite` routes every context operation through one, so
//!   swapping the execution substrate is a one-line constructor change.
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
use std::sync::{Arc, Mutex, OnceLock};

/// How the plan reduces pointwise products for one prime.
///
/// Both strategies return the exact canonical product `a·b mod p`, so the
/// choice never changes results — only throughput. Barrett costs five wide
/// multiplies per product; Montgomery (double-REDC on ordinary-form
/// operands, [`Montgomery::mul_plain`]) costs four but with a longer
/// dependency chain. Which one wins is host-specific, which is why the
/// plan decides from a measurement (see [`PointwiseStrategy::choose`]).
#[derive(Debug, Clone, Copy)]
pub enum PointwiseStrategy {
    /// Barrett reduction with a precomputed 128-bit reciprocal.
    Barrett(Barrett),
    /// Montgomery double-REDC on ordinary-form operands.
    Montgomery(Montgomery),
}

/// Strategy selection mode (the parsed `NTT_WARP_POINTWISE` value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyMode {
    /// Decide from the process-wide micro-benchmark (the default).
    #[default]
    Auto,
    /// Force Barrett everywhere.
    Barrett,
    /// Force Montgomery wherever its preconditions hold.
    Montgomery,
}

impl StrategyMode {
    /// Parse the `NTT_WARP_POINTWISE` syntax: `barrett`, `montgomery` /
    /// `mont`, anything else (or unset) → `Auto`.
    pub fn parse(s: &str) -> Self {
        match s.trim().to_ascii_lowercase().as_str() {
            "barrett" => StrategyMode::Barrett,
            "montgomery" | "mont" => StrategyMode::Montgomery,
            _ => StrategyMode::Auto,
        }
    }

    /// Mode from the `NTT_WARP_POINTWISE` environment variable. An
    /// unrecognized value falls back to `Auto` with a one-line warning on
    /// stderr (a typo must not silently turn a forced strategy into the
    /// calibrated one).
    pub fn from_env() -> Self {
        let Ok(s) = std::env::var("NTT_WARP_POINTWISE") else {
            return StrategyMode::Auto;
        };
        let mode = Self::parse(&s);
        let t = s.trim();
        if mode == StrategyMode::Auto && !t.is_empty() && !t.eq_ignore_ascii_case("auto") {
            eprintln!(
                "ntt-warp: unrecognized NTT_WARP_POINTWISE={t:?} \
                 (expected auto|barrett|montgomery), using auto"
            );
        }
        mode
    }
}

/// Time one pointwise pass (ns per element) for both strategies on a
/// scratch buffer mod `p`. Used by the plan-time auto selection; exposed
/// so benches and tests can inspect the measurement.
pub fn calibrate_pointwise(p: u64) -> (f64, f64) {
    const LEN: usize = 2048;
    const REPS: usize = 4;
    let a: Vec<u64> = (0..LEN as u64)
        .map(|i| i.wrapping_mul(0x9E37) % p)
        .collect();
    let b: Vec<u64> = (0..LEN as u64).map(|i| (i * i + 7) % p).collect();
    let time = |f: &dyn Fn() -> u64| {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = std::time::Instant::now();
            // The sink must be consumed *before* the clock is read, or the
            // optimizer may move the pure loop past the measurement.
            std::hint::black_box(f());
            let dt = t0.elapsed().as_nanos() as f64 / LEN as f64;
            best = best.min(dt);
        }
        best
    };
    let br = Barrett::new(p);
    let barrett_ns = time(&|| {
        let mut acc = 0u64;
        for (&x, &y) in a.iter().zip(&b) {
            acc = acc.wrapping_add(br.mul(x, y));
        }
        acc
    });
    let m = Montgomery::new(p);
    let mont_ns = time(&|| {
        let mut acc = 0u64;
        for (&x, &y) in a.iter().zip(&b) {
            acc = acc.wrapping_add(m.mul_plain(x, y));
        }
        acc
    });
    (barrett_ns, mont_ns)
}

/// Process-wide calibration verdict per prime-size class (index 0: below
/// 40 bits, index 1: 40 bits and up). Resolved in order: the per-host
/// calibration file ([`crate::calibration`], reproducible across runs),
/// else measured once on a representative prime of that class and written
/// back to the file (best effort).
fn montgomery_wins(bits: u32) -> bool {
    static WINS: [OnceLock<bool>; 2] = [OnceLock::new(), OnceLock::new()];
    let class = usize::from(bits >= 40);
    *WINS[class].get_or_init(|| {
        let path = crate::calibration::calibration_path();
        // Largest NTT-friendly primes of each class (2N = 2^12 keeps the
        // probe representative of real parameter sets).
        let probe_bits = if class == 0 { 31 } else { 61 };
        // Persisted verdicts are keyed by the probe parameters: change
        // the probe (prime class, order) and old entries stop matching,
        // forcing a fresh measurement instead of a stale verdict.
        let fp = crate::calibration::measurement_fingerprint(&[probe_bits as u64, 1 << 12]);
        if let Some(v) = path
            .as_deref()
            .and_then(|p| crate::calibration::load_pointwise_verdict(p, class, fp))
        {
            return v;
        }
        let probe = ntt_math::ntt_prime(probe_bits, 1 << 12).expect("probe prime exists");
        let (barrett_ns, mont_ns) = calibrate_pointwise(probe);
        let verdict = mont_ns < barrett_ns;
        if let Some(p) = path.as_deref() {
            crate::calibration::store_pointwise_verdict(p, class, fp, verdict);
        }
        verdict
    })
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

    /// Plan-time selection for one prime under an explicit mode.
    ///
    /// Montgomery requires an odd modulus and, for the fused lazy pipeline,
    /// `p < 2^62`; primes outside those bounds always get Barrett.
    pub fn choose_with(mode: StrategyMode, p: u64) -> Self {
        let mont_ok = p % 2 == 1 && p < MAX_LAZY_MODULUS;
        let montgomery = match mode {
            StrategyMode::Barrett => false,
            StrategyMode::Montgomery => mont_ok,
            StrategyMode::Auto => mont_ok && montgomery_wins(64 - p.leading_zeros()),
        };
        if montgomery {
            PointwiseStrategy::Montgomery(Montgomery::new(p))
        } else {
            PointwiseStrategy::Barrett(Barrett::new(p))
        }
    }

    /// Plan-time selection for one prime (`NTT_WARP_POINTWISE` override,
    /// else the benchmark-derived per-size verdict).
    pub fn choose(p: u64) -> Self {
        Self::choose_with(StrategyMode::from_env(), p)
    }

    /// Selection for a whole prime basis (one strategy per prime).
    pub fn choose_all(primes: &[u64]) -> Arc<[PointwiseStrategy]> {
        let mode = StrategyMode::from_env();
        primes.iter().map(|&p| Self::choose_with(mode, p)).collect()
    }
}

/// A mutable view over a flat batch of RNS limbs: `rows × N` residues
/// where row `r` is reduced mod prime `r % level`.
///
/// This covers both shapes backends care about:
///
/// * one polynomial at `level` active primes (`rows == level`), e.g. an
///   [`RnsPoly`]'s storage;
/// * several polynomials of `level` limbs stacked back to back
///   (`rows == k·level`), e.g. the key-switch **buffer of digits** that
///   submits all `level × digits` digit NTTs as one batched call.
pub struct LimbBatch<'a> {
    data: &'a mut [u64],
    n: usize,
    level: usize,
}

impl<'a> LimbBatch<'a> {
    /// Wrap a flat buffer of whole `n`-word rows, `level` rows per
    /// polynomial.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not a whole number of rows or the row count
    /// is not a multiple of `level`.
    pub fn new(data: &'a mut [u64], n: usize, level: usize) -> Self {
        assert!(n >= 1 && level >= 1, "degenerate batch shape");
        assert_eq!(data.len() % n, 0, "flat buffer must be rows × N");
        assert_eq!(
            (data.len() / n) % level,
            0,
            "rows must form whole polynomials"
        );
        Self { data, n, level }
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
        self.level
    }

    /// Total rows across all stacked polynomials.
    #[inline]
    pub fn rows(&self) -> usize {
        self.data.len() / self.n
    }

    /// The RNS prime index of row `r`.
    #[inline]
    pub fn prime_of(&self, r: usize) -> usize {
        r % self.level
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

    // ---- Fallible surface -------------------------------------------------
    //
    // Backends with a fault model (the simulated GPU under an armed
    // `FaultPlan`) override these; the defaults delegate to the
    // infallible methods, so host-memory backends stay zero-cost and
    // never fail.

    /// Fallible [`DeviceMemory::alloc`]: fails with
    /// [`BackendError::Oom`] when the device cannot serve the request,
    /// or a classified fault under an armed fault model.
    fn try_alloc(&mut self, words: usize) -> Result<DeviceBuf, BackendError> {
        Ok(self.alloc(words))
    }

    /// Fallible [`DeviceMemory::upload`]. On `Err` the destination
    /// buffer is unchanged.
    fn try_upload(&mut self, dst: DeviceBuf, src: &[u64]) -> Result<(), BackendError> {
        self.upload(dst, src);
        Ok(())
    }

    /// Fallible [`DeviceMemory::download`]. On `Err` the host slice is
    /// unchanged.
    fn try_download(&mut self, src: DeviceBuf, dst: &mut [u64]) -> Result<(), BackendError> {
        self.download(src, dst);
        Ok(())
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
        // Sub-views share their parent's id; only whole-allocation handles
        // release storage.
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

    // The arena has no fault model, but a freed/foreign handle is still a
    // recoverable condition on the typed surface: pre-validate instead of
    // letting the infallible body panic.

    fn try_upload(&mut self, dst: DeviceBuf, src: &[u64]) -> Result<(), BackendError> {
        if !self.is_live(dst) {
            return Err(BackendError::Fatal { op: "upload" });
        }
        self.upload(dst, src);
        Ok(())
    }

    fn try_download(&mut self, src: DeviceBuf, dst: &mut [u64]) -> Result<(), BackendError> {
        if !self.is_live(src) {
            return Err(BackendError::Fatal { op: "download" });
        }
        self.download(src, dst);
        Ok(())
    }
}

/// Shared host reference semantics for the element-wise device operations
/// (`acc[i] *= rhs[i]` per row, plan strategies for the products). Every
/// backend's device kernels must match these bit for bit.
pub(crate) fn host_pointwise_rows(plan: &RingPlan, level: usize, acc: &mut [u64], rhs: &[u64]) {
    let n = plan.degree();
    for (r, (row, rhs_row)) in acc.chunks_exact_mut(n).zip(rhs.chunks_exact(n)).enumerate() {
        let s = plan.strategy(r % level);
        for (x, &y) in row.iter_mut().zip(rhs_row) {
            *x = s.mul(*x, y);
        }
    }
}

/// `acc[i] += x[i] * y[i]` per row (the key-switch accumulate step).
pub(crate) fn host_fma_rows(plan: &RingPlan, level: usize, acc: &mut [u64], x: &[u64], y: &[u64]) {
    let n = plan.degree();
    for (r, ((arow, xrow), yrow)) in acc
        .chunks_exact_mut(n)
        .zip(x.chunks_exact(n))
        .zip(y.chunks_exact(n))
        .enumerate()
    {
        let s = plan.strategy(r % level);
        let p = s.modulus();
        for ((a, &xv), &yv) in arow.iter_mut().zip(xrow).zip(yrow) {
            *a = add_mod(*a, s.mul(xv, yv), p);
        }
    }
}

/// `acc[i] = acc[i] ± rhs[i]` per row.
pub(crate) fn host_addsub_rows(
    plan: &RingPlan,
    level: usize,
    acc: &mut [u64],
    rhs: &[u64],
    subtract: bool,
) {
    let n = plan.degree();
    let primes = plan.ring().basis().primes();
    for (r, (row, rhs_row)) in acc.chunks_exact_mut(n).zip(rhs.chunks_exact(n)).enumerate() {
        let p = primes[r % level];
        for (x, &y) in row.iter_mut().zip(rhs_row) {
            *x = if subtract {
                sub_mod(*x, y, p)
            } else {
                add_mod(*x, y, p)
            };
        }
    }
}

/// Row-wise negation.
pub(crate) fn host_negate_rows(plan: &RingPlan, level: usize, data: &mut [u64]) {
    let n = plan.degree();
    let primes = plan.ring().basis().primes();
    for (r, row) in data.chunks_exact_mut(n).enumerate() {
        let p = primes[r % level];
        for x in row.iter_mut() {
            *x = neg_mod(*x, p);
        }
    }
}

/// Galois automorphism `X → X^g` (g odd) of a `level`-row coefficient
/// buffer: `dst[r·N + (i·g mod 2N)] = ±src[r·N + i]`, negated when the
/// exponent wraps past `N` (negacyclic: `X^N = −1`), with row `r` reduced
/// mod prime `r % level`. Out-of-place — the map is a permutation, so an
/// in-place gather would trample unread inputs.
pub(crate) fn host_automorphism_rows(
    plan: &RingPlan,
    level: usize,
    g: u64,
    src: &[u64],
    dst: &mut [u64],
) {
    let n = plan.degree();
    let two_n = 2 * n as u64;
    let g = g % two_n;
    assert_eq!(g % 2, 1, "Galois element must be odd");
    assert_eq!(src.len(), dst.len(), "operand shape mismatch");
    let primes = plan.ring().basis().primes();
    for (r, (out, row)) in dst.chunks_exact_mut(n).zip(src.chunks_exact(n)).enumerate() {
        let p = primes[r % level];
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
/// [`BackendOp::BaseConvert`] matches: lift one coefficient row under
/// prime `from` exactly into every row of `dst` (row `r` under prime
/// `dst_primes.start + r % dst_primes.len()`). The plain lift keeps `v`;
/// the centered one maps `v > q/2` to `v − q` — CKKS mod-raise, whose
/// output decrypts to the same small polynomial plus a `q·I` overflow
/// term that `EvalMod` removes.
pub(crate) fn host_lift_rows(
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
/// [`BackendOp::Forward`] fold: `acc ← (acc − t)·p_dropped⁻¹` with row
/// `r` under prime `r % level`.
pub(crate) fn host_sub_scale_rows(
    plan: &RingPlan,
    level: usize,
    dropped: usize,
    acc: &mut [u64],
    t: &[u64],
) {
    let n = plan.degree();
    let primes = plan.ring().basis().primes();
    for (r, (row, t_row)) in acc.chunks_exact_mut(n).zip(t.chunks_exact(n)).enumerate() {
        let p = primes[r % level];
        let inv = ntt_math::inv_mod(primes[dropped] % p, p).expect("distinct primes are coprime");
        for (x, &tv) in row.iter_mut().zip(t_row) {
            *x = ntt_math::mul_mod(sub_mod(*x, tv, p), inv, p);
        }
    }
}

/// Gadget digit decomposition of one `level`-row coefficient polynomial
/// into a `level·digits`-polynomial buffer-of-digits: digit `(j, d)`
/// occupies polynomial slot `j·digits + d` as `level` **replicated** rows
/// of `(src_row_j >> (w·d)) & (2^w − 1)` (small digits are the same
/// residue mod every active prime). This is the host branch of
/// [`Evaluator::decompose`] and the reference every backend's
/// [`BackendOp::Decompose`] matches.
pub(crate) fn host_decompose_rows(
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
/// into a [`BackendOp::Forward`]: the transform `t` of each view lands in
/// the matching accumulator as `acc ← (acc − t)·p_dropped⁻¹` (per row
/// under its prime), which with `t` the plain lift of the dropped row is
/// exactly `poly::rescale_rows` in the evaluation domain.
#[derive(Debug, Clone, Copy)]
pub struct SubScale<'a> {
    /// One accumulator per view, shaped like it (rows under the same
    /// primes).
    pub acc: &'a [DeviceBuf],
    /// Index of the prime the rescale drops.
    pub dropped: usize,
}

/// One backend operation: the typed vocabulary every [`NttBackend`]
/// executes, through [`NttBackend::run`] or the fallible
/// [`NttBackend::try_run`].
///
/// Two families share the enum:
///
/// * **host batches** (`*Batch`) work on host [`LimbBatch`] views, so a
///   backend with a real device stages every call through its memory;
/// * **device ops** work in place on [`DeviceBuf`] views in the backend's
///   own memory ([`NttBackend::memory`]) and move nothing across the bus.
///   Their `level` is the active prime count: row `r` of every operand is
///   reduced mod prime `r % level`. The transforms and the base
///   conversion take one [`PolyView`] per polynomial instead, each under
///   its own primes, so both components of a ciphertext (or one dropped
///   row of each) go in one op.
///
/// One op is also the unit a backend's fault model gates: [`label`]
/// names it in a [`BackendError`], and [`handles`] lists the buffers a
/// fallible run validates before any data moves.
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
    /// op (one launch per device on a simulated GPU).
    Forward {
        /// The rows transformed, each view under its own primes.
        views: &'a [PolyView],
        /// `None` transforms in place. `Some` is the tail of an
        /// evaluation-domain rescale: the transform of `views[k]` lands
        /// in `fold.acc[k]` as `(acc − t)·p_dropped⁻¹` instead, and the
        /// views are left as scratch.
        fold: Option<SubScale<'a>>,
    },
    /// Inverse-NTT device-resident rows in place, one view per
    /// polynomial, in one op.
    Inverse {
        /// The rows transformed in place, each view under its own primes.
        views: &'a [PolyView],
    },
    /// Device-resident fused negacyclic multiply: `out = a ·̄ b` for
    /// coefficient-form resident operands (all three buffers share the
    /// rows × N shape).
    Multiply {
        /// Left operand.
        a: DeviceBuf,
        /// Right operand.
        b: DeviceBuf,
        /// The product.
        out: DeviceBuf,
        /// Active primes.
        level: usize,
    },
    /// Device-resident pointwise product `acc[i] *= rhs[i]` per row.
    Pointwise {
        /// The rows multiplied in place.
        acc: DeviceBuf,
        /// The right-hand rows.
        rhs: DeviceBuf,
        /// Active primes.
        level: usize,
    },
    /// Device-resident multi-term multiply-accumulate
    /// `acc[i] += Σ_k x[k][i] · y[k][i]` per row: a whole
    /// multiply-accumulate chain over one accumulator in one op. The key
    /// switch passes its digit sub-views as `x` and the matching key
    /// halves as `y`, plus any product terms it folds in; a
    /// baby-step/giant-step inner sum passes ciphertext components and
    /// diagonal plaintexts.
    Fma {
        /// The accumulator.
        acc: DeviceBuf,
        /// The first factor of each term, accumulator-shaped (any views,
        /// separate allocations or slices of one stacked buffer).
        x: &'a [DeviceBuf],
        /// The second factor of each term, accumulator-shaped;
        /// `y.len() == x.len()`.
        y: &'a [DeviceBuf],
        /// Active primes.
        level: usize,
    },
    /// Device-resident row-wise sum `acc[i] += rhs[i]`, or difference
    /// `acc[i] -= rhs[i]` when `subtract` is set.
    AddSub {
        /// The rows updated in place.
        acc: DeviceBuf,
        /// The right-hand rows.
        rhs: DeviceBuf,
        /// Active primes.
        level: usize,
        /// Subtract instead of add.
        subtract: bool,
    },
    /// Device-resident negation of every row.
    Negate {
        /// The rows negated in place.
        buf: DeviceBuf,
        /// Active primes.
        level: usize,
    },
    /// Device-resident gadget digit decomposition: `src` holds `level`
    /// coefficient rows, `dst` receives `level·digits` stacked polynomials
    /// of `level` replicated digit rows each. Digit `(j, d)` occupies
    /// polynomial slot `j·digits + d` as `level` copies of
    /// `(src_row_j >> (w·d)) & (2^w − 1)`, `w = gadget_bits`.
    Decompose {
        /// The `level` coefficient rows.
        src: DeviceBuf,
        /// The `level·digits·level` digit rows.
        dst: DeviceBuf,
        /// Active primes.
        level: usize,
        /// Digits per residue.
        digits: usize,
        /// Digit width `w` in bits.
        gadget_bits: u32,
    },
    /// Device-resident RNS base conversion of coefficient rows from one
    /// source prime: `src[k]` is one row under one prime `q`, and every
    /// row of `dst[k]` receives its exact lift mod that row's prime, `v`
    /// itself (plain) or, when `centered`, `v − q` for `v > q/2` (CKKS
    /// mod-raise). The rescale lifts its dropped rows with the plain
    /// lift; the many-prime case of hybrid key switching is not
    /// implemented.
    BaseConvert {
        /// One-row source views, one per polynomial.
        src: &'a [PolyView],
        /// The lifted rows, `dst[k]` from `src[k]`.
        dst: &'a [PolyView],
        /// Centered instead of plain lift.
        centered: bool,
    },
    /// Device-resident Galois automorphism `X → X^g` (`g` odd): `src`
    /// holds `level` coefficient rows, `dst` receives the permuted rows,
    /// `dst[i·g mod 2N] = ±src[i]` per row, negated where the exponent
    /// wraps past `N`.
    Automorphism {
        /// The source rows.
        src: DeviceBuf,
        /// The permuted rows (must not alias `src`).
        dst: DeviceBuf,
        /// Active primes.
        level: usize,
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
            BackendOp::Multiply { .. } => "dev_multiply",
            BackendOp::Pointwise { .. } => "dev_pointwise",
            BackendOp::Fma { .. } => "dev_fma",
            BackendOp::AddSub { .. } => "dev_addsub",
            BackendOp::Negate { .. } => "dev_negate",
            BackendOp::Decompose { .. } => "dev_decompose",
            BackendOp::BaseConvert { .. } => "dev_baseconv",
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

    /// The device buffers the op touches (none for a host batch): what a
    /// fallible run checks are live before it draws a fault or moves data.
    pub fn handles(&self) -> Vec<DeviceBuf> {
        match *self {
            BackendOp::ForwardBatch(_)
            | BackendOp::InverseBatch(_)
            | BackendOp::PointwiseBatch { .. }
            | BackendOp::MultiplyBatch { .. } => Vec::new(),
            BackendOp::Forward { views, fold } => views
                .iter()
                .map(|v| v.buf)
                .chain(fold.iter().flat_map(|f| f.acc.iter().copied()))
                .collect(),
            BackendOp::Inverse { views } => views.iter().map(|v| v.buf).collect(),
            BackendOp::BaseConvert { src, dst, .. } => {
                src.iter().chain(dst).map(|v| v.buf).collect()
            }
            BackendOp::Negate { buf, .. } => vec![buf],
            BackendOp::Pointwise { acc, rhs, .. } | BackendOp::AddSub { acc, rhs, .. } => {
                vec![acc, rhs]
            }
            BackendOp::Multiply { a, b, out, .. } => vec![a, b, out],
            BackendOp::Fma { acc, x, y, .. } => std::iter::once(acc)
                .chain(x.iter().copied())
                .chain(y.iter().copied())
                .collect(),
            BackendOp::Decompose { src, dst, .. } | BackendOp::Automorphism { src, dst, .. } => {
                vec![src, dst]
            }
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

    /// Stage a host slice into a freshly allocated device buffer that a
    /// device op on this executor is about to read (the mixed-residency
    /// path of [`Evaluator::multiply`]). The default allocates and
    /// uploads through [`NttBackend::memory`] on whatever stream is
    /// bound — correct, but it serializes compute behind the copy.
    /// Backends with a stream model override this to issue the upload on
    /// a dedicated copy stream and fence the consuming compute stream on
    /// its completion event, so queued compute overlaps the transfer.
    /// Purely a performance-model hint: results never depend on it. The
    /// caller owns the returned buffer and must free it.
    fn stage_upload(&mut self, data: &[u64]) -> DeviceBuf {
        let mem = self.memory();
        let mut guard = lock_memory(&mem);
        let buf = guard.alloc(data.len());
        guard.upload(buf, data);
        buf
    }

    /// Execute one op. Never draws from a fault model: an infallible run
    /// cannot fail, so calibration, the figure harness and every
    /// non-serving caller stay deterministic even with faults armed.
    ///
    /// # Panics
    ///
    /// Panics on a freed or foreign handle or a shape mismatch (caller
    /// bugs).
    fn run(&mut self, plan: &RingPlan, op: BackendOp<'_>);

    /// Fallible [`NttBackend::run`], the one fault gate: a classified
    /// [`BackendError`] instead of a panic, for callers that retry,
    /// re-fork or degrade (the serving stack). Backends validate the
    /// op's [`handles`](BackendOp::handles) and draw their fault model
    /// *before* any data moves, so on `Err` every operand is unchanged
    /// and the identical call can be retried. The default runs the op and
    /// never fails.
    fn try_run(&mut self, plan: &RingPlan, op: BackendOp<'_>) -> Result<(), BackendError> {
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
                let level = batch.level();
                self.exec
                    .transform_rows_of(plan.ring(), level, batch.data(), true);
            }
            BackendOp::InverseBatch(mut batch) => {
                let level = batch.level();
                self.exec
                    .transform_rows_of(plan.ring(), level, batch.data(), false);
            }
            BackendOp::PointwiseBatch { mut acc, rhs } => {
                let (n, level) = (acc.n(), acc.level());
                assert_eq!(acc.as_slice().len(), rhs.len(), "operand shape mismatch");
                for (r, (row, rhs_row)) in acc
                    .data()
                    .chunks_exact_mut(n)
                    .zip(rhs.chunks_exact(n))
                    .enumerate()
                {
                    match plan.strategy(r % level) {
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
            BackendOp::MultiplyBatch { a, b, mut out } => {
                let level = out.level();
                self.exec.multiply_rows_of(
                    plan.ring(),
                    level,
                    a,
                    b,
                    out.data(),
                    Some(plan.strategies()),
                );
            }
            BackendOp::Forward { views, fold } => {
                for (k, view) in views.iter().enumerate() {
                    self.stage_in(0, view.buf);
                    let mut t = std::mem::take(&mut self.stage[0]);
                    self.exec
                        .transform_rows_under(plan.ring(), view.primes.clone(), &mut t, true);
                    match fold {
                        None => {
                            self.stage[0] = t;
                            self.stage_out(0, view.buf);
                        }
                        Some(SubScale { acc, dropped }) => {
                            assert_eq!(view.primes.start, 0, "a fold's rows start at prime 0");
                            assert_eq!(acc[k].len(), view.buf.len(), "fold shape mismatch");
                            self.stage_in(1, acc[k]);
                            let mut a = std::mem::take(&mut self.stage[1]);
                            host_sub_scale_rows(plan, view.primes.len(), dropped, &mut a, &t);
                            self.stage[1] = a;
                            self.stage_out(1, acc[k]);
                            self.stage[0] = t;
                        }
                    }
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
            BackendOp::Multiply { a, b, out, level } => {
                self.stage_in(1, a);
                self.stage_in(2, b);
                let mut o = std::mem::take(&mut self.stage[0]);
                o.clear();
                o.resize(out.len(), 0);
                self.exec.multiply_rows_of(
                    plan.ring(),
                    level,
                    &self.stage[1],
                    &self.stage[2],
                    &mut o,
                    Some(plan.strategies()),
                );
                self.stage[0] = o;
                self.stage_out(0, out);
            }
            BackendOp::Pointwise { acc, rhs, level } => {
                self.stage_in(0, acc);
                self.stage_in(1, rhs);
                let mut a = std::mem::take(&mut self.stage[0]);
                host_pointwise_rows(plan, level, &mut a, &self.stage[1]);
                self.stage[0] = a;
                self.stage_out(0, acc);
            }
            BackendOp::Fma { acc, x, y, level } => {
                assert_eq!(x.len(), y.len(), "fma term count mismatch");
                self.stage_in(0, acc);
                let mut a = std::mem::take(&mut self.stage[0]);
                for (&xk, &yk) in x.iter().zip(y) {
                    assert_eq!(xk.len(), acc.len(), "fma term shape mismatch");
                    assert_eq!(yk.len(), acc.len(), "fma term shape mismatch");
                    self.stage_in(1, xk);
                    self.stage_in(2, yk);
                    host_fma_rows(plan, level, &mut a, &self.stage[1], &self.stage[2]);
                }
                self.stage[0] = a;
                self.stage_out(0, acc);
            }
            BackendOp::AddSub {
                acc,
                rhs,
                level,
                subtract,
            } => {
                self.stage_in(0, acc);
                self.stage_in(1, rhs);
                let mut a = std::mem::take(&mut self.stage[0]);
                host_addsub_rows(plan, level, &mut a, &self.stage[1], subtract);
                self.stage[0] = a;
                self.stage_out(0, acc);
            }
            BackendOp::Negate { buf, level } => {
                self.stage_in(0, buf);
                let mut a = std::mem::take(&mut self.stage[0]);
                host_negate_rows(plan, level, &mut a);
                self.stage[0] = a;
                self.stage_out(0, buf);
            }
            BackendOp::Decompose {
                src,
                dst,
                level,
                digits,
                gadget_bits,
            } => {
                self.stage_in(1, src);
                let mut d = std::mem::take(&mut self.stage[0]);
                d.clear();
                d.resize(dst.len(), 0);
                host_decompose_rows(
                    plan.degree(),
                    level,
                    digits,
                    gadget_bits,
                    &self.stage[1],
                    &mut d,
                );
                self.stage[0] = d;
                self.stage_out(0, dst);
            }
            BackendOp::Automorphism { src, dst, level, g } => {
                self.stage_in(1, src);
                let mut d = std::mem::take(&mut self.stage[0]);
                d.clear();
                d.resize(dst.len(), 0);
                host_automorphism_rows(plan, level, g, &self.stage[1], &mut d);
                self.stage[0] = d;
                self.stage_out(0, dst);
            }
            BackendOp::BaseConvert { src, dst, centered } => {
                assert_eq!(src.len(), dst.len(), "one source row per destination");
                for (s, d) in src.iter().zip(dst) {
                    assert_eq!(s.primes.len(), 1, "one-source-prime conversion");
                    self.stage_in(1, s.buf);
                    let mut out = std::mem::take(&mut self.stage[0]);
                    out.clear();
                    out.resize(d.buf.len(), 0);
                    let from = (self.stage[1].as_slice(), s.primes.start);
                    host_lift_rows(plan, from, centered, &mut out, d.primes.clone());
                    self.stage[0] = out;
                    self.stage_out(0, d.buf);
                }
            }
        }
    }

    /// No fault model, but a freed or foreign handle is still a
    /// recoverable condition on the typed surface: validated up front,
    /// like [`HostArena`]'s `try_upload`, instead of letting the arena's
    /// invariant check panic mid-op.
    fn try_run(&mut self, plan: &RingPlan, op: BackendOp<'_>) -> Result<(), BackendError> {
        if !op.handles().iter().all(|&b| self.arena().is_live(b)) {
            return Err(BackendError::Fatal { op: op.label() });
        }
        self.run(plan, op);
        Ok(())
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
    /// Grow-only device scratch for the key-switch buffer-of-digits
    /// (allocated in the backend's memory; freed on drop).
    dev_scratch: Option<DeviceBuf>,
}

impl Drop for Evaluator {
    fn drop(&mut self) {
        if let Some(buf) = self.dev_scratch.take() {
            lock_memory(&self.backend.memory()).free(buf);
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
            dev_scratch: None,
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
        let mem = self.backend.memory();
        let buf = lock_memory(&mem).alloc(level * self.plan.degree());
        poly.adopt_mirror(&mem, buf);
        poly
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
    /// device, one launch for all of them; each host one takes its own
    /// batched host call.
    pub fn forward_polys(&mut self, polys: &mut [&mut RnsPoly]) {
        let done = self.transform_polys(polys, Representation::Evaluation, false);
        done.expect("an infallible run cannot fail");
    }

    /// Inverse counterpart of [`Evaluator::forward_polys`]: the resident
    /// polynomials share one [`BackendOp::Inverse`].
    pub fn inverse_polys(&mut self, polys: &mut [&mut RnsPoly]) {
        let done = self.transform_polys(polys, Representation::Coefficient, false);
        done.expect("an infallible run cannot fail");
    }

    /// The one transform path: every polynomial not already in `to`
    /// form, the resident ones in one device op, through
    /// [`NttBackend::try_run`] when `fallible`. A polynomial's
    /// representation flips only after its op succeeds.
    fn transform_polys(
        &mut self,
        polys: &mut [&mut RnsPoly],
        to: Representation,
        fallible: bool,
    ) -> Result<(), BackendError> {
        let forward = to == Representation::Evaluation;
        let mut views = Vec::new();
        for poly in polys.iter_mut().filter(|p| p.repr() != to) {
            if let Some(buf) = self.device_target(poly) {
                views.push(PolyView::new(buf, 0..poly.level()));
                continue;
            }
            if fallible {
                poly.try_sync()?;
            } else {
                poly.sync();
            }
            let batch = LimbBatch::from_poly(poly);
            let op = if forward {
                BackendOp::ForwardBatch(batch)
            } else {
                BackendOp::InverseBatch(batch)
            };
            self.dispatch(op, fallible)?;
            poly.set_repr(to);
        }
        if views.is_empty() {
            return Ok(());
        }
        let op = if forward {
            BackendOp::Forward {
                views: &views,
                fold: None,
            }
        } else {
            BackendOp::Inverse { views: &views }
        };
        self.dispatch(op, fallible)?;
        for poly in polys.iter_mut().filter(|p| p.repr() != to) {
            poly.mark_device_dirty();
            poly.set_repr(to);
        }
        Ok(())
    }

    /// Run `op` through the fault gate when `fallible`, else infallibly.
    fn dispatch(&mut self, op: BackendOp<'_>, fallible: bool) -> Result<(), BackendError> {
        if fallible {
            return self.backend.try_run(&self.plan, op);
        }
        self.backend.run(&self.plan, op);
        Ok(())
    }

    // ---- Fallible surface -------------------------------------------------
    //
    // Recoverable counterparts of the hot entry points, for callers that
    // retry, re-fork, or degrade on a classified [`BackendError`] (the
    // serving stack). On `Err` the polynomial / buffer is unchanged —
    // representation flags are only flipped after the backend call
    // succeeds — so an identical retry is always safe.

    /// Fallible [`Evaluator::to_evaluation`]. On `Err` the polynomial
    /// keeps its representation and data.
    pub fn try_to_evaluation(&mut self, poly: &mut RnsPoly) -> Result<(), BackendError> {
        self.transform_polys(&mut [poly], Representation::Evaluation, true)
    }

    /// Fallible [`Evaluator::to_coefficient`]. On `Err` the polynomial
    /// keeps its representation and data.
    pub fn try_to_coefficient(&mut self, poly: &mut RnsPoly) -> Result<(), BackendError> {
        self.transform_polys(&mut [poly], Representation::Coefficient, true)
    }

    /// Forward-NTT a raw `rows × N` batch (row `r` mod prime
    /// `r % level`) in **one** fallible backend call.
    pub fn try_forward_flat(&mut self, level: usize, data: &mut [u64]) -> Result<(), BackendError> {
        let n = self.plan.degree();
        let op = BackendOp::ForwardBatch(LimbBatch::new(data, n, level));
        self.backend.try_run(&self.plan, op)
    }

    /// Inverse counterpart of [`Evaluator::try_forward_flat`]: inverse-NTT
    /// a raw `rows × N` batch (row `r` mod prime `r % level`) in **one**
    /// backend call — the dispatch shape request batchers use to pack
    /// many small ciphertext ops into a single kernel schedule.
    pub fn try_inverse_flat(&mut self, level: usize, data: &mut [u64]) -> Result<(), BackendError> {
        let n = self.plan.degree();
        let op = BackendOp::InverseBatch(LimbBatch::new(data, n, level));
        self.backend.try_run(&self.plan, op)
    }

    /// Element-wise product over packed rows, `acc[r] *= rhs[r]` with row
    /// `r` reduced mod prime `r % level` — the flat companion of
    /// [`Evaluator::mul_pointwise`]. One backend call covers every packed
    /// polynomial, whatever the row count.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` does not match `acc`'s shape (a caller bug, not a
    /// device condition).
    pub fn try_pointwise_flat(
        &mut self,
        level: usize,
        acc: &mut [u64],
        rhs: &[u64],
    ) -> Result<(), BackendError> {
        assert_eq!(acc.len(), rhs.len(), "operand shape mismatch");
        let n = self.plan.degree();
        let acc = LimbBatch::new(acc, n, level);
        let op = BackendOp::PointwiseBatch { acc, rhs };
        self.backend.try_run(&self.plan, op)
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

    /// Pointwise product `acc *= rhs` (both in evaluation form). Runs on
    /// the device when `rhs` is device-resident.
    ///
    /// # Panics
    ///
    /// Panics on level mismatch or if either operand is in coefficient
    /// form.
    pub fn mul_pointwise(&mut self, acc: &mut RnsPoly, rhs: &RnsPoly) {
        assert_eq!(acc.level(), rhs.level(), "level mismatch");
        assert_eq!(
            acc.repr(),
            Representation::Evaluation,
            "lhs not in NTT form"
        );
        assert_eq!(
            rhs.repr(),
            Representation::Evaluation,
            "rhs not in NTT form"
        );
        if let Some((abuf, rbuf)) = self.device_pair(acc, rhs) {
            let op = BackendOp::Pointwise {
                acc: abuf,
                rhs: rbuf,
                level: acc.level(),
            };
            self.backend.run(&self.plan, op);
            acc.mark_device_dirty();
        } else {
            acc.sync();
            let op = BackendOp::PointwiseBatch {
                acc: LimbBatch::from_poly(acc),
                rhs: rhs.flat(),
            };
            self.backend.run(&self.plan, op);
        }
    }

    /// Row-wise sum `acc += rhs` (representations must match; valid in
    /// either domain).
    ///
    /// # Panics
    ///
    /// Panics on level or representation mismatch.
    pub fn add_assign(&mut self, acc: &mut RnsPoly, rhs: &RnsPoly) {
        self.addsub_assign(acc, rhs, false);
    }

    /// Row-wise difference `acc -= rhs`.
    ///
    /// # Panics
    ///
    /// Panics on level or representation mismatch.
    pub fn sub_assign(&mut self, acc: &mut RnsPoly, rhs: &RnsPoly) {
        self.addsub_assign(acc, rhs, true);
    }

    fn addsub_assign(&mut self, acc: &mut RnsPoly, rhs: &RnsPoly, subtract: bool) {
        assert_eq!(acc.level(), rhs.level(), "level mismatch");
        assert_eq!(acc.repr(), rhs.repr(), "representation mismatch");
        if let Some((abuf, rbuf)) = self.device_pair(acc, rhs) {
            let op = BackendOp::AddSub {
                acc: abuf,
                rhs: rbuf,
                level: acc.level(),
                subtract,
            };
            self.backend.run(&self.plan, op);
            acc.mark_device_dirty();
        } else if subtract {
            acc.sub_assign(rhs, self.plan.ring());
        } else {
            acc.add_assign(rhs, self.plan.ring());
        }
    }

    /// Negate `poly` in place (device-side when resident).
    pub fn negate(&mut self, poly: &mut RnsPoly) {
        if let Some(buf) = self.device_target(poly) {
            let level = poly.level();
            let op = BackendOp::Negate { buf, level };
            self.backend.run(&self.plan, op);
            poly.mark_device_dirty();
        } else {
            poly.negate(self.plan.ring());
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
    /// every polynomial's dropped row, one [`BackendOp::BaseConvert`]
    /// lifts them exactly into the `l − 1` remaining primes, and one
    /// [`BackendOp::Forward`] transforms the lifted rows with the
    /// subtract-and-scale `(c_i − t_i)·p_{l-1}⁻¹` folded in — `2l` NTT
    /// rows per polynomial instead of `4l − 2`, and on a simulated GPU
    /// below 256 points three launches for a whole ciphertext. The NTT
    /// is exact and linear mod each `p_i`, so the result is the
    /// coefficient-domain rescale's. If any polynomial is resident in
    /// this backend's memory, all are made resident and nothing crosses
    /// the bus; otherwise the same steps run on the host, the lifted rows
    /// of every polynomial transformed by one [`BackendOp::ForwardBatch`].
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
        self.backend
            .run(&self.plan, BackendOp::Inverse { views: &dropped });
        // Separate allocations start at row 0 like the accumulators, so
        // on a sharded device every lifted row lands where its
        // accumulator row lives.
        let lifted: Vec<PolyView> = bufs
            .iter()
            .map(|_| PolyView::new(lock_memory(&mem).alloc(last * n), 0..last))
            .collect();
        let op = BackendOp::BaseConvert {
            src: &dropped,
            dst: &lifted,
            centered: false,
        };
        self.backend.run(&self.plan, op);
        let acc: Vec<DeviceBuf> = bufs.iter().map(|b| b.sub(0, last * n)).collect();
        let fold = SubScale {
            acc: &acc,
            dropped: last,
        };
        let op = BackendOp::Forward {
            views: &lifted,
            fold: Some(fold),
        };
        self.backend.run(&self.plan, op);
        for view in lifted {
            lock_memory(&mem).free(view.buf);
        }
        for poly in polys.iter_mut() {
            poly.device_truncate_level();
        }
    }

    /// The host path of [`Evaluator::rescale_polys`]: the same steps, with
    /// the lifted rows of every polynomial in one batched forward call.
    fn host_rescale(&mut self, polys: &mut [&mut RnsPoly]) {
        let (n, level) = (self.plan.degree(), polys[0].level());
        let last = level - 1;
        let mut lifted = vec![0u64; polys.len() * last * n];
        for (poly, t) in polys.iter_mut().zip(lifted.chunks_exact_mut(last * n)) {
            poly.sync();
            let mut dropped = poly.row(last).to_vec();
            self.plan.ring().ring(last).inverse(&mut dropped);
            host_lift_rows(&self.plan, (&dropped, last), false, t, 0..last);
        }
        let op = BackendOp::ForwardBatch(LimbBatch::new(&mut lifted, n, last));
        self.backend.run(&self.plan, op);
        for (poly, t) in polys.iter_mut().zip(lifted.chunks_exact(last * n)) {
            poly.drop_last_level();
            host_sub_scale_rows(&self.plan, last, last, poly.flat_mut(), t);
        }
    }

    /// Galois automorphism `X → X^g` in place (coefficient form; `g` odd).
    /// Device-resident polynomials permute on the device through the
    /// evaluator's scratch buffer — no host transfer; the write-back is a
    /// device-to-device copy.
    ///
    /// # Panics
    ///
    /// Panics if `poly` is in evaluation form or `g` is even.
    pub fn automorphism(&mut self, poly: &mut RnsPoly, g: u64) {
        assert_eq!(
            poly.repr(),
            Representation::Coefficient,
            "automorphism requires coefficient form"
        );
        if let Some(src) = self.device_target(poly) {
            let tmp = self.ensure_dev_scratch(src.len());
            let op = BackendOp::Automorphism {
                src,
                dst: tmp,
                level: poly.level(),
                g,
            };
            self.backend.run(&self.plan, op);
            lock_memory(&self.backend.memory()).copy(tmp, src);
            poly.mark_device_dirty();
        } else {
            poly.sync();
            let mut out = vec![0u64; poly.flat().len()];
            host_automorphism_rows(&self.plan, poly.level(), g, poly.flat(), &mut out);
            poly.flat_mut().copy_from_slice(&out);
        }
    }

    /// Fallible [`Evaluator::automorphism`]. On `Err` the polynomial is
    /// unchanged (the scratch write-back only runs after the kernel
    /// succeeds).
    pub fn try_automorphism(&mut self, poly: &mut RnsPoly, g: u64) -> Result<(), BackendError> {
        assert_eq!(
            poly.repr(),
            Representation::Coefficient,
            "automorphism requires coefficient form"
        );
        if let Some(src) = self.device_target(poly) {
            let tmp = self.ensure_dev_scratch(src.len());
            let op = BackendOp::Automorphism {
                src,
                dst: tmp,
                level: poly.level(),
                g,
            };
            self.backend.try_run(&self.plan, op)?;
            lock_memory(&self.backend.memory()).copy(tmp, src);
            poly.mark_device_dirty();
        } else {
            poly.try_sync()?;
            let mut out = vec![0u64; poly.flat().len()];
            host_automorphism_rows(&self.plan, poly.level(), g, poly.flat(), &mut out);
            poly.flat_mut().copy_from_slice(&out);
        }
        Ok(())
    }

    /// Mod-raise: re-embed last-level (single-prime) coefficient
    /// polynomials into the first `to_level` primes of the RNS basis by a
    /// centered lift mod `p₀` — the bootstrapping entry point. The
    /// sources are unchanged. Resident sources are raised together by one
    /// centered [`BackendOp::BaseConvert`] into resident results with no
    /// host transfer; host sources are raised on the host.
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
        let mut src = Vec::new();
        let mut outs = Vec::new();
        for poly in polys.iter_mut() {
            if let Some(buf) = self.device_target(poly) {
                src.push(PolyView::new(buf, 0..1));
                outs.push(self.zero_resident(to_level, Representation::Coefficient));
            } else {
                poly.sync();
                let ring = self.plan.ring();
                let mut out = RnsPoly::zero_with_repr(ring, to_level, Representation::Coefficient);
                host_lift_rows(
                    &self.plan,
                    (poly.flat(), 0),
                    true,
                    out.flat_mut(),
                    0..to_level,
                );
                outs.push(out);
            }
        }
        if !src.is_empty() {
            let mem = self.backend.memory();
            let dst: Vec<PolyView> = outs
                .iter()
                .filter_map(|out| out.device_buf_in(&mem))
                .map(|buf| PolyView::new(buf, 0..to_level))
                .collect();
            let op = BackendOp::BaseConvert {
                src: &src,
                dst: &dst,
                centered: true,
            };
            self.backend.run(&self.plan, op);
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
    /// terms: a key switch's inner product (digit views × key halves,
    /// plus any product terms it folds in) or a plaintext-product sum.
    ///
    /// Every term whose factors are both device-fresh in this backend's
    /// memory joins **one** [`BackendOp::Fma`]; `acc` is pulled to the
    /// device for it like [`Evaluator::add_assign`] pulls its
    /// accumulator. A term with a factor anywhere else takes the two-op
    /// chain [`Evaluator::mul_pointwise`] + [`Evaluator::add_assign`]
    /// first, which stages operands and counts transfers exactly as that
    /// chain always has. Sums mod `p` are exact in any order, so the bits
    /// are the chain's either way.
    ///
    /// # Panics
    ///
    /// Panics on level or representation mismatch, on a
    /// [`FmaFactor::View`] whose partner is not device-fresh here, or on
    /// a view that is not accumulator-shaped.
    pub fn fma(&mut self, acc: &mut RnsPoly, terms: &[(FmaFactor<'_>, &RnsPoly)]) {
        assert_eq!(
            acc.repr(),
            Representation::Evaluation,
            "accumulator not in NTT form"
        );
        let words = acc.level() * self.plan.degree();
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for &(x, y) in terms {
            assert_eq!(acc.level(), y.level(), "level mismatch");
            assert_eq!(y.repr(), Representation::Evaluation, "rhs not in NTT form");
            let yb = self.dev_buf(y);
            match x {
                FmaFactor::View(view) => {
                    assert_eq!(view.len(), words, "fma view shape mismatch");
                    xs.push(view);
                    ys.push(yb.expect("a device view's partner must be device-resident"));
                }
                FmaFactor::Poly(x) => {
                    assert_eq!(acc.level(), x.level(), "level mismatch");
                    assert_eq!(x.repr(), Representation::Evaluation, "lhs not in NTT form");
                    if let Some((xb, yb)) = self.dev_buf(x).zip(yb) {
                        xs.push(xb);
                        ys.push(yb);
                    } else {
                        let mut prod = x.clone();
                        self.mul_pointwise(&mut prod, y);
                        self.add_assign(acc, &prod);
                    }
                }
            }
        }
        if xs.is_empty() {
            return;
        }
        let mem = self.backend.memory();
        acc.make_resident_in(&mem);
        let op = BackendOp::Fma {
            acc: acc.device_buf_in(&mem).expect("just uploaded"),
            x: &xs,
            y: &ys,
            level: acc.level(),
        };
        self.backend.run(&self.plan, op);
        acc.mark_device_dirty();
    }

    /// Gadget-decompose a coefficient polynomial and forward-NTT every
    /// digit in one batched call: the `level·digits` digits of a key
    /// switch, zero digits included.
    ///
    /// A source that is device-fresh in this backend's memory is
    /// decomposed and transformed in the evaluator's device scratch
    /// ([`BackendOp::Decompose`] + [`BackendOp::Forward`]), so nothing
    /// crosses the bus; any other source is decomposed on the host and
    /// transformed by one [`BackendOp::ForwardBatch`] over the whole
    /// buffer of digits. Both give the same bits.
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
            let buf = self.ensure_dev_scratch(level * digits * words);
            let op = BackendOp::Decompose {
                src,
                dst: buf,
                level,
                digits,
                gadget_bits,
            };
            self.backend.run(&self.plan, op);
            let views = [PolyView::new(buf, 0..level)];
            let op = BackendOp::Forward {
                views: &views,
                fold: None,
            };
            self.backend.run(&self.plan, op);
            return Digits::Device { buf, words };
        }
        poly.sync();
        let mut flat = vec![0u64; level * digits * words];
        host_decompose_rows(n, level, digits, gadget_bits, poly.flat(), &mut flat);
        let op = BackendOp::ForwardBatch(LimbBatch::new(&mut flat, n, level));
        self.backend.run(&self.plan, op);
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

    /// Grow-only device scratch view of exactly `words` words.
    fn ensure_dev_scratch(&mut self, words: usize) -> DeviceBuf {
        let mem = self.backend.memory();
        match self.dev_scratch {
            Some(buf) if buf.len() >= words => buf.sub(0, words),
            old => {
                if let Some(buf) = old {
                    lock_memory(&mem).free(buf);
                }
                let buf = lock_memory(&mem).alloc(words);
                self.dev_scratch = Some(buf);
                buf.sub(0, words)
            }
        }
    }

    /// Fused negacyclic product of two coefficient-form polynomials. When
    /// either operand is device-resident the product is computed and left
    /// on the device (a host-side co-operand is staged through a
    /// temporary device buffer — one counted upload, the honest cost of a
    /// mixed-residency multiply).
    ///
    /// # Panics
    ///
    /// Panics on level mismatch or non-coefficient operands.
    pub fn multiply(&mut self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        let (da, db) = (self.dev_buf(a), self.dev_buf(b));
        if da.is_some() || db.is_some() {
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
            self.backend.bind_stream();
            let mem = self.backend.memory();
            // Host co-operands are prefetched through the backend's
            // staging hook: on stream-modeling backends the upload rides
            // a copy stream fenced by an event, so compute already queued
            // on this executor's stream overlaps the transfer instead of
            // waiting behind it (ROADMAP item p).
            let (abuf, atmp) = match da {
                Some(buf) => (buf, None),
                None => {
                    let t = self.backend.stage_upload(a.flat());
                    (t, Some(t))
                }
            };
            let (bbuf, btmp) = match db {
                Some(buf) => (buf, None),
                None => {
                    let t = self.backend.stage_upload(b.flat());
                    (t, Some(t))
                }
            };
            let mut out = self.zero_resident(a.level(), Representation::Coefficient);
            let obuf = self.dev_buf(&out).expect("freshly resident");
            let op = BackendOp::Multiply {
                a: abuf,
                b: bbuf,
                out: obuf,
                level: a.level(),
            };
            self.backend.run(&self.plan, op);
            for tmp in [atmp, btmp].into_iter().flatten() {
                lock_memory(&mem).free(tmp);
            }
            out.mark_device_dirty();
            return out;
        }
        multiply_with(&mut *self.backend, &self.plan, a, b)
    }
}

/// The one fused-multiply entry: precondition checks plus the batched
/// backend call. Shared by [`Evaluator::multiply`] and the ring-level
/// convenience API ([`RnsRing::multiply`]) so the operand contract lives
/// in exactly one place.
///
/// # Panics
///
/// Panics on level mismatch or non-coefficient operands.
pub(crate) fn multiply_with(
    backend: &mut dyn NttBackend,
    plan: &RingPlan,
    a: &RnsPoly,
    b: &RnsPoly,
) -> RnsPoly {
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
    let mut out = RnsPoly::zero_at_level(plan.ring(), a.level());
    let op = BackendOp::MultiplyBatch {
        a: a.flat(),
        b: b.flat(),
        out: LimbBatch::from_poly(&mut out),
    };
    backend.run(plan, op);
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
            let br = PointwiseStrategy::choose_with(StrategyMode::Barrett, p);
            let mo = PointwiseStrategy::choose_with(StrategyMode::Montgomery, p);
            assert!(matches!(br, PointwiseStrategy::Barrett(_)));
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
        // be selected even when forced.
        let p = 0x7FFF_FFFF_FFFF_FD21u64;
        assert!(ntt_math::is_prime(p));
        let s = PointwiseStrategy::choose_with(StrategyMode::Montgomery, p);
        assert!(matches!(s, PointwiseStrategy::Barrett(_)));
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(StrategyMode::parse("barrett"), StrategyMode::Barrett);
        assert_eq!(StrategyMode::parse(" MONT "), StrategyMode::Montgomery);
        assert_eq!(StrategyMode::parse("montgomery"), StrategyMode::Montgomery);
        assert_eq!(StrategyMode::parse(""), StrategyMode::Auto);
        assert_eq!(StrategyMode::parse("bogus"), StrategyMode::Auto);
    }

    #[test]
    fn calibration_returns_finite_timings() {
        let p = ntt_math::ntt_prime(59, 1 << 12).unwrap();
        let (b, m) = calibrate_pointwise(p);
        assert!(b.is_finite() && b > 0.0);
        assert!(m.is_finite() && m > 0.0);
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
}
