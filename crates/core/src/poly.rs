//! Polynomial rings `Z_p[X]/(X^N + 1)` and their RNS product rings.
//!
//! This is the ciphertext substrate of §III-B: an element of
//! `Z_Q[X]/(X^N+1)` is held as `np` rows of word-sized residues, one per
//! RNS prime, and multiplied via `np` independent N-point negacyclic NTTs
//! — exactly the batched workload the paper accelerates.

use crate::backend::{lock_memory, same_memory, BackendError, DeviceBuf, SharedDeviceMemory};
use crate::ct;
use crate::hier::HierPlan;
use crate::rns::{RnsBasis, RnsError};
use crate::table::NttTable;
use ntt_math::modops::{add_mod, neg_mod, sub_mod};
use ntt_math::root::RootError;
use std::sync::Arc;

/// Errors from ring construction and use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// No prime with the required `p ≡ 1 (mod 2N)` structure was found.
    NoSuitablePrime {
        /// Requested prime bit size.
        bits: u32,
        /// Ring degree.
        n: usize,
    },
    /// The modulus lacks a primitive 2N-th root of unity.
    Root(RootError),
    /// RNS basis construction failed.
    Rns(RnsError),
}

impl std::fmt::Display for RingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingError::NoSuitablePrime { bits, n } => {
                write!(f, "no {bits}-bit prime ≡ 1 mod {} found", 2 * n)
            }
            RingError::Root(e) => write!(f, "root of unity: {e}"),
            RingError::Rns(e) => write!(f, "rns basis: {e}"),
        }
    }
}

impl std::error::Error for RingError {}

impl From<RootError> for RingError {
    fn from(e: RootError) -> Self {
        RingError::Root(e)
    }
}

impl From<RnsError> for RingError {
    fn from(e: RnsError) -> Self {
        RingError::Rns(e)
    }
}

/// A dense polynomial over one residue ring (coefficients `< p`, natural
/// order, length `N`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Polynomial {
    coeffs: Vec<u64>,
}

impl Polynomial {
    /// The zero polynomial of degree bound `n`.
    pub fn zero(n: usize) -> Self {
        Self { coeffs: vec![0; n] }
    }

    /// From explicit low-order coefficients, zero-padded to length `n`.
    ///
    /// # Panics
    ///
    /// Panics if more than `n` coefficients are given.
    pub fn from_coeffs(mut coeffs: Vec<u64>, n: usize) -> Self {
        assert!(coeffs.len() <= n, "too many coefficients for degree bound");
        coeffs.resize(n, 0);
        Self { coeffs }
    }

    /// The monomial `c·X^deg` in a ring of degree bound `n`.
    ///
    /// # Panics
    ///
    /// Panics if `deg >= n`.
    pub fn monomial(deg: usize, c: u64, n: usize) -> Self {
        assert!(deg < n, "monomial degree exceeds ring degree");
        let mut coeffs = vec![0; n];
        coeffs[deg] = c;
        Self { coeffs }
    }

    /// Coefficient slice (length `N`).
    #[inline]
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Mutable coefficient slice.
    #[inline]
    pub fn coeffs_mut(&mut self) -> &mut [u64] {
        &mut self.coeffs
    }

    /// Consume into the coefficient vector.
    pub fn into_coeffs(self) -> Vec<u64> {
        self.coeffs
    }
}

impl From<Polynomial> for Vec<u64> {
    fn from(p: Polynomial) -> Self {
        p.coeffs
    }
}

/// The ring `Z_p[X]/(X^N + 1)` with its NTT machinery.
///
/// Rings at or above [`crate::hier::HIER_MIN_N`] lazily build a
/// [`HierPlan`] (hierarchical 4-step NTT) and route every forward/inverse
/// transform through it; smaller rings keep the flat CT kernel. Both paths
/// are bit-identical.
#[derive(Debug, Clone)]
pub struct NegacyclicRing {
    table: NttTable,
    hier: std::sync::OnceLock<Option<HierPlan>>,
}

impl NegacyclicRing {
    /// Ring for an explicit NTT-friendly prime.
    ///
    /// # Errors
    ///
    /// Fails if `p` is not prime or `p ≢ 1 (mod 2N)`.
    pub fn new(n: usize, p: u64) -> Result<Self, RingError> {
        Ok(Self {
            table: NttTable::new(n, p)?,
            hier: std::sync::OnceLock::new(),
        })
    }

    /// Ring with the largest `bits`-bit NTT-friendly prime.
    ///
    /// # Errors
    ///
    /// [`RingError::NoSuitablePrime`] if no such prime exists.
    pub fn new_with_bits(n: usize, bits: u32) -> Result<Self, RingError> {
        let p = ntt_math::ntt_prime(bits, 2 * n as u64)
            .ok_or(RingError::NoSuitablePrime { bits, n })?;
        Self::new(n, p)
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.table.n()
    }

    /// The prime modulus.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.table.modulus()
    }

    /// The underlying twiddle table (for kernels and size accounting).
    #[inline]
    pub fn table(&self) -> &NttTable {
        &self.table
    }

    /// The hierarchical 4-step plan, for rings at or above
    /// [`crate::hier::HIER_MIN_N`] (built lazily on first transform and
    /// shared across clones' threads thereafter).
    pub fn hier(&self) -> Option<&HierPlan> {
        self.hier
            .get_or_init(|| HierPlan::auto(&self.table))
            .as_ref()
    }

    /// Forward NTT in place (natural → bit-reversed evaluation order).
    /// Large rings dispatch through the hierarchical plan; the result is
    /// bit-identical either way.
    pub fn forward(&self, a: &mut [u64]) {
        match self.hier() {
            Some(h) => h.forward(a),
            None => ct::ntt(a, &self.table),
        }
    }

    /// Inverse NTT in place (bit-reversed evaluation → natural order).
    pub fn inverse(&self, a: &mut [u64]) {
        match self.hier() {
            Some(h) => h.inverse(a),
            None => ct::intt(a, &self.table),
        }
    }

    /// Negacyclic product `a · b mod (X^N + 1, p)` via the fused lazy NTT
    /// pipeline (one reduction at the very end, operands staged through the
    /// thread-local CPU backend's workspace — no per-call clones).
    ///
    /// # Panics
    ///
    /// Panics if either operand's length differs from `N`.
    pub fn multiply(&self, a: &Polynomial, b: &Polynomial) -> Polynomial {
        assert_eq!(a.coeffs.len(), self.degree(), "degree mismatch (lhs)");
        assert_eq!(b.coeffs.len(), self.degree(), "degree mismatch (rhs)");
        crate::backend::with_default_backend(|be| be.executor_mut().negacyclic_multiply(self, a, b))
    }

    /// Coefficient-wise sum.
    ///
    /// # Panics
    ///
    /// Panics on degree mismatch.
    pub fn add(&self, a: &Polynomial, b: &Polynomial) -> Polynomial {
        assert_eq!(a.coeffs.len(), b.coeffs.len(), "degree mismatch");
        let p = self.modulus();
        Polynomial {
            coeffs: a
                .coeffs
                .iter()
                .zip(&b.coeffs)
                .map(|(&x, &y)| add_mod(x, y, p))
                .collect(),
        }
    }

    /// Coefficient-wise difference.
    ///
    /// # Panics
    ///
    /// Panics on degree mismatch.
    pub fn sub(&self, a: &Polynomial, b: &Polynomial) -> Polynomial {
        assert_eq!(a.coeffs.len(), b.coeffs.len(), "degree mismatch");
        let p = self.modulus();
        Polynomial {
            coeffs: a
                .coeffs
                .iter()
                .zip(&b.coeffs)
                .map(|(&x, &y)| sub_mod(x, y, p))
                .collect(),
        }
    }
}

/// Which domain an [`RnsPoly`]'s rows currently live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Representation {
    /// Natural-order coefficients.
    Coefficient,
    /// Bit-reversed NTT evaluations (pointwise products are valid here).
    Evaluation,
}

/// The RNS product ring: one [`NegacyclicRing`] per prime plus the CRT
/// basis.
///
/// Internals (twiddle tables, basis, cached plan data) live behind an
/// [`std::sync::Arc`], so cloning a ring is a reference-count bump — this is
/// what lets a [`crate::backend::RingPlan`] hold a ring handle without
/// duplicating the tables.
#[derive(Debug, Clone)]
pub struct RnsRing {
    inner: std::sync::Arc<RnsRingInner>,
}

#[derive(Debug)]
struct RnsRingInner {
    rings: Vec<NegacyclicRing>,
    basis: RnsBasis,
    /// Plan-time pointwise strategy per prime, computed once on first
    /// [`RnsRing::plan`] call (see `crate::backend`).
    strategies: std::sync::OnceLock<std::sync::Arc<[crate::backend::PointwiseStrategy]>>,
}

impl RnsRing {
    /// Build from explicit primes (all must be NTT-friendly for degree `n`).
    ///
    /// # Errors
    ///
    /// Propagates prime/root failures from ring and basis construction.
    pub fn new(n: usize, primes: Vec<u64>) -> Result<Self, RingError> {
        let basis = RnsBasis::new(primes.clone())?;
        let rings = primes
            .into_iter()
            .map(|p| NegacyclicRing::new(n, p))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            inner: std::sync::Arc::new(RnsRingInner {
                rings,
                basis,
                strategies: std::sync::OnceLock::new(),
            }),
        })
    }

    /// Build from an [`crate::params::HeParams`] preset.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    pub fn from_params(params: &crate::params::HeParams) -> Result<Self, RingError> {
        Self::new(
            params.n(),
            ntt_math::ntt_primes(params.prime_bits(), 2 * params.n() as u64, params.np()),
        )
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.inner.rings[0].degree()
    }

    /// Number of primes `np`.
    #[inline]
    pub fn np(&self) -> usize {
        self.inner.rings.len()
    }

    /// The per-prime ring at RNS index `i`.
    #[inline]
    pub fn ring(&self, i: usize) -> &NegacyclicRing {
        &self.inner.rings[i]
    }

    /// The CRT basis.
    #[inline]
    pub fn basis(&self) -> &RnsBasis {
        &self.inner.basis
    }

    /// The cached execution plan for this ring (see
    /// [`crate::backend::RingPlan`]): per-prime pointwise reduction
    /// strategies are chosen on the first call (benchmark-derived, with an
    /// `NTT_WARP_POINTWISE` override) and memoized in the ring, so repeated
    /// calls cost two reference-count bumps.
    pub fn plan(&self) -> crate::backend::RingPlan {
        let strategies = self
            .inner
            .strategies
            .get_or_init(|| crate::backend::PointwiseStrategy::choose_all(self.basis().primes()))
            .clone();
        crate::backend::RingPlan::from_parts(self.clone(), strategies)
    }

    /// Negacyclic product of full RNS polynomials (all active levels) via
    /// the fused lazy pipeline: every limb runs
    /// `ntt_lazy → lazy pointwise → intt_lazy` with a single final
    /// reduction, residue-parallel under the thread-local
    /// [`crate::backend::CpuBackend`]'s [`crate::engine::ThreadPolicy`].
    /// The operands are staged through the backend workspace — no clones,
    /// no per-call allocation beyond the result.
    ///
    /// Routed through the plan-based [`crate::backend::NttBackend`] API;
    /// callers that want a different execution substrate (or an explicit
    /// thread policy) should hold a [`crate::backend::Evaluator`].
    ///
    /// # Panics
    ///
    /// Panics if the operands disagree in level or are not in
    /// coefficient form.
    pub fn multiply(&self, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        let plan = self.plan();
        crate::backend::with_default_backend(|be| crate::backend::multiply_with(be, &plan, a, b))
    }
}

/// Where an [`RnsPoly`]'s fresh copy currently lives (see
/// [`RnsPoly::residency`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// No device mirror: host rows are the only copy.
    HostOnly,
    /// The device copy is the fresh one; host rows are stale until
    /// [`RnsPoly::sync`] downloads them.
    DeviceOnly,
    /// Both copies exist and the host rows are fresh. `host_dirty` marks a
    /// host-side edit not yet re-uploaded (the next device operation
    /// flushes it).
    Mirrored {
        /// Host rows were modified since the last upload.
        host_dirty: bool,
    },
}

/// The device half of a resident polynomial: a buffer in some backend's
/// [`crate::backend::DeviceMemory`] plus the two dirty bits of the
/// storage state machine. Holding the memory handle *inside* the poly is
/// what makes lazy downloads and drop-time frees possible without a
/// backend in scope.
struct DeviceMirror {
    mem: SharedDeviceMemory,
    /// Whole allocation; the active view is `buf.sub(0, level·n)`
    /// (rescaling shrinks the logical view, not the allocation).
    buf: DeviceBuf,
    /// Host rows modified since the last upload (device stale).
    host_dirty: bool,
    /// Device modified since the last download (host stale).
    dev_dirty: bool,
}

impl std::fmt::Debug for DeviceMirror {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceMirror")
            .field("buf", &self.buf)
            .field("host_dirty", &self.host_dirty)
            .field("dev_dirty", &self.dev_dirty)
            .finish_non_exhaustive()
    }
}

impl DeviceMirror {
    /// Device-side duplicate of the active view (used by `Clone`; the
    /// copy never crosses the bus).
    fn duplicate(&self, active_words: usize) -> DeviceMirror {
        let buf = {
            let mut mem = lock_memory(&self.mem);
            let dst = mem.alloc(active_words);
            mem.copy(self.buf.sub(0, active_words), dst);
            dst
        };
        DeviceMirror {
            mem: Arc::clone(&self.mem),
            buf,
            host_dirty: self.host_dirty,
            dev_dirty: self.dev_dirty,
        }
    }
}

impl Drop for DeviceMirror {
    fn drop(&mut self) {
        lock_memory(&self.mem).free(self.buf);
    }
}

/// An element of the RNS ring: `level` rows of `N` residues.
///
/// `level` tracks how many primes are still active (CKKS-style rescaling
/// drops the last one); rows `level..np` are absent.
///
/// # Storage state machine
///
/// A polynomial is born [`Residency::HostOnly`]. An evaluator can attach a
/// device mirror ([`crate::backend::Evaluator::make_resident`]), after
/// which device-side operations flip it to [`Residency::DeviceOnly`]
/// (host rows stale) and host-side writes flip it back through
/// [`Residency::Mirrored`] with `host_dirty` set. Downloads are **lazy**:
/// nothing crosses the bus until a host access needs the fresh rows —
/// mutable accessors ([`RnsPoly::flat_mut`], [`RnsPoly::row_mut`], the
/// in-place ring ops) sync implicitly, shared read accessors
/// ([`RnsPoly::flat`], [`RnsPoly::row`], …) require an explicit
/// [`RnsPoly::sync`] first and panic on stale reads (loud beats wrong).
///
/// ```
/// use ntt_core::backend::Evaluator;
/// use ntt_core::poly::Residency;
/// use ntt_core::{RnsPoly, RnsRing};
///
/// let ring = RnsRing::new(8, ntt_math::ntt_primes(59, 16, 2))?;
/// let mut ev = Evaluator::cpu(&ring);
/// let mut x = RnsPoly::from_i64_coeffs(&ring, &[1, 2, 3]);
/// assert_eq!(x.residency(), Residency::HostOnly);
///
/// ev.make_resident(&mut x); // one upload
/// ev.to_evaluation(&mut x); // runs on the device…
/// ev.to_coefficient(&mut x);
/// assert_eq!(x.residency(), Residency::DeviceOnly); // …host rows stale
///
/// x.sync(); // lazy download happens exactly here
/// assert_eq!(x.residency(), Residency::Mirrored { host_dirty: false });
/// assert_eq!(x.coefficient_centered(&ring, 1), Some(2));
/// # Ok::<(), ntt_core::RingError>(())
/// ```
#[derive(Debug)]
pub struct RnsPoly {
    n: usize,
    level: usize,
    repr: Representation,
    /// Row-major `level × n` residues; row `i` is mod `primes[i]`.
    data: Vec<u64>,
    /// Device mirror, when resident.
    mirror: Option<DeviceMirror>,
}

impl Clone for RnsPoly {
    /// Clones preserve residency: a device-resident polynomial is
    /// duplicated with a device-to-device copy (no bus transfer), stale
    /// host rows stay stale in the copy.
    fn clone(&self) -> Self {
        RnsPoly {
            n: self.n,
            level: self.level,
            repr: self.repr,
            data: self.data.clone(),
            mirror: self
                .mirror
                .as_ref()
                .map(|m| m.duplicate(self.level * self.n)),
        }
    }
}

impl PartialEq for RnsPoly {
    /// Value equality over the host rows. Both sides must be host-fresh
    /// (sync device-resident polynomials first).
    ///
    /// # Panics
    ///
    /// Panics if either side is [`Residency::DeviceOnly`].
    fn eq(&self, other: &Self) -> bool {
        assert!(
            !self.device_dirty() && !other.device_dirty(),
            "comparing device-dirty RnsPoly; call sync() first"
        );
        self.n == other.n
            && self.level == other.level
            && self.repr == other.repr
            && self.data == other.data
    }
}

impl Eq for RnsPoly {}

impl RnsPoly {
    /// The zero element at full level.
    pub fn zero(ring: &RnsRing) -> Self {
        Self::zero_at_level(ring, ring.np())
    }

    /// The zero element with `level` active primes.
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or exceeds `ring.np()`.
    pub fn zero_at_level(ring: &RnsRing, level: usize) -> Self {
        Self::zero_with_repr(ring, level, Representation::Coefficient)
    }

    /// The zero element with `level` active primes, tagged with an explicit
    /// representation (the zero polynomial is zero in either domain, so no
    /// transform is needed — accumulators in the NTT domain start here).
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or exceeds `ring.np()`.
    pub fn zero_with_repr(ring: &RnsRing, level: usize, repr: Representation) -> Self {
        assert!(level >= 1 && level <= ring.np(), "invalid level");
        Self {
            n: ring.degree(),
            level,
            repr,
            data: vec![0; level * ring.degree()],
            mirror: None,
        }
    }

    /// Encode signed coefficients (centered) into every active prime row.
    ///
    /// # Panics
    ///
    /// Panics if more than `N` coefficients are supplied.
    pub fn from_i64_coeffs(ring: &RnsRing, coeffs: &[i64]) -> Self {
        let n = ring.degree();
        assert!(coeffs.len() <= n, "too many coefficients");
        let mut out = Self::zero(ring);
        for (i, &c) in coeffs.iter().enumerate() {
            for (row, &p) in ring.basis().primes().iter().enumerate() {
                out.data[row * n + i] = if c >= 0 {
                    (c as u64) % p
                } else {
                    neg_mod(((-(c as i128)) as u64) % p, p)
                };
            }
        }
        out
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.n
    }

    /// Active prime count.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Current representation.
    #[inline]
    pub fn repr(&self) -> Representation {
        self.repr
    }

    // ---- Storage state machine -----------------------------------------

    /// Where the fresh copy of this polynomial currently lives.
    pub fn residency(&self) -> Residency {
        match &self.mirror {
            None => Residency::HostOnly,
            Some(m) if m.dev_dirty => Residency::DeviceOnly,
            Some(m) => Residency::Mirrored {
                host_dirty: m.host_dirty,
            },
        }
    }

    /// `true` when the device copy is newer than the host rows.
    #[inline]
    pub fn device_dirty(&self) -> bool {
        self.mirror.as_ref().is_some_and(|m| m.dev_dirty)
    }

    /// Explicit sync point: if the device copy is the fresh one, download
    /// it into the host rows (one counted transfer). No-op otherwise.
    /// This is the only place device→host data movement happens — reads
    /// are lazy, never eager.
    pub fn sync(&mut self) {
        let (n, level) = (self.n, self.level);
        if let Some(m) = &mut self.mirror {
            if m.dev_dirty {
                lock_memory(&m.mem).download(m.buf.sub(0, level * n), &mut self.data);
                m.dev_dirty = false;
            }
        }
    }

    /// Fallible [`RnsPoly::sync`]: the download can report a classified
    /// fault instead of panicking. On `Err` the host rows are unchanged
    /// and the device copy stays marked fresh, so the sync can be
    /// retried.
    pub fn try_sync(&mut self) -> Result<(), BackendError> {
        let (n, level) = (self.n, self.level);
        if let Some(m) = &mut self.mirror {
            if m.dev_dirty {
                lock_memory(&m.mem).try_download(m.buf.sub(0, level * n), &mut self.data)?;
                m.dev_dirty = false;
            }
        }
        Ok(())
    }

    /// Drop the device mirror (downloading first if it was fresh) and
    /// return to [`Residency::HostOnly`]. Frees the device buffer.
    pub fn evict_device(&mut self) {
        self.sync();
        self.mirror = None; // Drop frees the buffer
    }

    /// Internal alias: host mutators call this before touching `data`.
    fn ensure_host(&mut self) {
        self.sync();
    }

    /// Record a host-side modification (device copy now stale). Callers
    /// must [`RnsPoly::ensure_host`] first.
    fn mark_host_edit(&mut self) {
        if let Some(m) = &mut self.mirror {
            debug_assert!(!m.dev_dirty, "host edit while device copy was fresh");
            m.host_dirty = true;
        }
    }

    /// Record a device-side modification (host rows now stale; any pending
    /// host edit has been flushed by the caller).
    pub(crate) fn mark_device_dirty(&mut self) {
        let m = self.mirror.as_mut().expect("no device mirror");
        m.host_dirty = false;
        m.dev_dirty = true;
    }

    /// Whether this polynomial has a mirror in `mem`'s device memory.
    pub(crate) fn has_mirror_in(&self, mem: &SharedDeviceMemory) -> bool {
        self.mirror
            .as_ref()
            .is_some_and(|m| same_memory(&m.mem, mem))
    }

    /// The active device view (`level·n` words) if resident in `mem` with
    /// an up-to-date device copy.
    pub(crate) fn device_buf_in(&self, mem: &SharedDeviceMemory) -> Option<DeviceBuf> {
        let m = self.mirror.as_ref()?;
        (same_memory(&m.mem, mem) && !m.host_dirty).then(|| m.buf.sub(0, self.level * self.n))
    }

    /// Make this polynomial resident in `mem`: attach a mirror (first
    /// upload), flush host edits (re-upload), or no-op when already clean
    /// there. A mirror in a *different* memory is synced and dropped
    /// first.
    pub(crate) fn make_resident_in(&mut self, mem: &SharedDeviceMemory) {
        if self.mirror.is_some() && !self.has_mirror_in(mem) {
            self.evict_device();
        }
        let active = self.level * self.n;
        match &mut self.mirror {
            Some(m) => {
                if m.host_dirty {
                    lock_memory(&m.mem).upload(m.buf.sub(0, active), &self.data);
                    m.host_dirty = false;
                }
            }
            None => {
                let buf = {
                    let mut guard = lock_memory(mem);
                    let buf = guard.alloc(active);
                    guard.upload(buf, &self.data);
                    buf
                };
                self.mirror = Some(DeviceMirror {
                    mem: Arc::clone(mem),
                    buf,
                    host_dirty: false,
                    dev_dirty: false,
                });
            }
        }
    }

    /// Attach a pre-allocated (zeroed) device buffer as an in-sync mirror
    /// of an all-zero polynomial — no transfer.
    ///
    /// # Panics
    ///
    /// Panics if a mirror already exists or the buffer is too small.
    pub(crate) fn adopt_mirror(&mut self, mem: &SharedDeviceMemory, buf: DeviceBuf) {
        assert!(self.mirror.is_none(), "mirror already attached");
        assert!(buf.len() >= self.level * self.n, "mirror buffer too small");
        debug_assert!(self.data.iter().all(|&v| v == 0), "adopt requires zeros");
        self.mirror = Some(DeviceMirror {
            mem: Arc::clone(mem),
            buf,
            host_dirty: false,
            dev_dirty: false,
        });
    }

    /// Drop the last level of a device-resident polynomial after a
    /// device-side rescale: shrinks the logical view (host rows and device
    /// view) without touching the allocation, and marks the device copy
    /// fresh.
    pub(crate) fn device_truncate_level(&mut self) {
        assert!(self.level > 1, "cannot drop the last remaining prime");
        self.level -= 1;
        self.data.truncate(self.level * self.n);
        self.mark_device_dirty();
    }

    /// Residue row for prime `i` (length `N`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= level`, or on a stale host read
    /// ([`Residency::DeviceOnly`] — call [`RnsPoly::sync`] first).
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        assert!(i < self.level, "row beyond active level");
        self.assert_host_fresh();
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Mutable residue row for prime `i`. Lazily downloads a fresh device
    /// copy first and marks the device copy stale.
    ///
    /// # Panics
    ///
    /// Panics if `i >= level`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [u64] {
        assert!(i < self.level, "row beyond active level");
        self.ensure_host();
        self.mark_host_edit();
        &mut self.data[i * self.n..(i + 1) * self.n]
    }

    /// The flat `level × N` contiguous residue buffer (row-major; row `i`
    /// is mod prime `i`). This is the batched-kernel view: one slice holds
    /// every limb, so a single call can transform them all.
    ///
    /// # Panics
    ///
    /// Panics on a stale host read ([`Residency::DeviceOnly`] — call
    /// [`RnsPoly::sync`] first).
    #[inline]
    pub fn flat(&self) -> &[u64] {
        self.assert_host_fresh();
        &self.data
    }

    /// Mutable flat `level × N` residue buffer. Lazily downloads a fresh
    /// device copy first and marks the device copy stale.
    ///
    /// Writing through this view can change which domain the values are
    /// in; callers that do so must retag with [`RnsPoly::set_repr`].
    #[inline]
    pub fn flat_mut(&mut self) -> &mut [u64] {
        self.ensure_host();
        self.mark_host_edit();
        &mut self.data
    }

    #[inline]
    fn assert_host_fresh(&self) {
        assert!(
            !self.device_dirty(),
            "host read of a device-dirty RnsPoly; call sync() first"
        );
    }

    /// Retag the representation **without transforming** — for expert
    /// callers that have just rewritten the raw buffer via
    /// [`RnsPoly::flat_mut`] (e.g. refilling a reused digit polynomial with
    /// coefficient data). Does not touch the residues.
    #[inline]
    pub fn set_repr(&mut self, repr: Representation) {
        self.repr = repr;
    }

    /// Overwrite `self` with `other`'s residues and representation,
    /// reusing the existing buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics on degree or level mismatch.
    pub fn copy_from(&mut self, other: &RnsPoly) {
        assert_eq!(self.n, other.n, "degree mismatch");
        assert_eq!(self.level, other.level, "level mismatch");
        other.assert_host_fresh();
        // Every host word is overwritten: no download needed, just mark
        // any device copy stale.
        if let Some(m) = &mut self.mirror {
            m.dev_dirty = false;
            m.host_dirty = true;
        }
        self.data.copy_from_slice(&other.data);
        self.repr = other.repr;
    }

    /// Forward-NTT every active row (no-op if already in evaluation form).
    ///
    /// All limbs are transformed in one batched, residue-parallel
    /// [`crate::backend::BackendOp::ForwardBatch`] on the thread-local
    /// CPU backend (lazy kernels, canonical output).
    pub fn to_evaluation(&mut self, ring: &RnsRing) {
        use crate::backend::{BackendOp, LimbBatch, NttBackend};
        if self.repr == Representation::Evaluation {
            return;
        }
        self.ensure_host();
        self.mark_host_edit();
        let plan = ring.plan();
        let batch = LimbBatch::new(&mut self.data, self.n, self.level);
        crate::backend::with_default_backend(|be| be.run(&plan, BackendOp::ForwardBatch(batch)));
        self.repr = Representation::Evaluation;
    }

    /// Inverse-NTT every active row (no-op if already in coefficient form).
    ///
    /// Batched and residue-parallel, like [`RnsPoly::to_evaluation`].
    pub fn to_coefficient(&mut self, ring: &RnsRing) {
        use crate::backend::{BackendOp, LimbBatch, NttBackend};
        if self.repr == Representation::Coefficient {
            return;
        }
        self.ensure_host();
        self.mark_host_edit();
        let plan = ring.plan();
        let batch = LimbBatch::new(&mut self.data, self.n, self.level);
        crate::backend::with_default_backend(|be| be.run(&plan, BackendOp::InverseBatch(batch)));
        self.repr = Representation::Coefficient;
    }

    /// `self += other` (row-wise, representation-agnostic but must match).
    ///
    /// # Panics
    ///
    /// Panics on level or representation mismatch.
    pub fn add_assign(&mut self, other: &RnsPoly, ring: &RnsRing) {
        assert_eq!(self.level, other.level, "level mismatch");
        assert_eq!(self.repr, other.repr, "representation mismatch");
        other.assert_host_fresh();
        self.ensure_host();
        self.mark_host_edit();
        for i in 0..self.level {
            let p = ring.basis().primes()[i];
            let base = i * self.n;
            for j in 0..self.n {
                self.data[base + j] = add_mod(self.data[base + j], other.data[base + j], p);
            }
        }
    }

    /// `self -= other`.
    ///
    /// # Panics
    ///
    /// Panics on level or representation mismatch.
    pub fn sub_assign(&mut self, other: &RnsPoly, ring: &RnsRing) {
        assert_eq!(self.level, other.level, "level mismatch");
        assert_eq!(self.repr, other.repr, "representation mismatch");
        other.assert_host_fresh();
        self.ensure_host();
        self.mark_host_edit();
        for i in 0..self.level {
            let p = ring.basis().primes()[i];
            let base = i * self.n;
            for j in 0..self.n {
                self.data[base + j] = sub_mod(self.data[base + j], other.data[base + j], p);
            }
        }
    }

    /// Negate in place.
    pub fn negate(&mut self, ring: &RnsRing) {
        for i in 0..self.level {
            let p = ring.basis().primes()[i];
            for v in self.row_mut(i) {
                *v = neg_mod(*v, p);
            }
        }
    }

    /// Pointwise product (both operands must be in evaluation form).
    ///
    /// Runs through the thread-local backend as one
    /// [`crate::backend::BackendOp::PointwiseBatch`], using the plan's
    /// per-prime reduction strategy (Barrett or Montgomery — the canonical
    /// result is identical either way).
    ///
    /// # Panics
    ///
    /// Panics on level mismatch or if either operand is in coefficient
    /// form.
    pub fn mul_pointwise(&mut self, other: &RnsPoly, ring: &RnsRing) {
        use crate::backend::{BackendOp, LimbBatch, NttBackend};
        assert_eq!(self.level, other.level, "level mismatch");
        assert_eq!(self.repr, Representation::Evaluation, "lhs not in NTT form");
        assert_eq!(
            other.repr,
            Representation::Evaluation,
            "rhs not in NTT form"
        );
        other.assert_host_fresh();
        self.ensure_host();
        self.mark_host_edit();
        let plan = ring.plan();
        let op = BackendOp::PointwiseBatch {
            acc: LimbBatch::new(&mut self.data, self.n, self.level),
            rhs: &other.data,
        };
        crate::backend::with_default_backend(|be| be.run(&plan, op));
    }

    /// A copy restricted to the first `level` primes (valid in either
    /// representation: rows are per-prime and independent).
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or exceeds the current level.
    pub fn truncated(&self, level: usize) -> RnsPoly {
        assert!(
            level >= 1 && level <= self.level,
            "invalid truncation level"
        );
        self.assert_host_fresh();
        RnsPoly {
            n: self.n,
            level,
            repr: self.repr,
            data: self.data[..level * self.n].to_vec(),
            mirror: None,
        }
    }

    /// Multiply row `i` by its own scalar residue `residues[i]` — used for
    /// multiplying by a big-integer constant given in RNS form.
    ///
    /// # Panics
    ///
    /// Panics if fewer residues than active levels are supplied.
    pub fn mul_scalar_residues(&mut self, residues: &[u64], ring: &RnsRing) {
        assert!(
            residues.len() >= self.level,
            "residue per active prime required"
        );
        for (i, &r) in residues.iter().enumerate().take(self.level) {
            let p = ring.basis().primes()[i];
            let s = r % p;
            for v in self.row_mut(i) {
                *v = ntt_math::mul_mod(*v, s, p);
            }
        }
    }

    /// Multiply every residue by a scalar (given as ordinary `u64`,
    /// reduced per prime).
    pub fn mul_scalar(&mut self, s: u64, ring: &RnsRing) {
        for i in 0..self.level {
            let p = ring.basis().primes()[i];
            let sp = s % p;
            for v in self.row_mut(i) {
                *v = ntt_math::mul_mod(*v, sp, p);
            }
        }
    }

    /// Drop the last active prime *without* rescaling (modulus switch
    /// bookkeeping for key-switching internals).
    ///
    /// # Panics
    ///
    /// Panics if only one level remains.
    pub fn drop_last_level(&mut self) {
        assert!(self.level > 1, "cannot drop the last remaining prime");
        self.ensure_host();
        self.mark_host_edit();
        self.level -= 1;
        self.data.truncate(self.level * self.n);
    }

    /// CKKS-style exact rescale: divide by the last active prime
    /// `p_L` — `c_i ← (c_i − c_L) · p_L^{-1} mod p_i` — and drop a level.
    /// Requires coefficient representation.
    ///
    /// # Panics
    ///
    /// Panics if in evaluation form or only one level remains.
    pub fn rescale(&mut self, ring: &RnsRing) {
        assert_eq!(
            self.repr,
            Representation::Coefficient,
            "rescale requires coefficient form"
        );
        assert!(self.level > 1, "cannot rescale past the last prime");
        self.ensure_host();
        self.mark_host_edit();
        rescale_rows(ring.basis().primes(), self.n, self.level, &mut self.data);
        self.level -= 1;
        self.data.truncate(self.level * self.n);
    }

    /// CRT-reconstruct coefficient `idx` across active primes, centered.
    ///
    /// Only meaningful in coefficient form; `None` if it overflows `i128`.
    ///
    /// # Panics
    ///
    /// Panics if in evaluation form or `idx >= N`.
    pub fn coefficient_centered(&self, ring: &RnsRing, idx: usize) -> Option<i128> {
        assert_eq!(
            self.repr,
            Representation::Coefficient,
            "reconstruction requires coefficient form"
        );
        assert!(idx < self.n, "coefficient index out of range");
        let residues: Vec<u64> = (0..self.level).map(|i| self.row(i)[idx]).collect();
        let basis = RnsBasis::new(ring.basis().primes()[..self.level].to_vec())
            .expect("prefix of a valid basis is valid");
        basis.reconstruct_centered(&residues)
    }
}

/// The CKKS rescale step on a raw `level × n` coefficient buffer: rows
/// `0..level-1` become `(row_i − row_last)·p_last^{-1} mod p_i`; the last
/// row is left untouched (callers drop it from the logical view). This is
/// the single reference implementation shared by [`RnsPoly::rescale`] and
/// every backend's device-side rescale, so the step cannot diverge across
/// substrates.
pub(crate) fn rescale_rows(primes: &[u64], n: usize, level: usize, data: &mut [u64]) {
    assert!(level > 1, "cannot rescale past the last prime");
    let last = level - 1;
    let p_last = primes[last];
    let (head, last_row) = data.split_at_mut(last * n);
    for (i, row) in head.chunks_exact_mut(n).enumerate() {
        let p = primes[i];
        let inv = ntt_math::inv_mod(p_last % p, p).expect("distinct primes are coprime");
        for (x, &lr) in row.iter_mut().zip(last_row.iter()) {
            let diff = sub_mod(*x, lr % p, p);
            *x = ntt_math::mul_mod(diff, inv, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::negacyclic_convolution;

    #[test]
    fn single_prime_multiply_matches_naive() {
        let ring = NegacyclicRing::new_with_bits(32, 60).unwrap();
        let p = ring.modulus();
        let a = Polynomial::from_coeffs((1..=32).collect(), 32);
        let b = Polynomial::from_coeffs((0..32).map(|i| i * i + 1).collect(), 32);
        let c = ring.multiply(&a, &b);
        assert_eq!(
            c.coeffs(),
            &negacyclic_convolution(a.coeffs(), b.coeffs(), p)[..]
        );
    }

    #[test]
    fn add_sub_are_inverses() {
        let ring = NegacyclicRing::new_with_bits(16, 59).unwrap();
        let a = Polynomial::from_coeffs(vec![5, 4, 3], 16);
        let b = Polynomial::from_coeffs(vec![1, 2, 3, 4], 16);
        let s = ring.add(&a, &b);
        assert_eq!(ring.sub(&s, &b), a);
    }

    fn small_ring() -> RnsRing {
        RnsRing::new(16, ntt_math::ntt_primes(59, 32, 3)).unwrap()
    }

    #[test]
    fn rns_multiply_matches_integer_convolution() {
        let ring = small_ring();
        let a = RnsPoly::from_i64_coeffs(&ring, &[3, -1, 4, 1, -5]);
        let b = RnsPoly::from_i64_coeffs(&ring, &[-2, 7, 1]);
        let c = ring.multiply(&a, &b);
        // Check a few coefficients against exact integer negacyclic conv.
        // (3 - x + 4x^2 + x^3 - 5x^4)(-2 + 7x + x^2):
        // coeff 0: 3*-2 = -6
        // coeff 1: 3*7 + (-1)(-2) = 23
        // coeff 2: 3*1 + (-1)*7 + 4*(-2) = -12
        assert_eq!(c.coefficient_centered(&ring, 0), Some(-6));
        assert_eq!(c.coefficient_centered(&ring, 1), Some(23));
        assert_eq!(c.coefficient_centered(&ring, 2), Some(-12));
    }

    #[test]
    fn rns_negacyclic_wraparound() {
        let ring = small_ring();
        // x^15 * x = -x^0? x^15 * x^1 = x^16 = -1.
        let a = RnsPoly::from_i64_coeffs(&ring, &{
            let mut v = vec![0i64; 16];
            v[15] = 1;
            v
        });
        let b = RnsPoly::from_i64_coeffs(&ring, &[0, 1]);
        let c = ring.multiply(&a, &b);
        assert_eq!(c.coefficient_centered(&ring, 0), Some(-1));
    }

    #[test]
    fn evaluation_roundtrip_preserves_value() {
        let ring = small_ring();
        let a = RnsPoly::from_i64_coeffs(&ring, &[1, -2, 3, -4]);
        let mut b = a.clone();
        b.to_evaluation(&ring);
        assert_eq!(b.repr(), Representation::Evaluation);
        b.to_coefficient(&ring);
        assert_eq!(a, b);
    }

    #[test]
    fn add_assign_homomorphic_in_both_domains() {
        let ring = small_ring();
        let a = RnsPoly::from_i64_coeffs(&ring, &[10, 20]);
        let b = RnsPoly::from_i64_coeffs(&ring, &[-4, 6]);
        // Coefficient domain.
        let mut s1 = a.clone();
        s1.add_assign(&b, &ring);
        assert_eq!(s1.coefficient_centered(&ring, 0), Some(6));
        // Evaluation domain.
        let (mut ea, mut eb) = (a, b);
        ea.to_evaluation(&ring);
        eb.to_evaluation(&ring);
        ea.add_assign(&eb, &ring);
        ea.to_coefficient(&ring);
        assert_eq!(ea.coefficient_centered(&ring, 1), Some(26));
    }

    #[test]
    fn rescale_divides_by_last_prime() {
        let ring = small_ring();
        let p_last = ring.basis().primes()[2];
        // Encode p_last * 7 so rescale yields exactly 7.
        let mut x = RnsPoly::zero(&ring);
        for (row, &p) in ring.basis().primes().iter().enumerate() {
            x.row_mut(row)[0] = ntt_math::mul_mod(p_last % p, 7, p);
        }
        x.rescale(&ring);
        assert_eq!(x.level(), 2);
        assert_eq!(x.coefficient_centered(&ring, 0), Some(7));
    }

    #[test]
    fn rescale_rounds_inexact_values() {
        let ring = small_ring();
        let p_last = ring.basis().primes()[2] as i128;
        // Value v = p_last * 9 + r for small r: rescale gives 9 + (r - c)/p
        // exactly in RNS — i.e. some integer near 9. For exactness checks we
        // use v = p_last*9 + p_last/2 rounded... here just assert closeness.
        let v = p_last * 9 + 3;
        let mut x = RnsPoly::zero(&ring);
        for (row, &p) in ring.basis().primes().iter().enumerate() {
            let vp = (v % p as i128) as u64;
            x.row_mut(row)[0] = vp;
        }
        x.rescale(&ring);
        // (v - (v mod p_last)) / p_last = 9 exactly.
        assert_eq!(x.coefficient_centered(&ring, 0), Some(9));
    }

    #[test]
    fn scalar_multiplication() {
        let ring = small_ring();
        let mut a = RnsPoly::from_i64_coeffs(&ring, &[5, -3]);
        a.mul_scalar(11, &ring);
        assert_eq!(a.coefficient_centered(&ring, 0), Some(55));
        assert_eq!(a.coefficient_centered(&ring, 1), Some(-33));
    }

    #[test]
    #[should_panic(expected = "level mismatch")]
    fn mismatched_levels_rejected() {
        let ring = small_ring();
        let a = RnsPoly::zero(&ring);
        let mut b = RnsPoly::zero(&ring);
        b.drop_last_level();
        let mut a2 = a;
        a2.add_assign(&b, &ring);
    }

    #[test]
    #[should_panic(expected = "not in NTT form")]
    fn pointwise_requires_evaluation_form() {
        let ring = small_ring();
        let mut a = RnsPoly::zero(&ring);
        let b = RnsPoly::zero(&ring);
        a.mul_pointwise(&b, &ring);
    }
}
