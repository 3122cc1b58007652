//! Hierarchical (4-step) Cooley–Tukey NTT for bootstrapping-scale rings.
//!
//! The monolithic CT loop in [`crate::ct`] walks the whole array once per
//! stage; at bootstrapping-class sizes (N = 2^15 … 2^17) every pass misses
//! cache and, on the simulated GPU, no single SMEM-resident kernel fits the
//! ring. This module decomposes an N-point negacyclic NTT into an
//! `N = N1 × N2` hierarchy of *contiguous, cache-sized* sub-transforms with
//! a twiddle correction in between — the classic 4-step / Bailey
//! factorization, specialized to the negacyclic (ψ-twisted) transform:
//!
//! ```text
//! 1. transpose  N1×N2 → N2×N1            (blocked tiles)
//! 2. N2 column NTTs of size N1           (compact table, root ψ^(N/N1))
//! 3. transpose back                      (blocked tiles)
//! 4. twist row u, element s by δ_u^s,    δ_u = ψ^(2·bitrev(u, log N1)+1−N1)
//! 5. N1 row NTTs of size N2              (compact table, root ψ^(N/N2))
//! ```
//!
//! Correctness falls out of the `tw_base` block algebra in [`crate::radix`]:
//! steps 1–3 are exactly `radix_pass(a, T, 1, N1)` and steps 4–5 equal the
//! per-row `block_ntt(row, T, N1 + u)`, with the global twiddles
//! `Ψ[m·(N1+u) + i]` rewritten as (compact sub-table of root ψ^(N/N2)) ×
//! (geometric twist δ_u^s). The output is therefore **bit-identical** to
//! [`crate::ct::ntt`] — same map, exact arithmetic — and the inverse simply
//! runs the five steps backwards (the sub-tables' own `N⁻¹` stages compose
//! to the full `N⁻¹`, so no extra scaling pass exists).
//!
//! Following the goldilocks `cooley_tukey.rs` exemplar, the two inner
//! transforms are *strategy objects* (`InnerNtt`): small sizes run the
//! existing radix-2 kernel directly, larger ones recurse into a nested
//! [`HierPlan`]; the inter-block twist is precomputed for small rings and
//! generated on the fly (one `pow_mod` + a running product per row) for
//! large ones, where a full δ-table would rival the data itself.
//!
//! [`crate::poly::NegacyclicRing`] builds a plan lazily for rings with
//! `N ≥ `[`HIER_MIN_N`] and the engine ([`crate::engine`]) dispatches every
//! forward/inverse row through it, so `RingPlan`-driven backends use the
//! hierarchy transparently, at the balanced split. [`HierConfig::split`]
//! sets another split explicitly.

use std::cell::RefCell;

use crate::bitrev::bit_reverse;
use crate::ct;
use crate::table::NttTable;
use ntt_math::shoup::MAX_LAZY_MODULUS;
use ntt_math::{mul_mod, pow_mod, ShoupMul};

/// Smallest ring degree for which [`HierPlan::auto`] builds a plan. Below
/// this the flat lazy CT kernel still wins (it fits L2 and pays no
/// transpose traffic), matching the paper's observation that the two-kernel
/// split only strains above 2^14.
pub const HIER_MIN_N: usize = 1 << 15;

/// Default ceiling for precomputing the inter-block twist table (both
/// directions, `N` Shoup pairs each). Mirrors the goldilocks exemplar's
/// `1 << 15` threshold: above it the δ-table would rival the data array
/// itself, so rows switch to on-the-fly generation.
pub const PRECOMP_MAX_N: usize = 1 << 15;

/// Default ceiling for running an inner transform directly on the radix-2
/// kernel instead of recursing into a nested plan. Every auto-chosen split
/// of N ≤ 2^17 stays below this, so recursion is an opt-in
/// ([`HierConfig::direct_max`]) — exercised by tests and available for
/// experiments at 2^18+.
pub const DIRECT_MAX_N: usize = 1 << 12;

/// Transpose tile edge: 32×32 u64 tiles (8 KiB source + 8 KiB destination)
/// sit comfortably in L1 while amortizing the strided side of the copy.
const TILE: usize = 32;

/// Tuning knobs for [`HierPlan`] construction (builder-style).
#[derive(Debug, Clone)]
pub struct HierConfig {
    /// Forced `(N1, N2)` split; `None` is the balanced split
    /// `N1 = 2^(log N / 2)`.
    pub split: Option<(usize, usize)>,
    /// Inner sizes at or below this run the flat kernel; larger ones
    /// recurse.
    pub direct_max: usize,
    /// Plans of size ≤ this precompute the twist table; larger ones
    /// generate rows on the fly.
    pub precompute_max_n: usize,
}

impl Default for HierConfig {
    fn default() -> Self {
        Self {
            split: None,
            direct_max: DIRECT_MAX_N,
            precompute_max_n: PRECOMP_MAX_N,
        }
    }
}

impl HierConfig {
    /// Force the top-level split to `N1 × N2`.
    #[must_use]
    pub fn split(mut self, n1: usize, n2: usize) -> Self {
        self.split = Some((n1, n2));
        self
    }

    /// Set the direct-vs-recurse ceiling for inner transforms.
    #[must_use]
    pub fn direct_max(mut self, max: usize) -> Self {
        self.direct_max = max;
        self
    }

    /// Set the precomputed-twist ceiling.
    #[must_use]
    pub fn precompute_max_n(mut self, max: usize) -> Self {
        self.precompute_max_n = max;
        self
    }
}

/// Pick the `(N1, N2)` factorization for an `n`-point plan: the forced
/// config split, else the balanced `N1 = 2^(log n / 2)`.
fn choose_split(n: usize, cfg: &HierConfig) -> (usize, usize) {
    if let Some((a, b)) = cfg.split {
        assert_eq!(a * b, n, "configured split {a}x{b} does not factor {n}");
        assert!(a >= 2 && b >= 2, "split factors must be >= 2");
        return (a, b);
    }
    let n1 = 1usize << (n.trailing_zeros() / 2);
    (n1, n / n1)
}

/// Inner-transform strategy: run the flat radix-2 kernel on a compact
/// sub-table, or recurse into a nested hierarchical plan (the goldilocks
/// `cooley_tukey.rs` idiom).
#[derive(Debug, Clone)]
enum InnerNtt {
    Direct(NttTable),
    Recurse(Box<HierPlan>),
}

impl InnerNtt {
    fn build(r: usize, p: u64, psi_r: u64, cfg: &HierConfig) -> Self {
        if r <= cfg.direct_max || r < 4 {
            InnerNtt::Direct(NttTable::with_root(r, p, psi_r))
        } else {
            // A forced top-level split does not factor the inner size;
            // nested levels take the balanced split.
            let sub_cfg = HierConfig {
                split: None,
                ..cfg.clone()
            };
            InnerNtt::Recurse(Box::new(HierPlan::with_root(r, p, psi_r, &sub_cfg)))
        }
    }

    fn forward(&self, row: &mut [u64]) {
        match self {
            InnerNtt::Direct(t) => {
                if t.modulus() < MAX_LAZY_MODULUS {
                    ct::ntt_lazy(row, t);
                    ct::reduce_from_lazy(row, t.modulus());
                } else {
                    ct::ntt(row, t);
                }
            }
            InnerNtt::Recurse(plan) => plan.forward(row),
        }
    }

    fn inverse(&self, row: &mut [u64]) {
        match self {
            InnerNtt::Direct(t) => {
                if t.modulus() < MAX_LAZY_MODULUS {
                    ct::intt_lazy(row, t); // final N⁻¹ stage reduces fully
                } else {
                    ct::intt(row, t);
                }
            }
            InnerNtt::Recurse(plan) => plan.inverse(row),
        }
    }

    fn depth(&self) -> usize {
        match self {
            InnerNtt::Direct(_) => 0,
            InnerNtt::Recurse(plan) => plan.depth(),
        }
    }
}

/// Inter-block twist strategy (step 4): row `u` scales element `s` by
/// `δ_u^s`. Small plans precompute both directions as Shoup pairs; large
/// plans generate each row with one `pow_mod` and a running product.
#[derive(Debug, Clone)]
enum Twist {
    OnTheFly,
    Precomputed {
        fwd: Vec<ShoupMul>,
        inv: Vec<ShoupMul>,
    },
}

/// A hierarchical 4-step NTT plan for one `(N, p, ψ)` ring.
///
/// Construction is `O(N)` (sub-tables + optional twist table); the plan is
/// immutable and shareable across threads, with per-thread transpose
/// scratch drawn from a thread-local pool.
///
/// # Examples
///
/// Bit-exact against the flat kernel, at any forced split:
///
/// ```
/// use ntt_core::hier::{HierConfig, HierPlan};
/// use ntt_core::NttTable;
///
/// let table = NttTable::new_with_bits(1 << 12, 60).unwrap();
/// let plan = HierPlan::from_table(&table, &HierConfig::default().split(64, 64));
/// let mut x: Vec<u64> = (0..1u64 << 12).collect();
/// let mut reference = x.clone();
/// plan.forward(&mut x);
/// ntt_core::ntt(&mut reference, &table);
/// assert_eq!(x, reference);
/// plan.inverse(&mut x);
/// assert_eq!(x, (0..1u64 << 12).collect::<Vec<_>>());
/// ```
///
/// Recursion kicks in when an inner size exceeds
/// [`HierConfig::direct_max`]:
///
/// ```
/// use ntt_core::hier::{HierConfig, HierPlan};
/// use ntt_core::NttTable;
///
/// let table = NttTable::new_with_bits(1 << 12, 60).unwrap();
/// let cfg = HierConfig::default().split(64, 64).direct_max(16);
/// let plan = HierPlan::from_table(&table, &cfg);
/// assert_eq!(plan.depth(), 2); // 4096 → 64×64 → 8×8
/// ```
#[derive(Debug, Clone)]
pub struct HierPlan {
    n: usize,
    n1: usize,
    n2: usize,
    p: u64,
    psi: u64,
    /// Forward twist exponents `e_u` of `δ_u = ψ^(e_u)`, reduced mod 2N.
    exps: Vec<u64>,
    inner1: InnerNtt,
    inner2: InnerNtt,
    twist: Twist,
}

impl HierPlan {
    /// Plan for a ring table, if the ring is large enough to profit:
    /// `None` below [`HIER_MIN_N`]. This is the entry the engine uses.
    pub fn auto(table: &NttTable) -> Option<Self> {
        (table.n() >= HIER_MIN_N).then(|| Self::from_table(table, &HierConfig::default()))
    }

    /// Plan for an existing ring table with explicit tuning.
    ///
    /// # Panics
    ///
    /// Panics if the (configured) split does not factor `N` into powers of
    /// two ≥ 2.
    pub fn from_table(table: &NttTable, cfg: &HierConfig) -> Self {
        Self::with_root(table.n(), table.modulus(), table.psi(), cfg)
    }

    /// Plan from raw `(N, p, ψ)` parameters (ψ a primitive 2N-th root of
    /// unity mod p). Used for recursion: a sub-plan of size `r` receives
    /// `ψ^(N/r)`.
    pub fn with_root(n: usize, p: u64, psi: u64, cfg: &HierConfig) -> Self {
        assert!(
            n.is_power_of_two() && n >= 4,
            "plan size must be a power of two >= 4"
        );
        let (n1, n2) = choose_split(n, cfg);
        let two_n = 2 * n as u64;
        let log_n1 = n1.trailing_zeros();
        // δ_u = ψ^(2·bitrev(u, log N1) + 1 − N1): the per-row residue of the
        // global twiddle base `tw_base = N1 + u` after the compact sub-table
        // absorbs the ψ^(N/N2)-powered part.
        let exps: Vec<u64> = (0..n1)
            .map(|u| {
                let br = 2 * bit_reverse(u, log_n1) as u64 + 1;
                (br + two_n - n1 as u64) % two_n
            })
            .collect();
        let twist = if n <= cfg.precompute_max_n {
            let mut fwd = Vec::with_capacity(n);
            let mut inv = Vec::with_capacity(n);
            for &e in &exps {
                let q = pow_mod(psi, e, p);
                let qi = pow_mod(psi, (two_n - e) % two_n, p);
                let (mut w, mut wi) = (1u64, 1u64);
                for _ in 0..n2 {
                    fwd.push(ShoupMul::new(w, p));
                    inv.push(ShoupMul::new(wi, p));
                    w = mul_mod(w, q, p);
                    wi = mul_mod(wi, qi, p);
                }
            }
            Twist::Precomputed { fwd, inv }
        } else {
            Twist::OnTheFly
        };
        Self {
            n,
            n1,
            n2,
            p,
            psi,
            exps,
            inner1: InnerNtt::build(n1, p, pow_mod(psi, (n / n1) as u64, p), cfg),
            inner2: InnerNtt::build(n2, p, pow_mod(psi, (n / n2) as u64, p), cfg),
            twist,
        }
    }

    /// Transform size `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The `(N1, N2)` split in force.
    #[inline]
    pub fn split(&self) -> (usize, usize) {
        (self.n1, self.n2)
    }

    /// Recursion depth: 1 for a flat 4-step plan, +1 per nested level.
    pub fn depth(&self) -> usize {
        1 + self.inner1.depth().max(self.inner2.depth())
    }

    /// Whether the inter-block twist is precomputed (vs on-the-fly).
    pub fn precomputed_twist(&self) -> bool {
        matches!(self.twist, Twist::Precomputed { .. })
    }

    /// Forward negacyclic NTT in place — natural order in, bit-reversed
    /// evaluation order out, **bit-identical** to [`crate::ct::ntt`] on the
    /// same ring. Canonical (`< p`) in and out.
    pub fn forward(&self, x: &mut [u64]) {
        assert_eq!(x.len(), self.n, "input length must equal plan N");
        let (n1, n2) = (self.n1, self.n2);
        with_scratch(self.n, |s| {
            // Steps 1–3: N2 column transforms via two blocked transposes, so
            // each inner NTT runs on a contiguous row.
            transpose_blocked(x, s, n1, n2);
            for col in s.chunks_exact_mut(n1) {
                self.inner1.forward(col);
            }
            transpose_blocked(s, x, n2, n1);
        });
        // Steps 4–5: twist then transform each row while it is cache-hot.
        for (u, row) in x.chunks_exact_mut(n2).enumerate() {
            self.twist_row(u, row, true);
            self.inner2.forward(row);
        }
    }

    /// Inverse of [`HierPlan::forward`] — the five steps exactly reversed;
    /// the sub-tables' `N1⁻¹ · N2⁻¹` folds compose to the full `N⁻¹`.
    /// Canonical in and out, bit-identical to [`crate::ct::intt`].
    pub fn inverse(&self, x: &mut [u64]) {
        assert_eq!(x.len(), self.n, "input length must equal plan N");
        let (n1, n2) = (self.n1, self.n2);
        for (u, row) in x.chunks_exact_mut(n2).enumerate() {
            self.inner2.inverse(row);
            self.twist_row(u, row, false);
        }
        with_scratch(self.n, |s| {
            transpose_blocked(x, s, n1, n2);
            for col in s.chunks_exact_mut(n1) {
                self.inner1.inverse(col);
            }
            transpose_blocked(s, x, n2, n1);
        });
    }

    /// Apply the inter-block twist to row `u` (element `s` scaled by
    /// `δ_u^(±s)`). Element 0 is always unscaled (`δ_u^0 = 1`).
    fn twist_row(&self, u: usize, row: &mut [u64], forward: bool) {
        let p = self.p;
        match &self.twist {
            Twist::Precomputed { fwd, inv } => {
                let tw = if forward { fwd } else { inv };
                let base = u * self.n2;
                for (s, v) in row.iter_mut().enumerate().skip(1) {
                    *v = tw[base + s].mul(*v);
                }
            }
            Twist::OnTheFly => {
                let two_n = 2 * self.n as u64;
                let e = if forward {
                    self.exps[u]
                } else {
                    (two_n - self.exps[u]) % two_n
                };
                let q = pow_mod(self.psi, e, p);
                let mut w = q;
                for v in row.iter_mut().skip(1) {
                    *v = mul_mod(*v, w, p);
                    w = mul_mod(w, q, p);
                }
            }
        }
    }
}

thread_local! {
    /// Pool of transpose scratch buffers, one per live recursion level.
    /// Pop-or-create / push-back keeps the `RefCell` borrow confined to the
    /// pool operations themselves, so nested plans re-enter safely.
    static SCRATCH_POOL: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a `words`-sized scratch slice from the thread-local pool
/// (grow-only; steady state allocates nothing).
fn with_scratch<R>(words: usize, f: impl FnOnce(&mut [u64]) -> R) -> R {
    let mut buf = SCRATCH_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default();
    if buf.len() < words {
        buf.resize(words, 0);
    }
    let r = f(&mut buf[..words]);
    SCRATCH_POOL.with(|p| p.borrow_mut().push(buf));
    r
}

/// Blocked matrix transpose: `dst[c·rows + r] = src[r·cols + c]` in
/// [`TILE`]²-element tiles, so both the gather and the scatter side stay
/// within a few cache lines per tile.
fn transpose_blocked(src: &[u64], dst: &mut [u64], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for r0 in (0..rows).step_by(TILE) {
        let r1 = (r0 + TILE).min(rows);
        for c0 in (0..cols).step_by(TILE) {
            let c1 = (c0 + TILE).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize) -> NttTable {
        NttTable::new_with_bits(n, 60).unwrap()
    }

    fn sample(n: usize, p: u64) -> Vec<u64> {
        (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % p)
            .collect()
    }

    #[test]
    fn four_step_matches_ct_all_splits() {
        let n = 1 << 12;
        let t = table(n);
        let a = sample(n, t.modulus());
        let mut reference = a.clone();
        ct::ntt(&mut reference, &t);
        for log_n1 in 1..12 {
            let n1 = 1 << log_n1;
            let plan = HierPlan::from_table(&t, &HierConfig::default().split(n1, n / n1));
            let mut x = a.clone();
            plan.forward(&mut x);
            assert_eq!(x, reference, "split {n1}x{}", n / n1);
            plan.inverse(&mut x);
            assert_eq!(x, a, "roundtrip {n1}x{}", n / n1);
        }
    }

    #[test]
    fn on_the_fly_matches_precomputed() {
        let n = 1 << 10;
        let t = table(n);
        let a = sample(n, t.modulus());
        let pre = HierPlan::from_table(&t, &HierConfig::default().split(32, 32));
        let otf =
            HierPlan::from_table(&t, &HierConfig::default().split(32, 32).precompute_max_n(0));
        assert!(pre.precomputed_twist() && !otf.precomputed_twist());
        let (mut x, mut y) = (a.clone(), a.clone());
        pre.forward(&mut x);
        otf.forward(&mut y);
        assert_eq!(x, y);
        pre.inverse(&mut x);
        otf.inverse(&mut y);
        assert_eq!(x, a);
        assert_eq!(y, a);
    }

    #[test]
    fn recursion_matches_flat_plan() {
        let n = 1 << 12;
        let t = table(n);
        let a = sample(n, t.modulus());
        let mut reference = a.clone();
        ct::ntt(&mut reference, &t);
        // 4096 → 64×64, inners 64 → 8×8: two nested levels.
        let cfg = HierConfig::default().split(64, 64).direct_max(16);
        let plan = HierPlan::from_table(&t, &cfg);
        assert_eq!(plan.depth(), 2);
        let mut x = a.clone();
        plan.forward(&mut x);
        assert_eq!(x, reference);
        plan.inverse(&mut x);
        assert_eq!(x, a);
    }

    #[test]
    fn unbalanced_env_style_splits_work() {
        let n = 1 << 11; // odd log: balanced split is 32x64
        let t = table(n);
        let plan = HierPlan::from_table(&t, &HierConfig::default());
        assert_eq!(plan.split(), (32, 64));
        let a = sample(n, t.modulus());
        let mut reference = a.clone();
        ct::ntt(&mut reference, &t);
        let mut x = a;
        plan.forward(&mut x);
        assert_eq!(x, reference);
    }

    #[test]
    fn auto_respects_threshold() {
        assert!(HierPlan::auto(&table(1 << 12)).is_none());
        let plan = HierPlan::auto(&table(HIER_MIN_N)).expect("2^15 builds a plan");
        assert_eq!(plan.split(), (128, 256));
        // 2^15 is at the precompute ceiling; its twist table is resident.
        assert!(plan.precomputed_twist());
    }

    #[test]
    fn large_plan_is_bit_exact_and_on_the_fly() {
        let n = 1 << 16;
        let t = table(n);
        let plan = HierPlan::auto(&t).expect("2^16 builds a plan");
        assert_eq!(plan.split(), (256, 256));
        assert!(!plan.precomputed_twist(), "2^16 twists on the fly");
        let a = sample(n, t.modulus());
        let mut reference = a.clone();
        ct::ntt(&mut reference, &t);
        let mut x = a.clone();
        plan.forward(&mut x);
        assert_eq!(x, reference);
        plan.inverse(&mut x);
        assert_eq!(x, a);
    }
}
