//! `he-boot`: the title workload — CKKS-style bootstrapping over
//! `he-lite`, composed entirely from the scheme's public surface.
//!
//! A ciphertext that has spent all its levels is *re-encrypted under
//! homomorphic evaluation* in four macro-ops (HEAAN-style; see PAPERS.md
//! "HEAAN Demystified" / "BTS" for the architecture-level breakdown this
//! reproduces):
//!
//! ```text
//!           ┌───────────┐   ┌──────────────┐   ┌─────────┐   ┌──────────────┐
//!  ct (L=1) │  ModRaise │ → │  CoeffToSlot │ → │ EvalMod │ → │  SlotToCoeff │ → ct (L≥1, fresh)
//!           └───────────┘   │ hom. DFT via │   │ sine ≈  │   │ inverse DFT  │
//!                           │ rotations +  │   │ mod q₀  │   │ (rotations)  │
//!                           │ diag mults   │   └─────────┘   └──────────────┘
//! ```
//!
//! * **ModRaise** re-embeds the level-1 ciphertext into the full RNS
//!   basis; the plaintext underneath becomes `Δ·m + q₀·I` for a small
//!   *integer* polynomial `I`.
//! * **CoeffToSlot** applies the inverse canonical embedding `σ⁻¹`
//!   homomorphically — a baby-step/giant-step (BSGS) matrix–vector
//!   product built from slot rotations (Galois automorphisms + key
//!   switches) and diagonal plaintext multiplications — so that each
//!   *coefficient* `Δ·m_t + q₀·I_t` lands in a *slot*, where ring
//!   multiplication acts on it independently.
//! * **EvalMod** evaluates `(q₀/2π)·sin(2π·y/q₀)` by a Taylor core plus
//!   `r` double-angle iterations. Since `I_t` is an integer, the sine
//!   kills the `q₀·I` term exactly and returns `≈ Δ·m_t`.
//! * **SlotToCoeff** applies `σ` to move the cleaned values back into
//!   coefficients.
//!
//! The op mix is exactly the paper's: rotations are key switches (one
//! batched launch group of gadget digit NTTs, then one multi-term FMA
//! launch per accumulator) and every stage is NTT-dominated, which is
//! what `figures bootstrap` measures and `bench_smoke.sh` gates. The
//! memory-bound multiply-accumulate chains around them run the same way,
//! one multi-term FMA launch per accumulator instead of one launch per
//! product and one per add: a relinearizing multiply's tensor terms and
//! a rotation's `c0` add join the key switch's two FMAs, and a giant
//! step's plaintext-product sum ([`HeContext::multiply_plain_sum`]) is an
//! FMA pair of its own.
//!
//! **Scale discipline.** Every ciphertext×ciphertext product drifts the
//! scale off the working point `T` (the squaring recursion
//! `e' = 2e − log₂ q` diverges), so the pipeline re-pins scales with
//! *exact plain multiplications*: multiply by `v` encoded at
//! `out_scale·q/scale` and rescale — landing precisely on `out_scale`.
//! The level/scale schedule is static (independent of ciphertext data),
//! so every bootstrap runs the identical op sequence — the property that
//! makes Cpu≡Sim bit-exactness and the device-residency gate testable.
//!
//! All rotation keys and DFT diagonal plaintexts are generated once at
//! [`Bootstrapper::new`] and cached device-resident: repeated
//! [`Bootstrapper::bootstrap`] calls perform **zero** steady-state
//! host↔device transfers (gated in `tests/residency.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod embedding;

use embedding::{Complex, SlotEmbedding};
use he_lite::{Ciphertext, HeContext, KeySet, Plaintext, RelinKeys, RotationKeys};
use ntt_core::backend::BackendError;
use rand::{Rng, RngExt};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Bootstrapping pipeline parameters. The level/scale schedule they
/// induce is static; [`BootParams::min_levels`] is the exact depth the
/// scheme parameters must provide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootParams {
    /// Taylor terms in `t = x²` for the sine core: `sin x = x·P(t)` with
    /// `P` of degree `sin_terms − 1` (so `sin_terms = 4` is a degree-7
    /// sine). Must be ≥ 2.
    pub sin_terms: usize,
    /// Double-angle iterations `r`: the Taylor core runs at argument
    /// `x/2ʳ` and `r` doublings recover `sin x`, trading levels for a
    /// smaller (more accurate) Taylor argument.
    pub double_angle: usize,
    /// `log₂` of the mod-raise headroom `K ≈ q₀/Δ_in`: the input
    /// ciphertext scale is `2^(prime_bits − k_bits)`. Larger `k_bits`
    /// means more EvalMod precision but a tighter bound on message
    /// magnitude (`|m| ≪ K/2π`).
    pub k_bits: u32,
}

impl BootParams {
    /// Accuracy-first parameters: degree-7 sine, 6 doublings — the
    /// configuration the CPU correctness test decrypts through.
    pub fn deep() -> Self {
        BootParams {
            sin_terms: 4,
            double_angle: 6,
            k_bits: 6,
        }
    }

    /// Depth-minimal parameters: degree-3 sine, 1 doubling. Numerically
    /// too coarse to decrypt accurately, but runs the identical code
    /// path — the configuration for bit-exactness, chaos, residency and
    /// serving tests where only the op sequence matters.
    pub fn shallow() -> Self {
        BootParams {
            sin_terms: 2,
            double_angle: 1,
            k_bits: 6,
        }
    }

    /// Exact scheme depth the schedule consumes: 1 (CoeffToSlot) +
    /// `sin_terms + 2` (Taylor core) + 1 (re-pin) + `2·double_angle`
    /// (doublings) + 1 (SlotToCoeff), ending at level 1.
    pub fn min_levels(&self) -> usize {
        assert!(self.sin_terms >= 2, "need at least a degree-3 sine");
        self.sin_terms + 5 + 2 * self.double_angle
    }

    /// Convenience scheme parameters providing exactly
    /// [`BootParams::min_levels`] depth at the working scale
    /// `2^(prime_bits − 1)`.
    pub fn he_params(&self, log_n: u32, prime_bits: u32) -> he_lite::HeLiteParams {
        he_lite::HeLiteParams {
            log_n,
            prime_bits,
            levels: self.min_levels(),
            scale_bits: prime_bits - 1,
            gadget_bits: 15,
            error_eta: 2,
        }
    }
}

/// Diagonal plaintexts for one BSGS matrix: `diags[i][j0]` multiplies the
/// `j0`-th baby-step rotation inside the `i`-th giant step (`None` where
/// the diagonal index `i·g1 + j0` falls outside the matrix).
type Diags = Vec<Vec<Option<Plaintext>>>;

/// The bootstrapping engine: rotation keys, cached DFT diagonals, and
/// the EvalMod constant cache, all generated once and device-resident.
pub struct Bootstrapper {
    ctx: Arc<HeContext>,
    params: BootParams,
    emb: SlotEmbedding,
    relin: RelinKeys,
    rot: RotationKeys,
    /// BSGS split of the `N/2 × N/2` slot matrices.
    g1: usize,
    g2: usize,
    /// CoeffToSlot diagonals: `F`/`F̄` produce the first-half
    /// coefficients, `G`/`Ḡ` the second half (the conjugate pair handles
    /// the real-part extraction).
    cts_f: Diags,
    cts_fc: Diags,
    cts_g: Diags,
    cts_gc: Diags,
    /// SlotToCoeff diagonals (`C` on the first-half ciphertext, `D` on
    /// the second).
    stc_c: Diags,
    stc_d: Diags,
    /// EvalMod constants keyed by `(value, scale, level)` bit patterns —
    /// populated on the first bootstrap, hit (no upload) from then on.
    consts: Mutex<HashMap<(u64, u64, usize), Arc<Plaintext>>>,
    /// Input ciphertext scale `Δ_in`.
    input_scale: f64,
    /// Working scale `T` (the scheme's parameter scale).
    work_scale: f64,
    /// Level at which SlotToCoeff rotations run.
    level_stc: usize,
}

impl std::fmt::Debug for Bootstrapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bootstrapper")
            .field("params", &self.params)
            .field("g1", &self.g1)
            .field("g2", &self.g2)
            .field("level_stc", &self.level_stc)
            .finish_non_exhaustive()
    }
}

fn factorial(k: usize) -> f64 {
    (1..=k).map(|v| v as f64).product()
}

impl Bootstrapper {
    /// Build the engine: generate rotation keys for the BSGS Galois
    /// elements at the two levels rotations occur, and precompute all
    /// DFT diagonal plaintexts (encoded host-side, then uploaded once
    /// and kept resident).
    ///
    /// # Panics
    ///
    /// Panics if the context's depth is below
    /// [`BootParams::min_levels`].
    pub fn new<R: Rng + RngExt>(
        ctx: Arc<HeContext>,
        keys: &KeySet,
        params: BootParams,
        rng: &mut R,
    ) -> Self {
        let slots = ctx.params().n() / 2;
        Self::with_matrix_slots(ctx, keys, params, slots, rng)
    }

    /// [`Bootstrapper::new`] with the homomorphic-DFT matrix dimension
    /// capped at `mat_slots` ≤ N/2 — the sparsely packed configuration
    /// for bootstrapping-scale rings (N = 2¹⁶–2¹⁷), where the dense
    /// N/2-dimension build needs hundreds of gigabytes of diagonal
    /// plaintexts. The BSGS structure, rotation/key-switch op sequence
    /// and level schedule are identical to the dense build (so op-mix
    /// accounting and Cpu≡Sim bit-exactness are representative);
    /// decryption recovers the message only in the dense case
    /// `mat_slots = N/2`, exactly like the structural
    /// [`BootParams::shallow`] preset trades accuracy for speed.
    ///
    /// # Panics
    ///
    /// Panics if the context's depth is below [`BootParams::min_levels`]
    /// or `mat_slots` is not a power of two in `[2, N/2]`.
    pub fn with_matrix_slots<R: Rng + RngExt>(
        ctx: Arc<HeContext>,
        keys: &KeySet,
        params: BootParams,
        mat_slots: usize,
        rng: &mut R,
    ) -> Self {
        let (gs, level_cts, level_stc) = Self::required_rotations(&ctx, &params, mat_slots);
        let rot = ctx.keygen_rotation(&keys.secret, &gs, &[level_cts, level_stc], rng);
        Self::with_rotation_keys(ctx, keys, params, mat_slots, rot)
    }

    /// The BSGS Galois elements and the two rotation levels a
    /// `(params, mat_slots)` pipeline key-switches at — the exact
    /// coverage [`HeContext::keygen_rotation`] must provide.
    fn required_rotations(
        ctx: &HeContext,
        params: &BootParams,
        mat_slots: usize,
    ) -> (Vec<u64>, usize, usize) {
        let he = *ctx.params();
        let emb = SlotEmbedding::new(he.n());
        let ns = mat_slots;
        let g1 = (ns as f64).sqrt().ceil() as usize;
        let g2 = ns.div_ceil(g1);
        let level_cts = he.levels;
        let level_stc = he.levels - (params.sin_terms + 3 + 2 * params.double_angle);
        let mut gs: Vec<u64> = Vec::new();
        for j0 in 1..g1 {
            gs.push(emb.galois_for_rotation(j0));
        }
        for i in 1..g2 {
            gs.push(emb.galois_for_rotation(i * g1));
        }
        gs.push(emb.galois_conjugate());
        (gs, level_cts, level_stc)
    }

    /// [`Bootstrapper::with_matrix_slots`] with **precomputed** rotation
    /// keys. Rotation-key generation is host-side, backend-independent
    /// math — at bootstrapping-scale rings it is minutes of host NTTs —
    /// so a cross-substrate comparison can generate the keys once (via a
    /// first construction plus [`Bootstrapper::rotation_keys`]) and hand
    /// an [`HeContext::adopt_rotation_keys`] copy to every other
    /// backend's engine.
    ///
    /// # Panics
    ///
    /// Panics if the context's depth is below
    /// [`BootParams::min_levels`], `mat_slots` is not a power of two in
    /// `[2, N/2]`, or `rot` does not cover every BSGS Galois element at
    /// both rotation levels.
    pub fn with_rotation_keys(
        ctx: Arc<HeContext>,
        keys: &KeySet,
        params: BootParams,
        mat_slots: usize,
        rot: RotationKeys,
    ) -> Self {
        let he = *ctx.params();
        assert!(
            he.levels >= params.min_levels(),
            "bootstrap needs {} levels, context has {}",
            params.min_levels(),
            he.levels
        );
        let emb = SlotEmbedding::new(he.n());
        assert!(
            mat_slots.is_power_of_two() && mat_slots >= 2 && mat_slots <= emb.slots(),
            "mat_slots must be a power of two in [2, N/2]"
        );
        let ns = mat_slots;
        let g1 = (ns as f64).sqrt().ceil() as usize;
        let g2 = ns.div_ceil(g1);

        let (gs, level_cts, level_stc) = Self::required_rotations(&ctx, &params, mat_slots);
        for &g in &gs {
            let g = g % (2 * he.n() as u64);
            assert!(
                rot.contains(g, level_cts) && rot.contains(g, level_stc),
                "rotation keys missing Galois element {g} at a required level"
            );
        }

        let primes = ctx.ring().basis().primes().to_vec();
        let work_scale = he.scale();
        let input_scale = (he.prime_bits - params.k_bits) as f64;
        let input_scale = input_scale.exp2();
        let k_ratio = primes[0] as f64 / input_scale;
        // Fold the EvalMod input scaling 2π/(2ʳ·K) into the CoeffToSlot
        // matrices and the output scaling K/(2π) into SlotToCoeff.
        let c_fold = 2.0 * std::f64::consts::PI / ((1u64 << params.double_angle) as f64 * k_ratio);
        let c_unfold = k_ratio / (2.0 * std::f64::consts::PI);
        let dp_cts = work_scale * primes[level_cts - 1] as f64 / input_scale;
        let dp_stc = primes[level_stc - 1] as f64;

        let inv_n = 1.0 / he.n() as f64;
        let f = |j: usize, k: usize| emb.zeta_pow(k, -(j as i64)).scale(c_fold * inv_n);
        let g = |j: usize, k: usize| emb.zeta_pow(k, -((j + ns) as i64)).scale(c_fold * inv_n);
        let c = |j: usize, k: usize| emb.zeta_pow(j, k as i64).scale(c_unfold);
        let d = |j: usize, k: usize| emb.zeta_pow(j, (k + ns) as i64).scale(c_unfold);

        let build = |entry: &dyn Fn(usize, usize) -> Complex, scale: f64, level: usize| {
            Self::build_diags(&ctx, &emb, ns, g1, g2, entry, scale, level)
        };
        let cts_f = build(&f, dp_cts, level_cts);
        let cts_fc = build(&|j, k| f(j, k).conj(), dp_cts, level_cts);
        let cts_g = build(&g, dp_cts, level_cts);
        let cts_gc = build(&|j, k| g(j, k).conj(), dp_cts, level_cts);
        let stc_c = build(&c, dp_stc, level_stc);
        let stc_d = build(&d, dp_stc, level_stc);

        Bootstrapper {
            ctx,
            params,
            emb,
            relin: keys.relin.clone(),
            rot,
            g1,
            g2,
            cts_f,
            cts_fc,
            cts_g,
            cts_gc,
            stc_c,
            stc_d,
            consts: Mutex::new(HashMap::new()),
            input_scale,
            work_scale,
            level_stc,
        }
    }

    /// The scale a level-1 input ciphertext must carry (`Δ_in`): encode
    /// bootstrap inputs with
    /// [`encode_with_scale`](HeContext::encode_with_scale) at this value.
    pub fn input_scale(&self) -> f64 {
        self.input_scale
    }

    /// Level of the ciphertext [`Bootstrapper::bootstrap`] returns.
    pub fn output_level(&self) -> usize {
        self.level_stc - 1
    }

    /// The rotation keys (for diagnostics / key accounting).
    pub fn rotation_keys(&self) -> &RotationKeys {
        &self.rot
    }

    /// The pipeline parameters.
    pub fn params(&self) -> &BootParams {
        &self.params
    }

    /// Bootstrap: run ModRaise → CoeffToSlot → EvalMod → SlotToCoeff.
    /// The result encrypts the same coefficients at the working scale
    /// with [`Bootstrapper::output_level`] levels of fresh depth.
    ///
    /// # Panics
    ///
    /// Panics unless `ct` is at level 1 with scale
    /// [`Bootstrapper::input_scale`].
    pub fn bootstrap(&self, ct: &Ciphertext) -> Ciphertext {
        match self.run(ct, false) {
            Ok(out) => out,
            Err(_) => unreachable!("infallible path returned an error"),
        }
    }

    /// Fallible [`Bootstrapper::bootstrap`]: every rotation (the
    /// fault-gated op class — each is a transform + automorphism + key
    /// switch) runs through [`HeContext::try_rotate`], so injected
    /// faults surface as classified [`BackendError`]s with the
    /// ciphertext argument unchanged, and the serving layer can apply
    /// its retry/degrade policy. Rotation keys are owned by the
    /// bootstrapper (not any pool member), so they survive evaluator
    /// quarantine + re-fork.
    ///
    /// # Errors
    ///
    /// Any [`BackendError`] from the underlying evaluator ops.
    pub fn try_bootstrap(&self, ct: &Ciphertext) -> Result<Ciphertext, BackendError> {
        self.run(ct, true)
    }

    fn run(&self, ct: &Ciphertext, fallible: bool) -> Result<Ciphertext, BackendError> {
        assert_eq!(ct.level(), 1, "bootstrap input must be at level 1");
        assert!(
            (ct.scale() / self.input_scale - 1.0).abs() < 1e-9,
            "bootstrap input must be encoded at input_scale() = {}, got {}",
            self.input_scale,
            ct.scale()
        );
        let raised = self.ctx.mod_raise(ct, self.ctx.params().levels);
        let (m1, m2) = self.coeff_to_slot(&raised, fallible)?;
        let s1 = self.eval_mod(&m1);
        let s2 = self.eval_mod(&m2);
        self.slot_to_coeff(&s1, &s2, fallible)
    }

    // ---- CoeffToSlot / SlotToCoeff (homomorphic DFT) -----------------

    /// Rotate by Galois element `g`, through the fallible path when
    /// requested.
    fn rot(&self, ct: &Ciphertext, g: u64, fallible: bool) -> Result<Ciphertext, BackendError> {
        if fallible {
            self.ctx.try_rotate(ct, g, &self.rot)
        } else {
            Ok(self.ctx.rotate(ct, g, &self.rot))
        }
    }

    /// Baby-step rotations `rot_{j0}(ct)` for `j0 ∈ 0..g1` (index 0 is
    /// the ciphertext itself).
    fn baby_steps(&self, ct: &Ciphertext, fallible: bool) -> Result<Vec<Ciphertext>, BackendError> {
        let mut rots = Vec::with_capacity(self.g1);
        rots.push(ct.clone());
        for j0 in 1..self.g1 {
            rots.push(self.rot(ct, self.emb.galois_for_rotation(j0), fallible)?);
        }
        Ok(rots)
    }

    /// One BSGS matrix–vector product over a *pair* of operands sharing
    /// the giant-step rotations: `Σ_i rot_{i·g1}(Σ_{j0} da[i][j0] ⊙
    /// rots_a[j0] + db[i][j0] ⊙ rots_b[j0])`. All plain products are
    /// raw (same scale), summed, then rescaled **once** — one level per
    /// stage, and every rotation at one level. Each giant step's inner
    /// sum is one [`HeContext::multiply_plain_sum`]: one multi-term FMA
    /// launch per component on a device.
    fn bsgs(
        &self,
        rots_a: &[Ciphertext],
        rots_b: &[Ciphertext],
        da: &Diags,
        db: &Diags,
        fallible: bool,
    ) -> Result<Ciphertext, BackendError> {
        let mut out: Option<Ciphertext> = None;
        for i in 0..self.g2 {
            let terms: Vec<(&Ciphertext, &Plaintext)> = (0..self.g1)
                .flat_map(|j0| {
                    [(rots_a, da), (rots_b, db)]
                        .into_iter()
                        .filter_map(move |(rots, diags)| Some((&rots[j0], diags[i][j0].as_ref()?)))
                })
                .collect();
            let mut v = self.ctx.multiply_plain_sum(&terms);
            if i > 0 {
                v = self.rot(&v, self.emb.galois_for_rotation(i * self.g1), fallible)?;
            }
            out = Some(match out {
                Some(acc) => self.ctx.add(&acc, &v),
                None => v,
            });
        }
        let mut out = out.expect("empty BSGS");
        self.ctx.rescale(&mut out);
        Ok(out)
    }

    /// Homomorphic `σ⁻¹`: two ciphertexts whose slots are the first and
    /// second halves of the input's coefficients (times the folded
    /// EvalMod input scaling).
    fn coeff_to_slot(
        &self,
        ct: &Ciphertext,
        fallible: bool,
    ) -> Result<(Ciphertext, Ciphertext), BackendError> {
        let conj = self.rot(ct, self.emb.galois_conjugate(), fallible)?;
        let rots_u = self.baby_steps(ct, fallible)?;
        let rots_c = self.baby_steps(&conj, fallible)?;
        let out1 = self.bsgs(&rots_u, &rots_c, &self.cts_f, &self.cts_fc, fallible)?;
        let out2 = self.bsgs(&rots_u, &rots_c, &self.cts_g, &self.cts_gc, fallible)?;
        Ok((out1, out2))
    }

    /// Homomorphic `σ`: recombine the two slot ciphertexts into one
    /// coefficient-domain ciphertext.
    fn slot_to_coeff(
        &self,
        m1: &Ciphertext,
        m2: &Ciphertext,
        fallible: bool,
    ) -> Result<Ciphertext, BackendError> {
        assert_eq!(m1.level(), self.level_stc, "EvalMod level drift");
        assert_eq!(m2.level(), self.level_stc, "EvalMod level drift");
        let rots_1 = self.baby_steps(m1, fallible)?;
        let rots_2 = self.baby_steps(m2, fallible)?;
        self.bsgs(&rots_1, &rots_2, &self.stc_c, &self.stc_d, fallible)
    }

    /// Precompute the pre-rotated BSGS diagonals of one slot matrix as
    /// prepared (truncated, resident, NTT-form) plaintexts.
    #[allow(clippy::too_many_arguments)]
    fn build_diags(
        ctx: &HeContext,
        emb: &SlotEmbedding,
        ns: usize,
        g1: usize,
        g2: usize,
        entry: &dyn Fn(usize, usize) -> Complex,
        scale: f64,
        level: usize,
    ) -> Diags {
        (0..g2)
            .map(|i| {
                (0..g1)
                    .map(|j0| {
                        let k = i * g1 + j0;
                        if k >= ns {
                            return None;
                        }
                        // d_k[j] = M[j][(j+k) mod ns], pre-rotated by
                        // −i·g1 so the giant-step rotation lands it on
                        // the right slots.
                        let vals: Vec<Complex> = (0..ns)
                            .map(|j| {
                                let jj = (j + ns - (i * g1) % ns) % ns;
                                entry(jj, (jj + k) % ns)
                            })
                            .collect();
                        let coeffs = emb.unembed(&vals);
                        let pt = ctx.encode_with_scale(&coeffs, scale);
                        Some(ctx.prepare_plaintext(&pt, level))
                    })
                    .collect()
            })
            .collect()
    }

    // ---- EvalMod (sine approximation of mod q₀) ----------------------

    /// A cached prepared constant plaintext: `v` encoded at `scale`,
    /// truncated/resident/NTT at `level`. First use per key uploads
    /// once; the schedule is static, so steady-state bootstraps only hit.
    fn cached_const(&self, v: f64, scale: f64, level: usize) -> Arc<Plaintext> {
        let key = (v.to_bits(), scale.to_bits(), level);
        if let Some(pt) = self
            .consts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            return Arc::clone(pt);
        }
        let pt = Arc::new(
            self.ctx
                .prepare_plaintext(&self.ctx.encode_with_scale(&[v], scale), level),
        );
        self.consts
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(key)
            .or_insert(pt)
            .clone()
    }

    /// Multiply by the constant `v` landing **exactly** on `out_scale`:
    /// the plaintext is encoded at `out_scale·q/scale`, so the single
    /// rescale pins the result — the scale-repin primitive that stops
    /// the `e' = 2e − log₂ q` drift of ciphertext products.
    fn mul_const_exact(&self, ct: &Ciphertext, v: f64, out_scale: f64) -> Ciphertext {
        let q = self.ctx.ring().basis().primes()[ct.level() - 1] as f64;
        let pt = self.cached_const(v, out_scale * q / ct.scale(), ct.level());
        let mut out = self.ctx.multiply_plain_raw(ct, &pt);
        self.ctx.rescale(&mut out);
        out
    }

    /// Add the constant `v` (encoded at exactly the ciphertext's scale).
    fn add_const(&self, ct: &Ciphertext, v: f64) -> Ciphertext {
        let pt = self.cached_const(v, ct.scale(), ct.level());
        self.ctx.add_plain(ct, &pt)
    }

    /// Ciphertext product with level alignment (basis truncation of the
    /// deeper operand) and relinearization.
    fn mul_ct(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let lvl = a.level().min(b.level());
        let aa;
        let bb;
        let a = if a.level() > lvl {
            aa = self.ctx.drop_to_level(a, lvl);
            &aa
        } else {
            a
        };
        let b = if b.level() > lvl {
            bb = self.ctx.drop_to_level(b, lvl);
            &bb
        } else {
            b
        };
        self.ctx.multiply(a, b, &self.relin)
    }

    /// Homomorphic `(K/2π)·sin(2π·y/K)` up to the folded scalars: the
    /// input carries `x = 2π·y/(2ʳ·K)` (folded into CoeffToSlot), the
    /// Taylor core computes `sin x`/`cos x`, and `r` double-angle
    /// iterations recover `sin(2π·y/K)` (the `K/2π` is folded into
    /// SlotToCoeff). Constants enter via exact-scale plain ops, so no
    /// two ciphertexts ever meet at mismatched scales.
    fn eval_mod(&self, x: &Ciphertext) -> Ciphertext {
        let m = self.params.sin_terms;
        let t_work = self.work_scale;
        debug_assert!((x.scale() / t_work - 1.0).abs() < 1e-9, "CtS scale drift");

        // sin x = x·P(t), cos x = Q(t), t = x².
        let t = self.mul_ct(x, x);
        let sin_c: Vec<f64> = (0..m)
            .map(|u| if u % 2 == 0 { 1.0 } else { -1.0 } / factorial(2 * u + 1))
            .collect();
        let cos_c: Vec<f64> = (0..m)
            .map(|u| if u % 2 == 0 { 1.0 } else { -1.0 } / factorial(2 * u))
            .collect();
        let horner = |coeffs: &[f64]| {
            let mut acc = self.mul_const_exact(&t, coeffs[m - 1], t_work);
            acc = self.add_const(&acc, coeffs[m - 2]);
            for u in (0..m - 2).rev() {
                acc = self.mul_ct(&acc, &t);
                acc = self.add_const(&acc, coeffs[u]);
            }
            acc
        };
        let sin = self.mul_ct(&horner(&sin_c), x);
        let cos = self.ctx.drop_to_level(&horner(&cos_c), sin.level());

        // Re-pin both to the working scale, then double the angle r
        // times: s' = 2sc, c' = 2c² − 1 (each iteration one product
        // level + one re-pin level, applied to s and c in parallel).
        let mut s = self.mul_const_exact(&sin, 1.0, t_work);
        let mut c = self.mul_const_exact(&cos, 1.0, t_work);
        for _ in 0..self.params.double_angle {
            let sc = self.mul_ct(&s, &c);
            let s_next = self.ctx.add(&sc, &sc);
            let cc = self.mul_ct(&c, &c);
            let c_next = self.add_const(&self.ctx.add(&cc, &cc), -1.0);
            s = self.mul_const_exact(&s_next, 1.0, t_work);
            c = self.mul_const_exact(&c_next, 1.0, t_work);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use he_lite::sampling::seeded_rng;

    #[test]
    fn boot_params_depth_formula() {
        assert_eq!(BootParams::shallow().min_levels(), 9);
        assert_eq!(BootParams::deep().min_levels(), 21);
    }

    #[test]
    fn shallow_bootstrap_runs_end_to_end() {
        let bp = BootParams::shallow();
        let ctx = Arc::new(HeContext::new(bp.he_params(4, 50)).unwrap());
        let mut rng = seeded_rng(11);
        let keys = ctx.keygen(&mut rng);
        let boot = Bootstrapper::new(Arc::clone(&ctx), &keys, bp, &mut rng);
        let pt = ctx.encode_with_scale(&[0.5, -0.25], boot.input_scale());
        let ct = ctx.encrypt(&pt, &keys.public, &mut rng);
        let low = ctx.drop_to_level(&ct, 1);
        let out = boot.bootstrap(&low);
        assert_eq!(out.level(), boot.output_level());
        assert!((out.scale() / ctx.params().scale() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deep_bootstrap_recovers_message() {
        let bp = BootParams::deep();
        let ctx = Arc::new(HeContext::new(bp.he_params(4, 50)).unwrap());
        let mut rng = seeded_rng(13);
        let keys = ctx.keygen(&mut rng);
        let boot = Bootstrapper::new(Arc::clone(&ctx), &keys, bp, &mut rng);
        let n = ctx.params().n();
        let values: Vec<f64> = (0..n).map(|i| ((i as f64 * 0.7).sin()) * 0.8).collect();
        let pt = ctx.encode_with_scale(&values, boot.input_scale());
        let ct = ctx.encrypt(&pt, &keys.public, &mut rng);
        let low = ctx.drop_to_level(&ct, 1);
        let out = boot.bootstrap(&low);
        assert!(out.level() >= 1);
        let dec = ctx.decode(&ctx.decrypt(&out, &keys.secret));
        for (i, &v) in values.iter().enumerate() {
            assert!(
                (dec[i] - v).abs() < 0.02,
                "coeff {i}: {} vs {v} (err {})",
                dec[i],
                (dec[i] - v).abs()
            );
        }
    }
}
