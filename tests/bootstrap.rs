//! The bootstrapping pipeline across execution substrates.
//!
//! Six families of checks:
//!
//! * **Cross-substrate bit-exactness** — rotations (automorphism + key
//!   switch) and the *entire* `bootstrap()` chain produce bit-identical
//!   ciphertexts on `CpuBackend` and the device-resident `SimBackend`.
//!   The schedule is static and every scale decision is host-side `f64`
//!   arithmetic shared by both paths, so the pipelines must agree to the
//!   last ring coefficient.
//! * **Rotation semantics** — property test: `rotate(ct, g)` for a
//!   random odd Galois element `g` decrypts to the plaintext permuted by
//!   `X → X^g` (coefficient permutation with negacyclic sign wrap).
//! * **Decryption correctness** — the deep-parameter bootstrap output
//!   decrypts back to the input coefficients (the he-boot unit test
//!   covers CPU; here the *Sim* output is pinned to the CPU output, so
//!   correctness transfers).
//! * **One upload per host-fresh input** — a Cpu-encrypted ciphertext
//!   bootstrapped on Sim crosses the bus once, at the mod-raise.
//! * **Fused multiply-accumulate chains** — a giant step's plaintext
//!   product sum, a relinearizing multiply and a rotation each run their
//!   multiply-accumulates as multi-term FMA launches, bit-identical to
//!   the unfused product-and-add chain on every backend, with host-fresh
//!   operands moving exactly the words that chain moves.
//! * **Launches per step at the `boot` shape** — a rescale, a mod-raise
//!   and a rotation issue a pinned number of launches on every shard
//!   and give Cpu's bits.
//!
//! CI runs this file under `NTT_WARP_THREADS=1,2,4`: the thread policy
//! must not leak into results.

use ntt_warp::boot::{BootParams, Bootstrapper};
use ntt_warp::core::backend::NttBackend;
use ntt_warp::core::{CpuBackend, TransferStats};
use ntt_warp::gpu::{ShardedBackend, SimBackend};
use ntt_warp::he::{sampling, Ciphertext, HeContext, HeLiteParams, KeySet, Plaintext, PublicKey};
use proptest::prelude::*;
use std::sync::Arc;

fn rot_params() -> HeLiteParams {
    HeLiteParams {
        log_n: 6,
        prime_bits: 50,
        levels: 3,
        scale_bits: 46,
        gadget_bits: 10,
        error_eta: 4,
    }
}

fn ctx_with(params: HeLiteParams, backend: Box<dyn NttBackend>, seed: u64) -> (HeContext, KeySet) {
    let ctx = HeContext::with_backend(params, backend).expect("context builds");
    let keys = ctx.keygen(&mut sampling::seeded_rng(seed));
    (ctx, keys)
}

/// Decrypt-ready bit pattern of a ciphertext: both components, synced.
fn bits(mut ct: Ciphertext) -> (ntt_warp::core::RnsPoly, ntt_warp::core::RnsPoly) {
    ct.sync();
    let (c0, c1) = ct.components();
    (c0.clone(), c1.clone())
}

/// Rotations agree bit-for-bit between the host backend and the
/// device-resident simulated GPU, for baby-step, giant-step and
/// conjugation Galois elements.
#[test]
fn rotate_is_bit_exact_across_backends() {
    let run = |backend: Box<dyn NttBackend>| {
        let (ctx, keys) = ctx_with(rot_params(), backend, 17);
        let two_n = 2 * ctx.params().n() as u64;
        let gs = [5u64, 25, 125 % two_n, two_n - 1];
        let rtk = ctx.keygen_rotation(&keys.secret, &gs, &[3], &mut sampling::seeded_rng(18));
        let values: Vec<f64> = (0..8).map(|i| (i as f64 * 0.9).cos()).collect();
        let ct = ctx.encrypt(
            &ctx.encode(&values),
            &keys.public,
            &mut sampling::seeded_rng(19),
        );
        gs.iter()
            .map(|&g| bits(ctx.rotate(&ct, g, &rtk)))
            .collect::<Vec<_>>()
    };
    let cpu = run(Box::<CpuBackend>::default());
    let sim = run(Box::new(SimBackend::titan_v()));
    assert_eq!(cpu, sim, "rotation diverged between Cpu and Sim");
}

/// The full bootstrap chain — ModRaise, CoeffToSlot, EvalMod,
/// SlotToCoeff, every rotation and rescale — is bit-exact across
/// backends on the depth-minimal (shallow) parameters.
#[test]
fn bootstrap_is_bit_exact_across_backends() {
    let bp = BootParams::shallow();
    let run = |backend: Box<dyn NttBackend>| {
        let ctx = Arc::new(
            HeContext::with_backend(bp.he_params(4, 50), backend).expect("context builds"),
        );
        let mut rng = sampling::seeded_rng(23);
        let keys = ctx.keygen(&mut rng);
        let boot = Bootstrapper::new(Arc::clone(&ctx), &keys, bp, &mut rng);
        let values: Vec<f64> = (0..16).map(|i| ((i as f64) * 0.41).sin() * 0.7).collect();
        let pt = ctx.encode_with_scale(&values, boot.input_scale());
        let ct = ctx.encrypt(&pt, &keys.public, &mut sampling::seeded_rng(24));
        let low = ctx.drop_to_level(&ct, 1);
        let out = boot.bootstrap(&low);
        assert_eq!(out.level(), boot.output_level());
        bits(out)
    };
    let cpu = run(Box::<CpuBackend>::default());
    let sim = run(Box::new(SimBackend::titan_v()));
    assert_eq!(cpu, sim, "bootstrap chain diverged between Cpu and Sim");
}

/// `BootParams::deep()` end-to-end at the bootstrapping-scale ring: the
/// full 21-level pipeline, sparsely packed (`with_matrix_slots` ≪ N/2)
/// so key and diagonal material stays tractable, bit-exact Cpu≡Sim.
/// The Sim side routes its forwards through the size-calibrated winner,
/// which at this scale weighs the hierarchical 4-step plan. Debug
/// builds run the identical pipeline (including the key-adoption path)
/// at N=2^8 to keep `cargo test -q` fast; release builds
/// (`cargo test --release`) run the full N=2^16 ring, where the CPU
/// side crosses the hierarchical threshold and the Sim side launches
/// the three-kernel plan.
#[test]
fn deep_bootstrap_at_bootstrap_ring_is_bit_exact_across_backends() {
    let bp = BootParams::deep();
    let log_n: u32 = if cfg!(debug_assertions) { 8 } else { 16 };
    let values: Vec<f64> = (0..16).map(|i| ((i as f64) * 0.23).cos() * 0.5).collect();
    let run = |ctx: &Arc<HeContext>, boot: &Bootstrapper, keys: &KeySet| {
        let pt = ctx.encode_with_scale(&values, boot.input_scale());
        let ct = ctx.encrypt(&pt, &keys.public, &mut sampling::seeded_rng(31));
        let low = ctx.drop_to_level(&ct, 1);
        let out = boot.bootstrap(&low);
        assert_eq!(out.level(), boot.output_level());
        bits(out)
    };

    // Key generation is host-side, backend-independent math — at this
    // ring it is minutes of single-thread NTTs and ~14 GB of relin
    // material — so pay it once on the CPU context and adopt the
    // identical bits on the device context.
    let cpu_ctx = Arc::new(
        HeContext::with_backend(bp.he_params(log_n, 50), Box::<CpuBackend>::default())
            .expect("context builds"),
    );
    let mut rng = sampling::seeded_rng(29);
    let keys = cpu_ctx.keygen(&mut rng);
    let boot_cpu = Bootstrapper::with_matrix_slots(Arc::clone(&cpu_ctx), &keys, bp, 8, &mut rng);
    let cpu = run(&cpu_ctx, &boot_cpu, &keys);
    let rot = boot_cpu.rotation_keys().clone();
    // Free the CPU engine's relin copy before the device copies land.
    drop(boot_cpu);
    drop(cpu_ctx);

    let sim_ctx = Arc::new(
        HeContext::with_backend(bp.he_params(log_n, 50), Box::new(SimBackend::titan_v()))
            .expect("context builds"),
    );
    let keys_sim = sim_ctx.adopt_keys(&keys);
    let rot_sim = sim_ctx.adopt_rotation_keys(&rot);
    // The host originals are done; at N=2^16 they hold ~23 GB that the
    // Sim phase (device mirrors + the bootstrapper's relin copy) needs.
    drop(keys);
    drop(rot);
    let boot_sim =
        Bootstrapper::with_rotation_keys(Arc::clone(&sim_ctx), &keys_sim, bp, 8, rot_sim);
    let sim = run(&sim_ctx, &boot_sim, &keys_sim);
    assert_eq!(
        cpu, sim,
        "deep bootstrap at N=2^{log_n} diverged between Cpu and Sim"
    );
}

/// The fallible bootstrap with no fault plan armed takes the identical
/// path: `try_bootstrap` ≡ `bootstrap`, bit for bit, on the device.
#[test]
fn try_bootstrap_matches_infallible_path() {
    let bp = BootParams::shallow();
    let ctx = Arc::new(
        HeContext::with_backend(bp.he_params(4, 50), Box::new(SimBackend::titan_v()))
            .expect("context builds"),
    );
    let mut rng = sampling::seeded_rng(31);
    let keys = ctx.keygen(&mut rng);
    let boot = Bootstrapper::new(Arc::clone(&ctx), &keys, bp, &mut rng);
    let pt = ctx.encode_with_scale(&[0.25, -0.5, 0.125], boot.input_scale());
    let ct = ctx.encrypt(&pt, &keys.public, &mut sampling::seeded_rng(32));
    let low = ctx.drop_to_level(&ct, 1);
    let a = bits(boot.bootstrap(&low));
    let b = bits(boot.try_bootstrap(&low).expect("no faults armed"));
    assert_eq!(a, b);
}

/// A host-fresh bootstrap input on a resident context is uploaded once,
/// at the mod-raise: after a warm-up with a resident input, `bootstrap`
/// and `try_bootstrap` of a Cpu-encrypted level-1 ciphertext on Sim each
/// move exactly its two level-1 components up (2 uploads, 2·N words) and
/// nothing down, and give the Cpu bootstrap's bits.
#[test]
fn host_fresh_bootstrap_input_uploads_once() {
    let bp = BootParams::shallow();
    let params = bp.he_params(4, 50);
    let cpu = Arc::new(
        HeContext::with_backend(params, Box::<CpuBackend>::default()).expect("context builds"),
    );
    let mut rng = sampling::seeded_rng(51);
    let keys = cpu.keygen(&mut rng);
    let boot_cpu = Bootstrapper::new(Arc::clone(&cpu), &keys, bp, &mut rng);
    let pt = cpu.encode_with_scale(&[0.5, -0.25, 0.75], boot_cpu.input_scale());
    let encrypt = |ctx: &HeContext, pk: &PublicKey| {
        let ct = ctx.encrypt(&pt, pk, &mut sampling::seeded_rng(52));
        ctx.drop_to_level(&ct, 1)
    };
    let low = encrypt(&cpu, &keys.public);
    let want = bits(boot_cpu.bootstrap(&low));

    let sim = Arc::new(
        HeContext::with_backend(params, Box::new(SimBackend::titan_v())).expect("context builds"),
    );
    let dev_keys = sim.adopt_keys(&keys);
    let rot = sim.adopt_rotation_keys(boot_cpu.rotation_keys());
    let boot =
        Bootstrapper::with_rotation_keys(Arc::clone(&sim), &dev_keys, bp, params.n() / 2, rot);
    // Warm-up with a resident input: fills the EvalMod constant cache.
    boot.bootstrap(&encrypt(&sim, &dev_keys.public));
    let n = params.n() as u64;
    for fallible in [false, true] {
        let before = sim.transfer_stats();
        let out = if fallible {
            boot.try_bootstrap(&low).expect("no faults armed")
        } else {
            boot.bootstrap(&low)
        };
        let TransferStats {
            uploads,
            upload_words,
            downloads,
            download_words,
            ..
        } = sim.transfer_stats().since(&before);
        assert_eq!(
            [uploads, upload_words, downloads, download_words],
            [2, 2 * n, 0, 0],
            "fallible = {fallible}: [up, up words, down, down words]"
        );
        assert_eq!(bits(out), want, "fallible = {fallible}");
    }
}

/// The bootstrap's three multiply-accumulate chains run as multi-term
/// FMA launches, with the unfused chain's bits and transfers:
///
/// * a 12-term `multiply_plain_sum` (one BSGS giant step) equals the
///   `multiply_plain_raw` + `add` chain bit for bit on Cpu, Sim and
///   Sharded K ∈ {2, 3}, and on Sim is 2 `sim-fma` launches with no
///   `sim-pointwise` or `sim-add`;
/// * a relinearizing multiply is 1 `sim-pointwise` and 2 `sim-fma`
///   launches with no `sim-add` (its rescale adds none);
/// * a rotation folds `c0` into its key switch: 2 `sim-fma`, no `sim-add`;
/// * host-fresh operands on Sim — a Cpu-encrypted ciphertext rotated, and
///   one Cpu-encrypted term in the sum — give Cpu's bits; the sum counts
///   the transfers of the unfused chain, and the rotation uploads each
///   component once and downloads nothing.
#[test]
fn fused_multiply_accumulate_chains_match_the_unfused_chain() {
    let params = rot_params();
    let (n, level, g) = (1usize << params.log_n, params.levels, 5u64);
    let (cpu, keys) = ctx_with(params, Box::<CpuBackend>::default(), 41);
    let rtk = cpu.keygen_rotation(&keys.secret, &[g], &[level], &mut sampling::seeded_rng(42));
    let message = |k: usize| -> Vec<f64> { (0..8).map(|i| ((i * k) as f64 * 0.3).sin()).collect() };
    let encrypt = |ctx: &HeContext, pk: &PublicKey, k: usize| {
        let pt = ctx.encode(&message(k));
        ctx.encrypt(&pt, pk, &mut sampling::seeded_rng(100 + k as u64))
    };
    let diag = |ctx: &HeContext, k: usize| {
        let pt = ctx.encode_with_scale(&message(k + 20), ctx.params().scale());
        ctx.prepare_plaintext(&pt, level)
    };
    let unfused = |ctx: &HeContext, terms: &[(&Ciphertext, &Plaintext)]| {
        terms
            .iter()
            .map(|&(ct, pt)| ctx.multiply_plain_raw(ct, pt))
            .reduce(|acc, t| ctx.add(&acc, &t))
            .expect("12 terms")
    };
    let sum_and_chain = |ctx: &HeContext, cts: &[Ciphertext], pts: &[Plaintext]| {
        let terms: Vec<(&Ciphertext, &Plaintext)> = cts.iter().zip(pts).collect();
        (ctx.multiply_plain_sum(&terms), unfused(ctx, &terms))
    };

    let cpu_cts: Vec<Ciphertext> = (0..12).map(|k| encrypt(&cpu, &keys.public, k)).collect();
    let cpu_pts: Vec<Plaintext> = (0..12).map(|k| diag(&cpu, k)).collect();
    let (sum, chain) = sum_and_chain(&cpu, &cpu_cts, &cpu_pts);
    let want = bits(sum);
    assert_eq!(want, bits(chain), "Cpu: sum departs from the chain");
    let want_rot = bits(cpu.rotate(&cpu_cts[0], g, &rtk));

    let devices: [(&str, Box<dyn NttBackend>); 3] = [
        ("sim", Box::new(SimBackend::titan_v())),
        ("sharded k=2", Box::new(ShardedBackend::titan_v(2, n))),
        ("sharded k=3", Box::new(ShardedBackend::titan_v(3, n))),
    ];
    for (name, backend) in devices {
        let ctx = HeContext::with_backend(params, backend).expect("context builds");
        let dev_keys = ctx.adopt_keys(&keys);
        let cts: Vec<Ciphertext> = (0..12)
            .map(|k| encrypt(&ctx, &dev_keys.public, k))
            .collect();
        let pts: Vec<Plaintext> = (0..12).map(|k| diag(&ctx, k)).collect();
        let (sum, chain) = sum_and_chain(&ctx, &cts, &pts);
        assert_eq!(bits(sum), want, "{name}: sum departs from Cpu");
        assert_eq!(bits(chain), want, "{name}: chain departs from Cpu");
    }

    // Launch counts on one device.
    let sim = SimBackend::titan_v();
    let dev = sim.memory_handle();
    let ctx = HeContext::with_backend(params, Box::new(sim)).expect("context builds");
    let dev_keys = ctx.adopt_keys(&keys);
    let dev_rtk = ctx.adopt_rotation_keys(&rtk);
    let cts: Vec<Ciphertext> = (0..12)
        .map(|k| encrypt(&ctx, &dev_keys.public, k))
        .collect();
    let pts: Vec<Plaintext> = (0..12).map(|k| diag(&ctx, k)).collect();
    let launches = |f: &mut dyn FnMut()| -> [usize; 3] {
        let from = dev.lock().unwrap().gpu().trace.len();
        f();
        let dev = dev.lock().unwrap();
        let labels: Vec<&str> = dev.gpu().trace[from..]
            .iter()
            .map(|r| r.launch.label.as_str())
            .collect();
        ["sim-fma", "sim-pointwise", "sim-add"].map(|l| labels.iter().filter(|&&x| x == l).count())
    };
    let terms: Vec<(&Ciphertext, &Plaintext)> = cts.iter().zip(&pts).collect();
    let mut out = None;
    let step = launches(&mut || out = Some(ctx.multiply_plain_sum(&terms)));
    assert_eq!(step, [2, 0, 0], "giant step [fma, pointwise, add]");
    assert_eq!(bits(out.take().expect("ran")), want);
    let mult = launches(&mut || out = Some(ctx.multiply(&cts[1], &cts[2], &dev_keys.relin)));
    assert_eq!(
        mult,
        [2, 1, 0],
        "relinearizing multiply [fma, pointwise, add]"
    );
    let mult_cpu = cpu.multiply(&cpu_cts[1], &cpu_cts[2], &keys.relin);
    assert_eq!(bits(out.take().expect("ran")), bits(mult_cpu));
    let rot = launches(&mut || out = Some(ctx.rotate(&cts[0], g, &dev_rtk)));
    assert_eq!(rot, [2, 0, 0], "rotation [fma, pointwise, add]");
    assert_eq!(bits(out.take().expect("ran")), want_rot);

    // Mixed residency: host-fresh operands on the device context.
    let moved = |f: &mut dyn FnMut()| -> [u64; 4] {
        let before = ctx.transfer_stats();
        f();
        let TransferStats {
            uploads,
            upload_words,
            downloads,
            download_words,
            ..
        } = ctx.transfer_stats().since(&before);
        [uploads, upload_words, downloads, download_words]
    };
    let rot_moved = moved(&mut || out = Some(ctx.rotate(&cpu_cts[0], g, &dev_rtk)));
    assert_eq!(
        bits(out.take().expect("ran")),
        want_rot,
        "host-fresh rotate"
    );
    // A host-fresh input on a resident context is uploaded once per
    // component before its transforms, and nothing comes back down.
    let words = (level * n) as u64;
    assert_eq!(rot_moved, [2, 2 * words, 0, 0], "host-fresh rotate");
    let mut mixed = cts.clone();
    mixed[7] = cpu_cts[7].clone();
    let terms: Vec<(&Ciphertext, &Plaintext)> = mixed.iter().zip(&pts).collect();
    let sum_moved = moved(&mut || out = Some(ctx.multiply_plain_sum(&terms)));
    assert_eq!(bits(out.take().expect("ran")), want, "host-fresh term");
    let chain_moved = moved(&mut || out = Some(unfused(&ctx, &terms)));
    assert_eq!(bits(out.take().expect("ran")), want, "host-fresh chain");
    assert_eq!(
        sum_moved, chain_moved,
        "host-fresh term: [up, up words, down, down words]"
    );
    assert_eq!(
        sum_moved,
        [2, 2 * words, 0, 0],
        "the host term's two components go up"
    );
}

/// The device launches of the steps a `boot` bootstrap repeats, at its
/// shape (deep parameters, N = 2^6, 21 levels), on Sim and on every shard
/// of Sharded K ∈ {2, 3}, with outputs equal to Cpu's:
///
/// * a rescale is one inverse transform of both components' dropped rows
///   (on the shard that owns the dropped row), one base conversion and
///   one forward transform with the subtract-and-scale folded into its
///   store: 3 launches, 2 on a shard without the dropped row;
/// * a mod-raise is one inverse transform, one centered base conversion
///   and one forward transform, each over both components: 3 launches,
///   2 on a shard without the level-1 row;
/// * a rotation is one inverse transform of both components, two
///   automorphisms, the forward of `c0`, a decompose, the digit forward
///   and two FMAs: 8 launches on every shard.
///
/// The counts pin the auto route (whole-row SMEM kernels below 256
/// points), so the CI passes that force another transform family skip
/// this test.
#[test]
fn boot_shape_rescale_mod_raise_and_rotation_launches_per_shard() {
    let params = BootParams::deep().he_params(6, 50);
    let (n, top, g) = (params.n(), params.levels, 5u64);
    let (cpu, keys) = ctx_with(params, Box::<CpuBackend>::default(), 51);
    let rtk = cpu.keygen_rotation(&keys.secret, &[g], &[top], &mut sampling::seeded_rng(52));
    let values: Vec<f64> = (0..16).map(|i| ((i as f64) * 0.3).cos() * 0.5).collect();
    let encrypt = |ctx: &HeContext, pk: &PublicKey| {
        ctx.encrypt(&ctx.encode(&values), pk, &mut sampling::seeded_rng(53))
    };
    let ct = encrypt(&cpu, &keys.public);
    let mut rescaled = ct.clone();
    cpu.rescale(&mut rescaled);
    let want = [
        bits(rescaled),
        bits(cpu.mod_raise(&cpu.drop_to_level(&ct, 1), top)),
        bits(cpu.rotate(&ct, g, &rtk)),
    ];

    // Per device: the backend, its launches per shard so far, and the
    // pinned launches per shard of a rescale, a mod-raise and a rotation.
    type Launches = Box<dyn Fn() -> Vec<u64>>;
    type Device = (Box<dyn NttBackend>, Launches, [Vec<u64>; 3]);
    let sim = SimBackend::titan_v();
    let sim_mem = sim.memory_handle();
    let sim_launches: Launches =
        Box::new(move || vec![sim_mem.lock().unwrap().gpu().timeline().launches]);
    let mut devices: Vec<Device> = vec![(Box::new(sim), sim_launches, [vec![3], vec![3], vec![8]])];
    // The dropped row 20 lives on shard 20 % K; the level-1 row on 0.
    for (k, rescale) in [(2, vec![3, 2]), (3, vec![2, 2, 3])] {
        let sharded = ShardedBackend::titan_v(k, n);
        let mem = sharded.memory_handle();
        let launches: Launches = Box::new(move || {
            let timelines = mem.lock().unwrap().shard_timelines();
            timelines.iter().map(|t| t.launches).collect()
        });
        let mut raise = vec![2; k];
        raise[0] = 3;
        devices.push((Box::new(sharded), launches, [rescale, raise, vec![8; k]]));
    }
    for (backend, launches, pinned) in devices {
        let ctx = HeContext::with_backend(params, backend).expect("context builds");
        let name = ctx.backend_name();
        let dev_keys = ctx.adopt_keys(&keys);
        let dev_rtk = ctx.adopt_rotation_keys(&rtk);
        let ct = encrypt(&ctx, &dev_keys.public);
        let low = ctx.drop_to_level(&ct, 1);
        let count = |f: &mut dyn FnMut() -> Ciphertext| -> (Vec<u64>, Ciphertext) {
            let before = launches();
            let out = f();
            let after = launches();
            (after.iter().zip(before).map(|(a, b)| a - b).collect(), out)
        };
        let runs = [
            count(&mut || {
                let mut out = ct.clone();
                ctx.rescale(&mut out);
                out
            }),
            count(&mut || ctx.mod_raise(&low, top)),
            count(&mut || ctx.rotate(&ct, g, &dev_rtk)),
        ];
        let steps = ["rescale", "mod-raise", "rotation"];
        for (((step, (got, out)), pin), want) in steps.iter().zip(runs).zip(&pinned).zip(&want) {
            assert_eq!(&got, pin, "{name}: {step} launches per shard");
            assert_eq!(&bits(out), want, "{name}: {step} departs from Cpu");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `rotate(ct, g)` decrypts to the `X → X^g` permutation of the
    /// plaintext (negacyclic sign wrap), for random odd `g` and random
    /// coefficients — the homomorphic automorphism against the plain
    /// oracle.
    #[test]
    fn rotation_decrypts_to_permuted_plaintext(
        g_index in 0usize..32,
        seed in any::<u64>(),
    ) {
        let (ctx, keys) = ctx_with(rot_params(), Box::<CpuBackend>::default(), seed);
        let n = ctx.params().n();
        let two_n = 2 * n;
        let g = (2 * g_index + 1) as u64 % (two_n as u64);
        let rtk = ctx.keygen_rotation(
            &keys.secret,
            &[g],
            &[ctx.params().levels],
            &mut sampling::seeded_rng(seed ^ 0x5a5a),
        );
        let values: Vec<f64> = (0..n)
            .map(|i| (((seed as f64).sin() * 31.0 + i as f64) * 0.37).cos())
            .collect();
        let ct = ctx.encrypt(
            &ctx.encode(&values),
            &keys.public,
            &mut sampling::seeded_rng(seed.wrapping_mul(3)),
        );
        let rotated = ctx.rotate(&ct, g, &rtk);
        let got = ctx.decode(&ctx.decrypt(&rotated, &keys.secret));

        // Oracle: coefficient t of the input lands at (t*g mod 2N),
        // negated when it wraps past N.
        let mut want = vec![0.0f64; n];
        for (t, &v) in values.iter().enumerate() {
            let idx = (t * g as usize) % two_n;
            if idx < n {
                want[idx] += v;
            } else {
                want[idx - n] -= v;
            }
        }
        for i in 0..n {
            prop_assert!(
                (got[i] - want[i]).abs() < 1e-2,
                "g={g} coeff {i}: {} vs {}", got[i], want[i]
            );
        }
    }
}
