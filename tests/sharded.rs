//! Multi-device RNS sharding, end to end.
//!
//! Four families of checks over [`ShardedBackend`], the `K`-device
//! partition of the simulated GPU:
//!
//! * **Bit-exactness across K** — a full he-lite chain
//!   (encrypt → multiply/relinearize → rescale → rotate) on
//!   `K ∈ {2, 3, 4}` shards is bit-identical to the single-device
//!   `SimBackend` and to the host-only `CpuBackend`, over random seeds
//!   and payloads.
//! * **Link accounting** — key-switch base conversion is the one step
//!   whose operands cross shard boundaries: relinearize pays inter-device
//!   words when `K > 1` and exactly zero when `K = 1` (the degenerate
//!   single-device configuration). Its inner products are 1 FMA launch
//!   per multiply, with the per-term link traffic pinned per `K`.
//! * **Serving wiring** — the multi-worker `he-serve` stack (evaluator
//!   pool, fork-per-worker streams, batching) runs a closed multi-tenant
//!   load over a sharded context with zero failures or mismatches.
//! * **Bootstrap wiring** — the full bootstrapping pipeline (CoeffToSlot,
//!   EvalMod, SlotToCoeff: rotation-heavy, key-switch-heavy) is
//!   bit-identical on a sharded context.
//! * **SMEM-sized rings** — the checks above run at N = 64, where every
//!   transform runs its rows whole in one packed SMEM launch; at
//!   N = 2^10 the two-kernel SMEM forward and inverse run on every shard,
//!   stacked and resident, bit-identical to the CPU for K ∈ {1, 2, 3}.

use he_serve::{loadgen, ArrivalMode, HeServer, LoadConfig, ServeConfig};
use ntt_warp::core::backend::{BackendOp as Op, LimbBatch, NttBackend, PolyView, RingPlan};
use ntt_warp::core::{CpuBackend, RnsRing};
use ntt_warp::gpu::{ShardedBackend, SimBackend};
use ntt_warp::he::{sampling, HeContext, HeLiteParams};
use proptest::prelude::*;

fn chain_params() -> HeLiteParams {
    HeLiteParams {
        log_n: 6,
        prime_bits: 50,
        levels: 3,
        scale_bits: 40,
        gadget_bits: 10,
        error_eta: 4,
    }
}

/// encrypt → multiply (tensor + relinearize) → rescale → rotate on the
/// given backend, returning the final ciphertext's raw component words —
/// the bit-exactness currency the backends are compared in.
fn run_chain(
    backend: Box<dyn NttBackend>,
    seed: u64,
    va: &[f64],
    vb: &[f64],
) -> (Vec<u64>, Vec<u64>) {
    let ctx = HeContext::with_backend(chain_params(), backend).unwrap();
    let keys = ctx.keygen(&mut sampling::seeded_rng(seed));
    let mut rng = sampling::seeded_rng(seed.wrapping_add(1));
    let a = ctx.encrypt(&ctx.encode(va), &keys.public, &mut rng);
    let b = ctx.encrypt(&ctx.encode(vb), &keys.public, &mut rng);
    let mut prod = ctx.multiply(&a, &b, &keys.relin);
    ctx.rescale(&mut prod);
    // Rotation key at the post-rescale level; g = 3 is the "rotate by
    // one slot" Galois element.
    let rtk = ctx.keygen_rotation(
        &keys.secret,
        &[3],
        &[prod.level()],
        &mut sampling::seeded_rng(seed ^ 0x9e37_79b9),
    );
    let mut rot = ctx.rotate(&prod, 3, &rtk);
    rot.sync();
    let (c0, c1) = rot.components();
    (c0.flat().to_vec(), c1.flat().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance gate: sharded chains on K ∈ {2, 3, 4} devices are
    /// bit-identical to the single-device SimBackend and to CpuBackend.
    #[test]
    fn sharded_chains_match_single_device_and_cpu(
        seed in 0u64..1_000_000,
        va in proptest::collection::vec(-4.0f64..4.0, 1..8),
        vb in proptest::collection::vec(-4.0f64..4.0, 1..8),
    ) {
        let n = 1usize << chain_params().log_n;
        let host = run_chain(Box::<CpuBackend>::default(), seed, &va, &vb);
        let sim = run_chain(Box::new(SimBackend::titan_v()), seed, &va, &vb);
        prop_assert_eq!(&host, &sim, "single-device SimBackend departs from CpuBackend");
        for k in [2usize, 3, 4] {
            let sharded = run_chain(Box::new(ShardedBackend::titan_v(k, n)), seed, &va, &vb);
            prop_assert_eq!(&host, &sharded, "ShardedBackend k={} departs from host", k);
        }
    }
}

/// Relinearize's base-conversion all-gather is what crosses the
/// inter-device link — and only when there is more than one device.
#[test]
fn key_switch_pays_link_traffic_only_when_sharded() {
    let n = 1usize << chain_params().log_n;
    for (k, expect_link) in [(1usize, false), (2, true), (4, true)] {
        let backend = ShardedBackend::titan_v(k, n);
        let mem = backend.memory_handle();
        let ctx = HeContext::with_backend(chain_params(), Box::new(backend)).unwrap();
        let keys = ctx.keygen(&mut sampling::seeded_rng(5));
        let mut rng = sampling::seeded_rng(6);
        let a = ctx.encrypt(&ctx.encode(&[1.5, -2.0]), &keys.public, &mut rng);
        let b = ctx.encrypt(&ctx.encode(&[0.5, 3.0]), &keys.public, &mut rng);
        let before = mem.lock().unwrap().link_stats();
        let _ = ctx.multiply(&a, &b, &keys.relin);
        let traffic = mem.lock().unwrap().link_stats().since(&before);
        if expect_link {
            assert!(
                traffic.words > 0,
                "k={k}: relinearize's all-gather must cross the link"
            );
        } else {
            assert_eq!(
                traffic.words, 0,
                "k=1 degenerates to a single device with no link traffic"
            );
        }
    }
}

/// The key-switch inner products run as one multi-term FMA launch over
/// both accumulators: a relinearizing multiply issues exactly 1 `sim-fma`
/// launch at every level, not one per accumulator or per (prime, digit)
/// term. Fusing the terms and the accumulators moves no extra link word:
/// each term still gathers what a one-term launch gathers, so the sharded
/// traffic per multiply is the table recorded with one launch per term.
#[test]
fn relinearize_runs_one_fma_launch_and_keeps_its_link_traffic() {
    let params = |levels| HeLiteParams {
        levels,
        ..chain_params()
    };
    let encrypt_pair = |ctx: &HeContext| {
        let keys = ctx.keygen(&mut sampling::seeded_rng(5));
        let mut rng = sampling::seeded_rng(6);
        let a = ctx.encrypt(&ctx.encode(&[1.5, -2.0]), &keys.public, &mut rng);
        let b = ctx.encrypt(&ctx.encode(&[0.5, 3.0]), &keys.public, &mut rng);
        (keys, a, b)
    };

    let sim = SimBackend::titan_v();
    let dev = sim.memory_handle();
    let fma_launches = || {
        let dev = dev.lock().unwrap();
        let trace = &dev.gpu().trace;
        trace.iter().filter(|r| r.launch.label == "sim-fma").count()
    };
    let ctx = HeContext::with_backend(params(4), Box::new(sim)).unwrap();
    let (keys, a, b) = encrypt_pair(&ctx);
    for level in 2..=4 {
        let (a, b) = (ctx.drop_to_level(&a, level), ctx.drop_to_level(&b, level));
        let before = fma_launches();
        let _ = ctx.multiply(&a, &b, &keys.relin);
        assert_eq!(
            fma_launches() - before,
            1,
            "sim-fma launches at level {level}"
        );
    }

    let n = 1usize << chain_params().log_n;
    for (levels, k, transfers, words) in [
        (3, 2, 47, 3008),
        (3, 3, 10, 640),
        (3, 4, 79, 5056),
        (4, 2, 6, 384),
        (4, 3, 116, 7424),
        (4, 4, 18, 1152),
    ] {
        let backend = ShardedBackend::titan_v(k, n);
        let mem = backend.memory_handle();
        let ctx = HeContext::with_backend(params(levels), Box::new(backend)).unwrap();
        let (keys, a, b) = encrypt_pair(&ctx);
        let before = mem.lock().unwrap().link_stats();
        let _ = ctx.multiply(&a, &b, &keys.relin);
        let link = mem.lock().unwrap().link_stats().since(&before);
        assert_eq!(
            (link.transfers, link.words),
            (transfers, words),
            "levels={levels} k={k}: link transfers / words per multiply"
        );
    }
}

/// The serving stack (evaluator pool, per-worker forks, batching) over a
/// sharded context: a closed multi-tenant load completes cleanly.
#[test]
fn serving_stack_runs_over_sharded_backend() {
    let n = 1usize << chain_params().log_n;
    let backend = ShardedBackend::titan_v(2, n);
    let ctx = HeContext::with_backend(chain_params(), Box::new(backend)).unwrap();
    let server = HeServer::start(ctx, ServeConfig::default());
    let report = loadgen::run(
        &server,
        &LoadConfig {
            tenants: 2,
            chains_per_tenant: 2,
            mode: ArrivalMode::Closed,
            max_values: 4,
            seed: 9,
        },
    );
    let metrics = server.shutdown();
    assert_eq!(
        report.failed, 0,
        "healthy sharded run failed jobs: {report:?}"
    );
    assert_eq!(report.rejected, 0, "closed load must not hit backpressure");
    assert_eq!(
        report.mismatches, 0,
        "decrypted results must match plaintext math"
    );
    assert!(report.completed > 0, "load ran: {report:?}");
    assert_eq!(metrics.completed(), report.completed);
}

/// The rotation- and key-switch-heavy bootstrapping pipeline is
/// bit-identical between one device and two shards.
#[test]
fn bootstrap_on_sharded_matches_single_device() {
    use ntt_warp::boot::{BootParams, Bootstrapper};
    use std::sync::Arc;

    let bp = BootParams::shallow();
    let run = |backend: Box<dyn NttBackend>| -> Vec<u64> {
        let ctx = Arc::new(HeContext::with_backend(bp.he_params(4, 50), backend).unwrap());
        let mut rng = sampling::seeded_rng(21);
        let keys = ctx.keygen(&mut rng);
        let boot = Bootstrapper::new(Arc::clone(&ctx), &keys, bp, &mut rng);
        let pt = ctx.encode_with_scale(&[0.5, -0.25], boot.input_scale());
        let ct = ctx.encrypt(&pt, &keys.public, &mut sampling::seeded_rng(22));
        let low = ctx.drop_to_level(&ct, 1);
        let mut out = boot.bootstrap(&low);
        out.sync();
        let (c0, c1) = out.components();
        let mut flat = c0.flat().to_vec();
        flat.extend_from_slice(c1.flat());
        flat
    };
    let n = 1usize << bp.he_params(4, 50).log_n;
    let sim = run(Box::new(SimBackend::titan_v()));
    let sharded = run(Box::new(ShardedBackend::titan_v(2, n)));
    assert_eq!(
        sim, sharded,
        "bootstrap pipeline departs between one device and two shards"
    );
}

/// The SMEM-sized shape: N = 2^10, `level` = 4 primes, and two stacked
/// polynomials of canonical pseudo-random rows (row r under prime
/// r % level).
fn smem_sized_stack() -> (RingPlan, usize, usize, Vec<u64>) {
    let (n, level) = (1usize << 10, 4usize);
    let ring = RnsRing::new(n, ntt_warp::math::ntt_primes(59, 2 * n as u64, level)).unwrap();
    let plan = RingPlan::new(&ring);
    let primes = ring.basis().primes();
    let stack: Vec<u64> = (0..(2 * level * n) as u64)
        .map(|i| {
            let p = primes[(i as usize / n) % level];
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % p
        })
        .collect();
    (plan, n, level, stack)
}

/// Transforms at SMEM size over `K` shards: a stacked host-batch inverse
/// (2·level rows, row r under prime r % level) and a resident forward →
/// inverse over the stacked buffer, each bit-identical to `CpuBackend`.
/// Which kernels ran is pinned separately
/// (`smem_sized_inverses_run_both_smem_kernels_on_every_shard`), so this
/// test holds under any forced transform family.
#[test]
fn smem_sized_stacked_and_resident_transforms_match_cpu_on_every_shard_count() {
    let (plan, n, level, stack) = smem_sized_stack();
    let words = 2 * level * n;

    let mut cpu = CpuBackend::default();
    let mut inv_cpu = stack.clone();
    cpu.run(
        &plan,
        Op::InverseBatch(LimbBatch::new(&mut inv_cpu, n, level)),
    );
    let mut fwd_cpu = stack.clone();
    cpu.run(
        &plan,
        Op::ForwardBatch(LimbBatch::new(&mut fwd_cpu, n, level)),
    );

    for k in [1usize, 2, 3] {
        let mut sim = ShardedBackend::titan_v(k, n);
        let mut inv_sim = stack.clone();
        sim.run(
            &plan,
            Op::InverseBatch(LimbBatch::new(&mut inv_sim, n, level)),
        );
        assert_eq!(inv_sim, inv_cpu, "stacked inverse_batch, k={k}");

        let mem = sim.memory();
        let st = {
            let mut m = mem.lock().unwrap();
            let st = m.alloc(words);
            m.upload(st, &stack);
            st
        };
        let download = |buf, len| {
            let mut got = vec![0u64; len];
            mem.lock().unwrap().download(buf, &mut got);
            got
        };
        let views = [PolyView::new(st, 0..level)];
        sim.run(
            &plan,
            Op::Forward {
                views: &views,
                load: None,
                fold: None,
            },
        );
        assert_eq!(download(st, words), fwd_cpu, "resident forward, k={k}");
        sim.run(&plan, Op::Inverse { views: &views });
        assert_eq!(
            download(st, words),
            stack,
            "resident forward -> inverse, k={k}"
        );
    }
}

/// The route behind the transforms above: under auto routing, the
/// stacked inverse and the resident forward → inverse at N = 2^10 run
/// both two-kernel SMEM inverse kernels on every shard of K ∈ {1, 2, 3}.
/// A forced radix-2 run overrides exactly this route, so that CI pass
/// skips this test alone.
#[test]
fn smem_sized_inverses_run_both_smem_kernels_on_every_shard() {
    let (plan, n, level, stack) = smem_sized_stack();
    for k in [1usize, 2, 3] {
        let mut sim = ShardedBackend::titan_v(k, n);
        let mut inv = stack.clone();
        sim.run(&plan, Op::InverseBatch(LimbBatch::new(&mut inv, n, level)));
        let mem = sim.memory();
        let st = mem.lock().unwrap().alloc(stack.len());
        mem.lock().unwrap().upload(st, &stack);
        let views = [PolyView::new(st, 0..level)];
        sim.run(
            &plan,
            Op::Forward {
                views: &views,
                load: None,
                fold: None,
            },
        );
        sim.run(&plan, Op::Inverse { views: &views });
        let link = sim.memory_handle();

        // Every shard ran the SMEM kernels in both directions.
        let shards = link.lock().unwrap();
        for s in 0..k {
            let shard = shards.shard(s);
            let shard = shard.lock().unwrap();
            let labels: Vec<&str> = shard
                .gpu()
                .trace
                .iter()
                .map(|r| r.launch.label.as_str())
                .collect();
            for want in ["smem-k1-", "smem-k2-"] {
                assert!(
                    labels
                        .iter()
                        .any(|l| l.starts_with(want) && l.ends_with("-inv")),
                    "k={k} shard {s}: no {want}*-inv launch in {labels:?}"
                );
            }
        }
    }
}
