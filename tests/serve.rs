//! Property tests for the HE-as-a-service layer: deficit round-robin
//! fairness, bounded-queue backpressure, and batched-vs-sequential
//! bit-identity of the request batcher on both the CPU and simulated-GPU
//! backends.

use he_serve::{
    job_seed, Batcher, EncryptJob, FairQueue, HeServer, Request, Response, ServeConfig,
    SubmitError, TenantId,
};
use ntt_warp::core::RnsPoly;
use ntt_warp::he::{sampling, Ciphertext, HeContext, HeLiteParams};
use proptest::prelude::*;
use std::collections::HashMap;

fn serve_params() -> HeLiteParams {
    HeLiteParams {
        log_n: 6,
        prime_bits: 50,
        levels: 3,
        scale_bits: 40,
        gadget_bits: 10,
        error_eta: 4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// No starvation under skew: tenant 0 floods the queue, yet every
    /// backlogged tenant's first item is served within the DRR bound —
    /// `ceil(cost/quantum)` visits per tenant, at most
    /// `ceil((quantum+cost)/cost)` items served per visit.
    #[test]
    fn drr_never_starves_a_tenant(
        tenants in 2usize..6,
        flood in 8usize..40,
        cost in 1u64..12,
        quantum in 1u64..8,
    ) {
        let mut q: FairQueue<u64> = FairQueue::new(64, quantum);
        for _ in 0..flood {
            q.push(TenantId(0), cost).unwrap();
        }
        for t in 1..tenants as u32 {
            q.push(TenantId(t), cost).unwrap();
            q.push(TenantId(t), cost).unwrap();
        }
        let drained = q.drain(flood + 2 * (tenants - 1));
        prop_assert!(q.is_empty(), "drain is work-conserving");

        let rounds = cost.div_ceil(quantum) as usize;
        let per_visit = (quantum + cost).div_ceil(cost) as usize;
        let window = tenants * rounds * per_visit;
        for t in 0..tenants as u32 {
            let pos = drained
                .iter()
                .position(|(id, _)| id.0 == t)
                .expect("every tenant is served");
            prop_assert!(
                pos < window,
                "tenant {t} first served at {pos}, outside DRR window {window}"
            );
        }
    }

    /// The bounded queue is really bounded, and its admission ledger
    /// balances: offered = accepted + rejected, accepted = drained +
    /// still queued — per tenant, under arbitrary push/drain interleaving.
    #[test]
    fn backpressure_bounds_and_ledger_balance(
        capacity in 1usize..8,
        ops in proptest::collection::vec((0u32..4, 1u64..6), 1..120),
        drain_every in 1usize..10,
    ) {
        let mut q: FairQueue<u64> = FairQueue::new(capacity, 4);
        let mut offered: HashMap<u32, u64> = HashMap::new();
        let mut drained: HashMap<u32, u64> = HashMap::new();
        for (i, &(t, cost)) in ops.iter().enumerate() {
            *offered.entry(t).or_default() += 1;
            let _ = q.push(TenantId(t), cost);
            for t in 0..4u32 {
                prop_assert!(
                    q.queued_for(TenantId(t)) <= capacity,
                    "tenant {t} queue exceeded capacity {capacity}"
                );
            }
            if i % drain_every == 0 {
                for (id, _) in q.drain(2) {
                    *drained.entry(id.0).or_default() += 1;
                }
            }
        }
        for t in 0..4u32 {
            let id = TenantId(t);
            prop_assert_eq!(
                q.accepted_for(id) + q.rejected_for(id),
                offered.get(&t).copied().unwrap_or(0),
                "offered ledger for tenant {}", t
            );
            prop_assert_eq!(
                q.accepted_for(id),
                drained.get(&t).copied().unwrap_or(0) + q.queued_for(id) as u64,
                "accepted ledger for tenant {}", t
            );
        }
    }
}

/// Run the same jobs through the batcher as one group and as chunk-of-1
/// dispatches, asserting every intermediate ciphertext and the final
/// decrypted values are bit-identical.
fn assert_batched_matches_sequential(ctx: &HeContext, jobs: &[EncryptJob]) {
    let keys = ctx.keygen(&mut sampling::seeded_rng(33));
    let batcher = Batcher::new(&keys);
    let weights = vec![0.75];

    let run = |groups: Vec<&[EncryptJob]>| {
        ctx.with_pooled_evaluator(|ev| {
            let mut cts = Vec::new();
            let mut evald = Vec::new();
            let mut outs = Vec::new();
            for g in groups {
                let c = batcher.encrypt_batch(ctx, ev, g);
                let e = batcher.eval_batch(
                    ctx,
                    ev,
                    c.iter().map(|ct| (ct.clone(), weights.clone())).collect(),
                );
                outs.extend(batcher.decrypt_batch(ctx, ev, e.clone()));
                cts.extend(c);
                evald.extend(e);
            }
            (cts, evald, outs)
        })
    };

    let (b_cts, b_evald, b_outs) = run(vec![jobs]);
    let (s_cts, s_evald, s_outs) = run(jobs.chunks(1).collect());

    for (b, s) in b_cts.iter().zip(&s_cts).chain(b_evald.iter().zip(&s_evald)) {
        assert_eq!(b.components(), s.components(), "ciphertext bits diverged");
        assert_eq!(b.scale().to_bits(), s.scale().to_bits(), "scale diverged");
    }
    assert_eq!(b_outs, s_outs, "decrypted values diverged");
}

fn identity_jobs(seed_base: u64, values: &[Vec<f64>]) -> Vec<EncryptJob> {
    values
        .iter()
        .enumerate()
        .map(|(j, v)| EncryptJob {
            seed: job_seed(seed_base, TenantId(j as u32), j as u64),
            values: v.clone(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batching_is_bit_identical_on_cpu(
        values in proptest::collection::vec(
            proptest::collection::vec(-20.0f64..20.0, 1..6), 1..5),
        seed_base in any::<u64>(),
    ) {
        let ctx = HeContext::new(serve_params()).expect("cpu context builds");
        assert_batched_matches_sequential(&ctx, &identity_jobs(seed_base, &values));
    }

    #[test]
    fn batching_is_bit_identical_on_sim(
        values in proptest::collection::vec(
            proptest::collection::vec(-20.0f64..20.0, 1..6), 1..5),
        seed_base in any::<u64>(),
    ) {
        let ctx = HeContext::with_backend(
            serve_params(),
            Box::new(ntt_warp::gpu::SimBackend::titan_v()),
        )
        .expect("sim context builds");
        assert_batched_matches_sequential(&ctx, &identity_jobs(seed_base, &values));
    }
}

/// The batcher serves the context's own math: a served encrypt is
/// `HeContext::encrypt` of the encoded values under the job's seeded
/// randomness, a served eval is `HeContext::multiply_plain` by the
/// encoded weights, and a served decrypt is `HeContext::decrypt` —
/// components and scale bits alike, on Cpu and on Sim.
#[test]
fn served_math_equals_the_context_ops() {
    // Host-fresh components and the scale's bits, for comparison.
    fn bits(ct: &Ciphertext) -> (RnsPoly, RnsPoly, u64) {
        let mut ct = ct.clone();
        ct.sync();
        let (c0, c1) = ct.components();
        (c0.clone(), c1.clone(), ct.scale().to_bits())
    }
    let contexts = [
        HeContext::new(serve_params()).expect("cpu context builds"),
        HeContext::with_backend(
            serve_params(),
            Box::new(ntt_warp::gpu::SimBackend::titan_v()),
        )
        .expect("sim context builds"),
    ];
    let values = [vec![1.5, -2.0], vec![0.25], vec![3.0, 4.0, -5.0, 0.5]];
    let weights = [vec![2.0], vec![-0.5, 1.0], vec![0.75, 0.0, 0.25]];
    for ctx in &contexts {
        let name = ctx.backend_name();
        let keys = ctx.keygen(&mut sampling::seeded_rng(5));
        let batcher = Batcher::new(&keys);
        let jobs = identity_jobs(9, &values);
        let (cts, evald, pts) = ctx.with_pooled_evaluator(|ev| {
            let cts = batcher.encrypt_batch(ctx, ev, &jobs);
            let group = cts.iter().cloned().zip(weights.iter().cloned()).collect();
            let evald = batcher.eval_batch(ctx, ev, group);
            let pts = batcher.decrypt_batch(ctx, ev, evald.clone());
            (cts, evald, pts)
        });
        for (j, job) in jobs.iter().enumerate() {
            let pt = ctx.encode(&job.values);
            let mut rng = sampling::seeded_rng(job.seed);
            let want = ctx.encrypt(&pt, &keys.public, &mut rng);
            assert!(bits(&cts[j]) == bits(&want), "{name} #{j}: encrypt");
            let want = ctx.multiply_plain(&cts[j], &ctx.encode(&weights[j]));
            assert!(bits(&evald[j]) == bits(&want), "{name} #{j}: eval");
            let want = ctx.decrypt(&evald[j], &keys.secret);
            assert!(pts[j].poly() == want.poly(), "{name} #{j}: decrypt");
            assert_eq!(pts[j].scale().to_bits(), want.scale().to_bits(), "{name}");
        }
    }
}

/// A serving run's answers depend only on (tenant, seq, key_seed) —
/// never on worker count, batching mode or scheduler interleaving: the
/// same submissions through a 1-worker unbatched server and a 4-worker
/// batched server produce bitwise-equal ciphertexts.
#[test]
fn serving_results_are_independent_of_batching_and_workers() {
    let run = |workers: usize, batching: bool| {
        let ctx = HeContext::new(serve_params()).expect("context builds");
        let server = HeServer::start(
            ctx,
            ServeConfig {
                workers,
                batching,
                key_seed: 7,
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<_> = (0..3u32)
            .flat_map(|t| (0..3).map(move |i| (t, i)).collect::<Vec<_>>())
            .map(|(t, i)| {
                server
                    .submit(
                        TenantId(t),
                        Request::Encrypt {
                            values: vec![f64::from(t) + 0.25 * f64::from(i), -1.0],
                        },
                    )
                    .expect("queue has room")
            })
            .collect();
        let cts: Vec<_> = tickets
            .into_iter()
            .map(
                |ticket| match ticket.wait().expect("server answers").response {
                    Response::Encrypted(ct) => ct,
                    other => panic!("expected Encrypted, got {other:?}"),
                },
            )
            .collect();
        server.shutdown();
        cts
    };
    let serial = run(1, false);
    let fleet = run(4, true);
    for (a, b) in serial.iter().zip(&fleet) {
        assert_eq!(a.components(), b.components(), "serving changed the bits");
    }
}

/// Invalid jobs are refused at the door, not queued: an `Eval` whose
/// ciphertext has no prime left to rescale into can never execute.
#[test]
fn eval_at_last_level_is_rejected_as_invalid() {
    let ctx = HeContext::new(serve_params()).expect("context builds");
    let server = HeServer::start(ctx, ServeConfig::default());
    let t = TenantId(0);

    let submit_ok = |req: Request| match server.submit(t, req).expect("valid job").wait() {
        Some(done) => done.response,
        None => panic!("server dropped a valid job"),
    };
    let Response::Encrypted(ct) = submit_ok(Request::Encrypt {
        values: vec![1.0, 2.0],
    }) else {
        panic!("expected Encrypted");
    };
    // Burn levels 3 → 2 → 1.
    let mut ct = ct;
    for _ in 0..2 {
        let Response::Evaluated(next) = submit_ok(Request::Eval {
            ct: ct.clone(),
            weights: vec![1.0],
        }) else {
            panic!("expected Evaluated");
        };
        ct = next;
    }
    assert_eq!(ct.level(), 1);
    match server.submit(
        t,
        Request::Eval {
            ct,
            weights: vec![1.0],
        },
    ) {
        Err(SubmitError::Invalid(_)) => {}
        other => panic!("expected Invalid, got {other:?}"),
    }
    let snap = server.shutdown();
    assert_eq!(snap.completed(), 3, "three valid jobs answered");
}
