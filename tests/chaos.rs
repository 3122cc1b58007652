//! Chaos harness for the self-healing serving stack: seeded fault
//! schedules on the simulated device must never produce a wrong answer
//! — every admitted job either completes bit-correct (retried or
//! degraded to the host evaluator as needed) or fails with a classified
//! [`ServeError`](he_serve::ServeError). No panics, no hangs, no
//! silent corruption.
//!
//! The headline schedule is fixed-seed (override with
//! `NTT_WARP_CHAOS_SEED`) so CI runs the *same* fault history under
//! every `NTT_WARP_THREADS` setting; a proptest sweep then randomizes
//! rates, stickiness and retry budgets.

use he_serve::{
    ArrivalMode, HeServer, LoadConfig, Request, Response, RetryPolicy, ServeConfig, ServeError,
    TenantId,
};
use ntt_warp::core::NttBackend;
use ntt_warp::gpu::SimBackend;
use ntt_warp::he::{HeContext, HeLiteParams};
use ntt_warp::sim::{FaultOp, FaultPlan};
use proptest::prelude::*;
use std::time::Duration;

fn chaos_params() -> HeLiteParams {
    HeLiteParams {
        log_n: 5,
        prime_bits: 50,
        levels: 2,
        scale_bits: 40,
        gadget_bits: 10,
        error_eta: 4,
    }
}

/// The fixed chaos seed: env-overridable so a failing schedule can be
/// replayed locally with `NTT_WARP_CHAOS_SEED=<seed>`.
fn chaos_seed() -> u64 {
    std::env::var("NTT_WARP_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7)
}

/// Build a sim-backed server plus a control handle on its shared
/// device. The plan is armed *after* `HeServer::start`, so key
/// generation always runs fault-free (a faulted keygen is a provisioning
/// failure, not a serving one).
fn start_chaotic_server(config: ServeConfig, plan: FaultPlan) -> (HeServer, SimBackend) {
    let sim = SimBackend::titan_v();
    let ctx = HeContext::with_backend(chaos_params(), sim.fork()).expect("sim context builds");
    let server = HeServer::start(ctx, config);
    sim.set_fault_plan(Some(plan));
    (server, sim)
}

/// The headline chaos run: transient upload/launch faults throughout
/// plus a sticky fault partway in. Every chain must still complete with
/// bit-correct decrypted values — retries absorb the transients, and
/// after the device wedges the server degrades to the host evaluator
/// (bit-identical by backend conformance). Nothing may fail, panic or
/// hang, and the recovery machinery must be visible in the metrics.
///
/// The sticky window opens inside every run, however host timing packs
/// jobs into groups. The closed loop keeps one chain per tenant in
/// flight, so a group holds at most 4 of a stage's 12 jobs and each stage
/// takes at least 3 groups. A group issues its staged calls (encrypt 2,
/// eval 4, decrypt 2), each one upload, launch and download draw, and a
/// transient only adds draws: its re-draws and retries re-issue the
/// group's calls, and a group that degrades drew at least 16 first. So a
/// run draws at least `FEWEST_DRAWS`, and the last of those is sticky.
#[test]
fn seeded_chaos_completes_every_chain_bit_correct() {
    const FEWEST_DRAWS: u64 = 3 * (2 + 4 + 2) * 3;
    let plan = FaultPlan::seeded(chaos_seed())
        .rate(FaultOp::Upload, 40)
        .rate(FaultOp::Launch, 25)
        .sticky_after(FEWEST_DRAWS - 1);
    let (server, sim) = start_chaotic_server(
        ServeConfig {
            workers: 2,
            retry: RetryPolicy {
                max_retries: 3,
                backoff: Duration::from_micros(20),
                backoff_cap: Duration::from_millis(2),
            },
            ..ServeConfig::default()
        },
        plan,
    );

    let report = he_serve::loadgen::run(
        &server,
        &LoadConfig {
            tenants: 4,
            chains_per_tenant: 3,
            mode: ArrivalMode::Closed,
            max_values: 8,
            seed: 11,
        },
    );
    let snap = server.shutdown();

    // Bit-correct or classified — and with no deadline configured and a
    // working host fallback, "classified" never needs to happen.
    assert_eq!(report.mismatches, 0, "a completed answer was wrong");
    assert_eq!(report.failed, 0, "host fallback should absorb every fault");
    assert_eq!(report.rejected, 0, "closed loop never overruns the queue");
    assert_eq!(
        report.chains_completed, 12,
        "every chain runs end to end despite the chaos"
    );
    assert_eq!(report.submitted, report.completed, "job ledger balances");

    // The fault plane really fired, and the recovery machinery really
    // ran: the sticky window guarantees at least one fatal fault, which
    // quarantines a pool member and degrades later work to the host.
    let (transient, sticky, _oom) = sim
        .with_gpu(|gpu| gpu.fault_plan().map(|p| p.injected()))
        .expect("plan is armed");
    assert!(sticky >= 1, "sticky window was never reached");
    assert!(transient >= 1, "transient rates never fired");
    assert!(snap.faults.fatal >= 1, "fatal fault not recorded");
    assert!(snap.degraded_jobs >= 1, "no group degraded to the host");
    assert!(snap.quarantined >= 1, "no pool member was quarantined");
    assert_eq!(snap.worker_panics, 0, "chaos must not panic a worker");
    assert_eq!(snap.failed(), 0, "server-side failure ledger agrees");
}

/// A zero deadline expires every job before dispatch: all answers are
/// `DeadlineExceeded`, all classified, none silently dropped.
#[test]
fn zero_deadline_fails_every_job_classified() {
    let ctx = HeContext::new(chaos_params()).expect("cpu context builds");
    let server = HeServer::start(
        ctx,
        ServeConfig {
            workers: 1,
            deadline: Some(Duration::ZERO),
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            server
                .submit(
                    TenantId(0),
                    Request::Encrypt {
                        values: vec![f64::from(i)],
                    },
                )
                .expect("queue has room")
        })
        .collect();
    for t in tickets {
        match t.wait().expect("answered, not dropped").response {
            Response::Failed(ServeError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    let snap = server.shutdown();
    assert_eq!(snap.deadline_misses, 6);
    assert_eq!(snap.faults.deadline, 6, "misses are classified");
    assert_eq!(snap.failed(), 6);
    assert_eq!(snap.completed(), 0);
}

/// Cancellation is best-effort but never lossy: every cancelled ticket
/// still gets an answer — either the job won the race and completed, or
/// it was shed as `Cancelled` — and the ledgers agree.
#[test]
fn cancelled_tickets_are_answered_not_dropped() {
    let ctx = HeContext::new(chaos_params()).expect("cpu context builds");
    let server = HeServer::start(
        ctx,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = (0..8)
        .map(|i| {
            server
                .submit(
                    TenantId(0),
                    Request::Encrypt {
                        values: vec![f64::from(i), -1.0],
                    },
                )
                .expect("queue has room")
        })
        .collect();
    for t in &tickets {
        t.cancel();
    }
    let mut done = 0u64;
    let mut cancelled = 0u64;
    for t in tickets {
        match t.wait().expect("answered, not dropped").response {
            Response::Encrypted(_) => done += 1,
            Response::Failed(ServeError::Cancelled) => cancelled += 1,
            other => panic!("unexpected answer {other:?}"),
        }
    }
    assert_eq!(done + cancelled, 8, "every ticket answered exactly once");
    let snap = server.shutdown();
    assert_eq!(snap.completed(), done);
    assert_eq!(snap.cancelled, cancelled);
}

/// Quarantine + re-fork keeps the answers conformant: a run whose
/// device wedges immediately (everything degrades to the host
/// evaluator, pool members quarantined along the way) produces
/// bit-identical ciphertexts to a pure-CPU server with the same key
/// seed and submission order.
#[test]
fn quarantine_and_refork_preserve_cpu_sim_conformance() {
    let run = |server: &HeServer| -> Vec<he_lite::Ciphertext> {
        let tickets: Vec<_> = (0..3u32)
            .flat_map(|t| (0..2).map(move |i| (t, i)).collect::<Vec<_>>())
            .map(|(t, i)| {
                server
                    .submit(
                        TenantId(t),
                        Request::Encrypt {
                            values: vec![f64::from(t) - 0.5 * f64::from(i), 2.0],
                        },
                    )
                    .expect("queue has room")
            })
            .collect();
        tickets
            .into_iter()
            .map(
                |ticket| match ticket.wait().expect("server answers").response {
                    Response::Encrypted(ct) => ct,
                    other => panic!("expected Encrypted, got {other:?}"),
                },
            )
            .collect()
    };
    let config = || ServeConfig {
        workers: 1,
        key_seed: 7,
        ..ServeConfig::default()
    };

    let cpu_server = HeServer::start(
        HeContext::new(chaos_params()).expect("cpu context builds"),
        config(),
    );
    let cpu_cts = run(&cpu_server);
    cpu_server.shutdown();

    // Wedge the device on the very first checked op.
    let (sim_server, _sim) =
        start_chaotic_server(config(), FaultPlan::seeded(chaos_seed()).sticky_after(0));
    let sim_cts = run(&sim_server);
    assert!(
        sim_server.context().quarantined_count() >= 1,
        "the wedged evaluator was never quarantined"
    );
    let snap = sim_server.shutdown();
    assert!(snap.degraded_jobs >= 1, "nothing degraded to the host");

    for (a, b) in cpu_cts.iter().zip(&sim_cts) {
        assert_eq!(
            a.components(),
            b.components(),
            "degraded serving diverged from the CPU reference"
        );
        assert_eq!(a.scale().to_bits(), b.scale().to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any fault schedule × retry budget: decrypted answers that arrive
    /// are bit-correct, everything else is a classified failure, the
    /// ledgers balance, and the run terminates (no hang, no panic).
    #[test]
    fn any_fault_schedule_yields_bit_correct_or_classified(
        seed in any::<u64>(),
        upload in 0u16..220,
        launch in 0u16..220,
        sticky_on in any::<bool>(),
        sticky_n in 0u64..300,
        max_retries in 0u32..4,
        open in any::<bool>(),
    ) {
        let mut plan = FaultPlan::seeded(seed)
            .rate(FaultOp::Upload, upload)
            .rate(FaultOp::Launch, launch);
        if sticky_on {
            plan = plan.sticky_after(sticky_n);
        }
        let (server, _sim) = start_chaotic_server(
            ServeConfig {
                workers: 2,
                retry: RetryPolicy {
                    max_retries,
                    backoff: Duration::from_micros(10),
                    backoff_cap: Duration::from_micros(500),
                },
                ..ServeConfig::default()
            },
            plan,
        );
        let mode = if open {
            ArrivalMode::Open { gap: Duration::ZERO }
        } else {
            ArrivalMode::Closed
        };
        let report = he_serve::loadgen::run(
            &server,
            &LoadConfig {
                tenants: 2,
                chains_per_tenant: 2,
                mode,
                max_values: 4,
                seed,
            },
        );
        let snap = server.shutdown();

        prop_assert_eq!(report.mismatches, 0, "completed answer was wrong");
        // Every failure the client saw carries a fault class (no
        // cancellations in this workload), and the job ledger balances.
        prop_assert_eq!(report.failed, report.faults.total());
        prop_assert_eq!(
            report.submitted,
            report.completed + report.failed + report.rejected
        );
        prop_assert_eq!(
            report.chains_completed + report.chains_failed,
            4u64,
            "every chain is accounted for"
        );
        prop_assert_eq!(snap.worker_panics, 0u64);
        prop_assert_eq!(snap.failed(), report.failed);
    }
}

// ---- Bootstrapping under chaos ---------------------------------------

/// Synced bit pattern of a ciphertext, for cross-run comparison.
fn ct_bits(mut ct: he_lite::Ciphertext) -> (ntt_warp::core::RnsPoly, ntt_warp::core::RnsPoly) {
    ct.sync();
    let (c0, c1) = ct.components();
    (c0.clone(), c1.clone())
}

/// The CPU reference for a served bootstrap: replay the server's key
/// schedule (keygen then `Bootstrapper::new` from one seeded stream) on
/// a host context, so the reference ciphertext is bit-comparable by
/// backend conformance.
fn boot_reference(
    bp: he_serve::BootParams,
    params: HeLiteParams,
    key_seed: u64,
) -> (
    std::sync::Arc<HeContext>,
    he_serve::Bootstrapper,
    he_lite::Ciphertext,
) {
    use he_lite::sampling;
    let ctx = std::sync::Arc::new(HeContext::new(params).expect("cpu context builds"));
    let mut rng = sampling::seeded_rng(key_seed);
    let keys = ctx.keygen(&mut rng);
    let boot = he_serve::Bootstrapper::new(std::sync::Arc::clone(&ctx), &keys, bp, &mut rng);
    let pt = ctx.encode_with_scale(&[0.5, -0.25, 0.125], boot.input_scale());
    let ct = ctx.encrypt(&pt, &keys.public, &mut sampling::seeded_rng(100));
    let low = ctx.drop_to_level(&ct, 1);
    (ctx, boot, low)
}

/// Boot jobs under transient launch faults: every answered job is
/// either bit-correct (retries absorbed the faults) or a classified
/// fault — never a silently wrong ciphertext. The fallible path routes
/// every rotation through the fault gate, so the pipeline is genuinely
/// exposed.
#[test]
fn boot_jobs_under_faults_bit_correct_or_classified() {
    let bp = he_serve::BootParams::shallow();
    let params = bp.he_params(4, 50);
    let key_seed = 7u64;
    let (_ref_ctx, ref_boot, input) = boot_reference(bp, params, key_seed);
    let reference = ct_bits(ref_boot.bootstrap(&input));

    let (server, _sim) = {
        let sim = SimBackend::titan_v();
        let ctx = HeContext::with_backend(params, sim.fork()).expect("sim context builds");
        let server = HeServer::start(
            ctx,
            ServeConfig {
                workers: 1,
                batching: false,
                key_seed,
                boot: Some(bp),
                ..ServeConfig::default()
            },
        );
        sim.set_fault_plan(Some(
            FaultPlan::seeded(chaos_seed()).rate(FaultOp::Launch, 10),
        ));
        (server, sim)
    };

    let tickets: Vec<_> = (0..6)
        .map(|_| {
            server
                .submit(TenantId(0), Request::Boot { ct: input.clone() })
                .expect("boot job admitted")
        })
        .collect();
    let mut correct = 0u32;
    let mut classified = 0u32;
    for t in tickets {
        match t.wait().expect("answered, not dropped").response {
            Response::Bootstrapped(ct) => {
                assert_eq!(ct_bits(ct), reference, "served bootstrap bits drifted");
                correct += 1;
            }
            Response::Failed(ServeError::Fault { .. }) => classified += 1,
            other => panic!("unexpected answer {other:?}"),
        }
    }
    assert_eq!(correct + classified, 6, "every ticket answered once");
    assert!(correct >= 1, "no boot job survived modest fault rates");
    let snap = server.shutdown();
    assert_eq!(snap.worker_panics, 0, "chaos must not panic a worker");
    assert_eq!(snap.failed(), u64::from(classified));
}

/// Launch faults at 10‰ across whole served bootstraps: each bootstrap
/// runs on one armed pool member, so every launch of it — mod-raise,
/// rotations, plaintext products, EvalMod's multiplies and every
/// rescale — passes the fault gate. A transient fault is re-drawn in
/// place (visible as `op_retries`); one that outlasts the re-draws
/// re-runs the job. Every answer is bit-correct or classified, and the
/// draw ledger balances: each draw is a launch, an in-place re-draw or
/// the draw of a fault that latched.
#[test]
fn whole_bootstraps_under_launch_faults_bit_correct_or_classified() {
    let bp = he_serve::BootParams::shallow();
    let params = bp.he_params(4, 50);
    let key_seed = 7u64;
    let (_ref_ctx, ref_boot, input) = boot_reference(bp, params, key_seed);
    let reference = ct_bits(ref_boot.bootstrap(&input));

    let sim = SimBackend::titan_v();
    let ctx = HeContext::with_backend(params, sim.fork()).expect("sim context builds");
    let server = HeServer::start(
        ctx,
        ServeConfig {
            workers: 1,
            batching: false,
            key_seed,
            boot: Some(bp),
            ..ServeConfig::default()
        },
    );
    let launched = || sim.with_gpu(|gpu| gpu.trace.len() as u64);
    let before = launched();
    sim.set_fault_plan(Some(
        FaultPlan::seeded(chaos_seed()).rate(FaultOp::Launch, 10),
    ));

    let tickets: Vec<_> = (0..4)
        .map(|_| {
            server
                .submit(TenantId(0), Request::Boot { ct: input.clone() })
                .expect("boot job admitted")
        })
        .collect();
    let mut classified = 0u64;
    for t in tickets {
        match t.wait().expect("answered, not dropped").response {
            Response::Bootstrapped(ct) => {
                assert_eq!(ct_bits(ct), reference, "served bootstrap bits drifted");
            }
            Response::Failed(ServeError::Fault { .. }) => classified += 1,
            other => panic!("unexpected answer {other:?}"),
        }
    }
    let snap = server.shutdown();
    let launches = launched() - before;
    let (drawn, (transient, sticky, oom)) = sim
        .with_gpu(|gpu| gpu.fault_plan().map(|p| (p.ops_seen(), p.injected())))
        .expect("plan is armed");
    assert_eq!((sticky, oom), (0, 0), "a launch-only plan");
    assert!(transient >= 1, "no transient fault fired");
    assert!(snap.op_retries >= 1, "no fault was re-drawn in place");
    assert_eq!(
        drawn,
        launches + snap.op_retries + snap.faults.transient,
        "a launch of a bootstrap drew nothing"
    );
    assert_eq!(snap.worker_panics, 0, "chaos must not panic a worker");
    assert_eq!(snap.failed(), classified);
}

/// Rotation keys and DFT diagonals live in shared device memory, not in
/// any pool member: after a sticky fault wedges the serving evaluator
/// (quarantine + re-fork), a post-recovery Boot job still completes
/// bit-correct against the CPU reference.
#[test]
fn rotation_keys_survive_quarantine_and_refork() {
    let bp = he_serve::BootParams::shallow();
    let params = bp.he_params(4, 50);
    let key_seed = 7u64;
    let (_ref_ctx, ref_boot, input) = boot_reference(bp, params, key_seed);
    let reference = ct_bits(ref_boot.bootstrap(&input));

    let sim = SimBackend::titan_v();
    let ctx = HeContext::with_backend(params, sim.fork()).expect("sim context builds");
    let server = HeServer::start(
        ctx,
        ServeConfig {
            workers: 1,
            batching: false,
            key_seed,
            boot: Some(bp),
            ..ServeConfig::default()
        },
    );

    // Wedge the device partway into the first bootstrap.
    sim.set_fault_plan(Some(FaultPlan::seeded(chaos_seed()).sticky_after(20)));
    let t = server
        .submit(TenantId(0), Request::Boot { ct: input.clone() })
        .expect("boot job admitted");
    match t.wait().expect("answered").response {
        Response::Failed(ServeError::Fault { .. }) => {}
        Response::Bootstrapped(_) => panic!("sticky plan should wedge the first bootstrap"),
        other => panic!("unexpected answer {other:?}"),
    }
    assert!(
        server.context().quarantined_count() >= 1,
        "the wedged pool member was never quarantined"
    );

    // Device heals (plan disarmed): the re-forked evaluators must find
    // the rotation keys and diagonals still resident and produce the
    // exact reference bits.
    sim.set_fault_plan(None);
    let t = server
        .submit(TenantId(0), Request::Boot { ct: input.clone() })
        .expect("boot job admitted");
    match t.wait().expect("answered").response {
        Response::Bootstrapped(ct) => {
            assert_eq!(
                ct_bits(ct),
                reference,
                "post-recovery bootstrap diverged: rotation keys did not survive"
            );
        }
        other => panic!("expected a bootstrapped answer after recovery, got {other:?}"),
    }
    server.shutdown();
}
