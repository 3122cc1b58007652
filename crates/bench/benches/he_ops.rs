//! Wall-clock benchmarks of the HE layer — the workload whose NTT share
//! motivates the paper — plus the device-resident `SimBackend` chain,
//! whose steady-state transfer count is recorded as a pseudo-benchmark so
//! `bench_guard` can gate residency regressions
//! (`steady_transfers_plus_one <= 1.0 * unit` holds iff transfers == 0).

use criterion::{criterion_group, criterion_main, Criterion};
use he_lite::{sampling, HeContext, HeLiteParams};
use ntt_gpu::SimBackend;
use std::hint::black_box;
use std::io::Write as _;

/// Append a non-timing value to the `CRITERION_JSON` recording in the
/// same `{"id", "ns_per_iter"}` shape the criterion shim writes, so
/// `bench_guard` ratio gates can reference it like any benchmark.
fn record_value(id: &str, value: f64) {
    println!("bench: {id:<48} {value:>14.1} (recorded value)");
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let _ = writeln!(
                f,
                "{{\"id\": \"{id}\", \"ns_per_iter\": {value:.1}, \"iters\": 1}}"
            );
        }
    }
}

fn params() -> HeLiteParams {
    HeLiteParams {
        log_n: 11,
        prime_bits: 55,
        levels: 3,
        scale_bits: 50,
        gadget_bits: 12,
        error_eta: 6,
    }
}

fn bench_he(c: &mut Criterion) {
    let ctx = HeContext::new(params()).unwrap();
    let mut rng = sampling::seeded_rng(11);
    let keys = ctx.keygen(&mut rng);
    let pt_a = ctx.encode(&[1.5, 2.5, -3.0]);
    let pt_b = ctx.encode(&[0.5, -1.0, 2.0]);
    let ct_a = ctx.encrypt(&pt_a, &keys.public, &mut rng);
    let ct_b = ctx.encrypt(&pt_b, &keys.public, &mut rng);

    let mut g = c.benchmark_group("he_lite_n2048_l3");
    g.sample_size(10);

    g.bench_function("encrypt", |b| {
        let mut rng = sampling::seeded_rng(12);
        b.iter(|| ctx.encrypt(black_box(&pt_a), &keys.public, &mut rng))
    });

    g.bench_function("decrypt", |b| {
        b.iter(|| ctx.decrypt(black_box(&ct_a), &keys.secret))
    });

    g.bench_function("add", |b| b.iter(|| ctx.add(black_box(&ct_a), &ct_b)));

    g.bench_function("multiply_relinearize_rescale", |b| {
        b.iter(|| ctx.multiply(black_box(&ct_a), &ct_b, &keys.relin))
    });

    g.bench_function("forward_ntt_all_primes", |b| {
        let ring = ctx.ring();
        let poly = sampling::uniform_poly(ring, &mut sampling::seeded_rng(13));
        b.iter(|| {
            let mut p = poly.clone();
            p.to_evaluation(ring);
            p
        })
    });

    g.finish();
}

/// The device-resident chain on the simulated GPU: times the resident
/// multiply and records the steady-state transfer count for the residency
/// gate.
fn bench_he_sim_resident(c: &mut Criterion) {
    let params = HeLiteParams {
        log_n: 8,
        prime_bits: 50,
        levels: 3,
        scale_bits: 46,
        gadget_bits: 10,
        error_eta: 6,
    };
    let ctx = HeContext::with_backend(params, Box::new(SimBackend::titan_v())).unwrap();
    let mut rng = sampling::seeded_rng(21);
    let keys = ctx.keygen(&mut rng);
    let ct_a = ctx.encrypt(&ctx.encode(&[1.5, 2.5]), &keys.public, &mut rng);
    let ct_b = ctx.encrypt(&ctx.encode(&[0.5, -1.0]), &keys.public, &mut rng);

    let mut g = c.benchmark_group("he_lite_sim_n256_l3");
    g.bench_function("multiply_resident", |b| {
        b.iter(|| ctx.multiply(black_box(&ct_a), &ct_b, &keys.relin))
    });
    g.finish();

    // Residency gate inputs: one steady-state multiply after everything
    // is warm must cross the bus zero times.
    let before = ctx.transfer_stats();
    let _ = ctx.multiply(&ct_a, &ct_b, &keys.relin);
    let steady = ctx.transfer_stats().since(&before).host_transfers();
    record_value(
        "he_lite_sim_n256_l3/steady_transfers_plus_one",
        (steady + 1) as f64,
    );
    record_value("he_lite_sim_n256_l3/unit", 1.0);
}

/// The stream scheduler's overlap gate inputs: 4 pooled evaluators on 4
/// streams run independent encrypt → multiply → rescale chains; the
/// overlapped modeled device time must undercut the serialized schedule
/// by ≥ 1.3× (`overlapped <= 0.77 * serialized` in `bench_smoke.sh`).
/// Values are modeled nanoseconds from one deterministic run, so the
/// gate holds on any host.
fn bench_sim_streams(_c: &mut Criterion) {
    let r = ntt_bench::experiments::streams(8, 4);
    record_value(
        "sim_streams_4ev/overlapped_device_time",
        r.timeline.overlapped_s * 1e9,
    );
    record_value(
        "sim_streams_4ev/serialized_device_time",
        r.timeline.serialized_s * 1e9,
    );
    println!(
        "bench: sim_streams_4ev overlap = {:.2}x over {} launches",
        r.overlap(),
        r.timeline.launches
    );
}

/// The request batcher's gate inputs: the same 8 encrypt → eval →
/// decrypt serving jobs dispatched through the he-serve batcher once as
/// three flat group calls and once one job at a time. Batched modeled
/// device time must undercut the unbatched control by ≥ 1.5×
/// (`batched <= 0.667 * unbatched` in `bench_smoke.sh`). Both sides are
/// modeled nanoseconds from one deterministic run, so the gate holds on
/// any host.
fn bench_serve_batching(_c: &mut Criterion) {
    let r = ntt_bench::experiments::serve_batching(6, 8);
    record_value(
        "he_serve_sim/batched_device_time",
        r.batched.serialized_s * 1e9,
    );
    record_value(
        "he_serve_sim/unbatched_device_time",
        r.unbatched.serialized_s * 1e9,
    );
    println!(
        "bench: he_serve_sim batching = {:.2}x over {} jobs",
        r.speedup(),
        r.jobs
    );
}

/// The fault plane's zero-fault overhead gate inputs: the same jobs
/// through the fallible serve pipelines with the plane disarmed vs
/// armed with all-zero rates. The armed modeled device time must stay
/// within 5% of off (`fault_plane_armed_zero_device_time <= 1.05 *
/// fault_plane_off_device_time` in `bench_smoke.sh`) — the fault checks
/// are bookkeeping only and must never reach the modeled timeline when
/// no fault fires.
fn bench_serve_fault_overhead(_c: &mut Criterion) {
    let r = ntt_bench::experiments::serve_fault_overhead(6, 8);
    record_value(
        "he_serve_sim/fault_plane_off_device_time",
        r.off.serialized_s * 1e9,
    );
    record_value(
        "he_serve_sim/fault_plane_armed_zero_device_time",
        r.armed.serialized_s * 1e9,
    );
    println!(
        "bench: he_serve_sim fault plane overhead = {:.4}x over {} jobs",
        r.overhead(),
        r.jobs
    );
}

/// The flagship bootstrap workload's gate inputs: steady-state
/// CKKS-style bootstraps on the simulated device, with modeled device
/// time split by kernel class. Two gates in `bench_smoke.sh`:
///
/// * op-mix — NTT + key-switch kernels carry ≥ 60% of the modeled
///   device time (`total_device_time <= 1.6667 *
///   ntt_keyswitch_device_time`), the paper's motivating measurement.
///   Its inputs come from the 21-level `BootParams::deep()` pipeline at
///   N = 2⁸ (the depth the paper's claim is about): on a small ring a
///   shallow bootstrap is launch-bound, and once every NTT there is one
///   whole-row launch its element-wise kernels outweigh it;
/// * residency — the steady-state shallow bootstrap at N = 2⁴ moves
///   zero words across the bus (`steady_transfers_plus_one <= 1.0 *
///   unit`).
///
/// Both sides of each gate come from one deterministic modeled run, so
/// they hold on any host.
fn bench_bootstrap(_c: &mut Criterion) {
    let deep = ntt_bench::experiments::bootstrap_deep(8, 8);
    record_value("he_boot_sim/total_device_time", deep.total_s() * 1e9);
    record_value(
        "he_boot_sim/ntt_keyswitch_device_time",
        (deep.ntt.time_s + deep.key_switch.time_s) * 1e9,
    );
    let shallow = ntt_bench::experiments::bootstrap(4);
    record_value(
        "he_boot_sim/steady_transfers_plus_one",
        (shallow.steady.host_transfers() + 1) as f64,
    );
    record_value("he_boot_sim/unit", 1.0);
    println!(
        "bench: he_boot_sim op-mix = {:.1}% NTT+key-switch over {} launches (deep, N=2^8); \
         shallow N=2^4 reads {:.1}%",
        deep.ntt_keyswitch_share() * 100.0,
        deep.ntt.launches + deep.key_switch.launches + deep.pointwise.launches,
        shallow.ntt_keyswitch_share() * 100.0
    );
}

/// The hierarchical 4-step NTT's gate inputs: modeled device time at the
/// bootstrapping-scale ring vs the single-kernel family. Two gates in
/// `bench_smoke.sh`:
///
/// * at N = 2¹⁶ the 3-kernel 4-step plan must not exceed the best
///   single fused-SMEM kernel's cost extrapolated from N = 2¹³ by its
///   `c · N log N` scaling law (`four_step_device_time <= 1.0 *
///   single_kernel_extrapolated_device_time`);
/// * at N = 2¹³ the backend's auto-routed forward (calibrated over
///   radix-2, fused-SMEM and hierarchical candidates) stays within 5%
///   of the best single fused kernel (`auto_device_time <= 1.05 *
///   best_single_kernel_device_time`) — the 4-step rollout cannot
///   regress mid-size rings.
///
/// All values are modeled time from one deterministic run, so the gates
/// hold on any host.
fn bench_ntt_hier(_c: &mut Criterion) {
    let r = ntt_bench::experiments::hier_bench(13, 16, 2);
    record_value(
        "ntt_hier_n65536/four_step_device_time",
        r.four_step_big_us * 1e3,
    );
    record_value(
        "ntt_hier_n65536/single_kernel_extrapolated_device_time",
        r.single_extrapolated_big_us * 1e3,
    );
    record_value("ntt_hier_n8192/auto_device_time", r.auto_small_us * 1e3);
    record_value(
        "ntt_hier_n8192/best_single_kernel_device_time",
        r.best_single_small_us * 1e3,
    );
    println!(
        "bench: ntt_hier 4-step {}x{} at 2^{} = {:.1} us vs extrapolated single-kernel {:.1} us",
        r.split_big,
        (1usize << r.log_big) / r.split_big,
        r.log_big,
        r.four_step_big_us,
        r.single_extrapolated_big_us
    );
}

/// The multi-device sharding gate inputs: modeled device time for the
/// same deep-chain multiply/relinearize/rescale job on K = 4 simulated
/// devices vs a single device, at a bootstrapping-adjacent ring
/// (N = 2¹⁵, 16 levels — scaling efficiency is a function of work per
/// launch, so the gate runs where the kernels are row-work-bound; see
/// `experiments::sharding_params`). One gate in `bench_smoke.sh`:
///
/// * `ntt_sharded/k4_device_time <= 0.45 * ntt_sharded/k1_device_time`
///   — the 4-way RNS row partition must convert to real modeled
///   speedup through the key-switch all-gather traffic, not just
///   divide the row counts.
///
/// The sweep itself asserts every configuration decrypts bit-identical
/// to the CPU reference, so the gate cannot pass on a partition that
/// broke the math. Both sides are modeled time from one deterministic
/// run, so the gate holds on any host.
fn bench_sharding(_c: &mut Criterion) {
    let sweep = ntt_bench::experiments::sharding(15, 16, 1, &[1, 4]);
    let time_of = |k: usize| {
        sweep
            .reports
            .iter()
            .find(|r| r.shards == k)
            .expect("sweep ran this shard count")
            .timeline
            .overlapped_s
    };
    let (t1, t4) = (time_of(1), time_of(4));
    record_value("ntt_sharded/k1_device_time", t1 * 1e9);
    record_value("ntt_sharded/k4_device_time", t4 * 1e9);
    println!(
        "bench: ntt_sharded K=4 {:.1} us vs K=1 {:.1} us modeled device time ({:.2}x)",
        t4 * 1e6,
        t1 * 1e6,
        t4 / t1.max(f64::MIN_POSITIVE)
    );
}

criterion_group!(
    benches,
    bench_he,
    bench_he_sim_resident,
    bench_sim_streams,
    bench_serve_batching,
    bench_serve_fault_overhead,
    bench_bootstrap,
    bench_ntt_hier,
    bench_sharding
);
criterion_main!(benches);
