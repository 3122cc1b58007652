//! The stream/queue model, hardened end to end.
//!
//! Three families of checks:
//!
//! * **Interleaving property** — any schedule of launches, uploads,
//!   downloads, event records and event waits, distributed across several
//!   streams, produces results **bit-identical** to the same schedule on
//!   one stream. The simulator executes functionally in enqueue order
//!   (streams only change the *modeled time*), and this suite is the
//!   regression harness pinning that contract, together with the
//!   scheduler invariants: the overlapped makespan never exceeds the
//!   serialized schedule, and waits never move a stream backwards.
//! * **Cross-stream ordering** — event fences order producer/consumer
//!   pairs in modeled time; independent streams overlap.
//! * **Deadlock freedom** — N threads hammering one pooled `HeContext`
//!   (N evaluators on N streams, shared keys, contended device mutex and
//!   bus) all complete with correct results. Event waits only ever push
//!   cursors forward, so the schedule cannot deadlock by construction;
//!   this test pins the lock discipline around it.

use ntt_warp::gpu::SimBackend;
use ntt_warp::he::{sampling, HeContext, HeLiteParams};
use ntt_warp::sim::{Buf, Event, Gpu, GpuConfig, LaunchConfig, WarpCtx, WarpKernel};
use proptest::prelude::*;

/// `x <- x * 3 + c` over a whole buffer — deliberately non-commutative
/// across different `c`, so any functional reordering of the schedule
/// changes the bits.
struct AffineKernel {
    buf: Buf,
    c: u64,
}

impl WarpKernel for AffineKernel {
    fn phases(&self) -> usize {
        1
    }
    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let lanes = ctx.lanes();
        let addrs: Vec<Option<usize>> = (0..lanes)
            .map(|l| {
                let t = ctx.global_thread(l);
                (t < self.buf.len()).then(|| self.buf.word(t))
            })
            .collect();
        let vals = ctx.gmem_load(&addrs);
        let writes: Vec<Option<(usize, u64)>> = (0..lanes)
            .map(|l| {
                let a = addrs[l]?;
                Some((a, vals[l]?.wrapping_mul(3).wrapping_add(self.c)))
            })
            .collect();
        ctx.gmem_store(&writes);
    }
}

/// One step of a multi-stream schedule. `stream_sel` picks the stream
/// (modulo the number of streams in the run), `buf_sel` the buffer.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Launch the affine kernel with constant `c`.
    Launch { c: u64 },
    /// Overwrite the buffer with a seeded pattern (host→device).
    Upload { seed: u64 },
    /// Device→host read of the whole buffer (output is recorded).
    Download,
    /// Record an event on the step's stream.
    RecordEvent,
    /// Wait (on the step's stream) for a previously recorded event.
    WaitEvent { idx: usize },
}

impl Op {
    /// Decode a raw `(code, arg)` pair from the property generator.
    fn decode(code: u8, arg: u64) -> Op {
        match code % 5 {
            0 => Op::Launch { c: arg % 100 },
            1 => Op::Upload { seed: arg % 1000 },
            2 => Op::Download,
            3 => Op::RecordEvent,
            _ => Op::WaitEvent {
                idx: arg as usize % 8,
            },
        }
    }
}

/// Run a schedule on `n_streams` streams; return every download plus the
/// final contents of all buffers, and the device for invariant checks.
fn run_schedule(schedule: &[(u8, u8, Op)], n_streams: usize) -> (Vec<Vec<u64>>, Gpu) {
    const WORDS: usize = 64;
    let mut gpu = Gpu::new(GpuConfig::titan_v());
    let bufs: Vec<Buf> = (0..3)
        .map(|i| gpu.gmem.alloc_from(&vec![i as u64 + 1; WORDS]))
        .collect();
    let streams: Vec<_> = (0..n_streams).map(|_| gpu.create_stream()).collect();
    let mut events: Vec<Event> = Vec::new();
    let mut outputs = Vec::new();
    for &(stream_sel, buf_sel, op) in schedule {
        let s = streams[stream_sel as usize % n_streams];
        let buf = bufs[buf_sel as usize % bufs.len()];
        gpu.set_active_stream(s);
        match op {
            Op::Launch { c } => {
                let cfg = LaunchConfig::new("affine", 1, WORDS).regs_per_thread(16);
                gpu.launch(&AffineKernel { buf, c }, &cfg);
            }
            Op::Upload { seed } => {
                let data: Vec<u64> = (0..WORDS as u64).map(|i| i.wrapping_mul(seed)).collect();
                gpu.stream_upload(buf, 0, &data);
            }
            Op::Download => {
                let mut out = vec![0u64; WORDS];
                gpu.stream_download(buf, &mut out);
                outputs.push(out);
            }
            Op::RecordEvent => events.push(gpu.record_event(s)),
            Op::WaitEvent { idx } => {
                if !events.is_empty() {
                    let e = events[idx % events.len()];
                    gpu.wait_event(s, e);
                }
            }
        }
    }
    for buf in bufs {
        outputs.push(gpu.gmem.slice(buf).to_vec());
    }
    (outputs, gpu)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Multi-stream enqueues are bit-identical to the serialized (single
    /// stream) schedule, and the scheduler invariants hold.
    #[test]
    fn interleaved_streams_match_serialized_schedule(
        raw in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u64>()), 1..40),
        n_streams in 2usize..5,
    ) {
        let schedule: Vec<(u8, u8, Op)> = raw
            .iter()
            .map(|&(s, b, code, arg)| (s, b, Op::decode(code, arg)))
            .collect();
        let (multi, gpu_multi) = run_schedule(&schedule, n_streams);
        let (serial, gpu_serial) = run_schedule(&schedule, 1);
        prop_assert_eq!(&multi, &serial, "functional results diverge");

        let tm = gpu_multi.timeline();
        let ts = gpu_serial.timeline();
        // Same command counts either way.
        prop_assert_eq!(tm.launches, ts.launches);
        prop_assert_eq!(tm.transfers, ts.transfers);
        // The serialized schedule's cost is stream-independent…
        prop_assert!((tm.serialized_s - ts.serialized_s).abs() < 1e-12);
        // …and overlap can only shrink the makespan, never grow it.
        prop_assert!(tm.overlapped_s <= tm.serialized_s + 1e-9);
        prop_assert!(ts.overlapped_s <= ts.serialized_s + 1e-9);
        // One stream = fully serialized: makespan equals the serial sum.
        prop_assert!((ts.overlapped_s - ts.serialized_s).abs() < 1e-9);
    }
}

/// Producer/consumer across streams: the consumer's kernel must not start
/// (in modeled time) before the producer's event.
#[test]
fn event_fences_order_producer_consumer() {
    let mut gpu = Gpu::new(GpuConfig::titan_v());
    let buf = gpu.gmem.alloc(256);
    let (s1, s2) = (gpu.create_stream(), gpu.create_stream());

    gpu.set_active_stream(s1);
    let cfg = LaunchConfig::new("produce", 8, 256).regs_per_thread(32);
    gpu.launch(&AffineKernel { buf, c: 7 }, &cfg);
    let produced = gpu.record_event(s1);

    gpu.set_active_stream(s2);
    gpu.wait_event(s2, produced);
    let span = gpu.streams.enqueue_kernel(s2, 1e-6, 1);
    assert!(
        span.start_s >= produced.time_s(),
        "consumer started at {} before producer event {}",
        span.start_s,
        produced.time_s()
    );
}

/// Independent small kernels on independent streams overlap; the same
/// kernels on one stream do not.
#[test]
fn independent_streams_overlap_dependent_do_not() {
    let run = |n_streams: usize| -> f64 {
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let bufs: Vec<Buf> = (0..4).map(|_| gpu.gmem.alloc(256)).collect();
        let streams: Vec<_> = (0..n_streams).map(|_| gpu.create_stream()).collect();
        for (i, &buf) in bufs.iter().enumerate() {
            gpu.set_active_stream(streams[i % n_streams]);
            let cfg = LaunchConfig::new("k", 1, 256).regs_per_thread(32);
            gpu.launch(&AffineKernel { buf, c: 1 }, &cfg);
        }
        let t = gpu.timeline();
        t.overlap()
    };
    assert!((run(1) - 1.0).abs() < 1e-9, "one stream cannot overlap");
    assert!(
        run(4) > 2.0,
        "four 1-SM kernels on four streams must overlap, got {:.2}x",
        run(4)
    );
}

fn pool_params() -> HeLiteParams {
    HeLiteParams {
        log_n: 5,
        prime_bits: 50,
        levels: 2,
        scale_bits: 40,
        gadget_bits: 10,
        error_eta: 4,
    }
}

/// N pooled evaluators on N streams all complete under contention: every
/// thread drives encrypt → multiply → decrypt chains against shared keys
/// on one context. A deadlock hangs the suite; wrong fencing or broken
/// pool checkout shows up as wrong plaintexts.
#[test]
fn n_pooled_evaluators_on_n_streams_complete_under_contention() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 3;
    let ctx = HeContext::with_backend(pool_params(), Box::new(SimBackend::titan_v())).unwrap();
    let keys = ctx.keygen(&mut sampling::seeded_rng(9));
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (ctx, keys, barrier) = (&ctx, &keys, &barrier);
                s.spawn(move || {
                    let mut rng = sampling::seeded_rng(50 + t as u64);
                    barrier.wait();
                    for round in 0..ROUNDS {
                        let v = (t * ROUNDS + round) as f64 + 1.0;
                        let a = ctx.encrypt(&ctx.encode(&[v]), &keys.public, &mut rng);
                        let b = ctx.encrypt(&ctx.encode(&[2.0]), &keys.public, &mut rng);
                        let prod = ctx.multiply(&a, &b, &keys.relin);
                        let out = ctx.decode(&ctx.decrypt(&prod, &keys.secret));
                        assert!(
                            (out[0] - 2.0 * v).abs() < 1e-2,
                            "thread {t} round {round}: {} != {}",
                            out[0],
                            2.0 * v
                        );
                        let sum = ctx.add(&a, &b);
                        let out = ctx.decode(&ctx.decrypt(&sum, &keys.secret));
                        assert!((out[0] - (v + 2.0)).abs() < 1e-3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    assert!(ctx.evaluator_count() >= 1);
}

/// The serialized schedule and a per-fork-stream schedule produce
/// bit-identical polynomials through the evaluator layer (streams are a
/// performance model, never a semantic one), and the forked run's
/// overlapped time never exceeds its serialized time.
#[test]
fn forked_evaluator_chains_are_bit_identical_to_root() {
    use ntt_warp::core::backend::{Evaluator, NttBackend};
    use ntt_warp::core::{RnsPoly, RnsRing};

    let ring = RnsRing::new(64, ntt_warp::math::ntt_primes(50, 128, 3)).unwrap();
    let sample = |seed: i64| {
        let coeffs: Vec<i64> = (0..64).map(|i| (seed * (i + 2)) % 31 - 15).collect();
        RnsPoly::from_i64_coeffs(&ring, &coeffs)
    };

    let chain = |ev: &mut Evaluator, seed: i64| -> RnsPoly {
        let (mut x, mut y) = (sample(seed), sample(seed + 1));
        ev.make_resident(&mut x);
        ev.make_resident(&mut y);
        ev.to_evaluation(&mut x);
        ev.to_evaluation(&mut y);
        ev.mul_pointwise(&mut x, &y);
        ev.add_assign(&mut x, &y);
        ev.to_coefficient(&mut x);
        ev.rescale(&mut x);
        x.sync();
        x
    };

    // Root backend only (everything on the default stream).
    let root = SimBackend::titan_v();
    let handle = root.memory_handle();
    let mut ev_root = Evaluator::with_backend(&ring, Box::new(root));
    let serial: Vec<RnsPoly> = (0..3).map(|i| chain(&mut ev_root, 100 + i)).collect();

    // Fresh device, one fork per chain.
    let root2 = SimBackend::titan_v();
    let handle2 = root2.memory_handle();
    let mut forks: Vec<Evaluator> = (0..3)
        .map(|_| Evaluator::new(ring.plan(), root2.fork()))
        .collect();
    drop(root2);
    let forked: Vec<RnsPoly> = forks
        .iter_mut()
        .enumerate()
        .map(|(i, ev)| chain(ev, 100 + i as i64))
        .collect();

    assert_eq!(serial, forked, "stream assignment changed the bits");
    let lock = |h: &std::sync::Arc<std::sync::Mutex<ntt_warp::gpu::backend::SimMemory>>| {
        h.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .gpu()
            .timeline()
    };
    let (t1, t2) = (lock(&handle), lock(&handle2));
    assert!(t1.overlapped_s <= t1.serialized_s + 1e-9);
    assert!(t2.overlapped_s <= t2.serialized_s + 1e-9);
    assert_eq!(t1.launches, t2.launches, "same work either way");
}

/// ROADMAP item o: the same chains driven by real host threads — racing
/// on the shared device mutex, allocator and bus — must produce results
/// bit-identical to the serialized single-threaded driver, whatever
/// interleaving the OS scheduler picks. Flushes latent stream-binding
/// races the deterministic fork driver cannot.
#[test]
fn threaded_stream_chains_match_serialized_driver() {
    use ntt_bench::experiments;

    let serial = experiments::streams_run(6, 4);
    let threaded = experiments::streams_threaded(6, 4);
    assert_eq!(
        serial.digest, threaded.digest,
        "host threading changed the bits"
    );
    let (ts, tt) = (serial.report.timeline, threaded.report.timeline);
    assert!(tt.overlapped_s <= tt.serialized_s + 1e-9);
    assert_eq!(ts.launches, tt.launches, "same work either way");
    assert_eq!(ts.transfers, tt.transfers, "same staging either way");
}
