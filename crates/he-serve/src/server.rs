//! The serving loop: worker threads draining the fair queue into the
//! batcher through the context's evaluator pool, with a self-healing
//! dispatch path — bounded retry on transient device faults, evaluator
//! quarantine on fatal ones, and graceful degradation to a host/CPU
//! evaluator when the device stays down.

use crate::batcher::{job_seed, Batcher, EncryptJob};
use crate::metrics::{FaultCounts, LatencyHistogram, MetricsSnapshot, TenantSnapshot};
use crate::queue::FairQueue;
use crate::request::{Completed, Job, Request, Response, ServeError, SubmitError, TenantId};
use he_boot::{BootParams, Bootstrapper};
use he_lite::{sampling, Ciphertext, HeContext};
use ntt_core::backend::{BackendError, CpuBackend, Evaluator, FaultClass, TransferStats};
use ntt_core::RnsRing;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bounded-retry policy for transient device faults.
///
/// The pause before attempt `k` is `backoff · 2^(k-1)` plus a
/// deterministic jitter in `[0, pause/2)`, capped at `backoff_cap` and
/// never sleeping past the tightest live deadline in the batch. Jitter is
/// derived from a server-global counter (no entropy source), so runs are
/// reproducible while concurrent workers still decorrelate.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retry attempts after the first failure (0 disables retry).
    pub max_retries: u32,
    /// Base pause before the first retry.
    pub backoff: Duration,
    /// Upper bound on the exponential pause.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    /// 3 retries from a 50 µs base pause, capped at 100× the base.
    fn default() -> Self {
        let backoff = Duration::from_micros(50);
        RetryPolicy {
            max_retries: 3,
            backoff,
            backoff_cap: backoff * 100,
        }
    }
}

/// Tuning knobs for [`HeServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-tenant queue bound; submits past it get
    /// [`SubmitError::Backpressure`].
    pub queue_capacity: usize,
    /// Deficit round-robin quantum in request cost units
    /// ([`Request::cost`]).
    pub quantum: u64,
    /// Most jobs one dispatch drains (the batching window).
    pub batch_max: usize,
    /// Worker threads draining the queue. Each dispatch borrows an
    /// evaluator from the context pool, so the pool grows to at most
    /// this many.
    pub workers: usize,
    /// When false, workers drain one job at a time — the unbatched
    /// control used to measure the batching win.
    pub batching: bool,
    /// Seeds key generation and the per-job encryption randomness
    /// domain, making a serving run reproducible end to end.
    pub key_seed: u64,
    /// Per-request deadline measured from submit. A job that has not
    /// executed when it expires is answered
    /// [`ServeError::DeadlineExceeded`]; retry pauses never sleep past
    /// it. `None` means jobs wait forever.
    pub deadline: Option<Duration>,
    /// Retry policy for transient device faults.
    pub retry: RetryPolicy,
    /// When set, the server builds a [`Bootstrapper`] at startup (keys
    /// and DFT diagonals resident next to the serving keys) and accepts
    /// [`Request::Boot`] jobs. The context must provide at least
    /// [`BootParams::min_levels`] levels.
    pub boot: Option<BootParams>,
}

impl Default for ServeConfig {
    /// No deadline, and [`RetryPolicy::default`].
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            quantum: 8,
            batch_max: 16,
            workers: 2,
            batching: true,
            key_seed: 7,
            deadline: None,
            retry: RetryPolicy::default(),
            boot: None,
        }
    }
}

/// A claim on one submitted job's answer.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Completed>,
    cancel: Arc<AtomicBool>,
}

impl Ticket {
    /// Block until the server answers. `None` only if the server was
    /// torn down with the job still queued, or the dispatch that held
    /// the job panicked (counted in
    /// [`MetricsSnapshot::worker_panics`]).
    pub fn wait(self) -> Option<Completed> {
        self.rx.recv().ok()
    }

    /// Ask the server to drop this job. Best-effort: a job already
    /// executing completes normally; a job still queued is answered
    /// [`ServeError::Cancelled`] at dispatch.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One tenant's cost-weighted share of a dispatch's transfer delta:
/// `delta · cost / total_cost` (integer floor; zero total means no
/// executed jobs, so no attribution).
fn cost_share(delta_words: u64, cost: u64, total_cost: u64) -> u64 {
    (delta_words * cost).checked_div(total_cost).unwrap_or(0)
}

#[derive(Default)]
struct TenantMetrics {
    completed: u64,
    failed: u64,
    latency: LatencyHistogram,
    upload_words: u64,
    download_words: u64,
}

#[derive(Default)]
struct MetricsInner {
    tenants: HashMap<u32, TenantMetrics>,
    batches: u64,
    batched_jobs: u64,
    retries: u64,
    faults: FaultCounts,
    degraded_jobs: u64,
    deadline_misses: u64,
    cancelled: u64,
    worker_panics: u64,
}

/// What one job's dispatch produced, for whole-drain transfer
/// attribution. `executed` is false for jobs shed before touching the
/// backend (cancelled / already past deadline), which therefore earn no
/// share of the transfer delta.
struct JobOutcome {
    tenant: TenantId,
    cost: u64,
    executed: bool,
}

/// A lazily-grown pool of host/CPU evaluators for degraded dispatches.
///
/// The pre-pool design held one `Mutex<Option<Evaluator>>`: once the
/// device wedged, every degraded group serialized on that single
/// evaluator, collapsing worker concurrency exactly when throughput was
/// already hurting. Here each checkout pops an idle evaluator (or builds
/// a fresh one when none is free), so concurrent degraded groups
/// proceed in parallel; the pool high-water mark is bounded by the
/// worker count.
struct FallbackPool {
    idle: Mutex<Vec<Evaluator>>,
    /// Evaluators ever built — the pool's high-water mark (reported as
    /// [`MetricsSnapshot::fallback_evaluators`]).
    built: AtomicU64,
}

impl FallbackPool {
    fn new() -> Self {
        FallbackPool {
            idle: Mutex::new(Vec::new()),
            built: AtomicU64::new(0),
        }
    }

    /// Run `f` on a checked-out host evaluator, returning the evaluator
    /// to the pool afterwards (host evaluators don't fault, so they are
    /// always safe to reuse).
    fn run<R>(&self, ring: &RnsRing, f: impl FnOnce(&mut Evaluator) -> R) -> R {
        let mut ev = lock(&self.idle).pop().unwrap_or_else(|| {
            self.built.fetch_add(1, Ordering::Relaxed);
            Evaluator::with_backend(ring, Box::new(CpuBackend::from_env()))
        });
        let out = f(&mut ev);
        lock(&self.idle).push(ev);
        out
    }

    fn built(&self) -> u64 {
        self.built.load(Ordering::Relaxed)
    }
}

struct ServerInner {
    ctx: Arc<HeContext>,
    batcher: Batcher,
    /// Built at startup when [`ServeConfig::boot`] is set; owns the
    /// rotation keys and DFT diagonals (shared device memory, not any
    /// pool member), so they survive evaluator quarantine + re-fork.
    boot: Option<Bootstrapper>,
    config: ServeConfig,
    queue: Mutex<FairQueue<Job>>,
    work_ready: Condvar,
    seqs: Mutex<HashMap<u32, u64>>,
    metrics: Mutex<MetricsInner>,
    shutdown: AtomicBool,
    /// Host/CPU evaluators groups degrade to when the device path
    /// fails. Bit-identical to the device path (the backends are
    /// conformant), so degradation is invisible in results.
    fallback: FallbackPool,
    /// Set after a fatal (sticky) device fault; later dispatches skip
    /// the device entirely instead of re-discovering the wedge.
    device_down: AtomicBool,
    /// Counter feeding the deterministic retry jitter.
    jitter_salt: AtomicU64,
}

/// A multi-tenant HE serving front end: submit jobs, get [`Ticket`]s,
/// read per-tenant metrics. See the crate docs for the architecture and
/// a full example.
pub struct HeServer {
    inner: Arc<ServerInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl HeServer {
    /// Generate keys from `config.key_seed` and spawn `config.workers`
    /// serving threads over `ctx`'s evaluator pool.
    pub fn start(ctx: HeContext, config: ServeConfig) -> Self {
        let ctx = Arc::new(ctx);
        let mut rng = sampling::seeded_rng(config.key_seed);
        let keys = ctx.keygen(&mut rng);
        let batcher = Batcher::new(&keys);
        let boot = config
            .boot
            .map(|bp| Bootstrapper::new(Arc::clone(&ctx), &keys, bp, &mut rng));
        let inner = Arc::new(ServerInner {
            queue: Mutex::new(FairQueue::new(config.queue_capacity, config.quantum)),
            work_ready: Condvar::new(),
            seqs: Mutex::new(HashMap::new()),
            metrics: Mutex::new(MetricsInner::default()),
            shutdown: AtomicBool::new(false),
            fallback: FallbackPool::new(),
            device_down: AtomicBool::new(false),
            jitter_salt: AtomicU64::new(0),
            ctx,
            batcher,
            boot,
            config,
        });
        let workers = (0..inner.config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("he-serve-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn serving worker")
            })
            .collect();
        HeServer {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Queue one job for `tenant`. Invalid jobs and backpressure are
    /// refused synchronously; admitted jobs answer through the returned
    /// [`Ticket`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] for jobs that can never execute,
    /// [`SubmitError::Backpressure`] when the tenant's queue is full,
    /// [`SubmitError::ShuttingDown`] after [`HeServer::shutdown`] began.
    pub fn submit(&self, tenant: TenantId, request: Request) -> Result<Ticket, SubmitError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let n = self.inner.ctx.params().n();
        match &request {
            Request::Encrypt { values } if values.len() > n => {
                return Err(SubmitError::Invalid("more values than slots"));
            }
            Request::Eval { weights, .. } if weights.len() > n => {
                return Err(SubmitError::Invalid("more weights than slots"));
            }
            Request::Eval { ct, .. } if ct.level() < 2 => {
                return Err(SubmitError::Invalid("no prime left to rescale into"));
            }
            Request::Boot { ct } => {
                let Some(boot) = &self.inner.boot else {
                    return Err(SubmitError::Invalid("server has no bootstrapper"));
                };
                if ct.level() != 1 {
                    return Err(SubmitError::Invalid("bootstrap input must be at level 1"));
                }
                if (ct.scale() / boot.input_scale() - 1.0).abs() > 1e-9 {
                    return Err(SubmitError::Invalid(
                        "bootstrap input must be encoded at the bootstrapper's input scale",
                    ));
                }
            }
            _ => {}
        }
        let seq = {
            let mut seqs = lock(&self.inner.seqs);
            let c = seqs.entry(tenant.0).or_insert(0);
            let seq = *c;
            *c += 1;
            seq
        };
        let (tx, rx) = mpsc::channel();
        let cancelled = Arc::new(AtomicBool::new(false));
        let now = Instant::now();
        let job = Job {
            tenant,
            seq,
            request,
            submitted_at: now,
            deadline: self.inner.config.deadline.map(|d| now + d),
            cancelled: Arc::clone(&cancelled),
            reply: tx,
        };
        let mut q = lock(&self.inner.queue);
        let capacity = q.capacity();
        q.push(tenant, job)
            .map_err(|_| SubmitError::Backpressure { tenant, capacity })?;
        drop(q);
        self.inner.work_ready.notify_one();
        Ok(Ticket {
            rx,
            cancel: cancelled,
        })
    }

    /// The context the server runs on.
    pub fn context(&self) -> &HeContext {
        &self.inner.ctx
    }

    /// The bootstrapping engine, when [`ServeConfig::boot`] was set —
    /// callers need it for [`Bootstrapper::input_scale`] when encoding
    /// [`Request::Boot`] inputs.
    pub fn bootstrapper(&self) -> Option<&Bootstrapper> {
        self.inner.boot.as_ref()
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    /// Jobs currently queued across all tenants.
    pub fn queued(&self) -> usize {
        lock(&self.inner.queue).queued()
    }

    /// A point-in-time copy of the per-tenant accounting.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.snapshot()
    }

    /// Stop accepting work, drain what is queued, join the workers and
    /// return the final accounting.
    pub fn shutdown(&self) -> MetricsSnapshot {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.work_ready.notify_all();
        for w in lock(&self.workers).drain(..) {
            let _ = w.join();
        }
        self.inner.snapshot()
    }
}

impl Drop for HeServer {
    fn drop(&mut self) {
        if !self.inner.shutdown.load(Ordering::Acquire) {
            self.shutdown();
        }
    }
}

impl ServerInner {
    fn worker_loop(&self) {
        loop {
            let drained = {
                let mut q = lock(&self.queue);
                loop {
                    let max = if self.config.batching {
                        self.config.batch_max.max(1)
                    } else {
                        1
                    };
                    let batch = q.drain(max);
                    if !batch.is_empty() {
                        break batch;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    q = self
                        .work_ready
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            // More may remain queued than one drain took; let a sibling
            // worker overlap with this dispatch.
            self.work_ready.notify_one();

            // Jobs batch only within one (kind, level) group.
            let top = self.ctx.params().levels;
            let mut groups: Vec<((u8, usize), Vec<Job>)> = Vec::new();
            for (_, job) in drained {
                let key = job.request.group_key(top);
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, g)) => g.push(job),
                    None => groups.push((key, vec![job])),
                }
            }

            // One transfer window around the whole drain: the context's
            // ledger is global, so per-group deltas would double-count
            // under concurrent workers no less — and the cost-weighted
            // split needs every group's jobs in one denominator anyway.
            let before = self.ctx.transfer_stats();
            let mut outcomes: Vec<JobOutcome> = Vec::new();
            for (_, group) in groups {
                // Contain a panicking dispatch: its jobs' tickets observe
                // a disconnect, the worker and sibling groups survive.
                match catch_unwind(AssertUnwindSafe(|| self.execute_group(group))) {
                    Ok(mut done) => outcomes.append(&mut done),
                    Err(_) => lock(&self.metrics).worker_panics += 1,
                }
            }
            let delta = self.ctx.transfer_stats().since(&before);
            self.attribute_transfers(&outcomes, &delta);
        }
    }

    /// Split the drain's transfer delta across its executed jobs in
    /// proportion to [`Request::cost`] — a 6-cost encrypt is charged 3×
    /// the words of a 2-cost decrypt sharing the window, where an even
    /// split would bill them alike.
    fn attribute_transfers(&self, outcomes: &[JobOutcome], delta: &TransferStats) {
        let total: u64 = outcomes.iter().filter(|o| o.executed).map(|o| o.cost).sum();
        if total == 0 {
            return;
        }
        let mut m = lock(&self.metrics);
        for o in outcomes.iter().filter(|o| o.executed) {
            let t = m.tenants.entry(o.tenant.0).or_default();
            t.upload_words += cost_share(delta.upload_words, o.cost, total);
            t.download_words += cost_share(delta.download_words, o.cost, total);
        }
    }

    /// Run one homogeneous group through the self-healing dispatch path:
    /// shed cancelled/expired jobs, try the pooled (device) evaluator,
    /// retry transient faults under the backoff policy, degrade the
    /// group to the host evaluator when the device path is out of
    /// budget, and answer every job exactly once.
    fn execute_group(&self, jobs: Vec<Job>) -> Vec<JobOutcome> {
        let mut outcomes = Vec::with_capacity(jobs.len());
        let mut live = jobs;
        let mut retries_used: u32 = 0;
        let mut degraded = self.device_down.load(Ordering::Acquire);
        // A bootstrap has no host fallback: its device attempt is its only
        // one, and it never runs degraded.
        let boot = live
            .first()
            .is_some_and(|job| matches!(job.request, Request::Boot { .. }));

        loop {
            // Shed jobs that were cancelled or expired while queued or
            // while this loop was backing off.
            let now = Instant::now();
            let mut still = Vec::with_capacity(live.len());
            for job in live {
                if job.cancelled.load(Ordering::Acquire) {
                    outcomes.push(self.answer_failed(job, ServeError::Cancelled));
                } else if job.deadline.is_some_and(|d| now >= d) {
                    outcomes.push(self.answer_failed(job, ServeError::DeadlineExceeded));
                } else {
                    still.push(job);
                }
            }
            live = still;
            if live.is_empty() {
                return outcomes;
            }

            let result = self.run_group(&live, degraded);

            match result {
                Ok(responses) => {
                    let mut m = lock(&self.metrics);
                    m.batches += 1;
                    m.batched_jobs += live.len() as u64;
                    if degraded && !boot {
                        m.degraded_jobs += live.len() as u64;
                    }
                    drop(m);
                    for (job, response) in live.into_iter().zip(responses) {
                        outcomes.push(self.answer_ok(job, response));
                    }
                    return outcomes;
                }
                Err(e) => {
                    lock(&self.metrics).faults.record(e.class());
                    if !degraded && e.is_transient() && retries_used < self.config.retry.max_retries
                    {
                        retries_used += 1;
                        lock(&self.metrics).retries += 1;
                        self.backoff_pause(retries_used, &live);
                        continue;
                    }
                    if !degraded {
                        // Device path is out of budget for this group.
                        // A fatal fault means the executor is wedged, not
                        // just unlucky — remember that globally so later
                        // groups skip straight to the host evaluator.
                        if e.class() == FaultClass::Fatal {
                            self.device_down.store(true, Ordering::Release);
                        }
                        degraded = true;
                        if !boot {
                            continue;
                        }
                    }
                    // The host evaluator failed too, or the group has no
                    // host fallback: answer a classified error rather than
                    // retrying forever.
                    for job in live {
                        let err = ServeError::Fault {
                            error: e.clone(),
                            retries: retries_used,
                        };
                        outcomes.push(self.answer_failed(job, err));
                    }
                    return outcomes;
                }
            }
        }
    }

    /// Check out an evaluator for one group's pipeline: an armed pooled
    /// (device) one, or, once `degraded`, a host/CPU one from the
    /// fallback pool. Results are bit-identical either way (backend
    /// conformance), so degradation never changes an answer — and
    /// concurrent degraded groups do not serialize on one evaluator.
    fn checkout<R>(
        &self,
        degraded: bool,
        f: impl FnOnce(&mut Evaluator) -> R,
    ) -> Result<R, BackendError> {
        if degraded {
            Ok(self.fallback.run(self.ctx.ring(), f))
        } else {
            self.ctx.try_with_pooled_evaluator(f)
        }
    }

    /// Run one homogeneous group through the batcher's pipeline for its
    /// kind. Inputs are cloned per attempt, so a retry (or the fallback)
    /// re-runs the identical batch, and nothing computed in a faulted
    /// checkout is kept: decrypted plaintexts are decoded only after
    /// their checkout returned `Ok`.
    fn run_group(&self, jobs: &[Job], degraded: bool) -> Result<Vec<Response>, BackendError> {
        let domain = self.config.key_seed;
        let (ctx, batcher) = (&*self.ctx, &self.batcher);
        match jobs[0].request {
            Request::Encrypt { .. } => {
                let batch: Vec<EncryptJob> = jobs
                    .iter()
                    .map(|job| {
                        let Request::Encrypt { values } = &job.request else {
                            unreachable!("group is homogeneous");
                        };
                        EncryptJob {
                            seed: job_seed(domain, job.tenant, job.seq),
                            values: values.clone(),
                        }
                    })
                    .collect();
                let cts = self.checkout(degraded, |ev| batcher.encrypt_batch(ctx, ev, &batch))?;
                Ok(cts.into_iter().map(Response::Encrypted).collect())
            }
            Request::Eval { .. } => {
                let batch: Vec<(Ciphertext, Vec<f64>)> = jobs
                    .iter()
                    .map(|job| {
                        let Request::Eval { ct, weights } = &job.request else {
                            unreachable!("group is homogeneous");
                        };
                        (ct.clone(), weights.clone())
                    })
                    .collect();
                let cts = self.checkout(degraded, |ev| batcher.eval_batch(ctx, ev, batch))?;
                Ok(cts.into_iter().map(Response::Evaluated).collect())
            }
            Request::Decrypt { .. } => {
                let batch: Vec<Ciphertext> = jobs
                    .iter()
                    .map(|job| {
                        let Request::Decrypt { ct } = &job.request else {
                            unreachable!("group is homogeneous");
                        };
                        ct.clone()
                    })
                    .collect();
                let pts = self.checkout(degraded, |ev| batcher.decrypt_batch(ctx, ev, batch))?;
                Ok(pts
                    .iter()
                    .map(|pt| Response::Decrypted(ctx.decode(pt)))
                    .collect())
            }
            Request::Boot { .. } => {
                // No checkout here: each bootstrap runs in its own armed
                // scope on one pool member. The engine's keys and
                // diagonals live in shared device memory, so any member
                // can execute against them. There is no host fallback, so
                // `degraded` changes nothing here: `execute_group` answers
                // a failed bootstrap group instead of re-running it.
                let boot = self.boot.as_ref().expect("Boot jobs validated at submit");
                jobs.iter()
                    .map(|job| {
                        let Request::Boot { ct } = &job.request else {
                            unreachable!("group is homogeneous");
                        };
                        boot.try_bootstrap(ct).map(Response::Bootstrapped)
                    })
                    .collect()
            }
        }
    }

    /// Sleep before retry `attempt` (1-based): exponential backoff with
    /// deterministic jitter, capped by the policy and by the tightest
    /// live deadline.
    fn backoff_pause(&self, attempt: u32, live: &[Job]) {
        let policy = &self.config.retry;
        if policy.backoff.is_zero() {
            return;
        }
        let exp = 1u32 << (attempt - 1).min(16);
        let base = policy.backoff.saturating_mul(exp).min(policy.backoff_cap);
        // splitmix64 over a shared counter: decorrelates workers retrying
        // into the same fault window without an entropy source.
        let salt = self.jitter_salt.fetch_add(1, Ordering::Relaxed);
        let mut x = salt
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0xda94_2042_e4dd_58b5);
        x ^= x >> 29;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 32;
        let half_ns = (base.as_nanos().min(u128::from(u64::MAX)) as u64) / 2;
        let jitter = if half_ns == 0 { 0 } else { x % half_ns };
        let mut pause = base + Duration::from_nanos(jitter);
        if let Some(min_deadline) = live.iter().filter_map(|j| j.deadline).min() {
            pause = pause.min(min_deadline.saturating_duration_since(Instant::now()));
        }
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
    }

    /// Answer one job successfully and account it.
    fn answer_ok(&self, job: Job, response: Response) -> JobOutcome {
        let latency = job.submitted_at.elapsed();
        {
            let mut m = lock(&self.metrics);
            let t = m.tenants.entry(job.tenant.0).or_default();
            t.completed += 1;
            t.latency
                .record(latency.as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        let outcome = JobOutcome {
            tenant: job.tenant,
            cost: job.request.cost(),
            executed: true,
        };
        let _ = job.reply.send(Completed { response, latency });
        outcome
    }

    /// Answer one job with a classified failure and account it. Jobs
    /// that failed *after* executing (a device fault ran their batch)
    /// still earn a transfer share; shed jobs do not.
    fn answer_failed(&self, job: Job, err: ServeError) -> JobOutcome {
        let latency = job.submitted_at.elapsed();
        {
            let mut m = lock(&self.metrics);
            match &err {
                ServeError::DeadlineExceeded => {
                    m.deadline_misses += 1;
                    m.faults.record(FaultClass::Deadline);
                }
                ServeError::Cancelled => m.cancelled += 1,
                ServeError::Fault { .. } => {}
            }
            m.tenants.entry(job.tenant.0).or_default().failed += 1;
        }
        let outcome = JobOutcome {
            tenant: job.tenant,
            cost: job.request.cost(),
            executed: matches!(err, ServeError::Fault { .. }),
        };
        let _ = job.reply.send(Completed {
            response: Response::Failed(err),
            latency,
        });
        outcome
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let m = lock(&self.metrics);
        let q = lock(&self.queue);
        let mut snap = MetricsSnapshot {
            batches: m.batches,
            batched_jobs: m.batched_jobs,
            retries: m.retries,
            faults: m.faults,
            degraded_jobs: m.degraded_jobs,
            deadline_misses: m.deadline_misses,
            cancelled: m.cancelled,
            quarantined: self.ctx.quarantined_count() as u64,
            op_retries: self.ctx.op_retry_count(),
            fallback_evaluators: self.fallback.built(),
            worker_panics: m.worker_panics,
            ..Default::default()
        };
        for (&id, t) in &m.tenants {
            snap.tenants.insert(
                id,
                TenantSnapshot {
                    completed: t.completed,
                    failed: t.failed,
                    rejected: q.rejected_for(TenantId(id)),
                    latency: t.latency.clone(),
                    upload_words: t.upload_words,
                    download_words: t.download_words,
                },
            );
        }
        // Tenants that only ever got rejected still deserve a row.
        for id in q.rejected_tenants() {
            snap.tenants.entry(id).or_insert_with(|| TenantSnapshot {
                rejected: q.rejected_for(TenantId(id)),
                ..Default::default()
            });
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::{cost_share, FallbackPool};

    /// Four degraded dispatches held concurrently get four distinct
    /// evaluators — the single-mutex design this pool replaced would
    /// deadlock here (each thread waits at the barrier while holding
    /// the one evaluator the others need).
    #[test]
    fn fallback_pool_serves_concurrent_checkouts() {
        let primes = he_lite::HeLiteParams {
            log_n: 5,
            prime_bits: 50,
            levels: 2,
            scale_bits: 40,
            gadget_bits: 10,
            error_eta: 4,
        };
        let ring = he_lite::HeContext::new(primes).unwrap().ring().clone();
        let pool = FallbackPool::new();
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (pool, ring, barrier) = (&pool, &ring, &barrier);
                s.spawn(move || {
                    pool.run(ring, |ev| {
                        // All four checkouts must be live at once.
                        barrier.wait();
                        assert_eq!(ev.ring().degree(), 32);
                    })
                });
            }
        });
        assert_eq!(pool.built(), 4, "each concurrent group got its own");
        // Idle evaluators are reused, not rebuilt.
        pool.run(&ring, |_| {});
        assert_eq!(pool.built(), 4);
    }

    #[test]
    fn transfer_attribution_is_cost_weighted() {
        // One 6-cost encrypt and one 2-cost decrypt share a drain whose
        // delta is 800 words: the encrypt is charged 600, the decrypt
        // 200 — an even split would have billed 400 each.
        assert_eq!(cost_share(800, 6, 8), 600);
        assert_eq!(cost_share(800, 2, 8), 200);
        // Degenerate denominators attribute nothing rather than panic.
        assert_eq!(cost_share(800, 6, 0), 0);
    }
}
