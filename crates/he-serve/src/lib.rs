//! HE-as-a-service: a multi-tenant request-serving front end over the
//! [`he_lite`] evaluator pool.
//!
//! The paper motivates GPU NTT acceleration by the throughput demands of
//! bootstrappable HE workloads; this crate is the workload layer that
//! *drives* the evaluator pool and stream scheduler like production
//! traffic does. Many simulated tenants submit encrypt / eval / decrypt
//! jobs; the server answers them through four cooperating pieces:
//!
//! * **[`FairQueue`]** — per-tenant bounded queues with deficit
//!   round-robin scheduling. Admission control rejects (and counts) jobs
//!   past a tenant's queue capacity, so a flooding tenant gets
//!   backpressure instead of unbounded memory, and a quiet tenant's jobs
//!   never starve behind the flood.
//! * **[`batcher`]** — runs every job in a dispatch group through one
//!   of [`he_lite::HeContext`]'s group forms (`encrypt_group`,
//!   `multiply_plain_group`, `decrypt_group`) over host copies of the
//!   keys and ciphertexts, one host batch per pipeline stage, so `k`
//!   small ciphertext ops cost one kernel schedule and one staging
//!   round-trip instead of `k`. A group of one is the context's own
//!   encrypt, plaintext multiply + rescale or decrypt. One pipeline per
//!   request kind, armed or not by the checkout that runs it. Results
//!   are bit-identical to per-job dispatch by construction: NTT,
//!   pointwise and rescale rows are independent, and everything else is
//!   exact host arithmetic.
//! * **[`HeServer`]** — worker threads draining the queue into the
//!   batcher through armed checkouts
//!   ([`he_lite::HeContext::try_with_pooled_evaluator`], a checkout in a
//!   [`he_lite::HeContext::gated`] scope), with
//!   per-tenant latency histograms and cost-weighted transfer
//!   attribution ([`metrics`]).
//! * **[`loadgen`]** — a closed/open-loop load generator with
//!   heavy-tailed request sizes, feeding the `figures serve` section.
//!   Open mode paces submissions independently of service and completes
//!   every chain through a collector pool, recording per-chain fault
//!   and retry outcomes.
//!
//! # Self-healing dispatch
//!
//! Every group runs in an armed scope ([`he_lite::HeContext::gated`]):
//! each backend op of the group passes the device's fault gate, a
//! transient gate failure is re-drawn in place up to three times, the
//! first fault that outlasts that is latched and skips the rest of the
//! group, and the scope returns it as a classified
//! [`ntt_core::backend::BackendError`]. A bootstrap group runs each
//! [`Bootstrapper::try_bootstrap`] in a scope of its own, so every op of
//! the bootstrap, EvalMod included, is gated on one pool member. The
//! serving loop survives an unreliable device:
//!
//! * **Per-op retry** — a transient fault costs one more draw of the
//!   failing op, not a re-run of its group
//!   ([`MetricsSnapshot::op_retries`]).
//! * **Bounded retry** — a transient fault that outlasts the in-place
//!   re-draws re-runs the group under [`RetryPolicy`] (exponential
//!   backoff, deterministic jitter, capped by the tightest live
//!   deadline).
//! * **Quarantine** — a fatal/OOM fault drops the pooled evaluator that
//!   observed it and re-forks a replacement when its scope closes
//!   ([`he_lite::HeContext::gated`]), so no later dispatch inherits a
//!   wedged executor.
//! * **Degradation** — a group whose device budget is exhausted re-runs
//!   on a host/CPU evaluator with bit-identical results; a fatal fault
//!   marks the device down so later groups skip it entirely. A bootstrap
//!   has no host fallback: its group answers the classified fault once
//!   its device attempt is out of budget, and on a device already marked
//!   down it gets one attempt and no retry.
//! * **Deadlines & cancellation** — [`ServeConfig::deadline`] bounds
//!   queue-to-answer time; [`Ticket::cancel`] drops a queued job. Both
//!   answer [`ServeError`] variants, never silence.
//!
//! Every admitted job is answered exactly once: a success, or a
//! [`Response::Failed`] carrying a classified [`ServeError`] — the
//! server never returns a silently wrong result, and all of the above
//! is visible in [`MetricsSnapshot`].
//!
//! # Example
//!
//! ```
//! use he_lite::{HeContext, HeLiteParams};
//! use he_serve::{HeServer, Request, Response, ServeConfig, TenantId};
//!
//! let ctx = HeContext::new(HeLiteParams {
//!     log_n: 5, prime_bits: 50, levels: 2, scale_bits: 40,
//!     gadget_bits: 10, error_eta: 4,
//! })?;
//! let server = HeServer::start(ctx, ServeConfig::default());
//! let tenant = TenantId(1);
//!
//! let ticket = server
//!     .submit(tenant, Request::Encrypt { values: vec![1.5, -2.0] })
//!     .expect("queue has room");
//! let ct = match ticket.wait().expect("server answers").response {
//!     Response::Encrypted(ct) => ct,
//!     _ => unreachable!(),
//! };
//!
//! let ticket = server.submit(tenant, Request::Decrypt { ct }).unwrap();
//! let Response::Decrypted(values) = ticket.wait().unwrap().response else {
//!     unreachable!()
//! };
//! assert!((values[0] - 1.5).abs() < 1e-3);
//! server.shutdown();
//! # Ok::<(), he_lite::HeError>(())
//! ```

pub mod batcher;
pub mod loadgen;
pub mod metrics;
pub mod queue;
pub mod request;
pub mod server;

pub use batcher::{job_seed, Batcher, EncryptJob};
pub use he_boot::{BootParams, Bootstrapper};
pub use loadgen::{ArrivalMode, LoadConfig, LoadReport};
pub use metrics::{FaultCounts, LatencyHistogram, MetricsSnapshot, TenantSnapshot};
pub use ntt_core::backend::{BackendError, FaultClass};
pub use queue::{FairQueue, Weighted};
pub use request::{Completed, Request, Response, ServeError, SubmitError, TenantId};
pub use server::{HeServer, RetryPolicy, ServeConfig, Ticket};
