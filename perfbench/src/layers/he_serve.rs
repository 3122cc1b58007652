//! Adapter for `he-serve` (layer `he-serve`): the multi-tenant server on
//! its default configuration (two workers, batching on).

use super::he::{Ciphertext, Params};
use he_lite::HeContext;
use he_serve::{HeServer, Request, Response, ServeConfig, TenantId, Ticket};
use ntt_core::backend::NttBackend;
use std::time::Duration;

/// A request the benchmark sends.
pub enum Req {
    Encrypt(Vec<f64>),
    /// Multiply by a constant weight and rescale (one level).
    Eval(Ciphertext, f64),
    Decrypt(Ciphertext),
}

/// The server's answer.
pub enum Answer {
    Ct(Ciphertext),
    Values(Vec<f64>),
    Failed(String),
}

/// Server-side counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub batches: u64,
    pub batched_jobs: u64,
    pub retries: u64,
    pub rejected: u64,
    pub degraded_jobs: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.batches += o.batches;
        self.batched_jobs += o.batched_jobs;
        self.retries += o.retries;
        self.rejected += o.rejected;
        self.degraded_jobs += o.degraded_jobs;
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            batches: self.batches - earlier.batches,
            batched_jobs: self.batched_jobs - earlier.batched_jobs,
            retries: self.retries - earlier.retries,
            rejected: self.rejected - earlier.rejected,
            degraded_jobs: self.degraded_jobs - earlier.degraded_jobs,
        }
    }
}

pub struct Server(HeServer);

/// A submitted request's claim on its answer.
pub struct Pending(Ticket);

impl Server {
    /// Start a server on `backend` with keys from `key_seed`.
    pub fn start(params: Params, backend: Box<dyn NttBackend>, key_seed: u64) -> Self {
        let ctx = HeContext::with_backend(params, backend).expect("serving context builds");
        Server(HeServer::start(
            ctx,
            ServeConfig {
                key_seed,
                ..ServeConfig::default()
            },
        ))
    }

    pub fn submit(&self, tenant: u32, req: Req) -> Result<Pending, String> {
        let request = match req {
            Req::Encrypt(values) => Request::Encrypt { values },
            Req::Eval(ct, w) => Request::Eval {
                ct,
                weights: vec![w],
            },
            Req::Decrypt(ct) => Request::Decrypt { ct },
        };
        self.0
            .submit(TenantId(tenant), request)
            .map(Pending)
            .map_err(|e| e.to_string())
    }

    /// See [`super::core::pointwise_verdicts`].
    pub fn pointwise_verdicts(&self) -> String {
        super::core::pointwise_verdicts(self.0.context().ring())
    }

    pub fn counters(&self) -> Counters {
        let m = self.0.metrics();
        Counters {
            batches: m.batches,
            batched_jobs: m.batched_jobs,
            retries: m.retries,
            rejected: m.rejected(),
            degraded_jobs: m.degraded_jobs,
        }
    }
}

impl Pending {
    /// Block for the answer and the server-stamped submit-to-answer time.
    pub fn wait(self) -> (Answer, Duration) {
        let Some(done) = self.0.wait() else {
            return (
                Answer::Failed("server dropped the job".into()),
                Duration::ZERO,
            );
        };
        let answer = match done.response {
            Response::Encrypted(ct) | Response::Evaluated(ct) | Response::Bootstrapped(ct) => {
                Answer::Ct(ct)
            }
            Response::Decrypted(v) => Answer::Values(v),
            Response::Failed(e) => Answer::Failed(e.to_string()),
        };
        (answer, done.latency)
    }
}
