//! Per-tenant accounting: latency histograms, batch counters and
//! transfer attribution.

use crate::request::TenantId;
use ntt_core::backend::FaultClass;
use std::collections::BTreeMap;

/// Number of log2 latency buckets: bucket `b` holds samples in
/// `[2^(b-1), 2^b)` nanoseconds (bucket 0 holds `0..2` ns), which spans
/// sub-microsecond dispatch up to ~9 years at the top.
const BUCKETS: usize = 48;

/// A fixed-size log2-bucketed latency histogram.
///
/// Quantiles locate the bucket where the cumulative count crosses the
/// rank, then **linearly interpolate** the rank's position between the
/// bucket bounds — reading the raw bucket upper bound is biased up to
/// 2× high (a tight cluster's median snaps to the next power of two),
/// while interpolation keeps the error well under a bucket width with
/// no sample storage. Results are clamped to the exact recorded
/// maximum, so `quantile(1.0) == max_ns()` and a single-sample
/// histogram reports that sample exactly.
///
/// # Example
///
/// ```
/// use he_serve::LatencyHistogram;
///
/// let mut h = LatencyHistogram::default();
/// for ns in [100, 200, 300, 400, 10_000] {
///     h.record(ns);
/// }
/// assert_eq!(h.count(), 5);
/// let p50 = h.p50();
/// assert!((256..=400).contains(&p50), "median interpolates inside the 100-400 cluster, got {p50}");
/// assert!(h.p99() >= 10_000, "tail sample dominates p99");
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    max_ns: u64,
    sum_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            count: 0,
            max_ns: 0,
            sum_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// Record one latency sample in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        let bucket = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.counts[bucket] += 1;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean latency in nanoseconds (exact, not bucketed).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// The latency at quantile `q ∈ [0, 1]` (0 when empty). The rank's
    /// position *inside* the bucket where the cumulative count crosses
    /// it is linearly interpolated between the bucket's bounds
    /// (`[2^(b-1), 2^b)`); the result is clamped to the exact recorded
    /// maximum so `quantile(1.0) == max_ns()`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = if b == 0 { 0 } else { 1u64 << (b - 1) };
                let hi = (1u64 << b) - 1;
                let frac = (rank - seen) as f64 / c as f64;
                let est = lo as f64 + (hi - lo) as f64 * frac;
                return (est.round() as u64).min(self.max_ns);
            }
            seen += c;
        }
        self.max_ns
    }

    /// Median latency (bucket-interpolated).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile latency (bucket-interpolated).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }
}

/// Failure counters by [`FaultClass`] — every fault the serving loop
/// observed, including ones later absorbed by a retry or CPU fallback.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Transient (retryable) device faults.
    pub transient: u64,
    /// Fatal (wedged-executor) device faults.
    pub fatal: u64,
    /// Device out-of-memory faults.
    pub oom: u64,
    /// Deadline-classified failures.
    pub deadline: u64,
}

impl FaultCounts {
    /// Count one fault of the given class.
    pub(crate) fn record(&mut self, class: FaultClass) {
        match class {
            FaultClass::Transient => self.transient += 1,
            FaultClass::Fatal => self.fatal += 1,
            FaultClass::Oom => self.oom += 1,
            FaultClass::Deadline => self.deadline += 1,
        }
    }

    /// Total faults across every class.
    pub fn total(&self) -> u64 {
        self.transient + self.fatal + self.oom + self.deadline
    }
}

/// One tenant's view of the server's accounting.
#[derive(Debug, Clone, Default)]
pub struct TenantSnapshot {
    /// Jobs answered successfully.
    pub completed: u64,
    /// Jobs answered with [`Response::Failed`](crate::Response::Failed)
    /// (fault after all recovery, deadline miss, or cancellation).
    pub failed: u64,
    /// Jobs refused at the door (queue full).
    pub rejected: u64,
    /// End-to-end latency distribution of completed jobs.
    pub latency: LatencyHistogram,
    /// Host→device words attributed to this tenant's jobs (proportional
    /// share of each batch's transfer delta — approximate when several
    /// workers dispatch concurrently, since the context's transfer
    /// ledger is global).
    pub upload_words: u64,
    /// Device→host words attributed to this tenant's jobs (same
    /// proportional-share caveat).
    pub download_words: u64,
}

/// A point-in-time copy of the server's accounting.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Per-tenant accounting, keyed by tenant id.
    pub tenants: BTreeMap<u32, TenantSnapshot>,
    /// Dispatch groups executed.
    pub batches: u64,
    /// Jobs executed across all groups (`batched_jobs / batches` is the
    /// achieved batching factor).
    pub batched_jobs: u64,
    /// Group re-runs after a transient device fault (the fault that
    /// latched after its op's in-place re-draws).
    pub retries: u64,
    /// Transient gate failures re-drawn in place, one op at a time,
    /// inside armed checkouts (see `HeContext::op_retry_count`); only a
    /// fault that outlasts these reaches [`MetricsSnapshot::retries`].
    pub op_retries: u64,
    /// Device faults observed, by class (including faults later absorbed
    /// by a retry or the CPU fallback).
    pub faults: FaultCounts,
    /// Jobs whose batch was degraded to the host/CPU evaluator after the
    /// device path failed.
    pub degraded_jobs: u64,
    /// Jobs failed because their deadline expired before execution.
    pub deadline_misses: u64,
    /// Jobs failed because their ticket was cancelled.
    pub cancelled: u64,
    /// Evaluator-pool members quarantined and re-forked after a
    /// non-transient fault (see `HeContext::quarantined_count`).
    pub quarantined: u64,
    /// Host/CPU evaluators built by the degraded-dispatch fallback pool
    /// (its high-water mark; bounded by the worker count).
    pub fallback_evaluators: u64,
    /// Worker dispatches that panicked and were contained (the jobs'
    /// tickets observe a disconnect; the worker survives).
    pub worker_panics: u64,
}

impl MetricsSnapshot {
    /// Total jobs answered across tenants.
    pub fn completed(&self) -> u64 {
        self.tenants.values().map(|t| t.completed).sum()
    }

    /// Total jobs refused across tenants.
    pub fn rejected(&self) -> u64 {
        self.tenants.values().map(|t| t.rejected).sum()
    }

    /// Total jobs answered with a failure across tenants.
    pub fn failed(&self) -> u64 {
        self.tenants.values().map(|t| t.failed).sum()
    }

    /// One tenant's snapshot (empty default if never seen).
    pub fn tenant(&self, id: TenantId) -> TenantSnapshot {
        self.tenants.get(&id.0).cloned().unwrap_or_default()
    }

    /// Latency distribution across every tenant.
    pub fn merged_latency(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::default();
        for t in self.tenants.values() {
            all.merge(&t.latency);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_walk_cumulative_counts() {
        let mut h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(1_000); // bucket 10: [512, 1024)
        }
        h.record(1_000_000);
        assert_eq!(h.count(), 100);
        // Rank 50 of 99 in-bucket samples: 512 + 511 * 50/99 ≈ 770.
        assert_eq!(h.p50(), 770);
        assert_eq!(h.p99(), 1023, "rank 99 tops out its bucket");
        assert_eq!(h.quantile(1.0), 1_000_000, "clamped to exact max");
        assert_eq!(h.max_ns(), 1_000_000);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // The bug this pins down: every rank inside one bucket used to
        // read the same upper bound, so p50 of a tight cluster came
        // back as the next power of two (up to 2× high).
        let mut h = LatencyHistogram::default();
        for ns in [600, 700, 800, 1000] {
            h.record(ns); // all in bucket 10: [512, 1024)
        }
        // Ranks 1..4 spread across the bucket instead of all snapping
        // to 1023: 512 + 511 * r/4, the last clamped to the exact max.
        assert_eq!(h.quantile(0.25), 640);
        assert_eq!(h.quantile(0.50), 768);
        assert_eq!(h.quantile(0.75), 895);
        assert_eq!(h.quantile(1.0), 1000, "clamped to exact max");
        // Monotone in q.
        let qs: Vec<u64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
    }

    #[test]
    fn single_sample_quantile_is_exact() {
        let mut h = LatencyHistogram::default();
        h.record(100);
        assert_eq!(h.p50(), 100, "max clamp makes one sample exact");
        assert_eq!(h.p99(), 100);
        // Zero lands in bucket 0 without underflowing the bounds.
        let mut z = LatencyHistogram::default();
        z.record(0);
        assert_eq!(z.p50(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        a.record(10);
        b.record(1 << 20);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_ns(), 1 << 20);
        assert!(a.mean_ns() > 0.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean_ns(), 0.0);
    }
}
