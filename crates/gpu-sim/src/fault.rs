//! Deterministic fault injection for the simulated device.
//!
//! Real accelerator fleets fail in a handful of well-known ways: a flaky
//! PCIe link drops a transfer, a kernel launch aborts, an allocation runs
//! the device out of memory, or the device wedges entirely and every
//! subsequent command fails until it is reset. A [`FaultPlan`] reproduces
//! those failure classes *deterministically*: it is a seeded counter-based
//! schedule, so a given `(seed, rates, sticky_after)` triple always fails
//! the same operations in the same order — which is what makes chaos tests
//! replayable and CI-stable.
//!
//! The plan is armed on a [`Gpu`](crate::Gpu) via
//! [`Gpu::set_fault_plan`](crate::Gpu::set_fault_plan) and consulted by the
//! *fallible* backend entry points in `ntt-gpu` (`NttBackend::gate`,
//! which an armed evaluator checkout passes for every op, and the device
//! memory's `try_alloc`, through which it allocates); the infallible
//! paths — unarmed evaluators and host↔device staging included — never
//! draw from it, so split sweeps
//! and figure-harness sweeps stay fault-free by construction. When a fault
//! fires, the `Gpu` charges a zero-word transfer (one PCIe latency) to the
//! active stream so the aborted command still occupies the modeled
//! timeline, like a real failed command occupies the hardware queue.
//!
//! # Configuration
//!
//! A plan is built in code, from [`FaultPlan::seeded`] and its builder
//! methods, and armed through the backend's `set_fault_plan`.
//!
//! An allocation is not a device command: it draws the schedule (and
//! counts toward `sticky_after`) only when `alloc` has a rate or it
//! breaks the `oom_words` cap, so a plan without either sees exactly the
//! transfers and launches it gates.

/// The operation classes a [`FaultPlan`] can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Host → device transfer.
    Upload,
    /// Device → host transfer.
    Download,
    /// Kernel launch.
    Launch,
    /// Device memory allocation.
    Alloc,
}

impl FaultOp {
    fn index(self) -> usize {
        match self {
            FaultOp::Upload => 0,
            FaultOp::Download => 1,
            FaultOp::Launch => 2,
            FaultOp::Alloc => 3,
        }
    }
}

/// How an injected fault fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// One-shot: the operation failed but the device is healthy; the
    /// identical retry may succeed.
    Transient,
    /// The device is wedged: this and every later fallible operation
    /// fails until the device is reinitialized (plan disarmed).
    Sticky,
    /// Device memory exhausted.
    Oom,
}

/// A seeded, deterministic fault schedule for one simulated device.
///
/// Configure with the builder methods ([`rate`](FaultPlan::rate),
/// [`sticky_after`](FaultPlan::sticky_after),
/// [`oom_words`](FaultPlan::oom_words)). Probabilities are expressed in per-mille (integer ‰) so the schedule involves no
/// floating point and replays identically everywhere.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// xorshift64* state; never zero.
    state: u64,
    /// Per-mille transient fault rate per [`FaultOp`].
    rates: [u16; 4],
    /// Wedge the device after this many fallible operations.
    sticky_after: Option<u64>,
    /// Address-space capacity in words for OOM simulation.
    oom_words: Option<usize>,
    /// Fallible operations drawn so far.
    ops_seen: u64,
    /// The device has wedged (sticky fault active).
    sticky: bool,
    /// Faults injected so far, by kind: [transient, sticky, oom].
    injected: [u64; 3],
}

impl FaultPlan {
    /// A plan with the given seed and no faults configured — the
    /// "armed but silent" baseline used to measure hook overhead.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            state: seed | 1,
            rates: [0; 4],
            sticky_after: None,
            oom_words: None,
            ops_seen: 0,
            sticky: false,
            injected: [0; 3],
        }
    }

    /// Set the transient fault probability for `op`, in per-mille
    /// (clamped to 1000).
    pub fn rate(mut self, op: FaultOp, per_mille: u16) -> Self {
        self.rates[op.index()] = per_mille.min(1000);
        self
    }

    /// Wedge the device (every draw fails sticky) after `n` fallible
    /// operations have been issued.
    pub fn sticky_after(mut self, n: u64) -> Self {
        self.sticky_after = Some(n);
        self
    }

    /// Cap the device address space at `words`; allocations that would
    /// exceed it fail with [`FaultKind::Oom`].
    pub fn oom_words(mut self, words: usize) -> Self {
        self.oom_words = Some(words);
        self
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*: tiny, seedable, good enough to decorrelate draws.
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Draw the schedule for one fallible operation of class `op`.
    ///
    /// Deterministic: the outcome depends only on the seed and the
    /// sequence of draws so far. Once the sticky threshold has passed,
    /// every draw fails [`FaultKind::Sticky`].
    pub fn check(&mut self, op: FaultOp) -> Result<(), FaultKind> {
        self.ops_seen += 1;
        if self.sticky || self.sticky_after.is_some_and(|n| self.ops_seen > n) {
            self.sticky = true;
            self.injected[1] += 1;
            return Err(FaultKind::Sticky);
        }
        let rate = self.rates[op.index()];
        if rate > 0 && self.next_u64() % 1000 < u64::from(rate) {
            self.injected[0] += 1;
            return Err(FaultKind::Transient);
        }
        Ok(())
    }

    /// Draw the schedule for an allocation that would bring the device
    /// address space to `projected_words`. Checks the OOM cap first,
    /// then, when allocations have a fault rate, the regular
    /// [`FaultOp::Alloc`] schedule; an allocation that passes the cap
    /// under a zero alloc rate is not a draw.
    pub fn check_alloc(&mut self, projected_words: usize) -> Result<(), FaultKind> {
        if self.oom_words.is_some_and(|cap| projected_words > cap) {
            self.ops_seen += 1;
            self.injected[2] += 1;
            return Err(FaultKind::Oom);
        }
        if self.rates[FaultOp::Alloc.index()] == 0 {
            return Ok(());
        }
        self.check(FaultOp::Alloc)
    }

    /// Whether the sticky threshold has fired (the device is wedged).
    pub fn is_sticky(&self) -> bool {
        self.sticky
    }

    /// Fallible operations drawn so far.
    pub fn ops_seen(&self) -> u64 {
        self.ops_seen
    }

    /// Faults injected so far as `(transient, sticky, oom)`.
    pub fn injected(&self) -> (u64, u64, u64) {
        (self.injected[0], self.injected[1], self.injected[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_plan_never_faults() {
        let mut plan = FaultPlan::seeded(42);
        for _ in 0..10_000 {
            assert_eq!(plan.check(FaultOp::Launch), Ok(()));
        }
        assert_eq!(plan.injected(), (0, 0, 0));
    }

    #[test]
    fn schedule_is_deterministic() {
        let run = || {
            let mut plan = FaultPlan::seeded(7)
                .rate(FaultOp::Upload, 100)
                .rate(FaultOp::Launch, 50);
            (0..1000)
                .map(|i| {
                    let op = if i % 2 == 0 {
                        FaultOp::Upload
                    } else {
                        FaultOp::Launch
                    };
                    plan.check(op).is_err()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn transient_rate_is_roughly_honored() {
        let mut plan = FaultPlan::seeded(3).rate(FaultOp::Upload, 100); // 10%
        let faults = (0..10_000)
            .filter(|_| plan.check(FaultOp::Upload).is_err())
            .count();
        assert!(
            (500..1500).contains(&faults),
            "10% rate produced {faults}/10000 faults"
        );
    }

    #[test]
    fn sticky_threshold_wedges_the_device() {
        let mut plan = FaultPlan::seeded(1).sticky_after(5);
        for _ in 0..5 {
            assert_eq!(plan.check(FaultOp::Launch), Ok(()));
        }
        for _ in 0..10 {
            assert_eq!(plan.check(FaultOp::Launch), Err(FaultKind::Sticky));
        }
        assert!(plan.is_sticky());
    }

    #[test]
    fn oom_cap_fails_oversized_allocs_only() {
        let mut plan = FaultPlan::seeded(1).oom_words(1000);
        assert_eq!(plan.check_alloc(1000), Ok(()));
        assert_eq!(plan.check_alloc(1001), Err(FaultKind::Oom));
        assert_eq!(plan.check_alloc(500), Ok(()));
        // Only the capacity failure was a draw.
        assert_eq!(plan.ops_seen(), 1);
    }

    #[test]
    fn allocations_draw_only_under_an_alloc_rate() {
        let mut plan = FaultPlan::seeded(1).sticky_after(0);
        assert_eq!(plan.check_alloc(64), Ok(()));
        assert_eq!(plan.ops_seen(), 0, "a zero alloc rate drew");
        let mut plan = plan.rate(FaultOp::Alloc, 1000);
        assert_eq!(plan.check_alloc(64), Err(FaultKind::Sticky));
        assert_eq!(plan.ops_seen(), 1);
    }

    #[test]
    fn builder_sets_rates_sticky_threshold_and_oom_cap() {
        // Each builder method sets its own field and leaves the others.
        let plan = FaultPlan::seeded(7)
            .rate(FaultOp::Upload, 20)
            .rate(FaultOp::Launch, 10)
            .sticky_after(400)
            .oom_words(1_048_576);
        assert_eq!(plan.rates, [20, 0, 10, 0]);
        assert_eq!(plan.sticky_after, Some(400));
        assert_eq!(plan.oom_words, Some(1_048_576));
    }
}
