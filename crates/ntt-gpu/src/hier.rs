//! The hierarchical (4-step) NTT: three kernels for bootstrapping-scale
//! rings.
//!
//! At bootstrapping scale each half of the two-kernel SMEM split grows
//! toward a thread block's shared memory. The classical 4-step
//! factorization `N = N1 × N2` keeps *both* sides SMEM-resident by paying
//! one extra data round trip:
//!
//! * **`hier-col`** — `N2` strided `N1`-point NTTs, in place. Every column
//!   is a *compact* negacyclic transform with root `ψ^(N/N1)`, whose
//!   twiddle table equals the first `N1` entries of the global table
//!   (bit-reversed layout), so the kernel preloads that prefix into SMEM
//!   and shares it across all columns (`tw_base = 1`).
//! * **`hier-twt`** — transpose + inter-block twist: element `(u, s)`
//!   moves to the transposed intermediate and picks up `ψ^(e_u·s)`, where
//!   `e_u = 2·bitrev(u) + 1 − N1 (mod 2N)`. The twist factors come from a
//!   two-level factor table over the exponent range `[0, 2N)`
//!   ([`DeviceTwist`], the §VII on-the-fly construction) — two Shoup
//!   modmuls per element instead of an `N`-entry twist table.
//! * **`hier-row`** — `N1` compact `N2`-point NTTs, reading the
//!   intermediate strided and storing the finished rows *contiguously*
//!   back into the original array through an SMEM-staged transposing
//!   write-out.
//!
//! The result is bit-identical to `ntt_core::ct::ntt` (and to the CPU
//! [`ntt_core::HierPlan`], which runs the same factorization).
//!
//! On the Titan-V model an SMEM split still fits, and models faster, at
//! every `N` up to 2^17, so this plan is a figure and Table II harness
//! ([`run`]); the simulated backend never routes a transform here.

use crate::batch::{upload_table, DeviceBatch};
use crate::report::RunReport;
use crate::rows::RowTable;
use crate::smem::{self, HierStageJob};
use gpu_sim::{Buf, Gpu, LaunchConfig, OpClass, WarpCtx, WarpKernel};
use ntt_core::bitrev::bit_reverse;
use ntt_math::modops::pow_mod;
use ntt_math::shoup::{mul_shoup, precompute};

/// Threads per block for the twist kernel.
const THREADS: usize = 256;

/// Modeled registers for the twist kernel: one operand, two factor pairs,
/// modulus and addressing.
const REGS: u32 = 48;

/// Default per-thread NTT size for the sub-NTT stages (paper Fig. 11).
pub const PER_THREAD: usize = 8;

/// Default twist-factor base (matches the paper's OT base).
pub const TWIST_BASE: usize = 1024;

/// Device-resident twist-factor tables, one pair per prime.
///
/// Like [`crate::ot::DeviceOt`], but over the exponent range `[0, 2N)`:
/// the inter-block twist needs `ψ^e` for arbitrary `e mod 2N`, not just
/// the `N` bit-reversed table entries. `ψ^e = lo[e mod B] · hi[e div B]`,
/// two Shoup modmuls.
#[derive(Debug, Clone, Copy)]
pub struct DeviceTwist {
    /// Factorization base `B`.
    pub base: usize,
    /// Entries in the low-digit table per prime (`min(B, 2N)`).
    pub lo_len: usize,
    /// Entries in the high-digit table per prime (`ceil(2N/B)`).
    pub hi_len: usize,
    /// `np × lo_len` low factor values.
    pub lo_w: Buf,
    /// `np × lo_len` low factor companions.
    pub lo_c: Buf,
    /// `np × hi_len` high factor values.
    pub hi_w: Buf,
    /// `np × hi_len` high factor companions.
    pub hi_c: Buf,
}

impl DeviceTwist {
    /// Build and upload the twist-factor tables for every prime in the
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not a power of two ≥ 2.
    pub fn upload(gpu: &mut Gpu, batch: &DeviceBatch, base: usize) -> Self {
        let tables: Vec<&ntt_core::NttTable> = (0..batch.np()).map(|i| batch.table(i)).collect();
        Self::upload_tables(gpu, batch.n(), &tables, base)
    }

    /// Build and upload the factor tables from explicit per-prime tables.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not a power of two ≥ 2.
    pub fn upload_tables(
        gpu: &mut Gpu,
        n: usize,
        tables: &[&ntt_core::NttTable],
        base: usize,
    ) -> Self {
        assert!(base.is_power_of_two() && base >= 2, "invalid twist base");
        let range = 2 * n;
        let lo_len = base.min(range);
        let hi_len = range.div_ceil(base);
        let np = tables.len();
        let mut lo_w = Vec::with_capacity(np * lo_len);
        let mut lo_c = Vec::with_capacity(np * lo_len);
        let mut hi_w = Vec::with_capacity(np * hi_len);
        let mut hi_c = Vec::with_capacity(np * hi_len);
        for table in tables {
            let (p, psi) = (table.modulus(), table.psi());
            for d in 0..lo_len as u64 {
                let v = pow_mod(psi, d, p);
                lo_w.push(v);
                lo_c.push(precompute(v, p));
            }
            for d in 0..hi_len as u64 {
                let v = pow_mod(psi, (d * base as u64) % (range as u64), p);
                hi_w.push(v);
                hi_c.push(precompute(v, p));
            }
        }
        // Stream-charged uploads: every factor word crosses the modeled
        // bus and lands in the transfer ledger (same policy as DeviceOt).
        Self {
            base,
            lo_len,
            hi_len,
            lo_w: upload_table(gpu, &lo_w),
            lo_c: upload_table(gpu, &lo_c),
            hi_w: upload_table(gpu, &hi_w),
            hi_c: upload_table(gpu, &hi_c),
        }
    }

    /// Total factor-table bytes across the batch (values + companions).
    pub fn table_bytes(&self, np: usize) -> usize {
        np * (self.lo_len + self.hi_len) * 16
    }

    /// GMEM word addresses of the factor pair for `prime` and `exponent`
    /// (`exponent < 2N`): `(lo_w, lo_c, hi_w, hi_c)`.
    #[inline]
    pub fn factor_addrs(&self, prime: usize, exponent: usize) -> (usize, usize, usize, usize) {
        let (d0, d1) = (exponent % self.base, exponent / self.base);
        (
            self.lo_w.word(prime * self.lo_len + d0),
            self.lo_c.word(prime * self.lo_len + d0),
            self.hi_w.word(prime * self.hi_len + d1),
            self.hi_c.word(prime * self.hi_len + d1),
        )
    }
}

/// Per-column twist exponents: `e_u = 2·bitrev(u, log2 N1) + 1 − N1`
/// (mod `2N`), the negacyclic inter-block factors of the 4-step identity.
pub(crate) fn twist_exponents(n: usize, n1: usize) -> Vec<u64> {
    let log_n1 = n1.trailing_zeros();
    let two_n = 2 * n as u64;
    (0..n1)
        .map(|u| (2 * bit_reverse(u, log_n1) as u64 + 1 + two_n - n1 as u64) % two_n)
        .collect()
}

/// The transpose + twist kernel (`hier-twt`): one thread per element.
///
/// Thread `gt` owns *output* word `gt` of the transposed intermediate
/// (`T[row][s·N1 + u]`, coalesced stores), reads `x[row][u·N2 + s]`
/// through the cached path (strided within a warp, dense across the
/// grid), and multiplies by `ψ^(e_u·s)` via two Shoup modmuls against the
/// [`DeviceTwist`] factor tables.
struct TwistKernel<'a> {
    src: &'a RowTable,
    /// The transposed intermediate, the source's rows back to back.
    dst: Buf,
    n: usize,
    n1: usize,
    moduli: &'a [u64],
    /// Per-column twist exponents (length `N1`).
    exps: &'a [u64],
    twist: DeviceTwist,
}

impl WarpKernel for TwistKernel<'_> {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let total = self.src.len() * self.n;
        let n2 = self.n / self.n1;
        let two_n = 2 * self.n as u64;
        let lanes = ctx.lanes();

        let mut src_addr = vec![None; lanes];
        let mut lo_w = vec![None; lanes];
        let mut lo_c = vec![None; lanes];
        let mut hi_w = vec![None; lanes];
        let mut hi_c = vec![None; lanes];
        let mut prime = vec![0usize; lanes];
        let mut active = 0u64;
        for l in 0..lanes {
            let gt = ctx.global_thread(l);
            if gt >= total {
                continue;
            }
            active += 1;
            let row = gt / self.n;
            let idx = gt % self.n;
            // Output-indexed: T[s·N1 + u] <- x[u·N2 + s] · ψ^(e_u·s).
            let u = idx % self.n1;
            let s = idx / self.n1;
            let e = (self.exps[u] * s as u64 % two_n) as usize;
            prime[l] = self.src.prime(row);
            src_addr[l] = Some(self.src.word(row, u * n2 + s));
            let (a0, a1, a2, a3) = self.twist.factor_addrs(prime[l], e);
            lo_w[l] = Some(a0);
            lo_c[l] = Some(a1);
            hi_w[l] = Some(a2);
            hi_c[l] = Some(a3);
        }
        if active == 0 {
            return;
        }

        let x = ctx.gmem_load_cached(&src_addr);
        let (lw, lc) = ctx.gmem_load_cached2(&lo_w, &lo_c);
        let (hw, hc) = ctx.gmem_load_cached2(&hi_w, &hi_c);

        let writes: Vec<Option<(usize, u64)>> = (0..lanes)
            .map(|l| {
                x[l].map(|v| {
                    let p = self.moduli[prime[l]];
                    let step = mul_shoup(v, lw[l].expect("lo"), lc[l].expect("lo"), p);
                    let out = mul_shoup(step, hw[l].expect("hi"), hc[l].expect("hi"), p);
                    (self.dst.word(ctx.global_thread(l)), out)
                })
            })
            .collect();
        ctx.count_op(OpClass::ShoupMul, 2 * active);
        ctx.gmem_store(&writes);
    }
}

/// A device-side hierarchical NTT problem decoupled from [`DeviceBatch`]:
/// any rows through a [`RowTable`], under any primes.
pub(crate) struct HierJob<'a> {
    /// The rows transformed in place and their RNS primes.
    pub rows: &'a RowTable,
    /// `rows × N` scratch words for the transposed intermediate.
    pub scratch: Buf,
    /// `np × N` forward twiddle values (bit-reversed global tables).
    pub tw: Buf,
    /// `np × N` Shoup companions.
    pub twc: Buf,
    /// Transform size `N`.
    pub n: usize,
    /// `log2 N`.
    pub log_n: u32,
    /// Per-prime moduli (indexed by prime id).
    pub moduli: &'a [u64],
}

/// Whether an `N = n1 × n2` hierarchical run fits the device's launch
/// limits for **both** sub-NTT kernels (the SMEM tests' rival filter).
#[cfg(test)]
pub(crate) fn job_feasible(
    n: usize,
    n1: usize,
    per_thread: usize,
    config: &gpu_sim::GpuConfig,
) -> bool {
    if !n1.is_power_of_two() || n1 < 2 || n1 > n / 2 {
        return false;
    }
    for r in [n1, n / n1] {
        let t = per_thread.min(r);
        let (c, threads) = smem::launch_shape(r, t, n / r);
        if threads > config.max_threads_per_block as usize {
            return false;
        }
        let smem_words = c * r + 2 * r; // data tile + preloaded twiddles
        if smem_words * 8 > config.max_smem_per_block as usize {
            return false;
        }
    }
    true
}

/// Launch the three hierarchical kernels over an arbitrary row-mapped job.
/// Returns the launch count (always 3).
///
/// # Panics
///
/// Panics on invalid splits (`n1` must be a power of two with
/// `2 ≤ n1 ≤ N/2`).
pub(crate) fn launch_job(
    gpu: &mut Gpu,
    job: &HierJob<'_>,
    n1: usize,
    twist: &DeviceTwist,
    per_thread: usize,
) -> usize {
    let n = job.n;
    assert!(
        n1.is_power_of_two() && n1 >= 2 && n1 <= n / 2,
        "invalid N1 split"
    );
    let n2 = n / n1;

    // Kernel 1: compact N1-point column NTTs, in place.
    smem::launch_hier_stage(
        gpu,
        &HierStageJob {
            data: job.rows,
            out: job.rows,
            contiguous_out: false,
            tw: job.tw,
            twc: job.twc,
            n,
            log_n: job.log_n,
            r: n1,
            per_thread,
            moduli: job.moduli,
            name: format!("hier-col-{n1}"),
        },
    );

    // Kernel 2: transpose + inter-block twist into the scratch buffer.
    let exps = twist_exponents(n, n1);
    let rows = job.rows.len();
    let kernel = TwistKernel {
        src: job.rows,
        dst: job.scratch,
        n,
        n1,
        moduli: job.moduli,
        exps: &exps,
        twist: *twist,
    };
    let cfg =
        LaunchConfig::new("hier-twt", (rows * n).div_ceil(THREADS), THREADS).regs_per_thread(REGS);
    gpu.launch(&kernel, &cfg);

    // Kernel 3: compact N2-point row NTTs, strided over the intermediate,
    // stored contiguously back into the original array.
    let scratch = RowTable::contiguous(job.scratch, n, job.rows.primes());
    smem::launch_hier_stage(
        gpu,
        &HierStageJob {
            data: &scratch,
            out: job.rows,
            contiguous_out: true,
            tw: job.tw,
            twc: job.twc,
            n,
            log_n: job.log_n,
            r: n2,
            per_thread,
            moduli: job.moduli,
            name: format!("hier-row-{n2}"),
        },
    );
    3
}

/// Run the hierarchical forward NTT over a [`DeviceBatch`] with split
/// `N = n1 × (N/n1)`, uploading twist-factor tables and allocating the
/// transposed intermediate on demand.
///
/// # Panics
///
/// Panics on invalid splits (`n1` must be a power of two with
/// `2 ≤ n1 ≤ N/2`).
pub fn run(gpu: &mut Gpu, batch: &DeviceBatch, n1: usize) -> RunReport {
    let twist = DeviceTwist::upload(gpu, batch, TWIST_BASE.min(2 * batch.n()));
    run_with_twist(gpu, batch, n1, &twist)
}

/// [`run`] with pre-uploaded twist-factor tables (reuse across sweeps).
///
/// # Panics
///
/// Panics on invalid splits (`n1` must be a power of two with
/// `2 ≤ n1 ≤ N/2`).
pub fn run_with_twist(
    gpu: &mut Gpu,
    batch: &DeviceBatch,
    n1: usize,
    twist: &DeviceTwist,
) -> RunReport {
    let n = batch.n();
    let rows = batch.rows();
    let scratch = gpu.gmem.alloc(rows.len() * n);
    let job = HierJob {
        rows: &rows,
        scratch,
        tw: batch.twiddles,
        twc: batch.companions,
        n,
        log_n: batch.log_n(),
        moduli: batch.moduli(),
    };
    let launches = launch_job(gpu, &job, n1, twist, PER_THREAD);
    gpu.gmem.free(scratch);
    RunReport::from_trace(format!("hier {}x{}", n1, n / n1), gpu, launches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;

    fn setup(log_n: u32, np: usize) -> (Gpu, DeviceBatch) {
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let batch = DeviceBatch::sequential(&mut gpu, log_n, np, 60).unwrap();
        (gpu, batch)
    }

    #[test]
    fn twist_factors_reconstruct_every_power() {
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let batch = DeviceBatch::sequential(&mut gpu, 7, 2, 60).unwrap();
        let tw = DeviceTwist::upload(&mut gpu, &batch, 32);
        for prime in 0..2 {
            let table = batch.table(prime);
            let (p, psi) = (table.modulus(), table.psi());
            for e in 0..256usize {
                let (a0, a1, a2, a3) = tw.factor_addrs(prime, e);
                let lw = gpu.gmem.slice(tw.lo_w)[a0 - tw.lo_w.base()];
                let lc = gpu.gmem.slice(tw.lo_c)[a1 - tw.lo_c.base()];
                let hw = gpu.gmem.slice(tw.hi_w)[a2 - tw.hi_w.base()];
                let hc = gpu.gmem.slice(tw.hi_c)[a3 - tw.hi_c.base()];
                let x = 0xABCDEFu64 % p;
                let got = mul_shoup(mul_shoup(x, lw, lc, p), hw, hc, p);
                let want = ntt_math::mul_mod(x, pow_mod(psi, e as u64, p), p);
                assert_eq!(got, want, "prime {prime} exponent {e}");
            }
        }
    }

    #[test]
    fn bit_exact_across_splits() {
        for n1 in [8usize, 32, 64, 256] {
            let (mut gpu, batch) = setup(10, 2);
            let rep = run(&mut gpu, &batch, n1);
            assert!(rep.verify(&gpu, &batch), "n1={n1}");
            assert_eq!(rep.launches.len(), 3);
        }
    }

    #[test]
    fn kernel_names_and_structure() {
        let (mut gpu, batch) = setup(12, 1);
        let rep = run(&mut gpu, &batch, 64);
        let names: Vec<&str> = rep
            .launches
            .iter()
            .map(|l| l.launch.label.as_str())
            .collect();
        assert_eq!(names, ["hier-col-64", "hier-twt", "hier-row-64"]);
        assert!(rep.verify(&gpu, &batch));
    }

    #[test]
    fn bootstrapping_scale_is_bit_exact() {
        // The whole point: N = 2^16 with both sub-NTTs SMEM-resident.
        let (mut gpu, batch) = setup(16, 1);
        let rep = run(&mut gpu, &batch, 256);
        assert!(rep.verify(&gpu, &batch));
    }

    #[test]
    fn matches_cpu_hier_plan() {
        // Same factorization as the CPU HierPlan: identical bits.
        let (mut gpu, batch) = setup(12, 1);
        run(&mut gpu, &batch, 64);
        let got = batch.download(&gpu);
        let plan = ntt_core::HierPlan::with_root(
            batch.n(),
            batch.table(0).modulus(),
            batch.table(0).psi(),
            &ntt_core::HierConfig::default().split(64, 64),
        );
        let mut want = batch.input()[0].clone();
        plan.forward(&mut want);
        assert_eq!(got[0], want);
    }

    #[test]
    fn three_dram_round_trips_for_data() {
        // 4-step trades one extra data round trip (3 total: column NTT,
        // twist+transpose, row NTT) for SMEM residency of both sub-NTTs.
        let (mut gpu, batch) = setup(12, 2);
        let rep = run(&mut gpu, &batch, 64);
        let data_words = (2 * 4096 * 3) as u64;
        assert_eq!(rep.merged_stats().useful_write_bytes, data_words * 8);
    }

    #[test]
    fn feasible_at_bootstrap_sizes() {
        let config = GpuConfig::titan_v();
        assert!(job_feasible(1 << 17, 512, PER_THREAD, &config));
        assert!(job_feasible(1 << 16, 256, PER_THREAD, &config));
        // Degenerate or non-power-of-two splits are rejected.
        assert!(!job_feasible(1 << 17, 1, PER_THREAD, &config));
        assert!(!job_feasible(1 << 17, 1 << 17, PER_THREAD, &config));
        assert!(!job_feasible(1 << 17, 513, PER_THREAD, &config));
    }

    #[test]
    fn twist_tables_stay_small() {
        // The §VII story at twist scale: [0, 2N) factor coverage in
        // 1024 + 2N/1024 entries per prime instead of an N-entry table.
        let (mut gpu, batch) = setup(16, 1);
        let tw = DeviceTwist::upload(&mut gpu, &batch, 1024);
        assert_eq!(tw.lo_len, 1024);
        assert_eq!(tw.hi_len, (2 << 16) / 1024);
        assert!(tw.table_bytes(1) < batch.table_bytes() / 16);
    }
}
