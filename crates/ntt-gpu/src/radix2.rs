//! The radix-2 baseline: one kernel launch per Cooley–Tukey stage.
//!
//! This is the paper's baseline implementation (Table II "Radix-2",
//! Fig. 3(a)): `log2 N` kernel launches, each performing `np · N/2`
//! butterflies with one thread per butterfly. Twiddles (and their Shoup
//! companions) are fetched through the read-only path. The whole working
//! set streams through DRAM once per stage — which is exactly why the
//! paper's optimized versions exist.
//!
//! The same kernel doubles as the Fig. 1 experiment: [`ModMul::Native`]
//! replaces Shoup's multiplication with the native `%`-based sequence
//! (no companion loads, vastly more compute slots).

use crate::batch::DeviceBatch;
use crate::report::RunReport;
use crate::rows::RowTable;
use gpu_sim::{Buf, Gpu, LaunchConfig, OpClass, WarpCtx, WarpKernel};
use ntt_math::modops::{add_mod, mul_mod, sub_mod};
use ntt_math::shoup::mul_shoup;

/// Which modular multiplication the butterfly uses (paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModMul {
    /// Shoup's multiplication with precomputed companions (Algorithm 4).
    Shoup,
    /// Native `%`-based reduction (the 68-instruction sequence).
    Native,
}

/// Threads per block for the baseline kernel.
const THREADS: usize = 256;

/// Modeled 32-bit registers per thread: two u64 operands, twiddle pair,
/// modulus and addressing — far below any occupancy cliff.
const REGS: u32 = 48;

/// One forward Cooley–Tukey stage over a batch of limb rows.
///
/// Rows come from a [`RowTable`] (a plain `np`-prime batch back to back;
/// a buffer-of-digits batch with stacked polynomials; or the rows of
/// several separate views). Twiddles are consumed as the per-stage
/// `(value, companion)` **slice-pair** `Ψ[m..2m]` — the hoisted stage
/// iteration of `ntt_core::ct` — fetched through one paired read-only load
/// per warp ([`gpu_sim::WarpCtx::gmem_load_cached2`]).
pub(crate) struct StageKernel<'a> {
    /// The data rows and their primes (twiddle/modulus selector).
    pub(crate) rows: &'a RowTable,
    pub(crate) tw: Buf,
    pub(crate) twc: Buf,
    pub(crate) n: usize,
    pub(crate) moduli: &'a [u64],
    /// Stage value `m` (1, 2, 4, … N/2).
    pub(crate) m: usize,
    pub(crate) mode: ModMul,
}

impl WarpKernel for StageKernel<'_> {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let half_n = self.n / 2;
        let total = self.rows.len() * half_n;
        let t = self.n / (2 * self.m);
        let lanes = ctx.lanes();

        // Per-lane butterfly coordinates. The stage's twiddle slice starts
        // at word `m` of each prime's table (the `m..2m` slice-pair); only
        // the block index `i` varies per lane.
        let mut addr_a = vec![None; lanes];
        let mut addr_b = vec![None; lanes];
        let mut addr_w = vec![None; lanes];
        let mut prime = vec![0usize; lanes];
        let mut active = 0u64;
        for l in 0..lanes {
            let gt = ctx.global_thread(l);
            if gt >= total {
                continue;
            }
            active += 1;
            let row = gt / half_n;
            let pr = self.rows.prime(row);
            let b = gt % half_n;
            let i = b / t;
            let k = b % t;
            let x = i * 2 * t + k;
            prime[l] = pr;
            addr_a[l] = Some(self.rows.word(row, x));
            addr_b[l] = Some(self.rows.word(row, x + t));
            addr_w[l] = Some(pr * self.n + self.m + i);
        }
        if active == 0 {
            return;
        }

        let (a, b) = ctx.gmem_load2(&addr_a, &addr_b);
        let w_addrs: Vec<Option<usize>> =
            addr_w.iter().map(|o| o.map(|i| self.tw.word(i))).collect();
        let (w, wc) = match self.mode {
            ModMul::Shoup => {
                // Hoisted (value, companion) slice-pair: one paired cached
                // fetch per warp instead of two independent table walks.
                let c_addrs: Vec<Option<usize>> =
                    addr_w.iter().map(|o| o.map(|i| self.twc.word(i))).collect();
                let (w, wc) = ctx.gmem_load_cached2(&w_addrs, &c_addrs);
                (w, Some(wc))
            }
            ModMul::Native => (ctx.gmem_load_cached(&w_addrs), None),
        };

        let mut out_a = vec![None; lanes];
        let mut out_b = vec![None; lanes];
        for l in 0..lanes {
            let (Some(av), Some(bv), Some(wv)) = (a[l], b[l], w[l]) else {
                continue;
            };
            let p = self.moduli[prime[l]];
            let v = match self.mode {
                ModMul::Shoup => {
                    let cv = wc.as_ref().expect("companions loaded")[l].expect("lane active");
                    mul_shoup(bv, wv, cv, p)
                }
                ModMul::Native => mul_mod(bv, wv, p),
            };
            out_a[l] = Some((addr_a[l].expect("lane active"), add_mod(av, v, p)));
            out_b[l] = Some((addr_b[l].expect("lane active"), sub_mod(av, v, p)));
        }
        match self.mode {
            ModMul::Shoup => ctx.count_op(OpClass::ShoupMul, active),
            ModMul::Native => ctx.count_op(OpClass::NativeModMul, active),
        }
        ctx.count_op(OpClass::ModAddSub, 2 * active);
        ctx.gmem_store2(&out_a, &out_b);
    }
}

/// Gentleman-Sande inverse stage: butterflies `(u, v) -> (u+v, w*(u-v))`
/// with inverse twiddles; a final launch folds in `N^{-1}`. Rows come
/// from a [`RowTable`] and the stage's `(value, companion)`
/// slice-pair `Ψ⁻¹[h..2h]` is fetched as one paired cached load, exactly
/// like [`StageKernel`].
pub(crate) struct InverseStageKernel<'a> {
    pub(crate) rows: &'a RowTable,
    pub(crate) itw: Buf,
    pub(crate) itwc: Buf,
    pub(crate) n: usize,
    pub(crate) moduli: &'a [u64],
    /// Half-group count `h` (N/2, N/4, ... 1).
    pub(crate) h: usize,
}

impl WarpKernel for InverseStageKernel<'_> {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let half_n = self.n / 2;
        let total = self.rows.len() * half_n;
        let t = half_n / self.h;
        let lanes = ctx.lanes();
        let mut addr_a = vec![None; lanes];
        let mut addr_b = vec![None; lanes];
        let mut addr_w = vec![None; lanes];
        let mut prime = vec![0usize; lanes];
        let mut active = 0u64;
        for l in 0..lanes {
            let gt = ctx.global_thread(l);
            if gt >= total {
                continue;
            }
            active += 1;
            let row = gt / half_n;
            let pr = self.rows.prime(row);
            let b = gt % half_n;
            let i = b / t;
            let k = b % t;
            let x = i * 2 * t + k;
            prime[l] = pr;
            addr_a[l] = Some(self.rows.word(row, x));
            addr_b[l] = Some(self.rows.word(row, x + t));
            addr_w[l] = Some(pr * self.n + self.h + i);
        }
        if active == 0 {
            return;
        }
        let (a, b) = ctx.gmem_load2(&addr_a, &addr_b);
        let w_addrs: Vec<Option<usize>> =
            addr_w.iter().map(|o| o.map(|i| self.itw.word(i))).collect();
        let c_addrs: Vec<Option<usize>> = addr_w
            .iter()
            .map(|o| o.map(|i| self.itwc.word(i)))
            .collect();
        let (w, wc) = ctx.gmem_load_cached2(&w_addrs, &c_addrs);
        let mut out_a = vec![None; lanes];
        let mut out_b = vec![None; lanes];
        for l in 0..lanes {
            let (Some(av), Some(bv), Some(wv)) = (a[l], b[l], w[l]) else {
                continue;
            };
            let p = self.moduli[prime[l]];
            let cv = wc[l].expect("companion loaded");
            out_a[l] = Some((addr_a[l].expect("active"), add_mod(av, bv, p)));
            out_b[l] = Some((
                addr_b[l].expect("active"),
                mul_shoup(sub_mod(av, bv, p), wv, cv, p),
            ));
        }
        ctx.count_op(OpClass::ShoupMul, active);
        ctx.count_op(OpClass::ModAddSub, 2 * active);
        ctx.gmem_store2(&out_a, &out_b);
    }
}

/// Final `x <- N^{-1} * x` scaling pass of the inverse transform.
pub(crate) struct ScaleKernel<'a> {
    pub(crate) rows: &'a RowTable,
    pub(crate) n: usize,
    /// Per-prime `(N^{-1}, companion, p)`.
    pub(crate) n_inv: &'a [(u64, u64, u64)],
}

impl WarpKernel for ScaleKernel<'_> {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let total = self.rows.len() * self.n;
        let lanes = ctx.lanes();
        let mut addrs = vec![None; lanes];
        let mut prime = vec![0usize; lanes];
        let mut active = 0u64;
        for l in 0..lanes {
            let gt = ctx.global_thread(l);
            if gt >= total {
                continue;
            }
            active += 1;
            prime[l] = self.rows.prime(gt / self.n);
            addrs[l] = Some(self.rows.flat_word(self.n, gt));
        }
        if active == 0 {
            return;
        }
        let vals = ctx.gmem_load(&addrs);
        let writes: Vec<Option<(usize, u64)>> = (0..lanes)
            .map(|l| {
                vals[l].map(|v| {
                    let (ninv, c, p) = self.n_inv[prime[l]];
                    (addrs[l].expect("active"), mul_shoup(v, ninv, c, p))
                })
            })
            .collect();
        ctx.count_op(OpClass::ShoupMul, active);
        ctx.gmem_store(&writes);
    }
}

/// Launch the `log2 N` forward stage kernels over the rows of `rows`.
/// Returns the launch count.
pub(crate) fn launch_forward(
    gpu: &mut Gpu,
    rows: &RowTable,
    (tw, twc): (Buf, Buf),
    n: usize,
    moduli: &[u64],
    mode: ModMul,
) -> usize {
    let blocks = (rows.len() * n / 2).div_ceil(THREADS);
    let mut m = 1;
    let mut launches = 0;
    while m < n {
        let kernel = StageKernel {
            rows,
            tw,
            twc,
            n,
            moduli,
            m,
            mode,
        };
        let cfg = LaunchConfig::new(format!("radix2-m{m}"), blocks, THREADS).regs_per_thread(REGS);
        gpu.launch(&kernel, &cfg);
        launches += 1;
        m *= 2;
    }
    launches
}

/// Launch the inverse stage kernels plus the `N^{-1}` scaling pass
/// (see [`launch_forward`] for the rows). `n_inv` holds one
/// `(N^{-1}, companion, p)` triple per prime. Returns the launch count.
pub(crate) fn launch_inverse(
    gpu: &mut Gpu,
    rows: &RowTable,
    (itw, itwc): (Buf, Buf),
    n: usize,
    moduli: &[u64],
    n_inv: &[(u64, u64, u64)],
) -> usize {
    let blocks = (rows.len() * n / 2).div_ceil(THREADS);
    let mut h = n / 2;
    let mut launches = 0;
    while h >= 1 {
        let kernel = InverseStageKernel {
            rows,
            itw,
            itwc,
            n,
            moduli,
            h,
        };
        let cfg = LaunchConfig::new(format!("iradix2-h{h}"), blocks, THREADS).regs_per_thread(REGS);
        gpu.launch(&kernel, &cfg);
        launches += 1;
        h /= 2;
    }
    let scale = ScaleKernel { rows, n, n_inv };
    let cfg = LaunchConfig::new("intt-scale", (rows.len() * n).div_ceil(THREADS), THREADS)
        .regs_per_thread(REGS);
    gpu.launch(&scale, &cfg);
    launches + 1
}

/// Run the batched **inverse** NTT (bit-reversed input, natural-order
/// output, `N^{-1}` folded into a final scaling launch). The inverse
/// twiddle tables are uploaded on the active stream for this run and
/// freed after it.
pub fn run_inverse(gpu: &mut Gpu, batch: &DeviceBatch) -> RunReport {
    let n_inv: Vec<(u64, u64, u64)> = (0..batch.np())
        .map(|i| {
            let t = batch.table(i);
            (t.n_inv().value(), t.n_inv().companion(), t.modulus())
        })
        .collect();
    let (itw, itwc) = batch.upload_inverse_tables(gpu);
    let launches = launch_inverse(
        gpu,
        &batch.rows(),
        (itw, itwc),
        batch.n(),
        batch.moduli(),
        &n_inv,
    );
    let report = RunReport::from_trace("radix-2 inverse", gpu, launches);
    for buf in [itw, itwc] {
        gpu.gmem.free(buf);
    }
    report
}

/// Run the full batched forward NTT as `log2 N` stage launches.
///
/// The transform is in place on `batch.data` (bit-reversed output).
pub fn run(gpu: &mut Gpu, batch: &DeviceBatch, mode: ModMul) -> RunReport {
    let launches = launch_forward(
        gpu,
        &batch.rows(),
        (batch.twiddles, batch.companions),
        batch.n(),
        batch.moduli(),
        mode,
    );
    RunReport::from_trace(
        match mode {
            ModMul::Shoup => "radix-2 (Shoup)",
            ModMul::Native => "radix-2 (native)",
        },
        gpu,
        launches,
    )
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
    fn shoup_output_is_bit_exact() {
        let (mut gpu, batch) = setup(8, 3);
        let run = run(&mut gpu, &batch, ModMul::Shoup);
        assert!(run.verify(&gpu, &batch));
        assert_eq!(run.launches.len(), 8);
    }

    #[test]
    fn native_output_is_bit_exact() {
        let (mut gpu, batch) = setup(7, 2);
        let run = run(&mut gpu, &batch, ModMul::Native);
        assert!(run.verify(&gpu, &batch));
    }

    #[test]
    fn native_costs_far_more_compute() {
        // Fig. 1's premise: the native reduction burns ~8x the issue
        // slots. (End-to-end time only diverges once compute rivals the
        // DRAM floor — the figure harness shows that at N = 2^17.)
        let (mut gpu, batch) = setup(10, 4);
        let shoup = run(&mut gpu, &batch, ModMul::Shoup);
        batch.reset_data(&mut gpu);
        let native = run(&mut gpu, &batch, ModMul::Native);
        let tc_s: f64 = shoup.launches.iter().map(|l| l.timing.t_comp_s).sum();
        let tc_n: f64 = native.launches.iter().map(|l| l.timing.t_comp_s).sum();
        assert!(tc_n > 5.0 * tc_s, "native {tc_n} vs shoup {tc_s}");
        assert!(native.total_s() >= shoup.total_s() * 0.99);
    }

    #[test]
    fn data_traffic_scales_with_stages() {
        let (mut gpu, batch) = setup(9, 2);
        let run = run(&mut gpu, &batch, ModMul::Shoup);
        let stats = run.merged_stats();
        // Each stage reads and writes all np*N words at least once.
        let min_words = 9 * 2 * 512;
        assert!(stats.useful_read_bytes >= (min_words * 8) as u64);
        assert!(stats.useful_write_bytes == (min_words * 8) as u64);
    }

    #[test]
    fn inverse_recovers_input_after_forward() {
        let (mut gpu, batch) = setup(9, 3);
        run(&mut gpu, &batch, ModMul::Shoup);
        let rep = run_inverse(&mut gpu, &batch);
        assert_eq!(batch.download(&gpu), batch.input(), "iNTT(NTT(x)) = x");
        assert_eq!(rep.launches.len(), 10); // 9 stages + scaling
    }

    #[test]
    fn inverse_tables_cross_the_bus_and_are_freed() {
        // Each call uploads Ψ⁻¹ and its companions on the active stream
        // (so the bus time shows on the timeline) and frees them after the
        // run (so repeated calls do not grow the address space).
        let (mut gpu, batch) = setup(8, 2);
        let mut after_first = None;
        for call in 0..2 {
            let t0 = gpu.timeline();
            run_inverse(&mut gpu, &batch);
            let dt = gpu.timeline().since(&t0);
            assert_eq!(dt.transfers, 2, "call {call}: both tables cross the bus");
            assert!(dt.serialized_s > 0.0, "call {call}: bus time is charged");
            let words = gpu.gmem.allocated_words();
            assert_eq!(*after_first.get_or_insert(words), words, "call {call}");
        }
    }

    #[test]
    fn inverse_matches_scalar_reference() {
        // Inverse applied to arbitrary (non-transformed) data matches the
        // scalar intt on the same bit-reversed-domain input.
        let (mut gpu, batch) = setup(6, 2);
        run_inverse(&mut gpu, &batch);
        let got = batch.download(&gpu);
        for (i, row) in got.iter().enumerate().take(2) {
            let mut want = batch.input()[i].clone();
            ntt_core::ct::intt(&mut want, batch.table(i));
            assert_eq!(row, &want, "prime {i}");
        }
    }

    #[test]
    fn fig8_stage_twiddle_traffic_matches_table_accounting() {
        // Re-check of the paper's Fig. 8 with *measured* traffic: per
        // stage, the (value, companion) slice-pair Ψ[m..2m] streamed
        // through the read-only path must cost exactly the bytes the
        // analytic accounting (`NttTable::relative_stage_sizes`) predicts.
        // Holds from m = 4 up (below that, a slice underfills one 32-byte
        // transaction per table and the model floors at a full sector).
        let (mut gpu, batch) = setup(10, 2);
        let (n, np) = (batch.n(), batch.np());
        let rep = run(&mut gpu, &batch, ModMul::Shoup);
        let ratios = batch.table(0).relative_stage_sizes();
        assert_eq!(rep.launches.len(), ratios.len());
        for (s, launch) in rep.launches.iter().enumerate() {
            let m = 1usize << s;
            if m < 4 {
                continue;
            }
            // Data: every one of the np·N words crosses DRAM once (4-word
            // sectors). The rest of the read traffic is the twiddle pair.
            let data_txns = (np * n / 4) as u64;
            let tw_txns = launch.stats.dram_read_transactions - data_txns;
            assert_eq!(tw_txns, (np * m / 2) as u64, "stage {}", s + 1);
            let measured = (tw_txns * 32) as f64 / (np * n * 8) as f64;
            assert!(
                (measured - ratios[s].1).abs() < 1e-12,
                "stage {}: measured {measured} vs analytic {}",
                s + 1,
                ratios[s].1
            );
        }
    }

    #[test]
    fn butterfly_op_counts_match_formula() {
        let (mut gpu, batch) = setup(8, 3);
        let run = run(&mut gpu, &batch, ModMul::Shoup);
        let stats = run.merged_stats();
        // np * N/2 * log2(N) butterflies, one Shoup mul each.
        assert_eq!(stats.op(OpClass::ShoupMul), 3 * 128 * 8);
        assert_eq!(stats.op(OpClass::ModAddSub), 2 * 3 * 128 * 8);
        assert_eq!(stats.op(OpClass::NativeModMul), 0);
    }
}
