//! The two-kernel shared-memory (SMEM) implementation (paper §VI-C).
//!
//! An N-point NTT factors as `N = N1 × N2`:
//!
//! * **Kernel-1** performs `N2` strided `N1`-point NTTs (the first
//!   `log2 N1` Cooley–Tukey stages). All columns share the same `N1 - 1`
//!   twiddles, which can be *preloaded into SMEM* (Fig. 9). Loads touch
//!   addresses `column + s·N2`; merging several columns per block makes
//!   adjacent lanes read adjacent addresses (*coalescing*, Fig. 6/7).
//! * **Kernel-2** performs `N1` contiguous `N2`-point NTTs (the remaining
//!   stages). Each row needs its own twiddle-table slice — this is where
//!   the table traffic lives, and where on-the-fly twiddling (§VII) is
//!   applied to the last one or two stages.
//!
//! Within a kernel, an `R`-point NTT is decomposed into *per-thread
//! `T`-point NTTs* (T ∈ {2,4,8}, Fig. 2/10): each level runs in registers,
//! with a block barrier and an SMEM transpose between levels. The twiddle
//! index algebra is the `tw_base` composition derived in
//! `ntt_core::radix`.
//!
//! The **inverse** ([`Direction::Inverse`], [`run_inverse`]) is the exact
//! transpose of the forward on the same kernels: Gentleman–Sande stage
//! `h` pairs the elements Cooley–Tukey stage `m = h` pairs and reads the
//! same twiddle index, in `Ψ⁻¹`. So the contiguous kernel runs first
//! (stages `N/2 … N1`, OT on its first `ot_stages` stages), the strided
//! kernel second (stages `N1/2 … 1`, `Ψ⁻¹[1..N1]` preloaded), each
//! kernel's levels and stages run in reverse, and `N⁻¹` is folded into
//! the strided kernel's final store — two DRAM round trips, no scaling
//! launch.
//!
//! **Whole rows** are the degenerate `N × 1` split (`n1 = N`): the
//! strided kernel alone runs each row's full `N`-point NTT (`smem-k1-{N}`,
//! and `smem-k1-{N}-inv` with `N⁻¹` folded into its store) — one DRAM
//! round trip and one launch per direction. A row needs only `N/T`
//! threads, so a block packs up to 256 threads' worth of rows, each lane
//! reading its twiddles and modulus under its own row's prime, and a
//! partial last block masks its idle lanes. The `SimBackend` routes every
//! ring with `N < 256` here without a sweep.

// Kernel code models warp lanes with explicit indices into parallel
// per-lane arrays (live/base/vals/regs), mirroring the CUDA original;
// iterator rewrites would obscure the lane addressing the simulator counts.
#![allow(clippy::needless_range_loop)]

use crate::batch::DeviceBatch;
use crate::ot::DeviceOt;
use crate::radix2::ModMul;
use crate::report::RunReport;
use crate::rows::{sub_scale_factors, LoadRows, RowTable};
use gpu_sim::{Buf, Gpu, LaunchConfig, OpClass, WarpCtx, WarpKernel};
use ntt_core::bitrev::bit_reverse;
use ntt_math::modops::{add_mod, inv_mod, mul_mod, sub_mod};
use ntt_math::shoup::{mul_shoup, precompute};

/// Configuration of the SMEM implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmemConfig {
    /// Kernel-1 size `N1` (Kernel-2 size is `N / N1`). `N1 = N` runs
    /// whole rows in one kernel, where `coalesced`, `preload` and OT do
    /// not apply: lanes walk along their own rows and read their own
    /// rows' twiddles.
    pub n1: usize,
    /// Per-thread NTT size `T` (2, 4 or 8 in the paper's Fig. 11).
    pub per_thread: usize,
    /// Merge columns into blocks so warp lanes hit adjacent addresses
    /// (paper Fig. 6(b); `false` reproduces the uncoalesced Fig. 6(a)).
    pub coalesced: bool,
    /// Preload Kernel-1's twiddles into shared memory (paper Fig. 9).
    pub preload: bool,
    /// Apply on-the-fly twiddling to the last `ot_stages` stages (0–2).
    pub ot_stages: u32,
    /// OT factorization base (the paper's best: 1024).
    pub ot_base: usize,
    /// Modular multiplication flavor (paper Fig. 1 runs this kernel with
    /// the native `%` sequence for comparison).
    pub modmul: ModMul,
}

impl SmemConfig {
    /// Defaults per the paper's best configuration: 8-point per-thread
    /// NTTs, coalesced, twiddles preloaded, OT off.
    pub fn new(n1: usize) -> Self {
        Self {
            n1,
            per_thread: 8,
            coalesced: true,
            preload: true,
            ot_stages: 0,
            ot_base: 1024,
            modmul: ModMul::Shoup,
        }
    }

    /// Set the per-thread NTT size.
    pub fn per_thread(mut self, t: usize) -> Self {
        self.per_thread = t;
        self
    }

    /// Toggle Kernel-1 coalescing.
    pub fn coalesced(mut self, on: bool) -> Self {
        self.coalesced = on;
        self
    }

    /// Toggle twiddle preloading into SMEM.
    pub fn preload(mut self, on: bool) -> Self {
        self.preload = on;
        self
    }

    /// Apply OT to the last `k` stages (0 disables).
    pub fn ot_stages(mut self, k: u32) -> Self {
        self.ot_stages = k;
        self
    }

    /// Select the modular-multiplication flavor.
    pub fn modmul(mut self, mode: ModMul) -> Self {
        self.modmul = mode;
        self
    }

    /// The Kernel-1 sizes the paper sweeps for a given `log2 N`
    /// (Fig. 12(a)'s four splits per N).
    pub fn paper_splits(log_n: u32) -> Vec<usize> {
        match log_n {
            14 => vec![256, 128, 64, 32],
            15 => vec![512, 256, 128, 64],
            16 => vec![512, 256, 128, 64],
            17 => vec![512, 256, 128, 64],
            _ => vec![1 << (log_n / 2)],
        }
    }

    /// Short label like `512x256 t8 +OT1`.
    pub fn label(&self, n: usize) -> String {
        let mut s = format!("{}x{} t{}", self.n1, n / self.n1, self.per_thread);
        if !self.coalesced {
            s.push_str(" uncoal");
        }
        if !self.preload {
            s.push_str(" nopre");
        }
        if self.ot_stages > 0 {
            s.push_str(&format!(" +OT{}", self.ot_stages));
        }
        if self.modmul == ModMul::Native {
            s.push_str(" native");
        }
        s
    }
}

/// Modeled 32-bit registers for a T-point-per-thread SMEM kernel.
pub(crate) fn regs_per_thread(t: usize) -> u32 {
    4 * t as u32 + 64
}

/// Which transform a two-kernel run computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Cooley–Tukey forward: strided kernel first, levels and stages in
    /// order, butterfly `(u, v) → (u + v·w, u − v·w)` with `Ψ`.
    Forward,
    /// Gentleman–Sande inverse: contiguous kernel first, levels and
    /// stages reversed, butterfly `(u, v) → (u + v, (u − v)·w)` with
    /// `Ψ⁻¹`, and `N⁻¹` folded into the final store.
    Inverse,
}

/// Which half of the factorization a kernel instance runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Orientation {
    /// Kernel-1: strided columns, shared twiddles (`tw_base = 1`).
    Strided,
    /// Kernel-2: contiguous rows, per-row twiddles (`tw_base = N1 + row`).
    Contiguous,
}

/// Where one lane works: its data row, that row's RNS prime, its group
/// (column or row segment) within the row and in the block, and its
/// thread index within the group.
#[derive(Clone, Copy)]
struct Site {
    row: usize,
    prime: usize,
    group: usize,
    slot: usize,
    u: usize,
}

struct TwoStepKernel {
    /// The rows the first level reads (unless `load` is set), and each
    /// row's RNS prime (identity for a plain `np`-prime batch; `r % level`
    /// for stacked buffer-of-digits batches; any mix for a multi-view
    /// op). Data addressing uses the row table, twiddle/modulus selection
    /// the prime.
    data: RowTable,
    /// Output rows of the final level (the same rows as `data` for the
    /// classic two-kernel split; the hierarchical row kernel stores into
    /// the original array while reading the transposed intermediate, and
    /// a split with a folded rescale parks its first kernel's output in
    /// scratch).
    out: RowTable,
    /// A producer folded into the first level's load (a forward's first
    /// kernel only): row `r` reads its row of the fold's source instead.
    load: Option<LoadRows>,
    /// The first level reads GMEM through a cooperative coalesced copy
    /// of the block's tile into SMEM instead of lane by lane: whole rows
    /// whose first level is strided (the inverse's).
    staged_in: bool,
    /// Final stores go through SMEM and a cooperative coalesced write-out
    /// of the block's tile, the mirror of `staged_in`: group `g`'s `r`
    /// points land contiguously at `out[g*r ..]` even though the kernel
    /// computes them strided. Used by the whole-row forward, by the
    /// hierarchical row kernel so the result comes back in natural
    /// row-major layout, and by a split's folded second kernel.
    staged_out: bool,
    tw: Buf,
    twc: Buf,
    n: usize,
    log_n: u32,
    moduli: Vec<u64>,
    /// This kernel's transform size (N1 or N2).
    r: usize,
    /// Per-thread NTT size.
    t: usize,
    /// Level sizes (all `t`, except a possibly smaller last level).
    levels: Vec<usize>,
    /// Groups (columns or rows) per block; whole data rows per block for
    /// the degenerate `N × 1` split.
    c: usize,
    orientation: Orientation,
    coalesced: bool,
    preload: bool,
    /// Use the native `%` multiplication instead of Shoup's.
    native: bool,
    /// OT tables plus the first twiddle index handled by OT.
    ot: Option<(DeviceOt, usize)>,
    /// Forward (CT) or inverse (GS); `tw`/`twc` hold the matching table.
    direction: Direction,
    /// Per-prime `(N⁻¹, companion)` multiplied into the final GMEM store
    /// (the inverse's last kernel only).
    n_inv: Option<Vec<(u64, u64)>>,
    /// Per-prime `(p_d⁻¹, companion)` of a rescale folded into the final
    /// store (the forward's last kernel only): the store loads the output
    /// word `x` and writes `(x − v)·p_d⁻¹` instead of `v`.
    sub_scale: Option<Vec<(u64, u64)>>,
}

impl TwoStepKernel {
    /// The level run at `step`: the inverse walks the levels last-first.
    fn level_at(&self, step: usize) -> usize {
        match self.direction {
            Direction::Forward => step,
            Direction::Inverse => self.levels.len() - 1 - step,
        }
    }

    fn threads_per_group(&self) -> usize {
        self.r / self.t
    }

    fn groups_per_prime(&self) -> usize {
        self.n / self.r
    }

    /// The degenerate `N × 1` split: each group is a whole data row, and a
    /// block packs `c` rows that may sit under different primes.
    fn whole_rows(&self) -> bool {
        self.r == self.n
    }

    /// (group-in-block, thread-in-group) for a block-local thread id.
    fn split_tid(&self, tid: usize) -> (usize, usize) {
        match self.orientation {
            // Kernel-1: adjacent lanes take adjacent columns (coalescing).
            Orientation::Strided if !self.whole_rows() => (tid % self.c, tid / self.c),
            // Kernel-2 and whole rows: adjacent lanes walk within a row.
            _ => (
                tid / self.threads_per_group(),
                tid % self.threads_per_group(),
            ),
        }
    }

    /// (data row, block-in-row) of a block that works inside one row.
    fn block_row(&self, block: usize) -> (usize, usize) {
        let blocks_per_row = self.groups_per_prime() / self.c;
        (block / blocks_per_row, block % blocks_per_row)
    }

    /// Every lane's [`Site`] in this warp; `None` marks an idle lane of a
    /// partial last block of whole rows.
    fn sites(&self, ctx: &WarpCtx<'_>) -> [Option<Site>; 32] {
        let mut sites = [None; 32];
        if self.whole_rows() {
            for (l, site) in sites.iter_mut().enumerate().take(ctx.lanes()) {
                let (slot, u) = self.split_tid(ctx.thread_in_block(l));
                let row = ctx.block * self.c + slot;
                *site = (row < self.data.len()).then(|| Site {
                    row,
                    prime: self.data.prime(row),
                    group: 0,
                    slot,
                    u,
                });
            }
        } else {
            let (row, block_in_row) = self.block_row(ctx.block);
            let prime = self.data.prime(row);
            for (l, site) in sites.iter_mut().enumerate().take(ctx.lanes()) {
                let (slot, u) = self.split_tid(ctx.thread_in_block(l));
                *site = Some(Site {
                    row,
                    prime,
                    group: self.global_group(block_in_row, slot),
                    slot,
                    u,
                });
            }
        }
        sites
    }

    /// Word offset within its row of (group, local element).
    fn elem_off(&self, group: usize, e: usize) -> usize {
        match self.orientation {
            Orientation::Strided => group + e * self.groups_per_prime(),
            Orientation::Contiguous => group * self.r + e,
        }
    }

    /// Words of `block`'s SMEM tile that hold points: all `c·r`, except in
    /// a partial last block of whole rows, which stops at the last row.
    fn tile_len(&self, block: usize) -> usize {
        let rows = if self.whole_rows() {
            self.c.min(self.data.len() - block * self.c)
        } else {
            self.c
        };
        rows * self.r
    }

    /// (row, word offset in the row) of word `i < tile_len` of `block`'s
    /// SMEM tile: whole rows hold the block's rows back to back, and any
    /// other kernel its `c` groups of `r` points, contiguous in their one
    /// row.
    fn tile_point(&self, block: usize, i: usize) -> (usize, usize) {
        if self.whole_rows() {
            (block * self.c + i / self.r, i % self.r)
        } else {
            let (row, block_in_row) = self.block_row(block);
            (row, block_in_row * self.c * self.r + i)
        }
    }

    /// Warp-wide read of the input points `(row, offset)`: each row's own
    /// word, or through the load fold its source word, mapped under the
    /// row's prime. A fold's source rows are shared by many rows, so it
    /// reads through the read-only path; `cached` sends a direct read
    /// there too (the uncoalesced Fig. 6(a) layout, served by L2).
    fn read_points(
        &self,
        ctx: &mut WarpCtx<'_>,
        at: &[Option<(usize, usize)>],
        cached: bool,
    ) -> Vec<Option<u64>> {
        let Some(load) = &self.load else {
            let addrs: Vec<Option<usize>> = at
                .iter()
                .map(|a| a.map(|(row, off)| self.data.word(row, off)))
                .collect();
            return if cached {
                ctx.gmem_load_cached(&addrs)
            } else {
                ctx.gmem_load(&addrs)
            };
        };
        let addrs: Vec<Option<usize>> = at
            .iter()
            .map(|a| a.map(|(row, off)| load.src.word(row, off)))
            .collect();
        let vals = ctx.gmem_load_cached(&addrs);
        ctx.count_op(OpClass::Generic, addrs.iter().flatten().count() as u64);
        at.iter()
            .zip(vals)
            .map(|(a, v)| {
                let (row, _) = (*a)?;
                Some(load.map(row, v?, &self.moduli, self.data.prime(row)))
            })
            .collect()
    }

    /// Warp-wide store of finished points `(row, offset, value)` into
    /// `out`: times `N⁻¹` in the inverse's last kernel, or with a folded
    /// rescale `(x − v)·p_d⁻¹` over the word `x` it overwrites, read the
    /// way the store writes. `merged` stores through L2 (the uncoalesced
    /// Fig. 6(a) layout).
    fn store_points(
        &self,
        ctx: &mut WarpCtx<'_>,
        pts: &[Option<(usize, usize, u64)>],
        merged: bool,
    ) {
        let addrs: Vec<Option<usize>> = pts
            .iter()
            .map(|pt| pt.map(|(row, off, _)| self.out.word(row, off)))
            .collect();
        let acc = match self.sub_scale {
            Some(_) => ctx.gmem_load(&addrs),
            None => vec![None; pts.len()],
        };
        let writes: Vec<Option<(usize, u64)>> = pts
            .iter()
            .zip(&addrs)
            .zip(acc)
            .map(|((pt, addr), x)| {
                let (row, _, mut v) = (*pt)?;
                let prime = self.data.prime(row);
                let p = self.moduli[prime];
                if let Some(n_inv) = &self.n_inv {
                    let (w, wc) = n_inv[prime];
                    v = mul_shoup(v, w, wc, p);
                }
                if let Some(inv) = &self.sub_scale {
                    let (w, wc) = inv[prime];
                    v = mul_shoup(sub_mod(x.expect("output word loaded"), v, p), w, wc, p);
                }
                Some(((*addr)?, v))
            })
            .collect();
        let active = writes.iter().flatten().count() as u64;
        if self.n_inv.is_some() {
            ctx.count_op(OpClass::ShoupMul, active);
        }
        if self.sub_scale.is_some() {
            ctx.count_op(OpClass::ModAddSub, active);
            ctx.count_op(OpClass::ShoupMul, active);
        }
        if merged {
            ctx.gmem_store_merged(&writes);
        } else {
            ctx.gmem_store(&writes);
        }
    }

    /// Whether this kernel's direct GMEM accesses are uncoalesced (the
    /// paper's Fig. 6(a) layout): read through L2, stores merged there.
    fn scattered(&self) -> bool {
        !self.coalesced && self.orientation == Orientation::Strided
    }

    /// Load `level`'s points from the SMEM tile into registers (the
    /// Fig. 2 "transposed" load between levels, and the first level of a
    /// staged load).
    fn gather_level(&self, ctx: &mut WarpCtx<'_>, level: usize, sites: &[Option<Site>; 32]) {
        let lanes = ctx.lanes();
        let tpg = self.threads_per_group();
        let size = self.levels[level];
        for b in 0..self.t / size {
            for s in 0..size {
                let addrs: Vec<Option<usize>> = sites[..lanes]
                    .iter()
                    .map(|site| {
                        site.map(|x| {
                            let e = self.item_elem(level, x.u + b * tpg, s);
                            self.smem_elem(x.slot, e)
                        })
                    })
                    .collect();
                let vals = ctx.smem_load(&addrs);
                for l in 0..lanes {
                    if sites[l].is_some() {
                        ctx.regs(l)[b * size + s] = vals[l].expect("lane active");
                    }
                }
            }
        }
    }

    /// Global group index for (block-in-prime, group-in-block).
    fn global_group(&self, block_in_prime: usize, c: usize) -> usize {
        let blocks_per_prime = self.groups_per_prime() / self.c;
        if self.coalesced || self.orientation == Orientation::Contiguous {
            block_in_prime * self.c + c
        } else {
            // The paper's Fig. 6(a): columns strided across blocks.
            c * blocks_per_prime + block_in_prime
        }
    }

    /// The `tw_base` of a group's R-point NTT in the global table.
    fn group_tw_base(&self, group: usize) -> usize {
        match self.orientation {
            Orientation::Strided => 1,
            Orientation::Contiguous => self.groups_per_prime() + group,
        }
    }

    /// Product of level sizes before `level`.
    fn m_before(&self, level: usize) -> usize {
        self.levels[..level].iter().product()
    }

    /// Local element index of point `s` for work item `item` at `level`.
    fn item_elem(&self, level: usize, item: usize, s: usize) -> usize {
        let m = self.m_before(level);
        let size = self.levels[level];
        let sigma = self.r / (m * size);
        let i0 = item / sigma;
        let k = item % sigma;
        i0 * (self.r / m) + k + s * sigma
    }

    /// The global twiddle-table index for a butterfly of `level`.
    fn twiddle_index(
        &self,
        level: usize,
        item: usize,
        m_loc: usize,
        i_loc: usize,
        group: usize,
    ) -> usize {
        let m = self.m_before(level);
        let size = self.levels[level];
        let sigma = self.r / (m * size);
        let i0 = item / sigma;
        let tw_block = m * self.group_tw_base(group) + i0;
        m_loc * tw_block + i_loc
    }

    /// SMEM word of local element `e` for block-group `c`.
    fn smem_elem(&self, c: usize, e: usize) -> usize {
        c * self.r + e
    }

    /// SMEM offsets of the preloaded twiddle regions (values, companions).
    fn smem_tw_region(&self) -> (usize, usize) {
        (self.c * self.r, self.c * self.r + self.r)
    }

    /// Run one compute level over the warp's active lanes, registers in
    /// `t`-slot frames.
    fn compute_level(&self, ctx: &mut WarpCtx<'_>, level: usize, sites: &[Option<Site>; 32]) {
        let lanes = ctx.lanes();
        let active = sites[..lanes].iter().flatten().count() as u64;
        let tpg = self.threads_per_group();
        let size = self.levels[level];
        let subs = self.t / size;
        let inverse = self.direction == Direction::Inverse;

        for b in 0..subs {
            for stage in 0..size.trailing_zeros() {
                // CT runs the local stages m = 1, 2, … size/2; GS runs
                // the same stages (same pairs, same twiddle index) in
                // reverse.
                let m_loc = if inverse {
                    size >> (stage + 1)
                } else {
                    1 << stage
                };
                let t_loc = size / (2 * m_loc);
                for i_loc in 0..m_loc {
                    // Per-lane (prime, twiddle index): uniform stage,
                    // per-lane group and, for whole rows, per-lane prime.
                    let idxs: Vec<Option<(usize, usize)>> = sites[..lanes]
                        .iter()
                        .map(|s| {
                            s.map(|s| {
                                let i =
                                    self.twiddle_index(level, s.u + b * tpg, m_loc, i_loc, s.group);
                                (s.prime, i)
                            })
                        })
                        .collect();
                    let use_ot = self.ot.as_ref().is_some_and(|(_, thr)| {
                        idxs.iter()
                            .flatten()
                            .next()
                            .is_some_and(|&(_, i)| i >= *thr)
                    });

                    // Fetch twiddles (or OT factors) for all lanes.
                    let (w, wc, hw, hc);
                    if use_ot {
                        let (ot, _) = self.ot.as_ref().expect("ot checked");
                        let mut a0 = vec![None; lanes];
                        let mut a1 = vec![None; lanes];
                        let mut a2 = vec![None; lanes];
                        let mut a3 = vec![None; lanes];
                        for (l, x) in idxs.iter().enumerate() {
                            let Some((prime, i)) = *x else { continue };
                            let e = bit_reverse(i, self.log_n);
                            let (w0, c0, w1, c1) = ot.factor_addrs(prime, e);
                            a0[l] = Some(w0);
                            a1[l] = Some(c0);
                            a2[l] = Some(w1);
                            a3[l] = Some(c1);
                        }
                        w = ctx.gmem_load_cached(&a0);
                        wc = ctx.gmem_load_cached(&a1);
                        hw = Some(ctx.gmem_load_cached(&a2));
                        hc = Some(ctx.gmem_load_cached(&a3));
                    } else if self.preload && self.orientation == Orientation::Strided {
                        let (wr, cr) = self.smem_tw_region();
                        let a0: Vec<Option<usize>> =
                            idxs.iter().map(|x| x.map(|(_, i)| wr + i)).collect();
                        w = ctx.smem_load(&a0);
                        wc = if self.native {
                            vec![None; lanes]
                        } else {
                            let a1: Vec<Option<usize>> =
                                idxs.iter().map(|x| x.map(|(_, i)| cr + i)).collect();
                            ctx.smem_load(&a1)
                        };
                        hw = None;
                        hc = None;
                    } else {
                        let a0: Vec<Option<usize>> = idxs
                            .iter()
                            .map(|x| x.map(|(prime, i)| self.tw.word(prime * self.n + i)))
                            .collect();
                        w = ctx.gmem_load_cached(&a0);
                        wc = if self.native {
                            vec![None; lanes]
                        } else {
                            let a1: Vec<Option<usize>> = idxs
                                .iter()
                                .map(|x| x.map(|(prime, i)| self.twc.word(prime * self.n + i)))
                                .collect();
                            ctx.gmem_load_cached(&a1)
                        };
                        hw = None;
                        hc = None;
                    }

                    // Butterflies for this (m_loc, i_loc) over all lanes.
                    let j1 = 2 * i_loc * t_loc;
                    for j in j1..j1 + t_loc {
                        for l in 0..lanes {
                            let Some(site) = sites[l] else { continue };
                            let p = self.moduli[site.prime];
                            let (s_lo, s_hi) = (b * size + j, b * size + j + t_loc);
                            let regs = ctx.regs(l);
                            let u_val = regs[s_lo];
                            let b_val = regs[s_hi];
                            // The operand the twiddle multiplies: `v` (CT)
                            // or `u − v` (GS).
                            let x = if inverse {
                                sub_mod(u_val, b_val, p)
                            } else {
                                b_val
                            };
                            let wv = w[l].expect("twiddle loaded");
                            let mut v = if self.native {
                                mul_mod(x, wv, p)
                            } else {
                                mul_shoup(x, wv, wc[l].expect("companion loaded"), p)
                            };
                            if use_ot {
                                let hwv = hw.as_ref().expect("ot hi")[l].expect("lane");
                                let hcv = hc.as_ref().expect("ot hi")[l].expect("lane");
                                v = mul_shoup(v, hwv, hcv, p);
                            }
                            let regs = ctx.regs(l);
                            if inverse {
                                regs[s_lo] = add_mod(u_val, b_val, p);
                                regs[s_hi] = v;
                            } else {
                                regs[s_lo] = add_mod(u_val, v, p);
                                regs[s_hi] = sub_mod(u_val, v, p);
                            }
                        }
                        if self.native {
                            ctx.count_op(OpClass::NativeModMul, active);
                        } else {
                            ctx.count_op(
                                OpClass::ShoupMul,
                                if use_ot { 2 * active } else { active },
                            );
                        }
                        ctx.count_op(OpClass::ModAddSub, 2 * active);
                    }
                }
            }
        }
    }
}

impl WarpKernel for TwoStepKernel {
    fn phases(&self) -> usize {
        // Each staged access needs one extra cooperative phase.
        2 * self.levels.len() + usize::from(self.staged_in) + usize::from(self.staged_out)
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let lanes = ctx.lanes();
        let tpg = self.threads_per_group();
        let threads = self.c * tpg;
        let sites = self.sites(ctx);
        let n_levels = self.levels.len();
        // A staged phase walks only the tile's points, so a warp past the
        // last row of a partial block issues nothing.
        let tile = self.tile_len(ctx.block);

        if ctx.phase == 0 {
            // Optional twiddle preload (Kernel-1 of a two-kernel split
            // only): all threads cooperatively stage Ψ[0..r] and
            // companions into SMEM.
            if self.preload && self.orientation == Orientation::Strided {
                let prime = self.data.prime(self.block_row(ctx.block).0);
                let (wr, cr) = self.smem_tw_region();
                let mut idx = ctx.warp * 32;
                while idx < self.r {
                    let g_addrs: Vec<Option<usize>> = (0..lanes)
                        .map(|l| {
                            let i = idx + l;
                            (i < self.r).then(|| self.tw.word(prime * self.n + i))
                        })
                        .collect();
                    let vals = ctx.gmem_load_cached(&g_addrs);
                    let writes: Vec<Option<(usize, u64)>> = (0..lanes)
                        .map(|l| vals[l].map(|v| (wr + idx + l, v)))
                        .collect();
                    ctx.smem_store(&writes);
                    if !self.native {
                        let c_addrs: Vec<Option<usize>> = (0..lanes)
                            .map(|l| {
                                let i = idx + l;
                                (i < self.r).then(|| self.twc.word(prime * self.n + i))
                            })
                            .collect();
                        let vals = ctx.gmem_load_cached(&c_addrs);
                        let writes: Vec<Option<(usize, u64)>> = (0..lanes)
                            .map(|l| vals[l].map(|v| (cr + idx + l, v)))
                            .collect();
                        ctx.smem_store(&writes);
                    }
                    idx += threads; // all warps advance together
                }
            }
            if self.staged_in {
                // Staged load: the block's tile, GMEM word `q` to SMEM
                // word `q`, every warp reading adjacent addresses.
                let mut q = ctx.warp * 32;
                while q < tile {
                    let at: Vec<Option<(usize, usize)>> = (0..lanes)
                        .map(|l| (q + l < tile).then(|| self.tile_point(ctx.block, q + l)))
                        .collect();
                    let vals = self.read_points(ctx, &at, false);
                    let writes: Vec<Option<(usize, u64)>> =
                        (0..lanes).map(|l| vals[l].map(|v| (q + l, v))).collect();
                    ctx.smem_store(&writes);
                    q += threads; // all warps advance together
                }
                return;
            }
            // First-level gather: GMEM -> registers. Without block merging
            // the per-warp pattern is scattered but dense across the grid,
            // so the loads are served through L2 (Fig. 6(a) behaviour).
            let first = self.level_at(0);
            let size = self.levels[first];
            for s in 0..size {
                for b in 0..self.t / size {
                    let at: Vec<Option<(usize, usize)>> = sites[..lanes]
                        .iter()
                        .map(|site| {
                            site.map(|x| {
                                let e = self.item_elem(first, x.u + b * tpg, s);
                                (x.row, self.elem_off(x.group, e))
                            })
                        })
                        .collect();
                    let vals = self.read_points(ctx, &at, self.scattered());
                    for l in 0..lanes {
                        if sites[l].is_some() {
                            ctx.regs(l)[b * size + s] = vals[l].expect("lane active");
                        }
                    }
                }
            }
            return;
        }

        // A staged load spends phase 0 on the tile: the levels start one
        // phase later, the first of them gathering from SMEM.
        let phase = ctx.phase - usize::from(self.staged_in);
        if phase == 2 * n_levels {
            // Staged write-out: the block's finished tile sits in SMEM;
            // SMEM word `q` goes to its point of the tile in `out`, so
            // every warp writes adjacent addresses (coalesced despite the
            // strided compute layout), and a folded rescale reads its
            // output words the same coalesced way.
            let mut q = ctx.warp * 32;
            while q < tile {
                let addrs: Vec<Option<usize>> = (0..lanes)
                    .map(|l| (q + l < tile).then_some(q + l))
                    .collect();
                let vals = ctx.smem_load(&addrs);
                let pts: Vec<Option<(usize, usize, u64)>> = (0..lanes)
                    .map(|l| {
                        let (row, off) = self.tile_point(ctx.block, q + l);
                        Some((row, off, vals[l]?))
                    })
                    .collect();
                self.store_points(ctx, &pts, false);
                q += threads; // all warps advance together
            }
            return;
        }

        if phase.is_multiple_of(2) {
            // Gather the next level from SMEM (the Fig. 2 "transposed" load).
            self.gather_level(ctx, self.level_at(phase / 2), &sites);
            return;
        }
        // Compute level and store out.
        let step = (phase - 1) / 2;
        let level = self.level_at(step);
        self.compute_level(ctx, level, &sites);
        let size = self.levels[level];
        // A staged write-out parks the last level's results in SMEM for
        // the final cooperative phase instead of scattering strided
        // stores to GMEM.
        let last = step + 1 == n_levels && !self.staged_out;
        for b in 0..self.t / size {
            for s in 0..size {
                if last {
                    let pts: Vec<Option<(usize, usize, u64)>> = (0..lanes)
                        .map(|l| {
                            let x = sites[l]?;
                            let e = self.item_elem(level, x.u + b * tpg, s);
                            Some((x.row, self.elem_off(x.group, e), ctx.regs(l)[b * size + s]))
                        })
                        .collect();
                    self.store_points(ctx, &pts, self.scattered());
                } else {
                    let writes: Vec<Option<(usize, u64)>> = (0..lanes)
                        .map(|l| {
                            let x = sites[l]?;
                            let e = self.item_elem(level, x.u + b * tpg, s);
                            let v = ctx.regs(l)[b * size + s];
                            Some((self.smem_elem(x.slot, e), v))
                        })
                        .collect();
                    ctx.smem_store(&writes);
                }
            }
        }
    }
}

/// Decompose `r` into per-thread levels: `t`-sized levels, big first, with
/// a smaller final level when `log2 t ∤ log2 r`.
pub(crate) fn level_sizes(r: usize, t: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut rem = r;
    while rem > 1 {
        let s = t.min(rem);
        out.push(s);
        rem /= s;
    }
    out
}

/// Block shape for an `r`-point kernel with `t`-point threads: ~256-thread
/// blocks built from whole groups (never more than the `groups` one block
/// may hold: a row's groups for a split, every row for whole rows).
pub(crate) fn launch_shape(r: usize, t: usize, groups: usize) -> (usize, usize) {
    let tpg = r / t;
    let c = (256 / tpg).max(1).min(groups);
    (c, c * tpg)
}

/// A device-side SMEM NTT problem decoupled from [`DeviceBatch`]: raw data
/// and twiddle buffers plus the row→prime mapping. This is what lets the
/// `SimBackend` route arbitrary (stacked, device-resident) batches through
/// the two-kernel implementation.
pub(crate) struct SmemJob<'a> {
    /// The rows transformed (written in place) and their RNS primes.
    pub rows: &'a RowTable,
    /// `np × N` twiddle values (bit-reversed) of the transform's
    /// direction: `Ψ` forward, `Ψ⁻¹` inverse.
    pub tw: Buf,
    /// `np × N` Shoup companions.
    pub twc: Buf,
    /// Transform size `N`.
    pub n: usize,
    /// `log2 N`.
    pub log_n: u32,
    /// Per-prime moduli (indexed by prime id).
    pub moduli: &'a [u64],
    /// A forward's folds; none for a plain transform.
    pub folds: Folds<'a>,
}

/// What a forward job folds into its kernels.
#[derive(Default)]
pub(crate) struct Folds<'a> {
    /// A producer folded into the first load: row `r` reads its row of
    /// the fold's source instead of its own.
    pub load: Option<&'a LoadRows>,
    /// The dropped prime `d` of a rescale's subtract-and-scale folded
    /// into the last store: each row becomes `(x − t)·p_d⁻¹` over its own
    /// words `x`.
    pub dropped: Option<usize>,
    /// Where a two-kernel split's first kernel stores, one row per row of
    /// the job's, when a folded store needs the job's rows intact until
    /// the second kernel reads them; `None` stores in place.
    pub mid: Option<&'a RowTable>,
}

impl<'a> SmemJob<'a> {
    /// A plain in-place transform of `rows` of `n` points over the table
    /// `(tw, twc)`.
    pub(crate) fn new(
        rows: &'a RowTable,
        n: usize,
        (tw, twc): (Buf, Buf),
        moduli: &'a [u64],
    ) -> Self {
        SmemJob {
            rows,
            tw,
            twc,
            n,
            log_n: n.trailing_zeros(),
            moduli,
            folds: Folds::default(),
        }
    }
}

/// Whether an `n`-point SMEM run with this config fits the device's
/// launch limits (threads per block, shared memory per block) for **every**
/// kernel it launches: both of a two-kernel split, the one of the
/// degenerate `N × 1` split. Used by the `SimBackend` split selection to
/// skip infeasible candidates instead of panicking inside the launch
/// asserts.
pub(crate) fn job_feasible(n: usize, cfg: &SmemConfig, config: &gpu_sim::GpuConfig) -> bool {
    let whole = cfg.n1 == n;
    let sizes: &[usize] = if whole { &[n] } else { &[cfg.n1, n / cfg.n1] };
    for &r in sizes {
        if r < 2 {
            return false;
        }
        let t = cfg.per_thread.min(r);
        // Whole rows pack as many rows as a block holds and never preload.
        let (c, threads) = launch_shape(r, t, if whole { usize::MAX } else { n / r });
        if threads > config.max_threads_per_block as usize {
            return false;
        }
        let smem_words = c * r + if whole { 0 } else { 2 * r }; // worst case: preload on
        if smem_words * 8 > config.max_smem_per_block as usize {
            return false;
        }
    }
    true
}

/// One kernel of a job: its orientation, the rows it reads and writes,
/// and the folds it applies (a load in the first kernel, a rescale in the
/// last).
struct KernelPart<'a> {
    orientation: Orientation,
    data: &'a RowTable,
    out: &'a RowTable,
    load: Option<&'a LoadRows>,
    dropped: Option<usize>,
}

fn make_kernel(
    job: &SmemJob<'_>,
    cfg: &SmemConfig,
    part: KernelPart<'_>,
    direction: Direction,
    ot: Option<(DeviceOt, usize)>,
) -> (TwoStepKernel, LaunchConfig) {
    let n = job.n;
    let orientation = part.orientation;
    let r = match orientation {
        Orientation::Strided => cfg.n1,
        Orientation::Contiguous => n / cfg.n1,
    };
    let rows = job.rows.len();
    // The degenerate `N × 1` split: one kernel over whole rows, packing
    // several rows per block (a partial last block masks its idle lanes).
    // Rows in one block may sit under different primes, so each lane
    // reads its own row's twiddles through the read-only path instead of
    // a block-wide SMEM preload, and its loads are coalesced by layout.
    let whole = r == n;
    let t = cfg.per_thread.min(r);
    let (c, threads) = launch_shape(r, t, if whole { rows } else { n / r });
    let levels = level_sizes(r, t);
    let preload = cfg.preload && orientation == Orientation::Strided && !whole;
    let smem_words = c * r + if preload { 2 * r } else { 0 };
    let blocks = (rows * (n / r)).div_ceil(c);
    let kind = match orientation {
        Orientation::Strided => "k1",
        Orientation::Contiguous => "k2",
    };
    let name = match direction {
        Direction::Forward => format!("smem-{kind}-{r}"),
        Direction::Inverse => format!("smem-{kind}-{r}-inv"),
    };
    // The inverse's last kernel (the strided one) folds `N⁻¹` into its
    // store; like the moduli, the per-prime factors are host constants.
    let n_inv =
        (direction == Direction::Inverse && orientation == Orientation::Strided).then(|| {
            job.moduli
                .iter()
                .map(|&p| {
                    let v = inv_mod(n as u64 % p, p).expect("N is invertible mod an NTT prime");
                    (v, precompute(v, p))
                })
                .collect()
        });
    // Whole rows walk their last forward level (`8u + s` for lane `u` at
    // N = 64) strided: the forward's store and the inverse's load, which
    // both stage their tile through SMEM to stay coalesced. A split's
    // folded second kernel stores through the staged write-out too, so
    // it reads its output words coalesced.
    let strided_level = whole && levels.len() > 1;
    let kernel = TwoStepKernel {
        data: part.data.clone(),
        out: part.out.clone(),
        load: part.load.cloned(),
        staged_in: strided_level && direction == Direction::Inverse,
        staged_out: (strided_level && direction == Direction::Forward)
            || (part.dropped.is_some() && !whole),
        tw: job.tw,
        twc: job.twc,
        n,
        log_n: job.log_n,
        moduli: job.moduli.to_vec(),
        r,
        t,
        levels,
        c,
        orientation,
        coalesced: cfg.coalesced || whole,
        preload,
        native: cfg.modmul == ModMul::Native,
        ot,
        direction,
        n_inv,
        sub_scale: part.dropped.map(|d| sub_scale_factors(job.moduli, d)),
    };
    let launch = LaunchConfig::new(name, blocks, threads)
        .regs_per_thread(regs_per_thread(t))
        .smem_bytes(smem_words * 8)
        .reg_slots(t);
    (kernel, launch)
}

/// One sub-NTT stage of the hierarchical (4-step) plan: `N/r` strided
/// compact `r`-point NTTs per row. Because every group sits below an
/// inter-block twist, they all share `tw_base = 1`, i.e. the first `r`
/// entries of the global table — which *are* the compact size-`r` table —
/// so the stage needs no twiddle uploads of its own and preloads them into
/// SMEM like Kernel-1.
pub(crate) struct HierStageJob<'a> {
    /// Input rows, read strided: element `e` of group `g` lives at
    /// `g + e·(N/r)`.
    pub data: &'a RowTable,
    /// Output rows. The same as `data` for the in-place column stage; the
    /// row stage writes the transposed intermediate back to the original
    /// array.
    pub out: &'a RowTable,
    /// Store group `g` contiguously at `out[g·r ..]` via the SMEM-staged
    /// transposing write-out (row stage) instead of in place (column
    /// stage).
    pub contiguous_out: bool,
    /// `np × N` forward twiddle values (bit-reversed global table).
    pub tw: Buf,
    /// `np × N` Shoup companions.
    pub twc: Buf,
    /// Full transform size `N` (row stride).
    pub n: usize,
    /// `log2 N`.
    pub log_n: u32,
    /// This stage's sub-NTT size.
    pub r: usize,
    /// Per-thread NTT size.
    pub per_thread: usize,
    /// Per-prime moduli (indexed by prime id).
    pub moduli: &'a [u64],
    /// Kernel label, e.g. `hier-col-256`.
    pub name: String,
}

/// Launch one hierarchical sub-NTT stage (one kernel).
pub(crate) fn launch_hier_stage(gpu: &mut Gpu, job: &HierStageJob<'_>) {
    assert!(
        job.r.is_power_of_two() && job.r >= 2 && job.r <= job.n / 2,
        "invalid hierarchical sub-NTT size"
    );
    let t = job.per_thread.min(job.r);
    let groups = job.n / job.r;
    let (c, threads) = launch_shape(job.r, t, groups);
    let levels = level_sizes(job.r, t);
    // Data tile + preloaded twiddle values and companions.
    let smem_words = c * job.r + 2 * job.r;
    let blocks = job.data.len() * groups / c;
    let kernel = TwoStepKernel {
        data: job.data.clone(),
        out: job.out.clone(),
        load: None,
        staged_in: false,
        staged_out: job.contiguous_out,
        tw: job.tw,
        twc: job.twc,
        n: job.n,
        log_n: job.log_n,
        moduli: job.moduli.to_vec(),
        r: job.r,
        t,
        levels,
        c,
        orientation: Orientation::Strided,
        coalesced: true,
        preload: true,
        native: false,
        ot: None,
        direction: Direction::Forward,
        n_inv: None,
        sub_scale: None,
    };
    let launch = LaunchConfig::new(job.name.clone(), blocks, threads)
        .regs_per_thread(regs_per_thread(t))
        .smem_bytes(smem_words * 8)
        .reg_slots(t);
    gpu.launch(&kernel, &launch);
}

/// Launch the SMEM kernels over an arbitrary row-mapped job, in
/// `direction` (`job.tw`/`job.twc` must hold the matching table: `Ψ`
/// forward, `Ψ⁻¹` inverse; `ot` the matching factor tables). Returns the
/// launch count: 2 for a two-kernel split, 1 for the degenerate
/// `n1 = N` split, whose one strided kernel runs every row whole
/// (`smem-k1-{N}`, or `smem-k1-{N}-inv` with `N⁻¹` folded into its
/// store). Shared by the [`DeviceBatch`] harness entries (identity
/// mapping) and the `SimBackend` transform paths (stacked /
/// device-resident batches). A forward job's load rides the first
/// kernel's load, its rescale the last kernel's store.
///
/// # Panics
///
/// Panics on invalid splits (`n1` must be a power of two with
/// `2 ≤ n1 ≤ N`), if OT stages are requested without tables or on the
/// `N × 1` split, if OT or the inverse is asked of the native
/// multiplication, on an inverse job with a fold, or on a split with a
/// folded rescale but no `mid` rows.
pub(crate) fn launch_job(
    gpu: &mut Gpu,
    job: &SmemJob<'_>,
    cfg: &SmemConfig,
    ot: Option<&DeviceOt>,
    direction: Direction,
) -> usize {
    let n = job.n;
    assert!(
        cfg.n1.is_power_of_two() && cfg.n1 >= 2 && cfg.n1 <= n,
        "invalid N1 split"
    );
    assert!(
        cfg.per_thread.is_power_of_two() && cfg.per_thread >= 2,
        "invalid per-thread size"
    );
    assert!(cfg.ot_stages <= 2, "OT supported on the last 1-2 stages");
    assert!(
        !(cfg.ot_stages > 0 && cfg.modmul == ModMul::Native),
        "OT requires Shoup multiplication"
    );
    assert!(
        !(direction == Direction::Inverse && cfg.modmul == ModMul::Native),
        "the inverse requires Shoup multiplication"
    );
    assert!(
        !(direction == Direction::Inverse
            && (job.folds.load.is_some() || job.folds.dropped.is_some())),
        "folds ride the forward only"
    );
    let ot_pair = if cfg.ot_stages > 0 {
        let tables = *ot.expect("OT stages requested but no tables supplied");
        let threshold = n >> cfg.ot_stages;
        assert!(
            (1usize << cfg.ot_stages) <= n / cfg.n1,
            "OT stages must lie within Kernel-2"
        );
        Some((tables, threshold))
    } else {
        None
    };

    let order: &[Orientation] = match direction {
        _ if cfg.n1 == n => &[Orientation::Strided],
        Direction::Forward => &[Orientation::Strided, Orientation::Contiguous],
        Direction::Inverse => &[Orientation::Contiguous, Orientation::Strided],
    };
    let folds = &job.folds;
    if order.len() > 1 && folds.dropped.is_some() {
        assert!(folds.mid.is_some(), "a split's folded store needs mid rows");
    }
    let mid = folds.mid.unwrap_or(job.rows);
    for (i, &orientation) in order.iter().enumerate() {
        let (first, last) = (i == 0, i + 1 == order.len());
        let part = KernelPart {
            orientation,
            data: if first { job.rows } else { mid },
            out: if last { job.rows } else { mid },
            load: folds.load.filter(|_| first),
            dropped: folds.dropped.filter(|_| last),
        };
        let ot = ot_pair.filter(|_| orientation == Orientation::Contiguous);
        let (kernel, launch) = make_kernel(job, cfg, part, direction, ot);
        gpu.launch(&kernel, &launch);
    }
    order.len()
}

/// Run the SMEM NTT (two kernels, or one over whole rows when
/// `cfg.n1 = N`) with pre-uploaded OT tables (reuse across sweeps). `ot`
/// is required iff `cfg.ot_stages > 0`.
///
/// # Panics
///
/// Panics on invalid splits (`n1` must be a power of two with
/// `2 ≤ n1 ≤ N`), or if OT stages are requested without tables or on
/// whole rows.
pub fn run_with_ot(
    gpu: &mut Gpu,
    batch: &DeviceBatch,
    cfg: &SmemConfig,
    ot: Option<&DeviceOt>,
) -> RunReport {
    let n = batch.n();
    let rows = batch.rows();
    let job = batch_job(batch, &rows, batch.twiddles, batch.companions);
    let launches = launch_job(gpu, &job, cfg, ot, Direction::Forward);
    RunReport::from_trace(format!("smem {}", cfg.label(n)), gpu, launches)
}

/// Run the SMEM NTT, uploading OT tables on demand.
pub fn run(gpu: &mut Gpu, batch: &DeviceBatch, cfg: &SmemConfig) -> RunReport {
    let ot = (cfg.ot_stages > 0).then(|| DeviceOt::upload(gpu, batch, cfg.ot_base));
    run_with_ot(gpu, batch, cfg, ot.as_ref())
}

/// Run the SMEM **inverse** NTT (bit-reversed input, natural-order
/// output, `N⁻¹` folded into the strided kernel's store): the contiguous
/// kernel then the strided one, or for whole rows (`cfg.n1 = N`) the one
/// strided kernel. The inverse tables `Ψ⁻¹` — and the `ψ⁻¹` OT factor
/// tables when `cfg.ot_stages > 0` — are uploaded on the active stream
/// for this run and freed after it.
///
/// # Panics
///
/// Panics on the configurations [`run_with_ot`] rejects, and on the native
/// multiplication (the inverse is Shoup only).
pub fn run_inverse(gpu: &mut Gpu, batch: &DeviceBatch, cfg: &SmemConfig) -> RunReport {
    let n = batch.n();
    let (itw, itwc) = batch.upload_inverse_tables(gpu);
    let ot = (cfg.ot_stages > 0).then(|| {
        let tables: Vec<&ntt_core::NttTable> = (0..batch.np()).map(|i| batch.table(i)).collect();
        DeviceOt::upload_tables(gpu, n, &tables, cfg.ot_base, Direction::Inverse)
    });
    let rows = batch.rows();
    let job = batch_job(batch, &rows, itw, itwc);
    let launches = launch_job(gpu, &job, cfg, ot.as_ref(), Direction::Inverse);
    let report = RunReport::from_trace(format!("smem inverse {}", cfg.label(n)), gpu, launches);
    for buf in [itw, itwc] {
        gpu.gmem.free(buf);
    }
    if let Some(ot) = ot {
        ot.free(gpu);
    }
    report
}

/// The [`SmemJob`] of a harness batch's `rows` over the twiddle table
/// `(tw, twc)`.
fn batch_job<'a>(batch: &'a DeviceBatch, rows: &'a RowTable, tw: Buf, twc: Buf) -> SmemJob<'a> {
    SmemJob::new(rows, batch.n(), (tw, twc), batch.moduli())
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

    /// The inverse on the batch's raw input matches `ct::intt` on every
    /// row, through the contiguous kernel first and the strided second.
    fn inverse_is_bit_exact(gpu: &mut Gpu, batch: &DeviceBatch, cfg: &SmemConfig) -> bool {
        batch.reset_data(gpu);
        let rep = run_inverse(gpu, batch, cfg);
        let labels: Vec<&str> = rep
            .launches
            .iter()
            .map(|l| l.launch.label.as_str())
            .collect();
        let (n1, n2) = (cfg.n1, batch.n() / cfg.n1);
        batch.download(gpu) == batch.expected_intt()
            && labels == [format!("smem-k2-{n2}-inv"), format!("smem-k1-{n1}-inv")]
    }

    #[test]
    fn bit_exact_across_splits_and_thread_sizes() {
        for n1 in [4usize, 16, 64] {
            for t in [2usize, 4, 8] {
                let (mut gpu, batch) = setup(10, 2);
                let cfg = SmemConfig::new(n1).per_thread(t);
                let rep = run(&mut gpu, &batch, &cfg);
                assert!(rep.verify(&gpu, &batch), "n1={n1} t={t}");
                assert_eq!(rep.launches.len(), 2);
                assert!(
                    inverse_is_bit_exact(&mut gpu, &batch, &cfg),
                    "inverse n1={n1} t={t}"
                );
            }
        }
    }

    #[test]
    fn bit_exact_without_coalescing_or_preload() {
        let (mut gpu, batch) = setup(9, 2);
        let cfg = SmemConfig::new(32).coalesced(false).preload(false);
        let rep = run(&mut gpu, &batch, &cfg);
        assert!(rep.verify(&gpu, &batch));
        assert!(inverse_is_bit_exact(&mut gpu, &batch, &cfg), "inverse");
    }

    #[test]
    fn bit_exact_with_ot() {
        for stages in [1u32, 2] {
            let (mut gpu, batch) = setup(10, 2);
            let cfg = SmemConfig::new(32).ot_stages(stages);
            let rep = run(&mut gpu, &batch, &cfg);
            assert!(rep.verify(&gpu, &batch), "ot_stages={stages}");
            assert!(
                inverse_is_bit_exact(&mut gpu, &batch, &cfg),
                "inverse ot_stages={stages}"
            );
        }
    }

    #[test]
    fn coalescing_reduces_l2_pressure_and_time() {
        // Uncoalesced Kernel-1 accesses are scattered per warp but dense
        // across the grid, so they are absorbed by L2 (Fig. 6(a)): the
        // penalty shows as L2 transactions and time, not DRAM waste.
        let (mut gpu, batch) = setup(12, 2);
        let coal = run(&mut gpu, &batch, &SmemConfig::new(64));
        batch.reset_data(&mut gpu);
        let uncoal = run(&mut gpu, &batch, &SmemConfig::new(64).coalesced(false));
        let l2_c = coal.launches[0].stats.l2_read_transactions;
        let l2_u = uncoal.launches[0].stats.l2_read_transactions;
        assert!(l2_u > 2 * l2_c, "coalesced {l2_c} vs uncoalesced {l2_u}");
        // The end-to-end time penalty (~21% at paper scale, Fig. 7) needs
        // a saturated grid; at this test size we check the modeled L2
        // component directly.
        assert!(
            uncoal.launches[0].timing.t_l2_s > 2.0 * coal.launches[0].timing.t_l2_s,
            "uncoalesced should pay more L2 time"
        );
    }

    #[test]
    fn preload_cuts_l2_pressure() {
        let (mut gpu, batch) = setup(12, 2);
        let pre = run(&mut gpu, &batch, &SmemConfig::new(64));
        batch.reset_data(&mut gpu);
        let nopre = run(&mut gpu, &batch, &SmemConfig::new(64).preload(false));
        assert!(
            nopre.launches[0].stats.l2_read_transactions
                > 2 * pre.launches[0].stats.l2_read_transactions
        );
    }

    #[test]
    fn ot_reduces_dram_traffic() {
        let (mut gpu, batch) = setup(12, 4);
        let base = run(&mut gpu, &batch, &SmemConfig::new(64));
        batch.reset_data(&mut gpu);
        let ot = run(&mut gpu, &batch, &SmemConfig::new(64).ot_stages(2));
        let d_base = base.dram_bytes(&gpu);
        let d_ot = ot.dram_bytes(&gpu);
        assert!(
            d_ot < d_base,
            "OT should reduce traffic: {d_ot} vs {d_base}"
        );
        // And it costs extra Shoup muls.
        assert!(
            ot.merged_stats().op(OpClass::ShoupMul) > base.merged_stats().op(OpClass::ShoupMul)
        );
    }

    #[test]
    fn smaller_per_thread_means_more_barriers() {
        let (mut gpu, batch) = setup(12, 1);
        let t8 = run(&mut gpu, &batch, &SmemConfig::new(64).per_thread(8));
        batch.reset_data(&mut gpu);
        let t2 = run(&mut gpu, &batch, &SmemConfig::new(64).per_thread(2));
        assert!(t2.merged_stats().barriers > t8.merged_stats().barriers);
    }

    #[test]
    fn two_dram_round_trips_for_data() {
        // The SMEM design's whole point: data crosses DRAM twice
        // (once per kernel), not log2(N) times — in both directions. The
        // inverse has no scaling launch: `N⁻¹` costs one Shoup multiply
        // per element in the last kernel's store.
        let (mut gpu, batch) = setup(12, 2);
        let rep = run(&mut gpu, &batch, &SmemConfig::new(64));
        let stats = rep.merged_stats();
        let data_words = (2 * 4096 * 2) as u64; // np * N * (two kernels)
        assert_eq!(stats.useful_write_bytes, data_words * 8);
        let inv = run_inverse(&mut gpu, &batch, &SmemConfig::new(64)).merged_stats();
        assert_eq!(inv.useful_write_bytes, data_words * 8);
        let elements = (2 * 4096) as u64;
        assert_eq!(
            inv.op(OpClass::ShoupMul),
            stats.op(OpClass::ShoupMul) + elements
        );
        assert_eq!(inv.op(OpClass::ModAddSub), stats.op(OpClass::ModAddSub));
    }

    #[test]
    fn inverse_tables_cross_the_bus_and_are_freed() {
        let (mut gpu, batch) = setup(10, 2);
        let cfg = SmemConfig::new(32).ot_stages(2);
        let mut after_first = None;
        for call in 0..2 {
            let t0 = gpu.timeline();
            run_inverse(&mut gpu, &batch, &cfg);
            // Two `Ψ⁻¹` tables plus four `ψ⁻¹` OT factor tables.
            assert_eq!(gpu.timeline().since(&t0).transfers, 6, "call {call}");
            let words = gpu.gmem.allocated_words();
            assert_eq!(*after_first.get_or_insert(words), words, "call {call}");
        }
    }

    #[test]
    #[should_panic(expected = "the inverse requires Shoup multiplication")]
    fn inverse_rejects_native_multiplication() {
        let (mut gpu, batch) = setup(8, 1);
        run_inverse(
            &mut gpu,
            &batch,
            &SmemConfig::new(16).modmul(ModMul::Native),
        );
    }

    /// The rule that lets the backend route every `4 ≤ N < SMEM_MIN_N`
    /// ring to whole rows without a sweep: at every such `N`
    /// (split over three tests that run in parallel) and at every row
    /// count up to a deep bootstrap's stacked digit batches (row `r`
    /// under prime `r % 21`), the packed one-launch forward is bit-exact
    /// and models no slower than radix-2, every feasible two-kernel split
    /// (OT 0, 1 and 2) and every feasible hierarchical split.
    fn whole_rows_model_no_slower_than_any_candidate(log_ns: std::ops::Range<u32>) {
        use crate::hier::{self, DeviceTwist, HierJob};
        use ntt_core::NttTable;
        let config = GpuConfig::titan_v();
        for log_n in log_ns {
            let n = 1usize << log_n;
            let moduli = ntt_math::ntt_primes(50, 2 * n as u64, 21);
            let tables: Vec<NttTable> = moduli
                .iter()
                .map(|&p| NttTable::new(n, p).unwrap())
                .collect();
            let refs: Vec<&NttTable> = tables.iter().collect();
            let tw: Vec<u64> = tables
                .iter()
                .flat_map(|t| t.forward_values().to_vec())
                .collect();
            let twc: Vec<u64> = tables
                .iter()
                .flat_map(|t| t.forward_companions().to_vec())
                .collect();
            for rows in [1usize, 2, 4, 21, 84, 441, 1764] {
                let row_prime: Vec<usize> = (0..rows).map(|r| r % rows.min(21)).collect();
                let input: Vec<u64> = (0..rows * n)
                    .map(|i| {
                        (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % moduli[row_prime[i / n]]
                    })
                    .collect();
                // Modeled seconds and output of one forward on a fresh device.
                let run = |launch: &dyn Fn(&mut Gpu, &SmemJob<'_>)| -> (f64, Vec<u64>) {
                    let mut gpu = Gpu::new(config.clone());
                    let data = gpu.gmem.alloc_from(&input);
                    let rows = RowTable::contiguous(data, n, &row_prime);
                    let tables = (gpu.gmem.alloc_from(&tw), gpu.gmem.alloc_from(&twc));
                    let job = SmemJob::new(&rows, n, tables, &moduli);
                    launch(&mut gpu, &job);
                    let time = gpu.trace.iter().map(|l| l.timing.total_s).sum();
                    (time, gpu.gmem.slice(data).to_vec())
                };
                let shape = format!("N = {n}, {rows} rows");

                let (packed, out) = run(&|gpu, job| {
                    let cfg = SmemConfig::new(n);
                    assert_eq!(launch_job(gpu, job, &cfg, None, Direction::Forward), 1);
                    // Idle lanes of a partial last block do no work: one
                    // butterfly per pair per stage, one store per element.
                    let stats = &gpu.trace[0].stats;
                    let butterflies = (rows * n / 2) as u64 * u64::from(log_n);
                    assert_eq!(stats.op(OpClass::ShoupMul), butterflies, "{rows} rows");
                    assert_eq!(stats.useful_write_bytes, (rows * n * 8) as u64);
                });
                for (r, got) in out.chunks(n).enumerate() {
                    let mut want = input[r * n..(r + 1) * n].to_vec();
                    ntt_core::ct::ntt(&mut want, &tables[row_prime[r]]);
                    assert_eq!(got, want, "{shape}: row {r}");
                }

                let mut rivals = vec![(
                    "radix-2".to_string(),
                    run(&|gpu, job| {
                        let tables = (job.tw, job.twc);
                        crate::radix2::launch_forward(
                            gpu,
                            job.rows,
                            tables,
                            n,
                            job.moduli,
                            ModMul::Shoup,
                        );
                    })
                    .0,
                )];
                for n1 in (1..log_n).map(|k| 1usize << k) {
                    for ot_stages in 0..=2u32 {
                        let cfg = SmemConfig::new(n1).ot_stages(ot_stages);
                        if (1usize << ot_stages) > n / n1 || !job_feasible(n, &cfg, &config) {
                            continue;
                        }
                        let time = run(&|gpu, job| {
                            let ot = (ot_stages > 0).then(|| {
                                DeviceOt::upload_tables(
                                    gpu,
                                    n,
                                    &refs,
                                    cfg.ot_base,
                                    Direction::Forward,
                                )
                            });
                            launch_job(gpu, job, &cfg, ot.as_ref(), Direction::Forward);
                        });
                        rivals.push((format!("smem {}", cfg.label(n)), time.0));
                    }
                    if hier::job_feasible(n, n1, hier::PER_THREAD, &config) {
                        let time = run(&|gpu, job| {
                            let base = hier::TWIST_BASE.min(2 * n);
                            let twist = DeviceTwist::upload_tables(gpu, n, &refs, base);
                            let hier_job = HierJob {
                                rows: job.rows,
                                scratch: gpu.gmem.alloc(rows * n),
                                tw: job.tw,
                                twc: job.twc,
                                n,
                                log_n,
                                moduli: job.moduli,
                            };
                            hier::launch_job(gpu, &hier_job, n1, &twist, hier::PER_THREAD);
                        });
                        rivals.push((format!("hier {n1}x{}", n / n1), time.0));
                    }
                }
                for (rival, time) in rivals {
                    assert!(
                        packed <= time,
                        "{shape}: whole rows {:.2} µs vs {rival} {:.2} µs",
                        packed * 1e6,
                        time * 1e6
                    );
                }
            }
        }
    }

    #[test]
    fn whole_rows_beat_every_candidate_at_n4_to_n32() {
        whole_rows_model_no_slower_than_any_candidate(2..6);
    }

    #[test]
    fn whole_rows_beat_every_candidate_at_n64() {
        whole_rows_model_no_slower_than_any_candidate(6..7);
    }

    #[test]
    fn whole_rows_beat_every_candidate_at_n128() {
        let below_floor = crate::backend::SMEM_MIN_N.trailing_zeros();
        whole_rows_model_no_slower_than_any_candidate(7..below_floor);
    }

    /// The whole-row forward stores its strided last level (`8u + s` for
    /// lane `u`) through the block's SMEM tile, and the inverse loads its
    /// first level the same way: at N = 64 over a deep key switch's 1,764
    /// digit rows (row `r` under prime `r % 21`) each direction writes
    /// every 32-byte sector once, 28,224 DRAM write transactions where a
    /// lane-by-lane store issued 112,896, and both read as many sectors,
    /// with the bits of `ct::ntt` and `ct::intt`. The staged phases skip
    /// the rows a partial last block lacks.
    #[test]
    fn whole_rows_move_every_sector_once_in_both_directions() {
        use ntt_core::NttTable;
        let (n, rows) = (64usize, 1764usize);
        let moduli = ntt_math::ntt_primes(50, 2 * n as u64, 21);
        let tables: Vec<NttTable> = moduli
            .iter()
            .map(|&p| NttTable::new(n, p).unwrap())
            .collect();
        let row_prime: Vec<usize> = (0..rows).map(|r| r % 21).collect();
        let input: Vec<u64> = (0..rows * n)
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % moduli[row_prime[i / n]])
            .collect();
        let table_of = |f: fn(&NttTable) -> &[u64]| -> Vec<u64> {
            tables.iter().flat_map(|t| f(t).to_vec()).collect()
        };
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let data = gpu.gmem.alloc_from(&input);
        let table = RowTable::contiguous(data, n, &row_prime);
        let mut stats = Vec::new();
        for (direction, tw, twc) in [
            (
                Direction::Forward,
                table_of(NttTable::forward_values),
                table_of(NttTable::forward_companions),
            ),
            (
                Direction::Inverse,
                table_of(NttTable::inverse_values),
                table_of(NttTable::inverse_companions),
            ),
        ] {
            let tw = (gpu.gmem.alloc_from(&tw), gpu.gmem.alloc_from(&twc));
            let job = SmemJob::new(&table, n, tw, &moduli);
            assert_eq!(
                launch_job(&mut gpu, &job, &SmemConfig::new(n), None, direction),
                1
            );
            let got = gpu.gmem.slice(data).to_vec();
            for (r, row) in got.chunks(n).enumerate() {
                let mut want = input[r * n..(r + 1) * n].to_vec();
                if direction == Direction::Forward {
                    ntt_core::ct::ntt(&mut want, &tables[row_prime[r]]);
                }
                assert_eq!(row, want, "{direction:?}: row {r}");
            }
            stats.push(gpu.trace.last().expect("launched").stats.clone());
        }
        let sectors = (rows * n / 4) as u64;
        assert_eq!(sectors, 28_224);
        // Two levels of 8 points: each point crosses SMEM once per level,
        // and no warp touches the tile words of the rows the partial last
        // block (4 of its 32 rows) lacks.
        let smem_bytes = 2 * 8 * (rows * n) as u64;
        for (s, direction) in stats.iter().zip(["forward", "inverse"]) {
            assert_eq!(s.dram_write_transactions, sectors, "{direction} writes");
            assert_eq!(s.smem_write_bytes, smem_bytes, "{direction} SMEM writes");
            assert_eq!(s.smem_read_bytes, smem_bytes, "{direction} SMEM reads");
        }
        assert_eq!(
            stats[0].dram_read_transactions, stats[1].dram_read_transactions,
            "the inverse reads what the forward reads"
        );
    }

    #[test]
    fn paper_splits_shape() {
        assert_eq!(SmemConfig::paper_splits(17), vec![512, 256, 128, 64]);
        assert_eq!(SmemConfig::paper_splits(14).len(), 4);
    }
}
