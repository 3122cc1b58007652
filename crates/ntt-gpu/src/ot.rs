//! Device-side on-the-fly twiddling tables (paper §VII).
//!
//! For factorization base `B` (1024 in the paper), each prime stores two
//! small factor tables instead of the N-entry twiddle table for the stages
//! OT covers:
//!
//! * `lo[d]  = psi^d`          for `d < B`
//! * `hi[d]  = psi^(d·B)`      for `d < N/B`
//!
//! each with Shoup companions. A butterfly needing `Ψ[i] = psi^{bitrev(i)}`
//! multiplies its operand by `lo[e % B]` then `hi[e / B]` (`e = bitrev(i)`)
//! — two Shoup modmuls, no native reduction, and (for `N = 2^17`)
//! `1024 + 128` entries instead of 131072.
//!
//! The inverse transform's twiddle `Ψ⁻¹[i] = psi^{-bitrev(i)}` factors the
//! same way over `psi⁻¹`: same layout, same lookup, only the root changes
//! ([`Direction::Inverse`]).
//!
//! The 4-step plan's inter-block twist ([`crate::hier`]) reads the forward
//! tables over the exponent range `[0, 2N)`: they are uploaded with `2N` in
//! place of `N`.

use crate::batch::{upload_table, DeviceBatch};
use crate::smem::Direction;
use gpu_sim::{Buf, Gpu};
use ntt_math::modops::{inv_mod, pow_mod};
use ntt_math::shoup::precompute;

/// OT factor tables resident in GMEM, one set per prime.
#[derive(Debug, Clone, Copy)]
pub struct DeviceOt {
    /// Factorization base `B`.
    pub base: usize,
    /// Entries in the low-digit table per prime (`B`).
    pub lo_len: usize,
    /// Entries in the high-digit table per prime (`ceil(N/B)`).
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

impl DeviceOt {
    /// Build and upload the forward factor tables for every prime in the
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not a power of two ≥ 2, or if two levels do not
    /// suffice (`base² < N`).
    pub fn upload(gpu: &mut Gpu, batch: &DeviceBatch, base: usize) -> Self {
        let tables: Vec<&ntt_core::NttTable> = (0..batch.np()).map(|i| batch.table(i)).collect();
        Self::upload_tables(gpu, batch.n(), &tables, base, Direction::Forward)
    }

    /// Build and upload the factor tables of `direction` (over `psi` or
    /// `psi⁻¹`) from explicit per-prime twiddle tables (the plan-driven
    /// path used by `SimBackend`, which has no [`DeviceBatch`]).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not a power of two ≥ 2, or if two levels do not
    /// suffice (`base² < N`).
    pub fn upload_tables(
        gpu: &mut Gpu,
        n: usize,
        tables: &[&ntt_core::NttTable],
        base: usize,
        direction: Direction,
    ) -> Self {
        assert!(base.is_power_of_two() && base >= 2, "invalid OT base");
        assert!(
            base * base >= n,
            "two-level OT requires base^2 >= N (base {base}, N {n})"
        );
        let lo_len = base.min(n);
        let hi_len = (n / base).max(1);
        let np = tables.len();
        let mut lo_w = Vec::with_capacity(np * lo_len);
        let mut lo_c = Vec::with_capacity(np * lo_len);
        let mut hi_w = Vec::with_capacity(np * hi_len);
        let mut hi_c = Vec::with_capacity(np * hi_len);
        for table in tables {
            let p = table.modulus();
            let psi = match direction {
                Direction::Forward => table.psi(),
                Direction::Inverse => inv_mod(table.psi(), p).expect("psi is a unit"),
            };
            for d in 0..lo_len as u64 {
                let v = pow_mod(psi, d, p);
                lo_w.push(v);
                lo_c.push(precompute(v, p));
            }
            for d in 0..hi_len as u64 {
                let v = pow_mod(psi, d * base as u64, p);
                hi_w.push(v);
                hi_c.push(precompute(v, p));
            }
        }
        // Charge every table upload to the active stream: `alloc_from`
        // counts the upload in the transfer ledger but bypasses the PCIe
        // bus model, which made OT setup look free in the timeline.
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

    /// Return the four factor tables to the GMEM free list.
    pub(crate) fn free(self, gpu: &mut Gpu) {
        for buf in [self.lo_w, self.lo_c, self.hi_w, self.hi_c] {
            gpu.gmem.free(buf);
        }
    }

    /// Total factor-table bytes across the batch (values + companions).
    pub fn table_bytes(&self, np: usize) -> usize {
        np * (self.lo_len + self.hi_len) * 16
    }

    /// Split a twiddle exponent into (lo index, hi index).
    #[inline]
    pub fn digits(&self, exponent: usize) -> (usize, usize) {
        (exponent % self.base, exponent / self.base)
    }

    /// GMEM word addresses of the factor pair for `prime` and `exponent`:
    /// `(lo_w, lo_c, hi_w, hi_c)`.
    #[inline]
    pub fn factor_addrs(&self, prime: usize, exponent: usize) -> (usize, usize, usize, usize) {
        let (d0, d1) = self.digits(exponent);
        (
            self.lo_w.word(prime * self.lo_len + d0),
            self.lo_c.word(prime * self.lo_len + d0),
            self.hi_w.word(prime * self.hi_len + d1),
            self.hi_c.word(prime * self.hi_len + d1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;
    use ntt_core::bitrev::bit_reverse;
    use ntt_math::shoup::mul_shoup;

    #[test]
    fn factors_reconstruct_every_twiddle() {
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let batch = DeviceBatch::sequential(&mut gpu, 8, 2, 60).unwrap();
        let tables: Vec<&ntt_core::NttTable> = (0..2).map(|i| batch.table(i)).collect();
        for direction in [Direction::Forward, Direction::Inverse] {
            let ot = DeviceOt::upload_tables(&mut gpu, 256, &tables, 32, direction);
            for prime in 0..2 {
                let table = batch.table(prime);
                let p = table.modulus();
                for i in 1..256usize {
                    let e = bit_reverse(i, 8);
                    let (a0, a1, a2, a3) = ot.factor_addrs(prime, e);
                    let (lw, lc) = (gpu.gmem.slice(ot.lo_w)[a0 - ot.lo_w.base()], {
                        let _ = a1;
                        gpu.gmem.slice(ot.lo_c)[a1 - ot.lo_c.base()]
                    });
                    let (hw, hc) = (
                        gpu.gmem.slice(ot.hi_w)[a2 - ot.hi_w.base()],
                        gpu.gmem.slice(ot.hi_c)[a3 - ot.hi_c.base()],
                    );
                    // Applying lo then hi to x equals multiplying by Ψ[i]
                    // (forward) or Ψ⁻¹[i] (inverse).
                    let x = 0xABCDEFu64 % p;
                    let step = mul_shoup(x, lw, lc, p);
                    let got = mul_shoup(step, hw, hc, p);
                    let want = match direction {
                        Direction::Forward => table.forward(i).mul(x),
                        Direction::Inverse => table.inverse(i).mul(x),
                    };
                    assert_eq!(got, want, "{direction:?} prime {prime} idx {i}");
                }
            }
        }
    }

    #[test]
    fn matches_core_ot_table_costs() {
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let batch = DeviceBatch::sequential(&mut gpu, 10, 1, 60).unwrap();
        let ot = DeviceOt::upload(&mut gpu, &batch, 64);
        let core_ot = ntt_core::OtTable::new(batch.table(0), 64);
        assert_eq!(ot.lo_len + ot.hi_len, core_ot.entry_count());
        assert_eq!(ot.table_bytes(1), core_ot.table_bytes());
    }

    #[test]
    fn paper_sizes_for_base_1024() {
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let batch = DeviceBatch::sequential(&mut gpu, 14, 1, 60).unwrap();
        let ot = DeviceOt::upload(&mut gpu, &batch, 1024);
        assert_eq!(ot.lo_len, 1024);
        assert_eq!(ot.hi_len, (1 << 14) / 1024);
    }

    /// Regression for ROADMAP item n: the four factor-table uploads must
    /// cross the modeled PCIe bus (timeline transfers) and be counted in
    /// the `TransferStats` ledger, like every other host→device copy.
    #[test]
    fn table_uploads_charge_bus_and_ledger() {
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let batch = DeviceBatch::sequential(&mut gpu, 8, 2, 60).unwrap();
        let t0 = gpu.timeline();
        let s0 = gpu.gmem.transfer_stats();
        let ot = DeviceOt::upload(&mut gpu, &batch, 32);
        let dt = gpu.timeline().since(&t0);
        let ds = gpu.gmem.transfer_stats().since(&s0);
        assert_eq!(dt.transfers, 4, "four factor tables cross the bus");
        assert_eq!(ds.uploads, 4, "four uploads in the ledger");
        // Each table holds np × len entries, and values + companions double it.
        let words = 2 * (batch.np() * (ot.lo_len + ot.hi_len)) as u64;
        assert_eq!(ds.upload_words, words, "every table word is counted");
        assert!(dt.serialized_s > 0.0, "bus time must be charged: {dt:?}");
    }

    #[test]
    #[should_panic(expected = "base^2 >= N")]
    fn rejects_undersized_base() {
        let mut gpu = Gpu::new(GpuConfig::titan_v());
        let batch = DeviceBatch::sequential(&mut gpu, 12, 1, 60).unwrap();
        DeviceOt::upload(&mut gpu, &batch, 32);
    }
}
