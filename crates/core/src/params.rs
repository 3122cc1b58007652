//! Bootstrappable HE parameter presets from the paper.
//!
//! The paper's evaluation spans `N = 2^14 … 2^17` with `np = 21` 60-bit
//! primes as the main configuration (§VI, Table II), `np` up to 45 for the
//! batching studies (Fig. 1, Fig. 13), and a `Q = 2^1200` word-size
//! ablation (40 × 30-bit vs 20 × 60-bit primes, §IV).

use crate::rns::{RnsBasis, RnsError};

/// An HE parameter set: polynomial degree, prime size, and prime count.
///
/// # Example
///
/// ```
/// use ntt_core::HeParams;
/// let params = HeParams::paper_default(17); // N = 2^17, np = 21, 60-bit
/// assert_eq!(params.n(), 1 << 17);
/// assert_eq!(params.np(), 21);
/// let basis = params.basis()?;
/// assert!((basis.log_q() - 21.0 * 60.0).abs() < 25.0);
/// # Ok::<(), ntt_core::rns::RnsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeParams {
    log_n: u32,
    prime_bits: u32,
    np: usize,
}

impl HeParams {
    /// Arbitrary parameter set.
    ///
    /// # Panics
    ///
    /// Panics if `log_n` is not in `1..=20`, `prime_bits` not in `20..=62`,
    /// or `np == 0`.
    pub fn new(log_n: u32, prime_bits: u32, np: usize) -> Self {
        assert!((1..=20).contains(&log_n), "log_n out of supported range");
        assert!(
            (20..=62).contains(&prime_bits),
            "prime_bits out of supported range"
        );
        assert!(np > 0, "need at least one prime");
        Self {
            log_n,
            prime_bits,
            np,
        }
    }

    /// The paper's main configuration for a given `log N ∈ 14..=17`:
    /// `np = 21` primes of 60 bits (`log Q ≈ 1260`, bootstrappable scale).
    pub fn paper_default(log_n: u32) -> Self {
        Self::new(log_n, 60, 21)
    }

    /// The Fig. 1 configuration: `N = 2^17`, `np = 45`.
    pub fn fig1() -> Self {
        Self::new(17, 60, 45)
    }

    /// Word-size ablation (§IV): `Q ≈ 2^1200` from 30-bit primes (np = 40).
    pub fn wordsize_30bit() -> Self {
        Self::new(17, 30, 40)
    }

    /// Word-size ablation (§IV): `Q ≈ 2^1200` from 60-bit primes (np = 20).
    pub fn wordsize_60bit() -> Self {
        Self::new(17, 60, 20)
    }

    /// Polynomial degree `N`.
    #[inline]
    pub fn n(&self) -> usize {
        1 << self.log_n
    }

    /// `log2 N`.
    #[inline]
    pub fn log_n(&self) -> u32 {
        self.log_n
    }

    /// Prime word size in bits.
    #[inline]
    pub fn prime_bits(&self) -> u32 {
        self.prime_bits
    }

    /// Number of RNS primes `np`.
    #[inline]
    pub fn np(&self) -> usize {
        self.np
    }

    /// Nominal `log2 Q = np · prime_bits` (exact value via [`Self::basis`]).
    pub fn nominal_log_q(&self) -> u32 {
        self.np as u32 * self.prime_bits
    }

    /// Generate the RNS prime chain (largest suitable primes, descending).
    ///
    /// # Errors
    ///
    /// Propagates [`RnsError`] — practically impossible for supported
    /// ranges, but kept fallible for API honesty.
    pub fn basis(&self) -> Result<RnsBasis, RnsError> {
        RnsBasis::new(ntt_math::ntt_primes(
            self.prime_bits,
            2 * self.n() as u64,
            self.np,
        ))
    }

    /// Bytes of one RNS polynomial (`np · N` 8-byte residues) — the
    /// "dozens of megabytes" working set of §III-B.
    pub fn polynomial_bytes(&self) -> usize {
        self.np * self.n() * 8
    }

    /// Bytes of all forward twiddle tables with Shoup companions
    /// (`2 · N · np` words) — the table pressure of §IV.
    pub fn twiddle_table_bytes(&self) -> usize {
        self.np * self.n() * 16
    }
}

impl std::fmt::Display for HeParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "N=2^{}, np={}, {}-bit primes (logQ≈{})",
            self.log_n,
            self.np,
            self.prime_bits,
            self.nominal_log_q()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let p = HeParams::paper_default(14);
        assert_eq!(p.n(), 1 << 14);
        assert_eq!(p.np(), 21);
        assert_eq!(p.prime_bits(), 60);
        assert_eq!(p.nominal_log_q(), 1260);
    }

    #[test]
    fn working_set_reaches_dozens_of_megabytes() {
        // §III-B: "the size of a polynomial reaches dozens of megabytes".
        let p = HeParams::paper_default(17);
        let mb = p.polynomial_bytes() as f64 / (1 << 20) as f64;
        assert!(mb > 20.0, "expected dozens of MB, got {mb}");
    }

    #[test]
    fn twiddle_tables_exceed_on_chip_memory() {
        // §I: tables "surpass several dozens of megabytes" and cannot fit
        // in on-chip memory (Titan V: 256 KB regs + 128 KB SMEM per SM).
        let p = HeParams::paper_default(17);
        assert!(p.twiddle_table_bytes() > 40 << 20);
    }

    #[test]
    fn wordsize_ablation_matches_q() {
        let p30 = HeParams::wordsize_30bit();
        let p60 = HeParams::wordsize_60bit();
        assert_eq!(p30.nominal_log_q(), p60.nominal_log_q());
        // 30-bit path has twice the transforms (the paper's §IV trade-off).
        assert_eq!(p30.np(), 2 * p60.np());
    }

    #[test]
    fn basis_generation_exact_log_q() {
        let p = HeParams::new(12, 59, 4);
        let b = p.basis().unwrap();
        assert_eq!(b.len(), 4);
        assert!((b.log_q() - 4.0 * 59.0).abs() < 1.0);
    }

    #[test]
    fn display_is_informative() {
        let s = HeParams::paper_default(17).to_string();
        assert!(s.contains("N=2^17") && s.contains("np=21"));
    }

    #[test]
    #[should_panic(expected = "log_n out of supported range")]
    fn rejects_huge_n() {
        HeParams::new(25, 60, 1);
    }
}
