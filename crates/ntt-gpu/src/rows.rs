//! The per-row address table every row-mapped kernel reads its operands
//! through.
//!
//! A launch covers a list of `N`-word rows, each with its own GMEM
//! address and RNS prime. A plain buffer is the table of its rows back to
//! back ([`RowTable::contiguous`]); a multi-view device op (both
//! components of a ciphertext, or one dropped row per component) lists
//! every view's rows in one table, so one launch covers them all. Every
//! backend kernel takes one table per operand: the rows it writes, and
//! per read operand the row each written row reads. Like the moduli, the
//! table is a kernel parameter: reading it costs no modeled memory
//! traffic, and a contiguous table issues exactly the addresses the old
//! `data.word(row · N + i)` did.

use crate::memo::KeyBuilder;
use gpu_sim::Buf;
use ntt_core::backend::{host_lift_rows, RingPlan};
use ntt_math::modops::neg_mod;

/// The rows one launch works on: each row's GMEM view and RNS prime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RowTable {
    rows: Vec<Buf>,
    primes: Vec<usize>,
}

impl RowTable {
    /// Rows back to back from `data`, row `r` under `row_prime[r]`.
    pub(crate) fn contiguous(data: Buf, n: usize, row_prime: &[usize]) -> Self {
        let mut table = Self::default();
        table.extend(data, n, row_prime.iter().copied());
        table
    }

    /// Append the rows of `data` back to back, one per prime of `primes`.
    pub(crate) fn extend(&mut self, data: Buf, n: usize, primes: impl IntoIterator<Item = usize>) {
        for (r, p) in primes.into_iter().enumerate() {
            self.rows.push(data.sub(r * n, n));
            self.primes.push(p);
        }
    }

    /// Append one row under prime `prime`.
    pub(crate) fn push(&mut self, row: Buf, prime: usize) {
        self.rows.push(row);
        self.primes.push(prime);
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// RNS prime index of each row.
    pub(crate) fn primes(&self) -> &[usize] {
        &self.primes
    }

    /// RNS prime index of row `r`.
    pub(crate) fn prime(&self, r: usize) -> usize {
        self.primes[r]
    }

    /// The GMEM view of row `r`.
    pub(crate) fn row(&self, r: usize) -> Buf {
        self.rows[r]
    }

    /// GMEM word of point `i` of row `r`.
    pub(crate) fn word(&self, r: usize, i: usize) -> usize {
        self.rows[r].word(i)
    }

    /// GMEM word of the `gt`-th point when the rows are read back to
    /// back (`gt = r·N + i`), the index one-thread-per-element kernels
    /// use.
    pub(crate) fn flat_word(&self, n: usize, gt: usize) -> usize {
        self.word(gt / n, gt % n)
    }
}

/// The per-prime factors of a rescale's subtract-and-scale folded into a
/// forward transform's store, indexed by prime: `(p_d⁻¹ mod p, Shoup
/// companion)` for the dropped prime `moduli[dropped]`. A folded row
/// stores `(x − v)·p_d⁻¹ mod p` over the word `x` it overwrites.
pub(crate) fn sub_scale_factors(moduli: &[u64], dropped: usize) -> Vec<(u64, u64)> {
    let p_d = moduli[dropped];
    moduli
        .iter()
        .map(|&p| {
            // The dropped prime itself never receives a fold; any pair
            // keeps the table indexable by prime.
            let w = ntt_math::inv_mod(p_d % p, p).unwrap_or(1);
            (w, ntt_math::shoup::precompute(w, p))
        })
        .collect()
}

/// A producer folded into a forward transform's first load: transformed
/// row `r` reads word `i` of row `r` of `src` instead of its own, through
/// the read-only path (many rows share one source row), and maps it
/// before the first butterfly.
#[derive(Debug, Clone)]
pub(crate) struct LoadRows {
    /// Per transformed row, the row it reads, under the source's prime.
    pub(crate) src: RowTable,
    /// What each word read becomes.
    pub(crate) map: LoadMap,
}

/// The map of a [`LoadRows`].
#[derive(Debug, Clone)]
pub(crate) enum LoadMap {
    /// Row `r` keeps digit `(v >> shift[r]) & mask` of each word.
    Digits {
        /// Per transformed row, the bit offset of its digit.
        shift: Vec<u32>,
        /// `2^w − 1`.
        mask: u64,
    },
    /// Each word is lifted exactly from its source row's prime `q` into
    /// the transformed row's: `v` itself (plain) or, when `centered`,
    /// `v − q` for `v > q/2`.
    Lift {
        /// Centered instead of plain lift.
        centered: bool,
    },
}

impl LoadRows {
    /// This load's part of a launch key: its source rows and its map.
    pub(crate) fn key(&self, key: KeyBuilder) -> KeyBuilder {
        let key = key.rows(&self.src);
        match &self.map {
            LoadMap::Digits { shift, mask } => {
                let shift: Vec<u64> = shift.iter().map(|&s| u64::from(s)).collect();
                key.scalar(0).scalar(*mask).scalars(&shift)
            }
            LoadMap::Lift { centered } => key.scalar(1).scalar(u64::from(*centered)),
        }
    }

    /// Transformed row `r`, under prime `prime`, as this load delivers it
    /// from `src`, its source row, by the CPU reference: its gadget digit
    /// of each word, or the row lifted by [`host_lift_rows`].
    pub(crate) fn host_row(
        &self,
        plan: &RingPlan,
        r: usize,
        src: &[u64],
        prime: usize,
    ) -> Vec<u64> {
        match &self.map {
            LoadMap::Digits { shift, mask } => {
                src.iter().map(|&v| (v >> shift[r]) & mask).collect()
            }
            LoadMap::Lift { centered } => {
                let mut row = vec![0; src.len()];
                let from = (src, self.src.prime(r));
                host_lift_rows(plan, from, *centered, &mut row, prime..prime + 1);
                row
            }
        }
    }

    /// Word `v` of row `r`'s source as transformed row `r` under
    /// `moduli[prime]` sees it.
    pub(crate) fn map(&self, r: usize, v: u64, moduli: &[u64], prime: usize) -> u64 {
        match &self.map {
            LoadMap::Digits { shift, mask } => (v >> shift[r]) & mask,
            LoadMap::Lift { centered } => {
                let (p, q) = (moduli[prime], moduli[self.src.prime(r)]);
                let half = if *centered { q >> 1 } else { q };
                if v <= half {
                    v % p
                } else {
                    neg_mod((q - v) % p, p)
                }
            }
        }
    }
}
