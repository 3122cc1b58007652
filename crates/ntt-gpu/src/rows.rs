//! The per-row address table every row-mapped kernel reads its operands
//! through.
//!
//! A launch covers a list of `N`-word rows, each with its own GMEM
//! address and RNS prime. A plain buffer is the table of its rows back to
//! back ([`RowTable::contiguous`]); a multi-view device op (both
//! components of a ciphertext, or one dropped row per component) lists
//! every view's rows in one table, so one launch covers them all. Like
//! the moduli, the table is a kernel parameter: reading it costs no
//! modeled memory traffic, and a contiguous table issues exactly the
//! addresses the old `data.word(row · N + i)` did.

use gpu_sim::Buf;

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
        for (r, &p) in row_prime.iter().enumerate() {
            table.push(data.sub(r * n, n), p);
        }
        table
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

/// A rescale's subtract-and-scale, folded into a forward transform: row
/// `r` of the transform lands in row `r` of `acc` as
/// `(acc − v)·p_d⁻¹ mod p` instead of in place. The SMEM kernels apply it
/// in their final store; the radix-2 and hierarchical routes run it as
/// one `sim-subscale` launch after the transform.
#[derive(Debug, Clone)]
pub(crate) struct FoldRows {
    /// The accumulator rows, one per transformed row, under its prime.
    pub(crate) acc: RowTable,
    /// Per prime index: `(p_d⁻¹ mod p, Shoup companion)`.
    pub(crate) inv: Vec<(u64, u64)>,
}

impl FoldRows {
    /// The fold of dropped prime `moduli[dropped]` into the rows `acc`.
    pub(crate) fn new(acc: RowTable, moduli: &[u64], dropped: usize) -> Self {
        let p_d = moduli[dropped];
        let inv = moduli
            .iter()
            .map(|&p| {
                // The dropped prime itself never receives a fold; any
                // pair keeps the table indexable by prime.
                let w = ntt_math::inv_mod(p_d % p, p).unwrap_or(1);
                (w, ntt_math::shoup::precompute(w, p))
            })
            .collect();
        Self { acc, inv }
    }
}
