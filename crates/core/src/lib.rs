//! Reference transforms and polynomial rings for NTT-based HE.
//!
//! This crate is the *algorithmic* layer of the reproduction of
//! *"Accelerating NTT for Bootstrappable HE on GPUs"* (IISWC 2020): scalar,
//! known-correct implementations of everything the paper's GPU kernels
//! compute, plus the precomputed-table machinery whose size drives the
//! paper's memory-bandwidth story.
//!
//! * [`bitrev`] — bit-reversal permutation helpers.
//! * [`naive`] — O(N²) NTT/iNTT and negacyclic convolution (the oracle).
//! * [`table`] — per-prime twiddle tables with Shoup companions
//!   (bit-reversed layout), including byte accounting (paper Fig. 8).
//! * [`ct`] — in-place Cooley–Tukey forward NTT (paper Algorithm 1) and
//!   Gentleman–Sande inverse, with merged negacyclic twiddles; strict and
//!   Harvey-lazy variants.
//! * [`engine`] — the fused lazy-reduction execution engine:
//!   [`NttExecutor`] with a reusable [`engine::Workspace`], batched
//!   residue-parallel RNS transforms, and the `NTT_WARP_THREADS` thread
//!   policy.
//! * [`backend`] — the pluggable execution layer: the [`NttBackend`]
//!   trait and its one typed op, [`BackendOp`] (batched RNS ops over
//!   [`LimbBatch`] views plus device-resident ops over opaque
//!   [`backend::DeviceBuf`] handles), FFTW-style
//!   [`RingPlan`] handles with plan-time Montgomery/Barrett pointwise
//!   selection, the [`CpuBackend`] reference implementation (identity
//!   device memory), and the backend-generic, residency-aware
//!   [`Evaluator`].
//! * [`stockham`] — out-of-place self-sorting Stockham NTT (paper
//!   Algorithm 3).
//! * [`radix`] — register-style small-block NTTs (radix 2..2048) used by
//!   the high-radix implementations.
//! * [`ot`] — on-the-fly twiddling (paper §VII): base-B factorization of
//!   twiddles so late stages trade table loads for extra modmuls.
//! * [`dft`] — complex-double DFT counterparts for the NTT-vs-DFT studies.
//! * [`rns`] — residue number system over an NTT-friendly prime basis and
//!   CRT reconstruction.
//! * [`params`] — the paper's bootstrappable HE parameter presets.
//! * [`poly`] — negacyclic rings `Z_p[X]/(X^N+1)`, RNS rings and
//!   polynomials (the ciphertext substrate).
//!
//! # Example: negacyclic multiplication via NTT
//!
//! ```
//! use ntt_core::{NegacyclicRing, Polynomial};
//!
//! let ring = NegacyclicRing::new_with_bits(8, 60)?;
//! // (1 + x)(1 + x) = 1 + 2x + x^2
//! let a = Polynomial::from_coeffs(vec![1, 1], 8);
//! let c = ring.multiply(&a, &a);
//! assert_eq!(&c.coeffs()[..3], &[1, 2, 1]);
//! // x^7 * x^7 = x^14 = -x^6 in the negacyclic ring
//! let x7 = Polynomial::monomial(7, 1, 8);
//! let d = ring.multiply(&x7, &x7);
//! assert_eq!(d.coeffs()[6], ring.modulus() - 1);
//! # Ok::<(), ntt_core::RingError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod bitrev;
pub mod ct;
pub mod dft;
pub mod engine;
pub mod naive;
pub mod ot;
pub mod params;
pub mod poly;
pub mod radix;
pub mod rns;
pub mod stockham;
pub mod table;

pub use backend::{
    BackendError, BackendOp, CpuBackend, DeviceBuf, DeviceMemory, Evaluator, FaultClass, LimbBatch,
    NttBackend, PointwiseStrategy, RingPlan, SharedDeviceMemory, TransferStats,
};
pub use ct::{intt, ntt};
pub use engine::{NttExecutor, ThreadPolicy};
pub use ot::OtTable;
pub use params::HeParams;
pub use poly::{NegacyclicRing, Polynomial, Residency, RingError, RnsPoly, RnsRing};
pub use rns::RnsBasis;
pub use table::NttTable;
