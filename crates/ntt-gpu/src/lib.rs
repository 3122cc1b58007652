//! The paper's GPU NTT/DFT kernels, running on the `gpu-sim` substrate.
//!
//! Implements every implementation point of *"Accelerating NTT for
//! Bootstrappable HE on GPUs"* (IISWC 2020):
//!
//! * [`radix2`] — the baseline: one kernel launch per Cooley–Tukey stage,
//!   batched over the `np` RNS primes, with Shoup or native modular
//!   multiplication (paper Fig. 1, Table II baseline).
//! * [`high_radix`] — register-based radix-2^k passes (paper §V/VI-B,
//!   Fig. 4/5).
//! * [`smem`] — the two-kernel shared-memory implementation with
//!   block-merged coalescing, twiddle preloading, and configurable
//!   per-thread NTT size (paper §VI-C, Fig. 7/9/11/12, Table II), in both
//!   directions: the inverse is the same two kernels run as the
//!   forward's transpose, with `N⁻¹` folded into the last store.
//! * [`ot`] — on-the-fly twiddling applied to the last 1–2 stages of the
//!   forward, and the first 1–2 of the inverse (paper §VII).
//! * [`dft`] — the complex (2×f32) DFT counterparts of all of the above
//!   (paper Fig. 3(b)/5/11(b)).
//! * [`fpga_baseline`] — an analytic model of the FCCM'20 FPGA NTT
//!   accelerator the paper compares against in §VIII.
//! * [`batch`] — device-side layout of polynomial data and twiddle tables.
//! * [`sharded`] — [`sharded::SimDevices`], the one simulated-GPU
//!   implementation of `ntt_core::backend::NttBackend`: the same
//!   plan-based batched ops the CPU engine serves, executed
//!   through the warp kernels (bit-identical outputs, full traffic
//!   accounting) over `K` simulated devices. It has two constructors:
//!   [`ShardedBackend`] partitions RNS residue rows across `K` shards and
//!   pays key-switch base conversion as an explicit all-gather over a
//!   modeled inter-device link; [`SimBackend`] is the `K = 1` instance.
//! * [`backend`] — [`SimBackend`] and the single-device layer every shard
//!   runs on: device memory, plan tables, transform routing, row-local
//!   kernels.
//! * [`report`] — run summaries (time, traffic, utilization) used by the
//!   figure harness.
//!
//! Every kernel is *functionally* executed: results are bit-exact equal to
//! `ntt_core::ct::ntt` and `ntt_core::ct::intt` (asserted throughout the
//! test suite), while the simulator counts the traffic the paper profiles.
//!
//! # Example
//!
//! ```
//! use ntt_gpu::{batch::DeviceBatch, radix2};
//! use gpu_sim::{Gpu, GpuConfig};
//!
//! let mut gpu = Gpu::new(GpuConfig::titan_v());
//! // A small batched NTT: N = 2^10, np = 2.
//! let batch = DeviceBatch::sequential(&mut gpu, 10, 2, 60)?;
//! let run = radix2::run(&mut gpu, &batch, radix2::ModMul::Shoup);
//! assert!(run.verify(&gpu, &batch), "radix-2 output matches scalar NTT");
//! # Ok::<(), ntt_core::RingError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod batch;
pub mod dft;
pub mod fpga_baseline;
pub mod hier;
pub mod high_radix;
mod memo;
pub mod ot;
pub mod radix2;
pub mod report;
mod rows;
pub mod sharded;
pub mod smem;

pub use backend::SimBackend;
pub use batch::DeviceBatch;
pub use memo::{MemoStats, MEMO_CAP};
pub use report::RunReport;
pub use sharded::{LinkStats, ShardedBackend, ShardedMemory};
