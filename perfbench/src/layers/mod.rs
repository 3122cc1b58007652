//! One small adapter per workspace crate. Every call the benchmark makes
//! into the program goes through these modules, so an API change in one
//! crate edits one file here and none of the workloads or probes.

pub mod core;
pub mod gpu_sim;
pub mod he;
pub mod he_boot;
pub mod he_serve;
pub mod math;
pub mod ntt_gpu;
