//! Software-simulated CUDA-like device for FastGR's pattern-routing kernels.
//!
//! The paper runs its pattern-routing computation-graph flows (Figs. 7–10)
//! on an NVIDIA RTX 3090. No GPU is available in this reproduction, so this
//! crate *simulates* the device (substitution documented in `DESIGN.md` §4):
//!
//! * the **kernels are real** — [`flow`] implements the min-plus
//!   vector/matrix operations the paper reformulates pattern routing into,
//!   and the routing solutions they produce are the ones used downstream;
//! * only **timing** is modelled — [`Device::launch`] executes each block on
//!   a host worker pool ([`pool::HostPool`]; blocks of one kernel are
//!   independent, so they parallelise across real CPU threads) and charges
//!   simulated time from a calibrated, design-independent performance model
//!   ([`DeviceConfig`]): one kernel costs
//!   `launch_overhead + max(max_block_time, sum_block_time / sm_count)`,
//!   where a block running a flow of depth `d` with `t` homogeneous threads
//!   costs `d * ceil(t / threads_per_block) * stage_time`. Per-block times
//!   are reduced in index order, so the modelled time is byte-identical for
//!   every worker count; the measured wall-clock time goes to the
//!   telemetry recorder's kernel event (`KernelEvent::host_seconds`)
//!   alongside the modelled time.
//!
//! # Example
//!
//! ```
//! use fastgr_gpu::{BlockProfile, Device, DeviceConfig};
//!
//! let mut device = Device::new(DeviceConfig::rtx3090_like());
//! // Launch a kernel with 1000 blocks, each an 81-thread depth-2 flow.
//! let modeled_seconds = device.launch("l-shape", 1000, |_block| BlockProfile::new(81, 2));
//! assert!(modeled_seconds > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
pub mod flow;
pub mod pool;

pub use device::{BlockProfile, Device, DeviceConfig};
pub use pool::HostPool;
