//! Benchmark harness regenerating every table and figure of the FastGR
//! paper (see `DESIGN.md` §3 for the experiment index and `EXPERIMENTS.md`
//! for recorded paper-vs-measured results).
//!
//! The heavy lifting lives in [`experiments`]; the `reproduce` binary is a
//! thin CLI over it. Per-layer timing of the individual kernels comes from
//! the end-to-end benchmark's `perfbench --trace 1` metrics
//! (`docs/benchmarks.md` maps each retired micro-bench to its metric).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod tables;
