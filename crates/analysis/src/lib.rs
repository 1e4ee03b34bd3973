//! Correctness tooling for the FastGR scheduler (DESIGN.md §5).
//!
//! The scheduler's claim — conflicting tasks never run concurrently — is
//! the load-bearing invariant of the whole reproduction: every speed-up in
//! the paper rests on batches being independent sets and on the oriented
//! task graph being a DAG. This crate checks that claim from two
//! independent angles instead of trusting the construction:
//!
//! * [`validator`] — **static**: proves a concrete [`Schedule`] is
//!   acyclic, orients every conflict edge, keeps every batch/frontier an
//!   independent set, and accounts work/span correctly. Violations come
//!   back as structured [`Diagnostic`]s with the offending task pair and a
//!   minimal witness path. [`ScheduleView`] supports mutation testing:
//!   deliberately corrupt a schedule and assert the validator rejects it.
//! * [`race`] — **dynamic**: vector-clock happens-before checking
//!   ([`RaceChecker`]) over the one worker-event hook the executor and the
//!   simulated device's block pool share; flags conflicting pairs whose
//!   executions were not strictly ordered by what the run actually did.
//!
//! `cargo xtask check` drives both from the command line; the router's
//! `validate` flag runs the static validator inline on every schedule it
//! builds. The source-level workspace rules (no `unsafe`, no hot-path
//! panics, one clock, no `RwLock`, prober-only DP costs) are toolchain
//! lints — crate-root attributes plus the root `clippy.toml`, see
//! DESIGN.md §5 — and counting-allocator tests check the zero-allocation
//! DP, maze and prober bodies.
//!
//! [`Schedule`]: fastgr_taskgraph::Schedule

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagnostics;
pub mod race;
pub mod validator;

pub use diagnostics::{Diagnostic, ValidationReport};
pub use race::RaceChecker;
pub use validator::{validate_batches, validate_schedule, validate_view, ScheduleView};
