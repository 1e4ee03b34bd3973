//! Correctness tooling for the FastGR scheduler (DESIGN.md §5).
//!
//! The scheduler's claim — conflicting tasks never run concurrently — is
//! the load-bearing invariant of the whole reproduction: every speed-up in
//! the paper rests on batches being independent sets and on the oriented
//! task graph being a DAG. This crate checks that claim from three
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
//! * [`lint`] — **source**: workspace rules (`#![forbid(unsafe_code)]`
//!   everywhere, no `unwrap`/`expect` on hot paths, no allocation in the
//!   zero-alloc DP bodies) with an explicit allowlist.
//!
//! `cargo xtask check` drives all three from the command line; the
//! router's `validate` flag runs the static validator inline on every
//! schedule it builds.
//!
//! [`Schedule`]: fastgr_taskgraph::Schedule

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diagnostics;
pub mod lint;
pub mod race;
pub mod validator;

pub use diagnostics::{Diagnostic, Severity, ValidationReport};
pub use lint::{lint_file, lint_workspace, parse_allowlist, AllowEntry, Rules};
pub use race::RaceChecker;
pub use validator::{validate_batches, validate_schedule, validate_view, ScheduleView};
