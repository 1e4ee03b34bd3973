//! Run-trace telemetry for the FastGR pipeline.
//!
//! The paper's entire evaluation (Tables III–VI, Figs. 12–14) is built on
//! per-stage and per-kernel timing breakdowns. This crate is the one
//! observability layer the whole workspace reports into:
//!
//! * [`Stopwatch`] — the workspace's **single clock**. Every crate that
//!   measures wall time uses it; `Instant::now()` anywhere else is
//!   rejected by clippy's `disallowed_methods` (root `clippy.toml`), so
//!   all timing flows through one place.
//! * [`WorkerHooks`] — the one observation contract of the block pool
//!   and the task-graph executor; [`TraceHooks`] bridges it into a
//!   [`Recorder`] as per-worker begin/end events.
//! * [`Recorder`] — the one path run counters take into a trace, plus a
//!   span/sample/event timeline. Every recorder keeps counters, so a
//!   plain run's trace has the same counters as a traced one; the stages
//!   record each counter once per stage, never per task, block or edge.
//!   A *disabled* recorder (the default everywhere) means "counters
//!   only": each timeline call is a single branch on a flag and
//!   allocates, formats and locks nothing.
//! * [`RunTrace`] — the aggregated, structured result of one routing run:
//!   stage [`Span`]s, deterministic [`Counter`]s, per-kernel
//!   [`KernelEvent`]s and worker-thread [`TimelineEvent`]s. Exportable as
//!   a summary table ([`RunTrace::summary_table`]) and as Chrome
//!   `trace_event` JSON ([`RunTrace::to_chrome_trace_json`]) loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//! * [`json`] — a minimal JSON parser used to validate emitted traces
//!   (CI smoke tests, golden tests) without external dependencies.
//!
//! # Determinism
//!
//! Counter *values* are deterministic: for a fixed configuration they are
//! byte-identical across runs and across worker counts (only event
//! *timestamps* vary). [`RunTrace::deterministic_signature`] renders
//! exactly the deterministic portion of a trace, which the test suite
//! asserts against a golden file.
//!
//! # Example
//!
//! ```
//! use fastgr_telemetry::Recorder;
//!
//! let recorder = Recorder::enabled();
//! {
//!     let _span = recorder.span("planning", "stage");
//!     recorder.accumulate("nets.planned", 64.0);
//! }
//! let trace = recorder.take_trace();
//! assert_eq!(trace.counter("nets.planned"), Some(64.0));
//! assert_eq!(trace.spans().len(), 1);
//! let json = trace.to_chrome_trace_json();
//! assert!(fastgr_telemetry::json::parse(&json).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod clock;
mod hooks;
pub mod json;
mod recorder;
mod trace;

pub use clock::Stopwatch;
pub use hooks::{TraceHooks, WorkerHooks};
pub use recorder::{Recorder, SpanGuard};
pub use trace::{
    Counter, CounterSample, KernelEvent, RunTrace, Span, TimelineEvent, TRACK_DEVICE, TRACK_MAIN,
    TRACK_WORKER_BASE,
};
