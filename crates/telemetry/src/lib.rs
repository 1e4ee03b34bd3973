//! Run-trace telemetry for the FastGR pipeline.
//!
//! The paper's entire evaluation (Tables III–VI, Figs. 12–14) is built on
//! per-stage and per-kernel timing breakdowns. This crate is the one
//! observability layer the whole workspace reports into:
//!
//! * [`Stopwatch`] — the workspace's **single clock**. Every crate that
//!   measures wall time uses it; `Instant::now()` anywhere else is
//!   rejected by the `timing-instant` rule of the `fastgr-analysis` lint
//!   pass, so all timing flows through one place.
//! * [`WorkerHooks`] — the one observation contract of the block pool
//!   and the task-graph executor; [`TraceHooks`] bridges it into a
//!   [`Recorder`] as per-worker begin/end events.
//! * [`Recorder`] — a lightweight span/counter/event recorder. A
//!   *disabled* recorder (the default everywhere) is a no-op sink: every
//!   record call is a single branch on an `Option`, performs no
//!   allocation and takes no lock, so instrumented code costs nothing
//!   when telemetry is off.
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
