//! The span/counter/event recorder handed through the pipeline.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::clock::Stopwatch;
use crate::trace::{CounterSample, KernelEvent, RunTrace, Span, TimelineEvent, TRACK_MAIN};

/// Shared recorder state behind an enabled [`Recorder`].
#[derive(Debug)]
struct Inner {
    epoch: Stopwatch,
    spans: Mutex<Vec<Span>>,
    events: Mutex<Vec<TimelineEvent>>,
    counters: Mutex<BTreeMap<String, f64>>,
    counter_samples: Mutex<Vec<CounterSample>>,
    kernels: Mutex<Vec<KernelEvent>>,
}

impl Inner {
    fn new() -> Self {
        Self {
            epoch: Stopwatch::start(),
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            counter_samples: Mutex::new(Vec::new()),
            kernels: Mutex::new(Vec::new()),
        }
    }

    fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        // A poisoned telemetry mutex means a worker panicked mid-record;
        // the data is still structurally sound (Vec pushes are atomic
        // w.r.t. the lock), so keep collecting rather than double-panic.
        m.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A cheap, cloneable handle the pipeline records into.
///
/// A recorder is either *enabled* (shares an [`Arc`] of collection state)
/// or *disabled* (the default): a no-op sink where every record call is a
/// single branch on an `Option` — no allocation, no lock, no formatting.
/// Clones share the same underlying trace.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A recorder that collects into a shared trace. The epoch (time
    /// zero of all recorded timestamps) is the moment of this call.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner::new())),
        }
    }

    /// The no-op sink: records nothing, costs one branch per call.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether this recorder collects anything. Use to skip work whose
    /// only purpose is producing telemetry input (e.g. formatting names).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a named span on the main track; the span is recorded when
    /// the returned guard drops.
    #[must_use = "the span closes (and records) when the guard drops"]
    pub fn span(&self, name: &str, cat: &'static str) -> SpanGuard {
        self.span_on(name, cat, TRACK_MAIN)
    }

    /// Opens a span whose name carries an index (e.g. `rrr.iter3`). The
    /// name is only formatted when the recorder is enabled.
    #[must_use = "the span closes (and records) when the guard drops"]
    pub fn span_indexed(&self, prefix: &str, index: usize, cat: &'static str) -> SpanGuard {
        if self.inner.is_none() {
            return SpanGuard::noop();
        }
        self.span_on(&format!("{prefix}{index}"), cat, TRACK_MAIN)
    }

    fn span_on(&self, name: &str, cat: &'static str, track: u32) -> SpanGuard {
        match &self.inner {
            Some(inner) => SpanGuard {
                inner: Some(SpanGuardInner {
                    recorder: Arc::clone(inner),
                    name: name.to_owned(),
                    cat,
                    track,
                    start_seconds: inner.epoch.elapsed_seconds(),
                }),
            },
            None => SpanGuard::noop(),
        }
    }

    /// Records a begin marker on a worker track (pair with [`Recorder::end`]).
    pub fn begin(&self, name: &str, cat: &'static str, track: u32) {
        self.mark(name, cat, track, true);
    }

    /// Records the end marker matching a prior [`Recorder::begin`] on the
    /// same track.
    pub fn end(&self, name: &str, cat: &'static str, track: u32) {
        self.mark(name, cat, track, false);
    }

    fn mark(&self, name: &str, cat: &'static str, track: u32, begin: bool) {
        if let Some(inner) = &self.inner {
            let t_seconds = inner.epoch.elapsed_seconds();
            Inner::lock(&inner.events).push(TimelineEvent {
                name: name.to_owned(),
                cat,
                begin,
                t_seconds,
                track,
            });
        }
    }

    /// Adds `delta` to a named counter (created at zero).
    pub fn accumulate(&self, name: &str, delta: f64) {
        if let Some(inner) = &self.inner {
            *Inner::lock(&inner.counters).entry(name.to_owned()).or_insert(0.0) += delta;
        }
    }

    /// Records a timestamped sample of a counter (a Chrome `"C"` event),
    /// without touching the accumulated value.
    pub fn counter_sample(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            let t_seconds = inner.epoch.elapsed_seconds();
            Inner::lock(&inner.counter_samples).push(CounterSample {
                name: name.to_owned(),
                t_seconds,
                value,
            });
        }
    }

    /// Records one kernel launch on the simulated device that has just
    /// finished after `host_seconds` of wall time; its start is placed
    /// that long before now.
    pub fn kernel(&self, name: &str, blocks: usize, modeled_seconds: f64, host_seconds: f64) {
        if let Some(inner) = &self.inner {
            let now = inner.epoch.elapsed_seconds();
            Inner::lock(&inner.kernels).push(KernelEvent {
                name: name.to_owned(),
                blocks,
                modeled_seconds,
                host_seconds,
                start_seconds: (now - host_seconds).max(0.0),
            });
        }
    }

    /// Drains everything recorded so far into a [`RunTrace`]. A disabled
    /// recorder yields the empty trace. Other clones of this recorder
    /// keep working but start from empty collections.
    pub fn take_trace(&self) -> RunTrace {
        match &self.inner {
            Some(inner) => RunTrace::from_parts(
                std::mem::take(&mut Inner::lock(&inner.spans)),
                std::mem::take(&mut Inner::lock(&inner.counters)),
                std::mem::take(&mut Inner::lock(&inner.counter_samples)),
                std::mem::take(&mut Inner::lock(&inner.kernels)),
                std::mem::take(&mut Inner::lock(&inner.events)),
            ),
            None => RunTrace::default(),
        }
    }
}

#[derive(Debug)]
struct SpanGuardInner {
    recorder: Arc<Inner>,
    name: String,
    cat: &'static str,
    track: u32,
    start_seconds: f64,
}

/// RAII guard returned by [`Recorder::span`]; records the completed span
/// when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<SpanGuardInner>,
}

impl SpanGuard {
    fn noop() -> Self {
        Self { inner: None }
    }

    /// Closes the span now (equivalent to dropping the guard).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            let end = g.recorder.epoch.elapsed_seconds();
            Inner::lock(&g.recorder.spans).push(Span {
                name: g.name.clone(),
                cat: g.cat,
                start_seconds: g.start_seconds,
                duration_seconds: (end - g.start_seconds).max(0.0),
                track: g.track,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_sink() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        {
            let _s = r.span("planning", "stage");
            r.accumulate("nets", 5.0);
            r.counter_sample("nets", 5.0);
            r.kernel("pattern", 8, 1e-4, 1e-3);
            r.begin("block0", "block", 1);
            r.end("block0", "block", 1);
        }
        let trace = r.take_trace();
        assert_eq!(trace, RunTrace::default());
        assert!(!trace.has_timeline());
    }

    #[test]
    fn spans_record_on_drop_in_close_order() {
        let r = Recorder::enabled();
        let outer = r.span("outer", "stage");
        {
            let _inner = r.span("inner", "stage");
        }
        outer.finish();
        let trace = r.take_trace();
        let names: Vec<&str> = trace.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["inner", "outer"]);
        let inner = &trace.spans()[0];
        let outer = &trace.spans()[1];
        assert!(outer.start_seconds <= inner.start_seconds);
        assert!(outer.duration_seconds >= inner.duration_seconds);
    }

    #[test]
    fn accumulate_sums_and_clones_share_state() {
        let r = Recorder::enabled();
        let clone = r.clone();
        r.accumulate("batches", 2.0);
        clone.accumulate("batches", 3.0);
        let trace = r.take_trace();
        assert_eq!(trace.counter("batches"), Some(5.0));
        // Drained: the next take sees an empty trace.
        assert_eq!(clone.take_trace().counter("batches"), None);
    }

    #[test]
    fn kernel_and_marks_are_captured() {
        let r = Recorder::enabled();
        r.kernel("pattern", 16, 2e-4, 1e-3);
        r.begin("task0", "task", 3);
        r.end("task0", "task", 3);
        r.counter_sample("rrr.nets_ripped", 9.0);
        let trace = r.take_trace();
        assert_eq!(trace.kernels().len(), 1);
        assert_eq!(trace.kernels()[0].blocks, 16);
        assert!(trace.kernels()[0].start_seconds >= 0.0);
        assert_eq!(trace.events().len(), 2);
        assert!(trace.events()[0].begin);
        assert!(!trace.events()[1].begin);
        assert_eq!(trace.events()[0].track, 3);
        assert_eq!(trace.counter_samples().len(), 1);
    }

    #[test]
    fn span_indexed_formats_only_when_enabled() {
        let enabled = Recorder::enabled();
        {
            let _s = enabled.span_indexed("rrr.iter", 2, "stage");
        }
        assert_eq!(enabled.take_trace().spans()[0].name, "rrr.iter2");
        let disabled = Recorder::disabled();
        {
            let _s = disabled.span_indexed("rrr.iter", 2, "stage");
        }
        assert!(disabled.take_trace().spans().is_empty());
    }

    #[test]
    fn recording_is_thread_safe() {
        let r = Recorder::enabled();
        std::thread::scope(|scope| {
            for w in 0..4u32 {
                let r = r.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        r.begin(&format!("b{i}"), "block", w + 1);
                        r.accumulate("work", 1.0);
                        r.end(&format!("b{i}"), "block", w + 1);
                    }
                });
            }
        });
        let trace = r.take_trace();
        assert_eq!(trace.counter("work"), Some(200.0));
        assert_eq!(trace.events().len(), 400);
    }
}
