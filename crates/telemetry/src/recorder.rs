//! The span/counter/event recorder handed through the pipeline.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::clock::Stopwatch;
use crate::trace::{CounterSample, KernelEvent, RunTrace, Span, TimelineEvent, TRACK_MAIN};

/// State shared by every clone of one [`Recorder`].
#[derive(Debug)]
struct Shared {
    epoch: Stopwatch,
    /// Whether spans, samples, kernels and worker events are recorded.
    timeline: bool,
    trace: Mutex<RunTrace>,
}

impl Shared {
    fn trace(&self) -> MutexGuard<'_, RunTrace> {
        // A poisoned telemetry mutex means a worker panicked mid-record;
        // the data is still structurally sound (Vec pushes are atomic
        // w.r.t. the lock), so keep collecting rather than double-panic.
        self.trace.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A cheap, cloneable handle the pipeline records into.
///
/// Every recorder keeps counters ([`Recorder::accumulate`]), so a run's
/// counters are the same whether or not it was traced. An *enabled*
/// recorder also records the timeline: spans, counter samples, kernel
/// events and worker begin/end events. A *disabled* recorder (the
/// default) keeps counters only; each timeline call is a single branch
/// and allocates, formats and locks nothing. Clones share the same
/// underlying trace.
#[derive(Debug, Clone)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Recorder {
    fn new(timeline: bool) -> Self {
        Self {
            shared: Arc::new(Shared {
                epoch: Stopwatch::start(),
                timeline,
                trace: Mutex::new(RunTrace::default()),
            }),
        }
    }

    /// A recorder that keeps counters and records the timeline. The epoch
    /// (time zero of all recorded timestamps) is the moment of this call.
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// Counters only: the timeline calls cost one branch each.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Whether this recorder records the timeline. Use to skip work whose
    /// only purpose is producing timeline input (e.g. formatting names).
    pub fn is_enabled(&self) -> bool {
        self.shared.timeline
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
        if !self.is_enabled() {
            return SpanGuard { inner: None };
        }
        self.span_on(&format!("{prefix}{index}"), cat, TRACK_MAIN)
    }

    fn span_on(&self, name: &str, cat: &'static str, track: u32) -> SpanGuard {
        let inner = self.is_enabled().then(|| SpanGuardInner {
            shared: Arc::clone(&self.shared),
            name: name.to_owned(),
            cat,
            track,
            start_seconds: self.shared.epoch.elapsed_seconds(),
        });
        SpanGuard { inner }
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
        if self.is_enabled() {
            let t_seconds = self.shared.epoch.elapsed_seconds();
            self.shared.trace().events.push(TimelineEvent {
                name: name.to_owned(),
                cat,
                begin,
                t_seconds,
                track,
            });
        }
    }

    /// Adds `delta` to a named counter (created at zero). Recorded by
    /// every recorder, enabled or not.
    pub fn accumulate(&self, name: &str, delta: f64) {
        *self
            .shared
            .trace()
            .counters
            .entry(name.to_owned())
            .or_insert(0.0) += delta;
    }

    /// Records a timestamped sample of a counter (a Chrome `"C"` event),
    /// without touching the accumulated value.
    pub fn counter_sample(&self, name: &str, value: f64) {
        if self.is_enabled() {
            let t_seconds = self.shared.epoch.elapsed_seconds();
            self.shared.trace().counter_samples.push(CounterSample {
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
        if self.is_enabled() {
            let now = self.shared.epoch.elapsed_seconds();
            self.shared.trace().kernels.push(KernelEvent {
                name: name.to_owned(),
                blocks,
                modeled_seconds,
                host_seconds,
                start_seconds: (now - host_seconds).max(0.0),
            });
        }
    }

    /// Drains everything recorded so far into a [`RunTrace`]: the counters
    /// always, the timeline when enabled. Other clones of this recorder
    /// keep working but start from an empty trace.
    pub fn take_trace(&self) -> RunTrace {
        std::mem::take(&mut *self.shared.trace())
    }
}

#[derive(Debug)]
struct SpanGuardInner {
    shared: Arc<Shared>,
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
    /// Closes the span now (equivalent to dropping the guard).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            let end = g.shared.epoch.elapsed_seconds();
            g.shared.trace().spans.push(Span {
                name: g.name,
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
    fn disabled_recorder_keeps_counters_and_no_timeline() {
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
        assert!(!trace.has_timeline());
        // The counter, and nothing else.
        let mut counters_only = RunTrace::default();
        counters_only.counters.insert("nets".to_owned(), 5.0);
        assert_eq!(trace, counters_only);
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
