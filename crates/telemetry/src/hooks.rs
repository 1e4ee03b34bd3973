//! The one observation contract of the workspace's two parallel runners:
//! the simulated device's block pool and the task-graph executor.
//!
//! Both runners report which worker executed which item and, for the
//! executor, the dependency handoffs it actually performed. The telemetry
//! bridge ([`TraceHooks`]) and the happens-before race checker in
//! `fastgr-analysis` consume the same events, so each is written once.

use crate::recorder::Recorder;
use crate::trace::TRACK_WORKER_BASE;

/// Observation hooks for one parallel run, called from the worker threads.
///
/// A run reports, per item (a pool block or an executor task), a start and
/// a finish event in each worker's program order, and — for dependency
/// runs — one handoff per dependency edge it released. A block-pool launch
/// is simply a run with no handoffs. All methods default to no-ops;
/// implementations must be cheap and must not call back into the runner.
///
/// `()` is the no-op hooks, a pair `(A, B)` fans every event out to `A`
/// then `B`, and `Option<H>` observes only when `Some`.
pub trait WorkerHooks: Sync {
    /// Item `index` is about to run on worker thread `worker`. Every event
    /// a worker reports after this one happened after it in that worker's
    /// program order.
    fn on_start(&self, index: usize, worker: usize) {
        let _ = (index, worker);
    }

    /// Item `index` finished running on worker thread `worker`. Reported
    /// before any successor of `index` is released.
    fn on_finish(&self, index: usize, worker: usize) {
        let _ = (index, worker);
    }

    /// The completion of `pred` decremented the dependency counter of
    /// `succ` — the runner's cross-thread synchronisation edge. `succ`
    /// starts only after every one of its predecessors reported this edge.
    fn on_handoff(&self, pred: usize, succ: usize) {
        let _ = (pred, succ);
    }
}

impl WorkerHooks for () {}

impl<A: WorkerHooks, B: WorkerHooks> WorkerHooks for (A, B) {
    fn on_start(&self, index: usize, worker: usize) {
        self.0.on_start(index, worker);
        self.1.on_start(index, worker);
    }

    fn on_finish(&self, index: usize, worker: usize) {
        self.0.on_finish(index, worker);
        self.1.on_finish(index, worker);
    }

    fn on_handoff(&self, pred: usize, succ: usize) {
        self.0.on_handoff(pred, succ);
        self.1.on_handoff(pred, succ);
    }
}

impl<H: WorkerHooks> WorkerHooks for Option<H> {
    fn on_start(&self, index: usize, worker: usize) {
        if let Some(h) = self {
            h.on_start(index, worker);
        }
    }

    fn on_finish(&self, index: usize, worker: usize) {
        if let Some(h) = self {
            h.on_finish(index, worker);
        }
    }

    fn on_handoff(&self, pred: usize, succ: usize) {
        if let Some(h) = self {
            h.on_handoff(pred, succ);
        }
    }
}

/// [`WorkerHooks`] that report into a telemetry [`Recorder`]: item `i`
/// becomes a `{prefix}{i}` begin/end pair in category `cat` on the
/// executing worker's track (`TRACK_WORKER_BASE + worker`), and every
/// handoff bumps the `sched.handoffs` counter.
///
/// With a disabled recorder every callback is one branch and formats
/// nothing, so the hooks can be installed unconditionally.
///
/// # Example
///
/// ```
/// use fastgr_telemetry::{Recorder, TraceHooks, WorkerHooks};
///
/// let recorder = Recorder::enabled();
/// let hooks = TraceHooks::new(&recorder, "task", "task");
/// hooks.on_start(3, 0);
/// hooks.on_finish(3, 0);
/// let trace = recorder.take_trace();
/// assert_eq!(trace.events()[0].name, "task3");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TraceHooks<'a> {
    recorder: &'a Recorder,
    prefix: &'a str,
    cat: &'static str,
}

impl<'a> TraceHooks<'a> {
    /// Hooks reporting into `recorder`, naming item `i` `{prefix}{i}`.
    pub fn new(recorder: &'a Recorder, prefix: &'a str, cat: &'static str) -> Self {
        Self {
            recorder,
            prefix,
            cat,
        }
    }

    fn mark(&self, index: usize, worker: usize, begin: bool) {
        if self.recorder.is_enabled() {
            let name = format!("{}{index}", self.prefix);
            let track = TRACK_WORKER_BASE + worker as u32;
            if begin {
                self.recorder.begin(&name, self.cat, track);
            } else {
                self.recorder.end(&name, self.cat, track);
            }
        }
    }
}

impl WorkerHooks for TraceHooks<'_> {
    fn on_start(&self, index: usize, worker: usize) {
        self.mark(index, worker, true);
    }

    fn on_finish(&self, index: usize, worker: usize) {
        self.mark(index, worker, false);
    }

    fn on_handoff(&self, _pred: usize, _succ: usize) {
        self.recorder.accumulate("sched.handoffs", 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Default)]
    struct Count(AtomicUsize);

    impl WorkerHooks for Count {
        fn on_start(&self, _index: usize, _worker: usize) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn pair_and_option_fan_out() {
        let pair = (Count::default(), Some(Count::default()));
        pair.on_start(0, 0);
        pair.on_start(1, 1);
        assert_eq!(pair.0 .0.load(Ordering::Relaxed), 2);
        assert_eq!(
            pair.1.as_ref().map(|c| c.0.load(Ordering::Relaxed)),
            Some(2)
        );
        let none: Option<Count> = None;
        none.on_start(0, 0);
        ().on_handoff(0, 1);
    }
}
