//! The structured result of one recorded run.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Track (Chrome `tid`) that stage-level spans and counter samples land
/// on: the coordinating thread.
pub const TRACK_MAIN: u32 = 0;

/// Track offset of worker threads: worker `w` reports on track `w + 1`.
pub const TRACK_WORKER_BASE: u32 = 1;

/// Track that per-kernel device events land on (a dedicated "GPU" lane,
/// clear of the host worker tracks).
pub const TRACK_DEVICE: u32 = 90;

/// A completed named interval on some track.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (e.g. `"planning"`, `"rrr.iter0"`).
    pub name: String,
    /// Category (Chrome `cat`), e.g. `"stage"`.
    pub cat: &'static str,
    /// Start offset from the recorder's epoch, in seconds.
    pub start_seconds: f64,
    /// Duration in seconds.
    pub duration_seconds: f64,
    /// Track (Chrome `tid`) the span belongs to.
    pub track: u32,
}

/// A named deterministic counter: for a fixed configuration its value is
/// byte-identical across runs and across worker counts.
#[derive(Debug, Clone, PartialEq)]
pub struct Counter {
    /// Counter name (e.g. `"pattern.kernel_launches"`).
    pub name: String,
    /// Final accumulated value.
    pub value: f64,
}

/// A timestamped sample of a counter (Chrome `"C"` event), e.g. the
/// nets-ripped count of each rip-up iteration as it happened.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Counter name.
    pub name: String,
    /// Sample time, seconds from the recorder's epoch.
    pub t_seconds: f64,
    /// Sampled value.
    pub value: f64,
}

/// One kernel launch on the simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelEvent {
    /// Kernel name.
    pub name: String,
    /// Blocks launched.
    pub blocks: usize,
    /// Modelled device seconds (deterministic).
    pub modeled_seconds: f64,
    /// Measured host seconds of the launch.
    pub host_seconds: f64,
    /// Launch start, seconds from the recorder's epoch.
    pub start_seconds: f64,
}

/// A begin or end marker reported by a worker thread (block / task
/// execution), matched per track in report order.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Event name (e.g. `"block12"`, `"task3"`).
    pub name: String,
    /// Category (Chrome `cat`).
    pub cat: &'static str,
    /// `true` for a begin marker, `false` for the matching end.
    pub begin: bool,
    /// Event time, seconds from the recorder's epoch.
    pub t_seconds: f64,
    /// Track (Chrome `tid`; `worker + 1`).
    pub track: u32,
}

/// Everything one recorded routing run produced, aggregated.
///
/// A `RunTrace` is attached to every `RoutingOutcome`. Every
/// [`Recorder`](crate::Recorder) keeps counters, so the trace carries all
/// of the run's counters (batches, pattern shorts, per-iteration rip-up
/// counts, maze work, ...) whether or not the run was traced; only the
/// timeline (spans, kernel events, counter samples, worker events)
/// requires an enabled recorder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTrace {
    pub(crate) spans: Vec<Span>,
    pub(crate) counters: BTreeMap<String, f64>,
    pub(crate) counter_samples: Vec<CounterSample>,
    pub(crate) kernels: Vec<KernelEvent>,
    pub(crate) events: Vec<TimelineEvent>,
}

impl RunTrace {
    // --- Run summary, read from the counters the stages always record. ---

    /// Nets ripped up per rip-up-and-reroute iteration (the
    /// `rrr.iterN.nets_ripped` counters, `rrr.iterations` of them).
    pub fn nets_ripped(&self) -> Vec<usize> {
        let iterations = self.counter("rrr.iterations").unwrap_or(0.0) as usize;
        let ripped = |i| {
            self.counter(&format!("rrr.iter{i}.nets_ripped"))
                .unwrap_or(0.0)
        };
        (0..iterations).map(|i| ripped(i) as usize).collect()
    }

    /// Shorts (overflow) right after the pattern stage, before any rip-up
    /// and reroute (the `pattern.shorts_after` counter).
    pub fn pattern_shorts(&self) -> f64 {
        self.counter("pattern.shorts_after").unwrap_or(0.0)
    }

    /// Conflict-free batches formed in the pattern stage (the
    /// `pattern.batches` counter).
    pub fn pattern_batches(&self) -> usize {
        self.counter("pattern.batches").unwrap_or(0.0) as usize
    }

    // --- Seconds. Sums fold from +0.0: an empty `Iterator::sum` is -0.0. ---

    /// Measured wall seconds of every span named exactly `name`.
    pub fn span_seconds(&self, name: &str) -> f64 {
        let spans = self.spans.iter().filter(|s| s.name == name);
        spans.fold(0.0, |total, s| total + s.duration_seconds)
    }

    /// Sum of every sample of the counter `name`.
    pub fn sample_total(&self, name: &str) -> f64 {
        let samples = self.counter_samples.iter().filter(|s| s.name == name);
        samples.fold(0.0, |total, s| total + s.value)
    }

    /// Modelled device seconds of every kernel launch, summed in launch
    /// order (deterministic for a fixed configuration).
    pub fn modeled_device_seconds(&self) -> f64 {
        self.kernels
            .iter()
            .fold(0.0, |total, k| total + k.modeled_seconds)
    }

    // --- Telemetry accessors. ---

    /// The recorded stage spans (empty with a disabled recorder).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The final counter values, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = Counter> + '_ {
        self.counters.iter().map(|(name, &value)| Counter {
            name: name.clone(),
            value,
        })
    }

    /// Looks up one counter by name.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters.get(name).copied()
    }

    /// The timestamped counter samples.
    pub fn counter_samples(&self) -> &[CounterSample] {
        &self.counter_samples
    }

    /// The per-kernel launch events (empty with a disabled recorder).
    pub fn kernels(&self) -> &[KernelEvent] {
        &self.kernels
    }

    /// The raw worker-thread begin/end events.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Whether the trace carries timeline detail (i.e. was recorded with
    /// an enabled recorder).
    pub fn has_timeline(&self) -> bool {
        !self.spans.is_empty() || !self.kernels.is_empty() || !self.events.is_empty()
    }

    /// The deterministic portion of the trace, rendered one item per
    /// line: counters (sorted by name), kernel names with block counts,
    /// and the run summary. For a fixed configuration this string is
    /// byte-identical across runs and across worker counts — timestamps
    /// and host seconds never appear in it.
    pub fn deterministic_signature(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "pattern.batches = {}", self.pattern_batches());
        let _ = writeln!(out, "pattern.shorts = {}", self.pattern_shorts());
        let _ = writeln!(out, "rrr.nets_ripped = {:?}", self.nets_ripped());
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter {name} = {value}");
        }
        for k in &self.kernels {
            let _ = writeln!(
                out,
                "kernel {} blocks={} modeled_us={:.3}",
                k.name,
                k.blocks,
                k.modeled_seconds * 1e6
            );
        }
        out
    }

    /// A human-readable summary: stage spans, kernel totals and every
    /// counter. Suitable for printing after a routed run.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "run trace summary");
        let _ = writeln!(out, "-----------------");
        if self.spans.is_empty() {
            let _ = writeln!(out, "(no spans: telemetry was disabled)");
        } else {
            let width = self.spans.iter().map(|s| s.name.len()).max().unwrap_or(4);
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "span  {:width$}  {:>10.3} ms  (at {:.3} ms)",
                    s.name,
                    s.duration_seconds * 1e3,
                    s.start_seconds * 1e3,
                );
            }
        }
        if !self.kernels.is_empty() {
            let launches = self.kernels.len();
            let blocks: usize = self.kernels.iter().map(|k| k.blocks).sum();
            let modeled: f64 = self.kernels.iter().map(|k| k.modeled_seconds).sum();
            let host: f64 = self.kernels.iter().map(|k| k.host_seconds).sum();
            let _ = writeln!(
                out,
                "kernels  {launches} launches, {blocks} blocks, {:.3} ms modelled, {:.3} ms host",
                modeled * 1e3,
                host * 1e3,
            );
        }
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter  {name} = {value}");
        }
        out
    }
}

impl fmt::Display for RunTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> RunTrace {
        let counters = [
            ("pattern.batches", 3.0),
            ("pattern.shorts_after", 7.5),
            ("rrr.iterations", 2.0),
            ("rrr.iter0.nets_ripped", 12.0),
            ("rrr.iter1.nets_ripped", 4.0),
            ("pattern.kernel_launches", 3.0),
        ];
        RunTrace {
            spans: vec![Span {
                name: "pattern".into(),
                cat: "stage",
                start_seconds: 0.001,
                duration_seconds: 0.5,
                track: TRACK_MAIN,
            }],
            counters: counters.map(|(n, v)| (n.to_owned(), v)).into(),
            counter_samples: vec![CounterSample {
                name: "rrr.nets_ripped".into(),
                t_seconds: 0.6,
                value: 12.0,
            }],
            kernels: vec![KernelEvent {
                name: "pattern".into(),
                blocks: 64,
                modeled_seconds: 1e-4,
                host_seconds: 2e-3,
                start_seconds: 0.01,
            }],
            events: vec![TimelineEvent {
                name: "block0".into(),
                cat: "block",
                begin: true,
                t_seconds: 0.011,
                track: 1,
            }],
        }
    }

    #[test]
    fn summary_accessors_mirror_counters() {
        let trace = sample_trace();
        assert_eq!(trace.pattern_batches(), 3);
        assert_eq!(trace.pattern_shorts(), 7.5);
        assert_eq!(trace.nets_ripped(), [12, 4]);
        assert!(trace.has_timeline());
        let header = "pattern.batches = 3\npattern.shorts = 7.5\nrrr.nets_ripped = [12, 4]\n";
        assert!(trace.deterministic_signature().starts_with(header));
    }

    #[test]
    fn second_totals_start_at_positive_zero() {
        let (trace, empty) = (sample_trace(), RunTrace::default());
        assert_eq!(trace.span_seconds("pattern"), 0.5);
        assert_eq!(trace.sample_total("rrr.nets_ripped"), 12.0);
        assert_eq!(trace.modeled_device_seconds(), 1e-4);
        // Nothing recorded reads as +0.0, never the -0.0 of an empty sum.
        let (a, b) = (empty.span_seconds("a"), empty.sample_total("b"));
        assert!([a, b, empty.modeled_device_seconds()]
            .iter()
            .all(|z| z.to_bits() == 0));
    }

    #[test]
    fn signature_excludes_timestamps() {
        let a = sample_trace();
        let mut b = sample_trace();
        // Perturb everything non-deterministic: timestamps, durations,
        // host seconds.
        b.spans[0].start_seconds = 9.9;
        b.spans[0].duration_seconds = 1.23;
        b.kernels[0].host_seconds = 4.56;
        b.kernels[0].start_seconds = 7.89;
        b.counter_samples[0].t_seconds = 0.1;
        b.events[0].t_seconds = 3.2;
        assert_eq!(a.deterministic_signature(), b.deterministic_signature());
        assert!(a
            .deterministic_signature()
            .contains("kernel pattern blocks=64"));
    }

    #[test]
    fn signature_sees_counter_changes() {
        let a = sample_trace();
        let mut b = sample_trace();
        b.counters.insert("pattern.kernel_launches".into(), 4.0);
        assert_ne!(a.deterministic_signature(), b.deterministic_signature());
    }

    #[test]
    fn summary_table_lists_spans_kernels_and_counters() {
        let text = sample_trace().summary_table();
        assert!(text.contains("span  pattern"));
        assert!(text.contains("kernels  1 launches, 64 blocks"));
        assert!(text.contains("counter  pattern.batches = 3"));
        // Display delegates to the table.
        assert_eq!(sample_trace().to_string(), text);
    }

    #[test]
    fn empty_trace_reports_disabled_telemetry() {
        let trace = RunTrace::default();
        assert!(!trace.has_timeline());
        assert!(trace.summary_table().contains("telemetry was disabled"));
        assert!(trace.nets_ripped().is_empty());
    }
}
