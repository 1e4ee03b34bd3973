//! Chrome `trace_event` JSON export.
//!
//! The emitted object follows the trace-event format understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): a
//! `traceEvents` array of phase-tagged events with microsecond
//! timestamps. Spans become complete (`"X"`) events, worker begin/end
//! markers become `"B"`/`"E"` pairs, kernel launches become `"X"` events
//! on a dedicated device track carrying block counts and modelled time in
//! `args`, and counter samples become `"C"` events.

use std::fmt::Write as _;

use crate::trace::{RunTrace, TRACK_DEVICE};

/// Process id used for every event (single-process pipeline).
const PID: u32 = 1;

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Formats a timestamp/duration in microseconds with fixed precision so
/// the output is locale-independent and stable to parse.
fn micros(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e6)
}

struct EventWriter {
    out: String,
    first: bool,
}

impl EventWriter {
    fn new() -> Self {
        Self {
            out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"),
            first: true,
        }
    }

    /// Starts one event object with the common fields; the caller appends
    /// extra fields (each prefixed with a comma) and calls `close`.
    fn open(&mut self, name: &str, cat: &str, ph: char, ts_seconds: f64, tid: u32) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str("{\"name\":\"");
        escape_json(name, &mut self.out);
        self.out.push_str("\",\"cat\":\"");
        escape_json(cat, &mut self.out);
        let _ = write!(
            self.out,
            "\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":{PID},\"tid\":{tid}",
            micros(ts_seconds)
        );
    }

    fn close(&mut self) {
        self.out.push('}');
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

impl RunTrace {
    /// Renders the trace as Chrome `trace_event` JSON, loadable in
    /// `chrome://tracing` or Perfetto. Deterministic fields (counter
    /// values, kernel block counts, modelled seconds) are exact;
    /// timestamps are wall-clock and vary run to run.
    pub fn to_chrome_trace_json(&self) -> String {
        let mut w = EventWriter::new();
        for s in self.spans() {
            w.open(&s.name, s.cat, 'X', s.start_seconds, s.track);
            let _ = write!(w.out, ",\"dur\":{}", micros(s.duration_seconds));
            w.close();
        }
        for e in self.events() {
            let ph = if e.begin { 'B' } else { 'E' };
            w.open(&e.name, e.cat, ph, e.t_seconds, e.track);
            w.close();
        }
        for k in self.kernels() {
            w.open(&k.name, "kernel", 'X', k.start_seconds, TRACK_DEVICE);
            let _ = write!(
                w.out,
                ",\"dur\":{},\"args\":{{\"blocks\":{},\"modeled_us\":{}}}",
                micros(k.host_seconds),
                k.blocks,
                micros(k.modeled_seconds)
            );
            w.close();
        }
        for c in self.counter_samples() {
            w.open(&c.name, "counter", 'C', c.t_seconds, 0);
            let _ = write!(w.out, ",\"args\":{{\"value\":{}}}", c.value);
            w.close();
        }
        // Final counter values as one "C" sample each at the end of the
        // timeline, so totals show up even without explicit samples.
        let t_end = self
            .spans()
            .iter()
            .map(|s| s.start_seconds + s.duration_seconds)
            .fold(0.0f64, f64::max);
        for c in self.counters() {
            w.open(&format!("total.{}", c.name), "counter", 'C', t_end, 0);
            let _ = write!(w.out, ",\"args\":{{\"value\":{}}}", c.value);
            w.close();
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::json::{self, Value};
    use crate::Recorder;

    fn sample_json() -> String {
        let r = Recorder::enabled();
        {
            let _planning = r.span("planning", "stage");
            r.accumulate("nets.planned", 3.0);
        }
        r.begin("block \"0\"\n", "block", 1);
        r.end("block \"0\"\n", "block", 1);
        r.kernel("pattern", 8, 1.5e-4, 2e-3);
        r.counter_sample("rrr.nets_ripped", 12.0);
        let mut trace = r.take_trace();
        trace.set_counter("pattern.batches", 2.0);
        trace.set_counter("pattern.shorts_after", 0.0);
        trace.to_chrome_trace_json()
    }

    #[test]
    fn emitted_json_parses() {
        let text = sample_json();
        let value = json::parse(&text).expect("trace JSON must parse");
        let events = value
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        // 1 span + 2 marks + 1 kernel + 1 sample + 3 totals
        // (nets.planned, pattern.batches, pattern.shorts_after).
        assert_eq!(events.len(), 8);
        for e in events {
            assert!(e.get("name").is_some());
            assert!(e.get("ph").is_some());
            assert!(e.get("ts").and_then(Value::as_f64).is_some());
            assert!(e.get("pid").and_then(Value::as_f64).is_some());
            assert!(e.get("tid").and_then(Value::as_f64).is_some());
        }
    }

    #[test]
    fn phases_and_args_round_trip() {
        let text = sample_json();
        let value = json::parse(&text).expect("parse");
        let events = value.get("traceEvents").and_then(Value::as_array).expect("array");
        let phase_of = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
                .and_then(|e| e.get("ph"))
                .and_then(Value::as_str)
                .map(str::to_owned)
        };
        assert_eq!(phase_of("planning").as_deref(), Some("X"));
        assert_eq!(phase_of("rrr.nets_ripped").as_deref(), Some("C"));
        let kernel = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("pattern"))
            .expect("kernel event");
        assert_eq!(kernel.get("ph").and_then(Value::as_str), Some("X"));
        let args = kernel.get("args").expect("kernel args");
        assert_eq!(args.get("blocks").and_then(Value::as_f64), Some(8.0));
        assert_eq!(args.get("modeled_us").and_then(Value::as_f64), Some(150.0));
        // Escaped name round-trips through the parser.
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("block \"0\"\n")));
    }

    #[test]
    fn begin_end_pairs_balance_per_tid() {
        let text = sample_json();
        let value = json::parse(&text).expect("parse");
        let events = value.get("traceEvents").and_then(Value::as_array).expect("array");
        let mut depth = 0i64;
        for e in events {
            match e.get("ph").and_then(Value::as_str) {
                Some("B") => depth += 1,
                Some("E") => {
                    depth -= 1;
                    assert!(depth >= 0, "E without matching B");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0);
    }
}
