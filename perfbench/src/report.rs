//! Metric names, summary statistics and the one-line JSON result.

use std::fmt::Write as _;

/// The end-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("route_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wirelength", "gcell"),
    ("vias", "count"),
    ("score", "points"),
];

/// The per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("grid.build_s", "s"),
    ("grid.prober_build_s", "s"),
    ("grid.prober_rows_rebuilt", "count"),
    ("grid.cost_probes", "count"),
    ("steiner.build_s", "s"),
    ("ordering.sort_s", "s"),
    ("taskgraph.conflict_graph_s", "s"),
    ("taskgraph.conflict_edges", "count"),
    ("taskgraph.extract_batches_s", "s"),
    ("taskgraph.batches", "count"),
    ("taskgraph.rrr_conflict_graph_s", "s"),
    ("taskgraph.schedule_build_s", "s"),
    ("taskgraph.schedule_levels", "count"),
    ("taskgraph.executor_busy_frac", "frac"),
    ("dp.route_net_us.p50", "us"),
    ("dp.route_net_us.p99", "us"),
    ("gpu.kernel_host_s", "s"),
    ("gpu.modeled_s", "s"),
    ("gpu.launches", "count"),
    ("planning.stage_s", "s"),
    ("pattern.stage_s", "s"),
    ("pattern.shorts_after", "track"),
    ("maze.route_us.p50", "us"),
    ("maze.route_us.p99", "us"),
    ("maze.searches", "count"),
    ("maze.retries", "count"),
    ("rrr.stage_s", "s"),
    ("rrr.iter0_s", "s"),
    ("rrr.task_us.p50", "us"),
    ("rrr.task_us.p99", "us"),
    ("rrr.nets_ripped", "count"),
    ("rrr.dirty_edges", "count"),
    ("rrr.rescans_avoided", "count"),
    ("rrr.modeled_parallel_s", "s"),
    ("rrr.fix_frac", "frac"),
    ("guides.build_s", "s"),
    ("quality.shorts", "track"),
    ("quality.route_hash_distinct", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.layer_coverage_frac", "frac"),
    ("host.nproc", "count"),
    ("host.pattern_workers", "count"),
    ("host.rrr_threads", "count"),
];

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn is_valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `q`-quantile (`0 <= q <= 1`) of ascending `sorted` samples, by
/// linear interpolation between the closest ranks; 0 for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The median of `samples` (any order); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// An ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The result of one benchmark run, printed as the last line of stdout.
#[derive(Debug, Default)]
pub struct Report {
    /// Route attempts (every `Router::run` and the traced pipeline).
    pub attempted: u64,
    /// Attempts that returned `Err` or failed a correctness check.
    pub failed: u64,
    /// Whether every check passed (including those not tied to one attempt).
    pub correct: bool,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// Records metric `name`, which must be declared in `END_TO_END` or
    /// `PER_LAYER`. A negative zero (the sum of no samples) reads as 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let value = value + 0.0;
        let &(name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.metrics.retain(|(n, _, _)| *n != name);
        self.metrics.push((name, unit, value));
    }

    /// Keeps exactly the metrics of `declared`, in its order.
    ///
    /// # Errors
    ///
    /// Names the first declared metric that has an invalid name, was never
    /// recorded or is not a finite number.
    pub fn select(&mut self, declared: &[(&str, &str)]) -> Result<(), String> {
        let mut kept = Vec::with_capacity(declared.len());
        for (name, _) in declared {
            if !is_valid_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            let metric = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !metric.2.is_finite() {
                return Err(format!("metric {name} is not finite: {}", metric.2));
            }
            kept.push(*metric);
        }
        self.metrics = kept;
        Ok(())
    }

    /// One human-readable line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit, value) in &self.metrics {
            let _ = writeln!(out, "{name:32} {value:>16.6} {unit}");
        }
        out
    }

    /// The single-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its full-precision value and unit.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgr_telemetry::json::{self, Value};

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.99), 100.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(sorted(&[2.0, -1.0, 0.5]), [-1.0, 0.5, 2.0]);
    }

    #[test]
    fn metric_names_are_checked() {
        for good in ["route_s", "dp.route_net_us.p50", "0x-1", "a"] {
            assert!(is_valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "slash/name",
            "é",
            long.as_str(),
        ] {
            assert!(!is_valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn declared_metrics_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for name in &all {
            assert!(is_valid_name(name), "{name}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "a metric name is declared twice");
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        for (key, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Value::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, declared, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn json_output_round_trips_through_the_parser() {
        let mut report = Report {
            attempted: 7,
            failed: 1,
            correct: false,
            ..Report::default()
        };
        report.set("route_s", 1.234_567_890_123);
        report.set("setup_s", 0.1 + 0.2);
        report.set("vias", 209_151.0);
        report.set("trace.overhead_frac", -0.012_5);
        report.set("gpu.modeled_s", -0.0);
        assert!(report
            .to_json()
            .contains("\"gpu.modeled_s\": {\"value\": 0,"));
        report
            .select(&[
                ("route_s", "s"),
                ("setup_s", "s"),
                ("vias", "count"),
                ("trace.overhead_frac", "frac"),
            ])
            .expect("all recorded");
        let line = report.to_json();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(7.0));
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(1.0));
        let metrics = doc.get("metrics").expect("metrics object");
        for (name, unit, value) in &report.metrics {
            let m = metrics.get(name).expect("metric present");
            assert_eq!(
                m.get("value").and_then(Value::as_f64),
                Some(*value),
                "{name}"
            );
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
        }
    }

    #[test]
    fn select_rejects_missing_and_non_finite_metrics() {
        let mut report = Report::default();
        report.set("route_s", 1.0);
        assert!(report
            .select(&[("route_s", "s"), ("setup_s", "s")])
            .is_err());
        report.set("setup_s", f64::NAN);
        assert!(report.select(&[("setup_s", "s")]).is_err());
    }
}
