//! Integration tests of the run-trace telemetry layer: the Chrome
//! `trace_event` export schema (in process and as the CLI writes it), the
//! golden deterministic signature, and counter invariance across worker
//! counts.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;
use std::sync::OnceLock;

use fastgr::core::{PatternEngine, Router, RouterConfig};
use fastgr::design::{Design, Generator, GeneratorParams};
use fastgr::gpu::DeviceConfig;
use fastgr::telemetry::json;
use fastgr::Recorder;
use proptest::prelude::*;

/// A deliberately overflowing design (capacity below demand around two
/// hotspots) so rip-up and reroute runs and every stage shows up in the
/// trace.
fn overflowing_design() -> Design {
    Generator::new(GeneratorParams {
        name: "trace-fixture".to_string(),
        width: 24,
        height: 24,
        layers: 5,
        num_nets: 360,
        capacity: 3.0,
        hotspots: 2,
        hotspot_affinity: 0.6,
        blockages: 2,
        seed: 5,
    })
    .generate()
}

/// FastGR_H with `workers` host workers in both the simulated device pool
/// and the RRR executor.
fn config_with_workers(workers: usize) -> RouterConfig {
    RouterConfig {
        workers,
        engine: PatternEngine::GpuFlow(DeviceConfig {
            host_workers: workers,
            ..DeviceConfig::rtx3090_like()
        }),
        ..RouterConfig::fastgr_h()
    }
}

fn traced_signature(workers: usize) -> String {
    let recorder = Recorder::enabled();
    let outcome = Router::new(config_with_workers(workers))
        .run_with_recorder(&overflowing_design(), &recorder)
        .expect("routable");
    outcome.trace.deterministic_signature()
}

/// Checks a Chrome `trace_event` export: valid JSON, the expected envelope,
/// well-formed events, kernel arguments, and balanced begin/end pairs per
/// track. Returns the event names and the number of kernel events.
fn assert_chrome_trace_schema(text: &str) -> (BTreeSet<String>, usize) {
    let root = json::parse(text).expect("emitted trace must be valid JSON");

    assert_eq!(
        root.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let events = root
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut names = BTreeSet::new();
    let mut kernel_complete = 0usize;
    let mut depth: BTreeMap<(String, String), i64> = BTreeMap::new();
    for event in events {
        let ph = event.get("ph").and_then(|v| v.as_str()).expect("phase");
        let name = event
            .get("name")
            .and_then(|v| v.as_str())
            .expect("name")
            .to_string();
        for field in ["pid", "tid", "ts"] {
            assert!(
                event.get(field).and_then(|v| v.as_f64()).is_some(),
                "event {name} lacks numeric {field}"
            );
        }
        let tid = event
            .get("tid")
            .and_then(|v| v.as_f64())
            .unwrap()
            .to_string();
        match ph {
            "X" => {
                assert!(
                    event.get("dur").and_then(|v| v.as_f64()).is_some(),
                    "complete event {name} lacks dur"
                );
                if event.get("cat").and_then(|v| v.as_str()) == Some("kernel") {
                    kernel_complete += 1;
                    let args = event.get("args").expect("kernel args");
                    assert!(args.get("blocks").and_then(|v| v.as_f64()).is_some());
                    assert!(args.get("modeled_us").and_then(|v| v.as_f64()).is_some());
                }
            }
            "B" => *depth.entry((tid, name.clone())).or_insert(0) += 1,
            "E" => *depth.entry((tid, name.clone())).or_insert(0) -= 1,
            "C" => assert!(event.get("args").is_some(), "counter {name} lacks args"),
            other => panic!("unexpected event phase {other:?} for {name}"),
        }
        names.insert(name);
    }
    for ((tid, name), d) in &depth {
        assert_eq!(*d, 0, "unbalanced begin/end for {name} on tid {tid}");
    }
    (names, kernel_complete)
}

#[test]
fn chrome_trace_json_matches_schema() {
    let recorder = Recorder::enabled();
    let outcome = Router::new(config_with_workers(2))
        .run_with_recorder(&overflowing_design(), &recorder)
        .expect("routable");
    let trace = &outcome.trace;
    let (names, kernel_complete) = assert_chrome_trace_schema(&trace.to_chrome_trace_json());
    // Every pipeline stage shows up as a span.
    assert!(names.contains("planning"), "{names:?}");
    assert!(names.contains("pattern"), "{names:?}");
    assert!(names.contains("rrr.iter0"), "{names:?}");
    // One complete-event per launched kernel.
    assert!(kernel_complete >= 1);
    assert_eq!(kernel_complete, trace.kernels().len());
}

/// The file `fastgr route --trace` writes passes the same schema check, on
/// a generated tiny design and on a suite design under the GPU-flow engine
/// and task-graph RRR.
#[test]
fn cli_written_traces_match_schema() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let fastgr = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_fastgr"))
            .args(args)
            .output()
            .expect("the fastgr binary runs");
        assert!(
            out.status.success(),
            "fastgr {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let tiny = format!("{dir}/trace_tiny.txt");
    fastgr(&["generate", "tiny", "--out", &tiny]);
    let suite: &[&str] = &["s18t5m", "--preset", "fastgr-l"];
    for (name, design) in [("tiny", &[tiny.as_str()][..]), ("s18t5m", suite)] {
        let trace = format!("{dir}/cli_trace_{name}.json");
        fastgr(&[&["route"], design, &["--trace", &trace]].concat());
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        let (names, _) = assert_chrome_trace_schema(&text);
        assert!(names.contains("pattern"), "{name}: {names:?}");
    }
}

/// Compares `signature` with the committed `tests/golden/{file}` (passed
/// in as `golden`), or rewrites that file when `TRACE_GOLDEN_REGEN` is set.
fn check_golden(signature: &str, file: &str, golden: &str) {
    if std::env::var_os("TRACE_GOLDEN_REGEN").is_some() {
        let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, signature).expect("write golden file");
        return;
    }
    assert_eq!(
        signature, golden,
        "the deterministic trace signature drifted from tests/golden/{file}; \
         if the routing behaviour change is intended, regenerate with \
         `TRACE_GOLDEN_REGEN=1 cargo test --test telemetry_trace` and \
         review the diff"
    );
}

#[test]
fn deterministic_signature_matches_golden_file() {
    let signature = traced_signature(2);
    // The incremental overflow detector must publish its counter pair into
    // the deterministic signature on every routed run.
    assert!(
        signature.contains("counter rrr.dirty_edges ="),
        "{signature}"
    );
    assert!(
        signature.contains("counter rrr.full_rescan_avoided ="),
        "{signature}"
    );
    check_golden(
        &signature,
        "trace_signature.txt",
        include_str!("golden/trace_signature.txt"),
    );
}

/// The CUGR baseline: per-net pattern commits (one prober refresh per net)
/// and batch-barrier RRR, a path the FastGR_H golden never exercises.
#[test]
fn cugr_signature_matches_golden_file() {
    let recorder = Recorder::enabled();
    let outcome = Router::new(RouterConfig::cugr())
        .run_with_recorder(&overflowing_design(), &recorder)
        .expect("routable");
    check_golden(
        &outcome.trace.deterministic_signature(),
        "trace_signature_cugr.txt",
        include_str!("golden/trace_signature_cugr.txt"),
    );
}

fn baseline_signature() -> &'static str {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| traced_signature(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Counter values, kernel blocks and rip-up counts are part of the
    /// determinism contract: only timestamps may vary with the worker
    /// count.
    #[test]
    fn counters_are_identical_across_worker_counts(workers in 2usize..=6) {
        prop_assert_eq!(traced_signature(workers), baseline_signature());
    }
}
