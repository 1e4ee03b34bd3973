//! `cargo xtask` — the workspace's correctness-check driver.
//!
//! Subcommands (see DESIGN.md §5):
//!
//! * `cargo xtask lint` — the `fastgr-analysis` workspace lint pass
//!   (forbid-unsafe everywhere, no hot-path `unwrap`/`expect`, zero-alloc
//!   DP bodies) against `lint-allow.txt`;
//! * `cargo xtask validate` — checks the bucketised conflict graph against
//!   the all-pairs oracle on real net boxes, builds schedules over the
//!   design-suite nets and proves them sound with the static validator,
//!   replays them under the happens-before race checker, and routes one
//!   design end to end with `RouterConfig::validate` on;
//! * `cargo xtask mutation` — corrupts real schedules (reversed conflict
//!   edge, merged conflicting batch, forced unordered execution) and
//!   demands the checkers reject every corruption;
//! * `cargo xtask validate-trace <trace.json>` — parses a Chrome
//!   `trace_event` file written by `fastgr route --trace` and checks the
//!   schema (event phases, required fields, begin/end balance);
//! * `cargo xtask check` — lint + lint-fixture + validate + mutation;
//!   what CI runs. The lint-fixture step seeds known-bad sources (a
//!   `wire_edge_cost` call in a DP kernel, an allocation in a prober
//!   rebuild body) and demands the lint rules reject them, so a rule
//!   that silently stops firing fails the build.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

use fastgr_analysis::{
    lint_file, lint_workspace, validate_batches, validate_schedule, validate_view, RaceChecker,
    Rules, ScheduleView, ValidationReport,
};
use fastgr_core::{Router, RouterConfig};
use fastgr_design::{BenchmarkSpec, Design, Generator, GeneratorParams};
use fastgr_grid::Rect;
use fastgr_maze::MazeConfig;
use fastgr_taskgraph::{extract_batches, ConflictGraph, Executor, Schedule};
use fastgr_telemetry::WorkerHooks;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("check");
    let ok = match cmd {
        "lint" => lint(),
        "validate" => validate(),
        "mutation" => mutation(),
        "validate-trace" => validate_trace(args.get(1).map(String::as_str)),
        "check" => {
            let mut ok = lint();
            ok &= lint_fixture();
            ok &= validate();
            ok &= mutation();
            ok
        }
        "help" | "--help" | "-h" => {
            println!("usage: cargo xtask [check|lint|validate|mutation|validate-trace FILE]");
            true
        }
        other => {
            eprintln!("xtask: unknown subcommand `{other}` (try `cargo xtask help`)");
            false
        }
    };
    if ok {
        println!("xtask {cmd}: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask {cmd}: FAILED");
        ExitCode::FAILURE
    }
}

/// The workspace root: xtask runs via `cargo xtask`, so the manifest dir of
/// this package *is* the root.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The nets every schedule-level check runs over: a few tiny seeds plus two
/// mid-size congested designs.
fn design_suite() -> Vec<Design> {
    let mut designs: Vec<Design> = [1u64, 7, 42]
        .iter()
        .map(|&s| Generator::tiny(s).generate())
        .collect();
    for (nets, seed) in [(200usize, 9u64), (400, 33)] {
        designs.push(
            Generator::new(GeneratorParams {
                name: format!("xtask-{nets}"),
                width: 32,
                height: 32,
                layers: 5,
                num_nets: nets,
                capacity: 4.0,
                hotspots: 3,
                hotspot_affinity: 0.4,
                blockages: 2,
                seed,
            })
            .generate(),
        );
    }
    designs
}

/// Conflict graph + identity order, as the pattern stage derives them.
fn conflicts_of(design: &Design) -> (ConflictGraph, Vec<u32>) {
    let bboxes = net_boxes(design);
    let order: Vec<u32> = (0..bboxes.len() as u32).collect();
    (ConflictGraph::from_bounding_boxes(&bboxes), order)
}

fn lint() -> bool {
    let report = lint_workspace(workspace_root());
    println!("lint: {report}");
    report.is_clean()
}

/// Seeded lint violations: known-bad sources the rules *must* flag. A rule
/// that rots (needle renamed, scope predicate broken) passes the clean
/// workspace silently; this step catches that by demanding rejection.
fn lint_fixture() -> bool {
    let mut ok = true;
    let mut case = |name: &str, src: &str, rel: &str, rules: Rules, want_rule: &str| {
        let mut report = ValidationReport::default();
        lint_file(src, rel, rules, &[], &mut [], &mut report);
        let fired = report.diagnostics.iter().any(|d| d.rule == want_rule);
        if fired {
            println!("lint-fixture {name}: rejected (good)");
        } else {
            eprintln!("lint-fixture {name}: NOT rejected — `{want_rule}` is blind");
            ok = false;
        }
    };
    case(
        "dp-direct-cost",
        "fn l_shape_into(&self) {\n    let w = params.wire_edge_cost(demand, cap);\n}\n",
        "crates/core/src/dp.rs",
        Rules {
            dp_direct: true,
            ..Rules::default()
        },
        "dp-direct-cost",
    );
    case(
        "prober-dp-alloc",
        "fn rebuild_wire_row_into(&self, row: usize) {\n    let v: Vec<u64> = Vec::new();\n}\n",
        "crates/grid/src/prober.rs",
        Rules {
            dp: true,
            ..Rules::default()
        },
        "dp-alloc",
    );
    ok
}

/// Checks a Chrome `trace_event` file as written by `fastgr route --trace`:
/// valid JSON, the expected envelope, well-formed events, and balanced
/// begin/end pairs per track.
fn validate_trace(path: Option<&str>) -> bool {
    let Some(path) = path else {
        eprintln!("usage: cargo xtask validate-trace <trace.json>");
        return false;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("validate-trace: cannot read {path}: {e}");
            return false;
        }
    };
    let root = match fastgr_telemetry::json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("validate-trace: {path} is not valid JSON: {e}");
            return false;
        }
    };

    let mut ok = true;
    let mut fail = |msg: String| {
        eprintln!("validate-trace: {msg}");
        ok = false;
    };
    if root.get("displayTimeUnit").and_then(|v| v.as_str()) != Some("ms") {
        fail("missing or wrong displayTimeUnit (expected \"ms\")".to_string());
    }
    let events = root
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .unwrap_or(&[]);
    if events.is_empty() {
        fail("traceEvents is missing or empty".to_string());
    }

    // Per-(tid, name) begin/end nesting depth; must balance out at zero.
    let mut open: std::collections::BTreeMap<(String, String), i64> =
        std::collections::BTreeMap::new();
    let (mut complete, mut counters, mut kernels) = (0usize, 0usize, 0usize);
    for (i, event) in events.iter().enumerate() {
        let ph = event.get("ph").and_then(|v| v.as_str()).unwrap_or("");
        let name = event.get("name").and_then(|v| v.as_str()).unwrap_or("");
        if name.is_empty() {
            fail(format!("event #{i} has no name"));
        }
        for field in ["pid", "tid", "ts"] {
            if event.get(field).and_then(|v| v.as_f64()).is_none() {
                fail(format!("event #{i} ({name}) lacks numeric `{field}`"));
            }
        }
        let tid = event
            .get("tid")
            .and_then(|v| v.as_f64())
            .unwrap_or(-1.0)
            .to_string();
        match ph {
            "X" => {
                complete += 1;
                if event.get("dur").and_then(|v| v.as_f64()).is_none() {
                    fail(format!("complete event #{i} ({name}) lacks numeric `dur`"));
                }
                if event.get("cat").and_then(|v| v.as_str()) == Some("kernel") {
                    kernels += 1;
                }
            }
            "B" => *open.entry((tid, name.to_string())).or_insert(0) += 1,
            "E" => *open.entry((tid, name.to_string())).or_insert(0) -= 1,
            "C" => {
                counters += 1;
                if event.get("args").is_none() {
                    fail(format!("counter event #{i} ({name}) lacks `args`"));
                }
            }
            other => fail(format!("event #{i} ({name}) has unknown phase {other:?}")),
        }
    }
    for ((tid, name), depth) in &open {
        if *depth != 0 {
            fail(format!(
                "unbalanced begin/end for `{name}` on tid {tid}: depth {depth}"
            ));
        }
    }
    println!(
        "validate-trace {path}: {} events ({complete} complete, {counters} counter, \
         {kernels} kernel)",
        events.len()
    );
    ok
}

/// Differential check: `ConflictGraph::from_bounding_boxes` must equal the
/// all-pairs `from_bounding_boxes_naive` oracle on every design-suite
/// design and on the full-size `s19t9m` nets, both plain and as the maze
/// windows the RRR stage builds its conflict boxes from.
fn conflict_oracle() -> bool {
    let mut cases: Vec<(String, Vec<Rect>)> = design_suite()
        .iter()
        .map(|d| (d.name().to_string(), net_boxes(d)))
        .collect();
    match BenchmarkSpec::find("s19t9m") {
        Some(spec) => {
            let design = spec.generate();
            let boxes = net_boxes(&design);
            let maze = MazeConfig::default();
            let windows = boxes
                .iter()
                .map(|&b| maze.window(b, design.width(), design.height()))
                .collect();
            cases.push(("s19t9m".to_string(), boxes));
            cases.push((format!("s19t9m inflated by {}", maze.window_margin), windows));
        }
        None => {
            eprintln!("conflict-oracle: suite benchmark s19t9m is missing");
            return false;
        }
    }
    let mut ok = true;
    for (name, boxes) in &cases {
        let graph = ConflictGraph::from_bounding_boxes(boxes);
        if graph == ConflictGraph::from_bounding_boxes_naive(boxes) {
            println!(
                "conflict-oracle {name}: {} boxes, {} edges, equal to all-pairs",
                boxes.len(),
                graph.edge_count()
            );
        } else {
            eprintln!("conflict-oracle {name}: bucketised graph differs from all-pairs");
            ok = false;
        }
    }
    ok
}

/// The nets' bounding boxes.
fn net_boxes(design: &Design) -> Vec<Rect> {
    design.nets().iter().map(|n| n.bounding_box()).collect()
}

fn validate() -> bool {
    let mut ok = conflict_oracle();
    for design in design_suite() {
        let (conflicts, order) = conflicts_of(&design);
        let schedule = Schedule::build(&order, &conflicts);

        let report = validate_schedule(&schedule, &conflicts);
        println!("validate {} schedule: {report}", design.name());
        ok &= report.is_clean();

        let batches = extract_batches(&order, &conflicts);
        let report = validate_batches(&batches, &conflicts);
        println!("validate {} batches: {report}", design.name());
        ok &= report.is_clean();

        let checker = RaceChecker::new(schedule.task_count());
        Executor::new(4).run(&schedule, |_t| {}, &checker);
        let report = checker.report(&conflicts);
        println!("validate {} execution: {report}", design.name());
        ok &= report.is_clean();
    }

    // One end-to-end routing run with the inline validator armed: panics
    // (and fails the task) if any stage builds an unsound schedule.
    let design = Generator::tiny(4).generate();
    let config = RouterConfig {
        validate: true,
        ..RouterConfig::fastgr_l()
    };
    match Router::new(config).run(&design) {
        Ok(outcome) => println!(
            "validate end-to-end: {} nets routed, score {:.1}",
            outcome.routes.len(),
            outcome.metrics.score()
        ),
        Err(e) => {
            eprintln!("validate end-to-end: routing failed: {e}");
            ok = false;
        }
    }
    ok
}

/// Runs one mutation case: `mutate` corrupts something derived from the
/// design and returns whether the corruption was *rejected*.
fn mutation_case(name: &str, rejected: bool, ok: &mut bool) {
    if rejected {
        println!("mutation {name}: rejected (good)");
    } else {
        eprintln!("mutation {name}: NOT rejected — checker is blind to this corruption");
        *ok = false;
    }
}

fn mutation() -> bool {
    let mut ok = true;
    for design in design_suite() {
        let (conflicts, order) = conflicts_of(&design);
        let schedule = Schedule::build(&order, &conflicts);
        let name = design.name();
        let first_edge = schedule.edges().next();

        // 1. Reverse one oriented conflict edge.
        if let Some((a, b)) = first_edge {
            let mut view = ScheduleView::from_schedule(&schedule);
            view.reverse_edge(a, b);
            mutation_case(
                &format!("{name} reversed-edge {a}->{b}"),
                !validate_view(&view, &conflicts).is_clean(),
                &mut ok,
            );
        } else {
            eprintln!("mutation {name}: no conflict edges to mutate");
            ok = false;
        }

        // 2. Drop one dependency edge (the conflict goes unoriented and the
        //    two frontiers merge).
        if let Some((a, b)) = first_edge {
            let mut view = ScheduleView::from_schedule(&schedule);
            view.drop_edge(a, b);
            mutation_case(
                &format!("{name} dropped-edge {a}->{b}"),
                !validate_view(&view, &conflicts).is_clean(),
                &mut ok,
            );
        }

        // 3. Merge two conflicting batches (the root batch is maximal, so
        //    merging any later batch into it must violate independence).
        let mut batches = extract_batches(&order, &conflicts);
        if batches.len() >= 2 {
            let merged = batches.remove(1);
            batches[0].extend(merged);
            mutation_case(
                &format!("{name} merged-batches"),
                !validate_batches(&batches, &conflicts).is_clean(),
                &mut ok,
            );
        } else {
            eprintln!("mutation {name}: fewer than two batches");
            ok = false;
        }

        // 4. Force an unordered execution of two conflicting tasks.
        if let Some((a, b)) = first_edge {
            let checker = RaceChecker::new(schedule.task_count());
            for t in 0..schedule.task_count() as u32 {
                if t == a || t == b {
                    continue;
                }
                checker.on_start(t as usize, 0);
                checker.on_finish(t as usize, 0);
            }
            checker.on_start(a as usize, 1);
            checker.on_finish(a as usize, 1);
            checker.on_start(b as usize, 2);
            checker.on_finish(b as usize, 2);
            mutation_case(
                &format!("{name} unordered-race {a}/{b}"),
                !checker.report(&conflicts).is_clean(),
                &mut ok,
            );
        }
    }
    ok
}
