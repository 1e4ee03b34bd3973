//! The traced run: `Router::run` rebuilt from its public stages with a
//! recording telemetry sink, plus each layer's public functions timed
//! from here on the same design.

use std::collections::HashMap;
use std::hint::black_box;

use fastgr_core::{
    PatternDp, PatternEngine, PatternStage, RouteGuides, RouterConfig, RrrStage, RrrStrategy,
};
use fastgr_design::{Design, NetId};
use fastgr_gpu::HostPool;
use fastgr_grid::{CostProber, GridGraph, Rect, Route};
use fastgr_maze::{MazeConfig, MazeRouter, MazeScratch};
use fastgr_steiner::SteinerBuilder;
use fastgr_taskgraph::{extract_batches, ConflictGraph, Schedule};
use fastgr_telemetry::{Recorder, RunTrace, Stopwatch};

use crate::report::{median, quantile, sorted, Report};

/// Prober builds timed for `grid.prober_build_s` (median taken).
const PROBER_BUILDS: usize = 5;

/// The host pool the pattern stage uses for `engine` (the workloads use
/// the GPU-flow and sequential engines only).
pub fn pattern_pool(engine: PatternEngine) -> HostPool {
    match engine {
        PatternEngine::GpuFlow(device) => HostPool::resolved(device.host_workers),
        _ => HostPool::new(1),
    }
}

/// Threads the RRR stage runs maze tasks on.
pub fn rrr_threads(config: &RouterConfig) -> usize {
    match config.rrr_strategy {
        RrrStrategy::TaskGraph => std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(config.workers),
        _ => 1,
    }
}

/// What the traced pipeline routed.
pub struct Traced {
    /// Final routes.
    pub routes: Vec<Route>,
    /// Measured wall-clock of the pipeline (snapshotting excluded).
    pub wall_s: f64,
}

/// Runs the traced pipeline and every layer measurement, recording the
/// per-layer metrics into `report`.
///
/// # Errors
///
/// Describes a stage that returned an error.
pub fn run(design: &Design, config: &RouterConfig, report: &mut Report) -> Result<Traced, String> {
    let c = config;
    let recorder = Recorder::enabled();

    // --- The pipeline of `Router::run`, stage by stage. ---
    let wall = Stopwatch::start();
    let t = Stopwatch::start();
    let mut graph = design.build_graph(c.cost).map_err(|e| e.to_string())?;
    let grid_build_s = t.elapsed_seconds();
    let pattern = PatternStage {
        mode: c.pattern_mode,
        engine: c.engine,
        sorting: c.sorting,
        steiner_passes: c.steiner_passes,
        congestion_aware_planning: c.congestion_aware_planning,
        cost_probing: c.cost_probing,
        validate: c.validate,
    }
    .run_traced(design, &mut graph, &recorder)
    .map_err(|e| format!("pattern stage: {e}"))?;
    let mut routes = pattern.routes;
    let shorts_after = graph.report().shorts();

    // The state RRR starts from, kept for the maze replay; its copy time
    // is not part of the pipeline.
    let t = Stopwatch::start();
    let after_pattern = (graph.clone(), routes.clone());
    let snapshot_s = t.elapsed_seconds();

    let rrr_sorting = c.rrr_sorting.unwrap_or(c.sorting);
    let t = Stopwatch::start();
    let rrr = RrrStage {
        iterations: c.rrr_iterations,
        strategy: c.rrr_strategy,
        sorting: rrr_sorting,
        maze: c.maze,
        workers: c.workers,
        history_increment: c.history_increment,
        validate: c.validate,
    }
    .run_traced(design, &mut graph, &mut routes, &recorder)
    .map_err(|e| format!("rrr stage: {e}"))?;
    let rrr_stage_s = t.elapsed_seconds();
    let t = Stopwatch::start();
    let guides = RouteGuides::from_routes(design, &routes);
    let guides_s = t.elapsed_seconds();
    black_box(guides);
    let trace = recorder.take_trace();
    let wall_s = wall.elapsed_seconds() - snapshot_s;

    let span = |name: &str| -> f64 {
        trace
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_seconds)
            .sum()
    };
    let rrr_iters_s: f64 = trace
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("rrr.iter"))
        .map(|s| s.duration_seconds)
        .sum();
    let planning_s = span("planning");
    let pattern_s = span("pattern");
    let covered = grid_build_s + planning_s + pattern_s + rrr_iters_s + guides_s;
    let tasks_us = task_durations_us(&trace);
    let threads = rrr_threads(c);

    report.set("grid.build_s", grid_build_s);
    report.set("planning.stage_s", planning_s);
    report.set("pattern.stage_s", pattern_s);
    report.set("pattern.shorts_after", shorts_after);
    report.set("rrr.stage_s", rrr_stage_s);
    report.set("rrr.iter0_s", span("rrr.iter0"));
    report.set("guides.build_s", guides_s);
    report.set("trace.layer_coverage_frac", covered / wall_s);
    let counter = |name: &str| trace.counter(name).unwrap_or(0.0);
    report.set(
        "grid.prober_rows_rebuilt",
        counter("pattern.cost_cache_rows_rebuilt"),
    );
    report.set("grid.cost_probes", counter("pattern.cost_probes"));
    let kernels = trace.kernels();
    report.set("gpu.launches", kernels.len() as f64);
    report.set(
        "gpu.kernel_host_s",
        kernels.iter().map(|k| k.host_seconds).sum(),
    );
    report.set(
        "gpu.modeled_s",
        kernels.iter().map(|k| k.modeled_seconds).sum(),
    );
    let tasks_sorted = sorted(&tasks_us);
    report.set("rrr.task_us.p50", quantile(&tasks_sorted, 0.5));
    report.set("rrr.task_us.p99", quantile(&tasks_sorted, 0.99));
    let busy_s = tasks_us.iter().sum::<f64>() * 1e-6;
    report.set(
        "taskgraph.executor_busy_frac",
        if rrr_iters_s > 0.0 {
            busy_s / (threads as f64 * rrr_iters_s)
        } else {
            0.0
        },
    );
    report.set(
        "rrr.nets_ripped",
        rrr.nets_ripped.iter().sum::<usize>() as f64,
    );
    report.set("rrr.dirty_edges", rrr.dirty_edges as f64);
    report.set("rrr.rescans_avoided", rrr.rescans_avoided as f64);
    report.set("rrr.modeled_parallel_s", rrr.modeled_parallel_seconds);

    // --- Each layer's public functions, timed from here. ---
    let nets = design.nets();
    let pool = pattern_pool(c.engine);
    // No workload preset turns on congestion-aware planning, so the
    // builder needs no density map.
    let builder = SteinerBuilder::new().with_passes(c.steiner_passes);
    let t = Stopwatch::start();
    let trees = pool.map(nets.len(), |i| builder.build(&nets[i]));
    report.set("steiner.build_s", t.elapsed_seconds());

    let t = Stopwatch::start();
    let order = c.sorting.sorted_ids(nets);
    report.set("ordering.sort_s", t.elapsed_seconds());

    let boxes: Vec<Rect> = nets.iter().map(|n| n.bounding_box()).collect();
    let t = Stopwatch::start();
    let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
    report.set("taskgraph.conflict_graph_s", t.elapsed_seconds());
    report.set("taskgraph.conflict_edges", conflicts.edge_count() as f64);
    let t = Stopwatch::start();
    let batches = extract_batches(&order, &conflicts);
    report.set("taskgraph.extract_batches_s", t.elapsed_seconds());
    report.set("taskgraph.batches", batches.len() as f64);
    drop(conflicts);

    // Per-net pattern DP on a fresh grid and prober.
    let fresh = design.build_graph(c.cost).map_err(|e| e.to_string())?;
    let mut builds = Vec::with_capacity(PROBER_BUILDS);
    let mut prober = None;
    for _ in 0..PROBER_BUILDS {
        let t = Stopwatch::start();
        let built = CostProber::build_with_pool(&fresh, &pool);
        builds.push(t.elapsed_seconds());
        prober = Some(built);
    }
    report.set("grid.prober_build_s", median(&builds));
    let prober = prober.expect("at least one build");
    let dp = PatternDp::with_prober(&fresh, c.pattern_mode, &prober);
    let mut dp_us = Vec::with_capacity(order.len());
    for &id in &order {
        let t = Stopwatch::start();
        let result = dp.route_net(&trees[id as usize]);
        dp_us.push(t.elapsed_micros());
        black_box(result);
    }
    let dp_us = sorted(&dp_us);
    report.set("dp.route_net_us.p50", quantile(&dp_us, 0.5));
    report.set("dp.route_net_us.p99", quantile(&dp_us, 0.99));

    // RRR iteration 0's task graph, from the state after pattern routing.
    let (mut replay_graph, mut replay_routes) = after_pattern;
    let mut ripped: Vec<u32> = (0..nets.len() as u32)
        .filter(|&i| replay_graph.route_has_overflow(&replay_routes[i as usize]))
        .collect();
    rrr_sorting.sort_subset(&mut ripped, nets);
    let rrr_boxes: Vec<Rect> = ripped
        .iter()
        .map(|&id| {
            design
                .net(NetId(id))
                .bounding_box()
                .inflated(1, design.width(), design.height())
        })
        .collect();
    let t = Stopwatch::start();
    let rrr_conflicts = ConflictGraph::from_bounding_boxes(&rrr_boxes);
    report.set("taskgraph.rrr_conflict_graph_s", t.elapsed_seconds());
    let tasks: Vec<u32> = (0..ripped.len() as u32).collect();
    let t = Stopwatch::start();
    let schedule = Schedule::build(&tasks, &rrr_conflicts);
    report.set("taskgraph.schedule_build_s", t.elapsed_seconds());
    report.set("taskgraph.schedule_levels", schedule.levels().len() as f64);

    let fixed = ripped
        .iter()
        .filter(|&&id| !graph.route_has_overflow(&routes[id as usize]))
        .count();
    report.set(
        "rrr.fix_frac",
        if ripped.is_empty() {
            1.0
        } else {
            fixed as f64 / ripped.len() as f64
        },
    );

    replay_maze(
        design,
        c.maze,
        &mut replay_graph,
        &mut replay_routes,
        &ripped,
        report,
    )?;
    Ok(Traced { routes, wall_s })
}

/// Replays iteration 0's rip-up and reroute serially with
/// `MazeRouter::route_into`, timing each net, including the widened-window
/// retry the RRR stage makes when the first search finds no path.
fn replay_maze(
    design: &Design,
    maze: MazeConfig,
    graph: &mut GridGraph,
    routes: &mut [Route],
    ripped: &[u32],
    report: &mut Report,
) -> Result<(), String> {
    let router = MazeRouter::new(maze);
    let wide = MazeRouter::new(MazeConfig {
        window_margin: maze.window_margin.saturating_mul(2).max(8),
        ..maze
    });
    let mut scratch = MazeScratch::new();
    let mut pins = Vec::new();
    let mut out = Route::new();
    let (mut searches, mut retries) = (0u64, 0u64);
    let mut route_us = Vec::with_capacity(ripped.len());
    for &id in ripped {
        let old = &mut routes[id as usize];
        graph
            .uncommit(old)
            .map_err(|e| format!("maze replay uncommit: {e}"))?;
        design.net(NetId(id)).distinct_positions_into(&mut pins);
        let t = Stopwatch::start();
        searches += 1;
        let mut result = router.route_into(graph, &pins, &mut scratch, &mut out);
        if result.is_err() {
            searches += 1;
            retries += 1;
            result = wide.route_into(graph, &pins, &mut scratch, &mut out);
        }
        route_us.push(t.elapsed_micros());
        if result.is_ok() {
            std::mem::swap(old, &mut out);
        }
        graph
            .commit(old)
            .map_err(|e| format!("maze replay commit: {e}"))?;
    }
    let route_us = sorted(&route_us);
    report.set("maze.route_us.p50", quantile(&route_us, 0.5));
    report.set("maze.route_us.p99", quantile(&route_us, 0.99));
    report.set("maze.searches", searches as f64);
    report.set("maze.retries", retries as f64);
    Ok(())
}

/// Durations of the executor's task events, in microseconds: begin and end
/// markers are paired per worker track in report order.
fn task_durations_us(trace: &RunTrace) -> Vec<f64> {
    let mut open: HashMap<u32, f64> = HashMap::new();
    let mut out = Vec::new();
    for e in trace.events().iter().filter(|e| e.cat == "task") {
        if e.begin {
            open.insert(e.track, e.t_seconds);
        } else if let Some(start) = open.remove(&e.track) {
            out.push((e.t_seconds - start) * 1e6);
        }
    }
    out
}
