//! Parallel rip-up-and-reroute iterations (paper Section III-G).
//!
//! After pattern routing, only the nets whose routes overflow some edge are
//! re-routed, with full 3-D maze routing. FastGR treats every such net as
//! one task, schedules the task conflict graph with the two-stage scheduler
//! and executes it with the Taskflow-substitute executor; the baseline
//! instead uses the widely adopted *batch-based* parallelisation (route a
//! conflict-free batch, barrier, next batch).
//!
//! Tasks share the grid through `&GridGraph`: commits and uncommits go
//! through the lock-free atomic congestion store
//! ([`GridGraph::commit`]). Each task's box is its maze search window
//! ([`MazeConfig::window`] of the net bounding box) grown to cover the old
//! route it rips up; two tasks conflict when their boxes overlap. The
//! schedule fixes one order for each conflicting pair: the task graph
//! runs the root batch first and every other pair in task order, and the
//! batch barrier runs batch by batch. A task reads and writes costs only
//! inside its box, so concurrent tasks never observe each other's commits
//! and every thread count reproduces the serial run of the schedule's
//! order. The rare widened-window retries fall outside the schedule and
//! run as a serial tail after it. Each executor worker routes through a
//! [`MazeScratch`] that the stage owns, one per worker, making the
//! steady-state search loop allocation-free, and overflow detection is
//! incremental: only routes crossing edges whose demand changed during an
//! iteration are rechecked.
//!
//! On this container the executor runs with however many CPUs exist; in
//! addition to measured wall time, each strategy reports a *modelled*
//! parallel runtime from the measured per-task costs (list scheduling on
//! `workers` workers for the task graph; per-batch makespans for the
//! barrier strategy), which is what Table VIII's MAZE columns compare.

use std::sync::{Mutex, MutexGuard, PoisonError};

use fastgr_design::Design;
use fastgr_gpu::HostPool;
use fastgr_grid::{GridGraph, Point2, Rect, Route};
use fastgr_maze::{MazeConfig, MazeRouter, MazeScratch, MazeStats};
use fastgr_taskgraph::{first_fit_batches, ConflictGraph, Executor, Schedule};
use fastgr_telemetry::{Recorder, Stopwatch, TraceHooks};

use crate::error::RouteError;
use crate::ordering::SortingScheme;

/// Parallelisation strategy for the rip-up-and-reroute iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RrrStrategy {
    /// FastGR's heterogeneous task graph scheduler + Taskflow-style
    /// executor: a net runs as soon as its conflicting predecessors finish.
    TaskGraph,
    /// The widely adopted batch-based strategy: conflict-free batches with
    /// a barrier between batches (the paper's CPU baseline).
    BatchBarrier,
}

/// Outcome of the rip-up-and-reroute stage.
#[derive(Debug, Clone, PartialEq)]
pub struct RrrOutcome {
    /// Number of nets ripped up in each iteration.
    pub nets_ripped: Vec<usize>,
    /// Modelled parallel seconds on `workers` workers under this strategy.
    ///
    /// The model list-schedules (or, for the batch barrier, chunks) the
    /// *measured* wall seconds of each maze task, so unlike the device
    /// model's seconds it moves with host load and is not reproducible
    /// bit for bit.
    pub modeled_parallel_seconds: f64,
    /// Total wire edges whose demand changed, summed over iterations (the
    /// size of the incremental overflow recheck's work set).
    pub dirty_edges: u64,
    /// Routes whose cached overflow flag the incremental overflow detector
    /// kept, summed over iterations: each skipped a `route_has_overflow`
    /// call. This is not a saved route walk — `route_touches_dirty` walks
    /// every unit edge of every clean route to decide, so the detector
    /// still walks each route once per iteration; it only trades the
    /// overflow test per edge for a dirty-bit test.
    pub rescans_avoided: u64,
}

/// The rip-up-and-reroute stage.
#[derive(Debug, Clone, Copy)]
pub struct RrrStage {
    /// Number of rip-up-and-reroute iterations (the paper uses 3).
    pub iterations: usize,
    /// Parallelisation strategy.
    pub strategy: RrrStrategy,
    /// Net ordering scheme applied to the violating nets.
    pub sorting: SortingScheme,
    /// Maze router configuration.
    pub maze: MazeConfig,
    /// Worker count for execution and for the parallel-time model. `0`
    /// means auto: the `FASTGR_WORKERS` environment variable if set, else
    /// the machine's available parallelism (see [`HostPool::resolve`]).
    pub workers: usize,
    /// Negotiation-style history cost added to every still-overflowing
    /// wire edge after each iteration (0 disables — the paper-faithful
    /// configuration; positive values enable NTHU-Route/Archer-style
    /// negotiated congestion, an extension beyond the paper).
    pub history_increment: f64,
    /// Debug-assert-style soundness checking: when set, every schedule the
    /// stage builds is verified with the `fastgr-analysis` static
    /// validator, task-graph executions run under the vector-clock
    /// happens-before race checker, batch-barrier batches are checked
    /// for independence, and after every iteration each cached overflow
    /// flag is compared with a full `route_has_overflow` rescan. On entry
    /// and after every iteration the grid's cached edge costs are compared
    /// with a recomputation ([`GridGraph::stale_cost_cells`]).
    /// Violations panic with structured diagnostics.
    pub validate: bool,
}

/// Synchronisation cost of one batch barrier (thread wake-up + join across
/// the worker pool; a conventional value for an 8-thread pthread barrier).
const BARRIER_SYNC_SECONDS: f64 = 50e-6;

/// Per-task result slot shared with the executor.
///
/// Before dispatch the slot is *staged* with the net's current route
/// (moved out of the route table, not cloned); the task takes it, rips it
/// up, and stores back either the new route (success) or the old one
/// (rollback on failure). These slot mutexes are the only locks in the RRR
/// stage — the congestion store itself is lock-free.
#[derive(Debug, Default)]
struct TaskSlot {
    seconds: f64,
    route: Route,
    error: Option<RouteError>,
    maze: MazeStats,
}

/// Per-worker routing state: maze scratch, pin buffer and output route.
///
/// The stage owns one instance per executor worker for all its
/// iterations, so the steady-state task body performs zero heap
/// allocation: pins are collected into a reused buffer, the search runs
/// through the reused [`MazeScratch`], and route buffers are recycled by
/// swapping the ripped route's storage into the scratch output slot.
#[derive(Debug, Default)]
struct RrrScratch {
    maze: MazeScratch,
    pins: Vec<Point2>,
    out: Route,
}

/// Locks a task slot or a worker's scratch. A task that panics is
/// re-raised by the executor and aborts the stage, so a poisoned lock is
/// recovered rather than propagated.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl RrrStage {
    /// Runs the iterations, mutating `graph` demand and `routes` in place.
    ///
    /// A net whose search finds no path, in its window or the widened one,
    /// keeps its previous route and counts toward the `rrr.unrouted` trace
    /// counter; the stage goes on with the other nets.
    ///
    /// # Errors
    ///
    /// Propagates grid commit and uncommit failures; on error the grid
    /// state remains consistent (the failing net keeps its previous route).
    pub fn run(
        &self,
        design: &Design,
        graph: &mut GridGraph,
        routes: &mut [Route],
    ) -> Result<RrrOutcome, RouteError> {
        self.run_traced(design, graph, routes, &Recorder::disabled())
    }

    /// [`RrrStage::run`] reporting into a telemetry recorder. At its end
    /// the stage records its counters once, zeros included:
    /// `rrr.iterations`, `rrr.iterN.nets_ripped` per iteration, the totals
    /// `rrr.dirty_edges`, `rrr.full_rescan_avoided` and `rrr.unrouted`,
    /// and the maze work of every search, widened retries included
    /// (`maze.searches`, `maze.pops`, `maze.pushes`, `maze.relaxed`). An
    /// enabled recorder also gets one `rrr.iterN` span and one sample each
    /// of `rrr.nets_ripped`, `rrr.dirty_edges`, `rrr.full_rescan_avoided`
    /// and `rrr.modeled_parallel_s` per iteration, plus per-task events
    /// from the executor (task-graph strategy).
    pub fn run_traced(
        &self,
        design: &Design,
        graph: &mut GridGraph,
        routes: &mut [Route],
        recorder: &Recorder,
    ) -> Result<RrrOutcome, RouteError> {
        assert_eq!(routes.len(), design.nets().len(), "one route slot per net");
        let workers = HostPool::resolve(self.workers);
        let mut nets_ripped = Vec::new();
        let mut modeled = 0.0;
        let mut total_dirty = 0u64;
        let mut total_avoided = 0u64;
        let mut maze = MazeStats::default();
        let mut unrouted = 0u64;

        let router = MazeRouter::new(self.maze);
        // A cramped window (heavy blockages) can leave no path; such tasks
        // retry once through this widened router, serially after the
        // iteration's schedule has run.
        let wide_router = MazeRouter::new(self.maze.widened());

        // Execute with the host pool's worker count (`FASTGR_WORKERS`, else
        // the machine's cores): oversubscription would inflate the per-task
        // costs the parallel-time model consumes, and `workers`
        // parameterises the *model* only. Each executor worker routes
        // through its own scratch, so every lock on one is uncontended; the
        // batch barrier and the widened-retry tail run serially on scratch 0.
        let threads = HostPool::resolve(0).min(workers);
        let scratches: Vec<Mutex<RrrScratch>> = (0..threads).map(|_| Mutex::default()).collect();

        if self.validate {
            assert_cost_cache_exact(graph, "rrr entry");
        }

        // Per-net overflow flags: one full scan up front, then maintained
        // incrementally from the dirty-edge set (replacing the
        // O(nets x route-length) rescan at the top of every iteration).
        let mut overflow: Vec<bool> = routes.iter().map(|r| graph.route_has_overflow(r)).collect();

        for iteration in 0..self.iterations {
            // The violating nets, from the cached overflow flags.
            let mut violating: Vec<u32> = (0..routes.len() as u32)
                .filter(|&i| overflow[i as usize])
                .collect();
            if violating.is_empty() {
                break;
            }
            let iter_span = recorder.span_indexed("rrr.iter", iteration, "stage");
            self.sorting.sort_subset(&mut violating, design.nets());
            recorder.counter_sample("rrr.nets_ripped", violating.len() as f64);
            nets_ripped.push(violating.len());

            // Task boxes. Tasks whose boxes overlap run in the order the
            // schedule fixes (root batch first, else task order; or batch
            // by batch), and a task reads and writes costs only inside its
            // box, so every task sees the state of the serial run in that
            // order whatever the thread count.
            let bboxes: Vec<Rect> = violating
                .iter()
                .map(|&id| self.task_box(design, id, &routes[id as usize]))
                .collect();
            let order: Vec<u32> = (0..violating.len() as u32).collect();

            // Stage each task's current route into its slot by moving it
            // out of the route table — no per-task clone; the task owns
            // the buffers until it stores a result back.
            let slots: Vec<Mutex<TaskSlot>> = violating
                .iter()
                .map(|&net_id| {
                    Mutex::new(TaskSlot {
                        route: std::mem::take(&mut routes[net_id as usize]),
                        ..TaskSlot::default()
                    })
                })
                .collect();

            // Start a fresh dirty-edge set for this iteration's updates.
            graph.clear_dirty();

            // The task body: rip up, reroute through `router`, commit —
            // identical across strategies; only the scheduling differs.
            // Commits and uncommits go straight to the lock-free congestion
            // store. A failed search restores the old route and leaves the
            // error in the slot, as does a failed commit or uncommit.
            let run_task = |task: u32, router: &MazeRouter, scratch: &mut RrrScratch| {
                let t0 = Stopwatch::start();
                let net_id = violating[task as usize];
                let net = design.net(fastgr_design::NetId(net_id));
                let mut old = {
                    let mut slot = lock(&slots[task as usize]);
                    std::mem::take(&mut slot.route)
                };
                if let Err(e) = graph.uncommit(&old) {
                    let mut slot = lock(&slots[task as usize]);
                    slot.route = old;
                    slot.error = Some(e.into());
                    slot.seconds = t0.elapsed_seconds();
                    return;
                }
                net.distinct_positions_into(&mut scratch.pins);
                let result =
                    router.route_into(graph, &scratch.pins, &mut scratch.maze, &mut scratch.out);
                let mut slot = lock(&slots[task as usize]);
                slot.maze += scratch.maze.stats();
                // On success, swap the new geometry out of the scratch (the
                // ripped route's buffers become the scratch's output storage
                // for the next task); on failure, keep the old route so the
                // state stays sound. Either way, commit what the slot will
                // hold.
                let search_error = match result {
                    Ok(_) => {
                        std::mem::swap(&mut scratch.out, &mut old);
                        None
                    }
                    Err(e) => Some(RouteError::Maze(e)),
                };
                slot.error = match graph.commit(&old) {
                    Ok(()) => search_error,
                    Err(e) => Some(e.into()),
                };
                slot.route = old;
                slot.seconds = t0.elapsed_seconds();
            };

            let iter_modeled = match self.strategy {
                RrrStrategy::TaskGraph => {
                    let conflicts = ConflictGraph::from_bounding_boxes(&bboxes);
                    let schedule = Schedule::build(&order, &conflicts);
                    if self.validate {
                        fastgr_analysis::validate_schedule(&schedule, &conflicts)
                            .assert_clean("rrr task-graph schedule");
                    }
                    // Race checking (when validating) and telemetry observe
                    // the same execution.
                    let hooks = (
                        self.validate
                            .then(|| fastgr_analysis::RaceChecker::new(schedule.task_count())),
                        TraceHooks::new(recorder, "task", "task"),
                    );
                    Executor::new(threads).run(
                        &schedule,
                        |task, worker| run_task(task, &router, &mut lock(&scratches[worker])),
                        &hooks,
                    );
                    if let Some(checker) = &hooks.0 {
                        checker
                            .report(&conflicts)
                            .assert_clean("rrr task-graph execution");
                    }
                    let costs: Vec<f64> = slots.iter().map(|s| lock(s).seconds).collect();
                    schedule.simulate_workers(&costs, workers)
                }
                RrrStrategy::BatchBarrier => {
                    let batches =
                        first_fit_batches(&order, &bboxes, design.width(), design.height());
                    if self.validate {
                        let conflicts = ConflictGraph::from_bounding_boxes(&bboxes);
                        fastgr_analysis::validate_batches(&batches, &conflicts)
                            .assert_clean("rrr batch extraction");
                    }
                    let scratch = &mut *lock(&scratches[0]);
                    let mut makespan = 0.0;
                    for batch in &batches {
                        for &task in batch {
                            run_task(task, &router, scratch);
                        }
                        // Barrier model: a static-chunked parallel-for (the
                        // conventional batch implementation) — worker j takes
                        // the j-th contiguous chunk, the batch lasts as long
                        // as its slowest worker, and every barrier pays a
                        // fixed synchronisation cost.
                        let costs: Vec<f64> = batch
                            .iter()
                            .map(|&t| lock(&slots[t as usize]).seconds)
                            .collect();
                        let chunk = costs.len().div_ceil(workers).max(1);
                        let slowest = costs
                            .chunks(chunk)
                            .map(|ch| ch.iter().sum::<f64>())
                            .fold(0.0f64, f64::max);
                        makespan += slowest + BARRIER_SYNC_SECONDS;
                    }
                    makespan
                }
            };
            // Widened retries of failed searches run as one serial tail in
            // task order, after the schedule: their wider windows are not
            // in the task boxes, so they must not run beside other tasks.
            let mut tail_seconds = 0.0;
            let scratch = &mut *lock(&scratches[0]);
            for task in 0..violating.len() as u32 {
                if matches!(lock(&slots[task as usize]).error, Some(RouteError::Maze(_))) {
                    run_task(task, &wide_router, scratch);
                    tail_seconds += lock(&slots[task as usize]).seconds;
                }
            }
            let iter_modeled = iter_modeled + tail_seconds;
            modeled += iter_modeled;
            recorder.counter_sample("rrr.modeled_parallel_s", iter_modeled);

            // Collect results. Every slot's route is moved back into the
            // route table *before* the first error (if any) is surfaced, so
            // `routes` always matches the grid's committed demand. A net
            // whose widened retry also found no path keeps its old route,
            // already recommitted, and counts as unrouted.
            let mut first_error = None;
            for (task, slot) in slots.iter().enumerate() {
                let mut slot = lock(slot);
                routes[violating[task] as usize] = std::mem::take(&mut slot.route);
                maze += slot.maze;
                match slot.error.take() {
                    Some(RouteError::Maze(_)) => unrouted += 1,
                    Some(e) if first_error.is_none() => first_error = Some(e),
                    _ => {}
                }
            }
            if let Some(e) = first_error {
                return Err(e);
            }

            // Incremental overflow maintenance: only routes crossing an
            // edge whose demand changed this iteration can have changed
            // status. Rerouted nets always qualify — their commits dirty
            // their own edges — so no change is ever missed.
            let dirty = graph.dirty_edges();
            let mut avoided = 0u64;
            for (i, r) in routes.iter().enumerate() {
                if graph.route_touches_dirty(r) {
                    overflow[i] = graph.route_has_overflow(r);
                } else {
                    avoided += 1;
                }
            }
            total_dirty += dirty;
            total_avoided += avoided;
            recorder.counter_sample("rrr.dirty_edges", dirty as f64);
            recorder.counter_sample("rrr.full_rescan_avoided", avoided as f64);

            // Negotiation round: edges still overflowing accrue history so
            // the next iteration's searches learn to avoid them. (History
            // changes costs, not demand-vs-capacity, so the cached overflow
            // flags stay valid.)
            if self.history_increment > 0.0 {
                graph.add_history_on_overflow(self.history_increment);
            }
            if self.validate {
                for (i, r) in routes.iter().enumerate() {
                    assert_eq!(
                        overflow[i],
                        graph.route_has_overflow(r),
                        "rrr iteration {iteration}: cached overflow flag of net {i} is stale"
                    );
                }
                assert_cost_cache_exact(graph, &format!("rrr iteration {iteration}"));
            }
            iter_span.finish();
        }
        recorder.accumulate("rrr.iterations", nets_ripped.len() as f64);
        for (i, &n) in nets_ripped.iter().enumerate() {
            recorder.accumulate(&format!("rrr.iter{i}.nets_ripped"), n as f64);
        }
        recorder.accumulate("rrr.dirty_edges", total_dirty as f64);
        recorder.accumulate("rrr.full_rescan_avoided", total_avoided as f64);
        recorder.accumulate("rrr.unrouted", unrouted as f64);
        recorder.accumulate("maze.searches", maze.searches as f64);
        recorder.accumulate("maze.pops", maze.expanded as f64);
        recorder.accumulate("maze.pushes", maze.pushes as f64);
        recorder.accumulate("maze.relaxed", maze.relaxed as f64);

        Ok(RrrOutcome {
            nets_ripped,
            modeled_parallel_seconds: modeled,
            dirty_edges: total_dirty,
            rescans_avoided: total_avoided,
        })
    }

    /// The region a task for net `net` reads and writes: its maze window,
    /// grown to cover `staged`, the old route it rips up. A route left by
    /// a widened retry can lie outside the window, and its uncommit must
    /// not run beside a task whose window it crosses.
    fn task_box(&self, design: &Design, net: u32, staged: &Route) -> Rect {
        let bbox = design.net(fastgr_design::NetId(net)).bounding_box();
        let mut area = self.maze.window(bbox, design.width(), design.height());
        for s in staged.segments() {
            area.expand_to(s.from);
            area.expand_to(s.to);
        }
        for v in staged.vias() {
            area.expand_to(v.at);
        }
        area
    }
}

/// Panics unless every cached edge cost of `graph` equals a recomputation.
fn assert_cost_cache_exact(graph: &GridGraph, when: &str) {
    assert_eq!(
        graph.stale_cost_cells(),
        0,
        "{when}: cached edge costs disagree with the cost model"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::PatternMode;
    use crate::pattern::{PatternEngine, PatternStage};
    use fastgr_design::{Generator, GeneratorParams};
    use fastgr_grid::{CostParams, Direction, Segment, Via};

    /// Witness of the root `clippy.toml` ban on `std::sync::RwLock`: if the
    /// ban's path stops resolving, this expectation goes unfulfilled and
    /// `cargo clippy -- -D warnings` fails.
    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "names the banned lock to keep the ban live"
    )]
    fn rwlock_ban_is_live() {
        let lock = std::sync::RwLock::new(0u8);
        assert_eq!(lock.into_inner().ok(), Some(0));
    }

    /// A congested design: low capacity forces pattern-stage overflow.
    fn congested() -> (fastgr_design::Design, GridGraph, Vec<Route>) {
        let design = Generator::new(GeneratorParams {
            name: "congested".into(),
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
        .generate();
        let mut graph = design.build_graph(CostParams::default()).expect("valid");
        let stage = PatternStage {
            mode: PatternMode::LShape,
            engine: PatternEngine::SequentialCpu,
            sorting: SortingScheme::HpwlAscending,
            steiner_passes: 4,
            congestion_aware_planning: false,
            cost_probing: true,
            validate: true,
        };
        let outcome = stage.run(&design, &mut graph).expect("routable");
        (design, graph, outcome.routes)
    }

    fn stage(strategy: RrrStrategy) -> RrrStage {
        RrrStage {
            iterations: 3,
            strategy,
            sorting: SortingScheme::HpwlAscending,
            maze: MazeConfig::default(),
            workers: 4,
            history_increment: 0.0,
            validate: true,
        }
    }

    #[test]
    fn staged_route_outside_its_window_conflicts() {
        let (design, _, routes) = congested();
        let s = stage(RrrStrategy::TaskGraph);
        let nets = design.nets();
        let window = |id: usize| {
            s.maze
                .window(nets[id].bounding_box(), design.width(), design.height())
        };
        // Two nets whose windows are disjoint.
        let (a, b) = (0..nets.len())
            .flat_map(|a| (a + 1..nets.len()).map(move |b| (a, b)))
            .find(|&(a, b)| !window(a).intersects(&window(b)))
            .expect("a disjoint pair");
        // Hand-place a route for `a`, as a widened retry could leave it,
        // that runs from its first pin into the middle of `b`'s window.
        let from = nets[a].pins()[0].position;
        let wb = window(b);
        let to = Point2::new((wb.lo.x + wb.hi.x) / 2, (wb.lo.y + wb.hi.y) / 2);
        let corner = Point2::new(to.x, from.y);
        let mut far = Route::new();
        far.push_via(Via::new(from, 0, 1));
        far.push_segment(Segment::new(1, from, corner));
        far.push_via(Via::new(corner, 1, 2));
        far.push_segment(Segment::new(2, corner, to));
        assert!(far.is_connected());

        let boxes = [
            s.task_box(&design, a as u32, &far),
            s.task_box(&design, b as u32, &routes[b]),
        ];
        assert!(boxes[0].contains(to));
        assert!(ConflictGraph::from_bounding_boxes(&boxes).conflicts(0, 1));
        // Without the staged route, the two tasks would not conflict.
        let windows_only = [
            s.task_box(&design, a as u32, &Route::new()),
            s.task_box(&design, b as u32, &Route::new()),
        ];
        assert!(!ConflictGraph::from_bounding_boxes(&windows_only).conflicts(0, 1));
    }

    #[test]
    fn grid_errors_surface_through_the_task_slot() {
        let (design, mut graph, mut routes) = congested();
        let net = (0..routes.len())
            .find(|&i| graph.route_has_overflow(&routes[i]))
            .expect("an overflowing net");
        // An off-grid via makes the rip-up fail.
        routes[net].push_via(Via::new(Point2::new(999, 999), 1, 2));
        let result = stage(RrrStrategy::TaskGraph).run(&design, &mut graph, &mut routes);
        assert!(matches!(result, Err(RouteError::Grid(_))), "{result:?}");
        assert_eq!(routes[net].vias().last().map(|v| v.at.x), Some(999));
    }

    #[test]
    fn unroutable_nets_keep_their_old_routes() {
        let (design, mut graph, mut routes) = congested();
        // No vertical wire can be placed any more, so every net that needs
        // one finds no path, in its window or the widened one.
        for l in 1..graph.num_layers() {
            if graph.layer(l).direction == Direction::Vertical {
                graph.set_layer_capacity(l, 0.0);
            }
        }
        let recorder = Recorder::enabled();
        stage(RrrStrategy::TaskGraph)
            .run_traced(&design, &mut graph, &mut routes, &recorder)
            .expect("unroutable nets do not abort the stage");
        let unrouted = recorder.take_trace().counter("rrr.unrouted");
        assert!(unrouted > Some(0.0), "{unrouted:?}");
        for (id, r) in routes.iter().enumerate() {
            assert!(r.is_connected(), "net {id} lost its route");
        }
        for r in &routes {
            graph.uncommit(r).expect("consistent");
        }
        let report = graph.report();
        assert_eq!(report.total_wire_demand, 0.0, "leaked wire demand");
        assert_eq!(report.total_via_demand, 0.0, "leaked via demand");
    }

    #[test]
    fn rrr_reduces_overflow() {
        let (design, mut graph, mut routes) = congested();
        let before = graph.report().overflow;
        assert!(before > 0.0, "test design must start congested");
        let outcome = stage(RrrStrategy::TaskGraph)
            .run(&design, &mut graph, &mut routes)
            .expect("ok");
        assert!(!outcome.nets_ripped.is_empty());
        let after = graph.report().overflow;
        assert!(after < before, "overflow must shrink: {before} -> {after}");
    }

    #[test]
    fn all_strategies_keep_demand_consistent() {
        // Every strategy commits/uncommits through the atomic path; this
        // asserts the fixed-point ledger stays exact under both schedules
        // at every worker count.
        for strategy in [RrrStrategy::TaskGraph, RrrStrategy::BatchBarrier] {
            for workers in [1usize, 2, 4, 8] {
                let (design, mut graph, mut routes) = congested();
                let mut s = stage(strategy);
                s.workers = workers;
                s.run(&design, &mut graph, &mut routes).expect("ok");
                // Total demand equals the demand of the stored routes:
                // uncommit everything and the grid must be empty.
                for r in &routes {
                    graph.uncommit(r).expect("consistent");
                }
                let report = graph.report();
                assert_eq!(
                    report.total_wire_demand, 0.0,
                    "{strategy:?} leaked wire demand at workers={workers}"
                );
                assert_eq!(
                    report.total_via_demand, 0.0,
                    "{strategy:?} leaked via demand at workers={workers}"
                );
            }
        }
    }

    #[test]
    fn strategies_rip_the_same_first_iteration() {
        let (design, mut g1, mut r1) = congested();
        let (_, mut g2, mut r2) = congested();
        let a = stage(RrrStrategy::TaskGraph)
            .run(&design, &mut g1, &mut r1)
            .expect("ok");
        let b = stage(RrrStrategy::BatchBarrier)
            .run(&design, &mut g2, &mut r2)
            .expect("ok");
        // The first iteration sees identical input state.
        assert_eq!(a.nets_ripped[0], b.nets_ripped[0]);
    }

    #[test]
    fn batch_barrier_worker_count_cannot_change_routes() {
        // `workers` only parameterises the parallel-time model; the
        // batch-barrier strategy reroutes serially (it models the
        // barriers), so the routed geometry must be byte-identical for any
        // worker count.
        let mut baseline: Option<Vec<Route>> = None;
        for workers in [1usize, 2, 4, 8] {
            let (design, mut graph, mut routes) = congested();
            let mut s = stage(RrrStrategy::BatchBarrier);
            s.workers = workers;
            s.run(&design, &mut graph, &mut routes).expect("ok");
            match &baseline {
                None => baseline = Some(routes),
                Some(b) => assert_eq!(
                    &routes, b,
                    "batch-barrier routes differ at workers={workers}"
                ),
            }
        }
    }

    #[test]
    fn parallel_strategies_rip_counts_are_worker_invariant() {
        for strategy in [RrrStrategy::TaskGraph, RrrStrategy::BatchBarrier] {
            let mut baseline: Option<Vec<usize>> = None;
            for workers in [1usize, 2, 4] {
                let (design, mut graph, mut routes) = congested();
                let mut s = stage(strategy);
                s.workers = workers;
                let outcome = s.run(&design, &mut graph, &mut routes).expect("ok");
                match &baseline {
                    None => baseline = Some(outcome.nets_ripped),
                    Some(b) => assert_eq!(
                        &outcome.nets_ripped, b,
                        "{strategy:?} rip counts differ at workers={workers}"
                    ),
                }
            }
        }
    }

    #[test]
    fn incremental_scan_tracks_dirty_edges() {
        // `stage` sets `validate`, so the run itself panics if a cached
        // overflow flag ever disagrees with a full rescan.
        let (design, mut graph, mut routes) = congested();
        let outcome = stage(RrrStrategy::BatchBarrier)
            .run(&design, &mut graph, &mut routes)
            .expect("ok");
        // Something was rerouted, so edges were dirtied...
        assert!(outcome.dirty_edges > 0);
        // ...and most untouched routes skipped their rescan entirely.
        assert!(
            outcome.rescans_avoided > 0,
            "expected the dirty-edge filter to skip some rescans"
        );
    }

    #[test]
    fn incremental_flags_match_full_rescan_each_iteration() {
        // The validated run compares every cached flag with a full rescan
        // after each iteration; with history on, the later iterations
        // also pick their nets from flags kept across a history update.
        for strategy in [RrrStrategy::TaskGraph, RrrStrategy::BatchBarrier] {
            for history_increment in [0.0, 2.0] {
                let (design, mut graph, mut routes) = congested();
                let s = RrrStage {
                    history_increment,
                    ..stage(strategy)
                };
                let outcome = s.run(&design, &mut graph, &mut routes).expect("ok");
                assert!(
                    outcome.nets_ripped.len() > 1,
                    "{strategy:?}: later iterations must read the cached flags"
                );
            }
        }
    }

    #[test]
    fn zero_workers_means_auto() {
        for strategy in [RrrStrategy::TaskGraph, RrrStrategy::BatchBarrier] {
            let (design, mut g0, mut r0) = congested();
            let (_, mut g1, mut r1) = congested();
            let auto = RrrStage {
                workers: 0,
                ..stage(strategy)
            }
            .run(&design, &mut g0, &mut r0)
            .expect("ok");
            let explicit = RrrStage {
                workers: HostPool::resolve(0),
                ..stage(strategy)
            }
            .run(&design, &mut g1, &mut r1)
            .expect("ok");
            assert_eq!(auto.nets_ripped, explicit.nets_ripped, "{strategy:?}");
            assert!(auto.modeled_parallel_seconds.is_finite());
            assert!(auto.modeled_parallel_seconds > 0.0, "{strategy:?}");
        }
    }

    #[test]
    fn clean_design_is_a_no_op() {
        let design = Generator::tiny(2).generate();
        let mut graph = design.build_graph(CostParams::default()).expect("valid");
        let stage0 = PatternStage {
            mode: PatternMode::LShape,
            engine: PatternEngine::SequentialCpu,
            sorting: SortingScheme::HpwlAscending,
            steiner_passes: 4,
            congestion_aware_planning: false,
            cost_probing: true,
            validate: true,
        };
        let mut routes = stage0.run(&design, &mut graph).expect("ok").routes;
        if graph.report().overflow == 0.0 {
            let outcome = stage(RrrStrategy::TaskGraph)
                .run(&design, &mut graph, &mut routes)
                .expect("ok");
            assert!(outcome.nets_ripped.is_empty());
            assert_eq!(outcome.dirty_edges, 0);
        }
    }

    #[test]
    fn modeled_parallel_time_is_at_most_sequential_work() {
        let (design, mut graph, mut routes) = congested();
        let recorder = Recorder::enabled();
        let outcome = stage(RrrStrategy::TaskGraph)
            .run_traced(&design, &mut graph, &mut routes, &recorder)
            .expect("ok");
        let trace = recorder.take_trace();
        let iterations = 0..outcome.nets_ripped.len();
        let wall: f64 = iterations
            .map(|i| trace.span_seconds(&format!("rrr.iter{i}")))
            .sum();
        // The modelled parallel time can never exceed measured wall time by
        // more than scheduling noise (it models the same work spread over
        // workers).
        assert!(outcome.modeled_parallel_seconds <= wall * 1.5 + 0.01);
        // The per-iteration samples sum to the stage total.
        let total = trace.sample_total("rrr.modeled_parallel_s");
        assert_eq!(total, outcome.modeled_parallel_seconds);
    }
}
