//! The top-level FastGR router: pattern stage + RRR + scoring (Fig. 5).

use fastgr_design::Design;
use fastgr_gpu::DeviceConfig;
use fastgr_grid::{CongestionReport, CostParams, Route};
use fastgr_maze::MazeConfig;
use fastgr_telemetry::{Recorder, RunTrace};

use crate::dp::PatternMode;
use crate::error::RouteError;
use crate::guides::RouteGuides;
use crate::metrics::QualityMetrics;
use crate::ordering::SortingScheme;
use crate::pattern::{PatternEngine, PatternStage};
use crate::rrr::{RrrStage, RrrStrategy};
use crate::selection::SelectionThresholds;

/// Full configuration of one router variant.
///
/// Use the presets ([`RouterConfig::cugr`], [`RouterConfig::fastgr_l`],
/// [`RouterConfig::fastgr_h`]) and override fields with struct-update
/// syntax: `RouterConfig { rrr_iterations: 5, ..RouterConfig::fastgr_h() }`.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Pattern candidate set per two-pin net.
    pub pattern_mode: PatternMode,
    /// Pattern execution engine.
    pub engine: PatternEngine,
    /// Internet net-ordering scheme (both stages unless overridden).
    pub sorting: SortingScheme,
    /// Optional override of the ordering scheme for the rip-up-and-reroute
    /// stage only (the Table V experiment swaps schemes there while keeping
    /// the pattern stage fixed). `None` uses [`RouterConfig::sorting`].
    pub rrr_sorting: Option<SortingScheme>,
    /// Number of rip-up-and-reroute iterations.
    pub rrr_iterations: usize,
    /// RRR parallelisation strategy.
    pub rrr_strategy: RrrStrategy,
    /// Worker count for the RRR executor and parallel-time model. `0`
    /// means auto: the `FASTGR_WORKERS` environment variable if set, else
    /// the machine's available parallelism (the rule of
    /// [`DeviceConfig::host_workers`]).
    pub workers: usize,
    /// Edge cost model parameters.
    pub cost: CostParams,
    /// Maze router configuration.
    pub maze: MazeConfig,
    /// Steiner tree optimisation passes (0 = raw MST, for ablations).
    pub steiner_passes: usize,
    /// Negotiation-style history cost per RRR round (0 = paper-faithful;
    /// positive enables the negotiated-congestion extension).
    pub history_increment: f64,
    /// Congestion-aware (RUDY-guided) edge shifting during planning.
    pub congestion_aware_planning: bool,
    /// Prefix-sum cost prober in the pattern stage: wire-run costs become
    /// O(1) prefix differences instead of O(span) gcell walks (via stacks
    /// are read from the grid's via-prefix rows either way).
    /// Routes are bit-identical either way; this only changes the work the
    /// kernels do. On in every preset, and no benchmark or ablation turns
    /// it off: off selects the direct-cost test oracle
    /// ([`PatternDp::direct`](crate::PatternDp::direct)), kept while the
    /// benchmark package builds against this field.
    pub cost_probing: bool,
    /// Debug-assert-style soundness checking in both stages: batches and
    /// schedules are verified with the `fastgr-analysis` static validator
    /// and task-graph executions run under the happens-before race
    /// checker; violations panic with structured diagnostics. Off in the
    /// presets; turned on by tests.
    pub validate: bool,
}

impl RouterConfig {
    /// The CUGR-style baseline: sequential CPU L-shape pattern routing and
    /// batch-barrier parallel rip-up and reroute.
    pub fn cugr() -> Self {
        Self {
            pattern_mode: PatternMode::LShape,
            engine: PatternEngine::SequentialCpu,
            sorting: SortingScheme::HpwlAscending,
            rrr_sorting: None,
            rrr_iterations: 3,
            rrr_strategy: RrrStrategy::BatchBarrier,
            workers: 8,
            cost: CostParams::default(),
            maze: MazeConfig::default(),
            steiner_passes: 4,
            history_increment: 0.0,
            congestion_aware_planning: false,
            cost_probing: true,
            validate: false,
        }
    }

    /// FastGR_L: the GPU-accelerated L-shape kernel plus the task graph
    /// scheduler in both stages (the runtime-oriented variant).
    pub fn fastgr_l() -> Self {
        Self {
            engine: PatternEngine::GpuFlow(DeviceConfig::rtx3090_like()),
            rrr_strategy: RrrStrategy::TaskGraph,
            ..Self::cugr()
        }
    }

    /// FastGR_H: the GPU-accelerated hybrid-shape kernel with the selection
    /// technique (the quality-oriented variant).
    pub fn fastgr_h() -> Self {
        Self {
            pattern_mode: PatternMode::Hybrid(SelectionThresholds::default()),
            ..Self::fastgr_l()
        }
    }

    /// FastGR_H without the selection technique (hybrid kernel on every
    /// two-pin net) — the Table VI ablation.
    pub fn fastgr_h_no_selection() -> Self {
        Self {
            pattern_mode: PatternMode::HybridAll,
            ..Self::fastgr_l()
        }
    }
}

/// Everything a routing run produces.
#[derive(Debug, Clone)]
pub struct RoutingOutcome {
    /// Final per-net routed geometry.
    pub routes: Vec<Route>,
    /// Routing guides for the detailed router.
    pub guides: RouteGuides,
    /// Solution quality (wirelength / vias / shorts / score).
    pub metrics: QualityMetrics,
    /// Final congestion statistics.
    pub report: CongestionReport,
    /// The run trace, the one store of run metrics: every counter the
    /// stages recorded — the same set whether or not telemetry was on, so
    /// `trace.nets_ripped()`, `trace.pattern_shorts()` and
    /// `trace.pattern_batches()` always read the run — plus, when routed
    /// through [`Router::run_with_recorder`] with an enabled recorder, the
    /// span/kernel/sample/task timeline that every measured and modelled
    /// second is read from.
    pub trace: RunTrace,
}

impl RoutingOutcome {
    /// The final grid graph state is not retained; recompute metrics from
    /// the stored routes against a fresh graph if needed. This helper
    /// recomputes the quality metrics from `routes` and `report`.
    fn metrics_from(routes: &[Route], report: &CongestionReport) -> QualityMetrics {
        QualityMetrics {
            wirelength: routes.iter().map(Route::wirelength).sum(),
            vias: routes.iter().map(Route::via_count).sum(),
            shorts: report.shorts(),
        }
    }
}

/// The FastGR router. See the crate docs for a quickstart.
#[derive(Debug, Clone, Copy)]
pub struct Router {
    config: RouterConfig,
}

impl Router {
    /// Creates a router from a configuration.
    pub fn new(config: RouterConfig) -> Self {
        Self { config }
    }

    /// Routes `design` end to end: builds the grid, runs the pattern stage,
    /// then the rip-up-and-reroute iterations, and scores the result.
    ///
    /// # Errors
    ///
    /// Propagates [`RouteError`] from any stage; see the stage docs.
    pub fn run(&self, design: &Design) -> Result<RoutingOutcome, RouteError> {
        self.run_with_recorder(design, &Recorder::disabled())
    }

    /// [`Router::run`] reporting into a telemetry recorder: the stages'
    /// deterministic counters and, when the recorder is enabled, planning /
    /// pattern / per-RRR-iteration spans, per-kernel device events and
    /// per-task executor events, all drained into
    /// [`RoutingOutcome::trace`]. With a disabled recorder (what
    /// [`Router::run`] passes) the trace has the same counters and no
    /// timeline, and each timeline call costs a branch.
    pub fn run_with_recorder(
        &self,
        design: &Design,
        recorder: &Recorder,
    ) -> Result<RoutingOutcome, RouteError> {
        let c = &self.config;
        let mut graph = design.build_graph(c.cost)?;

        let pattern = PatternStage {
            mode: c.pattern_mode,
            engine: c.engine,
            sorting: c.sorting,
            steiner_passes: c.steiner_passes,
            congestion_aware_planning: c.congestion_aware_planning,
            cost_probing: c.cost_probing,
            validate: c.validate,
        }
        .run_traced(design, &mut graph, recorder)?;
        let mut routes = pattern.routes;

        RrrStage {
            iterations: c.rrr_iterations,
            strategy: c.rrr_strategy,
            sorting: c.rrr_sorting.unwrap_or(c.sorting),
            maze: c.maze,
            workers: c.workers,
            history_increment: c.history_increment,
            validate: c.validate,
        }
        .run_traced(design, &mut graph, &mut routes, recorder)?;

        let report = graph.report();
        let metrics = RoutingOutcome::metrics_from(&routes, &report);
        let guides = RouteGuides::from_routes(design, &routes);
        Ok(RoutingOutcome {
            routes,
            guides,
            metrics,
            report,
            trace: recorder.take_trace(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgr_design::{Generator, GeneratorParams};
    use fastgr_telemetry::{TRACK_DEVICE, TRACK_WORKER_BASE};

    fn congested_design() -> Design {
        Generator::new(GeneratorParams {
            name: "router-test".into(),
            width: 24,
            height: 24,
            layers: 6,
            num_nets: 300,
            capacity: 4.0,
            hotspots: 3,
            hotspot_affinity: 0.5,
            blockages: 2,
            seed: 21,
        })
        .generate()
    }

    #[test]
    fn all_presets_route_end_to_end() {
        let design = congested_design();
        for config in [
            RouterConfig::cugr(),
            RouterConfig::fastgr_l(),
            RouterConfig::fastgr_h(),
            RouterConfig::fastgr_h_no_selection(),
        ] {
            // Soundness checking on: the analysis validator and the race
            // checker audit every schedule this run builds.
            let config = RouterConfig {
                validate: true,
                ..config
            };
            let outcome = Router::new(config).run(&design).expect("routable");
            assert_eq!(outcome.routes.len(), design.nets().len());
            assert!(outcome.metrics.wirelength > 0);
            assert!(outcome.metrics.score() > 0.0);
            assert!(outcome.guides.covers_pins(&design));
        }
    }

    #[test]
    fn fastgr_l_reports_gpu_time_cugr_does_not() {
        let design = Generator::tiny(4).generate();
        let run = |config| Router::new(config).run_with_recorder(&design, &Recorder::enabled());
        let l = run(RouterConfig::fastgr_l()).expect("ok").trace;
        let c = run(RouterConfig::cugr()).expect("ok").trace;
        assert!(l.modeled_device_seconds() > 0.0);
        assert!(c.kernels().is_empty());
    }

    #[test]
    fn rrr_improves_or_preserves_score_vs_pattern_only() {
        let design = congested_design();
        let no_rrr = RouterConfig {
            rrr_iterations: 0,
            ..RouterConfig::cugr()
        };
        let with_rrr = RouterConfig::cugr();
        let a = Router::new(no_rrr).run(&design).expect("ok");
        let b = Router::new(with_rrr).run(&design).expect("ok");
        assert!(
            b.metrics.shorts <= a.metrics.shorts,
            "rrr must not increase shorts: {} -> {}",
            a.metrics.shorts,
            b.metrics.shorts
        );
    }

    #[test]
    fn deterministic_given_config() {
        let design = Generator::tiny(8).generate();
        let a = Router::new(RouterConfig::fastgr_l())
            .run(&design)
            .expect("ok");
        let b = Router::new(RouterConfig::fastgr_l())
            .run(&design)
            .expect("ok");
        assert_eq!(a.routes, b.routes);
        assert_eq!(a.metrics.wirelength, b.metrics.wirelength);
        assert_eq!(a.metrics.shorts, b.metrics.shorts);
    }

    /// Denser than [`congested_design`]: guaranteed to overflow after the
    /// pattern stage, so RRR iterations actually run.
    fn overflowing_design() -> Design {
        Generator::new(GeneratorParams {
            name: "router-overflow".into(),
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

    #[test]
    fn outcome_trace_carries_run_summary_without_recorder() {
        let design = overflowing_design();
        let outcome = Router::new(RouterConfig::cugr()).run(&design).expect("ok");
        // Telemetry off: no timeline, but the summary is there.
        assert!(!outcome.trace.has_timeline());
        assert!(!outcome.trace.nets_ripped().is_empty());
        assert!(outcome.trace.pattern_batches() >= 1);
        assert!(outcome.trace.pattern_shorts() > 0.0);
    }

    #[test]
    fn recorded_run_traces_all_stages() {
        let design = overflowing_design();
        let recorder = Recorder::enabled();
        let outcome = Router::new(RouterConfig {
            validate: true,
            ..RouterConfig::fastgr_l()
        })
        .run_with_recorder(&design, &recorder)
        .expect("ok");
        let trace = &outcome.trace;
        assert!(trace.has_timeline());
        let span_names: Vec<&str> = trace.spans().iter().map(|s| s.name.as_str()).collect();
        assert!(span_names.contains(&"planning"), "{span_names:?}");
        assert!(span_names.contains(&"pattern"), "{span_names:?}");
        assert!(span_names.contains(&"rrr.iter0"), "{span_names:?}");
        // One kernel event per launch, one launch per batch.
        assert_eq!(trace.kernels().len(), trace.pattern_batches());
        assert_eq!(
            trace.counter("pattern.kernel_launches"),
            Some(trace.pattern_batches() as f64)
        );
        // One rrr.nets_ripped sample per iteration that ran.
        let samples = trace
            .counter_samples()
            .iter()
            .filter(|s| s.name == "rrr.nets_ripped")
            .count();
        assert_eq!(samples, trace.nets_ripped().len());
        // Executor task events were recorded (task-graph strategy).
        assert!(trace.events().iter().any(|e| e.cat == "task"));
        // One balanced `block` begin/end pair per pattern block, named
        // `pattern.block{b}` and placed on worker tracks.
        let blocks: Vec<_> = trace.events().iter().filter(|e| e.cat == "block").collect();
        let marks = |begin: bool| {
            let mut marks: Vec<(&str, u32)> = blocks
                .iter()
                .filter(|e| e.begin == begin)
                .map(|e| (e.name.as_str(), e.track))
                .collect();
            marks.sort_unstable();
            marks
        };
        let begins = marks(true);
        assert_eq!(begins, marks(false), "unbalanced block events");
        let total_blocks: usize = trace.kernels().iter().map(|k| k.blocks).sum();
        assert!(total_blocks > 0);
        assert_eq!(begins.len(), total_blocks);
        let mut names: Vec<&str> = begins.iter().map(|&(name, _)| name).collect();
        names.sort_unstable();
        let mut expected: Vec<String> = trace
            .kernels()
            .iter()
            .flat_map(|k| (0..k.blocks).map(|b| format!("pattern.block{b}")))
            .collect();
        expected.sort_unstable();
        assert_eq!(names, expected);
        assert!(begins
            .iter()
            .all(|&(_, track)| (TRACK_WORKER_BASE..TRACK_DEVICE).contains(&track)));
    }

    #[test]
    fn counter_values_identical_across_recorded_and_plain_runs() {
        let design = overflowing_design();
        for config in [RouterConfig::fastgr_l(), RouterConfig::cugr()] {
            let plain = Router::new(config).run(&design).expect("ok");
            let traced = Router::new(config)
                .run_with_recorder(&design, &Recorder::enabled())
                .expect("ok");
            // Telemetry must not perturb the routing result, and a plain
            // run's trace has every counter of a recorded one.
            assert_eq!(plain.routes, traced.routes);
            let counters = |o: &RoutingOutcome| o.trace.counters().collect::<Vec<_>>();
            assert_eq!(counters(&plain), counters(&traced), "{config:?}");
            assert!(plain.trace.counter("rrr.unrouted").is_some());
        }
    }

    #[test]
    fn hybrid_variant_does_not_increase_shorts() {
        let design = congested_design();
        let l = Router::new(RouterConfig::fastgr_l())
            .run(&design)
            .expect("ok");
        let h = Router::new(RouterConfig::fastgr_h())
            .run(&design)
            .expect("ok");
        // The headline claim (27.855% shorts reduction) is checked in the
        // experiment harness; here we only require "not worse" on this
        // small fixture, with a small tolerance for noise.
        assert!(
            h.metrics.shorts <= l.metrics.shorts * 1.1 + 1.0,
            "hybrid shorts {} vs L shorts {}",
            h.metrics.shorts,
            l.metrics.shorts
        );
    }
}
