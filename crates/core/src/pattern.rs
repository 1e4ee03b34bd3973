//! The pattern routing stage driver (paper Sections III-C/D/E/F, Fig. 7).
//!
//! Planning (Steiner trees + net ordering, and batch extraction for the GPU
//! engine) happens on the host; routing is then one loop over *commit
//! groups*. For the GPU engine a group is a conflict-free batch, launched
//! as one kernel with one block per net. For the baseline engine a group is
//! a single net in sorted order, which is CUGR's net-by-net commit.
//!
//! Parallel execution is deterministic by construction: every concurrent
//! phase (Steiner planning, block execution) writes to index-disjoint
//! write-once cells (`std::sync::OnceLock`) that are read back in index order, so
//! the routed geometry — and the modelled device time — are byte-identical
//! for every worker count.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::OnceLock;

use fastgr_design::Design;
use fastgr_gpu::{BlockProfile, Device, DeviceConfig, HostPool};
use fastgr_grid::{CostProber, GridGraph, Rect, Route};
use fastgr_steiner::{RouteTree, SteinerBuilder};
use fastgr_taskgraph::{first_fit_batches, ConflictGraph};
use fastgr_telemetry::Recorder;

use crate::dp::{PatternDp, PatternMode};
use crate::error::RouteError;
use crate::ordering::SortingScheme;

/// How the pattern kernels are executed.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum PatternEngine {
    /// The GPU-friendly flow kernels on the simulated device: blocks = nets
    /// of one batch; reported PATTERN time is the modelled device time.
    GpuFlow(DeviceConfig),
    /// Sequential net-by-net dynamic programming on the CPU (the CUGR
    /// baseline); reported PATTERN time is measured wall time.
    SequentialCpu,
}

/// Outcome of the pattern routing stage.
#[derive(Debug, Clone)]
pub struct PatternOutcome {
    /// Routed geometry per net id (committed to the grid).
    pub routes: Vec<Route>,
    /// Number of commit groups: the conflict-free batches of the GPU
    /// engine, or one per net for the sequential engine.
    pub batch_count: usize,
}

/// The pattern routing stage.
///
/// # Example
///
/// ```
/// use fastgr_core::{PatternEngine, PatternMode, PatternStage, SortingScheme};
/// use fastgr_design::Generator;
/// use fastgr_grid::CostParams;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let design = Generator::tiny(3).generate();
/// let mut graph = design.build_graph(CostParams::default())?;
/// let stage = PatternStage {
///     mode: PatternMode::LShape,
///     engine: PatternEngine::SequentialCpu,
///     sorting: SortingScheme::HpwlAscending,
///     steiner_passes: 4,
///     congestion_aware_planning: false,
///     cost_probing: true,
///     validate: true,
/// };
/// let outcome = stage.run(&design, &mut graph)?;
/// assert_eq!(outcome.routes.len(), design.nets().len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PatternStage {
    /// Pattern candidate set (and selection) per two-pin net.
    pub mode: PatternMode,
    /// Execution engine.
    pub engine: PatternEngine,
    /// Internet ordering scheme for batching.
    pub sorting: SortingScheme,
    /// Steiner tree optimisation passes (median Steinerisation + edge
    /// shifting); 0 leaves the raw MST — the edge-shifting ablation.
    pub steiner_passes: usize,
    /// Congestion-aware planning: edge shifting consults a RUDY density
    /// map of the design so trees bend away from predicted hot spots
    /// (CUGR's planning behaviour). Off by default.
    pub congestion_aware_planning: bool,
    /// Prefix-sum cost probing: the kernels read wire-run costs from a
    /// [`CostProber`] cache (built once, incrementally refreshed at every
    /// commit boundary from the grid's dirty bitsets) instead of walking
    /// the grid's cached edge costs per probe. Via stacks come from
    /// [`GridGraph::via_prefix_into`] in both modes. Bit-identical routes
    /// either way — both paths share the Q44.20 quantised cost domain —
    /// so this is purely the per-net host speedup from O((M+N)²·L) to
    /// O((M+N)·L) probe work.
    pub cost_probing: bool,
    /// Debug-assert-style soundness checking: when set, the GPU engine
    /// builds the nets' conflict graph, which routing itself does not
    /// need, as the oracle for its batches. The `fastgr-analysis`
    /// validator checks them against it (every batch an independent set,
    /// every task covered exactly once), and any violation panics with
    /// structured diagnostics.
    pub validate: bool,
}

/// Density weight converting RUDY units into G-cell-edge cost units.
const RUDY_SHIFT_WEIGHT: f64 = 2.0;

impl PatternStage {
    /// Runs the stage: plans, routes every net, and commits all demand to
    /// `graph`.
    ///
    /// # Errors
    ///
    /// * [`RouteError::TooFewLayers`] if the grid cannot host both routing
    ///   directions;
    /// * [`RouteError::NoFinitePattern`] for the first net, in commit
    ///   order, that admits no finite pattern;
    /// * [`RouteError::Grid`] on commit failures (internal invariant).
    pub fn run(
        &self,
        design: &Design,
        graph: &mut GridGraph,
    ) -> Result<PatternOutcome, RouteError> {
        self.run_traced(design, graph, &Recorder::disabled())
    }

    /// [`PatternStage::run`] reporting into a telemetry recorder: one
    /// `planning` and one `pattern` stage span, per-kernel events from the
    /// simulated device (GPU engine), and `pattern.*` counters. With a
    /// disabled recorder this is exactly [`PatternStage::run`].
    pub fn run_traced(
        &self,
        design: &Design,
        graph: &mut GridGraph,
        recorder: &Recorder,
    ) -> Result<PatternOutcome, RouteError> {
        if graph.num_layers() < 3 {
            return Err(RouteError::TooFewLayers {
                layers: graph.num_layers(),
            });
        }

        // Host workers for every index-parallel phase of this run. The
        // sequential engine stays fully serial (it is the CUGR baseline).
        let pool = match self.engine {
            PatternEngine::GpuFlow(cfg) => HostPool::resolved(cfg.host_workers),
            PatternEngine::SequentialCpu => HostPool::new(1),
        };

        // --- Planning: Steiner trees, ordering, batch extraction. ---
        let plan_span = recorder.span("planning", "stage");
        let mut builder = SteinerBuilder::new().with_passes(self.steiner_passes);
        if self.congestion_aware_planning {
            builder = builder.with_density(
                crate::analysis::rudy_map(design),
                design.width(),
                RUDY_SHIFT_WEIGHT,
            );
        }
        let nets = design.nets();
        let trees: Vec<RouteTree> = pool.map(nets.len(), |i| builder.build(&nets[i]));
        let order = self.sorting.sorted_ids(design.nets());
        // Conflict-free batches, for the GPU engine only: the CUGR baseline
        // commits net by net. First fit over the G-cells gives Algorithm 1's
        // batches without a conflict graph; under `validate` the graph is
        // built as the oracle they are checked against.
        let batches = match self.engine {
            PatternEngine::GpuFlow(_) => {
                let bboxes: Vec<Rect> = nets.iter().map(|n| n.bounding_box()).collect();
                let batches = first_fit_batches(&order, &bboxes, design.width(), design.height());
                if self.validate {
                    let conflicts = ConflictGraph::from_bounding_boxes(&bboxes);
                    fastgr_analysis::validate_batches(&batches, &conflicts)
                        .assert_clean("pattern stage batch extraction");
                }
                batches
            }
            PatternEngine::SequentialCpu => Vec::new(),
        };
        plan_span.finish();
        recorder.accumulate("pattern.nets", nets.len() as f64);

        // --- Routing. ---
        let route_span = recorder.span("pattern", "stage");
        let mut routes: Vec<Route> = vec![Route::new(); design.nets().len()];

        // Prefix-sum cost cache: built once against the pre-routing
        // congestion (rows summed in parallel on the same pool), then
        // incrementally refreshed from the grid's dirty bitsets at every
        // commit boundary, so each group sees exactly the congestion its
        // engine's semantics prescribe.
        let mut prober = if self.cost_probing {
            graph.clear_dirty();
            Some(CostProber::build_with_pool(graph, &pool))
        } else {
            None
        };

        // Commit groups: the conflict-free batches for the GPU engine, one
        // net per group in sorted order for the CUGR baseline (so each net
        // sees the previous net's commit).
        let mut device = match self.engine {
            PatternEngine::GpuFlow(device_config) => {
                let mut device = Device::new(device_config);
                device.set_recorder(recorder.clone());
                Some(device)
            }
            PatternEngine::SequentialCpu => None,
        };
        let groups: Vec<&[u32]> = match device {
            Some(_) => batches.iter().map(Vec::as_slice).collect(),
            None => order.chunks(1).collect(),
        };
        recorder.accumulate("pattern.batches", groups.len() as f64);
        let batch_count = groups.len();
        let mut cost_probes = 0u64;
        for group in groups {
            if let Some(p) = prober.as_mut() {
                p.refresh(graph, &pool);
            }
            // One block per net; blocks run concurrently, each writing its
            // route and probe count into its own index-disjoint slot.
            // Demand commits after the group in group order (the group is
            // conflict-free, so order within it is moot).
            let slots: Vec<OnceLock<(Route, u64)>> =
                group.iter().map(|_| OnceLock::new()).collect();
            {
                let dp = match prober.as_ref() {
                    Some(p) => PatternDp::with_prober(graph, self.mode, p),
                    None => PatternDp::direct(graph, self.mode),
                };
                let route_block = |b: usize| match dp.route_net(&trees[group[b] as usize]) {
                    Some(result) => {
                        let _ = slots[b].set((result.route, result.probes));
                        result.profile
                    }
                    None => BlockProfile::new(1, 1),
                };
                match device.as_mut() {
                    Some(device) => {
                        device.launch("pattern", group.len(), route_block);
                    }
                    None => pool.for_each(group.len(), |b| {
                        route_block(b);
                    }),
                }
            }
            for (&net, slot) in group.iter().zip(slots) {
                let (route, probes) = slot
                    .into_inner()
                    .ok_or(RouteError::NoFinitePattern { net })?;
                graph.commit(&route)?;
                routes[net as usize] = route;
                cost_probes += probes;
            }
        }
        if device.is_some() {
            // One kernel launch per batch.
            recorder.accumulate("pattern.kernel_launches", batches.len() as f64);
        }

        if let Some(p) = &prober {
            recorder.accumulate("pattern.cost_cache_builds", p.builds() as f64);
            recorder.accumulate("pattern.cost_cache_rows_rebuilt", p.rows_rebuilt() as f64);
            recorder.accumulate("pattern.cost_probes", cost_probes as f64);
        }
        route_span.finish();
        Ok(PatternOutcome {
            routes,
            batch_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgr_design::Generator;
    use fastgr_grid::CostParams;
    use fastgr_telemetry::RunTrace;

    fn run(engine: PatternEngine, mode: PatternMode) -> (PatternOutcome, GridGraph, RunTrace) {
        run_probing(engine, mode, true)
    }

    /// Routes `Generator::tiny(11)` with an enabled recorder.
    fn run_probing(
        engine: PatternEngine,
        mode: PatternMode,
        cost_probing: bool,
    ) -> (PatternOutcome, GridGraph, RunTrace) {
        let design = Generator::tiny(11).generate();
        let mut graph = design.build_graph(CostParams::default()).expect("valid");
        let stage = PatternStage {
            mode,
            engine,
            sorting: SortingScheme::HpwlAscending,
            steiner_passes: 4,
            congestion_aware_planning: false,
            cost_probing,
            validate: true,
        };
        let recorder = Recorder::enabled();
        let outcome = stage
            .run_traced(&design, &mut graph, &recorder)
            .expect("routable");
        (outcome, graph, recorder.take_trace())
    }

    #[test]
    fn gpu_and_cpu_engines_route_every_net() {
        for engine in [
            PatternEngine::SequentialCpu,
            PatternEngine::GpuFlow(DeviceConfig::tiny()),
        ] {
            let (outcome, graph, _) = run(engine, PatternMode::LShape);
            assert_eq!(outcome.routes.len(), 64);
            // Multi-G-cell nets have geometry.
            let routed = outcome.routes.iter().filter(|r| !r.is_empty()).count();
            assert!(routed > 32, "only {routed} nets have geometry");
            // All demand is committed.
            assert!(graph.report().total_wire_demand > 0.0);
            assert!(outcome.batch_count >= 1);
        }
    }

    #[test]
    fn engines_report_pattern_time_through_the_trace() {
        // One kernel event, with modelled device time, per GPU batch; none
        // for the sequential engine, whose PATTERN clock is its span.
        let gpu = PatternEngine::GpuFlow(DeviceConfig::rtx3090_like());
        let (outcome, _, trace) = run(gpu, PatternMode::LShape);
        assert_eq!(trace.kernels().len(), outcome.batch_count);
        assert_eq!(
            trace.counter("pattern.kernel_launches"),
            Some(outcome.batch_count as f64)
        );
        assert!(trace.modeled_device_seconds() > 0.0);
        let (_, _, cpu) = run(PatternEngine::SequentialCpu, PatternMode::LShape);
        assert!(cpu.kernels().is_empty() && cpu.counter("pattern.kernel_launches").is_none());
        assert!(cpu.span_seconds("pattern") > 0.0);
    }

    #[test]
    fn both_engines_commit_identical_total_demand_per_batch_order() {
        // The engines share the DP, so routing the same design with the
        // same ordering yields identical geometry (the GPU engine commits
        // per batch, but batches are conflict-free, so results agree).
        let (a, ga, _) = run(PatternEngine::SequentialCpu, PatternMode::LShape);
        let (b, gb, _) = run(
            PatternEngine::GpuFlow(DeviceConfig::tiny()),
            PatternMode::LShape,
        );
        let wl = |o: &PatternOutcome| o.routes.iter().map(Route::wirelength).sum::<u64>();
        // Batch-commit vs per-net commit sees slightly different congestion;
        // totals must be close but need not be identical. Demand totals
        // follow wirelength.
        let (wa, wb) = (wl(&a) as f64, wl(&b) as f64);
        assert!((wa - wb).abs() / wa < 0.05, "wl diverged: {wa} vs {wb}");
        assert_eq!(ga.report().total_wire_demand, wa);
        assert_eq!(gb.report().total_wire_demand, wb);
    }

    #[test]
    fn gpu_engine_is_deterministic_across_worker_counts() {
        // Same design at 1, 2, 4 and 8 host workers: the routed geometry
        // must be byte-identical, the modelled device seconds bit-identical
        // and the per-net probe counts must sum to the same total — host
        // parallelism only changes wall-clock.
        let run_with = |workers: usize| {
            run(
                PatternEngine::GpuFlow(DeviceConfig {
                    host_workers: workers,
                    ..DeviceConfig::rtx3090_like()
                }),
                PatternMode::HybridAll,
            )
        };
        let (serial, _, serial_trace) = run_with(1);
        let probes = serial_trace.counter("pattern.cost_probes");
        assert!(probes.is_some_and(|p| p > 0.0), "{probes:?}");
        let a = serial_trace.modeled_device_seconds();
        for workers in [2, 4, 8] {
            let (parallel, _, parallel_trace) = run_with(workers);
            assert_eq!(serial.routes, parallel.routes, "{workers} workers");
            let b = parallel_trace.modeled_device_seconds();
            assert_eq!(a.to_bits(), b.to_bits(), "{workers} workers: {a} vs {b}");
            assert_eq!(probes, parallel_trace.counter("pattern.cost_probes"));
        }
    }

    #[test]
    fn too_few_layers_is_rejected() {
        let design = Generator::tiny(1).generate();
        let mut graph = GridGraph::new(16, 16, 2, CostParams::default()).expect("valid");
        let stage = PatternStage {
            mode: PatternMode::LShape,
            engine: PatternEngine::SequentialCpu,
            sorting: SortingScheme::default(),
            steiner_passes: 4,
            congestion_aware_planning: false,
            cost_probing: true,
            validate: true,
        };
        assert!(matches!(
            stage.run(&design, &mut graph),
            Err(RouteError::TooFewLayers { layers: 2 })
        ));
    }

    #[test]
    fn probed_and_direct_stages_route_identically() {
        // The prober and the direct quantised walks are the same cost
        // function, so a whole stage run must be byte-identical with the
        // cache on or off, for every engine.
        for engine in [
            PatternEngine::SequentialCpu,
            PatternEngine::GpuFlow(DeviceConfig {
                host_workers: 2,
                ..DeviceConfig::tiny()
            }),
        ] {
            let (probed, gp, _) = run_probing(engine, PatternMode::HybridAll, true);
            let (direct, gd, _) = run_probing(engine, PatternMode::HybridAll, false);
            assert_eq!(probed.routes, direct.routes, "{engine:?}: routes diverge");
            assert_eq!(gp.report().total_wire_demand, gd.report().total_wire_demand);
        }
    }

    #[test]
    fn hybrid_mode_runs_end_to_end() {
        let (outcome, graph, _) = run(
            PatternEngine::GpuFlow(DeviceConfig::tiny()),
            PatternMode::Hybrid(crate::SelectionThresholds::default()),
        );
        assert_eq!(outcome.routes.len(), 64);
        assert!(graph.report().total_wire_demand > 0.0);
    }
}
