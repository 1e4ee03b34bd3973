//! Implementations of every reproduced table and figure.
//!
//! Each `fn` returns the formatted report it prints; the `reproduce` binary
//! is a CLI over these. Experiment ids follow the paper (see `DESIGN.md`
//! §3). All runs use the scaled synthetic suite; the *quick* flavour uses
//! the four smallest benchmarks so a full sweep stays in CI time.

use fastgr_core::{Router, RouterConfig, RoutingOutcome, SelectionThresholds, SortingScheme};
use fastgr_design::{BenchmarkSpec, Design};
use fastgr_dr::{DetailedRouter, DrConfig};
use fastgr_telemetry::Recorder;

use crate::tables::{format_table, geomean, ratio, secs};

/// The benchmark subset for one evaluation sweep.
pub fn subset(quick: bool) -> Vec<BenchmarkSpec> {
    let all = fastgr_design::suite();
    if quick {
        all.into_iter()
            .filter(|s| matches!(s.name, "s18t5" | "s18t5m" | "s18t10" | "s18t10m"))
            .collect()
    } else {
        all
    }
}

/// Routes `design` under `config` with an enabled recorder, so the trace
/// carries what [`PaperSeconds`] reads. Recording does not move those
/// numbers: GPU PATTERN time is modelled, MAZE task costs are timed inside
/// the task body, and the CPU baseline emits no per-net events.
pub fn route(design: &Design, config: RouterConfig) -> RoutingOutcome {
    Router::new(config)
        .run_with_recorder(design, &Recorder::enabled())
        .unwrap_or_else(|e| panic!("routing {} failed: {e}", design.name()))
}

/// Routes one suite benchmark under `config`.
pub fn run(spec: &BenchmarkSpec, config: RouterConfig) -> (Design, RoutingOutcome) {
    let design = spec.generate();
    let outcome = route(&design, config);
    (design, outcome)
}

/// The paper's runtime accounting of one run, read from its trace. The
/// only place where measured and modelled seconds are added, as the
/// paper's tables do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperSeconds {
    /// The measured `planning` span.
    pub planning: f64,
    /// PATTERN: modelled device seconds for the GPU engines, the measured
    /// `pattern` span for the CPU baseline.
    pub pattern: f64,
    /// MAZE: the modelled parallel seconds (`rrr.modeled_parallel_s`).
    pub maze: f64,
}

impl PaperSeconds {
    /// Reads an outcome routed by [`route`]. Only the GPU engines count
    /// `pattern.kernel_launches`, so that counter picks the PATTERN clock.
    pub fn of(outcome: &RoutingOutcome) -> Self {
        let trace = &outcome.trace;
        let pattern = if trace.counter("pattern.kernel_launches").is_some() {
            trace.modeled_device_seconds()
        } else {
            trace.span_seconds("pattern")
        };
        Self {
            planning: trace.span_seconds("planning"),
            pattern,
            maze: trace.sample_total("rrr.modeled_parallel_s"),
        }
    }

    /// The reported total: planning + PATTERN + MAZE.
    pub fn total(&self) -> f64 {
        self.planning + self.pattern + self.maze
    }
}

/// All three router variants on one benchmark (shared by Tables VII–X).
#[derive(Debug, Clone)]
pub struct VariantOutcomes {
    /// The benchmark descriptor.
    pub spec: BenchmarkSpec,
    /// The generated design.
    pub design: Design,
    /// The CUGR-style baseline outcome.
    pub cugr: RoutingOutcome,
    /// FastGR_L outcome.
    pub fastgr_l: RoutingOutcome,
    /// FastGR_H outcome.
    pub fastgr_h: RoutingOutcome,
}

impl VariantOutcomes {
    /// The paper's runtime accounting of CUGR, FastGR_L and FastGR_H.
    pub fn seconds(&self) -> [PaperSeconds; 3] {
        [&self.cugr, &self.fastgr_l, &self.fastgr_h].map(PaperSeconds::of)
    }
}

/// Runs CUGR / FastGR_L / FastGR_H on the whole subset.
pub fn run_overall(quick: bool) -> Vec<VariantOutcomes> {
    subset(quick)
        .into_iter()
        .map(|spec| {
            let design = spec.generate();
            let cugr = route(&design, RouterConfig::cugr());
            let fastgr_l = route(&design, RouterConfig::fastgr_l());
            let fastgr_h = route(&design, RouterConfig::fastgr_h());
            VariantOutcomes {
                spec,
                design,
                cugr,
                fastgr_l,
                fastgr_h,
            }
        })
        .collect()
}

/// **Fig. 3** — runtime breakdown (PATTERN vs MAZE share) of the CUGR-style
/// baseline. The paper shows 19test9 PATTERN-dominated, 19test9m
/// MAZE-dominated and 19test7 balanced.
pub fn fig3(quick: bool) -> String {
    let names: &[&str] = if quick {
        &["s18t5", "s18t10", "s18t10m"]
    } else {
        &["s19t7", "s19t9", "s19t9m"]
    };
    let mut rows = Vec::new();
    for name in names {
        let spec = BenchmarkSpec::find(name).expect("suite benchmark");
        let (_, o) = run(&spec, RouterConfig::cugr());
        let PaperSeconds { pattern, maze, .. } = PaperSeconds::of(&o);
        let total = pattern + maze;
        rows.push(vec![
            name.to_string(),
            secs(pattern),
            secs(maze),
            format!("{:.1}%", 100.0 * pattern / total.max(1e-12)),
            format!("{:.1}%", 100.0 * maze / total.max(1e-12)),
        ]);
    }
    format!(
        "Fig. 3 — CUGR-baseline runtime breakdown (PATTERN vs MAZE)\n{}",
        format_table(&["design", "PATTERN", "MAZE", "PATTERN%", "MAZE%"], &rows)
    )
}

/// **Table III** — benchmark statistics of the (scaled) suite.
pub fn table3() -> String {
    let rows: Vec<Vec<String>> = fastgr_design::suite()
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                s.paper_analogue.to_string(),
                s.paper_nets.to_string(),
                s.nets.to_string(),
                format!("{0}x{0}", s.grid),
                (s.layers - 1).to_string(), // metal layers, excluding pin layer
            ]
        })
        .collect();
    format!(
        "Table III — benchmark suite (scaled ICCAD2019 analogues)\n{}",
        format_table(
            &[
                "design",
                "analogue",
                "paper nets",
                "nets",
                "G-cell grid",
                "metal layers"
            ],
            &rows
        )
    )
}

/// **Tables IV & V** — the six sorting schemes, substituted in the RRR
/// iterations only (the pattern stage keeps ascending HPWL), on the two
/// Table V designs.
pub fn table5(quick: bool) -> String {
    let names: &[&str] = if quick {
        &["s18t5", "s18t5m"]
    } else {
        &["s18t10", "s18t10m"]
    };
    let mut rows = Vec::new();
    for name in names {
        let spec = BenchmarkSpec::find(name).expect("suite benchmark");
        let design = spec.generate();
        for scheme in SortingScheme::ALL {
            // Scheme swapped in the RRR stage only: route the pattern stage
            // with the default, then re-sort the rip-up set.
            let config = RouterConfig {
                rrr_sorting: Some(scheme),
                ..RouterConfig::fastgr_l()
            };
            let o = route(&design, config);
            let t = PaperSeconds::of(&o);
            rows.push(vec![
                name.to_string(),
                scheme.to_string(),
                secs(t.total()),
                secs(t.pattern),
                secs(t.maze),
                format!("{:.0}", o.metrics.score()),
            ]);
        }
    }
    format!(
        "Table V — sorting schemes (swapped in the rip-up and reroute stage only)\n{}",
        format_table(
            &["design", "scheme", "TOTAL", "PATTERN", "MAZE", "score"],
            &rows
        )
    )
}

/// **Fig. 12** — selection-threshold sweep: fixed `t1`, varying `t2` on the
/// `s18t5m` design; PATTERN runtime and score against the CUGR baselines.
pub fn fig12() -> String {
    let spec = BenchmarkSpec::find("s18t5m").expect("suite benchmark");
    let design = spec.generate();
    let baseline = route(&design, RouterConfig::cugr());

    let mut rows = Vec::new();
    for t2 in (10..=100).step_by(10) {
        let config = RouterConfig {
            pattern_mode: fastgr_core::PatternMode::Hybrid(SelectionThresholds::new(4, t2)),
            ..RouterConfig::fastgr_h()
        };
        let o = route(&design, config);
        rows.push(vec![
            t2.to_string(),
            secs(PaperSeconds::of(&o).pattern),
            format!("{:.0}", o.metrics.score()),
        ]);
    }
    format!(
        "Fig. 12 — t2 sweep on s18t5m (t1 = 4)\n{}\nbaseline CUGR: PATTERN {} score {:.0}\n",
        format_table(&["t2", "PATTERN", "score"], &rows),
        secs(PaperSeconds::of(&baseline).pattern),
        baseline.metrics.score(),
    )
}

/// **Table VI** — the selection-technique ablation: FastGR_H with vs
/// without selection.
pub fn table6(quick: bool) -> String {
    let mut rows = Vec::new();
    let mut pattern_speedups = Vec::new();
    let mut total_speedups = Vec::new();
    let mut shorts_improvements = Vec::new();
    let mut rip_increase = Vec::new();
    for spec in subset(quick) {
        let design = spec.generate();
        let with = route(&design, RouterConfig::fastgr_h());
        let without = route(&design, RouterConfig::fastgr_h_no_selection());
        let rip_with = *with.trace.nets_ripped().first().unwrap_or(&0) as f64;
        let rip_without = *without.trace.nets_ripped().first().unwrap_or(&0) as f64;
        let (t_with, t_without) = (PaperSeconds::of(&with), PaperSeconds::of(&without));
        pattern_speedups.push(t_without.pattern / t_with.pattern.max(1e-12));
        total_speedups.push(t_without.total() / t_with.total().max(1e-12));
        if without.metrics.shorts > 0.0 {
            shorts_improvements.push(1.0 - with.metrics.shorts / without.metrics.shorts);
        }
        if rip_without > 0.0 {
            rip_increase.push(rip_with / rip_without - 1.0);
        }
        rows.push(vec![
            spec.name.to_string(),
            secs(t_without.pattern),
            secs(t_with.pattern),
            secs(t_without.total()),
            secs(t_with.total()),
            format!("{:.1}", without.metrics.shorts),
            format!("{:.1}", with.metrics.shorts),
        ]);
    }
    format!(
        "Table VI — selection ablation (without vs with selection)\n{}\n\
         pattern speedup from selection (geomean): {}\n\
         total speedup from selection (geomean):   {}\n\
         shorts improvement from selection (mean): {:.1}%\n\
         nets-to-rip-up change from selection (mean): {:+.1}%\n",
        format_table(
            &[
                "design",
                "PAT w/o sel",
                "PAT w/ sel",
                "TOT w/o sel",
                "TOT w/ sel",
                "shorts w/o",
                "shorts w/",
            ],
            &rows
        ),
        ratio(geomean(&pattern_speedups)),
        ratio(geomean(&total_speedups)),
        100.0 * mean(&shorts_improvements),
        100.0 * mean(&rip_increase),
    )
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// **Table VII** — overall results: total runtime and score of the three
/// routers per benchmark, with geomean speedups.
pub fn table7_from(results: &[VariantOutcomes]) -> String {
    let mut rows = Vec::new();
    let mut l_speedups = Vec::new();
    let mut h_speedups = Vec::new();
    for r in results {
        let [tc, tl, th] = r.seconds().map(|t| t.total());
        l_speedups.push(tc / tl.max(1e-12));
        h_speedups.push(tc / th.max(1e-12));
        rows.push(vec![
            r.spec.name.to_string(),
            secs(tc),
            format!("{:.0}", r.cugr.metrics.score()),
            secs(tl),
            format!("{:.0}", r.fastgr_l.metrics.score()),
            secs(th),
            format!("{:.0}", r.fastgr_h.metrics.score()),
        ]);
    }
    format!(
        "Table VII — overall results (total runtime and score)\n{}\n\
         FastGR_L speedup over CUGR (geomean): {} (paper: 2.489x)\n\
         FastGR_H speedup over CUGR (geomean): {} (paper: 1.970x)\n",
        format_table(
            &["design", "CUGR", "score", "FastGR_L", "score", "FastGR_H", "score"],
            &rows
        ),
        ratio(geomean(&l_speedups)),
        ratio(geomean(&h_speedups)),
    )
}

/// **Table VIII** — stage breakdown: PATTERN and MAZE runtimes plus the
/// number of nets passed to rip-up and reroute.
pub fn table8_from(results: &[VariantOutcomes]) -> String {
    let mut rows = Vec::new();
    let mut l_kernel = Vec::new();
    let mut h_kernel = Vec::new();
    let mut maze_speedup = Vec::new();
    let mut l_rip_change = Vec::new();
    let mut h_rip_change = Vec::new();
    for r in results {
        let rip = |o: &RoutingOutcome| *o.trace.nets_ripped().first().unwrap_or(&0);
        let [c, l, h] = r.seconds();
        l_kernel.push(c.pattern / l.pattern.max(1e-12));
        h_kernel.push(c.pattern / h.pattern.max(1e-12));
        if c.maze > 1e-9 && l.maze > 1e-9 {
            maze_speedup.push(c.maze / l.maze);
        }
        let base_rip = rip(&r.cugr) as f64;
        // Tiny rip counts (a handful of nets) turn into meaningless
        // percentages; only designs with a real rip-up workload count.
        if base_rip >= 10.0 {
            l_rip_change.push(rip(&r.fastgr_l) as f64 / base_rip - 1.0);
            h_rip_change.push(rip(&r.fastgr_h) as f64 / base_rip - 1.0);
        }
        rows.push(vec![
            r.spec.name.to_string(),
            secs(c.pattern),
            secs(l.pattern),
            secs(h.pattern),
            rip(&r.cugr).to_string(),
            rip(&r.fastgr_l).to_string(),
            rip(&r.fastgr_h).to_string(),
            secs(c.maze),
            secs(l.maze),
            secs(h.maze),
        ]);
    }
    format!(
        "Table VIII — stage breakdown (PATTERN / nets-to-rip / MAZE)\n{}\n\
         L-shape kernel speedup vs sequential (geomean):  {} (paper: 9.324x)\n\
         hybrid kernel speedup vs sequential (geomean):   {} (paper: 2.070x)\n\
         task-graph MAZE speedup vs batch-based (geomean): {} (paper: 2.501x)\n\
         nets-to-rip change, FastGR_L vs CUGR (mean): {:+.1}% (paper: -2.4%)\n\
         nets-to-rip change, FastGR_H vs CUGR (mean): {:+.1}% (paper: -23.3%)\n",
        format_table(
            &[
                "design",
                "PAT cugr",
                "PAT grl",
                "PAT grh",
                "rip cugr",
                "rip grl",
                "rip grh",
                "MAZE cugr",
                "MAZE grl",
                "MAZE grh",
            ],
            &rows
        ),
        ratio(geomean(&l_kernel)),
        ratio(geomean(&h_kernel)),
        ratio(geomean(&maze_speedup)),
        100.0 * mean(&l_rip_change),
        100.0 * mean(&h_rip_change),
    )
}

/// **Table IX** — global-routing solution quality: wirelength, vias,
/// shorts, score for FastGR_L vs FastGR_H.
pub fn table9_from(results: &[VariantOutcomes]) -> String {
    let mut rows = Vec::new();
    let mut shorts_improvements = Vec::new();
    let mut pattern_improvements = Vec::new();
    for r in results {
        let ml = &r.fastgr_l.metrics;
        let mh = &r.fastgr_h.metrics;
        // Sub-one-track overflows are numerical noise; exclude them from
        // the per-design percentage mean (the sum-based aggregate below
        // covers every design).
        if ml.shorts >= 1.0 {
            shorts_improvements.push(1.0 - mh.shorts / ml.shorts);
        }
        if r.fastgr_l.trace.pattern_shorts() >= 1.0 {
            pattern_improvements
                .push(1.0 - r.fastgr_h.trace.pattern_shorts() / r.fastgr_l.trace.pattern_shorts());
        }
        rows.push(vec![
            r.spec.name.to_string(),
            ml.wirelength.to_string(),
            mh.wirelength.to_string(),
            ml.vias.to_string(),
            mh.vias.to_string(),
            format!("{:.1}", r.fastgr_l.trace.pattern_shorts()),
            format!("{:.1}", r.fastgr_h.trace.pattern_shorts()),
            format!("{:.1}", ml.shorts),
            format!("{:.1}", mh.shorts),
            format!("{:.0}", ml.score()),
            format!("{:.0}", mh.score()),
        ]);
    }
    let sum = |f: &dyn Fn(&VariantOutcomes) -> f64| -> f64 { results.iter().map(f).sum() };
    let pat_l = sum(&|r| r.fastgr_l.trace.pattern_shorts());
    let pat_h = sum(&|r| r.fastgr_h.trace.pattern_shorts());
    let fin_l = sum(&|r| r.fastgr_l.metrics.shorts);
    let fin_h = sum(&|r| r.fastgr_h.metrics.shorts);
    format!(
        "Table IX — GR solution quality (FastGR_L vs FastGR_H)\n{}\n\
         pattern-stage shorts improvement of FastGR_H: {:.1}% per-design mean, {:.1}% of total\n\
         final shorts improvement of FastGR_H:         {:.1}% per-design mean, {:.1}% of total (paper: 27.855%)\n",
        format_table(
            &[
                "design", "wl L", "wl H", "vias L", "vias H", "pat.sh L", "pat.sh H",
                "shorts L", "shorts H", "score L", "score H",
            ],
            &rows
        ),
        100.0 * mean(&pattern_improvements),
        100.0 * (1.0 - pat_h / pat_l.max(1e-9)),
        100.0 * mean(&shorts_improvements),
        100.0 * (1.0 - fin_h / fin_l.max(1e-9)),
    )
}

/// **Table X** — detailed-routing quality after the Dr.CU-substitute,
/// guided by each router's solution.
pub fn table10_from(results: &[VariantOutcomes]) -> String {
    let mut rows = Vec::new();
    for r in results {
        // Track count matches the GR capacity so guides and tracks agree.
        let dr = DetailedRouter::new(DrConfig {
            tracks_per_gcell: r.design.capacity().round() as u8,
            ..DrConfig::default()
        });
        let dc = dr.route(&r.design, &r.cugr.routes);
        let dl = dr.route(&r.design, &r.fastgr_l.routes);
        let dh = dr.route(&r.design, &r.fastgr_h.routes);
        rows.push(vec![
            r.spec.name.to_string(),
            dc.wirelength.to_string(),
            dl.wirelength.to_string(),
            dh.wirelength.to_string(),
            dc.shorts.to_string(),
            dl.shorts.to_string(),
            dh.shorts.to_string(),
            dc.spacing_violations.to_string(),
            dl.spacing_violations.to_string(),
            dh.spacing_violations.to_string(),
        ]);
    }
    format!(
        "Table X — detailed-routing quality (Dr.CU substitute)\n{}",
        format_table(
            &[
                "design",
                "wl cugr",
                "wl grl",
                "wl grh",
                "shorts cugr",
                "shorts grl",
                "shorts grh",
                "spacing cugr",
                "spacing grl",
                "spacing grh",
            ],
            &rows
        )
    )
}

/// The headline-number summary (Section IV / abstract).
pub fn summary_from(results: &[VariantOutcomes]) -> String {
    let seconds: Vec<[PaperSeconds; 3]> = results.iter().map(VariantOutcomes::seconds).collect();
    let g = |f: &dyn Fn(&[PaperSeconds; 3]) -> f64| -> f64 {
        geomean(&seconds.iter().map(f).collect::<Vec<_>>())
    };
    let overall_l = g(&|[c, l, _]| c.total() / l.total().max(1e-12));
    let overall_h = g(&|[c, _, h]| c.total() / h.total().max(1e-12));
    let kernel_l = g(&|[c, l, _]| c.pattern / l.pattern.max(1e-12));
    let maze_ratios: Vec<f64> = seconds
        .iter()
        .filter(|[c, l, _]| c.maze > 1e-9 && l.maze > 1e-9)
        .map(|[c, l, _]| c.maze / l.maze)
        .collect();
    let maze = geomean(&maze_ratios);
    let shorts: Vec<f64> = results
        .iter()
        .filter(|r| r.fastgr_l.metrics.shorts >= 1.0)
        .map(|r| 1.0 - r.fastgr_h.metrics.shorts / r.fastgr_l.metrics.shorts)
        .collect();
    let pattern_shorts: Vec<f64> = results
        .iter()
        .filter(|r| r.fastgr_l.trace.pattern_shorts() >= 1.0)
        .map(|r| 1.0 - r.fastgr_h.trace.pattern_shorts() / r.fastgr_l.trace.pattern_shorts())
        .collect();
    format!(
        "Headline numbers (measured vs paper)\n\
         -------------------------------------\n\
         FastGR_L overall speedup:        {} (paper 2.489x)\n\
         FastGR_H overall speedup:        {} (paper 1.970x)\n\
         L-shape kernel PATTERN speedup:  {} (paper 9.324x)\n\
         task-graph MAZE speedup:         {} (paper 2.070x-2.501x)\n\
         FastGR_H shorts reduction:       {:.1}% final / {:.1}% at the pattern stage (paper 27.855%)\n",
        ratio(overall_l),
        ratio(overall_h),
        ratio(kernel_l),
        ratio(maze),
        100.0 * mean(&shorts),
        100.0 * mean(&pattern_shorts),
    )
}

/// **Ablations** beyond the paper's tables — the design choices called out
/// in `DESIGN.md` §3: pattern candidate sets (L vs pure-Z vs hybrid),
/// Steiner edge shifting on/off, and A* vs plain Dijkstra in the maze
/// stage. One medium benchmark keeps the sweep fast.
pub fn ablations() -> String {
    use fastgr_core::PatternMode;
    use fastgr_maze::MazeConfig;

    let spec = BenchmarkSpec::find("s18t5m").expect("suite benchmark");
    let design = spec.generate();
    let mut rows = Vec::new();
    let mut run_cfg = |label: &str, config: RouterConfig| {
        let o = route(&design, config);
        let t = PaperSeconds::of(&o);
        rows.push(vec![
            label.to_string(),
            secs(t.total()),
            secs(t.pattern),
            secs(t.maze),
            o.metrics.wirelength.to_string(),
            o.metrics.vias.to_string(),
            format!("{:.1}", o.metrics.shorts),
            format!("{:.0}", o.metrics.score()),
        ]);
    };

    // Pattern candidate sets.
    run_cfg("l-shape", RouterConfig::fastgr_l());
    run_cfg(
        "z-shape only",
        RouterConfig {
            pattern_mode: PatternMode::ZShape,
            ..RouterConfig::fastgr_l()
        },
    );
    run_cfg("hybrid+selection", RouterConfig::fastgr_h());
    run_cfg("hybrid all", RouterConfig::fastgr_h_no_selection());

    // Edge shifting / Steinerisation off (raw MST trees).
    run_cfg(
        "no edge shifting",
        RouterConfig {
            steiner_passes: 0,
            ..RouterConfig::fastgr_l()
        },
    );

    // Plain Dijkstra in the rip-up-and-reroute maze.
    run_cfg(
        "maze dijkstra",
        RouterConfig {
            maze: MazeConfig {
                astar: false,
                ..MazeConfig::default()
            },
            ..RouterConfig::fastgr_l()
        },
    );

    // RUDY-guided congestion-aware edge shifting in planning.
    run_cfg(
        "rudy planning",
        RouterConfig {
            congestion_aware_planning: true,
            ..RouterConfig::fastgr_l()
        },
    );

    // Negotiated congestion (history cost), an extension beyond the paper.
    run_cfg(
        "history cost",
        RouterConfig {
            history_increment: 4.0,
            ..RouterConfig::fastgr_l()
        },
    );
    run_cfg(
        "history + 8 iters",
        RouterConfig {
            history_increment: 4.0,
            rrr_iterations: 8,
            ..RouterConfig::fastgr_l()
        },
    );

    format!(
        "Ablations on s18t5m (design-choice studies beyond the paper)\n{}",
        format_table(
            &["variant", "TOTAL", "PATTERN", "MAZE", "wl", "vias", "shorts", "score"],
            &rows
        )
    )
}

/// Convenience wrappers that run the sweep themselves.
pub fn table7(quick: bool) -> String {
    table7_from(&run_overall(quick))
}
/// See [`table8_from`].
pub fn table8(quick: bool) -> String {
    table8_from(&run_overall(quick))
}
/// See [`table9_from`].
pub fn table9(quick: bool) -> String {
    table9_from(&run_overall(quick))
}
/// See [`table10_from`].
pub fn table10(quick: bool) -> String {
    table10_from(&run_overall(quick))
}
/// See [`summary_from`].
pub fn summary(quick: bool) -> String {
    summary_from(&run_overall(quick))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_lists_every_benchmark() {
        let t = table3();
        for spec in fastgr_design::suite() {
            assert!(t.contains(spec.name), "missing {}", spec.name);
        }
    }

    #[test]
    fn paper_seconds_pick_the_clock_per_engine() {
        let design = fastgr_design::Generator::tiny(4).generate();
        let gpu = route(&design, RouterConfig::fastgr_l());
        let cpu = route(&design, RouterConfig::cugr());
        let (g, c) = (PaperSeconds::of(&gpu), PaperSeconds::of(&cpu));
        assert!(g.pattern > 0.0 && c.planning > 0.0);
        assert_eq!(g.pattern, gpu.trace.modeled_device_seconds());
        assert_eq!(c.pattern, cpu.trace.span_seconds("pattern"));
        assert_eq!(g.maze, gpu.trace.sample_total("rrr.modeled_parallel_s"));
    }

    #[test]
    fn subset_quick_is_smaller() {
        assert_eq!(subset(true).len(), 4);
        assert_eq!(subset(false).len(), 12);
    }
}
