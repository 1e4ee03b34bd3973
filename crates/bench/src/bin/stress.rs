//! Randomised stress harness: routes seeded random designs through every
//! preset and checks the router's invariants hold on each.
//!
//! ```text
//! stress [iterations]        (default 10)
//! ```
//!
//! Every preset runs with `validate` on, so its batches, schedules, RRR
//! race freedom and cost cache are checked too; a violation panics.
//!
//! Checked per design and preset:
//!
//! * every net's route is connected and reaches all its pins;
//! * recommitting the routes onto a fresh grid reproduces the reported
//!   congestion exactly (demand bookkeeping is exact);
//! * the score equals the Eq. 15 formula on the raw metrics;
//! * guides cover every pin;
//! * the run is deterministic (a second run yields identical routes).

use std::process::ExitCode;

use fastgr_core::{Router, RouterConfig};
use fastgr_design::{Design, Generator, GeneratorParams, SplitMix64};
use fastgr_grid::CostParams;

fn random_design(rng: &mut SplitMix64, index: u64) -> Design {
    let side = 12 + rng.next_below(28) as u16;
    let layers = 4 + rng.next_below(5) as u8;
    let density = 0.3 + rng.next_f64() * 0.9;
    let nets = ((side as f64 * side as f64) * density) as usize;
    Generator::new(GeneratorParams {
        name: format!("stress-{index}"),
        width: side,
        height: side,
        layers,
        num_nets: nets.max(4),
        capacity: 2.0 + rng.next_f64() * 4.0,
        hotspots: 1 + rng.next_below(4) as usize,
        hotspot_affinity: rng.next_f64() * 0.7,
        blockages: rng.next_below(4) as usize,
        seed: rng.next_u64(),
    })
    .generate()
}

fn check(design: &Design, label: &str, config: RouterConfig) -> Result<(), String> {
    let outcome = Router::new(config)
        .run(design)
        .map_err(|e| format!("{label}: routing failed: {e}"))?;

    // Connectivity and pin coverage.
    for (net, route) in design.nets().iter().zip(&outcome.routes) {
        if !route.is_connected() {
            return Err(format!("{label}: net {} disconnected", net.name()));
        }
        let pins = net.distinct_positions();
        if pins.len() > 1 {
            let touched = route.touched_points();
            for pin in pins {
                if !touched.contains(&pin.on_layer(0)) {
                    return Err(format!("{label}: net {} misses pin {pin}", net.name()));
                }
            }
        }
    }

    // Exact demand bookkeeping.
    let graph = design
        .build_graph(CostParams::default())
        .map_err(|e| format!("{label}: graph: {e}"))?;
    for route in &outcome.routes {
        graph
            .commit(route)
            .map_err(|e| format!("{label}: recommit: {e}"))?;
    }
    let fresh = graph.report();
    if fresh.total_wire_demand != outcome.report.total_wire_demand
        || fresh.overflow != outcome.report.overflow
    {
        return Err(format!(
            "{label}: demand mismatch: {} vs {}",
            fresh.total_wire_demand, outcome.report.total_wire_demand
        ));
    }

    // Score formula.
    let expect = 0.5 * outcome.metrics.wirelength as f64
        + 4.0 * outcome.metrics.vias as f64
        + 500.0 * outcome.metrics.shorts;
    if (outcome.metrics.score() - expect).abs() > 1e-9 {
        return Err(format!("{label}: score formula violated"));
    }

    // Guides.
    if !outcome.guides.covers_pins(design) {
        return Err(format!("{label}: guides do not cover all pins"));
    }

    // Determinism.
    let again = Router::new(config)
        .run(design)
        .map_err(|e| format!("{label}: rerun failed: {e}"))?;
    if again.routes != outcome.routes {
        return Err(format!("{label}: nondeterministic routes"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let iterations: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10);
    let mut rng = SplitMix64::new(0xFA57_617B);
    let mut failures = 0u32;
    for i in 0..iterations {
        let design = random_design(&mut rng, i);
        print!(
            "[{}/{iterations}] {} ({} nets, {} layers) ... ",
            i + 1,
            design.name(),
            design.nets().len(),
            design.layers()
        );
        let presets = [
            ("cugr", RouterConfig::cugr()),
            ("fastgr-l", RouterConfig::fastgr_l()),
            ("fastgr-h", RouterConfig::fastgr_h()),
        ];
        let mut ok = true;
        for (label, mut config) in presets {
            config.validate = true;
            if let Err(e) = check(&design, label, config) {
                println!("FAIL: {e}");
                failures += 1;
                ok = false;
                break;
            }
        }
        if ok {
            println!("ok");
        }
    }
    if failures == 0 {
        println!("stress: all {iterations} designs passed on every preset");
        ExitCode::SUCCESS
    } else {
        println!("stress: {failures} failures");
        ExitCode::FAILURE
    }
}
