//! The correctness gate every routed outcome passes, and the route hash.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use fastgr_core::{QualityMetrics, RoutingOutcome};
use fastgr_design::Design;
use fastgr_grid::{CostParams, Route};

/// Checks `outcome` against `design`:
///
/// * one connected route per net;
/// * the guides cover every pin;
/// * the demand ledger is exact: committing the routes to a fresh grid
///   reproduces the reported congestion, and uncommitting them again
///   leaves zero wire and via demand;
/// * the reported quality metrics match a recomputation from the routes.
///
/// # Errors
///
/// Describes the first check that failed.
pub fn verify(design: &Design, cost: CostParams, outcome: &RoutingOutcome) -> Result<(), String> {
    let routes = &outcome.routes;
    if routes.len() != design.nets().len() {
        return Err(format!(
            "{} routes for {} nets",
            routes.len(),
            design.nets().len()
        ));
    }
    if let Some(net) = routes.iter().position(|r| !r.is_connected()) {
        return Err(format!("route of net {net} is not connected"));
    }
    if !outcome.guides.covers_pins(design) {
        return Err("guides leave a pin uncovered".into());
    }

    let mut graph = design.build_graph(cost).map_err(|e| e.to_string())?;
    for route in routes {
        graph.commit(route).map_err(|e| format!("commit: {e}"))?;
    }
    let report = graph.report();
    if report != outcome.report {
        return Err(format!(
            "reported congestion {:?} differs from the routes' demand {report:?}",
            outcome.report
        ));
    }
    let recomputed = QualityMetrics {
        wirelength: routes.iter().map(Route::wirelength).sum(),
        vias: routes.iter().map(Route::via_count).sum(),
        shorts: report.shorts(),
    };
    if recomputed != outcome.metrics {
        return Err(format!(
            "reported metrics {} differ from recomputed {recomputed}",
            outcome.metrics
        ));
    }
    for route in routes {
        graph
            .uncommit(route)
            .map_err(|e| format!("uncommit: {e}"))?;
    }
    let empty = graph.report();
    if empty.total_wire_demand != 0.0 || empty.total_via_demand != 0.0 {
        return Err(format!(
            "demand left after uncommitting every route: wire {}, via {}",
            empty.total_wire_demand, empty.total_via_demand
        ));
    }
    Ok(())
}

/// A hash of the whole route set: equal route sets hash equal within one
/// build of the benchmark.
pub fn route_hash(routes: &[Route]) -> u64 {
    let mut hasher = DefaultHasher::new();
    for route in routes {
        route.segments().hash(&mut hasher);
        route.vias().hash(&mut hasher);
    }
    hasher.finish()
}
