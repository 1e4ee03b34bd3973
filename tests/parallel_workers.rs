//! Task-graph rip-up and reroute is deterministic under real threads:
//! with `FASTGR_WORKERS=4` the executor runs `min(4, workers)` threads, and
//! a congested design must route to the same route set at every worker
//! count and on every repetition. This binary holds one test because the
//! environment variable is process-wide.

use fastgr::core::{Router, RouterConfig};
use fastgr::design::{Generator, GeneratorParams};
use fastgr::grid::Route;

#[test]
fn fastgr_l_routes_are_identical_across_threads_and_runs() {
    std::env::set_var("FASTGR_WORKERS", "4");
    // Congested enough that RRR reroutes hundreds of nets whose maze
    // windows overlap, the case where in-flight commits of one task could
    // leak into a concurrent task's search.
    let design = Generator::new(GeneratorParams {
        name: "parallel-fixture".to_string(),
        width: 40,
        height: 40,
        layers: 5,
        num_nets: 1000,
        capacity: 3.0,
        hotspots: 2,
        hotspot_affinity: 0.6,
        blockages: 2,
        seed: 11,
    })
    .generate();
    let mut route_sets: Vec<(usize, Vec<Route>)> = Vec::new();
    for workers in [1usize, 2, 4] {
        for _ in 0..3 {
            let outcome = Router::new(RouterConfig {
                workers,
                ..RouterConfig::fastgr_l()
            })
            .run(&design)
            .expect("routable");
            if !route_sets
                .iter()
                .any(|(_, routes)| *routes == outcome.routes)
            {
                route_sets.push((workers, outcome.routes));
            }
        }
    }
    let first_seen: Vec<usize> = route_sets.iter().map(|(w, _)| *w).collect();
    assert_eq!(
        route_sets.len(),
        1,
        "distinct route sets, first seen at workers {first_seen:?}"
    );
}
