//! `FASTGR_WORKERS=1` makes the whole router serial: the RRR executor is
//! sized by the same rule as the host pool. This binary holds one test
//! because the environment variable is process-wide.

use std::collections::BTreeSet;

use fastgr::core::{Router, RouterConfig};
use fastgr::design::{Generator, GeneratorParams};
use fastgr::Recorder;

#[test]
fn fastgr_workers_one_runs_rrr_tasks_on_one_worker() {
    std::env::set_var("FASTGR_WORKERS", "1");
    // The overflowing fixture of `telemetry_trace.rs`, so RRR runs.
    let design = Generator::new(GeneratorParams {
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
    .generate();
    let recorder = Recorder::enabled();
    let outcome = Router::new(RouterConfig::fastgr_l())
        .run_with_recorder(&design, &recorder)
        .expect("routable");
    let tracks: BTreeSet<u32> = outcome
        .trace
        .events()
        .iter()
        .filter(|e| e.cat == "task")
        .map(|e| e.track)
        .collect();
    assert_eq!(tracks.len(), 1, "task events on tracks {tracks:?}");
}
