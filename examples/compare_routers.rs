//! Compare the three router variants (CUGR baseline, FastGR_L, FastGR_H)
//! on one congested suite benchmark — a one-design slice of Tables VII–IX.
//!
//! ```text
//! cargo run --release --example compare_routers [benchmark-name]
//! ```

use fastgr::core::{Router, RouterConfig};
use fastgr::design::BenchmarkSpec;
use fastgr::telemetry::Stopwatch;
use fastgr::Recorder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "s18t5m".to_owned());
    let spec = BenchmarkSpec::find(&name)
        .ok_or_else(|| format!("unknown benchmark {name:?}; see `fastgr::design::suite()`"))?;
    let design = spec.generate();
    println!("{design} (analogue of ICCAD2019 {})\n", spec.paper_analogue);

    let variants = [
        ("CUGR (baseline)", RouterConfig::cugr()),
        ("FastGR_L", RouterConfig::fastgr_l()),
        ("FastGR_H", RouterConfig::fastgr_h()),
    ];

    let mut baseline_wall = None;
    for (label, config) in variants {
        let clock = Stopwatch::start();
        let outcome = Router::new(config).run_with_recorder(&design, &Recorder::enabled())?;
        let wall = clock.elapsed_seconds();
        let speedup = baseline_wall
            .map(|b: f64| format!("{:.2}x", b / wall))
            .unwrap_or_else(|| "1.00x".to_owned());
        baseline_wall.get_or_insert(wall);
        let trace = &outcome.trace;
        println!("{label}");
        println!("  quality:  {}", outcome.metrics);
        println!("  measured: {wall:.3} s wall, {speedup} over the baseline");
        let device_ms = trace.modeled_device_seconds() * 1e3;
        let rrr_ms = trace.sample_total("rrr.modeled_parallel_s") * 1e3;
        println!("  modelled: device {device_ms:.3} ms, rrr parallel {rrr_ms:.3} ms");
        println!("  ripped:   {:?}", trace.nets_ripped());
        println!();
    }
    Ok(())
}
