//! Quickstart: route a small synthetic design with FastGR_L and print the
//! solution quality, the measured stage times and the modelled device time.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fastgr::core::{Router, RouterConfig};
use fastgr::design::Generator;
use fastgr::Recorder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 16x16, 5-layer design with 64 nets. Same seed, same design.
    let design = Generator::tiny(42).generate();
    println!("{design}");

    // FastGR_L: GPU-accelerated L-shape pattern routing + task-graph RRR,
    // recorded so the run trace carries stage spans and kernel events.
    let recorder = Recorder::enabled();
    let outcome = Router::new(RouterConfig::fastgr_l()).run_with_recorder(&design, &recorder)?;
    let trace = &outcome.trace;

    println!("routed {} nets", outcome.routes.len());
    println!("quality: {}", outcome.metrics);
    // Measured wall time and modelled device time never share a figure.
    let ms = |s: f64| s * 1e3;
    let (planning, pattern) = (trace.span_seconds("planning"), trace.span_seconds("pattern"));
    println!("measured: planning {:.3} ms, pattern {:.3} ms", ms(planning), ms(pattern));
    println!("modelled: device {:.3} ms", ms(trace.modeled_device_seconds()));
    println!("pattern batches: {}", trace.pattern_batches());
    println!("congestion: {}", outcome.report);
    let ripped = trace.nets_ripped();
    if ripped.is_empty() {
        println!("no rip-up and reroute was needed");
    } else {
        println!("nets ripped per iteration: {ripped:?}");
    }

    // The guides are what a detailed router consumes.
    println!("{}", outcome.guides);
    assert!(outcome.guides.covers_pins(&design));
    Ok(())
}
