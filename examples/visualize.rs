//! Render a routed design and its congestion map to SVG files.
//!
//! ```text
//! cargo run --release --example visualize [out-dir]
//! ```

use std::fs;

use fastgr::core::{Router, RouterConfig};
use fastgr::design::Generator;
use fastgr::grid::CostParams;
use fastgr::viz::SvgRenderer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| std::env::temp_dir().display().to_string());
    let design = Generator::tiny(12).generate();
    let outcome = Router::new(RouterConfig::fastgr_h()).run(&design)?;

    let renderer = SvgRenderer::new();

    // Routed wires, layer colour-coded.
    let routes_svg = renderer.render_routes(&design, &outcome.routes);
    let routes_path = format!("{out_dir}/fastgr-routes.svg");
    fs::write(&routes_path, &routes_svg)?;
    println!("wrote {routes_path} ({} bytes)", routes_svg.len());

    // Congestion heat after recommitting the routes onto a fresh grid.
    let graph = design.build_graph(CostParams::default())?;
    for route in &outcome.routes {
        graph.commit(route)?;
    }
    let heat_svg = renderer.render_congestion(&graph);
    let heat_path = format!("{out_dir}/fastgr-congestion.svg");
    fs::write(&heat_path, &heat_svg)?;
    println!("wrote {heat_path} ({} bytes)", heat_svg.len());

    println!("quality: {}", outcome.metrics);
    Ok(())
}
