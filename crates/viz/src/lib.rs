//! SVG visualisation of FastGR designs, routes and congestion maps.
//!
//! Global routers are visual beasts: a congestion heat map or a routed-net
//! overlay tells you in seconds what a table of overflow numbers cannot.
//! This crate renders, without any external dependency:
//!
//! * [`SvgRenderer::render_routes`] — the routed wires of a design, layers
//!   colour-coded, vias as dots, pins as squares, blockages shaded;
//! * [`SvgRenderer::render_congestion`] — the 2-D congestion heat map of a
//!   [`GridGraph`] (green → red, overflow in magenta).
//!
//! # Example
//!
//! ```
//! use fastgr_design::Generator;
//! use fastgr_grid::{Point2, Route, Segment};
//! use fastgr_viz::SvgRenderer;
//!
//! let design = Generator::tiny(1).generate();
//! let mut routes = vec![Route::new(); design.nets().len()];
//! let mut r = Route::new();
//! r.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(5, 0)));
//! routes[0] = r;
//! let svg = SvgRenderer::new().render_routes(&design, &routes);
//! assert!(svg.starts_with("<svg"));
//! assert!(svg.contains("<line"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use fastgr_design::Design;
use fastgr_grid::{GridGraph, Route};

/// Pixels per G-cell.
const CELL_PX: f64 = 10.0;

/// Stroke width of wires in pixels.
const WIRE_PX: f64 = 2.0;

/// Colour of a metal layer (stable palette, cycled above 10 layers).
fn layer_color(layer: u8) -> &'static str {
    const PALETTE: [&str; 10] = [
        "#888888", // M0 pin layer
        "#1f77b4", // M1
        "#d62728", // M2
        "#2ca02c", // M3
        "#9467bd", // M4
        "#ff7f0e", // M5
        "#17becf", // M6
        "#e377c2", // M7
        "#bcbd22", // M8
        "#7f7f7f", // M9
    ];
    PALETTE[(layer as usize) % PALETTE.len()]
}

/// Linear green→red heat colour with magenta overflow.
fn heat_color(utilization: f64) -> String {
    if utilization > 1.0 {
        return "#ff00ff".to_owned();
    }
    let u = utilization.clamp(0.0, 1.0);
    let r = (255.0 * u) as u8;
    let g = (200.0 * (1.0 - u)) as u8;
    format!("#{r:02x}{g:02x}40")
}

/// Opening `<svg>` tag and white background of a `width`×`height` grid.
fn header(width: u16, height: u16) -> String {
    let w = width as f64 * CELL_PX;
    let h = height as f64 * CELL_PX;
    format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
         viewBox=\"0 0 {w} {h}\">\n<rect width=\"{w}\" height=\"{h}\" fill=\"#ffffff\"/>\n"
    )
}

/// Pixel centre of a G-cell (y flipped so row 0 is at the bottom, as in
/// chip coordinates).
fn centre(x: u16, y: u16, height: u16) -> (f64, f64) {
    (
        (x as f64 + 0.5) * CELL_PX,
        (height as f64 - 1.0 - y as f64 + 0.5) * CELL_PX,
    )
}

/// The SVG renderer. See the crate docs for an example.
#[derive(Debug, Clone, Copy, Default)]
pub struct SvgRenderer;

impl SvgRenderer {
    /// Creates a renderer.
    pub fn new() -> Self {
        Self
    }

    /// Renders the routed geometry of a design as an SVG document.
    ///
    /// # Panics
    ///
    /// Panics if `routes.len()` differs from the design's net count.
    pub fn render_routes(&self, design: &Design, routes: &[Route]) -> String {
        assert_eq!(routes.len(), design.nets().len(), "one route per net");
        let (w, h) = (design.width(), design.height());
        let mut svg = header(w, h);

        // Blockages as shaded rectangles.
        for b in design.blockages() {
            let (x0, y0) = centre(b.region.lo.x, b.region.hi.y, h);
            let bw = b.region.width() as f64 * CELL_PX;
            let bh = b.region.height() as f64 * CELL_PX;
            let _ = writeln!(
                svg,
                "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{bw:.1}\" height=\"{bh:.1}\" \
                 fill=\"#000000\" fill-opacity=\"0.15\"/>",
                x0 - 0.5 * CELL_PX,
                y0 - 0.5 * CELL_PX,
            );
        }

        // Wires, lowest layers first so upper layers draw on top.
        let mut segments: Vec<(u8, f64, f64, f64, f64)> = Vec::new();
        for route in routes {
            for s in route.segments() {
                let (x1, y1) = centre(s.from.x, s.from.y, h);
                let (x2, y2) = centre(s.to.x, s.to.y, h);
                segments.push((s.layer, x1, y1, x2, y2));
            }
        }
        segments.sort_by_key(|s| s.0);
        for (layer, x1, y1, x2, y2) in segments {
            let _ = writeln!(
                svg,
                "<line x1=\"{x1:.1}\" y1=\"{y1:.1}\" x2=\"{x2:.1}\" y2=\"{y2:.1}\" \
                 stroke=\"{}\" stroke-width=\"{:.1}\" stroke-opacity=\"0.8\"/>",
                layer_color(layer),
                WIRE_PX,
            );
        }

        for route in routes {
            for v in route.vias() {
                let (cx, cy) = centre(v.at.x, v.at.y, h);
                let _ = writeln!(
                    svg,
                    "<circle cx=\"{cx:.1}\" cy=\"{cy:.1}\" r=\"{:.1}\" fill=\"#333333\"/>",
                    WIRE_PX * 0.9,
                );
            }
        }

        let s = WIRE_PX * 1.6;
        for net in design.nets() {
            for pin in net.pins() {
                let (cx, cy) = centre(pin.position.x, pin.position.y, h);
                let _ = writeln!(
                    svg,
                    "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{s:.1}\" height=\"{s:.1}\" \
                     fill=\"#000000\"/>",
                    cx - s / 2.0,
                    cy - s / 2.0,
                );
            }
        }

        svg.push_str("</svg>\n");
        svg
    }

    /// Renders the 2-D congestion heat map of a grid as an SVG document.
    pub fn render_congestion(&self, graph: &GridGraph) -> String {
        let (w, h) = (graph.width(), graph.height());
        let heat = graph.congestion_heatmap();
        let mut svg = header(w, h);
        let c = CELL_PX;
        for y in 0..h {
            for x in 0..w {
                let u = heat[y as usize * w as usize + x as usize];
                if u <= 0.0 {
                    continue;
                }
                let (cx, cy) = centre(x, y, h);
                let _ = writeln!(
                    svg,
                    "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{c:.1}\" height=\"{c:.1}\" \
                     fill=\"{}\"/>",
                    cx - c / 2.0,
                    cy - c / 2.0,
                    heat_color(u),
                );
            }
        }
        svg.push_str("</svg>\n");
        svg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgr_design::Generator;
    use fastgr_grid::{CostParams, Point2, Segment, Via};

    fn sample() -> (Design, Vec<Route>) {
        let design = Generator::tiny(3).generate();
        let mut routes = vec![Route::new(); design.nets().len()];
        let mut r = Route::new();
        r.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(5, 0)));
        r.push_via(Via::new(Point2::new(5, 0), 1, 2));
        r.push_segment(Segment::new(2, Point2::new(5, 0), Point2::new(5, 4)));
        routes[0] = r;
        (design, routes)
    }

    #[test]
    fn routes_svg_is_well_formed() {
        let (design, routes) = sample();
        let svg = SvgRenderer::new().render_routes(&design, &routes);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // Two wire segments, one via dot.
        assert_eq!(svg.matches("<line").count(), 2);
        assert!(svg.matches("<circle").count() >= 1);
        // Pins of 64 nets are drawn.
        assert!(svg.matches("<rect").count() > 64);
    }

    #[test]
    fn layer_colors_differ_per_layer() {
        let (design, mut routes) = sample();
        let mut r2 = Route::new();
        r2.push_segment(Segment::new(3, Point2::new(0, 2), Point2::new(4, 2)));
        routes[1] = r2;
        let svg = SvgRenderer::new().render_routes(&design, &routes);
        assert!(svg.contains(layer_color(1)));
        assert!(svg.contains(layer_color(3)));
        assert_ne!(layer_color(1), layer_color(3));
    }

    #[test]
    fn congestion_svg_shows_overflow_in_magenta() {
        let mut g = GridGraph::new(8, 8, 4, CostParams::default()).expect("valid");
        g.fill_capacity(1.0);
        let mut r = Route::new();
        r.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(7, 0)));
        g.commit(&r).expect("valid");
        g.commit(&r).expect("valid"); // overflow
        let svg = SvgRenderer::new().render_congestion(&g);
        assert!(svg.contains("#ff00ff"));
    }

    #[test]
    fn empty_grid_renders_background_only() {
        let g = GridGraph::new(8, 8, 4, CostParams::default()).expect("valid");
        let svg = SvgRenderer::new().render_congestion(&g);
        // Just the background rect and the frame.
        assert_eq!(svg.matches("<rect").count(), 1);
    }

    #[test]
    fn heat_color_is_monotone_red() {
        let parse_r = |s: &str| u8::from_str_radix(&s[1..3], 16).unwrap();
        let low = parse_r(&heat_color(0.1));
        let high = parse_r(&heat_color(0.9));
        assert!(low < high);
        assert_eq!(heat_color(1.5), "#ff00ff");
    }
}
