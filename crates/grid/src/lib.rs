//! 3-D G-cell grid graph substrate for the FastGR global router.
//!
//! Global routing abstracts the chip into *G-cells* forming uniform
//! horizontal/vertical grids on every metal layer. This crate provides:
//!
//! * geometric primitives ([`Point2`], [`Point3`], [`Rect`]),
//! * the layer model with preferred routing directions ([`Direction`],
//!   [`LayerInfo`]),
//! * the routing-resource graph itself ([`GridGraph`]) with per-edge
//!   capacity/demand bookkeeping for wire edges and via edges,
//! * the CUGR-style logistic congestion cost model ([`CostParams`]),
//! * routed-net geometry ([`Route`], [`Segment`], [`Via`]) with
//!   commit/uncommit of routing demand, and
//! * congestion / overflow reporting ([`CongestionReport`]).
//!
//! # Example
//!
//! ```
//! use fastgr_grid::{CostParams, Direction, GridGraph, Point2, Route, Segment};
//!
//! # fn main() -> Result<(), fastgr_grid::GridError> {
//! // A 16x16 grid with 4 metal layers (layer 0 is the pin layer, capacity 0).
//! let mut graph = GridGraph::new(16, 16, 4, CostParams::default())?;
//! graph.fill_capacity(2.0);
//!
//! // Route a horizontal wire on layer 1 (horizontal preferred direction).
//! assert_eq!(graph.layer(1).direction, Direction::Horizontal);
//! let mut route = Route::new();
//! route.push_segment(Segment::new(1, Point2::new(1, 3), Point2::new(6, 3)));
//! graph.commit(&route)?;
//!
//! assert_eq!(route.wirelength(), 5);
//! assert_eq!(graph.report().total_wire_demand, 5.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod congestion;
mod cost;
mod error;
mod geom;
mod graph;
mod layer;
mod prober;
mod proptests;
mod route;

pub use congestion::CongestionReport;
pub use cost::CostParams;
pub use error::GridError;
pub use geom::{Point2, Point3, Rect};
pub use graph::{cost_to_fixed, GridGraph};
pub use layer::{Direction, LayerInfo};
pub use prober::CostProber;
pub use route::{Route, Segment, Via};
