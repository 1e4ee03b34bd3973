//! 3-D maze routing for FastGR's rip-up-and-reroute iterations.
//!
//! Pattern routing restricts the search space for speed; the nets it cannot
//! route violation-free are re-routed here with a full 3-D shortest-path
//! search over the grid graph (paper Section III-G). The router is a
//! multi-terminal A* (or plain Dijkstra) restricted to an inflated
//! bounding-box window:
//!
//! 1. start with the first pin as the routed component;
//! 2. run a multi-source shortest-path search from every vertex of the
//!    component to the next unconnected pin;
//! 3. back-trace the winning path, merge it into the component, repeat.
//!
//! Moves follow the grid-graph semantics: wire steps along the preferred
//! direction of layers with non-zero capacity, via steps between adjacent
//! layers.
//!
//! **Window rule.** A net is searched inside [`MazeConfig::window`]: the
//! bounding box of its pins inflated by [`MazeConfig::window_margin`] and
//! clipped to the grid. Every segment and via of the route lies inside
//! it, and the RRR stage builds its conflict boxes from the same function,
//! so tasks with disjoint windows never touch a common edge. A search that
//! finds no path can be retried with [`MazeConfig::widened`].
//!
//! **Pricing.** When a net's window is bound, the router snapshots the
//! [`GridGraph`](fastgr_grid::GridGraph) congestion costs of every wire and
//! via edge inside it into flat arrays, in the grid's Q44.20 cost domain
//! (`GridGraph::{wire,via}_edge_cost_fixed`, the quantiser the pattern DP
//! and the cost prober share), and all the net's searches read those, so
//! the search detours around overflowed edges without calling back into
//! the grid per arc. [`MazeStats::path_cost`] is in the same units: it
//! equals [`GridGraph::route_cost`](fastgr_grid::GridGraph::route_cost) of
//! a two-pin route exactly.
//!
//! **Potential.** The same snapshot pass records, for each column boundary
//! of the window, the cheapest usable horizontal wire edge that crosses it
//! over every row and horizontal layer, and for each row boundary the same
//! over vertical edges; a boundary no usable edge crosses counts at
//! `unit_wire`. Both arrays are prefix-summed once per bind into `C` and
//! `R`, and every search of the net reuses them. The A* potential of a
//! vertex at `(x, y, l)` toward `(tx, ty, 0)` is the wire term
//! `|C[x] - C[tx]| + |R[y] - R[ty]|` plus a via term: `unit_via` for each
//! layer change down to layer 0 through the lowest layers that hold the
//! needed directions (all quantised by [`fastgr_grid::cost_to_fixed`]). A wire step across a
//! boundary costs at least its floor and leaves the via term unchanged, so
//! the potential is consistent and admissible, and in a congested window it
//! follows the window's real costs where a unit floor would price every
//! step as an empty edge (after Ahrens et al., "Faster Goal-Oriented
//! Shortest Path Search for Bulk and Incremental Detailed Routing").
//!
//! **Queue.** The search pops from a monotone radix heap over its `u64`
//! keys `g + h` (Ahuja, Mehlhorn, Orlin & Tarjan 1990): O(1) push and
//! amortised O(log C) pop for keys spanning C, where a binary heap pays
//! two O(log n) sift paths. A radix heap needs every pushed key to be at
//! least the last popped key. That holds because the potential is
//! consistent, which the proptest
//! `potential_is_consistent_on_every_snapshot_arc` checks on every arc of
//! random congested windows, and a debug assertion on every push catches
//! any lapse. Keys equal to the last popped key pop smallest window index
//! first, so the pops follow exact `(key, index)` order, the order of a
//! binary min-heap over the same pairs, and routes and search counters
//! do not depend on the queue.
//!
//! # Example
//!
//! ```
//! use fastgr_grid::{CostParams, GridGraph, Point2};
//! use fastgr_maze::{MazeConfig, MazeRouter};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut graph = GridGraph::new(16, 16, 4, CostParams::default())?;
//! graph.fill_capacity(4.0);
//! let router = MazeRouter::new(MazeConfig::default());
//! let route = router.route(&graph, &[Point2::new(1, 1), Point2::new(12, 9)])?;
//! assert!(route.is_connected());
//! assert!(route.wirelength() >= 19); // at least the HPWL
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod router;

pub use router::{MazeConfig, MazeError, MazeRouter, MazeScratch, MazeStats};
