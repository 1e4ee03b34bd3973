//! FastGR — global routing on CPU–GPU with a heterogeneous task graph
//! scheduler, reproduced in Rust.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`grid`] — the 3-D G-cell grid graph, capacities and the cost model,
//! * [`design`] — netlist model and the synthetic ICCAD2019-like suite,
//! * [`steiner`] — Steiner tree construction and DFS intranet ordering,
//! * [`gpu`] — the simulated CUDA-like device and min-plus flow kernels,
//! * [`taskgraph`] — batch extraction, the task graph scheduler, executor,
//! * [`maze`] — 3-D maze routing for rip-up-and-reroute,
//! * [`core`] — the FastGR router itself (pattern stage + RRR + scoring),
//! * [`dr`] — the Dr.CU-substitute detailed router used for evaluation,
//! * [`viz`] — SVG rendering of routes and congestion maps,
//! * [`analysis`] — schedule soundness validator and happens-before race
//!   checker,
//! * [`telemetry`] — the run-trace recorder: stage spans, counters and
//!   kernel events aggregated into a [`RunTrace`], exportable as a summary
//!   table or Chrome `trace_event` JSON (`fastgr route --trace out.json`).
//!
//! # Quickstart
//!
//! ```
//! use fastgr::core::{Router, RouterConfig};
//! use fastgr::design::Generator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tiny synthetic design (64 nets on a 16x16 grid with 5 layers).
//! let design = Generator::tiny(42).generate();
//! let outcome = Router::new(RouterConfig::fastgr_l()).run(&design)?;
//! assert!(outcome.metrics.score() >= 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use fastgr_analysis as analysis;
pub use fastgr_core as core;
pub use fastgr_design as design;
pub use fastgr_dr as dr;
pub use fastgr_gpu as gpu;
pub use fastgr_grid as grid;
pub use fastgr_maze as maze;
pub use fastgr_steiner as steiner;
pub use fastgr_taskgraph as taskgraph;
pub use fastgr_telemetry as telemetry;
pub use fastgr_viz as viz;

// The telemetry vocabulary is part of the top-level API: `Recorder` feeds
// `Router::run_with_recorder`, and every `RoutingOutcome` carries a
// `RunTrace` of `Span`s and `Counter`s.
pub use fastgr_telemetry::{Counter, Recorder, RunTrace, Span};

// `cargo test` compiles and runs every snippet of the library guide.
#[cfg(doctest)]
#[doc = include_str!("../docs/using_the_library.md")]
struct UsingTheLibraryGuide;
