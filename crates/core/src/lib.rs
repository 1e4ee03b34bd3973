//! The FastGR global-routing framework (the paper's contribution).
//!
//! FastGR is a two-stage global router accelerated for CPU–GPU platforms:
//!
//! 1. a **pattern routing stage** that routes every net with GPU-friendly
//!    3-D pattern kernels — [`PatternMode::LShape`] (FastGR_L) or the
//!    hybrid-shape kernel with the selection technique
//!    ([`PatternMode::Hybrid`], FastGR_H) — batched by the task graph
//!    scheduler and executed on the (simulated) device;
//! 2. **rip-up-and-reroute iterations** that re-route the violating nets
//!    with 3-D maze routing, parallelised by the same task graph scheduler
//!    (or the baseline batch-barrier strategy, for comparison).
//!
//! The main entry point is [`Router`] with a [`RouterConfig`] preset:
//!
//! ```
//! use fastgr_core::{Router, RouterConfig};
//! use fastgr_design::Generator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let design = Generator::tiny(1).generate();
//! let outcome = Router::new(RouterConfig::fastgr_l()).run(&design)?;
//! println!("score = {}", outcome.metrics.score());
//! assert!(outcome.metrics.wirelength > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod dp;
mod error;
mod guides;
mod metrics;
mod ordering;
mod pattern;
mod router;
mod rrr;
mod selection;

pub use analysis::rudy_map;
pub use dp::{DpScratch, DpSummary, NetDpResult, PatternDp, PatternMode};
pub use error::RouteError;
pub use guides::{GuideBox, RouteGuides};
pub use metrics::QualityMetrics;
pub use ordering::SortingScheme;
pub use pattern::{PatternEngine, PatternOutcome, PatternStage};
pub use router::{Router, RouterConfig, RoutingOutcome};
pub use rrr::{RrrOutcome, RrrStage, RrrStrategy};
pub use selection::{NetClass, SelectionThresholds};
