//! The heterogeneous task graph scheduler of FastGR (paper Section III-B).
//!
//! Routing tasks (net batches in the pattern stage, single nets in the
//! rip-up-and-reroute stage) *conflict* when their bounding boxes overlap —
//! they would mutate the same routing resources, so they must not run
//! concurrently. This crate provides the full scheduling pipeline:
//!
//! * [`ConflictGraph`] — bounding-box conflict detection, stored as a flat
//!   CSR graph (`first_out`/`head` arrays, sorted rows). A bucket grid sized
//!   to the mean box extent keeps construction near-linear; each pair is
//!   emitted only from the bucket holding its intersection's lower-left
//!   corner, so no dedup set is needed; and count-then-fill passes keep the
//!   construction's peak heap within 1.5× of the finished graph;
//! * [`extract_batches`] — **Algorithm 1**: greedy maximal independent-set
//!   batch extraction following a caller-provided net order;
//! * [`Schedule`] — the **two-stage task graph scheduler**: extract one root
//!   task batch, then orient every conflict edge (root → non-root, otherwise
//!   smaller task id → larger), yielding a DAG by construction, with
//!   work/span (critical path) accounting;
//! * [`Executor`] — a Taskflow-substitute dependency-graph executor running
//!   the scheduled DAG on CPU worker threads with maximum parallelism.
//!
//! # Example
//!
//! ```
//! use fastgr_grid::{Point2, Rect};
//! use fastgr_taskgraph::{ConflictGraph, Executor, Schedule};
//!
//! let boxes = vec![
//!     Rect::new(Point2::new(0, 0), Point2::new(4, 4)),
//!     Rect::new(Point2::new(2, 2), Point2::new(6, 6)),  // conflicts with 0
//!     Rect::new(Point2::new(8, 8), Point2::new(9, 9)),  // independent
//! ];
//! let conflicts = ConflictGraph::from_bounding_boxes(&boxes);
//! let order: Vec<u32> = vec![0, 1, 2];
//! let schedule = Schedule::build(&order, &conflicts);
//! // Tasks 0 and 2 form the root batch; 1 waits for 0.
//! assert_eq!(schedule.root_batch(), &[0, 2]);
//!
//! let log = std::sync::Mutex::new(Vec::new());
//! Executor::new(2).run(&schedule, |task| log.lock().unwrap().push(task), &());
//! assert_eq!(log.into_inner().unwrap().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod batch;
mod conflict;
mod executor;
mod schedule;

pub use batch::extract_batches;
pub use conflict::ConflictGraph;
pub use executor::Executor;
pub use schedule::Schedule;
