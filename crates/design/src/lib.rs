//! Netlist model and synthetic benchmark suite for the FastGR reproduction.
//!
//! The paper evaluates on the ICCAD2019 contest benchmarks (Table III),
//! which are large proprietary LEF/DEF dumps. This crate substitutes a
//! deterministic *synthetic* suite with the same structure at reduced scale
//! (see `DESIGN.md` §4–5): clustered pins with a long-tailed net-size
//! distribution, macro blockages, and 9-layer / 5-layer (`…m`) variants of
//! every design.
//!
//! Contents:
//!
//! * [`Pin`], [`Net`], [`Design`] — the netlist model;
//! * [`Generator`] / [`GeneratorParams`] — the seeded synthetic generator;
//! * [`suite`] / [`BenchmarkSpec`] — the 12-benchmark suite mirroring
//!   Table III;
//! * [`Design::to_text`] / [`Design::from_text`] — a plain-text design
//!   interchange format.
//!
//! # Example
//!
//! ```
//! use fastgr_design::Generator;
//!
//! let design = Generator::tiny(7).generate();
//! assert!(design.nets().len() >= 32);
//! // Round-trips through the text format.
//! let text = design.to_text();
//! let back = fastgr_design::Design::from_text(&text)?;
//! assert_eq!(design, back);
//! # Ok::<(), fastgr_design::ParseDesignError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod format;
mod generate;
mod ispd;
mod net;
mod proptests;
mod rng;
mod suite;

pub use error::ParseDesignError;
pub use generate::{Generator, GeneratorParams};
pub use net::{Design, Net, NetId, Pin};
pub use rng::SplitMix64;
pub use suite::{suite, BenchmarkSpec};
