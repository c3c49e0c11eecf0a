//! Geometry substrate for the OARSMT RL router reproduction.
//!
//! This crate provides everything "below" the routers and the neural agent:
//!
//! * physical coordinates, rectangles and obstacles ([`coord`], [`rect`]),
//! * physical layouts with pins and multi-layer obstacles ([`layout`]),
//! * construction of **3D Hanan grid graphs** from physical layouts and
//!   directly as synthetic grids ([`hanan`]) — the input representation of
//!   the paper (Section 2.2, Fig. 1),
//! * random workload generators replicating the paper's training schedule
//!   (Section 3.6) and the randomly generated test subsets of Table 1
//!   ([`gen`]),
//! * synthetic re-creations of the public benchmark layouts rt1–rt5 and
//!   ind1–ind3 used in Table 4 ([`benchmarks`]).
//!
//! # Example
//!
//! ```
//! use oarsmt_geom::hanan::{HananGraph, VertexKind};
//! use oarsmt_geom::coord::GridPoint;
//!
//! // A synthetic 4x4 single-layer Hanan graph with unit edge costs.
//! let mut g = HananGraph::uniform(4, 4, 1, 1.0, 1.0, 3.0);
//! g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
//! g.add_pin(GridPoint::new(3, 3, 0)).unwrap();
//! assert_eq!(g.pins().len(), 2);
//! assert_eq!(g.kind(GridPoint::new(0, 0, 0)), VertexKind::Pin);
//! ```

#![forbid(unsafe_code)]

pub mod benchmarks;
pub mod coord;
pub mod error;
pub mod gen;
pub mod hanan;
pub mod io;
pub mod layout;
pub mod rect;

pub use coord::{Coord, GridPoint};
pub use error::GeomError;
pub use gen::{CaseGenerator, GeneratorConfig, TestSubsetSpec};
pub use hanan::{HananGraph, VertexKind, MAX_VERTICES};
pub use layout::{Layout, Pin};
pub use rect::{Obstacle, Rect};
