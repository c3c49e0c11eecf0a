//! Graph-search substrate over 3D Hanan grid graphs.
//!
//! This crate hosts the search primitives every router in the reproduction
//! is built from:
//!
//! * [`dijkstra`] — multi-source Dijkstra over a
//!   [`HananGraph`](oarsmt_geom::HananGraph), the "maze router" of the
//!   paper's OARMST construction (Section 3.1, following \[14\]), behind
//!   one query method, [`DijkstraWorkspace::search_into`]. Each query
//!   picks a [`QueuePolicy`]: the retained binary-heap oracle, the
//!   [`bucket`]-queue (Dial) fast path — bit-identical to the heap on the
//!   paper's bounded-integer cost models — or an A\* lower-bound search
//!   ([`RectilinearBound`]), the one documented divergence (DESIGN.md
//!   §12),
//! * [`bucket`] — the circular bucket ring behind the Dial policy,
//! * [`csr`] — flattened CSR adjacency for the relaxation inner loop,
//! * [`stamp`] — `O(1)`-reset stamped index sets,
//! * [`mst`] — Prim's algorithm over dense terminal-distance matrices,
//! * [`union_find`] — disjoint sets, used for tree validation.
//!
//! # Example
//!
//! ```
//! use oarsmt_geom::{HananGraph, GridPoint};
//! use oarsmt_graph::{DijkstraWorkspace, GridAdjacency, QueuePolicy};
//!
//! let g = HananGraph::uniform(4, 4, 1, 1.0, 1.0, 3.0);
//! let mut adj = GridAdjacency::new();
//! adj.ensure(&g);
//! let to = g.index(GridPoint::new(3, 3, 0));
//! let mut path = Vec::new();
//! let cost = DijkstraWorkspace::new()
//!     .search_into(
//!         &g,
//!         &adj,
//!         &[GridPoint::new(0, 0, 0)],
//!         |i| i == to,
//!         None,
//!         QueuePolicy::Auto,
//!         &[],
//!         &mut path,
//!     )
//!     .expect("open grid is connected");
//! assert_eq!(cost, 6.0);
//! assert_eq!(path.len(), 7);
//! ```

#![forbid(unsafe_code)]

pub mod bucket;
pub mod csr;
pub mod dijkstra;
pub mod error;
pub mod mst;
pub mod stamp;
pub mod union_find;

pub use bucket::BucketQueue;
pub use csr::GridAdjacency;
pub use dijkstra::{DijkstraWorkspace, QueuePolicy, RectilinearBound, DIAL_MAX_EDGE_COST};
pub use error::GraphError;
pub use mst::{prim_mst, MstEdge};
pub use stamp::{StampMap, StampSet};
pub use union_find::UnionFind;
