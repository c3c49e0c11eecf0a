//! Spanning-graph baseline router in the spirit of \[12\]
//! (C.-W. Lin et al., *"Multilayer obstacle-avoiding rectilinear Steiner
//! tree construction based on spanning graphs"*, TCAD 2008).
//!
//! The paper copies \[12\]'s published Table-4 numbers; this module provides
//! a behavioural stand-in (DESIGN.md §5, substitution 3): a terminal-level
//! minimum spanning tree whose edge weights are obstacle-avoiding maze
//! distances, with each MST edge embedded independently. No Steiner points
//! are inserted and no retracing is performed, so this router produces the
//! *highest* routing costs of the three baselines — matching its role in
//! Table 4.

use std::fmt;

use oarsmt_geom::HananGraph;
use oarsmt_graph::dijkstra::{DijkstraWorkspace, QueuePolicy};
use oarsmt_graph::mst::prim_mst;
use oarsmt_graph::GridAdjacency;

use crate::error::RouteError;
use crate::tree::RouteTree;

/// The \[12\]-style spanning-graph router.
#[derive(Debug, Clone, Default)]
pub struct SpanningRouter {
    _private: (),
}

impl SpanningRouter {
    /// Creates the router.
    pub fn new() -> Self {
        SpanningRouter::default()
    }

    /// Routes the graph's pins by embedding each MST edge independently.
    ///
    /// # Errors
    ///
    /// * [`RouteError::TooFewTerminals`] if the graph has fewer than two
    ///   pins.
    /// * [`RouteError::BlockedTerminal`] / [`RouteError::Disconnected`] on
    ///   blocked or mutually unreachable pins.
    pub fn route(&self, graph: &HananGraph) -> Result<RouteTree, RouteError> {
        let pins = graph.pins();
        let n = pins.len();
        if n < 2 {
            return Err(RouteError::TooFewTerminals(n));
        }
        let mut space = DijkstraWorkspace::new();
        let mut adj = GridAdjacency::new();
        adj.ensure(graph);

        // Dense pairwise obstacle-avoiding distances.
        let mut dist = vec![0.0f64; n * n];
        for (i, &p) in pins.iter().enumerate() {
            let d = space
                .distances_from(graph, &adj, p)
                .map_err(RouteError::from)?;
            for (j, &q) in pins.iter().enumerate() {
                dist[i * n + j] = d[graph.index(q)];
            }
        }
        let mst = prim_mst(&dist, n).map_err(RouteError::from)?;

        // Embed each MST edge with an independent maze route.
        let mut tree = RouteTree::new();
        let mut path = Vec::new();
        for e in &mst {
            let target = graph.index(pins[e.b]);
            space
                .search_into(
                    graph,
                    &adj,
                    &[pins[e.a]],
                    |i| i == target,
                    None,
                    QueuePolicy::Heap,
                    &[],
                    &mut path,
                )
                .map_err(RouteError::from)?;
            for w in path.windows(2) {
                tree.add_edge(graph, w[0], w[1]);
            }
        }
        Ok(tree)
    }
}

impl fmt::Display for SpanningRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("spanning-graph router")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oarmst::OarmstRouter;
    use oarsmt_geom::GridPoint;

    fn pins(g: &mut HananGraph, pts: &[(usize, usize, usize)]) {
        for &(h, v, m) in pts {
            g.add_pin(GridPoint::new(h, v, m)).unwrap();
        }
    }

    #[test]
    fn two_pin_route_matches_shortest_path() {
        let mut g = HananGraph::uniform(5, 5, 1, 1.0, 1.0, 3.0);
        pins(&mut g, &[(0, 0, 0), (4, 4, 0)]);
        let t = SpanningRouter::new().route(&g).unwrap();
        assert_eq!(t.cost(), 8.0);
    }

    #[test]
    fn spanning_router_never_beats_oarmst_with_good_candidates() {
        // For a 4-arm cross, OARMST with the center candidate gives cost 8
        // while the spanning tree without Steiner points costs more.
        let mut g = HananGraph::uniform(5, 5, 1, 1.0, 1.0, 3.0);
        pins(&mut g, &[(0, 2, 0), (4, 2, 0), (2, 0, 0), (2, 4, 0)]);
        let span = SpanningRouter::new().route(&g).unwrap();
        let steiner = OarmstRouter::new()
            .route(&g, &[GridPoint::new(2, 2, 0)])
            .unwrap();
        assert_eq!(steiner.cost(), 8.0);
        assert!(span.cost() >= steiner.cost());
    }

    #[test]
    fn spanning_tree_spans_and_connects() {
        use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
        let mut gen = CaseGenerator::new(GeneratorConfig::tiny(9, 9, 2, (4, 7)), 23);
        for g in gen.generate_many(8) {
            match SpanningRouter::new().route(&g) {
                Ok(t) => {
                    assert!(t.spans_in(&g, g.pins()));
                    // Edge-sharing may create degree>=3 joints but the edge
                    // set must still be connected; is_tree can be false only
                    // through cycles formed by overlapping embeddings, which
                    // dedup prevents for distinct MST paths in practice.
                    assert!(t.cost() > 0.0);
                }
                Err(RouteError::Disconnected { .. }) => {}
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }

    #[test]
    fn too_few_pins_is_an_error() {
        let g = HananGraph::uniform(3, 3, 1, 1.0, 1.0, 3.0);
        assert_eq!(
            SpanningRouter::new().route(&g),
            Err(RouteError::TooFewTerminals(0))
        );
    }
}
