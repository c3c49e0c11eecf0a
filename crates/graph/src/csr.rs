//! Compressed sparse-row adjacency for Hanan grid graphs.
//!
//! [`HananGraph::neighbors`] recomputes grid-point arithmetic and obstacle
//! lookups for every neighbor of every settled vertex — the innermost loop
//! of the maze router. [`GridAdjacency`] flattens that iteration once per
//! layout into index-based CSR arrays so repeated Dijkstra queries (an
//! OARMST construction runs one per Prim iteration, per prune round, per
//! polish reroute) pay only an array walk per relaxation.
//!
//! Neighbor order within each vertex is exactly the order
//! [`HananGraph::neighbors`] yields (+h, −h, +v, −v, +m, −m, skipping
//! blocked or out-of-bounds vertices), and edge costs are the same `f64`
//! values, so a Dijkstra driven by the CSR pushes the same heap entries in
//! the same order as the point-based iteration: results are bit-identical.

use oarsmt_geom::{HananGraph, VertexKind};

/// Flattened neighbor lists of a [`HananGraph`], plus the graph fingerprint
/// they were built from so a cached instance can revalidate itself cheaply.
///
/// The fingerprint covers everything the adjacency depends on — dimensions,
/// per-gap costs, via cost, and the full vertex-kind vector (obstacles
/// change connectivity) — so [`GridAdjacency::ensure`] is safe to call with
/// *any* graph, not just the one the cache was last built for.
///
/// # Example
///
/// ```
/// use oarsmt_geom::{GridPoint, HananGraph};
/// use oarsmt_graph::GridAdjacency;
///
/// let g = HananGraph::uniform(3, 3, 1, 1.0, 2.0, 3.0);
/// let mut adj = GridAdjacency::new();
/// adj.ensure(&g); // builds once
/// adj.ensure(&g); // no-op: fingerprint matches
/// let center = g.index(GridPoint::new(1, 1, 0));
/// let from_graph: Vec<(usize, f64)> = g
///     .neighbors(GridPoint::new(1, 1, 0))
///     .map(|(p, c)| (g.index(p), c))
///     .collect();
/// let from_csr: Vec<(usize, f64)> = adj
///     .neighbors(center)
///     .map(|(i, c)| (i as usize, c))
///     .collect();
/// assert_eq!(from_graph, from_csr);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GridAdjacency {
    /// CSR row offsets, length `n + 1`.
    offsets: Vec<u32>,
    /// Neighbor vertex indices, concatenated per vertex.
    nbr: Vec<u32>,
    /// Edge cost to the neighbor at the same position in `nbr`.
    cost: Vec<f64>,
    // Fingerprint of the graph the arrays were built from.
    dims: (usize, usize, usize),
    via_cost: f64,
    x_costs: Vec<f64>,
    y_costs: Vec<f64>,
    kinds: Vec<VertexKind>,
}

impl GridAdjacency {
    /// Creates an empty adjacency; [`GridAdjacency::ensure`] builds it on
    /// first use.
    pub fn new() -> Self {
        GridAdjacency::default()
    }

    /// Whether the cached arrays were built from a graph indistinguishable
    /// from `graph` (same dimensions, costs, and vertex kinds).
    pub fn matches(&self, graph: &HananGraph) -> bool {
        self.dims == graph.dims()
            && self.via_cost.to_bits() == graph.via_cost().to_bits()
            && self.x_costs == graph.x_costs()
            && self.y_costs == graph.y_costs()
            && self.kinds.len() == graph.len()
            && (0..graph.len()).all(|i| self.kinds[i] == graph.kind_at(i))
    }

    /// Rebuilds the arrays from `graph` unless the fingerprint already
    /// matches. The comparison is `O(n)` and the rebuild `O(n)`; both are
    /// negligible next to a single maze query, so hot paths call this
    /// unconditionally.
    pub fn ensure(&mut self, graph: &HananGraph) {
        if self.matches(graph) {
            return;
        }
        let n = graph.len();
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        self.nbr.clear();
        self.cost.clear();
        self.offsets.push(0);
        for idx in 0..n {
            let p = graph.point(idx);
            for (q, w) in graph.neighbors(p) {
                self.nbr.push(graph.index(q) as u32);
                self.cost.push(w);
            }
            // Cannot wrap: a graph has at most `oarsmt_geom::MAX_VERTICES`
            // = ⌊u32::MAX / 6⌋ vertices, each with at most six neighbours.
            self.offsets.push(self.nbr.len() as u32);
        }
        self.dims = graph.dims();
        self.via_cost = graph.via_cost();
        self.x_costs.clear();
        self.x_costs.extend_from_slice(graph.x_costs());
        self.y_costs.clear();
        self.y_costs.extend_from_slice(graph.y_costs());
        self.kinds.clear();
        self.kinds.extend((0..n).map(|i| graph.kind_at(i)));
    }

    /// Whether the adjacency has been built at all.
    pub fn is_built(&self) -> bool {
        !self.offsets.is_empty()
    }

    /// Number of vertices the adjacency was built for (0 if unbuilt).
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the adjacency is unbuilt or built for an empty graph.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unblocked neighbors of vertex `idx` with their edge costs, in
    /// [`HananGraph::neighbors`] order.
    ///
    /// # Panics
    ///
    /// Panics if the adjacency is unbuilt or `idx` is out of range.
    #[inline]
    pub fn neighbors(&self, idx: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.offsets[idx] as usize;
        let hi = self.offsets[idx + 1] as usize;
        self.nbr[lo..hi]
            .iter()
            .copied()
            .zip(self.cost[lo..hi].iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oarsmt_geom::GridPoint;

    fn obstructed_grid() -> HananGraph {
        let mut g =
            HananGraph::with_costs(4, 3, 2, vec![1.0, 2.5, 1.0], vec![2.0, 1.0], 3.0).unwrap();
        g.add_obstacle_vertex(GridPoint::new(1, 1, 0)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(2, 0, 1)).unwrap();
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g
    }

    #[test]
    fn csr_matches_neighbors_iterator_everywhere() {
        let g = obstructed_grid();
        let mut adj = GridAdjacency::new();
        adj.ensure(&g);
        assert_eq!(adj.len(), g.len());
        for idx in 0..g.len() {
            let expect: Vec<(u32, u64)> = g
                .neighbors(g.point(idx))
                .map(|(q, w)| (g.index(q) as u32, w.to_bits()))
                .collect();
            let got: Vec<(u32, u64)> = adj.neighbors(idx).map(|(i, w)| (i, w.to_bits())).collect();
            assert_eq!(expect, got, "vertex {idx}");
        }
    }

    #[test]
    fn ensure_rebuilds_when_obstacles_change() {
        let mut g = HananGraph::uniform(3, 3, 1, 1.0, 1.0, 3.0);
        let mut adj = GridAdjacency::new();
        adj.ensure(&g);
        let center = g.index(GridPoint::new(1, 1, 0));
        assert_eq!(adj.neighbors(center).count(), 4);
        g.add_obstacle_vertex(GridPoint::new(2, 1, 0)).unwrap();
        assert!(!adj.matches(&g));
        adj.ensure(&g);
        assert_eq!(adj.neighbors(center).count(), 3);
    }

    #[test]
    fn ensure_is_a_noop_on_matching_graph() {
        let g = obstructed_grid();
        let mut adj = GridAdjacency::new();
        adj.ensure(&g);
        let before = (adj.offsets.clone(), adj.nbr.clone());
        adj.ensure(&g);
        assert_eq!(before, (adj.offsets.clone(), adj.nbr.clone()));
        assert!(adj.matches(&g));
    }

    #[test]
    fn unbuilt_adjacency_reports_empty() {
        let adj = GridAdjacency::new();
        assert!(!adj.is_built());
        assert!(adj.is_empty());
        assert_eq!(adj.len(), 0);
    }
}
