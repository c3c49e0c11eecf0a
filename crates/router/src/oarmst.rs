//! Obstacle-avoiding rectilinear minimum spanning tree (OARMST)
//! construction: maze-router-based Prim's algorithm with redundant
//! Steiner-point removal, following \[14\] as used by the paper (Fig. 2).
//!
//! Given a Hanan graph and a set of Steiner candidates, the router:
//!
//! 1. runs Prim's algorithm where "expanding the tree" is a multi-source
//!    maze-routing (Dijkstra) query from the current tree to the nearest
//!    unconnected terminal — one resumable search per build that takes
//!    each connected path as new sources (DESIGN.md §12.6),
//! 2. removes **redundant** Steiner candidates — those with tree degree
//!    less than 3 (Section 2.1: such a point "cannot act as an effective
//!    intermediate vertex"),
//! 3. reconstructs the spanning tree over pins plus the surviving
//!    irredundant candidates, repeating until no candidate is redundant.

use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_graph::dijkstra::SearchBounds;
use oarsmt_graph::{GraphError, QueuePolicy};
use oarsmt_telemetry::Span;

use crate::context::RouteContext;
use crate::error::RouteError;
use crate::prune::retain_irredundant_in;
use crate::tree::RouteTree;

/// The OARMST router (maze-router-based Prim plus pruning).
///
/// Construction parameters:
///
/// * `max_prune_rounds` — upper bound on prune/reconstruct iterations
///   (each round removes at least one candidate, so the loop always
///   terminates; the bound is a safety valve, default 8),
/// * `bounds_margin` — optional bounded-exploration margin in grid steps:
///   when set, every maze query is restricted to the bounding box of the
///   remaining terminals expanded by the margin (used by the \[14\]
///   baseline; `None` searches the whole grid),
/// * `queue_policy` — the [`QueuePolicy`] of the maze queries. Under
///   `Auto` (the default), `Heap` and `Dial`, every Prim build grows one
///   resumable heap-ordered field (DESIGN.md §12.6, bit-identical to a
///   per-step restarted heap search), and the policy selects only the
///   queue of the polish reroutes: `Auto` takes Dial's bucket queue on
///   bounded-integer cost models (bit-identical to the heap, §12.3) and
///   `Heap` forces the oracle. `QueuePolicy::AStar` runs the builds as
///   per-step goal-directed searches and the reroutes likewise, with its
///   documented tie-break divergence (§12.4).
#[derive(Debug, Clone)]
pub struct OarmstRouter {
    max_prune_rounds: Option<usize>,
    bounds_margin: Option<usize>,
    start: usize,
    polish_rounds: usize,
    queue_policy: QueuePolicy,
}

impl Default for OarmstRouter {
    fn default() -> Self {
        OarmstRouter {
            max_prune_rounds: None,
            bounds_margin: None,
            start: 0,
            polish_rounds: 1,
            queue_policy: QueuePolicy::Auto,
        }
    }
}

impl OarmstRouter {
    /// Creates a router with default settings (unbounded search, up to 8
    /// prune rounds, one path-assessed polish round).
    pub fn new() -> Self {
        OarmstRouter::default()
    }

    /// Sets the number of path-assessed polish rounds run after pruning
    /// (builder style; 0 disables polishing).
    #[must_use]
    pub fn with_polish_rounds(mut self, rounds: usize) -> Self {
        self.polish_rounds = rounds;
        self
    }

    /// Limits prune/reconstruct rounds (builder style).
    #[must_use]
    pub fn with_max_prune_rounds(mut self, rounds: usize) -> Self {
        self.max_prune_rounds = Some(rounds);
        self
    }

    /// Enables bounded exploration with the given margin (builder style).
    #[must_use]
    pub fn with_bounds_margin(mut self, margin: usize) -> Self {
        self.bounds_margin = Some(margin);
        self
    }

    /// Removes any bounded-exploration margin, restoring whole-grid
    /// searches (builder style; used by
    /// [`SweepSchedule`](crate::sweep::SweepSchedule) to derive the
    /// unbounded fallback stage from a bounded base router).
    #[must_use]
    pub fn without_bounds_margin(mut self) -> Self {
        self.bounds_margin = None;
        self
    }

    /// Selects the [`QueuePolicy`] of this router's maze queries (builder
    /// style; default [`QueuePolicy::Auto`]). Builds run the resumable
    /// Prim field under every policy except [`QueuePolicy::AStar`]; the
    /// policy always selects the queue of the polish reroutes.
    #[must_use]
    pub fn with_queue_policy(mut self, policy: QueuePolicy) -> Self {
        self.queue_policy = policy;
        self
    }

    /// The [`QueuePolicy`] this router's maze queries run under.
    #[must_use]
    pub fn queue_policy(&self) -> QueuePolicy {
        self.queue_policy
    }

    /// Starts Prim's construction from the `start`-th terminal (modulo the
    /// terminal count) instead of the first. Different insertion orders
    /// yield different trees; the \[14\] baseline assesses several
    /// (builder style).
    #[must_use]
    pub fn with_start(mut self, start: usize) -> Self {
        self.start = start;
        self
    }

    /// Builds the OARMST connecting `graph.pins()` plus the given Steiner
    /// `candidates`, pruning redundant candidates.
    ///
    /// Candidates that duplicate a pin or sit on an obstacle are ignored.
    ///
    /// # Errors
    ///
    /// * [`RouteError::TooFewTerminals`] if the graph has fewer than two
    ///   pins.
    /// * [`RouteError::BlockedTerminal`] if a pin is blocked.
    /// * [`RouteError::Disconnected`] if the pins cannot all be connected.
    pub fn route(
        &self,
        graph: &HananGraph,
        candidates: &[GridPoint],
    ) -> Result<RouteTree, RouteError> {
        self.route_in(&mut RouteContext::new(), graph, candidates)
    }

    /// [`OarmstRouter::route`] through a caller-owned [`RouteContext`]:
    /// bit-identical results, no per-query allocation of the Dijkstra
    /// arrays, index sets, or scratch buffers.
    ///
    /// # Errors
    ///
    /// Same as [`OarmstRouter::route`].
    pub fn route_in(
        &self,
        ctx: &mut RouteContext,
        graph: &HananGraph,
        candidates: &[GridPoint],
    ) -> Result<RouteTree, RouteError> {
        let pins = graph.pins();
        if pins.len() < 2 {
            return Err(RouteError::TooFewTerminals(pins.len()));
        }
        ctx.trace.begin(Span::RoutePrepare);
        ctx.bind(graph);
        let mut kept = std::mem::take(&mut ctx.kept);
        dedup_candidates_in(ctx, graph, candidates, &mut kept);
        ctx.trace.end(Span::RoutePrepare);
        let max_rounds = self.max_prune_rounds.unwrap_or(8);
        let mut tree = ctx.take_tree();
        if let Err(e) = self.build_once_in(ctx, graph, &kept, &mut tree) {
            ctx.recycle_tree(tree);
            ctx.kept = kept;
            return Err(e);
        }
        for _ in 0..max_rounds {
            let removed = retain_irredundant_in(&mut ctx.cand_degrees, graph, &tree, &mut kept);
            ctx.counters
                .add(oarsmt_telemetry::Counter::SteinerPruned, removed as u64);
            if removed == 0 {
                break;
            }
            if let Err(e) = self.build_once_in(ctx, graph, &kept, &mut tree) {
                ctx.recycle_tree(tree);
                ctx.kept = kept;
                return Err(e);
            }
        }
        // Path-assessed polish (following [14]'s OARMST step): reassess the
        // branch of every terminal once per round, keeping improvements.
        let mut terminals = std::mem::take(&mut ctx.terminals);
        terminals.clear();
        terminals.extend_from_slice(pins);
        terminals.extend_from_slice(&kept);
        ctx.kept = kept;
        for _ in 0..self.polish_rounds {
            ctx.trace.begin(Span::RouteRetrace);
            let round = crate::retrace::polish_round_policy_in(
                ctx,
                graph,
                tree,
                &terminals,
                self.queue_policy,
            );
            ctx.trace.end(Span::RouteRetrace);
            match round {
                Ok((polished, improved)) => {
                    tree = polished;
                    if !improved {
                        break;
                    }
                }
                Err(e) => {
                    ctx.terminals = terminals;
                    return Err(e);
                }
            }
        }
        ctx.terminals = terminals;
        Ok(tree)
    }

    /// [`OarmstRouter::route_in`] returning only the tree cost, keeping the
    /// tree itself pooled inside the context (the MCTS critic's hot path).
    ///
    /// # Errors
    ///
    /// Same as [`OarmstRouter::route`].
    pub fn route_cost_in(
        &self,
        ctx: &mut RouteContext,
        graph: &HananGraph,
        candidates: &[GridPoint],
    ) -> Result<f64, RouteError> {
        let tree = self.route_in(ctx, graph, candidates)?;
        let cost = tree.cost();
        ctx.recycle_tree(tree);
        Ok(cost)
    }

    /// Builds the OARMST once, without pruning. Exposed so callers (e.g.
    /// MCTS critics) can price intermediate states cheaply.
    ///
    /// # Errors
    ///
    /// Same as [`OarmstRouter::route`].
    pub fn route_unpruned(
        &self,
        graph: &HananGraph,
        candidates: &[GridPoint],
    ) -> Result<RouteTree, RouteError> {
        self.route_unpruned_in(&mut RouteContext::new(), graph, candidates)
    }

    /// [`OarmstRouter::route_unpruned`] through a caller-owned
    /// [`RouteContext`].
    ///
    /// # Errors
    ///
    /// Same as [`OarmstRouter::route`].
    pub fn route_unpruned_in(
        &self,
        ctx: &mut RouteContext,
        graph: &HananGraph,
        candidates: &[GridPoint],
    ) -> Result<RouteTree, RouteError> {
        let pins = graph.pins();
        if pins.len() < 2 {
            return Err(RouteError::TooFewTerminals(pins.len()));
        }
        ctx.trace.begin(Span::RoutePrepare);
        ctx.bind(graph);
        let mut kept = std::mem::take(&mut ctx.kept);
        dedup_candidates_in(ctx, graph, candidates, &mut kept);
        ctx.trace.end(Span::RoutePrepare);
        let mut tree = ctx.take_tree();
        let built = self.build_once_in(ctx, graph, &kept, &mut tree);
        ctx.kept = kept;
        match built {
            Ok(()) => Ok(tree),
            Err(e) => {
                ctx.recycle_tree(tree);
                Err(e)
            }
        }
    }

    /// [`OarmstRouter::route_unpruned_in`] returning only the cost, keeping
    /// the tree pooled (used to price MCTS states).
    ///
    /// # Errors
    ///
    /// Same as [`OarmstRouter::route`].
    pub fn cost_unpruned_in(
        &self,
        ctx: &mut RouteContext,
        graph: &HananGraph,
        candidates: &[GridPoint],
    ) -> Result<f64, RouteError> {
        let tree = self.route_unpruned_in(ctx, graph, candidates)?;
        let cost = tree.cost();
        ctx.recycle_tree(tree);
        Ok(cost)
    }

    /// One maze-based Prim pass over `graph.pins() + candidates`, built
    /// into `tree` (cleared first) using the context's workspaces. Each
    /// step connects the cheapest unconnected terminal: by resuming the
    /// build's one Prim field, or under A* by a per-step search from the
    /// whole current tree.
    fn build_once_in(
        &self,
        ctx: &mut RouteContext,
        graph: &HananGraph,
        candidates: &[GridPoint],
        tree: &mut RouteTree,
    ) -> Result<(), RouteError> {
        let pins = graph.pins();
        ctx.terminals.clear();
        ctx.terminals.extend_from_slice(pins);
        ctx.terminals.extend_from_slice(candidates);

        for &t in pins {
            if graph.is_blocked(t) {
                return Err(RouteError::BlockedTerminal(t));
            }
        }

        let bounds = self
            .bounds_margin
            .map(|m| ctx.bounds_for(graph, candidates, m));
        let use_astar = self.queue_policy == QueuePolicy::AStar;
        ctx.adj.ensure(graph);

        let first = ctx.terminals[self.start % ctx.terminals.len()];
        tree.clear();
        ctx.tree_vertices.clear();
        ctx.tree_vertices.push(first);
        ctx.in_tree.begin(graph.len());
        ctx.in_tree.insert(graph.index(first));
        ctx.unconnected.begin(graph.len());
        // Track how many *pins* remain unconnected separately: only they
        // make an unreachable remainder fatal.
        let mut unconnected_pins = 0usize;
        for &p in pins {
            if ctx.unconnected.insert(graph.index(p)) {
                unconnected_pins += 1;
            }
        }
        for &c in candidates {
            ctx.unconnected.insert(graph.index(c));
        }
        if ctx.unconnected.remove(graph.index(first)) && ctx.is_pin_index(graph.index(first) as u32)
        {
            unconnected_pins -= 1;
        }

        if !use_astar {
            // One resumable field per build (DESIGN.md §12.6): every Prim
            // step resumes the search instead of restarting it.
            ctx.space.field_begin(graph, bounds);
            ctx.space.field_add_sources(graph, &ctx.tree_vertices);
        }
        while !ctx.unconnected.is_empty() {
            ctx.trace.begin(Span::RouteDijkstra);
            let searched = if use_astar {
                astar_step_in(ctx, graph, bounds)
            } else {
                ctx.space.field_next_into(
                    graph,
                    &ctx.adj,
                    |i| ctx.unconnected.contains(i),
                    &mut ctx.path_buf,
                )
            };
            ctx.trace.end(Span::RouteDijkstra);
            if let Err(e) = searched {
                // Candidates sitting in walled-off pockets are simply
                // dropped; only unreachable *pins* are fatal.
                if unconnected_pins > 0 {
                    return Err(RouteError::from(e));
                }
                break;
            }
            for w in ctx.path_buf.windows(2) {
                tree.add_edge(graph, w[0], w[1]);
            }
            if !use_astar {
                ctx.space.field_add_sources(graph, &ctx.path_buf);
            }
            for k in 0..ctx.path_buf.len() {
                let p = ctx.path_buf[k];
                let idx = graph.index(p);
                if ctx.in_tree.insert(idx) {
                    ctx.tree_vertices.push(p);
                }
                if ctx.unconnected.remove(idx) && ctx.is_pin_index(idx as u32) {
                    unconnected_pins -= 1;
                }
            }
        }
        Ok(())
    }
}

/// One per-step A* Prim query from the whole current tree to the nearest
/// unconnected terminal, optionally inside `bounds`, writing the path into
/// `ctx.path_buf`.
fn astar_step_in(
    ctx: &mut RouteContext,
    graph: &HananGraph,
    bounds: Option<SearchBounds>,
) -> Result<f64, GraphError> {
    // The A* target hint: the terminals still unconnected. Exactly the set
    // `is_target` accepts, as the hint contract requires.
    ctx.unconnected_points.clear();
    for k in 0..ctx.terminals.len() {
        let t = ctx.terminals[k];
        if ctx.unconnected.contains(graph.index(t)) {
            ctx.unconnected_points.push(t);
        }
    }
    ctx.space.search_into(
        graph,
        &ctx.adj,
        &ctx.tree_vertices,
        |i| ctx.unconnected.contains(i),
        bounds,
        QueuePolicy::AStar,
        &ctx.unconnected_points,
        &mut ctx.path_buf,
    )
}

/// Drops candidates that are out of bounds, blocked, or duplicate a
/// pin/another candidate, preserving order; writes the survivors into
/// `out` (cleared first) using the context's stamped scratch set.
fn dedup_candidates_in(
    ctx: &mut RouteContext,
    graph: &HananGraph,
    candidates: &[GridPoint],
    out: &mut Vec<GridPoint>,
) {
    out.clear();
    ctx.seen.begin(graph.len());
    for &i in &ctx.pin_indices {
        ctx.seen.insert(i as usize);
    }
    for &c in candidates {
        if !graph.in_bounds(c) || graph.is_blocked(c) {
            continue;
        }
        if ctx.seen.insert(graph.index(c)) {
            out.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oarsmt_geom::GeomError;

    fn grid_with_pins(h: usize, v: usize, m: usize, pins: &[(usize, usize, usize)]) -> HananGraph {
        let mut g = HananGraph::uniform(h, v, m, 1.0, 1.0, 3.0);
        for &(a, b, c) in pins {
            g.add_pin(GridPoint::new(a, b, c)).unwrap();
        }
        g
    }

    #[test]
    fn two_pin_route_is_shortest_path() {
        let g = grid_with_pins(6, 6, 1, &[(0, 0, 0), (5, 3, 0)]);
        let tree = OarmstRouter::new().route(&g, &[]).unwrap();
        assert_eq!(tree.cost(), 8.0);
        assert!(tree.is_tree());
        assert!(tree.spans_in(&g, g.pins()));
    }

    #[test]
    fn steiner_candidate_reduces_three_pin_cost() {
        // Pins at three arms of a cross; the center is the optimal Steiner
        // point.
        let g = grid_with_pins(5, 5, 1, &[(0, 2, 0), (4, 2, 0), (2, 0, 0)]);
        let no_steiner = OarmstRouter::new().route(&g, &[]).unwrap();
        let with_steiner = OarmstRouter::new()
            .route(&g, &[GridPoint::new(2, 2, 0)])
            .unwrap();
        // Both span; with the center the tree is a perfect cross of cost 6.
        assert!(with_steiner.cost() <= no_steiner.cost());
        assert_eq!(with_steiner.cost(), 6.0);
        assert!(with_steiner.is_tree());
    }

    #[test]
    fn redundant_candidate_is_pruned_away() {
        let g = grid_with_pins(6, 1, 1, &[(0, 0, 0), (5, 0, 0)]);
        // A candidate on the straight path has degree 2 -> redundant; one
        // far off the path has degree 1 after routing -> redundant.
        let tree = OarmstRouter::new()
            .route(&g, &[GridPoint::new(2, 0, 0)])
            .unwrap();
        assert_eq!(tree.cost(), 5.0);
        // No degree>=3 vertices at all.
        assert!(tree.steiner_vertices(&g, g.pins()).is_empty());
    }

    #[test]
    fn detour_candidate_does_not_inflate_final_tree() {
        let g = grid_with_pins(6, 6, 1, &[(0, 0, 0), (5, 0, 0)]);
        // A candidate far off the straight path would add a degree-1 stub;
        // pruning must remove it and return the straight route.
        let tree = OarmstRouter::new()
            .route(&g, &[GridPoint::new(2, 5, 0)])
            .unwrap();
        assert_eq!(tree.cost(), 5.0);
    }

    #[test]
    fn route_avoids_obstacles() {
        let mut g = grid_with_pins(5, 3, 1, &[(0, 1, 0), (4, 1, 0)]);
        for v in 0..2 {
            g.add_obstacle_vertex(GridPoint::new(2, v, 0)).unwrap();
        }
        let tree = OarmstRouter::new().route(&g, &[]).unwrap();
        for &(a, b) in tree.edges() {
            assert!(!g.is_blocked(g.point(a as usize)));
            assert!(!g.is_blocked(g.point(b as usize)));
        }
        // Detour over row 2: 2 right, up, 2 right... cost 6 (4 + 2 vertical).
        assert_eq!(tree.cost(), 6.0);
    }

    #[test]
    fn multilayer_route_uses_vias() {
        let g = grid_with_pins(3, 1, 2, &[(0, 0, 0), (2, 0, 1)]);
        let tree = OarmstRouter::new().route(&g, &[]).unwrap();
        assert_eq!(tree.via_count(&g), 1);
        assert_eq!(tree.cost(), 5.0); // 2 horizontal + via 3
    }

    #[test]
    fn too_few_pins_is_an_error() {
        let mut g = HananGraph::uniform(3, 3, 1, 1.0, 1.0, 3.0);
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        assert_eq!(
            OarmstRouter::new().route(&g, &[]),
            Err(RouteError::TooFewTerminals(1))
        );
    }

    #[test]
    fn disconnected_pins_is_an_error() {
        let mut g = HananGraph::uniform(3, 3, 1, 1.0, 1.0, 3.0);
        for v in 0..3 {
            g.add_obstacle_vertex(GridPoint::new(1, v, 0)).unwrap();
        }
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(2, 2, 0)).unwrap();
        assert!(matches!(
            OarmstRouter::new().route(&g, &[]),
            Err(RouteError::Disconnected { .. })
        ));
    }

    #[test]
    fn candidates_on_pins_or_obstacles_are_ignored() {
        let mut g = grid_with_pins(5, 5, 1, &[(0, 0, 0), (4, 4, 0)]);
        g.add_obstacle_vertex(GridPoint::new(2, 3, 0)).unwrap();
        let tree = OarmstRouter::new()
            .route(
                &g,
                &[
                    GridPoint::new(0, 0, 0), // pin
                    GridPoint::new(2, 3, 0), // obstacle
                    GridPoint::new(9, 9, 9), // out of bounds
                ],
            )
            .unwrap();
        assert_eq!(tree.cost(), 8.0);
    }

    #[test]
    fn route_unpruned_keeps_degree_stubs() {
        let g = grid_with_pins(6, 6, 1, &[(0, 0, 0), (5, 0, 0)]);
        let unpruned = OarmstRouter::new()
            .route_unpruned(&g, &[GridPoint::new(2, 3, 0)])
            .unwrap();
        // The stub to the off-path candidate is kept.
        assert!(unpruned.cost() > 5.0);
        assert!(unpruned.spans_in(&g, &[GridPoint::new(2, 3, 0)]));
    }

    #[test]
    fn bounded_margin_still_routes_simple_cases() {
        let g = grid_with_pins(8, 8, 1, &[(0, 0, 0), (7, 7, 0), (0, 7, 0)]);
        let tree = OarmstRouter::new()
            .with_bounds_margin(2)
            .route(&g, &[])
            .unwrap();
        assert!(tree.spans_in(&g, g.pins()));
        assert!(tree.is_tree());
    }

    #[test]
    fn random_cases_yield_valid_trees() {
        use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
        let mut gen = CaseGenerator::new(GeneratorConfig::tiny(8, 8, 2, (3, 6)), 11);
        let router = OarmstRouter::new();
        let mut routed = 0;
        for g in gen.generate_many(15) {
            match router.route(&g, &[]) {
                Ok(tree) => {
                    assert!(tree.is_tree());
                    assert!(tree.spans_in(&g, g.pins()));
                    routed += 1;
                }
                Err(RouteError::Disconnected { .. }) => {} // obstacles may wall off pins
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(routed >= 10, "most random cases should route");
    }

    #[test]
    fn pin_on_obstacle_cannot_be_constructed() {
        let mut g = HananGraph::uniform(3, 3, 1, 1.0, 1.0, 3.0);
        g.add_obstacle_vertex(GridPoint::new(0, 0, 0)).unwrap();
        assert_eq!(
            g.add_pin(GridPoint::new(0, 0, 0)),
            Err(GeomError::PinOnObstacle(GridPoint::new(0, 0, 0)))
        );
    }
}

#[cfg(test)]
mod pocket_tests {
    use super::*;

    #[test]
    fn unreachable_candidates_are_dropped_not_fatal() {
        // A walled-off pocket in the corner: pins route fine, but a
        // candidate inside the pocket cannot be reached.
        let mut g = HananGraph::uniform(6, 6, 1, 1.0, 1.0, 3.0);
        g.add_obstacle_vertex(GridPoint::new(4, 5, 0)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(4, 4, 0)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(5, 4, 0)).unwrap();
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(0, 5, 0)).unwrap();
        let pocket = GridPoint::new(5, 5, 0);
        let tree = OarmstRouter::new().route(&g, &[pocket]).unwrap();
        assert!(tree.spans_in(&g, g.pins()));
        assert!(!tree.contains_vertex(&g, pocket));
    }

    #[test]
    fn unreachable_pins_are_still_fatal() {
        let mut g = HananGraph::uniform(6, 6, 1, 1.0, 1.0, 3.0);
        g.add_obstacle_vertex(GridPoint::new(4, 5, 0)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(4, 4, 0)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(5, 4, 0)).unwrap();
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(5, 5, 0)).unwrap(); // inside the pocket
        assert!(matches!(
            OarmstRouter::new().route(&g, &[]),
            Err(RouteError::Disconnected { .. })
        ));
    }
}
