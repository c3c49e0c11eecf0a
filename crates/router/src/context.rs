//! The per-layout routing/inference workspace.
//!
//! Combinatorial-MCTS training prices every search node with a full OARMST
//! route, so rollout routing dominates training wall-clock. A
//! [`RouteContext`] owns every piece of reusable state that the pre-refactor
//! pipeline re-allocated per query: the epoch-stamped Dijkstra arrays, the
//! stamped index sets of the Prim construction, cached per-layout pin and
//! valid-vertex index sets, the scratch buffers of the selector/critic
//! inference path, and a pool of [`RouteTree`]s. One context serves one
//! layout at a time and is rebound (cheaply, and automatically) when given
//! a different layout.
//!
//! Ownership model (see DESIGN.md §"Workspace ownership"): contexts are
//! created by the owner of a routing loop — `RlRouter` holds one, each MCTS
//! search creates or borrows one, and every worker thread of the `parallel`
//! pool carries its own — and are never shared across threads. All state in
//! a context is scratch: reusing a context never changes routing results,
//! only allocation behavior (the property tests in
//! `crates/router/tests/context_properties.rs` pin this bit-for-bit).

use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_graph::dijkstra::{DijkstraWorkspace, SearchBounds};
use oarsmt_graph::{GridAdjacency, StampMap, StampSet};
use oarsmt_nn::NnWorkspace;
use oarsmt_telemetry::{Counter, CounterSet, TraceRecorder};

use crate::tree::{RouteTree, TreeAdjacency};

/// A queue of same-shape selector states awaiting one batched
/// `fsp` evaluation.
///
/// States are stored flattened in the `Selector::fsp_batch_into_ws`
/// calling convention: `pts` concatenates every queued state's pin list
/// and `lens[i]` records state `i`'s pin count. The queue never drops
/// capacity on [`EvalQueue::clear`], so a steady-state
/// push-flush-clear cycle performs no allocation.
#[derive(Debug, Clone, Default)]
pub struct EvalQueue {
    pts: Vec<GridPoint>,
    lens: Vec<u32>,
}

impl EvalQueue {
    /// Appends one state (its full extra-pin list) to the queue.
    pub fn push_state(&mut self, pins: &[GridPoint]) {
        self.pts.extend_from_slice(pins);
        self.lens.push(pins.len() as u32);
    }

    /// Number of queued states.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// `true` when no states are queued.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Drops all queued states, keeping capacity.
    pub fn clear(&mut self) {
        self.pts.clear();
        self.lens.clear();
    }

    /// Flattened pin lists of all queued states.
    pub fn pts(&self) -> &[GridPoint] {
        &self.pts
    }

    /// Per-state pin counts, parallel to [`EvalQueue::pts`].
    pub fn lens(&self) -> &[u32] {
        &self.lens
    }
}

/// A reusable per-layout routing/inference workspace.
///
/// The context is bound to a layout on first use (see
/// [`RouteContext::bind`]) and rebinds itself whenever it is handed a graph
/// with a different size or pin set. Reuse across queries — and across
/// layouts — is always safe; stale state is invalidated by generation
/// counters rather than cleared.
///
/// ```
/// use oarsmt_geom::{HananGraph, GridPoint};
/// use oarsmt_router::{OarmstRouter, RouteContext};
///
/// let mut g = HananGraph::uniform(5, 5, 1, 1.0, 1.0, 3.0);
/// g.add_pin(GridPoint::new(0, 0, 0))?;
/// g.add_pin(GridPoint::new(4, 4, 0))?;
/// let router = OarmstRouter::new();
/// let mut ctx = RouteContext::new();
/// let first = router.route_in(&mut ctx, &g, &[])?; // allocates workspaces
/// let again = router.route_in(&mut ctx, &g, &[])?; // reuses them
/// assert_eq!(first, again);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// The cached index sets follow the bound layout:
///
/// ```
/// use oarsmt_geom::{HananGraph, GridPoint};
/// use oarsmt_router::RouteContext;
///
/// let mut g = HananGraph::uniform(3, 3, 1, 1.0, 1.0, 3.0);
/// g.add_pin(GridPoint::new(0, 0, 0))?;
/// g.add_pin(GridPoint::new(2, 2, 0))?;
/// let mut ctx = RouteContext::new();
/// ctx.bind(&g);
/// assert_eq!(ctx.pin_indices().len(), 2);
/// assert_eq!(ctx.empty_indices().len(), g.len() - 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouteContext {
    // --- layout binding (recomputed only when the layout changes) ---
    bound_len: usize,
    bound_pin_points: Vec<GridPoint>,
    /// Sorted pin indices of the bound layout.
    pub(crate) pin_indices: Vec<u32>,
    /// Ascending indices of `VertexKind::Empty` vertices at bind time.
    empty_indices: Vec<u32>,
    /// Unmargined bounding box of the pins, `(h_lo, h_hi, v_lo, v_hi)`.
    pin_box: Option<(usize, usize, usize, usize)>,

    // --- routing workspaces (crate-internal) ---
    pub(crate) space: DijkstraWorkspace,
    /// CSR neighbor lists for the bound layout; revalidated against the
    /// live graph (including obstacles) by [`GridAdjacency::ensure`], so
    /// it is *not* tied to the looser pin-set key of [`RouteContext::bind`].
    pub(crate) adj: GridAdjacency,
    pub(crate) in_tree: StampSet,
    pub(crate) unconnected: StampSet,
    pub(crate) seen: StampSet,
    pub(crate) mark: StampSet,
    pub(crate) terminals: Vec<GridPoint>,
    pub(crate) tree_vertices: Vec<GridPoint>,
    pub(crate) kept: Vec<GridPoint>,
    /// Maze-query result buffer (`search_into` and `field_next_into`
    /// write here), so the Prim/retrace loops never allocate a path.
    pub(crate) path_buf: Vec<GridPoint>,
    /// Currently-unconnected terminal points, maintained per Prim
    /// iteration as the A\* target hint (only filled under
    /// [`QueuePolicy::AStar`](oarsmt_graph::QueuePolicy)).
    pub(crate) unconnected_points: Vec<GridPoint>,
    /// Sorted-half-edge adjacency of the tree under polish.
    pub(crate) tree_adj: TreeAdjacency,
    /// Per-vertex tree degrees of the redundant-candidate prune.
    pub(crate) cand_degrees: StampMap,
    tree_pool: Vec<RouteTree>,

    // --- inference scratch (public: owned here, filled by oarsmt/oarsmt-mcts) ---
    /// Selector-output scratch (`Selector::fsp_into` writes here).
    pub fsp: Vec<f32>,
    /// Queue of same-shape selector states awaiting a batched `fsp`
    /// flush through `Selector::fsp_batch_into_ws`. MCTS leaf
    /// evaluation pushes states here and flushes; at `B = 1` the flush
    /// is bit- and allocation-identical to the single-sample path.
    pub evals: EvalQueue,
    /// Critic completion buffer: selected Steiner points plus the top-k
    /// completion, reused across rollouts.
    pub completion: Vec<GridPoint>,
    /// `(probability, vertex index)` scratch for top-k selection.
    pub scored: Vec<(f32, u32)>,
    /// Excluded-vertex-index scratch for top-k selection.
    pub excluded: Vec<u32>,
    /// Selected-vertex-index scratch (MCTS parent-pointer reconstruction).
    pub selected_idx: Vec<u32>,
    /// Selected-point scratch mirroring [`RouteContext::selected_idx`].
    pub selected_points: Vec<GridPoint>,
    /// Neural-network scratch arena for the selector inference path
    /// (`Selector::fsp_into_ws` threads this through `UNet3d::infer_in`
    /// so repeated inference performs no tensor allocation).
    pub nn: NnWorkspace,
    /// Tier A telemetry owned at the router level (pruned Steiner points,
    /// tree-pool hits/misses, merged MCTS counters). Read the whole
    /// context's totals with [`RouteContext::counters_total`].
    pub counters: CounterSet,
    /// Flight recorder for the routing phases (prepare / Dijkstra /
    /// retrace). Disabled (capacity 0) by default so the hot path pays one
    /// branch per phase; enable with `ctx.trace.enable(cap)` before the
    /// queries of interest and export via `oarsmt trace`.
    pub trace: TraceRecorder,
}

impl RouteContext {
    /// Creates an empty context; all workspaces grow on first use.
    pub fn new() -> Self {
        RouteContext::default()
    }

    /// Binds the context to `graph`, recomputing the cached per-layout
    /// index sets. A no-op when already bound to a layout with the same
    /// vertex count and pin set, so routers call this unconditionally per
    /// query.
    ///
    /// Obstacle edits to an already-bound graph do not trigger a rebind
    /// (the cached [`RouteContext::empty_indices`] may then contain
    /// vertices that are no longer empty; consumers re-check the live
    /// vertex kind, so this only costs a few wasted scan entries).
    pub fn bind(&mut self, graph: &HananGraph) {
        if self.bound_len == graph.len() && self.bound_pin_points == graph.pins() {
            return;
        }
        self.bound_len = graph.len();
        self.bound_pin_points.clear();
        self.bound_pin_points.extend_from_slice(graph.pins());
        self.pin_indices = graph.pin_index_set();
        self.empty_indices = graph.empty_index_set();
        self.pin_box = {
            let mut lo = (usize::MAX, usize::MAX);
            let mut hi = (0usize, 0usize);
            for p in graph.pins() {
                lo.0 = lo.0.min(p.h);
                hi.0 = hi.0.max(p.h);
                lo.1 = lo.1.min(p.v);
                hi.1 = hi.1.max(p.v);
            }
            (!graph.pins().is_empty()).then_some((lo.0, hi.0, lo.1, hi.1))
        };
    }

    /// Sorted linear indices of the bound layout's pins.
    pub fn pin_indices(&self) -> &[u32] {
        &self.pin_indices
    }

    /// Ascending linear indices of the vertices that were
    /// [`oarsmt_geom::VertexKind::Empty`] at bind time — the valid Steiner
    /// candidates. Consumers must re-check the live vertex kind (see
    /// [`RouteContext::bind`]).
    pub fn empty_indices(&self) -> &[u32] {
        &self.empty_indices
    }

    /// Whether `idx` is a pin of the bound layout.
    #[inline]
    pub fn is_pin_index(&self, idx: u32) -> bool {
        self.pin_indices.binary_search(&idx).is_ok()
    }

    /// The search bounds the bounded-exploration router uses for a query
    /// over the bound pins plus `extra` terminals: their joint bounding box
    /// expanded by `margin` and clipped to the graph (equal to
    /// [`SearchBounds::around`] over pins ∪ extra).
    pub(crate) fn bounds_for(
        &self,
        graph: &HananGraph,
        extra: &[GridPoint],
        margin: usize,
    ) -> SearchBounds {
        let mut pin_box = self.pin_box;
        for p in extra {
            let (h_lo, h_hi, v_lo, v_hi) = pin_box.unwrap_or((usize::MAX, 0, usize::MAX, 0));
            pin_box = Some((h_lo.min(p.h), h_hi.max(p.h), v_lo.min(p.v), v_hi.max(p.v)));
        }
        match pin_box {
            None => SearchBounds {
                h_lo: 0,
                h_hi: graph.h() - 1,
                v_lo: 0,
                v_hi: graph.v() - 1,
            },
            Some((h_lo, h_hi, v_lo, v_hi)) => SearchBounds {
                h_lo: h_lo.saturating_sub(margin),
                h_hi: (h_hi + margin).min(graph.h() - 1),
                v_lo: v_lo.saturating_sub(margin),
                v_hi: (v_hi + margin).min(graph.v() - 1),
            },
        }
    }

    /// Takes a cleared [`RouteTree`] from the pool (or a fresh one when the
    /// pool is empty). Return it with [`RouteContext::recycle_tree`] to keep
    /// its allocations alive for the next query.
    pub fn take_tree(&mut self) -> RouteTree {
        let mut t = match self.tree_pool.pop() {
            Some(t) => {
                self.counters.bump(Counter::TreePoolHits);
                t
            }
            None => {
                self.counters.bump(Counter::TreePoolMisses);
                RouteTree::default()
            }
        };
        t.clear();
        t
    }

    /// The context's merged Tier A counters: router-level counters plus the
    /// embedded Dijkstra and NN workspace counters, summed index by index.
    /// Monotone across queries; callers wanting per-phase numbers take a
    /// reading before and use [`CounterSet::delta_since`].
    #[must_use]
    pub fn counters_total(&self) -> CounterSet {
        let mut total = self.counters;
        total.merge_from(&self.space.counters);
        total.merge_from(&self.nn.counters);
        total
    }

    /// Returns a tree to the pool for later reuse.
    pub fn recycle_tree(&mut self, tree: RouteTree) {
        self.tree_pool.push(tree);
    }
}

// One context travels with each worker of the `parallel` pool.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<RouteContext>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oarmst::OarmstRouter;

    fn pins(g: &mut HananGraph, pts: &[(usize, usize, usize)]) {
        for &(h, v, m) in pts {
            g.add_pin(GridPoint::new(h, v, m)).unwrap();
        }
    }

    #[test]
    fn bind_is_idempotent_and_rebinds_on_layout_change() {
        let mut g1 = HananGraph::uniform(4, 4, 1, 1.0, 1.0, 3.0);
        pins(&mut g1, &[(0, 0, 0), (3, 3, 0)]);
        let mut ctx = RouteContext::new();
        ctx.bind(&g1);
        let pins1 = ctx.pin_indices().to_vec();
        ctx.bind(&g1);
        assert_eq!(ctx.pin_indices(), &pins1[..]);

        let mut g2 = HananGraph::uniform(4, 4, 1, 1.0, 1.0, 3.0);
        pins(&mut g2, &[(1, 1, 0), (2, 3, 0)]);
        ctx.bind(&g2);
        assert_ne!(ctx.pin_indices(), &pins1[..], "different pin set rebinds");
        assert_eq!(ctx.pin_indices().len(), 2);
    }

    #[test]
    fn bounds_for_matches_search_bounds_around() {
        let mut g = HananGraph::uniform(9, 7, 1, 1.0, 1.0, 3.0);
        pins(&mut g, &[(2, 1, 0), (6, 5, 0)]);
        let mut ctx = RouteContext::new();
        ctx.bind(&g);
        let extra = [GridPoint::new(8, 0, 0)];
        for margin in [0, 1, 3, 20] {
            let mut all: Vec<GridPoint> = g.pins().to_vec();
            all.extend_from_slice(&extra);
            let expected = SearchBounds::around(&g, all.iter().copied(), margin);
            assert_eq!(
                ctx.bounds_for(&g, &extra, margin),
                expected,
                "margin {margin}"
            );
        }
    }

    #[test]
    fn tree_pool_round_trips() {
        let mut ctx = RouteContext::new();
        let g = HananGraph::uniform(3, 1, 1, 1.0, 1.0, 3.0);
        let mut t = ctx.take_tree();
        t.add_edge(&g, GridPoint::new(0, 0, 0), GridPoint::new(1, 0, 0));
        ctx.recycle_tree(t);
        let t2 = ctx.take_tree();
        assert!(t2.is_edgeless(), "pooled trees come back cleared");
        assert_eq!(t2.cost(), 0.0);
    }

    #[test]
    fn context_reuse_across_layouts_matches_fresh_routing() {
        let router = OarmstRouter::new();
        let mut ctx = RouteContext::new();
        for seed in 0..4u64 {
            use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
            let mut gen = CaseGenerator::new(GeneratorConfig::tiny(7, 7, 2, (3, 5)), seed);
            for g in gen.generate_many(4) {
                let fresh = router.route(&g, &[]);
                let reused = router.route_in(&mut ctx, &g, &[]);
                match (fresh, reused) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.cost().to_bits(), b.cost().to_bits());
                        assert_eq!(a.edges(), b.edges());
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (a, b) => panic!("fresh {a:?} vs reused {b:?}"),
                }
            }
        }
    }
}
