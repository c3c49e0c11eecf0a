//! Single- and multi-source Dijkstra over Hanan grid graphs.
//!
//! Dijkstra over the grid is the "maze router" of the paper's OARMST
//! construction (Section 3.1): it finds the cheapest obstacle-avoiding
//! rectilinear path, counting via costs for layer changes.
//!
//! [`DijkstraWorkspace`] owns the per-vertex arrays and can be reused
//! across queries on same-sized graphs (the arrays are invalidated by an
//! epoch counter rather than cleared); the plain free functions are
//! one-shot conveniences and the `_in` variants thread a caller-owned
//! workspace through for allocation-free repeated queries.
//!
//! Every query runs under a [`QueuePolicy`]: the binary heap (the retained
//! oracle), Dial's bucket queue (bit-identical to the heap whenever the
//! cost model is bounded-integer — the paper's §2.2 model always is), or
//! A* on the heap ordered by `g + h` with a rectilinear-distance lower
//! bound (a *documented divergence*: same per-query path cost, possibly
//! different tie geometry). The search-order and tie-break contract all
//! three policies obey is specified in DESIGN.md §12.
//!
//! The OARMST builder's Prim loop runs on the resumable *Prim field*
//! instead ([`DijkstraWorkspace::field_begin`]): one heap-ordered search
//! per build that takes each newly connected path as extra distance-0
//! sources without clearing its queue, bit-identical to restarting the
//! heap search at every Prim step (DESIGN.md §12.6).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_telemetry::{Counter, CounterSet};

use crate::bucket::BucketQueue;
use crate::error::GraphError;
use crate::path::GridPath;

/// Sentinel for "no predecessor".
const NO_PREV: u32 = u32::MAX;

/// Heap entry ordered by smallest cost first.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    cost: f64,
    idx: u32,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the cheapest first.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An optional rectangular search bound in grid indices (inclusive), used by
/// the bounded-exploration baseline router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBounds {
    /// Minimum horizontal index.
    pub h_lo: usize,
    /// Maximum horizontal index (inclusive).
    pub h_hi: usize,
    /// Minimum vertical index.
    pub v_lo: usize,
    /// Maximum vertical index (inclusive).
    pub v_hi: usize,
}

impl SearchBounds {
    /// The bounding box of a set of points, expanded by `margin` grid steps
    /// on each side and clipped to the graph.
    pub fn around<I: IntoIterator<Item = GridPoint>>(
        graph: &HananGraph,
        points: I,
        margin: usize,
    ) -> SearchBounds {
        let mut h_lo = usize::MAX;
        let mut h_hi = 0usize;
        let mut v_lo = usize::MAX;
        let mut v_hi = 0usize;
        for p in points {
            h_lo = h_lo.min(p.h);
            h_hi = h_hi.max(p.h);
            v_lo = v_lo.min(p.v);
            v_hi = v_hi.max(p.v);
        }
        if h_lo == usize::MAX {
            // Empty input: the whole grid.
            return SearchBounds {
                h_lo: 0,
                h_hi: graph.h() - 1,
                v_lo: 0,
                v_hi: graph.v() - 1,
            };
        }
        SearchBounds {
            h_lo: h_lo.saturating_sub(margin),
            h_hi: (h_hi + margin).min(graph.h() - 1),
            v_lo: v_lo.saturating_sub(margin),
            v_hi: (v_hi + margin).min(graph.v() - 1),
        }
    }

    /// Whether a point lies inside the bound (all layers are inside).
    #[inline]
    pub fn contains(&self, p: GridPoint) -> bool {
        self.h_lo <= p.h && p.h <= self.h_hi && self.v_lo <= p.v && p.v <= self.v_hi
    }
}

/// Largest integer edge cost for which the Dial bucket queue is used.
///
/// The paper's cost model caps gap costs at 1000 and via costs at 5; the
/// ceiling leaves generous slack while bounding the bucket array (a Dial
/// query keeps `ceiling + 1` buckets) and the per-query cursor scan.
pub const DIAL_MAX_EDGE_COST: u64 = 4096;

/// Which priority queue drives a maze query (DESIGN.md §12).
///
/// `Auto` is the default everywhere: it selects Dial's bucket queue when
/// the graph's cost model is bounded-integer
/// ([`HananGraph::integer_cost_ceiling`] `≤` [`DIAL_MAX_EDGE_COST`]) and
/// the binary heap otherwise. Dial pop order is engineered to be exactly
/// the heap's `(cost, vertex index)` order, so `Auto`, `Heap`, and `Dial`
/// are bit-identical — the heap stays available as the oracle the
/// equivalence property tests and benches compare against.
///
/// The policy selects the queue of the per-query `shortest_path_to_set*`
/// entry points. OARMST builds consult it only for `AStar`: under every
/// other policy they run the heap-ordered Prim field
/// ([`DijkstraWorkspace::field_next_into`], DESIGN.md §12.6), so in the
/// router the policy picks the queue of the polish reroutes.
///
/// ```
/// use oarsmt_geom::{GridPoint, HananGraph};
/// use oarsmt_graph::dijkstra::{DijkstraWorkspace, QueuePolicy};
///
/// let g = HananGraph::uniform(6, 6, 1, 1.0, 1.0, 3.0);
/// let mut ws = DijkstraWorkspace::new();
/// let t = g.index(GridPoint::new(5, 4, 0));
/// let src = [GridPoint::new(0, 0, 0)];
/// let heap = ws
///     .shortest_path_to_set_policy(&g, &src, |i| i == t, None, QueuePolicy::Heap, &[])?;
/// let dial = ws
///     .shortest_path_to_set_policy(&g, &src, |i| i == t, None, QueuePolicy::Dial, &[])?;
/// assert_eq!(heap.cost.to_bits(), dial.cost.to_bits());
/// assert_eq!(heap.points, dial.points); // bit-identical, not just equal-cost
/// # Ok::<(), oarsmt_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueuePolicy {
    /// Bounded-integer cost model ⇒ Dial bucket queue, else binary heap.
    /// Bit-identical to `Heap` either way. The default.
    #[default]
    Auto,
    /// The binary-heap Dijkstra — the retained oracle.
    Heap,
    /// Dial's bucket queue; falls back to `Heap` when the cost model is
    /// not bounded-integer. Bit-identical to `Heap` when it applies.
    Dial,
    /// A* on the binary heap ordered by `f = g + h`, with the
    /// rectilinear-distance lower bound of [`RectilinearBound`] as `h`.
    /// Needs a non-empty target hint covering every vertex `is_target`
    /// accepts, and a bounded-integer cost model (falls back like `Dial`
    /// otherwise). **Documented divergence** (DESIGN.md §12.4): each query
    /// returns a cheapest path with the same cost bits as the oracle, but
    /// possibly a different equal-cost geometry, so downstream trees may
    /// differ.
    AStar,
}

/// A [`QueuePolicy`] after eligibility resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResolvedQueue {
    Heap,
    /// Dial with the graph's integer cost ceiling.
    Dial(u64),
    AStar,
}

impl QueuePolicy {
    /// Resolves the policy against a graph's integer-cost ceiling and the
    /// presence of a target hint. Pure function of the query inputs, so
    /// the choice is deterministic.
    fn resolve(self, ceiling: Option<u64>, have_targets: bool) -> ResolvedQueue {
        let eligible = ceiling.filter(|&c| c <= DIAL_MAX_EDGE_COST);
        match (self, eligible) {
            (QueuePolicy::Heap, _) | (_, None) => ResolvedQueue::Heap,
            (QueuePolicy::AStar, Some(_)) if have_targets => ResolvedQueue::AStar,
            (_, Some(c)) => ResolvedQueue::Dial(c),
        }
    }
}

/// The A* rectilinear-distance lower bound (DESIGN.md §12.4).
///
/// For a target set `T`, the bound at vertex `p` is the cost-weighted
/// rectilinear distance from `p` to the bounding box of `T` in *prefix
/// space*: crossing column gap `i` costs exactly `x_costs[i]`, so the
/// horizontal cost of any path that nets a move from column `a` to column
/// `b` is at least `|px[b] − px[a]|` where `px` is the prefix sum of the
/// gap costs (same for rows, and `via_cost ×` layer distance for layers).
/// The bound is admissible and consistent, zero on every target, and `O(1)`
/// per evaluation after an `O(H + V + |T|)` per-query preparation.
#[derive(Debug, Clone, Default)]
pub struct RectilinearBound {
    /// Prefix sums of the horizontal gap costs (`px[i]` = cost of walking
    /// from column 0 to column `i`), length `H`.
    px: Vec<u64>,
    /// Prefix sums of the vertical gap costs, length `V`.
    py: Vec<u64>,
    x_lo: u64,
    x_hi: u64,
    y_lo: u64,
    y_hi: u64,
    m_lo: u64,
    m_hi: u64,
    via: u64,
}

impl RectilinearBound {
    /// Rebuilds the prefix sums and the target bounding box for a query.
    /// Requires a bounded-integer cost model (the caller resolves that via
    /// [`HananGraph::integer_cost_ceiling`]) and a non-empty target set.
    fn prepare(&mut self, graph: &HananGraph, targets: &[GridPoint]) {
        debug_assert!(!targets.is_empty());
        self.px.clear();
        self.px.push(0);
        let mut acc = 0u64;
        for &c in graph.x_costs() {
            acc += c as u64;
            self.px.push(acc);
        }
        self.py.clear();
        self.py.push(0);
        acc = 0;
        for &c in graph.y_costs() {
            acc += c as u64;
            self.py.push(acc);
        }
        self.via = graph.via_cost() as u64;
        self.x_lo = u64::MAX;
        self.x_hi = 0;
        self.y_lo = u64::MAX;
        self.y_hi = 0;
        self.m_lo = u64::MAX;
        self.m_hi = 0;
        for t in targets {
            self.x_lo = self.x_lo.min(self.px[t.h]);
            self.x_hi = self.x_hi.max(self.px[t.h]);
            self.y_lo = self.y_lo.min(self.py[t.v]);
            self.y_hi = self.y_hi.max(self.py[t.v]);
            self.m_lo = self.m_lo.min(t.m as u64);
            self.m_hi = self.m_hi.max(t.m as u64);
        }
    }

    /// The lower bound at `p`: prefix-space rectilinear distance to the
    /// target bounding box.
    #[inline]
    fn eval(&self, p: GridPoint) -> u64 {
        #[inline]
        fn axis(v: u64, lo: u64, hi: u64) -> u64 {
            if v < lo {
                lo - v
            } else {
                v.saturating_sub(hi)
            }
        }
        axis(self.px[p.h], self.x_lo, self.x_hi)
            + axis(self.py[p.v], self.y_lo, self.y_hi)
            + self.via * axis(p.m as u64, self.m_lo, self.m_hi)
    }
}

/// Reusable Dijkstra work arrays (distance, predecessor, visit stamps).
///
/// Reuse a single `DijkstraWorkspace` across the many maze-routing queries
/// of an OARMST construction to avoid repeated allocation. The workspace
/// automatically grows when given a larger graph, and old query state is
/// invalidated by bumping a generation counter (`epoch`) instead of an
/// `O(n)` clear.
#[derive(Debug, Clone, Default)]
pub struct DijkstraWorkspace {
    dist: Vec<f64>,
    prev: Vec<u32>,
    stamp: Vec<u32>,
    /// Settled stamp for the Dial and A* searches: a vertex is final once
    /// `done[i] == epoch` (the heap path uses the `cost > dist` skip
    /// instead — DESIGN.md §12.3 shows the two are equivalent).
    done: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<Entry>,
    /// The Dial bucket queue ([`QueuePolicy::Dial`] and `Auto` on
    /// bounded-integer cost models).
    bucket: BucketQueue,
    /// The A* lower bound, rebuilt per `AStar` query.
    bound: RectilinearBound,
    /// Search window of the running Prim field
    /// ([`DijkstraWorkspace::field_begin`]); `None` is the whole grid.
    field_bounds: Option<SearchBounds>,
    /// First source seeded into the running Prim field: the `from` of its
    /// [`GraphError::Unreachable`].
    field_origin: Option<GridPoint>,
    /// Tier A telemetry: settled pops, relaxation attempts, queue pushes
    /// and Dial cursor scans ([`Counter::DijkstraPops`] and friends).
    /// Monotone across queries; owners read deltas (see
    /// `oarsmt-telemetry`).
    pub counters: CounterSet,
}

/// The pre-refactor name of [`DijkstraWorkspace`], kept as an alias so
/// existing call sites keep compiling.
pub type SearchSpace = DijkstraWorkspace;

impl DijkstraWorkspace {
    /// Creates an empty workspace; arrays grow on first use.
    pub fn new() -> Self {
        DijkstraWorkspace::default()
    }

    fn prepare(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.prev.resize(n, NO_PREV);
            self.stamp.resize(n, 0);
            self.done.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrapped: reset all stamps once.
            self.stamp.fill(0);
            self.done.fill(0);
            self.epoch = 1;
        }
        self.heap.clear();
    }

    #[inline]
    fn fresh(&self, idx: usize) -> bool {
        self.stamp[idx] != self.epoch
    }

    /// Multi-source, multi-target shortest path: from the cheapest of
    /// `sources` (each with an initial cost of zero) to the first settled
    /// vertex for which `is_target` returns `true`.
    ///
    /// `bounds`, when given, restricts expansion to a rectangular grid
    /// window (targets outside the window are unreachable).
    ///
    /// # Errors
    ///
    /// * [`GraphError::EmptyTerminalSet`] if `sources` is empty.
    /// * [`GraphError::BlockedSource`] if every source is blocked.
    /// * [`GraphError::Unreachable`] if no target can be reached.
    pub fn shortest_path_to_set<F>(
        &mut self,
        graph: &HananGraph,
        sources: &[GridPoint],
        is_target: F,
        bounds: Option<SearchBounds>,
    ) -> Result<GridPath, GraphError>
    where
        F: Fn(usize) -> bool,
    {
        let mut points = Vec::new();
        let cost =
            self.shortest_path_to_set_into(graph, sources, is_target, bounds, &mut points)?;
        Ok(GridPath { points, cost })
    }

    /// [`DijkstraWorkspace::shortest_path_to_set`] writing the path into a
    /// caller-owned buffer (cleared first) instead of allocating a
    /// [`GridPath`]; returns the path cost. This is the allocation-free
    /// entry point of the maze-routing hot loop.
    ///
    /// # Errors
    ///
    /// See [`DijkstraWorkspace::shortest_path_to_set`]. On error `out` is
    /// left cleared.
    pub fn shortest_path_to_set_into<F>(
        &mut self,
        graph: &HananGraph,
        sources: &[GridPoint],
        is_target: F,
        bounds: Option<SearchBounds>,
        out: &mut Vec<GridPoint>,
    ) -> Result<f64, GraphError>
    where
        F: Fn(usize) -> bool,
    {
        out.clear();
        if sources.is_empty() {
            return Err(GraphError::EmptyTerminalSet);
        }
        self.prepare(graph.len());
        let mut any_source = false;
        for &s in sources {
            if graph.is_blocked(s) {
                continue;
            }
            let idx = graph.index(s);
            if self.fresh(idx) || self.dist[idx] > 0.0 {
                self.stamp[idx] = self.epoch;
                self.dist[idx] = 0.0;
                self.prev[idx] = NO_PREV;
                self.counters.bump(Counter::DijkstraPushes);
                self.heap.push(Entry {
                    cost: 0.0,
                    idx: idx as u32,
                });
                any_source = true;
            }
        }
        if !any_source {
            return Err(GraphError::BlockedSource(sources[0]));
        }

        while let Some(Entry { cost, idx }) = self.heap.pop() {
            let idx = idx as usize;
            if cost > self.dist[idx] {
                continue; // stale heap entry
            }
            self.counters.bump(Counter::DijkstraPops);
            if is_target(idx) {
                return Ok(self.reconstruct_into(graph, idx, out));
            }
            let p = graph.point(idx);
            for (q, w) in graph.neighbors(p) {
                if let Some(b) = bounds {
                    if !b.contains(q) {
                        continue;
                    }
                }
                let qi = graph.index(q);
                let nd = cost + w;
                self.counters.bump(Counter::DijkstraRelaxations);
                if self.fresh(qi) || nd < self.dist[qi] {
                    self.stamp[qi] = self.epoch;
                    self.dist[qi] = nd;
                    self.prev[qi] = idx as u32;
                    self.counters.bump(Counter::DijkstraPushes);
                    self.heap.push(Entry {
                        cost: nd,
                        idx: qi as u32,
                    });
                }
            }
        }
        Err(GraphError::Unreachable {
            from: sources[0],
            to: None,
        })
    }

    /// [`DijkstraWorkspace::shortest_path_to_set`] driven by a prebuilt
    /// [`GridAdjacency`](crate::csr::GridAdjacency) instead of the
    /// point-based [`HananGraph::neighbors`] iterator.
    ///
    /// The CSR lists neighbors in exactly the iterator's order with the
    /// same `f64` edge costs, so the heap sees an identical push/pop
    /// sequence and the result is bit-identical to the unbounded
    /// point-based search — only the per-relaxation grid arithmetic and
    /// obstacle lookups are gone. There is no `bounds` parameter: bounded
    /// callers keep the point-based method.
    ///
    /// `adj` must be built for `graph` (see
    /// [`GridAdjacency::ensure`](crate::csr::GridAdjacency::ensure)).
    ///
    /// # Errors
    ///
    /// See [`DijkstraWorkspace::shortest_path_to_set`].
    ///
    /// # Panics
    ///
    /// Panics (on index out of range) if `adj` was built for a smaller
    /// graph.
    pub fn shortest_path_to_set_csr<F>(
        &mut self,
        graph: &HananGraph,
        adj: &crate::csr::GridAdjacency,
        sources: &[GridPoint],
        is_target: F,
    ) -> Result<GridPath, GraphError>
    where
        F: Fn(usize) -> bool,
    {
        let mut points = Vec::new();
        let cost =
            self.shortest_path_to_set_csr_into(graph, adj, sources, is_target, &mut points)?;
        Ok(GridPath { points, cost })
    }

    /// [`DijkstraWorkspace::shortest_path_to_set_csr`] writing the path
    /// into a caller-owned buffer (cleared first) instead of allocating a
    /// [`GridPath`]; returns the path cost.
    ///
    /// # Errors
    ///
    /// See [`DijkstraWorkspace::shortest_path_to_set`]. On error `out` is
    /// left cleared.
    ///
    /// # Panics
    ///
    /// Panics (on index out of range) if `adj` was built for a smaller
    /// graph.
    pub fn shortest_path_to_set_csr_into<F>(
        &mut self,
        graph: &HananGraph,
        adj: &crate::csr::GridAdjacency,
        sources: &[GridPoint],
        is_target: F,
        out: &mut Vec<GridPoint>,
    ) -> Result<f64, GraphError>
    where
        F: Fn(usize) -> bool,
    {
        out.clear();
        if sources.is_empty() {
            return Err(GraphError::EmptyTerminalSet);
        }
        self.prepare(graph.len());
        let mut any_source = false;
        for &s in sources {
            if graph.is_blocked(s) {
                continue;
            }
            let idx = graph.index(s);
            if self.fresh(idx) || self.dist[idx] > 0.0 {
                self.stamp[idx] = self.epoch;
                self.dist[idx] = 0.0;
                self.prev[idx] = NO_PREV;
                self.counters.bump(Counter::DijkstraPushes);
                self.heap.push(Entry {
                    cost: 0.0,
                    idx: idx as u32,
                });
                any_source = true;
            }
        }
        if !any_source {
            return Err(GraphError::BlockedSource(sources[0]));
        }

        while let Some(Entry { cost, idx }) = self.heap.pop() {
            let idx = idx as usize;
            if cost > self.dist[idx] {
                continue; // stale heap entry
            }
            self.counters.bump(Counter::DijkstraPops);
            if is_target(idx) {
                return Ok(self.reconstruct_into(graph, idx, out));
            }
            for (qi, w) in adj.neighbors(idx) {
                let qi = qi as usize;
                let nd = cost + w;
                self.counters.bump(Counter::DijkstraRelaxations);
                if self.fresh(qi) || nd < self.dist[qi] {
                    self.stamp[qi] = self.epoch;
                    self.dist[qi] = nd;
                    self.prev[qi] = idx as u32;
                    self.counters.bump(Counter::DijkstraPushes);
                    self.heap.push(Entry {
                        cost: nd,
                        idx: qi as u32,
                    });
                }
            }
        }
        Err(GraphError::Unreachable {
            from: sources[0],
            to: None,
        })
    }

    /// [`DijkstraWorkspace::shortest_path_to_set`] under an explicit
    /// [`QueuePolicy`].
    ///
    /// `targets` is the A* hint: under [`QueuePolicy::AStar`] it must
    /// include every vertex `is_target` accepts (the lower bound must be
    /// zero on all targets, or the first settled target is not guaranteed
    /// cheapest). The other policies ignore it; pass `&[]`. `Auto`,
    /// `Heap`, and `Dial` return bit-identical results (DESIGN.md §12.3);
    /// `AStar` returns the same cost bits but possibly a different
    /// equal-cost path (§12.4).
    ///
    /// # Errors
    ///
    /// See [`DijkstraWorkspace::shortest_path_to_set`].
    pub fn shortest_path_to_set_policy<F>(
        &mut self,
        graph: &HananGraph,
        sources: &[GridPoint],
        is_target: F,
        bounds: Option<SearchBounds>,
        policy: QueuePolicy,
        targets: &[GridPoint],
    ) -> Result<GridPath, GraphError>
    where
        F: Fn(usize) -> bool,
    {
        let mut points = Vec::new();
        let cost = self.shortest_path_to_set_policy_into(
            graph,
            sources,
            is_target,
            bounds,
            policy,
            targets,
            &mut points,
        )?;
        Ok(GridPath { points, cost })
    }

    /// [`DijkstraWorkspace::shortest_path_to_set_policy`] writing the path
    /// into a caller-owned buffer (cleared first); returns the path cost.
    /// This is the allocation-free policy-dispatched entry point of the
    /// maze-routing hot loop.
    ///
    /// # Errors
    ///
    /// See [`DijkstraWorkspace::shortest_path_to_set`]. On error `out` is
    /// left cleared.
    #[allow(clippy::too_many_arguments)]
    pub fn shortest_path_to_set_policy_into<F>(
        &mut self,
        graph: &HananGraph,
        sources: &[GridPoint],
        is_target: F,
        bounds: Option<SearchBounds>,
        policy: QueuePolicy,
        targets: &[GridPoint],
        out: &mut Vec<GridPoint>,
    ) -> Result<f64, GraphError>
    where
        F: Fn(usize) -> bool,
    {
        match policy.resolve(graph.integer_cost_ceiling(), !targets.is_empty()) {
            ResolvedQueue::Heap => {
                self.shortest_path_to_set_into(graph, sources, is_target, bounds, out)
            }
            ResolvedQueue::Dial(ceiling) => {
                self.dial_search_point(graph, sources, is_target, bounds, ceiling, out)
            }
            ResolvedQueue::AStar => {
                self.astar_search_point(graph, sources, is_target, bounds, targets, out)
            }
        }
    }

    /// [`DijkstraWorkspace::shortest_path_to_set_csr`] under an explicit
    /// [`QueuePolicy`]. See
    /// [`DijkstraWorkspace::shortest_path_to_set_policy`] for the
    /// `targets` hint contract.
    ///
    /// # Errors
    ///
    /// See [`DijkstraWorkspace::shortest_path_to_set`].
    ///
    /// # Panics
    ///
    /// Panics (on index out of range) if `adj` was built for a smaller
    /// graph.
    pub fn shortest_path_to_set_csr_policy<F>(
        &mut self,
        graph: &HananGraph,
        adj: &crate::csr::GridAdjacency,
        sources: &[GridPoint],
        is_target: F,
        policy: QueuePolicy,
        targets: &[GridPoint],
    ) -> Result<GridPath, GraphError>
    where
        F: Fn(usize) -> bool,
    {
        let mut points = Vec::new();
        let cost = self.shortest_path_to_set_csr_policy_into(
            graph,
            adj,
            sources,
            is_target,
            policy,
            targets,
            &mut points,
        )?;
        Ok(GridPath { points, cost })
    }

    /// [`DijkstraWorkspace::shortest_path_to_set_csr_policy`] writing the
    /// path into a caller-owned buffer (cleared first); returns the path
    /// cost.
    ///
    /// # Errors
    ///
    /// See [`DijkstraWorkspace::shortest_path_to_set`]. On error `out` is
    /// left cleared.
    ///
    /// # Panics
    ///
    /// Panics (on index out of range) if `adj` was built for a smaller
    /// graph.
    #[allow(clippy::too_many_arguments)]
    pub fn shortest_path_to_set_csr_policy_into<F>(
        &mut self,
        graph: &HananGraph,
        adj: &crate::csr::GridAdjacency,
        sources: &[GridPoint],
        is_target: F,
        policy: QueuePolicy,
        targets: &[GridPoint],
        out: &mut Vec<GridPoint>,
    ) -> Result<f64, GraphError>
    where
        F: Fn(usize) -> bool,
    {
        match policy.resolve(graph.integer_cost_ceiling(), !targets.is_empty()) {
            ResolvedQueue::Heap => {
                self.shortest_path_to_set_csr_into(graph, adj, sources, is_target, out)
            }
            ResolvedQueue::Dial(ceiling) => {
                self.dial_search_csr(graph, adj, sources, is_target, ceiling, out)
            }
            ResolvedQueue::AStar => {
                self.astar_search_csr(graph, adj, sources, is_target, targets, out)
            }
        }
    }

    /// Seeds a query's sources into `dist`/`prev` and the Dial bucket
    /// queue (all at key 0). Returns whether any source was usable.
    fn dial_seed(&mut self, graph: &HananGraph, sources: &[GridPoint], ceiling: u64) -> bool {
        self.prepare(graph.len());
        self.bucket.reset(ceiling.max(1) as usize);
        let mut any_source = false;
        for &s in sources {
            if graph.is_blocked(s) {
                continue;
            }
            let idx = graph.index(s);
            if self.fresh(idx) || self.dist[idx] > 0.0 {
                self.stamp[idx] = self.epoch;
                self.dist[idx] = 0.0;
                self.prev[idx] = NO_PREV;
                self.counters.bump(Counter::DijkstraPushes);
                self.bucket.push(0, idx as u32);
                any_source = true;
            }
        }
        any_source
    }

    /// The point-based Dial search: the heap loop of
    /// [`DijkstraWorkspace::shortest_path_to_set_into`] with the binary
    /// heap replaced by the bucket queue. Bit-identical to the heap path
    /// (DESIGN.md §12.3): bucket pop order is `(cost, vertex index)` and
    /// the `done` stamp reproduces the heap's stale-entry skip, so
    /// `dist`/`prev`, the returned path, its cost bits, and the
    /// pops/relaxations/pushes counters all match exactly.
    fn dial_search_point<F>(
        &mut self,
        graph: &HananGraph,
        sources: &[GridPoint],
        is_target: F,
        bounds: Option<SearchBounds>,
        ceiling: u64,
        out: &mut Vec<GridPoint>,
    ) -> Result<f64, GraphError>
    where
        F: Fn(usize) -> bool,
    {
        out.clear();
        if sources.is_empty() {
            return Err(GraphError::EmptyTerminalSet);
        }
        if !self.dial_seed(graph, sources, ceiling) {
            return Err(GraphError::BlockedSource(sources[0]));
        }
        let mut scans = 0u64;
        let result = loop {
            let Some((_key, idx)) = self.bucket.pop_min(&mut scans) else {
                break Err(GraphError::Unreachable {
                    from: sources[0],
                    to: None,
                });
            };
            let idx = idx as usize;
            if self.done[idx] == self.epoch {
                continue; // stale duplicate (the heap's `cost > dist` skip)
            }
            self.done[idx] = self.epoch;
            self.counters.bump(Counter::DijkstraPops);
            if is_target(idx) {
                break Ok(self.reconstruct_into(graph, idx, out));
            }
            let cost = self.dist[idx];
            let p = graph.point(idx);
            for (q, w) in graph.neighbors(p) {
                if let Some(b) = bounds {
                    if !b.contains(q) {
                        continue;
                    }
                }
                let qi = graph.index(q);
                let nd = cost + w;
                self.counters.bump(Counter::DijkstraRelaxations);
                if self.fresh(qi) || nd < self.dist[qi] {
                    self.stamp[qi] = self.epoch;
                    self.dist[qi] = nd;
                    self.prev[qi] = idx as u32;
                    self.counters.bump(Counter::DijkstraPushes);
                    self.bucket.push(nd as u64, qi as u32);
                }
            }
        };
        self.counters.add(Counter::DijkstraBucketScans, scans);
        result
    }

    /// The CSR-driven Dial search; see
    /// [`DijkstraWorkspace::dial_search_point`] for the bit-identity
    /// argument (the CSR lists neighbors in the iterator's order, so the
    /// push sequence is unchanged).
    fn dial_search_csr<F>(
        &mut self,
        graph: &HananGraph,
        adj: &crate::csr::GridAdjacency,
        sources: &[GridPoint],
        is_target: F,
        ceiling: u64,
        out: &mut Vec<GridPoint>,
    ) -> Result<f64, GraphError>
    where
        F: Fn(usize) -> bool,
    {
        out.clear();
        if sources.is_empty() {
            return Err(GraphError::EmptyTerminalSet);
        }
        if !self.dial_seed(graph, sources, ceiling) {
            return Err(GraphError::BlockedSource(sources[0]));
        }
        let mut scans = 0u64;
        let result = loop {
            let Some((_key, idx)) = self.bucket.pop_min(&mut scans) else {
                break Err(GraphError::Unreachable {
                    from: sources[0],
                    to: None,
                });
            };
            let idx = idx as usize;
            if self.done[idx] == self.epoch {
                continue; // stale duplicate (the heap's `cost > dist` skip)
            }
            self.done[idx] = self.epoch;
            self.counters.bump(Counter::DijkstraPops);
            if is_target(idx) {
                break Ok(self.reconstruct_into(graph, idx, out));
            }
            let cost = self.dist[idx];
            for (qi, w) in adj.neighbors(idx) {
                let qi = qi as usize;
                let nd = cost + w;
                self.counters.bump(Counter::DijkstraRelaxations);
                if self.fresh(qi) || nd < self.dist[qi] {
                    self.stamp[qi] = self.epoch;
                    self.dist[qi] = nd;
                    self.prev[qi] = idx as u32;
                    self.counters.bump(Counter::DijkstraPushes);
                    self.bucket.push(nd as u64, qi as u32);
                }
            }
        };
        self.counters.add(Counter::DijkstraBucketScans, scans);
        result
    }

    /// Seeds a query's sources into `dist`/`prev` and the binary heap at
    /// their `f = 0 + h` keys (the bound must already be prepared).
    /// Returns whether any source was usable.
    fn astar_seed(&mut self, graph: &HananGraph, sources: &[GridPoint]) -> bool {
        let mut any_source = false;
        for &s in sources {
            if graph.is_blocked(s) {
                continue;
            }
            let idx = graph.index(s);
            if self.fresh(idx) || self.dist[idx] > 0.0 {
                self.stamp[idx] = self.epoch;
                self.dist[idx] = 0.0;
                self.prev[idx] = NO_PREV;
                self.counters.bump(Counter::DijkstraPushes);
                self.heap.push(Entry {
                    cost: self.bound.eval(s) as f64,
                    idx: idx as u32,
                });
                any_source = true;
            }
        }
        any_source
    }

    /// The point-based A* search: the binary heap ordered by `f = g + h`
    /// with [`RectilinearBound`] as `h`. All arithmetic stays exact
    /// (integer-valued `f64`s below 2⁵³), so the returned cost bits match
    /// the oracle's; the path geometry may differ on cost ties
    /// (DESIGN.md §12.4).
    fn astar_search_point<F>(
        &mut self,
        graph: &HananGraph,
        sources: &[GridPoint],
        is_target: F,
        bounds: Option<SearchBounds>,
        targets: &[GridPoint],
        out: &mut Vec<GridPoint>,
    ) -> Result<f64, GraphError>
    where
        F: Fn(usize) -> bool,
    {
        out.clear();
        if sources.is_empty() {
            return Err(GraphError::EmptyTerminalSet);
        }
        self.prepare(graph.len());
        self.bound.prepare(graph, targets);
        if !self.astar_seed(graph, sources) {
            return Err(GraphError::BlockedSource(sources[0]));
        }
        while let Some(Entry { cost: _f, idx }) = self.heap.pop() {
            let idx = idx as usize;
            if self.done[idx] == self.epoch {
                continue; // stale duplicate
            }
            self.done[idx] = self.epoch;
            self.counters.bump(Counter::DijkstraPops);
            if is_target(idx) {
                return Ok(self.reconstruct_into(graph, idx, out));
            }
            let g = self.dist[idx];
            let p = graph.point(idx);
            for (q, w) in graph.neighbors(p) {
                if let Some(b) = bounds {
                    if !b.contains(q) {
                        continue;
                    }
                }
                let qi = graph.index(q);
                let nd = g + w;
                self.counters.bump(Counter::DijkstraRelaxations);
                if self.fresh(qi) || nd < self.dist[qi] {
                    self.stamp[qi] = self.epoch;
                    self.dist[qi] = nd;
                    self.prev[qi] = idx as u32;
                    self.counters.bump(Counter::DijkstraPushes);
                    self.heap.push(Entry {
                        cost: nd + self.bound.eval(q) as f64,
                        idx: qi as u32,
                    });
                }
            }
        }
        Err(GraphError::Unreachable {
            from: sources[0],
            to: None,
        })
    }

    /// The CSR-driven A* search; one `graph.point` call per improving
    /// relaxation pays for the `h` evaluation.
    fn astar_search_csr<F>(
        &mut self,
        graph: &HananGraph,
        adj: &crate::csr::GridAdjacency,
        sources: &[GridPoint],
        is_target: F,
        targets: &[GridPoint],
        out: &mut Vec<GridPoint>,
    ) -> Result<f64, GraphError>
    where
        F: Fn(usize) -> bool,
    {
        out.clear();
        if sources.is_empty() {
            return Err(GraphError::EmptyTerminalSet);
        }
        self.prepare(graph.len());
        self.bound.prepare(graph, targets);
        if !self.astar_seed(graph, sources) {
            return Err(GraphError::BlockedSource(sources[0]));
        }
        while let Some(Entry { cost: _f, idx }) = self.heap.pop() {
            let idx = idx as usize;
            if self.done[idx] == self.epoch {
                continue; // stale duplicate
            }
            self.done[idx] = self.epoch;
            self.counters.bump(Counter::DijkstraPops);
            if is_target(idx) {
                return Ok(self.reconstruct_into(graph, idx, out));
            }
            let g = self.dist[idx];
            for (qi, w) in adj.neighbors(idx) {
                let qi = qi as usize;
                let nd = g + w;
                self.counters.bump(Counter::DijkstraRelaxations);
                if self.fresh(qi) || nd < self.dist[qi] {
                    self.stamp[qi] = self.epoch;
                    self.dist[qi] = nd;
                    self.prev[qi] = idx as u32;
                    self.counters.bump(Counter::DijkstraPushes);
                    self.heap.push(Entry {
                        cost: nd + self.bound.eval(graph.point(qi)) as f64,
                        idx: qi as u32,
                    });
                }
            }
        }
        Err(GraphError::Unreachable {
            from: sources[0],
            to: None,
        })
    }

    /// Starts a resumable multi-source search — the Prim field of
    /// DESIGN.md §12.6 — on `graph`, optionally confined to `bounds` (the
    /// same window rule as [`DijkstraWorkspace::shortest_path_to_set`]:
    /// sources may lie outside it, relaxations may not). Seed it with
    /// [`DijkstraWorkspace::field_add_sources`] and grow it with
    /// [`DijkstraWorkspace::field_next_into`]; any other query on this
    /// workspace ends the field.
    pub fn field_begin(&mut self, graph: &HananGraph, bounds: Option<SearchBounds>) {
        self.prepare(graph.len());
        self.field_bounds = bounds;
        self.field_origin = None;
    }

    /// Adds `sources` to the running field as distance-0 sources **without
    /// clearing the queue**: vertices settled so far keep their labels, and
    /// only those whose distance now drops are pushed again. Blocked
    /// sources and vertices already at distance 0 are skipped.
    pub fn field_add_sources(&mut self, graph: &HananGraph, sources: &[GridPoint]) {
        for &s in sources {
            if graph.is_blocked(s) {
                continue;
            }
            let idx = graph.index(s);
            if self.fresh(idx) || self.dist[idx] > 0.0 {
                self.stamp[idx] = self.epoch;
                self.dist[idx] = 0.0;
                self.prev[idx] = NO_PREV;
                self.counters.bump(Counter::DijkstraPushes);
                self.heap.push(Entry {
                    cost: 0.0,
                    idx: idx as u32,
                });
                self.field_origin.get_or_insert(s);
            }
        }
    }

    /// Resumes the field until the first vertex accepted by `is_target`
    /// pops, writes the path from its source into `out` (cleared first)
    /// and returns its cost.
    ///
    /// The result is bit-identical to
    /// [`DijkstraWorkspace::shortest_path_to_set_into`] restarted from every
    /// source added so far (DESIGN.md §12.6): pops follow the heap's
    /// `(cost, vertex index)` order, and a relaxation that ties the current
    /// label re-points `prev` when the relaxing vertex precedes the current
    /// predecessor in that order, so every `prev` is the first-popped tight
    /// neighbour a restarted search would record. The popped target is not
    /// relaxed; add it (with its path) as a source before the next call.
    ///
    /// `adj` must be built for `graph` (see
    /// [`GridAdjacency::ensure`](crate::csr::GridAdjacency::ensure)).
    ///
    /// # Errors
    ///
    /// * [`GraphError::EmptyTerminalSet`] if no source was ever added.
    /// * [`GraphError::Unreachable`] (from the first source) once the
    ///   queue drains without a target.
    ///
    /// # Panics
    ///
    /// Panics (on index out of range) if `adj` was built for a smaller
    /// graph.
    pub fn field_next_into<F>(
        &mut self,
        graph: &HananGraph,
        adj: &crate::csr::GridAdjacency,
        is_target: F,
        out: &mut Vec<GridPoint>,
    ) -> Result<f64, GraphError>
    where
        F: Fn(usize) -> bool,
    {
        out.clear();
        let Some(origin) = self.field_origin else {
            return Err(GraphError::EmptyTerminalSet);
        };
        while let Some(Entry { cost, idx }) = self.heap.pop() {
            let idx = idx as usize;
            if cost > self.dist[idx] {
                continue; // stale entry, superseded by a lower label
            }
            self.counters.bump(Counter::DijkstraPops);
            if is_target(idx) {
                return Ok(self.reconstruct_into(graph, idx, out));
            }
            for (qi, w) in adj.neighbors(idx) {
                if let Some(b) = self.field_bounds {
                    if !b.contains(graph.point(qi as usize)) {
                        continue;
                    }
                }
                let qi = qi as usize;
                let nd = cost + w;
                self.counters.bump(Counter::DijkstraRelaxations);
                if self.fresh(qi) || nd < self.dist[qi] {
                    self.stamp[qi] = self.epoch;
                    self.dist[qi] = nd;
                    self.prev[qi] = idx as u32;
                    self.counters.bump(Counter::DijkstraPushes);
                    self.heap.push(Entry {
                        cost: nd,
                        idx: qi as u32,
                    });
                } else if nd == self.dist[qi] {
                    // A tie keeps the label; the predecessor becomes the
                    // earlier of the two in `(cost, index)` pop order.
                    let p = self.prev[qi];
                    if p != NO_PREV && (cost, idx) < (self.dist[p as usize], p as usize) {
                        self.prev[qi] = idx as u32;
                    }
                }
            }
        }
        Err(GraphError::Unreachable {
            from: origin,
            to: None,
        })
    }

    /// Full single-source Dijkstra; returns the distance to every vertex
    /// (`f64::INFINITY` where unreachable).
    ///
    /// # Errors
    ///
    /// [`GraphError::BlockedSource`] if the source vertex is blocked.
    pub fn distances_from(
        &mut self,
        graph: &HananGraph,
        source: GridPoint,
    ) -> Result<Vec<f64>, GraphError> {
        if graph.is_blocked(source) {
            return Err(GraphError::BlockedSource(source));
        }
        self.prepare(graph.len());
        let s = graph.index(source);
        self.stamp[s] = self.epoch;
        self.dist[s] = 0.0;
        self.prev[s] = NO_PREV;
        self.counters.bump(Counter::DijkstraPushes);
        self.heap.push(Entry {
            cost: 0.0,
            idx: s as u32,
        });
        while let Some(Entry { cost, idx }) = self.heap.pop() {
            let idx = idx as usize;
            if cost > self.dist[idx] {
                continue;
            }
            self.counters.bump(Counter::DijkstraPops);
            let p = graph.point(idx);
            for (q, w) in graph.neighbors(p) {
                let qi = graph.index(q);
                let nd = cost + w;
                self.counters.bump(Counter::DijkstraRelaxations);
                if self.fresh(qi) || nd < self.dist[qi] {
                    self.stamp[qi] = self.epoch;
                    self.dist[qi] = nd;
                    self.prev[qi] = idx as u32;
                    self.counters.bump(Counter::DijkstraPushes);
                    self.heap.push(Entry {
                        cost: nd,
                        idx: qi as u32,
                    });
                }
            }
        }
        Ok((0..graph.len())
            .map(|i| {
                if self.stamp[i] == self.epoch {
                    self.dist[i]
                } else {
                    f64::INFINITY
                }
            })
            .collect())
    }

    fn reconstruct_into(&self, graph: &HananGraph, target: usize, out: &mut Vec<GridPoint>) -> f64 {
        out.clear();
        let mut cur = target;
        loop {
            out.push(graph.point(cur));
            let prev = self.prev[cur];
            if prev == NO_PREV {
                break;
            }
            cur = prev as usize;
        }
        out.reverse();
        self.dist[target]
    }
}

/// One-shot shortest path between two vertices.
///
/// # Errors
///
/// See [`DijkstraWorkspace::shortest_path_to_set`].
pub fn shortest_path(
    graph: &HananGraph,
    from: GridPoint,
    to: GridPoint,
) -> Result<GridPath, GraphError> {
    shortest_path_in(&mut DijkstraWorkspace::new(), graph, from, to)
}

/// Shortest path between two vertices using a caller-owned workspace.
///
/// # Errors
///
/// See [`DijkstraWorkspace::shortest_path_to_set`].
pub fn shortest_path_in(
    ws: &mut DijkstraWorkspace,
    graph: &HananGraph,
    from: GridPoint,
    to: GridPoint,
) -> Result<GridPath, GraphError> {
    let target_idx = graph.index(to);
    ws.shortest_path_to_set(graph, &[from], |i| i == target_idx, None)
        .map_err(|e| match e {
            GraphError::Unreachable { from, .. } => GraphError::Unreachable { from, to: Some(to) },
            other => other,
        })
}

/// One-shot multi-source shortest path to a target set.
///
/// # Errors
///
/// See [`DijkstraWorkspace::shortest_path_to_set`].
pub fn shortest_path_to_set<F>(
    graph: &HananGraph,
    sources: &[GridPoint],
    is_target: F,
) -> Result<GridPath, GraphError>
where
    F: Fn(usize) -> bool,
{
    DijkstraWorkspace::new().shortest_path_to_set(graph, sources, is_target, None)
}

/// Multi-source shortest path to a target set using a caller-owned
/// workspace (equivalent to
/// [`DijkstraWorkspace::shortest_path_to_set`] without bounds; provided for
/// symmetry with the other `_in` entry points).
///
/// # Errors
///
/// See [`DijkstraWorkspace::shortest_path_to_set`].
pub fn shortest_path_to_set_in<F>(
    ws: &mut DijkstraWorkspace,
    graph: &HananGraph,
    sources: &[GridPoint],
    is_target: F,
) -> Result<GridPath, GraphError>
where
    F: Fn(usize) -> bool,
{
    ws.shortest_path_to_set(graph, sources, is_target, None)
}

/// One-shot full single-source distances.
///
/// # Errors
///
/// See [`DijkstraWorkspace::distances_from`].
pub fn distances_from(graph: &HananGraph, source: GridPoint) -> Result<Vec<f64>, GraphError> {
    DijkstraWorkspace::new().distances_from(graph, source)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_grid(h: usize, v: usize, m: usize) -> HananGraph {
        HananGraph::uniform(h, v, m, 1.0, 1.0, 3.0)
    }

    #[test]
    fn straight_line_cost_is_manhattan() {
        let g = open_grid(5, 5, 1);
        let p = shortest_path(&g, GridPoint::new(0, 0, 0), GridPoint::new(4, 3, 0)).unwrap();
        assert_eq!(p.cost, 7.0);
        assert_eq!(p.source(), GridPoint::new(0, 0, 0));
        assert_eq!(p.target(), GridPoint::new(4, 3, 0));
        // Consecutive points are neighbors.
        for (a, b) in p.edges() {
            assert_eq!(a.grid_distance(b), 1);
        }
    }

    #[test]
    fn path_cost_equals_sum_of_edge_costs() {
        let g = HananGraph::with_costs(4, 3, 2, vec![2.0, 5.0, 1.0], vec![4.0, 4.0], 3.0).unwrap();
        let p = shortest_path(&g, GridPoint::new(0, 0, 0), GridPoint::new(3, 2, 1)).unwrap();
        let sum: f64 = p
            .edges()
            .map(|(a, b)| g.edge_cost(a, b).expect("path edges are grid edges"))
            .sum();
        assert!((p.cost - sum).abs() < 1e-9);
    }

    #[test]
    fn routes_around_obstacle_wall() {
        // A vertical wall with a single gap forces a detour.
        let mut g = open_grid(5, 5, 1);
        for v in 0..4 {
            g.add_obstacle_vertex(GridPoint::new(2, v, 0)).unwrap();
        }
        let p = shortest_path(&g, GridPoint::new(0, 0, 0), GridPoint::new(4, 0, 0)).unwrap();
        // Must go up to row 4, across, and back down: 4 + 4 + 4 + ... check
        // exact: up 4, right 4, down 4 = 12.
        assert_eq!(p.cost, 12.0);
        assert!(p.points.iter().all(|&q| !g.is_blocked(q)));
    }

    #[test]
    fn uses_other_layer_when_cheaper() {
        // Fully blocked layer 0 except endpoints: path must via up and back.
        let mut g = open_grid(3, 1, 2);
        g.add_obstacle_vertex(GridPoint::new(1, 0, 0)).unwrap();
        let p = shortest_path(&g, GridPoint::new(0, 0, 0), GridPoint::new(2, 0, 0)).unwrap();
        // via(3) + 2 horizontal + via(3) = 8.
        assert_eq!(p.cost, 8.0);
    }

    #[test]
    fn unreachable_target_is_an_error() {
        let mut g = open_grid(3, 3, 1);
        // Wall off the right column completely.
        for v in 0..3 {
            g.add_obstacle_vertex(GridPoint::new(1, v, 0)).unwrap();
        }
        let err = shortest_path(&g, GridPoint::new(0, 0, 0), GridPoint::new(2, 2, 0)).unwrap_err();
        assert!(matches!(err, GraphError::Unreachable { .. }));
    }

    #[test]
    fn blocked_source_is_an_error() {
        let mut g = open_grid(3, 3, 1);
        g.add_obstacle_vertex(GridPoint::new(0, 0, 0)).unwrap();
        let err = shortest_path(&g, GridPoint::new(0, 0, 0), GridPoint::new(2, 2, 0)).unwrap_err();
        assert_eq!(err, GraphError::BlockedSource(GridPoint::new(0, 0, 0)));
    }

    #[test]
    fn empty_sources_is_an_error() {
        let g = open_grid(3, 3, 1);
        let err = shortest_path_to_set(&g, &[], |_| true).unwrap_err();
        assert_eq!(err, GraphError::EmptyTerminalSet);
    }

    #[test]
    fn multi_source_picks_nearest_source() {
        let g = open_grid(10, 1, 1);
        let sources = [GridPoint::new(0, 0, 0), GridPoint::new(8, 0, 0)];
        let target = g.index(GridPoint::new(6, 0, 0));
        let p = shortest_path_to_set(&g, &sources, |i| i == target).unwrap();
        assert_eq!(p.cost, 2.0);
        assert_eq!(p.source(), GridPoint::new(8, 0, 0));
    }

    #[test]
    fn source_in_target_set_gives_trivial_path() {
        let g = open_grid(3, 3, 1);
        let s = GridPoint::new(1, 1, 0);
        let si = g.index(s);
        let p = shortest_path_to_set(&g, &[s], |i| i == si).unwrap();
        assert_eq!(p.cost, 0.0);
        assert_eq!(p.points, vec![s]);
    }

    #[test]
    fn distances_match_individual_paths() {
        let mut g = open_grid(6, 6, 2);
        g.add_obstacle_vertex(GridPoint::new(2, 2, 0)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(3, 2, 0)).unwrap();
        let src = GridPoint::new(0, 0, 0);
        let dist = distances_from(&g, src).unwrap();
        for idx in (0..g.len()).step_by(7) {
            let p = g.point(idx);
            if g.is_blocked(p) {
                assert!(dist[idx].is_infinite());
                continue;
            }
            let path = shortest_path(&g, src, p).unwrap();
            assert!(
                (dist[idx] - path.cost).abs() < 1e-9,
                "distance mismatch at {p}"
            );
        }
    }

    #[test]
    fn bounded_search_cannot_leave_window() {
        let g = open_grid(10, 10, 1);
        let bounds = SearchBounds {
            h_lo: 0,
            h_hi: 4,
            v_lo: 0,
            v_hi: 4,
        };
        let target = g.index(GridPoint::new(9, 9, 0));
        let err = SearchSpace::new()
            .shortest_path_to_set(
                &g,
                &[GridPoint::new(0, 0, 0)],
                |i| i == target,
                Some(bounds),
            )
            .unwrap_err();
        assert!(matches!(err, GraphError::Unreachable { .. }));
    }

    #[test]
    fn bounds_around_clips_to_graph() {
        let g = open_grid(6, 6, 1);
        let b = SearchBounds::around(&g, [GridPoint::new(1, 1, 0), GridPoint::new(4, 2, 0)], 3);
        assert_eq!((b.h_lo, b.h_hi, b.v_lo, b.v_hi), (0, 5, 0, 5));
        assert!(b.contains(GridPoint::new(0, 0, 0)));
    }

    #[test]
    fn csr_search_is_bit_identical_to_point_based_search() {
        let mut g = open_grid(9, 7, 2);
        for &(h, v, m) in &[(2, 0, 0), (2, 1, 0), (2, 2, 0), (5, 4, 1), (6, 4, 1)] {
            g.add_obstacle_vertex(GridPoint::new(h, v, m)).unwrap();
        }
        let mut adj = crate::csr::GridAdjacency::new();
        adj.ensure(&g);
        let mut ws = DijkstraWorkspace::new();
        let sources = [GridPoint::new(0, 0, 0), GridPoint::new(8, 6, 1)];
        // Exercise several targets, interleaving the two methods on the
        // same workspace so epoch reuse is covered too.
        for target in [(4, 3, 0), (2, 6, 1), (7, 0, 0)] {
            let t = g.index(GridPoint::new(target.0, target.1, target.2));
            let a = ws
                .shortest_path_to_set(&g, &sources, |i| i == t, None)
                .unwrap();
            let b = ws
                .shortest_path_to_set_csr(&g, &adj, &sources, |i| i == t)
                .unwrap();
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            assert_eq!(a.points, b.points);
        }
    }

    #[test]
    fn counters_track_pops_relaxations_and_pushes() {
        let g = open_grid(6, 6, 1);
        let mut ws = DijkstraWorkspace::new();
        let t = g.index(GridPoint::new(5, 5, 0));
        ws.shortest_path_to_set(&g, &[GridPoint::new(0, 0, 0)], |i| i == t, None)
            .unwrap();
        let after = ws.counters;
        assert!(after.get(Counter::DijkstraPops) > 0);
        assert!(after.get(Counter::DijkstraRelaxations) >= after.get(Counter::DijkstraPops));
        assert!(after.get(Counter::DijkstraPushes) > 0);
        // A second identical query adds an identical delta.
        ws.shortest_path_to_set(&g, &[GridPoint::new(0, 0, 0)], |i| i == t, None)
            .unwrap();
        let d = ws.counters.delta_since(&after);
        assert_eq!(
            d.get(Counter::DijkstraPops),
            after.get(Counter::DijkstraPops)
        );
    }

    /// An irregular integer-cost graph with obstacles, shared by the
    /// policy tests.
    fn costed_grid() -> HananGraph {
        let mut g = HananGraph::with_costs(
            9,
            7,
            2,
            vec![2.0, 7.0, 1.0, 4.0, 3.0, 1.0, 9.0, 2.0],
            vec![5.0, 1.0, 1.0, 6.0, 2.0, 3.0],
            4.0,
        )
        .unwrap();
        for &(h, v, m) in &[(2, 0, 0), (2, 1, 0), (2, 2, 0), (5, 4, 1), (6, 4, 1)] {
            g.add_obstacle_vertex(GridPoint::new(h, v, m)).unwrap();
        }
        g
    }

    #[test]
    fn dial_is_bit_identical_to_heap_including_counters() {
        let g = costed_grid();
        let sources = [GridPoint::new(0, 0, 0), GridPoint::new(8, 6, 1)];
        let mut heap_ws = DijkstraWorkspace::new();
        let mut dial_ws = DijkstraWorkspace::new();
        for target in [(4, 3, 0), (2, 6, 1), (7, 0, 0), (0, 6, 0)] {
            let t = g.index(GridPoint::new(target.0, target.1, target.2));
            let before_heap = heap_ws.counters;
            let before_dial = dial_ws.counters;
            let a = heap_ws
                .shortest_path_to_set_policy(&g, &sources, |i| i == t, None, QueuePolicy::Heap, &[])
                .unwrap();
            let b = dial_ws
                .shortest_path_to_set_policy(&g, &sources, |i| i == t, None, QueuePolicy::Dial, &[])
                .unwrap();
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            assert_eq!(a.points, b.points);
            // The op counters are acceptance targets: pops, relaxations,
            // and pushes must match the oracle exactly.
            let dh = heap_ws.counters.delta_since(&before_heap);
            let dd = dial_ws.counters.delta_since(&before_dial);
            for c in [
                Counter::DijkstraPops,
                Counter::DijkstraRelaxations,
                Counter::DijkstraPushes,
            ] {
                assert_eq!(dh.get(c), dd.get(c), "{c:?} diverged for {target:?}");
            }
            assert_eq!(dh.get(Counter::DijkstraBucketScans), 0);
        }
    }

    #[test]
    fn auto_resolves_to_dial_on_integer_costs() {
        let g = costed_grid();
        assert!(g.integer_cost_ceiling().is_some());
        let mut ws = DijkstraWorkspace::new();
        let t = g.index(GridPoint::new(7, 0, 0));
        let before = ws.counters;
        ws.shortest_path_to_set_policy(
            &g,
            &[GridPoint::new(0, 0, 0)],
            |i| i == t,
            None,
            QueuePolicy::Auto,
            &[],
        )
        .unwrap();
        // The Dial path is the only one that can advance the cursor.
        let d = ws.counters.delta_since(&before);
        assert!(d.get(Counter::DijkstraBucketScans) > 0);
    }

    #[test]
    fn dial_falls_back_to_heap_on_fractional_costs() {
        let g =
            HananGraph::with_costs(4, 4, 1, vec![1.5, 2.0, 1.0], vec![1.0, 2.5, 1.0], 3.0).unwrap();
        assert_eq!(g.integer_cost_ceiling(), None);
        let mut ws = DijkstraWorkspace::new();
        let t = g.index(GridPoint::new(3, 3, 0));
        let before = ws.counters;
        let p = ws
            .shortest_path_to_set_policy(
                &g,
                &[GridPoint::new(0, 0, 0)],
                |i| i == t,
                None,
                QueuePolicy::Dial,
                &[],
            )
            .unwrap();
        assert_eq!(p.cost, 1.5 + 2.0 + 1.0 + 1.0 + 2.5 + 1.0);
        let d = ws.counters.delta_since(&before);
        assert_eq!(d.get(Counter::DijkstraBucketScans), 0, "fallback used heap");
    }

    #[test]
    fn csr_policy_matches_point_policy_for_all_policies() {
        let g = costed_grid();
        let mut adj = crate::csr::GridAdjacency::new();
        adj.ensure(&g);
        let sources = [GridPoint::new(0, 0, 0), GridPoint::new(8, 6, 1)];
        let mut ws = DijkstraWorkspace::new();
        for target in [(4, 3, 0), (2, 6, 1)] {
            let tp = GridPoint::new(target.0, target.1, target.2);
            let t = g.index(tp);
            let hint = [tp];
            for policy in [
                QueuePolicy::Auto,
                QueuePolicy::Heap,
                QueuePolicy::Dial,
                QueuePolicy::AStar,
            ] {
                let a = ws
                    .shortest_path_to_set_policy(&g, &sources, |i| i == t, None, policy, &hint)
                    .unwrap();
                let b = ws
                    .shortest_path_to_set_csr_policy(&g, &adj, &sources, |i| i == t, policy, &hint)
                    .unwrap();
                assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{policy:?}");
                assert_eq!(a.points, b.points, "{policy:?}");
            }
        }
    }

    #[test]
    fn astar_matches_oracle_cost_bits_with_fewer_pops() {
        let g = costed_grid();
        let mut ws = DijkstraWorkspace::new();
        let src = [GridPoint::new(0, 0, 0)];
        for target in [(8, 6, 1), (4, 3, 0), (7, 0, 0)] {
            let tp = GridPoint::new(target.0, target.1, target.2);
            let t = g.index(tp);
            let before = ws.counters;
            let oracle = ws
                .shortest_path_to_set_policy(&g, &src, |i| i == t, None, QueuePolicy::Heap, &[])
                .unwrap();
            let heap_pops = ws.counters.delta_since(&before).get(Counter::DijkstraPops);
            let before = ws.counters;
            let astar = ws
                .shortest_path_to_set_policy(&g, &src, |i| i == t, None, QueuePolicy::AStar, &[tp])
                .unwrap();
            let astar_pops = ws.counters.delta_since(&before).get(Counter::DijkstraPops);
            // Same cost bits (§12.4); the geometry may legally differ.
            assert_eq!(oracle.cost.to_bits(), astar.cost.to_bits());
            assert!(
                astar_pops <= heap_pops,
                "A* popped {astar_pops} > oracle {heap_pops} for {target:?}"
            );
            // The A* path is still a valid grid path of the same cost.
            let sum: f64 = astar
                .points
                .windows(2)
                .map(|w| g.edge_cost(w[0], w[1]).expect("grid edge"))
                .sum();
            assert_eq!(sum.to_bits(), astar.cost.to_bits());
        }
    }

    #[test]
    fn astar_without_hint_falls_back_to_dial() {
        let g = costed_grid();
        let mut ws = DijkstraWorkspace::new();
        let t = g.index(GridPoint::new(7, 0, 0));
        let src = [GridPoint::new(0, 0, 0)];
        let a = ws
            .shortest_path_to_set_policy(&g, &src, |i| i == t, None, QueuePolicy::AStar, &[])
            .unwrap();
        let b = ws
            .shortest_path_to_set_policy(&g, &src, |i| i == t, None, QueuePolicy::Heap, &[])
            .unwrap();
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.points, b.points, "hint-less AStar must act as Dial");
    }

    #[test]
    fn dial_respects_search_bounds() {
        let g = open_grid(10, 10, 1);
        let bounds = SearchBounds {
            h_lo: 0,
            h_hi: 4,
            v_lo: 0,
            v_hi: 4,
        };
        let target = g.index(GridPoint::new(9, 9, 0));
        let err = DijkstraWorkspace::new()
            .shortest_path_to_set_policy(
                &g,
                &[GridPoint::new(0, 0, 0)],
                |i| i == target,
                Some(bounds),
                QueuePolicy::Dial,
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, GraphError::Unreachable { .. }));
    }

    #[test]
    fn field_steps_match_restarted_searches() {
        // Uniform costs: equal-cost ties everywhere, so the tie re-point
        // rule decides most predecessors.
        let mut g = open_grid(9, 8, 2);
        for &(h, v, m) in &[(3, 1, 0), (3, 2, 0), (3, 3, 0), (5, 5, 1), (6, 5, 1)] {
            g.add_obstacle_vertex(GridPoint::new(h, v, m)).unwrap();
        }
        let mut adj = crate::csr::GridAdjacency::new();
        adj.ensure(&g);
        let terminals = [(8, 7, 1), (0, 7, 0), (8, 0, 0), (4, 4, 1), (2, 6, 0)]
            .map(|(h, v, m)| g.index(GridPoint::new(h, v, m)));
        for bounds in [
            None,
            Some(SearchBounds::around(&g, [GridPoint::new(1, 1, 0)], 5)),
        ] {
            let mut field = DijkstraWorkspace::new();
            let mut restart = DijkstraWorkspace::new();
            let mut sources = vec![GridPoint::new(1, 1, 0)];
            let mut left = terminals.to_vec();
            field.field_begin(&g, bounds);
            field.field_add_sources(&g, &sources);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            loop {
                let want = restart.shortest_path_to_set_into(
                    &g,
                    &sources,
                    |i| left.contains(&i),
                    bounds,
                    &mut a,
                );
                let got = field.field_next_into(&g, &adj, |i| left.contains(&i), &mut b);
                assert_eq!(want, got);
                assert_eq!(a, b);
                if got.is_err() {
                    break;
                }
                field.field_add_sources(&g, &b);
                sources.extend_from_slice(&b); // repeats seed once
                left.retain(|&t| t != g.index(b[b.len() - 1]));
            }
            // Unbounded, every terminal connects; the window cuts some off.
            assert_eq!(left.is_empty(), bounds.is_none());
        }
        assert_eq!(
            DijkstraWorkspace::new().field_next_into(&g, &adj, |_| true, &mut Vec::new()),
            Err(GraphError::EmptyTerminalSet)
        );
    }

    #[test]
    fn search_space_reuse_is_consistent() {
        let g = open_grid(8, 8, 2);
        let mut space = SearchSpace::new();
        let t1 = g.index(GridPoint::new(7, 7, 1));
        let t2 = g.index(GridPoint::new(3, 0, 0));
        let a = space
            .shortest_path_to_set(&g, &[GridPoint::new(0, 0, 0)], |i| i == t1, None)
            .unwrap();
        let b = space
            .shortest_path_to_set(&g, &[GridPoint::new(0, 0, 0)], |i| i == t2, None)
            .unwrap();
        // 7 + 7 + via(3) and 3.
        assert_eq!(a.cost, 17.0);
        assert_eq!(b.cost, 3.0);
        // And again the first query, identically.
        let a2 = space
            .shortest_path_to_set(&g, &[GridPoint::new(0, 0, 0)], |i| i == t1, None)
            .unwrap();
        assert_eq!(a2.cost, a.cost);
    }
}
