//! Single- and multi-source Dijkstra over Hanan grid graphs.
//!
//! Dijkstra over the grid is the "maze router" of the paper's OARMST
//! construction (Section 3.1): it finds the cheapest obstacle-avoiding
//! rectilinear path, counting via costs for layer changes.
//!
//! [`DijkstraWorkspace`] owns the per-vertex arrays and is reused across
//! queries (the arrays are invalidated by an epoch counter rather than
//! cleared). Every maze query goes through one method,
//! [`DijkstraWorkspace::search_into`]: a multi-source, multi-target search
//! over the graph's CSR [`GridAdjacency`], optionally confined to a
//! [`SearchBounds`] window, that writes its path into a caller-owned
//! buffer, so repeated queries allocate nothing.
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
use crate::csr::GridAdjacency;
use crate::error::GraphError;

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
/// The policy selects the queue of [`DijkstraWorkspace::search_into`], the
/// one per-query maze search. OARMST builds consult it only for `AStar`:
/// under every other policy they run the heap-ordered Prim field
/// ([`DijkstraWorkspace::field_next_into`], DESIGN.md §12.6), so in the
/// router the policy picks the queue of the polish reroutes.
///
/// ```
/// use oarsmt_geom::{GridPoint, HananGraph};
/// use oarsmt_graph::dijkstra::{DijkstraWorkspace, QueuePolicy};
/// use oarsmt_graph::GridAdjacency;
///
/// let g = HananGraph::uniform(6, 6, 1, 1.0, 1.0, 3.0);
/// let mut adj = GridAdjacency::new();
/// adj.ensure(&g);
/// let mut ws = DijkstraWorkspace::new();
/// let t = g.index(GridPoint::new(5, 4, 0));
/// let src = [GridPoint::new(0, 0, 0)];
/// let (mut heap, mut dial) = (Vec::new(), Vec::new());
/// let heap_cost =
///     ws.search_into(&g, &adj, &src, |i| i == t, None, QueuePolicy::Heap, &[], &mut heap)?;
/// let dial_cost =
///     ws.search_into(&g, &adj, &src, |i| i == t, None, QueuePolicy::Dial, &[], &mut dial)?;
/// assert_eq!(heap_cost.to_bits(), dial_cost.to_bits());
/// assert_eq!(heap, dial); // bit-identical, not just equal-cost
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

    /// Labels source `s` at distance 0 and counts its push; returns its
    /// index for the caller's queue, or `None` when `s` is blocked or
    /// already at distance 0.
    fn seed(&mut self, graph: &HananGraph, s: GridPoint) -> Option<u32> {
        if graph.is_blocked(s) {
            return None;
        }
        let idx = graph.index(s);
        if !self.fresh(idx) && self.dist[idx] <= 0.0 {
            return None;
        }
        self.stamp[idx] = self.epoch;
        self.dist[idx] = 0.0;
        self.prev[idx] = NO_PREV;
        self.counters.bump(Counter::DijkstraPushes);
        Some(idx as u32)
    }

    /// The maze query: multi-source, multi-target shortest path from the
    /// cheapest of `sources` (each at cost zero) to the first settled
    /// vertex `is_target` accepts. Writes the path, source first, into
    /// `out` (cleared first) and returns its cost. Every per-query search
    /// in the workspace runs through here, so repeated queries allocate
    /// nothing once `out` and the workspace are warm.
    ///
    /// * `adj` is the graph's CSR adjacency (see
    ///   [`GridAdjacency::ensure`]); it lists neighbours in
    ///   [`HananGraph::neighbors`] order with the same `f64` costs.
    /// * `bounds`, when given, confines relaxations to a rectangular grid
    ///   window. Sources may lie outside it; targets outside it are
    ///   unreachable. The Prim field applies the same rule.
    /// * `policy` picks the queue (DESIGN.md §12). `targets` is the A*
    ///   hint: under [`QueuePolicy::AStar`] it must include every vertex
    ///   `is_target` accepts, or the first settled target is not
    ///   guaranteed cheapest. The other policies ignore it; pass `&[]`.
    ///   `Auto`, `Heap` and `Dial` return bit-identical paths and
    ///   pop/relaxation/push counts (§12.3); `AStar` returns the same
    ///   cost bits but possibly a different equal-cost path (§12.4).
    ///
    /// # Errors
    ///
    /// * [`GraphError::EmptyTerminalSet`] if `sources` is empty.
    /// * [`GraphError::BlockedSource`] if every source is blocked.
    /// * [`GraphError::Unreachable`] (from the first source) if no target
    ///   can be reached.
    ///
    /// On error `out` is left cleared.
    ///
    /// # Panics
    ///
    /// Panics (on index out of range) if `adj` was built for a smaller
    /// graph.
    #[allow(clippy::too_many_arguments)]
    pub fn search_into<F>(
        &mut self,
        graph: &HananGraph,
        adj: &GridAdjacency,
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
        out.clear();
        if sources.is_empty() {
            return Err(GraphError::EmptyTerminalSet);
        }
        if sources.iter().all(|&s| graph.is_blocked(s)) {
            return Err(GraphError::BlockedSource(sources[0]));
        }
        self.prepare(graph.len());
        let found = match policy.resolve(graph.integer_cost_ceiling(), !targets.is_empty()) {
            ResolvedQueue::Heap => self.heap_search(graph, adj, sources, is_target, bounds),
            ResolvedQueue::Dial(ceiling) => {
                self.dial_search(graph, adj, sources, is_target, bounds, ceiling)
            }
            ResolvedQueue::AStar => {
                self.astar_search(graph, adj, sources, is_target, bounds, targets)
            }
        };
        match found {
            Some(target) => Ok(self.reconstruct_into(graph, target, out)),
            None => Err(GraphError::Unreachable { from: sources[0] }),
        }
    }

    /// The binary-heap search — the oracle the Dial queue, A* and the Prim
    /// field are checked against. Returns the first settled target, or
    /// `None` once the queue drains.
    fn heap_search<F>(
        &mut self,
        graph: &HananGraph,
        adj: &GridAdjacency,
        sources: &[GridPoint],
        is_target: F,
        bounds: Option<SearchBounds>,
    ) -> Option<usize>
    where
        F: Fn(usize) -> bool,
    {
        for &s in sources {
            if let Some(idx) = self.seed(graph, s) {
                self.heap.push(Entry { cost: 0.0, idx });
            }
        }
        while let Some(Entry { cost, idx }) = self.heap.pop() {
            let idx = idx as usize;
            if cost > self.dist[idx] {
                continue; // stale heap entry
            }
            self.counters.bump(Counter::DijkstraPops);
            if is_target(idx) {
                return Some(idx);
            }
            for (qi, w) in adj.neighbors(idx) {
                let qi = qi as usize;
                if let Some(b) = bounds {
                    if !b.contains(graph.point(qi)) {
                        continue;
                    }
                }
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
        None
    }

    /// The heap search with the binary heap replaced by Dial's bucket
    /// queue. Bit-identical to [`DijkstraWorkspace::heap_search`]
    /// (DESIGN.md §12.3): bucket pop order is `(cost, vertex index)` and
    /// the `done` stamp reproduces the heap's stale-entry skip, so
    /// `dist`/`prev`, the returned path, its cost bits, and the
    /// pops/relaxations/pushes counters all match exactly.
    fn dial_search<F>(
        &mut self,
        graph: &HananGraph,
        adj: &GridAdjacency,
        sources: &[GridPoint],
        is_target: F,
        bounds: Option<SearchBounds>,
        ceiling: u64,
    ) -> Option<usize>
    where
        F: Fn(usize) -> bool,
    {
        self.bucket.reset(ceiling.max(1) as usize);
        for &s in sources {
            if let Some(idx) = self.seed(graph, s) {
                self.bucket.push(0, idx);
            }
        }
        let mut scans = 0u64;
        let found = loop {
            let Some((_key, idx)) = self.bucket.pop_min(&mut scans) else {
                break None;
            };
            let idx = idx as usize;
            if self.done[idx] == self.epoch {
                continue; // stale duplicate (the heap's `cost > dist` skip)
            }
            self.done[idx] = self.epoch;
            self.counters.bump(Counter::DijkstraPops);
            if is_target(idx) {
                break Some(idx);
            }
            let cost = self.dist[idx];
            for (qi, w) in adj.neighbors(idx) {
                let qi = qi as usize;
                if let Some(b) = bounds {
                    if !b.contains(graph.point(qi)) {
                        continue;
                    }
                }
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
        found
    }

    /// A* on the binary heap ordered by `f = g + h`, with
    /// [`RectilinearBound`] over `targets` as `h`. All arithmetic stays
    /// exact (integer-valued `f64`s below 2⁵³), so the returned cost bits
    /// match the oracle's; the path geometry may differ on cost ties
    /// (DESIGN.md §12.4).
    fn astar_search<F>(
        &mut self,
        graph: &HananGraph,
        adj: &GridAdjacency,
        sources: &[GridPoint],
        is_target: F,
        bounds: Option<SearchBounds>,
        targets: &[GridPoint],
    ) -> Option<usize>
    where
        F: Fn(usize) -> bool,
    {
        self.bound.prepare(graph, targets);
        for &s in sources {
            if let Some(idx) = self.seed(graph, s) {
                let f = self.bound.eval(s) as f64;
                self.heap.push(Entry { cost: f, idx });
            }
        }
        while let Some(Entry { cost: _f, idx }) = self.heap.pop() {
            let idx = idx as usize;
            if self.done[idx] == self.epoch {
                continue; // stale duplicate
            }
            self.done[idx] = self.epoch;
            self.counters.bump(Counter::DijkstraPops);
            if is_target(idx) {
                return Some(idx);
            }
            let g = self.dist[idx];
            for (qi, w) in adj.neighbors(idx) {
                let qi = qi as usize;
                if let Some(b) = bounds {
                    if !b.contains(graph.point(qi)) {
                        continue;
                    }
                }
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
        None
    }

    /// Starts a resumable multi-source search — the Prim field of
    /// DESIGN.md §12.6 — on `graph`, optionally confined to `bounds` (the
    /// same window rule as [`DijkstraWorkspace::search_into`]: sources may
    /// lie outside it, relaxations may not). Seed it with
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
            if let Some(idx) = self.seed(graph, s) {
                self.heap.push(Entry { cost: 0.0, idx });
                self.field_origin.get_or_insert(s);
            }
        }
    }

    /// Resumes the field until the first vertex accepted by `is_target`
    /// pops, writes the path from its source into `out` (cleared first)
    /// and returns its cost.
    ///
    /// The result is bit-identical to a [`QueuePolicy::Heap`]
    /// [`DijkstraWorkspace::search_into`] restarted from every source added
    /// so far (DESIGN.md §12.6): pops follow the heap's
    /// `(cost, vertex index)` order, and a relaxation that ties the current
    /// label re-points `prev` when the relaxing vertex precedes the current
    /// predecessor in that order, so every `prev` is the first-popped tight
    /// neighbour a restarted search would record. The popped target is not
    /// relaxed; add it (with its path) as a source before the next call.
    ///
    /// `adj` must be built for `graph` (see [`GridAdjacency::ensure`]).
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
        adj: &GridAdjacency,
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
        Err(GraphError::Unreachable { from: origin })
    }

    /// Full single-source Dijkstra: the [`QueuePolicy::Heap`] query run to
    /// exhaustion (no vertex is a target). Returns the distance to every
    /// vertex (`f64::INFINITY` where unreachable).
    ///
    /// # Errors
    ///
    /// [`GraphError::BlockedSource`] if the source vertex is blocked.
    ///
    /// # Panics
    ///
    /// Panics (on index out of range) if `adj` was built for a smaller
    /// graph.
    pub fn distances_from(
        &mut self,
        graph: &HananGraph,
        adj: &GridAdjacency,
        source: GridPoint,
    ) -> Result<Vec<f64>, GraphError> {
        let searched = self.search_into(
            graph,
            adj,
            &[source],
            |_| false,
            None,
            QueuePolicy::Heap,
            &[],
            &mut Vec::new(),
        );
        if let Err(e @ GraphError::BlockedSource(_)) = searched {
            return Err(e);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn open_grid(h: usize, v: usize, m: usize) -> HananGraph {
        HananGraph::uniform(h, v, m, 1.0, 1.0, 3.0)
    }

    /// One [`DijkstraWorkspace::search_into`] query from `sources` to the
    /// single target `to`; returns the path and its cost.
    fn query(
        ws: &mut DijkstraWorkspace,
        g: &HananGraph,
        sources: &[GridPoint],
        to: GridPoint,
        bounds: Option<SearchBounds>,
        policy: QueuePolicy,
        hint: &[GridPoint],
    ) -> Result<(Vec<GridPoint>, f64), GraphError> {
        let mut adj = GridAdjacency::new();
        adj.ensure(g);
        let t = g.index(to);
        let mut path = Vec::new();
        let cost = ws.search_into(
            g,
            &adj,
            sources,
            |i| i == t,
            bounds,
            policy,
            hint,
            &mut path,
        )?;
        Ok((path, cost))
    }

    /// An unbounded heap query on a fresh workspace.
    fn shortest(
        g: &HananGraph,
        from: GridPoint,
        to: GridPoint,
    ) -> Result<(Vec<GridPoint>, f64), GraphError> {
        let mut ws = DijkstraWorkspace::new();
        query(&mut ws, g, &[from], to, None, QueuePolicy::Heap, &[])
    }

    #[test]
    fn straight_line_cost_is_manhattan() {
        let g = open_grid(5, 5, 1);
        let (path, cost) = shortest(&g, GridPoint::new(0, 0, 0), GridPoint::new(4, 3, 0)).unwrap();
        assert_eq!(cost, 7.0);
        assert_eq!(path[0], GridPoint::new(0, 0, 0));
        assert_eq!(path[path.len() - 1], GridPoint::new(4, 3, 0));
        // Consecutive points are neighbors.
        for w in path.windows(2) {
            assert_eq!(w[0].grid_distance(w[1]), 1);
        }
    }

    #[test]
    fn path_cost_equals_sum_of_edge_costs() {
        let g = HananGraph::with_costs(4, 3, 2, vec![2.0, 5.0, 1.0], vec![4.0, 4.0], 3.0).unwrap();
        let (path, cost) = shortest(&g, GridPoint::new(0, 0, 0), GridPoint::new(3, 2, 1)).unwrap();
        let sum: f64 = path
            .windows(2)
            .map(|w| g.edge_cost(w[0], w[1]).expect("path edges are grid edges"))
            .sum();
        assert!((cost - sum).abs() < 1e-9);
    }

    #[test]
    fn routes_around_obstacle_wall() {
        // A vertical wall with a single gap forces a detour.
        let mut g = open_grid(5, 5, 1);
        for v in 0..4 {
            g.add_obstacle_vertex(GridPoint::new(2, v, 0)).unwrap();
        }
        let (path, cost) = shortest(&g, GridPoint::new(0, 0, 0), GridPoint::new(4, 0, 0)).unwrap();
        // Up 4, right 4, down 4 = 12.
        assert_eq!(cost, 12.0);
        assert!(path.iter().all(|&q| !g.is_blocked(q)));
    }

    #[test]
    fn uses_other_layer_when_cheaper() {
        // Fully blocked layer 0 except endpoints: path must via up and back.
        let mut g = open_grid(3, 1, 2);
        g.add_obstacle_vertex(GridPoint::new(1, 0, 0)).unwrap();
        let (_, cost) = shortest(&g, GridPoint::new(0, 0, 0), GridPoint::new(2, 0, 0)).unwrap();
        // via(3) + 2 horizontal + via(3) = 8.
        assert_eq!(cost, 8.0);
    }

    #[test]
    fn unreachable_target_is_an_error() {
        let mut g = open_grid(3, 3, 1);
        // Wall off the right column completely.
        for v in 0..3 {
            g.add_obstacle_vertex(GridPoint::new(1, v, 0)).unwrap();
        }
        let err = shortest(&g, GridPoint::new(0, 0, 0), GridPoint::new(2, 2, 0)).unwrap_err();
        assert_eq!(
            err,
            GraphError::Unreachable {
                from: GridPoint::new(0, 0, 0)
            }
        );
    }

    #[test]
    fn blocked_source_is_an_error() {
        let mut g = open_grid(3, 3, 1);
        g.add_obstacle_vertex(GridPoint::new(0, 0, 0)).unwrap();
        let err = shortest(&g, GridPoint::new(0, 0, 0), GridPoint::new(2, 2, 0)).unwrap_err();
        assert_eq!(err, GraphError::BlockedSource(GridPoint::new(0, 0, 0)));
    }

    #[test]
    fn empty_sources_is_an_error() {
        let g = open_grid(3, 3, 1);
        let mut adj = GridAdjacency::new();
        adj.ensure(&g);
        let mut out = vec![GridPoint::new(0, 0, 0)];
        let err = DijkstraWorkspace::new()
            .search_into(
                &g,
                &adj,
                &[],
                |_| true,
                None,
                QueuePolicy::Auto,
                &[],
                &mut out,
            )
            .unwrap_err();
        assert_eq!(err, GraphError::EmptyTerminalSet);
        assert!(out.is_empty(), "out is cleared on error");
    }

    #[test]
    fn multi_source_picks_nearest_source() {
        let g = open_grid(10, 1, 1);
        let sources = [GridPoint::new(0, 0, 0), GridPoint::new(8, 0, 0)];
        let mut ws = DijkstraWorkspace::new();
        let to = GridPoint::new(6, 0, 0);
        let (path, cost) = query(&mut ws, &g, &sources, to, None, QueuePolicy::Heap, &[]).unwrap();
        assert_eq!(cost, 2.0);
        assert_eq!(path[0], GridPoint::new(8, 0, 0));
    }

    #[test]
    fn source_in_target_set_gives_trivial_path() {
        let g = open_grid(3, 3, 1);
        let s = GridPoint::new(1, 1, 0);
        let (path, cost) = shortest(&g, s, s).unwrap();
        assert_eq!(cost, 0.0);
        assert_eq!(path, vec![s]);
    }

    #[test]
    fn distances_match_individual_paths() {
        let mut g = open_grid(6, 6, 2);
        g.add_obstacle_vertex(GridPoint::new(2, 2, 0)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(3, 2, 0)).unwrap();
        let mut adj = GridAdjacency::new();
        adj.ensure(&g);
        let src = GridPoint::new(0, 0, 0);
        let dist = DijkstraWorkspace::new()
            .distances_from(&g, &adj, src)
            .unwrap();
        for idx in (0..g.len()).step_by(7) {
            let p = g.point(idx);
            if g.is_blocked(p) {
                assert!(dist[idx].is_infinite());
                continue;
            }
            let (_, cost) = shortest(&g, src, p).unwrap();
            assert!((dist[idx] - cost).abs() < 1e-9, "distance mismatch at {p}");
        }
        g.add_obstacle_vertex(src).unwrap();
        adj.ensure(&g);
        assert_eq!(
            DijkstraWorkspace::new().distances_from(&g, &adj, src),
            Err(GraphError::BlockedSource(src))
        );
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
        let to = GridPoint::new(9, 9, 0);
        for policy in [QueuePolicy::Heap, QueuePolicy::Dial, QueuePolicy::AStar] {
            let mut ws = DijkstraWorkspace::new();
            let src = [GridPoint::new(0, 0, 0)];
            let err = query(&mut ws, &g, &src, to, Some(bounds), policy, &[to]).unwrap_err();
            assert!(matches!(err, GraphError::Unreachable { .. }), "{policy:?}");
        }
    }

    #[test]
    fn window_admits_outside_sources_but_no_outside_relaxation() {
        let g = open_grid(8, 3, 1);
        let window = SearchBounds {
            h_lo: 2,
            h_hi: 5,
            v_lo: 0,
            v_hi: 2,
        };
        let src = [GridPoint::new(1, 0, 0)];
        for policy in [QueuePolicy::Heap, QueuePolicy::Dial, QueuePolicy::AStar] {
            let mut ws = DijkstraWorkspace::new();
            // The source sits left of the window; its first step enters it.
            let inside = GridPoint::new(5, 2, 0);
            let (path, cost) =
                query(&mut ws, &g, &src, inside, Some(window), policy, &[inside]).unwrap();
            assert_eq!(cost, 6.0, "{policy:?}");
            assert!(path[1..].iter().all(|&p| window.contains(p)));
            // A target right of the window is never relaxed into.
            let outside = GridPoint::new(6, 0, 0);
            let err = query(&mut ws, &g, &src, outside, Some(window), policy, &[outside]);
            assert!(
                matches!(err, Err(GraphError::Unreachable { .. })),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn bounds_around_clips_to_graph() {
        let g = open_grid(6, 6, 1);
        let b = SearchBounds::around(&g, [GridPoint::new(1, 1, 0), GridPoint::new(4, 2, 0)], 3);
        assert_eq!((b.h_lo, b.h_hi, b.v_lo, b.v_hi), (0, 5, 0, 5));
        assert!(b.contains(GridPoint::new(0, 0, 0)));
    }

    #[test]
    fn counters_track_pops_relaxations_and_pushes() {
        let g = open_grid(6, 6, 1);
        let mut ws = DijkstraWorkspace::new();
        let (src, to) = ([GridPoint::new(0, 0, 0)], GridPoint::new(5, 5, 0));
        query(&mut ws, &g, &src, to, None, QueuePolicy::Heap, &[]).unwrap();
        let after = ws.counters;
        assert!(after.get(Counter::DijkstraPops) > 0);
        assert!(after.get(Counter::DijkstraRelaxations) >= after.get(Counter::DijkstraPops));
        assert!(after.get(Counter::DijkstraPushes) > 0);
        // A second identical query adds an identical delta.
        query(&mut ws, &g, &src, to, None, QueuePolicy::Heap, &[]).unwrap();
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
            let to = GridPoint::new(target.0, target.1, target.2);
            let before_heap = heap_ws.counters;
            let before_dial = dial_ws.counters;
            let a = query(&mut heap_ws, &g, &sources, to, None, QueuePolicy::Heap, &[]).unwrap();
            let b = query(&mut dial_ws, &g, &sources, to, None, QueuePolicy::Dial, &[]).unwrap();
            assert_eq!(a.1.to_bits(), b.1.to_bits());
            assert_eq!(a.0, b.0);
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
        let (src, to) = ([GridPoint::new(0, 0, 0)], GridPoint::new(7, 0, 0));
        query(&mut ws, &g, &src, to, None, QueuePolicy::Auto, &[]).unwrap();
        // The Dial path is the only one that can advance the cursor.
        assert!(ws.counters.get(Counter::DijkstraBucketScans) > 0);
    }

    #[test]
    fn dial_falls_back_to_heap_on_fractional_costs() {
        let g =
            HananGraph::with_costs(4, 4, 1, vec![1.5, 2.0, 1.0], vec![1.0, 2.5, 1.0], 3.0).unwrap();
        assert_eq!(g.integer_cost_ceiling(), None);
        let mut ws = DijkstraWorkspace::new();
        let (src, to) = ([GridPoint::new(0, 0, 0)], GridPoint::new(3, 3, 0));
        let (_, cost) = query(&mut ws, &g, &src, to, None, QueuePolicy::Dial, &[]).unwrap();
        assert_eq!(cost, 1.5 + 2.0 + 1.0 + 1.0 + 2.5 + 1.0);
        assert_eq!(
            ws.counters.get(Counter::DijkstraBucketScans),
            0,
            "fallback used heap"
        );
    }

    #[test]
    fn astar_matches_oracle_cost_bits_with_fewer_pops() {
        let g = costed_grid();
        let mut ws = DijkstraWorkspace::new();
        let src = [GridPoint::new(0, 0, 0)];
        for target in [(8, 6, 1), (4, 3, 0), (7, 0, 0)] {
            let tp = GridPoint::new(target.0, target.1, target.2);
            let before = ws.counters;
            let oracle = query(&mut ws, &g, &src, tp, None, QueuePolicy::Heap, &[]).unwrap();
            let heap_pops = ws.counters.delta_since(&before).get(Counter::DijkstraPops);
            let before = ws.counters;
            let astar = query(&mut ws, &g, &src, tp, None, QueuePolicy::AStar, &[tp]).unwrap();
            let astar_pops = ws.counters.delta_since(&before).get(Counter::DijkstraPops);
            // Same cost bits (§12.4); the geometry may legally differ.
            assert_eq!(oracle.1.to_bits(), astar.1.to_bits());
            assert!(
                astar_pops <= heap_pops,
                "A* popped {astar_pops} > oracle {heap_pops} for {target:?}"
            );
            // The A* path is still a valid grid path of the same cost.
            let sum: f64 = astar
                .0
                .windows(2)
                .map(|w| g.edge_cost(w[0], w[1]).expect("grid edge"))
                .sum();
            assert_eq!(sum.to_bits(), astar.1.to_bits());
        }
    }

    #[test]
    fn astar_without_hint_falls_back_to_dial() {
        let g = costed_grid();
        let mut ws = DijkstraWorkspace::new();
        let (src, to) = ([GridPoint::new(0, 0, 0)], GridPoint::new(7, 0, 0));
        let a = query(&mut ws, &g, &src, to, None, QueuePolicy::AStar, &[]).unwrap();
        let b = query(&mut ws, &g, &src, to, None, QueuePolicy::Heap, &[]).unwrap();
        assert_eq!(a.1.to_bits(), b.1.to_bits());
        assert_eq!(a.0, b.0, "hint-less AStar must act as Dial");
    }

    #[test]
    fn field_steps_match_restarted_searches() {
        // Uniform costs: equal-cost ties everywhere, so the tie re-point
        // rule decides most predecessors.
        let mut g = open_grid(9, 8, 2);
        for &(h, v, m) in &[(3, 1, 0), (3, 2, 0), (3, 3, 0), (5, 5, 1), (6, 5, 1)] {
            g.add_obstacle_vertex(GridPoint::new(h, v, m)).unwrap();
        }
        let mut adj = GridAdjacency::new();
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
                let want = restart.search_into(
                    &g,
                    &adj,
                    &sources,
                    |i| left.contains(&i),
                    bounds,
                    QueuePolicy::Heap,
                    &[],
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
    fn workspace_reuse_is_consistent() {
        let g = open_grid(8, 8, 2);
        let mut ws = DijkstraWorkspace::new();
        let src = [GridPoint::new(0, 0, 0)];
        let (t1, t2) = (GridPoint::new(7, 7, 1), GridPoint::new(3, 0, 0));
        let a = query(&mut ws, &g, &src, t1, None, QueuePolicy::Heap, &[]).unwrap();
        let b = query(&mut ws, &g, &src, t2, None, QueuePolicy::Heap, &[]).unwrap();
        // 7 + 7 + via(3) and 3.
        assert_eq!(a.1, 17.0);
        assert_eq!(b.1, 3.0);
        // And again the first query, identically.
        let a2 = query(&mut ws, &g, &src, t1, None, QueuePolicy::Heap, &[]).unwrap();
        assert_eq!(a2, a);
    }
}
