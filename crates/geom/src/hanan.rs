//! 3D Hanan grid graphs — the input representation of the router.
//!
//! A Hanan grid graph (Section 2.2 of the paper) is derived by intersecting
//! horizontal and vertical cuts created at every pin and obstacle boundary.
//! The 3D variant first consolidates all objects onto a single layer, builds
//! the 2D Hanan grid for the consolidated layer, and then replicates that
//! grid on every routing layer, relocating each object to its original layer.
//!
//! [`HananGraph`] is the central type of the whole reproduction: routers,
//! the neural Steiner-point selector and the MCTS trainers all consume it.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::coord::{Coord, GridPoint};
use crate::error::GeomError;
use crate::layout::Layout;

/// The most vertices a [`HananGraph`] may have: `⌊u32::MAX / 6⌋`
/// (715,827,882). The graph crate indexes vertices as `u32` (reserving
/// `u32::MAX` as its "no predecessor" sentinel) and its CSR adjacency
/// (`oarsmt_graph::GridAdjacency`) stores edge offsets as `u32`; with up
/// to six neighbours per vertex, `6 · n` offsets must fit, or they would
/// wrap silently.
pub const MAX_VERTICES: usize = u32::MAX as usize / 6;

/// Classification of a Hanan-graph vertex (Section 2.2: "a vertex can be a
/// pin, an obstacle, or an empty location to place a Steiner point").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum VertexKind {
    /// Free vertex; a Steiner point may be placed here.
    #[default]
    Empty,
    /// A pin that must be connected by the routing tree.
    Pin,
    /// Blocked by an obstacle; no wire or via may use this vertex.
    Obstacle,
}

impl fmt::Display for VertexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VertexKind::Empty => "empty",
            VertexKind::Pin => "pin",
            VertexKind::Obstacle => "obstacle",
        };
        f.write_str(s)
    }
}

/// A 3D Hanan grid graph with per-gap routing costs and a uniform via cost.
///
/// Dimensions are `H × V × M`: `H` horizontal grid columns, `V` vertical grid
/// rows, `M` routing layers. Adjacent vertices along `h` at column gap `i`
/// are connected with cost `x_costs[i]`; along `v` at row gap `j` with cost
/// `y_costs[j]`; adjacent layers with the uniform `via_cost` (Section 3.3 —
/// the via cost "is assumed to be the same for all vertices in a layout but
/// its value may vary among different layouts").
///
/// Vertices are addressed either by [`GridPoint`] or by the linear index
/// returned by [`HananGraph::index`], which orders vertices exactly by the
/// paper's lexicographic `(h, v, m)` **selection priority**.
///
/// # Example
///
/// ```
/// use oarsmt_geom::hanan::HananGraph;
/// use oarsmt_geom::coord::GridPoint;
///
/// let mut g = HananGraph::uniform(3, 3, 2, 1.0, 2.0, 3.0);
/// g.add_pin(GridPoint::new(0, 0, 0))?;
/// g.add_pin(GridPoint::new(2, 2, 1))?;
/// // Stepping right costs 1, stepping up costs 2, changing layer costs 3.
/// assert_eq!(g.x_cost(0), 1.0);
/// assert_eq!(g.y_cost(1), 2.0);
/// assert_eq!(g.via_cost(), 3.0);
/// # Ok::<(), oarsmt_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HananGraph {
    h: usize,
    v: usize,
    m: usize,
    /// Physical x coordinate of every grid column (length `h`).
    xs: Vec<i64>,
    /// Physical y coordinate of every grid row (length `v`).
    ys: Vec<i64>,
    /// Cost of the horizontal edge between columns `i` and `i + 1` (length `h - 1`).
    x_costs: Vec<f64>,
    /// Cost of the vertical edge between rows `j` and `j + 1` (length `v - 1`).
    y_costs: Vec<f64>,
    via_cost: f64,
    /// Vertex classification, indexed by [`HananGraph::index`].
    kind: Vec<VertexKind>,
    /// Pins in insertion order.
    pins: Vec<GridPoint>,
}

impl HananGraph {
    /// Creates a synthetic uniform grid: `h × v × m` vertices, every
    /// horizontal gap costing `x_cost`, every vertical gap `y_cost`, and the
    /// given `via_cost`. Physical coordinates default to the grid indices.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or any cost is not finite and
    /// positive; use [`HananGraph::with_costs`] for fallible construction.
    pub fn uniform(h: usize, v: usize, m: usize, x_cost: f64, y_cost: f64, via_cost: f64) -> Self {
        HananGraph::with_costs(
            h,
            v,
            m,
            vec![x_cost; h.saturating_sub(1)],
            vec![y_cost; v.saturating_sub(1)],
            via_cost,
        )
        .expect("uniform grid parameters must be valid")
    }

    /// Creates a synthetic grid with explicit per-gap costs.
    ///
    /// `x_costs` must have length `h - 1` and `y_costs` length `v - 1`.
    ///
    /// # Errors
    ///
    /// * [`GeomError::EmptyDimension`] if any of `h`, `v`, `m` is zero.
    /// * [`GeomError::TooLarge`] if `h · v · m` overflows `usize` or
    ///   exceeds [`MAX_VERTICES`], past the graph crate's `u32` indices.
    /// * [`GeomError::InvalidCost`] if any gap or via cost is not finite and
    ///   positive, or a cost vector has the wrong length (reported with the
    ///   offending length as the cost value `-1.0`).
    pub fn with_costs(
        h: usize,
        v: usize,
        m: usize,
        x_costs: Vec<f64>,
        y_costs: Vec<f64>,
        via_cost: f64,
    ) -> Result<Self, GeomError> {
        let n = HananGraph::vertex_count(h, v, m)?;
        if x_costs.len() != h - 1 || y_costs.len() != v - 1 {
            return Err(GeomError::InvalidCost(-1.0));
        }
        for &c in x_costs.iter().chain(y_costs.iter()) {
            if !c.is_finite() || c <= 0.0 {
                return Err(GeomError::InvalidCost(c));
            }
        }
        if !via_cost.is_finite() || via_cost <= 0.0 {
            return Err(GeomError::InvalidCost(via_cost));
        }
        Ok(HananGraph {
            h,
            v,
            m,
            xs: (0..h as i64).collect(),
            ys: (0..v as i64).collect(),
            x_costs,
            y_costs,
            via_cost,
            kind: vec![VertexKind::Empty; n],
            pins: Vec::new(),
        })
    }

    /// Checks grid dimensions before anything is allocated and returns the
    /// vertex count `h · v · m`.
    ///
    /// # Errors
    ///
    /// * [`GeomError::EmptyDimension`] if any of `h`, `v`, `m` is zero.
    /// * [`GeomError::TooLarge`] if the product overflows `usize` or
    ///   exceeds [`MAX_VERTICES`] (see there for why).
    pub(crate) fn vertex_count(h: usize, v: usize, m: usize) -> Result<usize, GeomError> {
        if h == 0 || v == 0 || m == 0 {
            return Err(GeomError::EmptyDimension { dims: (h, v, m) });
        }
        h.checked_mul(v)
            .and_then(|hv| hv.checked_mul(m))
            .filter(|&n| n <= MAX_VERTICES)
            .ok_or(GeomError::TooLarge { dims: (h, v, m) })
    }

    /// Builds the 3D Hanan grid graph of a physical [`Layout`], following
    /// Section 2.2: consolidate all objects onto one layer, cut at every pin
    /// coordinate and obstacle boundary, then relocate objects to their
    /// original layers. Gap costs equal physical coordinate distances.
    ///
    /// # Errors
    ///
    /// Propagates [`Layout::validate`] errors, and returns
    /// [`GeomError::NoCuts`] if the layout is empty.
    pub fn from_layout(layout: &Layout) -> Result<Self, GeomError> {
        layout.validate()?;
        let mut xs: Vec<i64> = Vec::new();
        let mut ys: Vec<i64> = Vec::new();
        for pin in layout.pins() {
            xs.push(pin.at.x);
            ys.push(pin.at.y);
        }
        for ob in layout.obstacles() {
            let (x0, x1) = ob.rect.x_range();
            let (y0, y1) = ob.rect.y_range();
            xs.extend([x0, x1]);
            ys.extend([y0, y1]);
        }
        xs.sort_unstable();
        xs.dedup();
        ys.sort_unstable();
        ys.dedup();
        if xs.is_empty() || ys.is_empty() {
            return Err(GeomError::NoCuts);
        }
        let h = xs.len();
        let v = ys.len();
        let m = layout.layers();
        let n = HananGraph::vertex_count(h, v, m)?;
        let x_costs = xs.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let y_costs = ys.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mut g = HananGraph {
            h,
            v,
            m,
            xs,
            ys,
            x_costs,
            y_costs,
            via_cost: layout.via_cost(),
            kind: vec![VertexKind::Empty; n],
            pins: Vec::new(),
        };
        // Obstacles first so pin/obstacle collisions are caught by add_pin.
        for ob in layout.obstacles() {
            let (x0, x1) = ob.rect.x_range();
            let (y0, y1) = ob.rect.y_range();
            let h0 = g.xs.partition_point(|&x| x < x0);
            let h1 = g.xs.partition_point(|&x| x <= x1);
            let v0 = g.ys.partition_point(|&y| y < y0);
            let v1 = g.ys.partition_point(|&y| y <= y1);
            for hi in h0..h1 {
                for vi in v0..v1 {
                    let p = GridPoint::new(hi, vi, ob.layer);
                    let idx = g.index(p);
                    g.kind[idx] = VertexKind::Obstacle;
                }
            }
        }
        for pin in layout.pins() {
            let hi =
                g.xs.binary_search(&pin.at.x)
                    .expect("pin x coordinate is a hanan cut by construction");
            let vi =
                g.ys.binary_search(&pin.at.y)
                    .expect("pin y coordinate is a hanan cut by construction");
            g.add_pin(GridPoint::new(hi, vi, pin.layer))?;
        }
        Ok(g)
    }

    /// Number of horizontal grid columns `H`.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Number of vertical grid rows `V`.
    pub fn v(&self) -> usize {
        self.v
    }

    /// Number of routing layers `M`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Dimensions as an `(h, v, m)` triple.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.h, self.v, self.m)
    }

    /// Total number of vertices `H * V * M`.
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    /// Whether the graph has zero vertices (never true for a constructed
    /// graph; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }

    /// Linear index of a grid point, ordering vertices lexicographically by
    /// `(h, v, m)` — the paper's selection priority.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the point is out of bounds.
    #[inline]
    pub fn index(&self, p: GridPoint) -> usize {
        debug_assert!(self.in_bounds(p), "{p} out of {:?}", self.dims());
        (p.h * self.v + p.v) * self.m + p.m
    }

    /// Inverse of [`HananGraph::index`].
    #[inline]
    pub fn point(&self, idx: usize) -> GridPoint {
        let m = idx % self.m;
        let rest = idx / self.m;
        GridPoint::new(rest / self.v, rest % self.v, m)
    }

    /// Whether the point lies inside the grid dimensions.
    #[inline]
    pub fn in_bounds(&self, p: GridPoint) -> bool {
        p.h < self.h && p.v < self.v && p.m < self.m
    }

    /// The classification of a vertex.
    #[inline]
    pub fn kind(&self, p: GridPoint) -> VertexKind {
        self.kind[self.index(p)]
    }

    /// The classification of a vertex by linear index.
    #[inline]
    pub fn kind_at(&self, idx: usize) -> VertexKind {
        self.kind[idx]
    }

    /// Whether a vertex is blocked by an obstacle.
    #[inline]
    pub fn is_blocked(&self, p: GridPoint) -> bool {
        self.kind(p) == VertexKind::Obstacle
    }

    /// The pins of the graph, in insertion order.
    pub fn pins(&self) -> &[GridPoint] {
        &self.pins
    }

    /// The linear indices of the pins, sorted ascending (= selection
    /// priority order). Derived once per layout by routing workspaces
    /// (`RouteContext` in `oarsmt-router`) so the per-query hot path never
    /// re-walks the pin list.
    pub fn pin_index_set(&self) -> Vec<u32> {
        // lint: alloc-ok(bind-time: RouteContext::bind only calls this on a layout change, never in the warm per-query loop)
        let mut idx: Vec<u32> = self.pins.iter().map(|&p| self.index(p) as u32).collect();
        idx.sort_unstable();
        idx
    }

    /// The linear indices of all blocked (obstacle) vertices, ascending.
    pub fn blocked_index_set(&self) -> Vec<u32> {
        (0..self.kind.len())
            .filter(|&i| self.kind[i] == VertexKind::Obstacle)
            .map(|i| i as u32)
            .collect()
    }

    /// The linear indices of all [`VertexKind::Empty`] vertices, ascending.
    /// These are the valid Steiner candidates: top-k selection only needs
    /// to scan this (often much shorter) list instead of every vertex.
    pub fn empty_index_set(&self) -> Vec<u32> {
        // lint: alloc-ok(bind-time: RouteContext::bind only calls this on a layout change, never in the warm per-query loop)
        (0..self.kind.len())
            .filter(|&i| self.kind[i] == VertexKind::Empty)
            .map(|i| i as u32)
            .collect()
    }

    /// Cost of the horizontal edge between columns `gap` and `gap + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `gap >= h - 1`.
    #[inline]
    pub fn x_cost(&self, gap: usize) -> f64 {
        self.x_costs[gap]
    }

    /// Cost of the vertical edge between rows `gap` and `gap + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `gap >= v - 1`.
    #[inline]
    pub fn y_cost(&self, gap: usize) -> f64 {
        self.y_costs[gap]
    }

    /// The uniform via cost between adjacent layers.
    #[inline]
    pub fn via_cost(&self) -> f64 {
        self.via_cost
    }

    /// All horizontal gap costs (length `h - 1`).
    pub fn x_costs(&self) -> &[f64] {
        &self.x_costs
    }

    /// All vertical gap costs (length `v - 1`).
    pub fn y_costs(&self) -> &[f64] {
        &self.y_costs
    }

    /// The largest edge cost, when **every** edge cost (per-gap and via) is
    /// a positive integer exactly represented in `f64`; `None` otherwise.
    ///
    /// This is the eligibility check of the paper's bounded-integer cost
    /// model (Section 2.2: gap costs in `1..=1000`, via costs in `3..=5`):
    /// when it returns `Some(c)`, every path cost is an exact integer sum
    /// and a Dial bucket queue with span `c` can replace the maze router's
    /// binary heap (see `oarsmt-graph::dijkstra::QueuePolicy` and
    /// DESIGN.md §12). `O(H + V)`, allocation-free.
    #[must_use]
    pub fn integer_cost_ceiling(&self) -> Option<u64> {
        let mut max = self.via_cost;
        for &c in self.x_costs.iter().chain(self.y_costs.iter()) {
            if c.fract() != 0.0 {
                return None;
            }
            max = max.max(c);
        }
        if self.via_cost.fract() != 0.0 || max > (1u64 << 32) as f64 {
            return None;
        }
        Some(max as u64)
    }

    /// Physical x coordinates of the grid columns.
    pub fn xs(&self) -> &[i64] {
        &self.xs
    }

    /// Physical y coordinates of the grid rows.
    pub fn ys(&self) -> &[i64] {
        &self.ys
    }

    /// Physical coordinate of a grid point (layer dropped).
    pub fn physical(&self, p: GridPoint) -> Coord {
        Coord::new(self.xs[p.h], self.ys[p.v])
    }

    /// Marks a vertex as a pin.
    ///
    /// # Errors
    ///
    /// * [`GeomError::OutOfBounds`] if the point is outside the grid.
    /// * [`GeomError::PinOnObstacle`] if the vertex is blocked.
    /// * [`GeomError::DuplicatePin`] if the vertex already holds a pin.
    pub fn add_pin(&mut self, p: GridPoint) -> Result<(), GeomError> {
        if !self.in_bounds(p) {
            return Err(GeomError::OutOfBounds {
                point: p,
                dims: self.dims(),
            });
        }
        let idx = self.index(p);
        match self.kind[idx] {
            VertexKind::Obstacle => Err(GeomError::PinOnObstacle(p)),
            VertexKind::Pin => Err(GeomError::DuplicatePin(p)),
            VertexKind::Empty => {
                self.kind[idx] = VertexKind::Pin;
                self.pins.push(p);
                Ok(())
            }
        }
    }

    /// Marks a vertex as an obstacle.
    ///
    /// # Errors
    ///
    /// * [`GeomError::OutOfBounds`] if the point is outside the grid.
    /// * [`GeomError::PinOnObstacle`] if the vertex holds a pin.
    pub fn add_obstacle_vertex(&mut self, p: GridPoint) -> Result<(), GeomError> {
        if !self.in_bounds(p) {
            return Err(GeomError::OutOfBounds {
                point: p,
                dims: self.dims(),
            });
        }
        let idx = self.index(p);
        if self.kind[idx] == VertexKind::Pin {
            return Err(GeomError::PinOnObstacle(p));
        }
        self.kind[idx] = VertexKind::Obstacle;
        Ok(())
    }

    /// Number of obstacle vertices.
    pub fn obstacle_count(&self) -> usize {
        self.kind
            .iter()
            .filter(|&&k| k == VertexKind::Obstacle)
            .count()
    }

    /// Fraction of vertices blocked by obstacles — the "obstacle ratio" used
    /// by Fig. 10 of the paper.
    pub fn obstacle_ratio(&self) -> f64 {
        self.obstacle_count() as f64 / self.len() as f64
    }

    /// The maximum over all gap costs and the via cost; the normalization
    /// denominator of the feature encoding (Section 3.3).
    pub fn max_cost(&self) -> f64 {
        self.x_costs
            .iter()
            .chain(self.y_costs.iter())
            .copied()
            .fold(self.via_cost, f64::max)
    }

    /// Iterator over the (up to six) unblocked neighbors of `p` with their
    /// edge costs. Blocked (obstacle) neighbors are skipped; the center
    /// vertex itself is *not* checked.
    pub fn neighbors(&self, p: GridPoint) -> Neighbors<'_> {
        Neighbors {
            graph: self,
            center: p,
            dir: 0,
        }
    }

    /// Edge cost between two *adjacent* grid points.
    ///
    /// Returns `None` if the points are not grid neighbors.
    pub fn edge_cost(&self, a: GridPoint, b: GridPoint) -> Option<f64> {
        if a.grid_distance(b) != 1 {
            return None;
        }
        if a.h != b.h {
            Some(self.x_costs[a.h.min(b.h)])
        } else if a.v != b.v {
            Some(self.y_costs[a.v.min(b.v)])
        } else {
            Some(self.via_cost)
        }
    }

    /// Rotates the graph 90° counter-clockwise in the H–V plane, returning a
    /// new graph with `h` and `v` swapped. Used by the 16-fold data
    /// augmentation of the training schedule (Section 3.6).
    pub fn rotate90(&self) -> HananGraph {
        // (h, v) -> (v', h') with v' = v, h' = H-1-h:
        // new dims: h_new = old v, v_new = old h.
        let (oh, ov, om) = self.dims();
        let mut g = HananGraph {
            h: ov,
            v: oh,
            m: om,
            xs: self.ys.clone(),
            ys: self.xs.iter().rev().map(|&x| -x).collect(),
            x_costs: self.y_costs.clone(),
            y_costs: self.x_costs.iter().rev().copied().collect(),
            via_cost: self.via_cost,
            kind: vec![VertexKind::Empty; self.kind.len()],
            pins: Vec::new(),
        };
        for idx in 0..self.kind.len() {
            let p = self.point(idx);
            let q = GridPoint::new(p.v, oh - 1 - p.h, p.m);
            let qi = g.index(q);
            g.kind[qi] = self.kind[idx];
        }
        g.pins = self
            .pins
            .iter()
            .map(|&p| GridPoint::new(p.v, oh - 1 - p.h, p.m))
            .collect();
        g
    }

    /// Reflects the graph across the horizontal axis (reverses the `v` rows).
    pub fn reflect_v(&self) -> HananGraph {
        let (oh, ov, om) = self.dims();
        let mut g = HananGraph {
            h: oh,
            v: ov,
            m: om,
            xs: self.xs.clone(),
            ys: self.ys.iter().rev().map(|&y| -y).collect(),
            x_costs: self.x_costs.clone(),
            y_costs: self.y_costs.iter().rev().copied().collect(),
            via_cost: self.via_cost,
            kind: vec![VertexKind::Empty; self.kind.len()],
            pins: Vec::new(),
        };
        for idx in 0..self.kind.len() {
            let p = self.point(idx);
            let q = GridPoint::new(p.h, ov - 1 - p.v, p.m);
            let qi = g.index(q);
            g.kind[qi] = self.kind[idx];
        }
        g.pins = self
            .pins
            .iter()
            .map(|&p| GridPoint::new(p.h, ov - 1 - p.v, p.m))
            .collect();
        g
    }

    /// Reflects the graph across the layer axis (reverses the `m` layers).
    pub fn reflect_m(&self) -> HananGraph {
        let (oh, ov, om) = self.dims();
        let mut g = self.clone();
        for idx in 0..self.kind.len() {
            let p = self.point(idx);
            let q = GridPoint::new(p.h, p.v, om - 1 - p.m);
            let qi = (q.h * ov + q.v) * om + q.m;
            g.kind[qi] = self.kind[idx];
        }
        let _ = oh;
        g.pins = self
            .pins
            .iter()
            .map(|&p| GridPoint::new(p.h, p.v, om - 1 - p.m))
            .collect();
        g
    }
}

impl fmt::Display for HananGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hanan graph {}x{}x{}: {} pins, {} obstacle vertices, via cost {}",
            self.h,
            self.v,
            self.m,
            self.pins.len(),
            self.obstacle_count(),
            self.via_cost
        )
    }
}

/// Iterator over the unblocked grid neighbors of a vertex; see
/// [`HananGraph::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    graph: &'a HananGraph,
    center: GridPoint,
    dir: u8,
}

impl Iterator for Neighbors<'_> {
    /// A neighboring point plus the cost of the connecting edge.
    type Item = (GridPoint, f64);

    fn next(&mut self) -> Option<(GridPoint, f64)> {
        let g = self.graph;
        let c = self.center;
        while self.dir < 6 {
            let dir = self.dir;
            self.dir += 1;
            let candidate = match dir {
                0 if c.h + 1 < g.h => Some((GridPoint::new(c.h + 1, c.v, c.m), g.x_costs[c.h])),
                1 if c.h > 0 => Some((GridPoint::new(c.h - 1, c.v, c.m), g.x_costs[c.h - 1])),
                2 if c.v + 1 < g.v => Some((GridPoint::new(c.h, c.v + 1, c.m), g.y_costs[c.v])),
                3 if c.v > 0 => Some((GridPoint::new(c.h, c.v - 1, c.m), g.y_costs[c.v - 1])),
                4 if c.m + 1 < g.m => Some((GridPoint::new(c.h, c.v, c.m + 1), g.via_cost)),
                5 if c.m > 0 => Some((GridPoint::new(c.h, c.v, c.m - 1), g.via_cost)),
                _ => None,
            };
            if let Some((p, cost)) = candidate {
                if !g.is_blocked(p) {
                    return Some((p, cost));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Pin;
    use crate::rect::{Obstacle, Rect};

    /// `6 · n` CSR edge offsets must fit in `u32`: the limit is the last
    /// `n` for which they do. Checked on both sides, in one axis and
    /// spread over three; `vertex_count` allocates nothing.
    #[test]
    fn vertex_count_keeps_six_offsets_per_vertex_in_u32() {
        let limit = MAX_VERTICES as u64;
        assert_eq!(limit, 715_827_882);
        assert!(6 * limit <= u64::from(u32::MAX));
        assert!(6 * (limit + 1) > u64::from(u32::MAX));
        assert_eq!(
            HananGraph::vertex_count(MAX_VERTICES, 1, 1),
            Ok(MAX_VERTICES)
        );
        // 715,827,882 = 2 · 3 · 119,304,647.
        assert_eq!(
            HananGraph::vertex_count(119_304_647, 3, 2),
            Ok(MAX_VERTICES)
        );
        for dims in [
            (MAX_VERTICES + 1, 1, 1),
            (26_755, 26_755, 1),
            (1, 1, usize::MAX),
        ] {
            assert_eq!(
                HananGraph::vertex_count(dims.0, dims.1, dims.2),
                Err(GeomError::TooLarge { dims }),
                "{dims:?}"
            );
        }
    }

    #[test]
    fn index_sets_partition_the_graph() {
        let mut g = HananGraph::uniform(4, 3, 2, 1.0, 1.0, 3.0);
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(3, 2, 1)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(1, 1, 0)).unwrap();
        let pins = g.pin_index_set();
        let blocked = g.blocked_index_set();
        let empty = g.empty_index_set();
        assert_eq!(pins.len() + blocked.len() + empty.len(), g.len());
        for set in [&pins, &blocked, &empty] {
            assert!(set.windows(2).all(|w| w[0] < w[1]), "sorted & unique");
        }
        assert_eq!(
            pins,
            vec![
                g.index(GridPoint::new(0, 0, 0)) as u32,
                g.index(GridPoint::new(3, 2, 1)) as u32,
            ]
        );
        assert_eq!(blocked, vec![g.index(GridPoint::new(1, 1, 0)) as u32]);
        for &i in &empty {
            assert_eq!(g.kind_at(i as usize), VertexKind::Empty);
        }
    }

    #[test]
    fn index_round_trips_and_orders_lexicographically() {
        let g = HananGraph::uniform(3, 4, 2, 1.0, 1.0, 3.0);
        let mut last = None;
        for idx in 0..g.len() {
            let p = g.point(idx);
            assert_eq!(g.index(p), idx);
            if let Some(prev) = last {
                assert!(prev < p, "linear index order must match priority order");
            }
            last = Some(p);
        }
    }

    #[test]
    fn neighbors_of_interior_vertex_are_six() {
        let g = HananGraph::uniform(3, 3, 3, 1.0, 2.0, 5.0);
        let n: Vec<_> = g.neighbors(GridPoint::new(1, 1, 1)).collect();
        assert_eq!(n.len(), 6);
        // Costs: two x edges of 1, two y edges of 2, two vias of 5.
        let mut costs: Vec<f64> = n.iter().map(|&(_, c)| c).collect();
        costs.sort_by(f64::total_cmp);
        assert_eq!(costs, vec![1.0, 1.0, 2.0, 2.0, 5.0, 5.0]);
    }

    #[test]
    fn neighbors_skip_obstacles_and_bounds() {
        let mut g = HananGraph::uniform(2, 2, 1, 1.0, 1.0, 3.0);
        g.add_obstacle_vertex(GridPoint::new(1, 0, 0)).unwrap();
        let n: Vec<_> = g.neighbors(GridPoint::new(0, 0, 0)).collect();
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].0, GridPoint::new(0, 1, 0));
    }

    #[test]
    fn edge_cost_matches_neighbors() {
        let g = HananGraph::with_costs(3, 2, 2, vec![7.0, 9.0], vec![4.0], 2.5).unwrap();
        let a = GridPoint::new(1, 0, 0);
        assert_eq!(g.edge_cost(a, GridPoint::new(2, 0, 0)), Some(9.0));
        assert_eq!(g.edge_cost(a, GridPoint::new(0, 0, 0)), Some(7.0));
        assert_eq!(g.edge_cost(a, GridPoint::new(1, 1, 0)), Some(4.0));
        assert_eq!(g.edge_cost(a, GridPoint::new(1, 0, 1)), Some(2.5));
        assert_eq!(g.edge_cost(a, GridPoint::new(2, 1, 0)), None);
    }

    #[test]
    fn from_layout_reproduces_paper_fig1_reduction() {
        // Fig. 1: a uniform 9x9 grid with 3 pins and 2 obstacles reduces to a
        // small Hanan grid. We check cuts at every pin and obstacle boundary.
        let layout = Layout::new(1)
            .with_pin(Pin::new(Coord::new(0, 0), 0))
            .with_pin(Pin::new(Coord::new(8, 4), 0))
            .with_pin(Pin::new(Coord::new(3, 8), 0))
            .with_obstacle(Obstacle::new(Rect::new(1, 2, 2, 5), 0))
            .with_obstacle(Obstacle::new(Rect::new(5, 5, 7, 7), 0));
        let g = HananGraph::from_layout(&layout).unwrap();
        assert_eq!(g.xs(), &[0, 1, 2, 3, 5, 7, 8]);
        assert_eq!(g.ys(), &[0, 2, 4, 5, 7, 8]);
        assert_eq!(g.dims(), (7, 6, 1));
        // Gap costs equal physical distances.
        assert_eq!(g.x_costs(), &[1.0, 1.0, 1.0, 2.0, 2.0, 1.0]);
        assert_eq!(g.y_costs(), &[2.0, 2.0, 1.0, 2.0, 1.0]);
        // Hanan grid is never larger than the uniform grid.
        assert!(g.len() <= 9 * 9);
        // All pins present.
        assert_eq!(g.pins().len(), 3);
        for &p in g.pins() {
            assert_eq!(g.kind(p), VertexKind::Pin);
        }
    }

    #[test]
    fn from_layout_blocks_obstacle_interior_and_boundary() {
        let layout = Layout::new(2)
            .with_pin(Pin::new(Coord::new(0, 0), 0))
            .with_pin(Pin::new(Coord::new(10, 10), 0))
            .with_obstacle(Obstacle::new(Rect::new(4, 4, 6, 6), 1));
        let g = HananGraph::from_layout(&layout).unwrap();
        // The obstacle occupies layer 1 only.
        let h4 = g.xs().iter().position(|&x| x == 4).unwrap();
        let v4 = g.ys().iter().position(|&y| y == 4).unwrap();
        assert_eq!(g.kind(GridPoint::new(h4, v4, 1)), VertexKind::Obstacle);
        assert_eq!(g.kind(GridPoint::new(h4, v4, 0)), VertexKind::Empty);
    }

    #[test]
    fn from_layout_multilayer_consolidation_shares_cuts() {
        // Objects on different layers all contribute cuts to the shared grid.
        let layout = Layout::new(3)
            .with_pin(Pin::new(Coord::new(0, 0), 0))
            .with_pin(Pin::new(Coord::new(9, 9), 2))
            .with_obstacle(Obstacle::new(Rect::new(3, 1, 5, 2), 1));
        let g = HananGraph::from_layout(&layout).unwrap();
        assert_eq!(g.xs(), &[0, 3, 5, 9]);
        assert_eq!(g.ys(), &[0, 1, 2, 9]);
        assert_eq!(g.m(), 3);
    }

    #[test]
    fn add_pin_rejects_conflicts() {
        let mut g = HananGraph::uniform(2, 2, 1, 1.0, 1.0, 3.0);
        g.add_obstacle_vertex(GridPoint::new(0, 0, 0)).unwrap();
        assert_eq!(
            g.add_pin(GridPoint::new(0, 0, 0)),
            Err(GeomError::PinOnObstacle(GridPoint::new(0, 0, 0)))
        );
        g.add_pin(GridPoint::new(1, 1, 0)).unwrap();
        assert_eq!(
            g.add_pin(GridPoint::new(1, 1, 0)),
            Err(GeomError::DuplicatePin(GridPoint::new(1, 1, 0)))
        );
        assert!(matches!(
            g.add_pin(GridPoint::new(5, 0, 0)),
            Err(GeomError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn with_costs_validates() {
        assert!(matches!(
            HananGraph::with_costs(0, 2, 1, vec![], vec![1.0], 3.0),
            Err(GeomError::EmptyDimension { .. })
        ));
        assert!(matches!(
            HananGraph::with_costs(2, 2, 1, vec![], vec![1.0], 3.0),
            Err(GeomError::InvalidCost(_))
        ));
        assert!(matches!(
            HananGraph::with_costs(2, 2, 1, vec![f64::NAN], vec![1.0], 3.0),
            Err(GeomError::InvalidCost(_))
        ));
        assert!(matches!(
            HananGraph::with_costs(2, 2, 1, vec![1.0], vec![1.0], -3.0),
            Err(GeomError::InvalidCost(_))
        ));
    }

    #[test]
    fn max_cost_covers_via() {
        let g = HananGraph::with_costs(2, 2, 2, vec![4.0], vec![2.0], 9.0).unwrap();
        assert_eq!(g.max_cost(), 9.0);
    }

    #[test]
    fn rotate90_four_times_is_identity_on_kinds() {
        let mut g = HananGraph::uniform(3, 5, 2, 1.0, 2.0, 3.0);
        g.add_pin(GridPoint::new(0, 1, 0)).unwrap();
        g.add_pin(GridPoint::new(2, 4, 1)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(1, 3, 0)).unwrap();
        let r = g.rotate90();
        assert_eq!(r.dims(), (5, 3, 2));
        let back = r.rotate90().rotate90().rotate90();
        assert_eq!(back.dims(), g.dims());
        for idx in 0..g.len() {
            assert_eq!(back.kind_at(idx), g.kind_at(idx));
        }
        assert_eq!(back.pins(), g.pins());
        assert_eq!(back.x_costs(), g.x_costs());
        assert_eq!(back.y_costs(), g.y_costs());
    }

    #[test]
    fn reflections_are_involutions() {
        let mut g = HananGraph::uniform(4, 3, 3, 1.0, 2.0, 3.0);
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(3, 2, 2)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(2, 1, 1)).unwrap();
        let gv = g.reflect_v().reflect_v();
        let gm = g.reflect_m().reflect_m();
        for idx in 0..g.len() {
            assert_eq!(gv.kind_at(idx), g.kind_at(idx));
            assert_eq!(gm.kind_at(idx), g.kind_at(idx));
        }
        assert_eq!(gv.pins(), g.pins());
        assert_eq!(gm.pins(), g.pins());
    }

    #[test]
    fn obstacle_ratio_counts_blocked_fraction() {
        let mut g = HananGraph::uniform(2, 2, 1, 1.0, 1.0, 3.0);
        g.add_obstacle_vertex(GridPoint::new(0, 1, 0)).unwrap();
        assert!((g.obstacle_ratio() - 0.25).abs() < 1e-12);
    }
}
