//! Feature encoding of a 3D Hanan grid graph (Section 3.3, Fig. 3).
//!
//! Each vertex carries seven features:
//!
//! | channel | meaning |
//! |---|---|
//! | 0 | is the vertex a pin (selected Steiner points of an MCTS state are encoded as pins too) |
//! | 1 | is the vertex an obstacle |
//! | 2 | routing cost to the immediate **right** (`h + 1`) neighbor |
//! | 3 | routing cost to the immediate **left** (`h − 1`) neighbor |
//! | 4 | routing cost to the **upstairs** (`v + 1`) neighbor |
//! | 5 | routing cost to the **downstairs** (`v − 1`) neighbor |
//! | 6 | the via cost |
//!
//! The five cost channels are normalized by the maximum cost in the layout
//! so every value lies in `[0, 1]`; cost channels are 0 where the neighbor
//! does not exist (grid border).
//!
//! # Tensor layout
//!
//! Feature tensors are shaped `[7, M, H, V]` — the layer axis first and the
//! long `V` axis last, so convolution inner loops run over long contiguous
//! rows (Hanan layer counts are small). Use [`tensor_offset`] /
//! [`to_graph_order`] / [`from_graph_order`] to translate between the
//! tensor's spatial flattening and [`HananGraph::index`] order.

use oarsmt_geom::{GridPoint, HananGraph, VertexKind};
use oarsmt_nn::{NnWorkspace, Tensor};

/// Number of feature channels.
pub const FEATURE_CHANNELS: usize = 7;

/// The within-channel flat offset of a grid point in a feature tensor
/// (layout `[C, M, H, V]`).
#[inline]
pub fn tensor_offset(graph: &HananGraph, p: GridPoint) -> usize {
    let (h, v, _m) = graph.dims();
    (p.m * h + p.h) * v + p.v
}

/// Reorders one tensor channel (flat `[M, H, V]` data) into
/// [`HananGraph::index`] order.
///
/// # Panics
///
/// Panics if `channel.len() != graph.len()`.
pub fn to_graph_order(channel: &[f32], graph: &HananGraph) -> Vec<f32> {
    let mut out = Vec::with_capacity(graph.len());
    to_graph_order_into(channel, graph, &mut out);
    out
}

/// [`to_graph_order`] into a caller-owned buffer, which is cleared first.
/// The buffer's allocation is reused across calls (see
/// `oarsmt_router::RouteContext`).
///
/// # Panics
///
/// Panics if `channel.len() != graph.len()`.
pub fn to_graph_order_into(channel: &[f32], graph: &HananGraph, out: &mut Vec<f32>) {
    out.clear();
    to_graph_order_append(channel, graph, out);
}

/// [`to_graph_order_into`] without the clear: appends one reordered channel
/// to `out`. Batched selector paths call this once per sample to build a
/// concatenated per-sample probability buffer.
///
/// # Panics
///
/// Panics if `channel.len() != graph.len()`.
pub fn to_graph_order_append(channel: &[f32], graph: &HananGraph, out: &mut Vec<f32>) {
    assert_eq!(channel.len(), graph.len());
    out.extend((0..graph.len()).map(|idx| channel[tensor_offset(graph, graph.point(idx))]));
}

/// Builds a `[1, M, H, V]` tensor from per-vertex values given in
/// [`HananGraph::index`] order — the inverse of [`to_graph_order`].
///
/// # Panics
///
/// Panics if `values.len() != graph.len()`.
pub fn from_graph_order(values: &[f32], graph: &HananGraph) -> Tensor {
    assert_eq!(values.len(), graph.len());
    let (h, v, m) = graph.dims();
    let mut t = Tensor::zeros(&[1, m, h, v]);
    for (idx, &val) in values.iter().enumerate() {
        let off = tensor_offset(graph, graph.point(idx));
        t.data_mut()[off] = val;
    }
    t
}

/// Encodes a Hanan graph into a `[7, M, H, V]` feature tensor.
///
/// `extra_pins` are encoded as pins in channel 0 on top of the graph's own
/// pins — this is how MCTS states ("previously selected Steiner points are
/// ... treated as normal pins", Section 3.4) are presented to the selector.
pub fn encode_features(graph: &HananGraph, extra_pins: &[GridPoint]) -> Tensor {
    encode_features_into(graph, extra_pins, &mut NnWorkspace::new())
}

/// [`encode_features`] with the tensor drawn from a workspace pool, so the
/// inference hot path (see `oarsmt_router::RouteContext::nn`) encodes
/// without allocating. Free the returned tensor back into `ws` after use.
///
/// The `[7, M, H, V]` tensor is one sample to the network
/// ([`UNet3d::infer_in`](oarsmt_nn::UNet3d::infer_in) reads it as `B = 1`
/// with no copy).
pub fn encode_features_into(
    graph: &HananGraph,
    extra_pins: &[GridPoint],
    ws: &mut NnWorkspace,
) -> Tensor {
    let (h, v, m) = graph.dims();
    let mut t = ws.alloc(&[FEATURE_CHANNELS, m, h, v]);
    encode_graph(graph, 1, t.data_mut());
    for &p in extra_pins {
        t.data_mut()[tensor_offset(graph, p)] = 1.0;
    }
    t
}

/// Writes the graph's seven channels into sample 0 of a channel-major
/// `[7, bsz, M, H, V]` buffer (channel `c` starts at `c · bsz · spatial`).
fn encode_graph(graph: &HananGraph, bsz: usize, data: &mut [f32]) {
    let (h, v, _m) = graph.dims();
    let stride = bsz * graph.len();
    let max_cost = graph.max_cost().max(f64::MIN_POSITIVE) as f32;
    let via = (graph.via_cost() as f32) / max_cost;
    for idx in 0..graph.len() {
        let p = graph.point(idx);
        let (pin, obstacle) = match graph.kind_at(idx) {
            VertexKind::Pin => (1.0, 0.0),
            VertexKind::Obstacle => (0.0, 1.0),
            VertexKind::Empty => (0.0, 0.0),
        };
        let right = if p.h + 1 < h {
            graph.x_cost(p.h) as f32 / max_cost
        } else {
            0.0
        };
        let left = if p.h > 0 {
            graph.x_cost(p.h - 1) as f32 / max_cost
        } else {
            0.0
        };
        let up = if p.v + 1 < v {
            graph.y_cost(p.v) as f32 / max_cost
        } else {
            0.0
        };
        let down = if p.v > 0 {
            graph.y_cost(p.v - 1) as f32 / max_cost
        } else {
            0.0
        };
        let off = tensor_offset(graph, p);
        for (c, val) in [pin, obstacle, right, left, up, down, via]
            .into_iter()
            .enumerate()
        {
            data[c * stride + off] = val;
        }
    }
}

/// Encodes `B` states of one Hanan graph into a channel-major
/// `[7, B, M, H, V]` batch tensor (the activation layout of
/// `oarsmt_nn::Layer`). State `b`'s extra pins are the `lens[b]` points at
/// their running offset into `pts` (a flattened state list, so callers
/// queue states without nested allocations).
///
/// Sample `b`'s subtensor is bit-identical to
/// [`encode_features_into`]`(graph, state_b, ws)`: the graph-dependent
/// channels are encoded once into sample 0 and replicated, and only the
/// pin channel differs per sample.
///
/// # Panics
///
/// Panics if `pts.len()` does not equal the sum of `lens`, or `lens` is
/// empty.
pub fn encode_features_batch_into(
    graph: &HananGraph,
    pts: &[GridPoint],
    lens: &[u32],
    ws: &mut NnWorkspace,
) -> Tensor {
    let bsz = lens.len();
    assert!(bsz > 0, "empty batch");
    assert_eq!(
        pts.len(),
        lens.iter().map(|&l| l as usize).sum::<usize>(),
        "flattened state list does not match lens"
    );
    let (h, v, m) = graph.dims();
    let spatial = m * h * v;
    let mut t = ws.alloc(&[FEATURE_CHANNELS, bsz, m, h, v]);
    encode_graph(graph, bsz, t.data_mut());
    for c in 0..FEATURE_CHANNELS {
        let src = c * bsz * spatial;
        for b in 1..bsz {
            t.data_mut()
                .copy_within(src..src + spatial, src + b * spatial);
        }
    }
    let mut off = 0usize;
    for (b, &l) in lens.iter().enumerate() {
        for &p in &pts[off..off + l as usize] {
            let at = b * spatial + tensor_offset(graph, p);
            t.data_mut()[at] = 1.0;
        }
        off += l as usize;
    }
    t
}

/// A training mask for BCE: `1` on vertices where a Steiner point may be
/// placed ([`VertexKind::Empty`]), `0` on pins, extra pins and obstacles.
/// Shape `[1, M, H, V]` (tensor layout).
pub fn valid_mask(graph: &HananGraph, extra_pins: &[GridPoint]) -> Tensor {
    let (h, v, m) = graph.dims();
    let mut t = Tensor::zeros(&[1, m, h, v]);
    for idx in 0..graph.len() {
        if graph.kind_at(idx) == VertexKind::Empty {
            let off = tensor_offset(graph, graph.point(idx));
            t.data_mut()[off] = 1.0;
        }
    }
    for &p in extra_pins {
        let off = tensor_offset(graph, p);
        t.data_mut()[off] = 0.0;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> HananGraph {
        let mut g = HananGraph::with_costs(3, 3, 2, vec![2.0, 4.0], vec![1.0, 8.0], 3.0).unwrap();
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(2, 2, 1)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(1, 1, 0)).unwrap();
        g
    }

    #[test]
    fn shape_and_channel_semantics() {
        let g = sample_graph();
        let t = encode_features(&g, &[]);
        assert_eq!(t.shape(), &[7, 2, 3, 3]); // [C, M, H, V]
                                              // Pin channel (indexed as c, m, h, v).
        assert_eq!(t.at4(0, 0, 0, 0), 1.0);
        assert_eq!(t.at4(0, 1, 2, 2), 1.0);
        assert_eq!(t.at4(0, 0, 1, 1), 0.0);
        // Obstacle channel.
        assert_eq!(t.at4(1, 0, 1, 1), 1.0);
        assert_eq!(t.at4(1, 1, 1, 1), 0.0);
    }

    #[test]
    fn cost_channels_are_normalized_by_max() {
        let g = sample_graph();
        let t = encode_features(&g, &[]);
        // max cost is 8; right cost from h=0 is 2 -> 0.25.
        assert_eq!(t.at4(2, 0, 0, 0), 0.25);
        // left of h=0 doesn't exist.
        assert_eq!(t.at4(3, 0, 0, 0), 0.0);
        // left of h=2 is x_cost(1) = 4 -> 0.5.
        assert_eq!(t.at4(3, 0, 2, 0), 0.5);
        // up from v=1 is y_cost(1)=8 -> 1.0.
        assert_eq!(t.at4(4, 0, 0, 1), 1.0);
        // down from v=0 doesn't exist.
        assert_eq!(t.at4(5, 0, 0, 0), 0.0);
        // via channel is uniform 3/8.
        assert_eq!(t.at4(6, 1, 2, 1), 0.375);
        // Every value within [0, 1].
        for &v in t.data() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn extra_pins_appear_in_pin_channel() {
        let g = sample_graph();
        let extra = GridPoint::new(2, 0, 0);
        let t = encode_features(&g, &[extra]);
        assert_eq!(t.at4(0, 0, 2, 0), 1.0);
    }

    #[test]
    fn order_helpers_round_trip() {
        let g = sample_graph();
        let values: Vec<f32> = (0..g.len()).map(|i| i as f32).collect();
        let tensor = from_graph_order(&values, &g);
        assert_eq!(tensor.shape(), &[1, 2, 3, 3]);
        let back = to_graph_order(tensor.data(), &g);
        assert_eq!(back, values);
        // Spot-check the offset mapping.
        let p = GridPoint::new(2, 1, 1);
        assert_eq!(tensor.data()[tensor_offset(&g, p)], values[g.index(p)]);
    }

    #[test]
    fn tensor_offset_covers_all_vertices_bijectively() {
        let g = sample_graph();
        let mut seen = vec![false; g.len()];
        for idx in 0..g.len() {
            let off = tensor_offset(&g, g.point(idx));
            assert!(!seen[off]);
            seen[off] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn valid_mask_excludes_pins_obstacles_and_extras() {
        let g = sample_graph();
        let extra = GridPoint::new(2, 0, 0);
        let m = valid_mask(&g, &[extra]);
        let at = |p: GridPoint| m.data()[tensor_offset(&g, p)];
        assert_eq!(at(GridPoint::new(0, 0, 0)), 0.0); // pin
        assert_eq!(at(GridPoint::new(1, 1, 0)), 0.0); // obstacle
        assert_eq!(at(extra), 0.0); // extra pin
        assert_eq!(at(GridPoint::new(0, 1, 0)), 1.0); // free
    }
}
