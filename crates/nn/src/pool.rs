//! Ceil-mode 3D max pooling.
//!
//! The U-Net downsamples with window-2, stride-2 max pooling in **ceil
//! mode**: an axis of size `d` pools to `ceil(d / 2)`, so odd and even (and
//! even size-1) axes all work. Together with
//! [`upsample`](crate::upsample)-to-target-shape on the decoder side, this
//! is what lets the network consume Hanan graphs of any `H × V × M`.

use crate::layer::{Dims, Layer};
use crate::tensor::Tensor;
use crate::workspace::{NnWorkspace, ProfKind};

/// Window-2, stride-2, ceil-mode 3D max pooling.
#[derive(Debug, Clone, Default)]
pub struct MaxPool3d {
    cache: Option<PoolCache>,
}

/// The backward cache of one pooling forward.
#[derive(Debug, Clone)]
pub(crate) struct PoolCache {
    in_dims: Dims,
    /// Per output element, the position `4·dx + 2·dy + dz` of its maximum
    /// inside its window (small integers, exact in `f32`, so the cache is
    /// an ordinary pool tensor).
    arg: Tensor,
}

/// Pooled size of one axis.
#[inline]
pub fn pooled(d: usize) -> usize {
    d.div_ceil(2)
}

impl MaxPool3d {
    /// Creates a pooling layer.
    pub fn new() -> Self {
        MaxPool3d::default()
    }

    /// The forward body behind [`Layer::forward_in`] and the inference
    /// path: pools the trailing three axes, returning the argmax cache only
    /// when `want_cache`.
    pub(crate) fn forward_core(
        x: &Tensor,
        ws: &mut NnWorkspace,
        want_cache: bool,
    ) -> (Tensor, Option<PoolCache>) {
        let t = ws.prof_start();
        let in_dims = Dims::of(x.shape());
        let [d1, d2, d3] = in_dims.d;
        let out_dims = in_dims.with(in_dims.c, [pooled(d1), pooled(d2), pooled(d3)]);
        let mut out = out_dims.alloc(ws);
        let cache = if want_cache {
            let mut arg = out_dims.alloc(ws);
            pool_core(x.data(), in_dims, out.data_mut(), Some(arg.data_mut()));
            Some(PoolCache { in_dims, arg })
        } else {
            pool_core(x.data(), in_dims, out.data_mut(), None);
            None
        };
        ws.prof_end(t, ProfKind::PoolFwd);
        (out, cache)
    }

    /// The backward body behind [`Layer::backward_in`]: routes each output
    /// gradient to its window's maximum. Windows are disjoint, so every
    /// input cell receives at most one term — no accumulation order to
    /// keep, whatever the batch size.
    pub(crate) fn backward_core(
        cache: Option<PoolCache>,
        grad_out: Tensor,
        ws: &mut NnWorkspace,
    ) -> Tensor {
        let t = ws.prof_start();
        let cache = cache.expect("maxpool backward without forward");
        assert_eq!(grad_out.len(), cache.arg.len());
        let mut grad_in = cache.in_dims.alloc(ws);
        let [d1, d2, d3] = cache.in_dims.d;
        let (o1, o2, o3) = (pooled(d1), pooled(d2), pooled(d3));
        let spatial = cache.in_dims.spatial();
        let (g, arg, gi) = (grad_out.data(), cache.arg.data(), grad_in.data_mut());
        let mut oi = 0;
        for ci in 0..cache.in_dims.c * cache.in_dims.b {
            for x1 in 0..o1 {
                for y in 0..o2 {
                    for z in 0..o3 {
                        let at = arg[oi] as usize;
                        let (ix, iy, iz) = (
                            2 * x1 + (at >> 2),
                            2 * y + ((at >> 1) & 1),
                            2 * z + (at & 1),
                        );
                        gi[ci * spatial + (ix * d2 + iy) * d3 + iz] += g[oi];
                        oi += 1;
                    }
                }
            }
        }
        ws.free(cache.arg);
        ws.free(grad_out);
        ws.prof_end(t, ProfKind::PoolBwd);
        grad_in
    }
}

/// The pooling kernel over the trailing three spatial axes; every leading
/// `(c, b)` pair is an independent volume (channel-major keeps each
/// sample's volume contiguous), so batching cannot change a bit. `arg`,
/// when recording, receives each maximum's position in its window.
fn pool_core(xd: &[f32], dims: Dims, out: &mut [f32], mut arg: Option<&mut [f32]>) {
    let [d1, d2, d3] = dims.d;
    let (o1, o2, o3) = (pooled(d1), pooled(d2), pooled(d3));
    let spatial = dims.spatial();
    let mut oi = 0;
    for ci in 0..dims.c * dims.b {
        let base = ci * spatial;
        for x1 in 0..o1 {
            for y in 0..o2 {
                for z in 0..o3 {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_at = 0usize;
                    for dx in 0..2 {
                        let ix = x1 * 2 + dx;
                        if ix >= d1 {
                            continue;
                        }
                        for dy in 0..2 {
                            let iy = y * 2 + dy;
                            if iy >= d2 {
                                continue;
                            }
                            for dz in 0..2 {
                                let iz = z * 2 + dz;
                                if iz >= d3 {
                                    continue;
                                }
                                let v = xd[base + (ix * d2 + iy) * d3 + iz];
                                if v > best {
                                    best = v;
                                    best_at = 4 * dx + 2 * dy + dz;
                                }
                            }
                        }
                    }
                    out[oi] = best;
                    if let Some(a) = arg.as_deref_mut() {
                        a[oi] = best_at as f32;
                    }
                    oi += 1;
                }
            }
        }
    }
}

impl Layer for MaxPool3d {
    fn forward_in(&mut self, x: &Tensor, ws: &mut NnWorkspace) -> Tensor {
        let (y, cache) = MaxPool3d::forward_core(x, ws, true);
        self.cache = cache;
        y
    }

    fn backward_in(&mut self, grad_out: Tensor, ws: &mut NnWorkspace) -> Tensor {
        MaxPool3d::backward_core(self.cache.take(), grad_out, ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_sizes_use_ceil() {
        assert_eq!(pooled(1), 1);
        assert_eq!(pooled(2), 1);
        assert_eq!(pooled(3), 2);
        assert_eq!(pooled(5), 3);
        assert_eq!(pooled(8), 4);
    }

    #[test]
    fn pools_maxima_per_window() {
        let x = Tensor::from_fn4(&[1, 2, 2, 2], |_, a, b, c| (a * 4 + b * 2 + c) as f32);
        let mut p = MaxPool3d::new();
        let mut ws = NnWorkspace::new();
        let y = p.forward_in(&x, &mut ws);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 7.0);
    }

    #[test]
    fn odd_axes_keep_tail_windows() {
        let x = Tensor::from_fn4(&[1, 3, 1, 1], |_, a, _, _| a as f32);
        let mut p = MaxPool3d::new();
        let mut ws = NnWorkspace::new();
        let y = p.forward_in(&x, &mut ws);
        assert_eq!(y.shape(), &[1, 2, 1, 1]);
        assert_eq!(y.data(), &[1.0, 2.0]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let x = Tensor::from_vec(&[1, 2, 1, 1], vec![3.0, 5.0]).unwrap();
        let mut p = MaxPool3d::new();
        let mut ws = NnWorkspace::new();
        let y = p.forward_in(&x, &mut ws);
        assert_eq!(y.data(), &[5.0]);
        let g = p.backward_in(Tensor::from_vec(&[1, 1, 1, 1], vec![2.0]).unwrap(), &mut ws);
        assert_eq!(g.data(), &[0.0, 2.0]);
    }

    #[test]
    fn size_one_axes_pass_through() {
        let x = Tensor::from_fn4(&[2, 1, 1, 1], |c, _, _, _| c as f32);
        let mut p = MaxPool3d::new();
        let mut ws = NnWorkspace::new();
        let y = p.forward_in(&x, &mut ws);
        assert_eq!(y.shape(), &[2, 1, 1, 1]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn backward_finds_maxima_in_every_window_position_and_batch_slot() {
        // [c=1, b=2, 3, 3, 3]: odd axes give clipped tail windows.
        let x = crate::init::Initializer::new(5).uniform(&[1, 2, 3, 3, 3], 1.0);
        let mut p = MaxPool3d::new();
        let mut ws = NnWorkspace::new();
        let y = p.forward_in(&x, &mut ws);
        assert_eq!(y.shape(), &[1, 2, 2, 2, 2]);
        let g = p.backward_in(ws.alloc_copy(&y), &mut ws);
        // Every maximum receives its own value back, everything else 0.
        for (i, &gv) in g.data().iter().enumerate() {
            let v = x.data()[i];
            assert!(gv == 0.0 || gv == v, "cell {i}: {gv} vs {v}");
        }
        assert_eq!(
            g.data().iter().filter(|&&v| v != 0.0).count(),
            y.len(),
            "one maximum per window"
        );
        assert_eq!(g.sum(), y.sum());
    }
}
