//! 3D convolutional residual blocks (He et al., as adopted by the paper's
//! architecture: "3D convolutional residual blocks", Section 3.3).

use crate::activation::Relu;
use crate::conv3d::Conv3d;
use crate::init::Initializer;
use crate::layer::{Layer, Param};
use crate::norm::{GroupNorm, NormCache};
use crate::tensor::Tensor;
use crate::workspace::NnWorkspace;

/// A pre-activation-free residual block:
/// `y = relu(conv2(norm?(relu(norm?(conv1(x))))) + proj(x))`,
/// where `proj` is the identity when channel counts match and a `1×1×1`
/// convolution otherwise, and the optional [`GroupNorm`]s are inserted by
/// [`ResidualBlock::new_normed`].
#[derive(Debug, Clone)]
pub struct ResidualBlock {
    conv1: Conv3d,
    norm1: Option<GroupNorm>,
    conv2: Conv3d,
    norm2: Option<GroupNorm>,
    projection: Option<Conv3d>,
    cache: Option<ResCache>,
}

/// The backward cache of one residual-block forward: one entry per
/// sublayer, in dataflow order.
#[derive(Debug, Clone)]
pub(crate) struct ResCache {
    conv1: Option<Tensor>,
    norm1: Option<NormCache>,
    relu1: Option<Tensor>,
    conv2: Option<Tensor>,
    norm2: Option<NormCache>,
    projection: Option<Tensor>,
    relu_out: Option<Tensor>,
}

impl ResidualBlock {
    /// Creates a residual block mapping `in_c` to `out_c` channels with
    /// `k × k × k` kernels (the paper uses `k = 3`).
    pub fn new(in_c: usize, out_c: usize, k: usize, init: &mut Initializer) -> Self {
        ResidualBlock {
            conv1: Conv3d::new(in_c, out_c, k, init),
            norm1: None,
            conv2: Conv3d::new(out_c, out_c, k, init),
            norm2: None,
            projection: (in_c != out_c).then(|| Conv3d::new(in_c, out_c, 1, init)),
            cache: None,
        }
    }

    /// Creates a residual block with a [`GroupNorm`] after each convolution.
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not divide `out_c`.
    pub fn new_normed(
        in_c: usize,
        out_c: usize,
        k: usize,
        groups: usize,
        init: &mut Initializer,
    ) -> Self {
        ResidualBlock {
            norm1: Some(GroupNorm::new(out_c, groups)),
            norm2: Some(GroupNorm::new(out_c, groups)),
            ..ResidualBlock::new(in_c, out_c, k, init)
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.conv2.out_channels()
    }

    /// Routes every convolution through the naive reference loops
    /// (bit-identity oracle; see [`Conv3d::set_naive`]).
    #[cfg(any(test, feature = "naive-ref"))]
    pub fn set_naive(&mut self, on: bool) {
        self.conv1.set_naive(on);
        self.conv2.set_naive(on);
        if let Some(proj) = &mut self.projection {
            proj.set_naive(on);
        }
    }

    /// The forward body behind [`Layer::forward_in`] and the inference
    /// path: every sublayer's forward body, their caches collected only
    /// when `want_cache`. The elementwise add and ReLUs are
    /// layout-agnostic.
    pub(crate) fn forward_core(
        &self,
        x: &Tensor,
        ws: &mut NnWorkspace,
        want_cache: bool,
    ) -> (Tensor, Option<ResCache>) {
        let (mut h, conv1) = self.conv1.forward_core(x, ws, want_cache);
        let mut norm1 = None;
        if let Some(n) = &self.norm1 {
            let (y, c) = n.forward_core(&h, ws, want_cache);
            ws.free(h);
            (h, norm1) = (y, c);
        }
        let (h, relu1) = Relu::forward_core(h, ws, want_cache);
        let (mut sum, conv2) = self.conv2.forward_core(&h, ws, want_cache);
        ws.free(h);
        let mut norm2 = None;
        if let Some(n) = &self.norm2 {
            let (y, c) = n.forward_core(&sum, ws, want_cache);
            ws.free(sum);
            (sum, norm2) = (y, c);
        }
        let mut projection = None;
        match &self.projection {
            Some(proj) => {
                let (skip, c) = proj.forward_core(x, ws, want_cache);
                sum.add_assign(&skip);
                ws.free(skip);
                projection = c;
            }
            None => sum.add_assign(x),
        }
        let (y, relu_out) = Relu::forward_core(sum, ws, want_cache);
        let cache = want_cache.then_some(ResCache {
            conv1,
            norm1,
            relu1,
            conv2,
            norm2,
            projection,
            relu_out,
        });
        (y, cache)
    }

    /// The backward body behind [`Layer::backward_in`].
    pub(crate) fn backward_core(
        &mut self,
        cache: Option<ResCache>,
        grad_out: Tensor,
        ws: &mut NnWorkspace,
    ) -> Tensor {
        let c = cache.expect("residual backward without forward");
        let grad_sum = Relu::backward_core(c.relu_out, grad_out, ws);
        // Main branch.
        let mut g = ws.alloc_copy(&grad_sum);
        if let Some(n) = &mut self.norm2 {
            g = n.backward_core(c.norm2, g, ws);
        }
        g = self.conv2.backward_core(c.conv2, g, ws);
        g = Relu::backward_core(c.relu1, g, ws);
        if let Some(n) = &mut self.norm1 {
            g = n.backward_core(c.norm1, g, ws);
        }
        let mut g_main = self.conv1.backward_core(c.conv1, g, ws);
        // Skip branch.
        let g_skip = match &mut self.projection {
            Some(proj) => proj.backward_core(c.projection, grad_sum, ws),
            None => grad_sum,
        };
        g_main.add_assign(&g_skip);
        ws.free(g_skip);
        g_main
    }
}

impl Layer for ResidualBlock {
    fn forward_in(&mut self, x: &Tensor, ws: &mut NnWorkspace) -> Tensor {
        let (y, cache) = self.forward_core(x, ws, true);
        self.cache = cache;
        y
    }

    fn backward_in(&mut self, grad_out: Tensor, ws: &mut NnWorkspace) -> Tensor {
        let cache = self.cache.take();
        self.backward_core(cache, grad_out, ws)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.conv1.params_mut();
        if let Some(n) = &mut self.norm1 {
            ps.extend(n.params_mut());
        }
        ps.extend(self.conv2.params_mut());
        if let Some(n) = &mut self.norm2 {
            ps.extend(n.params_mut());
        }
        if let Some(proj) = &mut self.projection {
            ps.extend(proj.params_mut());
        }
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn same_channel_block_has_no_projection() {
        let mut b = ResidualBlock::new(3, 3, 3, &mut Initializer::new(0));
        assert_eq!(b.params_mut().len(), 4); // two convs x (w, b)
        let x = Tensor::zeros(&[3, 2, 2, 2]);
        assert_eq!(
            b.forward_in(&x, &mut NnWorkspace::new()).shape(),
            &[3, 2, 2, 2]
        );
    }

    #[test]
    fn channel_change_uses_projection() {
        let mut b = ResidualBlock::new(2, 5, 3, &mut Initializer::new(0));
        assert_eq!(b.params_mut().len(), 6);
        let x = Tensor::zeros(&[2, 3, 2, 1]);
        assert_eq!(
            b.forward_in(&x, &mut NnWorkspace::new()).shape(),
            &[5, 3, 2, 1]
        );
    }

    #[test]
    fn zero_weights_pass_skip_through_relu() {
        let mut b = ResidualBlock::new(2, 2, 3, &mut Initializer::new(0));
        for p in b.params_mut() {
            p.value.fill(0.0);
        }
        let x = Tensor::from_fn4(&[2, 2, 2, 1], |c, a, bb, _| (c + a + bb) as f32 - 1.0);
        let y = b.forward_in(&x, &mut NnWorkspace::new());
        // With zero main branch and identity skip, y = relu(x).
        for (yv, xv) in y.data().iter().zip(x.data()) {
            assert_eq!(*yv, xv.max(0.0));
        }
    }

    #[test]
    fn gradcheck_identity_skip() {
        let mut b = ResidualBlock::new(2, 2, 3, &mut Initializer::new(5));
        let x = Initializer::new(6).uniform(&[2, 2, 2, 2], 1.0);
        check_layer_gradients(&mut b, &x, 1e-2, 3e-2);
    }

    #[test]
    fn gradcheck_normed_block() {
        let mut b = ResidualBlock::new_normed(2, 4, 3, 2, &mut Initializer::new(11));
        let x = Initializer::new(12).uniform(&[2, 2, 2, 1], 1.0);
        check_layer_gradients(&mut b, &x, 1e-2, 4e-2);
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (p, q)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "{what}: element {i}: {p} vs {q}");
        }
    }

    /// Batched-vs-sequential bit identity through a **normed** block — the
    /// U-Net itself carries no GroupNorms, so this is where the batched
    /// normalization path gets its per-sample-identity coverage (per-sample
    /// statistics, strided accumulation order, parameter gradients).
    #[test]
    fn normed_block_batched_matches_sequential_bitwise() {
        for &bsz in &[1usize, 3] {
            let proto = ResidualBlock::new_normed(2, 4, 3, 2, &mut Initializer::new(21));
            let xs: Vec<Tensor> = (0..bsz)
                .map(|b| Initializer::new(30 + b as u64).uniform(&[2, 3, 2, 2], 1.0))
                .collect();
            let gs: Vec<Tensor> = (0..bsz)
                .map(|b| Initializer::new(40 + b as u64).uniform(&[4, 3, 2, 2], 1.0))
                .collect();

            let mut seq = proto.clone();
            let mut ws = NnWorkspace::new();
            let mut ys = Vec::new();
            let mut gis = Vec::new();
            for b in 0..bsz {
                ys.push(seq.forward_in(&xs[b], &mut ws));
                gis.push(seq.backward_in(ws.alloc_copy(&gs[b]), &mut ws));
            }

            let mut bat = proto.clone();
            let mut wsb = NnWorkspace::new();
            let x5 = Tensor::stack_batch(&xs.iter().collect::<Vec<_>>());
            let g5 = Tensor::stack_batch(&gs.iter().collect::<Vec<_>>());
            let y5 = bat.forward_in(&x5, &mut wsb);
            let gi5 = bat.backward_in(wsb.alloc_copy(&g5), &mut wsb);

            for b in 0..bsz {
                assert_bits_eq(&y5.unstack_sample(b), &ys[b], &format!("B{bsz} y[{b}]"));
                assert_bits_eq(
                    &gi5.unstack_sample(b),
                    &gis[b],
                    &format!("B{bsz} grad_in[{b}]"),
                );
            }
            for (pb, ps) in bat.params_mut().iter().zip(seq.params_mut().iter()) {
                assert_bits_eq(&pb.grad, &ps.grad, &format!("B{bsz} param grad"));
            }
        }
    }

    /// The inference route (`&self`, no cache) through a normed,
    /// projected block must match the training forward bit for bit.
    #[test]
    fn forward_core_without_cache_matches_forward_in() {
        let proto = ResidualBlock::new_normed(2, 4, 3, 2, &mut Initializer::new(51));
        let x = Initializer::new(52).uniform(&[2, 3, 2, 2], 1.0);
        let mut owned = proto.clone();
        let y_ref = owned.forward_in(&x, &mut NnWorkspace::new());
        let mut ws = NnWorkspace::new();
        let (y, cache) = proto.forward_core(&x, &mut ws, false);
        assert!(cache.is_none());
        assert_bits_eq(&y, &y_ref, "shared inference");
    }

    #[test]
    fn gradcheck_projected_skip() {
        let mut b = ResidualBlock::new(2, 3, 1, &mut Initializer::new(8));
        let x = Initializer::new(9).uniform(&[2, 2, 2, 1], 1.0);
        check_layer_gradients(&mut b, &x, 1e-2, 3e-2);
    }
}
