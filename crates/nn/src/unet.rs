//! The 3D Residual U-Net — the paper's Steiner-point selector architecture
//! (Section 3.3, Fig. 4).
//!
//! The network is image-in-image-out: a `[in_channels, B, H, V, M]`
//! feature batch (or one `[in_channels, H, V, M]` sample) maps to
//! `[1, B, H, V, M]` (resp. `[1, H, V, M]`) logits for **any** spatial
//! shape. Encoder levels apply a residual block then ceil-mode max pooling;
//! the decoder upsamples back to each skip connection's exact shape,
//! concatenates, and applies another residual block; a `1×1×1` convolution
//! head produces per-vertex logits. [`UNet3d::infer_in`] applies the
//! sigmoid to obtain the final selected probabilities of the paper.

use crate::activation::sigmoid;
use crate::conv3d::Conv3d;
use crate::init::Initializer;
use crate::layer::{Dims, Layer, Param};
use crate::pool::{MaxPool3d, PoolCache};
use crate::residual::{ResCache, ResidualBlock};
use crate::tensor::Tensor;
use crate::upsample::Upsample3d;
use crate::workspace::NnWorkspace;
use oarsmt_telemetry::Counter;

/// The deepest supported network: per-level state lives in fixed arrays,
/// so warm passes allocate nothing.
pub const MAX_LEVELS: usize = 8;

/// Configuration of a [`UNet3d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UNetConfig {
    /// Input feature channels (the paper's encoding uses 7).
    pub in_channels: usize,
    /// Channels of the first encoder level; level `i` uses
    /// `base_channels * 2^i`.
    pub base_channels: usize,
    /// Number of encoder/decoder levels (the bottleneck adds one more
    /// resolution), at most [`MAX_LEVELS`].
    pub levels: usize,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for UNetConfig {
    fn default() -> Self {
        UNetConfig {
            in_channels: 7,
            base_channels: 8,
            levels: 2,
            seed: 0,
        }
    }
}

/// The 3D Residual U-Net.
#[derive(Debug, Clone)]
pub struct UNet3d {
    config: UNetConfig,
    enc: Vec<ResidualBlock>,
    bottleneck: ResidualBlock,
    dec: Vec<ResidualBlock>,
    head: Conv3d,
    /// Channel count entering decoder level `i` from below (what gets
    /// upsampled).
    up_channels: Vec<usize>,
    cache: Option<UNetCache>,
}

/// The backward cache of one U-Net forward, per level.
#[derive(Debug, Clone, Default)]
pub(crate) struct UNetCache {
    enc: [Option<ResCache>; MAX_LEVELS],
    pools: [Option<PoolCache>; MAX_LEVELS],
    bottleneck: Option<ResCache>,
    ups: [Option<Dims>; MAX_LEVELS],
    dec: [Option<ResCache>; MAX_LEVELS],
    head: Option<Tensor>,
}

impl UNet3d {
    /// Builds the network from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is 0 or above [`MAX_LEVELS`], or if
    /// `base_channels` or `in_channels` is 0.
    pub fn new(config: UNetConfig) -> Self {
        assert!(config.levels > 0 && config.base_channels > 0 && config.in_channels > 0);
        assert!(
            config.levels <= MAX_LEVELS,
            "at most {MAX_LEVELS} levels, got {}",
            config.levels
        );
        let mut init = Initializer::new(config.seed);
        let c = |i: usize| config.base_channels << i;
        let mut enc = Vec::new();
        for i in 0..config.levels {
            let in_c = if i == 0 { config.in_channels } else { c(i - 1) };
            enc.push(ResidualBlock::new(in_c, c(i), 3, &mut init));
        }
        let bottleneck = ResidualBlock::new(c(config.levels - 1), c(config.levels), 3, &mut init);
        let mut dec = Vec::new();
        let mut up_channels = Vec::new();
        for i in 0..config.levels {
            // Decoder level i receives (from below) the output of decoder
            // level i+1 (c(i+1) channels) or the bottleneck (c(levels)).
            let from_below = if i + 1 == config.levels {
                c(config.levels)
            } else {
                c(i + 1)
            };
            dec.push(ResidualBlock::new(from_below + c(i), c(i), 3, &mut init));
            up_channels.push(from_below);
        }
        let head = Conv3d::new(config.base_channels, 1, 1, &mut init);
        UNet3d {
            config,
            enc,
            bottleneck,
            dec,
            head,
            up_channels,
            cache: None,
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &UNetConfig {
        &self.config
    }

    /// Sets the output head's bias so a freshly initialized network emits
    /// probabilities around `sigmoid(bias)` instead of `0.5`. Steiner-point
    /// labels are sparse, and the combinatorial-MCTS actor's telescoping
    /// product (Eq. 1 of the paper) degenerates when every probability is
    /// large, so selectors initialize the head bias negative.
    pub fn init_output_bias(&mut self, bias: f32) {
        let mut params = self.head.params_mut();
        params
            .last_mut()
            .expect("head has weight and bias")
            .value
            .fill(bias);
    }

    /// Inference: per-vertex probabilities in `(0, 1)` — the "final
    /// selected probability" array of the paper — for a
    /// `[in_channels, B, H, V, M]` batch (`[1, B, H, V, M]` out) or one
    /// `[in_channels, H, V, M]` sample (`[1, H, V, M]` out, the same bits
    /// as that sample in any batch).
    ///
    /// The forward bodies of the training pass run through `&self` with no
    /// backward caches, so one network can serve many threads (or sit
    /// behind an `Arc`) without cloning weights, and every intermediate
    /// comes from the workspace pool. The sigmoid is applied in place on
    /// the logits.
    pub fn infer_in(&self, x: &Tensor, ws: &mut NnWorkspace) -> Tensor {
        let (mut probs, _) = self.forward_core(x, ws, false);
        for v in probs.data_mut() {
            *v = sigmoid(*v);
        }
        probs
    }

    /// Routes every convolution through the naive reference loops
    /// (bit-identity oracle; see [`Conv3d::set_naive`]).
    #[cfg(any(test, feature = "naive-ref"))]
    pub fn set_naive(&mut self, on: bool) {
        for b in &mut self.enc {
            b.set_naive(on);
        }
        self.bottleneck.set_naive(on);
        for b in &mut self.dec {
            b.set_naive(on);
        }
        self.head.set_naive(on);
    }

    /// The forward body behind [`Layer::forward_in`] and
    /// [`UNet3d::infer_in`]: logits, plus every sublayer's backward cache
    /// when `want_cache`. The skip concatenation is two `copy_from_slice`s
    /// because activations are channel-major.
    fn forward_core(
        &self,
        x: &Tensor,
        ws: &mut NnWorkspace,
        want_cache: bool,
    ) -> (Tensor, Option<UNetCache>) {
        let dims = Dims::of(x.shape());
        assert_eq!(dims.c, self.config.in_channels, "channel mismatch");
        // Occupancy telemetry: `gemm_batch_cols / batch_flushes` is the
        // mean batch size.
        ws.counters.add(Counter::GemmBatchCols, dims.b as u64);
        ws.counters.bump(Counter::BatchFlushes);
        let outer_slot = ws.set_mac_slot(Counter::MacsOther);
        let mut cache = UNetCache::default();
        let mut skips: [Option<Tensor>; MAX_LEVELS] = Default::default();
        let mut cur: Option<Tensor> = None;
        // `i` drives enc, skips, the caches and the MAC slot.
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.config.levels {
            ws.set_mac_slot(Counter::enc_macs(i));
            let (y, c) = self.enc[i].forward_core(cur.as_ref().unwrap_or(x), ws, want_cache);
            cache.enc[i] = c;
            if let Some(t) = cur.take() {
                ws.free(t);
            }
            let (pooled, c) = MaxPool3d::forward_core(&y, ws, want_cache);
            cache.pools[i] = c;
            skips[i] = Some(y);
            cur = Some(pooled);
        }
        // lint: panic-ok(structural: UNetConfig validates levels >= 1, so the encoder loop always ran and `cur` is Some)
        let t = cur.expect("levels > 0");
        ws.set_mac_slot(Counter::MacsBottleneck);
        let (mut cur, c) = self.bottleneck.forward_core(&t, ws, want_cache);
        cache.bottleneck = c;
        ws.free(t);
        for i in (0..self.config.levels).rev() {
            ws.set_mac_slot(Counter::dec_macs(i));
            // lint: panic-ok(structural: the encoder stored exactly one skip per level in this same call and the decoder takes each once)
            let skip = skips[i].take().expect("one skip per level");
            let sd = Dims::of(skip.shape());
            let (up, c) = Upsample3d::forward_core(&cur, sd.d, ws, want_cache);
            cache.ups[i] = c;
            ws.free(cur);
            // cat = [up ; skip] along channels, into a pooled buffer.
            let mut cat = sd.with(up.shape()[0] + sd.c, sd.d).alloc(ws);
            cat.data_mut()[..up.len()].copy_from_slice(up.data());
            cat.data_mut()[up.len()..].copy_from_slice(skip.data());
            ws.free(up);
            ws.free(skip);
            let (y, c) = self.dec[i].forward_core(&cat, ws, want_cache);
            cache.dec[i] = c;
            cur = y;
            ws.free(cat);
        }
        ws.set_mac_slot(Counter::MacsHead);
        let (out, c) = self.head.forward_core(&cur, ws, want_cache);
        cache.head = c;
        ws.free(cur);
        ws.restore_mac_slot(outer_slot);
        (out, want_cache.then_some(cache))
    }

    /// The backward body behind [`Layer::backward_in`].
    fn backward_core(
        &mut self,
        cache: Option<UNetCache>,
        grad_out: Tensor,
        ws: &mut NnWorkspace,
    ) -> Tensor {
        let mut c = cache.expect("unet backward without forward");
        let outer_slot = ws.set_mac_slot(Counter::MacsHead);
        let mut grad = self.head.backward_core(c.head.take(), grad_out, ws);
        let mut g_skips: [Option<Tensor>; MAX_LEVELS] = Default::default();
        // `i` drives dec, g_skips, the caches and the MAC slot.
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.config.levels {
            ws.set_mac_slot(Counter::dec_macs(i));
            grad = self.dec[i].backward_core(c.dec[i].take(), grad, ws);
            // Split [g_up ; g_skip] along channels (pooled buffers).
            let gd = Dims::of(grad.shape());
            let c0 = self.up_channels[i];
            assert!(c0 < gd.c, "split point must leave both halves");
            let split = c0 * gd.b * gd.spatial();
            let mut g_up = gd.with(c0, gd.d).alloc(ws);
            let mut g_skip = gd.with(gd.c - c0, gd.d).alloc(ws);
            g_up.data_mut().copy_from_slice(&grad.data()[..split]);
            g_skip.data_mut().copy_from_slice(&grad.data()[split..]);
            ws.free(grad);
            g_skips[i] = Some(g_skip);
            grad = Upsample3d::backward_core(c.ups[i].take(), g_up, ws);
        }
        ws.set_mac_slot(Counter::MacsBottleneck);
        grad = self.bottleneck.backward_core(c.bottleneck.take(), grad, ws);
        for i in (0..self.config.levels).rev() {
            ws.set_mac_slot(Counter::enc_macs(i));
            grad = MaxPool3d::backward_core(c.pools[i].take(), grad, ws);
            let g_skip = g_skips[i].take().expect("one skip gradient per level");
            grad.add_assign(&g_skip);
            ws.free(g_skip);
            grad = self.enc[i].backward_core(c.enc[i].take(), grad, ws);
        }
        ws.restore_mac_slot(outer_slot);
        grad
    }
}

impl Layer for UNet3d {
    /// Forward pass producing **logits** of shape `[1, B, H, V, M]` (or
    /// `[1, H, V, M]` for one rank-4 sample).
    fn forward_in(&mut self, x: &Tensor, ws: &mut NnWorkspace) -> Tensor {
        let (out, cache) = self.forward_core(x, ws, true);
        self.cache = cache;
        out
    }

    fn backward_in(&mut self, grad_out: Tensor, ws: &mut NnWorkspace) -> Tensor {
        let cache = self.cache.take();
        self.backward_core(cache, grad_out, ws)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = Vec::new();
        for b in &mut self.enc {
            ps.extend(b.params_mut());
        }
        ps.extend(self.bottleneck.params_mut());
        for b in &mut self.dec {
            ps.extend(b.params_mut());
        }
        ps.extend(self.head.params_mut());
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    fn tiny_net(seed: u64) -> UNet3d {
        UNet3d::new(UNetConfig {
            in_channels: 2,
            base_channels: 2,
            levels: 2,
            seed,
        })
    }

    #[test]
    fn output_is_single_channel_same_spatial_shape() {
        let mut net = tiny_net(0);
        for dims in [[4, 4, 2], [5, 3, 1], [7, 2, 3], [1, 1, 1], [9, 9, 4]] {
            let x = Tensor::zeros(&[2, dims[0], dims[1], dims[2]]);
            let y = net.forward_in(&x, &mut NnWorkspace::new());
            assert_eq!(y.shape(), &[1, dims[0], dims[1], dims[2]], "dims {dims:?}");
        }
    }

    #[test]
    fn predict_outputs_probabilities() {
        let net = tiny_net(1);
        let x = Initializer::new(2).uniform(&[2, 4, 5, 2], 1.0);
        let p = net.infer_in(&x, &mut NnWorkspace::new());
        for &v in p.data() {
            assert!(v > 0.0 && v < 1.0);
        }
    }

    #[test]
    fn deeper_nets_still_handle_tiny_inputs() {
        let mut net = UNet3d::new(UNetConfig {
            in_channels: 3,
            base_channels: 2,
            levels: 3,
            seed: 4,
        });
        let x = Tensor::zeros(&[3, 3, 2, 1]);
        let y = net.forward_in(&x, &mut NnWorkspace::new());
        assert_eq!(y.shape(), &[1, 3, 2, 1]);
    }

    #[test]
    fn same_seed_same_output() {
        let x = Initializer::new(11).uniform(&[2, 4, 4, 2], 1.0);
        let mut ws = NnWorkspace::new();
        let ya = tiny_net(42).infer_in(&x, &mut ws);
        let yb = tiny_net(42).infer_in(&x, &mut ws);
        let yc = tiny_net(43).infer_in(&x, &mut ws);
        assert_eq!(ya, yb);
        assert_ne!(ya, yc);
    }

    #[test]
    fn gradcheck_whole_network() {
        // Small input to keep the finite-difference loop cheap.
        let mut net = UNet3d::new(UNetConfig {
            in_channels: 2,
            base_channels: 1,
            levels: 1,
            seed: 3,
        });
        let x = Initializer::new(5).uniform(&[2, 2, 2, 1], 1.0);
        check_layer_gradients(&mut net, &x, 1e-2, 5e-2);
    }

    #[test]
    fn param_count_grows_with_width() {
        let mut small = tiny_net(0);
        let mut big = UNet3d::new(UNetConfig {
            in_channels: 2,
            base_channels: 4,
            levels: 2,
            seed: 0,
        });
        assert!(big.param_count() > small.param_count());
    }

    #[test]
    fn backward_returns_input_shaped_gradient() {
        let mut net = tiny_net(9);
        let x = Initializer::new(10).uniform(&[2, 5, 4, 2], 1.0);
        let mut ws = NnWorkspace::new();
        let y = net.forward_in(&x, &mut ws);
        let g = net.backward_in(ws.alloc_copy(&y), &mut ws);
        assert_eq!(g.shape(), x.shape());
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (p, q)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "{what}: element {i}: {p} vs {q}");
        }
    }

    /// Whole-network GEMM-vs-naive bit-identity: logits, input gradients and
    /// every parameter gradient must match the reference loops exactly.
    #[test]
    fn gemm_network_matches_naive_oracle_bitwise() {
        for (levels, dims, seed) in [
            (1, [3, 5, 7], 21u64),
            (2, [5, 4, 6], 22),
            (3, [7, 3, 5], 23),
        ] {
            let mut fast = UNet3d::new(UNetConfig {
                in_channels: 3,
                base_channels: 2,
                levels,
                seed,
            });
            let mut naive = fast.clone();
            naive.set_naive(true);
            let x = Initializer::new(seed + 100).uniform(&[3, dims[0], dims[1], dims[2]], 1.0);
            let mut ws = NnWorkspace::new();
            let y_fast = fast.forward_in(&x, &mut ws);
            let mut wsn = NnWorkspace::new();
            let y_naive = naive.forward_in(&x, &mut wsn);
            assert_bits_eq(&y_fast, &y_naive, "logits");
            let g = ws.alloc_copy(&y_fast);
            let gi_fast = fast.backward_in(g, &mut ws);
            let gi_naive = naive.backward_in(wsn.alloc_copy(&y_naive), &mut wsn);
            assert_bits_eq(&gi_fast, &gi_naive, "input grad");
            for (pf, pn) in fast.params_mut().iter().zip(naive.params_mut().iter()) {
                assert_bits_eq(&pf.grad, &pn.grad, "param grad");
            }
        }
    }

    /// Whole-network batched-vs-sequential bit identity: logits, input
    /// gradients and accumulated parameter gradients of one batched pass
    /// must equal running the single-sample pass over the samples in
    /// order, for every batch size — and the batched naive oracle must
    /// agree with the batched GEMM route.
    #[test]
    fn batched_network_matches_sequential_bitwise() {
        for (levels, dims, seed) in [
            (1usize, [3usize, 5, 7], 51u64),
            (2, [5, 4, 6], 52),
            (3, [7, 3, 5], 53),
        ] {
            for &bsz in &[1usize, 4] {
                let proto = UNet3d::new(UNetConfig {
                    in_channels: 3,
                    base_channels: 2,
                    levels,
                    seed,
                });
                let xs: Vec<Tensor> = (0..bsz)
                    .map(|b| {
                        Initializer::new(seed + 100 + b as u64)
                            .uniform(&[3, dims[0], dims[1], dims[2]], 1.0)
                    })
                    .collect();

                let mut seq = proto.clone();
                let mut ws = NnWorkspace::new();
                let mut ys = Vec::new();
                let mut gis = Vec::new();
                for x in &xs {
                    let y = seq.forward_in(x, &mut ws);
                    let g = ws.alloc_copy(&y);
                    gis.push(seq.backward_in(g, &mut ws));
                    ys.push(y);
                }

                let mut bat = proto.clone();
                let mut wsb = NnWorkspace::new();
                let x5 = Tensor::stack_batch(&xs.iter().collect::<Vec<_>>());
                let y5 = bat.forward_in(&x5, &mut wsb);
                let g5 = wsb.alloc_copy(&y5);
                let gi5 = bat.backward_in(g5, &mut wsb);

                let what = format!("levels {levels} B{bsz}");
                for b in 0..bsz {
                    assert_bits_eq(&y5.unstack_sample(b), &ys[b], &format!("{what} y[{b}]"));
                    assert_bits_eq(
                        &gi5.unstack_sample(b),
                        &gis[b],
                        &format!("{what} grad_in[{b}]"),
                    );
                }
                for (pb, ps) in bat.params_mut().iter().zip(seq.params_mut().iter()) {
                    assert_bits_eq(&pb.grad, &ps.grad, &format!("{what} param grad"));
                }

                let mut nv = proto.clone();
                nv.set_naive(true);
                let mut wsn = NnWorkspace::new();
                let yn = nv.forward_in(&x5, &mut wsn);
                let gn = wsn.alloc_copy(&yn);
                let gin = nv.backward_in(gn, &mut wsn);
                assert_bits_eq(&yn, &y5, &format!("{what} naive y"));
                assert_bits_eq(&gin, &gi5, &format!("{what} naive grad_in"));
            }
        }
    }

    /// Batched inference per-sample bit identity with single-sample
    /// inference, plus the occupancy counters: B columns, one flush.
    #[test]
    fn batched_inference_matches_single_samples() {
        let net = tiny_net(61);
        let xs: Vec<Tensor> = (0..3)
            .map(|b| Initializer::new(62 + b).uniform(&[2, 5, 3, 4], 1.0))
            .collect();
        let mut ws = NnWorkspace::new();
        let ps: Vec<Tensor> = xs.iter().map(|x| net.infer_in(x, &mut ws)).collect();
        let mut wsb = NnWorkspace::new();
        let x5 = Tensor::stack_batch(&xs.iter().collect::<Vec<_>>());
        let p5 = net.infer_in(&x5, &mut wsb);
        assert_eq!(p5.shape(), &[1, 3, 5, 3, 4]);
        for (b, p) in ps.iter().enumerate() {
            assert_eq!(p.shape(), &[1, 5, 3, 4], "rank-4 input keeps rank 4");
            assert_bits_eq(&p5.unstack_sample(b), p, &format!("probs[{b}]"));
        }
        assert_eq!(wsb.counters.get(Counter::GemmBatchCols), 3);
        assert_eq!(wsb.counters.get(Counter::BatchFlushes), 1);
    }

    /// `infer_in` is the training forward plus the sigmoid, bit for bit,
    /// and leaves no cache behind (a following backward panics).
    #[test]
    fn infer_in_matches_training_forward() {
        let proto = tiny_net(71);
        let mut owned = proto.clone();
        let mut ws = NnWorkspace::new();
        for (i, dims) in [[4, 4, 2], [5, 3, 1], [7, 2, 3]].iter().enumerate() {
            let x = Initializer::new(72 + i as u64).uniform(&[2, dims[0], dims[1], dims[2]], 1.0);
            let mut logits = owned.forward_in(&x, &mut ws);
            for v in logits.data_mut() {
                *v = sigmoid(*v);
            }
            let shared = &proto;
            let p = shared.infer_in(&x, &mut ws);
            assert_bits_eq(&p, &logits, "shared inference");
            ws.free(logits);
            ws.free(p);
        }
        assert!(proto.cache.is_none());
    }

    /// Reusing one workspace across passes must not change any bit
    /// against fresh workspaces.
    #[test]
    fn workspace_reuse_is_bitwise_stable() {
        let mut fresh_net = tiny_net(31);
        let mut pooled = fresh_net.clone();
        let x = Initializer::new(32).uniform(&[2, 5, 3, 4], 1.0);
        let mut fresh = NnWorkspace::new();
        let y_ref = fresh_net.forward_in(&x, &mut fresh);
        let gi_ref = fresh_net.backward_in(fresh.alloc_copy(&y_ref), &mut fresh);
        let p_ref = fresh_net.infer_in(&x, &mut NnWorkspace::new());
        let mut ws = NnWorkspace::new();
        for _ in 0..2 {
            pooled.zero_grad();
            let y = pooled.forward_in(&x, &mut ws);
            assert_bits_eq(&y, &y_ref, "logits");
            let g = ws.alloc_copy(&y);
            let gi = pooled.backward_in(g, &mut ws);
            assert_bits_eq(&gi, &gi_ref, "input grad");
            let p = pooled.infer_in(&x, &mut ws);
            assert_bits_eq(&p, &p_ref, "probabilities");
            ws.free(y);
            ws.free(gi);
            ws.free(p);
        }
    }

    #[test]
    #[should_panic(expected = "at most 8 levels")]
    fn too_many_levels_panic() {
        UNet3d::new(UNetConfig {
            levels: MAX_LEVELS + 1,
            ..UNetConfig::default()
        });
    }
}
