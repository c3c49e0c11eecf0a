//! Group normalization (Wu & He) with full backpropagation.
//!
//! Batch normalization would make a sample's output depend on its
//! batch-mates (and is useless at batch size 1), so the normalization
//! option for the U-Net is GroupNorm: channels are split into groups and
//! each group is normalized over its channels and all spatial positions,
//! with learned per-channel scale and shift.

use crate::layer::{Dims, Layer, Param};
use crate::tensor::Tensor;
use crate::workspace::{NnWorkspace, ProfKind};

/// Group normalization over `[C, B, D1, D2, D3]` activations, with
/// statistics per sample.
#[derive(Debug, Clone)]
pub struct GroupNorm {
    channels: usize,
    groups: usize,
    eps: f32,
    gamma: Param,
    beta: Param,
    cache: Option<NormCache>,
}

/// The backward cache of one GroupNorm forward.
#[derive(Debug, Clone)]
pub(crate) struct NormCache {
    /// Normalized activations `x_hat`.
    x_hat: Tensor,
    /// Per-(sample, group) `1 / sqrt(var + eps)`, samples outermost.
    inv_std: Tensor,
}

impl GroupNorm {
    /// Creates a GroupNorm layer with `groups` groups over `channels`
    /// channels; `gamma` starts at 1, `beta` at 0.
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not divide `channels` or either is zero.
    pub fn new(channels: usize, groups: usize) -> Self {
        assert!(
            groups > 0 && channels > 0 && channels.is_multiple_of(groups),
            "groups ({groups}) must divide channels ({channels})"
        );
        let mut gamma = Tensor::zeros(&[channels]);
        gamma.fill(1.0);
        GroupNorm {
            channels,
            groups,
            eps: 1e-5,
            gamma: Param::new(gamma),
            beta: Param::new(Tensor::zeros(&[channels])),
            cache: None,
        }
    }

    /// Number of channel groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// The forward body behind [`Layer::forward_in`] and the inference
    /// path; the backward cache is returned only when `want_cache`.
    ///
    /// Statistics are per (sample, group). The batched layout strides a
    /// sample's group across channels, so each sum runs channels ascending
    /// then positions ascending — the element order of the contiguous
    /// single-sample group, whatever the batch size.
    pub(crate) fn forward_core(
        &self,
        x: &Tensor,
        ws: &mut NnWorkspace,
        want_cache: bool,
    ) -> (Tensor, Option<NormCache>) {
        let t = ws.prof_start();
        let dims = Dims::of(x.shape());
        assert_eq!(dims.c, self.channels, "groupnorm channel mismatch");
        let bsz = dims.b;
        let spatial = dims.spatial();
        let per_group = self.channels / self.groups;
        let group_len = per_group * spatial;

        let mut x_hat = ws.alloc(x.shape());
        let mut inv_std = ws.alloc(&[bsz * self.groups]);
        let data = x.data();
        for b in 0..bsz {
            for g in 0..self.groups {
                let mut sum = 0.0f32;
                for cl in 0..per_group {
                    let base = ((g * per_group + cl) * bsz + b) * spatial;
                    for &v in &data[base..base + spatial] {
                        sum += v;
                    }
                }
                let mean = sum / group_len as f32;
                let mut var_sum = 0.0f32;
                for cl in 0..per_group {
                    let base = ((g * per_group + cl) * bsz + b) * spatial;
                    for &v in &data[base..base + spatial] {
                        var_sum += (v - mean) * (v - mean);
                    }
                }
                let is = 1.0 / (var_sum / group_len as f32 + self.eps).sqrt();
                inv_std.data_mut()[b * self.groups + g] = is;
                for cl in 0..per_group {
                    let base = ((g * per_group + cl) * bsz + b) * spatial;
                    let dst = &mut x_hat.data_mut()[base..base + spatial];
                    for (o, &v) in dst.iter_mut().zip(&data[base..base + spatial]) {
                        *o = (v - mean) * is;
                    }
                }
            }
        }
        // y = gamma[c] * x_hat + beta[c]: per-channel blocks stay
        // contiguous (all samples back to back) in the batched layout.
        let mut y = ws.alloc(x.shape());
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();
        let cblk = bsz * spatial;
        for c in 0..self.channels {
            let base = c * cblk;
            let src = &x_hat.data()[base..base + cblk];
            let dst = &mut y.data_mut()[base..base + cblk];
            for (o, &v) in dst.iter_mut().zip(src) {
                *o = gamma[c] * v + beta[c];
            }
        }
        let cache = if want_cache {
            Some(NormCache { x_hat, inv_std })
        } else {
            ws.free(x_hat);
            ws.free(inv_std);
            None
        };
        ws.prof_end(t, ProfKind::NormFwd);
        (y, cache)
    }

    /// The backward body behind [`Layer::backward_in`].
    pub(crate) fn backward_core(
        &mut self,
        cache: Option<NormCache>,
        grad_out: Tensor,
        ws: &mut NnWorkspace,
    ) -> Tensor {
        let t = ws.prof_start();
        let cache = cache.expect("groupnorm backward without forward");
        let dims = Dims::of(grad_out.shape());
        let bsz = dims.b;
        let spatial = dims.spatial();
        let per_group = self.channels / self.groups;
        let group_len = per_group * spatial;

        // Parameter gradients: per element `grad[c]`, one fresh per-sample
        // sum added samples-ascending — the sequential accumulation order.
        let g_out = grad_out.data();
        let x_hat = cache.x_hat.data();
        for c in 0..self.channels {
            for b in 0..bsz {
                let base = (c * bsz + b) * spatial;
                let mut dg = 0.0f32;
                let mut db = 0.0f32;
                for i in 0..spatial {
                    dg += g_out[base + i] * x_hat[base + i];
                    db += g_out[base + i];
                }
                self.gamma.grad.data_mut()[c] += dg;
                self.beta.grad.data_mut()[c] += db;
            }
        }

        // Input gradient per (sample, group), channels-ascending element
        // order as in the forward pass:
        // dx = (inv_std / N) * (N * dxhat - sum(dxhat) - x_hat * sum(dxhat * x_hat))
        // where dxhat = g_out * gamma[c].
        let gamma = self.gamma.value.data();
        let mut grad_in = ws.alloc(grad_out.shape());
        let mut dxhat = std::mem::take(&mut ws.dxhat);
        dxhat.clear();
        dxhat.resize(group_len, 0.0);
        for b in 0..bsz {
            for g in 0..self.groups {
                let mut sum_dxhat = 0.0f32;
                let mut sum_dxhat_xhat = 0.0f32;
                for cl in 0..per_group {
                    let c = g * per_group + cl;
                    let base = (c * bsz + b) * spatial;
                    for i in 0..spatial {
                        let d = g_out[base + i] * gamma[c];
                        dxhat[cl * spatial + i] = d;
                        sum_dxhat += d;
                        sum_dxhat_xhat += d * x_hat[base + i];
                    }
                }
                let n = group_len as f32;
                let is = cache.inv_std.data()[b * self.groups + g];
                for cl in 0..per_group {
                    let base = ((g * per_group + cl) * bsz + b) * spatial;
                    for i in 0..spatial {
                        grad_in.data_mut()[base + i] = (is / n)
                            * (n * dxhat[cl * spatial + i]
                                - sum_dxhat
                                - x_hat[base + i] * sum_dxhat_xhat);
                    }
                }
            }
        }
        ws.dxhat = dxhat;
        ws.free(cache.x_hat);
        ws.free(cache.inv_std);
        ws.free(grad_out);
        ws.prof_end(t, ProfKind::NormBwd);
        grad_in
    }
}

impl Layer for GroupNorm {
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
        vec![&mut self.gamma, &mut self.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::init::Initializer;

    #[test]
    fn output_is_normalized_per_group() {
        let mut gn = GroupNorm::new(4, 2);
        let x = Initializer::new(1).uniform(&[4, 3, 2, 1], 5.0);
        let y = gn.forward_in(&x, &mut NnWorkspace::new());
        // Each group of 2 channels x 6 positions has ~zero mean, ~unit var.
        let spatial = 6;
        for g in 0..2 {
            let slice = &y.data()[g * 2 * spatial..(g + 1) * 2 * spatial];
            let mean: f32 = slice.iter().sum::<f32>() / slice.len() as f32;
            let var: f32 =
                slice.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / slice.len() as f32;
            assert!(mean.abs() < 1e-4, "group {g} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "group {g} var {var}");
        }
    }

    #[test]
    fn scale_and_shift_apply_per_channel() {
        let mut gn = GroupNorm::new(2, 1);
        gn.gamma.value.data_mut()[0] = 2.0;
        gn.gamma.value.data_mut()[1] = 0.5;
        gn.beta.value.data_mut()[1] = 3.0;
        let x = Initializer::new(2).uniform(&[2, 2, 2, 1], 1.0);
        let y = gn.forward_in(&x, &mut NnWorkspace::new());
        // Channel 1 (spatial size 4) values cluster around beta = 3.
        let c1: f32 = y.data()[4..8].iter().sum::<f32>() / 4.0;
        assert!((c1 - 3.0).abs() < 1.0, "channel-1 mean {c1}");
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut gn = GroupNorm::new(4, 2);
        // Non-trivial gamma/beta so their gradients are exercised.
        for (i, v) in gn.gamma.value.data_mut().iter_mut().enumerate() {
            *v = 0.5 + 0.3 * i as f32;
        }
        let x = Initializer::new(3).uniform(&[4, 2, 2, 1], 1.0);
        check_layer_gradients(&mut gn, &x, 1e-2, 3e-2);
    }

    #[test]
    fn single_group_is_layer_norm() {
        let mut gn = GroupNorm::new(3, 1);
        let x = Initializer::new(4).uniform(&[3, 2, 1, 1], 2.0);
        let y = gn.forward_in(&x, &mut NnWorkspace::new());
        let mean: f32 = y.data().iter().sum::<f32>() / y.len() as f32;
        assert!(mean.abs() < 1e-4);
    }

    #[test]
    fn reused_workspace_matches_fresh_bitwise() {
        let mut a = GroupNorm::new(4, 2);
        let mut b = a.clone();
        let x = Initializer::new(9).uniform(&[4, 3, 2, 2], 2.0);
        let g = Initializer::new(10).uniform(&[4, 3, 2, 2], 1.0);
        let mut fresh = NnWorkspace::new();
        let y_legacy = a.forward_in(&x, &mut fresh);
        let gi_legacy = a.backward_in(fresh.alloc_copy(&g), &mut fresh);
        let mut ws = NnWorkspace::new();
        for _ in 0..2 {
            b.zero_grad();
            let y = b.forward_in(&x, &mut ws);
            let gi = b.backward_in(ws.alloc_copy(&g), &mut ws);
            assert_eq!(y, y_legacy);
            for (p, q) in y.data().iter().zip(y_legacy.data()) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
            for (p, q) in gi.data().iter().zip(gi_legacy.data()) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
            ws.free(y);
            ws.free(gi);
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn invalid_group_count_panics() {
        GroupNorm::new(5, 2);
    }
}
