//! The [`Layer`] trait, trainable [`Param`]eters and the `Dims` view of
//! an activation shape.

use std::fmt;

use crate::tensor::Tensor;
use crate::workspace::NnWorkspace;

/// A trainable parameter: the value tensor and its accumulated gradient.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Creates a parameter with a zero gradient of matching shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Zeroes the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }
}

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "param {:?}", self.value.shape())
    }
}

/// A differentiable layer over batch-major activations.
///
/// Activations are channel-major rank-5 `[C, B, d1, d2, d3]` tensors:
/// channel `c` holds the `B` samples' volumes back to back, so a
/// convolution flattens the trailing axes into one GEMM `N = B·d1·d2·d3`
/// and one weight load serves every sample. A rank-4 `[C, d1, d2, d3]`
/// tensor is one sample (`B = 1`, the same memory layout), and outputs keep
/// the rank of their input. Per-sample results do not depend on `B`:
/// batching only regroups *independent* output elements, never the terms
/// of one element's sum, and parameter gradients accumulate samples in
/// ascending order — the `+=` sequence of a per-sample loop.
///
/// Every layer has one forward body, `forward_core(&self, …, want_cache)`,
/// which returns the backward cache it was asked for, and one backward
/// body, `backward_core(&mut self, cache, …)`. [`Layer::forward_in`] stores
/// the cache in the layer and [`Layer::backward_in`] consumes it, so a
/// forward/backward pair must not interleave with other passes through the
/// same layer. Inference ([`UNet3d::infer_in`](crate::unet::UNet3d::infer_in))
/// runs the same forward bodies through `&self` and keeps no cache. All
/// intermediates come from the [`NnWorkspace`] pool, so warm passes
/// allocate nothing.
pub trait Layer {
    /// Computes the layer output, caching what [`Layer::backward_in`]
    /// needs.
    fn forward_in(&mut self, x: &Tensor, ws: &mut NnWorkspace) -> Tensor;

    /// Propagates the output gradient to the input gradient, accumulating
    /// parameter gradients along the way. Takes the gradient *by value* so
    /// implementations can work in place on it or recycle its storage.
    ///
    /// # Panics
    ///
    /// Implementations panic if called without a matching preceding
    /// [`Layer::forward_in`].
    fn backward_in(&mut self, grad_out: Tensor, ws: &mut NnWorkspace) -> Tensor;

    /// The layer's trainable parameters (empty for activations and pooling).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of trainable scalars.
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.value.len()).sum()
    }
}

/// The `[C, B, d1, d2, d3]` view of an activation shape, kept on the stack
/// so warm passes stay allocation-free. Rank 4 reads as `B = 1` and is
/// remembered, so tensors built from a `Dims` keep their source's rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dims {
    /// Channels.
    pub c: usize,
    /// Samples.
    pub b: usize,
    /// Spatial extent `[d1, d2, d3]`.
    pub d: [usize; 3],
    /// Whether the shape carries its batch axis.
    rank5: bool,
}

impl Dims {
    /// Reads a rank-4 or rank-5 activation shape.
    ///
    /// # Panics
    ///
    /// Panics on any other rank.
    pub(crate) fn of(s: &[usize]) -> Dims {
        assert!(
            s.len() == 4 || s.len() == 5,
            "activations are [C, B, d1, d2, d3] or [C, d1, d2, d3], got {s:?}"
        );
        let rank5 = s.len() == 5;
        let b = if rank5 { s[1] } else { 1 };
        let n = s.len();
        Dims {
            c: s[0],
            b,
            d: [s[n - 3], s[n - 2], s[n - 1]],
            rank5,
        }
    }

    /// Voxels per sample volume.
    pub(crate) fn spatial(self) -> usize {
        self.d[0] * self.d[1] * self.d[2]
    }

    /// The same batch and rank with `c` channels over the volume `d`.
    pub(crate) fn with(self, c: usize, d: [usize; 3]) -> Dims {
        Dims { c, d, ..self }
    }

    /// A zeroed pool tensor of this shape.
    pub(crate) fn alloc(self, ws: &mut NnWorkspace) -> Tensor {
        let [d1, d2, d3] = self.d;
        if self.rank5 {
            ws.alloc(&[self.c, self.b, d1, d2, d3])
        } else {
            ws.alloc(&[self.c, d1, d2, d3])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_tracks_matching_grad_shape() {
        let mut p = Param::new(Tensor::zeros(&[3, 2]));
        assert_eq!(p.grad.shape(), &[3, 2]);
        p.grad.fill(1.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn rank_four_reads_as_one_sample_and_keeps_its_rank() {
        let mut ws = NnWorkspace::new();
        let d4 = Dims::of(&[3, 4, 5, 6]);
        assert_eq!((d4.c, d4.b, d4.d), (3, 1, [4, 5, 6]));
        assert_eq!(d4.with(2, [1, 2, 3]).alloc(&mut ws).shape(), &[2, 1, 2, 3]);
        let d5 = Dims::of(&[3, 2, 4, 5, 6]);
        assert_eq!((d5.b, d5.spatial()), (2, 120));
        assert_eq!(d5.with(7, d5.d).alloc(&mut ws).shape(), &[7, 2, 4, 5, 6]);
    }
}
