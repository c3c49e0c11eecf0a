//! Elementwise activations: ReLU and sigmoid.

use crate::layer::Layer;
use crate::tensor::Tensor;
use crate::workspace::{NnWorkspace, ProfKind};

/// Rectified linear unit, `y = max(x, 0)`.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// The pending forward's output: the gradient passes where it is
    /// positive.
    cache: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }

    /// The forward body: clamps `x` in place (no output buffer at all) and,
    /// when `want_cache`, returns a copy of the output as the backward
    /// cache. Shape-agnostic, so every batch layout is handled alike.
    pub(crate) fn forward_core(
        mut x: Tensor,
        ws: &mut NnWorkspace,
        want_cache: bool,
    ) -> (Tensor, Option<Tensor>) {
        let t = ws.prof_start();
        for v in x.data_mut() {
            *v = v.max(0.0);
        }
        let cache = want_cache.then(|| ws.alloc_copy(&x));
        ws.prof_end(t, ProfKind::ActFwd);
        (x, cache)
    }

    /// The backward body: zeroes the gradient wherever the cached output
    /// is not positive — exactly where the input was not (`max(x, 0) > 0`
    /// iff `x > 0`; a NaN input clamps to `0`).
    pub(crate) fn backward_core(
        cache: Option<Tensor>,
        mut grad_out: Tensor,
        ws: &mut NnWorkspace,
    ) -> Tensor {
        let t = ws.prof_start();
        let y = cache.expect("relu backward without forward");
        for (gv, &yv) in grad_out.data_mut().iter_mut().zip(y.data()) {
            if yv <= 0.0 {
                *gv = 0.0;
            }
        }
        ws.free(y);
        ws.prof_end(t, ProfKind::ActBwd);
        grad_out
    }
}

impl Layer for Relu {
    fn forward_in(&mut self, x: &Tensor, ws: &mut NnWorkspace) -> Tensor {
        let (y, cache) = Relu::forward_core(ws.alloc_copy(x), ws, true);
        self.cache = cache;
        y
    }

    fn backward_in(&mut self, grad_out: Tensor, ws: &mut NnWorkspace) -> Tensor {
        Relu::backward_core(self.cache.take(), grad_out, ws)
    }
}

/// Logistic sigmoid, `y = 1 / (1 + e^{-x})` — the paper's output activation
/// ensuring every Steiner-point probability lies in `(0, 1)` (Section 3.3).
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    /// The pending forward's output.
    out: Option<Tensor>,
}

impl Sigmoid {
    /// Creates a sigmoid layer.
    pub fn new() -> Self {
        Sigmoid::default()
    }
}

/// The scalar sigmoid function, exposed for loss computations.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

// Elementwise and shape-agnostic, like ReLU.
impl Layer for Sigmoid {
    fn forward_in(&mut self, x: &Tensor, ws: &mut NnWorkspace) -> Tensor {
        let t = ws.prof_start();
        let mut y = ws.alloc(x.shape());
        for (o, &v) in y.data_mut().iter_mut().zip(x.data()) {
            *o = sigmoid(v);
        }
        let cache = ws.alloc_copy(&y);
        if let Some(old) = self.out.replace(cache) {
            ws.free(old);
        }
        ws.prof_end(t, ProfKind::ActFwd);
        y
    }

    fn backward_in(&mut self, mut grad_out: Tensor, ws: &mut NnWorkspace) -> Tensor {
        let t = ws.prof_start();
        let y = self.out.take().expect("sigmoid backward without forward");
        for (gv, &yv) in grad_out.data_mut().iter_mut().zip(y.data()) {
            *gv *= yv * (1.0 - yv);
        }
        ws.free(y);
        ws.prof_end(t, ProfKind::ActBwd);
        grad_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn relu_clamps_negatives() {
        let mut r = Relu::new();
        let mut ws = NnWorkspace::new();
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 0.5, 3.0]).unwrap();
        let y = r.forward_in(&x, &mut ws);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 3.0]);
        let g = r.backward_in(Tensor::from_vec(&[4], vec![1.0; 4]).unwrap(), &mut ws);
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn relu_gradient_mask_matches_input_sign_including_nan() {
        let mut r = Relu::new();
        let mut ws = NnWorkspace::new();
        let x = Tensor::from_vec(&[5], vec![-0.0, f32::NAN, -2.0, 1e-30, 4.0]).unwrap();
        let y = r.forward_in(&x, &mut ws);
        assert_eq!(y.data()[1], 0.0, "NaN clamps to zero");
        let g = r.backward_in(Tensor::from_vec(&[5], vec![1.0; 5]).unwrap(), &mut ws);
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn relu_cache_storage_is_recycled() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(&[3], vec![-1.0, 2.0, 3.0]).unwrap();
        let g = Tensor::from_vec(&[3], vec![1.0; 3]).unwrap();
        let mut ws = NnWorkspace::new();
        for _ in 0..2 {
            let y = r.forward_in(&x, &mut ws);
            ws.free(y);
            let gi = r.backward_in(ws.alloc_copy(&g), &mut ws);
            assert_eq!(gi.data(), &[0.0, 1.0, 1.0]);
            ws.free(gi);
        }
        // The second cycle drew every tensor from the pool.
        assert_eq!(ws.counters.get(oarsmt_telemetry::Counter::NnPoolMisses), 2);
    }

    #[test]
    fn sigmoid_range_and_symmetry() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(&[3], vec![-10.0, 0.0, 10.0]).unwrap();
        let y = s.forward_in(&x, &mut NnWorkspace::new());
        assert!(y.data()[0] > 0.0 && y.data()[0] < 0.001);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] < 1.0 && y.data()[2] > 0.999);
    }

    #[test]
    fn relu_gradcheck_away_from_kink() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(&[6], vec![-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]).unwrap();
        check_layer_gradients(&mut r, &x, 1e-3, 1e-3);
    }

    #[test]
    fn sigmoid_gradcheck() {
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(&[5], vec![-1.5, -0.3, 0.0, 0.7, 2.0]).unwrap();
        check_layer_gradients(&mut s, &x, 1e-3, 2e-3);
    }
}
