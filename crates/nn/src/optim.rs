//! First-order optimizers: SGD with momentum and Adam.
//!
//! Optimizers own per-parameter state vectors keyed by the *order* in which
//! a layer reports its parameters (which is deterministic for every layer in
//! this crate), so they can be applied to any [`Layer`].

use crate::error::NnError;
use crate::layer::Layer;
use crate::serialize::{read_f32s, read_u64};

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates SGD with learning rate `lr` and momentum coefficient
    /// `momentum` (0 disables momentum).
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Changes the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update step using the parameters' accumulated gradients,
    /// then leaves the gradients untouched (call
    /// [`Layer::zero_grad`] before the next accumulation).
    pub fn step<L: Layer + ?Sized>(&mut self, layer: &mut L) {
        let mut params = layer.params_mut();
        if self.velocity.len() != params.len() {
            self.velocity = params.iter().map(|p| vec![0.0; p.value.len()]).collect();
        }
        for (p, vel) in params.iter_mut().zip(&mut self.velocity) {
            for ((w, &g), v) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(vel.iter_mut())
            {
                *v = self.momentum * *v + g;
                *w -= self.lr * *v;
            }
        }
    }
}

/// The Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with the given learning rate and default betas
    /// `(0.9, 0.999)`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Changes the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Serializes the optimizer state (step count and moment vectors) so a
    /// training run can resume exactly where it stopped.
    ///
    /// # Errors
    ///
    /// Returns an error on write failure.
    pub fn save_state<W: std::io::Write>(&self, mut writer: W) -> std::io::Result<()> {
        writer.write_all(&self.t.to_le_bytes())?;
        writer.write_all(&(self.m.len() as u64).to_le_bytes())?;
        for vecs in [&self.m, &self.v] {
            for vec in vecs {
                writer.write_all(&(vec.len() as u64).to_le_bytes())?;
                for &x in vec {
                    writer.write_all(&x.to_le_bytes())?;
                }
            }
        }
        Ok(())
    }

    /// Restores state saved by [`Adam::save_state`] for the parameters of
    /// `layer`.
    ///
    /// Nothing in the file sizes an allocation: the moment count must be 0
    /// (no step taken yet) or `layer`'s parameter count, and each moment
    /// length must equal its parameter's, checked before the vector is
    /// allocated. The state changes only if all of it reads.
    ///
    /// # Errors
    ///
    /// [`NnError::Io`] on read failure or truncation;
    /// [`NnError::BadModelFile`] if the stored moments do not match
    /// `layer`'s parameters.
    pub fn load_state<L: Layer + ?Sized, R: std::io::Read>(
        &mut self,
        layer: &mut L,
        mut reader: R,
    ) -> Result<(), NnError> {
        let t = read_u64(&mut reader)?;
        let count = read_u64(&mut reader)?;
        let lens: Vec<usize> = layer.params_mut().iter().map(|p| p.value.len()).collect();
        if count != 0 && count != lens.len() as u64 {
            return Err(NnError::BadModelFile(format!(
                "optimizer state stores {count} moment vectors but the layer has {} parameters",
                lens.len()
            )));
        }
        let lens = &lens[..count as usize];
        let mut groups = [
            Vec::with_capacity(lens.len()),
            Vec::with_capacity(lens.len()),
        ];
        for group in &mut groups {
            for (i, &len) in lens.iter().enumerate() {
                let stored = read_u64(&mut reader)?;
                if stored != len as u64 {
                    return Err(NnError::BadModelFile(format!(
                        "optimizer moment {i} stores {stored} values but the parameter has {len}"
                    )));
                }
                let mut moment = vec![0.0f32; len];
                read_f32s(&mut reader, &mut moment)?;
                group.push(moment);
            }
        }
        let [m, v] = groups;
        self.t = t;
        self.m = m;
        self.v = v;
        Ok(())
    }

    /// Applies one Adam step using the parameters' accumulated gradients.
    pub fn step<L: Layer + ?Sized>(&mut self, layer: &mut L) {
        let mut params = layer.params_mut();
        if self.m.len() != params.len() {
            self.m = params.iter().map(|p| vec![0.0; p.value.len()]).collect();
            self.v = params.iter().map(|p| vec![0.0; p.value.len()]).collect();
            self.t = 0;
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            for (((w, &g), mi), vi) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Layer, Param};
    use crate::tensor::Tensor;
    use crate::workspace::NnWorkspace;

    /// A quadratic bowl: loss = (w - 3)^2 with dL/dw = 2(w - 3).
    struct Bowl {
        w: Param,
    }

    impl Bowl {
        fn new(start: f32) -> Self {
            Bowl {
                w: Param::new(Tensor::from_vec(&[1], vec![start]).unwrap()),
            }
        }
        fn loss(&self) -> f32 {
            let w = self.w.value.data()[0];
            (w - 3.0) * (w - 3.0)
        }
        fn compute_grad(&mut self) {
            let w = self.w.value.data()[0];
            self.w.grad.data_mut()[0] = 2.0 * (w - 3.0);
        }
    }

    impl Layer for Bowl {
        fn forward_in(&mut self, x: &Tensor, _ws: &mut NnWorkspace) -> Tensor {
            x.clone()
        }
        fn backward_in(&mut self, g: Tensor, _ws: &mut NnWorkspace) -> Tensor {
            g
        }
        fn params_mut(&mut self) -> Vec<&mut Param> {
            vec![&mut self.w]
        }
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut bowl = Bowl::new(0.0);
        let mut opt = Sgd::new(0.1, 0.0);
        for _ in 0..100 {
            bowl.zero_grad();
            bowl.compute_grad();
            opt.step(&mut bowl);
        }
        assert!(bowl.loss() < 1e-6);
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let run = |momentum: f32| {
            let mut bowl = Bowl::new(0.0);
            let mut opt = Sgd::new(0.01, momentum);
            for _ in 0..60 {
                bowl.zero_grad();
                bowl.compute_grad();
                opt.step(&mut bowl);
            }
            bowl.loss()
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut bowl = Bowl::new(10.0);
        let mut opt = Adam::new(0.3);
        for _ in 0..300 {
            bowl.zero_grad();
            bowl.compute_grad();
            opt.step(&mut bowl);
        }
        assert!(bowl.loss() < 1e-3, "loss {}", bowl.loss());
    }

    #[test]
    fn adam_state_round_trips_and_resumes_identically() {
        // Train two bowls identically; checkpoint one mid-way and resume.
        let run_straight = || {
            let mut bowl = Bowl::new(0.0);
            let mut opt = Adam::new(0.1);
            for _ in 0..20 {
                bowl.zero_grad();
                bowl.compute_grad();
                opt.step(&mut bowl);
            }
            bowl.w.value.data()[0]
        };
        let run_resumed = || {
            let mut bowl = Bowl::new(0.0);
            let mut opt = Adam::new(0.1);
            for _ in 0..10 {
                bowl.zero_grad();
                bowl.compute_grad();
                opt.step(&mut bowl);
            }
            let mut bytes = Vec::new();
            opt.save_state(&mut bytes).unwrap();
            let mut opt2 = Adam::new(0.1);
            opt2.load_state(&mut bowl, bytes.as_slice()).unwrap();
            for _ in 0..10 {
                bowl.zero_grad();
                bowl.compute_grad();
                opt2.step(&mut bowl);
            }
            bowl.w.value.data()[0]
        };
        assert_eq!(run_straight(), run_resumed());
    }

    #[test]
    fn lr_is_adjustable() {
        let mut opt = Adam::new(0.1);
        opt.set_lr(0.01);
        assert_eq!(opt.lr(), 0.01);
        let mut sgd = Sgd::new(0.1, 0.0);
        sgd.set_lr(0.5);
        assert_eq!(sgd.lr(), 0.5);
    }

    /// Moment counts and lengths come from the layer, never the file: a
    /// corrupt header is a typed error before any allocation, and the
    /// optimizer keeps its state.
    #[test]
    fn adam_state_rejects_sizes_that_do_not_match_the_layer() {
        let mut bowl = Bowl::new(0.0);
        let mut opt = Adam::new(0.1);
        bowl.compute_grad();
        opt.step(&mut bowl);
        let mut bytes = Vec::new();
        opt.save_state(&mut bytes).unwrap();
        // Layout: t (8), count (8), then per moment: len (8) + data.
        let corrupt = |at: usize, value: u64| {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&value.to_le_bytes());
            b
        };
        for (at, what) in [(8, "count"), (16, "moment length")] {
            let mut fresh = Adam::new(0.1);
            let err = fresh
                .load_state(&mut bowl, corrupt(at, u64::MAX).as_slice())
                .unwrap_err();
            assert!(matches!(err, NnError::BadModelFile(_)), "{what}: {err}");
            assert_eq!((fresh.t, fresh.m.len()), (0, 0), "{what}: state untouched");
        }
        // A truncated state is an I/O error, also leaving the state alone.
        let mut resumed = opt.clone();
        let err = resumed
            .load_state(&mut bowl, &bytes[..bytes.len() - 1])
            .unwrap_err();
        assert!(matches!(err, NnError::Io(_)));
        assert_eq!(resumed.m, opt.m);
    }
}
