//! Property-based tests for the neural-network substrate: gradient
//! correctness on random shapes, shape preservation, serialization
//! robustness.

use oarsmt_nn::activation::{Relu, Sigmoid};
use oarsmt_nn::conv3d::Conv3d;
use oarsmt_nn::gradcheck::check_layer_gradients;
use oarsmt_nn::init::Initializer;
use oarsmt_nn::layer::Layer;
use oarsmt_nn::loss::bce_with_logits;
use oarsmt_nn::pool::{pooled, MaxPool3d};
use oarsmt_nn::serialize::{load_params, save_params};
use oarsmt_nn::tensor::Tensor;
use oarsmt_nn::unet::{UNet3d, UNetConfig};
use oarsmt_nn::upsample::Upsample3d;
use oarsmt_nn::NnWorkspace;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conv3d_gradients_hold_on_random_shapes(
        in_c in 1usize..3,
        out_c in 1usize..3,
        d1 in 1usize..4,
        d2 in 1usize..4,
        d3 in 1usize..3,
        seed in 0u64..1000,
    ) {
        let mut conv = Conv3d::new(in_c, out_c, 3, &mut Initializer::new(seed));
        let x = Initializer::new(seed ^ 1).uniform(&[in_c, d1, d2, d3], 1.0);
        check_layer_gradients(&mut conv, &x, 1e-2, 3e-2);
    }

    #[test]
    fn unet_preserves_spatial_shape(
        d1 in 1usize..9,
        d2 in 1usize..9,
        d3 in 1usize..5,
        levels in 1usize..4,
    ) {
        let mut net = UNet3d::new(UNetConfig {
            in_channels: 2,
            base_channels: 1,
            levels,
            seed: 0,
        });
        let mut ws = NnWorkspace::new();
        let x = Tensor::zeros(&[2, d1, d2, d3]);
        let y = net.forward_in(&x, &mut ws);
        prop_assert_eq!(y.shape(), &[1, d1, d2, d3]);
        let x5 = Tensor::zeros(&[2, 2, d1, d2, d3]);
        let y5 = net.infer_in(&x5, &mut ws);
        prop_assert_eq!(y5.shape(), &[1, 2, d1, d2, d3]);
    }

    #[test]
    fn pool_then_upsample_restores_shape(
        d1 in 1usize..10,
        d2 in 1usize..10,
        d3 in 1usize..5,
    ) {
        let mut ws = NnWorkspace::new();
        let x = Tensor::zeros(&[3, d1, d2, d3]);
        let mut pool = MaxPool3d::new();
        let pooled_t = pool.forward_in(&x, &mut ws);
        prop_assert_eq!(pooled_t.shape(), &[3, pooled(d1), pooled(d2), pooled(d3)]);
        let mut up = Upsample3d::to_shape([d1, d2, d3]);
        let restored = up.forward_in(&pooled_t, &mut ws);
        prop_assert_eq!(restored.shape(), x.shape());
    }

    #[test]
    fn activations_preserve_shape_and_ranges(
        len in 1usize..64,
        seed in 0u64..1000,
    ) {
        let x = Initializer::new(seed).uniform(&[len], 5.0);
        let mut ws = NnWorkspace::new();
        let r = Relu::new().forward_in(&x, &mut ws);
        prop_assert!(r.data().iter().all(|&v| v >= 0.0));
        let s = Sigmoid::new().forward_in(&x, &mut ws);
        prop_assert!(s.data().iter().all(|&v| v > 0.0 && v < 1.0));
        prop_assert_eq!(r.shape(), x.shape());
        prop_assert_eq!(s.shape(), x.shape());
    }

    #[test]
    fn bce_loss_is_nonnegative_and_grad_bounded(
        len in 1usize..32,
        seed in 0u64..1000,
    ) {
        let logits = Initializer::new(seed).uniform(&[len], 8.0);
        let targets = Initializer::new(seed ^ 2).uniform(&[len], 0.5).map(|v| v.abs().min(1.0));
        let out = bce_with_logits(&logits, &targets, None);
        prop_assert!(out.loss >= 0.0);
        // Per-element gradient of the mean is bounded by 1/len.
        for &g in out.grad.data() {
            prop_assert!(g.abs() <= 1.0 / len as f32 + 1e-6);
        }
    }

    #[test]
    fn serialization_rejects_random_corruption(
        flip in 8usize..64,
        byte in 0u8..255,
        // Below 1000: truncate to `cut`‰ of the blob; otherwise corrupt.
        cut in 0usize..2000,
    ) {
        let cfg = UNetConfig { in_channels: 2, base_channels: 1, levels: 1, seed: 0 };
        let mut net = UNet3d::new(cfg);
        let mut bytes = Vec::new();
        save_params(&mut net, &mut bytes).unwrap();
        if cut < 1000 {
            bytes.truncate(bytes.len() * cut / 1000);
        } else {
            // Corrupt a header byte.
            let i = flip % bytes.len().min(64);
            if bytes[i] == byte {
                return Ok(()); // no-op corruption
            }
            bytes[i] = byte;
        }
        // Loading must return Err or Ok, never panic, and an Err must
        // leave every weight bit as it was.
        let mut other = UNet3d::new(UNetConfig { seed: 1, ..cfg });
        let before = weight_bits(&mut other);
        if load_params(&mut other, bytes.as_slice()).is_err() {
            prop_assert_eq!(weight_bits(&mut other), before);
        }
    }
}

fn weight_bits(net: &mut UNet3d) -> Vec<u32> {
    net.params_mut()
        .iter()
        .flat_map(|p| p.value.data().iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn training_step_reduces_loss_on_one_sample() {
    // One fixed (input, target) pair: repeated Adam steps must reduce BCE.
    use oarsmt_nn::optim::Adam;
    let mut net = UNet3d::new(UNetConfig {
        in_channels: 2,
        base_channels: 2,
        levels: 1,
        seed: 9,
    });
    let x = Initializer::new(1).uniform(&[2, 4, 4, 2], 1.0);
    let target = Initializer::new(2)
        .uniform(&[1, 4, 4, 2], 0.5)
        .map(|v| v.abs().min(1.0));
    let mut opt = Adam::new(1e-2);
    let mut ws = NnWorkspace::new();
    let mut first = None;
    let mut last = 0.0;
    for _ in 0..60 {
        net.zero_grad();
        let logits = net.forward_in(&x, &mut ws);
        let out = bce_with_logits(&logits, &target, None);
        let grad_in = net.backward_in(out.grad, &mut ws);
        ws.free(grad_in);
        ws.free(logits);
        opt.step(&mut net);
        first.get_or_insert(out.loss);
        last = out.loss;
    }
    assert!(
        last < first.unwrap() * 0.8,
        "loss {} -> {} should drop by >20%",
        first.unwrap(),
        last
    );
}
