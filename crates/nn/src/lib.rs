//! Pure-Rust 3D convolutional neural-network substrate.
//!
//! The paper trains its Steiner-point selector — a 3D Residual U-Net
//! (Section 3.3, Fig. 4) — with PyTorch on GPUs. That stack is not
//! available in this offline pure-Rust reproduction, so this crate
//! implements the required pieces from scratch (DESIGN.md §5,
//! substitution 1):
//!
//! * dense [`Tensor`]s with dynamic shapes ([`tensor`]),
//! * [`Conv3d`](conv3d::Conv3d) with same-padding and full backprop,
//! * ReLU / sigmoid activations ([`activation`]),
//! * ceil-mode 3D max pooling and nearest-neighbor upsampling to arbitrary
//!   target shapes ([`pool`], [`upsample`]) — the pair that lets the U-Net
//!   accept **any** `H × V × M` input,
//! * residual blocks ([`residual`], optionally group-normalized via
//!   [`norm`]) and the full 3D Residual U-Net ([`unet`]),
//! * binary cross-entropy with logits ([`loss`]), SGD and Adam ([`optim`]),
//! * weight (de)serialization ([`serialize`]) and finite-difference
//!   gradient checking ([`gradcheck`]).
//!
//! Everything is `f32` and CPU-only — appropriate for the laptop-scale
//! experiments of this reproduction. Activations are batch-major
//! `[C, B, d1, d2, d3]` tensors, and a rank-4 `[C, d1, d2, d3]` tensor is
//! one sample (`B = 1`). Each layer has one forward and one backward body
//! ([`layer`]); a sample's results do not depend on the batch it rides in,
//! so a batched fit walks the same weight trajectory as a per-sample loop.
//! [`UNet3d::infer_in`](unet::UNet3d::infer_in) is the one inference entry:
//! the training forward through `&self`, with no backward caches.
//!
//! # Example
//!
//! ```
//! use oarsmt_nn::layer::Layer;
//! use oarsmt_nn::tensor::Tensor;
//! use oarsmt_nn::unet::{UNet3d, UNetConfig};
//! use oarsmt_nn::NnWorkspace;
//!
//! let mut net = UNet3d::new(UNetConfig {
//!     in_channels: 7,
//!     base_channels: 4,
//!     levels: 2,
//!     seed: 0,
//! });
//! let mut ws = NnWorkspace::new();
//! // Arbitrary spatial size: one 5 x 9 x 3 sample ...
//! let x = Tensor::zeros(&[7, 5, 9, 3]);
//! let probs = net.infer_in(&x, &mut ws);
//! assert_eq!(probs.shape(), &[1, 5, 9, 3]);
//! // ... or a batch of two, trained with one forward/backward pair.
//! let xb = Tensor::stack_batch(&[&x, &x]);
//! let logits = net.forward_in(&xb, &mut ws);
//! assert_eq!(logits.shape(), &[1, 2, 5, 9, 3]);
//! let grad_in = net.backward_in(logits, &mut ws);
//! assert_eq!(grad_in.shape(), xb.shape());
//! ```

// Unsafe is forbidden except under the `simd` feature, whose AVX2+FMA
// intrinsics in `kernels::avx2` are the one sanctioned use (each site
// carries a `// SAFETY:` audit; lint rule D4 enforces both halves).
#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![cfg_attr(feature = "simd", deny(unsafe_op_in_unsafe_fn))]

pub mod activation;
pub mod conv3d;
pub mod error;
pub mod gradcheck;
pub mod init;
pub mod kernels;
pub mod layer;
pub mod loss;
pub mod norm;
pub mod optim;
pub mod pool;
pub mod residual;
pub mod serialize;
pub mod tensor;
pub mod unet;
pub mod upsample;
pub mod workspace;

pub use error::NnError;
pub use kernels::{simd_available, KernelPolicy};
pub use layer::{Layer, Param};
pub use tensor::Tensor;
pub use unet::{UNet3d, UNetConfig};
pub use workspace::NnWorkspace;
