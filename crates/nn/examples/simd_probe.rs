//! Quick scalar-vs-SIMD forward/backward throughput probe at selector
//! scale. Not a recorded benchmark — the honest numbers live in
//! `oarsmt-bench` (`unet_throughput --simd`); this exists to sanity-check
//! kernel dispatch and speedup interactively:
//! `cargo run --release -p oarsmt-nn --features simd --example simd_probe`.

use oarsmt_nn::init::Initializer;
use oarsmt_nn::layer::Layer;
use oarsmt_nn::unet::{UNet3d, UNetConfig};
use oarsmt_nn::{simd_available, KernelPolicy, NnWorkspace};
use std::time::Instant;

fn bench(label: &str, shape: &[usize], policy: KernelPolicy, iters: usize) -> f64 {
    let mut net = UNet3d::new(UNetConfig {
        in_channels: 7,
        base_channels: 8,
        levels: 2,
        seed: 0xDAC2024,
    });
    let x = Initializer::new(42).uniform(shape, 1.0);
    let mut ws = NnWorkspace::new();
    ws.set_kernel_policy(policy);
    // Warm the pool.
    let y = net.infer_in(&x, &mut ws);
    ws.free(y);
    ws.enable_profiling();
    let t0 = Instant::now();
    for _ in 0..iters {
        let y = net.infer_in(&x, &mut ws);
        ws.free(y);
    }
    let fwd = t0.elapsed().as_secs_f64() / iters as f64;
    let spans = ws.take_spans();
    for (name, st) in spans.iter() {
        if st.count > 0 {
            println!(
                "    {name:14} {:8.3} ms  ({} calls)",
                st.total_ns as f64 / 1e6 / iters as f64,
                st.count
            );
        }
    }

    // Train step: forward + backward.
    let gseed = Initializer::new(43).uniform(&[1, shape[1], shape[2], shape[3]], 1.0);
    let t0 = Instant::now();
    let titers = iters.div_ceil(3);
    for _ in 0..titers {
        let y = net.forward_in(&x, &mut ws);
        ws.free(y);
        let g = ws.alloc_copy(&gseed);
        let gi = net.backward_in(g, &mut ws);
        ws.free(gi);
    }
    let train = t0.elapsed().as_secs_f64() / titers as f64;
    println!(
        "{label:22} fwd {:8.3} ms   train {:8.3} ms",
        fwd * 1e3,
        train * 1e3
    );
    fwd
}

fn main() {
    println!("simd_available = {}", simd_available());
    for (name, shape, iters) in [
        ("S24 [7,24,24,2]", [7usize, 24, 24, 2], 60usize),
        ("S48 [7,48,48,3]", [7, 48, 48, 3], 16),
    ] {
        let s = bench(
            &format!("{name} scalar"),
            &shape,
            KernelPolicy::Scalar,
            iters,
        );
        let v = bench(&format!("{name} simd"), &shape, KernelPolicy::Simd, iters);
        println!("{name}: fwd speedup {:.2}x", s / v);
    }
}
