//! `unet_throughput`: selector-forward and train-step throughput of the
//! 3D Residual U-Net on a ladder of layout sizes.
//!
//! A *forward* is one [`UNet3d::infer_in`] over the 7-channel feature
//! encoding of a generated layout — exactly the inference a
//! `NeuralSelector::fsp` performs once per MCTS search. A *train step* is
//! one `zero_grad` + `forward_in` + BCE-with-logits + `backward_in` on the
//! same input with a sparse synthetic label — the inner loop of
//! `Trainer::fit_batch`.
//!
//! Per rung the binary records an output checksum (forward logits) and
//! gradient checksums (input gradient, concatenated parameter gradients) as
//! exact `f64` bit patterns, and asserts three bit-identity properties:
//!
//! 1. against the in-process **naive reference convolutions**
//!    (`set_naive`, the pre-GEMM loops kept as an oracle);
//! 2. against the **recorded baseline artifact**
//!    (`BENCH_unet_baseline.json`, captured before the GEMM/workspace
//!    rewrite) — also the denominator of the reported speedups;
//! 3. implicitly, across workspace reuse (the timed loops reuse one
//!    workspace; any drift would change the artifact checksums).
//!
//! With `--simd` (requires building `-p oarsmt-bench --features simd` on
//! an AVX2+FMA host) the *timed* loops run through the wide GEMM kernels
//! (DESIGN.md §9 opt-out): the untimed checksum pass stays on the scalar
//! lane so all three bit-identity properties above still hold and are
//! still asserted, the SIMD forward output is checked ULP-close to the
//! scalar one, the dispatch counter must prove the wide kernels actually
//! ran, and the artifact defaults to `BENCH_unet_simd.json` (recorded
//! checksums remain the scalar anchors; `kernel` names the timed lane).
//!
//! Usage: `unet_throughput [--quick] [--profile] [--simd] [--out PATH]
//! [--baseline PATH]`

#![forbid(unsafe_code)]

use std::time::Instant;

use oarsmt::features::{encode_features, valid_mask};
use oarsmt::selector::Selector;
use oarsmt::topk::{select_top_k, steiner_budget};
use oarsmt_bench::artifact::{json_field, json_num, Artifact};
use oarsmt_bench::Table;
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::HananGraph;
use oarsmt_nn::layer::Layer;
use oarsmt_nn::loss::bce_with_logits;
use oarsmt_nn::tensor::Tensor;
use oarsmt_nn::unet::{UNet3d, UNetConfig};
use oarsmt_nn::{KernelPolicy, NnWorkspace};
use oarsmt_telemetry::{Counter, CounterSet, Manifest, SpanSet, TelemetrySnapshot, TIMING_ENABLED};

/// One rung of the size ladder.
struct Rung {
    name: &'static str,
    h: usize,
    v: usize,
    m: usize,
    pins: usize,
    /// Timed forward (predict) iterations.
    fwd_iters: usize,
    /// Timed train-step iterations.
    train_iters: usize,
}

const LADDER: &[Rung] = &[
    Rung {
        name: "S8",
        h: 8,
        v: 8,
        m: 2,
        pins: 4,
        fwd_iters: 300,
        train_iters: 120,
    },
    Rung {
        name: "S12",
        h: 12,
        v: 12,
        m: 2,
        pins: 4,
        fwd_iters: 150,
        train_iters: 60,
    },
    Rung {
        name: "S16",
        h: 16,
        v: 16,
        m: 2,
        pins: 5,
        fwd_iters: 80,
        train_iters: 32,
    },
    Rung {
        name: "S24",
        h: 24,
        v: 24,
        m: 2,
        pins: 5,
        fwd_iters: 50,
        train_iters: 20,
    },
    Rung {
        name: "S32",
        h: 32,
        v: 32,
        m: 3,
        pins: 6,
        fwd_iters: 30,
        train_iters: 12,
    },
    Rung {
        name: "S48",
        h: 48,
        v: 48,
        m: 3,
        pins: 6,
        fwd_iters: 16,
        train_iters: 6,
    },
];

/// The default selector architecture (7 feature channels, laptop width).
fn net() -> UNet3d {
    UNet3d::new(UNetConfig {
        in_channels: 7,
        base_channels: 8,
        levels: 2,
        seed: 0xDAC2024,
    })
}

/// Deterministic layout + feature tensor + sparse label/mask for a rung.
fn rung_inputs(r: &Rung) -> (HananGraph, Tensor, Tensor, Tensor) {
    let cfg = GeneratorConfig::paper_costs(r.h, r.v, r.m, (r.pins, r.pins));
    let graph = CaseGenerator::new(cfg, 0x5EED ^ r.h as u64).generate();
    let x = encode_features(&graph, &[]);
    // Sparse synthetic label: the median heuristic's top-k Steiner points.
    let mut heuristic = oarsmt::selector::MedianHeuristicSelector::new();
    let fsp = heuristic.fsp(&graph, &[]);
    let k = steiner_budget(graph.pins().len());
    let points = select_top_k(&graph, &fsp, k, &[]);
    let mut labels = vec![0.0f32; graph.len()];
    for p in points {
        labels[graph.index(p)] = 1.0;
    }
    let targets = oarsmt::features::from_graph_order(&labels, &graph);
    let mask = valid_mask(&graph, &[]);
    (graph, x, targets, mask)
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct Checksums {
    /// Bit patterns: predict output, forward logits, input gradient,
    /// concatenated parameter gradients.
    predict: u64,
    logits: u64,
    grad_in: u64,
    param_grads: u64,
}

struct RungResult {
    fwd_secs: f64,
    train_secs: f64,
    cs: Checksums,
    /// Tier B per-layer spans (empty unless `--profile` and the
    /// `telemetry-timing` feature are both on).
    spans: SpanSet,
    /// Tier A counters for the whole rung (checksum pass + timed loops;
    /// the naive oracle routes through its own discarded workspaces).
    counters: CounterSet,
}

fn f64_sum(data: &[f32]) -> f64 {
    data.iter().map(|&v| f64::from(v)).sum()
}

/// One predict + one train step, each through a fresh workspace, used for
/// the naive-reference oracle pass.
fn checksum_pass(net: &mut UNet3d, x: &Tensor, targets: &Tensor, mask: &Tensor) -> Checksums {
    let probs = net.infer_in(x, &mut NnWorkspace::new());
    let predict = f64_sum(probs.data()).to_bits();
    net.zero_grad();
    let mut ws = NnWorkspace::new();
    let logits = net.forward_in(x, &mut ws);
    let cs_logits = f64_sum(logits.data()).to_bits();
    let out = bce_with_logits(&logits, targets, Some(mask));
    let grad_in = net.backward_in(out.grad, &mut ws);
    let cs_grad_in = f64_sum(grad_in.data()).to_bits();
    let mut param_sum = 0.0f64;
    for p in net.params_mut() {
        param_sum += f64_sum(p.grad.data());
    }
    Checksums {
        predict,
        logits: cs_logits,
        grad_in: cs_grad_in,
        param_grads: param_sum.to_bits(),
    }
}

/// Runs one rung: oracle + checksum passes first (untimed, always on the
/// scalar lane — the bit-identity contract lives there), then timing
/// loops through one reused workspace on the requested kernel lane.
fn run_rung(r: &Rung, profile: bool, simd: bool) -> RungResult {
    let (_graph, x, targets, mask) = rung_inputs(r);
    let mut net = net();
    let mut ws = NnWorkspace::new();

    // --- checksum pass through the GEMM + workspace path ---
    let probs = net.infer_in(&x, &mut ws);
    let cs_predict = f64_sum(probs.data()).to_bits();
    let scalar_probs: Vec<f32> = probs.data().to_vec();
    ws.free(probs);
    net.zero_grad();
    let logits = net.forward_in(&x, &mut ws);
    let cs_logits = f64_sum(logits.data()).to_bits();
    let out = bce_with_logits(&logits, &targets, Some(&mask));
    ws.free(logits);
    let grad_in = net.backward_in(out.grad, &mut ws);
    let cs_grad_in = f64_sum(grad_in.data()).to_bits();
    ws.free(grad_in);
    let mut param_sum = 0.0f64;
    for p in net.params_mut() {
        param_sum += f64_sum(p.grad.data());
    }
    let cs = Checksums {
        predict: cs_predict,
        logits: cs_logits,
        grad_in: cs_grad_in,
        param_grads: param_sum.to_bits(),
    };

    // --- in-process oracle: the naive reference loops must agree bitwise ---
    let mut ref_net = net.clone();
    ref_net.zero_grad();
    ref_net.set_naive(true);
    let ref_cs = checksum_pass(&mut ref_net, &x, &targets, &mask);
    assert!(
        cs == ref_cs,
        "{}: GEMM path diverged from naive reference convolutions",
        r.name
    );

    // --- switch the timed loops to the wide kernels, with two checks:
    // the forward output must stay within the DESIGN.md §9 tolerance of
    // the scalar lane, and the dispatch counter must prove the SIMD
    // kernels actually ran (a silent scalar fallback would fake numbers).
    if simd {
        ws.set_kernel_policy(KernelPolicy::Simd);
        let simd_before = ws.counters.get(Counter::GemmKernelSimd);
        let p = net.infer_in(&x, &mut ws);
        let ulp = oarsmt_nn::kernels::max_ulp_distance(p.data(), &scalar_probs);
        let close = p
            .data()
            .iter()
            .zip(&scalar_probs)
            .all(|(&a, &b)| oarsmt_nn::kernels::close_enough(a, b));
        assert!(
            close,
            "{}: SIMD forward outside the ULP contract (max {ulp} ULPs)",
            r.name
        );
        ws.free(p);
        assert!(
            ws.counters.get(Counter::GemmKernelSimd) > simd_before,
            "{}: --simd given but the wide kernels never dispatched",
            r.name
        );
    }
    drop(scalar_probs);

    if profile {
        ws.enable_profiling();
    }

    // --- forward (inference) timing ---
    let t0 = Instant::now();
    for _ in 0..r.fwd_iters {
        let p = net.infer_in(&x, &mut ws);
        std::hint::black_box(p.data()[0]);
        ws.free(p);
    }
    let fwd_secs = t0.elapsed().as_secs_f64();

    // --- train-step timing ---
    let t0 = Instant::now();
    for _ in 0..r.train_iters {
        net.zero_grad();
        let logits = net.forward_in(&x, &mut ws);
        let out = bce_with_logits(&logits, &targets, Some(&mask));
        ws.free(logits);
        let g = net.backward_in(out.grad, &mut ws);
        std::hint::black_box(g.data()[0]);
        ws.free(g);
    }
    let train_secs = t0.elapsed().as_secs_f64();

    RungResult {
        fwd_secs,
        train_secs,
        cs,
        spans: ws.take_spans(),
        counters: ws.counters,
    }
}

/// Asserts that this run's checksums match the recorded baseline rung
/// bit-for-bit (the rewrite must not change a single logit or gradient).
fn assert_baseline_checksums(name: &str, line: &str, cs: &Checksums) {
    for (key, ours) in [
        ("cs_predict", cs.predict),
        ("cs_logits", cs.logits),
        ("cs_grad_in", cs.grad_in),
        ("cs_param_grads", cs.param_grads),
    ] {
        let recorded = json_field(line, key).unwrap_or_else(|| panic!("{name}: baseline {key}"));
        assert_eq!(
            recorded,
            format!("{ours:016x}"),
            "{name}: {key} diverged from the recorded baseline artifact"
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let profile = args.iter().any(|a| a == "--profile");
    let simd = args.iter().any(|a| a == "--simd");
    if simd && !oarsmt_nn::simd_available() {
        eprintln!(
            "error: --simd needs `cargo ... -p oarsmt-bench --features simd` and an \
             AVX2+FMA host (refusing to record SIMD-labeled scalar numbers)"
        );
        std::process::exit(2);
    }
    let arg_val = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let default_out = if simd {
        "crates/bench/artifacts/BENCH_unet_simd.json"
    } else {
        "crates/bench/artifacts/BENCH_unet.json"
    };
    let out_path = arg_val("--out").unwrap_or_else(|| default_out.to_string());
    let baseline_path = arg_val("--baseline")
        .unwrap_or_else(|| "crates/bench/artifacts/BENCH_unet_baseline.json".to_string());
    let baseline = Artifact::load(&baseline_path)
        .map_err(|e| format!("{baseline_path}: {e}"))
        .expect("recorded baseline artifact");

    let rungs: Vec<&Rung> = if quick {
        LADDER.iter().take(3).collect()
    } else {
        LADDER.iter().collect()
    };
    let scale = if quick { 4 } else { 1 }; // quick: 1/4 of the iterations

    let mut table = Table::new([
        "rung",
        "fwd/s",
        "xfwd",
        "train/s",
        "xtrain",
        "gemm d/p/f",
        "logits checksum",
    ]);
    let mut rows = Vec::new();
    let mut tot = (0usize, 0.0f64, 0usize, 0.0f64);
    let mut spans_tot = SpanSet::new();
    let mut counters_tot = CounterSet::new();
    for r in &rungs {
        let scaled = Rung {
            fwd_iters: (r.fwd_iters / scale).max(2),
            train_iters: (r.train_iters / scale).max(1),
            ..**r
        };
        let res = run_rung(&scaled, profile, simd);
        let base_line = baseline
            .rung(r.name)
            .unwrap_or_else(|| panic!("{}: missing from {baseline_path}", r.name));
        assert_baseline_checksums(r.name, base_line, &res.cs);
        let fwd_per_s = scaled.fwd_iters as f64 / res.fwd_secs;
        let train_per_s = scaled.train_iters as f64 / res.train_secs;
        let base_fwd = json_num(base_line, "fwd_per_s").expect("baseline fwd_per_s");
        let base_train = json_num(base_line, "train_per_s").expect("baseline train_per_s");
        table.row([
            r.name.to_string(),
            format!("{fwd_per_s:.2}"),
            format!("{:.2}x", fwd_per_s / base_fwd),
            format!("{train_per_s:.2}"),
            format!("{:.2}x", train_per_s / base_train),
            format!(
                "{}/{}/{}",
                res.counters.get(Counter::GemmDirect),
                res.counters.get(Counter::GemmPanel),
                res.counters.get(Counter::GemmFlat)
            ),
            format!("{:016x}", res.cs.logits),
        ]);
        tot.0 += scaled.fwd_iters;
        tot.1 += res.fwd_secs;
        tot.2 += scaled.train_iters;
        tot.3 += res.train_secs;
        spans_tot.merge_from(&res.spans);
        counters_tot.merge_from(&res.counters);
        rows.push((r.name, scaled, res, fwd_per_s, train_per_s));
        eprintln!("[unet_throughput] {} done", r.name);
    }

    println!(
        "unet selector throughput ({} mode, {} kernels; speedups vs {})\n",
        if quick { "quick" } else { "full" },
        if simd { "avx2+fma" } else { "scalar" },
        baseline_path
    );
    table.print();
    let tot_fwd = tot.0 as f64 / tot.1;
    let tot_train = tot.2 as f64 / tot.3;
    println!("\ntotal: fwd {tot_fwd:.2}/s, train {tot_train:.2}/s");
    if let (Some(base_fwd), Some(base_train)) = (
        baseline.top_num("total_fwd_per_s"),
        baseline.top_num("total_train_per_s"),
    ) {
        // Quick mode runs a rung subset, so only the full ladder compares
        // cleanly against the recorded totals.
        if !quick {
            println!(
                "overall speedup: fwd {:.2}x, train {:.2}x",
                tot_fwd / base_fwd,
                tot_train / base_train
            );
        }
    }
    if simd {
        println!(
            "checksums: scalar lane bit-identical to naive reference and recorded \
             baseline; SIMD forward within {} ULPs / {} abs of scalar on every rung",
            oarsmt_nn::kernels::MAX_ULP,
            oarsmt_nn::kernels::ABS_TOL
        );
    } else {
        println!("checksums: all rungs bit-identical to naive reference and recorded baseline");
    }

    if profile {
        let total: f64 = spans_tot.iter().map(|(_, h)| h.total_ns as f64 / 1e9).sum();
        let mut pt = Table::new(["layer kind", "secs", "share"]);
        for (name, h) in spans_tot.iter() {
            if h.count == 0 {
                continue;
            }
            let secs = h.total_ns as f64 / 1e9;
            pt.row([
                name.to_string(),
                format!("{secs:.4}"),
                format!("{:.1}%", 100.0 * secs / total.max(1e-12)),
            ]);
        }
        println!("\nper-layer time split (timed loops, all rungs)\n");
        if !TIMING_ENABLED {
            println!("(telemetry-timing feature off: spans recorded as zero-duration events)\n");
        }
        pt.print();
    }

    let mut json = format!(
        "{{\n  \"mode\": \"gemm-workspace\",\n  \"kernel\": \"{}\",\n  \"rungs\": [\n",
        if simd { "simd" } else { "scalar" }
    );
    for (i, (name, scaled, res, fwd_per_s, train_per_s)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"fwd_iters\": {}, \"fwd_secs\": {:.6}, \"fwd_per_s\": {:.3}, \"train_iters\": {}, \"train_secs\": {:.6}, \"train_per_s\": {:.3}, \"gemm_direct\": {}, \"gemm_panel\": {}, \"gemm_flat\": {}, \"gemm_simd\": {}, \"macs\": {}, \"cs_predict\": \"{:016x}\", \"cs_logits\": \"{:016x}\", \"cs_grad_in\": \"{:016x}\", \"cs_param_grads\": \"{:016x}\"}}{}\n",
            name,
            scaled.fwd_iters,
            res.fwd_secs,
            fwd_per_s,
            scaled.train_iters,
            res.train_secs,
            train_per_s,
            res.counters.get(Counter::GemmDirect),
            res.counters.get(Counter::GemmPanel),
            res.counters.get(Counter::GemmFlat),
            res.counters.get(Counter::GemmKernelSimd),
            res.counters.total_macs(),
            res.cs.predict,
            res.cs.logits,
            res.cs.grad_in,
            res.cs.param_grads,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    let snapshot = TelemetrySnapshot {
        manifest: Manifest {
            run: "unet_throughput".to_string(),
            mode: if quick { "quick" } else { "full" }.to_string(),
            threads: 1,
            seed: 0xDAC2024,
            timing: TIMING_ENABLED,
        },
        counters: counters_tot,
        spans: spans_tot,
    };
    json.push_str(&format!(
        "  ],\n  \"total_fwd_per_s\": {:.3},\n  \"total_train_per_s\": {:.3},\n  \"telemetry\": [\n",
        tot_fwd, tot_train
    ));
    let telemetry_lines: Vec<String> = snapshot
        .to_jsonl()
        .lines()
        .map(|l| format!("    {l}"))
        .collect();
    json.push_str(&telemetry_lines.join(",\n"));
    json.push_str("\n  ]\n}\n");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(&out_path, json).expect("write artifact");
    println!("artifact: {out_path}");
}
