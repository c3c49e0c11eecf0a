//! End-to-end benchmark of the RL OARSMT router and its training stage.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload route_small --seed 7 --seconds 12 --trace 0
//! ```
//!
//! Workloads, metrics and the reasons behind them are in `e2ebench/README.md`.
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it are
//! the same metrics as a table.

mod critic;
mod route;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use oarsmt::selector::NeuralSelector;
use oarsmt_nn::unet::UNetConfig;

use crate::stats::{median, percentile, samples_beyond, TAIL_SAMPLES};

const USAGE: &str = "usage: e2ebench --workload route_small|route_large|critic_small|train_stage \
                     --seed N --seconds S --trace 0|1";

/// The workload seed whose result hashes are pinned (see README.md).
pub const DEFAULT_SEED: u64 = 7;

/// Result hashes at [`DEFAULT_SEED`] (see README.md for what each covers).
const PINNED: [(Workload, u64); 4] = [
    (Workload::RouteSmall, 0x8115_2bcd_d175_8010),
    (Workload::RouteLarge, 0x97ae_de0d_dce6_4b5c),
    (Workload::CriticSmall, 0xf2d6_005e_8dbd_6f9e),
    (Workload::TrainStage, 0xc950_bce8_fd81_ec5d),
];

/// Prints the run's result hash and checks it against `pinned`, or else
/// against [`PINNED`] when the run uses the default seed.
pub fn pinned_hash_ok(args: &Args, hash: u64, pinned: Option<u64>) -> bool {
    eprintln!(
        "e2ebench: {:?} seed {} result hash {hash:#018x}",
        args.workload, args.seed
    );
    let pinned = pinned.or_else(|| {
        PINNED
            .iter()
            .find(|(w, _)| *w == args.workload && args.seed == DEFAULT_SEED)
            .map(|p| p.1)
    });
    pinned.is_none_or(|p| p == hash)
}

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RouteSmall,
    RouteLarge,
    CriticSmall,
    TrainStage,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "route_small" => Some(Workload::RouteSmall),
            "route_large" => Some(Workload::RouteLarge),
            "critic_small" => Some(Workload::CriticSmall),
            "train_stage" => Some(Workload::TrainStage),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// End-to-end metrics (`--trace 0`), reported on every workload. An
/// operation is one route (`route_*`), one critic pricing of a search
/// state (`critic_small`) or one training stage (`train_stage`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("cost_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics (`--trace 1`), reported on every workload; a layer a
/// workload does not run reads 0 there.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("features.encode_us", "us"),
    ("nn.infer_us", "us"),
    ("nn.infer_gflops", "GFLOP/s"),
    ("topk.select_us", "us"),
    ("select_share", "ratio"),
    ("route.self_us", "us"),
    ("oarmst.build_ms", "ms"),
    ("oarmst.safeguard_ms", "ms"),
    ("oarmst.rebuild_ms", "ms"),
    ("retrace.polish_ms", "ms"),
    ("retrace.rounds_per_route", "count"),
    ("graph.pops_per_route", "count"),
    ("graph.relax_per_pop", "ratio"),
    ("graph.pops_per_us", "1/us"),
    ("retrace.improved_ratio", "ratio"),
    ("refine.rebuild_accept_ratio", "ratio"),
    ("safeguard.win_ratio", "ratio"),
    ("steiner.pruned_ratio", "ratio"),
    ("router.tree_pool_hit_ratio", "ratio"),
    ("lin18.route_ms", "ms"),
    ("lin18.cost_ratio", "ratio"),
    ("speedup_vs_lin18", "x"),
    ("trace.overhead_pct", "%"),
    ("mcts.search_ms", "ms"),
    ("mcts.rollouts_per_s", "1/s"),
    ("mcts.flush_occupancy", "count"),
    ("mcts.pops_per_rollout", "count"),
    ("parallel.gen_efficiency", "ratio"),
    ("augment.ms", "ms"),
    ("fit.batch_ms", "ms"),
    ("fit.samples_per_s", "1/s"),
    ("nn.train_gflops", "GFLOP/s"),
    ("fit.share", "ratio"),
    ("fit.loss", "bce"),
];

/// The metrics of `table` in its order, 0 where `values` has none.
pub fn metrics(
    table: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Renders the final JSON line. Values keep every digit (`{:?}` on
    /// `f64` prints the shortest string that round-trips).
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Latencies and pass rates of a closed loop that repeats a fixed set of
/// operations pass after pass (the route workloads and `critic_small`).
#[derive(Default)]
pub struct Timed {
    pub latencies_ms: Vec<f64>,
    pub pass_rates: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// [`peak_rss_mb`] read right after the first set-up, before the
    /// latency buffer above grows with the number of timed operations.
    pub peak_rss_mb: f64,
}

impl Timed {
    /// The end-to-end report: `ops_per_s` is the median pass rate, the
    /// latencies are over every timed operation.
    pub fn report(self, setup_times: &[f64], cost_ratio: f64) -> Report {
        let mut lat = self.latencies_ms;
        lat.sort_by(f64::total_cmp);
        if samples_beyond(lat.len(), 0.9) < TAIL_SAMPLES {
            eprintln!(
                "e2ebench: only {} operations, p90 has fewer than {TAIL_SAMPLES} beyond it",
                lat.len()
            );
        }
        eprintln!(
            "e2ebench: {} timed operations in {} passes",
            lat.len(),
            self.pass_rates.len()
        );
        let mut values = BTreeMap::new();
        values.insert("setup_s", median(setup_times));
        values.insert("ops_per_s", median(&self.pass_rates));
        values.insert("op_ms_p50", percentile(&lat, 0.5));
        values.insert("op_ms_p90", percentile(&lat, 0.9));
        values.insert("cost_ratio", cost_ratio);
        values.insert("peak_rss_mb", self.peak_rss_mb);
        values.insert(
            "ok_ratio",
            (self.attempted - self.failed) as f64 / self.attempted as f64,
        );
        Report {
            correct: self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: metrics(&END_TO_END, &values),
        }
    }
}

/// Architecture of `selector-v1.bin` (the bench harness's
/// `experiment_net_config`); a mismatch makes the load fail.
fn experiment_net_config() -> UNetConfig {
    UNetConfig {
        in_channels: 7,
        base_channels: 4,
        levels: 2,
        seed: 1234,
    }
}

/// Path of the committed pretrained selector.
fn weights_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../crates/bench/artifacts/selector-v1.bin")
}

/// Loads the committed pretrained selector. A missing or incompatible
/// file is a set-up error: the benchmark never trains a replacement.
pub fn load_selector() -> Result<NeuralSelector, String> {
    let path = weights_path();
    let mut selector = NeuralSelector::with_config(experiment_net_config());
    selector
        .load(&path)
        .map_err(|e| format!("cannot load pretrained selector {}: {e}", path.display()))?;
    Ok(selector)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Directory the traced run writes its span log into.
pub fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("e2ebench-traces")
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("e2ebench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Workload::RouteSmall | Workload::RouteLarge => route::run(&args, process_start),
        Workload::CriticSmall => critic::run(&args, process_start),
        Workload::TrainStage => train::run(&args, process_start),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &report.metrics {
        println!("{name:<28} {value:>14.6} {unit}");
    }
    println!(
        "correct={} attempted={} failed={}",
        report.correct, report.attempted, report.failed
    );
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "route_large",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::RouteLarge);
        assert_eq!(a.seed, 3);
        assert!(a.trace);
        assert!(args(&["--workload", "nope", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "route_small", "--seconds", "0"]).is_err());
        assert!(args(&[
            "--workload",
            "route_small",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "route_small"]).is_err());
    }

    #[test]
    fn benchmark_json_lists_every_reported_metric() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry} missing");
        }
        let workloads = 2;
        assert_eq!(
            text.matches("\"name\":").count(),
            workloads + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("a", 1.5, "ms"), ("b", 0.1, "s")],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0.1, \"unit\": \"s\"}}}"
        );
    }
}
