//! The `train_stage` workload: one post-curriculum stage of
//! `laptop_schedule(seed)` (critic on, pins 3–6), each time with a fresh
//! `Trainer` starting from the pretrained selector.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use oarsmt::parallel;
use oarsmt::selector::NeuralSelector;
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_mcts::{CombinatorialMcts, MctsConfig};
use oarsmt_rl::schedule::laptop_schedule;
use oarsmt_rl::{augment_16, Dataset, StageReport, Trainer, TrainerConfig, TrainingSample};
use oarsmt_router::{RouteContext, RouteError};
use oarsmt_telemetry::{Counter, CounterSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{median, percentile, Fnv};
use crate::trace::{SpanLog, SpanRec};
use crate::{Args, Report};

/// Sample-generation workers. One: the benchmark is a single client on
/// one thread, so that a second busy thread on a small shared host does
/// not turn the stage time into a measure of the scheduler. The stage's
/// result does not depend on the worker count.
const WORKERS: usize = 1;

/// The stage configuration for a workload seed.
pub fn stage_config(seed: u64) -> TrainerConfig {
    TrainerConfig {
        threads: WORKERS,
        ..laptop_schedule(seed)
    }
}

/// What a stage produced: the values its result hash covers.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StageResult {
    avg_loss: f32,
    mcts_cost_ratio: f64,
    samples: usize,
    /// FNV over the fitted weights (`save_params` bytes).
    weights: u64,
}

impl StageResult {
    fn new(report: &StageReport, selector: &mut NeuralSelector) -> Result<Self, String> {
        let mut bytes = Vec::new();
        oarsmt_nn::serialize::save_params(selector.net_mut(), &mut bytes)
            .map_err(|e| format!("cannot serialize fitted weights: {e}"))?;
        let mut h = Fnv::new();
        h.bytes(&bytes);
        Ok(StageResult {
            avg_loss: report.avg_loss,
            mcts_cost_ratio: report.mcts_cost_ratio,
            samples: report.samples,
            weights: h.finish(),
        })
    }

    fn valid(&self) -> bool {
        self.samples > 0
            && self.avg_loss.is_finite()
            && self.avg_loss > 0.0
            && self.mcts_cost_ratio.is_finite()
            && self.mcts_cost_ratio > 0.0
    }

    /// FNV over loss bits, cost-ratio bits, sample count and weights.
    fn hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(u64::from(self.avg_loss.to_bits()));
        h.u64(self.mcts_cost_ratio.to_bits());
        h.u64(self.samples as u64);
        h.u64(self.weights);
        h.finish()
    }
}

/// One stage through `Trainer::run_stage`; returns its result and wall
/// seconds.
fn run_stage(base: &NeuralSelector, cfg: &TrainerConfig) -> Result<(StageResult, f64), String> {
    let mut trainer = Trainer::new(cfg.clone());
    let mut selector = base.clone();
    let t = Instant::now();
    let report = trainer
        .run_stage(&mut selector, cfg.curriculum_stages)
        .map_err(|e| format!("training stage failed: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    Ok((StageResult::new(&report, &mut selector)?, secs))
}

pub fn run(args: &Args, process_start: Instant) -> Result<Report, String> {
    run_config(args, &stage_config(args.seed), None, process_start)
}

/// [`run`] for an explicit configuration, optionally against an explicit
/// pinned hash.
fn run_config(
    args: &Args,
    cfg: &TrainerConfig,
    pinned: Option<u64>,
    process_start: Instant,
) -> Result<Report, String> {
    // Set-up loads the weights and runs one untimed warm stage, whose
    // result every timed stage must reproduce. Each repetition sets up
    // afresh and then times its share of `--seconds`, so the set-ups sample
    // the whole run. The first set-up is timed from process start.
    let reps = if args.trace { 1 } else { crate::SETUP_REPS };
    let mut setup_times = Vec::with_capacity(reps);
    let mut stage_secs = Vec::new();
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let mut reference: Option<StageResult> = None;
    for rep in 0..reps {
        let t = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let base = crate::load_selector()?;
        let (result, _) = run_stage(&base, cfg)?;
        setup_times.push(t.elapsed().as_secs_f64());
        let ok = match reference {
            None => crate::pinned_hash_ok(args, result.hash(), pinned) && result.valid(),
            Some(first) => first == result,
        };
        let reference = *reference.get_or_insert(result);
        report.attempted += 1;
        report.failed += u64::from(!ok);
        if args.trace {
            let (traced, log) = traced_stages(&base, cfg, args, reference)?;
            report.attempted += traced.stages;
            report.failed += traced.failed;
            report.correct = report.failed == 0;
            let mut values = BTreeMap::new();
            traced.layer_metrics(&log, cfg, &mut values);
            report.metrics = crate::metrics(&crate::PER_LAYER, &values);
            return Ok(report);
        }
        let start = Instant::now();
        loop {
            let (result, secs) = run_stage(&base, cfg)?;
            eprintln!("e2ebench: stage {secs:.3} s");
            stage_secs.push(secs);
            report.attempted += 1;
            report.failed += u64::from(result != reference);
            if start.elapsed().as_secs_f64() >= args.seconds / reps as f64 {
                break;
            }
        }
    }
    let reference = reference.expect("at least one set-up");
    report.correct = report.failed == 0;
    eprintln!("e2ebench: {} timed stages", stage_secs.len());
    let rates: Vec<f64> = stage_secs.iter().map(|s| 1.0 / s).collect();
    stage_secs.sort_by(f64::total_cmp);
    let mut values = BTreeMap::new();
    values.insert("setup_s", median(&setup_times));
    values.insert("ops_per_s", median(&rates));
    values.insert("op_ms_p50", percentile(&stage_secs, 0.5) * 1e3);
    values.insert("op_ms_p90", percentile(&stage_secs, 0.9) * 1e3);
    values.insert("cost_ratio", reference.mcts_cost_ratio);
    values.insert("peak_rss_mb", crate::peak_rss_mb());
    values.insert(
        "ok_ratio",
        (report.attempted - report.failed) as f64 / report.attempted as f64,
    );
    report.metrics = crate::metrics(&crate::END_TO_END, &values);
    Ok(report)
}

/// Work tallies of the traced stages.
#[derive(Default)]
struct Traced {
    stages: u64,
    failed: u64,
    /// Generation counters, folded from per-search deltas.
    gen: CounterSet,
    /// MACs of the fit batches.
    fit_macs: u64,
    fit_samples: u64,
    gen_wall_ns: u64,
    loss: f32,
}

/// Runs rebuilt stages until `seconds` have elapsed (at least one),
/// checking each against the `run_stage` reference.
fn traced_stages(
    base: &NeuralSelector,
    cfg: &TrainerConfig,
    args: &Args,
    reference: StageResult,
) -> Result<(Traced, SpanLog), String> {
    let mut acc = Traced::default();
    let mut log = SpanLog::new(Instant::now());
    let start = Instant::now();
    loop {
        let (result, labels) = stage_traced(base, cfg, &mut log, &mut acc)?;
        eprintln!("e2ebench: traced stage label hash {labels:#018x}");
        acc.stages += 1;
        acc.failed += u64::from(result != reference);
        acc.loss = result.avg_loss;
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let path = crate::trace_dir().join(format!("{:?}-seed{}.json", args.workload, args.seed));
    log.write_chrome(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "e2ebench: {} spans written to {}",
        log.spans().len(),
        path.display()
    );
    Ok((acc, log))
}

/// `Trainer::run_stage` for a fresh trainer, rebuilt from its public
/// calls (`CombinatorialMcts::search_in` per layout on the same worker
/// pool, `augment_16`, `Trainer::fit_batch` per batch) with a span around
/// each. Must stay in step with `crates/rl/src/trainer.rs`: the traced
/// run fails on any difference in the result. Returns the result and an
/// FNV over the MCTS labels.
fn stage_traced(
    base: &NeuralSelector,
    cfg: &TrainerConfig,
    log: &mut SpanLog,
    acc: &mut Traced,
) -> Result<(StageResult, u64), String> {
    let stage = cfg.curriculum_stages;
    let op = acc.stages as u32;
    let root = log.begin("stage", op, None);
    let mut trainer = Trainer::new(cfg.clone());
    let mut selector = base.clone();
    // Post-curriculum stage: the configured pin range, critic on.
    let mcts_config = MctsConfig {
        use_critic: true,
        ..cfg.mcts.clone()
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let gen_span = log.begin("generate", op, Some(root));
    let gen_start = Instant::now();
    let mut samples = Vec::new();
    let mut labels = Fnv::new();
    let (mut ratio_sum, mut ratio_count) = (0.0f64, 0usize);
    let proto: &NeuralSelector = &selector;
    for &(h, v, m) in &cfg.sizes {
        let gcfg = GeneratorConfig::paper_costs(h, v, m, cfg.pin_range);
        let size_seed: u64 = rng.gen();
        let epoch_ns = log.now_ns();
        let epoch = Instant::now();
        let next_tid = AtomicU32::new(1);
        type Job = Result<(Option<(TrainingSample, f64)>, CounterSet, SpanRec), RouteError>;
        let per_layout = parallel::run_seeded_with(
            cfg.layouts_per_size,
            size_seed,
            cfg.threads,
            || {
                (
                    proto,
                    RouteContext::new(),
                    next_tid.fetch_add(1, Ordering::Relaxed),
                )
            },
            |(sel, ctx, tid), _idx, layout_seed| -> Job {
                let graph = CaseGenerator::new(gcfg.clone(), layout_seed).generate();
                let before = ctx.counters_total();
                let start_ns = epoch_ns + epoch.elapsed().as_nanos() as u64;
                let mcts = CombinatorialMcts::new(mcts_config.clone());
                let out = mcts.search_in(ctx, &graph, sel);
                let span = SpanRec {
                    name: "mcts.search",
                    op,
                    parent: None,
                    tid: *tid,
                    start_ns,
                    end_ns: epoch_ns + epoch.elapsed().as_nanos() as u64,
                };
                let payload = match out {
                    Ok(o) => {
                        let ratio = o.final_cost / o.initial_cost;
                        Some((TrainingSample::new(graph, vec![], o.label), ratio))
                    }
                    Err(RouteError::Disconnected { .. }) => None,
                    Err(e) => return Err(e),
                };
                Ok((payload, ctx.counters_total().delta_since(&before), span))
            },
        );
        for job in per_layout {
            let (payload, delta, span) = job.map_err(|e| format!("MCTS search failed: {e}"))?;
            acc.gen.merge_from(&delta);
            log.push(SpanRec {
                parent: Some(gen_span),
                ..span
            });
            if let Some((sample, ratio)) = payload {
                for &l in &sample.label {
                    labels.u64(u64::from(l.to_bits()));
                }
                ratio_sum += ratio;
                ratio_count += 1;
                samples.push(sample);
            }
        }
    }
    acc.gen_wall_ns += gen_start.elapsed().as_nanos() as u64;
    log.end(gen_span);

    let span = log.begin("augment", op, Some(root));
    let expanded: Vec<TrainingSample> = if cfg.augment {
        samples.iter().flat_map(augment_16).collect()
    } else {
        samples
    };
    log.end(span);

    let fit_span = log.begin("fit", op, Some(root));
    let sample_count = expanded.len();
    let mut dataset = Dataset::new(expanded, cfg.seed ^ stage as u64);
    let mut last_epoch_loss = 0.0f32;
    let before = trainer.counters();
    for _ in 0..cfg.epochs_per_stage {
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for batch in dataset.epoch_batches(cfg.batch_size) {
            let span = log.begin("fit.batch", op, Some(fit_span));
            epoch_loss += f64::from(trainer.fit_batch(&mut selector, &batch));
            log.end(span);
            batches += 1;
            acc.fit_samples += batch.len() as u64;
        }
        last_epoch_loss = (epoch_loss / batches.max(1) as f64) as f32;
    }
    acc.fit_macs += trainer.counters().delta_since(&before).total_macs();
    log.end(fit_span);
    log.end(root);

    let report = StageReport {
        stage,
        samples: sample_count,
        avg_loss: last_epoch_loss,
        mcts_cost_ratio: if ratio_count == 0 {
            1.0
        } else {
            ratio_sum / ratio_count as f64
        },
        sample_gen_time: Default::default(),
        train_time: Default::default(),
    };
    Ok((StageResult::new(&report, &mut selector)?, labels.finish()))
}

impl Traced {
    fn layer_metrics(
        &self,
        log: &SpanLog,
        cfg: &TrainerConfig,
        out: &mut BTreeMap<&'static str, f64>,
    ) {
        let totals = log.totals();
        let t = |name: &str| totals.get(name).copied().unwrap_or_default();
        let stages = self.stages.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let search = t("mcts.search");
        let g = &self.gen;
        out.insert(
            "mcts.search_ms",
            search.total_ns as f64 / search.count.max(1) as f64 / 1e6,
        );
        out.insert(
            "mcts.rollouts_per_s",
            g.get(Counter::MctsRollouts) as f64 / (search.total_ns as f64 / 1e9).max(1e-9),
        );
        out.insert(
            "mcts.flush_occupancy",
            ratio(g.get(Counter::GemmBatchCols), g.get(Counter::BatchFlushes)),
        );
        out.insert(
            "mcts.pops_per_rollout",
            ratio(g.get(Counter::DijkstraPops), g.get(Counter::MctsRollouts)),
        );
        out.insert(
            "parallel.gen_efficiency",
            search.total_ns as f64 / (cfg.threads as f64 * self.gen_wall_ns as f64).max(1.0),
        );
        out.insert(
            "graph.relax_per_pop",
            ratio(
                g.get(Counter::DijkstraRelaxations),
                g.get(Counter::DijkstraPops),
            ),
        );
        out.insert(
            "router.tree_pool_hit_ratio",
            ratio(
                g.get(Counter::TreePoolHits),
                g.get(Counter::TreePoolHits) + g.get(Counter::TreePoolMisses),
            ),
        );
        out.insert("augment.ms", t("augment").total_ns as f64 / stages / 1e6);
        let batch = t("fit.batch");
        out.insert(
            "fit.batch_ms",
            batch.total_ns as f64 / batch.count.max(1) as f64 / 1e6,
        );
        out.insert(
            "fit.samples_per_s",
            self.fit_samples as f64 / (batch.total_ns as f64 / 1e9).max(1e-9),
        );
        out.insert(
            "nn.train_gflops",
            2.0 * self.fit_macs as f64 / (batch.total_ns as f64).max(1.0),
        );
        out.insert(
            "fit.share",
            t("fit").total_ns as f64 / (t("stage").total_ns as f64).max(1.0),
        );
        out.insert("fit.loss", f64::from(self.loss));
        for (name, t) in &totals {
            eprintln!(
                "e2ebench: span {name:<12} n={:<6} total={:>10.3} ms self={:>10.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use oarsmt_rl::schedule::smoke_schedule;

    fn tiny_config() -> TrainerConfig {
        TrainerConfig {
            threads: 2,
            augment: true,
            ..smoke_schedule(5)
        }
    }

    fn args(trace: bool) -> Args {
        Args {
            workload: Workload::TrainStage,
            seed: 5,
            seconds: 0.01,
            trace,
        }
    }

    #[test]
    fn rebuilt_stage_matches_run_stage() {
        let r = run_config(&args(true), &tiny_config(), None, Instant::now()).unwrap();
        assert!(r.correct);
        assert_eq!(r.failed, 0);
    }

    #[test]
    fn perturbed_pinned_hash_fails_the_run() {
        let cfg = tiny_config();
        let base = crate::load_selector().unwrap();
        let good = run_stage(&base, &cfg).unwrap().0.hash();
        let r = run_config(&args(false), &cfg, Some(good ^ 1), Instant::now()).unwrap();
        assert!(!r.correct);
        assert!(r.failed >= 1);
        let r = run_config(&args(false), &cfg, Some(good), Instant::now()).unwrap();
        assert!(r.correct);
    }
}
