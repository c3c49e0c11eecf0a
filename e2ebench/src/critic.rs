//! The `critic_small` workload: the MCTS critic pricing search states on
//! the training stage's small layouts, one state at a time.
//!
//! An operation is the routing work one combinatorial-MCTS leaf does with
//! the critic on: `Critic::predict_with_fsp_in` (complete the state with
//! the selector's top-k and price the pruned OARMST) followed by
//! `Critic::state_cost_in` (price the state as it stands). The selector's
//! output for each state is computed in set-up, so the timed loop runs the
//! `topk`, `router` and `graph` layers only, the way sample generation uses
//! them: many cost-only routes on graphs of at most 128 vertices.

use std::collections::BTreeMap;
use std::time::Instant;

use oarsmt::parallel::derive_seed;
use oarsmt::selector::{NeuralSelector, Selector};
use oarsmt::topk::{select_top_k, steiner_budget};
use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_mcts::Critic;
use oarsmt_rl::schedule::laptop_schedule;
use oarsmt_router::{RouteContext, RouteError};
use oarsmt_telemetry::Counter;

use crate::stats::{median, Fnv};
use crate::trace::SpanLog;
use crate::{Args, Report, Timed};

/// Layouts per training size (`laptop_schedule` has three sizes).
const LAYOUTS_PER_SIZE: usize = 40;

/// One search state: a layout and the Steiner points selected so far, with
/// the selector's final selected probabilities for it.
struct State {
    case: usize,
    selected: Vec<GridPoint>,
    fsp: Vec<f32>,
}

struct Setup {
    cases: Vec<HananGraph>,
    states: Vec<State>,
    /// Bits of (predicted, state cost) per state from the warm pass.
    reference: Vec<(u64, u64)>,
    result_hash: u64,
    warm_failed: u64,
    /// Mean over layouts of the cheapest state cost ÷ the pins-only cost.
    cost_ratio: f64,
}

/// Prices one state as an MCTS leaf does.
fn price(
    critic: &Critic,
    ctx: &mut RouteContext,
    graph: &HananGraph,
    st: &State,
) -> Result<(f64, f64), RouteError> {
    let predicted = critic.predict_with_fsp_in(ctx, graph, &st.selected, &st.fsp)?;
    let cost = critic.state_cost_in(ctx, graph, &st.selected)?;
    Ok((predicted, cost))
}

fn valid((predicted, cost): (f64, f64)) -> bool {
    predicted.is_finite() && predicted > 0.0 && cost.is_finite() && cost > 0.0
}

/// Generates the layouts of the post-curriculum training stage (sizes and
/// pin range of `laptop_schedule`, pin counts stratified over the range),
/// derives every state along the selector's top-k path of each, and prices
/// all states once, untimed, with the output checks. Layouts whose pins
/// are walled off are replaced by the slot's next draw.
fn set_up(seed: u64) -> Result<Setup, String> {
    let mut selector: NeuralSelector = crate::load_selector()?;
    let critic = Critic::new();
    let mut ctx = RouteContext::new();
    let schedule = laptop_schedule(seed);
    let (lo, hi) = schedule.pin_range;
    let mut cases = Vec::new();
    for (r, &(h, v, m)) in schedule.sizes.iter().enumerate() {
        for i in 0..LAYOUTS_PER_SIZE {
            let q = (i as f64 + 0.5) / LAYOUTS_PER_SIZE as f64;
            let pins = (lo + (q * (hi - lo + 1) as f64) as usize).min(hi);
            let cfg = GeneratorConfig::paper_costs(h, v, m, (pins, pins));
            let mut gen =
                CaseGenerator::new(cfg, derive_seed(derive_seed(seed, r as u64), i as u64));
            let mut routable = None;
            for _ in 0..16 {
                let graph = gen.generate();
                match critic.state_cost_in(&mut ctx, &graph, &[]) {
                    Ok(_) => {
                        routable = Some(graph);
                        break;
                    }
                    Err(RouteError::Disconnected { .. } | RouteError::BlockedTerminal(_)) => {}
                    Err(e) => return Err(format!("OARMST failed on a {h}x{v}x{m} layout: {e}")),
                }
            }
            cases.push(
                routable.ok_or_else(|| format!("no routable draw for {h}x{v}x{m} slot {i}"))?,
            );
        }
    }

    let mut states = Vec::new();
    for (case, graph) in cases.iter().enumerate() {
        let fsp = selector.fsp(graph, &[]);
        let path = select_top_k(graph, &fsp, steiner_budget(graph.pins().len()), &[]);
        for level in 0..=path.len() {
            let selected = path[..level].to_vec();
            let fsp = selector.fsp(graph, &selected);
            states.push(State {
                case,
                selected,
                fsp,
            });
        }
    }

    let mut reference = Vec::with_capacity(states.len());
    let mut result = Fnv::new();
    let mut warm_failed = 0;
    // Per layout: (pins-only cost, cheapest state cost).
    let mut costs: Vec<(f64, f64)> = vec![(0.0, f64::INFINITY); cases.len()];
    for st in &states {
        let bits = match price(&critic, &mut ctx, &cases[st.case], st) {
            Ok(p) if valid(p) => {
                let c = &mut costs[st.case];
                if st.selected.is_empty() {
                    c.0 = p.1;
                }
                c.1 = c.1.min(p.1);
                (p.0.to_bits(), p.1.to_bits())
            }
            _ => {
                warm_failed += 1;
                (0, 0)
            }
        };
        result.u64(bits.0);
        result.u64(bits.1);
        reference.push(bits);
    }
    let cost_ratio =
        costs.iter().map(|&(plain, best)| best / plain).sum::<f64>() / cases.len() as f64;
    Ok(Setup {
        cases,
        states,
        reference,
        result_hash: result.finish(),
        warm_failed,
        cost_ratio,
    })
}

/// Prices every state, pass after pass, until `seconds` have elapsed
/// (always at least one pass); each result must match the warm pass bit
/// for bit.
fn timed_passes(s: &Setup, seconds: f64, out: &mut Timed) {
    let critic = Critic::new();
    let mut ctx = RouteContext::new();
    let start = Instant::now();
    loop {
        let pass = Instant::now();
        for (st, reference) in s.states.iter().zip(&s.reference) {
            let t = Instant::now();
            let res = price(
                &critic,
                &mut ctx,
                std::hint::black_box(&s.cases[st.case]),
                st,
            );
            out.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let ok = matches!(res, Ok((p, c)) if (p.to_bits(), c.to_bits()) == *reference);
            out.attempted += 1;
            out.failed += u64::from(!ok);
        }
        out.pass_rates
            .push(s.states.len() as f64 / pass.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

pub fn run(args: &Args, process_start: Instant) -> Result<Report, String> {
    run_pinned(args, None, process_start)
}

/// [`run`], optionally against an explicit pinned hash.
fn run_pinned(args: &Args, pinned: Option<u64>, process_start: Instant) -> Result<Report, String> {
    // As on the route workloads: each repetition sets up afresh and times
    // its share of `--seconds`; the first set-up is timed from process
    // start.
    let reps = if args.trace { 1 } else { crate::SETUP_REPS };
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds / reps as f64
    };
    let mut setup_times = Vec::with_capacity(reps);
    let mut timed = Timed::default();
    let mut first_hash = None;
    let mut kept = None;
    for rep in 0..reps {
        let t = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let s = set_up(args.seed)?;
        setup_times.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            timed.peak_rss_mb = crate::peak_rss_mb();
        }
        let hash_ok = match first_hash {
            None => crate::pinned_hash_ok(args, s.result_hash, pinned),
            Some(h) => h == s.result_hash,
        };
        first_hash = Some(s.result_hash);
        let n = s.states.len() as u64;
        timed.attempted += n;
        timed.failed += if hash_ok { s.warm_failed } else { n };
        timed_passes(&s, seconds, &mut timed);
        kept = Some(s);
    }
    let s = kept.expect("at least one set-up");
    if !args.trace {
        return Ok(timed.report(&setup_times, s.cost_ratio));
    }
    let mut report = Report {
        correct: timed.failed == 0,
        attempted: timed.attempted,
        failed: timed.failed,
        metrics: Vec::new(),
    };
    let traced = traced_passes(&s, seconds, args)?;
    report.attempted += traced.ops;
    report.failed += traced.failed;
    report.correct &= traced.failed == 0;
    let mut values = BTreeMap::new();
    traced.layer_metrics(median(&timed.pass_rates), &mut values);
    report.metrics = crate::metrics(&crate::PER_LAYER, &values);
    Ok(report)
}

/// Work tallies of the traced passes.
#[derive(Default)]
struct Traced {
    ops: u64,
    failed: u64,
    /// Traced states per second, median over passes.
    rate: f64,
    /// Time inside the two critic calls.
    routing_ns: u64,
    pops: u64,
    relax: u64,
    candidates: u64,
    pruned: u64,
    pool_hits: u64,
    pool_misses: u64,
}

/// Prices every state with a span around each critic call and counter
/// deltas around each state, until `seconds` have elapsed; each result
/// must match the warm pass.
fn traced_passes(s: &Setup, seconds: f64, args: &Args) -> Result<Traced, String> {
    let critic = Critic::new();
    let mut ctx = RouteContext::new();
    let mut log = SpanLog::new(Instant::now());
    let mut acc = Traced::default();
    let mut rates = Vec::new();
    let start = Instant::now();
    loop {
        let pass = Instant::now();
        for (st, reference) in s.states.iter().zip(&s.reference) {
            let graph = &s.cases[st.case];
            let op = acc.ops as u32;
            acc.ops += 1;
            let before = ctx.counters_total();
            let root = log.begin("critic.state", op, None);
            let span = log.begin("critic.predict", op, Some(root));
            let predicted = critic.predict_with_fsp_in(&mut ctx, graph, &st.selected, &st.fsp);
            log.end(span);
            let span = log.begin("critic.state_cost", op, Some(root));
            let cost = critic.state_cost_in(&mut ctx, graph, &st.selected);
            log.end(span);
            log.end(root);
            let d = ctx.counters_total().delta_since(&before);
            acc.pops += d.get(Counter::DijkstraPops);
            acc.relax += d.get(Counter::DijkstraRelaxations);
            acc.pruned += d.get(Counter::SteinerPruned);
            acc.pool_hits += d.get(Counter::TreePoolHits);
            acc.pool_misses += d.get(Counter::TreePoolMisses);
            acc.candidates += steiner_budget(graph.pins().len()) as u64;
            let same = matches!((predicted, cost), (Ok(p), Ok(c))
                if (p.to_bits(), c.to_bits()) == *reference);
            acc.failed += u64::from(!same);
        }
        rates.push(s.states.len() as f64 / pass.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    acc.rate = median(&rates);
    let totals = log.totals();
    acc.routing_ns = ["critic.predict", "critic.state_cost"]
        .iter()
        .filter_map(|n| totals.get(*n))
        .map(|t| t.total_ns)
        .sum();
    let path = crate::trace_dir().join(format!("{:?}-seed{}.json", args.workload, args.seed));
    log.write_chrome(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "e2ebench: {} spans written to {}",
        log.spans().len(),
        path.display()
    );
    for (name, t) in &totals {
        eprintln!(
            "e2ebench: span {name:<18} n={:<8} total={:>10.3} ms self={:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    Ok(acc)
}

impl Traced {
    /// The `graph` and `router` metrics; a critic state is two routes.
    fn layer_metrics(&self, untraced_rate: f64, out: &mut BTreeMap<&'static str, f64>) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.insert("graph.pops_per_route", ratio(self.pops, 2 * self.ops));
        out.insert("graph.relax_per_pop", ratio(self.relax, self.pops));
        out.insert(
            "graph.pops_per_us",
            self.pops as f64 / (self.routing_ns as f64 / 1e3).max(1e-9),
        );
        out.insert("steiner.pruned_ratio", ratio(self.pruned, self.candidates));
        out.insert(
            "router.tree_pool_hit_ratio",
            ratio(self.pool_hits, self.pool_hits + self.pool_misses),
        );
        out.insert(
            "trace.overhead_pct",
            100.0 * (untraced_rate - self.rate) / untraced_rate.max(1e-9),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    fn args(trace: bool) -> Args {
        Args {
            workload: Workload::CriticSmall,
            seed: 5,
            seconds: 0.01,
            trace,
        }
    }

    #[test]
    fn perturbed_pinned_hash_fails_the_run() {
        let good = set_up(5).unwrap().result_hash;
        let r = run_pinned(&args(false), Some(good ^ 1), Instant::now()).unwrap();
        assert!(!r.correct);
        assert!(r.failed >= 1);
        let r = run_pinned(&args(false), Some(good), Instant::now()).unwrap();
        assert!(r.correct);
        let r = run_pinned(&args(true), Some(good), Instant::now()).unwrap();
        assert!(r.correct);
    }
}
