//! The `route_small` and `route_large` workloads: a warm `RlRouter`
//! routing a fixed ladder of layouts again and again, one route at a time.

use std::collections::BTreeMap;
use std::time::Instant;

use oarsmt::features::{encode_features_into, to_graph_order_into};
use oarsmt::parallel::derive_seed;
use oarsmt::selector::{NeuralSelector, SharedSelector};
use oarsmt::topk::{select_top_k_into, steiner_budget};
use oarsmt::RlRouter;
use oarsmt_geom::gen::{CaseGenerator, TestSubsetSpec};
use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_router::retrace::polish_round_in;
use oarsmt_router::{Lin18Router, OarmstRouter, RouteContext, RouteError, RouteTree};
use oarsmt_telemetry::{Counter, CounterSet};

use crate::stats::{median, Fnv};
use crate::trace::SpanLog;
use crate::{Args, Report, Timed, Workload};

/// Each rung routes this many times its ladder layout count: more
/// distinct layouts make a run's totals depend less on the seed, and at 3×
/// the p90 of `route_large` has more than ten distinct layouts beyond it.
const LAYOUT_FACTOR: usize = 3;

/// The ladder rungs (`TestSubsetSpec::ladder`) a route workload routes.
pub fn rungs(workload: Workload) -> Vec<TestSubsetSpec> {
    let names: &[&str] = match workload {
        Workload::RouteSmall => &["T32", "T64", "T128"],
        _ => &["T256", "T256_2", "T512"],
    };
    TestSubsetSpec::ladder()
        .into_iter()
        .filter(|s| names.contains(&s.name))
        .map(|s| TestSubsetSpec {
            layouts: s.layouts * LAYOUT_FACTOR,
            ..s
        })
        .collect()
}

/// One routable layout with its set-up reference.
struct Case {
    graph: HananGraph,
    /// Cost of the pins-only OARMST: the safeguard's upper bound and the
    /// base of `cost_ratio`.
    plain_cost: f64,
}

/// What the warm pass produced for one layout; every later route of it
/// must reproduce this bit for bit.
struct Reference {
    tree: RouteTree,
    steiner: Vec<GridPoint>,
    hash: u64,
}

struct Setup {
    selector: NeuralSelector,
    cases: Vec<Case>,
    router: RlRouter<SharedSelector>,
    reference: Vec<Option<Reference>>,
    /// FNV over the per-layout hashes of the warm pass.
    result_hash: u64,
    /// Warm-pass routes that failed or broke an output invariant.
    warm_failed: u64,
    /// Mean ours/pins-only-OARMST tree cost over the layouts.
    cost_ratio: f64,
}

/// FNV over a tree's cost bits and edge list.
fn tree_hash(tree: &RouteTree) -> u64 {
    let mut h = Fnv::new();
    h.u64(tree.cost().to_bits());
    h.u64(tree.edge_count() as u64);
    for &(a, b) in tree.edges() {
        h.u64((u64::from(a) << 32) | u64::from(b));
    }
    h.finish()
}

/// The output invariants: the tree spans the pins, is a tree, and costs no
/// more than the pins-only OARMST (the safeguard bound).
fn tree_is_valid(case: &Case, tree: &RouteTree) -> bool {
    let g = &case.graph;
    tree.cost().is_finite()
        && tree.spans_in(g, g.pins())
        && tree.is_tree()
        && tree.cost() <= case.plain_cost + 1e-9
}

/// The generator for slot `i` of an `n`-layout rung: the rung's own
/// configuration with its pin and obstacle counts fixed to stratified
/// points of the rung's ranges, so every run covers each range evenly
/// whatever the seed (the seed then draws positions and costs).
fn slot_generator(spec: &TestSubsetSpec, i: usize, seed: u64) -> CaseGenerator {
    let n = spec.layouts as f64;
    let at = |(lo, hi): (usize, usize), q: f64| {
        let v = lo + (q * (hi - lo + 1) as f64) as usize;
        (v.min(hi), v.min(hi))
    };
    let q = (i as f64 + 0.5) / n;
    // Obstacle counts follow a golden-ratio sequence so they do not move in
    // step with the pin counts.
    let q_obst = ((i as f64 + 0.5) * 0.618_033_988_749_894_9).fract();
    let mut cfg = spec.generator(0).config().clone();
    cfg.pins = at(spec.pins, q);
    cfg.obstacles = at(spec.obstacles, q_obst);
    CaseGenerator::new(cfg, seed)
}

/// Generates the layouts, routes each with the pins-only OARMST, and does
/// one untimed warm pass with full output checks. Layouts whose pins are
/// walled off (the pins-only OARMST finds them disconnected) are replaced
/// by the next seeded draw.
fn set_up(specs: &[TestSubsetSpec], seed: u64) -> Result<Setup, String> {
    let selector = crate::load_selector()?;
    let plain = OarmstRouter::new().with_polish_rounds(0);
    let mut cases = Vec::new();
    for (r, spec) in specs.iter().enumerate() {
        for i in 0..spec.layouts {
            let mut gen =
                slot_generator(spec, i, derive_seed(derive_seed(seed, r as u64), i as u64));
            let mut routable = None;
            for _ in 0..16 {
                let graph = gen.generate();
                match plain.route(&graph, &[]) {
                    Ok(tree) => {
                        routable = Some(Case {
                            plain_cost: tree.cost(),
                            graph,
                        });
                        break;
                    }
                    Err(RouteError::Disconnected { .. } | RouteError::BlockedTerminal(_)) => {}
                    Err(e) => return Err(format!("OARMST failed on a {} layout: {e}", spec.name)),
                }
            }
            cases.push(
                routable.ok_or_else(|| format!("no routable draw for {} slot {i}", spec.name))?,
            );
        }
    }

    let mut router = RlRouter::new(SharedSelector::new(selector.clone()));
    let mut reference = Vec::with_capacity(cases.len());
    let mut result = Fnv::new();
    let (mut warm_failed, mut ratio_sum) = (0, 0.0);
    for case in &cases {
        let r = match router.route(&case.graph) {
            Ok(out) if tree_is_valid(case, &out.tree) => {
                ratio_sum += out.tree.cost() / case.plain_cost;
                Some(Reference {
                    hash: tree_hash(&out.tree),
                    tree: out.tree,
                    steiner: out.steiner_points,
                })
            }
            _ => None,
        };
        warm_failed += u64::from(r.is_none());
        result.u64(r.as_ref().map_or(0, |r| r.hash));
        reference.push(r);
    }
    Ok(Setup {
        selector,
        cost_ratio: ratio_sum / cases.len() as f64,
        cases,
        router,
        reference,
        result_hash: result.finish(),
        warm_failed,
    })
}

/// Routes every layout with `RlRouter::route`, pass after pass, until
/// `seconds` have elapsed (always at least one pass); each result must
/// match the warm pass bit for bit.
fn timed_passes(s: &mut Setup, seconds: f64, out: &mut Timed) {
    let start = Instant::now();
    loop {
        let pass = Instant::now();
        for (case, reference) in s.cases.iter().zip(&s.reference) {
            let t = Instant::now();
            let res = s.router.route(std::hint::black_box(&case.graph));
            out.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let ok = matches!((&res, reference), (Ok(o), Some(r)) if tree_hash(&o.tree) == r.hash);
            out.attempted += 1;
            out.failed += u64::from(!ok);
        }
        out.pass_rates
            .push(s.cases.len() as f64 / pass.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            return;
        }
    }
}

pub fn run(args: &Args, process_start: Instant) -> Result<Report, String> {
    run_specs(args, &rungs(args.workload), None, process_start)
}

/// [`run`] over explicit rungs, optionally against an explicit pinned hash.
fn run_specs(
    args: &Args,
    specs: &[TestSubsetSpec],
    pinned: Option<u64>,
    process_start: Instant,
) -> Result<Report, String> {
    // Each repetition sets up afresh and then times its share of
    // `--seconds`, so the set-ups sample the whole run. The first set-up is
    // timed from process start.
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
        let mut s = set_up(specs, args.seed)?;
        setup_times.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            timed.peak_rss_mb = crate::peak_rss_mb();
        }
        let hash_ok = match first_hash {
            None => crate::pinned_hash_ok(args, s.result_hash, pinned),
            Some(h) => h == s.result_hash,
        };
        first_hash = Some(s.result_hash);
        let n = s.cases.len() as u64;
        timed.attempted += n;
        timed.failed += if hash_ok { s.warm_failed } else { n };
        timed_passes(&mut s, seconds, &mut timed);
        kept = Some(s);
    }
    let mut s = kept.expect("at least one set-up");
    if !args.trace {
        return Ok(timed.report(&setup_times, s.cost_ratio));
    }
    let mut report = Report {
        correct: timed.failed == 0,
        attempted: timed.attempted,
        failed: timed.failed,
        metrics: Vec::new(),
    };
    let (traced, log) = traced_passes(&mut s, seconds, args)?;
    report.attempted += traced.routes;
    report.failed += traced.failed;
    report.correct &= traced.failed == 0;
    let mut values = BTreeMap::new();
    traced.layer_metrics(&log, &s, median(&timed.pass_rates), &mut values);
    report.metrics = crate::metrics(&crate::PER_LAYER, &values);
    Ok(report)
}

/// Per-layer work and outcome tallies of the traced pipeline.
#[derive(Default)]
struct Traced {
    routes: u64,
    failed: u64,
    /// Traced routes per second, median over passes.
    rate: f64,
    macs: u64,
    /// Dijkstra work inside the OARMST builds and polish rounds.
    pops: u64,
    relax: u64,
    candidates: u64,
    pruned: u64,
    pool_hits: u64,
    pool_misses: u64,
    polish_rounds: u64,
    polish_improved: u64,
    rebuilds: u64,
    rebuilds_accepted: u64,
    safeguard_wins: u64,
    /// \[14\]'s total route time over the layouts, and the mean
    /// ours/\[14\] tree cost (Tables 3 and 2).
    lin18_ns: u64,
    lin18_cost_ratio: f64,
}

/// Routes every layout through [`route_traced`] until `seconds` have
/// elapsed, asserting each result equals `RlRouter::route`'s.
fn traced_passes(s: &mut Setup, seconds: f64, args: &Args) -> Result<(Traced, SpanLog), String> {
    let mut sel = s.selector.clone();
    let mut ctx = RouteContext::new();
    let mut log = SpanLog::new(Instant::now());
    let mut acc = Traced::default();
    // The \[14\] comparator, routed once per layout.
    let lin18 = Lin18Router::new();
    for (case, reference) in s.cases.iter().zip(&s.reference) {
        let t = Instant::now();
        let base = lin18
            .route(&case.graph)
            .map_err(|e| format!("[14] failed on a routable layout: {e}"))?;
        acc.lin18_ns += t.elapsed().as_nanos() as u64;
        if let Some(r) = reference {
            acc.lin18_cost_ratio += r.tree.cost() / base.cost() / s.cases.len() as f64;
        }
    }
    let mut rates = Vec::new();
    let start = Instant::now();
    loop {
        let pass = Instant::now();
        for (case, reference) in s.cases.iter().zip(&s.reference) {
            let op = acc.routes as u32;
            acc.routes += 1;
            let res = route_traced(&mut sel, &mut ctx, &case.graph, &mut log, op, &mut acc);
            let same = matches!((&res, reference), (Ok((tree, steiner)), Some(r))
                if tree == &r.tree && tree.cost().to_bits() == r.tree.cost().to_bits()
                    && steiner == &r.steiner);
            acc.failed += u64::from(!same);
            if let Ok((tree, _)) = res {
                ctx.recycle_tree(tree);
            }
        }
        rates.push(s.cases.len() as f64 / pass.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    acc.rate = median(&rates);
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

/// `RlRouter::route` rebuilt from its public calls, with a span around
/// each layer call and counter deltas around the routing calls. Must stay
/// in step with `crates/core/src/rl_router.rs`: the traced run fails on
/// any difference in the result.
fn route_traced(
    sel: &mut NeuralSelector,
    ctx: &mut RouteContext,
    graph: &HananGraph,
    log: &mut SpanLog,
    op: u32,
    acc: &mut Traced,
) -> Result<(RouteTree, Vec<GridPoint>), RouteError> {
    let root = log.begin("route", op, None);
    let before_route = ctx.counters_total();
    let res = route_traced_inner(sel, ctx, graph, log, op, root, acc);
    let d = ctx.counters_total().delta_since(&before_route);
    acc.pruned += d.get(Counter::SteinerPruned);
    acc.pool_hits += d.get(Counter::TreePoolHits);
    acc.pool_misses += d.get(Counter::TreePoolMisses);
    log.end(root);
    res
}

fn route_traced_inner(
    sel: &mut NeuralSelector,
    ctx: &mut RouteContext,
    graph: &HananGraph,
    log: &mut SpanLog,
    op: u32,
    root: u32,
    acc: &mut Traced,
) -> Result<(RouteTree, Vec<GridPoint>), RouteError> {
    let net = &*sel.net_mut();
    let oarmst = OarmstRouter::new().with_polish_rounds(0);
    let k = steiner_budget(graph.pins().len());

    let span = log.begin("features.encode", op, Some(root));
    let x = encode_features_into(graph, &[], &mut ctx.nn);
    log.end(span);

    let span = log.begin("nn.infer", op, Some(root));
    let before = ctx.counters_total();
    let probs = net.infer_in(&x, &mut ctx.nn);
    to_graph_order_into(probs.data(), graph, &mut ctx.fsp);
    ctx.nn.free(probs);
    ctx.nn.free(x);
    acc.macs += ctx.counters_total().delta_since(&before).total_macs();
    log.end(span);

    let span = log.begin("topk.select", op, Some(root));
    let mut steiner = Vec::new();
    select_top_k_into(
        graph,
        &ctx.fsp,
        k,
        &[],
        &mut ctx.scored,
        &mut ctx.excluded,
        &mut steiner,
    );
    log.end(span);

    // One routing call under a span, with its Dijkstra work tallied.
    let routed = |name: &'static str,
                  log: &mut SpanLog,
                  ctx: &mut RouteContext,
                  acc: &mut Traced,
                  call: &mut dyn FnMut(&mut RouteContext) -> Result<RouteTree, RouteError>|
     -> Result<RouteTree, RouteError> {
        let span = log.begin(name, op, Some(root));
        let before = ctx.counters_total();
        let r = call(ctx);
        let d: CounterSet = ctx.counters_total().delta_since(&before);
        acc.pops += d.get(Counter::DijkstraPops);
        acc.relax += d.get(Counter::DijkstraRelaxations);
        log.end(span);
        r
    };

    acc.candidates += steiner.len() as u64;
    let mut tree = routed("oarmst.build", log, ctx, acc, &mut |c| {
        oarmst.route_in(c, graph, &steiner)
    })?;
    let plain = routed("oarmst.safeguard", log, ctx, acc, &mut |c| {
        oarmst.route_in(c, graph, &[])
    })?;
    if plain.cost() < tree.cost() {
        acc.safeguard_wins += 1;
        ctx.recycle_tree(std::mem::replace(&mut tree, plain));
    } else {
        ctx.recycle_tree(plain);
    }
    for round in 0..4 {
        let mut terminals: Vec<GridPoint> = graph.pins().to_vec();
        terminals.extend(tree.steiner_vertices(graph, graph.pins()));
        for _ in 0..8 {
            let mut improved = false;
            let mut current = Some(tree);
            let polished = routed("retrace.polish", log, ctx, acc, &mut |c| {
                let (t, imp) =
                    polish_round_in(c, graph, current.take().expect("one call"), &terminals)?;
                improved = imp;
                Ok(t)
            })?;
            tree = polished;
            acc.polish_rounds += 1;
            acc.polish_improved += u64::from(improved);
            if !improved {
                break;
            }
        }
        let mut promoted = tree.steiner_vertices(graph, graph.pins());
        promoted.extend_from_slice(&steiner);
        acc.candidates += promoted.len() as u64;
        let rebuilt = routed("oarmst.rebuild", log, ctx, acc, &mut |c| {
            oarmst
                .clone()
                .with_start(round)
                .route_in(c, graph, &promoted)
        })?;
        acc.rebuilds += 1;
        if rebuilt.cost() + 1e-9 < tree.cost() {
            acc.rebuilds_accepted += 1;
            ctx.recycle_tree(std::mem::replace(&mut tree, rebuilt));
        } else {
            ctx.recycle_tree(rebuilt);
            break;
        }
    }
    Ok((tree, steiner))
}

impl Traced {
    fn layer_metrics(
        &self,
        log: &SpanLog,
        s: &Setup,
        untraced_rate: f64,
        out: &mut BTreeMap<&'static str, f64>,
    ) {
        let totals = log.totals();
        let ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
        let per_route = |v: f64| v / self.routes.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let select_ns = ns("features.encode") + ns("nn.infer") + ns("topk.select");
        let routing_ns = ns("oarmst.build")
            + ns("oarmst.safeguard")
            + ns("oarmst.rebuild")
            + ns("retrace.polish");
        out.insert("features.encode_us", per_route(ns("features.encode")) / 1e3);
        out.insert("nn.infer_us", per_route(ns("nn.infer")) / 1e3);
        out.insert(
            "nn.infer_gflops",
            2.0 * self.macs as f64 / ns("nn.infer").max(1.0),
        );
        out.insert("topk.select_us", per_route(ns("topk.select")) / 1e3);
        out.insert("select_share", select_ns / ns("route").max(1.0));
        out.insert(
            "route.self_us",
            per_route(totals.get("route").map_or(0, |t| t.self_ns) as f64) / 1e3,
        );
        out.insert("oarmst.build_ms", per_route(ns("oarmst.build")) / 1e6);
        out.insert(
            "oarmst.safeguard_ms",
            per_route(ns("oarmst.safeguard")) / 1e6,
        );
        out.insert("oarmst.rebuild_ms", per_route(ns("oarmst.rebuild")) / 1e6);
        out.insert("retrace.polish_ms", per_route(ns("retrace.polish")) / 1e6);
        out.insert(
            "retrace.rounds_per_route",
            per_route(self.polish_rounds as f64),
        );
        out.insert("graph.pops_per_route", per_route(self.pops as f64));
        out.insert("graph.relax_per_pop", ratio(self.relax, self.pops));
        out.insert(
            "graph.pops_per_us",
            self.pops as f64 / (routing_ns / 1e3).max(1e-9),
        );
        out.insert(
            "retrace.improved_ratio",
            ratio(self.polish_improved, self.polish_rounds),
        );
        out.insert(
            "refine.rebuild_accept_ratio",
            ratio(self.rebuilds_accepted, self.rebuilds),
        );
        out.insert(
            "safeguard.win_ratio",
            ratio(self.safeguard_wins, self.routes),
        );
        out.insert("steiner.pruned_ratio", ratio(self.pruned, self.candidates));
        out.insert(
            "router.tree_pool_hit_ratio",
            ratio(self.pool_hits, self.pool_hits + self.pool_misses),
        );
        let lin18_ns = self.lin18_ns as f64;
        out.insert("lin18.route_ms", lin18_ns / s.cases.len() as f64 / 1e6);
        out.insert("lin18.cost_ratio", self.lin18_cost_ratio);
        // Ours: one untraced pass over the same layouts takes n / rate seconds.
        out.insert(
            "speedup_vs_lin18",
            lin18_ns / 1e9 / (s.cases.len() as f64 / untraced_rate),
        );
        out.insert(
            "trace.overhead_pct",
            100.0 * (untraced_rate - self.rate) / untraced_rate,
        );
        eprintln!(
            "e2ebench: untraced {untraced_rate:.3} routes/s, traced {:.3} routes/s",
            self.rate
        );
        for (name, t) in &totals {
            eprintln!(
                "e2ebench: span {name:<18} n={:<8} total={:>10.3} ms self={:>10.3} ms",
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

    fn tiny_specs() -> Vec<TestSubsetSpec> {
        let mut spec = rungs(Workload::RouteSmall).remove(0);
        spec.layouts = 6;
        vec![spec]
    }

    fn args(trace: bool) -> Args {
        Args {
            workload: Workload::RouteSmall,
            seed: 11,
            seconds: 0.05,
            trace,
        }
    }

    #[test]
    fn unperturbed_run_is_correct_and_the_rebuilt_pipeline_matches() {
        for trace in [false, true] {
            let r = run_specs(&args(trace), &tiny_specs(), None, Instant::now()).unwrap();
            assert!(r.correct, "trace={trace}");
            assert_eq!(r.failed, 0);
            assert!(r.attempted >= 12);
        }
    }

    #[test]
    fn perturbed_pinned_hash_fails_the_run() {
        let specs = tiny_specs();
        let good = set_up(&specs, 11).unwrap().result_hash;
        let r = run_specs(&args(false), &specs, Some(good ^ 1), Instant::now()).unwrap();
        assert!(!r.correct);
        assert!(r.failed >= 6);
        let r = run_specs(&args(false), &specs, Some(good), Instant::now()).unwrap();
        assert!(r.correct);
    }
}
