//! Differential oracle for the resumable Prim field (DESIGN.md §12.6).
//!
//! `OarmstRouter` grows one multi-source Dijkstra across all Prim steps of
//! a build (Auto/Heap/Dial). The oracle below is the construction it
//! replaced: every Prim step restarts a heap Dijkstra from the whole current
//! tree through the public `DijkstraWorkspace::search_into` API. The two
//! must agree exactly — edge lists, cost bits and `RouteError` values — on
//! the unpruned build and on the full route (prune rounds + polish), across:
//!
//! * 500 seeds of integer (paper-cost) layouts with random candidates and
//!   random Prim start terminals, unbounded and bounded (margins 0–3);
//! * fractional cost models (`HananGraph::with_costs`);
//! * candidates walled into pockets (dropped) and pins walled into pockets
//!   (a fatal `Disconnected`);
//! * uniform-cost grids, where equal-cost ties are everywhere.

use std::collections::HashSet;

use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::{GridPoint, HananGraph, VertexKind};
use oarsmt_graph::dijkstra::{DijkstraWorkspace, SearchBounds};
use oarsmt_graph::{GridAdjacency, StampMap};
use oarsmt_router::prune::retain_irredundant_in;
use oarsmt_router::retrace::polish_round_policy_in;
use oarsmt_router::{OarmstRouter, QueuePolicy, RouteContext, RouteError, RouteTree};
use oarsmt_telemetry::Counter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The router's candidate filter: drop out-of-bounds, blocked, pin and
/// duplicate candidates, preserving order.
fn dedup(graph: &HananGraph, candidates: &[GridPoint]) -> Vec<GridPoint> {
    let mut seen: HashSet<GridPoint> = graph.pins().iter().copied().collect();
    candidates
        .iter()
        .copied()
        .filter(|&c| graph.in_bounds(c) && !graph.is_blocked(c) && seen.insert(c))
        .collect()
}

/// One maze-based Prim pass over `pins + candidates`, restarting a heap
/// Dijkstra from the whole current tree at every step.
fn restart_build(
    ws: &mut DijkstraWorkspace,
    graph: &HananGraph,
    candidates: &[GridPoint],
    start: usize,
    margin: Option<usize>,
) -> Result<RouteTree, RouteError> {
    let pins = graph.pins();
    let terminals: Vec<GridPoint> = pins.iter().chain(candidates).copied().collect();
    if let Some(&p) = pins.iter().find(|&&p| graph.is_blocked(p)) {
        return Err(RouteError::BlockedTerminal(p));
    }
    let bounds = margin.map(|m| SearchBounds::around(graph, terminals.iter().copied(), m));
    let first = terminals[start % terminals.len()];
    let pin_set: HashSet<usize> = pins.iter().map(|&p| graph.index(p)).collect();
    let mut unconnected: HashSet<usize> = terminals.iter().map(|&t| graph.index(t)).collect();
    unconnected.remove(&graph.index(first));
    let mut tree_vertices = vec![first];
    let mut in_tree: HashSet<usize> = HashSet::from([graph.index(first)]);
    let mut adj = GridAdjacency::new();
    adj.ensure(graph);
    let mut tree = RouteTree::new();
    let mut path = Vec::new();
    while !unconnected.is_empty() {
        let searched = ws.search_into(
            graph,
            &adj,
            &tree_vertices,
            |i| unconnected.contains(&i),
            bounds,
            QueuePolicy::Heap,
            &[],
            &mut path,
        );
        if let Err(e) = searched {
            if unconnected.iter().any(|i| pin_set.contains(i)) {
                return Err(RouteError::from(e));
            }
            break;
        }
        for w in path.windows(2) {
            tree.add_edge(graph, w[0], w[1]);
        }
        for &p in &path {
            let idx = graph.index(p);
            if in_tree.insert(idx) {
                tree_vertices.push(p);
            }
            unconnected.remove(&idx);
        }
    }
    Ok(tree)
}

/// `OarmstRouter::route` with every build replaced by [`restart_build`]:
/// the same prune loop (8 rounds) and one polish round under `policy`.
fn restart_route(
    graph: &HananGraph,
    candidates: &[GridPoint],
    start: usize,
    margin: Option<usize>,
    policy: QueuePolicy,
) -> Result<RouteTree, RouteError> {
    let pins = graph.pins();
    if pins.len() < 2 {
        return Err(RouteError::TooFewTerminals(pins.len()));
    }
    let mut ws = DijkstraWorkspace::new();
    let mut kept = dedup(graph, candidates);
    let mut tree = restart_build(&mut ws, graph, &kept, start, margin)?;
    let mut degrees = StampMap::new();
    for _ in 0..8 {
        if retain_irredundant_in(&mut degrees, graph, &tree, &mut kept) == 0 {
            break;
        }
        tree = restart_build(&mut ws, graph, &kept, start, margin)?;
    }
    let terminals: Vec<GridPoint> = pins.iter().chain(&kept).copied().collect();
    let (polished, _) =
        polish_round_policy_in(&mut RouteContext::new(), graph, tree, &terminals, policy)?;
    Ok(polished)
}

fn assert_same(
    oracle: &Result<RouteTree, RouteError>,
    field: &Result<RouteTree, RouteError>,
    label: &str,
) {
    match (oracle, field) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.edges(), b.edges(), "{label}: edge list");
            assert_eq!(a.cost().to_bits(), b.cost().to_bits(), "{label}: cost bits");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{label}: error"),
        (a, b) => panic!("{label}: restart oracle {a:?} but field {b:?}"),
    }
}

fn random_points(graph: &HananGraph, rng: &mut StdRng, max: usize) -> Vec<GridPoint> {
    let n = rng.gen_range(0..=max);
    (0..n)
        .map(|_| {
            GridPoint::new(
                rng.gen_range(0..graph.h()),
                rng.gen_range(0..graph.v()),
                rng.gen_range(0..graph.m()),
            )
        })
        .collect()
}

/// Checks the unpruned build and the full route of `router` (through one
/// reused context) against the restart oracle.
struct Checker {
    ctx: RouteContext,
    field_pops: u64,
    restart_pops: u64,
}

impl Checker {
    fn new() -> Self {
        Checker {
            ctx: RouteContext::new(),
            field_pops: 0,
            restart_pops: 0,
        }
    }

    fn check(
        &mut self,
        graph: &HananGraph,
        candidates: &[GridPoint],
        start: usize,
        margin: Option<usize>,
        policy: QueuePolicy,
        label: &str,
    ) {
        let mut router = OarmstRouter::new()
            .with_start(start)
            .with_queue_policy(policy);
        if let Some(m) = margin {
            router = router.with_bounds_margin(m);
        }
        let mut ws = DijkstraWorkspace::new();
        let oracle = if graph.pins().len() < 2 {
            Err(RouteError::TooFewTerminals(graph.pins().len()))
        } else {
            restart_build(&mut ws, graph, &dedup(graph, candidates), start, margin)
        };
        let before = self.ctx.counters_total().get(Counter::DijkstraPops);
        let field = router.route_unpruned_in(&mut self.ctx, graph, candidates);
        self.field_pops += self.ctx.counters_total().get(Counter::DijkstraPops) - before;
        self.restart_pops += ws.counters.get(Counter::DijkstraPops);
        assert_same(&oracle, &field, &format!("{label} unpruned"));
        if let Ok(t) = field {
            self.ctx.recycle_tree(t);
        }

        let oracle = restart_route(graph, candidates, start, margin, policy);
        let field = router.route_in(&mut self.ctx, graph, candidates);
        assert_same(&oracle, &field, &format!("{label} route"));
        if let Ok(t) = field {
            self.ctx.recycle_tree(t);
        }
    }
}

const POLICIES: [QueuePolicy; 3] = [QueuePolicy::Auto, QueuePolicy::Heap, QueuePolicy::Dial];

#[test]
fn field_matches_restart_oracle_on_integer_layouts() {
    let mut checker = Checker::new();
    for seed in 0..500u64 {
        let g = CaseGenerator::new(GeneratorConfig::paper_costs(9, 8, 2, (2, 7)), seed).generate();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF1E1D);
        let cand = random_points(&g, &mut rng, 6);
        let start = rng.gen_range(0..8);
        let policy = POLICIES[seed as usize % POLICIES.len()];
        let margin = [None, Some(0), Some(1), Some(2), Some(3)][seed as usize % 5];
        checker.check(&g, &cand, start, margin, policy, &format!("seed {seed}"));
    }
    assert!(
        checker.field_pops < checker.restart_pops,
        "the field popped {} vertices, the restart oracle {}",
        checker.field_pops,
        checker.restart_pops
    );
}

#[test]
fn field_matches_restart_oracle_on_fractional_costs() {
    let mut checker = Checker::new();
    for seed in 0..120u64 {
        let base = CaseGenerator::new(GeneratorConfig::tiny(8, 7, 2, (2, 6)), seed).generate();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF4AC);
        let mut frac =
            |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(0.25..9.75)).collect() };
        let (x, y) = (frac(base.h() - 1), frac(base.v() - 1));
        let mut g = HananGraph::with_costs(base.h(), base.v(), base.m(), x, y, 2.375).unwrap();
        assert_eq!(
            g.integer_cost_ceiling(),
            None,
            "seed {seed}: costs are fractional"
        );
        for i in 0..base.len() {
            if base.kind_at(i) == VertexKind::Obstacle {
                g.add_obstacle_vertex(base.point(i)).unwrap();
            }
        }
        for &p in base.pins() {
            g.add_pin(p).unwrap();
        }
        let cand = random_points(&g, &mut rng, 6);
        let start = rng.gen_range(0..8);
        let margin = [None, Some(0), Some(1), Some(2), Some(3)][seed as usize % 5];
        let policy = POLICIES[seed as usize % POLICIES.len()];
        checker.check(
            &g,
            &cand,
            start,
            margin,
            policy,
            &format!("frac seed {seed}"),
        );
    }
}

/// A layout with the corner column `(h - 1, v - 1, *)` walled off on every
/// layer: it is reachable from nothing outside.
fn pocket_layout(seed: u64, pin_in_pocket: bool) -> (HananGraph, Vec<GridPoint>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x90C4E7);
    let (h, v, m) = (8, 7, 2);
    let x = (0..h - 1).map(|_| rng.gen_range(1..=9) as f64).collect();
    let y = (0..v - 1).map(|_| rng.gen_range(1..=9) as f64).collect();
    let mut g = HananGraph::with_costs(h, v, m, x, y, 3.0).unwrap();
    for l in 0..m {
        for (a, b) in [(h - 2, v - 1), (h - 2, v - 2), (h - 1, v - 2)] {
            g.add_obstacle_vertex(GridPoint::new(a, b, l)).unwrap();
        }
    }
    for _ in 0..rng.gen_range(0..6) {
        let p = GridPoint::new(
            rng.gen_range(0..h - 2),
            rng.gen_range(0..v),
            rng.gen_range(0..m),
        );
        g.add_obstacle_vertex(p).unwrap();
    }
    let pocket: Vec<GridPoint> = (0..m).map(|l| GridPoint::new(h - 1, v - 1, l)).collect();
    let (mut pins, want) = (0, rng.gen_range(2..6));
    while pins < want {
        let p = GridPoint::new(
            rng.gen_range(0..h - 2),
            rng.gen_range(0..v),
            rng.gen_range(0..m),
        );
        if g.add_pin(p).is_ok() {
            pins += 1;
        }
    }
    if pin_in_pocket {
        g.add_pin(pocket[rng.gen_range(0..m)]).unwrap();
    }
    let mut cand = random_points(&g, &mut rng, 4);
    cand.insert(rng.gen_range(0..=cand.len()), pocket[rng.gen_range(0..m)]);
    (g, cand)
}

#[test]
fn field_matches_restart_oracle_on_walled_off_pockets() {
    let mut checker = Checker::new();
    let mut dropped = 0;
    let mut fatal = 0;
    for seed in 0..100u64 {
        let pin_in_pocket = seed % 2 == 1;
        let (g, cand) = pocket_layout(seed, pin_in_pocket);
        // Start from a pocket terminal too: the field's first source is then
        // the one walled off, and every other terminal is unreachable.
        let start = if seed % 4 == 3 { g.pins().len() - 1 } else { 0 };
        let margin = [None, Some(1)][(seed / 2 % 2) as usize];
        let policy = POLICIES[seed as usize % POLICIES.len()];
        checker.check(
            &g,
            &cand,
            start,
            margin,
            policy,
            &format!("pocket seed {seed}"),
        );
        match OarmstRouter::new().with_start(start).route(&g, &cand) {
            Err(RouteError::Disconnected { .. }) => fatal += 1,
            Ok(_) => dropped += 1,
            Err(e) => panic!("pocket seed {seed}: unexpected {e}"),
        }
    }
    assert!(
        dropped >= 40,
        "only {dropped} layouts dropped a pocket candidate"
    );
    assert!(
        fatal >= 40,
        "only {fatal} layouts reported a walled-off pin"
    );
}

#[test]
fn field_matches_restart_oracle_on_uniform_cost_ties() {
    let mut checker = Checker::new();
    for seed in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x71E5);
        let (h, v, m) = (
            rng.gen_range(5..11),
            rng.gen_range(5..11),
            rng.gen_range(1..4),
        );
        let mut g = HananGraph::uniform(h, v, m, 1.0, 1.0, 1.0);
        if seed % 3 == 0 {
            for p in random_points(&g, &mut rng, 8) {
                g.add_obstacle_vertex(p).unwrap();
            }
        }
        let (mut pins, want) = (0, rng.gen_range(2..8));
        while pins < want {
            let p = random_points(&g, &mut rng, 1);
            if p.first().is_some_and(|&p| g.add_pin(p).is_ok()) {
                pins += 1;
            }
        }
        let cand = random_points(&g, &mut rng, 8);
        let start = rng.gen_range(0..10);
        let margin = [None, Some(0), Some(2)][seed as usize % 3];
        let policy = POLICIES[seed as usize % POLICIES.len()];
        checker.check(
            &g,
            &cand,
            start,
            margin,
            policy,
            &format!("uniform seed {seed}"),
        );
    }
}
