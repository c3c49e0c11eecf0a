//! Property-based tests for the graph-search substrate.

use oarsmt_geom::gen::{CaseGenerator, GeneratorConfig};
use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_graph::dijkstra::{DijkstraWorkspace, QueuePolicy, SearchBounds};
use oarsmt_graph::mst::{mst_cost, prim_mst};
use oarsmt_graph::{GraphError, GridAdjacency, UnionFind};
use oarsmt_telemetry::{Counter, CounterSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_case(seed: u64) -> HananGraph {
    CaseGenerator::new(GeneratorConfig::paper_costs(7, 6, 2, (3, 5)), seed).generate()
}

fn random_free_point(graph: &HananGraph, rng: &mut StdRng) -> GridPoint {
    loop {
        let p = GridPoint::new(
            rng.gen_range(0..graph.h()),
            rng.gen_range(0..graph.v()),
            rng.gen_range(0..graph.m()),
        );
        if !graph.is_blocked(p) {
            return p;
        }
    }
}

fn adjacency(graph: &HananGraph) -> GridAdjacency {
    let mut adj = GridAdjacency::new();
    adj.ensure(graph);
    adj
}

/// A random grid window; it may exclude the source, the target or both.
fn random_window(graph: &HananGraph, rng: &mut StdRng) -> SearchBounds {
    let h_lo = rng.gen_range(0..graph.h());
    let v_lo = rng.gen_range(0..graph.v());
    SearchBounds {
        h_lo,
        h_hi: rng.gen_range(h_lo..graph.h()),
        v_lo,
        v_hi: rng.gen_range(v_lo..graph.v()),
    }
}

/// Path, cost and op-counter delta of one query from `a` to `b` (the
/// target itself is the A* hint).
type Found = (Result<(Vec<GridPoint>, f64), GraphError>, CounterSet);

fn search(
    ws: &mut DijkstraWorkspace,
    graph: &HananGraph,
    adj: &GridAdjacency,
    (a, b): (GridPoint, GridPoint),
    bounds: Option<SearchBounds>,
    policy: QueuePolicy,
) -> Found {
    let before = ws.counters;
    let target = graph.index(b);
    let mut path = Vec::new();
    let cost = ws.search_into(
        graph,
        adj,
        &[a],
        |i| i == target,
        bounds,
        policy,
        &[b],
        &mut path,
    );
    (cost.map(|c| (path, c)), ws.counters.delta_since(&before))
}

/// An unbounded heap query on a fresh workspace.
fn shortest(
    graph: &HananGraph,
    adj: &GridAdjacency,
    a: GridPoint,
    b: GridPoint,
) -> Result<(Vec<GridPoint>, f64), GraphError> {
    let mut ws = DijkstraWorkspace::new();
    search(&mut ws, graph, adj, (a, b), None, QueuePolicy::Heap).0
}

const POLICIES: [QueuePolicy; 4] = [
    QueuePolicy::Auto,
    QueuePolicy::Heap,
    QueuePolicy::Dial,
    QueuePolicy::AStar,
];

const WORK: [Counter; 3] = [
    Counter::DijkstraPops,
    Counter::DijkstraRelaxations,
    Counter::DijkstraPushes,
];

fn cost_bits(r: &Result<(Vec<GridPoint>, f64), GraphError>) -> Result<u64, GraphError> {
    r.as_ref().map(|(_, c)| c.to_bits()).map_err(|e| e.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dijkstra_distances_satisfy_triangle_inequality(seed in 0u64..800) {
        let g = random_case(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 99);
        let a = random_free_point(&g, &mut rng);
        let b = random_free_point(&g, &mut rng);
        let c = random_free_point(&g, &mut rng);
        let adj = adjacency(&g);
        let mut ws = DijkstraWorkspace::new();
        let da = ws.distances_from(&g, &adj, a).unwrap();
        let db = ws.distances_from(&g, &adj, b).unwrap();
        let ab = da[g.index(b)];
        let bc = db[g.index(c)];
        let ac = da[g.index(c)];
        if ab.is_finite() && bc.is_finite() {
            prop_assert!(ac <= ab + bc + 1e-9);
        }
    }

    #[test]
    fn shortest_paths_are_symmetric(seed in 0u64..800) {
        let g = random_case(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 7);
        let a = random_free_point(&g, &mut rng);
        let b = random_free_point(&g, &mut rng);
        let adj = adjacency(&g);
        match (shortest(&g, &adj, a, b), shortest(&g, &adj, b, a)) {
            (Ok(p1), Ok(p2)) => prop_assert!((p1.1 - p2.1).abs() < 1e-9),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "reachability must be symmetric"),
        }
    }

    #[test]
    fn path_edges_are_grid_neighbors_with_matching_costs(seed in 0u64..800) {
        let g = random_case(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 13);
        let a = random_free_point(&g, &mut rng);
        let b = random_free_point(&g, &mut rng);
        if let Ok((path, cost)) = shortest(&g, &adjacency(&g), a, b) {
            let mut sum = 0.0;
            for w in path.windows(2) {
                let c = g.edge_cost(w[0], w[1]);
                prop_assert!(c.is_some(), "consecutive points must be neighbors");
                sum += c.unwrap();
            }
            prop_assert!((sum - cost).abs() < 1e-9);
        }
    }

    /// A reused workspace answers every query exactly like a fresh one,
    /// under every policy, unbounded and inside a random window (which may
    /// exclude the source or the target). Across policies, Dial (and Auto,
    /// which resolves to it on these integer costs) matches the heap oracle
    /// in path, cost bits and pop/relaxation/push counts; A* matches its
    /// cost bits (DESIGN.md §12.3, §12.4).
    #[test]
    fn reused_workspace_matches_fresh_searches(seed in 0u64..400) {
        let g = random_case(seed);
        let adj = adjacency(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 21);
        let mut reused = POLICIES.map(|_| DijkstraWorkspace::new());
        for _ in 0..4 {
            let ends = (random_free_point(&g, &mut rng), random_free_point(&g, &mut rng));
            for bounds in [None, Some(random_window(&g, &mut rng))] {
                let mut found = Vec::new();
                for (ws, policy) in reused.iter_mut().zip(POLICIES) {
                    let warm = search(ws, &g, &adj, ends, bounds, policy);
                    let fresh = search(&mut DijkstraWorkspace::new(), &g, &adj, ends, bounds, policy);
                    prop_assert_eq!(&warm.0, &fresh.0, "{:?} {:?}", policy, bounds);
                    prop_assert_eq!(cost_bits(&warm.0), cost_bits(&fresh.0));
                    for c in WORK {
                        prop_assert_eq!(warm.1.get(c), fresh.1.get(c), "{:?} {:?}", policy, c);
                    }
                    found.push(warm);
                }
                let [auto, heap, dial, astar] = &found[..] else { unreachable!() };
                for tested in [auto, dial] {
                    prop_assert_eq!(&tested.0, &heap.0, "{:?}", bounds);
                    prop_assert_eq!(cost_bits(&tested.0), cost_bits(&heap.0));
                    for c in WORK {
                        prop_assert_eq!(tested.1.get(c), heap.1.get(c), "{:?} {:?}", c, bounds);
                    }
                }
                prop_assert_eq!(cost_bits(&astar.0), cost_bits(&heap.0), "{:?}", bounds);
            }
        }
    }

    #[test]
    fn mst_cost_is_minimal_among_random_spanning_trees(seed in 0u64..300) {
        // Build a random metric, compare Prim against random spanning trees.
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3..7usize);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        let mut dist = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                dist[i * n + j] =
                    (pts[i].0 - pts[j].0).abs() + (pts[i].1 - pts[j].1).abs();
            }
        }
        let mst = prim_mst(&dist, n).unwrap();
        let best = mst_cost(&mst);
        // Random spanning trees via random edge insertion + union-find.
        for _ in 0..10 {
            let mut uf = UnionFind::new(n);
            let mut cost = 0.0;
            let mut edges = 0;
            while edges < n - 1 {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b && uf.union(a, b) {
                    cost += dist[a * n + b];
                    edges += 1;
                }
            }
            prop_assert!(best <= cost + 1e-9, "prim {best} vs random {cost}");
        }
    }
}
