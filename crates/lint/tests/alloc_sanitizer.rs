//! Dynamic counterpart of the static D2 zero-alloc rule: a counting
//! `#[global_allocator]` proves the registered hot paths (`route_in`,
//! `route_cost_in`, the per-query `search_into`, `predict_with_fsp_in`,
//! the batched `fsp_batch_into_ws` flush, the shared-selector
//! `fsp_into_ws` → `UNet3d::infer_in`) perform
//! **zero** heap allocations in steady state,
//! and that `search_in` reaches a stable per-call allocation count
//! (its [`SearchOutcome`] owns freshly allocated label/counter vectors, so
//! zero is not the target there — stability across identical runs is).
//! It also proves the always-on Tier A telemetry counters advance *inside*
//! those zero-alloc windows: observability costs no heap traffic.
//!
//! Build and run with:
//!
//! ```text
//! cargo test --release -p oarsmt-lint --features alloc-count --test alloc_sanitizer
//! ```
//!
//! Everything runs inside one `#[test]` so no concurrent test thread can
//! touch the process-global counter mid-measurement.

#![cfg(feature = "alloc-count")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use oarsmt::selector::{MedianHeuristicSelector, NeuralSelector, Selector, UniformSelector};
use oarsmt_geom::{GridPoint, HananGraph};
use oarsmt_graph::dijkstra::SearchBounds;
use oarsmt_graph::{DijkstraWorkspace, GridAdjacency, QueuePolicy};
use oarsmt_mcts::{CombinatorialMcts, Critic, MctsConfig};
use oarsmt_nn::NnWorkspace;
use oarsmt_router::{OarmstRouter, RouteContext};
use oarsmt_telemetry::Counter;

/// Counts every allocation and reallocation made through the global
/// allocator. Deallocations are not counted: a hot path that frees memory
/// it did not allocate would already show up as an alloc elsewhere.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed atomic counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: inherits the caller's `GlobalAlloc::dealloc` contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from this allocator, which always
        // delegates to `System`, so freeing through `System` is valid.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: inherits the caller's `GlobalAlloc::realloc` contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same provenance argument as `dealloc`; `new_size`
        // obeys the caller's `GlobalAlloc::realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count attributable to `f` (single-threaded by construction).
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, out)
}

fn graph() -> HananGraph {
    let mut g = HananGraph::uniform(6, 6, 2, 1.0, 1.0, 3.0);
    g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
    g.add_pin(GridPoint::new(5, 5, 0)).unwrap();
    g.add_pin(GridPoint::new(0, 5, 1)).unwrap();
    g.add_pin(GridPoint::new(5, 0, 1)).unwrap();
    g
}

#[test]
fn hot_paths_are_allocation_free_in_steady_state() {
    // The counter must actually count, or the zero assertions below would
    // pass vacuously.
    let (n, buf) = allocs_during(|| vec![0u8; 4096]);
    assert!(n >= 1, "counting allocator is not wired in");
    drop(buf);

    let g = graph();
    let mut ctx = RouteContext::new();

    // --- route_in: zero allocations once the context is warm. ---
    let router = OarmstRouter::new();
    let candidates = [GridPoint::new(2, 2, 0), GridPoint::new(3, 3, 1)];
    let mut warm_cost = 0.0;
    for _ in 0..3 {
        let tree = router.route_in(&mut ctx, &g, &candidates).unwrap();
        warm_cost = tree.cost();
        ctx.recycle_tree(tree);
    }
    let pops_before = ctx.counters_total().get(Counter::DijkstraPops);
    let (n, steady_cost) = allocs_during(|| {
        let mut cost = 0.0;
        for _ in 0..8 {
            let tree = router.route_in(&mut ctx, &g, &candidates).unwrap();
            cost = tree.cost();
            ctx.recycle_tree(tree);
        }
        cost
    });
    assert_eq!(n, 0, "route_in allocated {n} times in steady state");
    assert_eq!(steady_cost, warm_cost, "steady-state result drifted");
    // The always-on Tier A counters advanced inside that zero-alloc window:
    // counting is free, not just cheap.
    assert!(
        ctx.counters_total().get(Counter::DijkstraPops) > pops_before,
        "Tier A counters did not advance during the zero-alloc routes"
    );

    // --- route_in with the flight recorder live: recording begin/end
    // events into the preallocated ring is free — the warm loop stays at
    // zero allocations with tracing enabled, and events actually land. ---
    ctx.trace.enable(1024); // the one allocating call, outside the window
    let tree = router.route_in(&mut ctx, &g, &candidates).unwrap();
    ctx.recycle_tree(tree); // warm again post-enable
    let traced_before = ctx.trace.len();
    let (n, traced_cost) = allocs_during(|| {
        let mut cost = 0.0;
        for _ in 0..8 {
            let tree = router.route_in(&mut ctx, &g, &candidates).unwrap();
            cost = tree.cost();
            ctx.recycle_tree(tree);
        }
        cost
    });
    assert_eq!(n, 0, "route_in allocated {n} times with tracing enabled");
    assert_eq!(traced_cost, warm_cost, "tracing changed routing results");
    assert!(
        ctx.trace.len() > traced_before || ctx.trace.dropped() > 0,
        "flight recorder recorded nothing during the traced routes"
    );
    ctx.trace.disable();

    // --- route_cost_in through the resumable Prim field (DESIGN.md §12.6),
    // unbounded and windowed: resumed builds reuse the workspace's heap and
    // stamped arrays, so they allocate nothing once warm. ---
    for router in [
        OarmstRouter::new(),
        OarmstRouter::new().with_bounds_margin(1),
    ] {
        let mut warm = 0.0;
        for _ in 0..3 {
            warm = router.route_cost_in(&mut ctx, &g, &candidates).unwrap();
        }
        let (n, steady) = allocs_during(|| {
            let mut cost = 0.0;
            for _ in 0..8 {
                cost = router.route_cost_in(&mut ctx, &g, &candidates).unwrap();
            }
            cost
        });
        assert_eq!(n, 0, "route_cost_in allocated {n} times in steady state");
        assert_eq!(steady, warm, "steady-state route_cost_in result drifted");
    }

    // --- search_into, the one per-query maze search (polish reroutes, A*
    // build steps): heap, Dial and A* loops, unbounded and inside a window
    // that excludes one source, allocate nothing once the workspace and
    // the path buffer are warm. ---
    let mut adj = GridAdjacency::new();
    adj.ensure(&g);
    let mut space = DijkstraWorkspace::new();
    let mut path = Vec::new();
    let sources = [GridPoint::new(0, 0, 0), GridPoint::new(0, 5, 1)];
    let to = GridPoint::new(5, 5, 0);
    let t = g.index(to);
    let window = SearchBounds {
        h_lo: 0,
        h_hi: 5,
        v_lo: 1,
        v_hi: 5,
    };
    for policy in [QueuePolicy::Heap, QueuePolicy::Dial, QueuePolicy::AStar] {
        for bounds in [None, Some(window)] {
            let mut query = || {
                space
                    .search_into(
                        &g,
                        &adj,
                        &sources,
                        |i| i == t,
                        bounds,
                        policy,
                        &[to],
                        &mut path,
                    )
                    .unwrap()
            };
            let warm = (0..3).map(|_| query()).last();
            let (n, steady) = allocs_during(|| (0..8).map(|_| query()).last());
            assert_eq!(
                n, 0,
                "{policy:?} search_into ({bounds:?}) allocated {n} times"
            );
            assert_eq!(steady, warm, "steady-state {policy:?} search drifted");
        }
    }

    // --- route_in under QueuePolicy::AStar: the f = g + h heap search and
    // its per-iteration target-hint rebuild are also allocation-free once
    // warm (the Auto default above already exercised the Dial bucket
    // queue — integral costs make this graph Dial-eligible). ---
    let astar = OarmstRouter::new().with_queue_policy(oarsmt_router::QueuePolicy::AStar);
    let mut warm_astar = 0.0;
    for _ in 0..3 {
        let tree = astar.route_in(&mut ctx, &g, &candidates).unwrap();
        warm_astar = tree.cost();
        ctx.recycle_tree(tree);
    }
    let (n, steady_astar) = allocs_during(|| {
        let mut cost = 0.0;
        for _ in 0..8 {
            let tree = astar.route_in(&mut ctx, &g, &candidates).unwrap();
            cost = tree.cost();
            ctx.recycle_tree(tree);
        }
        cost
    });
    assert_eq!(n, 0, "A* route_in allocated {n} times in steady state");
    assert_eq!(steady_astar, warm_astar, "steady-state A* result drifted");

    // --- predict_with_fsp_in: zero allocations with a precomputed fsp. ---
    let critic = Critic::new();
    let mut median = MedianHeuristicSelector::new();
    let selected = [GridPoint::new(2, 2, 0)];
    let fsp = median.fsp(&g, &selected);
    let mut warm_value = 0.0;
    for _ in 0..3 {
        warm_value = critic
            .predict_with_fsp_in(&mut ctx, &g, &selected, &fsp)
            .unwrap();
    }
    let rollout_pops_before = ctx.counters_total().get(Counter::DijkstraPops);
    let (n, steady_value) = allocs_during(|| {
        let mut value = 0.0;
        for _ in 0..8 {
            value = critic
                .predict_with_fsp_in(&mut ctx, &g, &selected, &fsp)
                .unwrap();
        }
        value
    });
    assert_eq!(
        n, 0,
        "predict_with_fsp_in allocated {n} times in steady state"
    );
    assert_eq!(steady_value, warm_value, "steady-state result drifted");
    assert!(
        ctx.counters_total().get(Counter::DijkstraPops) > rollout_pops_before,
        "rollout counters did not advance during the zero-alloc predicts"
    );

    // --- fsp_batch_into_ws: the batched GEMM flush (DESIGN.md §13) is
    // allocation-free once the workspace pools and the output vector are
    // warm, at B = 1 and B = 4 alike (one path for both). ---
    let mut neural = NeuralSelector::random(0xA110C);
    let mut ws = NnWorkspace::new();
    let states: Vec<Vec<GridPoint>> = vec![
        vec![],
        vec![GridPoint::new(1, 1, 0)],
        vec![GridPoint::new(2, 3, 1), GridPoint::new(4, 2, 0)],
        vec![GridPoint::new(3, 3, 0)],
    ];
    let mut pts = Vec::new();
    let mut lens = Vec::new();
    for s in &states {
        pts.extend_from_slice(s);
        lens.push(s.len() as u32);
    }
    let mut batch_out = Vec::new();
    let mut warm_sum = 0.0f32;
    for _ in 0..3 {
        neural.fsp_batch_into_ws(&g, &pts, &lens, &mut batch_out, &mut ws);
        neural.fsp_batch_into_ws(&g, &pts[..1], &lens[1..2], &mut batch_out, &mut ws);
        warm_sum = batch_out.iter().sum();
    }
    let flushes_before = ws.counters.get(Counter::BatchFlushes);
    let (n, steady_sum) = allocs_during(|| {
        let mut sum = 0.0f32;
        for _ in 0..8 {
            neural.fsp_batch_into_ws(&g, &pts, &lens, &mut batch_out, &mut ws);
            neural.fsp_batch_into_ws(&g, &pts[..1], &lens[1..2], &mut batch_out, &mut ws);
            sum = batch_out.iter().sum();
        }
        sum
    });
    assert_eq!(
        n, 0,
        "fsp_batch_into_ws allocated {n} times in steady state"
    );
    assert_eq!(steady_sum, warm_sum, "steady-state batched result drifted");
    assert!(
        ws.counters.get(Counter::BatchFlushes) > flushes_before,
        "batch-flush counters did not advance during the zero-alloc flushes"
    );

    // --- the shared-selector inference of `RlRouter`/`SharedSelector`:
    // `(&NeuralSelector)::fsp_into_ws` → `UNet3d::infer_in` at B = 1
    // allocates nothing once the workspace and output are warm. ---
    let mut shared = &neural;
    let mut shared_ws = NnWorkspace::new();
    let mut shared_out = Vec::new();
    let mut warm_shared = 0.0f32;
    for _ in 0..3 {
        shared.fsp_into_ws(&g, &states[2], &mut shared_out, &mut shared_ws);
        warm_shared = shared_out.iter().sum();
    }
    let macs_before = shared_ws.counters.total_macs();
    let (n, steady_shared) = allocs_during(|| {
        let mut sum = 0.0f32;
        for _ in 0..8 {
            shared.fsp_into_ws(&g, &states[2], &mut shared_out, &mut shared_ws);
            sum = shared_out.iter().sum();
        }
        sum
    });
    assert_eq!(
        n, 0,
        "shared-selector fsp_into_ws allocated {n} times in steady state"
    );
    assert_eq!(
        steady_shared, warm_shared,
        "steady-state shared result drifted"
    );
    assert!(
        shared_ws.counters.total_macs() > macs_before,
        "U-Net MAC counters did not advance during the zero-alloc inferences"
    );

    // --- the AVX2+FMA kernel lane (feature `simd`) allocates nothing
    // either: the wide microkernels write through the same pooled buffers
    // as the scalar path. Skipped silently on non-AVX2 hosts, where the
    // policy resolves back to scalar (already covered above). ---
    #[cfg(feature = "simd")]
    if oarsmt_nn::simd_available() {
        let mut simd_ws = NnWorkspace::new();
        simd_ws.set_kernel_policy(oarsmt_nn::KernelPolicy::Simd);
        let mut warm_simd = 0.0f32;
        for _ in 0..3 {
            neural.fsp_batch_into_ws(&g, &pts, &lens, &mut batch_out, &mut simd_ws);
            warm_simd = batch_out.iter().sum();
        }
        let simd_before = simd_ws.counters.get(Counter::GemmKernelSimd);
        let (n, steady_simd) = allocs_during(|| {
            let mut sum = 0.0f32;
            for _ in 0..8 {
                neural.fsp_batch_into_ws(&g, &pts, &lens, &mut batch_out, &mut simd_ws);
                sum = batch_out.iter().sum();
            }
            sum
        });
        assert_eq!(
            n, 0,
            "SIMD fsp_batch_into_ws allocated {n} times in steady state"
        );
        assert_eq!(steady_simd, warm_simd, "steady-state SIMD result drifted");
        assert!(
            simd_ws.counters.get(Counter::GemmKernelSimd) > simd_before,
            "SIMD dispatch counter did not advance: the lane ran scalar"
        );
    }

    // --- search_in: identical runs must cost an identical (small) number
    // of allocations — the SearchOutcome's owned vectors and nothing that
    // grows run over run. ---
    let mcts = CombinatorialMcts::new(MctsConfig::tiny());
    let mut uniform = UniformSelector::new(0.4);
    for _ in 0..2 {
        mcts.search_in(&mut ctx, &g, &mut uniform).unwrap();
    }
    let c0 = ctx.counters_total();
    let (a, first) = allocs_during(|| mcts.search_in(&mut ctx, &g, &mut uniform).unwrap());
    let c1 = ctx.counters_total();
    let (b, second) = allocs_during(|| mcts.search_in(&mut ctx, &g, &mut uniform).unwrap());
    let c2 = ctx.counters_total();
    assert_eq!(
        a, b,
        "search_in allocation count changed between identical runs ({a} vs {b})"
    );
    assert_eq!(first.final_cost, second.final_cost);
    assert_eq!(first.executed, second.executed);
    // Identical searches on a warm context produce bit-identical counter
    // deltas, and nonzero ones: the counters observed real work.
    let (da, db) = (c1.delta_since(&c0), c2.delta_since(&c1));
    assert_eq!(da, db, "counter deltas differ between identical searches");
    assert!(da.get(Counter::MctsRollouts) > 0);
}
