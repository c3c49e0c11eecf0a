#!/usr/bin/env bash
# Local CI gate: formatting, lints, tests, docs. Run from the repo root.
# Fails fast on the first broken step, with the same settings the repo's
# tooling assumes (clippy warnings are errors, rustdoc must be clean).
set -euo pipefail
cd "$(dirname "$0")"

# Runs a name-filtered `cargo test` lane and fails it when the filter
# selected no test at all: cargo reports success for a filter that matches
# nothing, so a renamed test would otherwise turn the lane silently green.
nonempty() {
    local out
    out=$("$@" 2>&1) || { printf '%s\n' "$out"; return 1; }
    printf '%s\n' "$out"
    local ran
    ran=$(printf '%s\n' "$out" | awk '/^test result:/ { n += $4 } END { print n + 0 }')
    if [ "$ran" -eq 0 ]; then
        echo "ERROR: '$*' ran 0 tests" >&2
        return 1
    fi
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> oarsmt-lint (interprocedural determinism / zero-alloc / panic-freedom invariants)"
# --deny-stale keeps lint-baseline.txt honest (a fixed finding must leave
# the baseline); the JSON report is a checked CI artifact with call-chain
# attribution for every transitive finding.
mkdir -p target
cargo run -q -p oarsmt-lint -- --deny-stale --json > target/lint-report.json \
    || { cat target/lint-report.json; exit 1; }

echo "==> feature matrix (naive-ref oracle, no-default-features, telemetry-timing)"
cargo check -q -p oarsmt-nn --features naive-ref
cargo check -q --workspace --no-default-features
cargo check -q -p oarsmt-telemetry --features telemetry-timing
cargo test -q -p oarsmt-telemetry --features telemetry-timing

echo "==> simd lane (AVX2+FMA kernels build, lint clean, tests pass on any host)"
cargo clippy -q -p oarsmt-nn --all-targets --features simd -- -D warnings
cargo test -q -p oarsmt-nn --features simd
nonempty cargo test -q -p oarsmt --features simd batch
cargo check -q -p oarsmt-bench --features simd
cargo check -q -p oarsmt-repro --features simd

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> counter determinism (bit-identical totals across thread counts, trace recorder armed)"
nonempty cargo test -q --test parallel_determinism counter_totals

echo "==> allocation sanitizer (zero steady-state allocs on registered hot paths, both kernel lanes)"
cargo test --release -q -p oarsmt-lint --features alloc-count,simd --test alloc_sanitizer

echo "==> route-context property tests"
cargo test -q -p oarsmt-router --test context_properties

echo "==> queue-policy equivalence (Dial == heap oracle bit-identity, A* golden pins)"
cargo test -q -p oarsmt-graph --test properties
cargo test -q -p oarsmt-router --test queue_equivalence

echo "==> Prim-field equivalence (resumable build == per-step restart Prim oracle, DESIGN.md §12.6)"
cargo test -q -p oarsmt-router --test prim_field

echo "==> batched-path equivalence (batch == sequential bit-identity at nn/core/rl levels)"
nonempty cargo test -q -p oarsmt-nn batch
nonempty cargo test -q -p oarsmt batch
cargo test -q -p oarsmt-rl --test batch_equivalence

echo "==> dijkstra_bench smoke (quick mode, asserts heap/Dial checksum + op-count identity)"
cargo run --release -q -p oarsmt-bench --bin dijkstra_bench -- --quick \
    --out target/BENCH_dijkstra_smoke.json

echo "==> critic_throughput smoke (quick mode, checks fresh/reused bit-identity)"
cargo run --release -q -p oarsmt-bench --bin critic_throughput -- --quick \
    --out target/BENCH_critic_smoke.json

echo "==> unet_throughput smoke (quick mode, asserts GEMM == naive oracle and baseline checksums)"
cargo run --release -q -p oarsmt-bench --bin unet_throughput -- --quick \
    --out target/BENCH_unet_smoke.json

echo "==> selector_batch_bench smoke (quick mode, asserts batch == single bit-identity at B in {1,4,16})"
cargo run --release -q -p oarsmt-bench --bin selector_batch_bench -- --quick \
    --out target/BENCH_batch_smoke.json

echo "==> oarsmt report smoke (renders the telemetry embedded in the quick artifacts)"
cargo run --release -q -p oarsmt-repro --bin oarsmt -- report \
    target/BENCH_critic_smoke.json > /dev/null
cargo run --release -q -p oarsmt-repro --bin oarsmt -- report \
    target/BENCH_critic_smoke.json target/BENCH_unet_smoke.json > /dev/null

echo "==> regression gate (report --check: quick smokes vs committed baselines under report.toml)"
cargo run --release -q -p oarsmt-repro --bin oarsmt -- report --check \
    target/BENCH_critic_smoke.json \
    crates/bench/artifacts/BENCH_critic_quick_baseline.json --policy report.toml
cargo run --release -q -p oarsmt-repro --bin oarsmt -- report --check \
    target/BENCH_dijkstra_smoke.json \
    crates/bench/artifacts/BENCH_dijkstra_quick_baseline.json --policy report.toml
# The gate must actually gate: a perturbed counter in a copy of the
# artifact has to fail the check with a nonzero exit.
sed '/"record":"counter","name":"dijkstra_pops"/s/"value":[0-9]*/"value":1/' \
    target/BENCH_critic_smoke.json > target/BENCH_critic_perturbed.json
if cargo run --release -q -p oarsmt-repro --bin oarsmt -- report --check \
    target/BENCH_critic_perturbed.json \
    crates/bench/artifacts/BENCH_critic_quick_baseline.json \
    --policy report.toml > /dev/null 2>&1; then
    echo "ERROR: report --check passed a perturbed counter" >&2
    exit 1
fi

echo "==> trace smoke (flight-record a route, export + verify Chrome trace_event JSON)"
cargo run --release -q -p oarsmt-repro --bin oarsmt -- \
    gen 8 8 2 4 42 target/trace_case.json > /dev/null
cargo run --release -q -p oarsmt-repro --bin oarsmt -- \
    trace target/trace_case.json --out target/trace_smoke.json > /dev/null
cargo run --release -q -p oarsmt-repro --bin oarsmt -- \
    trace --verify target/trace_smoke.json

echo "==> runlog round-trip (bench writes runs/<id>/metrics.jsonl, report renders it)"
rm -rf target/runs/ci-smoke
cargo run --release -q -p oarsmt-bench --bin critic_throughput -- --quick \
    --out target/BENCH_critic_runlog_smoke.json \
    --runlog target/runs/ci-smoke > /dev/null
cargo run --release -q -p oarsmt-repro --bin oarsmt -- report \
    target/runs/ci-smoke > /dev/null

echo "==> BENCH_summary.json (regenerate from committed artifacts, must match the committed file)"
cargo run --release -q -p oarsmt-repro --bin oarsmt -- report \
    --summary crates/bench/artifacts --out target/BENCH_summary.json > /dev/null
cmp target/BENCH_summary.json BENCH_summary.json

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> ci.sh: all green"
