#!/usr/bin/env bash
# Hermetic verification: the workspace must build, test, and lint cleanly
# with no network access — proving the zero-dependency policy holds.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings

# Benchmark gate: the benchmark package's own tests, including the pinned
# per-workload outcome digests at seed 42.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# Determinism gate: the composed-ecosystem, resilience-ablation, and
# network-contention experiments must render byte-identical reports across
# two runs at the same seed — and across parallel-sweep widths, since
# mcs-simcore::par merges fan-out results by input index, never by
# completion order.
for exp in ecosystem_composed ecosystem_full resilience_ablation locality_contention chaos_sweep scale_stress dag_portfolio; do
    MCS_PAR_WORKERS=1 "./target/release/$exp" 42 > "$tmpdir/${exp}_w1.txt"
    MCS_PAR_WORKERS=4 "./target/release/$exp" 42 > "$tmpdir/${exp}_w4.txt"
    MCS_PAR_WORKERS=4 "./target/release/$exp" 42 > "$tmpdir/${exp}_w4b.txt"
    diff "$tmpdir/${exp}_w1.txt" "$tmpdir/${exp}_w4.txt"
    diff "$tmpdir/${exp}_w4.txt" "$tmpdir/${exp}_w4b.txt"
done

# Invariant gate: every built-in chaos invariant must hold on the golden
# default-config trace (the same composition scenario_golden.rs pins).
"./target/release/chaos_sweep" --check-invariants

# Perf-baseline gate: a 2-sample smoke run of the tracked benchmarks must
# produce a JSON artifact that the in-house codec parses back with a sane
# shape, and the committed BENCH_*.json series must stay valid too.
MCS_BENCH_SAMPLES=2 MCS_BENCH_WARMUP_MS=0 \
    "./target/release/perf_baseline" --json "$tmpdir/bench_smoke.json"
"./target/release/perf_baseline" --check "$tmpdir/bench_smoke.json"
for baseline in BENCH_4.json BENCH_7.json BENCH_9.json BENCH_10.json; do
    if [ -f "$baseline" ]; then
        "./target/release/perf_baseline" --check "$baseline"
    fi
done

# Allow-lint gate: the engine-migrated crates stay clean — no new `#[allow]`
# escapes into their sources (the BSP stepper carries the single
# pre-existing `too_many_arguments` exception).
allow_budget=1
allow_count="$(grep -rE '#!?\[allow\(' crates/bigdata/src crates/graph/src crates/gaming/src crates/core/src | wc -l)"
if [ "$allow_count" -gt "$allow_budget" ]; then
    echo "verify: FAIL — $allow_count #[allow] attributes in migrated crates (budget $allow_budget)" >&2
    grep -rnE '#!?\[allow\(' crates/bigdata/src crates/graph/src crates/gaming/src crates/core/src >&2
    exit 1
fi

echo "verify: OK (offline build + tests + clippy + benchmark tests + par-aware determinism diffs + invariant gate + bench smoke + allow-lint budget)"
