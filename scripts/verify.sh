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
# completion order. The serial report must also match its committed
# snapshot in tests/reports/, so a behaviour change cannot slip through a
# refactor unnoticed (stdout carries no wall time).
for exp in ecosystem_composed ecosystem_full resilience_ablation locality_contention chaos_sweep scale_stress dag_portfolio; do
    MCS_PAR_WORKERS=1 "./target/release/$exp" 42 > "$tmpdir/${exp}_w1.txt"
    MCS_PAR_WORKERS=4 "./target/release/$exp" 42 > "$tmpdir/${exp}_w4.txt"
    MCS_PAR_WORKERS=4 "./target/release/$exp" 42 > "$tmpdir/${exp}_w4b.txt"
    diff "tests/reports/${exp}.txt" "$tmpdir/${exp}_w1.txt"
    diff "$tmpdir/${exp}_w1.txt" "$tmpdir/${exp}_w4.txt"
    diff "$tmpdir/${exp}_w4.txt" "$tmpdir/${exp}_w4b.txt"
done

# Invariant gate: every built-in chaos invariant must hold on the golden
# default-config trace (the same composition scenario_golden.rs pins).
"./target/release/chaos_sweep" --check-invariants

# Benchmark smoke run: a 1-second composed_batch run must finish correct
# with no failed reps, and `--compare` of its result against itself must
# judge no workload worse (the benchmark's regression verdict).
bench=(cargo run -q --release --offline --manifest-path benchmark/Cargo.toml --)
"${bench[@]}" --workload composed_batch --seconds 1 --json "$tmpdir/bench.json" \
    > "$tmpdir/bench.txt"
summary="$(tail -n 1 "$tmpdir/bench.txt")"
if [[ "$summary" != *'"correct":true'* || "$summary" != *'"failed":0,'* ]]; then
    echo "verify: FAIL — benchmark smoke run: $summary" >&2
    exit 1
fi
"${bench[@]}" --compare "$tmpdir/bench.json" "$tmpdir/bench.json" > "$tmpdir/compare.txt"
cat "$tmpdir/compare.txt"
if ! grep -q '^composed_batch ' "$tmpdir/compare.txt" || grep -qw 'worse' "$tmpdir/compare.txt"; then
    echo "verify: FAIL — benchmark --compare of the smoke run against itself" >&2
    exit 1
fi

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

echo "verify: OK (offline build + tests + clippy + benchmark tests + par-aware determinism diffs + report snapshots + invariant gate + benchmark smoke + self-compare + allow-lint budget)"
