#!/usr/bin/env bash
# Hermetic verification: the workspace must build, test, and lint cleanly
# with no network access — proving the zero-dependency policy holds.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace --bins --examples

# Codegen gate: Simulation::step must inline the engine's event queue, and
# whether it does can move with edits to unrelated code. The binary $1 may
# define no out-of-line mcs_simcore::engine::EventQueue<M>::push or ::pop,
# since a step that called either out of line would need that symbol. It
# must define some symbol naming EventQueue<EcosystemMsg> (its drop glue), so
# a stripped or renamed build fails instead of passing vacuously.
check_step_codegen() {
    local symbols
    symbols="$(nm -C --defined-only "$1")"
    if ! grep -qF 'EventQueue<mcs_core::scenario::EcosystemMsg>' <<< "$symbols"; then
        echo "verify: FAIL — $1 defines no EventQueue<EcosystemMsg> symbol" >&2
        exit 1
    fi
    if grep -E 'mcs_simcore::engine::EventQueue<M>::(push|pop)' <<< "$symbols" >&2; then
        echo "verify: FAIL — $1 defines EventQueue::push/pop out of line" >&2
        exit 1
    fi
}
check_step_codegen target/release/ecosystem_full

cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings

# Rustdoc gate: every intra-doc link must resolve, so a deleted or renamed
# API cannot leave a dangling link behind in a doc comment.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

# Benchmark gate: the benchmark package's own tests, including the pinned
# per-workload outcome digests at seed 42.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# Example smoke run: `cargo test` only builds the examples, so run the fast
# ones (about 2 s each in release) and fail on a non-zero exit.
# graph_analytics (about 14 s) and banking_ecosystem (slow) stay out.
for example in quickstart serverless_app escience_federation datacenter_operations gaming_platform; do
    "./target/release/examples/$example" > /dev/null
done

# Determinism gate: the composed-ecosystem, resilience-ablation,
# network-contention and portfolio-driven table experiments (Table 3's C7
# row and Table 5's MCS row run PortfolioSelector) and Fig. 5's FaaS
# platform sweeps must render
# byte-identical reports across two runs at the same seed — and across
# parallel-sweep widths, since mcs-simcore::par merges fan-out results by
# input index, never by completion order. The serial report must also
# match its committed snapshot in tests/reports/, so a behaviour change
# cannot slip through a refactor unnoticed (stdout carries no wall time).
for exp in ecosystem_composed ecosystem_full resilience_ablation locality_contention chaos_sweep scale_stress dag_portfolio table3_challenges table5_paradigms fig5_faas_refarch; do
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

# Benchmark smoke runs: a 1-second run of composed_batch (the golden
# full-trace composition) and of fabric_stress (the only workload on both
# the streaming trace sink and the network fabric) must each finish correct
# with no failed reps, and `--compare` of each result against itself must
# judge no workload worse (the benchmark's regression verdict).
bench=(cargo run -q --release --offline --manifest-path benchmark/Cargo.toml --)
for workload in composed_batch fabric_stress; do
    "${bench[@]}" --workload "$workload" --seconds 1 --json "$tmpdir/$workload.json" \
        > "$tmpdir/$workload.txt"
    summary="$(tail -n 1 "$tmpdir/$workload.txt")"
    if [[ "$summary" != *'"correct":true'* || "$summary" != *'"failed":0,'* ]]; then
        echo "verify: FAIL — $workload benchmark smoke run: $summary" >&2
        exit 1
    fi
    "${bench[@]}" --compare "$tmpdir/$workload.json" "$tmpdir/$workload.json" \
        > "$tmpdir/$workload.compare.txt"
    cat "$tmpdir/$workload.compare.txt"
    if ! grep -q "^$workload " "$tmpdir/$workload.compare.txt" \
        || grep -qw 'worse' "$tmpdir/$workload.compare.txt"; then
        echo "verify: FAIL — benchmark --compare of the $workload smoke run against itself" >&2
        exit 1
    fi
done
# The smoke runs built the benchmark binary: gate its step codegen too.
check_step_codegen benchmark/target/release/benchmark

# Allow-lint gate: no crate source carries a new `#[allow]` escape (the BSP
# stepper carries the single pre-existing `too_many_arguments` exception).
allow_budget=1
allow_count="$(grep -rE '#!?\[allow\(' crates/*/src | wc -l)"
if [ "$allow_count" -gt "$allow_budget" ]; then
    echo "verify: FAIL — $allow_count #[allow] attributes in crate sources (budget $allow_budget)" >&2
    grep -rnE '#!?\[allow\(' crates/*/src >&2
    exit 1
fi

echo "verify: OK (offline build + EcosystemMsg step codegen gate on ecosystem_full and the benchmark + tests + clippy + rustdoc + benchmark tests + example smoke runs + par-aware determinism diffs + 10 report snapshots + invariant gate + composed_batch and fabric_stress benchmark smoke + self-compare + allow-lint budget)"
