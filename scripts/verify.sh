#!/usr/bin/env bash
# Hermetic verification: the workspace must build, test, and lint cleanly
# with no network access — proving the zero-dependency policy holds.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace --bins --examples

# Codegen gate: in the binary $1, the EcosystemMsg instance of
# Simulation::step (the one whose body drops EcosystemMsg values) must
# inline the event queue's push and pop. The queue is defined in the engine
# module so rustc places them in step's codegen unit whatever the crate
# graph; this checks that LLVM then inlines them. It did not when the queue
# was std's BinaryHeap, whose methods got a unit of their own, so an edit to
# unrelated code in mcs-core, or even the checkout path (cargo hashes it
# into symbol names), decided whether step called them out of line. A call
# through the GOT names only its slot, so slots are resolved through the
# binary's relative relocations. The engine's other step instance is not
# gated. Both ecosystem_full and the benchmark binary are gated, since each
# build instantiates step itself.
check_step_codegen() {
    local step_queue_calls
    step_queue_calls="$(
        {
            objdump -R "$1" | awk '$2 == "R_X86_64_RELATIVE" { print "got", $1, $3 }'
            nm -C --defined-only "$1" | awk '{ addr = $1; $1 = ""; $2 = ""; sub(/^ +/, ""); print "sym", addr, $0 }'
            objdump -d -C "$1"
        } | awk '
            function hex(s) { sub(/^\*ABS\*\+/, "", s); sub(/^0x/, "", s); sub(/^0+/, "", s); return s }
            $1 == "got" { got[hex($2)] = hex($3); next }
            $1 == "sym" { addr = hex($2); $1 = ""; $2 = ""; sub(/^ +/, ""); sym[addr] = $0; next }
            /^[0-9a-f]+ <mcs_simcore::engine::Simulation<M>::step>:$/ { on = 1; eco = 0; calls = 0; next }
            on && /^$/ { if (eco) print calls; on = 0; next }
            on && /EcosystemMsg/ { eco = 1 }
            on && /call/ {
                callee = $0
                # A call through the GOT names only its slot: resolve it.
                if (match($0, /# [0-9a-f]+ </)) {
                    slot = substr($0, RSTART + 2, RLENGTH - 4)
                    if (hex(slot) in got) callee = sym[got[hex(slot)]]
                }
                if (callee ~ /mcs_simcore::engine::EventQueue<M>::(push|pop)/) calls++
            }
            END { if (on && eco) print calls }
        '
    )"
    if [ -z "$step_queue_calls" ]; then
        echo "verify: FAIL — no EcosystemMsg Simulation::step body in $1" >&2
        exit 1
    fi
    if grep -qv '^0$' <<< "$step_queue_calls"; then
        echo "verify: FAIL — the EcosystemMsg Simulation::step in $1 calls EventQueue::push/pop out of line" >&2
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
