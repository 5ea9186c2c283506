#!/bin/bash
# Regenerates every paper artifact; outputs under results/.
# Default scales are sized for a single-core CI-class machine; raise
# --scale on real hardware for wider CTFL-vs-Shapley gaps.
#
#   ./run_experiments.sh           regenerate all artifacts into results/
#   ./run_experiments.sh --check   hermetic verification: release build,
#                                  full test suite, lints, docs, a benchmark
#                                  smoke run, and a battery of determinism
#                                  gates that run each scenario binary twice
#                                  and byte-diff the outputs.
#                                  Fails fast naming the broken gate and
#                                  prints a per-gate wall-time summary.
set -u
cd "$(dirname "$0")"
BIN=./target/release
S=${SCALE:-0.008}

# --- check-mode gate plumbing ------------------------------------------------
# Every gate runs through begin_gate/end_gate so the final summary can report
# where the wall-clock went; any failure prints "GATE FAILED: <name>" and
# stops immediately.
GATE_NAMES=()
GATE_SECS=()
CURRENT_GATE=""
GATE_T0=0

begin_gate() {
    CURRENT_GATE="$1"
    GATE_T0=$(date +%s)
    echo "== $1 =="
}

end_gate() {
    GATE_NAMES+=("$CURRENT_GATE")
    GATE_SECS+=("$(( $(date +%s) - GATE_T0 ))")
}

fail_gate() {
    echo "GATE FAILED: $CURRENT_GATE ($1)" >&2
    exit 1
}

# A gate that is just one command (build, tests, lints).
cmd_gate() {
    local name="$1"; shift
    begin_gate "$name"
    "$@" || fail_gate "command failed: $*"
    end_gate
}

# A determinism gate: build one bench binary, run it twice with the same
# seed, byte-diff the outputs, and (optionally) require an OK marker that
# the binary prints only when its internal assertions all held.
# $3 = marker ("" for none); $4 = "merge" to capture stderr with stdout,
# "drop" to discard stderr (train_speed keeps timings out of the diff).
diff_gate() {
    local name="$1" bin="$2" marker="$3" stderr_mode="$4"
    begin_gate "$name"
    cargo build --release -p ctfl-bench --bin "$bin" || fail_gate "build failed"
    local a b
    a=$(mktemp) && b=$(mktemp)
    if [ "$stderr_mode" = merge ]; then
        "$BIN/$bin" --seed 7 > "$a" 2>&1
        "$BIN/$bin" --seed 7 > "$b" 2>&1
    else
        "$BIN/$bin" --seed 7 2>/dev/null > "$a"
        "$BIN/$bin" --seed 7 2>/dev/null > "$b"
    fi
    if ! diff -q "$a" "$b" > /dev/null; then
        diff "$a" "$b" | head -20 >&2
        rm -f "$a" "$b"
        fail_gate "determinism violation: two identical-seed runs differ"
    fi
    if [ -n "$marker" ] && ! grep -q "$marker" "$a"; then
        tail -20 "$a" >&2
        rm -f "$a" "$b"
        fail_gate "marker $marker missing"
    fi
    echo "$name ok ($(wc -c < "$a") bytes, byte-identical)"
    rm -f "$a" "$b"
    end_gate
}

check() {
    cmd_gate "build (release, all targets)" cargo build --workspace --release
    cmd_gate "tests (entire workspace)" cargo test -q --workspace
    cmd_gate "lints (clippy, warnings are errors)" \
        cargo clippy --workspace --all-targets --offline -- -D warnings
    # Neither clippy nor the tests build docs, so a doc link to a renamed or
    # deleted item would otherwise rot silently.
    cmd_gate "docs (rustdoc, warnings are errors)" \
        env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

    # perfbench/ is a Cargo workspace of its own that builds against the
    # library crates by path. Running every workload x mode once at tiny
    # size (SMOKE_OK) catches an API change that breaks the benchmark here,
    # before the benchmark pipeline does.
    cmd_gate "benchmark smoke (perfbench)" python3 perfbench/smoke.py

    # fig7 exercises the full pipeline (partition -> FedAvg -> extraction ->
    # tracing -> interpretation) including the parallel code paths, in
    # seconds; the slower Shapley-bearing binaries share the same RNG plumbing.
    diff_gate "determinism (fig7 pipeline)" fig7_interpret_ttt "" merge

    # 5 clients, 30% dropout + one persistently-NaN client: the guard must
    # reject the corrupted client every round, quorum retries must absorb
    # the dropouts, and the full federation log + participation-weighted
    # scores must be byte-identical across identical-seed runs.
    diff_gate "chaos (seeded fault injection)" chaos CHAOS_SCENARIO_OK merge

    # 10 clients, 30% adversarial per attack (sign-flip, scaled-gradient,
    # collusion, free-riding, class-bias) x 4 aggregation rules. The binary
    # asserts the honest clients' contribution ranking survives under at
    # least one robust rule and that the update-signature detectors name the
    # injected ring/free-riders exactly with no honest-baseline false
    # positives; ATTACK_SWEEP_OK prints only if every gate held.
    diff_gate "attack sweep (update-level attacks)" attack_sweep ATTACK_SWEEP_OK merge

    # Upload-level score gaming x upload-audit defenses across the privacy
    # grid {eps=inf, eps=2.20}. The binary asserts the audit names the
    # injected gamers (exactly, except label-gaming under real randomized
    # response, where it must still never flag an honest client), that both
    # honest controls come back flag-free with hardened == naive
    # bit-identical, that honest rankings survive hardening at Spearman
    # >= 0.95, that the update/upload cross-check names free-riders claiming
    # uploads, and that cross-run consistency flags nobody honest;
    # GAMING_OK prints only if every gate held.
    diff_gate "gaming sweep (upload-level score attacks)" gaming_sweep GAMING_OK merge

    # Three gates inside the binary: bit-identity of trained parameters,
    # >= 2x median wall-clock speedup, and pre-encoded coalition parity.
    # Stdout carries only deterministic content (hashes, verdicts) so the
    # double run can byte-diff it; timings go to stderr and the JSON report.
    diff_gate "train speed (data plane vs naive)" train_speed TRAIN_SPEED_OK drop

    # The million-row / thousand-client data plane: a {20k,200k,1M} rows x
    # {10,100,1000} clients grid traced off sharded activation stores. The
    # binary asserts serial/parallel/sharded traces are bit-identical at
    # every cell, the sharded store flattens word-for-word to the monolithic
    # matrix, coalition sweeps (LOO + sampled Shapley) match byte-for-byte
    # with parallelism on and off, and the fast path beats the pinned
    # per-bit oracle >= 2x at the largest cell. Timings go to stderr and
    # results/BENCH_scale.json; stdout carries only hashes and verdicts.
    diff_gate "scale sweep (data-plane throughput)" scale_sweep SCALE_OK drop

    # A seeded batch of healthy/faulty/adversarial jobs runs serially, over
    # the worker pool, and through the wire dispatcher; the binary asserts
    # all paths produce identical result fingerprints.
    diff_gate "engine soak (multiplexed sessions)" engine_soak ENGINE_OK merge

    # The engine-soak batch again, but through a NetClient whose every
    # connection crosses a seeded ChaosTransport (split writes, bit flips,
    # truncations, virtual stalls, breaks, half-close EOFs) into one server
    # thread that serves the reconnects one at a time from one service, as
    # ctfl_server does. The binary asserts the fingerprints match direct
    # execution byte for byte, a session resumes across a deliberate
    # disconnect, and every result replays by job id.
    diff_gate "net soak (chaos transport)" net_soak NET_OK merge

    # 5 clients under four regimes (full, 50% uniform sampling, async with
    # bounded staleness, degree-2 gossip) x three schemes (CTFL effective
    # micro, leave-one-out, sampled Shapley — the baselines' coalition
    # retrainings run under the same regime). The binary asserts the
    # full-vs-full column is the identity ranking, every Spearman cell is a
    # well-formed correlation, sampling actually benched clients, and the
    # async regime actually landed stale updates.
    diff_gate "scenario sweep (regimes x schemes)" scenario_sweep SCENARIO_OK merge

    echo
    echo "gate wall-time summary:"
    local i
    for i in "${!GATE_NAMES[@]}"; do
        printf '  %-42s %5ss\n' "${GATE_NAMES[$i]}" "${GATE_SECS[$i]}"
    done
    echo ALL_CHECKS_PASSED
}

if [ "${1:-}" = "--check" ]; then
    check
    exit 0
fi

mkdir -p results
$BIN/fig4_accuracy --scale $S --seed 7 > results/fig4.txt 2>&1; echo "fig4 rc=$?"
$BIN/fig5_time --scale $S --seed 7 > results/fig5.txt 2>&1; echo "fig5 rc=$?"
$BIN/fig6_robustness --scale $S --seed 7 --datasets tictactoe,adult > results/fig6.txt 2>&1; echo "fig6 rc=$?"
$BIN/fig7_interpret_ttt --seed 7 > results/fig7.txt 2>&1; echo "fig7 rc=$?"
$BIN/table5_interpret_adult --seed 7 > results/table5.txt 2>&1; echo "table5 rc=$?"
$BIN/table2_example > results/table2.txt 2>&1; echo "table2 rc=$?"
$BIN/table1_comparison --seed 7 > results/table1.txt 2>&1; echo "table1 rc=$?"
$BIN/ablation --seed 7 > results/ablation.txt 2>&1; echo "ablation rc=$?"
$BIN/chaos --seed 7 > results/chaos.txt 2>&1; echo "chaos rc=$?"
$BIN/attack_sweep --seed 7 > results/attack_sweep.txt 2>&1; echo "attack_sweep rc=$?"
$BIN/gaming_sweep --seed 7 > results/gaming_sweep.txt 2>&1; echo "gaming_sweep rc=$?"
$BIN/engine_soak --seed 7 > results/engine_soak.txt 2>&1; echo "engine_soak rc=$?"
$BIN/net_soak --seed 7 > results/net_soak.txt 2>&1; echo "net_soak rc=$?"
$BIN/scenario_sweep --seed 7 > results/scenario_sweep.txt 2>&1; echo "scenario_sweep rc=$?"
$BIN/train_speed --seed 7 > /dev/null 2>&1; echo "train_speed rc=$?"  # writes results/BENCH_train.json
$BIN/scale_sweep --seed 7 > /dev/null 2>&1; echo "scale_sweep rc=$?"  # writes results/BENCH_scale.json
echo ALL_EXPERIMENTS_DONE
