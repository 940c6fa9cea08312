#!/usr/bin/env bash
# Parity gate: one command proving that optimizations never change
# results or baseline timings.
#
#  1. row/columnar executor parity suite (same rows either mode),
#  2. pooling/caching ablation parity tests (flags off => simulated
#     timings bit-identical to the calibrated anchors; flags on =>
#     same result rows, paper's architecture ranking preserved),
#  3. fault-harness parity (every site armed at probability 0 with
#     retries + forward recovery on => bit-identical to flags-off;
#     exception-safety regressions in cache/pool/RMI/WfMS),
#  4. concurrency parity (same seeded multi-session workload under 1
#     worker vs K workers => bit-identical per-session rows and
#     simulated times; serving layer == bare single-caller stack;
#     thread-safety regression suite; MVCC snapshot isolation and
#     set-oriented DML: one published version per statement, atomic
#     statements, end-state key checks, execute_many == row-by-row),
#  5. process-sharded parity (same workload at 1/2/4 OS worker
#     processes => bit-identical per-session rows and simulated times
#     to the bare stack and to thread-mode serving; worker-kill fault
#     battery; battery-through-serving differential slice; serving
#     teardown/accounting regressions; wire + hash-ring unit suite;
#     session templates: sessions stamped one after another from one
#     template, threads or shards, equal bare builds in rows and
#     per-call simulated ms, and shared parsed statements never change),
#  6. optimizer parity (cost-based mode => bit-identical rows across
#     architectures and execution modes; statistics absent =>
#     bit-identical rows AND simulated times; join strategies —
#     hash/merge/indexnlj/nlj — bit-identical rows and times; hash
#     joins onto unbound nicknames equal forced nlj and the syntactic
#     plan in rows, per-source requests and simulated time, with the
#     merge-join and adaptive-feedback benchmark gates),
#  7. columnar parity (row vs columnar => bit-identical rows
#     AND simulated times; zone-map pruning on/off => same rows;
#     COW-rebuild, all-NULL and pinned-snapshot edge cases; `?`-bound
#     predicates identical to their literal-inlined queries; columnar
#     grouped-aggregate and hash-join probe kernels bit-identical to
#     row mode at chunk sizes 1/3/1024, DOUBLE sums bit for bit; the
#     merge join's column path equal to its rows and the hash join's at
#     chunk sizes 1/3/1024; planning compiles each expression once and
#     only in the forms its mode runs, and a columnar plan run through
#     the row protocol returns the same rows; ORDER BY equals a comparison-function
#     reference in every mode, NaN above every number and below NULL;
#     layout name lookups equal the linear scan; each table version's
#     column chunks, tail included, are built once and reproduce its
#     rows and zone maps after any DML),
#  8. calibration regression (the frozen Fig. 5/6 anchor numbers),
#  9. SQL front end (tokens start at their positions, render -> parse
#     round trips over the battery corpus, exact lexer-error positions,
#     fuzzing, expression precedence and `?` marker numbering),
# 10. row-mode kernels (specialised comparisons equal `_align` plus the
#     operator, value for value and error for error; cached coercers
#     equal `coerce_into` in value and type; IN/BETWEEN and index probes
#     follow `=`/`<=` in every mode under both optimizers; a `?`-bound
#     signalling NaN raises the typed entry error in every predicate),
# 11. WfMS process templates (every hot federated-function call of every
#     architecture equals the committed golden table in rows, simulated
#     ms and WfMS audit events; hot calls never validate a process;
#     build_scenario validates each federated function once; deployed
#     templates ignore later edits of their definition; container
#     lookups equal the first-match linear scan; A-UDTF rows are
#     coerced once and bad rows fail with the same errors).
#
# The merge-join wall gate in section 6 times each strategy with the
# cyclic collector held off (collect, disable, run, re-enable) over
# alternating repeats, so a full collection cannot land on one side.
#
# The benchmark reports go to a temporary directory (removed on exit),
# so a run leaves the committed BENCH_*.json files as they are.
#
# Usage: scripts/check_parity.sh

set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

echo "== row/columnar parity suite =="
python -m pytest -q tests/test_fdbs_batch_parity.py

echo "== pooling/caching ablation parity =="
python -m pytest -q tests/test_coupling_ablation.py tests/test_result_cache.py

echo "== fault-harness parity + exception-safety regressions =="
python -m pytest -q tests/test_fault_parity.py tests/test_faults.py \
    tests/test_runtime_pool.py tests/test_wfms_engine.py

echo "== concurrency parity + thread-safety regressions =="
python -m pytest -q tests/test_concurrent_parity.py \
    tests/test_thread_safety_regressions.py

echo "== MVCC snapshot-isolation + set-oriented DML suites =="
python -m pytest -q tests/test_mvcc_snapshot_isolation.py tests/test_set_dml.py

echo "== concurrency benchmark parity gate =="
python benchmarks/bench_concurrency.py --out "$OUT/BENCH_concurrency.json" > /dev/null

python - "$OUT/BENCH_concurrency.json" <<'EOF'
import json
import sys

summary = json.load(open(sys.argv[1]))
assert len(summary["runs"]) >= 3, "need >= 3 worker counts"
assert summary["single_session_parity"], (
    "1-worker serving run is not bit-identical to the single-session path"
)
assert summary["cross_worker_parity"], (
    "worker count changed per-session rows or simulated times"
)
tp = {r["workers"]: r["throughput_calls_per_s"] for r in summary["runs"]}
print(f"OK: single-session parity + cross-worker parity hold; "
      f"throughput by workers: {tp}")

# MVCC gates: with MVCC on, a single worker is bit-identical to the
# bare pre-serving stack (rows AND simulated times -- asserted above
# via single_session_parity), shared-mode rows are deterministic at
# every worker count, and lock-free snapshot readers actually scale.
scaling = summary["scaling"]
for profile, entry in scaling["profiles"].items():
    for r in entry["runs"]:
        assert r["rows_match_one_worker"], (
            f"{profile}: {r['workers']}-worker shared-mode run changed rows"
        )
speedup = {
    r["workers"]: r["speedup_vs_1_worker"]
    for r in scaling["profiles"]["read_heavy"]["runs"]
}
assert speedup[4] >= 2.0, (
    f"read-heavy speedup at 4 workers is {speedup[4]}x, below the 2x gate"
)
print(f"OK: MVCC scaling gate holds; read-heavy speedup by workers: {speedup}")

# Process-sharded gates: isolated shards keep the parity contract exact
# across the process boundary (rows AND simulated times match the bare
# stack and the 1-shard run at every shard count), and overlapping the
# injected RMI wall latency across OS processes actually scales.
process = summary["process_scaling"]
assert process["cross_shard_parity"], (
    "a shard count changed per-session rows or simulated times"
)
for r in process["runs"]:
    assert r["rows_match_single_server"] and r["sim_times_match_single_server"], (
        f"{r['shards']}-shard run is not bit-identical to the bare stack"
    )
proc_speedup = {r["shards"]: r["speedup_vs_1_shard"] for r in process["runs"]}
assert proc_speedup[4] >= 2.0, (
    f"read-heavy process speedup at 4 shards is {proc_speedup[4]}x, "
    "below the 2x gate"
)
print(f"OK: process scaling gate holds; speedup by shards: {proc_speedup}")
EOF

echo "== process-sharded parity + fault battery + serving regressions =="
python -m pytest -q tests/test_serving_wire.py tests/test_serving_shutdown.py \
    tests/test_session_template.py
python -m pytest -q -m proc tests/test_process_parity.py \
    tests/test_process_faults.py tests/sql_battery/test_battery_serving.py \
    tests/test_session_template.py

echo "== optimizer parity (cost-based vs syntactic) =="
python -m pytest -q tests/test_optimizer_parity.py tests/test_optimizer.py \
    tests/test_join_strategies.py tests/test_remote_hash_join.py

echo "== optimizer benchmark gate (merge join + adaptive feedback) =="
python benchmarks/bench_optimizer.py --out "$OUT/BENCH_optimizer.json" > /dev/null

python - "$OUT/BENCH_optimizer.json" <<'EOF'
import json
import sys

summary = json.load(open(sys.argv[1]))
assert summary["rows_identical"], (
    "an optimizer workload changed the answer"
)
merge = summary["merge_join"]
assert merge["rows_identical"], "a join strategy changed the answer"
assert merge["presorted_input"], "merge join missed the clustered order"
assert merge["speedup_wall"] >= 3.0, (
    f"merge join wall speedup {merge['speedup_wall']}x below the 3x gate"
)
adaptive = summary["adaptive_feedback"]
assert adaptive["rows_identical"], "feedback replanning changed the answer"
assert adaptive["bind_join_after_feedback"], (
    "feedback failed to unlock the bind join"
)
assert adaptive["recovery"] >= 5.0, (
    f"adaptive recovery {adaptive['recovery']}x below the 5x gate"
)
print(f"OK: merge join {merge['speedup_wall']}x wall over hash; "
      f"feedback recovery {adaptive['recovery']}x "
      f"(q-error {adaptive['observed_q_error']})")
EOF

echo "== columnar parity (row vs columnar, zone maps on/off) =="
python -m pytest -q tests/test_columnar_parity.py tests/test_param_kernels.py \
    tests/test_columnar_kernels.py tests/test_merge_column_path.py \
    tests/test_compile_once.py tests/test_version_chunks.py tests/test_value_key.py

echo "== calibration regression =="
python -m pytest -q tests/test_calibration_regression.py

echo "== SQL front end =="
python -m pytest -q tests/test_sql_frontend.py tests/test_fdbs_lexer.py \
    tests/test_fdbs_parser.py tests/test_property_sql.py

echo "== row-mode kernels =="
python -m pytest -q tests/test_row_kernels.py \
    "tests/test_fdbs_types.py::TestSignallingNaN"

echo "== WfMS process templates and the coupling hot path =="
python -m pytest -q tests/test_wfms_templates.py

echo "parity checks passed"
