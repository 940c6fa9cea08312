#!/usr/bin/env bash
# Perf smoke: tier-1 tests plus the wall-clock executor microbenchmark
# at a reduced row count, the coupling pooling/caching ablation, and a
# reduced process-serving run (throughput + parity at 1 and 2 shards).
# Intended for CI — fast enough to run on every change, still catches
# executor regressions an order of magnitude deep.  The benchmark
# reports go to a temporary directory (removed on exit), so a run
# leaves the committed BENCH_*.json files as they are.
#
# Usage: scripts/perf_smoke.sh [rows]   (default: 10000)

set -euo pipefail

cd "$(dirname "$0")/.."
ROWS="${1:-10000}"

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== wall-clock executor microbenchmark (${ROWS} fact rows) =="
python benchmarks/bench_wallclock_executor.py --rows "$ROWS" \
    --prune-rows $((ROWS * 10)) --out "$OUT/BENCH_executor_smoke.json" > /dev/null

python - "$OUT/BENCH_executor_smoke.json" <<'EOF'
import json
import sys

summary = json.load(open(sys.argv[1]))
assert summary["parity"], "row/columnar parity violated"
assert summary["speedup"] >= 3.0, f"speedup {summary['speedup']}x < 3x"
pruning = summary["pruning"]
assert pruning["parity"], "pruning workload parity violated"
assert pruning["pruning_speedup"] >= 5.0, (
    "zone-map pruning speedup (columnar, zone maps off vs on) "
    f"{pruning['pruning_speedup']}x < 5x"
)
assert pruning["chunks_pruned"] > 0, "zone maps pruned no chunks"
assert all(s["parity"] for s in pruning["selectivity_sweep"])
print(f"OK: {summary['speedup']}x columnar speedup over row, "
      f"{pruning['pruning_speedup']}x zone-map pruning speedup "
      "(columnar, zone maps off vs on), "
      f"{pruning['chunks_pruned']}/{pruning['chunks_scanned'] + pruning['chunks_pruned']}"
      " chunks pruned, parity holds")
EOF

echo "== coupling pooling/caching ablation =="
python benchmarks/bench_coupling_pooling.py --out "$OUT/BENCH_coupling.json"

python - "$OUT/BENCH_coupling.json" <<'EOF'
import json
import sys

summary = json.load(open(sys.argv[1]))
assert summary["parity"], "ablation configs disagree on result rows"
assert summary["ranking_preserved"], "architecture ranking flipped"
for arch, factor in summary["start_share_reduction"].items():
    assert factor >= 2.0, f"{arch}: start-share reduced only {factor}x"
print("OK: start-share reductions",
      summary["start_share_reduction"], "- parity and ranking hold")
EOF

echo "== cost-based optimizer benchmark (reduced workload) =="
python benchmarks/bench_optimizer.py --remote-rows 5000 \
    --udtf-outer-rows 100 --out "$OUT/BENCH_optimizer_smoke.json" > /dev/null

python - "$OUT/BENCH_optimizer_smoke.json" <<'EOF'
import json
import sys

summary = json.load(open(sys.argv[1]))
assert summary["rows_identical"], "cost-based plan changed result rows"
assert summary["speedup"] >= 3.0, f"speedup {summary['speedup']}x < 3x"
print(f"OK: {summary['speedup']}x optimizer speedup, rows identical")
EOF

echo "== process serving smoke (reduced workload) =="
python benchmarks/bench_concurrency.py --skip-scaling --process-sessions 4 \
    --process-calls 4 --shards 1 2 \
    --out "$OUT/BENCH_concurrency_smoke.json" > /dev/null

python - "$OUT/BENCH_concurrency_smoke.json" <<'EOF'
import json
import sys

process = json.load(open(sys.argv[1]))["process_scaling"]
for r in process["runs"]:
    assert r["rows_match_single_server"], "serving changed result rows"
    assert r["sim_times_match_single_server"], "serving changed simulated times"
    assert r["matches_one_shard"], "shard count changed results"
    assert r["throughput_calls_per_s"] > 0
assert process["cross_shard_parity"], "shard count changed results"
print("OK: process serving parity holds at", len(process["runs"]),
      "shard counts")
EOF
