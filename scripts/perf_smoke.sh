#!/usr/bin/env bash
# Perf smoke: tier-1 tests plus the wall-clock executor microbenchmark
# at a reduced row count, the coupling pooling/caching ablation, and a
# reduced concurrent-serving run (throughput + parity at 1/4/8 workers).
# Intended for CI — fast enough to run on every change, still catches
# executor regressions an order of magnitude deep.
#
# Usage: scripts/perf_smoke.sh [rows]   (default: 10000)

set -euo pipefail

cd "$(dirname "$0")/.."
ROWS="${1:-10000}"

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== wall-clock executor microbenchmark (${ROWS} fact rows) =="
python benchmarks/bench_wallclock_executor.py --rows "$ROWS" \
    --prune-rows $((ROWS * 10)) --out BENCH_executor_smoke.json > /dev/null

python - <<'EOF'
import json

summary = json.load(open("BENCH_executor_smoke.json"))
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
python benchmarks/bench_coupling_pooling.py --out BENCH_coupling.json

python - <<'EOF'
import json

summary = json.load(open("BENCH_coupling.json"))
assert summary["parity"], "ablation configs disagree on result rows"
assert summary["ranking_preserved"], "architecture ranking flipped"
for arch, factor in summary["start_share_reduction"].items():
    assert factor >= 2.0, f"{arch}: start-share reduced only {factor}x"
print("OK: start-share reductions",
      summary["start_share_reduction"], "- parity and ranking hold")
EOF

echo "== cost-based optimizer benchmark (reduced workload) =="
python benchmarks/bench_optimizer.py --remote-rows 5000 \
    --udtf-outer-rows 100 --out BENCH_optimizer_smoke.json > /dev/null

python - <<'EOF'
import json

summary = json.load(open("BENCH_optimizer_smoke.json"))
assert summary["rows_identical"], "cost-based plan changed result rows"
assert summary["speedup"] >= 3.0, f"speedup {summary['speedup']}x < 3x"
print(f"OK: {summary['speedup']}x optimizer speedup, rows identical")
EOF

echo "== concurrent serving smoke (reduced workload) =="
python benchmarks/bench_concurrency.py --sessions 4 --calls 4 \
    --out BENCH_concurrency_smoke.json > /dev/null

python - <<'EOF'
import json

summary = json.load(open("BENCH_concurrency_smoke.json"))
assert summary["single_session_parity"], "serving layer changed results"
assert summary["cross_worker_parity"], "worker count changed results"
assert all(r["throughput_calls_per_s"] > 0 for r in summary["runs"])
print("OK: concurrency parity holds at", len(summary["runs"]),
      "worker counts")
EOF
