"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fedcall --seed 1 --seconds 25 --trace 0

``--trace 0`` is the timed run: no wrappers are installed and the
end-to-end metrics are reported.  ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and inputs.  The same record, plus the traced spans, is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Calibration-loop rate (iterations/s) of the reference host.  Every
#: end-to-end timing is reported as it would read on that host.
REFERENCE_RATE = 3000.0
#: Timed rounds after which peak RSS is read.  Later rounds do not count,
#: so a faster program, which fits more rounds into the run, reads the same.
RSS_ROUNDS = 10


def host_rate(seconds: float = 0.02) -> float:
    """Iterations per second of an allocation-heavy calibration loop.

    The loop builds a dict of tuples and strings, the kind of work the
    program spends its time on, so its rate tracks how fast a shared host
    runs the program at the moment: on a 2-vCPU virtual machine it swung
    by up to 2x within seconds while no steal time showed.  The collector
    is off while it runs, so that the program's live heap, which a
    collection would have to traverse, does not slow the loop down; every
    table is freed by reference counting anyway.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        iterations = 0
        while time.perf_counter() - started < seconds:
            table = {}
            for key in range(2000):
                table[key] = (key, str(key))
            iterations += 1
        return iterations / (time.perf_counter() - started)
    finally:
        gc.enable()


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (``share`` in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """This process's peak resident set in MB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Interpreter, machine and input facts recorded with every result."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "gc_enabled": gc.isenabled(),
        "gc_threshold": list(gc.get_threshold()),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Set up, warm up, measure and check one workload; return the report."""
    from tracer import LAYERS, Tracer
    from workloads import DEFAULT_SIZES, WORKLOADS

    sizes = sizes or DEFAULT_SIZES
    workload = WORKLOADS[workload_name](seed, sizes)
    # Host rates, sampled right before every timed section and once after
    # the last; section ``i`` ran between samples ``i`` and ``i + 1``.
    rates: list[float] = []
    setup_samples, round_setups = [], []
    failed = 0

    def run_round(tracer=None):
        """One round, checked and stripped of its outputs afterwards."""
        nonlocal failed
        rates.append(host_rate())
        rate_index = len(rates) - 1
        prepared = workload.prepare_round()
        if prepared is not None:
            round_setups.append((prepared, rate_index))
        outer_s = None
        if tracer is None:
            round_ = workload.run_round()
        else:
            tracer.install()
            started = time.perf_counter()
            try:
                round_ = workload.run_round(tracer)
                outer_s = time.perf_counter() - started
            finally:
                tracer.uninstall()
        failed += workload.check_round(round_)
        round_.outputs = None
        round_.rate_index = rate_index
        return round_, outer_s

    try:
        for attempt in range(workload.setups):
            if attempt:
                workload.teardown()
            gc.collect()
            rates.append(host_rate())
            started = time.perf_counter()
            workload.setup()
            setup_samples.append((time.perf_counter() - started, len(rates) - 1))
        rates.append(host_rate())
        problems = workload.reference()
        warm_up, _ = run_round()
        measured, traced, layer_rounds = [], [], []
        deadline = time.perf_counter() + seconds
        if not trace:
            while len(measured) < RSS_ROUNDS or time.perf_counter() < deadline:
                measured.append(run_round()[0])
                if len(measured) == RSS_ROUNDS:
                    rss_mb = peak_rss_mb() + workload.extra_rss_mb()
        else:
            tracer = Tracer()
            while not traced or time.perf_counter() < deadline:
                measured.append(run_round()[0])
                round_, outer_s = run_round(tracer)
                traced.append(round_)
                layer_rounds.append(tracer.take() + (outer_s,))
        rates.append(host_rate())
        rounds = [warm_up] + measured + traced
        problems += workload.final_problems()
    finally:
        workload.teardown()

    def factor(rate_index: int, elasticity: float = workload.host_elasticity) -> float:
        """Scale from a section's seconds to seconds of the reference host."""
        rate = math.sqrt(rates[rate_index] * rates[rate_index + 1])
        return (rate / REFERENCE_RATE) ** elasticity

    # A fresh scenario per round makes each round's build a set-up sample.
    if round_setups:
        setup_samples = round_setups
    steady = measured + traced
    fingerprint = steady[0].sim_ms
    if any(r.sim_ms != fingerprint for r in steady):
        problems.append(
            "simulated time differs between rounds: "
            + ", ".join(sorted({repr(r.sim_ms) for r in steady}))
        )
    attempted = sum(len(r.latencies) for r in rounds)
    raw_latencies = [x for r in measured for x in r.latencies]
    # Seconds measured here, in seconds of the reference host.
    latencies = [x * factor(r.rate_index) for r in measured for x in r.latencies]
    writes = [x * factor(r.rate_index) for r in measured for x in r.write_latencies]
    walls = [r.wall_s * factor(r.rate_index) for r in measured]
    raw = {
        "setup_s": statistics.median(s for s, _ in setup_samples),
        "throughput_ops_s": len(raw_latencies) / sum(r.wall_s for r in measured),
        "op_p50_ms": percentile(raw_latencies, 0.50) * 1000,
    }
    details = {
        "host_rate": statistics.median(rates),
        "host_elasticity": workload.host_elasticity,
        "setup_elasticity": workload.setup_elasticity,
        "raw_wall": raw,
        "rounds": len(measured),
        "ops_measured": len(latencies),
        "samples_beyond_p99": len(latencies) - math.ceil(0.99 * len(latencies)),
        "sim_ms_per_round": fingerprint,
        "round_ops_s": [len(r.latencies) / r.wall_s for r in measured],
        "round_host_rates": [rates[r.rate_index] for r in measured],
        "setup_samples_s": [s for s, _ in setup_samples],
        "setup_host_rates": [rates[i] for _, i in setup_samples],
    }
    if not trace:
        metrics = {
            "setup_s": statistics.median(
                s * factor(i, workload.setup_elasticity) for s, i in setup_samples
            ),
            "throughput_ops_s": len(latencies) / sum(walls),
            "op_p50_ms": percentile(latencies, 0.50) * 1000,
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END_UNITS
        spans = []
    else:
        metrics, units = {}, {}
        first_calls = layer_rounds[0][0]
        for calls, _, _, _ in layer_rounds[1:]:
            if {k: v for k, v in calls.items() if k != "python.gc"} != {
                k: v for k, v in first_calls.items() if k != "python.gc"
            }:
                problems.append("per-layer call counts differ between traced rounds")
                break
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = first_calls.get(layer, 0)
            units[f"{layer}.calls"] = "count"
            metrics[f"{layer}.self_ms"] = statistics.median(
                self_s.get(layer, 0.0) * 1000 for _, self_s, _, _ in layer_rounds
            )
            units[f"{layer}.self_ms"] = "ms"
        for _, _, main_self_s, outer_s in layer_rounds:
            if main_self_s > outer_s:
                problems.append(
                    f"self times {main_self_s:.6f}s exceed the traced "
                    f"wall time {outer_s:.6f}s"
                )
        counters = traced[0].counters
        lookups = counters["fdbs.statement_cache.hits"] + counters["fdbs.statement_cache.misses"]
        # Pruned chunks are not counted as scanned.
        scanned = counters["fdbs.columnar.chunks_scanned"] + counters["fdbs.columnar.chunks_pruned"]
        derived = {
            "fdbs.statement_cache.hit_ratio": (
                counters["fdbs.statement_cache.hits"] / lookups if lookups else 0.0,
                "ratio",
            ),
            "fdbs.columnar.pruned_ratio": (
                counters["fdbs.columnar.chunks_pruned"] / scanned if scanned else 0.0,
                "ratio",
            ),
        }
        for stem in (
            "fdbs.mvcc.versions_published",
            "fdbs.mvcc.snapshots_pinned",
            "fdbs.federation.requests",
            "fdbs.federation.rows",
            "fdbs.federation.rate_limit_waits",
            "sysmodel.rmi.hops",
        ):
            derived[stem] = (counters[stem], "count")
        derived["simtime.sim_ms_total"] = (traced[0].sim_ms, "sim_ms")
        derived["trace.overhead_ratio"] = (
            statistics.median(r.wall_s * factor(r.rate_index) for r in traced)
            / statistics.median(walls)
            - 1.0,
            "ratio",
        )
        derived["op_p99_ms"] = (percentile(latencies, 0.99) * 1000, "ms")
        derived["write_p50_ms"] = (percentile(writes, 0.50) * 1000, "ms")
        derived["error_rate"] = (failed / attempted, "ratio")
        for name, (value, unit) in derived.items():
            metrics[name] = value
            units[name] = unit
        spans = tracer.spans
    report = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    return {"report": report, "details": details, "problems": problems, "spans": spans}


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # String hashing feeds set and dict order; pin it so that one seed
    # gives one simulated-time fingerprint in every process.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")

    env = environment(args.workload, args.seed, args.seconds, bool(args.trace))
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in outcome["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(
        json.dumps(
            {
                "env": env,
                **{key: outcome[key] for key in ("report", "details", "problems")},
                "span_fields": ["layer", "start", "end", "parent", "op", "thread"],
                "spans": outcome["spans"],
            }
        )
    )
    print(json.dumps({"env": env, "details": outcome["details"]}))
    print(json.dumps(outcome["report"]))
    return 0 if outcome["report"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
