"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scalar_busy --seed 1 --seconds 20 --trace 0

Everything runs in this process and its main thread: no server, socket,
process pool or extra thread.  The only child process is the one-shot
``git rev-parse`` the run store makes.  A run does:

1. set-up, several times (inputs from ``--seed`` and their reference
   results; the service also builds its store once), reporting the median;
2. one warm-up round, checked but not timed;
3. whole rounds until ``--seconds`` have passed.  With ``--trace 0`` they
   give the end-to-end metrics.  With ``--trace 1`` one round counts
   Python calls, half the window runs untraced and half with layer spans,
   giving the per-layer metrics and the tracing overhead; the spans go to
   ``.perfbench/trace-<workload>-seed<n>.json``;
4. checks made after the window (the vector engine's scalar re-runs).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every operation passed its checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: run-time files (temp stores, trace files) live here, inside the checkout.
WORK_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 15

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "steering_ipc": "instr/cycle",
    "steering_speedup": "ratio",
    "peak_rss_mb": "MB",
    "jobs_per_s": "jobs/s",
    "job_latency_p50_ms": "ms",
    "job_latency_p90_ms": "ms",
    "read_latency_p50_ms": "ms",
    "read_latency_p90_ms": "ms",
}

#: per-layer self time per simulated cycle: metric -> span names.
STAGE_US = {
    "sched.retire_us": ("sched.retire",),
    "sched.issue_us": ("sched.issue",),
    "sched.dispatch_us": ("sched.dispatch",),
    "sched.tick_us": ("sched.tick",),
    "frontend.fetch_us": ("frontend.fetch",),
    "frontend.decode_us": ("frontend.decode",),
    "steering.cycle_us": ("steering.cycle",),
    "steering.select_us": ("steering.select",),
    "steering.loader_us": ("steering.loader",),
    "fabric.tick_us": ("fabric.tick",),
    "core.step_self_us": ("core.step", "core.run"),
    "vector.wakeup_kernel_us": ("vector.wakeup_kernel",),
    "vector.countdown_us": ("vector.countdown",),
    "vector.retire_us": ("vector.retire",),
    "vector.lane_other_us": ("vector.batch",),
    "evaluation.run_many_us": ("evaluation.run_many",),
}

#: per-call service times: metric -> (span name, inclusive?).
SERVICE_MS = {
    "serving.submit_ms": ("serving.submit", False),
    "serving.store.enqueue_ms": ("serving.store.enqueue", False),
    "serving.store.claim_ms": ("serving.store.claim", False),
    "evaluation.sim_ms": ("evaluation.sim", True),
    "serving.store.record_ms": ("serving.store.record", False),
    "serving.store.finish_ms": ("serving.store.finish", False),
    "serving.drain_ms": ("serving.drain", False),
    "serving.poll_ms": ("serving.poll", False),
    "serving.read_ms": ("serving.read", False),
}

#: counts a traced round produces (besides the modelled statistics).
ROUND_COUNTS = {
    "core.sim_cycles": "count",
    "core.quiet_cycles": "count",
    "steering.select_calls": "count",
    "steering.select_misses": "count",
    "vector.lanes_per_batch": "lanes",
    "evaluation.cache_hits": "count",
    "evaluation.cache_misses": "count",
}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def one_round(workload, tracer):
    """One round, started from a collected heap: the garbage a round leaves
    behind (the vector engine's lanes are reference cycles) is collected
    outside the timing, so each round's collections fall at the same
    points in every run instead of wherever the last round left off."""
    gc.collect()
    return workload.round(tracer)


def run_rounds(workload, tracer, seconds: float) -> list:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    rounds = []
    deadline = time.monotonic() + seconds
    while True:
        rounds.append(one_round(workload, tracer))
        if time.monotonic() >= deadline:
            return rounds


def sim_rate(rounds: list) -> float:
    """Simulated cycles per host second spent simulating, over the window."""
    return sum(r.sim_cycles for r in rounds) / sum(r.drain_s for r in rounds)


def end_to_end(rounds: list, setup_s: list[float]) -> dict[str, float]:
    first = rounds[0]
    job_ms = [s * 1e3 for r in rounds for s in r.job_latency_s]
    read_ms = [s * 1e3 for r in rounds for s in r.read_latency_s]
    return {
        "setup_s": statistics.median(setup_s),
        "sim_cycles_per_s": sim_rate(rounds),
        "steering_ipc": first.steering_retired / first.steering_cycles,
        "steering_speedup": first.paired_ffu_cycles / first.paired_steering_cycles,
        "peak_rss_mb": peak_rss_mb(),
        "jobs_per_s": sum(r.jobs for r in rounds) / sum(r.busy_s for r in rounds),
        "job_latency_p50_ms": percentile(job_ms, 50),
        "job_latency_p90_ms": percentile(job_ms, 90),
        "read_latency_p50_ms": percentile(read_ms, 50),
        "read_latency_p90_ms": percentile(read_ms, 90),
    }


def traced_rounds(workload, seconds: float):
    """The per-layer pass: a call-count round, untraced rounds, traced rounds."""
    from perfbench.spans import CallCounter, Tracer
    from perfbench.workloads import NullTracer

    counter = CallCounter()
    counter.install(workload.engine)
    try:
        count_round = one_round(workload, NullTracer())
    finally:
        counter.uninstall()
    untraced = run_rounds(workload, NullTracer(), seconds / 2)
    tracer = Tracer()
    tracer.install(workload.engine)
    traced = []
    try:
        deadline = time.monotonic() + seconds / 2
        while True:
            calls_before = dict(tracer.calls)
            quiet_before = tracer.quiet_cycles
            rnd = one_round(workload, tracer)
            delta = {k: v - calls_before.get(k, 0) for k, v in tracer.calls.items()}
            rnd.counts["core.sim_cycles"] = rnd.sim_cycles
            rnd.counts["core.quiet_cycles"] = tracer.quiet_cycles - quiet_before
            rnd.counts["steering.select_calls"] = delta.get("steering.select", 0)
            rnd.counts["steering.select_misses"] = delta.get("steering.select_miss", 0)
            traced.append(rnd)
            if time.monotonic() >= deadline:
                break
    finally:
        tracer.uninstall()
    return count_round, counter.calls, untraced, traced, tracer


def per_layer(count_round, py_calls, untraced, traced, tracer) -> dict[str, tuple[float, str]]:
    from perfbench.workloads import MODELLED

    cycles = sum(r.sim_cycles for r in traced)
    out: dict[str, tuple[float, str]] = {}
    for metric, spans in STAGE_US.items():
        seconds = sum(tracer.self_s.get(name, 0.0) for name in spans)
        out[metric] = (seconds / cycles * 1e6, "us/cycle")
    for metric, (name, inclusive) in SERVICE_MS.items():
        calls = tracer.calls.get(name, 0)
        seconds = (tracer.total_s if inclusive else tracer.self_s).get(name, 0.0)
        out[metric] = (seconds / calls * 1e3 if calls else 0.0, "ms")
    out["core.py_calls_per_cycle"] = (py_calls / count_round.sim_cycles, "calls/cycle")
    first = traced[0]
    for name, unit in ROUND_COUNTS.items():
        out[name] = (first.counts.get(name, 0), unit)
    for name in MODELLED:
        out[name] = (first.counts[name], "count")
    out["trace.overhead_ratio"] = (sim_rate(untraced) / sim_rate(traced), "ratio")
    return out


def check_counts_repeat(rounds: list) -> list[str]:
    """Every count a round produces must be identical in every round that
    produces it.  Each count is compared with the first round that has it:
    the traced rounds add host-side counts the untraced rounds lack."""
    problems = []
    first_cycles = rounds[0].sim_cycles
    first: dict[str, tuple[int, float]] = {}
    for index, rnd in enumerate(rounds):
        if rnd.sim_cycles != first_cycles:
            problems.append(f"round {index}: {rnd.sim_cycles} simulated cycles, round 0 had {first_cycles}")
        for name, value in rnd.counts.items():
            base_index, base = first.setdefault(name, (index, value))
            if value != base:
                problems.append(f"round {index}: count {name} = {value}, round {base_index} had {base}")
    return problems


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object the command prints."""
    from perfbench import workloads
    from perfbench.workloads import NullTracer

    WORK_DIR.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    workload = workloads.make(name)
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            workload.setup(seed, tmp_root)
            setup_s.append(perf_counter() - start)
        rounds = [one_round(workload, NullTracer())]  # warm-up: lazy caches fill
        if trace:
            count_round, py_calls, untraced, traced, tracer = traced_rounds(workload, seconds)
            rounds += [count_round] + untraced + traced
            metrics = per_layer(count_round, py_calls, untraced, traced, tracer)
            tracer.write_chrome_trace(
                WORK_DIR / f"trace-{name}-seed{seed}.json",
                {"workload": name, "seed": seed},
            )
        else:
            timed = run_rounds(workload, NullTracer(), seconds)
            rounds += timed
            metrics = {
                key: (value, END_TO_END_UNITS[key])
                for key, value in end_to_end(timed, setup_s).items()
            }
        workload.after_window(rounds)
        repeat_problems = check_counts_repeat(rounds)
    finally:
        workload.close()
        shutil.rmtree(tmp_root, ignore_errors=True)
    problems = [p for r in rounds for p in r.problems] + repeat_problems
    failed = sum(r.failed for r in rounds)
    return {
        "correct": failed == 0 and not repeat_problems,
        "attempted": sum(r.ops for r in rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
    }


def main(argv: list[str] | None = None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    threads_before = threading.active_count()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    problems = result.pop("problems")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if threading.active_count() != threads_before:
        print("a thread started by the run is still alive", file=sys.stderr)
        result["correct"] = False
    for key, metric in result["metrics"].items():
        print(f"{key:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'attempted':32s} {result['attempted']:>16d}")
    print(f"{'failed':32s} {result['failed']:>16d}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _bootstrap() -> None:
    """Make the program under test importable from this checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}")
    # the script's own directory would shadow top-level modules
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "perfbench"]
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


if __name__ == "__main__":
    _bootstrap()
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        sys.exit(130)
