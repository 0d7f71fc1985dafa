"""The benchmark's own tests: results, exit codes and clean-up.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, run, workloads  # noqa: E402
from repro.serving.jobs import StoreJobQueue  # noqa: E402


def _children() -> set[str]:
    """Live child process ids of this process (Linux /proc)."""
    tasks = Path(f"/proc/{os.getpid()}/task")
    if not tasks.is_dir():
        pytest.skip("needs /proc to list child processes")
    pids: set[str] = set()
    for task in tasks.iterdir():
        try:
            pids.update((task / "children").read_text().split())
        except OSError:
            continue
    return pids


def _leftovers() -> set[Path]:
    return set(run.WORK_DIR.glob("run-*")) if run.WORK_DIR.is_dir() else set()


@pytest.fixture
def clean_exit():
    """Assert the run under test leaves no temp files, threads or children."""
    files, threads, children = _leftovers(), threading.active_count(), _children()
    yield
    assert _leftovers() == files
    assert threading.active_count() == threads
    assert _children() <= children


@pytest.fixture
def wrong_reference(monkeypatch):
    """Make every retired-count check fail, as a simulator fault would."""
    original = checks.Reference.__init__

    def off_by_one(self, program):
        original(self, program)
        self.executed += 1

    monkeypatch.setattr(checks.Reference, "__init__", off_by_one)


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_workloads_are_the_commands():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_serve_jobs_full_run(clean_exit):
    result = run.measure("serve_jobs", seed=3, seconds=1, trace=False)
    assert result["correct"], result["problems"][:5]
    assert result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer(clean_exit):
    result = run.measure("scalar_quiet", seed=3, seconds=1, trace=True)
    assert result["correct"], result["problems"][:5]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("per_layer")
    assert metrics["core.quiet_cycles"]["value"] > 0
    assert metrics["sched.issue_us"]["value"] > 0
    assert metrics["vector.wakeup_kernel_us"]["value"] == 0
    assert (run.WORK_DIR / "trace-scalar_quiet-seed3.json").is_file()


def test_failed_check_exits_nonzero(clean_exit, wrong_reference, capsys):
    code = run.main(["--workload", "serve_jobs", "--seed", "3", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] > 0


def test_interrupt_cleans_up(clean_exit, monkeypatch):
    def interrupted(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(StoreJobQueue, "claim_and_run_one", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run.measure("serve_jobs", seed=3, seconds=1, trace=False)


def test_counts_repeat_across_rounds():
    workload = workloads.make("vector_sweep")
    workload.setup(5, run.WORK_DIR)
    rounds = [workload.round(workloads.NullTracer()) for _ in range(2)]
    assert run.check_counts_repeat(rounds) == []
    assert rounds[0].failed == 0


def test_traced_count_drift_is_caught():
    """Counts that only traced rounds carry are compared between those
    rounds, not skipped because the untraced warm-up lacks them."""
    untraced = workloads.Round(sim_cycles=100, counts={"fabric.reconfigurations": 4})
    traced = [
        workloads.Round(
            sim_cycles=100,
            counts={"fabric.reconfigurations": 4, "core.quiet_cycles": quiet},
        )
        for quiet in (30, 30, 31)
    ]
    assert run.check_counts_repeat([untraced] + traced[:2]) == []
    problems = run.check_counts_repeat([untraced] + traced)
    assert problems == ["round 3: count core.quiet_cycles = 31, round 1 had 30"]


def test_refuses_checkout_without_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar_busy",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
