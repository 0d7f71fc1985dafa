"""Layer spans recorded from outside the program.

The traced run wraps the public entry points of each layer (class methods
and module functions of ``repro``) with timing wrappers installed from this
file; nothing under ``src/`` is edited.  Every wrapped call becomes a span
(name, start, end, parent, job id) kept in memory, and its *self time* —
duration minus the time its wrapped children took — is summed per span
name.  The spans are written once, at the end, as a Chrome trace-event
file that Perfetto loads, with the program's own ``SpanTracer``.

:class:`CallCounter` counts Python function calls with ``sys.setprofile``
while a simulation entry point runs; it is used in its own pass, apart
from the timed spans, because profiling every call would swamp them.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from repro.core.policies import PaperSteering, SteeringPolicy
from repro.core.processor import Processor
from repro.evaluation import batch as batch_mod
from repro.evaluation import vector as vector_mod
from repro.fabric.fabric import Fabric
from repro.frontend.decode import DecodeStage
from repro.frontend.fetch import FetchUnit
from repro.sched import wakeup_vec
from repro.sched.ruu import RegisterUpdateUnit
from repro.serving import jobs as jobs_mod
from repro.serving.app import ServingApp
from repro.serving.store import RunStore
from repro.steering.loader import ConfigurationLoader
from repro.steering.selection import ConfigurationSelectionUnit
from repro.telemetry.spans import SpanTracer

#: spans kept for the trace file; self times keep accumulating past it.
MAX_SPANS = 100_000

# (owner, attribute, span name) — owner is a class or a module.
SCALAR_SPANS = (
    (Processor, "run", "core.run"),
    (RegisterUpdateUnit, "retire", "sched.retire"),
    (RegisterUpdateUnit, "issue_and_execute", "sched.issue"),
    (RegisterUpdateUnit, "dispatch", "sched.dispatch"),
    (RegisterUpdateUnit, "tick", "sched.tick"),
    (FetchUnit, "fetch_packet", "frontend.fetch"),
    (DecodeStage, "push", "frontend.decode"),
    (DecodeStage, "pop", "frontend.decode"),
    (SteeringPolicy, "cycle", "steering.cycle"),
    (PaperSteering, "cycle", "steering.cycle"),
    (ConfigurationSelectionUnit, "select", "steering.select"),
    (ConfigurationLoader, "step", "steering.loader"),
    (Fabric, "tick", "fabric.tick"),
)

VECTOR_SPANS = (
    (batch_mod, "run_many", "evaluation.run_many"),
    (batch_mod, "run_vector_batch", "vector.batch"),
    (wakeup_vec.LaneWakeupBank, "requests", "vector.wakeup_kernel"),
    (wakeup_vec.PyLaneWakeupBank, "requests", "vector.wakeup_kernel"),
    (wakeup_vec.LaneCountdownBank, "advance", "vector.countdown"),
    (wakeup_vec.PyLaneCountdownBank, "advance", "vector.countdown"),
    (RegisterUpdateUnit, "retire", "vector.retire"),
    (ConfigurationSelectionUnit, "select", "steering.select"),
)

SERVICE_SPANS = (
    (jobs_mod.StoreJobQueue, "claim_and_run_one", "serving.drain"),
    (jobs_mod, "run_many", "evaluation.sim"),
    (RunStore, "enqueue_job", "serving.store.enqueue"),
    (RunStore, "claim_job", "serving.store.claim"),
    (RunStore, "record_result", "serving.store.record"),
    (RunStore, "finish_job", "serving.store.finish"),
)

#: entry points that only count calls (no span): the selection unit's
#: memo-miss path.
COUNTED = ((ConfigurationSelectionUnit, "required_counts", "steering.select_miss"),)

#: where a simulation starts, per engine: the py-call count runs inside these.
SIM_ENTRY = {
    "scalar": ((Processor, "run"),),
    "vector": ((batch_mod, "run_vector_batch"),),
    "service": ((Processor, "run"),),
}


def activity(proc) -> tuple:
    """Counters that move whenever a cycle retires, issues, dispatches,
    fetches or flushes; a cycle that leaves them unchanged is quiet."""
    ruu = proc.ruu
    return (
        ruu.retired,
        ruu.dispatched,
        proc.fetch.fetched,
        proc._flushes,
        sum(ruu.issued_per_type.values()),
    )


def _request_span(method, path) -> str:
    if method == "POST":
        return "serving.submit"
    if path.startswith("/api/jobs/"):
        return "serving.poll"
    return "serving.read"


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder with per-name self and total times."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, job id]
        self.spans: list[list] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.quiet_cycles = 0
        self.job = ""
        self.origin = perf_counter()
        # one frame per open span: [child seconds, span index]
        self._stack: list[list] = []
        self._patches = _Patches()
        self._lanes: dict[int, tuple] = {}

    # ----------------------------------------------------------- spans
    def _open(self, name: str, start: float) -> list:
        stack = self._stack
        index = -1
        if len(self.spans) < MAX_SPANS:
            index = len(self.spans)
            parent = stack[-1][1] if stack else -1
            self.spans.append([name, start, start, parent, self.job])
        else:
            self.dropped += 1
        frame = [0.0, index]
        stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[0]
        self.total_s[name] += duration
        self.calls[name] += 1
        if stack:
            stack[-1][0] += duration
        if frame[1] >= 0:
            self.spans[frame[1]][2] = end

    def _span_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            start = perf_counter()
            frame = tracer._open(name, start)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, frame, start, perf_counter())

        return wrapper

    def _step_wrapper(self, fn):
        """``Processor.step`` span that also classifies the cycle as quiet."""
        tracer = self

        def step(proc):
            before = activity(proc)
            start = perf_counter()
            frame = tracer._open("core.step", start)
            try:
                return fn(proc)
            finally:
                tracer._close("core.step", frame, start, perf_counter())
                if activity(proc) == before:
                    tracer.quiet_cycles += 1

        return step

    def _lane_observer(self, fn):
        """Quiet-cycle classification for vector lanes (no span): compares
        a lane's activity counters after consecutive cycles, so phase-1
        retirement, which runs before ``_step_rest``, is included."""
        tracer = self
        lanes = self._lanes

        def step_rest(lane, req_kernel, all_kernel):
            fn(lane, req_kernel, all_kernel)
            now = activity(lane.proc)
            if lanes.get(id(lane.proc)) == now:
                tracer.quiet_cycles += 1
            lanes[id(lane.proc)] = now

        return step_rest

    def _request_wrapper(self, fn):
        tracer = self

        def handle(app, method, path, *args, **kwargs):
            name = _request_span(method, path)
            start = perf_counter()
            frame = tracer._open(name, start)
            try:
                return fn(app, method, path, *args, **kwargs)
            finally:
                tracer._close(name, frame, start, perf_counter())

        return handle

    def _count_wrapper(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------ installation
    def install(self, engine: str) -> None:
        """Wrap the entry points of ``engine`` ("scalar", "vector" or
        "service", which is the scalar engine behind the HTTP layer)."""
        patch = self._patches.set
        if engine == "vector":
            table = VECTOR_SPANS
            patch(vector_mod, "_step_rest", self._lane_observer(vector_mod._step_rest))
        else:
            table = SCALAR_SPANS + (SERVICE_SPANS if engine == "service" else ())
            patch(Processor, "step", self._step_wrapper(Processor.__dict__["step"]))
            if engine == "service":
                patch(
                    ServingApp, "handle",
                    self._request_wrapper(ServingApp.__dict__["handle"]),
                )
        for owner, attr, name in table:
            patch(owner, attr, self._span_wrapper(name, owner.__dict__[attr]))
        for owner, attr, name in COUNTED:
            patch(owner, attr, self._count_wrapper(name, owner.__dict__[attr]))

    def uninstall(self) -> None:
        self._patches.restore()
        self._lanes.clear()

    # ----------------------------------------------------------- output
    def write_chrome_trace(self, path: Path, meta: dict) -> None:
        """Write the kept spans as Chrome trace events (Perfetto-loadable),
        through the program's own trace writer, on one track so that
        nested spans render nested."""
        out = SpanTracer(max_events=MAX_SPANS)
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            out.complete(
                name, (start - self.origin) * 1e6, (end - start) * 1e6, track="host",
                span=index, parent=parent, job=job,
            )
        doc = out.to_chrome_trace()
        doc["otherData"] = dict(meta, spans_kept=len(self.spans), spans_dropped=self.dropped)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


class CallCounter:
    """Counts Python calls made while a simulation entry point runs."""

    def __init__(self) -> None:
        self.calls = 0
        self._depth = 0
        self._patches = _Patches()

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            self.calls += 1

    def _gate(self, fn):
        counter = self

        def gate(*args, **kwargs):
            counter._depth += 1
            if counter._depth == 1:
                sys.setprofile(counter._profile)
            try:
                return fn(*args, **kwargs)
            finally:
                counter._depth -= 1
                if counter._depth == 0:
                    sys.setprofile(None)

        return gate

    def install(self, engine: str) -> None:
        for owner, attr in SIM_ENTRY[engine]:
            self._patches.set(owner, attr, self._gate(owner.__dict__[attr]))

    def uninstall(self) -> None:
        sys.setprofile(None)
        self._patches.restore()
