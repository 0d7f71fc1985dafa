"""The four workloads: inputs made from a seed, one round of operations,
and the checks on every output.

A *round* is a fixed list of operations that every round of a run repeats
identically, so failures are always the same share of the operations a run
attempts, and every count a round produces is the same in every round.
Every simulation builds a fresh :class:`~repro.core.processor.Processor`,
so predictors, BTB, trace cache, fabric and the selection memo start cold.
"""

from __future__ import annotations

import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.core.baselines import fixed_superscalar, steering_processor
from repro.core.params import ProcessorParams
from repro.evaluation import batch as batch_mod
from repro.fabric.configuration import PREDEFINED_CONFIGS
from repro.serving.app import ServingApp
from repro.serving.jobs import StoreJobQueue
from repro.serving.store import RunStore
from repro.telemetry import BatchTelemetry, EventLog, MetricsRegistry, events_path_for
from repro.verify.generator import GeneratorConfig, generate_program
from repro.workloads import kernels
from repro.workloads.phases import phased_program
from repro.workloads.synthetic import BALANCED_MIX, FP_MIX, INT_MIX, MEM_MIX, synthetic_program

from perfbench.checks import Reference, check_kernel, check_result

#: SimulationResult statistics that only the modelled design moves.
MODELLED = {
    "fabric.reconfigurations": "reconfigurations",
    "fabric.reconfig_bus_cycles": "reconfig_bus_cycles",
    "sched.resource_blocked_cycles": "resource_blocked_cycles",
    "sched.contention_cycles": "contention_cycles",
    "frontend.mispredictions": "mispredictions",
    "frontend.empty_cycles": "frontend_empty_cycles",
}

_MIXES = {"int": INT_MIX, "mem": MEM_MIX, "fp": FP_MIX, "balanced": BALANCED_MIX}


@dataclass
class Round:
    """What one round did and measured."""

    ops: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: host seconds of the timed work (simulations, or the request loop).
    busy_s: float = 0.0
    #: host seconds spent simulating: the simulations themselves, or the
    #: service's drain calls (claim, simulate, record).
    drain_s: float = 0.0
    #: simulations (scalar), lanes (vector) or fresh jobs (service).
    jobs: int = 0
    sim_cycles: int = 0
    steering_retired: int = 0
    steering_cycles: int = 0
    #: cycles of the ffu-only runs and of their steering partners.
    paired_ffu_cycles: int = 0
    paired_steering_cycles: int = 0
    job_latency_s: list[float] = field(default_factory=list)
    read_latency_s: list[float] = field(default_factory=list)
    #: exact counts: modelled statistics and host-side counts.
    counts: dict[str, float] = field(default_factory=dict)

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{what}: {p}" for p in problems)

    def add_modelled(self, stats: dict) -> None:
        for name, key in MODELLED.items():
            self.counts[name] = self.counts.get(name, 0) + stats[key]

    def add_policy_cycles(self, pairs: dict) -> None:
        """``pairs`` maps a (program, parameters) key to
        ``{policy: (retired, cycles)}``; steering runs give the IPC and
        pairs with an ffu-only run give the speed-up."""
        for runs in pairs.values():
            steer = runs.get("steering")
            if steer is None:
                continue
            self.steering_retired += steer[0]
            self.steering_cycles += steer[1]
            ffu = runs.get("ffu-only")
            if ffu is not None:
                self.paired_ffu_cycles += ffu[1]
                self.paired_steering_cycles += steer[1]


def reread(rnd: Round, cache, jobs: list, results: list, what: str) -> None:
    """Ask ``run_many`` once more for finished jobs, as re-running a report
    with a warm cache does; the result cache must answer."""
    rnd.ops += 1
    start = perf_counter()
    again = batch_mod.run_many(jobs, cache=cache)
    rnd.read_latency_s.append(perf_counter() - start)
    if any(a is not r for a, r in zip(again, results)):
        rnd.fail(what, ["the result cache did not answer a finished job"])


class NullTracer:
    """Stands in for :class:`perfbench.spans.Tracer` in untraced runs."""

    job = ""


# ------------------------------------------------------------- scalar engine
_POLICIES = (("steering", steering_processor), ("ffu-only", fixed_superscalar))


class ScalarWorkload:
    """Kernels run one by one on the scalar engine (``Processor.run``)."""

    engine = "scalar"

    def __init__(self, name: str, make_kernels) -> None:
        self.name = name
        self._make_kernels = make_kernels
        self.kernels: list = []

    def setup(self, seed: int, tmp_root: Path) -> None:
        rng = random.Random(seed)
        self.kernels = []
        for kernel in self._make_kernels(rng):
            jobs = {policy: batch_mod.SimJob(policy, kernel.program) for policy, _ in _POLICIES}
            keys = {policy: batch_mod.job_key(job) for policy, job in jobs.items()}
            self.kernels.append((kernel, Reference(kernel.program), jobs, keys))

    def round(self, tracer) -> Round:
        rnd = Round()
        pairs: dict = {}
        cache = batch_mod.ResultCache()
        for index, (kernel, ref, jobs, keys) in enumerate(self.kernels):
            for policy, make in _POLICIES:
                tracer.job = f"{kernel.name}.{index}/{policy}"
                start = perf_counter()
                proc = make(kernel.program)
                result = proc.run()
                elapsed = perf_counter() - start
                record = result.to_dict()
                cache.put(keys[policy], result)
                reread(rnd, cache, [jobs[policy]], [result], tracer.job)
                rnd.ops += 1
                rnd.jobs += 1
                rnd.busy_s += elapsed
                rnd.drain_s += elapsed
                rnd.job_latency_s.append(elapsed)
                rnd.sim_cycles += result.cycles
                rnd.add_modelled(record)
                pairs.setdefault(index, {})[policy] = (result.retired, result.cycles)
                problems = check_result(result, ref) + check_kernel(kernel, proc.dmem)
                if problems:
                    rnd.fail(tracer.job, problems)
        stats = cache.stats()
        rnd.counts["evaluation.cache_hits"] = stats["hits"]
        rnd.counts["evaluation.cache_misses"] = stats["misses"]
        rnd.add_policy_cycles(pairs)
        return rnd

    def after_window(self, rounds: list[Round]) -> None:
        pass

    def close(self) -> None:
        pass


# Kernel counts are chosen so that the median and the 90th percentile of a
# round's simulation times fall inside a group of runs of one kernel and
# policy, not on the edge between two groups, where they would jump.
def busy_kernels(rng: random.Random) -> list:
    """Long, perfectly predicted integer and memory loops.  Sizes are
    fixed; the seed draws the hashed values, so every seed does the same
    amount of simulated work."""
    return [
        kernels.checksum(iterations=180, seed=rng.randrange(1, 1 << 30)),
        kernels.checksum(iterations=180, seed=rng.randrange(1, 1 << 30)),
        kernels.memcpy(n=128),
        kernels.checksum(iterations=180, seed=rng.randrange(1, 1 << 30)),
    ]


def quiet_kernels(rng: random.Random) -> list:
    """Floating-point loops with long latencies: most cycles are quiet.
    Sizes are fixed; the seed draws the operands and filter taps."""
    return [
        kernels.newton_sqrt(value=round(rng.uniform(1.5, 60.0), 3), iterations=16),
        kernels.saxpy(n=44, a=round(rng.uniform(0.5, 4.0), 3)),
        kernels.fir_filter(n=32, taps=[round(rng.uniform(0.05, 0.6), 3) for _ in range(4)]),
        kernels.saxpy(n=44, a=round(rng.uniform(0.5, 4.0), 3)),
        kernels.fir_filter(n=32, taps=[round(rng.uniform(0.05, 0.6), 3) for _ in range(4)]),
    ]


# ------------------------------------------------------------- vector engine
class VectorSweep:
    """Design-space sweeps through ``run_many(workers=0)``; each sweep
    shares one program, so it runs as one lock-step vector batch."""

    engine = "vector"
    #: lanes re-simulated on the scalar engine after the timed window.
    SAMPLE_LANES = 1

    def __init__(self) -> None:
        self.sweeps: list = []
        self.seed = 0
        self.first: list[list[dict]] | None = None

    def setup(self, seed: int, tmp_root: Path) -> None:
        rng = random.Random(seed)
        self.seed = seed
        programs = []
        # many short programs average out what one seeded program does to
        # the IPC
        for _ in range(10):
            # every mix once, in a seeded order: phase changes keep moving
            # the steering target and missing the selection memo
            phases = [(mix, 2) for mix in _MIXES.values()]
            rng.shuffle(phases)
            programs.append(phased_program(phases, body_len=12, seed=rng.randrange(1 << 30)))
        for _ in range(6):
            programs.append(
                generate_program(
                    rng.randrange(1 << 30),
                    GeneratorConfig(blocks=4, body_len=8, max_iterations=4, flush_density=0.35),
                )
            )
        self.sweeps = [(p, Reference(p), self._lanes(p, rng)) for p in programs]
        self.first = None

    @staticmethod
    def _lanes(program, rng: random.Random) -> list:
        grid = [
            (latency, window, slots)
            for latency in (4, 8, 16, 32)
            for window in (5, 7)
            for slots in (6, 8)
        ]
        jobs = []
        for latency, window, slots in rng.sample(grid, 5):
            params = ProcessorParams(reconfig_latency=latency, window_size=window, n_slots=slots)
            for factory in ("steering", "ffu-only"):
                jobs.append(batch_mod.SimJob(factory, program, params))
        default = ProcessorParams(reconfig_latency=rng.choice((8, 16)))
        for config in PREDEFINED_CONFIGS:
            jobs.append(batch_mod.SimJob("static", program, default, kwargs={"config": config}))
        jobs.append(batch_mod.SimJob("random", program, default, kwargs={"seed": rng.randrange(1 << 16)}))
        jobs.append(batch_mod.SimJob("oracle", program, default))
        jobs.append(batch_mod.SimJob("demand", program, default))
        return jobs

    def round(self, tracer) -> Round:
        """The whole design space in one ``run_many`` call, as a researcher
        submits it: the engine runs one vector batch per program, and a
        lane's latency is the time until ``run_many`` reports it done."""
        rnd = Round()
        cache = batch_mod.ResultCache()
        telemetry = None if isinstance(tracer, NullTracer) else BatchTelemetry()
        tracer.job = "sweeps"
        all_jobs = [job for _, _, jobs in self.sweeps for job in jobs]
        done_at: dict[int, float] = {}

        def progress(done, total, job):
            done_at[id(job)] = perf_counter()

        start = perf_counter()
        all_results = batch_mod.run_many(
            all_jobs, workers=0, cache=cache, progress=progress, telemetry=telemetry
        )
        elapsed = perf_counter() - start
        rnd.busy_s = rnd.drain_s = elapsed
        if telemetry is not None:
            hist = telemetry.lanes_per_batch
            rnd.counts["vector.lanes_per_batch"] = hist.sum / hist.count if hist.count else 0
        records_of_round = []
        offset = 0
        for sweep_index, (program, ref, jobs) in enumerate(self.sweeps):
            results = all_results[offset:offset + len(jobs)]
            offset += len(jobs)
            tracer.job = f"sweep{sweep_index}"
            for lane, (job, result) in enumerate(zip(jobs, results)):
                reread(rnd, cache, [job], [result], f"sweep{sweep_index} lane {lane}")
            pairs: dict = {}
            records = []
            for lane, (job, result) in enumerate(zip(jobs, results)):
                record = result.to_dict()
                records.append(record)
                rnd.ops += 1
                rnd.jobs += 1
                rnd.job_latency_s.append(done_at[id(job)] - start)
                rnd.sim_cycles += result.cycles
                rnd.add_modelled(record)
                if job.factory in ("steering", "ffu-only"):
                    pairs.setdefault(job.params, {})[job.factory] = (result.retired, result.cycles)
                problems = check_result(result, ref)
                if self.first is not None and record != self.first[sweep_index][lane]:
                    problems.append("result differs from the run's first round")
                if problems:
                    rnd.fail(f"sweep{sweep_index} lane {lane} {job.factory}", problems)
            rnd.add_policy_cycles(pairs)
            records_of_round.append(records)
        stats = cache.stats()
        rnd.counts["evaluation.cache_hits"] = stats["hits"]
        rnd.counts["evaluation.cache_misses"] = stats["misses"]
        if self.first is None:
            self.first = records_of_round
        return rnd

    def after_window(self, rounds: list[Round]) -> None:
        """Re-simulate a seeded sample of lanes on the scalar engine; the
        two engines must give identical records.  A lane that disagrees
        failed in every round, so each round is charged for it."""
        rng = random.Random(self.seed ^ 0x5EED)
        for sweep_index, (program, ref, jobs) in enumerate(self.sweeps):
            for lane in rng.sample(range(len(jobs)), self.SAMPLE_LANES):
                scalar = batch_mod.execute_job(jobs[lane]).to_dict()
                if scalar != self.first[sweep_index][lane]:
                    for rnd in rounds:
                        rnd.fail(
                            f"sweep{sweep_index} lane {lane} {jobs[lane].factory}",
                            ["vector and scalar engines disagree"],
                        )

    def close(self) -> None:
        pass


# ------------------------------------------------------------ results service
class ServeJobs:
    """A closed-loop client driving ``ServingApp.handle`` in this thread.

    Each round gets a fresh file-backed store and result cache in a temp
    directory, so every round starts from the same state and the store
    never grows with the run length.  Per fresh job: POST, synchronous
    drain (``claim_and_run_one``), poll until done, read the stored run.
    Between jobs: a cache-hit resubmission of the previous job and reads of
    the run list, health, ``/metrics`` and a stored run.
    """

    engine = "service"
    #: a settled job answers its first poll; more polls than this is a fault.
    MAX_POLLS = 3

    def __init__(self) -> None:
        self.specs: list[dict] = []
        self.refs: list[Reference] = []
        self.tmp_root: Path | None = None
        self._open: list = []

    def setup(self, seed: int, tmp_root: Path) -> None:
        rng = random.Random(seed)
        self.tmp_root = tmp_root
        self.specs, self.refs = [], []
        for kind in sorted(_MIXES) * 16:
            iterations = 1
            mix_seed = rng.randrange(1 << 20)
            ref = Reference(synthetic_program(_MIXES[kind], iterations=iterations, seed=mix_seed))
            for factory in ("steering", "ffu-only"):
                self.specs.append(
                    {"factory": factory, "target": f"mix:{kind}:{iterations}:{mix_seed}", "max_cycles": 200_000}
                )
                self.refs.append(ref)
        # a set-up builds the service once, as the timed rounds do
        self._close_service(self._open_service()[0])

    def _open_service(self):
        directory = Path(tempfile.mkdtemp(prefix="serve-", dir=self.tmp_root))
        store_path = directory / "runs.sqlite"
        store = RunStore(store_path)
        events = EventLog("serve", path=events_path_for(store_path))
        service = (directory, store, events)
        self._open.append(service)
        registry = MetricsRegistry()
        cache = batch_mod.ResultCache(directory / "cache")
        jobs = StoreJobQueue(store, cache=cache, registry=registry, events=events)

        def access_log(record: dict) -> None:
            events.emit("http_request", **record)

        app = ServingApp(store, cache=cache, jobs=jobs, registry=registry, access_log=access_log, events=events)
        return service, app, jobs, cache

    def _close_service(self, service) -> None:
        directory, store, events = service
        events.close()
        store.close()
        shutil.rmtree(directory, ignore_errors=True)
        self._open.remove(service)

    def round(self, tracer) -> Round:
        rnd = Round()
        service, app, jobs, cache = self._open_service()
        handle = app.handle
        run_ids: list[str] = []
        run_id_of: dict[int, str] = {}
        pairs: dict = {}

        def request(method, path, query=None, body=b""):
            rnd.ops += 1
            status, _headers, payload = handle(method, path, query, None, body)
            return status, payload

        try:
            loop_start = perf_counter()
            for index, spec in enumerate(self.specs):
                job = f"job{index}"
                tracer.job = job
                body = json.dumps(spec).encode()
                problems = []
                start = perf_counter()
                status, payload = request("POST", "/api/jobs", body=body)
                record = json.loads(payload)
                if status != 202:
                    problems.append(f"fresh submit answered {status}")
                drain_start = perf_counter()
                drained = jobs.claim_and_run_one()
                rnd.drain_s += perf_counter() - drain_start
                if not drained:
                    problems.append("nothing to drain after a fresh submit")
                for _ in range(self.MAX_POLLS):
                    status, payload = request("GET", f"/api/jobs/{record.get('job_id')}")
                    record = json.loads(payload)
                    if record.get("state") in ("done", "failed"):
                        break
                run_id = record.get("run_id")
                status, payload = request("GET", f"/api/runs/{run_id}")
                rnd.job_latency_s.append(perf_counter() - start)
                if record.get("state") != "done":
                    problems.append(f"job ended {record.get('state')!r}: {record.get('error')}")
                if status != 200:
                    problems.append(f"stored run read answered {status}")
                else:
                    metrics = json.loads(payload)["metrics"]
                    if metrics["retired"] != self.refs[index].executed:
                        problems.append(
                            f"stored retired {metrics['retired']}, reference executed {self.refs[index].executed}"
                        )
                    rnd.sim_cycles += int(metrics["cycles"])
                    rnd.add_modelled({key: int(metrics[key]) for key in MODELLED.values()})
                    program = spec["target"]
                    pairs.setdefault(program, {})[spec["factory"]] = (
                        int(metrics["retired"]), int(metrics["cycles"])
                    )
                    run_ids.append(run_id)
                    run_id_of[index] = run_id
                rnd.jobs += 1
                if problems:
                    rnd.fail(job, problems)

                if index:
                    # the previous job again: answered from the result cache
                    tracer.job = f"job{index - 1}"
                    status, payload = request("POST", "/api/jobs", body=json.dumps(self.specs[index - 1]).encode())
                    again = json.loads(payload)
                    expected = run_id_of.get(index - 1)
                    if status != 200 or not again.get("cached") or again.get("run_id") != expected:
                        rnd.fail(
                            f"job{index - 1} resubmit",
                            [f"answered {status}, cached={again.get('cached')}, run {again.get('run_id')}"],
                        )
                tracer.job = ""
                stored = run_ids[index // 2 % len(run_ids)] if run_ids else ""
                for path in ("/api/runs", "/api/health", "/metrics", f"/api/runs/{stored}"):
                    start = perf_counter()
                    status, payload = request("GET", path)
                    rnd.read_latency_s.append(perf_counter() - start)
                    if status != 200:
                        rnd.fail(f"read {path}", [f"answered {status}"])
            status, payload = request("GET", "/api/runs", {"limit": "1000"})
            rnd.busy_s = perf_counter() - loop_start
            listed = json.loads(payload).get("count") if status == 200 else None
            if listed != len(self.specs):
                rnd.fail("run list", [f"lists {listed} runs, {len(self.specs)} distinct jobs were submitted"])
            stats = cache.stats()
            rnd.counts["evaluation.cache_hits"] = stats["hits"]
            rnd.counts["evaluation.cache_misses"] = stats["misses"]
        finally:
            self._close_service(service)
        rnd.add_policy_cycles(pairs)
        return rnd

    def after_window(self, rounds: list[Round]) -> None:
        pass

    def close(self) -> None:
        for service in list(self._open):
            self._close_service(service)


def make(name: str):
    if name == "scalar_busy":
        return ScalarWorkload(name, busy_kernels)
    if name == "scalar_quiet":
        return ScalarWorkload(name, quiet_kernels)
    if name == "vector_sweep":
        return VectorSweep()
    if name == "serve_jobs":
        return ServeJobs()
    raise KeyError(name)


WORKLOADS = ("scalar_busy", "scalar_quiet", "vector_sweep", "serve_jobs")
