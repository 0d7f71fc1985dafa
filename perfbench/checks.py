"""Output checks made apart from the simulator's own bookkeeping.

Every check returns a list of problems (empty when the output is right),
so a workload counts an operation as failed without stopping the run.
"""

from __future__ import annotations

import math

from repro.core.reference import run_reference
from repro.core.stats import OUTCOME_COMPLETED


class Reference:
    """Architectural outcome of a program under the reference interpreter."""

    def __init__(self, program) -> None:
        ref = run_reference(program)
        self.executed = ref.executed
        self.registers = ref.registers.snapshot()


def _same_value(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def check_result(result, ref: Reference) -> list[str]:
    """Properties every completed simulation must have."""
    problems = []
    if result.outcome != OUTCOME_COMPLETED:
        problems.append(f"outcome {result.outcome!r}, expected 'completed'")
    if result.retired != ref.executed:
        problems.append(f"retired {result.retired}, reference executed {ref.executed}")
    regs = result.final_registers or {}
    for bank in ("int", "fp"):
        got = regs.get(bank, [])
        want = ref.registers[bank]
        if len(got) != len(want) or not all(map(_same_value, got, want)):
            problems.append(f"{bank} register file differs from the reference")
    record = result.to_dict()
    if result.cycles <= 0 or record["ipc"] != result.retired / result.cycles:
        problems.append(f"ipc {record['ipc']} != retired/cycles")
    return problems


def check_kernel(kernel, dmem) -> list[str]:
    """The kernel's Python-computed goldens against the simulated memory."""
    try:
        kernel.verify(dmem)
    except AssertionError as exc:
        return [str(exc)]
    return []
