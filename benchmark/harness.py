"""Timing harness: reference kernel, run guards and the round loop.

Task time is expressed in ``ref`` units: the mean of the reference-kernel
times measured right before and right after the task.  Machine-speed drift
(noisy neighbours, cache contention) slows the kernel and the task alike, so
the ratio holds where raw wall-clock rates do not.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

REF_LOOP = 45_000
REF_WALK = 75_000
REF_ARRAY_STEPS = 300
# Median CPU share of the reference kernel below which the run is refused:
# the kernel then competed with other work and ``ref`` no longer measures
# the machine's speed.
MIN_CPU_SHARE = 0.5


class HarnessError(RuntimeError):
    """A run guard tripped; the run's figures would not be comparable."""


def walk_list() -> list[float]:
    """Floats visited out of allocation order, so that walking them misses
    the caches the way the package's object-heavy loops do."""
    values = [float(i) for i in range(2 * REF_WALK)]
    random.Random(0).shuffle(values)
    return values[:REF_WALK]


def reference_kernel(walk: list[float]) -> int:
    """Fixed work of about 10 ms: a pure-Python integer loop, a pure-Python
    walk over ``walk`` and small numpy updates.

    The walk makes the kernel slow down with the cache and memory contention
    of a shared machine about as much as the workloads do; a kernel without
    it slowed down less than the tasks did in slow phases.
    """
    acc = 0
    for i in range(REF_LOOP):
        acc = (acc + i * i) % 1_000_003
    total = 0.0
    for x in walk:
        total += x
    a = np.zeros(256)
    for k in range(REF_ARRAY_STEPS):
        a += k
        a *= 0.5
    return acc + int(total) + int(a[0])


def thread_count() -> int:
    """OS threads of this process; 1 where ``/proc`` is unavailable."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 1


class Reference:
    """Runs the reference kernel and keeps its wall and CPU times."""

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self._walk = walk_list()

    def measure(self) -> float:
        if thread_count() > 1:
            raise HarnessError("more than one OS thread while the reference kernel runs")
        c0 = time.process_time()
        w0 = time.perf_counter()
        reference_kernel(self._walk)
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        if thread_count() > 1:
            raise HarnessError("more than one OS thread while the reference kernel runs")
        self.walls.append(wall)
        self.cpus.append(cpu)
        return wall

    def cpu_share(self) -> float:
        return statistics.median(c / w for c, w in zip(self.cpus, self.walls))

    def check_cpu_share(self) -> None:
        share = self.cpu_share()
        if share < MIN_CPU_SHARE:
            raise HarnessError(
                f"reference kernel got {share:.2f} of a CPU (minimum {MIN_CPU_SHARE})"
            )


@dataclass
class Task:
    """One operation of a round.

    ``check(output)`` returns a list of problems, empty when the output is
    correct.  ``expect`` names the exception type of a known fault: the task
    then counts as failed, not as incorrect.
    """

    name: str
    cells: int
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    expect: type[BaseException] | None = None


@dataclass
class TaskRecord:
    name: str
    round: int
    wall_s: float
    ref_s: float
    cells: int
    failed: bool

    @property
    def cost_ref(self) -> float:
        return self.wall_s / self.ref_s


@dataclass
class RunLog:
    records: list[TaskRecord] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def rounds(self) -> list[list[TaskRecord]]:
        by_round: dict[int, list[TaskRecord]] = {}
        for rec in self.records:
            by_round.setdefault(rec.round, []).append(rec)
        return [by_round[r] for r in sorted(by_round)]


def run_round(tasks: list[Task], round_index: int, ref: Reference, log: RunLog, tracer=None):
    """Run the tasks of one round in order, each between two reference
    kernels, and check each output outside the timed region."""
    for task in tasks:
        gc.collect()
        r0 = ref.measure()
        error = None
        output = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = task.run()
            else:
                output = tracer.run_task(task.name, round_index, task.run)
        except Exception as exc:  # every failure is counted and reported
            error = exc
        wall = time.perf_counter() - t0
        r1 = ref.measure()
        ref_s = 0.5 * (r0 + r1)
        if tracer is not None:
            tracer.set_task_ref(ref_s)
        log.records.append(
            TaskRecord(task.name, round_index, wall, ref_s, task.cells, error is not None)
        )
        if error is not None:
            if task.expect is None or not isinstance(error, task.expect):
                log.problems.append(
                    f"{task.name}: unexpected {type(error).__name__}: {error}\n"
                    + "".join(traceback.format_exception(error))
                )
            continue
        log.problems.extend(f"{task.name}: {p}" for p in task.check(output))


def run_for(make_round, rng, seconds: float, ref: Reference, log: RunLog, first_round: int,
            tracer=None) -> int:
    """Run whole rounds until ``seconds`` have passed; return the next round
    index.  A run is cut only at a round boundary."""
    start = time.perf_counter()
    r = first_round
    while True:
        run_round(make_round(rng), r, ref, log, tracer)
        r += 1
        if time.perf_counter() - start >= seconds:
            return r


def round_costs(rounds: list[list[TaskRecord]]) -> list[float]:
    """Cost of each round in ref units."""
    return [sum(rec.cost_ref for rec in rnd) for rnd in rounds]


def ok_cells(rounds: list[list[TaskRecord]]) -> list[int]:
    """Mesh cells of the operations that did not fail, per round."""
    return [sum(rec.cells for rec in rnd if not rec.failed) for rnd in rounds]


def cells_per_ref(rounds: list[list[TaskRecord]]) -> float:
    return statistics.median(ok_cells(rounds)) / statistics.median(round_costs(rounds))


def task_wall_medians(records: list[TaskRecord]) -> dict[str, float]:
    names = dict.fromkeys(rec.name for rec in records)
    return {
        name: statistics.median(rec.wall_s for rec in records if rec.name == name)
        for name in names
    }
