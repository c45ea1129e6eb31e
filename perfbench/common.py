"""Shared plumbing: the run context, output checks, percentiles, processes."""

from __future__ import annotations

import contextlib
import gc
import heapq
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 5
#: Scratch space of every run, inside the checkout and git-ignored.
WORK = ROOT / ".perfbench" / "work"


class CheckFailed(Exception):
    """An output check failed; ``kind`` names the check."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind


def percentile(values, q: int) -> float:
    """The *q*-th percentile (1..99), as ``statistics.quantiles`` cuts it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


#: Time of :func:`calibration_loop`, and of :func:`heap_loop`, on the
#: reference core.
REFERENCE_LOOP_S = 0.1


def calibration_loop() -> float:
    """Time a fixed pure-Python workload of the program's kind and none
    of its code: build a few MB of small dicts, lists and strs, read
    them back in a scattered order, and dump a third of them as JSON.

    A smaller, cache-resident loop swings about twice as far as the
    program does when a neighbour loads the core; this one, with the
    collector on as in the program, moves with it (README.md).
    """
    start = time.perf_counter()
    count = 40_000
    table = {}
    for i in range(count):
        table[i] = {"id": i, "name": f"r{i}", "vals": [i * 0.5, i * 0.25]}
    total = 0.0
    for k in range(0, count, 7):
        row = table[(k * 7919) % count]
        total += row["vals"][0] + len(row["name"])
    json.dumps(list(table.values())[: count // 3])
    return time.perf_counter() - start


def heap_loop() -> float:
    """Time a fixed pure-Python loop of heap, dict, list and str work on
    a cache-resident table, with the collector off.

    ``trace-fig4`` scales its in-process passes by this loop and
    :func:`calibration_loop` together: the passes swing less far than
    this loop and further than that one (README.md).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: list[tuple[float, int]] = []
        table: dict[int, list] = {}
        total = 0
        for i in range(25_000):
            heapq.heappush(heap, ((i * 7919) % 1000 + 0.5, i))
            table[i] = [i, str(i)]
        while heap:
            _, i = heapq.heappop(heap)
            total += len(table.pop(i)[1])
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@contextlib.contextmanager
def one_core():
    """Run the body, and every process it starts, on one core.

    A single-threaded timing is then calibrated by loops on the core it
    ran on: the two cores of a shared host swing independently.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def loops_on_each_core(count: int) -> list[float]:
    """*count* calibration loops on each core this process may use: the
    cores a timing just before or after them ran on."""
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for core in sorted(allowed):
            os.sched_setaffinity(0, {core})
            times.extend(calibration_loop() for _ in range(count))
    finally:
        os.sched_setaffinity(0, allowed)
    return times


def tail_percentile(count: int) -> int | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if count * (100 - q) / 100 >= 10:
            return q
    return None


@dataclass
class Context:
    """One benchmark run: its arguments, scratch space and error ledger."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _dirs: int = 0

    # -- scratch space -------------------------------------------------------

    def fresh_dir(self, prefix: str) -> Path:
        with self._lock:
            self._dirs += 1
            path = self.work / f"{prefix}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def env(self) -> dict[str, str]:
        """Environment of every program process the benchmark starts.

        The default cache and temp directories point into the run's
        scratch space, so nothing inherited (``REPRO_CACHE_DIR``,
        ``~/.cache/repro``) is read or written.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_CACHE_DIR"] = str(self.work / "default-cache")
        env["TMPDIR"] = str(self.work / "tmp")
        return env

    # -- operations and checks -----------------------------------------------

    def attempt(self, label: str, fn):
        """Run one operation; a raised error counts it as failed.

        Returns ``fn()``'s result, or ``None`` when it failed.
        """
        with self._lock:
            self.attempted += 1
        try:
            return fn()
        except CheckFailed as error:
            self.record_failure(f"{label}: {error}")
        except Exception as error:  # a refused or crashed operation
            self.record_failure(f"{label}: {type(error).__name__}: {error}")
        return None

    def setup_time(self, fn) -> float:
        """Median of :data:`SETUP_REPEATS` timed set-ups, scaled to the
        reference core by calibration loops timed between them."""
        walls, loops = [], loops_on_each_core(1)
        for _ in range(SETUP_REPEATS):
            wall = self.attempt("setup", fn)
            if wall is not None:
                walls.append(wall)
            loops.extend(loops_on_each_core(1))
        check(bool(walls), "SetupFailed", "every set-up attempt failed")
        self.report("setup_raw_s", "s", walls)
        return self.core_scale("set-up", loops) * median(walls)

    def core_scale(self, label: str, loops: list[float],
                   stat=fmean) -> float:
        """Factor that scales times taken between *loops* to the
        reference core; noted in the ledger with the loop times.

        By default the mean: a timing pays for every slow stretch of the
        core, and the mean loop time weighs them the same way.
        """
        loop = stat(loops)
        scale = REFERENCE_LOOP_S / loop
        self.note(f"{label}: calibration loop {stat.__name__} {loop:.6g} s "
                  f"(n={len(loops)}), reference-core scale {scale:.6g}")
        return scale

    def record_failure(self, message: str) -> None:
        with self._lock:
            self.failed += 1
            self.errors.append(message)
        print(f"[perfbench] error: {message}", file=sys.stderr)

    def note(self, line: str) -> None:
        """A ledger line printed on stderr after the run."""
        self.lines.append(line)

    def report(self, name: str, unit: str, values: list[float],
               tail: str | None = None) -> None:
        """Ledger lines for one latency class: its median and, when the
        samples support it, the highest percentile with at least ten
        samples beyond it (named *tail* with ``{q}`` for the percentile)."""
        self.note(f"{name} = {median(values):.6g} {unit} (n={len(values)})")
        q = tail_percentile(len(values))
        if tail is not None and q is not None:
            self.note(f"{tail.format(q=q)} = {percentile(values, q):.6g} "
                      f"{unit} (n={len(values)})")


def add_cluster_counts(totals: dict[str, float], counters: dict) -> None:
    """Add one metrics export's cluster counters into *totals*.

    *counters* is the ``counters`` map of a registry snapshot or a
    ``metrics.json`` export (name -> ``{"value": ...}``).
    """
    for name, counter in counters.items():
        if name == "des.events_dispatched":
            key = "cluster.des.events"
        elif name.startswith("mpi.messages."):
            key = "cluster.mpi.messages"
        elif name == "net.bytes":
            key = "cluster.net.bytes"
        else:
            continue
        totals[key] = totals.get(key, 0.0) + counter["value"]


def check(ok: bool, kind: str, message: str) -> None:
    if not ok:
        raise CheckFailed(kind, message)


# -- processes ----------------------------------------------------------------


def run_program(argv: list[str], ctx: Context, *, timeout: float = 170.0):
    """Run ``python <argv>`` to completion; returns ``(code, out, err, wall)``.

    The process gets its own session so a timeout or an interrupt kills
    the whole group (the engine's forked workers included), and the
    call always waits for it to end.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ctx.work, env=ctx.env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        kill_group(proc)
        raise
    return proc.returncode, out, err, time.perf_counter() - start


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL *proc*'s process group and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def make_workspace() -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    (work / "tmp").mkdir()
    return work


def remove_workspace(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
