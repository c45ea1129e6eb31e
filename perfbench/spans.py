"""Span recorders the benchmark installs around the program's entry points.

Nothing here edits the program: :class:`LayerTracer` replaces a public
function or method with a timing wrapper for the duration of a traced
run and puts the original back in :meth:`LayerTracer.remove`.  Every
wrapper pushes a frame on one shared stack, so each call knows its
parent and its self time (duration minus the time its child spans
cover).

Per-event entry points (an MPI handler fires tens of thousands of times
per job) are aggregated per name: calls, total and self time.  Coarse
entry points (one DES run per MPI job, one engine sweep, one benchmark
operation) also keep every span as a record of name, start, end,
parent and self time, which :meth:`LayerTracer.dump` writes out when
the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable


class LayerTracer:
    """Timing wrappers over program entry points, removable as a unit."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []
        #: name -> [calls, total seconds, self seconds, units]
        self.stats: dict[str, list] = {}
        #: kept spans: (name, start, end, parent name, self seconds)
        self.spans: list[tuple[str, float, float, str | None, float]] = []

    # -- recording -----------------------------------------------------------

    def _wrapper(
        self,
        fn: Callable,
        name: str,
        keep: bool,
        units: Callable[[tuple], float] | None,
    ) -> Callable:
        stack = self._stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            before = units(args) if units is not None else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                stats[0] += 1
                stats[1] += duration
                stats[2] += own
                if units is not None:
                    stats[3] += units(args) - before
                if stack:
                    stack[-1][0] += duration
                if keep:
                    spans.append(
                        (name, start, end, stack[-1][1] if stack else None, own)
                    )

        return functools.wraps(fn)(wrapper)

    @contextmanager
    def span(self, name: str):
        """A kept span around a block of the benchmark's own code."""
        stack = self._stack
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        frame = [0.0, name]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            own = duration - frame[0]
            stats[0] += 1
            stats[1] += duration
            stats[2] += own
            if stack:
                stack[-1][0] += duration
            self.spans.append(
                (name, start, end, stack[-1][1] if stack else None, own)
            )

    # -- installation --------------------------------------------------------

    def wrap_method(
        self,
        cls: type,
        attr: str,
        name: str,
        *,
        keep: bool = False,
        units: Callable[[tuple], float] | None = None,
    ) -> None:
        """Time ``cls.attr`` under *name* until :meth:`remove`."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, keep, units))

    def wrap_function(
        self, module: Any, attr: str, name: str, *, keep: bool = False
    ) -> None:
        """Time the function ``module.attr`` under *name*.

        Every loaded ``repro`` module that imported the function by
        name (``from repro.memsim.bandwidth import measure_stream``)
        holds its own reference, so each alias is replaced too.
        """
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, keep, None)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, wrapper)

    def remove(self) -> None:
        """Restore every wrapped entry point, last installed first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def merge(self, other: "LayerTracer") -> None:
        """Fold another tracer's aggregates and spans into this one
        (each client thread records into its own, stack and all)."""
        for name, values in other.stats.items():
            mine = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(values):
                mine[i] += value
        self.spans.extend(other.spans)

    # -- reading -------------------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.stats.get(n, (0,))[0] for n in names)

    def total_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0))[1] for n in names)

    def self_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def units(self, *names: str) -> int:
        return sum(self.stats.get(n, (0, 0.0, 0.0, 0))[3] for n in names)

    def dump(self, path: Path) -> None:
        """Write the aggregates and kept spans as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[1] for s in self.spans), default=0.0)
        document = {
            "aggregates": {
                name: {"calls": c, "total_s": t, "self_s": s, "units": u}
                for name, (c, t, s, u) in sorted(self.stats.items())
            },
            "spans": [
                {"name": n, "start_s": b - origin, "end_s": e - origin,
                 "parent": p, "self_s": own}
                for n, b, e, p, own in self.spans
            ],
        }
        path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
