"""The scenario registry: named, validated job types.

A scenario maps a client's ``{"scenario": name, "params": {...}}``
submission onto a (sweep key, point params, worker) triple.  The
scenarios shared with the batch sweeps — ``cluster-elapsed``,
``cluster-energy``, ``magicfilter``, ``page-alloc`` and
``chaos-squares`` — are derived from the engine's point table
(:data:`repro.engine.sweeps.POINT_KINDS`), and every job is keyed with
the engine's own :func:`~repro.engine.engine.key_material`, so the
service and the batch CLI are two doors into the *same*
content-addressed result space: a point computed by ``repro fig3`` is
a warm cache hit for ``repro submit``, and vice versa.  The
service-native scenarios (``squares``, ``sleepy``, ``trace-analysis``)
are declared here in the same form.

Every scenario carries a ``scenario_class`` — the circuit-breaker
granularity.  A class that keeps crashing workers is shed as a unit
while other classes keep flowing.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.engine.engine import Worker, key_material
from repro.engine.hashing import content_key
from repro.engine.sweeps import POINT_KINDS, PointKind
from repro.errors import InvalidJobRequest


# ---------------------------------------------------------------------------
# Service-native workers (module-level: picklable for forked attempts)
# ---------------------------------------------------------------------------


def squares_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """The demo workload: instant, pure, verifiable at a glance."""
    x = params["x"]
    return {"value": x * x}


def sleepy_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """A workload that just takes time — the knob chaos tests turn to
    hold pool slots, overflow the queue, or outlive a deadline."""
    duration = params["duration_s"]
    time.sleep(duration)
    return {"slept_s": duration}


def trace_analysis_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """Run one fig4-style traced job under the streaming analyzer.

    The trace never materializes: the simulation drives
    :class:`~repro.tracing.stream.TraceStreamAnalyzer` directly, and
    when the service injected a ``_progress_path`` every provisional
    live summary is appended there as one NDJSON line (what
    ``GET /jobs/<id>/trace`` tails).  The returned value is the final
    exact analysis summary.
    """
    import json

    from repro.apps import BigDFT, Specfem3D
    from repro.cluster import MpiJob, tibidabo
    from repro.tracing.stream import StreamConfig, TraceStreamAnalyzer

    app = BigDFT() if params["app"] == "bigdft" else Specfem3D()
    num_ranks = params["num_ranks"]
    seed = params["seed"]
    progress_path = params.get("_progress_path")
    handle = None
    on_summary = None
    if progress_path:
        handle = open(progress_path, "a", encoding="utf-8")

        def on_summary(summary: dict) -> None:
            handle.write(json.dumps(summary, sort_keys=True) + "\n")
            handle.flush()

    analyzer = TraceStreamAnalyzer(
        StreamConfig(
            summary_every=2048 if on_summary is not None else 0,
            on_summary=on_summary,
        )
    )
    try:
        cluster = tibidabo(num_nodes=max(1, (num_ranks + 1) // 2), seed=seed)
        MpiJob(
            cluster, num_ranks, app.rank_program(cluster, num_ranks),
            tracer=analyzer,
        ).run()
        result = analyzer.finalize()
        if on_summary is not None:
            # One last provisional line so late subscribers see the
            # stream reach its final event count before the job value.
            on_summary(analyzer.live_summary())
        efficiencies = result.waits.efficiencies
        return {
            "scenario": f"fig4-{params['app']}-{num_ranks}ranks-seed{seed}",
            "num_ranks": result.num_ranks,
            "runtime_s": result.runtime_seconds,
            "explanation": result.waits.explain(),
            "critical_path_s": result.path.breakdown,
            "wait_states": [
                {
                    "category": entry.category,
                    "label": entry.label,
                    "seconds": entry.seconds,
                    "occurrences": entry.occurrences,
                }
                for entry in result.waits.entries
            ],
            "efficiency": {
                "load_balance": efficiencies.load_balance,
                "communication_efficiency":
                    efficiencies.communication_efficiency,
                "parallel_efficiency": efficiencies.parallel_efficiency,
            },
            "stream": result.stats.to_dict(),
        }
    finally:
        analyzer.close()
        if handle is not None:
            handle.close()


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------


def _validated(
    scenario: str, params: Mapping[str, Any], kind: PointKind
) -> dict[str, Any]:
    """Check *params* against the field table of *kind*.

    Every submitted key must be a field, every field missing from both
    *params* and the defaults is an error, and type mismatches are
    reported with what arrived.  The result is a complete, defaulted
    point in field order.
    """
    unknown = sorted(set(params) - set(kind.fields))
    if unknown:
        raise InvalidJobRequest(
            f"scenario {scenario!r} does not accept parameter(s) "
            f"{', '.join(repr(u) for u in unknown)}; "
            f"accepted: {', '.join(sorted(kind.fields))}"
        )
    out: dict[str, Any] = {}
    for name, types in kind.fields.items():
        if name in params:
            value = params[name]
        elif name in kind.defaults:
            # A copy: the defaults are shared by every submission.
            value = copy.deepcopy(kind.defaults[name])
        else:
            raise InvalidJobRequest(
                f"scenario {scenario!r} requires parameter {name!r}"
            )
        if not isinstance(value, types) or (
            # bool passes isinstance(int) — reject it where a number
            # is meant, or True silently becomes cores=1.
            isinstance(value, bool) and bool not in types
        ):
            wanted = "/".join(t.__name__ for t in types)
            raise InvalidJobRequest(
                f"scenario {scenario!r} parameter {name!r} must be "
                f"{wanted}, got {type(value).__name__} ({value!r})"
            )
        out[name] = value
    return out


def _check_sleepy(point: dict[str, Any]) -> None:
    if point["duration_s"] < 0:
        raise InvalidJobRequest(
            f"scenario 'sleepy' duration_s must be >= 0, "
            f"got {point['duration_s']}"
        )


def _check_trace_analysis(point: dict[str, Any]) -> None:
    if point["app"] not in ("bigdft", "specfem3d"):
        raise InvalidJobRequest(
            f"scenario 'trace-analysis' app must be 'bigdft' or "
            f"'specfem3d', got {point['app']!r}"
        )
    if not 2 <= point["num_ranks"] <= 256:
        raise InvalidJobRequest(
            f"scenario 'trace-analysis' num_ranks must be in [2, 256], "
            f"got {point['num_ranks']}"
        )


def _check_shape(point: dict[str, Any]) -> None:
    shape = point["shape"]
    if len(shape) != 3 or not all(isinstance(n, int) for n in shape):
        raise InvalidJobRequest(
            f"scenario 'magicfilter' shape must be [nx, ny, nz], "
            f"got {shape!r}"
        )


def _float_fragmentation(point: dict[str, Any]) -> None:
    point["fragmentation"] = float(point["fragmentation"])


@dataclass(frozen=True)
class Scenario:
    """One named job type the service accepts.

    ``build(params)`` validates a submission against ``kind`` and
    returns the ``(sweep_key, point)`` pair whose content key addresses
    the result.  ``check`` runs after the type checks: it refuses what
    types cannot express, and may normalize the point in place.
    """

    name: str
    scenario_class: str
    kind: PointKind
    check: Callable[[dict[str, Any]], None] | None = None
    #: Progress-streaming scenarios get a per-job NDJSON file injected
    #: as ``_progress_path`` (worker-side only — never key material),
    #: which ``GET /jobs/<id>/trace`` tails while the job runs.
    progress: bool = False

    @property
    def worker(self) -> Worker:
        return self.kind.worker

    def build(
        self, params: Mapping[str, Any]
    ) -> tuple[dict[str, Any], dict[str, Any]]:
        point = _validated(self.name, params, self.kind)
        if self.check is not None:
            self.check(point)
        return self.kind.sweep_key(point), point


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "squares", "demo",
            PointKind("service-squares", squares_point, {"x": (int,)}, ()),
        ),
        Scenario(
            "sleepy", "slow",
            PointKind(
                "service-sleepy", sleepy_point,
                {"duration_s": (int, float), "tag": (str,)}, (),
                {"tag": ""},
            ),
            check=_check_sleepy,
        ),
        Scenario("chaos-squares", "chaos", POINT_KINDS["chaos-squares"]),
        Scenario("cluster-elapsed", "cluster", POINT_KINDS["cluster-elapsed"]),
        Scenario("cluster-energy", "cluster", POINT_KINDS["cluster-energy"]),
        Scenario(
            "magicfilter", "kernels", POINT_KINDS["magicfilter"],
            check=_check_shape,
        ),
        Scenario(
            "page-alloc", "memsim", POINT_KINDS["page-alloc"],
            check=_float_fragmentation,
        ),
        Scenario(
            "trace-analysis", "tracing",
            PointKind(
                "trace-analysis", trace_analysis_point,
                {"app": (str,), "seed": (int,), "num_ranks": (int,)},
                ("app", "num_ranks"),
                {"app": "bigdft", "seed": 7, "num_ranks": 36},
            ),
            check=_check_trace_analysis,
            progress=True,
        ),
    )
}


def resolve_scenario(name: Any) -> Scenario:
    """Look up *name*, with a typed error listing what exists."""
    if not isinstance(name, str) or name not in SCENARIOS:
        raise InvalidJobRequest(
            f"unknown scenario {name!r}; "
            f"available: {', '.join(sorted(SCENARIOS))}"
        )
    return SCENARIOS[name]


def job_content_key(
    scenario: Scenario, params: Mapping[str, Any]
) -> tuple[dict[str, Any], dict[str, Any], str]:
    """``(key_material, point, hash)`` for one validated submission."""
    sweep_key, point = scenario.build(params)
    material = key_material(sweep_key, point)
    return material, point, content_key(material)
