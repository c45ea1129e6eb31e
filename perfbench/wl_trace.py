"""Workload ``trace-fig4``: the Figure 4 job analysed by both pipelines.

The job is BigDFT on 36 ranks of an 18-node Tibidabo, seed 7, exactly
what ``repro trace-report`` runs.  A batch pass simulates it into a
``TraceRecorder`` and builds ``obs.build_run_report``; a stream pass
simulates it into ``TraceStreamAnalyzer(frontier_limit=8192)``, then
``finalize`` and ``build_stream_run_report``.  Both passes run in this
process, alternating, and each report's ``to_json()`` must equal
``tests/golden/fig4_trace_report.json`` byte for byte.
"""

from __future__ import annotations

import math
import time

from common import (
    ROOT, Context, add_cluster_counts, calibration_loop, check, heap_loop,
    median, run_program,
)

GOLDEN = ROOT / "tests" / "golden" / "fig4_trace_report.json"
SEED = 7
RANKS = 36
NODES = 18
SCENARIO = f"fig4-bigdft-{RANKS}ranks-seed{SEED}"
#: Passes of each pipeline in a traced run (fixed, so counts repeat).
TRACED_PASSES = 3

#: Set-up: a fresh interpreter loads both pipelines and builds the job.
SETUP_CODE = f"""
from repro.apps import BigDFT
from repro.cluster import MpiJob, tibidabo
from repro.obs import build_run_report, build_stream_run_report
from repro.tracing import TraceRecorder
from repro.tracing.stream import TraceStreamAnalyzer
cluster = tibidabo(num_nodes={NODES}, seed={SEED})
MpiJob(cluster, {RANKS}, BigDFT().rank_program(cluster, {RANKS}))
"""


def setup_once(ctx: Context) -> float:
    code, _, err, wall = run_program(["-c", SETUP_CODE], ctx)
    check(code == 0, "SetupFailed", f"set-up interpreter exited {code}: {err}")
    return wall


def one_pass(ctx: Context, pipeline: str, golden: str):
    """Simulate and analyse once; returns ``(wall, registry, stats)``."""
    from repro.apps import BigDFT
    from repro.cluster import MpiJob, tibidabo
    from repro.metrics import MetricsRegistry, use_registry
    from repro.obs import build_run_report, build_stream_run_report
    from repro.tracing import TraceRecorder
    from repro.tracing.stream import StreamConfig, TraceStreamAnalyzer

    stats = None
    start = time.perf_counter()
    registry = MetricsRegistry()
    with use_registry(registry):
        cluster = tibidabo(num_nodes=NODES, seed=SEED)
        if pipeline == "batch":
            tracer = TraceRecorder()
        else:
            tracer = TraceStreamAnalyzer(
                StreamConfig(frontier_limit=8192, sample_seed=SEED,
                             spill_dir=ctx.fresh_dir("spill")),
                registry=registry,
            )
        MpiJob(
            cluster, RANKS, BigDFT().rank_program(cluster, RANKS),
            tracer=tracer,
        ).run()
    if pipeline == "batch":
        report = build_run_report(tracer, scenario=SCENARIO, registry=registry)
    else:
        try:
            result = tracer.finalize()
            stats = result.stats
        finally:
            tracer.close()
        report = build_stream_run_report(
            result, scenario=SCENARIO, registry=registry
        )
    text = report.to_json()
    wall = time.perf_counter() - start
    check(text == golden, "TraceReportMismatch",
          f"{pipeline} report differs from {GOLDEN.name}")
    return wall, registry, stats


def _passes(ctx: Context, golden: str, count: int | None) -> dict:
    """Alternate batch and stream passes: *count* of each, or until the
    run's seconds are spent (at least one of each)."""
    runs: dict[str, list] = {
        "batch": [], "stream": [], "registries": [], "stats": [],
        "heap_loops": [], "loops": [],
    }
    started = time.perf_counter()

    def calibrate() -> None:
        runs["heap_loops"].append(heap_loop())
        runs["loops"].append(calibration_loop())

    calibrate()

    def more() -> bool:
        if count is not None:
            return len(runs["stream"]) < count
        return (not runs["stream"]
                or time.perf_counter() - started < ctx.seconds)

    while more():
        for pipeline in ("batch", "stream"):
            done = ctx.attempt(f"{pipeline} pass",
                               lambda: one_pass(ctx, pipeline, golden))
            if done is None:
                return runs
            wall, registry, stats = done
            runs[pipeline].append(wall)
            runs["registries"].append(registry)
            if stats is not None:
                runs["stats"].append(stats)
        calibrate()
    return runs


def measure(ctx: Context) -> dict[str, float]:
    golden = GOLDEN.read_text("utf-8")
    setup = ctx.setup_time(lambda: setup_once(ctx))
    runs = _passes(ctx, golden, None)
    check(bool(runs["stream"]), "NoSamples", "no pass completed")
    ctx.report("trace_batch_s", "s", runs["batch"])
    ctx.report("trace_stream_s", "s", runs["stream"])
    # A single-threaded pass feels every swing of its core's speed, so
    # the gated times are scaled to the reference core.  Across runs the
    # passes swung less far than the heap loop and about as far as the
    # calibration loop, by amounts that moved between sets: the scale is
    # the geometric mean of the two (README.md).
    scale = math.sqrt(
        ctx.core_scale("passes, heap loop", runs["heap_loops"], median)
        * ctx.core_scale("passes, calibration loop", runs["loops"])
    )
    return {
        "setup_s": setup,
        "heavy_p50_ms": 1e3 * scale * median(runs["stream"]),
        "light_p50_ms": 1e3 * scale * median(runs["batch"]),
    }


def traced(ctx: Context, tracer) -> dict[str, float]:
    """:data:`TRACED_PASSES` rounds of an untraced then a traced pair of
    passes; alternating keeps both halves under the same core speed."""
    import layers

    golden = GOLDEN.read_text("utf-8")
    layers.preload()
    untraced: dict[str, list] = {}
    runs: dict[str, list] = {}
    for _ in range(TRACED_PASSES):
        for key, value in _passes(ctx, golden, 1).items():
            untraced.setdefault(key, []).extend(value)
        layers.install(tracer)
        try:
            with tracer.span("trace-fig4.pair"):
                pair = _passes(ctx, golden, 1)
        finally:
            tracer.remove()
        for key, value in pair.items():
            runs.setdefault(key, []).extend(value)
    result: dict[str, float] = {}
    for registry in runs["registries"]:
        add_cluster_counts(result, registry.snapshot()["counters"])
    result.update({
        "trace.events_ingested": sum(s.events_ingested for s in runs["stats"]),
        "trace.frontier_high_water":
            max((s.frontier_high_water for s in runs["stats"]), default=0),
        "trace.spill_bytes": sum(s.spill_bytes for s in runs["stats"]),
    })
    for key, pipeline in (("heavy_p50_ms", "stream"), ("light_p50_ms", "batch")):
        if runs.get(pipeline) and untraced.get(pipeline):
            before, after = median(untraced[pipeline]), median(runs[pipeline])
            result[f"overhead.{key}"] = 1e3 * (after - before)
            ctx.note(f"trace_{pipeline}_s: untraced {before:.4f} s, "
                     f"traced {after:.4f} s (n={len(runs[pipeline])})")
    return result
