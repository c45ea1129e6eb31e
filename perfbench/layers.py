"""The program entry points a traced run times, grouped by layer.

Each name is a span name in :class:`spans.LayerTracer`; the per-layer
metrics in ``run.py`` read calls and self time back by these names.
"""

from __future__ import annotations

from spans import LayerTracer


def preload() -> None:
    """Import every module a traced workload reaches, so neither an
    untraced reference run nor a traced one pays first-import costs,
    and every module that aliases a wrapped function is loaded."""
    import repro.apps  # noqa: F401
    import repro.cli  # noqa: F401
    import repro.engine.sweeps  # noqa: F401
    import repro.kernels.membench  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.service.client  # noqa: F401
    import repro.tracing.stream  # noqa: F401


def install(tracer: LayerTracer) -> None:
    """Wrap every layer entry point; undo with ``tracer.remove()``."""
    preload()
    import repro.obs
    import repro.obs.bundle
    import repro.obs.report
    import repro.tracing
    import repro.tracing.chrome
    from repro.cluster.des import Simulator
    from repro.cluster.fabric import Fabric
    from repro.cluster.mpi import MpiJob
    from repro.cluster.network import SerialResource
    from repro.cluster.switch import SwitchModel
    from repro.engine.cache import ResultCache
    from repro.engine.engine import ExperimentEngine
    from repro.kernels.magicfilter import MagicFilterBenchmark
    from repro.memsim import bandwidth
    from repro.tracing.recorder import TraceRecorder
    from repro.tracing.stream import TraceStreamAnalyzer

    method = tracer.wrap_method
    method(Simulator, "run", "cluster.des.run", keep=True,
           units=lambda args: args[0].events_executed)
    for handler in ("on_send", "on_recv", "on_compute"):
        method(MpiJob, handler, "cluster.mpi.handlers")
    method(Fabric, "deliver", "cluster.fabric.deliver")
    method(SwitchModel, "forward", "cluster.switch.forward")
    method(SerialResource, "occupy", "cluster.network.occupy")
    tracer.wrap_function(bandwidth, "measure_stream", "memsim.measure_stream")
    method(MagicFilterBenchmark, "counters", "kernels.magicfilter_counters")
    method(TraceRecorder, "state", "tracing.record")
    method(TraceRecorder, "comm", "tracing.record")
    tracer.wrap_function(repro.obs.report, "build_run_report",
                         "tracing.batch_analyze", keep=True)
    method(TraceStreamAnalyzer, "state", "tracing.stream_ingest")
    method(TraceStreamAnalyzer, "comm", "tracing.stream_ingest")
    method(TraceStreamAnalyzer, "finalize", "tracing.stream_finalize",
           keep=True)
    tracer.wrap_function(repro.tracing.chrome, "write_chrome_trace",
                         "tracing.chrome_write", keep=True)
    method(ResultCache, "get", "engine.cache_get")
    method(ResultCache, "put", "engine.cache_put")
    method(ExperimentEngine, "run", "engine.run", keep=True)
    tracer.wrap_function(repro.obs.bundle, "file_digests", "obs.bundle_digest")
    tracer.wrap_function(repro.obs.bundle, "write_bundle_manifest",
                         "obs.bundle_digest")


def metrics(tracer: LayerTracer) -> dict[str, float]:
    """The per-layer metrics the wrappers measure directly."""
    return {
        "cluster.des.run_self_s": tracer.self_s("cluster.des.run"),
        "cluster.mpi.handlers_self_s": tracer.self_s("cluster.mpi.handlers"),
        "cluster.fabric.deliver_calls": tracer.calls("cluster.fabric.deliver"),
        "cluster.fabric.deliver_self_s": tracer.self_s("cluster.fabric.deliver"),
        "cluster.switch.forward_calls": tracer.calls("cluster.switch.forward"),
        "cluster.switch.forward_self_s": tracer.self_s("cluster.switch.forward"),
        "cluster.network.occupy_calls": tracer.calls("cluster.network.occupy"),
        "cluster.network.occupy_self_s": tracer.self_s("cluster.network.occupy"),
        "memsim.measure_stream_calls": tracer.calls("memsim.measure_stream"),
        "memsim.measure_stream_s": tracer.total_s("memsim.measure_stream"),
        "kernels.magicfilter_counters_s":
            tracer.total_s("kernels.magicfilter_counters"),
        "tracing.record_calls": tracer.calls("tracing.record"),
        "tracing.record_self_s": tracer.self_s("tracing.record"),
        "tracing.batch_analyze_s": tracer.total_s("tracing.batch_analyze"),
        "tracing.stream_ingest_self_s": tracer.self_s("tracing.stream_ingest"),
        "tracing.stream_finalize_s": tracer.total_s("tracing.stream_finalize"),
        "tracing.chrome_write_s": tracer.total_s("tracing.chrome_write"),
        "engine.cache_get_s": tracer.total_s("engine.cache_get"),
        "engine.cache_put_s": tracer.total_s("engine.cache_put"),
        "engine.run_self_s": tracer.self_s("engine.run"),
        "obs.bundle_digest_s": tracer.total_s("obs.bundle_digest"),
    }
