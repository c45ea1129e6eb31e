"""Workload ``service-mix``: two closed-loop clients against ``repro serve``.

The server runs as its own process (``--pool 2 --port 0``) on fresh
run and cache directories.  Each client thread submits one
``cluster-elapsed`` job, waits for it and fetches its result before
sending the next.  Its schedule comes in blocks of
:data:`HITS_PER_BLOCK` resubmissions of the hot set (answered from the
journal or the cache) plus one fresh point with a seed never used
before (answered ``source=computed`` by a forked attempt), shuffled by
the run's seed.  Latency is submit to result body, as ``repro submit``
sees it.  Every body must equal ``cluster_time_point`` of its params
computed in this process, with the expected ``source``.

A timed run goes in segments of :data:`SEGMENT` blocks per client, with
calibration loops timed between segments while both clients wait; both
latencies are scaled to the reference core by them.
"""

from __future__ import annotations

import json
import random
import re
import signal
import subprocess
import sys
import threading
import time

from common import (
    Context, check, kill_group, loops_on_each_core, median, percentile,
)

SCENARIO = "cluster-elapsed"
HOT_SET = [
    {"app": app, "cores": cores, "num_nodes": 16, "seed": seed}
    for app in ("linpack", "bigdft") for cores in (4, 8) for seed in (1, 2)
]
HITS_PER_BLOCK = 25
#: Blocks per client: 2 clients x 20 blocks = 1000 hits + 40 computed,
#: the minimum of a timed run and the whole of a traced pass.
BLOCKS = 20
#: Blocks per client between two calibrations of a timed run (~1.5 s).
SEGMENT = 4
#: Calibration loops timed on each core between two segments.
LOOPS_PER_SEGMENT = 1
CLIENTS = 2
HIT_SOURCES = ("cache", "journal")


class Server:
    """One ``repro serve`` process; started on entry, always stopped."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.dir = ctx.fresh_dir("serve")
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def start(self) -> float:
        """Launch and wait until ``/readyz`` answers; returns the wait."""
        from repro.service.client import ServiceClient

        log = self.dir / "serve.log"
        start = time.perf_counter()
        with open(log, "w", encoding="utf-8") as sink:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--pool", "2",
                 "--port", "0", "--drain", "0.1",
                 "--run-dir", str(self.dir / "run"),
                 "--cache-dir", str(self.dir / "cache")],
                cwd=self.ctx.work, env=self.ctx.env(),
                stdout=subprocess.DEVNULL, stderr=sink,
                start_new_session=True,
            )
        while not self.url:
            found = re.search(r"listening on (http://\S+)", log.read_text())
            if found:
                self.url = found[1]
            elif self.proc.poll() is not None or time.perf_counter() - start > 60:
                check(False, "ServeFailed",
                      f"repro serve did not start: {log.read_text()[-500:]}")
            else:
                time.sleep(0.002)
        ServiceClient(self.url).readyz()
        return time.perf_counter() - start

    def stop(self) -> None:
        """SIGTERM (drain), then SIGKILL the group if it lingers."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            kill_group(self.proc)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def block(seed: int, client: int, index: int) -> list[tuple[str, dict]]:
    """One shuffled block of a client's schedule."""
    rng = random.Random(f"{seed}/{client}/{index}")
    jobs = [("hit", dict(rng.choice(HOT_SET))) for _ in range(HITS_PER_BLOCK)]
    fresh = 1_000_000 + 100_000 * seed + CLIENTS * index + client
    jobs.append(("computed", {"app": "linpack", "cores": 4,
                              "num_nodes": 16, "seed": fresh}))
    rng.shuffle(jobs)
    return jobs


def one_job(client, kind: str, params: dict) -> dict:
    """Submit, wait, fetch the body; check state and source."""
    start = time.perf_counter()
    job = client.submit(SCENARIO, params)["job"]
    check(job["state"] == "done", "JobFailed",
          f"{params} ended {job['state']}: {job.get('error')}")
    body = client.result_bytes(job["job_id"])
    latency = time.perf_counter() - start
    expected = HIT_SOURCES if kind == "hit" else ("computed",)
    check(job["source"] in expected, "SourceMismatch",
          f"{kind} {params} answered source={job['source']}")
    return {"kind": kind, "params": params, "latency": latency,
            "wall": job["wall_seconds"], "body": body}


def closed_loop(ctx: Context, url: str, offset: int, blocks: int,
                tracer=None) -> tuple[list[dict], int]:
    """Run both clients over blocks ``offset..offset+blocks``; returns
    ``(records, depth)``.

    With a *tracer*, each client records a span per job into a tracer
    of its own (merged into *tracer* at the end) and reads ``/stats``
    every tenth job; *depth* is the largest queue depth it saw.
    """
    from repro.service.client import ServiceClient
    from spans import LayerTracer

    records: list[dict] = []
    lock = threading.Lock()
    local_tracers: list[LayerTracer] = []
    depth = [0]

    def client_main(client: int) -> None:
        service = ServiceClient(url, timeout_s=60.0)
        local = LayerTracer()
        local_tracers.append(local)
        index = offset
        jobs = 0
        while index < offset + blocks:
            for kind, params in block(ctx.seed, client, index):
                def job():
                    return ctx.attempt(f"service {kind}",
                                       lambda: one_job(service, kind, params))
                if tracer is None:
                    record = job()
                else:
                    with local.span(f"service.{kind}"):
                        record = job()
                    jobs += 1
                    if jobs % 10 == 0:
                        with local.span("service.stats"):
                            stats = ctx.attempt("service stats", service.stats)
                        if stats is not None:
                            with lock:
                                depth[0] = max(depth[0], stats["queue_depth"])
                if record is not None:
                    with lock:
                        records.append(record)
            index += 1

    # Daemon threads: a SIGTERM that unwinds the main thread must not
    # wait for clients still looping against a stopped server.
    threads = [threading.Thread(target=client_main, args=(c,), daemon=True)
               for c in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if tracer is not None:
        for local in local_tracers:
            tracer.merge(local)
    return records, depth[0]


def in_process(params: dict) -> dict:
    from repro.engine.sweeps import cluster_time_point

    return cluster_time_point(dict(params, app_args={}))


def verify(ctx: Context, records: list[dict]) -> list[float]:
    """Check every body against the in-process value of its params;
    returns the in-process compute times of the fresh points."""
    reference: dict[str, dict] = {}
    fresh_ms = []
    for record in records:
        key = json.dumps(record["params"], sort_keys=True)
        if key not in reference:
            start = time.perf_counter()
            reference[key] = in_process(record["params"])
            if record["kind"] == "computed":
                fresh_ms.append(1e3 * (time.perf_counter() - start))
        if json.loads(record["body"]) != reference[key]:
            ctx.record_failure(
                f"ServiceResultMismatch: {record['params']} answered "
                f"{record['body']!r}, in-process value {reference[key]}"
            )
    return fresh_ms


def latencies(records: list[dict], kind: str) -> list[float]:
    return [1e3 * r["latency"] for r in records if r["kind"] == kind]


def start_server(ctx: Context) -> Server:
    """One running server (stopped by the caller's ``with``)."""
    server = Server(ctx)
    try:
        server.start()
    except BaseException:
        server.stop()
        raise
    return server


def prefill(ctx: Context, url: str) -> list[dict]:
    """Compute the hot set once, so its resubmissions are hits."""
    from repro.service.client import ServiceClient

    service = ServiceClient(url, timeout_s=60.0)
    records = [
        ctx.attempt("service prefill",
                    lambda: one_job(service, "computed", dict(params)))
        for params in HOT_SET
    ]
    return [r for r in records if r is not None]


def measure(ctx: Context) -> dict[str, float]:
    servers: list[Server] = []

    def start_next() -> float:
        """Each timed start stops the previous server first."""
        if servers:
            servers[-1].stop()
        servers.append(Server(ctx))
        return servers[-1].start()

    try:
        setup = ctx.setup_time(start_next)
        server = servers[-1]
        check(bool(server.url), "ServeFailed", "the last server did not start")
        warmup = prefill(ctx, server.url)
        records: list[dict] = []
        loops: list[float] = []
        started = time.perf_counter()
        offset = 0
        while offset < BLOCKS or time.perf_counter() - started < ctx.seconds:
            loops.extend(loops_on_each_core(LOOPS_PER_SEGMENT))
            records.extend(closed_loop(ctx, server.url, offset, SEGMENT)[0])
            offset += SEGMENT
        loops.extend(loops_on_each_core(LOOPS_PER_SEGMENT))
    finally:
        for server in servers:
            server.stop()
    verify(ctx, warmup + records)
    hits, computed = latencies(records, "hit"), latencies(records, "computed")
    check(bool(hits and computed), "NoSamples", "no hit or no computed job")
    ctx.report("service_hit_p50_ms", "ms", hits, tail="service_hit_p{q}_ms")
    ctx.report("service_computed_p50_ms", "ms", computed,
               tail="service_computed_p{q}_ms")
    # Both kinds of job are Python work in one to three processes on
    # two cores, and move with the cores' speed (README.md).
    scale = ctx.core_scale("segments", loops)
    return {
        "setup_s": setup,
        "heavy_p50_ms": scale * median(computed),
        "light_p50_ms": scale * median(hits),
    }


def prometheus(text: str) -> dict[str, float]:
    """Unlabelled samples of a Prometheus text exposition."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            values[name] = float(value)
    return values


def traced(ctx: Context, tracer) -> dict[str, float]:
    """An untraced then a traced pass of :data:`BLOCKS` blocks per client.

    The server is a separate process, timed from outside only: the
    traced pass records a span per job on the client side and polls
    ``/stats`` for the queue depth.  The cluster layers' self times
    come from computing the points the server computed again in this
    process, under the wrappers.
    """
    import layers
    from repro.service.client import ServiceClient

    layers.preload()
    with start_server(ctx) as server:
        warmup = prefill(ctx, server.url)
        untraced, _ = closed_loop(ctx, server.url, 0, BLOCKS)
        with tracer.span("service-mix.pass"):
            records, depth = closed_loop(ctx, server.url, BLOCKS, BLOCKS,
                                         tracer)
        exposition = prometheus(ServiceClient(server.url).metrics())
    # Hits first: each hot point's first (import-paying) in-process
    # run is then not timed as a fresh point.
    inproc_ms = verify(ctx, untraced + records + warmup)
    computed = [r for r in warmup + untraced + records
                if r["kind"] == "computed"]
    layers.install(tracer)
    try:
        with tracer.span("service-mix.inproc"):
            for record in computed:
                in_process(record["params"])
    finally:
        tracer.remove()

    fresh = [r for r in untraced + records if r["kind"] == "computed"]
    job_wall_ms = median([1e3 * r["wall"] for r in fresh])
    inproc = median(inproc_ms)
    result = {
        "service.computed_jobs": exposition.get("repro_service_completed", 0),
        "service.hit_jobs": exposition.get("repro_service_warm_journal", 0)
        + exposition.get("repro_service_warm_cache", 0),
        "service.dedup_jobs": exposition.get("repro_service_dedup_hits", 0),
        "service.rejected_jobs":
            exposition.get("repro_service_rejected_breaker", 0)
            + exposition.get("repro_service_rejected_queue_full", 0),
        "service.job_wall_p50_ms": job_wall_ms,
        "service.compute_inproc_ms": inproc,
        "service.attempt_overhead_ms": job_wall_ms - inproc,
        "service.http_overhead_ms": median(
            [1e3 * (r["latency"] - r["wall"]) for r in untraced]
        ),
        "service.queue_depth_max": depth,
        "service.hit_p99_ms": percentile(latencies(untraced, "hit"), 99),
        "service.computed_p75_ms":
            percentile(latencies(untraced, "computed"), 75),
        "cluster.des.events": exposition.get("repro_des_events_dispatched", 0),
        "cluster.mpi.messages": sum(
            value for name, value in exposition.items()
            if name.startswith("repro_mpi_messages_")
            and name != "repro_mpi_messages_delivered"
        ),
        "cluster.net.bytes": exposition.get("repro_net_bytes", 0),
    }
    for key, kind in (("heavy_p50_ms", "computed"), ("light_p50_ms", "hit")):
        before = median(latencies(untraced, kind))
        after = median(latencies(records, kind))
        result[f"overhead.{key}"] = after - before
        ctx.note(f"service_{kind}_p50_ms: untraced {before:.4f} ms, traced "
                 f"{after:.4f} ms (n={len(latencies(records, kind))})")
    return result
