"""Chaos: the job service under storms, crashes, and kill -9.

The acceptance proofs for the service tentpole live here:

* a submission storm against a full queue is shed with typed 429s and
  the job table stays bounded;
* k concurrent identical cold submissions run the engine exactly once
  (the chaos worker's attempt odometer is the witness);
* an open circuit breaker sheds only its own scenario class;
* workers killed or hung mid-request are retried and heal;
* ``kill -9`` mid-run, then restart: completed jobs are re-served
  byte-identically with zero recomputation, unfinished ones requeue.
"""

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.engine.chaos import FlakyJournal
from repro.errors import CircuitOpen, JournalError, ServiceOverloaded
from repro.metrics.registry import MetricsRegistry, use_registry
from repro.service import JobService, ServiceClient, ServiceConfig
from repro.service.http import ServiceServer
from repro.service.jobs import JobState


def run(coro):
    return asyncio.run(coro)


def attempt_bytes(state_dir: Path) -> int:
    if not state_dir.exists():
        return 0
    return sum(p.stat().st_size for p in state_dir.iterdir())


@pytest.fixture
def live_server(tmp_path):
    """A service on a real socket (own thread); yields a client factory
    so storm tests can open one connection per simulated client."""
    started = threading.Event()
    state = {}

    def host():
        async def main():
            with use_registry(MetricsRegistry()):
                service = JobService(ServiceConfig(
                    cache_root=tmp_path / "cache",
                    pool_size=1,
                    queue_limit=2,
                    breaker_threshold=3,
                    breaker_cooldown_s=30.0,
                ))
                server = ServiceServer(service, port=0, read_timeout_s=2.0)
                await server.start()
                state["port"] = server.port
                state["loop"] = asyncio.get_running_loop()
                state["stop"] = asyncio.Event()
                started.set()
                await state["stop"].wait()
                await server.stop()

        asyncio.run(main())

    thread = threading.Thread(target=host, daemon=True)
    thread.start()
    assert started.wait(timeout=10)
    yield lambda: ServiceClient(
        f"http://127.0.0.1:{state['port']}", timeout_s=60
    )
    state["loop"].call_soon_threadsafe(state["stop"].set)
    thread.join(timeout=10)


class TestAdmissionStorm:
    def test_storm_against_a_full_queue_is_shed_not_buffered(
        self, live_server, tmp_path
    ):
        client = live_server()
        blocker = client.submit(
            "sleepy", {"duration_s": 60.0, "tag": "blocker"}, wait=False
        )["job"]
        deadline = time.monotonic() + 10
        while client.status(blocker["job_id"])["job"]["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.01)

        admitted, rejected = [], []
        for i in range(10):
            try:
                reply = client.submit(
                    "sleepy", {"duration_s": 60.0, "tag": f"s{i}"},
                    wait=False,
                )
                admitted.append(reply["job"]["job_id"])
            except ServiceOverloaded as error:
                rejected.append(error)

        # Exactly the queue's capacity was admitted; the rest got the
        # typed 429 with an honest hint, and the table stayed bounded.
        assert len(admitted) == 2
        assert len(rejected) == 8
        for error in rejected:
            assert error.status == 429
            assert error.retry_after_s > 0
            assert error.capacity == 2
        stats = client.stats()
        assert stats["jobs"] == 3  # blocker + the two admitted
        assert stats["queue_depth"] == 2


class TestExactlyOnce:
    def test_concurrent_identical_cold_submissions_compute_once(
        self, live_server, tmp_path
    ):
        state_dir = tmp_path / "odometer"
        params = {
            "x": 4,
            "state_dir": str(state_dir),
            # times=0: no fault ever fires, but every engine execution
            # ticks the odometer — the exactly-once witness.
            "faults": {"4": {"kind": "raise", "times": 0}},
        }

        def one_client(i):
            return live_server().submit("chaos-squares", dict(params))

        with ThreadPoolExecutor(max_workers=6) as pool:
            replies = list(pool.map(one_client, range(6)))

        for reply in replies:
            assert reply["job"]["state"] == "done"
        bodies = {
            live_server().result_bytes(r["job"]["job_id"])
            for r in replies
        }
        assert len(bodies) == 1  # every client got identical bytes
        assert attempt_bytes(state_dir) == 1  # one engine run, total
        computed_jobs = {
            r["job"]["job_id"]
            for r in replies if r["job"]["source"] == "computed"
        }
        assert len(computed_jobs) == 1  # one computation fanned out
        dedup_hits = sum(r["deduped"] for r in replies)
        warm_hits = sum(
            r["job"]["source"] in ("cache", "journal") for r in replies
        )
        assert dedup_hits + warm_hits == 5  # nobody recomputed


class TestBreakerIsolation:
    def test_open_breaker_sheds_only_its_scenario_class(
        self, live_server, tmp_path
    ):
        client = live_server()
        for x in (51, 52, 53):
            reply = client.submit("chaos-squares", {
                "x": x,
                "state_dir": str(tmp_path / "state"),
                "faults": {str(x): {"kind": "raise", "times": 99}},
            })
            assert reply["job"]["state"] == "failed"

        with pytest.raises(CircuitOpen) as info:
            client.submit("chaos-squares", {
                "x": 99, "state_dir": str(tmp_path / "state"),
            })
        assert info.value.scenario_class == "chaos"
        assert info.value.status == 503
        assert info.value.retry_after_s > 0

        # The demo class flows on, full service, same instant.
        healthy = client.submit("squares", {"x": 6})
        assert healthy["job"]["state"] == "done"
        assert client.stats()["breakers"] == {
            "chaos": "open", "demo": "closed",
        }


class TestWorkerFaults:
    def make_service(self, tmp_path, **overrides):
        defaults = dict(
            cache_root=tmp_path / "cache",
            pool_size=1,
            retries=2,
            retry_delay_s=0.01,
        )
        defaults.update(overrides)
        return JobService(ServiceConfig(**defaults))

    def submit_and_wait(self, service_coro):
        return run(service_coro)

    def test_killed_workers_are_retried_until_the_point_heals(
        self, tmp_path
    ):
        async def scenario():
            service = self.make_service(tmp_path)
            await service.start()
            try:
                job, _ = await service.submit("chaos-squares", {
                    "x": 6,
                    "state_dir": str(tmp_path / "state"),
                    # Die like an OOM-kill on the first two attempts.
                    "faults": {"6": {"kind": "exit", "times": 2,
                                     "exitcode": 137}},
                })
                await asyncio.wait_for(job.wait_terminal(), timeout=60)
                return job
            finally:
                await service.shutdown(drain_s=1.0)

        job = run(scenario())
        assert job.state is JobState.DONE
        assert job.value == {"x": 6, "value": 36}
        assert job.attempts == 3

    def test_hung_workers_are_killed_at_the_point_timeout(self, tmp_path):
        async def scenario():
            service = self.make_service(
                tmp_path, point_timeout_s=0.3, retries=1
            )
            await service.start()
            try:
                job, _ = await service.submit("chaos-squares", {
                    "x": 7,
                    "state_dir": str(tmp_path / "state"),
                    "faults": {"7": {"kind": "hang", "times": 1,
                                     "hang_s": 300.0}},
                })
                await asyncio.wait_for(job.wait_terminal(), timeout=60)
                return job
            finally:
                await service.shutdown(drain_s=1.0)

        job = run(scenario())
        assert job.state is JobState.DONE
        assert job.value == {"x": 7, "value": 49}
        assert job.attempts == 2


class TestJournalFullMidJob:
    def test_failed_value_write_fails_the_job_and_frees_its_slot(
        self, tmp_path
    ):
        async def scenario():
            with use_registry(MetricsRegistry()) as registry:
                service = JobService(ServiceConfig(
                    cache_root=tmp_path / "cache", pool_size=1,
                ))
                # The job/ record fits; the value/ write-ahead gets
                # ENOSPC after the worker has already computed.
                service.journal = FlakyJournal(
                    tmp_path / "run" / "service.journal", capacity=1
                )
                await service.start()
                try:
                    job, _ = await service.submit("squares", {"x": 5})
                    await asyncio.wait_for(job.wait_terminal(), timeout=30)
                    # An identical resubmission would attach to
                    # whatever job still holds the single-flight slot.
                    slot = service.single_flight.get(job.content_hash)
                    return job, slot, registry.snapshot()["counters"]
                finally:
                    await service.shutdown(drain_s=1.0)

        job, slot, counters = run(scenario())
        assert job.state is JobState.FAILED
        assert job.error["type"] == "JournalError"
        assert "no space left" in job.error["message"]
        assert job.value is None and job.source is None
        assert slot is None
        assert counters["service.failed"]["value"] == 1
        assert "service.completed" not in counters


class TestJournalFullAtSubmit:
    def test_failed_job_write_leaves_no_queued_or_attachable_job(
        self, tmp_path
    ):
        async def scenario():
            service = JobService(ServiceConfig(
                cache_root=tmp_path / "cache", pool_size=1,
            ))
            # Not even the job/ admission record fits.
            service.journal = FlakyJournal(
                tmp_path / "run" / "service.journal", capacity=0
            )
            outcomes = []
            # The resubmission must not attach to a ghost of the first.
            for _ in range(2):
                with pytest.raises(JournalError, match="no space left"):
                    await service.submit("squares", {"x": 5})
                outcomes.append((
                    service.queue.depth(), len(service.single_flight),
                    dict(service.jobs),
                ))
            return outcomes

        for depth, in_flight, jobs in run(scenario()):
            assert depth == 0
            assert in_flight == 0
            assert jobs == {}

    def test_failed_job_write_abandons_the_breaker_probe(self, tmp_path):
        async def scenario():
            service = JobService(ServiceConfig(
                cache_root=tmp_path / "cache", pool_size=1,
                breaker_threshold=1, breaker_cooldown_s=0.05,
            ))
            service.journal = FlakyJournal(
                tmp_path / "run" / "service.journal", capacity=0
            )
            breaker = service.breakers.for_class("demo")
            breaker.record_failure()
            await asyncio.sleep(0.1)  # past the cooldown: one probe may go
            with pytest.raises(JournalError):
                await service.submit("squares", {"x": 5})
            # The probe slot is free again: the next submission may probe.
            breaker.allow()

        run(scenario())


class ServeProcess:
    """One ``repro serve`` OS process, started on an ephemeral port."""

    def __init__(self, run_dir: Path, cache_dir: Path):
        env = dict(os.environ)
        env["PYTHONUNBUFFERED"] = "1"
        src = str(Path(__file__).resolve().parents[2] / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src if not existing else src + os.pathsep + existing
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--run-dir", str(run_dir),
                "--cache-dir", str(cache_dir),
                "--pool", "1",
                "--drain", "0.5",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            if "listening on http://" in line:
                return int(line.rsplit(":", 1)[-1])
            if not line and self.proc.poll() is not None:
                break
        raise AssertionError("serve process never announced its port")

    def client(self) -> ServiceClient:
        return ServiceClient(f"http://127.0.0.1:{self.port}", timeout_s=60)

    def kill9(self):
        self.proc.kill()
        self.proc.wait(timeout=10)

    def terminate(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)


class TestKillDashNine:
    def test_restart_reserves_results_byte_identically(self, tmp_path):
        run_dir = tmp_path / "run"
        first = ServeProcess(run_dir, tmp_path / "cache-1")
        try:
            client = first.client()
            done = client.submit("squares", {"x": 13})["job"]
            assert done["state"] == "done"
            first_bytes = client.result_bytes(done["job_id"])
            unfinished = client.submit(
                "sleepy", {"duration_s": 120.0}, wait=False
            )["job"]
            deadline = time.monotonic() + 10
            while (
                client.status(unfinished["job_id"])["job"]["state"]
                == "queued"
            ):
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            first.kill9()  # no drain, no goodbye

        # Fresh cache root: the journal is the only possible source of
        # warmth on the second instance.
        second = ServeProcess(run_dir, tmp_path / "cache-2")
        try:
            client = second.client()
            recovered = client.status(done["job_id"])["job"]
            assert recovered["state"] == "done"
            assert recovered["recovered"]
            assert recovered["source"] == "journal"
            assert client.result_bytes(done["job_id"]) == first_bytes

            resubmit = client.submit("squares", {"x": 13})["job"]
            assert resubmit["state"] == "done"
            assert resubmit["source"] == "journal"  # zero recompute
            assert (
                client.result_bytes(resubmit["job_id"]) == first_bytes
            )

            requeued = client.status(unfinished["job_id"])["job"]
            assert requeued["recovered"]
            assert requeued["state"] in ("queued", "running")
        finally:
            second.terminate()

    def test_sigterm_is_a_graceful_drain(self, tmp_path):
        server = ServeProcess(tmp_path / "run", tmp_path / "cache")
        client = server.client()
        assert client.submit("squares", {"x": 2})["job"]["state"] == "done"
        server.terminate()
        assert server.proc.returncode == 0
        tail = server.proc.stderr.read()
        assert "drained" in tail
