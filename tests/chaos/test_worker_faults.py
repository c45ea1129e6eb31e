"""Chaos: killed, hung, raising and result-mangling workers.

The property under test is the engine's core safety contract: a sweep
*terminates*, and either returns exactly what a fault-free run would
have returned or raises a typed error — never a silent wrong answer,
never a wedged pool.
"""

import re

import pytest

from repro.engine import ExecutionPolicy, ExperimentEngine, ResultCache, SweepSpec
from repro.engine.chaos import ChaosFault, chaos_point
from repro.engine.sweeps import run_chaos_sweep
from repro.errors import PointTimeout, RetryExhausted, WorkerCrash
from repro.faults.detect import RetryPolicy
from repro.metrics.registry import MetricsRegistry, use_registry

XS = tuple(range(6))
EXPECTED = {x: x * x for x in XS}


def engine_with(tmp_path, *, jobs=4, retries=3, timeout=None, cache=True):
    policy = ExecutionPolicy(
        # RetryPolicy needs >= 1 retry; retries=0 means "fault-tolerant
        # but single-attempt", expressed as a timeout-only policy.
        point_timeout_s=timeout if timeout is not None else (
            None if retries else 30.0
        ),
        retry=(
            RetryPolicy(timeout_s=0.01, max_retries=retries)
            if retries else None
        ),
        jitter=0.0,
        seed=11,
    )
    return ExperimentEngine(
        cache=ResultCache(tmp_path / "cache") if cache else None,
        jobs=jobs,
        policy=policy,
    )


class TestCrashIsolation:
    def test_killed_worker_fails_only_its_point(self, tmp_path):
        engine = engine_with(tmp_path)
        got = run_chaos_sweep(
            engine, xs=XS, state_dir=str(tmp_path / "state"),
            faults={"3": {"kind": "exit", "times": 2}},
        )
        assert got == EXPECTED
        record = engine.manifests[0].points[3]
        assert record.attempts == 3
        assert [e["type"] for e in record.transient_errors] == [
            "WorkerCrash", "WorkerCrash",
        ]
        # Siblings were untouched by the deaths.
        assert all(
            p.attempts == 1 for p in engine.manifests[0].points if p.index != 3
        )

    def test_persistent_crash_exhausts_budget(self, tmp_path):
        engine = engine_with(tmp_path, retries=2)
        with pytest.raises(RetryExhausted) as excinfo:
            run_chaos_sweep(
                engine, xs=XS, state_dir=str(tmp_path / "state"),
                faults={"2": {"kind": "exit", "times": 99, "exitcode": 9}},
            )
        (failure,) = excinfo.value.failures
        assert failure["index"] == 2
        assert failure["type"] == "WorkerCrash"
        assert failure["attempts"] == 3  # 1 initial + 2 retries
        # The sweep still recorded every healthy point's result.
        manifest = engine.manifests[0]
        assert manifest.failed == 1
        assert manifest.points[2].error["type"] == "WorkerCrash"

    def test_worker_exception_retries_then_propagates_typed(self, tmp_path):
        engine = engine_with(tmp_path, retries=1)
        with pytest.raises(RetryExhausted) as excinfo:
            run_chaos_sweep(
                engine, xs=XS, state_dir=str(tmp_path / "state"),
                faults={"0": {"kind": "raise", "times": 99}},
            )
        (failure,) = excinfo.value.failures
        assert failure["type"] == "ChaosFault"
        assert "injected failure at x=0" in failure["message"]

    def test_unpicklable_result_is_a_typed_crash(self, tmp_path):
        engine = engine_with(tmp_path, retries=0)
        with pytest.raises(RetryExhausted) as excinfo:
            run_chaos_sweep(
                engine, xs=(1, 2), state_dir=str(tmp_path / "state"),
                faults={"1": {"kind": "unpicklable", "times": 99}},
            )
        (failure,) = excinfo.value.failures
        assert failure["type"] == "WorkerCrash"
        assert "unpicklable result" in failure["message"]

    def test_crash_metrics_tick(self, tmp_path):
        with use_registry(MetricsRegistry()) as registry:
            engine = engine_with(tmp_path)
            run_chaos_sweep(
                engine, xs=XS, state_dir=str(tmp_path / "state"),
                faults={"4": {"kind": "exit", "times": 1}},
            )
        counters = registry.snapshot()["counters"]
        assert counters["engine.worker_crashes"]["value"] == 1
        assert counters["engine.retries"]["value"] == 1


class TestHangs:
    def test_hung_worker_is_killed_and_retried(self, tmp_path):
        with use_registry(MetricsRegistry()) as registry:
            engine = engine_with(tmp_path, timeout=0.5)
            got = run_chaos_sweep(
                engine, xs=XS, state_dir=str(tmp_path / "state"),
                faults={"5": {"kind": "hang", "times": 1, "hang_s": 60.0}},
            )
        assert got == EXPECTED
        record = engine.manifests[0].points[5]
        assert record.attempts == 2
        assert record.transient_errors[0]["type"] == "PointTimeout"
        timeouts = registry.snapshot()["counters"]["engine.timeouts"]
        assert timeouts["value"] == 1

    def test_persistent_hang_exhausts_budget(self, tmp_path):
        engine = engine_with(tmp_path, retries=1, timeout=0.3)
        with pytest.raises(RetryExhausted) as excinfo:
            run_chaos_sweep(
                engine, xs=(1, 2, 3), state_dir=str(tmp_path / "state"),
                faults={"2": {"kind": "hang", "times": 99, "hang_s": 60.0}},
            )
        (failure,) = excinfo.value.failures
        assert failure["type"] == "PointTimeout"
        assert failure["attempts"] == 2


class TestAttemptBudget:
    @pytest.mark.parametrize("point_timeout_s", [10.0, None])
    def test_timeout_names_the_budget_the_attempt_had(
        self, tmp_path, point_timeout_s
    ):
        """The run deadline (0.5s) is the binding budget, so the kill
        lands near 0.5s and the record must say so, not 10s."""
        engine = ExperimentEngine(jobs=2, policy=ExecutionPolicy(
            point_timeout_s=point_timeout_s, deadline_s=0.5,
        ))
        with pytest.raises(RetryExhausted) as excinfo:
            run_chaos_sweep(
                engine, xs=(1, 2), state_dir=str(tmp_path / "state"),
                faults={"1": {"kind": "hang", "times": 99, "hang_s": 5.0}},
            )
        (failure,) = excinfo.value.failures
        assert failure["type"] == "PointTimeout"
        budget = re.search(
            r"exceeded its (\S+)s wall-clock budget", failure["message"]
        )
        assert budget is not None, failure["message"]
        assert 0.0 < float(budget.group(1)) <= 0.5
        assert engine.manifests[0].elapsed_seconds < 4.0


class TestFaultFreeEquivalence:
    def test_results_identical_to_fault_free_run(self, tmp_path):
        """Deterministic-manifest equality: chaos run == clean run."""
        faulty = engine_with(tmp_path, timeout=2.0)
        got_faulty = run_chaos_sweep(
            faulty, xs=XS, state_dir=str(tmp_path / "state-a"),
            faults={
                "1": {"kind": "exit", "times": 1},
                "4": {"kind": "raise", "times": 2},
            },
        )
        clean = ExperimentEngine(cache=ResultCache(tmp_path / "clean"), jobs=4)
        got_clean = run_chaos_sweep(
            clean, xs=XS, state_dir=str(tmp_path / "state-b"),
        )
        assert got_faulty == got_clean
        # Values (and hence any downstream artefact bytes) match; the
        # deterministic manifest forms differ only through the params'
        # state_dir/fault plan, which the test varies deliberately.
        assert [p.cache_hit for p in faulty.manifests[0].points] == \
               [p.cache_hit for p in clean.manifests[0].points]

    def test_default_policy_still_propagates_original_exception(self, tmp_path):
        """No policy configured -> the historical contract holds."""
        engine = ExperimentEngine(jobs=4)
        with pytest.raises(ChaosFault):
            engine.run(SweepSpec(
                "legacy", chaos_point,
                [
                    {"x": x, "state_dir": str(tmp_path / "state"),
                     "faults": {"1": {"kind": "raise", "times": 99}}}
                    for x in (0, 1, 2)
                ],
            ))

    def test_serial_mode_retries_too(self, tmp_path):
        engine = engine_with(tmp_path, jobs=1)
        got = run_chaos_sweep(
            engine, xs=(7, 8), state_dir=str(tmp_path / "state"),
            faults={"7": {"kind": "raise", "times": 2}},
        )
        assert got == {7: 49, 8: 64}
        assert engine.manifests[0].points[0].attempts == 3


class TestTimeoutErrorTypes:
    def test_point_timeout_reports_budget_and_attempt(self):
        error = PointTimeout(1.5, attempt=3)
        assert "1.5" in str(error)
        assert error.attempt == 3

    def test_worker_crash_kinds(self):
        by_exit = WorkerCrash("died", kind="exit", exitcode=137)
        by_protocol = WorkerCrash("bad bytes", kind="protocol")
        assert by_exit.exitcode == 137
        assert by_exit.kind == "exit"
        assert by_protocol.kind == "protocol"
