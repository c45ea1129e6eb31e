"""ExecutionPolicy semantics and manifest-scan reporting."""

import json
import math

import pytest

from repro.engine import ExecutionPolicy, load_manifests, scan_manifests
from repro.engine.manifest import PointRecord, RunManifest
from repro.engine.resilience import decide_retry
from repro.errors import ConfigurationError, EngineError
from repro.faults.detect import RetryPolicy


class TestPolicyValidation:
    def test_default_policy_is_not_fault_tolerant(self):
        policy = ExecutionPolicy()
        assert not policy.fault_tolerant
        assert policy.max_attempts == 1
        assert policy.retry_delay_s(1, "token") == 0.0

    def test_timeout_alone_enables_fault_tolerance(self):
        assert ExecutionPolicy(point_timeout_s=5.0).fault_tolerant

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(point_timeout_s=0.0)

    def test_rejects_out_of_range_jitter(self):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(jitter=1.5)

    def test_max_attempts_counts_first_run_plus_retries(self):
        policy = ExecutionPolicy(
            retry=RetryPolicy(timeout_s=0.1, max_retries=4)
        )
        assert policy.max_attempts == 5

    def test_rejects_zero_deadline(self):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(deadline_s=0.0)

    def test_rejects_negative_deadline(self):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(deadline_s=-3.0)

    def test_deadline_alone_enables_fault_tolerance(self):
        assert ExecutionPolicy(deadline_s=10.0).fault_tolerant


def _always_fails(params):
    raise ValueError(f"boom on {params['x']}")


def _sleepy_worker(params):
    import time as _time

    _time.sleep(5.0)
    return {"x": params["x"]}


class TestRunDeadline:
    """The whole-run budget truncating a retry schedule."""

    def _run(self, policy):
        from repro.engine import ExperimentEngine, SweepSpec
        from repro.errors import RetryExhausted

        engine = ExperimentEngine(policy=policy)
        spec = SweepSpec(
            "deadline/truncated", _always_fails, [{"x": 1}],
            key={"experiment": "deadline-truncated"},
        )
        with pytest.raises(RetryExhausted):
            engine.run(spec)
        return engine.manifests[-1].points[0]

    def test_truncated_schedule_records_retry_exhausted(self):
        # The backoff (10s base) can never fit inside the 5s run
        # deadline, so the very first failure is final — and what the
        # point ran out of is its *budget*: the manifest records
        # RetryExhausted, with the incidental error kept as the cause.
        point = self._run(ExecutionPolicy(
            retry=RetryPolicy(timeout_s=10.0, max_retries=5),
            jitter=0.0,
            deadline_s=5.0,
        ))
        assert point.error["type"] == "RetryExhausted"
        assert point.error["type"] != "ValueError"
        assert "truncated by the 5s run deadline" in point.error["message"]
        assert "ValueError: boom on 1" in point.error["message"]
        # The attempt that actually ran is preserved as transient.
        assert [t["type"] for t in point.transient_errors] == ["ValueError"]
        assert point.attempts == 1

    def test_timeout_at_deadline_records_retry_exhausted(self, tmp_path):
        """Process mode: a point that times out when the run deadline
        cannot fit another attempt must record RetryExhausted (the
        budget ran out), not a bare PointTimeout."""
        from repro.engine import ExperimentEngine, SweepSpec
        from repro.errors import RetryExhausted

        engine = ExperimentEngine(
            jobs=2,
            policy=ExecutionPolicy(
                retry=RetryPolicy(timeout_s=10.0, max_retries=3),
                point_timeout_s=0.05,
                jitter=0.0,
                deadline_s=5.0,
            ),
        )
        spec = SweepSpec(
            "deadline/timeout", _sleepy_worker,
            [{"x": 1}, {"x": 2}],
            key={"experiment": "deadline-timeout"},
        )
        with pytest.raises(RetryExhausted):
            engine.run(spec)
        errors = [p.error for p in engine.manifests[-1].points if p.error]
        assert errors, "at least one point must have failed"
        for error in errors:
            assert error["type"] == "RetryExhausted"
            assert "PointTimeout" in error["message"]

    def test_plain_budget_exhaustion_keeps_the_final_error_type(self):
        # Without a deadline the historical contract holds: the final
        # record carries the last error's own type.
        point = self._run(ExecutionPolicy(
            retry=RetryPolicy(timeout_s=0.001, max_retries=1),
            jitter=0.0,
        ))
        assert point.error["type"] == "ValueError"
        assert point.attempts == 2


_RETRYING = ExecutionPolicy(
    retry=RetryPolicy(timeout_s=0.2, max_retries=2), jitter=0.1, seed=3,
)
_DELAY_1 = _RETRYING.retry_delay_s(1, "tok")


class TestDecideRetry:
    """The one retry rule the engine and the job service share."""

    @pytest.mark.parametrize(
        "policy, attempt, remaining_s, label, delay, final_type, message",
        [
            # No retry policy: one attempt, the error keeps its type.
            (ExecutionPolicy(), 1, None, None, None, "ValueError",
             "boom"),
            (ExecutionPolicy(), 1, 0.0, "5s run", None, "ValueError",
             "boom"),
            # Budget left: exactly the policy's seeded delay.
            (_RETRYING, 1, None, None, _DELAY_1, None, None),
            (_RETRYING, 1, math.nextafter(_DELAY_1, math.inf), "5s run",
             _DELAY_1, None, None),
            # A retry that could not start before the deadline is cut.
            (_RETRYING, 1, _DELAY_1, "5s run", None, "RetryExhausted",
             "truncated by the 5s run deadline after attempt 1 "
             "(ValueError: boom)"),
            (_RETRYING, 2, 0.001, "0.3s job", None, "RetryExhausted",
             "truncated by the 0.3s job deadline after attempt 2 "
             "(ValueError: boom)"),
            # Attempts spent: final, own type, whatever the deadline.
            (_RETRYING, 3, None, None, None, "ValueError", "boom"),
            (_RETRYING, 3, 0.001, "5s run", None, "ValueError", "boom"),
        ],
    )
    def test_decision_table(
        self, policy, attempt, remaining_s, label, delay, final_type,
        message,
    ):
        got_delay, record = decide_retry(
            policy, attempt, ValueError("boom"), "tok", remaining_s, label
        )
        own = {"type": "ValueError", "message": "boom", "attempt": attempt}
        assert got_delay == delay
        if delay is not None:
            assert record == own  # joins the transient errors
            return
        assert record["type"] == final_type
        assert record["attempt"] == attempt
        assert message in record["message"]
        if final_type == "RetryExhausted":
            assert record["cause"] == own
        else:
            assert record == own


class TestBackoffSchedule:
    def test_delays_follow_the_retry_policy_shape(self):
        policy = ExecutionPolicy(
            retry=RetryPolicy(timeout_s=0.1, backoff=2.0, max_retries=5),
            jitter=0.0,
        )
        delays = [policy.retry_delay_s(a, "k") for a in (1, 2, 3)]
        assert delays == pytest.approx([0.1, 0.2, 0.4])

    def test_jitter_stays_within_band_and_is_deterministic(self):
        policy = ExecutionPolicy(
            retry=RetryPolicy(timeout_s=0.1, backoff=2.0, max_retries=5),
            jitter=0.25, seed=3,
        )
        for attempt in (1, 2, 3):
            base = 0.1 * 2.0 ** (attempt - 1)
            delay = policy.retry_delay_s(attempt, "point-key")
            assert base * 0.75 <= delay <= base * 1.25
            assert delay == policy.retry_delay_s(attempt, "point-key")

    def test_different_points_get_different_jitter(self):
        policy = ExecutionPolicy(
            retry=RetryPolicy(timeout_s=0.1, max_retries=3), jitter=0.5
        )
        assert policy.retry_delay_s(1, "aa") != policy.retry_delay_s(1, "bb")

    def test_seed_changes_the_schedule(self):
        make = lambda seed: ExecutionPolicy(
            retry=RetryPolicy(timeout_s=0.1, max_retries=3),
            jitter=0.5, seed=seed,
        )
        assert make(0).retry_delay_s(1, "k") != make(1).retry_delay_s(1, "k")

    def test_attempts_are_one_based(self):
        policy = ExecutionPolicy(
            retry=RetryPolicy(timeout_s=0.1, max_retries=3)
        )
        with pytest.raises(ConfigurationError):
            policy.retry_delay_s(0, "k")


class TestManifestScanReporting:
    def seed_dir(self, tmp_path):
        manifest = RunManifest(
            sweep="s", key={}, jobs=1, executor="serial", elapsed_seconds=0.0,
            points=[PointRecord(
                index=0, params={}, key="k", cache_hit=False, wall_seconds=0.0,
            )],
        )
        manifest.save(tmp_path)
        (tmp_path / "broken.json").write_text("{ not json", encoding="utf-8")
        return tmp_path

    def test_scan_pairs_each_skip_with_its_reason(self, tmp_path):
        manifests, skipped = scan_manifests(self.seed_dir(tmp_path))
        assert len(manifests) == 1
        ((path, reason),) = skipped
        assert path.name == "broken.json"
        assert reason

    def test_load_reports_skips_on_stderr(self, tmp_path, capsys):
        manifests = load_manifests(self.seed_dir(tmp_path))
        assert len(manifests) == 1
        err = capsys.readouterr().err
        assert "skipping unreadable manifest" in err
        assert "broken.json" in err

    def test_load_can_raise_instead(self, tmp_path):
        with pytest.raises(EngineError, match="broken.json"):
            load_manifests(self.seed_dir(tmp_path), on_error="raise")

    def test_load_rejects_unknown_mode(self, tmp_path):
        with pytest.raises(EngineError):
            load_manifests(tmp_path, on_error="ignore")

    def test_clean_directory_reports_nothing(self, tmp_path, capsys):
        self.seed_dir(tmp_path)
        (tmp_path / "broken.json").unlink()
        assert len(load_manifests(tmp_path)) == 1
        assert capsys.readouterr().err == ""

    def test_missing_directory_is_empty_not_an_error(self, tmp_path):
        manifests, skipped = scan_manifests(tmp_path / "absent")
        assert manifests == [] and skipped == []


class TestManifestFailureCounters:
    def test_failed_and_retried_properties(self):
        manifest = RunManifest(
            sweep="s", key={}, jobs=1, executor="serial", elapsed_seconds=0.0,
            points=[
                PointRecord(index=0, params={}, key="a", cache_hit=False,
                            wall_seconds=0.0, attempts=3,
                            error={"type": "WorkerCrash", "message": "x"}),
                PointRecord(index=1, params={}, key="b", cache_hit=False,
                            wall_seconds=0.0, attempts=2),
                PointRecord(index=2, params={}, key="c", cache_hit=True,
                            wall_seconds=0.0, attempts=0),
            ],
        )
        assert manifest.failed == 1
        assert manifest.retried == 2

    def test_deterministic_form_drops_operational_fields(self):
        record = PointRecord(
            index=0, params={"x": 1}, key="k", cache_hit=False,
            wall_seconds=1.0, attempts=2, resumed=True,
            error={"type": "PointTimeout", "message": "m"},
            transient_errors=({"type": "WorkerCrash", "message": "w"},),
        )
        deterministic = record.to_dict(deterministic=True)
        assert set(deterministic) == {"index", "params", "key", "cache_hit"}
        full = record.to_dict()
        assert full["attempts"] == 2 and full["resumed"]
        assert full["error"]["type"] == "PointTimeout"
        assert json.dumps(full)  # JSON-serializable as saved
