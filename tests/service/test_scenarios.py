"""Scenario registry: validation and cache-key parity with the engine."""

import pytest

from repro.engine import ExperimentEngine, content_key
from repro.engine.sweeps import (
    run_chaos_sweep,
    run_cluster_times,
    run_magicfilter_sweep,
    run_page_alloc_sweep,
    run_replicated_energy,
)
from repro.errors import InvalidJobRequest
from repro.service import SCENARIOS, job_content_key, resolve_scenario


class TestResolution:
    def test_unknown_scenario_lists_what_exists(self):
        with pytest.raises(InvalidJobRequest, match="squares"):
            resolve_scenario("nope")

    def test_non_string_names_are_rejected_not_crashed(self):
        with pytest.raises(InvalidJobRequest):
            resolve_scenario({"name": "squares"})

    def test_every_scenario_has_a_class_and_a_picklable_worker(self):
        import pickle

        for scenario in SCENARIOS.values():
            assert scenario.scenario_class
            pickle.dumps(scenario.worker)  # forked attempts require it


class TestValidation:
    def test_squares_builds_key_and_point(self):
        key, point = resolve_scenario("squares").build({"x": 7})
        assert key == {"experiment": "service-squares"}
        assert point == {"x": 7}

    def test_unknown_parameter_is_rejected(self):
        with pytest.raises(InvalidJobRequest, match="does not accept"):
            resolve_scenario("squares").build({"x": 1, "cores": 4})

    def test_missing_required_parameter_is_rejected(self):
        with pytest.raises(InvalidJobRequest, match="requires parameter 'x'"):
            resolve_scenario("squares").build({})

    def test_bool_is_not_an_int(self):
        with pytest.raises(InvalidJobRequest, match="must be int"):
            resolve_scenario("squares").build({"x": True})

    def test_wrong_type_reports_what_arrived(self):
        with pytest.raises(InvalidJobRequest, match="got str"):
            resolve_scenario("squares").build({"x": "9"})

    def test_cluster_defaults_match_the_batch_figures(self):
        _, point = resolve_scenario("cluster-elapsed").build(
            {"app": "linpack", "cores": 4}
        )
        assert point["num_nodes"] == 96
        assert point["seed"] == 7
        assert point["app_args"] == {}

    def test_negative_sleep_is_rejected(self):
        with pytest.raises(InvalidJobRequest, match=">= 0"):
            resolve_scenario("sleepy").build({"duration_s": -1.0})

    def test_magicfilter_shape_must_be_three_ints(self):
        with pytest.raises(InvalidJobRequest, match="nx, ny, nz"):
            resolve_scenario("magicfilter").build(
                {"machine": "snowball", "shape": [32, 32], "unroll": 2}
            )

    def test_param_order_does_not_change_the_key(self):
        scenario = resolve_scenario("cluster-elapsed")
        a = job_content_key(scenario, {"app": "linpack", "cores": 4})
        b = job_content_key(scenario, {"cores": 4, "app": "linpack"})
        assert a[2] == b[2]


class _Built(Exception):
    """Stops a batch helper once it has handed its sweep to the engine."""


class RecordingEngine(ExperimentEngine):
    """Records the sweep a batch helper builds, computes nothing."""

    def run(self, spec):
        self.spec = spec
        raise _Built


class TestEngineKeyParity:
    """The interop contract: a service submission and the
    equivalent batch sweep point address the *same* cache entry.

    The batch side is whatever the real ``run_*`` helper builds; the
    literal sweep keys pin today's key shape, so existing caches and
    journals stay valid."""

    def parity(self, name, params, batch, sweep_key):
        scenario = resolve_scenario(name)
        material, point, digest = job_content_key(scenario, params)
        engine = RecordingEngine()
        with pytest.raises(_Built):
            batch(engine)
        spec = engine.spec
        assert dict(spec.key) == sweep_key
        assert point in [dict(p) for p in spec.points]
        engine_material = ExperimentEngine.point_key(spec, point)
        assert material == engine_material
        assert digest == content_key(engine_material)

    def test_chaos_squares(self, tmp_path):
        self.parity(
            "chaos-squares",
            {"x": 3, "state_dir": str(tmp_path), "faults": {}},
            lambda engine: run_chaos_sweep(
                engine, xs=[1, 3], state_dir=str(tmp_path)
            ),
            {"experiment": "chaos-squares"},
        )

    def test_cluster_elapsed(self):
        # The key shape figure 3's sweeps use.
        self.parity(
            "cluster-elapsed",
            {"app": "linpack", "cores": 8},
            lambda engine: run_cluster_times(
                engine, "linpack", counts=[1, 8], num_nodes=96, seed=7
            ),
            {
                "experiment": "cluster-elapsed",
                "app": "linpack",
                "app_args": {},
                "num_nodes": 96,
            },
        )

    def test_cluster_energy(self):
        # The key shape the X4 energy rows use.
        self.parity(
            "cluster-energy",
            {"app": "bigdft", "cores": 16, "seed": 9},
            lambda engine: run_replicated_energy(
                engine, "bigdft", counts=[4, 16], num_nodes=96, seeds=[7, 9]
            ),
            {
                "experiment": "cluster-energy",
                "app": "bigdft",
                "app_args": {},
                "num_nodes": 96,
            },
        )

    def test_magicfilter(self):
        # The key shape figure 7's unroll sweep uses.
        self.parity(
            "magicfilter",
            {"machine": "Intel Xeon X5550", "unroll": 6},
            lambda engine: run_magicfilter_sweep(engine, "Intel Xeon X5550"),
            {
                "experiment": "magicfilter",
                "machine": "Intel Xeon X5550",
                "shape": [32, 32, 32],
            },
        )

    def test_page_alloc(self):
        self.parity(
            "page-alloc",
            {"machine": "snowball", "fragmentation": 0.25},
            lambda engine: run_page_alloc_sweep(
                engine, machine="snowball", fragmentations=[0.0, 0.25],
                seeds=[7], array_bytes=8 << 20,
            ),
            {
                "experiment": "page-alloc",
                "machine": "snowball",
                "array_bytes": 8 << 20,
            },
        )
