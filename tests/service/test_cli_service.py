"""The service CLI surface (`repro submit/status/result`) and the
SIGINT hygiene contract for every command.
"""

import asyncio
import json
import threading

import pytest

from repro.cli import TOOL_COMMANDS, main
from repro.metrics.registry import MetricsRegistry, use_registry
from repro.service import JobService, ServiceConfig
from repro.service.http import ServiceServer


@pytest.fixture
def server_url(tmp_path):
    started = threading.Event()
    state = {}

    def host():
        async def run():
            with use_registry(MetricsRegistry()):
                service = JobService(ServiceConfig(
                    cache_root=tmp_path / "cache", pool_size=2,
                ))
                server = ServiceServer(service, port=0)
                await server.start()
                state["port"] = server.port
                state["loop"] = asyncio.get_running_loop()
                state["stop"] = asyncio.Event()
                started.set()
                await state["stop"].wait()
                await server.stop()

        asyncio.run(run())

    thread = threading.Thread(target=host, daemon=True)
    thread.start()
    assert started.wait(timeout=10)
    yield f"http://127.0.0.1:{state['port']}"
    state["loop"].call_soon_threadsafe(state["stop"].set)
    thread.join(timeout=10)


class TestSubmitCommand:
    def test_submit_prints_result_bytes_and_a_summary_line(
        self, server_url, capsys
    ):
        code = main([
            "submit", "squares", "--param", "x=7", "--url", server_url,
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == '{"value":49}\n'
        assert "[submit] job j-" in captured.err
        assert "state=done" in captured.err
        assert "source=computed" in captured.err

    def test_submit_summary_shows_dedup_and_source(
        self, server_url, capsys
    ):
        main(["submit", "squares", "--param", "x=8", "--url", server_url])
        capsys.readouterr()
        code = main([
            "submit", "squares", "--param", "x=8", "--url", server_url,
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == '{"value":64}\n'
        assert "deduped=false" in captured.err
        assert "source=cache" in captured.err
        assert "state=done" in captured.err

    def test_no_wait_prints_the_job_id_for_polling(
        self, server_url, capsys
    ):
        code = main([
            "submit", "sleepy", "--param", "duration_s=0.05",
            "--no-wait", "--url", server_url,
        ])
        captured = capsys.readouterr()
        assert code == 0
        handle = json.loads(captured.out)
        assert handle["state"] in ("queued", "running", "done")

        job_id = handle["job_id"]
        for _ in range(400):
            capsys.readouterr()
            assert main(["status", job_id, "--url", server_url]) in (0, 1)
            snapshot = json.loads(capsys.readouterr().out)
            if snapshot["state"] == "done":
                break
        assert snapshot["state"] == "done"
        assert main(["result", job_id, "--url", server_url]) == 0
        assert json.loads(capsys.readouterr().out) == {"slept_s": 0.05}

    def test_status_without_id_prints_service_stats(
        self, server_url, capsys
    ):
        code = main(["status", "--url", server_url])
        captured = capsys.readouterr()
        assert code == 0
        stats = json.loads(captured.out)
        assert stats["pool_size"] == 2

    def test_failed_job_exits_one_with_its_typed_error(
        self, server_url, tmp_path, capsys
    ):
        code = main([
            "submit", "chaos-squares",
            "--param", "x=5",
            "--param", f"state_dir={tmp_path / 'state'}",
            "--param", 'faults={"5": {"kind": "raise", "times": 99}}',
            "--url", server_url,
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "ChaosFault" in captured.err

    def test_malformed_params_fail_cleanly(self, server_url, capsys):
        code = main([
            "submit", "squares", "--param", "no-equals-sign",
            "--url", server_url,
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "error in submit" in captured.err

    def test_serve_rejects_a_zero_point_timeout(self, tmp_path, capsys):
        code = main([
            "serve", "--point-timeout", "0", "--port", "0",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error in serve: ")
        assert "point timeout must be positive" in lines[0]

    def test_unreachable_service_is_one_clean_line(self, capsys):
        code = main([
            "submit", "squares", "--param", "x=1",
            "--url", "http://127.0.0.1:1",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "cannot reach service" in captured.err


class TestSigintHygiene:
    def test_interrupt_exits_130_with_one_line(self, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(TOOL_COMMANDS, "status", interrupted)
        code = main(["status"])
        captured = capsys.readouterr()
        assert code == 130
        assert "interrupted: status stopped by SIGINT" in captured.err
        assert "Traceback" not in captured.err

    def test_interrupt_flushes_a_partial_run_marker(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.cli import COMMANDS

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(COMMANDS, "fig1", interrupted)
        run_dir = tmp_path / "run"
        code = main(["fig1", "--run-dir", str(run_dir)])
        captured = capsys.readouterr()
        assert code == 130
        marker = json.loads((run_dir / "interrupted.json").read_text())
        assert marker["artefact"] == "fig1"
        assert marker["completed_sweeps"] == []
        assert marker["journal_records"] == 0
        assert "partial state flushed" in captured.err

    def test_interrupt_without_run_dir_leaves_no_marker(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.cli import COMMANDS

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(COMMANDS, "fig1", interrupted)
        code = main(["fig1"])
        capsys.readouterr()
        assert code == 130
        assert not list(tmp_path.rglob("interrupted.json"))

    def test_interrupt_still_exports_requested_metrics(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.cli import COMMANDS

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(COMMANDS, "fig1", interrupted)
        out = tmp_path / "metrics.json"
        code = main(["fig1", "--metrics-out", str(out)])
        capsys.readouterr()
        assert code == 130
        assert json.loads(out.read_text())  # export happened anyway
