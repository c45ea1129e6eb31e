"""Workload ``bundle``: ``repro reproduce-all --jobs 2``, cold then warm.

Each round runs the command into an empty cache (cold), then three
times again against the filled cache (warm), each into a fresh ``--out``.
Each run is followed by calibration loops on the cores it ran on, and
its time is scaled to the reference core by them (``README.md``); a
warm run is one busy process, so it and its loops run on one core.
Both runs are checked the same way: the ``[bundle]`` totals line, and every
artefact's per-file sha256 map in ``MANIFEST.json`` against
``reference/bundle_files.json``.  The top-level bundle digest is never
compared: it covers the environment capture, which embeds the Python
version and ``argv[0]``.

Regenerate the reference after an intentional output change with
``python3 perfbench/wl_bundle.py BUNDLE_DIR`` on a bundle written by
``reproduce-all --out BUNDLE_DIR``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
import time
from pathlib import Path

from common import (
    HERE, Context, add_cluster_counts, check, loops_on_each_core, median,
    one_core, run_program,
)

REFERENCE = HERE / "reference" / "bundle_files.json"
JOBS = "2"
#: One cold run, then three warm runs against the cache it filled: a
#: warm run is short, so it gets three times the samples.
ROUND = ("cold", "warm", "warm", "warm")
#: Calibration loops timed on each core after each run.
LOOPS_PER_RUN = 4
#: Rounds of every run, however short ``--seconds`` is: each adds a cold
#: sample, and one round gives too few warm ones for a steady median.
MIN_ROUNDS = 2
#: How far a cold run's time moves per move of the loops on its cores,
#: in log terms: 0.47 and 0.65 in two ten-run sets.  Part of a cold run
#: does not slow with the cores (process starts, file writes, a worker
#: idling at the end of a sweep), so it is scaled by this power of the
#: loops' scale.
COLD_ELASTICITY = 0.5
#: Every sweep point of the pinned bundle; the warm run must hit them all.
POINTS = 78
TOTALS = {
    "cold": f"[bundle] recomputed {POINTS} | hits 0",
    "warm": f"[bundle] recomputed 0 | hits {POINTS}",
}


def artefact_files(bundle_dir: Path) -> dict[str, dict[str, str]]:
    manifest = json.loads((bundle_dir / "MANIFEST.json").read_text("utf-8"))
    return {
        name: record["files"]
        for name, record in manifest["artefacts"].items()
    }


def check_totals(stderr: str, phase: str) -> None:
    check(TOTALS[phase] in stderr.splitlines(), "BundleTotalsMismatch",
          f"{phase} run did not print {TOTALS[phase]!r}")


def check_bundle(bundle_dir: Path, phase: str, reference: dict) -> None:
    """Raise ``CheckFailed`` unless every artefact's files match
    *reference* digest for digest."""
    found = artefact_files(bundle_dir)
    check(sorted(found) == sorted(reference), "BundleArtefactsMismatch",
          f"{phase} bundle has artefacts {sorted(found)}, "
          f"reference has {sorted(reference)}")
    for name, files in reference.items():
        check(sorted(found[name]) == sorted(files), "DigestMismatch",
              f"{phase} {name} wrote {sorted(found[name])}, "
              f"reference lists {sorted(files)}")
        for path, digest in files.items():
            check(found[name][path] == digest, "DigestMismatch",
                  f"{phase} {path}: sha256 {found[name][path]} "
                  f"!= reference {digest}")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text("utf-8"))


def cli_args(cache: Path, out: Path, run_dir: Path, jobs: str) -> list[str]:
    return ["reproduce-all", "--jobs", jobs, "--cache-dir", str(cache),
            "--out", str(out), "--run-dir", str(run_dir)]


def setup_once(ctx: Context) -> float:
    """CLI start-up: a fresh ``repro cache stats`` on an empty cache."""
    cache = ctx.fresh_dir("setup-cache")
    code, _, err, wall = run_program(
        ["-m", "repro", "cache", "stats", "--cache-dir", str(cache)], ctx,
    )
    check(code == 0, "SetupFailed", f"repro cache stats exited {code}: {err}")
    return wall


def measure(ctx: Context) -> dict[str, float]:
    reference = load_reference()
    with one_core():
        setup = ctx.setup_time(lambda: setup_once(ctx))
    walls: dict[str, list[float]] = {"cold": [], "warm": []}
    loops: dict[str, list[float]] = {"cold": [], "warm": []}
    started = time.perf_counter()
    last_round = 0.0
    rounds = 0
    # A round takes ~18-24 s: after MIN_ROUNDS, start another only while
    # at least a third of one still fits in --seconds.
    while rounds < MIN_ROUNDS or (
        time.perf_counter() - started + last_round / 3 < ctx.seconds
    ):
        rounds += 1
        round_started = time.perf_counter()
        round_dir = ctx.fresh_dir("round")
        for step, phase in enumerate(ROUND):
            def one(phase=phase, out=round_dir / f"{phase}-{step}"):
                code, _, err, wall = run_program(
                    ["-m", "repro", *cli_args(
                        round_dir / "cache", out, round_dir / f"{phase}-{step}-run",
                        JOBS,
                    )], ctx,
                )
                check(code == 0, "CommandFailed",
                      f"{phase} reproduce-all exited {code}: {err[-500:]}")
                check_totals(err, phase)
                check_bundle(out, phase, reference)
                return wall
            with one_core() if phase == "warm" else contextlib.nullcontext():
                wall = ctx.attempt(f"bundle {phase}", one)
                loops[phase].extend(loops_on_each_core(LOOPS_PER_RUN))
            if wall is not None:
                walls[phase].append(wall)
        shutil.rmtree(round_dir, ignore_errors=True)
        if not walls["cold"]:
            break  # every cold run fails: stop rather than spin
        last_round = time.perf_counter() - round_started
    check(bool(walls["cold"] and walls["warm"]), "NoSamples",
          "no cold or no warm run completed")
    ctx.report("bundle_cold_s", "s", walls["cold"])
    ctx.report("bundle_warm_s", "s", walls["warm"])
    cold = ctx.core_scale("cold runs", loops["cold"])
    warm = ctx.core_scale("warm runs", loops["warm"])
    return {
        "setup_s": setup,
        "heavy_p50_ms": 1e3 * cold ** COLD_ELASTICITY * median(walls["cold"]),
        "light_p50_ms": 1e3 * warm * median(walls["warm"]),
    }


def _in_process(ctx: Context, pair: Path, phase: str, reference: dict):
    """One ``reproduce-all --jobs 1`` in this process; ``(wall, stderr)``."""
    from repro.cli import main

    out = pair / phase
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(cli_args(pair / "cache", out, pair / f"{phase}-run", "1"))
    wall = time.perf_counter() - start
    check(code == 0, "CommandFailed",
          f"{phase} reproduce-all exited {code}: {stderr.getvalue()[-500:]}")
    check_totals(stderr.getvalue(), phase)
    check_bundle(out, phase, reference)
    return wall, stderr.getvalue()


def _export_counts(bundle_dir: Path) -> dict[str, float]:
    """Sum the cluster counters of every artefact's metrics export."""
    totals: dict[str, float] = {}
    for path in sorted(bundle_dir.glob("*/metrics.json")):
        export = json.loads(path.read_text("utf-8"))
        add_cluster_counts(totals, export["counters"])
    return totals


def _pair_in_process(ctx: Context, reference: dict, tracer, label: str):
    """A cold and a warm run in this process, inside spans of *tracer*."""
    pair = ctx.fresh_dir(label)
    runs = {}
    for phase in ("cold", "warm"):
        des_before = tracer.units("cluster.des.run")
        with tracer.span(f"bundle.{phase}"):
            result = ctx.attempt(f"{label} bundle {phase}", lambda: _in_process(
                ctx, pair, phase, reference))
        if result is not None:
            wall, stderr = result
            totals = re.search(r"^\[bundle\] recomputed (\d+) \| hits (\d+)$",
                               stderr, re.MULTILINE)
            runs[phase] = {
                "wall": wall,
                "recomputed": int(totals[1]), "hits": int(totals[2]),
                "des_events": tracer.units("cluster.des.run") - des_before,
            }
    if "cold" in runs:
        runs["cold"]["exports"] = _export_counts(pair / "cold")
    shutil.rmtree(pair, ignore_errors=True)
    return runs


def traced(ctx: Context, tracer) -> dict[str, float]:
    """An untraced then a traced cold/warm pair, both at ``--jobs 1``.

    ``--jobs 1`` keeps every layer call in this process, where the
    wrappers are; the untraced pair runs the same way, so the
    difference between the two is the instrument's overhead alone.
    """
    import layers
    from spans import LayerTracer

    reference = load_reference()
    layers.preload()
    untraced = _pair_in_process(ctx, reference, LayerTracer(), "untraced")
    layers.install(tracer)
    try:
        runs = _pair_in_process(ctx, reference, tracer, "traced")
    finally:
        tracer.remove()
    ctx.note("traced bundle: reproduce-all --jobs 1 inside the benchmark "
             "process (the untraced reference too)")
    result = {}
    if "cold" in runs:
        result.update(runs["cold"]["exports"])
    if len(runs) == 2:
        computed = sum(r["recomputed"] for r in runs.values())
        hits = sum(r["hits"] for r in runs.values())
        result.update({
            "bundle.warm_des_events": runs["warm"]["des_events"],
            "engine.points_computed": computed,
            "engine.cache_hits": hits,
            "engine.cache_hit_ratio": hits / (hits + computed),
        })
    for key, phase in (("heavy_p50_ms", "cold"), ("light_p50_ms", "warm")):
        if phase in runs and phase in untraced:
            before, after = untraced[phase]["wall"], runs[phase]["wall"]
            result[f"overhead.{key}"] = 1e3 * (after - before)
            ctx.note(f"bundle_{phase}_s at --jobs 1: untraced {before:.3f} s, "
                     f"traced {after:.3f} s")
    return result


if __name__ == "__main__":
    bundle = Path(sys.argv[1])
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(
        json.dumps(artefact_files(bundle), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {REFERENCE}")
