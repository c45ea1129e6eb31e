"""The performance ledger: one command, three workloads, every output checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {bundle,trace-fig4,service-mix} \\
        [--seed N] [--seconds S] [--trace {0,1}]

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that wraps the program's layer
entry points (``layers.py``) and reports the per-layer metrics plus the
overhead the wrappers add to each end-to-end metric.  The metric names
and units are the ones ``BENCHMARK.json`` lists.  A ledger of every
named number (with units and sample counts) goes to stderr; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
check passed; see ``README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import signal
import sys
import tempfile

from common import (
    ROOT, SRC, CheckFailed, Context, make_workspace, remove_workspace,
)

#: Workload name -> the module that runs it.
WORKLOADS = {
    "bundle": "wl_bundle",
    "trace-fig4": "wl_trace",
    "service-mix": "wl_service",
}
SPANS_DIR = ROOT / ".perfbench" / "spans"


def _collect(ctx: Context, spec: dict) -> dict[str, float]:
    """Run the workload; the metrics it measured, by name."""
    module = importlib.import_module(WORKLOADS[ctx.workload])
    if not ctx.trace:
        return module.measure(ctx)
    import layers
    from spans import LayerTracer

    tracer = LayerTracer()
    values = {m["name"]: 0 for m in spec["per_layer"]}
    specific = module.traced(ctx, tracer)
    values.update(layers.metrics(tracer))
    values.update(specific)
    spans = SPANS_DIR / f"{ctx.workload}-seed{ctx.seed}.json"
    tracer.dump(spans)
    ctx.note(f"spans written to {spans.relative_to(ROOT)}")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    # A SIGTERM unwinds like an exception, so every started server and
    # CLI process is stopped by the finally blocks on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = make_workspace()
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), work)
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-cache")
    os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
    try:
        values = _collect(ctx, spec)
    except CheckFailed as error:
        print(f"[perfbench] fatal: {error}", file=sys.stderr)
        return 1
    finally:
        remove_workspace(work)

    names = [m["name"] for m in listed]
    unknown = sorted(set(values) - set(names))
    missing = [n for n in names if n not in values]
    broken = [n for n in names if n in values and not math.isfinite(values[n])]
    if unknown or missing or broken:
        print(f"[perfbench] fatal: metrics unknown {unknown}, missing "
              f"{missing}, not finite {broken}", file=sys.stderr)
        return 1

    mode = "traced" if args.trace else "untraced"
    print(f"[perfbench] {args.workload} seed={args.seed} {mode}",
          file=sys.stderr)
    for line in ctx.lines:
        print(f"  {line}", file=sys.stderr)
    error_rate = ctx.failed / max(ctx.attempted, 1)
    print(f"  error_rate = {error_rate:.6g} ({ctx.failed} of {ctx.attempted} "
          f"operations failed, were refused or had a wrong output)",
          file=sys.stderr)
    for metric in listed:
        print(f"  {metric['name']} = {values[metric['name']]:.6g} "
              f"{metric['unit']}", file=sys.stderr)
    correct = ctx.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
