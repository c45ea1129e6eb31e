"""Self-test of the benchmark's output checks, at smoke size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It proves the checks can fail: a reference digest with one flipped
byte must raise ``DigestMismatch``; a service result body that differs
from the in-process value must be counted as ``ServiceResultMismatch``;
a refused job and a failed job must each raise the error rate.  The
genuine outputs must pass the same checks.  Exits 0 when every case
behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys

from common import (
    SRC, CheckFailed, Context, make_workspace, remove_workspace, run_program,
)

SMOKE_ARTEFACTS = ("table2", "fig7")


def expect_failure(kind: str, fn) -> str | None:
    """``None`` when *fn* raises ``CheckFailed(kind)``, else a complaint."""
    try:
        fn()
    except CheckFailed as error:
        if error.kind == kind:
            return None
        return f"expected {kind}, got {error}"
    return f"expected {kind}, nothing failed"


def bundle_cases(ctx: Context) -> list[str]:
    import wl_bundle

    out = ctx.fresh_dir("bundle")
    code, _, err, _ = run_program(
        ["-m", "repro", *wl_bundle.cli_args(
            out / "cache", out / "smoke", out / "run", "1"
        ), "--only", ",".join(SMOKE_ARTEFACTS)], ctx,
    )
    if code != 0:
        return [f"smoke bundle exited {code}: {err[-500:]}"]
    reference = {
        name: files for name, files in wl_bundle.load_reference().items()
        if name in SMOKE_ARTEFACTS
    }
    problems = []
    try:
        wl_bundle.check_bundle(out / "smoke", "smoke", reference)
    except CheckFailed as error:
        problems.append(f"genuine smoke bundle failed its check: {error}")
    flipped = copy.deepcopy(reference)
    files = flipped[SMOKE_ARTEFACTS[0]]
    path = sorted(files)[0]
    digest = files[path]
    files[path] = digest[:10] + ("0" if digest[10] != "0" else "1") + digest[11:]
    problem = expect_failure(
        "DigestMismatch",
        lambda: wl_bundle.check_bundle(out / "smoke", "smoke", flipped),
    )
    if problem:
        problems.append(f"flipped digest of {path}: {problem}")
    return problems


def service_cases(ctx: Context) -> list[str]:
    import wl_service
    from repro.service.client import ServiceClient

    problems = []
    with wl_service.start_server(ctx) as server:
        service = ServiceClient(server.url, timeout_s=60.0)
        params = {"app": "linpack", "cores": 4, "num_nodes": 16, "seed": 3}
        record = ctx.attempt(
            "smoke job",
            lambda: wl_service.one_job(service, "computed", params),
        )
        before = ctx.failed
        refused = ctx.attempt("refused job", lambda: wl_service.one_job(
            service, "computed", dict(params, bogus=1)))
        if refused is not None or ctx.failed != before + 1:
            problems.append("a refused job did not count as failed")
        failing = ctx.attempt("failing job", lambda: wl_service.one_job(
            service, "computed", dict(params, app="no-such-app")))
        if failing is not None or ctx.failed != before + 2:
            problems.append("a failed job did not count as failed")
    if record is None:
        return problems + ["the genuine smoke job failed"]
    before = ctx.failed
    wl_service.verify(ctx, [record])
    if ctx.failed != before:
        problems.append("the genuine service result failed its check")
    wrong = dict(record, body=b'{"elapsed_s":1.0}\n')
    wl_service.verify(ctx, [wrong])
    if ctx.failed != before + 1 or "ServiceResultMismatch" not in ctx.errors[-1]:
        problems.append("a wrong service result was not flagged")
    return problems


def main() -> int:
    if not (SRC / "repro").is_dir():
        print(f"selftest: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = make_workspace()
    ctx = Context("selftest", 1, 1.0, False, work)
    try:
        problems = bundle_cases(ctx) + service_cases(ctx)
    finally:
        remove_workspace(work)
    print(f"error_rate after the refused, failed and wrong jobs: "
          f"{ctx.failed}/{ctx.attempted}", file=sys.stderr)
    for problem in problems:
        print(f"selftest FAILED: {problem}", file=sys.stderr)
    if not problems:
        print("selftest ok: flipped digest, wrong result, refused and "
              "failed jobs are all caught")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
