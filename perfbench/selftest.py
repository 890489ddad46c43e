"""Self-test of the benchmark.  Run from the repository root::

    python3 perfbench/selftest.py

1. A one-second run of every workload, untraced and traced, exits 0,
   reports ``correct`` and emits every metric ``BENCHMARK.json`` names,
   with its declared unit and a finite value.
2. A deliberately wrong response fails the run (exit 1, ``correct``
   false): a page body that no longer hashes to its ETag (``browse``),
   and an edit that never reaches the corpus (``author``).
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
   the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys

from common import BENCH_DIR, ROOT, RUN_DIR, SRC, declared_metrics

sys.path.insert(0, str(SRC))
import inproc  # noqa: E402 - needs the program on the path
import run  # noqa: E402

WORKLOADS = ("browse", "author", "lab", "http")


def _result(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def _cli(args, cwd=ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, _result(proc.stdout)


def emits_every_metric() -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        declared = declared_metrics(kind)
        for workload in WORKLOADS:
            code, result = _cli(["--workload", workload, "--seed", "3",
                                 "--seconds", "1", "--trace", str(trace)])
            where = f"{workload} --trace {trace}"
            assert code == 0 and result and result["correct"], where
            assert result["attempted"] >= 1 and result["failed"] == 0, where
            assert set(result["metrics"]) == set(declared), where
            for name, metric in result["metrics"].items():
                assert metric["unit"] == declared[name], (where, name)
                value = metric["value"]
                assert isinstance(value, (int, float)) \
                    and math.isfinite(value), (where, name, value)
            print(f"ok   {where}: {len(declared)} metrics")


def _in_process(args) -> tuple[int, dict | None]:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = run.main(args)
    return code, _result(captured.getvalue())


def wrong_responses_fail() -> None:
    def corrupt(app):
        def wrapped(environ, start_response):
            body = b"".join(app(environ, start_response))
            if environ["PATH_INFO"] == "/" and body:
                body = body[:-1] + b"!"
            return [body]
        return wrapped

    cases = (("browse", inproc, "serve_app", corrupt),
             ("author", inproc.Editor, "write", lambda self, edit: None))
    for workload, owner, attr, fake in cases:
        original = getattr(owner, attr)
        setattr(owner, attr, fake)
        try:
            code, result = _in_process(["--workload", workload, "--seed", "3",
                                        "--seconds", "1"])
        finally:
            setattr(owner, attr, original)
        assert code == 1 and result and not result["correct"] \
            and result["failed"] > 0, (workload, code, result)
        print(f"ok   {workload} with a wrong response fails "
              f"({result['failed']} failed)")


def refuses_without_program() -> None:
    bare = RUN_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, result = _cli(["--workload", "browse", "--seed", "1",
                             "--seconds", "1"], cwd=bare)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    assert code != 0 and result is None, (code, result)
    print(f"ok   without the program: exit {code}, no result")


if __name__ == "__main__":
    emits_every_metric()
    wrong_responses_fail()
    refuses_without_program()
    print("selftest passed")
