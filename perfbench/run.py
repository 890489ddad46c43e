"""The repository benchmark: one command per workload, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``browse`` — in-process, warm cache, Zipf pages + cacheable API;
* ``author`` — in-process edits over a corpus copy, inline rebuilds;
* ``lab``    — in-process sweep jobs on the pool + ``/api/simulate``;
* ``http``   — the browse mix over loopback against ``pdcunplugged serve
  --worker-model process``.

``--trace 0`` prints every end-to-end metric.  A workload measures its
own metrics in the main window; the metrics that belong to another
workload's operations (say ``publish_p50_ms`` on ``browse``) come from a
shorter run of that workload afterwards, so every workload reports every
metric.  Every time is read from the host-speed clock
(``common.HostClock``): the host's vCPUs change speed by up to 2x within
a second, so times are converted to a reference speed measured between
operations.  Every process of a run uses one string-hash seed.

``--trace 1`` instead runs the window as a warm-up slice and then
untraced and traced slices in turn, wraps the program's public per-layer
functions from outside during the traced ones, and prints every
per-layer metric, the tracing overhead (untraced against traced rate)
and the layer budget; per-layer metrics a workload does not exercise
read 0.  On ``http`` the traced run measures the open-loop
view over the wire and reads the rungs from the same mix in-process.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the host fingerprint and the
workload properties.  Any failed check makes ``correct`` false and the
exit code 1.  Without the program's sources in ``src/`` it exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from array import array

from common import (RUN_DIR, SRC, Outcome, Tracer, clock, declared_metrics,
                    host_fingerprint, log, mean, median,
                    peak_rss_mb, percentile)

#: The string-hash seed every process of a run uses.
HASH_SEED = "0"

#: Each follow-up run that measures another workload's metrics lasts
#: this share of the main window.  Browse gets the longest: its p99
#: needs the samples, and it sets up in a tenth of a second.
PROBE_SHARE = {"browse": 1 / 2, "author": 1 / 3, "lab": 1 / 3}
#: ... after a warm-up slice this share of the probe.  Author has none:
#: its main runs start cold too, and a slice of it lasts at least one
#: round of edits over every activity.
PROBE_WARMUP = {"browse": 1 / 4, "author": 0, "lab": 1 / 4}

#: Which workload's operations define each end-to-end metric.
OWNER = {
    "req_per_s": "browse", "max_rate_rps": "browse",
    "latency_p50_ms": "browse", "latency_p99_ms": "browse",
    "publish_p50_ms": "author", "publish_p90_ms": "author",
    "lint_p50_ms": "author",
    "sweep_points_per_s": "lab", "sweep_job_p50_s": "lab",
    "simulate_p50_ms": "lab",
}


def _workloads() -> dict:
    from inproc import Author, Browse, Lab
    from transport import Http

    return {"browse": Browse, "author": Author, "lab": Lab, "http": Http}


def _setup(workload, seed, out):
    """Set up ``setup_reps`` times; keep the last, report the median."""
    times, state = [], None
    for _ in range(workload.setup_reps):
        if state is not None:
            workload.close(state)
        clock.calibrate()
        state, interval = workload.setup(seed, out)
        clock.calibrate()
        times.append(clock.span(*interval))
    return state, median(times)


def measure(name, seed, seconds, out) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced run, plus its properties."""
    workloads = _workloads()
    workload = workloads[name]()
    state, setup_s = _setup(workload, seed, out)
    try:
        result = workload.measure(state, seed, seconds, out)
    finally:
        workload.close(state)
    metrics = dict(result["metrics"], setup_s=setup_s)
    if name in ("lab", "http"):
        # The largest pool or server process, reaped by now.  (In-process
        # workloads read their own peak at the end of the timed loop,
        # before the samples are summarized.)
        metrics["peak_rss_mb"] = peak_rss_mb(children=True)
    properties = _properties(name, result)
    for owner in sorted({OWNER[k] for k in OWNER if k not in metrics}):
        extra = _run_probe(owner, seed, seconds * PROBE_SHARE[owner], out)
        for key, value in extra.items():
            if OWNER.get(key) == owner:
                metrics.setdefault(key, value)
    return metrics, properties


def _run_probe(owner, seed, seconds, out) -> dict:
    """A short run of ``owner`` in a fresh interpreter, so that what the
    main workload left in this process (heap, threads) cannot slow it."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", owner, "--seed", str(seed),
         "--seconds", str(seconds), "--probe"],
        capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"{owner} probe failed:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    out.ops(report["attempted"], report["failures"])
    return report["metrics"]


def probe(name, seed, seconds) -> dict:
    """The body of ``--probe``: set up once, discard a first slice (so
    the probe times a warm state, as a full run mostly does), measure."""
    out = Outcome()
    workload = _workloads()[name]()
    state, _ = workload.setup(seed, out)
    try:
        if PROBE_WARMUP[name]:
            workload.measure(state, seed, seconds * PROBE_WARMUP[name], out)
        metrics = workload.measure(state, seed, seconds, out)["metrics"]
    finally:
        workload.close(state)
    failures = out.messages + [f"{name} probe: more failures"] * (
        out.failed - len(out.messages))
    return {"metrics": metrics, "attempted": out.attempted,
            "failures": failures}


def _properties(name, result) -> dict:
    """Input properties later performance claims depend on."""
    if name in ("browse", "http"):
        source = result.get("fixed", result)
        count = source.get("requests", source.get("completed", 0)) or 1
        return {"revalidate_share": source["revalidated"] / count,
                "cache_hit_share": source["hits"] / count}
    if name == "author":
        return {"edits": result["edits"],
                "tag_edit_share": result["tag_edits"] / max(1, result["edits"])}
    return {"point_repeat_share": result["repeat_points"]
            / max(1, result["points"]),
            "simulate_repeat_ratio": result["simulate_repeats"]
            / max(1, result["simulate_requests"])}


# -- traced runs -----------------------------------------------------------


def install_tracing(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (from outside the program)."""
    from repro.lint import LintEngine
    from repro.serve.cache import ShardedPageCache
    from repro.serve.metrics import MetricsRegistry
    from repro.serve.rebuild import RebuildManager
    from repro.serve.resilience import LoadShedder
    from repro.serve.tenancy import TenantGate
    from repro.sitegen.search import SearchIndex
    from repro.sitegen.site import Site
    from repro.sweep import ResultStore, SweepSpec

    def count_hit(prefix):
        def on_result(result):
            tracer.add(prefix + (".miss" if result is None else ".hit"))
        return on_result

    def on_refresh(result):
        if result is not None:
            tracer.add("rebuild.dirty", len(result.dirty_urls))

    def on_lint(result):
        tracer.add("lint.analyzed", result.stats.files_analyzed)
        tracer.add("lint.files", result.stats.files_total)

    tracer.wrap(TenantGate, "admit", "tenancy.admit")
    tracer.wrap(LoadShedder, "try_acquire", "shed.acquire")
    tracer.wrap(ShardedPageCache, "get", "cache.get", count_hit("cache"))
    tracer.wrap(ShardedPageCache, "put", "cache.put")
    tracer.wrap(ShardedPageCache, "invalidate", "cache.invalidate",
                lambda n: tracer.add("cache.invalidated", n))
    tracer.wrap(MetricsRegistry, "record_request", "metrics.record")
    # Every render of a served page, term, taxonomy or view page.  (The
    # home page's render task holds its bound method from before tracing
    # starts, so home-page renders go unseen.)
    for method in ("render_page", "render_term_page",
                   "render_taxonomy_index", "render_view"):
        tracer.wrap(Site, method, "render.page")
    tracer.wrap(SearchIndex, "search", "search.query")
    tracer.wrap(RebuildManager, "maybe_refresh",
                lambda r: "rebuild.check" if r is None else "rebuild.refresh",
                on_refresh)
    tracer.wrap(LintEngine, "lint", "lint.run", on_lint)
    tracer.wrap(SweepSpec, "parse", "sweep.spec_parse")
    tracer.wrap(ResultStore, "get", "sweep.store_get", count_hit("store"))
    tracer.wrap(ResultStore, "put", "sweep.store_put")


#: Spans that are rungs of a served request (the browse layer budget).
RUNGS = ("tenancy.admit", "shed.acquire", "cache.get", "cache.put",
         "metrics.record", "render.page", "search.query", "rebuild.check",
         "rebuild.refresh", "cache.invalidate")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _rate(result: dict) -> float:
    return _ratio(result.get("work", 0), result.get("wall", 0))


def layer_metrics(tracer: Tracer, traced: dict, untraced: dict,
                  properties: dict) -> dict:
    c = tracer.counts.get
    t = tracer.mean
    refreshes = tracer.stats.get("rebuild.refresh", [0])[0]
    edits = traced.get("edits", 0)
    api_miss = traced.get("api_miss", [])
    metrics = {
        "tenancy.admit_us": t("tenancy.admit", scale=1e6),
        "shed.acquire_us": t("shed.acquire", scale=1e6),
        "metrics.record_us": t("metrics.record", scale=1e6),
        "cache.get_us": t("cache.get", scale=1e6),
        "cache.put_us": t("cache.put", scale=1e6),
        "cache.hit_ratio": _ratio(c("cache.hit", 0),
                                  c("cache.hit", 0) + c("cache.miss", 0)),
        "cache.invalidated_urls": _ratio(c("cache.invalidated", 0), refreshes),
        "render.page_ms": t("render.page", scale=1e3),
        "render.api_ms": mean(api_miss) * 1e3,
        "render.pages_per_edit": _ratio(
            tracer.stats.get("render.page", [0])[0], edits),
        "search.query_us": t("search.query", scale=1e6),
        "rebuild.refresh_ms": t("rebuild.refresh", column=1, scale=1e3),
        "rebuild.dirty_urls": _ratio(c("rebuild.dirty", 0), refreshes),
        "lint.run_ms": t("lint.run", column=1, scale=1e3),
        "lint.analyzed_ratio": _ratio(c("lint.analyzed", 0),
                                      c("lint.files", 0)),
        "sweep.spec_parse_ms": t("sweep.spec_parse", column=1, scale=1e3),
        "sweep.store_hit_ratio": _ratio(
            c("store.hit", 0), c("store.hit", 0) + c("store.miss", 0)),
        "sweep.store_get_ms": t("sweep.store_get", column=1, scale=1e3),
        "sweep.store_put_ms": t("sweep.store_put", column=1, scale=1e3),
        "sweep.pool_overhead_s": _ratio(traced.get("overhead_sum_s", 0),
                                        traced.get("jobs", 0)),
        "sweep.pool_cold_starts": traced.get("pool_cold_starts", 0),
        "sim.point_ms": _ratio(traced.get("point_ms_sum", 0),
                               traced.get("points_executed", 0)),
        "simulate.repeat_ratio": properties.get("simulate_repeat_ratio", 0.0),
        "browse.revalidate_share": properties.get("revalidate_share", 0.0),
        "browse.cache_hit_share": properties.get("cache_hit_share", 0.0),
        "author.tag_edit_share": properties.get("tag_edit_share", 0.0),
        "author.dirty_urls_per_edit": _ratio(c("rebuild.dirty", 0), edits),
        "lab.point_repeat_share": properties.get("point_repeat_share", 0.0),
        "trace.overhead_pct": (_ratio(_rate(untraced), _rate(traced)) - 1)
        * 100 if _rate(traced) else 0.0,
        "http.transport_ms": 0.0,
        "http.gen_late_ms": 0.0,
        "http.transport_errors": 0,
        "http.open_p50_ms": 0.0,
        "http.open_p99_ms": 0.0,
        "http.max_rate_rps": 0.0,
        "budget.request_us": 0.0,
        "budget.rungs_us": 0.0,
        "app.self_us": 0.0,
    }
    if "latency_sum_s" in traced:
        # The layer budget: what each request costs end to end, against
        # the self time of the rungs it passes; the rest is unattributed.
        requests = traced["requests"]
        per_request = traced["latency_sum_s"] / requests * 1e6
        rungs = sum(tracer.stats.get(span, [0, 0, 0])[2]
                    for span in RUNGS) / requests * 1e6
        metrics["budget.request_us"] = per_request
        metrics["budget.rungs_us"] = rungs
        metrics["app.self_us"] = per_request - rungs
    return metrics


#: A traced run: one warm-up slice, then untraced and traced slices in
#: turn, so host drift and warm-up weigh on both sides alike.
TRACE_SLICES = 4


def _merge(total: dict, part: dict) -> dict:
    """Add one slice's sums, counts and samples into ``total``."""
    for key, value in part.items():
        if isinstance(value, (list, array)):
            total.setdefault(key, []).extend(value)
        elif key == "pool_cold_starts":         # a running total already
            total[key] = max(total.get(key, 0), value)
        elif isinstance(value, (int, float)):
            total[key] = total.get(key, 0) + value
    return total


def _sliced(workload, state, seed, seconds, out, tracer):
    """Alternate untraced and traced slices; return both merged."""
    step = seconds / (TRACE_SLICES + 1)
    workload.measure(state, seed, step, out)
    untraced, traced = {}, {}
    for index in range(TRACE_SLICES):
        if index % 2 == 0:
            _merge(untraced, workload.measure(state, seed, step, out))
            continue
        install_tracing(tracer)
        try:
            _merge(traced, workload.measure(state, seed, step, out, tracer))
        finally:
            tracer.restore()
    return untraced, traced


def measure_traced(name, seed, seconds, out) -> tuple[dict, dict]:
    """Per-layer metrics from the traced slices of one run."""
    workloads = _workloads()
    workload = workloads[name]()
    tracer = Tracer()
    state, _setup_s = _setup(workload, seed, out)
    try:
        if name == "http":
            # The server runs in its own processes: over the wire only
            # latency is visible; the rungs are read from the same mix
            # served in-process.
            fixed = workload.open_loop_report(state, seed, 0.7 * seconds,
                                              out)
            reference = workloads["browse"]()
            ref_state, _ = reference.setup(seed, out)
            try:
                untraced, traced = _sliced(reference, ref_state, seed,
                                           0.3 * seconds, out, tracer)
            finally:
                reference.close(ref_state)
            properties = _properties(name, {"fixed": fixed})
        else:
            untraced, traced = _sliced(workload, state, seed, seconds, out,
                                       tracer)
            properties = _properties(name, traced)
    finally:
        workload.close(state)
    metrics = layer_metrics(tracer, traced, untraced, properties)
    if name == "http":
        metrics["http.transport_ms"] = (
            fixed["p50"] * 1e3 - percentile(untraced["latencies"], 50) * 1e3)
        metrics["http.gen_late_ms"] = fixed["late_mean"] * 1e3
        metrics["http.transport_errors"] = fixed["errors"]
        metrics["http.open_p50_ms"] = fixed["p50"] * 1e3
        metrics["http.open_p99_ms"] = fixed["p99"] * 1e3
        metrics["http.max_rate_rps"] = fixed["max_rate"]
    log(tracer.table())
    if metrics["budget.request_us"]:
        log(f"layer budget per request: end to end "
            f"{metrics['budget.request_us']:.2f} us, rungs "
            f"{metrics['budget.rungs_us']:.2f} us, unattributed (app.self) "
            f"{metrics['app.self_us']:.2f} us")
    log(f"tracing overhead: {_rate(untraced):.1f}/s untraced vs "
        f"{_rate(traced):.1f}/s traced "
        f"({metrics['trace.overhead_pct']:.1f}%)")
    return metrics, properties


# -- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["browse", "author", "lab", "http"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Internal: one short warm run whose metrics fill another workload's
    # report (see ``_run_probe``).
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no program sources at {SRC}; run from the repository root")
        return 2
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is seeded per process, and the seed moves dict
        # and set layouts, so runs of the same code differ by several
        # percent.  Start over with a fixed seed (the probes and the
        # server inherit it).
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    if args.probe:
        print(json.dumps(probe(args.workload, args.seed, args.seconds)))
        return 0

    out = Outcome()
    started = time.perf_counter()
    kind = "per_layer" if args.trace else "end_to_end"
    try:
        run = measure_traced if args.trace else measure
        values, properties = run(args.workload, args.seed, args.seconds, out)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    units = declared_metrics(kind)
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"workload {args.workload} did not measure {missing}")
    for message in out.messages:
        log(f"FAILED: {message}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "wall_s": time.perf_counter() - started,
                      "host": host_fingerprint(),
                      "properties": properties}))
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
