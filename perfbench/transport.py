"""The ``http`` workload: the browse mix over loopback.

The server is ``pdcunplugged serve --worker-model process`` with
``nproc`` (capped at 2) worker processes, started as a subprocess from
the checkout's ``src``.  The end-to-end metrics come from one
closed-loop connection, in quarter-second windows with the host-speed
clock calibrated between them (while client and server are idle).  The
traced run adds the open-loop view: ``PARALLEL`` sender threads each
follow their own seeded Poisson arrival process; a request is timed from
the moment it was due, so a stalled sender charges its wait to the
requests behind it, and the senders' lateness is reported, at a fixed
rate and over a ladder of rates.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from array import array

from common import (API_KEYS, API_PATHS, MAX_INFLIGHT, PARALLEL, SRC,
                    TENANTS, ConditionalClient, browse_mix, clock, etag_of,
                    mean, median, percentile, rng_for, scratch_dir)

HOST = "127.0.0.1"
#: The fixed open-loop rate behind ``http.open_p50_ms``/``http.open_p99_ms``.
FIXED_RATE = 400.0
#: The open-loop rate ladder behind ``http.max_rate_rps`` (x1.15 per rung).
LADDER = [round(700 * 1.15 ** i) for i in range(8)]
P99_LIMIT_S = 0.010
#: A rung whose lateness grows by more than this has a growing backlog.
LATE_GROWTH_LIMIT_S = 0.005
FIXED_SHARE = 0.35           # of the open-loop seconds; the ladder gets the rest
START_TIMEOUT_S = 60.0
#: Closed-loop window length.  The host's speed changes within a second
#: or so; windows this short are timed at one speed each.
WINDOW_S = 0.25


def _request(port: int, path: str, headers: dict):
    """One GET on a fresh connection: ``(status, etag, x-cache, body)``."""
    conn = http.client.HTTPConnection(HOST, port, timeout=10)
    try:
        conn.request("GET", path, headers=headers)
        response = conn.getresponse()
        body = response.read()
        return (response.status, response.getheader("ETag"),
                response.getheader("X-Cache"), body)
    finally:
        conn.close()


def _ready(port: int) -> bool:
    try:
        return _request(port, "/readyz", {})[0] == 200
    except (OSError, http.client.HTTPException):
        return False


class Server:
    """One ``pdcunplugged serve`` process tree in its own session."""

    def __init__(self, workdir):
        (workdir / "tenants.json").write_text(json.dumps(TENANTS))
        self.log_path = workdir / "server.log"
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1",
                   # Relative runtime dir: control-socket paths stay short
                   # however deep the checkout is.
                   TMPDIR=".")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--worker-model", "process", "--workers", str(PARALLEL),
                 "--tenants", "tenants.json", "--port", "0",
                 "--max-inflight", str(MAX_INFLIGHT)],
                cwd=workdir, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
        self.port = None

    def wait_ready(self) -> bool:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline and self.proc.poll() is None:
            if self.port is None:
                text = self.log_path.read_text(errors="replace")
                marker = text.find("http://")
                if marker >= 0:
                    address = text[marker + 7:].split()[0]
                    self.port = int(address.rsplit(":", 1)[1])
            if self.port is not None and _ready(self.port):
                return True
            time.sleep(0.005)
        return False

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill whatever is left of the
        process group and wait until it is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + 5.0
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
            while time.monotonic() < deadline:
                time.sleep(0.01)
                os.killpg(self.proc.pid, 0)
        except ProcessLookupError:
            pass                        # the whole group has exited
        self.proc.wait()


def open_loop(port, mix, rate, seconds, seed, stream, out) -> dict:
    """Offer ``rate`` req/s for ``seconds`` from ``PARALLEL`` senders.

    The schedule runs on the real clock; latencies and lateness are
    converted with the host-speed clock, calibrated before and after."""
    clock.calibrate()
    senders = []
    start = time.perf_counter() + 0.02
    end = start + seconds

    def sender(index):
        rng = rng_for(seed, f"{stream}:{index}")
        client = ConditionalClient()
        row = senders[index]
        due = start
        cursor = index
        while True:
            due += rng.expovariate(rate / PARALLEL)
            if due >= end:
                break
            now = time.perf_counter()
            if now >= end:
                break           # overloaded: the rest could never be on time
            if now < due:
                time.sleep(due - now)
            sent_at = time.perf_counter()
            path, revalidates, key = mix[cursor % len(mix)]
            cursor += PARALLEL
            headers = client.headers(path, revalidates, key)
            try:
                status, etag, cache, body = _request(port, path, headers)
            except (OSError, http.client.HTTPException) as exc:
                row["errors"].append(f"{path}: {type(exc).__name__}")
                continue
            done = time.perf_counter()
            row["latency"].append((due, done))
            row["late"].append((due, sent_at))
            problem = client.check(path, headers, status, etag, body, cache)
            if problem is not None:
                row["failures"].append(problem)
        row["client"] = client

    threads = []
    for index in range(PARALLEL):
        senders.append({"latency": [], "late": [], "errors": [],
                        "failures": []})
        threads.append(threading.Thread(target=sender, args=(index,)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    clock.calibrate()
    latency = [clock.span(*x) for row in senders for x in row["latency"]]
    late = [clock.span(*x) for x in sorted(
        x for row in senders for x in row["late"])]
    errors = [x for row in senders for x in row["errors"]]
    failures = [x for row in senders for x in row["failures"]]
    out.ops(len(latency) + len(errors), failures + errors)
    third = max(1, len(late) // 3)
    return {
        "completed": len(latency),
        "p50": percentile(latency, 50),
        "p99": percentile(latency, 99),
        "errors": len(errors),
        "late_mean": mean(late),
        # Lateness grows when the senders fall further behind over time.
        "late_growth": mean(late[-third:]) - mean(late[:third]),
        "revalidated": sum(row["client"].revalidated for row in senders),
        "hits": sum(row["client"].hits for row in senders),
    }


def _monotone(values: list[float], weights: list[float]) -> list[float]:
    """Least-squares non-decreasing fit (pool adjacent violators)."""
    blocks: list[list[float]] = []          # [mean, weight, length]
    for value, weight in zip(values, weights):
        blocks.append([value, weight, 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            high = blocks.pop()
            low = blocks[-1]
            total = low[1] + high[1]
            low[0] = (low[0] * low[1] + high[0] * high[1]) / total
            low[1] = total
            low[2] += high[2]
    return [mean for mean, _weight, length in blocks for _ in range(length)]


def max_rate(port, mix, seconds, seed, out) -> float:
    """The highest offered rate meeting the p99 limit without a growing
    backlog.

    p99 grows with the offered rate, but one scheduling hiccup of the
    host can push a single rung over the limit, so the rungs' p99s are
    fitted with a non-decreasing curve (weighted by samples) and the
    limit crossing is interpolated on it in log p99.  A rung whose
    lateness grows counts as over the limit.
    """
    step = seconds / len(LADDER)
    limit = math.log(P99_LIMIT_S)
    p99s, weights = [], []
    for index, rate in enumerate(LADDER):
        rung = open_loop(port, mix, rate, step, seed, f"ladder{index}", out)
        backlog = (rung["errors"] or not rung["completed"]
                   or rung["late_growth"] > LATE_GROWTH_LIMIT_S)
        p99s.append(limit + 1.0 if backlog else
                    math.log(max(rung["p99"], 1e-6)))
        weights.append(max(1, rung["completed"]))
    fitted = _monotone(p99s, weights)
    if fitted[0] > limit:
        return LADDER[0] * math.exp(limit - fitted[0])
    for i in range(1, len(fitted)):
        if fitted[i] > limit:
            share = (limit - fitted[i - 1]) / (fitted[i] - fitted[i - 1])
            return LADDER[i - 1] + (LADDER[i] - LADDER[i - 1]) * share
    return float(LADDER[-1])


def closed_loop(port, mix, seconds, out, checker, cursor) -> dict:
    """One connection sending its next request of ``mix`` (from index
    ``cursor``) as soon as the previous one completes, for ``seconds``.

    One request is in flight at a time, so the client and the worker
    serving it never outnumber the two CPUs the benchmark is sized for.
    """
    issued_at, done_at = array("d"), array("d")
    failures, errors = [], []
    began = time.perf_counter()
    end = began + seconds
    while time.perf_counter() < end:
        path, revalidates, key = mix[cursor % len(mix)]
        cursor += 1
        headers = checker.headers(path, revalidates, key)
        issued = time.perf_counter()
        try:
            status, etag, cache, body = _request(port, path, headers)
        except (OSError, http.client.HTTPException) as exc:
            errors.append(f"{path}: {type(exc).__name__}")
            continue
        issued_at.append(issued)
        done_at.append(time.perf_counter())
        problem = checker.check(path, headers, status, etag, body, cache)
        if problem is not None:
            failures.append(problem)
    ended = time.perf_counter()
    clock.calibrate()
    out.ops(len(issued_at) + len(errors), failures + errors)
    return {"latencies": clock.spans(issued_at, done_at),
            "wall": clock.span(began, ended), "next": cursor}


@contextlib.contextmanager
def _frozen_gc():
    """The generator's own garbage collections would be timed as the
    server's latency; nothing the client allocates is cyclic."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


class Http:
    """The browse mix against a pre-fork server over loopback."""

    setup_reps = 4

    def setup(self, seed, out):
        # Client and server share one CPU (the server inherits it): each
        # request's hand-offs are then context switches on that CPU, the
        # CPU the clock calibrates on, not wake-ups of an idle second
        # vCPU, whose cost is the hypervisor's and swings from run to run.
        self._cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._cpus)})
        workdir = scratch_dir("http-")
        started = time.perf_counter()
        server = Server(workdir)
        ready = server.wait_ready()
        interval = (started, time.perf_counter())
        if not out.op(ready, "server never became ready"):
            server.stop()
            os.sched_setaffinity(0, self._cpus)
            raise RuntimeError(
                "server never became ready:\n"
                + server.log_path.read_text(errors="replace")[-2000:])
        return {"server": server}, interval

    def _prepare(self, state, seed, out):
        """The request mix, and both workers' caches warmed."""
        if "mix" not in state:
            from repro.serve import create_app

            # The same URL population, in the same plan order, as the
            # in-process browse workload.
            app = create_app(watch=False)
            urls = [task.url for task in app.state.plan]
            app.close()
            state["mix"] = browse_mix(urls, seed, 50_000)
            # The kernel spreads connections over the workers, so each
            # URL is fetched several times.
            for path in (urls + list(API_PATHS)) * 4:
                status, etag, _cache, body = _request(
                    state["server"].port, path, {"X-Api-Key": API_KEYS[0]})
                out.op(status == 200 and etag == etag_of(body),
                       f"warm-up {path}: status {status}")
        return state["mix"]

    def measure(self, state, seed, seconds, out, tracer=None) -> dict:
        """One closed-loop connection replaying the mix.

        The run is cut into windows of about ``WINDOW_S``.  The rate is
        the median over windows, so a host stall that covers less than
        half of them does not move it; the percentiles pool every request.
        """
        mix = self._prepare(state, seed, out)
        checker = ConditionalClient()
        rates, latencies = [], array("d")
        requests = 0
        windows = max(1, round(seconds / WINDOW_S))
        with _frozen_gc():
            clock.calibrate()
            for _ in range(windows):
                run = closed_loop(state["server"].port, mix,
                                  seconds / windows, out, checker,
                                  state.get("next", 0))
                state["next"] = run["next"]
                rates.append(len(run["latencies"]) / run["wall"])
                latencies.extend(run["latencies"])
                requests += len(run["latencies"])
        return dict(requests=requests, revalidated=checker.revalidated,
                    hits=checker.hits, metrics={
            "req_per_s": median(rates),
            # A closed loop offers requests as fast as they complete, and
            # its p99 stays far below the 10 ms limit.
            "max_rate_rps": median(rates),
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p99_ms": percentile(latencies, 99) * 1e3,
        })

    def open_loop_report(self, state, seed, seconds, out) -> dict:
        """The open-loop view: latency from the due time at a fixed
        Poisson rate, the generator's lateness, and the rate ladder."""
        mix = self._prepare(state, seed, out)
        port = state["server"].port
        with _frozen_gc():
            fixed_s = seconds * FIXED_SHARE
            fixed = open_loop(port, mix, FIXED_RATE, fixed_s, seed, "fixed",
                              out)
            fixed["max_rate"] = max_rate(port, mix, seconds - fixed_s, seed,
                                         out)
        return fixed

    def close(self, state):
        state["server"].stop()
        os.sched_setaffinity(0, self._cpus)
