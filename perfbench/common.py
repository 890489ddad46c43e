"""Shared pieces of the benchmark: metric names, run accounting, the
host-speed clock, the request mix, response checks, the span tracer and
the host fingerprint.

Everything here reads and writes only below the checkout the benchmark
runs from (the current directory); scratch files go to ``RUN_DIR``.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import itertools
import json
import os
import platform
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
CORPUS = SRC / "repro" / "activities" / "content"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch space for one run (corpus copies, stores, server logs).
RUN_DIR = ROOT / ".perfbench_run"

#: Client threads, sweep workers and server workers: ``nproc`` capped at 2.
PARALLEL = max(1, min(2, os.cpu_count() or 1))

#: Two API keys on the ``unlimited`` tier: admission runs on every
#: request but never refuses one.
API_KEYS = ("pb-k1", "pb-k2")
TENANTS = {"keys": {"pb-k1": {"tenant": "bench-1", "tier": "unlimited"},
                    "pb-k2": {"tenant": "bench-2", "tier": "unlimited"}}}
#: High enough that the shedder never refuses a single caller.
MAX_INFLIGHT = 64

#: The cacheable API population of the mix (the 7 paths the serving
#: layer's load generator uses), copied so the mix stays fixed.
API_PATHS = (
    "/api/activities",
    "/api/search?q=cards",
    "/api/search?q=parallel+sorting",
    "/api/search?q=deadlock",
    "/api/coverage/cs2013",
    "/api/coverage/tcpp",
    "/api/gaps",
)
ZIPF_EXPONENT = 1.1
API_SHARE = 0.2
REVALIDATE_SHARE = 0.7


def _manifest() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def declared_metrics(kind: str) -> dict[str, str]:
    """``{name: unit}`` for ``kind`` (``end_to_end`` or ``per_layer``)."""
    return {m["name"]: m["unit"] for m in _manifest()[kind]}


# -- statistics ----------------------------------------------------------


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100); 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def median(values) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


# -- the host-speed clock ------------------------------------------------

_WORDS = [f"w{i:04d}" for i in range(512)]
_SPLIT = re.compile(r"([a-z]+)(\d+)-(\d+)")


def _calibration_work(rounds: int) -> None:
    parts, table = [], {}
    for i in range(rounds):
        row = {"path": f"/activities/{_WORDS[i % 512]}/",
               "etag": f'"{i * 2654435761 & 0xFFFFFFFF:08x}"', "n": i,
               "word": _WORDS[(i * 7) % 512]}
        row = json.loads(json.dumps(row, sort_keys=True))
        match = _SPLIT.match(f"{row['word']}-{i}")
        table[row["path"]] = match.group(2)
        parts.append(" ".join(sorted(key.upper() for key in row))
                     + match.group(3))
    "\n".join(parts).encode()


def _calibration_loop() -> float:
    """Seconds one fixed piece of stdlib-only interpreter work takes:
    JSON, string formatting, regex, dict and sort, the kinds of work the
    program's requests are made of.  It calls no program code, so no
    change to the program moves it.  A short untimed pass first brings
    its code and data back into the CPU caches, and the garbage
    collector is off while it runs (a collection of the program's heap
    would be timed, not the host)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _calibration_work(50)
        started = time.perf_counter()
        _calibration_work(300)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Seconds at a reference host speed.

    On the shared 2-vCPU VM the benchmark was built on, each vCPU changes
    speed in phases of a second or so: a fixed loop of interpreter work
    takes anywhere from 2.2 to 4.5 ms, and the mix of phases drifts over
    minutes.  Two runs of the same code therefore disagree by more than
    any useful bound unless their times are put on one scale.

    ``calibrate`` times ``_calibration_loop`` and records when it ran.
    The benchmark calibrates between its own operations (never while one
    is in flight), a few times a second, and records real start and end
    times.  ``span`` then converts a real interval into the time it
    would take on a host where the loop takes ``REFERENCE_S``: between
    two calibrations the host's speed is taken as the mean of the two,
    and the loops themselves do not count.  Call ``calibrate`` once more
    after the last interval before converting it.
    """

    #: The loop's time on the reference host (about its median on that
    #: VM, a 2.1 GHz Xeon).
    REFERENCE_S = 0.003
    #: Real seconds between calibrations in ``maybe_calibrate``.
    INTERVAL_S = 0.1

    def __init__(self):
        self._starts = array("d")       # real time each loop began
        self._ends = array("d")         # ... and ended
        self._rates = array("d")        # REFERENCE_S / its time
        self.calibrate()

    def calibrate(self, every_cpu: bool = False) -> None:
        """Time the loop on this thread's CPU or, with ``every_cpu``
        (for work spread over processes on all CPUs), on each CPU in turn,
        taking the mean: each vCPU changes speed on its own."""
        started = time.perf_counter()
        if every_cpu:
            cpus = os.sched_getaffinity(0)
            loops = []
            try:
                for cpu in sorted(cpus):
                    os.sched_setaffinity(0, {cpu})
                    loops.append(_calibration_loop())
            finally:
                os.sched_setaffinity(0, cpus)
            loop = mean(loops)
        else:
            loop = _calibration_loop()
        self._starts.append(started)
        self._ends.append(time.perf_counter())
        self._rates.append(self.REFERENCE_S / loop)
        self._due = self._ends[-1] + self.INTERVAL_S

    def maybe_calibrate(self) -> None:
        """Calibrate if ``INTERVAL_S`` passed since the last time."""
        if time.perf_counter() >= self._due:
            self.calibrate()

    def _rate(self, index: int) -> float:
        """The rate between loop ``index - 1`` and loop ``index``."""
        if index == 0:
            return self._rates[0]
        if index >= len(self._rates):
            return self._rates[-1]
        return (self._rates[index - 1] + self._rates[index]) / 2

    def span(self, start: float, end: float) -> float:
        """Reference seconds for the real interval ``[start, end]``."""
        total, at = 0.0, start
        index = bisect.bisect_right(self._ends, start)
        while True:
            last = index >= len(self._starts) or self._starts[index] >= end
            stop = end if last else self._starts[index]
            if stop > at:
                total += (stop - at) * self._rate(index)
            if last:
                return total
            at = max(at, self._ends[index])
            index += 1

    def spans(self, starts, ends) -> array:
        return array("d", map(self.span, starts, ends))


clock = HostClock()


# -- run accounting ------------------------------------------------------


class Outcome:
    """Operations attempted and failed in one run.

    An operation is one request, edit or job; it fails when any check on
    it fails.  The first few failure messages are kept for the report.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._lock = threading.Lock()

    def op(self, ok: bool, message: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.messages) < 10:
                    self.messages.append(message)
        return ok

    def ops(self, attempted: int, failures: list[str]) -> None:
        """Account ``attempted`` operations of which ``failures`` failed."""
        with self._lock:
            self.attempted += attempted
            self.failed += len(failures)
            room = 10 - len(self.messages)
            self.messages.extend(failures[:max(0, room)])

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


# -- inputs --------------------------------------------------------------


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent seeded stream per workload part."""
    return random.Random(f"{seed}:{stream}")


def browse_mix(urls: list[str], seed: int, n: int,
               stream: str = "browse") -> list[tuple[str, bool, str]]:
    """``n`` seeded ``(path, revalidates, api_key)`` requests.

    Pages are Zipf(1.1) over ``urls`` in plan order (home page first),
    20% of requests go to the cacheable API, and 70% of requests come
    from clients that revalidate with ``If-None-Match``.
    """
    rng = rng_for(seed, stream)
    cum = list(itertools.accumulate(
        1.0 / rank ** ZIPF_EXPONENT for rank in range(1, len(urls) + 1)))
    out = []
    for _ in range(n):
        if rng.random() < API_SHARE:
            path = rng.choice(API_PATHS)
        else:
            path = rng.choices(urls, cum_weights=cum)[0]
        out.append((path, rng.random() < REVALIDATE_SHARE,
                    rng.choice(API_KEYS)))
    return out


# -- response checks -----------------------------------------------------


def etag_of(body: bytes) -> str:
    """The strong ETag a correct server sends for ``body``."""
    return '"' + hashlib.sha256(body).hexdigest()[:24] + '"'


class ConditionalClient:
    """One revalidating client's ETag memory plus the response checks.

    Every status must be 200 or 304; a 200 body must hash to its ETag;
    a 304 must answer an ``If-None-Match`` with the same ETag.
    """

    def __init__(self):
        self.etags: dict[str, str] = {}
        self._verified: dict[str, bytes] = {}
        self.revalidated = 0
        self.hits = 0

    def headers(self, path: str, revalidates: bool, key: str) -> dict:
        headers = {"X-Api-Key": key}
        if revalidates and path in self.etags:
            headers["If-None-Match"] = self.etags[path]
        return headers

    def check(self, path: str, sent: dict, status: int, etag: str | None,
              body: bytes, cache_status: str | None) -> str | None:
        """``None`` when the response is correct, else why not."""
        if cache_status == "hit":
            self.hits += 1
        if status == 304:
            self.revalidated += 1
            if sent.get("If-None-Match") != etag:
                return f"{path}: 304 without a matching If-None-Match"
            return None
        if status != 200:
            return f"{path}: status {status}"
        if etag is None:
            return f"{path}: 200 without an ETag"
        # A cache hit hands back the very bytes object verified before;
        # anything else is hashed.
        if self._verified.get(etag) is not body:
            if etag_of(body) != etag:
                return f"{path}: body does not hash to its ETag {etag}"
            self._verified[etag] = body
        self.etags[path] = etag
        return None


def serve_app(app):
    """The WSGI callable the in-process workloads call (a test seam)."""
    return app


# -- tracing -------------------------------------------------------------


class Tracer:
    """Spans around calls into the program's public functions.

    ``wrap`` replaces a class attribute with a timing wrapper; ``restore``
    puts every original back.  Spans are in real seconds.  Each span
    name accumulates a count, the total time and the self time (total
    minus the time of spans nested inside it on the same thread).
    """

    def __init__(self):
        self.stats: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._undo: list[tuple[type, str, object]] = []
        self._lock = threading.Lock()

    def add(self, name: str, by: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + by

    def wrap(self, owner: type, attr: str, name, on_result=None) -> None:
        """Time ``owner.attr``; ``name`` may be a function of the result."""
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            stack.append(0.0)
            started = time.perf_counter()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - started
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                label = name(result) if callable(name) else name
                with tracer._lock:
                    row = tracer.stats.setdefault(label, [0, 0.0, 0.0])
                    row[0] += 1
                    row[1] += elapsed
                    row[2] += elapsed - child
                if on_result is not None:
                    on_result(result)

        self._undo.append((owner, attr, raw))
        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def mean(self, name: str, column: int = 2, scale: float = 1.0) -> float:
        row = self.stats.get(name)
        return row[column] / row[0] * scale if row and row[0] else 0.0

    def table(self) -> str:
        lines = [f"{'span':<22}{'count':>9}{'total_ms':>12}{'self_ms':>12}"]
        for label, (count, total, own) in sorted(self.stats.items()):
            lines.append(f"{label:<22}{count:>9}{total * 1e3:>12.2f}"
                         f"{own * 1e3:>12.2f}")
        return "\n".join(lines)


# -- host and process ----------------------------------------------------


def host_fingerprint() -> dict:
    commit = None
    try:
        # The ceiling keeps git from searching above the checkout.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass        # the benchmark checkout need not be a git repository
    return {"nproc": os.cpu_count(), "parallel": PARALLEL,
            "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit}


def peak_rss_mb(children: bool = False) -> float:
    """Peak RSS of this process, or of the largest reaped descendant."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def scratch_dir(prefix: str) -> Path:
    RUN_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=RUN_DIR))


def copy_corpus(prefix: str) -> Path:
    """A private copy of the activity corpus that edits may change."""
    target = scratch_dir(prefix) / "content"
    shutil.copytree(CORPUS, target)
    return target


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
