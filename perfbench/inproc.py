"""The in-process workloads: ``browse``, ``author`` and ``lab``.

Each drives the program only through ``create_app`` and ``call_app``
(``POST /api/sweeps`` included) with one closed-loop caller.  A workload
object has ``setup(seed) -> (state, (start, end))`` (the real interval a
user waits for), ``measure(state, seed, seconds, out, tracer=None) ->
dict`` and ``close(state)``.  ``measure`` returns its end-to-end metrics
under ``"metrics"`` plus the raw tallies the per-layer report needs, all
of them sums, counts or samples (so slices of one run add up); it may
run more than once on one state.  It records real start and end times,
calibrates the host-speed ``clock`` between operations and once at the
end, and reports every timing as ``clock.span`` of its interval.
"""

from __future__ import annotations

import json
import re
import time
from array import array

from common import (API_KEYS, API_PATHS, MAX_INFLIGHT, PARALLEL, TENANTS,
                    ConditionalClient, browse_mix, clock, copy_corpus,
                    etag_of, median, peak_rss_mb, percentile, rng_for,
                    scratch_dir, serve_app)
from repro.serve import call_app, create_app

#: Requests generated per browse stream; a run cycles through them.
MIX_LENGTH = 50_000
KEY = {"X-Api-Key": API_KEYS[0]}


def _json(response) -> dict:
    try:
        return json.loads(response.body)
    except ValueError:
        return {}


def _browse_loop(call, mix, seconds, out, tracer, client=None, start=0,
                 limit=None) -> dict:
    """Replay ``mix`` through ``call`` until ``seconds`` pass (or
    ``limit`` requests, without calibrating the clock); every response
    is checked.  Requests are returned as real ``issued``/``done`` times."""
    client = client or ConditionalClient()
    # Unboxed samples: the benchmark's own memory stays small next to the
    # program's, whatever the request rate.
    issued_at, done_at = array("d"), array("d")
    failures = []
    api_miss = []
    n = len(mix)
    index = start
    began = time.perf_counter()
    deadline = began + seconds
    while True:
        for _ in range(100 if limit is None else limit):
            path, revalidates, key = mix[index % n]
            index += 1
            sent = client.headers(path, revalidates, key)
            issued = time.perf_counter()
            response = call_app(call, path, headers=sent)
            done = time.perf_counter()
            issued_at.append(issued)
            done_at.append(done)
            headers = response.headers
            cache_status = headers.get("X-Cache")
            if tracer is not None and cache_status == "miss" \
                    and path.startswith("/api/"):
                api_miss.append(done - issued)
            problem = client.check(path, sent, response.status,
                                   headers.get("ETag"), response.body,
                                   cache_status)
            if problem is not None:
                failures.append(problem)
        if limit is not None or done >= deadline:
            break
        clock.maybe_calibrate()
    out.ops(len(issued_at), failures)
    return {"issued": issued_at, "done": done_at, "began": began,
            "ended": time.perf_counter(), "client": client,
            "peak_rss_mb": peak_rss_mb(),
            "next": index, "api_miss": api_miss}


# -- browse ----------------------------------------------------------------


class Browse:
    """Warm-cache reads: Zipf pages plus cacheable API, revalidating."""

    setup_reps = 15

    def setup(self, seed, out):
        started = time.perf_counter()
        app = create_app(tenants=TENANTS, max_inflight=MAX_INFLIGHT)
        call = serve_app(app)
        urls = [task.url for task in app.state.plan]
        for path in urls + list(API_PATHS):
            response = call_app(call, path, headers=KEY)
            out.op(response.status == 200
                   and response.headers.get("ETag") == etag_of(response.body),
                   f"warm-up {path}: status {response.status}")
        return {"app": app, "urls": urls}, (started, time.perf_counter())

    def measure(self, state, seed, seconds, out, tracer=None) -> dict:
        mix = browse_mix(state["urls"], seed, MIX_LENGTH)
        run = _browse_loop(serve_app(state["app"]), mix, seconds, out, tracer)
        clock.calibrate()
        return _read_summary(run)

    def close(self, state):
        state["app"].close()


#: Requests per slice of a browse run whose p99s are summarized.
P99_SLICE = 1000


def _sliced_p99(latencies) -> float:
    """The median of the p99s of consecutive ``P99_SLICE``-request
    slices (each has 10 samples beyond its p99): a host stall moves the
    slices it falls in, not the run's p99."""
    slices = [latencies[i:i + P99_SLICE]
              for i in range(0, len(latencies) - P99_SLICE + 1, P99_SLICE)]
    if not slices:
        return percentile(latencies, 99)
    return median([percentile(part, 99) for part in slices])


def _read_summary(run: dict) -> dict:
    latencies = clock.spans(run["issued"], run["done"])
    wall = clock.span(run["began"], run["ended"])
    count = len(latencies)
    rate = count / wall
    return {
        "metrics": {
            "req_per_s": rate,
            # One closed-loop caller offers requests as fast as they
            # complete, and its p99 stays far below the 10 ms limit.
            "max_rate_rps": rate,
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p99_ms": _sliced_p99(latencies) * 1e3,
            "peak_rss_mb": run["peak_rss_mb"],
        },
        "work": count,
        "wall": wall,
        "latencies": latencies,
        "requests": count,
        # Real seconds, like the tracer's spans: the layer budget.
        "latency_sum_s": sum(done - issued for issued, done
                             in zip(run["issued"], run["done"])),
        "revalidated": run["client"].revalidated,
        "hits": run["client"].hits,
        "api_miss": run["api_miss"],
    }


# -- author ----------------------------------------------------------------

EDIT_MARK = "\n\nBenchmark edit: "
#: Every fifth edit is a tag edit.
TAG_EDIT_EVERY = 5
READS_PER_EDIT = 20
_MEDIUM = re.compile(r"^medium: (\[.*\])$", re.MULTILINE)


class Editor:
    """Seeded edits to a private corpus copy.

    Every edit rewrites one activity's trailing benchmark line with a
    fresh search token.  Every fifth edit also adds or removes one
    ``medium`` term that other activities already use (so no term page
    appears or vanishes); the term list never drifts more than one term
    from the original.  Activities are edited in rounds, each a seeded
    shuffle of all of them: publish and lint times depend on which
    activity changed, so every run samples the corpus evenly.
    """

    def __init__(self, content, seed):
        self.rng = rng_for(seed, "author")
        self.seed = seed
        self.files = sorted(content.glob("*.md"))
        self.original = {}
        uses: dict[str, int] = {}
        for path in self.files:
            terms = json.loads(_MEDIUM.search(path.read_text()).group(1))
            self.original[path.stem] = terms
            for term in terms:
                uses[term] = uses.get(term, 0) + 1
        self.terms = sorted(uses)
        self.shared = {term for term, count in uses.items() if count >= 2}
        self.media = {slug: list(terms) for slug, terms in self.original.items()}
        self.step = 0
        self.round: list = []

    def next(self) -> dict:
        if not self.round:
            self.round = self.rng.sample(self.files, len(self.files))
        path = self.round.pop()
        slug = path.stem
        self.step += 1
        token = f"pbedit{self.seed}x{self.step}"
        media = list(self.media[slug])
        tag = None
        if self.step % TAG_EDIT_EVERY == 0:
            original = self.original[slug]
            if media != original:
                tag = next(t for t in set(media) ^ set(original))
                media = list(original)
            else:
                removable = [t for t in media if t in self.shared]
                if len(media) >= 2 and removable and self.rng.random() < 0.5:
                    tag = self.rng.choice(removable)
                    media.remove(tag)
                else:
                    tag = self.rng.choice(
                        [t for t in self.terms if t not in media])
                    media.append(tag)
        text = path.read_text().split(EDIT_MARK)[0].rstrip("\n")
        text = _MEDIUM.sub(lambda _m: "medium: " + json.dumps(media), text,
                           count=1)
        return {"path": path, "slug": slug, "token": token, "media": media,
                "tag": tag, "text": text + EDIT_MARK + token + ".\n"}

    def write(self, edit: dict) -> None:
        edit["path"].write_text(edit["text"])
        self.media[edit["slug"]] = edit["media"]


class Author:
    """Edit → publish → term page → search → lint, then browse reads."""

    setup_reps = 4

    def setup(self, seed, out):
        content = copy_corpus("author-")
        started = time.perf_counter()
        # Inline rebuilds: publish time is the rebuild work, not a
        # debounce timer.
        app = create_app(content_dir=content, watch_interval_s=0.0,
                         rebuild_mode="inline", tenants=TENANTS,
                         max_inflight=MAX_INFLIGHT)
        response = call_app(serve_app(app), "/api/lint", headers=KEY)
        setup_interval = (started, time.perf_counter())
        out.op(response.status == 200, f"cold /api/lint: {response.status}")
        urls = [task.url for task in app.state.plan]
        return {"app": app, "editor": Editor(content, seed),
                "mix": browse_mix(urls, seed, MIX_LENGTH, "author-reads"),
                "client": ConditionalClient(), "next": 0}, setup_interval

    def measure(self, state, seed, seconds, out, tracer=None) -> dict:
        call = serve_app(state["app"])
        editor = state["editor"]
        rng = rng_for(seed, "author-terms")
        # Real (start, end) times of each publish, lint and read.
        publish, lint, api_miss = [], [], []
        reads_issued, reads_done = array("d"), array("d")
        edits = tag_edits = requests = 0
        began = time.perf_counter()
        deadline = began + seconds
        # Whole rounds only: every activity is edited equally often.
        while time.perf_counter() < deadline or editor.round:
            # Every step: publish times are the tail metrics here.
            clock.calibrate()
            edit = editor.next()
            slug, token = edit["slug"], edit["token"].encode()
            edits += 1
            tag_edits += edit["tag"] is not None

            started = time.perf_counter()
            editor.write(edit)
            for _attempt in range(50):
                response = call_app(call, f"/activities/{slug}/",
                                    headers=KEY)
                requests += 1
                if response.status == 200 and token in response.body:
                    break
            publish.append((started, time.perf_counter()))
            out.op(response.status == 200 and token in response.body
                   and response.headers.get("ETag") == etag_of(response.body),
                   f"edit of {slug} never published")

            term = edit["tag"] or rng.choice(edit["media"])
            response = call_app(call, f"/medium/{term}/", headers=KEY)
            listed = f'/activities/{slug}/"'.encode() in response.body
            out.op(response.status == 200
                   and response.headers.get("ETag") == etag_of(response.body)
                   and listed == (term in edit["media"]),
                   f"/medium/{term}/ listing of {slug} is stale")

            issued = time.perf_counter()
            response = call_app(call, f"/api/search?q={edit['token']}",
                                headers=KEY)
            if response.headers.get("X-Cache") == "miss":
                api_miss.append(time.perf_counter() - issued)
            hits = [hit.get("name") for hit in _json(response).get("hits", [])]
            out.op(response.status == 200 and slug in hits
                   and response.headers.get("ETag") == etag_of(response.body),
                   f"search for {edit['token']} misses {slug}")

            issued = time.perf_counter()
            response = call_app(call, "/api/lint", headers=KEY)
            lint.append((issued, time.perf_counter()))
            counts = _json(response).get("counts", {})
            out.op(response.status == 200 and counts.get("error") == 0,
                   f"/api/lint after editing {slug}: {response.status} "
                   f"{counts}")
            requests += 3

            # The reads beside the writes (the latency metrics).
            run = _browse_loop(call, state["mix"], 0.0, out, tracer,
                               client=state["client"], start=state["next"],
                               limit=READS_PER_EDIT)
            state["next"] = run["next"]
            reads_issued.extend(run["issued"])
            reads_done.extend(run["done"])
            api_miss.extend(run["api_miss"])
            requests += len(run["issued"])
        ended = time.perf_counter()
        clock.calibrate()
        wall = clock.span(began, ended)
        publish = [clock.span(*interval) for interval in publish]
        lint = [clock.span(*interval) for interval in lint]
        reads = clock.spans(reads_issued, reads_done)
        rss = peak_rss_mb()
        return {
            "metrics": {
                "peak_rss_mb": rss,
                "publish_p50_ms": percentile(publish, 50) * 1e3,
                "publish_p90_ms": percentile(publish, 90) * 1e3,
                "lint_p50_ms": percentile(lint, 50) * 1e3,
                "latency_p50_ms": percentile(reads, 50) * 1e3,
                "latency_p99_ms": _sliced_p99(reads) * 1e3,
            },
            "work": requests,
            "wall": wall,
            "edits": edits,
            "tag_edits": tag_edits,
            "api_miss": api_miss,
        }

    def close(self, state):
        state["app"].close()


# -- lab -------------------------------------------------------------------

#: Sweep grid: slugs whose points cost ~3-30 ms each at these sizes, so
#: simulation time dominates pool overhead; every one accepts both sizes.
#: An odd number of slugs, each a job in turn: job times cluster by slug,
#: and with an odd count the median job is always the middle slug's,
#: never a flip between two clusters.
SWEEP_SLUGS = {
    "stableleaderelection": (16, 32),
    "topologyyarnweb": (16, 32),
    "selfstabilizingtokenring": (16, 32),
    "speedupjigsaw": (16, 32),
    "nondeterministicsorting": (8, 16),
}
SWEEP_ORDER = sorted(SWEEP_SLUGS)
SEEDS_PER_JOB = 8          # 2 sizes x 8 seeds = 16 points per job
#: ``/api/simulate`` parameters, drawn Zipf(1.1) so a known share repeat.
SIMULATE_SET = [(slug, n, s)
                for slug in ("findsmallestcard", "parallelradixsort",
                             "oddeventranspositionsort", "byzantinegenerals",
                             "paralleladditioncards", "diningphilosophers")
                for n in (8, 16) for s in (0, 1)]
WARMUP_SPEC = {"slugs": ["findsmallestcard"], "sizes": [4], "seeds": [0]}


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def _wait_job(call, job_id, between=None) -> dict:
    """Poll ``GET /api/sweeps/<id>`` until the job leaves queued/running.

    The caller pauses 1 ms between polls, as a polling client would: an
    in-process caller that never sleeps holds the interpreter lock the
    job's coordinator thread needs to hand points to the pool.
    """
    while True:
        if between is not None:
            between()
        time.sleep(0.001)
        progress = _json(call_app(call, f"/api/sweeps/{job_id}",
                                  headers=KEY))
        if progress.get("status") not in ("queued", "running"):
            return progress


class Lab:
    """Sweep jobs (half their points seen before) plus simulate calls."""

    setup_reps = 15

    def setup(self, seed, out):
        store = scratch_dir("lab-")
        started = time.perf_counter()
        app = create_app(cache_dir=store, sweep_workers=PARALLEL,
                         tenants=TENANTS, max_inflight=MAX_INFLIGHT)
        call = serve_app(app)
        # One tiny job starts the pool (the pool starts with a job's
        # first miss, and a user's first job waits for it).
        response = call_app(call, "/api/sweeps", method="POST", headers=KEY,
                            body=json.dumps(WARMUP_SPEC).encode())
        progress = (_wait_job(call, _json(response)["id"])
                    if response.status == 202 else {})
        setup_interval = (started, time.perf_counter())
        out.op(progress.get("status") == "done",
               f"warm-up sweep: {response.status} {progress}")
        return {"app": app, "seen": {}, "jobs": 0,
                "seeds": {slug: [] for slug in SWEEP_SLUGS},
                "bodies": {}, "rng": rng_for(seed, "lab")}, setup_interval

    def _next_spec(self, state) -> dict:
        # Slugs take turns.
        rng = state["rng"]
        slug = SWEEP_ORDER[state["jobs"] % len(SWEEP_ORDER)]
        state["jobs"] += 1
        used = state["seeds"][slug]
        repeat = rng.sample(used, min(len(used), SEEDS_PER_JOB // 2))
        fresh = list(range(len(used), len(used) + SEEDS_PER_JOB - len(repeat)))
        used.extend(fresh)
        return {"slugs": [slug], "sizes": list(SWEEP_SLUGS[slug]),
                "seeds": sorted(repeat + fresh)}

    def _simulate(self, call, state, rng, weights, latencies, out):
        slug, n, s = rng.choices(SIMULATE_SET, cum_weights=weights)[0]
        issued = time.perf_counter()
        response = call_app(call, f"/api/simulate/{slug}?n={n}&seed={s}",
                            headers=KEY)
        latencies.append((issued, time.perf_counter()))
        first = state["bodies"].setdefault((slug, n, s), response.body)
        repeated = first is not response.body
        out.op(response.status == 200
               and _json(response).get("all_checks_pass") is True
               and first == response.body,
               f"simulate {slug} n={n} seed={s}: {response.status}")
        return repeated

    def measure(self, state, seed, seconds, out, tracer=None) -> dict:
        app = state["app"]
        call = serve_app(app)
        rng = rng_for(seed, "lab-simulate")
        weights, total = [], 0.0
        for rank in range(1, len(SIMULATE_SET) + 1):
            total += 1.0 / rank ** 1.1
            weights.append(total)
        jobs, sims = [], []
        overhead_s = point_ms = 0.0
        executed = 0
        points = repeats = sim_repeats = 0
        seen = state["seen"]
        began = time.perf_counter()
        deadline = began + seconds

        def interleave():
            nonlocal sim_repeats
            sim_repeats += self._simulate(call, state, rng, weights, sims,
                                          out)

        # Whole rounds of slugs only, so every run has the same mix of
        # point costs.
        while (time.perf_counter() < deadline
               or state["jobs"] % len(SWEEP_ORDER)):
            # Between jobs the pool is idle: the loops time the host,
            # not the host shared with two busy workers.
            clock.calibrate(every_cpu=True)
            spec = self._next_spec(state)
            started = time.perf_counter()
            response = call_app(call, "/api/sweeps", method="POST",
                                headers=KEY, body=json.dumps(spec).encode())
            if not out.op(response.status == 202,
                          f"sweep submit: {response.status}"):
                continue
            job_id = _json(response)["id"]
            progress = _wait_job(call, job_id, interleave)
            finished = time.perf_counter()
            jobs.append((started, finished))
            records = _json(call_app(call, f"/api/sweeps/{job_id}/results",
                                     headers=KEY)).get("results", [])
            expected = len(spec["sizes"]) * len(spec["seeds"])
            problems = [] if (progress.get("status") == "done"
                              and progress.get("failed") == 0
                              and len(records) == expected) else [
                f"sweep {job_id}: {progress.get('status')}, "
                f"{progress.get('failed')} failed, {len(records)}/{expected}"]
            busy_ms = 0.0
            for record in records:
                text = _canonical(record)
                first = seen.setdefault(record["key"], text)
                if first is not text:
                    repeats += 1
                    if first != text:
                        problems.append(f"point {record['key']} changed "
                                        f"between runs")
                else:
                    busy_ms += record["elapsed_ms"]
                    executed += 1
                if record.get("status") != "ok" \
                        or not record.get("all_checks_pass"):
                    problems.append(f"point {record['key']}: "
                                    f"{record.get('error')}")
            out.op(not problems, "; ".join(problems[:3]))
            points += len(records)
            point_ms += busy_ms
            overhead_s += (finished - started
                           - busy_ms / 1e3 / app.sweeps.workers)
        ended = time.perf_counter()
        clock.calibrate(every_cpu=True)
        wall = clock.span(began, ended)
        jobs = [clock.span(*interval) for interval in jobs]
        sims = [clock.span(*interval) for interval in sims]
        return {
            "metrics": {
                "sweep_points_per_s": points / wall,
                "sweep_job_p50_s": median(jobs),
                "simulate_p50_ms": percentile(sims, 50) * 1e3,
            },
            "work": points,
            "wall": wall,
            "points": points,
            "repeat_points": repeats,
            "jobs": len(jobs),
            "overhead_sum_s": overhead_s,
            "points_executed": executed,
            "point_ms_sum": point_ms,
            "simulate_requests": len(sims),
            "simulate_repeats": sim_repeats,
            "pool_cold_starts": app.sweeps.stats()["pool_cold_starts"],
        }

    def close(self, state):
        state["app"].close()
