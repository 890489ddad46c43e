"""Property test: a long-lived lint engine reports what a fresh one does.

Random sequences of edits to a five-file corpus and a two-file code
directory — body and title edits (including duplicate titles), internal
links to existing and missing pages and anchors, heading renames, term
toggles that make terms orphan, file adds and deletes, code edits that
make and break a cross-file lock-order inversion, and inputs on which a
corpus-scope computation crashes — are linted by one engine that lives
through the whole sequence, at ``jobs=1`` and ``jobs=4``.  After every
step its JSON report (diagnostics and fixes) must equal a fresh serial
:class:`LintEngine`'s over the same files, so neither the per-file row
cache nor the corpus-scope memos can serve a stale verdict.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.lint.engine as engine_module
from repro.lint import LintConfig, LintEngine, forksafety, lockgraph
from repro.lint import rules_content, rules_site
from repro.lint.reporters import render_json

from tests.lint.conftest import GOOD

INITIAL = ("alpha", "beta", "gamma", "delta", "epsilon")
SPARE = ("zeta",)
NAMES = INITIAL + SPARE
#: Titles any page can take, so duplicates come and go; a "Crash <scope>"
#: title makes that corpus-scope computation raise.
TITLES = ("Shared Title", "Other Title", "Crash content", "Crash fixes",
          "Crash site")
HEADINGS = ("Variations", "Variants", "Extensions")
#: Link targets: existing and missing pages, live and dead anchors,
#: same-page fragments, and a relative link.
TARGETS = ("/activities/alpha/", "/activities/beta/#variations",
           "/activities/gamma/#extensions", "/activities/nosuch/",
           "#variants", "#assessment", "alpha/")
TERMS = ("touch", "sound")
#: Code variants per file; ``boss`` variant 0 closes a lock-order cycle.
WORKER = '''\
import threading


class Worker:
    def __init__(self, boss: "Boss | None" = None):
        self._lock = threading.Lock()
        self.boss = boss

    def poke(self):
        with self._lock:
            self.boss.report()
'''
BOSS_LOCKED = '''\
import threading


class Boss:
    def __init__(self):
        self._lock = threading.Lock()
        self.worker = Worker(self)

    def report(self):
        with self._lock:
            pass

    def drive(self):
        with self._lock:
            self.worker.poke()
'''
BOSS_UNLOCKED = BOSS_LOCKED.replace(
    "        with self._lock:\n            self.worker.poke()",
    "        self.worker.poke()")
BOSS_FORKING = "import multiprocessing\n" + BOSS_LOCKED.replace(
    "            self.worker.poke()",
    "            self.worker.poke()\n            multiprocessing.Pool(2)")
#: The last variant of each file makes a code-scope computation raise.
CODE = {"worker.py": (WORKER, WORKER.replace("self.boss.report()", "pass"),
                      WORKER.replace("self.boss = boss",
                                     "self.boss = boss\n        self._crash"
                                     " = threading.Lock()")),
        "boss.py": (BOSS_LOCKED, BOSS_UNLOCKED, BOSS_FORKING,
                    BOSS_LOCKED + "\n\nclass CrashFork:\n    pass\n")}


def _crash_title(scope):
    return lambda docs, *_a, **_k: any(
        doc.title == f"Crash {scope}" for doc in docs)


#: Corpus-scope computations, each with the inputs on which it raises.
#: A crash is a function of the inputs, as it would be for a real rule.
SCOPES = {
    "content": (rules_content, "run_corpus", _crash_title("content")),
    "fixes": (engine_module, "fixes_for_corpus", _crash_title("fixes")),
    "site": (rules_site, "run_site", _crash_title("site")),
    "locks": (lockgraph, "analyze_cross_class",
              lambda summaries: any(("_crash", "Lock") in s.locks
                                    for s in summaries)),
    "fork": (forksafety, "analyze_corpus",
             lambda summaries: any(s is not None and "CrashFork" in s.classes
                                   for s in summaries)),
}

ops = st.one_of(
    st.tuples(st.just("body"), st.sampled_from(NAMES), st.integers(0, 9)),
    st.tuples(st.just("title"), st.sampled_from(NAMES),
              st.sampled_from(TITLES)),
    st.tuples(st.just("link"), st.sampled_from(NAMES),
              st.sampled_from(TARGETS)),
    st.tuples(st.just("heading"), st.sampled_from(NAMES),
              st.sampled_from(HEADINGS)),
    st.tuples(st.just("term"), st.sampled_from(NAMES),
              st.sampled_from(TERMS)),
    st.tuples(st.just("add"), st.sampled_from(NAMES)),
    st.tuples(st.just("delete"), st.sampled_from(NAMES)),
    st.tuples(st.just("code"), st.sampled_from(sorted(CODE)),
              st.integers(0, 3)),
)


def original(name: str) -> dict:
    return {"title": name.capitalize(), "heading": "Variations",
            "link": None, "terms": (), "body": 0}


def render(page: dict) -> str:
    senses = ", ".join(f'"{t}"' for t in ("visual", *page["terms"]))
    accessibility = f"Readable aloud in full.\n\n### {page['heading']}\n\n"
    accessibility += f"Edit {page['body']}."
    if page["link"] is not None:
        accessibility += f" See [this]({page['link']})."
    return (GOOD.replace('title: "GoodActivity"', f'title: "{page["title"]}"')
            .replace('senses: ["visual"]', f"senses: [{senses}]")
            .replace("Readable aloud in full.", accessibility))


def edited(page: dict, op: tuple) -> dict:
    kind, _name, arg = op
    page = dict(page)
    if kind == "term":
        terms = set(page["terms"]) ^ {arg}
        page["terms"] = tuple(t for t in TERMS if t in terms)
    else:
        page[{"body": "body", "title": "title", "link": "link",
              "heading": "heading"}[kind]] = arg
    return page


class Tree:
    """The files on disk; every write gets a strictly later mtime."""

    def __init__(self, root: Path):
        self.content = root / "content"
        self.code = root / "code"
        self.content.mkdir()
        self.code.mkdir()
        self.clock = time.time_ns()

    def write(self, path: Path, text: str) -> None:
        path.write_text(text, encoding="utf-8")
        self.clock += 1_000_000
        os.utime(path, ns=(self.clock, self.clock))


def fresh_report(tree: Tree) -> str:
    return render_json(LintEngine(LintConfig(
        content_dir=tree.content, code_dir=tree.code)).lint())


@pytest.mark.parametrize("jobs", [1, 4])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(steps=st.lists(ops, min_size=1, max_size=10))
def test_long_lived_engine_equals_fresh_engine(jobs, steps):
    def crashable(scope, real, crashes):
        def run(*args, **kwargs):
            if crashes(*args, **kwargs):
                raise RuntimeError(f"injected {scope} crash")
            return real(*args, **kwargs)
        return run

    with tempfile.TemporaryDirectory() as root, \
            contextlib.ExitStack() as patches:
        for scope, (module, attr, crashes) in SCOPES.items():
            patches.enter_context(mock.patch.object(
                module, attr,
                crashable(scope, getattr(module, attr), crashes)))
        tree = Tree(Path(root))
        pages = {name: original(name) for name in INITIAL}
        for name, page in pages.items():
            tree.write(tree.content / f"{name}.md", render(page))
        for file, variants in CODE.items():
            tree.write(tree.code / file, variants[0])
        engine = LintEngine(LintConfig(content_dir=tree.content,
                                       code_dir=tree.code, jobs=jobs))
        assert render_json(engine.lint()) == fresh_report(tree)
        for op in steps:
            kind, name = op[0], op[1]
            if kind == "code":
                variants = CODE[name]
                tree.write(tree.code / name, variants[op[2] % len(variants)])
            elif kind == "delete":
                if pages.pop(name, None) is not None:
                    (tree.content / f"{name}.md").unlink()
            elif kind == "add" or name in pages:
                pages[name] = (pages.get(name, original(name)) if kind == "add"
                               else edited(pages[name], op))
                tree.write(tree.content / f"{name}.md", render(pages[name]))
            assert render_json(engine.lint()) == fresh_report(tree), op
