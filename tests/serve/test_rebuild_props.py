"""Property test: an incremental refresh equals a fresh build of the tree.

Random sequences of body edits, title edits, ``medium`` tag edits, adds,
deletes and unparseable edits run against a small corpus copy.  One of
the ``medium`` terms is used by no file, so its term page appears and
vanishes.  After every refresh
the live generation must equal ``ServerState.from_content_dir`` of the
same tree — signatures, corpus signature, search hits and every rendered
body — and the generation it replaced must be unchanged.

Each write gets a fresh, strictly increasing mtime: change detection is
defined on the ``(mtime_ns, size)`` stamp, and two saves inside one
tick of the filesystem's timestamp clock with the same size are the
same stamp for every scan, incremental or not.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import shutil
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.activities.catalog import corpus_dir
from repro.serve.rebuild import RebuildManager, ServerState

#: The starting corpus, and the files an ``add`` may bring in later.
INITIAL = ("findsmallestcard", "gardeners", "diningphilosophers",
           "parallelradixsort", "laundrypipeline")
SPARE = ("concerttickets", "roadtripamdahl")
NAMES = INITIAL + SPARE
#: ``origami`` is a medium no corpus file uses.
MEDIA = ("analogy", "cards", "food", "roleplay", "paper", "board", "origami")
#: Titles that reorder the listings; one ties another title
#: case-insensitively.
TITLES = ("Aardvark Relay", "zebra crossing", "gardeners", "Middle Ground")
FIXED_QUERIES = ("cards", "parallel", "sort", "analogy", "philosophers")
BROKEN = "---\nbroken: [\n"
_MEDIUM = re.compile(r"^medium: (\[.*\])$", re.MULTILINE)
_TITLE = re.compile(r"^title: .*$", re.MULTILINE)

ops = st.one_of(
    st.tuples(st.just("body"), st.sampled_from(NAMES),
              st.integers(0, 10**6)),
    st.tuples(st.just("title"), st.sampled_from(NAMES),
              st.sampled_from(TITLES)),
    st.tuples(st.just("medium"), st.sampled_from(NAMES),
              st.sampled_from(MEDIA)),
    st.tuples(st.just("add"), st.sampled_from(NAMES)),
    st.tuples(st.just("delete"), st.sampled_from(NAMES)),
    st.tuples(st.just("break"), st.sampled_from(NAMES)),
)


def toggle_medium(text: str, term: str) -> str:
    def swap(match):
        media = json.loads(match.group(1))
        media = ([t for t in media if t != term] if term in media
                 else media + [term])
        return "medium: " + json.dumps(media)

    return _MEDIUM.sub(swap, text, count=1)


def snapshot(state: ServerState, queries) -> tuple:
    hits = {
        q: [(h.name, h.title, round(h.score, 9), h.matched_terms)
            for h in state.search.search(q, limit=50)]
        for q in queries
    }
    bodies = {task.url: task.render() for task in state.plan}
    return state.signatures, state.corpus_signature, hits, bodies


class Tree:
    """The corpus copy plus a model of which files are good or broken."""

    def __init__(self, root):
        self.root = root
        self.good: dict[str, str] = {}      # name -> last parseable text
        self.broken: set[str] = set()
        self.tokens: list[str] = []
        self._mtime = itertools.count(time.time_ns(), 1_000_000)
        root.mkdir()
        for name in INITIAL:
            self._write(name, self._original(name))

    @staticmethod
    def _original(name: str) -> str:
        return (corpus_dir() / f"{name}.md").read_text(encoding="utf-8")

    def _write(self, name: str, text: str, good: bool = True) -> None:
        path = self.root / f"{name}.md"
        path.write_text(text, encoding="utf-8")
        stamp = next(self._mtime)
        os.utime(path, ns=(stamp, stamp))
        if good:
            self.good[name] = text
            self.broken.discard(name)
        else:
            self.broken.add(name)

    def apply(self, op: tuple) -> None:
        kind, name = op[0], op[1]
        present = name in self.good
        if kind == "add" and not present:
            self._write(name, self._original(name))
        elif kind == "delete" and present:
            (self.root / f"{name}.md").unlink()
            del self.good[name]
            self.broken.discard(name)
        elif kind == "body" and present:
            token = f"pbtoken{op[2]}x{len(self.tokens)}"
            self.tokens.append(token)
            self._write(name, self.good[name] + f"\nA note on {token}.\n")
        elif kind == "title" and present:
            self._write(name, _TITLE.sub(f"title: {json.dumps(op[2])}",
                                         self.good[name], count=1))
        elif kind == "medium" and present:
            self._write(name, toggle_medium(self.good[name], op[2]))
        elif kind == "break" and present:
            self._write(name, BROKEN, good=False)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(ops, min_size=1, max_size=6))
def test_incremental_generation_equals_fresh_build(tmp_path_factory, steps):
    tree = Tree(tmp_path_factory.mktemp("props") / "content")
    try:
        manager = RebuildManager(tree.root, min_interval_s=0.0)
        for op in steps:
            tree.apply(op)
            queries = FIXED_QUERIES + tuple(tree.tokens)
            previous = manager.state
            before = snapshot(previous, queries)
            result = manager.refresh()
            assert snapshot(previous, queries) == before
            if tree.broken:
                assert result is not None and not result.ok
                assert manager.state is previous
                with pytest.raises(Exception):
                    ServerState.from_content_dir(tree.root)
                continue
            assert result is None or result.ok
            fresh = ServerState.from_content_dir(tree.root)
            assert snapshot(manager.state, queries) == snapshot(fresh, queries)
    finally:
        shutil.rmtree(tree.root.parent, ignore_errors=True)
