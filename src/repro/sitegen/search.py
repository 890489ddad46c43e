"""Full-text search over the activity collection.

The repository exists so educators can "quickly find existing unplugged
activities to try out in their classes" (paper §I).  Beyond taxonomy
browsing, this module gives the site a search box: a small inverted index
with TF-IDF ranking over activity titles, section bodies, and tags.

Pure Python, deterministic, no dependencies; built once per catalog and
queried many times.  Tokenization lowercases, strips punctuation, and
drops a small stop list; title and tag hits are boosted.

The index is *patchable*: documents can be removed and re-added, and
:meth:`SearchIndex.patched_from_catalog` produces a new index from an old
one by re-tokenizing only a dirty subset — the serving layer's rebuild
path uses it so a one-file content edit patches one document's postings
instead of re-indexing the whole corpus.  Posting sets are immutable
``frozenset`` values that every write replaces rather than mutates, so
a patched index shares every posting set the edit did not touch with
the index it came from.  The old index is never mutated, so in-flight
queries against the previous generation stay consistent.

The index is also *persistable*: :meth:`SearchIndex.to_payload` /
:meth:`SearchIndex.from_payload` round-trip the per-document term counts
through plain JSON-able dicts (postings are derived data and rebuilt on
load), and :func:`catalog_signature` fingerprints exactly the inputs the
index is built from — the serving layer stores the payload under that
signature so a warm start can skip the cold tokenization pass, and any
content change invalidates the stored copy.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import SiteError

__all__ = ["SearchHit", "SearchIndex", "catalog_signature", "tokenize"]

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Minimal stop list -- enough to keep section boilerplate out of the index.
STOP_WORDS: frozenset[str] = frozenset(
    """a an and are as at be by for from has in into is it its of on or
    that the their this to with students student activity the""".split()
)

#: Field weights: a title hit outranks a body hit.
FIELD_WEIGHTS = {"title": 3.0, "tags": 2.0, "body": 1.0}


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens with stop words removed."""
    return [
        t for t in _TOKEN_RE.findall(text.lower())
        if t not in STOP_WORDS
    ]


@dataclass(frozen=True)
class SearchHit:
    """One ranked result."""

    name: str
    title: str
    score: float
    matched_terms: tuple[str, ...]


@dataclass
class _DocEntry:
    name: str
    title: str
    field_counts: dict[str, Counter] = field(default_factory=dict)
    length: int = 0


class SearchIndex:
    """A TF-IDF inverted index over documents with title/tags/body fields.

    Posting sets are ``frozenset`` values, replaced on write and never
    mutated, so indexes derived from one another share every posting set
    that differs in no document.
    """

    def __init__(self):
        self._docs: dict[str, _DocEntry] = {}
        self._postings: dict[str, frozenset[str]] = {}

    # -- construction -----------------------------------------------------------

    @staticmethod
    def _entry(name: str, title: str, body: str,
               tags: list[str] | None) -> _DocEntry:
        fields = {
            "title": Counter(tokenize(title)),
            "tags": Counter(
                t for tag in (tags or []) for t in tokenize(tag.replace("_", " "))
            ),
            "body": Counter(tokenize(body)),
        }
        return _DocEntry(
            name=name,
            title=title,
            field_counts=fields,
            length=sum(sum(c.values()) for c in fields.values()) or 1,
        )

    def _apply(self, removed: Iterable[_DocEntry] = (),
               added: Iterable[_DocEntry] = ()) -> None:
        """Drop ``removed`` and insert ``added``, re-posting touched tokens.

        Every write path goes through here.  Each token a changed document
        carries gets a new posting set; every other posting set is left as
        it is (and may be shared with the index this one was derived from).
        """
        touched: dict[str, set[str]] = {}
        postings = self._postings
        changes = ([(entry, False) for entry in removed]
                   + [(entry, True) for entry in added])
        for entry, adding in changes:
            name = entry.name
            if adding:
                if name in self._docs:
                    raise SiteError(f"duplicate document {name!r}")
                self._docs[name] = entry
            else:
                del self._docs[name]
            for counter in entry.field_counts.values():
                for token in counter:
                    members = touched.get(token)
                    if members is None:
                        members = touched[token] = set(postings.get(token, ()))
                    if adding:
                        members.add(name)
                    else:
                        members.discard(name)
        for token, members in touched.items():
            if members:
                postings[token] = frozenset(members)
            else:
                postings.pop(token, None)

    def add_document(self, name: str, title: str, body: str,
                     tags: list[str] | None = None) -> None:
        self._apply(added=[self._entry(name, title, body, tags)])

    def remove_document(self, name: str) -> bool:
        """Drop ``name`` and its postings; ``False`` when it was absent."""
        entry = self._docs.get(name)
        if entry is None:
            return False
        self._apply(removed=[entry])
        return True

    def update_document(self, name: str, title: str, body: str,
                        tags: list[str] | None = None) -> None:
        """Replace (or insert) one document's postings in place."""
        self.remove_document(name)
        self.add_document(name, title, body, tags)

    @classmethod
    def _activity_entry(cls, activity) -> _DocEntry:
        tags = (activity.cs2013 + activity.tcpp + activity.courses
                + activity.senses + activity.medium)
        body = "\n".join(activity.sections.values())
        return cls._entry(activity.name, activity.title, body, tags)

    def index_activity(self, activity) -> None:
        """Add one :class:`~repro.activities.schema.Activity` document."""
        self._apply(added=[self._activity_entry(activity)])

    @classmethod
    def from_catalog(cls, catalog) -> "SearchIndex":
        """Index a :class:`~repro.activities.catalog.Catalog`."""
        index = cls()
        index._apply(added=[cls._activity_entry(a) for a in catalog])
        return index

    def copy(self) -> "SearchIndex":
        """Independent copy: later writes to either never reach the other.

        Documents and posting sets are immutable once inserted, so the
        copy shares all of them and only the two dicts are new.
        """
        clone = type(self)()
        clone._docs = dict(self._docs)
        clone._postings = dict(self._postings)
        return clone

    def patched_from_catalog(self, catalog, dirty_names) -> "SearchIndex":
        """A new index for ``catalog``, re-tokenizing only ``dirty_names``.

        Every name in ``dirty_names`` is dropped from a copy of this index
        and re-added from the catalog when still present (covers edits,
        additions, and deletions in one pass).  The result is
        token-for-token identical to ``from_catalog(catalog)`` as long as
        ``dirty_names`` covers every changed document.  It shares every
        posting set the dirty documents do not touch; this index is never
        mutated.
        """
        index = self.copy()
        dirty = set(dirty_names)
        index._apply(
            removed=[self._docs[n] for n in dirty if n in self._docs],
            added=[self._activity_entry(catalog.get(n))
                   for n in dirty if n in catalog],
        )
        return index

    # -- persistence ------------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-able form of the index: per-document term counts only.

        Postings are derived data — :meth:`from_payload` rebuilds them —
        so the payload stays small and there is nothing in it that can
        disagree with itself.
        """
        return {
            "docs": [
                {
                    "name": entry.name,
                    "title": entry.title,
                    "length": entry.length,
                    "fields": {
                        fname: dict(counter)
                        for fname, counter in entry.field_counts.items()
                    },
                }
                for entry in (self._docs[n] for n in sorted(self._docs))
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SearchIndex":
        """Rebuild an index from :meth:`to_payload` output.

        Raises ``KeyError``/``TypeError``/:class:`~repro.errors.SiteError`
        on malformed payloads; callers loading from disk treat any of
        those as "start cold" rather than trusting partial data.
        """
        index = cls()
        index._apply(added=[
            _DocEntry(
                name=doc["name"],
                title=doc["title"],
                field_counts={
                    fname: Counter({str(t): int(n) for t, n in counts.items()})
                    for fname, counts in doc["fields"].items()
                },
                length=int(doc["length"]),
            )
            for doc in payload["docs"]
        ])
        return index

    # -- queries --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._docs)

    def _idf(self, token: str) -> float:
        df = len(self._postings.get(token, ()))
        if df == 0:
            return 0.0
        return math.log(1.0 + len(self._docs) / df)

    def search(self, query: str, limit: int = 10) -> list[SearchHit]:
        """Rank documents by weighted TF-IDF over the query tokens.

        Results are deterministic: score descending, name ascending.
        """
        tokens = tokenize(query)
        if not tokens:
            return []
        scores: dict[str, float] = {}
        matches: dict[str, set[str]] = {}
        for token in set(tokens):
            idf = self._idf(token)
            if idf == 0.0:
                continue
            for name in self._postings[token]:
                doc = self._docs[name]
                tf = sum(
                    FIELD_WEIGHTS[fname] * counter.get(token, 0)
                    for fname, counter in doc.field_counts.items()
                )
                if tf:
                    scores[name] = scores.get(name, 0.0) + (tf / doc.length) * idf
                    matches.setdefault(name, set()).add(token)
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            SearchHit(
                name=name,
                title=self._docs[name].title,
                score=score,
                matched_terms=tuple(sorted(matches[name])),
            )
            for name, score in ranked[:limit]
        ]

    def suggest(self, prefix: str, limit: int = 8) -> list[str]:
        """Indexed tokens starting with ``prefix`` (for the search box)."""
        prefix = prefix.lower()
        if not prefix:
            return []
        return sorted(t for t in self._postings if t.startswith(prefix))[:limit]


def catalog_signature(catalog) -> str:
    """Fingerprint exactly the inputs :meth:`SearchIndex.from_catalog` reads.

    A persisted index is only valid for the catalog it was built from;
    this hashes the same (name, title, tags, section bodies) tuple that
    :meth:`SearchIndex.index_activity` tokenizes, so the signature changes
    iff the index contents would.
    """
    digest = hashlib.sha256()
    for activity in catalog:
        tags = (activity.cs2013 + activity.tcpp + activity.courses
                + activity.senses + activity.medium)
        body = "\n".join(activity.sections.values())
        for piece in (activity.name, activity.title, "\x1f".join(tags), body):
            digest.update(piece.encode("utf-8"))
            digest.update(b"\x1e")
    return digest.hexdigest()[:20]
