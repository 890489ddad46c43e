"""The activity catalog: loading, querying, and indexing the curated corpus.

:class:`Catalog` wraps a list of activities with the query operations the
website's views and the paper's analysis need: filter by taxonomy term,
intersect terms, group by term, and adapt into the sitegen
:class:`~repro.sitegen.taxonomy.TaxonomyIndex` / :class:`~repro.sitegen.site.Site`.

:func:`load_default_catalog` loads the 38-activity curated corpus shipped
as package data under ``repro/activities/content/``.  The load is memoized
on a cheap corpus fingerprint (per-file mtime/size), so the CLI, the
site views, the analytics, and the serving layer all share one parsed
corpus instead of re-parsing 38 Markdown files per construction; edits to
the content directory invalidate the cache automatically.

:func:`scan_content` is the one definition of "changed" in the repo:
one ``os.scandir`` pass mapping every ``*.md`` file name to its
``(mtime_ns, size)`` stamp.  The default-catalog memo, the serving
layer's rebuild check and the lint engine's content pass all call it.
:func:`load_sources` turns a scan into parsed :class:`Source` entries
(the :class:`Activity` and its site :class:`Page`), carrying forward
every entry of a previous load whose stamp did not change, so an
incremental rebuild parses only the files that were added or edited.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from repro.activities.parser import parse_activity, parse_activity_file
from repro.activities.schema import Activity, validate
from repro.errors import ActivityError, ValidationError
from repro.sitegen.site import Page, Site, SiteConfig
from repro.sitegen.taxonomy import TaxonomyIndex

__all__ = ["Catalog", "Source", "load_default_catalog", "load_sources",
           "corpus_dir", "clear_corpus_cache", "scan_content"]

#: ``name -> (mtime_ns, size)`` for every ``*.md`` file of a content dir.
Scan = dict[str, tuple[int, int]]


def scan_content(directory: str | Path) -> Scan:
    """Fingerprint a content tree: file name -> (mtime_ns, size).

    One ``os.scandir`` pass with one ``stat`` per matching entry.  It
    selects exactly what ``Path(directory).glob("*.md")`` selects: every
    entry whose name ends in ``.md`` (dotfiles and directories included,
    matched case-sensitively), and nothing when the directory is missing
    or unreadable.  Names come back sorted.
    """
    try:
        entries = os.scandir(directory)
    except OSError:
        return {}
    with entries:
        found = [(entry.name, entry.stat()) for entry in entries
                 if entry.name.endswith(".md")]
    found.sort(key=lambda item: item[0])
    return {name: (st.st_mtime_ns, st.st_size) for name, st in found}


def activity_page(activity: Activity) -> Page:
    """The site :class:`Page` of an activity (its canonical written form)."""
    from repro.activities.writer import write_activity

    return Page.from_text(activity.name, write_activity(activity))


@dataclass(frozen=True)
class Source:
    """One parsed content file: its scan stamp, activity and site page."""

    stamp: tuple[int, int]
    activity: Activity
    page: Page


def load_sources(directory: str | Path, scan: Scan | None = None,
                 previous: Mapping[str, Source] | None = None
                 ) -> dict[str, Source]:
    """Parse the files of ``scan`` (default: a fresh scan of ``directory``).

    An entry of ``previous`` whose stamp equals the scan's is carried
    forward as is; every other file is read and parsed.  A cold load is
    the same call with no ``previous``.  The returned dict holds exactly
    the scanned files, in scan (name) order.  Parse errors propagate, so
    a caller that keeps ``previous`` on failure retries the same files.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ActivityError(f"no such content directory: {directory}")
    if scan is None:
        scan = scan_content(directory)
    previous = previous or {}
    sources: dict[str, Source] = {}
    for name, stamp in scan.items():
        source = previous.get(name)
        if source is None or source.stamp != stamp:
            activity = parse_activity_file(directory / name)
            source = Source(stamp, activity, activity_page(activity))
        sources[name] = source
    return sources


class Catalog:
    """An ordered, queryable collection of activities."""

    def __init__(self, activities: Iterable[Activity] = ()):
        self._activities: list[Activity] = []
        self._by_name: dict[str, Activity] = {}
        # Site pages already derived from loaded sources (see site()).
        self._pages: dict[str, Page] = {}
        for activity in activities:
            self.add(activity)

    # -- construction --------------------------------------------------------

    def add(self, activity: Activity, page: Page | None = None) -> None:
        """Append an activity; ``page`` is its :func:`activity_page`, if known."""
        if activity.name in self._by_name:
            raise ActivityError(f"duplicate activity {activity.name!r}")
        self._activities.append(activity)
        self._by_name[activity.name] = activity
        if page is not None:
            self._pages[activity.name] = page

    @classmethod
    def from_directory(cls, directory: str | Path) -> "Catalog":
        return cls.from_sources(load_sources(directory).values())

    @classmethod
    def from_sources(cls, sources: Iterable[Source]) -> "Catalog":
        """A catalog over parsed sources, reusing their pages in :meth:`site`."""
        catalog = cls()
        for source in sources:
            catalog.add(source.activity, source.page)
        return catalog

    @classmethod
    def from_texts(cls, texts: dict[str, str]) -> "Catalog":
        catalog = cls()
        for name in sorted(texts):
            catalog.add(parse_activity(name, texts[name]))
        return catalog

    # -- basic access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._activities)

    def __iter__(self) -> Iterator[Activity]:
        return iter(self._activities)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def activities(self) -> list[Activity]:
        return list(self._activities)

    @property
    def names(self) -> list[str]:
        return [a.name for a in self._activities]

    def get(self, name: str) -> Activity:
        try:
            return self._by_name[name]
        except KeyError:
            raise ActivityError(f"no activity named {name!r}") from None

    # -- queries -----------------------------------------------------------------

    def with_term(self, taxonomy: str, term: str) -> list[Activity]:
        """Activities declaring ``term`` under ``taxonomy``."""
        return [a for a in self._activities if term in a.terms(taxonomy)]

    def with_all_terms(self, taxonomy: str, terms: Iterable[str]) -> list[Activity]:
        wanted = list(terms)
        return [
            a for a in self._activities
            if all(t in a.terms(taxonomy) for t in wanted)
        ]

    def where(self, predicate: Callable[[Activity], bool]) -> list[Activity]:
        return [a for a in self._activities if predicate(a)]

    def group_by_term(self, taxonomy: str) -> dict[str, list[Activity]]:
        groups: dict[str, list[Activity]] = {}
        for activity in self._activities:
            for term in activity.terms(taxonomy):
                groups.setdefault(term, []).append(activity)
        return groups

    def term_count(self, taxonomy: str, term: str) -> int:
        return len(self.with_term(taxonomy, term))

    # -- validation and adapters -------------------------------------------------

    def validate_all(self) -> None:
        """Validate every activity; aggregates all problems into one error."""
        problems: list[str] = []
        for activity in self._activities:
            try:
                validate(activity)
            except ValidationError as exc:
                problems.extend(exc.problems)
        if problems:
            raise ValidationError(problems)

    def taxonomy_index(self, strategy: str = "indexed") -> TaxonomyIndex:
        """Build the sitegen taxonomy index over all activities."""
        from repro.sitegen.taxonomy import DEFAULT_TAXONOMIES

        index = TaxonomyIndex(DEFAULT_TAXONOMIES, strategy=strategy)
        for activity in self._activities:
            index.add_page(_ActivityPage(activity))
        return index

    def site(self, config: SiteConfig | None = None) -> Site:
        """Build a renderable :class:`Site` whose pages are the activities."""
        site = Site(config)
        for activity in self._activities:
            page = self._pages.get(activity.name)
            site.add_page(page if page is not None else activity_page(activity))
        return site


class _ActivityPage:
    """Adapter presenting an Activity through the PageLike protocol."""

    __slots__ = ("activity",)

    def __init__(self, activity: Activity):
        self.activity = activity

    @property
    def name(self) -> str:
        return self.activity.name

    @property
    def title(self) -> str:
        return self.activity.title

    @property
    def url(self) -> str:
        return f"/activities/{self.activity.name}/"

    @property
    def params(self) -> dict[str, object]:
        return self.activity.params


def corpus_dir() -> Path:
    """Path of the packaged curated corpus directory."""
    return Path(resources.files("repro.activities") / "content")


# -- memoized default-corpus loading ----------------------------------------

_cache_lock = threading.Lock()
_cached_catalog: Catalog | None = None
_cached_fingerprint: Scan | None = None
_cached_validated: bool = False


def clear_corpus_cache() -> None:
    """Drop the memoized default catalog (tests and tooling)."""
    global _cached_catalog, _cached_fingerprint, _cached_validated
    with _cache_lock:
        _cached_catalog = None
        _cached_fingerprint = None
        _cached_validated = False


def load_default_catalog(validate_corpus: bool = True,
                         use_cache: bool = True) -> Catalog:
    """Load (and by default validate) the shipped 38-activity corpus.

    Memoized: repeat calls return the *same* :class:`Catalog` instance as
    long as the packaged content directory is unchanged (per-file
    mtime/size fingerprint).  Callers must treat the shared catalog as
    read-only; pass ``use_cache=False`` for a private mutable copy.
    Validation runs at most once per cached parse.
    """
    global _cached_catalog, _cached_fingerprint, _cached_validated
    if not use_cache:
        catalog = Catalog.from_directory(corpus_dir())
        if validate_corpus:
            catalog.validate_all()
        return catalog

    directory = corpus_dir()
    fingerprint = scan_content(directory)
    with _cache_lock:
        if _cached_catalog is None or _cached_fingerprint != fingerprint:
            _cached_catalog = Catalog.from_sources(
                load_sources(directory, fingerprint).values())
            _cached_fingerprint = fingerprint
            _cached_validated = False
        if validate_corpus and not _cached_validated:
            _cached_catalog.validate_all()
            _cached_validated = True
        return _cached_catalog
