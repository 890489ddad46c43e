"""Per-file parsing for the content pass.

:func:`load_document` parses one activity source file exactly once per
lint run and packages everything the rules need: the parsed
:class:`~repro.activities.schema.Activity` (or the parse failure), the
raw text and per-key source spans, plus the distilled
:class:`DocumentInfo` that corpus-scope rules (duplicate slugs/titles,
internal links) consume without re-reading the file.  ``DocumentInfo`` is
what the engine caches alongside the per-file diagnostics, so an
incremental re-lint still runs corpus rules over the *whole* corpus while
re-parsing only the changed file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.activities.schema import Activity
from repro.errors import ReproError
from repro.lint.diagnostics import Suppressions, markdown_suppressions
from repro.lint.links import InternalRef, extract_internal_refs, heading_anchors
from repro.sitegen import frontmatter, markdown
from repro.sitegen.taxonomy import slugify

__all__ = ["DocumentInfo", "ParsedDocument", "load_document"]

_TAXONOMY_KEYS = ("cs2013", "tcpp", "courses", "senses",
                  "cs2013details", "tcppdetails", "medium")


@dataclass(frozen=True)
class DocumentInfo:
    """What corpus-scope rules need to know about one document."""

    file: str                            # path as given to the engine
    name: str                            # slug stem
    slug: str                            # slugify(name) — collision domain
    title: str
    title_line: int
    url: str                             # /activities/<name>/
    anchors: frozenset[str]              # heading slugs linkable as #fragment
    internal_refs: tuple[InternalRef, ...]
    terms: tuple[tuple[str, tuple[str, ...]], ...]   # taxonomy -> terms
    parse_failed: bool = False

    def terms_for(self, taxonomy: str) -> tuple[str, ...]:
        for axis, values in self.terms:
            if axis == taxonomy:
                return values
        return ()


@dataclass
class ParsedDocument:
    """Everything the per-file content rules see for one source file."""

    file: str
    name: str
    text: str
    activity: Activity | None = None
    params: dict = field(default_factory=dict)
    key_spans: dict = field(default_factory=dict)
    parse_error: str | None = None
    parse_error_line: int = 0
    body_offset: int = 0
    info: DocumentInfo | None = None
    suppressions: Suppressions | None = None

    def key_line(self, key: str, default: int = 1) -> int:
        span = self.key_spans.get(key)
        return span.line if span is not None else default

    def key_column(self, key: str, default: int = 1) -> int:
        span = self.key_spans.get(key)
        return span.column if span is not None else default

    def item_line(self, key: str, index: int) -> int:
        """Source line of the ``index``-th list item under ``key``."""
        span = self.key_spans.get(key)
        if span is not None and index < len(span.item_lines):
            return span.item_lines[index]
        return self.key_line(key)


def load_document(file: str | Path, text: str | None = None) -> ParsedDocument:
    """Parse one activity source file for linting (never raises)."""
    path = Path(file)
    if text is None:
        text = path.read_text(encoding="utf-8")
    name = path.stem
    doc = ParsedDocument(file=str(file), name=name, text=text,
                         suppressions=markdown_suppressions(text))

    from repro.activities.parser import parse_activity

    body = ""
    try:
        block, body, block_offset, body_offset = (
            frontmatter.split_document_with_lines(text)
        )
        doc.body_offset = body_offset
        if block is not None:
            doc.params, doc.key_spans = frontmatter.parse_with_spans(
                block, line_offset=block_offset
            )
        activity = parse_activity(name, text)
        doc.activity = activity
    except ReproError as exc:
        doc.parse_error = str(exc)
        doc.parse_error_line = getattr(exc, "line", None) or 0

    title = doc.activity.title if doc.activity else str(
        doc.params.get("title", ""))
    tree = markdown.parse(body)
    doc.info = DocumentInfo(
        file=doc.file,
        name=name,
        slug=slugify(name),
        title=title,
        title_line=doc.key_line("title"),
        url=f"/activities/{name}/",
        anchors=heading_anchors(body, tree),
        internal_refs=tuple(
            extract_internal_refs(body, line_offset=doc.body_offset,
                                  tree=tree)
        ),
        terms=tuple(
            (key, tuple(getattr(doc.activity, key)) if doc.activity
             else tuple(_as_terms(doc.params.get(key))))
            for key in _TAXONOMY_KEYS
        ),
        parse_failed=doc.parse_error is not None,
    )
    return doc


def _as_terms(value: object) -> list[str]:
    if value is None:
        return []
    if isinstance(value, str):
        return [value] if value else []
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return []
