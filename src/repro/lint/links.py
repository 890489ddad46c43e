"""Internal link and anchor checking — the one implementation.

Extracts every *internal* reference (site-absolute ``/path/``, bare
``#fragment``, or scheme-less relative target) from activity Markdown and
validates it against the set of URLs the site actually renders plus the
heading anchors of the target page.  External http(s)/mailto links are
someone else's problem: :mod:`repro.sitegen.linkcheck` keeps the
injectable fetch path for those and delegates internal checks here, so
the two can never disagree about what a valid internal link is.

Line positions: the Markdown AST carries no source offsets, so each
extracted reference is located by scanning the body text for its raw
``](target)`` occurrence, left to right, so repeated targets resolve to
successive lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import SiteError
from repro.sitegen import markdown
from repro.sitegen.taxonomy import DEFAULT_TAXONOMIES, slugify


def _safe_slug(text: str) -> str:
    """`slugify` that degrades instead of raising on unsluggable input."""
    try:
        return slugify(text)
    except SiteError:
        return ""

__all__ = [
    "InternalRef",
    "extract_internal_refs",
    "heading_anchors",
    "site_urls",
    "check_internal_refs",
]

_EXTERNAL_SCHEMES = ("http://", "https://", "mailto:", "ftp://", "tel:")


@dataclass(frozen=True)
class InternalRef:
    """One internal reference found in a page body."""

    target: str                          # raw link target as written
    path: str                            # URL part ("" for bare #fragment)
    fragment: str                        # anchor part without '#'
    line: int                            # 1-based source line
    column: int                          # 1-based source column


def _is_internal(target: str) -> bool:
    if not target:
        return False
    lowered = target.lower()
    return not any(lowered.startswith(scheme) for scheme in _EXTERNAL_SCHEMES)


def _link_targets(tree: markdown.Document) -> list[str]:
    """Every link/image target in document order (AST walk)."""
    targets: list[str] = []

    def walk_inlines(inlines: list[markdown.Inline]) -> None:
        for node in inlines:
            if isinstance(node, markdown.Link):
                targets.append(node.url)
                walk_inlines(node.children)
            elif isinstance(node, markdown.Image):
                targets.append(node.url)
            elif isinstance(node, (markdown.Emphasis, markdown.Strong)):
                walk_inlines(node.children)

    def walk_blocks(blocks: list[markdown.Block]) -> None:
        for block in blocks:
            if isinstance(block, (markdown.Paragraph, markdown.Heading)):
                walk_inlines(block.children)
            elif isinstance(block, (markdown.BlockQuote, markdown.ListItem)):
                walk_blocks(block.children)
            elif isinstance(block, markdown.ListBlock):
                walk_blocks(list(block.items))
            elif isinstance(block, markdown.Table):
                for cell in block.header:
                    walk_inlines(cell)
                for row in block.rows:
                    for cell in row:
                        walk_inlines(cell)

    walk_blocks(tree.children)
    return targets


def extract_internal_refs(body: str, line_offset: int = 0,
                          tree: markdown.Document | None = None,
                          ) -> list[InternalRef]:
    """All internal references in ``body``, with source positions.

    ``line_offset`` is added to every reported line, so callers passing a
    body extracted from below a front-matter header (see
    :func:`repro.sitegen.frontmatter.split_document_with_lines`) get
    document-absolute lines.  ``tree`` is ``markdown.parse(body)`` when
    the caller already has it.
    """
    refs: list[InternalRef] = []
    lines = body.split("\n")
    # (line index, char index) scan cursor so duplicate targets resolve to
    # successive occurrences.
    cursor: dict[str, tuple[int, int]] = {}

    def locate(target: str) -> tuple[int, int]:
        needle = f"({target})"
        start_line, start_col = cursor.get(target, (0, 0))
        for idx in range(start_line, len(lines)):
            begin = start_col if idx == start_line else 0
            pos = lines[idx].find(needle, begin)
            if pos == -1:
                pos = lines[idx].find(target, begin)
            if pos != -1:
                cursor[target] = (idx, pos + 1)
                return idx + 1, pos + 2 if lines[idx][pos] == "(" else pos + 1
        return 1, 1

    if tree is None:
        tree = markdown.parse(body)
    for target in _link_targets(tree):
        if not _is_internal(target):
            continue
        path, _, fragment = target.partition("#")
        line, column = locate(target)
        refs.append(InternalRef(target=target, path=path, fragment=fragment,
                                line=line + line_offset, column=column))
    return refs


def heading_anchors(body: str, tree: markdown.Document | None = None,
                    ) -> frozenset[str]:
    """Slugs of every heading in ``body`` (the linkable ``#fragment`` set).

    ``tree`` is ``markdown.parse(body)`` when the caller already has it.
    """
    if tree is None:
        tree = markdown.parse(body)
    anchors: set[str] = set()
    for block in tree.children:
        if isinstance(block, markdown.Heading):
            text = "".join(c.to_text() for c in block.children)
            if text.strip():
                slug = _safe_slug(text)
                if slug:
                    anchors.add(slug)
    return anchors


def site_urls(docs: Iterable) -> frozenset[str]:
    """Every URL the site renders for this corpus.

    ``docs`` is an iterable of objects exposing ``url`` and
    ``terms_for(taxonomy)`` (the lint :class:`~repro.lint.document.DocumentInfo`
    shape).  Mirrors :meth:`repro.sitegen.site.Site.render_plan`: the home
    page, one page per activity, a listing per taxonomy, a page per used
    term, and the four browsing views.
    """
    urls: set[str] = {"/"}
    for view in ("cs2013", "tcpp", "courses", "accessibility"):
        urls.add(f"/views/{view}/")
    for config in DEFAULT_TAXONOMIES:
        urls.add(f"/{_safe_slug(config.name)}/")
    for doc in docs:
        urls.add(doc.url)
        for config in DEFAULT_TAXONOMIES:
            for term in doc.terms_for(config.name):
                term_slug = _safe_slug(str(term))
                if term_slug:
                    urls.add(f"/{_safe_slug(config.name)}/{term_slug}/")
    return frozenset(urls)


def check_internal_refs(
    docs: Iterable,
) -> list[tuple[object, InternalRef, str]]:
    """Validate every internal reference across a corpus.

    Returns ``(doc, ref, problem)`` triples; an empty list means every
    internal link resolves.  This is the single implementation both the
    lint rule and :meth:`repro.sitegen.linkcheck.LinkAuditor.audit_internal`
    report from.
    """
    docs = list(docs)
    urls = site_urls(docs)
    anchors_by_url: Mapping[str, frozenset[str]] = {
        doc.url: doc.anchors for doc in docs
    }
    problems: list[tuple[object, InternalRef, str]] = []
    for doc in docs:
        for ref in doc.internal_refs:
            if ref.path:
                if not ref.path.startswith("/"):
                    problems.append((doc, ref,
                                     f"relative link target {ref.target!r} "
                                     f"(use a site-absolute path)"))
                    continue
                normalized = ref.path if ref.path.endswith("/") \
                    else ref.path + "/"
                if normalized not in urls:
                    problems.append((doc, ref,
                                     f"broken internal link {ref.path!r}: "
                                     f"no such page"))
                    continue
                if ref.fragment:
                    page_anchors = anchors_by_url.get(normalized)
                    if (page_anchors is not None
                            and _safe_slug(ref.fragment) not in page_anchors):
                        problems.append((doc, ref,
                                         f"broken anchor #{ref.fragment} "
                                         f"on {normalized!r}"))
            elif ref.fragment:
                if _safe_slug(ref.fragment) not in doc.anchors:
                    problems.append((doc, ref,
                                     f"broken anchor #{ref.fragment}: no such "
                                     f"heading in this page"))
    return problems
