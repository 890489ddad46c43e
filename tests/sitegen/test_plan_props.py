"""Property test: a plan carried forward equals a fresh plan.

Random sequences of page edits — body and title edits, term toggles
(including terms no other page uses, so term pages appear and vanish),
page adds and deletes, theme and config switches — build one site
generation after another.  Unchanged pages are carried into the next
generation as the same objects, as the serving layer does.  For every
generation, ``render_plan(previous)`` must equal a fresh
``render_plan()`` of the same site in ``(rel_path, kind, signature)``
and in the bytes every task renders.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.activities.catalog import corpus_dir
from repro.sitegen.site import DEFAULT_THEME, Page, Site, SiteConfig
from repro.sitegen.taxonomy import DEFAULT_TAXONOMIES, TaxonomyConfig

INITIAL = ("findsmallestcard", "gardeners", "diningphilosophers",
           "laundrypipeline")
SPARE = ("concerttickets", "roadtripamdahl")
NAMES = INITIAL + SPARE
#: Titles that reorder the listings, including one that ties another
#: page's title case-insensitively (order then falls to page order).
TITLES = ("Aardvark Relay", "zebra crossing", "gardeners", "Middle Ground")
#: (taxonomy, term) toggles: shared terms, and terms no page starts with.
TERMS = (("medium", "cards"), ("medium", "origami"), ("senses", "touch"),
         ("senses", "smell"), ("courses", "CS0"), ("cs2013details", "PD_9"),
         ("tcppdetails", "C_Origami"))

THEMES = (
    DEFAULT_THEME,
    {**DEFAULT_THEME,
     "base": DEFAULT_THEME["base"].replace("<body>", "<body class='v2'>")},
    {k: v for k, v in DEFAULT_THEME.items() if k != "view"},
)
CONFIGS = (
    SiteConfig(),
    # Same title, base URL and theme: only the chips change.
    SiteConfig(taxonomies=tuple(
        TaxonomyConfig(c.name, c.plural, c.hidden,
                       "red" if c.name == "senses" else c.color)
        for c in DEFAULT_TAXONOMIES)),
    SiteConfig(taxonomies=tuple(
        TaxonomyConfig(c.name, c.plural, c.hidden or c.name == "courses",
                       c.color)
        for c in DEFAULT_TAXONOMIES)),
    SiteConfig(title="PDC Unplugged (mirror)"),
)

ops = st.one_of(
    st.tuples(st.just("body"), st.sampled_from(NAMES), st.integers(0, 99)),
    st.tuples(st.just("title"), st.sampled_from(NAMES),
              st.sampled_from(TITLES)),
    st.tuples(st.just("term"), st.sampled_from(NAMES), st.sampled_from(TERMS)),
    st.tuples(st.just("add"), st.sampled_from(NAMES)),
    st.tuples(st.just("delete"), st.sampled_from(NAMES)),
    st.tuples(st.just("theme"), st.integers(0, len(THEMES) - 1)),
    st.tuples(st.just("config"), st.integers(0, len(CONFIGS) - 1)),
)


def original(name: str) -> Page:
    text = (corpus_dir() / f"{name}.md").read_text(encoding="utf-8")
    return Page.from_text(name, text)


def edited(page: Page, op: tuple) -> Page:
    """A new page object: ``page`` with one edit applied."""
    kind = op[0]
    title, body, params = page.title, page.body, dict(page.params)
    if kind == "body":
        body += f"\nA note on pbtoken{op[2]}.\n"
    elif kind == "title":
        title = params["title"] = op[2]
    else:
        taxonomy, term = op[2]
        terms = list(params.get(taxonomy, []))
        params[taxonomy] = ([t for t in terms if t != term] if term in terms
                            else terms + [term])
    return Page(name=page.name, title=title, body=body, _params=params,
                section=page.section)


def make_site(pages: dict[str, Page], theme: int, config: int) -> Site:
    site = Site(CONFIGS[config], THEMES[theme])
    for name in sorted(pages):
        site.add_page(pages[name])
    return site


def plan_rows(plan) -> list[tuple[str, str, str]]:
    return [(t.rel_path, t.kind, t.signature) for t in plan]


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(ops, min_size=1, max_size=8))
def test_carried_plan_equals_fresh_plan(steps):
    pages = {name: original(name) for name in INITIAL}
    theme = config = 0
    previous = make_site(pages, theme, config)
    previous.render_plan()
    for op in steps:
        kind, arg = op[0], op[1]
        if kind == "theme":
            theme = arg
        elif kind == "config":
            config = arg
        elif kind == "add":
            pages.setdefault(arg, original(arg))
        elif kind == "delete":
            if len(pages) > 1:
                pages.pop(arg, None)
        elif arg in pages:
            pages[arg] = edited(pages[arg], op)

        site = make_site(pages, theme, config)
        plan = site.render_plan(previous)
        fresh = make_site(pages, theme, config).render_plan()
        assert plan_rows(plan) == plan_rows(fresh)
        assert [t.render() for t in plan] == [t.render() for t in fresh]
        previous = site
