"""Catalog query and adapter tests."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.activities import Catalog, load_default_catalog
from repro.activities import catalog as catalog_mod
from repro.activities.catalog import corpus_dir, scan_content
from repro.errors import ActivityError


class TestLoading:
    def test_default_catalog_has_38(self, catalog):
        assert len(catalog) == 38

    def test_names_are_unique_slugs(self, catalog):
        assert len(set(catalog.names)) == 38
        for name in catalog.names:
            assert name == name.lower()

    def test_get_by_name(self, catalog):
        a = catalog.get("findsmallestcard")
        assert a.title == "FindSmallestCard"

    def test_get_unknown_raises(self, catalog):
        with pytest.raises(ActivityError, match="no activity"):
            catalog.get("ghost")

    def test_contains(self, catalog):
        assert "gardeners" in catalog
        assert "ghost" not in catalog

    def test_duplicate_rejected(self, catalog):
        c = Catalog(catalog.activities[:1])
        with pytest.raises(ActivityError, match="duplicate"):
            c.add(catalog.activities[0])

    def test_missing_directory_rejected(self):
        with pytest.raises(ActivityError, match="no such content directory"):
            Catalog.from_directory("/nonexistent")

    def test_load_without_validation_matches(self):
        assert len(load_default_catalog(validate_corpus=False)) == 38


class TestQueries:
    def test_with_term(self, catalog):
        names = [a.name for a in catalog.with_term("medium", "cards")]
        assert "findsmallestcard" in names
        assert len(names) == 6

    def test_with_all_terms(self, catalog):
        both = catalog.with_all_terms("senses", ["touch", "visual"])
        assert all(
            "touch" in a.senses and "visual" in a.senses for a in both
        )
        assert both  # FindSmallestCard at least

    def test_where_predicate(self, catalog):
        assessed = catalog.where(lambda a: a.has_assessment)
        assert len(assessed) >= 8

    def test_group_by_term_partitions(self, catalog):
        groups = catalog.group_by_term("courses")
        total = sum(len(v) for v in groups.values())
        assert total == sum(len(a.courses) for a in catalog)

    def test_term_count_matches_with_term(self, catalog):
        for term in ("CS1", "DSA"):
            assert catalog.term_count("courses", term) == len(
                catalog.with_term("courses", term)
            )


class TestAdapters:
    def test_taxonomy_index_consistent(self, catalog):
        index = catalog.taxonomy_index()
        index.check_invariants()
        assert len(index.pages) == 38

    def test_site_builds(self, catalog, tmp_path):
        site = catalog.site()
        stats = site.build(tmp_path / "out")
        # 1 home + 38 activities + taxonomy/term pages
        assert stats.pages_rendered == 39
        assert stats.terms_rendered > 50

    def test_site_renders_findsmallestcard_header(self, catalog):
        """The Fig. 3 rendering: chips for all four visible taxonomies."""
        site = catalog.site()
        html = site.render_page(site.page("findsmallestcard"))
        for term in ("PD_ParallelDecomposition", "PD_ParallelAlgorithms",
                     "TCPP_Algorithms", "TCPP_Programming",
                     "CS1", "CS2", "DSA", "touch", "visual"):
            assert term in html, term


class TestCorpusCache:
    """load_default_catalog is memoized on a corpus fingerprint."""

    def test_repeat_loads_share_one_instance(self):
        from repro.activities import clear_corpus_cache

        clear_corpus_cache()
        first = load_default_catalog()
        second = load_default_catalog()
        third = load_default_catalog(validate_corpus=False)
        assert first is second is third

    def test_use_cache_false_gives_private_copy(self):
        shared = load_default_catalog()
        private = load_default_catalog(use_cache=False)
        assert private is not shared
        assert private.names == shared.names

    def test_clear_forces_reparse(self):
        from repro.activities import clear_corpus_cache

        first = load_default_catalog()
        clear_corpus_cache()
        assert load_default_catalog() is not first

    def test_validation_runs_once_per_parse(self, monkeypatch):
        from repro.activities import catalog as catalog_mod

        catalog_mod.clear_corpus_cache()
        calls = []
        original = catalog_mod.Catalog.validate_all

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(catalog_mod.Catalog, "validate_all", counting)
        load_default_catalog()
        load_default_catalog()
        load_default_catalog()
        assert len(calls) == 1
        catalog_mod.clear_corpus_cache()


def glob_scan(directory) -> dict[str, tuple[int, int]]:
    """The ``glob("*.md")`` + two-``stat`` scan ``scan_content`` replaced."""
    return {
        path.name: (path.stat().st_mtime_ns, path.stat().st_size)
        for path in sorted(Path(directory).glob("*.md"))
    }


class TestScanContent:
    """``scan_content`` selects exactly what ``glob("*.md")`` selects."""

    def test_matches_glob_on_a_mixed_tree(self, tmp_path):
        for name in ("b.md", "a.md", ".x.md", "notes.txt", "UPPER.MD",
                     "a.md.bak", "mdfile"):
            (tmp_path / name).write_text(name)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "inner.md").write_text("nested")
        (tmp_path / "dir.md").mkdir()
        scan = scan_content(tmp_path)
        assert list(scan.items()) == list(glob_scan(tmp_path).items())
        assert list(scan) == [".x.md", "a.md", "b.md", "dir.md"]

    def test_matches_glob_on_the_corpus(self):
        scan = scan_content(corpus_dir())
        assert list(scan.items()) == list(glob_scan(corpus_dir()).items())
        assert len(scan) == 38

    def test_missing_directory_is_empty(self, tmp_path):
        assert scan_content(tmp_path / "gone") == {} == glob_scan(
            tmp_path / "gone")

    def test_one_scandir_pass_one_stat_per_file(self, tmp_path, monkeypatch):
        for name in ("a.md", "b.md", "c.txt"):
            (tmp_path / name).write_text(name)
        calls = {"scandir": 0, "stat": 0}
        real_scandir = os.scandir

        class CountingEntry:
            def __init__(self, entry):
                self.name = entry.name
                self._entry = entry

            def stat(self):
                calls["stat"] += 1
                return self._entry.stat()

        class CountingScandir:
            def __init__(self, path):
                calls["scandir"] += 1
                self._it = real_scandir(path)

            def __iter__(self):
                return (CountingEntry(entry) for entry in self._it)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._it.close()

        monkeypatch.setattr(catalog_mod.os, "scandir", CountingScandir)
        assert set(scan_content(tmp_path)) == {"a.md", "b.md"}
        assert calls == {"scandir": 1, "stat": 2}


class TestSourcePages:
    def test_source_pages_equal_written_round_trip(self):
        # A catalog built without sources derives each page on demand;
        # both routes give equal pages.
        loaded = Catalog.from_directory(corpus_dir())
        bare = Catalog(loaded.activities)
        for mine, theirs in zip(loaded.site().pages, bare.site().pages):
            assert mine == theirs
