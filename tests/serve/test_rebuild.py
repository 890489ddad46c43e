"""Incremental rebuild tests: signature diffs, cache eviction, resilience."""

from __future__ import annotations

import os
import shutil
from collections import Counter

import pytest

from repro.activities.catalog import corpus_dir
from repro.serve import ServeApp, create_app
from repro.serve.loadgen import call_app
from repro.serve.rebuild import RebuildManager, ServerState, scan_content


@pytest.fixture()
def content(tmp_path):
    """A private editable copy of the corpus."""
    dst = tmp_path / "content"
    shutil.copytree(corpus_dir(), dst)
    return dst


def touch_append(path, text):
    path.write_text(path.read_text(encoding="utf-8") + text, encoding="utf-8")
    # mtime granularity can swallow fast successive edits; force it forward.
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))


class TestScanContent:
    def test_fingerprint_tracks_edits(self, content):
        before = scan_content(content)
        touch_append(content / "gardeners.md", "\nExtra.\n")
        after = scan_content(content)
        assert before != after
        assert set(before) == set(after)
        changed = {k for k in before if before[k] != after[k]}
        assert changed == {"gardeners.md"}


class TestRebuildManager:
    def test_no_change_is_noop(self, content):
        manager = RebuildManager(content, min_interval_s=0.0)
        assert manager.refresh() is None

    def test_body_edit_dirties_only_that_page(self, content):
        manager = RebuildManager(content, min_interval_s=0.0)
        touch_append(content / "gardeners.md", "\nAn extra teaching note.\n")
        result = manager.refresh()
        assert result is not None and result.ok
        assert result.changed_sources == ["gardeners.md"]
        assert result.dirty_urls == ["/activities/gardeners/"]

    def test_membership_edit_dirties_term_pages(self, content):
        manager = RebuildManager(content, min_interval_s=0.0)
        path = content / "findsmallestcard.md"
        text = path.read_text(encoding="utf-8")
        # Drop the activity's "touch" sense: its page AND the senses term
        # listings change membership.
        assert '"touch"' in text
        path.write_text(text.replace('"touch", ', "", 1), encoding="utf-8")
        result = manager.refresh()
        assert result is not None and result.ok
        assert "/activities/findsmallestcard/" in result.dirty_urls
        assert "/senses/touch/" in result.dirty_urls
        # Untouched pages stay clean.
        assert "/activities/diningphilosophers/" not in result.dirty_urls

    def test_deleted_page_is_dirty(self, content):
        manager = RebuildManager(content, min_interval_s=0.0)
        (content / "gardeners.md").unlink()
        result = manager.refresh()
        assert result is not None and result.ok
        assert "/activities/gardeners/" in result.dirty_urls
        assert "/" in result.dirty_urls              # home listing changed
        assert "gardeners" not in manager.state.catalog

    def test_broken_edit_keeps_old_generation(self, content):
        manager = RebuildManager(content, min_interval_s=0.0)
        old_state = manager.state
        (content / "gardeners.md").write_text("---\nbroken: [\n")
        result = manager.refresh()
        assert result is not None and not result.ok
        assert manager.state is old_state
        assert manager.last_error is not None
        # Fixing the file recovers on the next refresh.
        shutil.copy(corpus_dir() / "gardeners.md", content / "gardeners.md")
        fixed = manager.refresh()
        assert fixed is not None and fixed.ok
        assert manager.last_error is None

    def test_throttle(self, content):
        now = [0.0]
        manager = RebuildManager(content, min_interval_s=10.0,
                                 clock=lambda: now[0])
        touch_append(content / "gardeners.md", "\nExtra.\n")
        assert manager.maybe_refresh() is None       # within interval
        now[0] = 11.0
        assert manager.maybe_refresh() is not None


class TestIncrementalStaticBuild:
    """The acceptance-criterion path: BuildStats proves minimal re-rendering."""

    def test_one_edit_rerenders_one_page(self, content, tmp_path):
        manager = RebuildManager(content, min_interval_s=0.0)
        out = tmp_path / "site"
        full = manager.state.site.build(out)
        assert full.total_files == 170
        assert not full.incremental

        touch_append(content / "gardeners.md", "\nAn extra teaching note.\n")
        assert manager.refresh().ok
        stats = manager.state.site.build(out, incremental=True)
        assert stats.incremental
        assert stats.pages_rendered == 1             # just gardeners
        assert stats.terms_rendered == 0
        assert stats.total_skipped == 169

    def test_membership_edit_rerenders_affected_terms(self, content, tmp_path):
        manager = RebuildManager(content, min_interval_s=0.0)
        out = tmp_path / "site"
        manager.state.site.build(out)

        path = content / "findsmallestcard.md"
        text = path.read_text(encoding="utf-8")
        assert '"touch"' in text
        path.write_text(text.replace('"touch", ', "", 1), encoding="utf-8")
        assert manager.refresh().ok
        stats = manager.state.site.build(out, incremental=True)
        assert stats.pages_rendered == 1             # the edited page
        assert 1 <= stats.terms_rendered < 15        # its term/view pages only
        assert stats.total_skipped > 150


class TestAppIntegration:
    def test_edit_invalidates_only_dirty_urls(self, content):
        app = create_app(content_dir=content, watch=True, watch_interval_s=0.0)
        assert isinstance(app, ServeApp)
        first = call_app(app, "/activities/gardeners/")
        call_app(app, "/activities/diningphilosophers/")
        call_app(app, "/activities/diningphilosophers/")  # now cached+hit

        touch_append(content / "gardeners.md", "\nAn extra teaching note.\n")
        edited = call_app(app, "/activities/gardeners/")
        assert edited.headers["X-Cache"] == "miss"       # evicted and re-rendered
        assert edited.etag != first.etag
        untouched = call_app(app, "/activities/diningphilosophers/")
        assert untouched.headers["X-Cache"] == "hit"     # survived the rebuild

    def test_stale_etag_no_longer_revalidates(self, content):
        app = create_app(content_dir=content, watch=True, watch_interval_s=0.0)
        first = call_app(app, "/activities/gardeners/")
        touch_append(content / "gardeners.md", "\nMore.\n")
        response = call_app(app, "/activities/gardeners/",
                            headers={"If-None-Match": first.etag})
        assert response.status == 200                    # content changed
        assert response.etag != first.etag


class TestIncrementalSearchPatch:
    def test_refresh_patches_instead_of_rebuilding(self, content):
        manager = RebuildManager(content, min_interval_s=0.0)
        old_index = manager.state.search
        touch_append(content / "gardeners.md",
                     "\nA sentence about xylophones.\n")
        result = manager.refresh()
        assert result is not None and result.ok
        assert result.search_patched == 1
        assert manager.state.search is not old_index

    def test_patched_index_matches_fresh_index(self, content):
        from repro.sitegen.search import SearchIndex

        manager = RebuildManager(content, min_interval_s=0.0)
        touch_append(content / "gardeners.md",
                     "\nA sentence about xylophones.\n")
        manager.refresh()

        patched = manager.state.search
        scratch = SearchIndex.from_catalog(manager.state.catalog)
        assert len(patched) == len(scratch)
        for query in ("xylophones", "cards", "parallel", "sort"):
            assert (
                [(h.name, round(h.score, 9)) for h in patched.search(query)]
                == [(h.name, round(h.score, 9)) for h in scratch.search(query)]
            ), query

    def test_old_generation_index_not_mutated(self, content):
        manager = RebuildManager(content, min_interval_s=0.0)
        old_index = manager.state.search
        assert old_index.search("xylophones") == []
        touch_append(content / "gardeners.md",
                     "\nA sentence about xylophones.\n")
        manager.refresh()
        assert old_index.search("xylophones") == []      # copy-on-patch
        assert manager.state.search.search("xylophones")

    def test_removed_source_leaves_search(self, content):
        manager = RebuildManager(content, min_interval_s=0.0)
        (content / "gardeners.md").unlink()
        result = manager.refresh()
        assert result is not None and result.ok
        assert result.search_patched == 1
        names = {h.name for h in manager.state.search.search("gardeners")}
        assert "gardeners" not in names     # other docs may cite the word

    def test_search_api_reflects_patch(self, content):
        app = create_app(content_dir=content, watch=True,
                         watch_interval_s=0.0)
        touch_append(content / "gardeners.md",
                     "\nA sentence about xylophones.\n")
        response = call_app(app, "/api/search?q=xylophones")
        assert response.status == 200
        import json as _json

        payload = _json.loads(response.body)
        assert [h["name"] for h in payload["hits"]] == ["gardeners"]


@pytest.fixture()
def parse_log(monkeypatch):
    """File names parsed by ``load_sources`` from now on, in order."""
    from repro.activities import catalog as catalog_mod

    parsed: list[str] = []
    real = catalog_mod.parse_activity_file

    def counting(path):
        parsed.append(os.path.basename(path))
        return real(path)

    monkeypatch.setattr(catalog_mod, "parse_activity_file", counting)
    return parsed


class TestSourceReuse:
    """A refresh parses only changed files and reuses everything else."""

    def test_cold_build_parses_every_file(self, content, parse_log):
        RebuildManager(content, min_interval_s=0.0)
        assert sorted(parse_log) == sorted(scan_content(content))

    def test_one_file_edit_parses_one_and_reuses_37(self, content, parse_log):
        manager = RebuildManager(content, min_interval_s=0.0)
        old = manager.state
        parse_log.clear()
        touch_append(content / "gardeners.md", "\nAn extra teaching note.\n")
        assert manager.refresh().ok
        assert parse_log == ["gardeners.md"]
        new = manager.state
        reused = [name for name in old.catalog.names
                  if new.catalog.get(name) is old.catalog.get(name)
                  and new.site.page(name) is old.site.page(name)]
        assert len(reused) == 37 and "gardeners" not in reused
        assert new.catalog.get("gardeners") is not old.catalog.get("gardeners")

    def test_broken_edit_is_reparsed_and_a_fix_heals(self, content, parse_log):
        manager = RebuildManager(content, min_interval_s=0.0)
        good = manager.state
        path = content / "gardeners.md"
        original = path.read_text(encoding="utf-8")
        path.write_text("---\nbroken: [\n", encoding="utf-8")
        parse_log.clear()
        assert not manager.refresh().ok
        assert not manager.refresh().ok      # the next check retries
        assert parse_log == ["gardeners.md", "gardeners.md"]
        assert manager.state is good
        path.write_text(original + "\nHealed.\n", encoding="utf-8")
        healed = manager.refresh()
        assert healed is not None and healed.ok
        assert manager.last_error is None
        assert "Healed." in manager.state.site.page("gardeners").body
        assert manager.refresh() is None

    def test_reuse_map_holds_only_the_live_generation(self, content):
        manager = RebuildManager(content, min_interval_s=0.0)
        names = sorted(scan_content(content))
        parked = {}
        for step in range(100):
            name = names[(step * 7) % len(names)]
            path = content / name
            if step % 10 == 3:           # delete; restored when next drawn
                parked[name] = path.read_text(encoding="utf-8")
                path.unlink()
            elif name in parked:
                path.write_text(parked.pop(name), encoding="utf-8")
            else:
                touch_append(path, f"\nEdit {step}.\n")
            assert manager.refresh().ok
        live = manager.state.catalog
        sources = manager._sources
        assert list(sources) == list(scan_content(content))
        assert len(sources) == len(live)
        for source in sources.values():
            assert live.get(source.activity.name) is source.activity
            assert manager.state.site.page(source.activity.name) is source.page


class TestPlanReuse:
    """A refresh hashes only the tasks its edit can change."""

    KINDS = {"home", "page", "taxonomy", "term", "view"}

    @pytest.fixture()
    def hashed(self, monkeypatch):
        """``(kind, subject)`` of every task signature hashed."""
        import repro.sitegen.site as site_mod

        log = []
        real = site_mod._hash

        def logged(*parts):
            if parts[1] in self.KINDS:
                log.append(parts[1:3])
            return real(*parts)

        monkeypatch.setattr(site_mod, "_hash", logged)
        return log

    @pytest.fixture()
    def views_built(self, monkeypatch):
        import repro.sitegen.views as views_mod

        log = []
        real = views_mod._groups_for

        def logged(index, taxonomy):
            log.append(taxonomy)
            return real(index, taxonomy)

        monkeypatch.setattr(views_mod, "_groups_for", logged)
        return log

    def test_body_edit_hashes_one_page_and_no_listing(self, content, hashed,
                                                      views_built):
        manager = RebuildManager(content, min_interval_s=0.0)
        hashed.clear()
        views_built.clear()
        touch_append(content / "gardeners.md", "\nAn extra teaching note.\n")
        result = manager.refresh()
        assert result.ok and result.dirty_urls == ["/activities/gardeners/"]
        assert hashed == [("page", "Gardeners")]
        assert views_built == []            # no view is built at plan time
        body = manager.state.plan_by_url["/views/courses/"].render()
        assert views_built and "Gardeners" in body

    def test_title_edit_rehashes_the_listings(self, content, hashed):
        manager = RebuildManager(content, min_interval_s=0.0)
        hashed.clear()
        path = content / "gardeners.md"
        path.write_text(path.read_text(encoding="utf-8").replace(
            'title: "Gardeners"', 'title: "Allotment Gardeners"', 1),
            encoding="utf-8")
        assert manager.refresh().ok
        kinds = Counter(kind for kind, _subject in hashed)
        assert kinds["page"] == 1 and kinds["home"] == 1
        assert kinds["taxonomy"] == 7 and kinds["view"] == 4
        assert kinds["term"] == sum(
            1 for task in manager.state.plan if task.kind == "term")
        fresh = ServerState.from_content_dir(content)
        assert manager.state.signatures == fresh.signatures

    def test_changed_config_hashes_everything(self, content, hashed):
        from repro.sitegen.site import SiteConfig

        manager = RebuildManager(content, min_interval_s=0.0)
        hashed.clear()
        state = ServerState(manager.state.catalog,
                            SiteConfig(title="Mirror"), previous=manager.state)
        assert len(hashed) == len(state.plan)

    def test_previous_generation_is_released(self, content):
        import gc
        import weakref

        manager = RebuildManager(content, min_interval_s=0.0)
        old = weakref.ref(manager.state)
        old_site = weakref.ref(manager.state.site)
        touch_append(content / "gardeners.md", "\nAn extra teaching note.\n")
        assert manager.refresh().ok
        gc.collect()
        assert old() is None and old_site() is None
