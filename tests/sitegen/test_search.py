"""Full-text search tests over synthetic documents and the real corpus."""

from __future__ import annotations

import pytest

from repro.errors import SiteError
from repro.sitegen.search import SearchIndex, tokenize


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Parallel RADIX-Sort!") == ["parallel", "radix", "sort"]

    def test_stop_words_removed(self):
        assert tokenize("the cat and the hat") == ["cat", "hat"]

    def test_numbers_kept(self):
        assert "2013" in tokenize("CS2013 has 2013 in it")


class TestIndex:
    @pytest.fixture()
    def index(self):
        idx = SearchIndex()
        idx.add_document("sorting", "Card Sorting", "students sort decks of cards",
                         tags=["TCPP_Algorithms"])
        idx.add_document("racing", "Race Condition", "two robots race over sugar",
                         tags=["PD_CommunicationAndCoordination"])
        idx.add_document("cooking", "Recipe Plan", "cooks schedule dinner tasks",
                         tags=["CS1"])
        return idx

    def test_basic_match(self, index):
        hits = index.search("sugar robots")
        assert [h.name for h in hits] == ["racing"]
        assert set(hits[0].matched_terms) == {"sugar", "robots"}

    def test_title_boost(self, index):
        index.add_document("mention", "Other", "sorting mentioned once in passing")
        hits = index.search("sorting")
        assert hits[0].name == "sorting"      # title hit outranks body hit

    def test_tag_tokens_searchable(self, index):
        hits = index.search("algorithms")
        assert [h.name for h in hits] == ["sorting"]

    def test_no_match(self, index):
        assert index.search("quantum") == []
        assert index.search("") == []
        assert index.search("the and of") == []

    def test_limit(self, index):
        hits = index.search("students robots cooks cards", limit=2)
        assert len(hits) == 2

    def test_duplicate_rejected(self, index):
        with pytest.raises(SiteError):
            index.add_document("sorting", "Again", "x")

    def test_suggest(self, index):
        assert "sort" in index.suggest("so")
        assert index.suggest("") == []

    def test_deterministic_order(self, index):
        a = index.search("students cards robots")
        b = index.search("students cards robots")
        assert a == b


class TestCorpusSearch:
    @pytest.fixture(scope="class")
    def index(self):
        from repro.activities import load_default_catalog

        return SearchIndex.from_catalog(load_default_catalog())

    def test_indexes_all_38(self, index):
        assert len(index) == 38

    def test_find_by_title_word(self, index):
        hits = index.search("byzantine")
        assert hits[0].name == "byzantinegenerals"

    def test_find_by_concept(self, index):
        names = [h.name for h in index.search("race condition sugar")]
        assert "juicesweeteningrobots" in names[:3]

    def test_find_by_material(self, index):
        """The accessibility use case: 'teach parallelism with a deck of cards'."""
        names = [h.name for h in index.search("deck of cards", limit=10)]
        assert "findsmallestcard" in names or "parallelcardsort" in names

    def test_find_by_curriculum_tag(self, index):
        names = [h.name for h in index.search("cloud computing")]
        assert set(names) & {"byzantinegenerals", "concerttickets", "gardeners"}

    def test_amdahl_query(self, index):
        hits = index.search("amdahl plateau road")
        assert hits[0].name == "roadtripamdahl"


class TestIncrementalIndex:
    @pytest.fixture()
    def index(self):
        idx = SearchIndex()
        idx.add_document("sorting", "Card Sorting", "students sort decks of cards",
                         tags=["TCPP_Algorithms"])
        idx.add_document("racing", "Race Condition", "two robots race over sugar",
                         tags=["PD_CommunicationAndCoordination"])
        return idx

    def test_remove_document_drops_postings(self, index):
        assert index.remove_document("racing")
        assert len(index) == 1
        assert index.search("sugar robots") == []
        assert index.search("cards")            # unaffected doc still found

    def test_remove_missing_is_false(self, index):
        assert not index.remove_document("nope")

    def test_remove_keeps_shared_tokens(self, index):
        index.add_document("sorting2", "More Sorting", "sort sort sort")
        index.remove_document("sorting2")
        assert index.search("sorting")          # token survives for first doc

    def test_update_document_replaces_postings(self, index):
        index.update_document("racing", "Race Condition",
                              "now about bicycles", tags=[])
        assert index.search("sugar") == []
        hits = index.search("bicycles")
        assert [h.name for h in hits] == ["racing"]

    def test_update_can_insert_new(self, index):
        index.update_document("fresh", "Fresh Doc", "entirely new words")
        assert [h.name for h in index.search("entirely")] == ["fresh"]

    def test_copy_is_independent(self, index):
        clone = index.copy()
        clone.remove_document("racing")
        assert len(index) == 2 and len(clone) == 1
        assert index.search("sugar")            # original postings untouched


class TestPatchedFromCatalog:
    def _results(self, idx, queries=("cards", "deadlock", "parallel",
                                    "message", "sort")):
        return {
            q: [(h.name, round(h.score, 9), h.matched_terms)
                for h in idx.search(q, limit=50)]
            for q in queries
        }

    def test_patch_equals_full_rebuild_after_edit(self, tmp_path):
        import shutil

        from repro.activities.catalog import Catalog, corpus_dir

        content = tmp_path / "content"
        shutil.copytree(corpus_dir(), content)
        old_catalog = Catalog.from_directory(content)
        old_index = SearchIndex.from_catalog(old_catalog)

        page = content / "gardeners.md"
        page.write_text(page.read_text(encoding="utf-8")
                        + "\nNew flowerbed deadlock discussion.\n",
                        encoding="utf-8")
        (content / "findsmallestcard.md").unlink()

        new_catalog = Catalog.from_directory(content)
        patched = old_index.patched_from_catalog(
            new_catalog, {"gardeners", "findsmallestcard"})
        scratch = SearchIndex.from_catalog(new_catalog)

        assert len(patched) == len(scratch)
        assert self._results(patched) == self._results(scratch)
        assert [h.name for h in patched.search("flowerbed")] == ["gardeners"]

    def test_patch_handles_added_document(self, tmp_path):
        import shutil

        from repro.activities.catalog import Catalog, corpus_dir

        content = tmp_path / "content"
        shutil.copytree(corpus_dir(), content)
        old_index = SearchIndex.from_catalog(Catalog.from_directory(content))

        source = (content / "gardeners.md").read_text(encoding="utf-8")
        (content / "zzznew.md").write_text(
            source.replace("title: ", "title: Zzz ", 1), encoding="utf-8")
        new_catalog = Catalog.from_directory(content)
        patched = old_index.patched_from_catalog(new_catalog, {"zzznew"})
        scratch = SearchIndex.from_catalog(new_catalog)
        assert len(patched) == len(scratch)
        assert self._results(patched) == self._results(scratch)

    def test_patch_does_not_mutate_original(self, tmp_path):
        import shutil

        from repro.activities.catalog import Catalog, corpus_dir

        content = tmp_path / "content"
        shutil.copytree(corpus_dir(), content)
        catalog = Catalog.from_directory(content)
        index = SearchIndex.from_catalog(catalog)
        before = self._results(index)
        (content / "gardeners.md").unlink()
        index.patched_from_catalog(Catalog.from_directory(content),
                                   {"gardeners"})
        assert self._results(index) == before


class TestSharedPostings:
    """Posting sets are immutable and shared between derived indexes."""

    @staticmethod
    def _tokens(index, names) -> set[str]:
        return {token for name in names if name in index._docs
                for counter in index._docs[name].field_counts.values()
                for token in counter}

    def test_postings_are_frozen(self):
        index = SearchIndex()
        index.add_document("a", "Alpha", "shared words here")
        index.add_document("b", "Beta", "shared words there")
        assert all(isinstance(names, frozenset)
                   for names in index._postings.values())
        assert index._postings["shared"] == {"a", "b"}

    def test_copy_shares_postings_and_stays_independent(self):
        index = SearchIndex()
        index.add_document("a", "Alpha", "shared words here")
        clone = index.copy()
        assert clone._postings["shared"] is index._postings["shared"]
        clone.add_document("b", "Beta", "shared words there")
        clone.remove_document("a")
        assert index._postings["shared"] == {"a"}
        assert [h.name for h in index.search("here")] == ["a"]
        assert index.search("there") == []

    def test_random_patches_share_untouched_postings(self):
        import dataclasses
        import random

        from repro.activities.catalog import Catalog, load_default_catalog

        rng = random.Random(14)
        pool = {a.name: a for a in load_default_catalog()}
        live = dict(pool)
        index = SearchIndex.from_catalog(Catalog(live.values()))
        for step in range(100):
            dirty = set(rng.sample(sorted(pool), rng.randint(1, 3)))
            for name in sorted(dirty):
                roll = rng.random()
                if name not in live:
                    live[name] = pool[name]
                elif roll < 0.25:
                    del live[name]
                elif roll < 0.5:
                    live[name] = dataclasses.replace(
                        live[name], title=f"Retitled {step}")
                elif roll < 0.75:
                    live[name] = dataclasses.replace(
                        live[name], medium=live[name].medium + [f"m{step}"])
                else:
                    sections = dict(live[name].sections)
                    sections["extra"] = f"patch{step} words"
                    live[name] = dataclasses.replace(live[name],
                                                     sections=sections)
            catalog = Catalog(sorted(live.values(), key=lambda a: a.name))
            snapshot = dict(index._postings), dict(index._docs)
            patched = index.patched_from_catalog(catalog, dirty)

            # The previous index is untouched, down to object identity.
            assert index._postings == snapshot[0]
            assert all(index._postings[t] is names
                       for t, names in snapshot[0].items())
            assert index._docs == snapshot[1]
            # Every posting set no dirty document touches is shared.
            touched = self._tokens(index, dirty) | self._tokens(patched, dirty)
            for token, names in index._postings.items():
                if token not in touched:
                    assert patched._postings[token] is names, token
            # And the patch equals a full rebuild.
            fresh = SearchIndex.from_catalog(catalog)
            assert patched._postings == fresh._postings
            assert patched.to_payload() == fresh.to_payload()
            index = patched
