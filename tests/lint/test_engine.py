"""Engine behavior: incrementality, parallel determinism, report config."""

from __future__ import annotations

import importlib
import os

import pytest

import repro.lint.engine as engine_module
from repro.lint import LintConfig, LintEngine, Severity
from repro.lint.reporters import render_json, render_text
from repro.sitegen import markdown

from tests.lint.conftest import GOOD, only


def _engine(corpus, **kwargs):
    kwargs.setdefault("site", False)
    kwargs.setdefault("code", False)
    return LintEngine(LintConfig(content_dir=corpus, **kwargs))


def _touch(path, text=None):
    """Rewrite a file so its fingerprint (mtime_ns, size) changes."""
    new = text if text is not None else path.read_text() + "\n"
    path.write_text(new, encoding="utf-8")
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))


def test_first_run_analyzes_everything(write_corpus):
    corpus = write_corpus(one=GOOD, two=GOOD.replace("GoodActivity", "Other"))
    result = _engine(corpus).lint()
    assert result.stats.files_total == 2
    assert result.stats.files_analyzed == 2
    assert result.stats.files_cached == 0


def test_unchanged_rerun_is_fully_cached(write_corpus):
    corpus = write_corpus(one=GOOD, two=GOOD.replace("GoodActivity", "Other"))
    engine = _engine(corpus)
    engine.lint()
    result = engine.lint()
    assert result.stats.files_analyzed == 0
    assert result.stats.files_cached == 2


def test_incremental_relint_reanalyzes_only_the_edited_file(write_corpus):
    names = {f"act{i}": GOOD.replace("GoodActivity", f"Title{i}")
             for i in range(5)}
    corpus = write_corpus(**names)
    engine = _engine(corpus)
    engine.lint()
    _touch(corpus / "act3.md")
    result = engine.lint()
    assert result.stats.files_analyzed == 1
    assert result.stats.files_cached == 4


def test_cached_rerun_reports_identical_diagnostics(write_corpus):
    bad = GOOD.replace('courses: ["CS1"]', 'courses: ["CS9"]')
    corpus = write_corpus(good=bad)
    engine = _engine(corpus)
    first = engine.lint()
    second = engine.lint()
    assert second.stats.files_analyzed == 0
    assert second.diagnostics == first.diagnostics


def test_corpus_rules_rerun_over_cached_files(write_corpus):
    """A new file can create a corpus-level defect in an unchanged one."""
    corpus = write_corpus(one=GOOD)
    engine = _engine(corpus)
    assert engine.lint().diagnostics == []
    (corpus / "two.md").write_text(GOOD, encoding="utf-8")   # same title
    result = engine.lint()
    assert result.stats.files_analyzed == 1          # only the new file
    assert len(only(result, "duplicate-title")) == 1


def test_parallel_output_is_byte_identical_to_serial(write_corpus):
    files = {f"act{i}": GOOD.replace('courses: ["CS1"]', 'courses: ["CS9"]')
                            .replace("GoodActivity", f"Title{i}")
             for i in range(12)}
    corpus = write_corpus(**files)
    serial = _engine(corpus, jobs=1).lint()
    parallel = _engine(corpus, jobs=8).lint()
    assert render_text(serial) == render_text(parallel)
    assert [d.to_dict() for d in serial.diagnostics] == \
           [d.to_dict() for d in parallel.diagnostics]


def test_severity_override_applies_at_report_time(write_corpus):
    bad = GOOD.replace('courses: ["CS1"]', 'courses: ["CS9"]')
    corpus = write_corpus(good=bad)
    engine = _engine(corpus)
    assert engine.lint().count(Severity.ERROR) == 1
    demoted = _engine(
        corpus,
        severity_overrides={"taxonomy-unknown-term": Severity.INFO})
    result = demoted.lint()
    assert result.count(Severity.ERROR) == 0
    assert result.count(Severity.INFO) == 1
    assert result.exit_code(Severity.ERROR) == 0


def test_disabled_rule_is_dropped(write_corpus):
    bad = GOOD.replace('courses: ["CS1"]', 'courses: ["CS9"]')
    corpus = write_corpus(good=bad)
    result = _engine(corpus,
                     disabled=frozenset({"taxonomy-unknown-term"})).lint()
    assert result.diagnostics == []


def test_severity_config_does_not_invalidate_cache(write_corpus):
    bad = GOOD.replace('courses: ["CS1"]', 'courses: ["CS9"]')
    corpus = write_corpus(good=bad)
    engine = _engine(corpus)
    engine.lint()
    # Same cache, new report config: the engine stores raw diagnostics,
    # so flipping severities must not re-analyze anything.
    engine.config.severity_overrides = {
        "taxonomy-unknown-term": Severity.WARNING}
    result = engine.lint()
    assert result.stats.files_analyzed == 0
    assert result.diagnostics[0].severity is Severity.WARNING


def test_unknown_rule_rejected():
    with pytest.raises(ValueError, match="no-such-rule"):
        LintEngine(LintConfig(content_dir=".",
                              disabled=frozenset({"no-such-rule"})))


def test_exit_code_thresholds(write_corpus):
    bad = GOOD.replace('courses: ["CS1"]', 'courses: ["k12"]')  # warning
    corpus = write_corpus(good=bad)
    result = _engine(corpus).lint()
    assert result.exit_code(Severity.ERROR) == 0
    assert result.exit_code(Severity.WARNING) == 1
    assert result.exit_code(Severity.INFO) == 1


def test_shipped_corpus_lints_clean():
    from repro.activities.catalog import corpus_dir

    result = LintEngine(LintConfig(content_dir=corpus_dir(), jobs=4)).lint()
    assert result.diagnostics == []


# -- corpus-scope memo ------------------------------------------------------

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

#: ``drive`` calls into Worker under Boss's lock: a cross-file inversion.
BOSS = '''\
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

ANCHORED = GOOD.replace("Readable aloud in full.",
                        "Readable aloud in full.\n\n### Variations\n\nNone.")
LINKING = GOOD.replace("GoodActivity", "Linking").replace(
    "Readable aloud in full.",
    "See [the variations](/activities/one/#variations).").replace(
    'senses: ["visual"]', 'senses: ["sound"]')

CORPUS_SCOPES = (
    ("repro.lint.lockgraph", "analyze_cross_class"),
    ("repro.lint.forksafety", "analyze_corpus"),
    ("repro.lint.rules_content", "run_corpus"),
    ("repro.lint.engine", "fixes_for_corpus"),
    ("repro.lint.rules_site", "run_site"),
)


@pytest.fixture()
def memo_corpus(write_corpus, tmp_path):
    """Two linked activities plus a two-file code dir."""
    corpus = write_corpus(one=ANCHORED, two=LINKING)
    code_dir = tmp_path / "code"
    code_dir.mkdir()
    (code_dir / "worker.py").write_text(WORKER, encoding="utf-8")
    (code_dir / "boss.py").write_text(BOSS, encoding="utf-8")
    return corpus, code_dir


@pytest.fixture()
def scope_calls(monkeypatch):
    """Count the calls each corpus-scope computation receives."""
    calls: dict[str, int] = {}
    for module_name, attr in CORPUS_SCOPES:
        module = importlib.import_module(module_name)
        real = getattr(module, attr)

        def counted(*args, _real=real, _name=attr, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    return calls


def _full_engine(corpus, code_dir, **kwargs):
    return LintEngine(LintConfig(content_dir=corpus, code_dir=code_dir,
                                 **kwargs))


@pytest.mark.parametrize("jobs", [1, 4])
def test_body_edit_reruns_no_corpus_scope(memo_corpus, scope_calls,
                                          monkeypatch, jobs):
    corpus, code_dir = memo_corpus
    engine = _full_engine(corpus, code_dir, jobs=jobs)
    cold = engine.lint()
    assert scope_calls == {name: 1 for _module, name in CORPUS_SCOPES}
    pools = []

    class CountingPool(engine_module.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine_module, "ThreadPoolExecutor", CountingPool)
    scope_calls.clear()
    _touch(corpus / "one.md",
           (corpus / "one.md").read_text() + "\nOne more sentence.\n")
    warm = engine.lint()
    assert warm.stats.files_analyzed == 1
    assert scope_calls == {}
    assert pools == []                     # one file to analyze: no threads
    assert render_json(warm) == render_json(cold)


@pytest.mark.parametrize("edit", ["title", "orphan-term", "heading-rename"])
def test_info_changes_rerun_content_scopes(memo_corpus, scope_calls, edit):
    corpus, code_dir = memo_corpus
    engine = _full_engine(corpus, code_dir)
    before = engine.lint()
    page = corpus / "one.md"
    text = page.read_text()
    if edit == "title":
        text = text.replace('title: "GoodActivity"', 'title: "Linking"')
    elif edit == "orphan-term":
        text = text.replace('senses: ["visual"]', 'senses: ["touch"]')
    else:
        text = text.replace("### Variations", "### Variants")
    scope_calls.clear()
    _touch(page, text)
    after = engine.lint()
    assert {name: scope_calls.get(name, 0)
            for name in ("run_corpus", "fixes_for_corpus", "run_site")} == \
        {"run_corpus": 1, "fixes_for_corpus": 1, "run_site": 1}
    assert "analyze_cross_class" not in scope_calls
    assert render_json(after) != render_json(before)
    fresh = _full_engine(corpus, code_dir).lint()
    assert render_json(after) == render_json(fresh)
    expected = {"title": "duplicate-title", "orphan-term": "orphan-term",
                "heading-rename": "internal-link"}[edit]
    new = {d.to_dict()["message"] for d in only(after, expected)} - \
        {d.to_dict()["message"] for d in only(before, expected)}
    assert new


def test_code_edit_reruns_code_scope(memo_corpus, scope_calls):
    corpus, code_dir = memo_corpus
    engine = _full_engine(corpus, code_dir)
    before = engine.lint()
    assert only(before, "serve-lock-order")
    scope_calls.clear()
    _touch(code_dir / "boss.py", BOSS.replace(
        "        with self._lock:\n            self.worker.poke()",
        "        self.worker.poke()"))
    after = engine.lint()
    assert after.stats.files_analyzed == 1
    assert scope_calls == {"analyze_cross_class": 1, "analyze_corpus": 1}
    assert not only(after, "serve-lock-order")
    fresh = _full_engine(corpus, code_dir).lint()
    assert render_json(after) == render_json(fresh)


@pytest.mark.parametrize("module_name, attr", CORPUS_SCOPES)
def test_crashed_corpus_scope_is_never_memoized(memo_corpus, monkeypatch,
                                                module_name, attr):
    corpus, code_dir = memo_corpus

    def crash(*_args, **_kwargs):
        raise RuntimeError("injected corpus crash")

    monkeypatch.setattr(importlib.import_module(module_name), attr, crash)
    engine = _full_engine(corpus, code_dir)
    for _run in range(2):
        result = engine.lint()
        assert result.stats.internal_errors == 1
        [diag] = only(result, "lint-internal-error")
        assert "injected corpus crash" in diag.message


def test_cold_lint_parses_each_body_once(write_corpus, monkeypatch):
    corpus = write_corpus(one=ANCHORED, two=LINKING)
    parsed = []
    real = markdown.parse
    monkeypatch.setattr(markdown, "parse",
                        lambda text: parsed.append(text) or real(text))
    _engine(corpus, site=True).lint()
    assert len(parsed) == 2
