"""The package's public names: the set, where the drill's come from, and
the README's library example."""

from __future__ import annotations

import re
import shutil
from pathlib import Path
from types import FunctionType

import pytest

import rpys
import rpys.corpus

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "__version__",
    "UNKNOWN_AUTHOR",
    "TAGGED",
    "TAB_DELIMITED",
    "RawRecord",
    "ParseDiagnostics",
    "UnrecognizedFormatError",
    "ExportParseError",
    "detect_format",
    "parse_export",
    "parse_cited_reference",
    "load_export",
    "Record",
    "RefKey",
    "Corpus",
    "JournalStats",
    "CorpusStats",
    "CorpusDiagnostics",
    "CorpusError",
    "build_corpus",
    "corpus_stats",
    "Spectrum",
    "DeviationSeries",
    "Peak",
    "compute_spectrum",
    "median_deviation",
    "detect_peaks",
    "AuthorShare",
    "WorkShare",
    "YearProfile",
    "AuthorWorkBreakdown",
    "round_share",
    "drill_year",
    "author_breakdown",
    "profile_all_peaks",
    "render_spectrogram",
}
DRILL = {
    "AuthorShare",
    "WorkShare",
    "YearProfile",
    "AuthorWorkBreakdown",
    "round_share",
    "drill_year",
    "author_breakdown",
    "profile_all_peaks",
}


def test_all_is_the_public_set():
    assert len(rpys.__all__) == len(PUBLIC) == 36
    assert set(rpys.__all__) == PUBLIC
    assert all(hasattr(rpys, name) for name in PUBLIC)


def test_each_public_name_is_declared_once():
    # Every name but __version__ is in exactly one module's __all__, and a
    # class or function there is that module's own, not one it imports.
    modules = [rpys.wos, rpys.corpus, rpys.spectrum, rpys.svgplot]
    declared = [(name, module) for module in modules for name in module.__all__]
    assert sorted(name for name, _ in declared) == sorted(set(rpys.__all__) - {"__version__"})
    for name, module in declared:
        value = getattr(rpys, name)
        assert value is getattr(module, name), name
        if isinstance(value, (type, FunctionType)):
            assert value.__module__ == module.__name__, name


def test_drill_names_are_those_of_corpus():
    assert DRILL <= set(rpys.corpus.__all__)
    for name in DRILL:
        assert getattr(rpys, name) is getattr(rpys.corpus, name), name


def test_result_types_are_named_tuples():
    # Every public class but Corpus and the exceptions is an immutable
    # named tuple without an instance __dict__.
    others = {rpys.Corpus, rpys.UnrecognizedFormatError, rpys.ExportParseError, rpys.CorpusError}
    public = [getattr(rpys, name) for name in rpys.__all__]
    results = [cls for cls in public if isinstance(cls, type) and cls not in others]
    assert len(results) == 14
    for cls in results:
        assert issubclass(cls, tuple) and hasattr(cls, "_fields"), cls
        value = cls(*[None] * len(cls._fields))
        assert not hasattr(value, "__dict__"), cls
        with pytest.raises(AttributeError):
            setattr(value, cls._fields[0], None)
    assert rpys.ParseDiagnostics() == (0, 0, ())
    assert rpys.CorpusDiagnostics() == (0, 0, 0, 0)


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    # The README's example, run on an export that holds three ERKENNTNIS
    # records, so a change to the names or result types it uses fails here.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"^```python\n(.*?)^```$", section, re.M | re.S).group(1)
    shutil.copy(ROOT / "tests" / "fixtures" / "pinned_tagged.txt", tmp_path / "savedrecs.txt")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "1905 3.0 AuthorShare(name='EINSTEIN A', count=2, share=50.0)",
        "1927 1.0 AuthorShare(name='WINTERS R', count=1, share=100.0)",
    ]
