"""The package's public names: the set, and where the drill's come from."""

from __future__ import annotations

import rpys
import rpys.corpus

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


def test_drill_names_are_those_of_corpus():
    assert DRILL <= set(rpys.corpus.__all__)
    for name in DRILL:
        assert getattr(rpys, name) is getattr(rpys.corpus, name), name

