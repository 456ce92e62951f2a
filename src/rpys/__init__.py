"""Referenced publication year spectroscopy (RPYS).

Parse Web of Science exports, count cited references per referenced
publication year, smooth the counts with a five-year median, detect
peak years, and drill into each peak's most-cited authors and works.
"""

from .corpus import (
    AuthorShare,
    AuthorWorkBreakdown,
    Corpus,
    CorpusDiagnostics,
    CorpusError,
    CorpusStats,
    JournalStats,
    Record,
    WorkShare,
    YearProfile,
    author_breakdown,
    build_corpus,
    corpus_stats,
    drill_year,
    profile_all_peaks,
    round_share,
)
from .spectrum import (
    DeviationSeries,
    Peak,
    Spectrum,
    compute_spectrum,
    detect_peaks,
    median_deviation,
)
from .svgplot import render_spectrogram
from .textnorm import UNKNOWN_AUTHOR
from .wos import (
    TAB_DELIMITED,
    TAGGED,
    ExportParseError,
    ParseDiagnostics,
    RawRecord,
    RefKey,
    UnrecognizedFormatError,
    detect_format,
    load_export,
    parse_cited_reference,
    parse_export,
)

__version__ = "0.1.0"

__all__ = [
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
]
