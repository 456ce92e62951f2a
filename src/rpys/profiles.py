"""Per-year drill-down: most-cited authors and works with shares.

Given a referenced publication year (typically a detected peak), these
queries answer "who and what drives the citations to that year".  The
share denominator is ALL references to that year, including ones whose
author could not be parsed; those appear as an explicit unattributed
count rather than silently shrinking the denominator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .corpus import Corpus, RefKey, reference_key
from .spectrum import Peak
from .textnorm import UNKNOWN_AUTHOR

__all__ = [
    "AuthorShare",
    "WorkShare",
    "YearProfile",
    "AuthorWorkBreakdown",
    "round_share",
    "drill_year",
    "author_breakdown",
    "profile_all_peaks",
]


@dataclass(frozen=True, slots=True)
class AuthorShare:
    name: str
    count: int
    share: float


@dataclass(frozen=True, slots=True)
class WorkShare:
    key: RefKey
    count: int
    share: float


@dataclass(frozen=True, slots=True)
class YearProfile:
    """Top authors and works cited for one referenced publication year."""

    year: int
    total_refs: int
    author_rows: tuple[AuthorShare, ...]
    work_rows: tuple[WorkShare, ...]
    unattributed: int


@dataclass(frozen=True, slots=True)
class AuthorWorkBreakdown:
    """One author's cited works within one year, with within-author shares."""

    author: str
    year: int
    total_refs: int
    rows: tuple[WorkShare, ...]


def round_share(count: int, total: int) -> float:
    """Percentage share rounded to one decimal, halves away from zero.

    Integer arithmetic throughout: share reporting must not depend on
    binary float rounding (13/24 is 54.1666..%, reported 54.2).
    """
    if total <= 0:
        raise ValueError("share denominator must be positive")
    if count < 0:
        raise ValueError("share numerator must be non-negative")
    return ((2000 * count + total) // (2 * total)) / 10.0


def _ranked(counts: Counter, top_k: int | None = None) -> list:
    """(item, count) pairs by count descending then item ascending."""
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]


def _work_rows(refs, top_k: int | None = None) -> tuple[WorkShare, ...]:
    """Most-cited works among ``refs``, shares of all of ``refs``."""
    works = Counter(map(reference_key, refs))
    return tuple(
        WorkShare(key, count, round_share(count, len(refs)))
        for key, count in _ranked(works, top_k)
    )


def drill_year(corpus: Corpus, year: int, top_k: int = 10) -> YearProfile:
    """Most-cited first authors and works for one year.

    Rows are sorted by count descending then name/key ascending and
    truncated to ``top_k``; shares are percentages of all references to
    the year.  A year with no references yields an empty profile.
    """
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    refs = corpus.by_year.get(year, ())
    total = len(refs)
    authors = Counter(ref.first_author for ref in refs if ref.first_author is not None)
    return YearProfile(
        year=year,
        total_refs=total,
        author_rows=tuple(
            AuthorShare(name, count, round_share(count, total))
            for name, count in _ranked(authors, top_k)
        ),
        work_rows=_work_rows(refs, top_k),
        unattributed=total - authors.total(),
    )


def author_breakdown(corpus: Corpus, author: str, year: int) -> AuthorWorkBreakdown:
    """One author's works cited in one year, shares within the author.

    ``author`` must already be in normalized form (as produced by
    normalize_author and reported by drill_year).  An author absent in
    that year yields an empty breakdown.
    """
    if author == UNKNOWN_AUTHOR:
        raise ValueError("cannot break down the unattributed bucket by work")
    refs = [ref for ref in corpus.by_year.get(year, ()) if ref.first_author == author]
    return AuthorWorkBreakdown(
        author=author, year=year, total_refs=len(refs), rows=_work_rows(refs)
    )


def profile_all_peaks(
    corpus: Corpus, peaks: list[Peak], top_k: int = 10
) -> list[YearProfile]:
    """One YearProfile per peak, in ascending year order (not peak rank)."""
    return [drill_year(corpus, year, top_k) for year in sorted(p.year for p in peaks)]
