"""Per-year drill-down: most-cited authors and works with shares.

Given a referenced publication year (typically a detected peak), these
queries answer "who and what drives the citations to that year".  The
share denominator is ALL references to that year, including ones whose
work key has no author; those appear as an explicit unattributed count
rather than silently shrinking the denominator.  A query slices its year's
ranked rows from :meth:`Corpus.year_works`, built on the year's first
query, so a string is keyed once per corpus and a year ranked once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Corpus, RefKey
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


def _shares(row_type, rows, total: int) -> tuple:
    """One ``row_type`` row per ``(item, count)`` pair, with its share of ``total``."""
    return tuple(row_type(item, count, round_share(count, total)) for item, count in rows)


def drill_year(corpus: Corpus, year: int, top_k: int = 10) -> YearProfile:
    """Most-cited first authors and works for one year.

    An author row counts the works whose ``RefKey.author`` is its name, and
    those whose key author is ``UNKNOWN`` are ``unattributed``.  Rows are the
    first ``top_k`` of the year's ranking in :meth:`Corpus.year_works` (count
    descending, then name/key), with shares of all references to the year.
    A year with no references yields an empty profile.
    """
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    memo = corpus.year_works(year)
    return YearProfile(
        year=year,
        total_refs=memo.total,
        author_rows=_shares(AuthorShare, memo.authors[:top_k], memo.total),
        work_rows=_shares(WorkShare, memo.works[:top_k], memo.total),
        unattributed=memo.unattributed,
    )


def author_breakdown(corpus: Corpus, author: str, year: int) -> AuthorWorkBreakdown:
    """One author's works cited in one year, shares within the author.

    The works kept are those whose ``RefKey.author`` is ``author`` (the form
    key_token yields and drill_year reports), in their order in the year's
    ranked works, so nothing is sorted again.  An author absent in that
    year yields an empty breakdown.
    """
    if author == UNKNOWN_AUTHOR:
        raise ValueError("cannot break down the unattributed bucket by work")
    rows = [row for row in corpus.year_works(year).works if row[0].author == author]
    total = sum(count for _, count in rows)
    return AuthorWorkBreakdown(
        author=author, year=year, total_refs=total, rows=_shares(WorkShare, rows, total)
    )


def profile_all_peaks(
    corpus: Corpus, peaks: list[Peak], top_k: int = 10
) -> list[YearProfile]:
    """One YearProfile per peak, in ascending year order (not peak rank)."""
    return [drill_year(corpus, year, top_k) for year in sorted(p.year for p in peaks)]
