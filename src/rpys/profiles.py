"""Per-year drill-down: most-cited authors and works with shares.

Given a referenced publication year (typically a detected peak), these
queries answer "who and what drives the citations to that year".  The
share denominator is ALL references to that year, including ones whose
work key has no author; those appear as an explicit unattributed count
rather than silently shrinking the denominator.  The year's first query
builds every author and work row with its share in :meth:`Corpus.year_works`,
so a string is keyed once per corpus and a year ranked once.  Every query
reads those finished rows: a drill slices them, and a breakdown builds only
its author's rows, with shares within the author.  :class:`AuthorShare`,
:class:`WorkShare` and :func:`round_share` live in :mod:`rpys.corpus`, which
builds the rows, and are re-exported here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter

from .corpus import AuthorShare, Corpus, WorkShare, round_share
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


_key_author, _count = attrgetter("key.author"), attrgetter("count")


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
        author_rows=memo.authors[:top_k],
        work_rows=memo.works[:top_k],
        unattributed=memo.unattributed,
    )


def author_breakdown(corpus: Corpus, author: str, year: int) -> AuthorWorkBreakdown:
    """One author's works cited in one year, shares within the author.

    The works kept are those whose ``RefKey.author`` is ``author`` (the form
    key_token yields and drill_year reports): one run of the year's works by
    key, found by bisection and ranked by count, ties by key as in the
    year's ranking.  An author absent in that year yields an empty breakdown.
    """
    if author == UNKNOWN_AUTHOR:
        raise ValueError("cannot break down the unattributed bucket by work")
    works = corpus.year_works(year).works_by_key
    start = bisect_left(works, author, key=_key_author)
    run = works[start : bisect_right(works, author, start, key=_key_author)]
    rows = sorted(run, key=_count, reverse=True)  # stable, so ties stay by key
    total = sum(map(_count, rows))
    return AuthorWorkBreakdown(
        author=author,
        year=year,
        total_refs=total,
        rows=tuple(WorkShare(row.key, row.count, round_share(row.count, total)) for row in rows),
    )


def profile_all_peaks(
    corpus: Corpus, peaks: list[Peak], top_k: int = 10
) -> list[YearProfile]:
    """One YearProfile per peak, in ascending year order (not peak rank)."""
    return [drill_year(corpus, year, top_k) for year in sorted(p.year for p in peaks)]
