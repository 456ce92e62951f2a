"""Corpus construction: citing records, stable work identities, statistics.

A corpus is the deduplicated set of citing papers whose reference lists
feed the year spectrum.  Each cited reference parses to a :class:`RefKey`
(defined in :mod:`rpys.wos`, beside its parser), a normalized (author,
year, source, volume, page) tuple used as the work identity when counting
citation shares.  No fuzzy merging is attempted:
"ANN PHYS" and "ANN PHYS-BERLIN" stay distinct works, and grouping is by
first author only, because that is all the WoS CR string carries.

The drill-down lives here too.  Given a referenced publication year
(typically a detected peak), :func:`drill_year`, :func:`author_breakdown`
and :func:`profile_all_peaks` answer "who and what drives the citations
to that year".  The share denominator is ALL references to that year,
including ones whose work key has no author; those appear as an explicit
unattributed count rather than silently shrinking the denominator.  The
year's first query builds its full :class:`YearProfile`, every author and
work row with its share, in :meth:`Corpus.year_works`, so a string is
keyed once per corpus and a year ranked once.  Every query reads those
finished rows and keeps its answer in the year's entry: a drill slices
them, an author's breakdown filters the ranked work rows for its own,
with shares within the author, and asking again returns the same object.
The results are named tuples, as the rows are.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cache, cached_property
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .textnorm import UNKNOWN_AUTHOR, key_token
from .wos import RawRecord, RefKey, cited_year, parse_cited_reference

if TYPE_CHECKING:  # spectrum imports this module
    from .spectrum import Peak

__all__ = [
    "Record",
    "RefKey",
    "Corpus",
    "JournalStats",
    "CorpusStats",
    "CorpusDiagnostics",
    "CorpusError",
    "build_corpus",
    "corpus_stats",
    "AuthorShare",
    "WorkShare",
    "YearProfile",
    "AuthorWorkBreakdown",
    "round_share",
    "drill_year",
    "author_breakdown",
    "profile_all_peaks",
]


class CorpusError(ValueError):
    """Citing record unusable for corpus construction (strict mode only)."""


class Record(NamedTuple):
    """One citing paper with its cited-reference strings, as exported.

    A named tuple, so it is also a plain tuple of its four fields.
    """

    uid: str
    journal: str
    pub_year: int
    cited_refs: tuple[str, ...]


class AuthorShare(NamedTuple):
    """A first author's references to a year and their share, a plain tuple too."""

    name: str
    count: int
    share: float


class WorkShare(NamedTuple):
    """A work's references and their share, a plain tuple too."""

    key: RefKey
    count: int
    share: float


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


class YearProfile(NamedTuple):
    """Top authors and works cited for one referenced publication year, a plain tuple too."""

    year: int
    total_refs: int
    author_rows: tuple[AuthorShare, ...]
    work_rows: tuple[WorkShare, ...]
    unattributed: int


class AuthorWorkBreakdown(NamedTuple):
    """One author's cited works within one year, with within-author shares, a plain tuple too."""

    author: str
    year: int
    total_refs: int
    rows: tuple[WorkShare, ...]


_count = itemgetter(1)


def _ranked(row_type, counts: Counter, total: int) -> tuple:
    """``counts`` as ``row_type`` rows with shares of ``total``, by count
    descending then item."""
    items = sorted(counts)
    shares = {n: round_share(n, total) for n in set(counts.values())}  # few distinct counts
    rows = [row_type(item, n, shares[n]) for item, n in zip(items, map(counts.__getitem__, items))]
    rows.sort(key=_count, reverse=True)  # stable, so ties stay by item
    return tuple(rows)


class JournalStats(NamedTuple):
    journal: str
    records: int
    cited_refs: int


class CorpusStats(NamedTuple):
    """Per-journal record and cited-reference counts plus totals, a plain tuple too."""

    rows: tuple[JournalStats, ...]
    total_records: int
    total_cited_refs: int


class CorpusDiagnostics(NamedTuple):
    """Bookkeeping for one build_corpus call, a plain tuple too."""

    records_kept: int = 0
    duplicates_skipped: int = 0
    excluded_missing_fields: int = 0
    excluded_by_filter: int = 0


class Corpus:
    """Deduplicated citing records; a CR string is parsed to its key once, when first drilled."""

    def __init__(self, records: tuple[Record, ...]):
        self.records = records
        self._works_by_year: dict[int, list] = {}

    def __eq__(self, other):
        return self.records == other.records if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"Corpus(records={self.records!r})"

    def _lines(self):
        return chain.from_iterable(record.cited_refs for record in self.records)

    def iter_refs(self):
        """Every record's cited references as keys, in order; equal strings share one parse."""
        return map(cache(parse_cited_reference), self._lines())

    @cached_property
    def by_year(self) -> dict[int | None, Counter[str]]:
        """Each referenced year's CR strings, counted; ``None`` files the year-less.

        The one grouping of references by year: the spectrum sums these
        counters, and once built every drill reads one (see :meth:`year_lines`).
        Built on first use by one pass that reads only the year of each
        distinct string.
        """
        lines = Counter(self._lines())
        index: defaultdict[int | None, Counter[str]] = defaultdict(Counter)
        for line, n in lines.items():
            index[cited_year(line)][line] = n
        return dict(index)

    def year_lines(self, year: int) -> Counter[str]:
        """``year``'s CR strings, counted; read-only to callers.

        :attr:`by_year`'s entry once that is built.  Before, one pass tests
        each CR line inline for the year's four digits, then reads the year
        of each distinct match once; nothing is kept, so a caller that
        drills many years should build :attr:`by_year` first.  The test
        drops no match: :func:`cited_year` returns ``int(seg)`` of a
        4-digit segment in ``MIN_RPY..MAX_RPY`` (1000..2100), so ``seg``
        has no leading zero, and ``str(year) == seg`` is part of the string.
        """
        if "by_year" in vars(self):
            return self.by_year.get(year, Counter())
        digits = str(year)
        lines = Counter([line for line in self._lines() if digits in line])
        return Counter({line: n for line, n in lines.items() if cited_year(line) == year})

    def year_works(self, year: int) -> list:
        """``year``'s drill memo, the list [full profile, breakdowns by
        author, top_k, profile sliced to that top_k].

        The full profile holds every author and work row with its share of
        all the year's references, each ranked by count descending then name
        or key; works of key author ``UNKNOWN`` are counted as unattributed
        and have no author row.  Built on the first request for ``year``
        from :meth:`year_lines`, parsing each distinct string to its key
        once, and kept, so a later query of the year reads finished rows.  A
        string has one year, so none is parsed twice per corpus.
        :func:`author_breakdown` files each non-empty breakdown, so they
        number at most the year's works.  The top-k slot starts as ``0,
        None``; :func:`drill_year` keeps one sliced profile there, replaced
        when ``top_k`` changes, so the entry stays linear in the year's rows.
        """
        entry = self._works_by_year.get(year)
        if entry is None:
            works, authors = Counter(), Counter()
            # get() rather than +=, which sends each new key through Counter.__missing__.
            for line, n in self.year_lines(year).items():
                key = parse_cited_reference(line)
                works[key] = works.get(key, 0) + n
                authors[key.author] = authors.get(key.author, 0) + n
            unattributed = authors.pop(UNKNOWN_AUTHOR, 0)
            total = works.total()
            author_rows = _ranked(AuthorShare, authors, total)
            work_rows = _ranked(WorkShare, works, total)
            profile = YearProfile(year, total, author_rows, work_rows, unattributed)
            entry = self._works_by_year[year] = [profile, {}, 0, None]
        return entry

    @property
    def total_cited_refs(self) -> int:
        return sum(len(r.cited_refs) for r in self.records)

    @property
    def max_pub_year(self) -> int | None:
        if not self.records:
            return None
        return max(r.pub_year for r in self.records)


def _surrogate_uid(record: RawRecord) -> str:
    # Degraded exports may lack UT or leave it blank; the uid must still
    # dedup identical records across files, so hash descriptive fields
    # (never id()-like per-process state), stripped as the TSV reader
    # strips its cells.
    basis = "\x1f".join(
        [
            record.joined("SO") or "",
            (record.first("PY") or "").strip(),
            (record.first("AU") or "").strip(),
            record.joined("TI") or "",
        ]
    )
    import hashlib  # here, not at module level: only UT-less records need it

    digest = hashlib.sha1(basis.encode("utf-8")).hexdigest()
    return "SYN:" + digest[:16]


def _pub_year(record: RawRecord) -> int | None:
    raw = record.first("PY")
    if raw is None:
        return None
    raw = raw.strip()
    # Past four digits a PY is no year (and past 4,300, int() refuses it).
    if not (len(raw) <= 4 and raw.isascii() and raw.isdigit()):
        return None
    return int(raw)


def build_corpus(
    records: list[RawRecord],
    journal_filter: set[str] | None = None,
    strict: bool = False,
) -> tuple[Corpus, CorpusDiagnostics]:
    """Deduplicate parsed records into a corpus, counting where each one went.

    A record's uid is its ``UT`` value without surrounding whitespace, or
    a surrogate hashed from its SO, PY, AU and TI when that is blank or
    absent; the first record of each uid is kept.  A record without a
    valid publication year or a source title raises :class:`CorpusError`
    in strict mode and is excluded otherwise, and one whose normalized
    source title is not in the journal filter is excluded.  Each input
    record is counted in exactly one field of the diagnostics.  A kept
    record's CR strings stay verbatim and unparsed; a reader's CR tuple
    is kept without a copy (a hand-built list is copied).
    """
    duplicates = incomplete = filtered = 0
    wanted = {key_token(j) for j in journal_filter} if journal_filter else None
    seen: set[str] = set()
    kept: list[Record] = []

    for raw in records:
        uid = (raw.first("UT") or "").strip() or _surrogate_uid(raw)
        if uid in seen:
            duplicates += 1
            continue
        seen.add(uid)

        journal = raw.joined("SO")
        pub_year = _pub_year(raw)
        if journal is None or pub_year is None:
            if strict:
                missing = "PY" if journal is not None else "SO"
                raise CorpusError(f"record {uid}: missing or invalid {missing} field")
            incomplete += 1
            continue
        if wanted is not None and key_token(journal) not in wanted:
            filtered += 1
            continue

        kept.append(Record(uid, journal, pub_year, tuple(raw.get("CR"))))

    diag = CorpusDiagnostics(len(kept), duplicates, incomplete, filtered)
    return Corpus(tuple(kept)), diag


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Per-journal paper and cited-reference counts, plus totals."""
    papers: dict[str, int] = {}
    refs: dict[str, int] = {}
    for record in corpus.records:
        papers[record.journal] = papers.get(record.journal, 0) + 1
        refs[record.journal] = refs.get(record.journal, 0) + len(record.cited_refs)
    rows = tuple(
        JournalStats(journal=j, records=papers[j], cited_refs=refs[j])
        for j in sorted(papers)
    )
    return CorpusStats(
        rows=rows,
        total_records=sum(papers.values()),
        total_cited_refs=sum(refs.values()),
    )


def drill_year(corpus: Corpus, year: int, top_k: int = 10) -> YearProfile:
    """Most-cited first authors and works for one year.

    An author row counts the works whose ``RefKey.author`` is its name, and
    those whose key author is ``UNKNOWN`` are ``unattributed``.  Rows are the
    first ``top_k`` of the year's ranking in :meth:`Corpus.year_works` (count
    descending, then name/key), with shares of all references to the year.
    A year with no references yields an empty profile.  The year's entry
    keeps the last profile returned: a drill at the same ``top_k`` returns
    that object, and one at another ``top_k`` slices once and replaces it.
    """
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    entry = corpus.year_works(year)
    if entry[2] != top_k:
        full = entry[0]
        rows = full.author_rows[:top_k], full.work_rows[:top_k]
        entry[2:] = top_k, YearProfile(year, full.total_refs, *rows, full.unattributed)
    return entry[3]


def author_breakdown(corpus: Corpus, author: str, year: int) -> AuthorWorkBreakdown:
    """One author's works cited in one year, shares within the author.

    The works kept are those whose ``RefKey.author`` is ``author`` (the form
    key_token yields and drill_year reports), filtered from the year's ranked
    work rows, so by count descending, ties by key.  An author absent in
    that year yields an empty breakdown.  A non-empty breakdown is kept in
    the year's :meth:`Corpus.year_works` entry, so asking again returns the
    same object and builds no row; an empty one is built again on each call
    and never kept.
    """
    if author == UNKNOWN_AUTHOR:
        raise ValueError("cannot break down the unattributed bucket by work")
    full, breakdowns, _, _ = corpus.year_works(year)
    breakdown = breakdowns.get(author)
    if breakdown is None:
        rows = [row for row in full.work_rows if row.key.author == author]
        total = sum(map(_count, rows))
        shares = tuple(WorkShare(key, n, round_share(n, total)) for key, n, _ in rows)
        breakdown = AuthorWorkBreakdown(author, year, total, shares)
        if shares:
            breakdowns[author] = breakdown
    return breakdown


def profile_all_peaks(corpus: Corpus, peaks: list[Peak], top_k: int = 10) -> list[YearProfile]:
    """Each peak's :func:`drill_year` profile, in ascending year order (not peak rank)."""
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    return [drill_year(corpus, year, top_k) for year in sorted(p.year for p in peaks)]
