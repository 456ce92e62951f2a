"""Corpus construction: citing records, stable work identities, statistics.

A corpus is the deduplicated set of citing papers whose reference lists
feed the year spectrum.  Each cited reference gets a :class:`RefKey`, a
normalized (author, year, source, volume, page) tuple used as the work
identity when counting citation shares.  No fuzzy merging is attempted:
"ANN PHYS" and "ANN PHYS-BERLIN" stay distinct works, and grouping is by
first author only, because that is all the WoS CR string carries.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .textnorm import UNKNOWN_AUTHOR, key_token, normalize_author
from .wos import CitedReference, RawRecord, parse_cited_reference

__all__ = [
    "Record",
    "RefKey",
    "Corpus",
    "JournalStats",
    "CorpusStats",
    "CorpusDiagnostics",
    "CorpusError",
    "normalize_author",
    "reference_key",
    "build_corpus",
    "corpus_stats",
]


class CorpusError(ValueError):
    """Citing record unusable for corpus construction (strict mode only)."""


@dataclass(frozen=True, slots=True)
class Record:
    """One citing paper with its parsed reference list."""

    uid: str
    journal: str
    pub_year: int
    doc_type: str
    cited_refs: tuple[CitedReference, ...]


@dataclass(frozen=True, order=True, slots=True)
class RefKey:
    """Normalized identity of a cited work.

    DOI is deliberately not part of the identity: DOIs are sparse in
    older CR strings, and mixing DOI-keyed and field-keyed identities
    would split counts for the same work.
    """

    author: str
    year: int
    source: str
    volume: str
    page: str

    def display(self) -> str:
        parts = [self.author, str(self.year)]
        if self.source:
            parts.append(self.source)
        if self.volume:
            parts.append("V" + self.volume)
        if self.page:
            parts.append("P" + self.page)
        return ", ".join(parts)


@dataclass(frozen=True, slots=True)
class JournalStats:
    journal: str
    records: int
    cited_refs: int


@dataclass(frozen=True, slots=True)
class CorpusStats:
    """Per-journal record and cited-reference counts plus totals."""

    rows: tuple[JournalStats, ...]
    total_records: int
    total_cited_refs: int


@dataclass
class CorpusDiagnostics:
    """Bookkeeping for one build_corpus call."""

    records_in: int = 0
    records_kept: int = 0
    duplicates_skipped: int = 0
    excluded_missing_fields: int = 0
    excluded_by_filter: int = 0


@dataclass(frozen=True)
class Corpus:
    """Deduplicated citing records, ready for spectrum queries."""

    records: tuple[Record, ...]

    def iter_refs(self):
        return chain.from_iterable(record.cited_refs for record in self.records)

    @cached_property
    def by_year(self) -> dict[int | None, list[CitedReference]]:
        """Each referenced year's cited references; ``None`` files the year-less.

        The one grouping of references by year: the spectrum counts these
        lists and every drill reads one.  Built by one pass on first use.
        """
        index: defaultdict[int | None, list[CitedReference]] = defaultdict(list)
        for ref in self.iter_refs():
            index[ref.year].append(ref)
        return dict(index)

    @property
    def total_cited_refs(self) -> int:
        return sum(len(r.cited_refs) for r in self.records)

    @property
    def max_pub_year(self) -> int | None:
        if not self.records:
            return None
        return max(r.pub_year for r in self.records)


def reference_key(cr: CitedReference) -> RefKey | None:
    """Identity tuple of a cited reference; absent when the year is.

    Pure: byte-identical CR lines always map to equal keys.
    """
    if cr.year is None:
        return None
    author = key_token(cr.first_author) if cr.first_author else UNKNOWN_AUTHOR
    return RefKey(
        author=author or UNKNOWN_AUTHOR,
        year=cr.year,
        source=key_token(cr.source) if cr.source else "",
        volume=key_token(cr.volume) if cr.volume else "",
        page=key_token(cr.page) if cr.page else "",
    )


def _surrogate_uid(record: RawRecord) -> str:
    # Degraded exports may lack UT; the uid must still dedup identical
    # records across files, so hash descriptive fields (never id()-like
    # per-process state).
    basis = "\x1f".join(
        [
            record.joined("SO") or "",
            record.first("PY") or "",
            record.first("AU") or "",
            record.joined("TI") or "",
        ]
    )
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
    """Normalize parsed records into a deduplicated corpus.

    Deduplication is by uid, first occurrence wins, so merging input
    batches in any order yields the same record set.  The journal
    filter matches on the normalized source title.  Records lacking a
    publication year or source title are errors in strict mode and are
    excluded (and counted) otherwise.
    """
    diag = CorpusDiagnostics(records_in=len(records))
    wanted = {key_token(j) for j in journal_filter} if journal_filter else None
    seen: set[str] = set()
    kept: list[Record] = []

    for raw in records:
        uid = raw.first("UT") or _surrogate_uid(raw)
        if uid in seen:
            diag.duplicates_skipped += 1
            continue
        seen.add(uid)

        journal = raw.joined("SO")
        pub_year = _pub_year(raw)
        if journal is None or pub_year is None:
            if strict:
                missing = "PY" if journal is not None else "SO"
                raise CorpusError(f"record {uid}: missing or invalid {missing} field")
            diag.excluded_missing_fields += 1
            continue
        if wanted is not None and key_token(journal) not in wanted:
            diag.excluded_by_filter += 1
            continue

        refs = tuple(parse_cited_reference(line) for line in raw.get("CR"))
        kept.append(
            Record(
                uid=uid,
                journal=journal,
                pub_year=pub_year,
                doc_type=raw.first("DT") or "",
                cited_refs=refs,
            )
        )

    diag.records_kept = len(kept)
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
