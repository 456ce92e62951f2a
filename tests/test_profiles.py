"""Year drill-down: share rounding, author/work grouping, peak profiles."""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpys.cli
import rpys.corpus
from rpys import (
    AuthorShare,
    AuthorWorkBreakdown,
    Corpus,
    Peak,
    RawRecord,
    Record,
    RefKey,
    UNKNOWN_AUTHOR,
    WorkShare,
    YearProfile,
    author_breakdown,
    build_corpus,
    compute_spectrum,
    detect_peaks,
    drill_year,
    median_deviation,
    parse_cited_reference,
    profile_all_peaks,
    round_share,
)
from rpys.wos import cited_year, key_token

from conftest import citing_record, drill_1905_crs, tagged_export


def corpus_of_lines(lines, pub_year=2013):
    record = Record(uid="R1", journal="J", pub_year=pub_year, cited_refs=tuple(lines))
    return Corpus((record,))


class TestRoundShare:
    def test_exact_tenths_pass_through(self):
        assert round_share(24, 100) == 24.0
        assert round_share(10, 100) == 10.0
        assert round_share(1, 8) == 12.5

    def test_thirds_round_to_nearest(self):
        assert round_share(13, 24) == 54.2  # 54.1666..
        assert round_share(1, 3) == 33.3
        assert round_share(2, 3) == 66.7

    def test_halves_round_away_from_zero(self):
        assert round_share(1, 2000) == 0.1  # 0.05%
        assert round_share(3, 2000) == 0.2  # 0.15%

    def test_boundaries(self):
        assert round_share(0, 7) == 0.0
        assert round_share(7, 7) == 100.0

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            round_share(1, 0)
        with pytest.raises(ValueError):
            round_share(-1, 10)


def test_rows_are_plain_tuples_of_their_fields():
    # Documented side effects of the named tuples, as for RefKey: each row and
    # result equals a plain tuple of its fields, takes them by keyword as well,
    # and refuses assignment.
    key = RefKey("EINSTEIN A", 1905, "ANN PHYS", "17", "891")
    work, author = WorkShare(key, 3, 12.5), AuthorShare("EINSTEIN A", 3, 12.5)
    assert work == (tuple(key), 3, 12.5)
    cases = [
        (WorkShare, (key, 3, 12.5)),
        (AuthorShare, ("EINSTEIN A", 3, 12.5)),
        (YearProfile, (1905, 24, (author,), (work,), 1)),
        (AuthorWorkBreakdown, ("EINSTEIN A", 1905, 3, (work,))),
    ]
    for row_type, values in cases:
        row = row_type(*values)
        assert isinstance(row, tuple)
        assert row == values
        assert row_type(**dict(zip(row_type._fields, values))) == row
        with pytest.raises(AttributeError):
            setattr(row, row_type._fields[0], values[0])


class TestDrillYear:
    def test_forty_percent_author(self):
        lines = ["X A, 1950, SRC ONE"] * 4 + [
            f"OTHER{i} B, 1950, SRC TWO" for i in range(6)
        ]
        profile = drill_year(corpus_of_lines(lines), 1950)
        assert profile.total_refs == 10
        assert profile.author_rows[0].name == "X A"
        assert profile.author_rows[0].count == 4
        assert profile.author_rows[0].share == 40.0

    def test_year_without_refs_yields_empty_profile(self):
        profile = drill_year(corpus_of_lines(["X A, 1950, SRC"]), 1800)
        assert profile.total_refs == 0
        assert profile.author_rows == ()
        assert profile.work_rows == ()
        assert profile.unattributed == 0

    def test_unattributed_in_denominator_not_in_rows(self):
        lines = ["X A, 1950, SRC"] * 3 + ["1950, ANON PAMPHLET"]
        profile = drill_year(corpus_of_lines(lines), 1950)
        assert profile.total_refs == 4
        assert profile.unattributed == 1
        assert [a.name for a in profile.author_rows] == ["X A"]
        assert profile.author_rows[0].share == 75.0
        # the anonymous work still counts as a work
        assert sum(w.count for w in profile.work_rows) == 4

    def test_author_counts_plus_unattributed_conserve_total(self):
        lines = (
            ["X A, 1950, SRC"] * 3
            + ["Y B, 1950, SRC"] * 2
            + ["1950, ANON ONE", "1950, ANON TWO"]
        )
        profile = drill_year(corpus_of_lines(lines), 1950, top_k=50)
        assert sum(a.count for a in profile.author_rows) + profile.unattributed == 7

    def test_ties_break_lexicographically(self):
        lines = ["ZETA Z, 1950, SRC", "ALPHA A, 1950, SRC", "MID M, 1950, SRC"]
        profile = drill_year(corpus_of_lines(lines), 1950)
        assert [a.name for a in profile.author_rows] == ["ALPHA A", "MID M", "ZETA Z"]

    def test_top_k_truncates(self):
        lines = [f"AUTHOR{i:02d} A, 1950, SRC" for i in range(9)]
        profile = drill_year(corpus_of_lines(lines), 1950, top_k=3)
        assert len(profile.author_rows) == 3
        assert profile.total_refs == 9

    def test_top_k_must_be_positive(self):
        with pytest.raises(ValueError):
            drill_year(corpus_of_lines(["X A, 1950, SRC"]), 1950, top_k=0)

    def test_record_order_does_not_matter(self):
        lines = [f"AUTHOR{i % 4} A, 1950, SRC{i % 3}" for i in range(12)]
        rng = random.Random(7)
        shuffled = lines[:]
        rng.shuffle(shuffled)
        one = Corpus(
            (Record(uid="R1", journal="J", pub_year=2000, cited_refs=tuple(lines)),)
        )
        two = Corpus(
            tuple(
                Record(uid=f"R{i}", journal="J", pub_year=2000, cited_refs=(line,))
                for i, line in enumerate(shuffled)
            )
        )
        assert drill_year(one, 1950) == drill_year(two, 1950)

    def test_engineered_1905_shares(self, drill_corpus):
        profile = drill_year(drill_corpus, 1905, top_k=5)
        top = profile.author_rows[0]
        second = profile.author_rows[1]
        assert (top.name, top.count, top.share) == ("EINSTEIN A", 24, 24.0)
        assert (second.name, second.count, second.share) == ("POINCARE H", 10, 10.0)
        assert profile.total_refs == 100


class TestAuthorBreakdown:
    def test_half_share_within_author(self):
        lines = ["X A, 1950, SRC ONE"] * 2 + ["X A, 1950, SRC TWO", "X A, 1950, SRC THREE"]
        breakdown = author_breakdown(corpus_of_lines(lines), "X A", 1950)
        assert breakdown.total_refs == 4
        assert breakdown.rows[0].count == 2
        assert breakdown.rows[0].share == 50.0

    def test_single_reference_is_full_share(self):
        breakdown = author_breakdown(corpus_of_lines(["X A, 1950, SRC"]), "X A", 1950)
        assert [(r.count, r.share) for r in breakdown.rows] == [(1, 100.0)]

    def test_absent_author_is_empty(self):
        breakdown = author_breakdown(corpus_of_lines(["X A, 1950, SRC"]), "Y B", 1950)
        assert breakdown.total_refs == 0
        assert breakdown.rows == ()

    def test_absent_author_is_not_kept(self):
        # The year's memo keeps non-empty breakdowns only, so it stays bounded
        # by the year's works however many absent names are asked.
        corpus = corpus_of_lines(["X A, 1950, SRC"])
        present = author_breakdown(corpus, "X A", 1950)
        kept = corpus.year_works(1950)[1]
        assert kept == {"X A": present}
        for name in ("Y B", "X", "X A "):
            assert author_breakdown(corpus, name, 1950) == AuthorWorkBreakdown(name, 1950, 0, ())
        assert kept == {"X A": present}
        assert author_breakdown(corpus, "X A", 1950) is present

    def test_unknown_bucket_rejected(self):
        with pytest.raises(ValueError):
            author_breakdown(corpus_of_lines(["X A, 1950, SRC"]), UNKNOWN_AUTHOR, 1950)

    def test_engineered_1905_top_work(self, drill_corpus):
        breakdown = author_breakdown(drill_corpus, "EINSTEIN A", 1905)
        assert breakdown.total_refs == 24
        top = breakdown.rows[0]
        assert top.count == 13
        assert top.share == 54.2
        assert sum(r.count for r in breakdown.rows) == 24

    def test_breakdown_total_matches_profile_author_count(self, drill_corpus):
        profile = drill_year(drill_corpus, 1905, top_k=1)
        breakdown = author_breakdown(drill_corpus, "EINSTEIN A", 1905)
        assert breakdown.total_refs == profile.author_rows[0].count


class TestProfileAllPeaks:
    def test_empty_peaks_empty_result(self):
        assert profile_all_peaks(corpus_of_lines(["X A, 1950, SRC"]), []) == []

    @pytest.mark.parametrize("peaks", [[], [Peak(1950, Fraction(1), 1, 1)]])
    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_must_be_positive(self, peaks, top_k):
        # As drill_year: no peaks is no excuse for a top_k that selects nothing.
        with pytest.raises(ValueError, match="top_k must be at least 1"):
            profile_all_peaks(corpus_of_lines(["X A, 1950, SRC"]), peaks, top_k)

    def test_profiles_ordered_by_year_not_rank(self):
        lines = ["A A, 1905, S"] * 5 + ["B B, 1962, S"] * 9
        corpus = corpus_of_lines(lines)
        series = median_deviation(compute_spectrum(corpus))
        peaks = detect_peaks(series)
        assert [p.year for p in peaks] == [1962, 1905]  # rank order
        profiles = profile_all_peaks(corpus, peaks)
        assert [p.year for p in profiles] == [1905, 1962]

    def test_profile_totals_match_spectrum_counts(self):
        lines = ["A A, 1905, S"] * 5 + ["B B, 1962, S"] * 9 + ["C C, 1940, S"]
        corpus = corpus_of_lines(lines)
        spectrum = compute_spectrum(corpus)
        series = median_deviation(spectrum)
        for profile in profile_all_peaks(corpus, detect_peaks(series)):
            assert profile.total_refs == spectrum.count_at(profile.year)


class TestShareConsistency:
    def test_untruncated_author_shares_sum_near_100(self, drill_corpus):
        profile = drill_year(drill_corpus, 1905, top_k=1000)
        total_share = sum(a.share for a in profile.author_rows)
        rows = len(profile.author_rows) + (1 if profile.unattributed else 0)
        assert abs(total_share - 100.0) <= 0.1 * rows

    def test_shares_recomputable_from_counts(self, drill_corpus):
        profile = drill_year(drill_corpus, 1905, top_k=1000)
        for row in profile.author_rows:
            assert row.share == round_share(row.count, profile.total_refs)
        for row in profile.work_rows:
            assert row.share == round_share(row.count, profile.total_refs)


def test_one_corpus_walked_once(monkeypatch):
    # The spectrum builds the corpus's one year index by reading the year of
    # each distinct string once, and every drill after it reads that index.
    corpus = corpus_of_lines(["A A, 1905, S"] * 5 + ["B B, 1962, S"] * 9)
    calls = []

    def counted(line):
        calls.append(line)
        return cited_year(line)

    monkeypatch.setattr(rpys.corpus, "cited_year", counted)
    spectrum = compute_spectrum(corpus)
    for year in (1905, 1962, 1777):
        drill_year(corpus, year)
    author_breakdown(corpus, "A A", 1905)
    peaks = detect_peaks(median_deviation(spectrum))
    assert len(profile_all_peaks(corpus, peaks)) == 2
    assert sorted(calls) == ["A A, 1905, S", "B B, 1962, S"]


# Cited-reference strings where a year's digits stand outside the year segment.
_NEAR_MISSES = [
    "A B, 1962, V1905",
    "A B, 1962, P1905",
    "A B, 1962, P1907",  # shares 1905's first three digits, not its fourth
    "A B, 01905, X",
    "A B, 19050, X",
    "X, 2101, 1905",
    "HUME D, 1905TREATISE",
]


@pytest.mark.parametrize("layout", ["tagged", "tsv"])
@pytest.mark.parametrize("author", [None, "Einstein, A."])
def test_cli_drill_reads_only_its_year(monkeypatch, tmp_path, author, layout):
    crs = drill_1905_crs() + _NEAR_MISSES + ["KUHN TS, 1962, STRUCTURE", "B C, 1962, V905"] * 3
    path = tmp_path / "export.txt"
    if layout == "tagged":
        blocks = [citing_record(f"WOS:{i}", crs=crs[i::4]) for i in range(4)]
        path.write_text(tagged_export(blocks), encoding="utf-8")
    else:
        # The tab-delimited layout holds each record's CR list in one cell, split at "; ".
        rows = [f"J\tERKENNTNIS\t2010\t{'; '.join(crs[i::4])}\tWOS:{i}\n" for i in range(4)]
        path.write_text("PT\tSO\tPY\tCR\tUT\n" + "".join(rows), encoding="utf-8")
    calls, loaded = [], []

    def counted(line):
        calls.append(line)
        return cited_year(line)

    def load(args, load=rpys.cli._load_corpus):
        loaded.append(load(args))
        return loaded[-1]

    monkeypatch.setattr(rpys.corpus, "cited_year", counted)
    monkeypatch.setattr(rpys.cli, "_load_corpus", load)
    argv = ["drill", "--input", str(path), "--year", "1905", "--out", str(tmp_path / "out")]
    assert rpys.cli.main(argv + (["--author", author] if author else [])) == 0

    (corpus,) = loaded
    assert sorted(calls) == sorted({line for line in crs if "1905" in line})
    assert "by_year" not in vars(corpus)


# Reference drill: one key per cited-reference line, a full sort, and a
# scan of every reference instead of the year index.


def _sorted_rows(counts, top_k=None):
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]


def _per_line_work_rows(refs, top_k=None):
    works = Counter(refs)
    return tuple(
        WorkShare(key, count, round_share(count, len(refs)))
        for key, count in _sorted_rows(works, top_k)
    )


def _per_line_drill_year(corpus, year, top_k):
    refs = [ref for ref in corpus.iter_refs() if ref.year == year]
    total = len(refs)
    names = (ref.author for ref in refs)
    authors = Counter(name for name in names if name != UNKNOWN_AUTHOR)
    return YearProfile(
        year=year,
        total_refs=total,
        author_rows=tuple(
            AuthorShare(name, count, round_share(count, total))
            for name, count in _sorted_rows(authors, top_k)
        ),
        work_rows=_per_line_work_rows(refs, top_k),
        unattributed=total - sum(authors.values()),
    )


def _per_line_author_breakdown(corpus, author, year):
    refs = [ref for ref in corpus.iter_refs() if ref.year == year]
    refs = [ref for ref in refs if ref.author == author]
    return AuthorWorkBreakdown(author, year, len(refs), _per_line_work_rows(refs))


# Near-twins that normalize to one RefKey (and "[Anonymous]"/"Anonymous",
# one key under two first authors), year-less and author-less lines, and
# repeated authors with several works, so counts tie and keys merge.
_DRILL_LINES = [
    "Einstein A., 1905, ANN PHYS-BERLIN, V17",
    "EINSTEIN A, 1905, ANN PHYS-BERLIN, V17",
    "EINSTEIN A, 1905, ANN. PHYS-BERLIN, V17",
    "EINSTEIN A, 1905, ANN PHYS-BERLIN, V17, P891",
    "POINCARE H, 1905, CR HEBD ACAD SCI, V140",
    "[Anonymous], 1905, X",
    "Anonymous, 1905, X",
    "1905, ANON PAMPHLET",
    "UNKNOWN, 1905, X",
    "HUME D, TREATISE",
    "KUHN TS, 1962, STRUCTURE SCI REVOLU",
    "Kuhn TS, 1962, Structure Sci Revolu",
    "KUHN TS, 1962, J UNIFIED INQ",
    "1962, UNSIGNED NOTE",
    *_NEAR_MISSES,
]
_lines_st = st.lists(
    st.one_of(
        st.sampled_from(_DRILL_LINES),
        st.builds(
            "{} A, {}, SRC {}".format,
            st.sampled_from(["P", "P A", "P AB", "PA"]),
            st.sampled_from([1905, 1962]),
            st.sampled_from("XY"),
        ),
        st.text(max_size=20).filter(str.strip),
        st.lists(st.sampled_from(["1905", "1962", "0", ", ", " ", "V", "A B"]), min_size=1)
        .map("".join)
        .filter(str.strip),
    ),
    max_size=12,
)


@st.composite
def _drill_corpora(draw):
    """A corpus from build_corpus or a hand-built one (records may cite nothing)."""
    cited = draw(st.lists(_lines_st, max_size=6))
    if draw(st.booleans()):
        raws = [
            RawRecord({"UT": [f"WOS:{i}"], "SO": ["J"], "PY": ["2010"], "CR": crs})
            for i, crs in enumerate(cited)
            if crs
        ]
        return build_corpus(raws)[0]
    return Corpus(tuple(Record(f"R{i}", "J", 2010, tuple(crs)) for i, crs in enumerate(cited)))


@settings(max_examples=300, deadline=None)
@given(_drill_corpora())
def test_drills_match_per_line_reference(corpus):
    years = sorted({ref.year for ref in corpus.iter_refs()} - {None}) + [1777]
    for year in years:
        for top_k in (1, 2, 3, 10, 1000):
            assert drill_year(corpus, year, top_k) == _per_line_drill_year(corpus, year, top_k)
        authors = {ref.author for ref in corpus.iter_refs() if ref.year == year}
        for author in sorted(authors - {UNKNOWN_AUTHOR}) + ["ABSENT Z"]:
            assert author_breakdown(corpus, author, year) == _per_line_author_breakdown(
                corpus, author, year
            )
    peaks = [Peak(year, Fraction(1), 1, rank) for rank, year in enumerate(reversed(years), 1)]
    for top_k in (1, 3):
        assert profile_all_peaks(corpus, peaks, top_k) == [
            _per_line_drill_year(corpus, year, top_k) for year in sorted(years)
        ]


@settings(max_examples=300, deadline=None)
@given(_drill_corpora())
def test_author_rows_agree_with_work_keys(corpus):
    # An author row is named by its works' key author: it counts exactly the
    # works under that name, and its breakdown finds them all.
    for year in sorted({ref.year for ref in corpus.iter_refs()} - {None}):
        profile = drill_year(corpus, year, 1000)
        by_author = Counter()
        for work in profile.work_rows:
            by_author[work.key.author] += work.count
        for row in profile.author_rows:
            assert row.count == by_author[row.name]
            assert row.count == author_breakdown(corpus, row.name, year).total_refs
        assert profile.unattributed == by_author[UNKNOWN_AUTHOR]


def _mentioned_years(corpus):
    """Every year in 1000..2100 whose digits some CR string contains."""
    found = {
        int(digits)
        for record in corpus.records
        for line in record.cited_refs
        for digits in re.findall("(?=([0-9]{4}))", line)
    }
    return sorted(year for year in found if 1000 <= year <= 2100)


@settings(max_examples=200, deadline=None)
@given(_drill_corpora())
def test_year_scan_matches_year_index(corpus):
    years = _mentioned_years(corpus) + [1777]
    scanned = {year: corpus.year_lines(year) for year in years}
    assert "by_year" not in vars(corpus)
    assert scanned == {year: corpus.by_year.get(year, Counter()) for year in years}

    drilled_first = Corpus(corpus.records)
    drills = [drill_year(drilled_first, year) for year in years]
    spectrum = compute_spectrum(drilled_first)
    spectrum_first = Corpus(corpus.records)
    assert compute_spectrum(spectrum_first) == spectrum
    assert [drill_year(spectrum_first, year) for year in years] == drills


def test_parse_called_once_per_distinct_string_per_corpus(monkeypatch, drill_corpus):
    # The first drill of a year parses each of its distinct strings to its
    # key; every later query on the same corpus reads those keys back from
    # Corpus.year_works.
    keyed = []

    def counted(line):
        keyed.append(line)
        return parse_cited_reference(line)

    monkeypatch.setattr(rpys.corpus, "parse_cited_reference", counted)
    lines = drill_corpus.by_year[1905]
    assert (lines.total(), len(lines)) == (100, 70)

    first = drill_year(drill_corpus, 1905)
    assert sorted(keyed) == sorted(lines)

    keyed.clear()
    assert author_breakdown(drill_corpus, "EINSTEIN A", 1905).total_refs == 24
    assert keyed == []
    assert drill_year(drill_corpus, 1905) == first
    assert keyed == []
    assert profile_all_peaks(drill_corpus, [Peak(1905, Fraction(1), 100, 1)]) == [first]
    assert keyed == []


@pytest.mark.parametrize("index_first", [False, True])
def test_drilled_year_is_not_read_again(monkeypatch, drill_corpus, index_first):
    # Once a year is drilled, its queries read Corpus.year_works alone: no
    # string of the year is scanned for its year or parsed again,
    # whether the year index was built before that drill, after it or never.
    calls = Counter()

    def counted(name):
        original = getattr(rpys.corpus, name)

        def wrapper(arg):
            calls[name] += 1
            return original(arg)

        return wrapper

    for name in ("cited_year", "parse_cited_reference"):
        monkeypatch.setattr(rpys.corpus, name, counted(name))
    if index_first:
        drill_corpus.by_year  # builds the year index
    first = drill_year(drill_corpus, 1905)
    assert calls["parse_cited_reference"] == 70

    for index_built in (index_first, True):
        assert ("by_year" in vars(drill_corpus)) == index_built
        calls.clear()
        assert drill_year(drill_corpus, 1905) == first
        assert author_breakdown(drill_corpus, "EINSTEIN A", 1905).total_refs == 24
        assert profile_all_peaks(drill_corpus, [Peak(1905, Fraction(1), 100, 1)]) == [first]
        assert calls == Counter()
        drill_corpus.by_year  # builds the year index, if not yet built


def test_drilled_year_is_not_tallied_or_ranked_again(monkeypatch, drill_corpus):
    # A year's first drill tallies and ranks its works and authors in full and
    # builds every share row; every later query of the year slices those rows,
    # at any top_k, so it builds no Counter, ranks nothing and builds no row.
    # An author's first breakdown builds its author's rows only, with shares
    # within the author; a later one builds nothing.
    calls = Counter()
    counter_init, ranked = Counter.__init__, rpys.corpus._ranked

    def counted_init(self, *args, **kwargs):
        calls["Counter"] += 1
        counter_init(self, *args, **kwargs)

    def counted_ranked(*args):
        calls["_ranked"] += 1
        return ranked(*args)

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    first = drill_year(drill_corpus, 1905, 1)
    monkeypatch.setattr(Counter, "__init__", counted_init)
    monkeypatch.setattr(rpys.corpus, "_ranked", counted_ranked)
    for row_type in (AuthorShare, WorkShare):  # named tuples: a row is built by __new__
        monkeypatch.setattr(row_type, "__new__", counted(row_type.__name__, row_type.__new__))
    monkeypatch.setattr(rpys.corpus, "round_share", counted("round_share", round_share))
    profiles = [drill_year(drill_corpus, 1905, top_k) for top_k in _TOP_KS]
    peaks = profile_all_peaks(drill_corpus, [Peak(1905, Fraction(1), 100, 1)], 3)
    assert not calls
    rows = profiles[-1].author_rows
    breakdowns = []
    for row in rows:
        breakdowns.append(author_breakdown(drill_corpus, row.name, 1905))
        built = len(breakdowns[-1].rows)
        assert calls == {"WorkShare": built, "round_share": built}
        calls.clear()
    # An author's later breakdown is its first, kept in the year's memo entry.
    for row, breakdown in zip(rows, breakdowns):
        assert author_breakdown(drill_corpus, row.name, 1905) is breakdown
    assert not calls
    monkeypatch.undo()

    assert profiles[0] == first
    assert [len(p.author_rows) for p in profiles] == [1, 2, 3, 10, 68]
    assert [len(p.work_rows) for p in profiles] == [1, 2, 3, 10, 70]
    assert peaks == [profiles[2]]
    assert sum(b.total_refs for b in breakdowns) == 100 - first.unattributed
    assert sum(len(b.rows) for b in breakdowns) == 70 - sum(
        row.key.author == UNKNOWN_AUTHOR for row in profiles[-1].work_rows
    )


@pytest.mark.parametrize("index_first", [False, True])
def test_repeat_drill_returns_its_kept_profile(monkeypatch, drill_corpus, index_first):
    # A year's entry keeps its last top-k profile: a repeat drill or peak
    # profile at that top_k returns the same object and builds no
    # YearProfile, before or after the year index is built; another top_k
    # slices once and takes the one slot.
    built = []
    new = YearProfile.__new__

    def counted_new(cls, *args):
        built.append(args)
        return new(cls, *args)

    if index_first:
        drill_corpus.by_year  # builds the year index
    oracle = Corpus(drill_corpus.records)
    peaks = [Peak(1905, Fraction(1), 100, 1)]
    for index_built in (index_first, True):
        assert ("by_year" in vars(drill_corpus)) == index_built
        for top_k in (3, 10, 3):
            first = drill_year(drill_corpus, 1905, top_k)
            assert first == _per_line_drill_year(oracle, 1905, top_k)
            assert drill_corpus.year_works(1905)[2:] == [top_k, first]
            monkeypatch.setattr(YearProfile, "__new__", counted_new)
            assert drill_year(drill_corpus, 1905, top_k) is first
            (kept,) = profile_all_peaks(drill_corpus, peaks, top_k)
            assert kept is first
            assert profile_all_peaks(drill_corpus, peaks, top_k)[0] is kept
            assert not built
            monkeypatch.undo()
        drill_corpus.by_year  # builds the year index, if not yet built


_rank_counts = st.one_of(
    st.dictionaries(st.text(max_size=3), st.integers(1, 3)),
    st.dictionaries(
        st.builds(
            RefKey,
            st.sampled_from(["A", "B", UNKNOWN_AUTHOR]),
            st.integers(1904, 1906),
            st.sampled_from(["", "X", "Y"]),
            st.sampled_from(["", "1"]),
            st.sampled_from(["", "P"]),
        ),
        st.integers(1, 3),
    ),
).map(Counter)


@settings(max_examples=300, deadline=None)
@given(_rank_counts)
def test_ranked_matches_a_keyed_sort(counts):
    # Counts of 1..3 tie often, so most rows are ordered by their item.
    total = counts.total()
    assert rpys.corpus._ranked(WorkShare, counts, total) == tuple(
        WorkShare(item, n, round_share(n, total))
        for item, n in sorted(counts.items(), key=lambda p: (-p[1], p[0]))
    )


_TOP_KS = [1, 2, 3, 10, 1000]


@settings(max_examples=200, deadline=None)
@given(_drill_corpora(), st.data())
def test_shared_corpus_answers_match_a_fresh_corpus(corpus, data):
    # One corpus answers a random run of queries, its per-year memo
    # filling as they go, with the year index built at a random point or
    # never; each answer equals the per-line oracle on a fresh corpus.
    # Afterwards each year's entry holds one sliced profile, the last
    # top_k's, however many top_k values were asked.
    fresh = Corpus(corpus.records)
    years = sorted({ref.year for ref in fresh.iter_refs()} - {None}) + [1777]
    authors = sorted({ref.author for ref in fresh.iter_refs()} - {UNKNOWN_AUTHOR}) + ["ABSENT Z"]
    queries = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["drill", "breakdown", "all_peaks"]),
                st.sampled_from(years),
                st.sampled_from(authors),
                st.sampled_from(_TOP_KS),
                st.lists(st.sampled_from(years), unique=True),
            ),
            max_size=12,
        )
    )
    index_at = data.draw(st.integers(0, len(queries)))
    last_top_k = {}
    for i, (kind, year, author, top_k, peak_years) in enumerate(queries):
        if i == index_at:
            assert "by_year" not in vars(corpus)
            corpus.by_year  # builds the year index
        oracle = Corpus(corpus.records)
        if kind == "drill":
            assert drill_year(corpus, year, top_k) == _per_line_drill_year(oracle, year, top_k)
            last_top_k[year] = top_k
        elif kind == "breakdown":
            assert author_breakdown(corpus, author, year) == _per_line_author_breakdown(
                oracle, author, year
            )
        else:
            peaks = [Peak(y, Fraction(1), 1, rank) for rank, y in enumerate(peak_years, 1)]
            assert profile_all_peaks(corpus, peaks, top_k) == [
                _per_line_drill_year(oracle, y, top_k) for y in sorted(peak_years)
            ]
            last_top_k.update(dict.fromkeys(peak_years, top_k))
    oracle = Corpus(corpus.records)
    for year in years:
        full, _, top_k, sliced = corpus.year_works(year)
        assert full == _per_line_drill_year(oracle, year, 10**6)
        assert top_k == last_top_k.get(year, 0)
        assert sliced == (_per_line_drill_year(oracle, year, top_k) if top_k else None)


@settings(max_examples=200, deadline=None)
@given(_drill_corpora())
def test_narrow_then_wide_drills_match_per_line_reference(corpus):
    # Each year is first drilled at top_k=1, then at every top_k, with a
    # breakdown of each author row in between: a wider query still sees the
    # year's full ranking.
    oracle = Corpus(corpus.records)
    years = sorted({ref.year for ref in oracle.iter_refs()} - {None}) + [1777]
    for year in years:
        for top_k in [1, *_TOP_KS]:
            profile = drill_year(corpus, year, top_k)
            assert profile == _per_line_drill_year(oracle, year, top_k)
            for row in profile.author_rows:
                assert author_breakdown(corpus, row.name, year) == _per_line_author_breakdown(
                    oracle, row.name, year
                )


@pytest.mark.parametrize("author", ["[Anonymous]", "*US DEP ENERGY", "O'NEILL J"])
def test_parsed_first_author_is_its_drill_row_name(author):
    # The parser and the drill name an author by one normalization.
    line = f"{author}, 1950, LETTER"
    profile = drill_year(corpus_of_lines([line]), 1950)
    assert [row.name for row in profile.author_rows] == [parse_cited_reference(line).author]


# WoS writes "[Anonymous]" for a work with no author and puts "*" before a
# corporate author.  The author row, the work key and --author all read one
# name: the author segment's key_token.
@pytest.mark.parametrize(
    "raw, name, slug",
    [
        ("[Anonymous]", "ANONYMOUS", "anonymous"),
        ("*US DEP ENERGY", "US DEP ENERGY", "us_dep_energy"),
    ],
)
def test_cli_punctuated_author_is_its_key_author(tmp_path, capsys, raw, name, slug):
    crs = [f"{raw}, 1950, LETTER"] * 2 + ["SMITH J, 1950, NATURE"]
    path = tmp_path / "export.txt"
    path.write_text(tagged_export([citing_record("WOS:1", crs=crs)]), encoding="utf-8")
    base = ["drill", "--input", str(path), "--year", "1950"]

    assert rpys.cli.main([*base, "--out", str(tmp_path / "year")]) == 0
    profile = json.loads((tmp_path / "year" / "profile_1950.json").read_text(encoding="utf-8"))
    assert profile["authors"][0] == {"name": name, "count": 2, "share": 66.7}
    assert profile["works"][0]["key"] == f"{name}, 1950, LETTER"
    assert profile["unattributed"] == 0

    written = []
    for i, author in enumerate([name, raw]):
        capsys.readouterr()
        out = tmp_path / f"author{i}"
        assert rpys.cli.main([*base, "--author", author, "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith(f"{name}, 1950: 2 cited references\n")
        written.append((out / f"breakdown_1950_{slug}.json").read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0])["total_refs"] == 2


def test_cli_breakdown_file_per_author(tmp_path):
    crs = ["SMITH J, 1950, NATURE"] * 2 + ["SMITH-J, 1950, SCIENCE"]
    path = tmp_path / "export.txt"
    path.write_text(tagged_export([citing_record("WOS:1", crs=crs)]), encoding="utf-8")
    out = tmp_path / "out"
    for author in ("SMITH J", "SMITH-J"):
        argv = ["drill", "--input", str(path), "--year", "1950", "--author", author]
        assert rpys.cli.main([*argv, "--out", str(out)]) == 0
    totals = {
        p.name: json.loads(p.read_text(encoding="utf-8"))["total_refs"]
        for p in out.glob("breakdown_*")
    }
    assert totals == {"breakdown_1950_smith_j.json": 2, "breakdown_1950_smith-j.json": 1}


def test_cli_breakdown_file_name_fits_for_a_long_author(tmp_path, capsys):
    # Each CJK character quotes to 9 bytes, so this slug alone passes the
    # usual 255-byte file-name limit.
    name = "山" * 30 + " T"
    crs = [f"{name}, 1950, NATURE"] * 3 + ["SMITH J, 1950, NATURE"]
    path = tmp_path / "export.txt"
    path.write_text(tagged_export([citing_record("WOS:1", crs=crs)]), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["drill", "--input", str(path), "--year", "1950", "--author", name]
    assert rpys.cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    (written,) = out.glob("breakdown_*")
    assert len(written.name.encode()) <= 255
    assert json.loads(written.read_text(encoding="utf-8"))["total_refs"] == 3


# "K" and "k" beside the Kelvin sign, whose lowercase is ASCII "k".  Names
# repeated up to 300 times run past the file-name limit, so their slugs are
# cut and share long prefixes.
_names_st = st.tuples(st.text("AKZakz09 -_%.~,ßé\u212a\u4e00\x00"), st.integers(1, 300))


@given(st.lists(_names_st.map(lambda p: key_token(p[0] * p[1])), unique=True))
def test_slug_is_one_to_one_on_normalized_names(names):
    slugs = {rpys.cli._slug(name) for name in names}
    assert len(slugs) == len(names)
    for slug in slugs:
        assert len(f"breakdown_2100_{slug}.json".encode()) <= 255
        assert re.fullmatch("([^%]|%[0-9a-f]{2})*", slug)


@given(
    st.lists(st.text("AZ09", min_size=1), min_size=1)
    .map(" ".join)
    .filter(lambda name: len(name) <= rpys.cli._SLUG_MAX)
)
def test_slug_keeps_plain_names(name):
    # Names of A-Z, 0-9 and single spaces keep the file names they always had,
    # up to the length past which a slug is cut and hashed.
    assert rpys.cli._slug(name) == re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_").lower()
