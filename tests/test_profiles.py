"""Year drill-down: share rounding, author/work grouping, peak profiles."""

from __future__ import annotations

import random

import pytest

from rpys import (
    CitedReference,
    Corpus,
    Record,
    UNKNOWN_AUTHOR,
    author_breakdown,
    compute_spectrum,
    detect_peaks,
    drill_year,
    median_deviation,
    parse_cited_reference,
    profile_all_peaks,
    round_share,
)


def corpus_of_lines(lines, pub_year=2013):
    refs = tuple(parse_cited_reference(line) for line in lines)
    record = Record(uid="R1", journal="J", pub_year=pub_year, doc_type="", cited_refs=refs)
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
        refs = [parse_cited_reference(line) for line in lines]
        rng = random.Random(7)
        shuffled = refs[:]
        rng.shuffle(shuffled)
        one = Corpus(
            (Record(uid="R1", journal="J", pub_year=2000, doc_type="", cited_refs=tuple(refs)),)
        )
        two = Corpus(
            tuple(
                Record(uid=f"R{i}", journal="J", pub_year=2000, doc_type="", cited_refs=(ref,))
                for i, ref in enumerate(shuffled)
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
    # Spectrum and every drill read the corpus's one year index.
    corpus = corpus_of_lines(["A A, 1905, S"] * 5 + ["B B, 1962, S"] * 9)
    calls = []
    walk = Corpus.iter_refs

    def counted(self):
        calls.append(self)
        return walk(self)

    monkeypatch.setattr(Corpus, "iter_refs", counted)
    spectrum = compute_spectrum(corpus)
    for year in (1905, 1962, 1777):
        drill_year(corpus, year)
    author_breakdown(corpus, "A A", 1905)
    peaks = detect_peaks(median_deviation(spectrum))
    assert len(profile_all_peaks(corpus, peaks)) == 2
    assert len(calls) == 1
