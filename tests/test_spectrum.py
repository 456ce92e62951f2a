"""Spectrum counting, five-year-median smoothing, peak detection."""

from __future__ import annotations

import re
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpys import (
    Corpus,
    DeviationSeries,
    Record,
    compute_spectrum,
    detect_peaks,
    median_deviation,
)
from rpys.cli import main

from conftest import citing_record, tagged_export


def corpus_of_years(years, pub_year=2013):
    refs = tuple(f"AUTHOR A, {y}, SRC" for y in years)
    record = Record(uid="R1", journal="J TEST", pub_year=pub_year, cited_refs=refs)
    return Corpus((record,))


def spectrum_of_counts(counts, start=1900):
    from rpys import Spectrum

    return Spectrum(year_range=(start, start + len(counts) - 1), counts=tuple(counts))


def oracle_medians(counts):
    """Independent clipped-window median: statistics.median over Fractions."""
    return [
        statistics.median([Fraction(c) for c in counts[max(0, i - 2) : i + 3]])
        for i in range(len(counts))
    ]


def series_of_deviations(devs, start=2000):
    """detect_peaks input with the deviations set directly."""
    return DeviationSeries(
        year_range=(start, start + len(devs) - 1),
        n_cr=tuple(max(0, int(d)) for d in devs),
        median5=tuple(Fraction(0) for _ in devs),
        deviation=tuple(Fraction(d) for d in devs),
    )


def is_peak(devs, i, threshold=Fraction(0)):
    """The local-max predicate, restated independently of detect_peaks."""
    if devs[i] <= threshold:
        return False
    if i > 0 and devs[i] <= devs[i - 1]:
        return False
    if i + 1 < len(devs) and devs[i] < devs[i + 1]:
        return False
    return True


class TestComputeSpectrum:
    def test_empty_corpus(self):
        spectrum = compute_spectrum(Corpus(()))
        assert spectrum.is_empty
        assert spectrum.counts == ()
        assert spectrum.dropped_out_of_range == 0

    def test_pinned_range_zero_fills(self):
        spectrum = compute_spectrum(corpus_of_years([1905, 1905, 1950]), (1900, 1950))
        assert spectrum.year_range == (1900, 1950)
        assert len(spectrum.counts) == 51
        assert spectrum.count_at(1905) == 2
        assert spectrum.count_at(1950) == 1
        assert spectrum.total == 3

    def test_out_of_range_year_dropped(self):
        # A parsed year is never below 1000; the default floor is 1500.
        record = Record(
            uid="R1",
            journal="J TEST",
            pub_year=2013,
            cited_refs=("SCRIBE A, 1205, OLD SCROLL",),
        )
        spectrum = compute_spectrum(Corpus((record,)))
        assert spectrum.dropped_out_of_range == 1
        assert spectrum.is_empty

    def test_axis_trims_to_nonzero_span(self):
        spectrum = compute_spectrum(corpus_of_years([1905, 1950]))
        assert spectrum.year_range == (1905, 1950)
        assert spectrum.counts[0] == 1 and spectrum.counts[-1] == 1

    def test_default_upper_bound_is_citing_year(self):
        spectrum = compute_spectrum(corpus_of_years([2050, 2012], pub_year=2012))
        assert spectrum.dropped_out_of_range == 1
        assert spectrum.count_at(2012) == 1

    def test_default_lower_bound_excludes_mangled_years(self):
        spectrum = compute_spectrum(corpus_of_years([1499, 1905]))
        assert spectrum.dropped_out_of_range == 1
        assert spectrum.count_at(1905) == 1

    def test_default_lower_bound_is_1500_inclusive(self):
        spectrum = compute_spectrum(corpus_of_years([1499, 1500]))
        assert spectrum.count_at(1500) == 1
        assert spectrum.dropped_out_of_range == 1

    def test_citing_years_before_default_window_drop_every_dated_ref(self):
        spectrum = compute_spectrum(corpus_of_years([1400, 1905], pub_year=1400))
        assert spectrum.is_empty
        assert spectrum.dropped_out_of_range == 2

    def test_yearless_refs_not_counted_or_dropped(self):
        refs = ("HUME D, TREATISE", "A B, 1905, X")
        record = Record(uid="R1", journal="J", pub_year=2000, cited_refs=refs)
        spectrum = compute_spectrum(Corpus((record,)))
        assert spectrum.total == 1
        assert spectrum.dropped_out_of_range == 0
        assert spectrum.without_year == 1

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            compute_spectrum(corpus_of_years([1905]), (2000, 1900))


class TestMedianDeviation:
    def test_constant_series_deviates_nowhere(self):
        series = median_deviation(spectrum_of_counts([5, 5, 5, 5, 5]))
        assert all(d == 0 for d in series.deviation)

    def test_single_spike(self):
        series = median_deviation(spectrum_of_counts([1, 2, 10, 2, 1], start=1901))
        n, median, deviation = series.row(1903)
        assert (n, median, deviation) == (10, Fraction(2), Fraction(8))

    def test_clipped_left_window(self):
        series = median_deviation(spectrum_of_counts([1, 2, 10, 2, 1], start=1901))
        n, median, deviation = series.row(1901)
        assert median == Fraction(2)  # median of the clipped {1901..1903} window
        assert deviation == Fraction(-1)

    def test_even_window_median_is_half_integral(self):
        series = median_deviation(spectrum_of_counts([0, 1, 1, 0]))
        assert series.median5[1] == Fraction(1, 2)
        assert series.deviation[1] == Fraction(1, 2)

    def test_empty_spectrum_rejected(self):
        from rpys import Spectrum

        with pytest.raises(ValueError):
            median_deviation(Spectrum(year_range=None, counts=()))

    def test_deviation_equals_count_minus_median(self):
        series = median_deviation(spectrum_of_counts([3, 0, 7, 7, 2, 9]))
        for _, n, median, deviation in series.rows():
            assert deviation == n - median

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 10000), min_size=1, max_size=50))
    def test_matches_brute_force_oracle(self, counts):
        series = median_deviation(spectrum_of_counts(counts))
        expected = oracle_medians(counts)
        assert list(series.median5) == expected
        assert list(series.deviation) == [Fraction(c) - m for c, m in zip(counts, expected)]

    @pytest.mark.parametrize(
        "counts",
        [
            (2**52 - 3, 2**52, 1, 2**52 - 1, 2, 7, 2**51 + 1),
            (2**52, 2**52 - 1, 0, 0, 2**52 - 1),  # two medians are 2**51 - 1/2
        ],
    )
    def test_exact_for_counts_up_to_2_to_the_52(self, counts):
        series = median_deviation(spectrum_of_counts(counts))
        expected = oracle_medians(counts)
        for i, (count, median) in enumerate(zip(counts, expected)):
            assert series.median5[i] == median
            assert series.deviation[i] == Fraction(count) - median

    @settings(max_examples=100)
    @given(
        st.lists(st.integers(0, 1000), min_size=1, max_size=40),
        st.integers(1, 500),
    )
    def test_shift_invariance(self, counts, c):
        base = median_deviation(spectrum_of_counts(counts))
        shifted = median_deviation(spectrum_of_counts([n + c for n in counts]))
        assert all(s == b + c for s, b in zip(shifted.median5, base.median5))
        assert shifted.deviation == base.deviation

    @settings(max_examples=100)
    @given(
        st.lists(st.integers(0, 1000), min_size=1, max_size=40),
        st.integers(2, 9),
    )
    def test_scale_equivariance(self, counts, k):
        base = median_deviation(spectrum_of_counts(counts))
        scaled = median_deviation(spectrum_of_counts([n * k for n in counts]))
        assert all(s == b * k for s, b in zip(scaled.deviation, base.deviation))
        base_peaks = detect_peaks(base)
        scaled_peaks = detect_peaks(scaled)
        assert [p.year for p in scaled_peaks] == [p.year for p in base_peaks]


class TestDetectPeaks:
    def test_two_peaks_ranked_by_deviation(self):
        peaks = detect_peaks(series_of_deviations([0, 3, 0, 5, 0]))
        assert [(p.rank, p.year, p.deviation) for p in peaks] == [
            (1, 2003, Fraction(5)),
            (2, 2001, Fraction(3)),
        ]

    def test_flat_counts_have_no_peaks(self):
        assert detect_peaks(median_deviation(spectrum_of_counts([2, 2, 2, 2]))) == []
        assert detect_peaks(series_of_deviations([0, 0, 0])) == []

    def test_constant_positive_deviations_peak_at_leftmost(self):
        # Unreachable from real counts, but the plateau rule still
        # resolves deterministically to the earliest year.
        peaks = detect_peaks(series_of_deviations([2, 2, 2, 2]))
        assert [p.year for p in peaks] == [2000]

    def test_increasing_series_peaks_at_final_year(self):
        series = median_deviation(spectrum_of_counts([1, 2, 4, 8, 16], start=1990))
        peaks = detect_peaks(series)
        assert [p.year for p in peaks] == [1994]

    def test_plateau_resolves_to_leftmost_year(self):
        peaks = detect_peaks(series_of_deviations([0, 2, 2, 0]))
        assert [p.year for p in peaks] == [2001]

    def test_min_deviation_threshold_is_strict(self):
        devs = [0, 3, 0, 5, 0]
        assert [p.year for p in detect_peaks(series_of_deviations(devs), 3)] == [2003]
        assert [p.year for p in detect_peaks(series_of_deviations(devs), 5)] == []

    def test_top_k_truncates_after_ranking(self):
        peaks = detect_peaks(series_of_deviations([0, 3, 0, 5, 0]), top_k=1)
        assert [(p.rank, p.year) for p in peaks] == [(1, 2003)]

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_top_k_must_be_positive(self, top_k):
        # -1 would drop the last-ranked peak and 0 every peak, silently.
        with pytest.raises(ValueError, match="top_k must be at least 1"):
            detect_peaks(series_of_deviations([0, 3, 0, 5, 0, 4, 0]), top_k=top_k)

    def test_deviation_ties_rank_earlier_year_first(self):
        peaks = detect_peaks(series_of_deviations([0, 4, 0, 4, 0]))
        assert [(p.rank, p.year) for p in peaks] == [(1, 2001), (2, 2003)]

    def test_fractional_threshold(self):
        peaks = detect_peaks(series_of_deviations([0, 1, 0]), min_deviation=0.5)
        assert [p.year for p in peaks] == [2001]
        assert detect_peaks(series_of_deviations([0, 1, 0]), min_deviation=1.0) == []

    def test_rational_threshold_is_compared_unrounded(self):
        # float(6 - 10**-30) is 6.0, which would drop the deviation-6 peak.
        series = median_deviation(spectrum_of_counts([0, 6, 0]))
        below = detect_peaks(series, min_deviation=Fraction(6) - Fraction(1, 10**30))
        assert [(p.year, p.deviation) for p in below] == [(1901, 6)]
        assert detect_peaks(series, min_deviation=Fraction(6)) == []

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            detect_peaks(series_of_deviations([0, 1, 0]), min_deviation=value)

    @settings(max_examples=150)
    @given(st.lists(st.integers(0, 500), min_size=1, max_size=40))
    def test_every_returned_year_satisfies_predicate(self, counts):
        series = median_deviation(spectrum_of_counts(counts))
        peaks = detect_peaks(series)
        years = [p.year for p in peaks]
        assert len(set(years)) == len(years)
        start = series.year_range[0]
        for peak in peaks:
            assert is_peak(series.deviation, peak.year - start)
        # and no peak year was missed
        found = {
            start + i for i in range(len(counts)) if is_peak(series.deviation, i)
        }
        assert set(years) == found


class TestOneYearSpectrum:
    def test_row_outside_the_range_raises(self):
        series = median_deviation(compute_spectrum(corpus_of_years([1905, 1905]), (1905, 1905)))
        assert series.row(1905) == (2, Fraction(2), Fraction(0))
        for year in (1904, 1906):
            with pytest.raises(KeyError):
                series.row(year)

    def test_plot_centres_the_single_year(self, tmp_path, capsys):
        crs = ["EINSTEIN A, 1905, ANN PHYS-BERLIN, V17, P891", "KUHN TS, 1962, STRUCTURE"]
        path = tmp_path / "one.txt"
        path.write_text(tagged_export([citing_record("WOS:1", crs=crs)]), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["plot", "--input", str(path), "--range", "1905:1905", "--out", str(out)]) == 0
        svg_path = out / "spectrogram.svg"
        assert capsys.readouterr().out == f"wrote {svg_path} (0 peak years labeled)\n"
        svg = svg_path.read_text(encoding="utf-8")
        points = re.findall(r'<polyline class="\w+" points="([^"]*)"/>', svg)
        # Both curves are one point each, at the centre of the x axis.
        assert len(points) == 2
        assert all(re.fullmatch(r"480\.00,\d+\.\d\d", p) for p in points)
