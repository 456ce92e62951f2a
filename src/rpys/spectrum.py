"""Citation-year spectrum, five-year-median deviation, peak detection.

The spectrum N(y) counts cited references per referenced publication
year.  The deviation series d(y) = N(y) - median{N(y-2)..N(y+2)} smooths
secular growth out of the curve; positive spikes of d(y) mark the years
whose heavily cited works form a field's historical roots.

Medians and deviations are floats.  A median is a count or the mean of
two counts, so every median and deviation is a multiple of 1/2, which a
float holds exactly while counts stay at or below 2**52: the series
compares equal to exact rationals, and one decimal prints it exactly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .corpus import Corpus

__all__ = [
    "Spectrum",
    "DeviationSeries",
    "Peak",
    "compute_spectrum",
    "median_deviation",
    "detect_peaks",
]

DEFAULT_MIN_RPY = 1500


class Spectrum(NamedTuple):
    """Dense per-year cited-reference counts over an inclusive year range.

    ``year_range`` is None for an empty spectrum.  Years with no
    references inside the range hold explicit zeros.  Every reference of
    the corpus lands in exactly one of ``total``, ``dropped_out_of_range``
    and ``without_year``.  A named tuple, so a plain tuple too.
    """

    year_range: tuple[int, int] | None
    counts: tuple[int, ...]
    dropped_out_of_range: int = 0
    without_year: int = 0

    @property
    def is_empty(self) -> bool:
        return self.year_range is None

    @property
    def total(self) -> int:
        return sum(self.counts)

    def years(self) -> range:
        if self.year_range is None:
            return range(0)
        return range(self.year_range[0], self.year_range[1] + 1)

    def count_at(self, year: int) -> int:
        if self.year_range is None or not self.year_range[0] <= year <= self.year_range[1]:
            return 0
        return self.counts[year - self.year_range[0]]


class DeviationSeries(NamedTuple):
    """Per-year count, clipped five-year median, and deviation, a plain tuple too."""

    year_range: tuple[int, int]
    n_cr: tuple[int, ...]
    median5: tuple[float, ...]
    deviation: tuple[float, ...]

    def years(self) -> range:
        return range(self.year_range[0], self.year_range[1] + 1)

    def rows(self):
        for i, year in enumerate(self.years()):
            yield year, self.n_cr[i], self.median5[i], self.deviation[i]

    def row(self, year: int) -> tuple[int, float, float]:
        i = year - self.year_range[0]
        if not 0 <= i < len(self.n_cr):
            raise KeyError(year)
        return self.n_cr[i], self.median5[i], self.deviation[i]


class Peak(NamedTuple):
    """A positive local maximum of the deviation series, a plain tuple too."""

    year: int
    deviation: float
    n_cr: int
    rank: int


def compute_spectrum(
    corpus: Corpus,
    valid_range: tuple[int, int] | None = None,
) -> Spectrum:
    """Count cited references per referenced publication year.

    Only references whose year falls inside ``valid_range`` are counted;
    years outside it increment ``dropped_out_of_range`` and year-less
    references increment ``without_year``.  An explicit ``valid_range``
    also pins the reported axis to the full range.  The default range is
    [1500, max citing publication year], wide enough for genuinely old
    sources but excluding mangled years, and its axis is trimmed to the
    first and last nonzero years; when every citing year precedes 1500
    it is empty and every dated reference is out of range.
    """
    if valid_range is not None:
        lo, hi = valid_range
        if lo > hi:
            raise ValueError(f"invalid year range {lo}:{hi}")
    else:
        lo, hi = DEFAULT_MIN_RPY, corpus.max_pub_year

    by_year = corpus.by_year
    without_year = by_year[None].total() if None in by_year else 0
    counter = {
        year: lines.total()
        for year, lines in by_year.items()
        if year is not None and lo <= year <= hi
    }
    dropped = corpus.total_cited_refs - without_year - sum(counter.values())

    if valid_range is not None:
        first, last = lo, hi
    elif counter:
        first, last = min(counter), max(counter)
    else:
        return Spectrum(None, (), dropped, without_year)

    counts = tuple(counter.get(y, 0) for y in range(first, last + 1))
    return Spectrum((first, last), counts, dropped, without_year)


def _window_median(counts: tuple[int, ...], center: int) -> float:
    # Window clipped at the edges, never zero-padded: padding would
    # fabricate artificial peaks at the ends of the range.
    window = sorted(counts[max(0, center - 2) : center + 3])
    n = len(window)
    mid = n // 2
    if n % 2:
        return float(window[mid])
    return (window[mid - 1] + window[mid]) / 2


def median_deviation(spectrum: Spectrum) -> DeviationSeries:
    """Five-year-median smoothing of a spectrum.

    Each year's median is taken over {y-2 .. y+2} intersected with the
    year range (3 values at the extreme ends, 4 next to them), and the
    deviation is count minus median.  Both are floats, exact while every
    count is at most 2**52.
    """
    if spectrum.year_range is None:
        raise ValueError("cannot smooth an empty spectrum")
    counts = spectrum.counts
    medians = tuple(_window_median(counts, i) for i in range(len(counts)))
    deviations = tuple(c - m for c, m in zip(counts, medians))
    return DeviationSeries(
        year_range=spectrum.year_range,
        n_cr=counts,
        median5=medians,
        deviation=deviations,
    )


def detect_peaks(
    series: DeviationSeries,
    min_deviation=0,
    top_k: int | None = None,
) -> list[Peak]:
    """Positive local maxima of the deviation series.

    A year is a peak iff its deviation exceeds ``min_deviation``, is
    strictly greater than the left neighbor and at least the right
    neighbor (missing neighbors count as minus infinity), so an exact
    plateau resolves to its leftmost year.  A formal peak definition is
    a deliberate choice here: eyeballing a plotted curve does not
    reproduce.  ``min_deviation`` is compared as given, unconverted, so
    an int, float or rational threshold is compared exactly.  Result is
    sorted by deviation descending then year ascending and truncated to
    ``top_k`` when given; ``None`` keeps all.
    """
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be at least 1")
    if not -math.inf < min_deviation < math.inf:
        raise ValueError(f"min_deviation must be finite, got {min_deviation!r}")
    dev = series.deviation
    start = series.year_range[0]
    hits: list[tuple[float, int]] = []
    for i, d in enumerate(dev):
        if d <= min_deviation:
            continue
        if i > 0 and not d > dev[i - 1]:
            continue
        if i + 1 < len(dev) and not d >= dev[i + 1]:
            continue
        hits.append((d, start + i))

    hits.sort(key=lambda item: (-item[0], item[1]))
    return [
        Peak(year=year, deviation=d, n_cr=series.row(year)[0], rank=rank)
        for rank, (d, year) in enumerate(hits[:top_k], start=1)  # [:None] keeps all
    ]
