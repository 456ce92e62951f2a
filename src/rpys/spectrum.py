"""Citation-year spectrum, five-year-median deviation, peak detection.

The spectrum N(y) counts cited references per referenced publication
year.  The deviation series d(y) = N(y) - median{N(y-2)..N(y+2)} smooths
secular growth out of the curve; positive spikes of d(y) mark the years
whose heavily cited works form a field's historical roots.

Medians and deviations are exact rationals (an even-width window's
median is the mean of the two middle values, so half-integral values
occur).  Floats would drift under equality testing; Fractions do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .corpus import Corpus
from .wos import MAX_RPY

DEFAULT_MIN_RPY = 1500


@dataclass(frozen=True, slots=True)
class Spectrum:
    """Dense per-year cited-reference counts over an inclusive year range.

    ``year_range`` is None for an empty spectrum.  Years with no
    references inside the range hold explicit zeros.  Every reference of
    the corpus lands in exactly one of ``total``, ``dropped_out_of_range``
    and ``without_year``.
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


@dataclass(frozen=True, slots=True)
class DeviationSeries:
    """Per-year count, clipped five-year median, and deviation."""

    year_range: tuple[int, int]
    n_cr: tuple[int, ...]
    median5: tuple[Fraction, ...]
    deviation: tuple[Fraction, ...]

    def years(self) -> range:
        return range(self.year_range[0], self.year_range[1] + 1)

    def rows(self):
        for i, year in enumerate(self.years()):
            yield year, self.n_cr[i], self.median5[i], self.deviation[i]

    def row(self, year: int) -> tuple[int, Fraction, Fraction]:
        i = year - self.year_range[0]
        if not 0 <= i < len(self.n_cr):
            raise KeyError(year)
        return self.n_cr[i], self.median5[i], self.deviation[i]


@dataclass(frozen=True, slots=True)
class Peak:
    """A positive local maximum of the deviation series."""

    year: int
    deviation: Fraction
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
        newest = corpus.max_pub_year
        lo, hi = DEFAULT_MIN_RPY, newest if newest is not None else MAX_RPY

    by_year = corpus.by_year
    without_year = len(by_year.get(None, ()))
    counter = {
        year: len(refs)
        for year, refs in by_year.items()
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


def _window_median(counts: tuple[int, ...], center: int) -> Fraction:
    # Window clipped at the edges, never zero-padded: padding would
    # fabricate artificial peaks at the ends of the range.
    window = sorted(counts[max(0, center - 2) : center + 3])
    n = len(window)
    mid = n // 2
    if n % 2:
        return Fraction(window[mid])
    return Fraction(window[mid - 1] + window[mid], 2)


def median_deviation(spectrum: Spectrum) -> DeviationSeries:
    """Five-year-median smoothing of a spectrum.

    Each year's median is taken over {y-2 .. y+2} intersected with the
    year range (3 values at the extreme ends, 4 next to them), and the
    deviation is count minus median, exactly.
    """
    if spectrum.year_range is None:
        raise ValueError("cannot smooth an empty spectrum")
    counts = spectrum.counts
    medians = tuple(_window_median(counts, i) for i in range(len(counts)))
    deviations = tuple(Fraction(c) - m for c, m in zip(counts, medians))
    return DeviationSeries(
        year_range=spectrum.year_range,
        n_cr=counts,
        median5=medians,
        deviation=deviations,
    )


def _as_fraction(value) -> Fraction:
    # Floats arrive from the command line as decimal strings; convert
    # through str so 0.1 means 1/10, not its binary approximation.
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"min_deviation must be finite, got {value!r}")
        return Fraction(str(value))
    return Fraction(value)


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
    reproduce.  Result is sorted by deviation descending then year
    ascending and truncated to ``top_k`` when given.
    """
    threshold = _as_fraction(min_deviation)
    dev = series.deviation
    start = series.year_range[0]
    hits: list[tuple[Fraction, int]] = []
    for i, d in enumerate(dev):
        if d <= threshold:
            continue
        if i > 0 and not d > dev[i - 1]:
            continue
        if i + 1 < len(dev) and not d >= dev[i + 1]:
            continue
        hits.append((d, start + i))

    hits.sort(key=lambda item: (-item[0], item[1]))
    if top_k is not None:
        hits = hits[:top_k]
    return [
        Peak(year=year, deviation=d, n_cr=series.row(year)[0], rank=rank)
        for rank, (d, year) in enumerate(hits, start=1)
    ]
