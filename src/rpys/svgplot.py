"""Hand-built SVG spectrogram: counts and deviation over cited years.

The chart is assembled from strings on purpose: a plotting framework
would embed timestamps, random ids, or version-dependent geometry, and
the output here must be byte-identical across runs for the same input.
Two polylines share one y scale -- absolute counts N(y) and the
five-year-median deviation d(y) -- and detected peak years are labeled
above the deviation curve.
"""

from __future__ import annotations

from .spectrum import DeviationSeries, Peak

WIDTH = 920
HEIGHT = 460
MARGIN_LEFT = 64
MARGIN_RIGHT = 24
MARGIN_TOP = 30
MARGIN_BOTTOM = 46
MAX_TICKS = 8  # on either axis

_STYLE = (
    "text { font-family: sans-serif; font-size: 12px; fill: #222222; }\n"
    "  .axis { stroke: #222222; stroke-width: 1; }\n"
    "  .grid { stroke: #dddddd; stroke-width: 1; }\n"
    "  polyline.counts { fill: none; stroke: #1f77b4; stroke-width: 1.5; }\n"
    "  polyline.deviation { fill: none; stroke: #d62728; stroke-width: 1.5; }\n"
    "  .peak-label { fill: #d62728; font-size: 11px; text-anchor: middle; }\n"
    "  .tick-x { text-anchor: middle; }\n"
    "  .tick-y { text-anchor: end; }"
)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_step(span: float) -> float:
    """Smallest 1/2/5-series step giving at most ``MAX_TICKS`` ticks."""
    step = 1.0
    factors = (2.0, 2.5, 2.0)  # walks 1 -> 2 -> 5 -> 10 -> ...
    i = 0
    while span / step > MAX_TICKS:
        step *= factors[i % 3]
        i += 1
    return step


def _line(cls: str, x1: float, y1: float, x2: float, y2: float, style: str = "") -> str:
    """One ``<line>`` element; ``style`` holds any attributes after the end points."""
    return (
        f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
        f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"{style}/>'
    )


def _open_svg(parts: list[str]) -> None:
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    parts.append(f"<style>\n  {_STYLE}\n</style>")
    parts.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')


def _axes(parts: list[str], x0: float, x1: float, y0: float, y1: float) -> None:
    parts.append(_line("axis", x0, y1, x0, y0))
    parts.append(_line("axis", x0, y1, x1, y1))


def render_spectrogram(
    series: DeviationSeries | None, peaks: list[Peak] | None = None
) -> str:
    """Render the spectrogram document; empty input gives bare axes."""
    peaks = peaks or []
    parts: list[str] = []
    _open_svg(parts)

    x0 = float(MARGIN_LEFT)
    x1 = float(WIDTH - MARGIN_RIGHT)
    y0 = float(MARGIN_TOP)
    y1 = float(HEIGHT - MARGIN_BOTTOM)

    if series is None:
        _axes(parts, x0, x1, y0, y1)
        parts.append(
            f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt((y0 + y1) / 2)}" '
            f'class="tick-x">no cited references in range</text>'
        )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    first, last = series.year_range
    devs = series.deviation
    counts = [float(n) for n in series.n_cr]
    v_lo = min(0.0, min(devs))
    v_hi = max(max(counts), 1.0)

    def sx(year: float) -> float:
        if last == first:
            return (x0 + x1) / 2
        return x0 + (year - first) / (last - first) * (x1 - x0)

    def sy(value: float) -> float:
        return y1 - (value - v_lo) / (v_hi - v_lo) * (y1 - y0)

    # Gridlines and tick labels first so the curves draw on top.
    ystep = _tick_step(v_hi - v_lo)
    tick = -(-v_lo // ystep) * ystep  # first multiple of ystep >= v_lo
    while tick <= v_hi:
        py = sy(tick)
        parts.append(_line("grid", x0, py, x1, py))
        label = str(int(tick)) if float(tick).is_integer() else _fmt(tick)
        parts.append(
            f'<text class="tick-y" x="{_fmt(x0 - 8)}" y="{_fmt(py + 4)}">{label}</text>'
        )
        tick += ystep

    xstep = max(1, int(_tick_step(last - first)))
    year = first + (-first) % xstep  # first multiple of xstep >= first
    xticks = list(range(year, last + 1, xstep)) or [first]
    for year in xticks:
        px = sx(year)
        parts.append(_line("axis", px, y1, px, y1 + 5))
        parts.append(
            f'<text class="tick-x" x="{_fmt(px)}" y="{_fmt(y1 + 20)}">{year}</text>'
        )

    _axes(parts, x0, x1, y0, y1)
    if v_lo < 0:
        zero = sy(0.0)
        parts.append(_line("axis", x0, zero, x1, zero))

    years = list(series.years())
    count_pts = " ".join(f"{_fmt(sx(y))},{_fmt(sy(c))}" for y, c in zip(years, counts))
    dev_pts = " ".join(f"{_fmt(sx(y))},{_fmt(sy(d))}" for y, d in zip(years, devs))
    parts.append(f'<polyline class="counts" points="{count_pts}"/>')
    parts.append(f'<polyline class="deviation" points="{dev_pts}"/>')

    for peak in sorted(peaks, key=lambda p: p.year):
        px = sx(peak.year)
        py = max(y0 + 10, sy(peak.deviation) - 8)
        parts.append(
            f'<text class="peak-label" x="{_fmt(px)}" y="{_fmt(py)}">{peak.year}</text>'
        )

    swatch = ' stroke="{}" stroke-width="1.5"'
    parts.append(
        _line("counts-swatch", x0 + 8, y0 - 12, x0 + 28, y0 - 12, swatch.format("#1f77b4"))
    )
    parts.append(
        f'<text x="{_fmt(x0 + 34)}" y="{_fmt(y0 - 8)}">cited references per year</text>'
    )
    parts.append(
        _line("deviation-swatch", x0 + 248, y0 - 12, x0 + 268, y0 - 12, swatch.format("#d62728"))
    )
    parts.append(
        f'<text x="{_fmt(x0 + 274)}" y="{_fmt(y0 - 8)}">deviation from 5-year median</text>'
    )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
