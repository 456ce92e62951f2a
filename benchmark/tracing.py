"""In-memory spans and exact counts around calls into the rpys layers.

The tracer patches public functions at the module attribute they are
called through (``rpys.cli.load_export``, ``rpys.load_export``, ...) and
restores them on exit.  Nothing under ``src/`` knows it is traced.  A
span is ``(name, start, end, parent, run)``; spans stay in memory and are
handed back once, when the traced phase ends.  Counts are kept at the
same boundaries: calls, CR lines read, parse calls and the diagnostics
each call returned, so per-layer ratios are measured where the work is.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import rpys
import rpys.cli
import rpys.corpus
import rpys.wos

# (span name, function name, modules it is patched in).  rpys.cli holds
# the CLI's call sites; the package namespace holds the benchmark's own
# in-process calls; rpys.wos holds load_export's internal steps.
SPANS = [
    ("wos.load", "load_export", (rpys.cli, rpys)),
    ("wos.decode", "decode_export_bytes", (rpys.wos,)),
    ("wos.parse", "parse_export", (rpys.wos,)),
    ("corpus.build", "build_corpus", (rpys.cli, rpys)),
    ("corpus.stats", "corpus_stats", (rpys.cli, rpys)),
    ("spectrum.compute", "compute_spectrum", (rpys.cli, rpys)),
    ("spectrum.median", "median_deviation", (rpys.cli, rpys)),
    ("spectrum.peaks", "detect_peaks", (rpys.cli, rpys)),
    ("profiles.drill", "drill_year", (rpys.cli, rpys)),
    ("profiles.breakdown", "author_breakdown", (rpys.cli, rpys)),
    ("profiles.all_peaks", "profile_all_peaks", (rpys,)),
    ("svgplot.render", "render_spectrogram", (rpys.cli, rpys)),
]
COUNTED = [(rpys.wos, "parse_cited_reference"), (rpys.corpus, "parse_cited_reference")]


class Tracer:
    """Spans and counts for one traced phase, labelled ``run``."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[tuple[str, float, float, int | None, str]] = []
        self.counts: Counter = Counter()
        self.calls: list[dict] = []  # per-call diagnostics, checked against truth
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.run))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.run)

    def add_span(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, start, end, parent, self.run))

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _count(self, fn):
        counts = self.counts

        def counted(line):
            counts["cr_parse_calls"] += 1
            return fn(line)

        return counted

    def __enter__(self) -> "Tracer":
        for name, attr, modules in SPANS:
            for module in modules:
                self._patch(module, attr, self._wrap(name, getattr(module, attr)))
        for module, attr in COUNTED:
            self._patch(module, attr, self._count(getattr(module, attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    # -- count hooks ------------------------------------------------------
    def _after_wos_load(self, args, kwargs, result) -> None:
        _, diag, fmt = result
        self.counts["load_calls"] += 1
        self.counts["cr_lines"] += diag.cr_lines_parsed
        self.counts["malformed_blocks"] += diag.malformed_records
        self.calls.append(
            {
                "call": "load",
                "path": str(args[0]),
                "format": fmt,
                "records": diag.records_parsed,
                "cr_lines": diag.cr_lines_parsed,
                "malformed": diag.malformed_records,
            }
        )

    def _after_corpus_build(self, args, kwargs, result) -> None:
        _, diag = result
        journals = args[1] if len(args) > 1 else kwargs.get("journal_filter")
        for field in ("records_kept", "duplicates_skipped", "excluded_by_filter"):
            self.counts[field] += getattr(diag, field)
        self.calls.append(
            {
                "call": "build",
                "journals": sorted(journals) if journals else None,
                "records_kept": diag.records_kept,
                "duplicates_skipped": diag.duplicates_skipped,
                "excluded_by_filter": diag.excluded_by_filter,
            }
        )

    def _after_spectrum_compute(self, args, kwargs, result) -> None:
        self.counts.setdefault("axis_years", len(result.counts))

    def _after_svgplot_render(self, args, kwargs, result) -> None:
        self.counts["svg_bytes"] += len(result.encode("utf-8"))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "calls": self.calls}


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


CLI_COMMANDS = ("stats", "spectrum", "peaks", "drill", "plot")
LAYER_TIMES = [
    "wos.load", "wos.decode", "wos.parse", "corpus.build", "corpus.stats",
    "spectrum.compute", "spectrum.median", "spectrum.peaks", "profiles.drill",
    "profiles.breakdown", "profiles.all_peaks", "svgplot.render",
]


def layer_metrics(session: dict, unique_ratio: float) -> dict:
    """Per-layer metrics of one traced session (self times, exact counts)."""
    spans, counts = session["spans"], session["counts"]
    own = self_times(spans)
    by_name: Counter = Counter()
    inclusive: Counter = Counter()
    for (name, start, end, _, _), t in zip(spans, own):
        by_name[name] += t
        inclusive[name] += end - start
    m = {f"{name}_s": (by_name[name], "s") for name in LAYER_TIMES}
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = (inclusive[f"cli.{cmd}"], "s")
    m["cli.self_s"] = (sum(by_name[f"cli.{cmd}"] for cmd in CLI_COMMANDS), "s")
    lines = counts.get("cr_lines", 0)
    m.update(
        {
            "wos.load_calls": (counts.get("load_calls", 0), "count"),
            "wos.cr_lines": (lines, "count"),
            "wos.cr_parse_calls_per_line": (
                counts.get("cr_parse_calls", 0) / lines if lines else 0.0,
                "ratio",
            ),
            "wos.cr_unique_ratio": (unique_ratio, "ratio"),
            "wos.malformed_blocks": (counts.get("malformed_blocks", 0), "count"),
            "corpus.records_kept": (counts.get("records_kept", 0), "count"),
            "corpus.duplicates_skipped": (counts.get("duplicates_skipped", 0), "count"),
            "corpus.excluded_by_filter": (counts.get("excluded_by_filter", 0), "count"),
            "spectrum.axis_years": (counts.get("axis_years", 0), "count"),
            "svgplot.bytes": (counts.get("svg_bytes", 0), "bytes"),
        }
    )
    m["trace.session_self_sum_s"] = (sum(own), "s")
    return m
