"""Command-line pipeline: exports -> corpus -> spectrum -> peaks -> reports.

Artifacts (rpys.csv, median.csv, peaks.json, spectrogram.svg, per-year
profile JSON) are byte-deterministic: no timestamps, fixed number
formatting, LF line endings, and sorted input expansion, so reruns and
shuffled input orders diff clean.  Exit codes: 0 success, 1 the run
succeeded but produced an empty result (no records, no peaks, empty
year), 2 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import glob
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus, CorpusError, CorpusStats, build_corpus, corpus_stats
from .profiles import author_breakdown, drill_year
from .spectrum import (
    DeviationSeries,
    Peak,
    Spectrum,
    compute_spectrum,
    detect_peaks,
    median_deviation,
)
from .svgplot import render_spectrogram
from .textnorm import normalize_author
from .wos import (
    MAX_RPY,
    MIN_RPY,
    TAB_DELIMITED,
    TAGGED,
    ExportParseError,
    UnrecognizedFormatError,
    load_export,
)

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_ERROR = 2

RPYS_CSV = "rpys.csv"
MEDIAN_CSV = "median.csv"
PEAKS_JSON = "peaks.json"
SPECTROGRAM_SVG = "spectrogram.svg"
STATS_CSV = "stats.csv"

_FMT_BY_FLAG = {"tagged": TAGGED, "tsv": TAB_DELIMITED, "auto": "auto"}


class CliError(Exception):
    """User-facing failure; message printed to stderr, exit code 2."""


@dataclass
class RunConfig:
    """Everything one subcommand run needs, resolved from flags."""

    inputs: list[str]
    fmt: str = "auto"
    journals: list[str] | None = None
    year_range: tuple[int, int] | None = None
    min_deviation: float = 0.0
    top_k: int = 10
    out_dir: Path | None = None
    strict: bool = False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpys",
        description=(
            "Referenced publication year spectroscopy over Web of Science "
            "exports: where are a field's historical roots?"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--input",
        action="append",
        required=True,
        metavar="PATH",
        help="export file or glob pattern; repeat for multiple inputs",
    )
    common.add_argument(
        "--format",
        choices=sorted(_FMT_BY_FLAG),
        default="auto",
        help="export layout (default: detect from the first line)",
    )
    common.add_argument(
        "--journals",
        metavar="LIST",
        help="comma-separated source titles to keep (case-insensitive)",
    )
    common.add_argument(
        "--range",
        dest="year_range",
        metavar="LO:HI",
        help=f"valid referenced-year range within {MIN_RPY}:{MAX_RPY}; also pins the axis",
    )
    common.add_argument(
        "--min-deviation",
        type=float,
        default=0.0,
        metavar="X",
        help="ignore peaks with deviation <= X (default 0)",
    )
    common.add_argument(
        "--top", type=int, default=10, metavar="K", help="rows/peaks to keep (default 10)"
    )
    common.add_argument("--out", metavar="DIR", help="directory for output files")
    common.add_argument(
        "--strict",
        action="store_true",
        help="fail on malformed input instead of skipping it",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "stats", parents=[common], help="per-journal paper and cited-reference counts"
    )
    sub.add_parser("spectrum", parents=[common], help="write rpys.csv and median.csv")
    sub.add_parser("peaks", parents=[common], help="write peaks.json, print ranked peaks")
    drill = sub.add_parser(
        "drill", parents=[common], help="author/work shares for one referenced year"
    )
    drill.add_argument("--year", type=int, required=True, help="referenced year to profile")
    drill.add_argument("--author", help="restrict to one first author's works")
    sub.add_parser("plot", parents=[common], help="write spectrogram.svg")
    return parser


def _parse_year_range(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d{1,5}):(\d{1,5})", text)
    if not match:
        raise CliError(f"invalid --range {text!r}; expected LO:HI, e.g. 1500:2012")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo > hi:
        raise CliError(f"invalid --range {text!r}: lower bound exceeds upper bound")
    if lo < MIN_RPY or hi > MAX_RPY:
        raise CliError(f"invalid --range {text!r}: years must lie within {MIN_RPY}:{MAX_RPY}")
    return lo, hi


def config_from_args(args: argparse.Namespace) -> RunConfig:
    inputs = [p for p in (args.input or []) if p.strip()]
    if not inputs:
        raise CliError("at least one --input path is required")
    if args.top < 1:
        raise CliError("--top must be at least 1")
    if not math.isfinite(args.min_deviation) or args.min_deviation < 0:
        raise CliError("--min-deviation must be a finite non-negative number")
    journals = None
    if args.journals is not None:
        journals = [j.strip() for j in args.journals.split(",") if j.strip()]
        if not journals:
            raise CliError("--journals must name at least one source title")
    return RunConfig(
        inputs=inputs,
        fmt=_FMT_BY_FLAG[args.format],
        journals=journals,
        year_range=_parse_year_range(args.year_range) if args.year_range else None,
        min_deviation=args.min_deviation,
        top_k=args.top,
        out_dir=Path(args.out) if args.out else None,
        strict=args.strict,
    )


def _expand_inputs(patterns: list[str]) -> list[Path]:
    # Sorted, deduplicated expansion keeps the pipeline independent of
    # shell glob order.
    found: set[str] = set()
    for pattern in patterns:
        matches = glob.glob(pattern, recursive=True)
        if not matches:
            raise CliError(f"input not found: {pattern}")
        found.update(m for m in matches if Path(m).is_file())
    if not found:
        raise CliError(f"no files matched inputs: {', '.join(patterns)}")
    return [Path(p) for p in sorted(found)]


def _load_corpus(config: RunConfig) -> Corpus:
    records = []
    malformed = 0
    for path in _expand_inputs(config.inputs):
        try:
            recs, diag, _ = load_export(path, config.fmt, strict=config.strict)
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
        except (UnrecognizedFormatError, ExportParseError) as exc:
            raise CliError(f"{path}: {exc}") from exc
        records.extend(recs)
        malformed += diag.malformed_records
    journal_filter = set(config.journals) if config.journals else None
    try:
        corpus, corpus_diag = build_corpus(records, journal_filter, strict=config.strict)
    except CorpusError as exc:
        raise CliError(str(exc)) from exc
    dropped = (
        (malformed, "skipped {} malformed record block(s)"),
        (corpus_diag.duplicates_skipped, "skipped {} duplicate record(s)"),
        (corpus_diag.excluded_missing_fields, "excluded {} record(s) lacking PY or SO"),
        (corpus_diag.excluded_by_filter, "excluded {} record(s) by the journal filter"),
    )
    issues = [message.format(count) for count, message in dropped if count]
    if issues:
        print("rpys: " + "; ".join(issues), file=sys.stderr)
    return corpus


def _analyze(config: RunConfig) -> tuple[Spectrum, DeviationSeries | None, list[Peak]]:
    """Load, count, smooth and rank peaks.

    With no usable year the series is None and the peak list empty; the
    renderers turn that into header-only tables and a bare chart.
    """
    spectrum = compute_spectrum(_load_corpus(config), config.year_range)
    if spectrum.is_empty:
        print("no cited references with usable years")
        return spectrum, None, []
    series = median_deviation(spectrum)
    return spectrum, series, detect_peaks(series, config.min_deviation, config.top_k)


def _out_dir(config: RunConfig) -> Path:
    out = config.out_dir if config.out_dir is not None else Path(".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {out}: {exc.strerror or exc}") from exc
    return out


def _write_text(path: Path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, ensure_ascii=False) + "\n")


def _dec1(value) -> str:
    # Medians/deviations are half-integral rationals; one decimal is exact.
    return f"{float(value):.1f}"


def render_rpys_csv(spectrum: Spectrum) -> str:
    lines = ["rpy,n_cr"]
    lines.extend(f"{year},{spectrum.count_at(year)}" for year in spectrum.years())
    return "\n".join(lines) + "\n"


def render_median_csv(series: DeviationSeries | None) -> str:
    lines = ["rpy,n_cr,median5,deviation"]
    rows = series.rows() if series is not None else ()
    lines.extend(f"{year},{n},{_dec1(m)},{_dec1(d)}" for year, n, m, d in rows)
    return "\n".join(lines) + "\n"


def _render_stats_csv(stats: CorpusStats) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["journal", "records", "cited_refs"])
    for row in stats.rows:
        writer.writerow([row.journal, row.records, row.cited_refs])
    writer.writerow(["Total", stats.total_records, stats.total_cited_refs])
    return buf.getvalue()


def _stats_table(stats: CorpusStats) -> str:
    rows = [(r.journal, f"{r.records:,}", f"{r.cited_refs:,}") for r in stats.rows]
    rows.append(("Total", f"{stats.total_records:,}", f"{stats.total_cited_refs:,}"))
    name_w = max(len("Journal"), max(len(r[0]) for r in rows))
    rec_w = max(len("Papers"), max(len(r[1]) for r in rows))
    ref_w = max(len("Cited refs"), max(len(r[2]) for r in rows))
    lines = [f"{'Journal':<{name_w}}  {'Papers':>{rec_w}}  {'Cited refs':>{ref_w}}"]
    lines.extend(
        f"{name:<{name_w}}  {recs:>{rec_w}}  {refs:>{ref_w}}" for name, recs, refs in rows
    )
    return "\n".join(lines)


def _slug(name: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_").lower()
    return slug or "author"


def cmd_stats(config: RunConfig) -> int:
    corpus = _load_corpus(config)
    stats = corpus_stats(corpus)
    print(_stats_table(stats))
    if config.out_dir is not None:
        path = _out_dir(config) / STATS_CSV
        _write_text(path, _render_stats_csv(stats))
        print(f"wrote {path}")
    return EXIT_OK if stats.total_records else EXIT_EMPTY


def cmd_spectrum(config: RunConfig) -> int:
    spectrum, series, _ = _analyze(config)
    out = _out_dir(config)
    _write_text(out / RPYS_CSV, render_rpys_csv(spectrum))
    _write_text(out / MEDIAN_CSV, render_median_csv(series))
    print(
        f"{spectrum.total} cited references over {len(spectrum.counts)} years "
        f"({spectrum.dropped_out_of_range} outside valid range, "
        f"{spectrum.without_year} without a year); "
        f"wrote {out / RPYS_CSV}, {out / MEDIAN_CSV}"
    )
    return EXIT_OK if spectrum.total else EXIT_EMPTY


def cmd_peaks(config: RunConfig) -> int:
    _, series, peaks = _analyze(config)
    out = _out_dir(config)
    payload = [
        {
            "year": p.year,
            "n_cr": p.n_cr,
            "median5": float(series.row(p.year)[1]),
            "deviation": float(p.deviation),
            "rank": p.rank,
        }
        for p in peaks
    ]
    _write_json(out / PEAKS_JSON, payload)
    if not peaks:
        print(f"no peaks above deviation {config.min_deviation}; wrote {out / PEAKS_JSON}")
        return EXIT_EMPTY
    print("rank  year  n_cr  median5  deviation")
    for p in peaks:
        median = _dec1(series.row(p.year)[1])
        print(f"{p.rank:>4}  {p.year:>4}  {p.n_cr:>4}  {median:>7}  {_dec1(p.deviation):>9}")
    print(f"wrote {out / PEAKS_JSON}")
    return EXIT_OK


def _works_payload(works) -> list[dict]:
    return [{"key": w.key.display(), "count": w.count, "share": w.share} for w in works]


def _print_rows(rows: list[dict], label: str) -> None:
    for row in rows:
        print(f"  {row['count']:>5}  {row['share']:>5.1f}%  {row[label]}")


def _profile_payload(profile) -> dict:
    return {
        "year": profile.year,
        "total_refs": profile.total_refs,
        "authors": [
            {"name": a.name, "count": a.count, "share": a.share}
            for a in profile.author_rows
        ],
        "works": _works_payload(profile.work_rows),
        "unattributed": profile.unattributed,
    }


def cmd_drill(config: RunConfig, year: int, author: str | None = None) -> int:
    corpus = _load_corpus(config)
    out = _out_dir(config)

    if author is not None:
        name = normalize_author(author)
        try:
            breakdown = author_breakdown(corpus, name, year)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        payload = {
            "author": breakdown.author,
            "year": breakdown.year,
            "total_refs": breakdown.total_refs,
            "works": _works_payload(breakdown.rows),
        }
        path = out / f"breakdown_{year}_{_slug(name)}.json"
        _write_json(path, payload)
        print(f"{name}, {year}: {breakdown.total_refs} cited references")
        _print_rows(payload["works"], "key")
    else:
        profile = drill_year(corpus, year, config.top_k)
        payload = _profile_payload(profile)
        path = out / f"profile_{year}.json"
        _write_json(path, payload)
        print(
            f"year {year}: {profile.total_refs} cited references "
            f"({profile.unattributed} unattributed)"
        )
        for section, label in (("authors", "name"), ("works", "key")):
            if payload[section]:
                print(f"top {section}:")
                _print_rows(payload[section], label)
    print(f"wrote {path}")
    return EXIT_OK if payload["total_refs"] else EXIT_EMPTY


def cmd_plot(config: RunConfig) -> int:
    spectrum, series, peaks = _analyze(config)
    path = _out_dir(config) / SPECTROGRAM_SVG
    _write_text(path, render_spectrogram(series, peaks))
    print(f"wrote {path} ({len(peaks)} peak years labeled)")
    return EXIT_OK if spectrum.total else EXIT_EMPTY


# Subcommand -> handler(config, parsed args).
_COMMANDS = {
    "stats": lambda config, args: cmd_stats(config),
    "spectrum": lambda config, args: cmd_spectrum(config),
    "peaks": lambda config, args: cmd_peaks(config),
    "drill": lambda config, args: cmd_drill(config, args.year, args.author),
    "plot": lambda config, args: cmd_plot(config),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](config_from_args(args), args)
    except CliError as exc:
        print(f"rpys: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
