"""Command-line pipeline: exports -> corpus -> spectrum -> peaks -> reports.

Artifacts (rpys.csv, median.csv, peaks.json, spectrogram.svg, per-year
profile JSON) are byte-deterministic: no timestamps, fixed number
formatting, LF line endings, sorted input expansion.  Exit codes: 0
success, 1 the run found nothing (no records, no peaks, empty year), 2 a
bad flag (checked before loading; drill's --author UNKNOWN too) or an I/O
failure on any file or on stdout: one ``rpys:`` stderr line, no traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import glob
import hashlib
import io
import json
import math
import os
import re
import sys
from pathlib import Path
from urllib.parse import quote

from .corpus import (
    Corpus, CorpusError, CorpusStats, author_breakdown, build_corpus, corpus_stats, drill_year
)
from .spectrum import (
    DeviationSeries,
    Peak,
    Spectrum,
    compute_spectrum,
    detect_peaks,
    median_deviation,
)
from .svgplot import render_spectrogram
from .textnorm import UNKNOWN_AUTHOR, key_token
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
_SLUG_MAX = 255 - len("breakdown_2100_.json")  # 255: the usual file-name limit, in bytes

_FMT_BY_FLAG = {"tagged": TAGGED, "tsv": TAB_DELIMITED, "auto": "auto"}


class CliError(Exception):
    """User-facing failure; message printed to stderr, exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpys",
        description=(
            "Referenced publication year spectroscopy over Web of Science "
            "exports: where are a field's historical roots?"
        ),
    )
    # Flag sets as parent parsers, so a subcommand takes only the flags it reads.
    load = argparse.ArgumentParser(add_help=False)
    load.add_argument(
        "--input",
        action="append",
        required=True,
        metavar="PATH",
        help="export file or glob pattern; repeat for multiple inputs",
    )
    load.add_argument(
        "--format",
        choices=sorted(_FMT_BY_FLAG),
        default="auto",
        help="export layout (default: detect from the first line)",
    )
    load.add_argument(
        "--journals",
        metavar="LIST",
        help="comma-separated source titles to keep (case-insensitive)",
    )
    load.add_argument("--out", metavar="DIR", help="directory for output files")
    load.add_argument(
        "--strict",
        action="store_true",
        help="fail on malformed input instead of skipping it",
    )
    year_range = argparse.ArgumentParser(add_help=False)
    year_range.add_argument(
        "--range",
        dest="year_range",
        metavar="LO:HI",
        help=f"valid referenced-year range within {MIN_RPY}:{MAX_RPY}; also pins the axis",
    )
    min_deviation = argparse.ArgumentParser(add_help=False)
    min_deviation.add_argument(
        "--min-deviation",
        type=float,
        default=0.0,
        metavar="X",
        help="ignore peaks with deviation <= X (default 0)",
    )

    def top(help_text: str) -> argparse.ArgumentParser:
        flag = argparse.ArgumentParser(add_help=False)
        flag.add_argument("--top", type=int, default=10, metavar="K", help=help_text)
        return flag

    ranked = [load, year_range, min_deviation, top("peaks to keep (default %(default)s)")]
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "stats", parents=[load], help="per-journal paper and cited-reference counts"
    ).set_defaults(run=cmd_stats)
    sub.add_parser(
        "spectrum", parents=[load, year_range], help="write rpys.csv and median.csv"
    ).set_defaults(run=cmd_spectrum)
    sub.add_parser(
        "peaks", parents=ranked, help="write peaks.json, print ranked peaks"
    ).set_defaults(run=cmd_peaks)
    drill = sub.add_parser(
        "drill",
        parents=[load, top("rows to keep (default %(default)s); --author does not read it")],
        help="author/work shares for one referenced year",
    )
    drill.add_argument("--year", type=int, required=True, help="referenced year to profile")
    drill.add_argument(
        "--author", help="restrict to one first author's works, named as in the author rows"
    )
    drill.set_defaults(run=cmd_drill)
    sub.add_parser("plot", parents=ranked, help="write spectrogram.svg").set_defaults(run=cmd_plot)
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


def _checked(args: argparse.Namespace) -> argparse.Namespace:
    """Check the subcommand's flags (every exit-2 flag error) and normalize them in place.

    Blank inputs are dropped, journals become a set of ``key_token`` names,
    the range ``(lo, hi)`` or None, the format a ``load_export`` layout name,
    and drill's author its ``key_token`` form.
    """
    args.input = [p for p in args.input if p.strip()]
    if not args.input:
        raise CliError("at least one --input path is required")
    if "top" in args and args.top < 1:
        raise CliError("--top must be at least 1")
    if "min_deviation" in args and not 0 <= args.min_deviation < math.inf:
        raise CliError("--min-deviation must be a finite non-negative number")
    if args.journals is not None:
        args.journals = {key_token(j) for j in args.journals.split(",")} - {""}
        if not args.journals:
            raise CliError("--journals must name at least one source title")
    if "year_range" in args:
        args.year_range = _parse_year_range(args.year_range) if args.year_range else None
    args.format = _FMT_BY_FLAG[args.format]
    if "year" in args and not MIN_RPY <= args.year <= MAX_RPY:
        raise CliError(f"invalid --year {args.year}: years must lie within {MIN_RPY}:{MAX_RPY}")
    author = getattr(args, "author", None)  # drill's flag
    if author is not None:
        args.author = key_token(author)
        if not args.author:
            raise CliError(f"--author {author!r} has no name after normalization")
        # On POSIX, argv bytes that are not UTF-8 arrive as lone surrogates.
        if any("\ud800" <= ch <= "\udfff" for ch in author):
            raise CliError(f"--author {author!r} is not valid text")
        if args.author == UNKNOWN_AUTHOR:
            raise CliError("cannot break down the unattributed bucket by work")
    return args


def _expand_inputs(patterns: list[str]) -> list[Path]:
    # Sorted, deduplicated expansion keeps the pipeline independent of
    # shell glob order.  A pattern naming an existing file is that file,
    # even when its name holds glob metacharacters ("savedrecs[1].txt").
    # Files are deduplicated by resolved path, so "x.txt" and "./x.txt"
    # are read once, under the first spelling in sorted order.
    found: set[str] = set()
    for pattern in patterns:
        if Path(pattern).is_file():
            found.add(pattern)
            continue
        matches = glob.glob(pattern, recursive=True)
        if not matches:
            raise CliError(f"input not found: {pattern}")
        found.update(m for m in matches if Path(m).is_file())
    if not found:
        raise CliError(f"no files matched inputs: {', '.join(patterns)}")
    files: dict[Path, Path] = {}
    for name in sorted(found):
        files.setdefault(Path(name).resolve(), Path(name))
    return list(files.values())


def _warn(message: str) -> None:
    """One ``rpys:`` line on stderr, dropped when stderr cannot take it."""
    # With file descriptor 2 closed, sys.stderr is None and print would
    # fall back to stdout.  The exit code still tells the outcome.
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(f"rpys: {message}", file=sys.stderr)


def _load_corpus(args: argparse.Namespace) -> Corpus:
    records = []
    malformed = 0
    for path in _expand_inputs(args.input):
        try:
            recs, diag, _ = load_export(path, args.format, strict=args.strict)
        except (OSError, UnrecognizedFormatError, ExportParseError) as exc:  # none names the file
            raise CliError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
        records.extend(recs)
        malformed += diag.malformed_records
    corpus, corpus_diag = build_corpus(records, args.journals, strict=args.strict)
    dropped = (
        (malformed, "skipped {} malformed record block(s)"),
        (corpus_diag.duplicates_skipped, "skipped {} duplicate record(s)"),
        (corpus_diag.excluded_missing_fields, "excluded {} record(s) lacking PY or SO"),
        (corpus_diag.excluded_by_filter, "excluded {} record(s) by the journal filter"),
    )
    issues = [message.format(count) for count, message in dropped if count]
    if issues:
        _warn("; ".join(issues))
    return corpus


def _analyze(args: argparse.Namespace) -> tuple[Spectrum, DeviationSeries | None, list[Peak]]:
    """Load, count, smooth and, for ``peaks`` and ``plot``, rank peaks.

    With no usable year the series is None and the peak list empty; the
    renderers turn that into header-only tables and a bare chart.
    """
    spectrum = compute_spectrum(_load_corpus(args), args.year_range)
    if spectrum.is_empty:
        print("no cited references with usable years")
        return spectrum, None, []
    series = median_deviation(spectrum)
    peaks = detect_peaks(series, args.min_deviation, args.top) if "min_deviation" in args else []
    return spectrum, series, peaks


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:  # a failed write() does not name the file
        raise CliError(f"{path}: {exc.strerror or exc}") from exc


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
    # One file per author: a key_token name holds no "_", "%", "." or "~",
    # and no lowercase ASCII, so quoting and then lowering merges no names.
    # Past _SLUG_MAX a slug is cut, never inside a %xx escape, and gets "~" and a hash.
    slug = quote(name, safe=" ").lower().replace(" ", "_")
    if len(slug) <= _SLUG_MAX:
        return slug
    head = re.sub("%.?$", "", slug[: _SLUG_MAX - 17])
    return f"{head}~{hashlib.sha256(name.encode()).hexdigest()[:16]}"


def cmd_stats(args: argparse.Namespace) -> int:
    stats = corpus_stats(_load_corpus(args))
    print(_stats_table(stats))
    if args.out:
        path = _out_dir(args) / STATS_CSV
        _write_text(path, _render_stats_csv(stats))
        print(f"wrote {path}")
    return EXIT_OK if stats.total_records else EXIT_EMPTY


def cmd_spectrum(args: argparse.Namespace) -> int:
    spectrum, series, _ = _analyze(args)
    out = _out_dir(args)
    _write_text(out / RPYS_CSV, render_rpys_csv(spectrum))
    _write_text(out / MEDIAN_CSV, render_median_csv(series))
    print(
        f"{spectrum.total} cited references over {len(spectrum.counts)} years "
        f"({spectrum.dropped_out_of_range} outside valid range, "
        f"{spectrum.without_year} without a year); "
        f"wrote {out / RPYS_CSV}, {out / MEDIAN_CSV}"
    )
    return EXIT_OK if spectrum.total else EXIT_EMPTY


def cmd_peaks(args: argparse.Namespace) -> int:
    _, series, peaks = _analyze(args)
    out = _out_dir(args)
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
        print(f"no peaks above deviation {args.min_deviation}; wrote {out / PEAKS_JSON}")
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
        "authors": [row._asdict() for row in profile.author_rows],
        "works": _works_payload(profile.work_rows),
        "unattributed": profile.unattributed,
    }


def cmd_drill(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    out = _out_dir(args)
    year = args.year

    if args.author is not None:
        breakdown = author_breakdown(corpus, args.author, year)
        payload = {
            "author": breakdown.author,
            "year": breakdown.year,
            "total_refs": breakdown.total_refs,
            "works": _works_payload(breakdown.rows),
        }
        path = out / f"breakdown_{year}_{_slug(args.author)}.json"
        _write_json(path, payload)
        print(f"{args.author}, {year}: {breakdown.total_refs} cited references")
        _print_rows(payload["works"], "key")
    else:
        profile = drill_year(corpus, year, args.top)
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


def cmd_plot(args: argparse.Namespace) -> int:
    spectrum, series, peaks = _analyze(args)
    path = _out_dir(args) / SPECTROGRAM_SVG
    _write_text(path, render_spectrogram(series, peaks))
    print(f"wrote {path} ({len(peaks)} peak years labeled)")
    return EXIT_OK if spectrum.total else EXIT_EMPTY


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.run(_checked(args))
        finally:
            print(end="", flush=True)  # a stdout that cannot take the output fails here
    except (CliError, CorpusError) as exc:
        _warn(str(exc))
    except OSError as exc:  # one that names no file came from stdout
        _warn(f"{exc.filename or 'stdout'}: {exc.strerror or exc}")
    return EXIT_ERROR


def entrypoint() -> None:
    # Paths and input text print even where stdout cannot encode them (an
    # ASCII stream, or lone surrogates from file names that are not UTF-8).
    if sys.stdout is not None:
        sys.stdout.reconfigure(errors="backslashreplace")
    code = main(sys.argv[1:])
    if code == EXIT_ERROR and sys.stdout is not None:
        # Else the exit-time flush of what stdout refused fails again (exit 120).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
