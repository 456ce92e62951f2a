"""Command-line pipeline: exports -> corpus -> spectrum -> peaks -> reports.

Artifacts (rpys.csv, median.csv, peaks.json, spectrogram.svg, per-year
profile JSON) are byte-deterministic: no timestamps, fixed number
formatting, LF line endings, sorted input expansion.  Exit codes: 0
success, 1 the run found nothing (no records, no peaks, empty year), 2 a
bad flag (drill's --author UNKNOWN too) or an I/O failure on any file or
on stdout: one ``rpys:`` stderr line, no traceback.  Each invocation loads
its inputs once, in ``main``, after every flag check; a subcommand is a
function of its checked flags and that one corpus.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import glob
import io
import json
import math
import os
import re
import sys
from pathlib import Path
from urllib.parse import quote

from .corpus import Corpus, CorpusError, author_breakdown, build_corpus, corpus_stats, drill_year
from .spectrum import (
    DeviationSeries,
    Peak,
    Spectrum,
    compute_spectrum,
    detect_peaks,
    median_deviation,
)
from .svgplot import render_spectrogram
from .wos import (
    MAX_RPY,
    MIN_RPY,
    UNKNOWN_AUTHOR,
    ExportParseError,
    UnrecognizedFormatError,
    key_token,
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
_SLUG_MAX = 255 - len(f"breakdown_{MAX_RPY}_.json")  # 255: the usual file-name limit, in bytes


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


def _checked(args: argparse.Namespace) -> None:
    """Check the subcommand's flags (every exit-2 flag error) and normalize them in place.

    Blank inputs are dropped, journals become a set of ``key_token`` names,
    the range ``(lo, hi)`` or None, and drill's author its ``key_token`` form.
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
            recs, diag, _ = load_export(path, strict=args.strict)
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


def _analyze(
    args: argparse.Namespace, corpus: Corpus
) -> tuple[Spectrum, DeviationSeries | None, list[Peak]]:
    """Count, smooth and, for ``peaks`` and ``plot``, rank peaks.

    With no usable year the series is None and the peak list empty; the
    renderers turn that into header-only tables and a bare chart.
    """
    spectrum = compute_spectrum(corpus, args.year_range)
    if spectrum.is_empty:
        print("no cited references with usable years")
        return spectrum, None, []
    series = median_deviation(spectrum)
    peaks = detect_peaks(series, args.min_deviation, args.top) if "min_deviation" in args else []
    return spectrum, series, peaks


def _write(args: argparse.Namespace, name: str, artifact) -> Path:
    """Write one artifact under ``--out`` (created first) and return its path.

    Text is written as is, anything else as indented JSON; LF line endings.
    """
    path = Path(args.out or ".") / name
    path.parent.mkdir(parents=True, exist_ok=True)  # its OSError names the directory
    if not isinstance(artifact, str):
        artifact = json.dumps(artifact, indent=2, ensure_ascii=False) + "\n"
    try:
        path.write_text(artifact, encoding="utf-8", newline="\n")
    except OSError as exc:  # a failed write() does not name the file
        raise CliError(f"{path}: {exc.strerror or exc}") from exc
    return path


def _dec1(value: float) -> str:
    # Medians/deviations are multiples of 1/2; one decimal prints them exactly.
    return f"{value:.1f}"


def render_rpys_csv(spectrum: Spectrum) -> str:
    lines = ["rpy,n_cr"]
    lines.extend(f"{year},{spectrum.count_at(year)}" for year in spectrum.years())
    return "\n".join(lines) + "\n"


def render_median_csv(series: DeviationSeries | None) -> str:
    lines = ["rpy,n_cr,median5,deviation"]
    rows = series.rows() if series is not None else ()
    lines.extend(f"{year},{n},{_dec1(m)},{_dec1(d)}" for year, n, m, d in rows)
    return "\n".join(lines) + "\n"


def _render_stats_csv(rows: list[tuple[str, int, int]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([("journal", "records", "cited_refs"), *rows])
    return buf.getvalue()


def _stats_table(rows: list[tuple[str, int, int]]) -> str:
    cells = [("Journal", "Papers", "Cited refs")]
    cells.extend((name, f"{recs:,}", f"{refs:,}") for name, recs, refs in rows)
    name_w, rec_w, ref_w = (max(map(len, column)) for column in zip(*cells))
    return "\n".join(
        f"{name:<{name_w}}  {recs:>{rec_w}}  {refs:>{ref_w}}" for name, recs, refs in cells
    )


def _slug(name: str) -> str:
    # One file per author: a key_token name holds no "_", "%", "." or "~",
    # and no lowercase ASCII, so quoting and then lowering merges no names.
    # Past _SLUG_MAX a slug is cut, never inside a %xx escape, and gets "~" and a hash.
    slug = quote(name, safe=" ").lower().replace(" ", "_")
    if len(slug) <= _SLUG_MAX:
        return slug
    import hashlib  # here, not at module level: only an overlong name needs it

    head = re.sub("%.?$", "", slug[: _SLUG_MAX - 17])
    return f"{head}~{hashlib.sha256(name.encode()).hexdigest()[:16]}"


def cmd_stats(args: argparse.Namespace, corpus: Corpus) -> int:
    stats = corpus_stats(corpus)
    # (journal, records, cited_refs) per journal, then the totals: the table's and the CSV's.
    rows = [*stats.rows, ("Total", stats.total_records, stats.total_cited_refs)]
    print(_stats_table(rows))
    if args.out:
        print(f"wrote {_write(args, STATS_CSV, _render_stats_csv(rows))}")
    return EXIT_OK if stats.total_records else EXIT_EMPTY


def cmd_spectrum(args: argparse.Namespace, corpus: Corpus) -> int:
    spectrum, series, _ = _analyze(args, corpus)
    rpys_csv = _write(args, RPYS_CSV, render_rpys_csv(spectrum))
    median_csv = _write(args, MEDIAN_CSV, render_median_csv(series))
    print(
        f"{spectrum.total} cited references over {len(spectrum.counts)} years "
        f"({spectrum.dropped_out_of_range} outside valid range, "
        f"{spectrum.without_year} without a year); "
        f"wrote {rpys_csv}, {median_csv}"
    )
    return EXIT_OK if spectrum.total else EXIT_EMPTY


def cmd_peaks(args: argparse.Namespace, corpus: Corpus) -> int:
    _, series, peaks = _analyze(args, corpus)
    payload = [
        {
            "year": p.year,
            "n_cr": p.n_cr,
            "median5": series.row(p.year)[1],
            "deviation": p.deviation,
            "rank": p.rank,
        }
        for p in peaks
    ]
    path = _write(args, PEAKS_JSON, payload)
    if not peaks:
        print(f"no peaks above deviation {args.min_deviation}; wrote {path}")
        return EXIT_EMPTY
    print("rank  year  n_cr  median5  deviation")
    for row in payload:
        print(
            f"{row['rank']:>4}  {row['year']:>4}  {row['n_cr']:>4}  "
            f"{_dec1(row['median5']):>7}  {_dec1(row['deviation']):>9}"
        )
    print(f"wrote {path}")
    return EXIT_OK


def _works_payload(works) -> list[dict]:
    return [{"key": w.key.display(), "count": w.count, "share": w.share} for w in works]


def _print_rows(rows: list[dict], label: str) -> None:
    for row in rows:
        print(f"  {row['count']:>5}  {row['share']:>5.1f}%  {row[label]}")


def cmd_drill(args: argparse.Namespace, corpus: Corpus) -> int:
    year = args.year
    if args.author is not None:
        breakdown = author_breakdown(corpus, args.author, year)
        payload = {
            "author": breakdown.author,
            "year": breakdown.year,
            "total_refs": breakdown.total_refs,
            "works": _works_payload(breakdown.rows),
        }
        path = _write(args, f"breakdown_{year}_{_slug(args.author)}.json", payload)
        print(f"{args.author}, {year}: {breakdown.total_refs} cited references")
        _print_rows(payload["works"], "key")
    else:
        profile = drill_year(corpus, year, args.top)
        payload = {
            "year": profile.year,
            "total_refs": profile.total_refs,
            "authors": [row._asdict() for row in profile.author_rows],
            "works": _works_payload(profile.work_rows),
            "unattributed": profile.unattributed,
        }
        path = _write(args, f"profile_{year}.json", payload)
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


def cmd_plot(args: argparse.Namespace, corpus: Corpus) -> int:
    spectrum, series, peaks = _analyze(args, corpus)
    path = _write(args, SPECTROGRAM_SVG, render_spectrogram(series, peaks))
    print(f"wrote {path} ({len(peaks)} peak years labeled)")
    return EXIT_OK if spectrum.total else EXIT_EMPTY


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            _checked(args)
            return args.run(args, _load_corpus(args))
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
