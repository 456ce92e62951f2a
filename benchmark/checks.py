"""Output checks against the generators' ground truth.

Every check names the operation whose output it inspects, so that a
mismatch counts that operation as failed.  Operations are the pass
children, CLI invocations and drill queries; see ``run.py``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

from workloads import PLANTED_YEARS, TOP_1905_WORK, Truth


class Failures:
    """Failed operations, each with the reasons it failed."""

    def __init__(self) -> None:
        self.by_op: dict[str, list[str]] = {}

    def add(self, op: str, message: str) -> None:
        self.by_op.setdefault(op, []).append(message)

    def expect(self, op: str, ok: bool, message: str) -> None:
        if not ok:
            self.add(op, message)


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def _json(path: Path):
    text = _read(path)
    try:
        return None if text is None else json.loads(text)
    except ValueError:
        return None


def artifact_hashes(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def expected_stats_csv(truth: Truth) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["journal", "records", "cited_refs"])
    writer.writerows(truth.stats_rows())
    ledger = truth.ledger()
    writer.writerow(["Total", ledger["records"], ledger["lines"]])
    return buf.getvalue()


def check_peaks(fail: Failures, op: str, truth: Truth, payload, journals=None) -> None:
    expected = truth.peaks(journals)
    fail.expect(op, payload == expected, f"peaks differ from ground truth: {payload!r:.200}")
    years = {p["year"] for p in payload or []}
    missing = sorted(set(PLANTED_YEARS) - years)
    fail.expect(op, not missing, f"planted years {missing} not among detected peaks")


def check_profile(fail: Failures, op: str, truth: Truth, payload, year: int) -> None:
    fail.expect(
        op,
        payload == truth.profile(year),
        f"profile {year} differs from ground truth: {payload!r:.200}",
    )
    if year == 1905 and payload and payload.get("works"):
        top = payload["works"][0]
        count = truth.profile(1905)["works"][0]["count"]
        fail.expect(
            op,
            top["key"] == TOP_1905_WORK and top["count"] == count,
            f"top 1905 work is {top!r}, expected {TOP_1905_WORK} x {count}",
        )


def check_pass(fail: Failures, op: str, truth: Truth, result: dict) -> None:
    out = result["outputs"]
    fail.expect(op, out["rpys.csv"] == truth.rpys_csv(), "rpys.csv differs from tallies")
    fail.expect(op, out["median.csv"] == truth.median_csv(), "median.csv differs")
    peaks = [
        {"year": y, "n_cr": n, "deviation": d, "rank": r} for y, n, d, r in out["peaks"]
    ]
    expected = [{k: p[k] for k in ("year", "n_cr", "deviation", "rank")} for p in truth.peaks()]
    fail.expect(op, peaks == expected, "detected peaks differ from ground truth")
    missing = sorted(set(PLANTED_YEARS) - {p["year"] for p in peaks})
    fail.expect(op, not missing, f"planted years {missing} not among detected peaks")
    years = sorted(p["year"] for p in peaks)
    for year, payload in zip(years, out["profiles"]):
        check_profile(fail, op, truth, payload, year)
    fail.expect(op, len(out["profiles"]) == len(years), "one profile per peak expected")

    ledger, want = out["ledger"], truth.ledger()
    fail.expect(
        op,
        ledger["counted"] + ledger["out_of_range"] + ledger["yearless"] == ledger["kept_lines"],
        f"counted + out-of-range + year-less != kept CR lines: {ledger}",
    )
    fail.expect(
        op,
        ledger["counted"] == sum(want["per_year"].values())
        and ledger["out_of_range"] == want["out_of_range"]
        and ledger["yearless"] == want["yearless"]
        and ledger["kept_lines"] == want["lines"]
        and ledger["records"] == want["records"],
        f"reference ledger {ledger} differs from tallies",
    )
    fail.expect(op, result["cr_lines"] == truth.cr_lines, "CR lines read differ from tallies")
    fail.expect(
        op,
        result["unique_cr_strings"] == truth.unique_cr_strings,
        "distinct CR strings differ from tallies",
    )
    stats = [tuple(row) for row in out["stats"]]
    if truth.journals:
        fail.expect(op, stats == truth.stats_rows(), "per-journal stats differ")
    else:
        fail.expect(
            op,
            sum(r[1] for r in stats) == want["records"]
            and sum(r[2] for r in stats) == want["lines"],
            "stats totals differ from tallies",
        )


def _op(ops: list, prefix: str, *argv_parts: str) -> str:
    """Label of the first op whose argv starts with prefix and holds parts."""
    for i, (name, _, _, _, argv) in enumerate(ops):
        if name == prefix and all(part in argv for part in argv_parts):
            return f"{prefix}#{i}"
    return f"{prefix}#missing"


def check_cli_session(
    fail: Failures, label: str, truth: Truth, ops: list, out: Path, journals, svg_sha: str
) -> None:
    """Artifacts of one CLI session against ground truth."""
    for i, (name, _, ok, detail, _) in enumerate(ops):
        fail.expect(f"{label}:{name}#{i}", ok, f"operation failed: {detail}")

    def op(name, *parts):
        return f"{label}:" + _op(ops, name, *parts)

    stats = _read(out / "stats.csv")
    if truth.journals:
        fail.expect(op("stats"), stats == expected_stats_csv(truth), "stats.csv differs")
    else:
        rows = list(csv.reader(io.StringIO(stats or "")))
        want = truth.ledger()
        total = rows[-1] if rows else []
        body = rows[1:-1]
        fail.expect(
            op("stats"),
            total == ["Total", str(want["records"]), str(want["lines"])]
            and sum(int(r[1]) for r in body) == want["records"]
            and sum(int(r[2]) for r in body) == want["lines"],
            "stats.csv totals differ from tallies",
        )
    peaks = _json(out / "peaks.json")
    check_peaks(fail, op("peaks"), truth, peaks)
    top = [p["year"] for p in truth.peaks()]
    if journals is None:  # cli-session
        fail.expect(op("spectrum"), _read(out / "rpys.csv") == truth.rpys_csv(), "rpys.csv")
        fail.expect(op("spectrum"), _read(out / "median.csv") == truth.median_csv(), "median.csv")
        for year in top[:3]:
            payload = _json(out / f"profile_{year}.json")
            check_profile(fail, op("drill", str(year)), truth, payload, year)
        author = truth.top_author(top[0])
        written = sorted(out.glob(f"breakdown_{top[0]}_*.json"))
        payload = _json(written[0]) if len(written) == 1 else None
        fail.expect(
            op("drill", "--author"),
            payload == truth.breakdown(author, top[0]),
            f"breakdown of {author} in {top[0]} differs from tallies",
        )
        svg = out / "spectrogram.svg"
        sha = hashlib.sha256(svg.read_bytes()).hexdigest() if svg.exists() else None
        fail.expect(op("plot"), sha == svg_sha, "spectrogram.svg differs from the in-process render")
    else:  # merged-tsv
        payload = _json(out / f"profile_{top[0]}.json")
        check_profile(fail, op("drill", str(top[0])), truth, payload, top[0])
        check_peaks(
            fail, op("peaks", "--journals"), truth, _json(out / "journals" / "peaks.json"), journals
        )


def check_calls(fail: Failures, op: str, truth: Truth, calls: list[dict]) -> None:
    """Per-call diagnostics recorded by the tracer against tallies."""
    for call in calls:
        if call["call"] == "load":
            path = call["path"]
            fail.expect(
                op,
                call["records"] == truth.file_records.get(path)
                and call["cr_lines"] == truth.file_cr_lines.get(path)
                and call["malformed"] == truth.file_malformed.get(path),
                f"load of {path} read {call}, tallies differ",
            )
        else:
            journals = call["journals"]
            fail.expect(
                op,
                call["records_kept"] == truth.kept(journals).records
                and call["duplicates_skipped"] == truth.duplicates
                and call["excluded_by_filter"]
                == (truth.excluded_by_filter(journals) if journals else 0),
                f"build_corpus({journals}) returned {call}, tallies differ",
            )


def check_queries(fail: Failures, truth: Truth, answers: dict, peak_years: list[int]) -> None:
    profiles = [truth.profile(y) for y in sorted(peak_years)]
    for key, payload in answers.items():
        kind, year, author = json.loads(key)
        if kind == "drill":
            check_profile(fail, f"query:{key}", truth, payload, year)
        elif kind == "breakdown":
            fail.expect(
                f"query:{key}",
                payload == truth.breakdown(author, year),
                "breakdown differs from tallies",
            )
        else:
            fail.expect(f"query:{key}", payload == profiles, "profile_all_peaks differs")
