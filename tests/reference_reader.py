"""Reference export readers: the earlier per-line readers.

They are kept verbatim but for the rules that let exports joined by
``cat`` read as one: after an ``EF`` terminator, blank lines may follow
and then a tag line (after any byte-order mark) that starts a next
export, and a later tab-delimited line
that passes ``detect_format``'s header rule (after any byte-order mark)
is the header of the rows after it.  ``detect_format`` also takes any tag
line, not only ``FN``, as the start of a tagged export, once the
tab-delimited header rule has not matched.
They store each tag's values as a list; ``rpys.wos`` stores tuples, so
the differential tests compare the two as tuples.
They split the text into a list of lines and walk it one line at a time.
``rpys.wos`` reads tagged text one field at a time instead; the
differential tests in ``test_wos_parser.py`` hold its readers to these.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from rpys.wos import (
    TAB_DELIMITED,
    TAGGED,
    ExportParseError,
    ParseDiagnostics,
    RawRecord,
    UnrecognizedFormatError,
)

_TAG_LINE = re.compile(r"^([A-Z0-9]{2})(?: (.*))?$")
_TAG_NAME = re.compile(r"^[A-Z0-9]{2}$")
_FILE_HEADER_TAGS = ("FN", "VR")

_Defect = Callable[[int, str], None]


def _lines(text: str) -> list[str]:
    """Split export text into lines without a leading BOM or trailing CRs."""
    lines = [line.rstrip("\r") for line in text.split("\n")]
    lines[0] = lines[0].lstrip("\ufeff")
    return lines


def _header_cells(line: str) -> list[str] | None:
    cells = [cell.strip() for cell in line.lstrip("\ufeff").split("\t")]
    if len(cells) > 1 and "PY" in cells and "CR" in cells:
        return cells
    return None


def detect_format(text: str) -> str:
    [first] = _lines(text.partition("\n")[0])
    if _header_cells(first) is not None:
        return TAB_DELIMITED
    if _TAG_NAME.match(first[:2]) and first[2:3] in ("", " "):
        return TAGGED
    raise UnrecognizedFormatError(
        f"unrecognized export format; first line starts {first[:40]!r}"
    )


def parse_export(
    text: str, fmt: str = TAGGED, strict: bool = False
) -> tuple[list[RawRecord], ParseDiagnostics]:
    parse = {TAGGED: _parse_tagged, TAB_DELIMITED: _parse_tab_delimited}[fmt]
    diag = ParseDiagnostics()

    def defect(lineno: int, message: str) -> None:
        if strict:
            raise ExportParseError(f"line {lineno}: {message}", lineno)
        diag.malformed_positions.append(lineno)

    records = parse(_lines(text), defect)
    diag.records_parsed = len(records)
    diag.cr_lines_parsed = sum(len(r.get("CR")) for r in records)
    return records, diag


def _finalize_record(tags: dict[str, list[str]]) -> RawRecord:
    # The CR tag must only carry non-empty reference lines.
    if "CR" in tags:
        kept = [v for v in tags["CR"] if v.strip()]
        if kept:
            tags["CR"] = kept
        else:
            del tags["CR"]
    return RawRecord(tags)


def _parse_tagged(lines: list[str], defect: _Defect) -> list[RawRecord]:
    records: list[RawRecord] = []
    tags: dict[str, list[str]] | None = None  # the open record, if any
    current_tag = ""
    skipping = False  # resyncing to the next ER or EF after a malformed line
    ended = False  # past an EF: only blank lines, then a next export's first line
    for lineno, line in enumerate(lines, start=1):
        # Continuation lines take priority so values that happen to
        # read "ER" cannot terminate the block.
        if tags is not None and line.startswith("   "):
            tags[current_tag].append(line[3:])
            continue
        stripped = line.rstrip()
        if not stripped:
            continue
        if ended:
            # Only the first line of a concatenated export, a tag line
            # (maybe after a byte-order mark), may follow the terminator.
            line = line.lstrip("\ufeff")
            if not _TAG_LINE.match(line):
                defect(lineno, "content after EF terminator")
                return records
            stripped, ended = line.rstrip(), False
        if stripped == "ER":
            if tags is not None:
                records.append(_finalize_record(tags))
            elif not skipping:
                defect(lineno, "record terminator without an open record")
            tags, skipping = None, False
        elif stripped == "EF":
            if tags is not None:
                defect(lineno, "record not terminated by ER before EF")
            tags, skipping, ended = None, False, True
        elif skipping:
            continue
        elif match := _TAG_LINE.match(line):
            tag = match.group(1)
            if tags is None:
                if tag in _FILE_HEADER_TAGS:
                    continue
                tags = {}
            tags.setdefault(tag, []).append(match.group(2) or "")
            current_tag = tag
        else:
            defect(
                lineno,
                "expected a tag line" if tags is None else "malformed line inside record",
            )
            tags, skipping = None, True

    if tags is not None:
        defect(len(lines), "record not terminated by ER at end of input")
    return records


def _parse_tab_delimited(lines: list[str], defect: _Defect) -> list[RawRecord]:
    records: list[RawRecord] = []
    header = [c.strip() for c in lines[0].split("\t")]
    columns = [(i, tag) for i, tag in enumerate(header) if _TAG_NAME.match(tag)]

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if (cells := _header_cells(line)) is not None:
            header = cells
            columns = [(i, tag) for i, tag in enumerate(header) if _TAG_NAME.match(tag)]
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            defect(lineno, f"expected {len(header)} columns, found {len(cells)}")
            continue
        tags: dict[str, list[str]] = {}
        for idx, tag in columns:
            value = cells[idx].strip()
            if not value:
                continue
            if tag == "CR":
                refs = [r for r in (p.strip() for p in value.split("; ")) if r]
                if refs:
                    tags[tag] = refs
            else:
                tags[tag] = [value]
        records.append(RawRecord(tags))

    return records
