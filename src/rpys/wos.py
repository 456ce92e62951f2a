"""Readers and writers for Web of Science plain-text exports.

Two export layouts are supported:

* ``tagged`` -- the "savedrecs.txt" field-tagged format: a two-character
  tag followed by one space and a value, values continued on lines
  indented by exactly three spaces, each record terminated by ``ER`` and
  the whole file by ``EF``.  ``FN``/``VR`` file-header lines are skipped.
* ``tab_delimited`` -- one header line of two-character tags, then one
  record per line; the ``CR`` cell packs all cited references separated
  by ``"; "``.

A cited reference is the compact comma-separated string WoS stores per
citation, e.g. ``EINSTEIN A, 1905, ANN PHYS-BERLIN, V17, P891``, parsed
here into author / year / source / volume / page / DOI fields.  Parsing
a cited reference never fails: lines that match nothing keep only their
raw text.
"""

from __future__ import annotations

import codecs
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from .textnorm import UNKNOWN_AUTHOR, normalize_author

TAGGED = "tagged"
TAB_DELIMITED = "tab_delimited"

# Tag, one space, value.  The value may be empty; a bare two-char tag is
# also accepted.  ER/EF/FN/VR are structural and handled before this.
_TAG_LINE = re.compile(r"^([A-Z0-9]{2})(?: (.*))?$")
_TAG_NAME = re.compile(r"^[A-Z0-9]{2}$")
_FILE_HEADER_TAGS = ("FN", "VR")

# Reports a structural defect at a 1-based line; built by parse_export.
_Defect = Callable[[int, str], None]

# Window of years a cited reference may carry; a 4-digit segment outside
# it is not read as a year.
MIN_RPY = 1000
MAX_RPY = 2100


class UnrecognizedFormatError(ValueError):
    """Input is neither a tagged export nor a tab-delimited one."""


class ExportParseError(ValueError):
    """Structural defect in an export file (raised in strict mode only)."""

    def __init__(self, message: str, line: int):
        super().__init__(message)
        self.line = line


@dataclass
class RawRecord:
    """One exported record: ordered map of 2-char field tags to value lines."""

    tags: dict[str, list[str]] = field(default_factory=dict)

    def get(self, tag: str) -> list[str]:
        return self.tags.get(tag, [])

    def first(self, tag: str) -> str | None:
        values = self.tags.get(tag)
        return values[0] if values else None

    def joined(self, tag: str) -> str | None:
        """All value lines of a wrapped-text field joined with spaces."""
        values = self.tags.get(tag)
        if not values:
            return None
        return " ".join(v.strip() for v in values).strip() or None


@dataclass(frozen=True, slots=True)
class CitedReference:
    """One cited-reference string with whatever fields could be recovered."""

    raw: str
    first_author: str | None = None
    year: int | None = None
    source: str | None = None
    volume: str | None = None
    page: str | None = None
    doi: str | None = None


@dataclass
class ParseDiagnostics:
    """Bookkeeping for one parsed export file."""

    records_parsed: int = 0
    cr_lines_parsed: int = 0
    malformed_positions: list[int] = field(default_factory=list)

    @property
    def malformed_records(self) -> int:
        return len(self.malformed_positions)


def _lines(text: str) -> list[str]:
    """Split export text into lines without a leading BOM or trailing CRs."""
    lines = [line.rstrip("\r") for line in text.split("\n")]
    lines[0] = lines[0].lstrip("\ufeff")
    return lines


def detect_format(text: str) -> str:
    """Classify an export by its first line.

    ``FN ...`` marks a tagged export; a tab-separated header containing
    the PY and CR tags marks a tab-delimited one.  Anything else raises
    :class:`UnrecognizedFormatError`.
    """
    [first] = _lines(text.partition("\n")[0])
    if first.startswith("FN"):
        return TAGGED
    cells = [cell.strip() for cell in first.split("\t")]
    if len(cells) > 1 and "PY" in cells and "CR" in cells:
        return TAB_DELIMITED
    raise UnrecognizedFormatError(
        f"unrecognized export format; first line starts {first[:40]!r}"
    )


def parse_export(
    text: str, fmt: str = TAGGED, strict: bool = False
) -> tuple[list[RawRecord], ParseDiagnostics]:
    """Parse one export file into records, in file order.

    In lenient mode (the default), malformed record blocks are skipped
    and their line numbers collected in the diagnostics; strict mode
    raises :class:`ExportParseError` at the first defect.
    """
    if fmt == TAGGED:
        parse = _parse_tagged
    elif fmt == TAB_DELIMITED:
        parse = _parse_tab_delimited
    else:
        raise ValueError(f"unknown export format {fmt!r}")
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
    numbered = enumerate(lines, start=1)
    for lineno, line in numbered:
        # Continuation lines take priority so values that happen to
        # read "ER" cannot terminate the block.
        if tags is not None and line.startswith("   "):
            tags[current_tag].append(line[3:])
            continue
        stripped = line.rstrip()
        if not stripped:
            continue
        if stripped == "ER":
            if tags is not None:
                records.append(_finalize_record(tags))
            elif not skipping:
                defect(lineno, "record terminator without an open record")
            tags, skipping = None, False
        elif stripped == "EF":
            if tags is not None:
                defect(lineno, "record not terminated by ER before EF")
            # Only blank lines may follow the file terminator.
            for lineno, line in numbered:
                if line.strip():
                    defect(lineno, "content after EF terminator")
                    break
            return records
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


def _is_rpy(segment: str) -> bool:
    return (
        len(segment) == 4
        and segment.isascii()
        and segment.isdigit()
        and MIN_RPY <= int(segment) <= MAX_RPY
    )


def _is_volume(segment: str) -> bool:
    return len(segment) >= 2 and segment[0] == "V" and segment[1].isdigit()


def _is_page(segment: str) -> bool:
    return len(segment) >= 2 and segment[0] == "P" and segment[1:].isalnum()


def _is_doi(segment: str) -> bool:
    return segment.startswith("DOI ") and len(segment) > 4


def _doi_value(segment: str) -> str:
    while segment.startswith("DOI "):
        segment = segment[4:]
    return segment.strip()


def parse_cited_reference(cr_line: str) -> CitedReference:
    """Parse one cited-reference string.

    Grammar: segments split on ``", "``.  The first segment is the
    author token, except when it is itself the year (anonymous works
    shift the year into first position, leaving the author absent).
    The year is the first standalone 4-digit segment in
    [``MIN_RPY``, ``MAX_RPY``];
    the segment after it is the source unless it looks like a volume,
    page or DOI segment.  ``Vnn`` / ``Pnn`` / ``DOI ...`` segments fill
    volume, page and doi; everything else is ignored.  Never raises on
    a non-empty line, and the raw text is always preserved verbatim.
    """
    stripped = cr_line.strip()
    if not stripped:
        raise ValueError("cited-reference line is empty")
    segments = [seg.strip() for seg in stripped.split(", ")]

    year: int | None = None
    year_idx: int | None = None
    for idx, seg in enumerate(segments):
        if _is_rpy(seg):
            year = int(seg)
            year_idx = idx
            break

    first_author: str | None = None
    if year_idx != 0:
        candidate = normalize_author(segments[0])
        if candidate != UNKNOWN_AUTHOR:
            first_author = candidate

    claimed = {0}
    source: str | None = None
    if year_idx is not None:
        claimed.add(year_idx)
        if year_idx + 1 < len(segments):
            nxt = segments[year_idx + 1]
            if nxt and not (_is_volume(nxt) or _is_page(nxt) or _is_doi(nxt)):
                source = nxt
                claimed.add(year_idx + 1)

    volume: str | None = None
    page: str | None = None
    doi: str | None = None
    for idx, seg in enumerate(segments):
        if idx in claimed or not seg:
            continue
        if volume is None and _is_volume(seg):
            volume = seg[1:]
        elif page is None and _is_page(seg):
            page = seg[1:]
        elif doi is None and _is_doi(seg):
            doi = _doi_value(seg)

    return CitedReference(
        raw=cr_line,
        first_author=first_author,
        year=year,
        source=source,
        volume=volume,
        page=page,
        doi=doi,
    )


def serialize_record(record: RawRecord) -> str:
    """Render one record in tagged format, terminated by ``ER``."""
    parts: list[str] = []
    for tag, values in record.tags.items():
        vals = values or [""]
        parts.append(f"{tag} {vals[0]}")
        parts.extend("   " + v for v in vals[1:])
    parts.append("ER")
    return "\n".join(parts) + "\n"


def serialize_export(records: list[RawRecord]) -> str:
    """Render a whole tagged export file (FN/VR header, records, EF)."""
    blocks = "\n".join(serialize_record(r) for r in records)
    return "FN RPYS tagged export\nVR 1.0\n" + blocks + "EF\n"


def decode_export_bytes(data: bytes) -> str:
    """Decode raw export bytes.

    A file that starts with a UTF-16 byte-order mark (the "Tab-delimited
    (Win)" export is commonly UTF-16LE) is decoded as UTF-16 throughout;
    a truncated final code unit becomes U+FFFD.  Any other file is
    decoded line by line, UTF-8 first with a Latin-1 fallback: mixed-era
    exports occasionally carry single Latin-1 lines inside an otherwise
    UTF-8 file, and decoding per line keeps the rest intact.
    """
    if data.startswith((codecs.BOM_UTF16_LE, codecs.BOM_UTF16_BE)):
        return data.decode("utf-16", errors="replace")
    lines = []
    for bline in data.split(b"\n"):
        try:
            lines.append(bline.decode("utf-8"))
        except UnicodeDecodeError:
            lines.append(bline.decode("latin-1"))
    return "\n".join(lines)


def load_export(
    path: str | Path, fmt: str = "auto", strict: bool = False
) -> tuple[list[RawRecord], ParseDiagnostics, str]:
    """Read, decode and parse one export file; returns the format used."""
    text = decode_export_bytes(Path(path).read_bytes())
    resolved = detect_format(text) if fmt == "auto" else fmt
    records, diag = parse_export(text, resolved, strict=strict)
    return records, diag, resolved
