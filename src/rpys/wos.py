"""Readers for Web of Science plain-text exports.

Two export layouts are supported:

* ``tagged`` -- the "savedrecs.txt" field-tagged format: a two-character
  tag followed by one space and a value, values continued on lines
  indented by exactly three spaces, each record terminated by ``ER`` and
  the whole file by ``EF``.  ``FN``/``VR`` file-header lines are skipped.
  After ``EF`` only blank lines may follow, and then a line that passes
  :func:`detect_format`'s tag-line rule (after any byte-order mark): the
  first line of a next export, ``FN``, ``VR`` or ``PT`` alike, so exports
  joined by ``cat`` read as one.
  Inside an open record a continuation line takes priority over every
  other reading, so a continued value that reads ``ER`` ends nothing.
  The reader splits the text once, before each line that is not a
  continuation, and reads one field at a time.
* ``tab_delimited`` -- one header line of two-character tags, then one
  record per line; the ``CR`` cell packs all cited references separated
  by ``"; "``.  A later line that passes :func:`detect_format`'s header
  rule (after any byte-order mark) is the header of the rows after it,
  so exports joined by ``cat`` read as one even where the fields chosen
  at export, and so the columns, differ.

Each record is a :class:`RawRecord` whose tag values are tuples of
strings, built once per field: a tab-delimited cell becomes a 1-tuple
(the ``CR`` cell the tuple of its non-blank references), and a tagged
field is a list only while its record is open.  CPython stops tracking
a tuple of strings, and then a dict of such tuples, in a full garbage
collection, so after one a loaded record is one object the collector
tracks, the ``RawRecord`` named tuple itself.

The layout is a property of each file, read from its first line by
:func:`detect_format`; :func:`parse_export` always detects it.

A cited reference is the compact comma-separated string WoS stores per
citation, e.g. ``EINSTEIN A, 1905, ANN PHYS-BERLIN, V17, P891``, parsed
here into the :class:`RefKey` of the work it cites: author / year /
source / volume / page, each text field in its ``key_token`` form.
``key_token`` memoizes, so a segment repeated across strings is
normalized about once.  A year is read by one lookup in a table of the
strings of the years ``MIN_RPY..MAX_RPY``.
Parsing is total on any non-blank line: a line that matches nothing
keys as an ``UNKNOWN`` author with no year.  A blank line raises
``ValueError``; both export readers drop blank CR lines before they
reach the parser.
"""

from __future__ import annotations

import codecs
import re
import string
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import NamedTuple

from .textnorm import UNKNOWN_AUTHOR, key_token

TAGGED = "tagged"
TAB_DELIMITED = "tab_delimited"

# Every field tag: two characters, each an ASCII capital or digit.  A
# tag line is a tag, then nothing or one space and the value (maybe
# empty).  ER/EF/FN/VR are structural and handled before this.
_TAG_CHARS = string.ascii_uppercase + string.digits
_TAGS = frozenset(a + b for a in _TAG_CHARS for b in _TAG_CHARS)
_FILE_HEADER_TAGS = ("FN", "VR")
# Splits tagged text into chunks of one line plus its continuation lines.
_FIELD_BREAK = re.compile(r"\n(?!   )")
_LINE_END_CRS = re.compile(r"\r+(?=\n|\Z)")

# Reports a structural defect at a 1-based line; built by parse_export.
_Defect = Callable[[int, str], None]

# Window of years a cited reference may carry; a 4-digit segment outside
# it is not read as a year.
MIN_RPY = 1000
MAX_RPY = 2100
# Every segment that reads as a year, and its year: one lookup per
# segment, and only ASCII digits match.
_YEARS = {str(year): year for year in range(MIN_RPY, MAX_RPY + 1)}


class UnrecognizedFormatError(ValueError):
    """Input is neither a tagged export nor a tab-delimited one."""


class ExportParseError(ValueError):
    """Structural defect in an export file (raised in strict mode only)."""

    def __init__(self, message: str, line: int):
        super().__init__(message)
        self.line = line


class RawRecord(NamedTuple):
    """One exported record: ordered map of 2-char field tags to value lines.

    The readers store each tag's values as a tuple; a record built by hand
    with lists of values reads the same through these methods.  A named
    tuple, so a record has no instance ``__dict__`` and equals ``(tags,)``.
    """

    tags: dict[str, Sequence[str]]

    def get(self, tag: str) -> Sequence[str]:
        return self.tags.get(tag, ())

    def first(self, tag: str) -> str | None:
        values = self.tags.get(tag)
        return values[0] if values else None

    def joined(self, tag: str) -> str | None:
        """All value lines of a wrapped-text field joined with spaces."""
        values = self.tags.get(tag)
        if not values:
            return None
        return " ".join(v.strip() for v in values).strip() or None


class RefKey(NamedTuple):
    """Normalized identity of a cited work, ordered field by field.

    ``author`` is ``UNKNOWN`` when the string names none, and ``source``,
    ``volume`` and ``page`` are ``""`` when missing; ``year`` is ``None``
    for a string without one, which no drill counts.  A named tuple, so
    hashing, equality and ordering run in C; it is also a plain tuple,
    and equals one of the same five values.  Being plain tuple order, a
    key without a year does not order against a dated key of the same
    author: comparing ``None`` with an ``int`` raises ``TypeError``.

    DOI is deliberately not part of the identity: DOIs are sparse in
    older CR strings, and mixing DOI-keyed and field-keyed identities
    would split counts for the same work.
    """

    author: str
    year: int | None
    source: str
    volume: str
    page: str

    def display(self) -> str:
        """The key as reference-style text, leaving out the fields it lacks.

        >>> RefKey("EINSTEIN A", 1905, "ANN PHYS", "17", "891").display()
        'EINSTEIN A, 1905, ANN PHYS, V17, P891'
        >>> RefKey("HUME D", None, "", "", "").display()
        'HUME D'
        """
        parts = [self.author] if self.year is None else [self.author, str(self.year)]
        if self.source:
            parts.append(self.source)
        if self.volume:
            parts.append("V" + self.volume)
        if self.page:
            parts.append("P" + self.page)
        return ", ".join(parts)


class ParseDiagnostics(NamedTuple):
    """Bookkeeping for one parsed export file, a plain tuple too."""

    records_parsed: int = 0
    cr_lines_parsed: int = 0
    malformed_positions: tuple[int, ...] = ()

    @property
    def malformed_records(self) -> int:
        return len(self.malformed_positions)


def _normalized(text: str) -> str:
    """Export text without a leading BOM or the CRs that end its lines."""
    if "\r" in text:
        text = _LINE_END_CRS.sub("", text)
    return text.lstrip("\ufeff")


def _header_cells(line: str) -> list[str] | None:
    """A tab-delimited header's stripped cells, or None for any other line.

    A header has more than one tab-separated cell, and two of them are
    the PY and CR tags.
    """
    cells = [cell.strip() for cell in line.lstrip("\ufeff").split("\t")]
    if len(cells) > 1 and "PY" in cells and "CR" in cells:
        return cells
    return None


def _is_tag_line(line: str) -> bool:
    """A tag, then nothing or one space and the value."""
    return line[:2] in _TAGS and line[2:3] in ("", " ")


def detect_format(text: str) -> str:
    """Classify an export by its first line, after any byte-order mark.

    A tab-separated header with more than one cell, naming the PY and CR
    tags, marks a tab-delimited export; it is tested first, so a padded
    first cell (``PT \t...``) is no tag line.  Else a tag line (a tag,
    then nothing or a space) marks a tagged export: ``FN ...``, or the
    ``PT J`` or ``VR 1.0`` of one without its ``FN`` header.  Anything else
    raises :class:`UnrecognizedFormatError`.
    """
    end = text.find("\n")
    first = _normalized(text if end < 0 else text[:end])
    if _header_cells(first) is not None:
        return TAB_DELIMITED
    if _is_tag_line(first):
        return TAGGED
    raise UnrecognizedFormatError(
        f"unrecognized export format; first line starts {first[:40]!r}"
    )


def parse_export(
    text: str, *, strict: bool = False
) -> tuple[list[RawRecord], ParseDiagnostics]:
    """Parse one export file into records, in file order.

    The layout is :func:`detect_format`'s, so text it does not recognize
    raises :class:`UnrecognizedFormatError` in either mode.  In lenient
    mode (the default), malformed record blocks are skipped and their
    line numbers collected in the diagnostics; strict mode raises
    :class:`ExportParseError` at the first defect.
    """
    text = _normalized(text)
    parse = _parse_tab_delimited if detect_format(text) == TAB_DELIMITED else _parse_tagged
    positions: list[int] = []

    def defect(lineno: int, message: str) -> None:
        if strict:
            raise ExportParseError(f"line {lineno}: {message}", lineno)
        positions.append(lineno)

    records = parse(text, defect)
    cr_lines = sum(len(r.get("CR")) for r in records)
    return records, ParseDiagnostics(len(records), cr_lines, tuple(positions))


def _finalize_record(tags: dict[str, list[str]]) -> RawRecord:
    # Each open field's list becomes a tuple in place; the CR tag keeps
    # only its non-empty reference lines.
    for tag, values in tags.items():
        tags[tag] = tuple(filter(str.strip, values) if tag == "CR" else values)
    if tags.get("CR") == ():
        del tags["CR"]
    return RawRecord(tags)


def _parse_tagged(text: str, defect: _Defect) -> list[RawRecord]:
    records: list[RawRecord] = []
    tags: dict[str, list[str]] | None = None  # the open record, if any
    values: list[str] = []  # the open record's current field
    skipping = False  # resyncing to the next ER or EF after a malformed line
    ended = False  # past an EF, before the first tag line of a concatenated export
    lineno = 1  # of the chunk's first line
    for chunk in _FIELD_BREAK.split(text):
        # One line, then the continuation lines after it, without their
        # indent; most chunks are one line.
        if "\n" in chunk:
            line, *more = chunk.split("\n   ")
        else:
            line, more = chunk, ()
        stripped = line.rstrip()
        if ended and stripped:
            # The next export starts here, maybe after a byte-order mark.
            line = line.lstrip("\ufeff")
            if not _is_tag_line(line):
                defect(lineno, "content after EF terminator")
                return records
            stripped, ended = line.rstrip(), False
        if not stripped:
            pass
        elif stripped == "ER":
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
            pass
        elif (tag := line[:2]) in _TAGS and (len(line) == 2 or line[2] == " "):
            if tags is None and tag not in _FILE_HEADER_TAGS:
                tags = {}
            if tags is not None:
                values = tags.setdefault(tag, [])
                values.append(line[3:])
        else:
            defect(
                lineno,
                "expected a tag line" if tags is None else "malformed line inside record",
            )
            tags, skipping = None, True
        # Continuation lines take priority inside an open record, so values
        # that happen to read "ER" cannot terminate the block.  Outside
        # one, the first that is not blank is a defect.
        if tags is not None:
            values.extend(more)
        elif more and not skipping:
            for offset, cont in enumerate(more, start=1):
                if cont.strip():
                    if ended:
                        defect(lineno + offset, "content after EF terminator")
                        return records
                    defect(lineno + offset, "expected a tag line")
                    skipping = True
                    break
        lineno += 1 + len(more)

    if tags is not None:
        # lineno - 1 numbers the text's last "\n"-separated piece; when the
        # text ends in a newline, that piece is empty and no line of the file.
        defect(lineno - 1 - text.endswith("\n"), "record not terminated by ER at end of input")
    return records


def _parse_tab_delimited(text: str, defect: _Defect) -> list[RawRecord]:
    records: list[RawRecord] = []
    header, columns = [], []  # set by line 1, a header as detect_format found
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        # Line 1 or a cat-joined export's header; the substring test keeps
        # a data row from splitting and stripping every cell.
        if "PY" in line and "CR" in line and (cells := _header_cells(line)):
            header = cells
            columns = [(i, tag) for i, tag in enumerate(header) if tag in _TAGS]
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            defect(lineno, f"expected {len(header)} columns, found {len(cells)}")
            continue
        tags: dict[str, tuple[str, ...]] = {}
        for idx, tag in columns:
            value = cells[idx].strip()
            if not value:
                continue
            if tag == "CR":
                refs = tuple(filter(None, map(str.strip, value.split("; "))))
                if refs:
                    tags[tag] = refs
            else:
                tags[tag] = (value,)
        records.append(RawRecord(tags))

    return records


def cited_year(cr_line: str) -> int | None:
    """The year :func:`parse_cited_reference` reads, without the other fields.

    >>> cited_year("EINSTEIN A, 1905, ANN PHYS-BERLIN, V17, P891"), cited_year("HUME D, X")
    (1905, None)
    """
    for seg in cr_line.strip().split(", "):
        if seg in _YEARS or (seg := seg.strip()) in _YEARS:
            return _YEARS[seg]
    return None


def parse_cited_reference(cr_line: str) -> RefKey:
    """Parse one cited-reference string into its work's key, in one pass.

    The line is split on ``", "`` and each segment stripped.  The first
    segment of 4 ASCII digits in [``MIN_RPY``, ``MAX_RPY``] is the year,
    found by one lookup in a table of those years' strings.
    The first segment is the author, unless it is the year (an anonymous
    work).  The segment just after the year is the source, unless it is
    empty or a volume, page or DOI segment.  The first ``V<digit>...`` and
    ``P<alphanumerics>`` among the other segments fill volume and page; a
    ``DOI ...`` segment fills nothing, and the rest are ignored.  Each
    field is stored as the ``key_token`` of its segment, the one
    normalization a work key gets; a missing author is ``UNKNOWN``, a
    missing source, volume or page ``""``.  Never raises on a non-blank
    line; a blank one raises ``ValueError``.

    >>> parse_cited_reference("EINSTEIN A, 1905, ANN PHYS-BERLIN, V17, P891")
    RefKey(author='EINSTEIN A', year=1905, source='ANN PHYS-BERLIN', volume='17', page='891')
    >>> parse_cited_reference("Kuhn T.S., 1962, Struct. Sci. Revol., DOI 10.1/x").display()
    'KUHN TS, 1962, STRUCT SCI REVOL'
    >>> parse_cited_reference("[Anonymous], 1950, X").author
    'ANONYMOUS'
    >>> parse_cited_reference("1923, RELATIVITY THEORY")
    RefKey(author='UNKNOWN', year=1923, source='RELATIVITY THEORY', volume='', page='')
    """
    stripped = cr_line.strip()
    if not stripped:
        raise ValueError("cited-reference line is empty")
    author, year, year_idx, source, volume, page = UNKNOWN_AUTHOR, None, None, "", "", ""
    for idx, seg in enumerate(stripped.split(", ")):
        seg = seg.strip()
        # Each field keeps its first value; a taken segment fills no other.
        if year is None and seg in _YEARS:
            year, year_idx = _YEARS[seg], idx
        elif idx == 0:
            author = key_token(seg) or UNKNOWN_AUTHOR
        elif (head := seg[:1]) == "V" and seg[1:2].isdigit():
            volume = volume or key_token(seg[1:])  # never empty: it starts with a digit
        elif head == "P" and seg[1:].isalnum():
            page = page or key_token(seg[1:])  # never empty: alphanumeric
        elif seg and idx - 1 == year_idx and not seg.startswith("DOI "):
            source = key_token(seg)
    # Positional, in field order: keywords add about 15% to a warm parse.
    return RefKey(author, year, source, volume, page)


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
    try:
        return data.decode("utf-8")  # b"\n" never sits inside a UTF-8 sequence
    except UnicodeDecodeError:
        pass
    lines = []
    for bline in data.split(b"\n"):
        try:
            lines.append(bline.decode("utf-8"))
        except UnicodeDecodeError:
            lines.append(bline.decode("latin-1"))
    return "\n".join(lines)


def load_export(
    path: str | Path, *, strict: bool = False
) -> tuple[list[RawRecord], ParseDiagnostics, str]:
    """Read, decode and parse one export file; returns its detected format."""
    text = decode_export_bytes(Path(path).read_bytes())
    records, diag = parse_export(text, strict=strict)
    return records, diag, detect_format(text)
