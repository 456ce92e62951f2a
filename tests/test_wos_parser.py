"""Export parsing: format detection, tagged/tab layouts, CR grammar."""

from __future__ import annotations

import codecs
import gc
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rpys import (
    UNKNOWN_AUTHOR,
    ExportParseError,
    RawRecord,
    RefKey,
    UnrecognizedFormatError,
    build_corpus,
    detect_format,
    load_export,
    parse_cited_reference,
    parse_export,
)
from rpys import wos
from rpys.wos import (
    MAX_RPY,
    MIN_RPY,
    TAB_DELIMITED,
    TAGGED,
    cited_year,
    decode_export_bytes,
)

import reference_reader
import refkey_oracle
from conftest import THREE_RECORD_EXPORT, citing_record, tagged_export

_FIXTURES = Path(__file__).parent / "fixtures"


def _reference_parse(text: str, *, strict: bool = False):
    """The reference reader, in the layout the reference detector reads."""
    return reference_reader.parse_export(text, reference_reader.detect_format(text), strict)


class TestDetectFormat:
    def test_fn_header_is_tagged(self):
        assert detect_format("FN Clarivate Analytics Web of Science\nVR 1.0\n") == TAGGED

    def test_tab_header_is_tab_delimited(self):
        assert detect_format("PT\tAU\tTI\tSO\tPY\tCR\tUT\n") == TAB_DELIMITED

    def test_padded_first_header_cell_is_no_tag_line(self):
        assert detect_format("PT \tPY\tCR\tUT\n") == TAB_DELIMITED

    @pytest.mark.parametrize("first", ["PT J", "VR 1.0", "\ufeffPT J", "FN", "CR\r"])
    def test_any_tag_line_is_tagged(self, first):
        # An export without its FN header still starts with a tag line.
        assert detect_format(first + "\nUT WOS:1\nER\n") == TAGGED

    @pytest.mark.parametrize(
        "first", ["FNORD", "FN\tx", "PTJ", "pt J", "", "PT\tSO\tCR\tUT", "PY\tUT"]
    )
    def test_near_misses_are_unrecognized(self, first):
        with pytest.raises(UnrecognizedFormatError):
            detect_format(first + "\nPT J\nER\n")

    def test_unrecognized_reports_line_start(self):
        with pytest.raises(UnrecognizedFormatError) as err:
            detect_format("<html><body>Export failed</body></html>\n")
        assert "<html>" in str(err.value)

    def test_error_message_clips_long_first_line(self):
        first = "X" * 200
        with pytest.raises(UnrecognizedFormatError) as err:
            detect_format(first + "\n")
        assert "X" * 40 in str(err.value)
        assert "X" * 41 not in str(err.value)



class TestParseExportDetects:
    def test_table_reads_as_load_export_reads_it(self):
        path = _FIXTURES / "pinned_table.txt"
        records, diag, fmt = load_export(path)
        assert fmt == TAB_DELIMITED and records
        assert parse_export(decode_export_bytes(path.read_bytes())) == (records, diag)

    @pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
    @pytest.mark.parametrize(
        "text", ["   PT J\nUT X", "<html><body>Export failed</body></html>\n", ""]
    )
    def test_undetected_text_is_rejected(self, text, strict):
        with pytest.raises(UnrecognizedFormatError):
            parse_export(text, strict=strict)

    def test_takes_no_layout(self):
        # A layout passed by position must not land in strict.
        with pytest.raises(TypeError):
            parse_export("PT\tPY\tCR\tUT\nJ\t2010\t\tWOS:1\n", "tab_delimited")


class TestTaggedParsing:
    def test_two_clean_records(self):
        text = tagged_export(
            [
                citing_record("WOS:1", crs=["KUHN TS, 1962, STRUCTURE SCI REVOLU"]),
                citing_record("WOS:2"),
            ]
        )
        records, diag = parse_export(text)
        assert len(records) == 2
        assert diag.records_parsed == 2
        assert diag.malformed_records == 0
        assert [r.first("UT") for r in records] == ["WOS:1", "WOS:2"]

    def test_cr_block_spanning_three_lines(self):
        records, diag = parse_export(THREE_RECORD_EXPORT)
        assert records[0].get("CR") == (
            "CARNAP R, 1928, LOGISCHE AUFBAU WELT",
            "SCHLICK M, 1930, NATURWISSENSCHAFTEN, V18, P1",
            "WITTGENSTEIN L, 1922, TRACTATUS LOGICO PHI",
        )

    def test_lenient_counts_unterminated_record(self):
        records, diag = parse_export(THREE_RECORD_EXPORT)
        assert len(records) == 2
        assert diag.records_parsed == 2
        assert diag.malformed_records == 1

    def test_strict_names_line_of_missing_er(self):
        with pytest.raises(ExportParseError) as err:
            parse_export(THREE_RECORD_EXPORT, strict=True)
        lineno = THREE_RECORD_EXPORT.rstrip("\n").count("\n") + 1  # the EF line
        assert f"line {lineno}" in str(err.value)

    def test_text_after_ef(self):
        # After EF only a next export's first line, a tag line, may follow.
        export = tagged_export([citing_record("WOS:1")])
        text = export + "trailing text\n"
        records, diag = parse_export(text)
        assert len(records) == 1
        assert diag.malformed_records == 1
        with pytest.raises(ExportParseError):
            parse_export(text, strict=True)
        records, _ = parse_export(export + "PT J\nER\n", strict=True)
        assert records[1:] == [RawRecord({"PT": ("J",)})]

    def test_concatenated_exports(self):
        # Blank lines may sit between one export's EF and the next one's FN.
        first = tagged_export([citing_record("WOS:1"), citing_record("WOS:2")])
        second = tagged_export([citing_record("WOS:3")])
        for text in (first + second, first + "\n \n" + second, first + "\ufeff" + second):
            records, diag = parse_export(text, strict=True)
            assert [r.first("UT") for r in records] == ["WOS:1", "WOS:2", "WOS:3"]
            assert diag.malformed_records == 0

    def test_ef_inside_record_then_next_export(self):
        text = "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nEF\nFN WoS\nPT J\nUT WOS:2\nER\nEF\n"
        records, diag = parse_export(text)
        assert [r.first("UT") for r in records] == ["WOS:2"]
        assert diag.malformed_positions == (5,)

    def test_blank_lines_between_records_ignored(self):
        text = tagged_export([citing_record("WOS:1"), citing_record("WOS:2")])
        spread = text.replace("ER\nPT", "ER\n\n\nPT")
        records, diag = parse_export(spread)
        assert len(records) == 2
        assert diag.malformed_records == 0

    def test_tab_indented_continuation_rejected(self):
        text = (
            "FN WoS\nVR 1.0\n"
            "PT J\nUT WOS:1\nCR EINSTEIN A, 1905, ANN PHYS-BERLIN\n"
            "\tPOINCARE H, 1905, CR HEBD ACAD SCI\nER\nEF\n"
        )
        records, diag = parse_export(text)
        assert records == []
        assert diag.malformed_records == 1
        with pytest.raises(ExportParseError):
            parse_export(text, strict=True)

    def test_continuation_value_er_does_not_terminate(self):
        text = "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nTI Title line\n   ER\nER\nEF\n"
        records, diag = parse_export(text)
        assert len(records) == 1
        assert records[0].get("TI") == ("Title line", "ER")
        assert diag.malformed_records == 0

    def test_missing_ef_at_eof_accepted(self):
        text = "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nER\n"
        records, diag = parse_export(text)
        assert len(records) == 1
        assert diag.malformed_records == 0

    def test_duplicate_tag_lines_append(self):
        text = "FN WoS\nVR 1.0\nAU First, A\nAU Second, B\nUT WOS:1\nER\nEF\n"
        records, _ = parse_export(text)
        assert records[0].get("AU") == ("First, A", "Second, B")

    def test_cr_reference_count_matches_sum(self):
        records, diag = parse_export(THREE_RECORD_EXPORT)
        assert diag.cr_lines_parsed == sum(len(r.get("CR")) for r in records)

    def test_cr_field_of_blank_lines_is_dropped(self):
        # A tagged CR field whose value and continuation are both blank
        # leaves no CR tag on the record, as the per-line reader does.
        text = "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nCR \n   \nER\nEF\n"
        for strict in (False, True):
            records, diag = parse_export(text, strict=strict)
            assert records == [RawRecord({"PT": ("J",), "UT": ("WOS:1",)})]
            assert diag.cr_lines_parsed == 0
            assert diag.malformed_records == 0
            assert _outcome(parse_export, text, strict=strict) == _outcome(
                _reference_parse, text, strict=strict
            )


# One case per structural defect: text, UTs of the records kept in
# lenient mode, lenient malformed_positions, strict message.
_DEFECT_CASES = {
    "orphan_er": (
        "FN WoS\nVR 1.0\nER\nPT J\nUT WOS:1\nER\nEF\n",
        ["WOS:1"],
        [3],
        "line 3: record terminator without an open record",
    ),
    "junk_between_records_resyncs_at_er": (
        "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nER\n?? junk\nPT J\nUT WOS:2\nER\n"
        "PT J\nUT WOS:3\nER\nEF\n",
        ["WOS:1", "WOS:3"],
        [6],
        "line 6: expected a tag line",
    ),
    "junk_between_records_resyncs_at_ef": (
        "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nER\n?? junk\nPT J\nEF\nPT J\n",
        ["WOS:1"],
        [6, 9],
        "line 6: expected a tag line",
    ),
    "junk_inside_record": (
        "FN WoS\nVR 1.0\nPT J\nUT WOS:1\n\tbad\nCR A B, 1905, X\nER\n"
        "PT J\nUT WOS:2\nER\nEF\n",
        ["WOS:2"],
        [5],
        "line 5: malformed line inside record",
    ),
    "ef_inside_record": (
        "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nER\nPT J\nUT WOS:2\nEF\n",
        ["WOS:1"],
        [8],
        "line 8: record not terminated by ER before EF",
    ),
    "non_tag_line_after_ef": (
        "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nER\nEF\n \n?? junk\nPT J\nUT WOS:2\nER\n",
        ["WOS:1"],
        [8],
        "line 8: content after EF terminator",
    ),
    "orphan_er_after_ef": (
        "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nER\nEF\n\ufeffER\nPT J\nUT WOS:2\nER\n",
        ["WOS:1", "WOS:2"],
        [7],
        "line 7: record terminator without an open record",
    ),
    "continuation_after_ef": (
        "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nER\nEF\n   x\nFN WoS\nPT J\nUT WOS:2\nER\nEF\n",
        ["WOS:1"],
        [7],
        "line 7: content after EF terminator",
    ),
    "end_of_input_inside_record": (
        "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nER\nPT J\nUT WOS:2\n",
        ["WOS:1"],
        [7],
        "line 7: record not terminated by ER at end of input",
    ),
    "tsv_column_count": (
        "PT\tPY\tCR\tUT\nJ\t2010\t\tWOS:1\nJ\t2011\nJ\t2012\t\tWOS:3\n",
        ["WOS:1", "WOS:3"],
        [3],
        "line 3: expected 4 columns, found 2",
    ),
}


@pytest.mark.parametrize(
    "text, kept, positions, message",
    list(_DEFECT_CASES.values()),
    ids=list(_DEFECT_CASES),
)
def test_each_defect_reported_at_its_line(text, kept, positions, message):
    records, diag = parse_export(text)
    assert [r.first("UT") for r in records] == kept
    assert diag.malformed_positions == tuple(positions)
    with pytest.raises(ExportParseError) as err:
        parse_export(text, strict=True)
    assert str(err.value) == message
    assert err.value.line == positions[0]


@pytest.mark.parametrize("end", ["\n", "\r\n", ""], ids=["lf", "crlf", "none"])
@pytest.mark.parametrize("parse", [parse_export, _reference_parse], ids=["wos", "reference"])
def test_unterminated_last_record_is_reported_at_the_last_line(parse, end):
    # A 6-line file names its line 6, whether or not that line ends in a newline.
    text = (end or "\n").join(["FN WoS", "VR 1.0", "PT J", "UT WOS:1", "ER", "PT J"]) + end
    records, diag = parse(text)
    assert [r.first("UT") for r in records] == ["WOS:1"]
    assert diag.malformed_positions == (6,)
    with pytest.raises(ExportParseError, match="^line 6: record not terminated by ER"):
        parse(text, strict=True)


# After EF and blank lines, a tag line starts the next export, whatever
# its tag: text, UTs of the records read (in either mode).
_NEXT_EXPORT_CASES = {
    "content_after_ef": (
        "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nER\nEF\n \nPT J\nER\n",
        ["WOS:1", None],
    ),
    "content_between_exports": (
        "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nER\nEF\n\nVR 1.0\nFN WoS\nPT J\nUT WOS:2\nER\nEF\n",
        ["WOS:1", "WOS:2"],
    ),
}


@pytest.mark.parametrize(
    "text, kept", list(_NEXT_EXPORT_CASES.values()), ids=list(_NEXT_EXPORT_CASES)
)
def test_tag_line_after_ef_starts_the_next_export(text, kept):
    for strict in (False, True):
        records, diag = parse_export(text, strict=strict)
        assert [r.first("UT") for r in records] == kept
        assert diag.malformed_positions == ()


class TestTabDelimited:
    HEADER = "PT\tAU\tTI\tSO\tPY\tCR\tUT"

    def test_two_rows(self):
        text = (
            f"{self.HEADER}\n"
            "J\tDoe, J\tWork one\tERKENNTNIS\t2010\t"
            "EINSTEIN A, 1905, ANN PHYS-BERLIN, V17, P891; KUHN TS, 1962, STRUCTURE SCI REVOLU\t"
            "WOS:1\n"
            "J\tRoe, R\tWork two\tERKENNTNIS\t2011\t\tWOS:2\n"
        )
        records, diag = parse_export(text)
        assert diag.records_parsed == 2
        assert records[0].get("CR") == (
            "EINSTEIN A, 1905, ANN PHYS-BERLIN, V17, P891",
            "KUHN TS, 1962, STRUCTURE SCI REVOLU",
        )
        assert records[1].get("CR") == ()
        assert records[1].first("UT") == "WOS:2"

    def test_wrong_column_count_is_malformed(self):
        text = f"{self.HEADER}\nJ\tonly\tthree\n"
        records, diag = parse_export(text)
        assert records == []
        assert diag.malformed_records == 1
        with pytest.raises(ExportParseError) as err:
            parse_export(text, strict=True)
        assert "line 2" in str(err.value)

    def test_empty_cells_omitted(self):
        text = f"{self.HEADER}\nJ\t\tTitle\tERKENNTNIS\t2010\t\tWOS:1\n"
        records, _ = parse_export(text)
        assert records[0].first("AU") is None
        assert records[0].first("TI") == "Title"

    def test_concatenated_tab_delimited_exports(self):
        # A later header line, maybe after a byte-order mark, is no record.
        first = f"{self.HEADER}\nJ\tDoe, J\tOne\tX\t2010\tA B, 1950, X\tWOS:1\n"
        second = f"{self.HEADER}\nJ\tRoe, R\tTwo\tY\t2011\tC D, 1951, Y\tWOS:2\n"
        for text in (first + second, first + "\n" + second, first + "\ufeff" + second):
            records, diag = parse_export(text, strict=True)
            assert [r.first("UT") for r in records] == ["WOS:1", "WOS:2"]
            assert (diag.malformed_records, diag.cr_lines_parsed) == (0, 2)

    def test_later_header_rereads_the_columns(self):
        first = f"{self.HEADER}\nJ\tDoe, J\tOne\tX\t2010\tA B, 1950, X\tWOS:1\n"
        second = "UT\t CR \tPY\tSO\nWOS:2\tC D, 1951, Y; E F, 1952, Z\t2011\tY\n"
        records, diag = parse_export(first + second, strict=True)
        assert records[1] == RawRecord(
            {"UT": ("WOS:2",), "CR": ("C D, 1951, Y", "E F, 1952, Z"), "PY": ("2011",), "SO": ("Y",)}
        )
        assert (diag.malformed_records, diag.cr_lines_parsed) == (0, 3)

    def test_row_naming_py_and_cr_in_a_cell_is_a_row(self):
        # Only a line whose stripped cells are the PY and CR tags is a header.
        row = "J\tDoe, J\tCOPY OF PY\tCR HEBD\t2010\tA B, 1950, CR\tWOS:1\n"
        records, diag = parse_export(f"{self.HEADER}\n{row}", strict=True)
        assert [r.first("TI") for r in records] == ["COPY OF PY"]


_TAG_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
_tag_st = st.text(alphabet=_TAG_ALPHABET, min_size=2, max_size=2).filter(
    lambda t: t not in {"ER", "EF", "FN", "VR", "CR"}
)
_value_st = st.text(
    alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
    max_size=30,
)
_cr_value_st = st.text(
    alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=40,
).filter(lambda s: s.strip())
_record_st = st.builds(
    lambda tags, crs: RawRecord(dict(tags, **({"CR": crs} if crs else {}))),
    st.dictionaries(
        _tag_st, st.lists(_value_st, min_size=1, max_size=3).map(tuple), min_size=1, max_size=5
    ),
    st.lists(_cr_value_st, max_size=3).map(tuple),
)


class TestRoundTrip:
    @settings(max_examples=150)
    @given(st.lists(_record_st, min_size=1, max_size=5))
    def test_serialize_parse_serialize(self, records):
        text = tagged_export([r.tags for r in records])
        reparsed, diag = parse_export(text)
        assert diag.malformed_records == 0
        assert reparsed == records
        assert tagged_export([r.tags for r in reparsed]) == text

    def test_fixture_records_round_trip(self):
        records, _ = parse_export(THREE_RECORD_EXPORT)
        text = tagged_export([r.tags for r in records])
        reparsed, diag = parse_export(text)
        assert reparsed == records
        assert diag.malformed_records == 0


def _tracked_per_record(records: list[RawRecord]) -> float:
    """GC-tracked objects reachable from the records, classes aside, per record."""
    found: dict[int, object] = {}
    stack: list[object] = list(records)
    while stack:
        obj = stack.pop()
        if id(obj) not in found and not isinstance(obj, type):
            found[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
    return sum(map(gc.is_tracked, found.values())) / len(records)


@pytest.mark.parametrize("name", ["pinned_tagged.txt", "pinned_table.txt"])
class TestTupleValuedRecords:
    """A loaded record holds tuples of strings, so the collector keeps
    one object per record, the ``RawRecord``, after a full collection."""

    def test_one_tracked_object_per_record(self, name):
        records, _, _ = load_export(_FIXTURES / name)
        gc.collect()
        assert _tracked_per_record(records) <= 1.0

    def test_every_value_is_a_tuple(self, name):
        records, _, _ = load_export(_FIXTURES / name)
        assert records
        for record in records:
            assert record.tags
            assert all(type(values) is tuple for values in record.tags.values())
            assert record.get("ZZ") == ()

    def test_corpus_keeps_the_cr_tuple(self, name):
        records, _, _ = load_export(_FIXTURES / name)
        corpus, _ = build_corpus(records)
        by_uid: dict[str, RawRecord] = {}
        for raw in records:  # first occurrence wins, as in build_corpus
            by_uid.setdefault(raw.first("UT").strip(), raw)
        assert any(record.cited_refs for record in corpus.records)
        for record in corpus.records:
            assert record.cited_refs is by_uid[record.uid].get("CR")

    def test_records_built_with_lists_give_an_equal_corpus(self, name):
        records, _, _ = load_export(_FIXTURES / name)
        listed = [RawRecord({tag: list(v) for tag, v in r.tags.items()}) for r in records]
        assert build_corpus(listed) == build_corpus(records)


class TestCitedReferenceGrammar:
    def test_article_with_volume_and_page(self):
        ref = parse_cited_reference("EINSTEIN A, 1905, ANN PHYS-BERLIN, V17, P891")
        assert ref.author == "EINSTEIN A"
        assert ref.year == 1905
        assert ref.source == "ANN PHYS-BERLIN"
        assert ref.volume == "17"
        assert ref.page == "891"

    def test_book_without_volume(self):
        ref = parse_cited_reference("KUHN TS, 1970, STRUCTURE SCI REVOLU")
        assert ref.author == "KUHN TS"
        assert ref.year == 1970
        assert ref.source == "STRUCTURE SCI REVOLU"
        assert ref.volume == ref.page == ""

    def test_missing_year_keeps_the_author(self):
        ref = parse_cited_reference("HUME DAVID, TREATISE HUMAN NATUR")
        assert ref.author == "HUME DAVID"
        assert ref.year is None
        assert ref.source == ""

    def test_year_first_anonymous_work(self):
        ref = parse_cited_reference("1923, RELATIVITY THEORY")
        assert ref.author == UNKNOWN_AUTHOR
        assert ref.year == 1923
        assert ref.source == "RELATIVITY THEORY"

    def test_doi_segment_is_no_field(self):
        ref = parse_cited_reference(
            "SMITH J, 2004, J INFORMETR, V1, P8, DOI 10.1016/j.joi.2006.09.001"
        )
        assert ref == ("SMITH J", 2004, "J INFORMETR", "1", "8")

    @pytest.mark.parametrize("doi", ["DOI 10.1/x", "DOI DOI 10.1/x", "DOI P1"])
    def test_doi_right_after_the_year_is_no_source(self, doi):
        ref = parse_cited_reference(f"SMITH J, 2004, {doi}, V1")
        assert ref == ("SMITH J", 2004, "", "1", "")

    def test_year_outside_parse_window_ignored(self):
        assert parse_cited_reference("DOE J, 2101, FUTURE STUD").year is None
        assert parse_cited_reference("MARX K, 0867, DAS KAPITAL").year is None

    def test_first_volume_and_page_win(self):
        ref = parse_cited_reference("QUINE WV, 1951, PHILOS REV, V60, P20, V61, P99")
        assert ref.volume == "60"
        assert ref.page == "20"

    def test_empty_line_rejected(self):
        with pytest.raises(ValueError):
            parse_cited_reference("")
        with pytest.raises(ValueError):
            parse_cited_reference("   ")

    def test_is_the_works_key(self):
        # The parser returns the RefKey a drill counts: a named tuple, so
        # also a plain tuple of its five fields, and immutable.
        ref = parse_cited_reference("EINSTEIN A, 1905, ANN PHYS, V17, P891")
        assert type(ref) is RefKey
        assert ref == ("EINSTEIN A", 1905, "ANN PHYS", "17", "891")
        assert ref == RefKey(
            author="EINSTEIN A", year=1905, source="ANN PHYS", volume="17", page="891"
        )
        with pytest.raises(AttributeError):
            ref.year = 1906
        assert ref.year == 1905

    @settings(max_examples=300)
    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    def test_total_on_arbitrary_text(self, line):
        ref = parse_cited_reference(line)
        assert type(ref) is RefKey
        assert ref.author and all(isinstance(f, str) for f in ref[2:])
        if ref.year is not None:
            assert 1000 <= ref.year <= 2100


# Reference grammar: the earlier two-pass parse, kept verbatim.  It finds
# the year first, claims the author, year and source segments, then scans
# the unclaimed ones for volume, page and DOI.
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


def _two_pass_parse(cr_line: str) -> refkey_oracle.ParsedReference:
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
        candidate = refkey_oracle.normalize_author(segments[0])
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

    return refkey_oracle.ParsedReference(
        raw=cr_line,
        first_author=first_author,
        year=year,
        source=source,
        volume=volume,
        page=page,
        doi=doi,
    )


_SEGMENTS = [
    # authors and sources
    "EINSTEIN A", "Kuhn, T.S.", "[Anonymous]", "*US DEP ENERGY", "UNKNOWN", ".",
    "ANN PHYS-BERLIN", "J INFORMETR", "STRUCTURE SCI REVOLU",
    # years at and past the window's edges, and non-ASCII digits
    "0999", "1000", "1500", "1905", "2100", "2101", "１９０５", "19０5", "190", "19050",
    # volume, page and DOI look-alikes
    "V", "V17", "V4", "Vx", "V１７", "v17", "P", "P891", "P20", "PA1", "P-1", "p12",
    "DOI ", "DOI", "DOI 10.1/x", "DOI DOI 10.1/x", "DOI  10.2/y", "DOIx",
    # empty and whitespace-only segments, inner double spaces
    "", " ", "  ", "EINSTEIN  A", "ANN  PHYS",
]
_segment_st = st.builds(
    lambda lead, roll, known, free, trail: lead + (free if roll == 0 else known) + trail,
    st.sampled_from(["", " ", "  ", "\t"]),
    st.integers(0, 4),  # one segment in five is free text over the grammar's letters
    st.sampled_from(_SEGMENTS),
    st.text(st.sampled_from("V P DOI 19052,"), max_size=6),
    st.sampled_from(["", " ", "  "]),
)
_cr_line_st = st.lists(_segment_st, min_size=1, max_size=8).map(", ".join).filter(str.strip)


def _key_form(line: str) -> tuple:
    """The oracle's key fields of the two-pass parse of ``line``, year or not."""
    return refkey_oracle.key_fields(_two_pass_parse(line))


def _assert_oracle_key(line: str) -> None:
    """The oracle keys ``line`` as the parser does, ``display()`` included,
    and gives no key where the parser reads no year."""
    key = parse_cited_reference(line)
    oracle = refkey_oracle.reference_key(_two_pass_parse(line))
    if key.year is None:
        assert oracle is None
    else:
        fields = (oracle.author, oracle.year, oracle.source, oracle.volume, oracle.page)
        assert key == fields
        assert key.display() == oracle.display()


class TestCitedReferenceDifferential:
    @settings(max_examples=1000)
    @given(_cr_line_st)
    def test_one_pass_matches_two_pass_reference(self, line):
        assert parse_cited_reference(line) == _key_form(line)

    @settings(max_examples=1000)
    @given(_cr_line_st)
    def test_key_matches_two_pass_then_key_on_segment_soup(self, line):
        _assert_oracle_key(line)


# Strings of the common shape
# "[AUTHOR, ]YYYY, SOURCE[, V<vol>][, P<page>][, DOI <doi>]":
# each slot is (its usual values, its near misses), and a string takes at
# most one near miss, so every near miss is tried beside a shape that
# would otherwise hold.  "-" stands for no author segment at all.
_near_text_st = st.text(st.sampled_from("AVPDOI19 ,.'-a*"), max_size=6)
_CR_SLOTS = [
    ([""], st.sampled_from([" ", "  ", "\t", "\xa0"])),
    (
        ["EINSTEIN A", "VAN FRAASSEN BC", "O'NEILL J", "HAVERFORD-SMITH E", "UNKNOWN", "A", "-",
         "Kuhn TS", "van Fraassen BC", "Unknown", "v17"],
        st.one_of(
            st.sampled_from(
                ["[Anonymous]", "*US DEP ENERGY", "EINSTEIN  A", "EINSTEIN A.", "Kuhn T.S.",
                 "KUHN, T", "1905", "2100", "0999", "ÉMILE X", "Émile X", "1A B", "ß", ""]
            ),
            _near_text_st,
        ),
    ),
    ([", "], st.sampled_from([",  ", ",", " , ", ",\t", ", ,"])),
    (
        ["1000", "1500", "1905", "1999", "2000", "2100"],
        st.sampled_from(["0999", "2101", "１９０５", "19０5", "190", "19050", "", "1905 "]),
    ),
    ([", "], st.sampled_from([",  ", ",", " , ", ",\t", ", ,"])),
    (
        ["ANN PHYS-BERLIN", "J INFORMETR", "P", "V", "Vx", "DOI", "1905", "ANN  PHYS",
         "P12 SUPPL"],
        st.one_of(
            st.sampled_from(
                ["V2 X", "V17", "P12", "PA1", "DOI 10.1/x", "DOI DOI 10.1/x", "", " ", "Ann Phys",
                 "ANN PHYS ", " ANN PHYS", "ANN\tPHYS", "ANN PHYS\xa0", "ЖУРНАЛ"]
            ),
            _near_text_st,
        ),
    ),
    (
        ["", ", V17", ", V4A", ", V1-2"],
        st.sampled_from([", Vx", ", V", ", V１７", ", V17 SUPPL", ", v17", ", V17 ", ",V17"]),
    ),
    (
        ["", ", P891", ", PA1", ", P12A"],
        st.sampled_from([", P", ", P12 SUPPL", ", P-1", ", p12", ", P１", ", P12 ", ",  P12"]),
    ),
    (
        ["", ", DOI 10.1/x", ", DOI 10.1002/andp.19053220607", ", DOI DOI", ", DOI V17 P1"],
        st.sampled_from(
            [", DOI ", ", DOI", ", DOI DOI 10.1/x", ", DOI  10.1/x", ", DOI 10.1/x ", ", doi 10.1/x",
             ", DOI [10.1/x, 10.2/y]", ", DOI 10.1/é", ", DOI 10.1/x\xa0", ", DOI DOI DOI"]
        ),
    ),
    (
        [""],
        st.lists(
            st.sampled_from(["DOI 10.1/x", "V61", "P99", "X", "1905", "", " "]),
            min_size=1,
            max_size=3,
        ).map(lambda segments: "".join(", " + seg for seg in segments)),
    ),
    ([""], st.sampled_from([" ", "  ", "\t", "\xa0"])),
]


@st.composite
def _shaped_cr_st(draw) -> str:
    # Slot index of the near miss; the upper half of the range means none.
    odd = draw(st.sampled_from(range(2 * len(_CR_SLOTS))))
    parts = [
        draw(near if idx == odd else st.sampled_from(usual))
        for idx, (usual, near) in enumerate(_CR_SLOTS)
    ]
    if parts[1] == "-":
        parts[1:3] = ["", ""]
    line = "".join(parts)
    assume(line.strip())
    return line


# Lines on either side of each edge of the common shape, where a
# shortcut reading of the year would most likely go wrong.
_NEAR_MISSES = (
    [f"EINSTEIN A, {year}, ANN PHYS" for year in ("0999", MIN_RPY, MAX_RPY, MAX_RPY + 1, "１９０５")]
    + [
        f"EINSTEIN A, 1905, {source}{tail}"
        for source in ("V2 X", "V17", "P12", "PA1", "P12 SUPPL", "Vx", "P", "DOI 10.1/x")
        for tail in ("", ", V17", ", P891", ", DOI 10.1/x")
    ]
    + [
        f"EINSTEIN A, 1905, ANN PHYS, V17, P891, {doi}"
        for doi in ("DOI ", "DOI DOI 10.1/x", "DOI  10.1/x", "DOI 10.1/x ", "DOI [10.1/x, 10.2/y]")
    ]
    + [
        "EINSTEIN A, 1905, ANN PHYS-BERLIN, V17, P891, DOI 10.1002/andp.19053220607",
        "Kuhn TS, 1962, STRUCTURE SCI REVOLU",
        "van Fraassen BC, 1980, SCI IMAGE, DOI 10.1/x",
        "Unknown, 1905, ANN PHYS",
        "A, 1905, ",
    ]
)


# Segments on either side of cited_year's length check, which strips
# only segments that are not 4 characters long.
_LENGTH_NEAR_MISSES = {
    " 1905": 1905,
    "1905\t": 1905,
    "\u00a01905": 1905,
    "\u0661\u0669\u0660\u0665": None,  # 4 digits, not ASCII
    "01905": None,
    "190 5": None,
    "0999, 1905": 1905,
    "2101, 1999": 1999,
    ", 1905": 1905,
    "X, 1905,": None,
}


class TestCitedYear:
    """``cited_year`` reads the year ``parse_cited_reference`` reads."""

    @pytest.mark.parametrize("line", _NEAR_MISSES)
    def test_near_miss_at_each_edge(self, line):
        assert cited_year(line) == parse_cited_reference(line).year

    @pytest.mark.parametrize("template", ["{}", "EINSTEIN A, {}, ANN PHYS"])
    @pytest.mark.parametrize("segment, year", list(_LENGTH_NEAR_MISSES.items()))
    def test_near_miss_at_length_check(self, template, segment, year):
        line = template.format(segment)
        assert cited_year(line) == parse_cited_reference(line).year == year

    @settings(max_examples=1000)
    @given(_cr_line_st)
    @example("X, 1905, ")  # the line is stripped before it is split
    def test_matches_parse_on_segment_soup(self, line):
        assert cited_year(line) == parse_cited_reference(line).year

    @settings(max_examples=1000)
    @given(_shaped_cr_st())
    def test_matches_parse_on_common_shapes(self, line):
        assert cited_year(line) == parse_cited_reference(line).year


# The year predicate the year table replaced, on the stripped segment.
def _predicate_year(cr_line: str) -> int | None:
    for seg in cr_line.strip().split(", "):
        if _is_rpy(seg.strip()):
            return int(seg)
    return None


# Years in other digits (int() reads them), outside the window, with a
# leading zero or sign, and padded with spaces, tabs or NBSP.
_YEAR_LOOKALIKES = [
    "１９０５", "١٩٠٥", "0999", "01905", "+905", "999", "1000", "2100", "2101", "1905", "19０5",
    "-905", "1905.", "1_905",
]
_pad_st = st.sampled_from(["", " ", "  ", "\t", "\xa0", " \xa0"])
_year_segment_st = st.builds(
    lambda lead, seg, trail: lead + seg + trail,
    _pad_st,
    st.one_of(
        st.sampled_from(_YEAR_LOOKALIKES),
        st.integers(0, 9999).map("{:04d}".format),
        st.integers(-99, 99999).map(str),
    ),
    _pad_st,
)
_year_soup_st = (
    st.lists(st.one_of(_year_segment_st, _segment_st), min_size=1, max_size=6)
    .map(", ".join)
    .filter(str.strip)
)


class TestYearRead:
    """Both year readers agree with the predicate the year table replaced."""

    @settings(max_examples=1000)
    @given(_year_soup_st)
    @example("X, \xa01905\xa0, Y")
    @example("\t2100")
    @example("１９０５, 1000")
    def test_matches_predicate_on_year_soup(self, line):
        assert cited_year(line) == parse_cited_reference(line).year == _predicate_year(line)

    @pytest.mark.parametrize("zero", ["０", "٠", "۰", "०"])
    def test_non_ascii_digits_refused(self, zero):
        # int() reads every one of these as the year; the table reads none.
        to_other = str.maketrans("0123456789", "".join(chr(ord(zero) + d) for d in range(10)))
        for year in range(MIN_RPY, MAX_RPY + 1):
            other = str(year).translate(to_other)
            assert int(other) == year
            line = f"EINSTEIN A, {other}, ANN PHYS"
            assert cited_year(line) is None and parse_cited_reference(line).year is None


class TestKeyTokenMemo:
    def test_memo_is_bounded(self):
        info = wos.key_token.cache_info()
        assert info.maxsize == wos.KEY_TOKEN_MEMO_SIZE > 0  # None is unbounded
        assert info.currsize <= info.maxsize

    @settings(max_examples=500)
    @given(_cr_line_st)
    def test_cleared_and_warm_memo_parse_alike(self, line):
        wos.key_token.cache_clear()
        cold = parse_cited_reference(line)
        assert parse_cited_reference(line) == cold
        assert cold == _key_form(line)


@settings(max_examples=1000)
@given(_shaped_cr_st())
def test_one_pass_matches_two_pass_on_common_shapes(line):
    assert parse_cited_reference(line) == _key_form(line)


@settings(max_examples=1000)
@given(_shaped_cr_st())
def test_key_matches_two_pass_then_key_on_common_shapes(line):
    _assert_oracle_key(line)


# One line of an export in bytes: UTF-8 text, Latin-1 text or any bytes.
_byte_line_st = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=12)
    .map(lambda s: s.encode("utf-8")),
    st.text(st.characters(max_codepoint=255, blacklist_characters="\n"), max_size=12)
    .map(lambda s: s.encode("latin-1")),
    st.binary(max_size=12).map(lambda b: b.replace(b"\n", b"")),
)


def _decode_per_line(data: bytes) -> str:
    """Reference decoder: UTF-16 by BOM, else UTF-8 per line, Latin-1 fallback."""
    if data.startswith((codecs.BOM_UTF16_LE, codecs.BOM_UTF16_BE)):
        return data.decode("utf-16", errors="replace")
    lines = []
    for bline in data.split(b"\n"):
        try:
            lines.append(bline.decode("utf-8"))
        except UnicodeDecodeError:
            lines.append(bline.decode("latin-1"))
    return "\n".join(lines)


class TestEncodingAndLoading:
    def test_latin1_line_inside_utf8_file(self):
        blocks = [citing_record("WOS:1", crs=["POINCARÉ H, 1905, CR HEBD ACAD SCI"])]
        data = tagged_export(blocks).encode("utf-8")
        broken = data.replace("POINCARÉ".encode("utf-8"), "POINCARÉ".encode("latin-1"))
        text = decode_export_bytes(broken)
        records, _ = parse_export(text)
        assert "POINCARÉ H" in records[0].get("CR")[0]

    def test_load_export_autodetects(self, tmp_path):
        path = tmp_path / "export.txt"
        path.write_text(tagged_export([citing_record("WOS:1")]), encoding="utf-8")
        records, diag, fmt = load_export(path)
        assert fmt == TAGGED
        assert len(records) == 1
        assert diag.malformed_records == 0

    def test_headerless_tagged_export_reads_like_its_twin(self, tmp_path):
        # Without FN and VR, an export starts with its first record.
        blocks = [citing_record("WOS:1", crs=["A B, 1950, X"]), citing_record("WOS:2")]
        text = tagged_export(blocks)
        headed, headerless = tmp_path / "headed.txt", tmp_path / "headerless.txt"
        headed.write_text(text, encoding="utf-8")
        headerless.write_text(text.split("\n", 2)[2], encoding="utf-8")
        assert headerless.read_text(encoding="utf-8").startswith("PT J\n")
        for strict in (False, True):
            records, diag, fmt = load_export(headerless, strict=strict)
            assert (records, diag, fmt) == load_export(headed, strict=strict)
            assert fmt == TAGGED
            assert len(records) == 2

    def test_load_export_takes_no_format(self, tmp_path):
        path = tmp_path / "export.txt"
        path.write_text(tagged_export([citing_record("WOS:1")]), encoding="utf-8")
        with pytest.raises(TypeError):
            load_export(path, "tsv")

    def test_utf16_exports_match_their_utf8_text(self, tmp_path):
        cr = "POINCARÉ H, 1905, CR HEBD ACAD SCI"
        tagged = tagged_export([citing_record("WOS:1", crs=[cr])]).replace("\n", "\r\n")
        tsv = f"PT\tSO\tPY\tCR\tUT\nJ\tERKENNTNIS\t2010\t{cr}; KUHN TS, 1962, X\tWOS:1\n"
        cases = [
            (tagged, codecs.BOM_UTF16_LE, "utf-16-le", TAGGED),
            (tsv, codecs.BOM_UTF16_BE, "utf-16-be", TAB_DELIMITED),
        ]
        for text, bom, encoding, fmt in cases:
            utf16 = tmp_path / "utf16.txt"
            utf16.write_bytes(bom + text.encode(encoding))
            utf8 = tmp_path / "utf8.txt"
            utf8.write_bytes(text.encode("utf-8"))
            records, diag, detected = load_export(utf16)
            assert (records, diag, detected) == load_export(utf8)
            assert detected == fmt
            assert records[0].get("CR")[0] == cr
            assert diag.malformed_records == 0

    def test_odd_length_utf16_does_not_raise(self, tmp_path):
        text = tagged_export([citing_record("WOS:1")])
        data = codecs.BOM_UTF16_LE + text.encode("utf-16-le") + b"E"
        assert decode_export_bytes(data) == text + "\ufffd"
        path = tmp_path / "export.txt"
        path.write_bytes(data)
        records, diag, _ = load_export(path)
        assert len(records) == 1
        assert diag.malformed_positions == (text.count("\n") + 1,)

    @settings(max_examples=300)
    @given(
        st.lists(_byte_line_st, max_size=8),
        st.sampled_from([b"\n", b"\r\n"]),
        st.sampled_from([b"", codecs.BOM_UTF8]),
    )
    def test_decode_matches_per_line_reference(self, lines, newline, bom):
        data = bom + newline.join(lines)
        assert decode_export_bytes(data) == _decode_per_line(data)

    def test_crlf_line_endings(self):
        text = tagged_export([citing_record("WOS:1")]).replace("\n", "\r\n")
        records, diag = parse_export(text)
        assert len(records) == 1
        assert diag.malformed_records == 0


# Generated exports: tagged files are a header plus a soup of structural,
# tag, continuation, blank and junk lines; tab-delimited files are a
# header plus rows of random width.  Both carry every defect kind.
_tagged_line_st = st.one_of(
    st.sampled_from(
        ["PT J", "UT WOS:1", "CR A B, 1905, X", "   C D, 1950, Y", "   ", "ER", "ER ", "EF"]
        + ["", "\tjunk", "junk", "FN again"]
    ),
    st.builds(lambda tag, value: f"{tag} {value}", _tag_st, _value_st),
)
_tagged_text_st = st.lists(_tagged_line_st, max_size=14).map(
    lambda lines: "FN WoS\nVR 1.0\n" + "\n".join(lines) + "\n"
)
_tsv_row_st = st.lists(_value_st.filter(lambda v: "\t" not in v), min_size=1, max_size=5)
_tsv_text_st = st.lists(_tsv_row_st, max_size=6).map(
    lambda rows: "PT\tPY\tCR\tUT\n" + "".join("\t".join(row) + "\n" for row in rows)
)
_export_st = st.one_of(
    st.tuples(st.just(TAGGED), _tagged_text_st),
    st.tuples(st.just(TAB_DELIMITED), _tsv_text_st),
)


_ENCODINGS = {
    "utf-8": lambda text: text.encode("utf-8"),
    "utf-8-sig": lambda text: text.encode("utf-8-sig"),
    "utf-16-le": lambda text: codecs.BOM_UTF16_LE + text.encode("utf-16-le"),
    "utf-16-be": lambda text: codecs.BOM_UTF16_BE + text.encode("utf-16-be"),
}


def _outcome(fn, *args, **kwargs):
    """A call's result, its records' values as tuples, or its exception's
    type, message and line (None for an undetected layout).

    The reference readers store lists; the pin tests guard that
    ``rpys.wos`` stores tuples.
    """
    try:
        records, *rest = fn(*args, **kwargs)
    except (ExportParseError, UnrecognizedFormatError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    tupled = [RawRecord({tag: tuple(v) for tag, v in r.tags.items()}) for r in records]
    return tupled, *rest


class TestLineEndsAndEncodings:
    @settings(max_examples=200)
    @given(_export_st, st.booleans())
    def test_crlf_and_bom_parse_like_lf(self, export, strict):
        _, text = export
        expected = _outcome(parse_export, text, strict=strict)
        for variant in (text.replace("\n", "\r\n"), "\ufeff" + text):
            assert _outcome(parse_export, variant, strict=strict) == expected

    @settings(max_examples=100)
    @given(
        _export_st,
        st.sampled_from(["\n", "\r\n"]),
        st.sampled_from(list(_ENCODINGS)),
        st.booleans(),
    )
    def test_load_export_matches_parse_of_text(
        self, tmp_path_factory, export, newline, encoding, strict
    ):
        fmt, text = export
        text = text.replace("\n", newline)
        path = tmp_path_factory.mktemp("enc") / "export.txt"
        path.write_bytes(_ENCODINGS[encoding](text))
        assert _outcome(load_export, path, strict=strict) == _outcome(
            lambda: (*parse_export(text, strict=strict), fmt)
        )


# Soups for the reader differential, dense in the lines where reading
# one field at a time could part from reading one line at a time:
# continuation look-alikes, line ends, mid-file headers and terminators.
_soup_line_st = st.one_of(
    st.sampled_from(
        ["   ", "    ", "     x", "   ER", "   EF", "   C D, 1950, Y", "   \t", "\t", "\tjunk"]
        + ["PT J", "UT WOS:1", "CR A B, 1905, X", "CR", "CR ", "ER", "ER ", " ER", "EF", "EF "]
        + ["FN WoS", "VR 1.0", "", " ", "  ", "junk", "pt J", "\ufeffPT J", "X\rY", "\x1c"]
        + ["FN", "FN\tx", "FNx", "\ufeffFN WoS", "\ufeff\ufeffFN"]
        # tag-line near misses
        + ["AU", "AU  x", "AUx", "AU\tx", "A", "A1 x", "1A", "Au x", "\u00c91 x", "\uff21U x"]
    ),
    st.builds(lambda tag, value: f"{tag} {value}", _tag_st, _value_st),
    st.builds(lambda indent, value: indent + value, st.sampled_from(["   ", "    "]), _value_st),
)
_line_end_st = st.sampled_from(["", "", "", "\r", "\r\r"])


@st.composite
def _soup_text_st(draw, line_st, headers: list[str]) -> str:
    lines = draw(st.lists(st.tuples(line_st, _line_end_st).map("".join), max_size=16))
    lines.insert(0, draw(st.sampled_from(headers)) + draw(_line_end_st))
    bom = draw(st.sampled_from(["", "", "\ufeff", "\ufeff\ufeff"]))
    return bom + "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n", "\n\n"]))


_tsv_cell_st = st.one_of(
    st.sampled_from(
        ["", " ", "A B, 1905, X; C D, 1950, Y", "A B, 1905, X;  ; ", "; ", " ;  ; ", "x;y", "2010"]
    ),
    _value_st.filter(lambda v: "\t" not in v),
)
_tsv_soup_line_st = st.one_of(
    st.lists(_tsv_cell_st, min_size=4, max_size=4).map("\t".join),
    st.lists(_tsv_cell_st, max_size=5).map("\t".join),
    # a cat-joined export's header, of any width and order, and near misses
    st.sampled_from(
        ["PT\tPY\tCR\tUT", "\ufeffPT\tPY\tCR\tUT", "UT\tCR\tPY", " CR \t PY ", "PT\tAU\tPY\tCR\tUT"]
        + ["PY\tCR", "PYCR\tUT", "COPY\tCRAB", "PY CR", "PY\tUT", "\ufeff\ufeffPY\tCR"]
    ),
)
# First lines: nearly all pass detect_format's rules, so nearly every
# soup reaches a reader; the last of each pool (blank) passes neither.
_soup_export_st = st.one_of(
    _soup_text_st(
        _soup_line_st,
        ["FN WoS\nVR 1.0", "FN WoS\nVR 1.0", "FN WoS", "VR 1.0", "PT J", "UT WOS:1"]
        + ["CR A B, 1905, X", "ER", "EF", ""],
    ),
    _soup_text_st(
        _tsv_soup_line_st,
        ["PT\tPY\tCR\tUT", "PT\tPY\tCR\tUT", "PT\t PY \tCR\tU", "pt\tPY\tCR\tUT1"]
        + ["\u00c9T\tPY\tCR\tUT", "PT\tAU\tPY\tCR\tUT", "UT\tCR\tPY", " CR \t PY ", "PY\tCR", ""],
    ),
)


class TestReaderDifferential:
    """The readers match the per-line reference readers on any text, and
    reject the same texts as of no layout."""

    @settings(max_examples=600)
    @given(_soup_export_st, st.booleans())
    @example("FN WoS\n   x\nPT J\nER", False)  # a continuation with no record open
    # after EF, a tag line behind a BOM starts the next export, even an ER
    @example("PT J\nER\nEF\n\n\ufeffPT J\nUT X\nER\nEF\nER\n", False)
    @example("   PT J\nUT X", True)  # an indented first line is of no layout
    @example("", False)
    # a header row of a cat-joined export, behind a BOM and before a CR, is no record
    @example("PT\tPY\tCR\tUT\n\ufeffPT\tPY\tCR\tUT\r\nJ\t1\tA\tB\n", True)
    # a second header of another width and column order holds the columns after it
    @example("PT\tPY\tCR\tUT\nJ\t1\tA\tB\nUT\tAU\tCR\tX1\tPY\nC\tD\tE; F\tG\t2\n", True)
    def test_readers_match_reference(self, text, strict):
        assert _outcome(parse_export, text, strict=strict) == _outcome(
            _reference_parse, text, strict=strict
        )

    @settings(max_examples=150)
    @given(_soup_export_st)
    @example("PT J\nUT WOS:1\nER\n")  # a tagged export without its FN header
    @example("FNORD\nPT J\nER\n")  # FN with no space after it is no tag line
    @example("PT \tPY\tCR\tUT\n")  # the header rule comes first
    def test_detect_format_matches_reference(self, text):
        def outcome(detect):
            try:
                return detect(text)
            except UnrecognizedFormatError as exc:
                return str(exc)

        assert outcome(detect_format) == outcome(reference_reader.detect_format)
