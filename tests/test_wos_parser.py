"""Export parsing: format detection, tagged/tab layouts, CR grammar."""

from __future__ import annotations

import codecs

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rpys import (
    ExportParseError,
    RawRecord,
    UnrecognizedFormatError,
    detect_format,
    load_export,
    parse_cited_reference,
    parse_export,
    serialize_export,
)
from rpys.wos import TAB_DELIMITED, TAGGED, decode_export_bytes

from conftest import THREE_RECORD_EXPORT, citing_record, tagged_export


class TestDetectFormat:
    def test_fn_header_is_tagged(self):
        assert detect_format("FN Clarivate Analytics Web of Science\nVR 1.0\n") == TAGGED

    def test_tab_header_is_tab_delimited(self):
        assert detect_format("PT\tAU\tTI\tSO\tPY\tCR\tUT\n") == TAB_DELIMITED

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
        assert records[0].get("CR") == [
            "CARNAP R, 1928, LOGISCHE AUFBAU WELT",
            "SCHLICK M, 1930, NATURWISSENSCHAFTEN, V18, P1",
            "WITTGENSTEIN L, 1922, TRACTATUS LOGICO PHI",
        ]

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
        text = tagged_export([citing_record("WOS:1")]) + "PT J\nER\n"
        records, diag = parse_export(text)
        assert len(records) == 1
        assert diag.malformed_records == 1
        with pytest.raises(ExportParseError):
            parse_export(text, strict=True)

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
        assert records[0].get("TI") == ["Title line", "ER"]
        assert diag.malformed_records == 0

    def test_missing_ef_at_eof_accepted(self):
        text = "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nER\n"
        records, diag = parse_export(text)
        assert len(records) == 1
        assert diag.malformed_records == 0

    def test_duplicate_tag_lines_append(self):
        text = "FN WoS\nVR 1.0\nAU First, A\nAU Second, B\nUT WOS:1\nER\nEF\n"
        records, _ = parse_export(text)
        assert records[0].get("AU") == ["First, A", "Second, B"]

    def test_cr_reference_count_matches_sum(self):
        records, diag = parse_export(THREE_RECORD_EXPORT)
        assert diag.cr_lines_parsed == sum(len(r.get("CR")) for r in records)


# One case per structural defect: layout, text, UTs of the records kept
# in lenient mode, lenient malformed_positions, strict message.
_DEFECT_CASES = {
    "orphan_er": (
        TAGGED,
        "FN WoS\nVR 1.0\nER\nPT J\nUT WOS:1\nER\nEF\n",
        ["WOS:1"],
        [3],
        "line 3: record terminator without an open record",
    ),
    "junk_between_records_resyncs_at_er": (
        TAGGED,
        "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nER\n?? junk\nPT J\nUT WOS:2\nER\n"
        "PT J\nUT WOS:3\nER\nEF\n",
        ["WOS:1", "WOS:3"],
        [6],
        "line 6: expected a tag line",
    ),
    "junk_between_records_resyncs_at_ef": (
        TAGGED,
        "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nER\n?? junk\nPT J\nEF\nPT J\n",
        ["WOS:1"],
        [6, 9],
        "line 6: expected a tag line",
    ),
    "junk_inside_record": (
        TAGGED,
        "FN WoS\nVR 1.0\nPT J\nUT WOS:1\n\tbad\nCR A B, 1905, X\nER\n"
        "PT J\nUT WOS:2\nER\nEF\n",
        ["WOS:2"],
        [5],
        "line 5: malformed line inside record",
    ),
    "ef_inside_record": (
        TAGGED,
        "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nER\nPT J\nUT WOS:2\nEF\n",
        ["WOS:1"],
        [8],
        "line 8: record not terminated by ER before EF",
    ),
    "content_after_ef": (
        TAGGED,
        "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nER\nEF\n \nPT J\nER\n",
        ["WOS:1"],
        [8],
        "line 8: content after EF terminator",
    ),
    "end_of_input_inside_record": (
        TAGGED,
        "FN WoS\nVR 1.0\nPT J\nUT WOS:1\nER\nPT J\nUT WOS:2\n",
        ["WOS:1"],
        [8],
        "line 8: record not terminated by ER at end of input",
    ),
    "tsv_column_count": (
        TAB_DELIMITED,
        "PT\tPY\tCR\tUT\nJ\t2010\t\tWOS:1\nJ\t2011\nJ\t2012\t\tWOS:3\n",
        ["WOS:1", "WOS:3"],
        [3],
        "line 3: expected 4 columns, found 2",
    ),
}


@pytest.mark.parametrize(
    "fmt, text, kept, positions, message",
    list(_DEFECT_CASES.values()),
    ids=list(_DEFECT_CASES),
)
def test_each_defect_reported_at_its_line(fmt, text, kept, positions, message):
    records, diag = parse_export(text, fmt)
    assert [r.first("UT") for r in records] == kept
    assert diag.malformed_positions == positions
    with pytest.raises(ExportParseError) as err:
        parse_export(text, fmt, strict=True)
    assert str(err.value) == message
    assert err.value.line == positions[0]


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
        records, diag = parse_export(text, TAB_DELIMITED)
        assert diag.records_parsed == 2
        assert records[0].get("CR") == [
            "EINSTEIN A, 1905, ANN PHYS-BERLIN, V17, P891",
            "KUHN TS, 1962, STRUCTURE SCI REVOLU",
        ]
        assert records[1].get("CR") == []
        assert records[1].first("UT") == "WOS:2"

    def test_wrong_column_count_is_malformed(self):
        text = f"{self.HEADER}\nJ\tonly\tthree\n"
        records, diag = parse_export(text, TAB_DELIMITED)
        assert records == []
        assert diag.malformed_records == 1
        with pytest.raises(ExportParseError) as err:
            parse_export(text, TAB_DELIMITED, strict=True)
        assert "line 2" in str(err.value)

    def test_empty_cells_omitted(self):
        text = f"{self.HEADER}\nJ\t\tTitle\tERKENNTNIS\t2010\t\tWOS:1\n"
        records, _ = parse_export(text, TAB_DELIMITED)
        assert records[0].first("AU") is None
        assert records[0].first("TI") == "Title"


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
    st.dictionaries(_tag_st, st.lists(_value_st, min_size=1, max_size=3), min_size=1, max_size=5),
    st.lists(_cr_value_st, max_size=3),
)


class TestRoundTrip:
    @settings(max_examples=150)
    @given(st.lists(_record_st, min_size=1, max_size=5))
    def test_serialize_parse_serialize(self, records):
        text = serialize_export(records)
        reparsed, diag = parse_export(text)
        assert diag.malformed_records == 0
        assert reparsed == records
        assert serialize_export(reparsed) == text

    def test_fixture_records_round_trip(self):
        records, _ = parse_export(THREE_RECORD_EXPORT)
        text = serialize_export(records)
        reparsed, diag = parse_export(text)
        assert reparsed == records
        assert diag.malformed_records == 0


class TestCitedReferenceGrammar:
    def test_article_with_volume_and_page(self):
        ref = parse_cited_reference("EINSTEIN A, 1905, ANN PHYS-BERLIN, V17, P891")
        assert ref.first_author == "EINSTEIN A"
        assert ref.year == 1905
        assert ref.source == "ANN PHYS-BERLIN"
        assert ref.volume == "17"
        assert ref.page == "891"
        assert ref.doi is None

    def test_book_without_volume(self):
        ref = parse_cited_reference("KUHN TS, 1970, STRUCTURE SCI REVOLU")
        assert ref.first_author == "KUHN TS"
        assert ref.year == 1970
        assert ref.source == "STRUCTURE SCI REVOLU"
        assert ref.volume is None and ref.page is None

    def test_missing_year_keeps_raw(self):
        line = "HUME DAVID, TREATISE HUMAN NATUR"
        ref = parse_cited_reference(line)
        assert ref.first_author == "HUME DAVID"
        assert ref.year is None
        assert ref.source is None
        assert ref.raw == line

    def test_year_first_anonymous_work(self):
        ref = parse_cited_reference("1923, RELATIVITY THEORY")
        assert ref.first_author is None
        assert ref.year == 1923
        assert ref.source == "RELATIVITY THEORY"

    def test_doi_segment(self):
        ref = parse_cited_reference(
            "SMITH J, 2004, J INFORMETR, V1, P8, DOI 10.1016/j.joi.2006.09.001"
        )
        assert ref.doi == "10.1016/j.joi.2006.09.001"

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

    @settings(max_examples=300)
    @given(st.text(min_size=1).filter(lambda s: s.strip()))
    def test_total_on_arbitrary_text(self, line):
        ref = parse_cited_reference(line)
        assert ref.raw == line
        if ref.year is not None:
            assert 1000 <= ref.year <= 2100


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
        assert diag.malformed_positions == [text.count("\n") + 1]

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
    """A call's result, or its exception's type, message and line."""
    try:
        return fn(*args, **kwargs)
    except ExportParseError as exc:
        return type(exc), str(exc), exc.line


class TestLineEndsAndEncodings:
    @settings(max_examples=200)
    @given(_export_st, st.booleans())
    def test_crlf_and_bom_parse_like_lf(self, export, strict):
        fmt, text = export
        expected = _outcome(parse_export, text, fmt, strict=strict)
        for variant in (text.replace("\n", "\r\n"), "\ufeff" + text):
            assert _outcome(parse_export, variant, fmt, strict=strict) == expected

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
            lambda: (*parse_export(text, fmt, strict=strict), fmt)
        )
