"""Corpus building: dedup, filtering, identities, journal statistics."""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rpys.corpus
import rpys.wos
from rpys import (
    Corpus,
    CorpusDiagnostics,
    CorpusError,
    Peak,
    RawRecord,
    Record,
    RefKey,
    UNKNOWN_AUTHOR,
    author_breakdown,
    build_corpus,
    compute_spectrum,
    corpus_stats,
    drill_year,
    load_export,
    parse_cited_reference,
    parse_export,
    profile_all_peaks,
)

from rpys.wos import key_token

import refkey_oracle
from conftest import citing_record, tagged_export


class TestKeyToken:
    """The one normalization of a work key's fields; the parsed author holds it."""

    def test_comma_and_period_form(self):
        assert key_token("Einstein, A.") == "EINSTEIN A"
        assert parse_cited_reference("Einstein A., 1905, X").author == "EINSTEIN A"

    def test_already_normalized_is_identity(self):
        assert key_token("KUHN TS") == "KUHN TS"
        assert parse_cited_reference("KUHN TS, 1962, X").author == "KUHN TS"

    def test_empty_maps_to_no_author(self):
        assert key_token("") == key_token(" . , ") == ""
        for line in ["., 1905, X", "[ ], 1905, X", "Unknown, 1905, X", "1905, X"]:
            assert parse_cited_reference(line).author == UNKNOWN_AUTHOR, line

    @settings(max_examples=200)
    @given(st.text(max_size=40))
    def test_idempotent(self, raw):
        once = key_token(raw)
        assert key_token(once) == once

    @settings(max_examples=200)
    @given(st.text(max_size=40))
    def test_memo_matches_unmemoized(self, raw):
        # Once to fill the memo, once to read it.
        assert key_token(raw) == key_token(raw) == refkey_oracle.key_token(raw)


class TestReferenceKey:
    LINE = "EINSTEIN A, 1905, ANN PHYS-BERLIN, V17, P891"

    def test_one_class_behind_every_name(self):
        # The parser's RefKey is the one the drill and the package export.
        assert rpys.RefKey is rpys.wos.RefKey is rpys.corpus.RefKey
        assert type(parse_cited_reference(self.LINE)) is RefKey

    def test_equal_lines_equal_keys(self):
        a = parse_cited_reference(self.LINE)
        b = parse_cited_reference(self.LINE)
        assert a == b
        assert hash(a) == hash(b)

    def test_volume_difference_changes_key(self):
        other = self.LINE.replace("V17", "V18")
        assert parse_cited_reference(self.LINE) != parse_cited_reference(other)

    def test_missing_year_gives_no_year(self):
        key = parse_cited_reference("HUME D, TREATISE HUMAN NATUR")
        assert key == ("HUME D", None, "", "", "")

    def test_doi_excluded_from_identity(self):
        with_doi = parse_cited_reference(self.LINE + ", DOI 10.1002/andp.19053221004")
        assert with_doi == parse_cited_reference(self.LINE)

    def test_display_reads_like_a_reference(self):
        key = parse_cited_reference(self.LINE)
        assert key.display() == "EINSTEIN A, 1905, ANN PHYS-BERLIN, V17, P891"

    def test_anonymous_ref_keys_group_under_unknown(self):
        key = parse_cited_reference("1923, RELATIVITY THEORY")
        assert key.author == UNKNOWN_AUTHOR


# Few values per field, so keys tie in every field; UNKNOWN and empty
# source, volume and page included.
_key_fields = st.tuples(
    st.sampled_from([UNKNOWN_AUTHOR, "EINSTEIN A", "EINSTEIN", "A", "a", ""]),
    st.sampled_from([1000, 1905, 1906, 2100]),
    st.sampled_from(["", "ANN PHYS", "ANN PHYS-BERLIN", "Z"]),
    st.sampled_from(["", "17", "170", "2"]),
    st.sampled_from(["", "891", "89", "9"]),
)


class TestRefKeyContract:
    """The named-tuple RefKey behaves as the ordered dataclass it replaced."""

    @settings(max_examples=300)
    @given(st.lists(_key_fields, max_size=12))
    def test_matches_dataclass_oracle(self, rows):
        new = [RefKey(*row) for row in rows]
        old = [refkey_oracle.RefKey(*row) for row in rows]
        # sorted() is stable, so equal keys keep their input order on both sides.
        assert sorted(range(len(rows)), key=new.__getitem__) == sorted(
            range(len(rows)), key=old.__getitem__
        )
        assert [[a == b for b in new] for a in new] == [[a == b for b in old] for a in old]
        assert [[a < b for b in new] for a in new] == [[a < b for b in old] for a in old]
        assert [k.display() for k in new] == [k.display() for k in old]
        assert all(hash(a) == hash(b) for a in new for b in new if a == b)

    def test_keyword_construction(self):
        key = RefKey(author="EINSTEIN A", year=1905, source="ANN PHYS", volume="17", page="")
        assert key == RefKey("EINSTEIN A", 1905, "ANN PHYS", "17", "")
        assert (key.author, key.year, key.source, key.volume, key.page) == (
            "EINSTEIN A", 1905, "ANN PHYS", "17", "",
        )

    def test_frozen(self):
        key = RefKey("EINSTEIN A", 1905, "ANN PHYS", "17", "")
        with pytest.raises(AttributeError):
            key.author = "POINCARE H"
        assert key.author == "EINSTEIN A"

    def test_is_a_plain_tuple_of_its_fields(self):
        # Documented side effects of the named tuple.
        key = RefKey("EINSTEIN A", 1905, "ANN PHYS", "17", "")
        assert isinstance(key, tuple)
        assert key == ("EINSTEIN A", 1905, "ANN PHYS", "17", "")


def _parse(blocks):
    records, _ = parse_export(tagged_export(blocks))
    return records


# PY cells and the year each one stands for (None: not a valid PY).
_PY_YEARS = {"2010": 2010, " 1999": 1999, "20100": None, "": None, "19x9": None}


@st.composite
def _reused_cr_records_st(draw):
    """Records that repeat CR strings within and across records.

    UIDs repeat, PY is sometimes missing or invalid, and journals vary
    in case, so the dedup, the missing-field check and the journal
    filter all skip records.
    """
    pool = draw(
        st.lists(
            st.one_of(
                # Near-twins differ only in case or trailing space: the
                # memo keys on the verbatim string.
                st.sampled_from(
                    [
                        "EINSTEIN A, 1905, ANN PHYS-BERLIN, V17, P891",
                        "KUHN TS, 1962, STRUCTURE SCI REVOLU",
                        "KUHN TS, 1962, STRUCTURE SCI REVOLU ",
                        "Kuhn TS, 1962, Structure Sci Revolu",
                        "HUME D, TREATISE",
                        "[Anonymous], 1950, X",
                    ]
                ),
                # Export parsers never keep a blank CR line.
                st.text(max_size=20).filter(str.strip),
            ),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    records = []
    for _ in range(draw(st.integers(0, 8))):
        tags = {"UT": [draw(st.sampled_from(["WOS:1", "WOS:2", "WOS:3", "WOS:4"]))]}
        journal = draw(st.sampled_from(["ERKENNTNIS", "Erkenntnis", "MIND", None]))
        if journal is not None:
            tags["SO"] = [journal]
        py = draw(st.sampled_from([*_PY_YEARS, None]))
        if py is not None:
            tags["PY"] = [py]
        crs = draw(st.lists(st.sampled_from(pool), max_size=6))
        if crs:
            tags["CR"] = crs
        records.append(RawRecord(tags))
    return records


def _reference_build(records, journal_filter):
    """Reference build_corpus for UT-bearing records, written out longhand."""
    wanted = {key_token(j) for j in journal_filter} if journal_filter else None
    seen, kept = set(), []
    duplicates = excluded_missing = excluded_filter = 0
    for raw in records:
        uid = raw.first("UT")
        if uid in seen:
            duplicates += 1
            continue
        seen.add(uid)
        journal = raw.joined("SO")
        pub_year = _PY_YEARS.get(raw.first("PY"))
        if journal is None or pub_year is None:
            excluded_missing += 1
        elif wanted is not None and key_token(journal) not in wanted:
            excluded_filter += 1
        else:
            kept.append(Record(uid, journal, pub_year, tuple(raw.get("CR"))))
    diag = CorpusDiagnostics(
        records_kept=len(kept),
        duplicates_skipped=duplicates,
        excluded_missing_fields=excluded_missing,
        excluded_by_filter=excluded_filter,
    )
    return Corpus(tuple(kept)), diag


@pytest.fixture
def parse_calls(monkeypatch):
    """Every string handed to parse_cited_reference during the test, in order."""
    calls = []

    def counting(line):
        calls.append(line)
        return parse_cited_reference(line)

    monkeypatch.setattr(rpys.wos, "parse_cited_reference", counting)
    monkeypatch.setattr(rpys.corpus, "parse_cited_reference", counting)
    return calls


def test_record_is_a_plain_tuple_of_its_fields():
    # Documented side effects of the named tuple, as for RefKey.
    record = Record(uid="WOS:1", journal="J", pub_year=2010, cited_refs=("A B, 1905, X",))
    assert isinstance(record, tuple)
    assert record == ("WOS:1", "J", 2010, ("A B, 1905, X",))
    assert record == Record("WOS:1", "J", 2010, ("A B, 1905, X",))
    with pytest.raises(AttributeError):
        record.pub_year = 2011
    assert record.pub_year == 2010


class TestBuildCorpus:
    def test_duplicate_uid_kept_once(self):
        first = _parse([citing_record("WOS:1", crs=["KUHN TS, 1962, STRUCTURE SCI REVOLU"])])
        second = _parse([citing_record("WOS:1"), citing_record("WOS:2")])
        corpus, diag = build_corpus(first + second)
        assert [r.uid for r in corpus.records] == ["WOS:1", "WOS:2"]
        assert diag.duplicates_skipped == 1
        # first occurrence wins: the duplicate without CR lines lost
        assert len(corpus.records[0].cited_refs) == 1

    def test_journal_filter_matches_normalized_titles(self):
        records = _parse(
            [
                citing_record("WOS:1", journal="ERKENNTNIS"),
                citing_record("WOS:2", journal="Philosophy of Science"),
            ]
        )
        corpus, diag = build_corpus(records, journal_filter={"Erkenntnis"})
        assert [r.uid for r in corpus.records] == ["WOS:1"]
        assert diag.excluded_by_filter == 1

    def test_journal_filter_normalizes_the_record_title_too(self):
        # "Phil. Sci." is kept by its key_token form, not by its upper-case form.
        records = _parse([citing_record("WOS:1", journal="Phil. Sci.")])
        corpus, diag = build_corpus(records, journal_filter={"phil sci"})
        assert [r.uid for r in corpus.records] == ["WOS:1"]
        assert diag.excluded_by_filter == 0

    def test_lenient_excludes_records_missing_py_or_so(self):
        blocks = [citing_record("WOS:1"), citing_record("WOS:2"), citing_record("WOS:3")]
        del blocks[1]["PY"]
        del blocks[2]["SO"]
        corpus, diag = build_corpus(_parse(blocks))
        assert [r.uid for r in corpus.records] == ["WOS:1"]
        assert diag.excluded_missing_fields == 2

    def test_strict_raises_on_missing_field(self):
        blocks = [citing_record("WOS:1")]
        del blocks[0]["PY"]
        with pytest.raises(CorpusError) as err:
            build_corpus(_parse(blocks), strict=True)
        assert "WOS:1" in str(err.value)

    def test_non_numeric_py_treated_as_missing(self):
        blocks = [citing_record("WOS:1")]
        blocks[0]["PY"] = ["circa 2010"]
        corpus, diag = build_corpus(_parse(blocks))
        assert corpus.records == ()
        assert diag.excluded_missing_fields == 1

    @pytest.mark.parametrize("py", ["\u0661\u0669\u0669\u0660", "\u00b9\u2079\u2079\u2070"])
    def test_non_ascii_digit_py_treated_as_missing(self, py):
        # Arabic-Indic digits, which int() reads, and superscripts, which
        # only isdigit() accepts: neither reads as a year or raises ValueError.
        blocks = [citing_record("WOS:1")]
        blocks[0]["PY"] = [py]
        corpus, diag = build_corpus(_parse(blocks))
        assert corpus.records == ()
        assert diag.excluded_missing_fields == 1
        with pytest.raises(CorpusError, match="invalid PY"):
            build_corpus(_parse(blocks), strict=True)

    def test_merge_order_does_not_change_record_set(self):
        batch_a = _parse([citing_record("WOS:1"), citing_record("WOS:2")])
        batch_b = _parse([citing_record("WOS:2"), citing_record("WOS:3")])
        ab, _ = build_corpus(batch_a + batch_b)
        ba, _ = build_corpus(batch_b + batch_a)
        assert {r.uid for r in ab.records} == {r.uid for r in ba.records}
        assert ab.total_cited_refs == ba.total_cited_refs

    def test_surrogate_uid_dedups_identical_untagged_records(self):
        blocks = [citing_record("WOS:1"), citing_record("WOS:1")]
        for block in blocks:
            del block["UT"]
        corpus, diag = build_corpus(_parse(blocks))
        assert len(corpus.records) == 1
        assert diag.duplicates_skipped == 1
        assert corpus.records[0].uid.startswith("SYN:")

    def test_surrogate_uid_distinguishes_different_records(self):
        blocks = [citing_record("WOS:1", year=2010), citing_record("WOS:2", year=2011)]
        for block in blocks:
            del block["UT"]
        corpus, _ = build_corpus(_parse(blocks))
        assert len(corpus.records) == 2
        assert corpus.records[0].uid != corpus.records[1].uid

    @pytest.mark.parametrize("tag", ["TI", "AU", "SO"])
    def test_surrogate_uid_reads_each_descriptive_field(self, tag):
        # Two UT-less records that differ only in this field stay two records.
        blocks = [citing_record("WOS:1"), citing_record("WOS:1")]
        for block in blocks:
            del block["UT"]
        blocks[1][tag] = [blocks[1][tag][0] + " II"]
        corpus, diag = build_corpus(_parse(blocks))
        assert diag.duplicates_skipped == 0
        uids = [r.uid for r in corpus.records]
        assert len(set(uids)) == 2
        assert all(uid.startswith("SYN:") for uid in uids)

    def test_each_record_lands_in_one_count(self):
        # Lenient: a UT-less pair, the first kept, then one record each
        # without PY, without SO and outside the journal filter.
        crs = ["A B, 2000, X"]
        blocks = [citing_record(uid, crs=crs) for uid in ["WOS:1", "WOS:1", "WOS:2", "WOS:3"]]
        blocks.append(citing_record("WOS:4", journal="MIND"))
        for block in blocks[:2]:
            del block["UT"]
        del blocks[2]["PY"]
        del blocks[3]["SO"]
        records = _parse(blocks)
        corpus, diag = build_corpus(records, journal_filter={"Erkenntnis"})
        assert diag == (1, 1, 2, 1)
        assert sum(diag) == len(records) == 5
        assert [r.uid[:4] for r in corpus.records] == ["SYN:"]
        assert corpus.records[0].cited_refs is records[0].get("CR")

    def test_blank_uid_gets_surrogate(self):
        blocks = [citing_record("WOS:1", year=2010), citing_record("WOS:2", year=2011)]
        for block in blocks:
            block["UT"] = ["  "]
        corpus, diag = build_corpus(_parse(blocks))
        assert diag.duplicates_skipped == 0
        assert [r.uid[:4] for r in corpus.records] == ["SYN:", "SYN:"]

    def test_padded_uid_dedups_across_layouts(self):
        tagged = _parse([citing_record("WOS:9  ")])
        tsv, _ = parse_export("PT\tSO\tPY\tCR\tUT\nJ\tERKENNTNIS\t2010\t\tWOS:9\n")
        corpus, diag = build_corpus(tagged + tsv)
        assert diag.duplicates_skipped == 1
        assert [r.uid for r in corpus.records] == ["WOS:9"]

    def test_padded_surrogate_fields_dedup_across_layouts(self):
        # The TSV reader strips its cells; tagged values keep their padding.
        block = citing_record("WOS:9")
        del block["UT"]
        block["AU"], block["PY"] = ["Smith, J  "], ["2010 "]
        tagged = _parse([block])
        tsv, _ = parse_export(
            "PT\tAU\tTI\tSO\tPY\tCR\nJ\tSmith, J\tCiting paper WOS:9\tERKENNTNIS\t2010\t\n"
        )
        corpus, diag = build_corpus(tagged + tsv)
        assert diag.duplicates_skipped == 1
        assert [r.uid[:4] for r in corpus.records] == ["SYN:"]

    def test_cited_ref_total_invariant_under_ordering(self):
        blocks = [
            citing_record("WOS:1", crs=["A B, 2000, X", "C D, 2001, Y"]),
            citing_record("WOS:2", crs=["E F, 2002, Z"]),
        ]
        forward, _ = build_corpus(_parse(blocks))
        backward, _ = build_corpus(_parse(blocks[::-1]))
        assert forward.total_cited_refs == backward.total_cited_refs == 3

    def test_build_stats_and_spectrum_parse_nothing(self, tmp_path, parse_calls):
        crs = ["A B, 1950, X", "HUME D, TREATISE", "A B, 1950, X"]
        skipped = {  # uid, journal, PY: a duplicate, a filtered and a PY-less record
            "DUP C, 1960, Y": ("WOS:1", "ERKENNTNIS", "2010"),
            "FILT D, 1970, Z": ("WOS:3", "MIND", "2010"),
            "NOPY E, 1980, W": ("WOS:4", "ERKENNTNIS", ""),
        }
        blocks = [citing_record("WOS:1", crs=crs)]
        rows = ["J\tERKENNTNIS\t2010\t" + "; ".join(crs) + "\tWOS:1"]
        for cr, (uid, journal, year) in skipped.items():
            block = citing_record(uid, journal=journal, crs=[cr])
            if not year:
                del block["PY"]
            blocks.append(block)
            rows.append(f"J\t{journal}\t{year}\t{cr}\t{uid}")
        tagged = tmp_path / "tagged.txt"
        tagged.write_text(tagged_export(blocks), encoding="utf-8")
        tsv = tmp_path / "table.txt"
        tsv.write_text("PT\tSO\tPY\tCR\tUT\n" + "\n".join(rows) + "\n", encoding="utf-8")
        for path in (tagged, tsv):
            records, diag, _ = load_export(path)
            corpus, corpus_diag = build_corpus(records, journal_filter={"ERKENNTNIS"})
            assert diag.cr_lines_parsed == len(crs) + len(skipped)
            assert (corpus_diag.duplicates_skipped, corpus_diag.excluded_by_filter) == (1, 1)
            assert corpus_diag.excluded_missing_fields == 1
            assert corpus_stats(corpus).total_cited_refs == 3
            spectrum = compute_spectrum(corpus)
            assert (spectrum.total, spectrum.without_year) == (2, 1)
            assert corpus.by_year == {
                1950: Counter({"A B, 1950, X": 2}),
                None: Counter({"HUME D, TREATISE": 1}),
            }
            [record] = corpus.records
            assert record.cited_refs == tuple(crs)
        assert parse_calls == []

    def test_drill_parses_its_year_once_per_corpus(self, parse_calls):
        crs = ["A B, 1950, X", "A B, 1950, X", "C D, 1950, Y", "E F, 1960, Z", "HUME D, TREATISE"]
        records = _parse([citing_record("WOS:1", crs=crs), citing_record("WOS:2", crs=crs)])
        corpus, _ = build_corpus(records)
        drill_year(corpus, 1950)
        assert sorted(parse_calls) == ["A B, 1950, X", "C D, 1950, Y"]
        parse_calls.clear()
        drill_year(corpus, 1950, top_k=1)
        author_breakdown(corpus, "A B", 1950)
        assert parse_calls == []
        profile_all_peaks(corpus, [Peak(1960, Fraction(1), 2, 1), Peak(1950, Fraction(1), 6, 2)])
        assert parse_calls == ["E F, 1960, Z"]
        parse_calls.clear()
        again, _ = build_corpus(records)
        assert again == corpus
        drill_year(again, 1950)
        assert sorted(parse_calls) == ["A B, 1950, X", "C D, 1950, Y"]

    @settings(max_examples=200)
    @given(_reused_cr_records_st(), st.sampled_from([None, {"erkenntnis"}, {"MIND", "NOUS"}]))
    def test_build_matches_reference_and_parses_on_demand(self, records, journal_filter):
        corpus, diag = build_corpus(records, journal_filter)
        reference, reference_diag = _reference_build(records, journal_filter)
        assert corpus == reference
        assert diag == reference_diag
        assert sum(diag) == len(records)
        lines = [line for record in reference.records for line in record.cited_refs]
        by_year = defaultdict(Counter)
        for line in lines:
            by_year[parse_cited_reference(line).year][line] += 1
        assert corpus.by_year == by_year
        refs = list(corpus.iter_refs())
        assert refs == [parse_cited_reference(line) for line in lines]
        # Equal strings share one parse.
        assert len({id(ref) for ref in refs}) == len(set(lines))


class TestCorpusStats:
    def test_empty_corpus(self):
        corpus, _ = build_corpus([])
        stats = corpus_stats(corpus)
        assert stats.rows == ()
        assert stats.total_records == 0
        assert stats.total_cited_refs == 0

    def test_two_journal_fixture(self):
        blocks = [
            citing_record("WOS:1", journal="ERKENNTNIS", crs=["A B, 2000, X"] * 3),
            citing_record("WOS:2", journal="ERKENNTNIS", crs=["A B, 2000, X"] * 2),
            citing_record("WOS:3", journal="BRIT J PHILOS SCI", crs=["A B, 2000, X"] * 4),
        ]
        corpus, _ = build_corpus(_parse(blocks))
        stats = corpus_stats(corpus)
        assert [(r.journal, r.records, r.cited_refs) for r in stats.rows] == [
            ("BRIT J PHILOS SCI", 1, 4),
            ("ERKENNTNIS", 2, 5),
        ]
        assert stats.total_records == 3
        assert stats.total_cited_refs == 9

    def test_totals_equal_column_sums(self, drill_corpus):
        stats = corpus_stats(drill_corpus)
        assert stats.total_records == sum(r.records for r in stats.rows)
        assert stats.total_cited_refs == sum(r.cited_refs for r in stats.rows)
