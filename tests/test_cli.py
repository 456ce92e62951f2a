"""End-to-end command tests: artifacts, exit codes, determinism."""

from __future__ import annotations

import argparse
import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rpys import cli
from rpys.cli import build_parser, main

from conftest import citing_record, tagged_export


_SUBCOMMANDS = {
    "stats": ["stats"],
    "spectrum": ["spectrum"],
    "peaks": ["peaks"],
    "drill": ["drill", "--year", "1904"],
    "plot": ["plot"],
}
_LOAD_FLAGS = {"--input", "--journals", "--out", "--strict"}
# The long flags each subcommand takes: 30 slots in all.
_LONG_FLAGS = {
    "stats": _LOAD_FLAGS,
    "spectrum": _LOAD_FLAGS | {"--range"},
    "peaks": _LOAD_FLAGS | {"--range", "--min-deviation", "--top"},
    "drill": _LOAD_FLAGS | {"--top", "--year", "--author"},
    "plot": _LOAD_FLAGS | {"--range", "--min-deviation", "--top"},
}
_NO_JOURNALS = "--journals must name at least one source title"


def lines_for_counts(counts_by_year: dict[int, int]) -> list[str]:
    lines = []
    for year in sorted(counts_by_year):
        for i in range(counts_by_year[year]):
            lines.append(f"AUTHOR{i:02d} A, {year}, SRC GEN")
    return lines


def write_export(path, blocks) -> str:
    path.write_text(tagged_export(blocks), encoding="utf-8")
    return str(path)


@pytest.fixture
def spike_export(tmp_path):
    """Counts 3,9,3,11,3 over 1901-1905: deviations 0,3,0,5,0."""
    crs = lines_for_counts({1901: 3, 1902: 9, 1903: 3, 1904: 11, 1905: 3})
    return write_export(tmp_path / "spike.txt", [citing_record("WOS:1", crs=crs)])


@pytest.fixture
def flat_export(tmp_path):
    crs = lines_for_counts({1901: 2, 1902: 2, 1903: 2, 1904: 2})
    return write_export(tmp_path / "flat.txt", [citing_record("WOS:1", crs=crs)])


class TestStats:
    def test_table_and_optional_csv(self, tmp_path, capsys):
        path = write_export(
            tmp_path / "a.txt",
            [
                citing_record("WOS:1", journal="ERKENNTNIS", crs=["A B, 1950, X"] * 2),
                citing_record("WOS:2", journal="BRIT J PHILOS SCI", crs=["A B, 1950, X"]),
            ],
        )
        assert main(["stats", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "ERKENNTNIS" in out
        assert "Total" in out
        assert not (tmp_path / "stats.csv").exists()

        outdir = tmp_path / "out"
        assert main(["stats", "--input", path, "--out", str(outdir)]) == 0
        csv_text = (outdir / "stats.csv").read_text(encoding="utf-8")
        assert csv_text.splitlines()[0] == "journal,records,cited_refs"
        assert "BRIT J PHILOS SCI,1,1" in csv_text
        assert "Total,2,3" in csv_text

    def test_empty_corpus_exits_one(self, tmp_path, capsys):
        blocks = [citing_record("WOS:1")]
        del blocks[0]["PY"]
        path = write_export(tmp_path / "bad.txt", blocks)
        assert main(["stats", "--input", path]) == 1
        captured = capsys.readouterr()
        assert "Total" in captured.out
        assert "lacking PY or SO" in captured.err

    @pytest.mark.parametrize("layout", ["tagged", "tsv"])
    def test_overlong_pub_year_is_invalid(self, tmp_path, capsys, layout):
        # int() refuses more than 4,300 digits; such a PY is no year.
        long_year = "2" * 4301
        if layout == "tagged":
            block = citing_record("WOS:1", crs=["A B, 1950, X"])
            block["PY"] = [long_year]
            path = write_export(tmp_path / "long.txt", [block])
        else:
            path = str(tmp_path / "long.txt")
            (tmp_path / "long.txt").write_text(
                f"PT\tSO\tPY\tCR\tUT\nJ\tERKENNTNIS\t{long_year}\tA B, 1950, X\tWOS:1\n",
                encoding="utf-8",
            )
        for command in ("stats", "spectrum"):
            argv = [command, "--input", path, "--out", str(tmp_path / "out")]
            assert main(argv) == 1
            assert "excluded 1 record(s) lacking PY or SO" in capsys.readouterr().err
            assert main([*argv, "--strict"]) == 2
            assert "invalid PY" in capsys.readouterr().err

    def test_missing_input_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.txt"
        assert main(["stats", "--input", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err


class TestSpectrumCommand:
    def test_csv_artifacts(self, spike_export, tmp_path):
        out = tmp_path / "out"
        assert main(["spectrum", "--input", spike_export, "--out", str(out)]) == 0
        rpys_lines = (out / "rpys.csv").read_text(encoding="utf-8").splitlines()
        assert rpys_lines[0] == "rpy,n_cr"
        assert rpys_lines[1] == "1901,3"
        assert rpys_lines[-1] == "1905,3"
        median_lines = (out / "median.csv").read_text(encoding="utf-8").splitlines()
        assert median_lines[0] == "rpy,n_cr,median5,deviation"
        assert "1903,3,3.0,0.0" in median_lines
        assert "1904,11,6.0,5.0" in median_lines

    def test_documented_example_row(self, tmp_path):
        crs = lines_for_counts({1901: 1, 1902: 2, 1903: 10, 1904: 2, 1905: 1})
        path = write_export(tmp_path / "ex.txt", [citing_record("WOS:1", crs=crs)])
        out = tmp_path / "out"
        assert main(["spectrum", "--input", path, "--out", str(out)]) == 0
        median_lines = (out / "median.csv").read_text(encoding="utf-8").splitlines()
        assert "1903,10,2.0,8.0" in median_lines

    def test_flat_counts_give_zero_deviations(self, flat_export, tmp_path):
        out = tmp_path / "out"
        assert main(["spectrum", "--input", flat_export, "--out", str(out)]) == 0
        for line in (out / "median.csv").read_text(encoding="utf-8").splitlines()[1:]:
            assert line.endswith(",0.0")

    def test_pinned_range_emits_zero_rows(self, spike_export, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["spectrum", "--input", spike_export, "--range", "1899:1907", "--out", str(out)]
        )
        assert code == 0
        rpys_lines = (out / "rpys.csv").read_text(encoding="utf-8").splitlines()
        assert rpys_lines[1] == "1899,0"
        assert rpys_lines[-1] == "1907,0"
        assert len(rpys_lines) == 1 + 9

    def test_range_up_to_max_rpy(self, spike_export, tmp_path):
        # MAX_RPY, the documented upper edge, is a valid upper bound.
        out = tmp_path / "out"
        argv = ["spectrum", "--input", spike_export, "--range", "1900:2100", "--out", str(out)]
        assert main(argv) == 0
        assert (out / "rpys.csv").read_text(encoding="utf-8").splitlines()[-1] == "2100,0"

    def test_range_filters_and_reports_dropped(self, spike_export, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(
            ["spectrum", "--input", spike_export, "--range", "1902:1904", "--out", str(out)]
        ) == 0
        assert "6 outside valid range" in capsys.readouterr().out

    def test_reports_references_without_year(self, tmp_path, capsys):
        crs = ["A B, 1950, X", "C D, 1951, Y", "HUME D, TREATISE", "1400, ANON WORK"]
        crs += ["NOYEAR B, UNTITLED MANUSCRIPT"]
        path = write_export(tmp_path / "mixed.txt", [citing_record("WOS:1", crs=crs)])
        out = tmp_path / "out"
        assert main(["spectrum", "--input", path, "--out", str(out)]) == 0
        assert "1 outside valid range, 2 without a year" in capsys.readouterr().out

    def test_no_usable_years_exits_one(self, tmp_path):
        path = write_export(
            tmp_path / "noyear.txt",
            [citing_record("WOS:1", crs=["HUME D, TREATISE HUMAN NATUR"])],
        )
        out = tmp_path / "out"
        assert main(["spectrum", "--input", path, "--out", str(out)]) == 1
        assert (out / "rpys.csv").read_text(encoding="utf-8") == "rpy,n_cr\n"

    def test_median_column_self_consistency(self, spike_export, tmp_path):
        out = tmp_path / "out"
        main(["spectrum", "--input", spike_export, "--out", str(out)])
        for line in (out / "median.csv").read_text(encoding="utf-8").splitlines()[1:]:
            _, n_cr, median5, deviation = line.split(",")
            assert float(n_cr) - float(median5) == float(deviation)

    def test_ranks_no_peaks(self, spike_export, tmp_path, monkeypatch):
        calls = []
        rank = cli.detect_peaks
        monkeypatch.setattr(cli, "detect_peaks", lambda *args: calls.append(args) or rank(*args))
        out = ["--input", spike_export, "--out", str(tmp_path / "out")]
        assert main(["spectrum", *out]) == 0
        assert calls == []
        assert main(["peaks", *out]) == 0
        assert len(calls) == 1


class TestPeaksCommand:
    def test_two_ranked_entries(self, spike_export, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["peaks", "--input", spike_export, "--out", str(out)]) == 0
        payload = json.loads((out / "peaks.json").read_text(encoding="utf-8"))
        assert payload == [
            {"year": 1904, "n_cr": 11, "median5": 6.0, "deviation": 5.0, "rank": 1},
            {"year": 1902, "n_cr": 9, "median5": 6.0, "deviation": 3.0, "rank": 2},
        ]
        assert "1904" in capsys.readouterr().out

    def test_flat_series_empty_array_exits_one(self, flat_export, tmp_path):
        out = tmp_path / "out"
        assert main(["peaks", "--input", flat_export, "--out", str(out)]) == 1
        assert json.loads((out / "peaks.json").read_text(encoding="utf-8")) == []

    def test_top_one(self, spike_export, tmp_path):
        out = tmp_path / "out"
        assert main(["peaks", "--input", spike_export, "--top", "1", "--out", str(out)]) == 0
        payload = json.loads((out / "peaks.json").read_text(encoding="utf-8"))
        assert len(payload) == 1
        assert payload[0]["year"] == 1904

    def test_min_deviation_filters(self, spike_export, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["peaks", "--input", spike_export, "--min-deviation", "3", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "peaks.json").read_text(encoding="utf-8"))
        assert [p["year"] for p in payload] == [1904]


class TestDrillCommand:
    def test_year_profile_artifact(self, tmp_path, drill_export_text, capsys):
        path = tmp_path / "drill.txt"
        path.write_text(drill_export_text, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["drill", "--input", str(path), "--year", "1905", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "profile_1905.json").read_text(encoding="utf-8"))
        assert payload["year"] == 1905
        assert payload["total_refs"] == 100
        assert payload["unattributed"] == 0
        assert payload["authors"][0] == {"name": "EINSTEIN A", "count": 24, "share": 24.0}
        assert payload["authors"][1] == {"name": "POINCARE H", "count": 10, "share": 10.0}
        assert payload["works"][0]["count"] == 13
        assert "EINSTEIN A" in capsys.readouterr().out

    def test_author_breakdown_artifact(self, tmp_path, drill_export_text):
        path = tmp_path / "drill.txt"
        path.write_text(drill_export_text, encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            [
                "drill",
                "--input",
                str(path),
                "--year",
                "1905",
                "--author",
                "Einstein, A.",  # raw form normalizes to EINSTEIN A
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(
            (out / "breakdown_1905_einstein_a.json").read_text(encoding="utf-8")
        )
        assert payload["author"] == "EINSTEIN A"
        assert payload["total_refs"] == 24
        assert payload["works"][0]["count"] == 13
        assert payload["works"][0]["share"] == 54.2

    def test_blank_author_is_named(self, tmp_path, drill_export_text, capsys):
        path = tmp_path / "drill.txt"
        path.write_text(drill_export_text, encoding="utf-8")
        base = ["drill", "--input", str(path), "--year", "1905", "--out", str(tmp_path)]
        for author in ("  ", ".", ",. ,"):
            assert main([*base, f"--author={author}"]) == 2
            err = capsys.readouterr().err
            assert f"--author {author!r} has no name after normalization" in err
        assert main([*base, "--author", "UNKNOWN"]) == 2
        err = capsys.readouterr().err
        assert err == "rpys: cannot break down the unattributed bucket by work\n"

    def test_author_that_is_not_text_exits_two(self, tmp_path, drill_export_text, capsys):
        # On POSIX, argv bytes that are not UTF-8 arrive as lone surrogates.
        path = tmp_path / "drill.txt"
        path.write_text(drill_export_text, encoding="utf-8")
        out = tmp_path / "out"
        base = ["drill", "--input", str(path), "--year", "1905", "--out", str(out)]
        for author in (os.fsdecode(b"\xff"), os.fsdecode(b"EINSTEIN \xc3")):
            assert main([*base, "--author", author]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"rpys: --author {author!r} is not valid text\n"
        assert not out.exists()

    def test_empty_year_exits_one(self, tmp_path, drill_export_text):
        path = tmp_path / "drill.txt"
        path.write_text(drill_export_text, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["drill", "--input", str(path), "--year", "1777", "--out", str(out)])
        assert code == 1
        payload = json.loads((out / "profile_1777.json").read_text(encoding="utf-8"))
        assert payload == {
            "year": 1777,
            "total_refs": 0,
            "authors": [],
            "works": [],
            "unattributed": 0,
        }


class TestPlotCommand:
    def test_svg_has_two_polylines_and_peak_labels(self, spike_export, tmp_path):
        out = tmp_path / "out"
        assert main(["plot", "--input", spike_export, "--out", str(out)]) == 0
        svg = (out / "spectrogram.svg").read_text(encoding="utf-8")
        assert svg.count("<polyline") == 2
        assert svg.count('class="peak-label"') == 2
        assert ">1904<" in svg

    def test_empty_spectrum_axes_only(self, tmp_path):
        path = write_export(
            tmp_path / "noyear.txt",
            [citing_record("WOS:1", crs=["HUME D, TREATISE HUMAN NATUR"])],
        )
        out = tmp_path / "out"
        assert main(["plot", "--input", path, "--out", str(out)]) == 1
        svg = (out / "spectrogram.svg").read_text(encoding="utf-8")
        assert "<polyline" not in svg
        assert "<svg" in svg

    def test_pinned_range_without_references_exits_one(self, spike_export, tmp_path):
        out = tmp_path / "out"
        argv = ["--input", spike_export, "--range", "1000:1010", "--out", str(out)]
        assert main(["spectrum", *argv]) == 1
        assert main(["plot", *argv]) == 1
        assert (out / "spectrogram.svg").exists()

    def test_peak_label_at_the_top_edge_stays_inside(self, tmp_path):
        # 1903's deviation is the largest value on the y axis, so its point
        # lies on the top edge, y0 = 30: its label is held at y0 + 10.
        crs = lines_for_counts({1903: 5})
        path = write_export(tmp_path / "top.txt", [citing_record("WOS:1", crs=crs)])
        out = tmp_path / "out"
        assert main(["plot", "--input", path, "--range", "1901:1905", "--out", str(out)]) == 0
        svg = (out / "spectrogram.svg").read_text(encoding="utf-8")
        assert '<text class="peak-label" x="480.00" y="40.00">1903</text>' in svg

    def test_rerun_is_byte_identical(self, spike_export, tmp_path):
        out = tmp_path / "out"
        main(["plot", "--input", spike_export, "--out", str(out)])
        first = (out / "spectrogram.svg").read_bytes()
        main(["plot", "--input", spike_export, "--out", str(out)])
        assert (out / "spectrogram.svg").read_bytes() == first


class TestFlagsAndErrors:
    def test_journal_filter(self, tmp_path, capsys):
        path = write_export(
            tmp_path / "mix.txt",
            [
                citing_record("WOS:1", journal="ERKENNTNIS", crs=["A B, 1950, X"]),
                citing_record("WOS:2", journal="MIND", crs=["C D, 1950, Y"] * 5),
            ],
        )
        assert main(["stats", "--input", path, "--journals", "Erkenntnis"]) == 0
        captured = capsys.readouterr()
        assert "ERKENNTNIS" in captured.out
        assert "MIND" not in captured.out
        assert captured.err == "rpys: excluded 1 record(s) by the journal filter\n"
        assert main(["stats", "--input", path]) == 0
        assert capsys.readouterr().err == ""

    def test_journal_filter_reads_a_wrapped_title_whole(self, tmp_path, capsys):
        # A source title wrapped over a continuation line is matched in full.
        record = citing_record("WOS:1", journal="BRITISH JOURNAL FOR THE")
        record["SO"].append("PHILOSOPHY OF SCIENCE")
        path = write_export(tmp_path / "wrapped.txt", [record])
        journal = "British Journal for the Philosophy of Science"
        assert main(["stats", "--input", path, "--journals", journal]) == 0
        captured = capsys.readouterr()
        assert "BRITISH JOURNAL FOR THE PHILOSOPHY OF SCIENCE  " in captured.out
        assert captured.err == ""

    def test_journal_filter_normalizes_the_record_title_too(self, tmp_path, capsys):
        path = write_export(tmp_path / "phil.txt", [citing_record("WOS:1", journal="Phil. Sci.")])
        assert main(["stats", "--input", path, "--journals", "PHIL SCI"]) == 0
        captured = capsys.readouterr()
        assert "Phil. Sci." in captured.out
        assert captured.err == ""

    def test_tsv_format_flag(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(
            "PT\tSO\tPY\tCR\tUT\n"
            "J\tERKENNTNIS\t2010\tA B, 1950, X; C D, 1951, Y\tWOS:1\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main(["spectrum", "--input", str(path), "--out", str(out)])
        assert code == 0
        lines = (out / "rpys.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1:] == ["1950,1", "1951,1"]

    def test_auto_detects_tsv(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(
            "PT\tSO\tPY\tCR\tUT\nJ\tERKENNTNIS\t2010\tA B, 1950, X\tWOS:1\n",
            encoding="utf-8",
        )
        assert main(["stats", "--input", str(path)]) == 0

    def test_glob_inputs(self, tmp_path, capsys):
        write_export(tmp_path / "a1.txt", [citing_record("WOS:1", crs=["A B, 1950, X"])])
        write_export(tmp_path / "a2.txt", [citing_record("WOS:2", crs=["C D, 1951, Y"])])
        # a3 repeats a1's record: merged batches overlap.
        write_export(tmp_path / "a3.txt", [citing_record("WOS:1", crs=["A B, 1950, X"])])
        out = tmp_path / "out"
        pattern = str(tmp_path / "a*.txt")
        assert main(["spectrum", "--input", pattern, "--out", str(out)]) == 0
        lines = (out / "rpys.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1:] == ["1950,1", "1951,1"]
        assert capsys.readouterr().err == "rpys: skipped 1 duplicate record(s)\n"

    def test_double_star_pattern_matches_any_depth(self, tmp_path, capsys):
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        shutil.copy(Path(__file__).parent / "fixtures" / "pinned_tagged.txt", nested / "x.txt")
        assert main(["stats", "--input", str(tmp_path / "**" / "*.txt")]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split() == ["Total", "4", "56"]

    def test_literal_input_with_glob_metacharacters(self, tmp_path, capsys):
        # An existing file is taken literally, not globbed, even where its
        # name read as a pattern would match another file.
        literal = write_export(
            tmp_path / "savedrecs[1].txt", [citing_record("WOS:1", crs=["A B, 1950, X"])]
        )
        write_export(tmp_path / "savedrecs1.txt", [citing_record("WOS:2", crs=["C D, 1951, Y"])])
        out = tmp_path / "out"
        assert main(["spectrum", "--input", literal, "--out", str(out)]) == 0
        lines = (out / "rpys.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1:] == ["1950,1"]
        assert capsys.readouterr().err == ""
        assert main(["stats", "--input", str(tmp_path / "savedrecs[2].txt")]) == 2
        assert "input not found" in capsys.readouterr().err

    def test_inputs_deduplicated_by_file(self, tmp_path, capsys, monkeypatch):
        # Two spellings of one file are one input, not a duplicate batch.
        monkeypatch.chdir(tmp_path)
        write_export(tmp_path / "x.txt", [citing_record("WOS:1", crs=["A B, 1950, X"])])
        write_export(tmp_path / "y.txt", [citing_record("WOS:2", crs=["C D, 1951, Y"])])
        cases = [
            (["x.txt", "x.txt"], ["x.txt"]),
            (["x.txt", "./x.txt"], ["x.txt"]),
            ([str(tmp_path / "x.txt"), "x.txt"], ["x.txt"]),
            (["*.txt", "./x.txt"], ["x.txt", "y.txt"]),
        ]
        for inputs, once in cases:
            runs = []
            for names in (once, inputs):
                argv = ["stats", "--out", "out"]
                for name in names:
                    argv += ["--input", name]
                assert main(argv) == 0
                captured = capsys.readouterr()
                stats_csv = Path("out/stats.csv").read_text(encoding="utf-8")
                runs.append((captured.out, captured.err, stats_csv))
            assert runs[1] == runs[0], inputs
            assert runs[1][1] == ""

    @pytest.mark.parametrize(
        "command",
        [*_SUBCOMMANDS.values(), ["drill", "--year", "1904", "--author", "AUTHOR00 A"]],
        ids=[*_SUBCOMMANDS, "drill-author"],
    )
    def test_each_invocation_loads_once(self, tmp_path, monkeypatch, command):
        # Every subcommand reads each distinct input file once and builds one corpus.
        monkeypatch.chdir(tmp_path)
        crs = lines_for_counts({1901: 3, 1902: 9, 1903: 3, 1904: 11, 1905: 3})
        write_export(tmp_path / "x.txt", [citing_record("WOS:1", crs=crs)])
        write_export(tmp_path / "y.txt", [citing_record("WOS:2", crs=crs[:5])])
        loaded, built = [], []

        def load_export(path, *args, load=cli.load_export, **kwargs):
            loaded.append(Path(path).resolve())
            return load(path, *args, **kwargs)

        def build_corpus(*args, build=cli.build_corpus, **kwargs):
            built.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(cli, "load_export", load_export)
        monkeypatch.setattr(cli, "build_corpus", build_corpus)
        inputs = ["--input", "x.txt", "--input", "./x.txt", "--input", "y.txt"]
        assert main([*command, *inputs, "--out", "out"]) == 0
        assert sorted(loaded) == [(tmp_path / name).resolve() for name in ("x.txt", "y.txt")]
        assert len(built) == 1

    def test_input_naming_only_a_directory_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        assert main(["stats", "--input", "d", "--out", "out"]) == 2
        assert capsys.readouterr() == ("", "rpys: no files matched inputs: d\n")
        assert not (tmp_path / "out").exists()

    def test_bad_range_exits_two(self, spike_export, capsys):
        assert main(["spectrum", "--input", spike_export, "--range", "1905"]) == 2
        assert main(["spectrum", "--input", spike_export, "--range", "1950:1900"]) == 2
        assert main(["spectrum", "--input", spike_export, "--range", "0:99999"]) == 2
        assert main(["spectrum", "--input", spike_export, "--range", "999:1905"]) == 2
        assert main(["spectrum", "--input", spike_export, "--range", "1900:2101"]) == 2
        assert "--range" in capsys.readouterr().err

    def test_five_digit_range_bound_is_out_of_window(self, spike_export, capsys):
        assert main(["spectrum", "--input", spike_export, "--range", "0:99999"]) == 2
        assert capsys.readouterr().err == (
            "rpys: invalid --range '0:99999': years must lie within 1000:2100\n"
        )

    def test_bad_top_exits_two(self, spike_export):
        assert main(["peaks", "--input", spike_export, "--top", "0"]) == 2

    def test_negative_min_deviation_exits_two(self, spike_export):
        for value in ("-1", "nan", "inf", "-inf"):
            argv = ["peaks", "--input", spike_export, f"--min-deviation={value}"]
            assert main(argv) == 2, value

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            pytest.param(command, flags, message, id=f"{case}-command{i}")
            for case, flags, message in [
                ("input", ["--input", " "], "at least one --input path is required"),
                ("journals", ["--journals", " , "], _NO_JOURNALS),
                ("journals-punctuation", ["--journals", "..."], _NO_JOURNALS),
                ("top", ["--top", "0"], "--top must be at least 1"),
                (
                    "min-deviation",
                    ["--min-deviation=-1"],
                    "--min-deviation must be a finite non-negative number",
                ),
                (
                    "range",
                    ["--range", "1:2"],
                    "invalid --range '1:2': years must lie within 1000:2100",
                ),
            ]
            for i, command in enumerate(_SUBCOMMANDS.values())
            if flags[0].split("=")[0] in _LONG_FLAGS[command[0]]
        ],
    )
    def test_every_flag_check_exits_two(
        self, spike_export, tmp_path, capsys, command, flags, message
    ):
        out = tmp_path / "out"
        inputs = [] if flags[0] == "--input" else ["--input", spike_export]
        assert main([*command, *inputs, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"rpys: {message}\n")
        assert not out.exists()

    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        (subparsers,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        taken = {
            name: {flag for action in sub._actions for flag in action.option_strings}
            - {"-h", "--help"}
            for name, sub in subparsers.choices.items()
        }
        assert taken == _LONG_FLAGS
        assert [len(taken[name]) for name in _SUBCOMMANDS] == [4, 5, 7, 7, 7]

    @pytest.mark.parametrize("command", _SUBCOMMANDS.values(), ids=_SUBCOMMANDS)
    def test_format_flag_exits_two(self, spike_export, tmp_path, capsys, monkeypatch, command):
        # The layout is read from each file, so no subcommand takes --format.
        def unread(*args, **kwargs):
            raise AssertionError("input read before the flags were parsed")

        monkeypatch.setattr(cli, "load_export", unread)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*command, "--input", spike_export, "--format", "tsv", "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --format tsv" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            pytest.param(command, flag, id=f"{name}-{flag.split('=')[0][2:]}")
            for name, command in _SUBCOMMANDS.items()
            for flag in ("--range=1950:1960", "--min-deviation=1", "--top=5")
            if flag.split("=")[0] not in _LONG_FLAGS[name]
        ],
    )
    def test_flag_the_subcommand_does_not_take_exits_two(
        self, spike_export, tmp_path, capsys, monkeypatch, command, flag
    ):
        def unread(*args, **kwargs):
            raise AssertionError("input read before the flags were parsed")

        monkeypatch.setattr(cli, "load_export", unread)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*command, "--input", spike_export, flag, "--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "author, message",
        [
            (".", "--author '.' has no name after normalization"),
            ("\udcff", "--author '\\udcff' is not valid text"),
            ("\ud800", "--author '\\ud800' is not valid text"),
            ("UNKNOWN", "cannot break down the unattributed bucket by work"),
            (" unknown. ", "cannot break down the unattributed bucket by work"),
        ],
        ids=["no-name", "surrogate", "high-surrogate", "unknown", "padded-unknown"],
    )
    def test_drill_author_check_exits_two(self, spike_export, tmp_path, capsys, author, message):
        out = tmp_path / "out"
        argv = ["drill", "--input", spike_export, "--year", "1905", "--author", author]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"rpys: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "year, message",
        [
            (year, f"invalid --year {year}: years must lie within 1000:2100")
            for year in ("1", "0", "-1905", "999", "2101")
        ],
        ids=["one", "zero", "negative", "below", "above"],
    )
    def test_drill_year_check_exits_two(self, spike_export, tmp_path, capsys, year, message):
        out = tmp_path / "out"
        argv = ["drill", "--input", spike_export, "--year", year]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"rpys: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("year", [1000, 2100])
    def test_drill_year_bounds_still_run(self, spike_export, tmp_path, year):
        out = tmp_path / "out"
        argv = ["drill", "--input", spike_export, "--year", str(year), "--out", str(out)]
        assert main(argv) == 1  # a year without references
        payload = json.loads((out / f"profile_{year}.json").read_text(encoding="utf-8"))
        assert (payload["year"], payload["total_refs"]) == (year, 0)

    def test_strict_mode_fails_on_malformed_block(self, tmp_path, capsys):
        text = "FN WoS\nVR 1.0\nPT J\nSO X\nPY 2000\nUT WOS:1\nEF\n"  # missing ER
        path = tmp_path / "trunc.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["stats", "--input", str(path), "--strict"]) == 2
        assert "line" in capsys.readouterr().err

    def test_lenient_mode_warns_on_malformed_block(self, tmp_path, capsys):
        text = (
            "FN WoS\nVR 1.0\n"
            "PT J\nSO X\nPY 2000\nUT WOS:1\nCR A B, 1950, X\nER\n"
            "PT J\nSO X\nPY 2001\nUT WOS:2\nEF\n"  # second block missing ER
        )
        path = tmp_path / "trunc.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["stats", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert "malformed" in captured.err

    def test_malformed_blocks_are_counted_over_every_file(self, tmp_path, capsys):
        for uid in (1, 2):
            (tmp_path / f"trunc{uid}.txt").write_text(
                f"FN WoS\nVR 1.0\nPT J\nSO X\nPY 2000\nUT WOS:{uid}\nER\n"
                f"PT J\nSO X\nPY 2001\nUT WOS:{uid}0\nEF\n",  # second block missing ER
                encoding="utf-8",
            )
        assert main(["stats", "--input", str(tmp_path / "trunc*.txt")]) == 0
        assert capsys.readouterr().err == "rpys: skipped 2 malformed record block(s)\n"

    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_concatenated_exports_read_as_one(self, tmp_path, capsys, strict, bom):
        # `cat a.txt b.txt > ab.txt`: each export keeps its own FN ... EF
        # envelope (and, as downloaded, maybe a byte-order mark).
        sys.path.insert(0, str(Path(__file__).parents[1] / "scripts"))
        try:
            import demo_pipeline
        finally:
            sys.path.pop(0)
        export = demo_pipeline.synthesize_export
        parts = [bom + export(1, 30), bom + export(2, 20)]
        for name, text in [("a.txt", parts[0]), ("b.txt", parts[1]), ("ab.txt", "".join(parts))]:
            (tmp_path / name).write_text(text, encoding="utf-8")
        flags = ["--strict"] if strict else []
        assert main(["stats", "--input", str(tmp_path / "ab.txt"), *flags]) == 0
        joined = capsys.readouterr()
        assert joined.err == ""
        assert joined.out.splitlines()[-1].split() == ["Total", "50", "1,368"]
        files = [str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]
        assert main(["stats", "--input", files[0], "--input", files[1], *flags]) == 0
        assert capsys.readouterr() == joined

    @pytest.mark.parametrize("drop", [("FN",), ("FN", "VR")])
    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_concatenated_export_without_fn_header_reads_as_one(
        self, tmp_path, capsys, strict, bom, drop
    ):
        # `cat a.txt b.txt > ab.txt` where b.txt lacks its FN line, so it
        # opens on `VR 1.0` or, without VR too, on `PT J`: after a.txt's EF,
        # b.txt's first tag line starts the next export.
        text = "FN WoS\nVR 1.0\nPT J\nSO X\nPY 2000\nUT WOS:1\nCR A B, 1950, X\nER\nEF\n"
        second = text.replace("2000", "2001").replace("WOS:1", "WOS:2")
        second = "".join(line for line in second.splitlines(True) if line[:2] not in drop)
        parts = [text, bom + second]
        for name, part in [("a.txt", parts[0]), ("b.txt", parts[1]), ("ab.txt", "".join(parts))]:
            (tmp_path / name).write_text(part, encoding="utf-8")
        flags = ["--strict"] if strict else []
        assert main(["stats", "--input", str(tmp_path / "ab.txt"), *flags]) == 0
        joined = capsys.readouterr()
        assert joined.err == ""
        assert joined.out.splitlines()[-1].split() == ["Total", "2", "2"]
        files = [str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]
        assert main(["stats", "--input", files[0], "--input", files[1], *flags]) == 0
        assert capsys.readouterr() == joined

    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    @pytest.mark.parametrize("strict", [False, True])
    def test_concatenated_tab_delimited_exports_read_as_one(self, tmp_path, capsys, strict, bom):
        # `cat a.tsv b.tsv > ab.tsv`: b's header row is no record.
        header = "PT\tSO\tPY\tCR\tUT\n"
        parts = [
            bom + header + "J\tERKENNTNIS\t2010\tA B, 1950, X; C D, 1951, Y\tWOS:1\n",
            bom + header + "J\tMIND\t2011\tE F, 1950, Z\tWOS:2\n",
        ]
        for name, text in [("a.tsv", parts[0]), ("b.tsv", parts[1]), ("ab.tsv", "".join(parts))]:
            (tmp_path / name).write_text(text, encoding="utf-8")
        flags = ["--strict"] if strict else []
        assert main(["stats", "--input", str(tmp_path / "ab.tsv"), *flags]) == 0
        joined = capsys.readouterr()
        assert joined.err == ""
        assert joined.out.splitlines()[-1].split() == ["Total", "2", "3"]
        files = [str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")]
        assert main(["stats", "--input", files[0], "--input", files[1], *flags]) == 0
        assert capsys.readouterr() == joined

    @pytest.mark.parametrize("strict", [False, True])
    def test_concatenated_tab_delimited_exports_with_other_headers(self, tmp_path, capsys, strict):
        # WoS column sets follow the fields chosen at export, so b's header
        # (another width, another order) holds the columns of b's rows.
        parts = [
            "PT\tSO\tPY\tCR\tUT\nJ\tERKENNTNIS\t2010\tA B, 1950, X; C D, 1951, Y\tWOS:1\n",
            "PT\tAU\tSO\tPY\tCR\tUT\nJ\tRoe, R\tMIND\t2011\tE F, 1950, Z\tWOS:2\n",
            "UT\tCR\tPY\tSO\nWOS:3\tG H, 1951, W\t2012\tMIND\n",
        ]
        for name, text in [
            ("a.tsv", parts[0]),
            ("b.tsv", parts[1]),
            ("c.tsv", parts[2]),
            ("abc.tsv", "".join(parts)),
        ]:
            (tmp_path / name).write_text(text, encoding="utf-8")
        flags = ["--strict"] if strict else []
        assert main(["stats", "--input", str(tmp_path / "abc.tsv"), *flags]) == 0
        joined = capsys.readouterr()
        assert joined.err == ""
        assert joined.out.splitlines()[-1].split() == ["Total", "3", "4"]
        files = [str(tmp_path / name) for name in ("a.tsv", "b.tsv", "c.tsv")]
        inputs = [arg for path in files for arg in ("--input", path)]
        assert main(["stats", *inputs, *flags]) == 0
        assert capsys.readouterr() == joined

    def test_unrecognized_format_exits_two(self, tmp_path, capsys):
        # Every export starts with a header line, so an empty or blank
        # file is a failed export, not an empty corpus; so is one whose
        # first line is blank, or a tab header without PY or CR.
        path = tmp_path / "page.html"
        for content in (
            "<html><body>nope</body></html>\n",
            "",
            "\n  \n\n",
            "\nFN WoS\nVR 1.0\nEF\n",
            "PT\tSO\tUT\nJ\tX\tWOS:1\n",
            "FNORD\n",
        ):
            path.write_text(content, encoding="utf-8")
            assert main(["stats", "--input", str(path)]) == 2
            assert "unrecognized" in capsys.readouterr().err

    @pytest.mark.skipif(sys.platform != "linux", reason="needs file names that are not UTF-8")
    @pytest.mark.parametrize(
        "command, artifact",
        [
            (["stats"], "stats.csv"),
            (["spectrum"], "median.csv"),
            (["peaks"], "peaks.json"),
            (["drill", "--year", "1904"], "profile_1904.json"),
            (["plot"], "spectrogram.svg"),
        ],
        ids=["stats", "spectrum", "peaks", "drill", "plot"],
    )
    @pytest.mark.parametrize(
        "encoding, name, shown",
        [("utf-8", b"p\xff", b"p\\udcff"), ("ascii", "\xe9".encode(), b"\\xe9")],
        ids=["not-utf8-name", "ascii-stdout"],
    )
    def test_out_dir_stdout_cannot_encode_is_printed_escaped(
        self, tmp_path, spike_export, command, artifact, encoding, name, shown
    ):
        # A strict UTF-8 stdout cannot print the lone surrogate that the
        # undecodable byte of a POSIX file name becomes; an ASCII stdout
        # cannot print any non-ASCII name.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONIOENCODING=encoding, PYTHONPATH=str(src))
        run = "from rpys.cli import entrypoint; entrypoint()"

        def rpys(out: bytes) -> subprocess.CompletedProcess:
            argv = [sys.executable, "-c", run, *command, "--input", spike_export, "--out", out]
            return subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True)

        plain, odd = rpys(b"q"), rpys(name)
        assert (plain.returncode, plain.stderr) == (0, b"")
        assert (odd.returncode, odd.stderr) == (0, b"")
        assert (tmp_path / os.fsdecode(name) / artifact).is_file()
        assert odd.stdout == plain.stdout.replace(b"q/", shown + b"/")

    @pytest.mark.skipif(sys.platform != "linux", reason="closes a file descriptor in the child")
    def test_closed_stdout_exits_cleanly(self, tmp_path, spike_export):
        # With file descriptor 1 closed, sys.stdout is None.
        src = Path(__file__).resolve().parents[1] / "src"
        argv = [sys.executable, "-c", "from rpys.cli import entrypoint; entrypoint()"]
        run = subprocess.run(
            [*argv, "stats", "--input", spike_export, "--out", "q"],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src)),
            stderr=subprocess.PIPE,
            preexec_fn=lambda: os.close(1),
        )
        assert (run.returncode, run.stderr) == (0, b"")
        assert (tmp_path / "q" / "stats.csv").is_file()

    @pytest.mark.parametrize(
        "sink, reason",
        [
            ("closed-pipe", errno.EPIPE),
            pytest.param(
                "/dev/full",
                errno.ENOSPC,
                marks=pytest.mark.skipif(sys.platform != "linux", reason="needs /dev/full"),
            ),
        ],
        ids=["closed-pipe", "dev-full"],
    )
    @pytest.mark.parametrize(
        "command, buffered",
        [
            *((cmd, buffered) for cmd in _SUBCOMMANDS.values() for buffered in (True, False)),
            # Unbuffered, --help fails inside argparse's write, which drops the error.
            (["--help"], True),
        ],
        ids=[*(f"{n}-{b}" for n in _SUBCOMMANDS for b in ("buffered", "unbuffered")), "help"],
    )
    def test_stdout_that_fails_exits_two(
        self, tmp_path, spike_export, command, sink, reason, buffered
    ):
        # A pipe whose reader is gone before the run starts (what `| head`
        # does at some point), or a device that takes no bytes.  Buffered,
        # the output fails when main flushes it; unbuffered, at its print.
        if sink == "closed-pipe":
            read_end, fd = os.pipe()
            os.close(read_end)
        else:
            fd = os.open(sink, os.O_WRONLY)
        src = Path(__file__).resolve().parents[1] / "src"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=str(src), **({} if buffered else {"PYTHONUNBUFFERED": "1"}))
        argv = [sys.executable, "-c", "from rpys.cli import entrypoint; entrypoint()", *command]
        if command != ["--help"]:
            argv += ["--input", spike_export, "--out", "q"]
        try:
            run = subprocess.run(argv, cwd=tmp_path, env=env, stdout=fd, stderr=subprocess.PIPE)
        finally:
            os.close(fd)
        assert b"Traceback" not in run.stderr
        expected = f"rpys: stdout: {os.strerror(reason)}\n"
        assert (run.returncode, run.stderr.decode()) == (2, expected)

    @pytest.mark.skipif(sys.platform != "linux", reason="needs /dev/full")
    @pytest.mark.parametrize(
        "sink, mode",
        [("/dev/full", os.O_WRONLY), (os.devnull, os.O_RDONLY), ("closed", None)],
        ids=["full", "read-only", "closed"],
    )
    @pytest.mark.parametrize(
        "source, code", [("missing", 2), ("py-less", 0)], ids=["failed-run", "healthy-run"]
    )
    def test_stderr_that_fails_keeps_the_exit_code(self, tmp_path, sink, mode, source, code):
        # A diagnostic that cannot be written is dropped; the exit code still
        # tells the outcome (exit 1 would claim the run found nothing).  Under
        # `2>&-` file descriptor 2 is closed, so sys.stderr is None, or it is
        # reused by the next file opened for reading, which refuses writes.
        blocks = [citing_record("WOS:1", crs=["A B, 1905, X"]), citing_record("WOS:2")]
        del blocks[1]["PY"]
        write_export(tmp_path / "py-less", blocks)
        src = Path(__file__).resolve().parents[1] / "src"
        argv = [sys.executable, "-c", "from rpys.cli import entrypoint; entrypoint()"]
        fd = os.open(sink, mode) if mode is not None else None
        try:
            run = subprocess.run(
                [*argv, "stats", "--input", source],
                cwd=tmp_path,
                env=dict(os.environ, PYTHONPATH=str(src)),
                stdout=subprocess.PIPE,
                stderr=fd,
                preexec_fn=(lambda: os.close(2)) if fd is None else None,
            )
        finally:
            if fd is not None:
                os.close(fd)
        assert run.returncode == code
        assert (b"Total" in run.stdout) == (code == 0)
        assert b"rpys:" not in run.stdout

    @pytest.mark.parametrize("flag", ["--input", "--out"])
    def test_overlong_path_exits_two(self, tmp_path, spike_export, capsys, flag):
        # 5,000 bytes: more than a file name (255) or a whole path (4,096) may hold.
        overlong = str(tmp_path / ("n" * 5000))
        argv = ["spectrum", "--input", spike_export, "--out", str(tmp_path / "out")]
        argv[argv.index(flag) + 1] = overlong
        assert main(argv) == 2
        reason = os.strerror(errno.ENAMETOOLONG)
        assert capsys.readouterr() == ("", f"rpys: {overlong}: {reason}\n")

    @pytest.mark.skipif(sys.platform != "linux", reason="needs /proc and /dev/full")
    def test_failed_read_or_write_names_the_file(self, tmp_path, spike_export, capsys):
        # The OSError of a failed read() or write() names no file: reading
        # /proc/self/mem from offset 0 fails, and so does writing /dev/full.
        assert main(["stats", "--input", "/proc/self/mem"]) == 2
        reason = os.strerror(errno.EIO)
        assert capsys.readouterr() == ("", f"rpys: /proc/self/mem: {reason}\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "rpys.csv").symlink_to("/dev/full")
        assert main(["spectrum", "--input", spike_export, "--out", str(out)]) == 2
        reason = os.strerror(errno.ENOSPC)
        assert capsys.readouterr() == ("", f"rpys: {out / 'rpys.csv'}: {reason}\n")

    def test_shuffled_inputs_identical_artifacts(self, tmp_path):
        paths = []
        for i, year in enumerate((1950, 1905, 1962)):
            paths.append(
                write_export(
                    tmp_path / f"part{i}.txt",
                    [citing_record(f"WOS:{i}", crs=[f"A B, {year}, X"] * (i + 2))],
                )
            )
        out_a, out_b = tmp_path / "out_a", tmp_path / "out_b"
        args_a = ["--input", paths[0], "--input", paths[1], "--input", paths[2]]
        args_b = ["--input", paths[2], "--input", paths[0], "--input", paths[1]]
        for cmd in ("spectrum", "peaks", "plot"):
            assert main([cmd, *args_a, "--out", str(out_a)]) == 0
            assert main([cmd, *args_b, "--out", str(out_b)]) == 0
        for name in ("rpys.csv", "median.csv", "peaks.json", "spectrogram.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["spectrum", "peaks", "plot"]),
    min_deviation=st.one_of(
        st.sampled_from([float("nan"), float("inf"), float("-inf"), -1.0, 0.0]),
        st.floats(),
    ),
    year_range=st.one_of(
        st.none(),
        st.from_regex(r"\d{1,5}:\d{1,5}", fullmatch=True),
        st.text(max_size=12),
    ),
    top=st.integers(-5, 50),
    citing_year=st.integers(0, 3000),
)
def test_main_only_returns_exit_codes(
    tmp_path, command, min_deviation, year_range, top, citing_year
):
    crs = lines_for_counts({1901: 3, 1902: 9, 1903: 3, 1904: 11, 1905: 3})
    export = write_export(
        tmp_path / "gen.txt", [citing_record("WOS:1", year=citing_year, crs=crs)]
    )
    argv = [command, "--input", export, "--out", str(tmp_path / "out")]
    if command != "spectrum":
        argv += [f"--min-deviation={min_deviation}", f"--top={top}"]
    if year_range is not None:
        argv.append(f"--range={year_range}")
    assert main(argv) in (0, 1, 2)


# Digit strings past int()'s 4,300-digit limit, beside ordinary years.
_pub_years = st.one_of(
    st.integers(0, 9999).map(str),
    st.builds(
        lambda lead, n: lead + "0" * n, st.sampled_from("123456789"), st.integers(4300, 5999)
    ),
)
_cr_texts = st.one_of(
    st.lists(
        st.sampled_from(["EINSTEIN A", "1905", "0999", "ANN PHYS", "V17", "P891", "DOI x", ""]),
        max_size=6,
    ).map(", ".join),
    st.text(st.characters(exclude_categories=("Cc", "Cs")), max_size=30),
)
# Path components as POSIX argv bytes decode, without NUL, "/", "." or ".."
# (so every name stays under the test's directory), and one longer than a
# file name may be.
_path_parts = st.lists(
    st.one_of(
        st.binary(min_size=1, max_size=8)
        .filter(lambda b: b"\0" not in b and b"/" not in b and b not in (b".", b".."))
        .map(os.fsdecode),
        st.integers(256, 300).map(lambda n: "n" * n),
    ),
    min_size=1,
    max_size=3,
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["stats", "spectrum", "peaks", "drill"]),
    layout=st.sampled_from(["tagged", "tsv"]),
    pub_year=_pub_years,
    crs=st.lists(_cr_texts, max_size=6),
    strict=st.booleans(),
    author=st.one_of(
        st.none(),
        st.sampled_from(["", "  ", ".", ",.", "UNKNOWN", "Einstein, A.", "EINSTEIN A"]),
        st.text(max_size=12),
        st.binary(min_size=1, max_size=12).map(os.fsdecode),  # argv bytes, maybe not UTF-8
    ),
    input_parts=st.one_of(st.none(), _path_parts),
    out_parts=st.one_of(st.none(), _path_parts),
)
def test_generated_exports_only_return_exit_codes(
    tmp_path, command, layout, pub_year, crs, strict, author, input_parts, out_parts
):
    path = tmp_path / "gen.txt"
    if layout == "tagged":
        block = citing_record("WOS:1", crs=crs)
        block["PY"] = [pub_year]
        path.write_text(tagged_export([block]), encoding="utf-8")
    else:
        path.write_text(
            f"PT\tSO\tPY\tCR\tUT\nJ\tERKENNTNIS\t{pub_year}\t{'; '.join(crs)}\tWOS:1\n",
            encoding="utf-8",
        )
    export = path if input_parts is None else tmp_path.joinpath(*input_parts)
    out = tmp_path / "out" if out_parts is None else tmp_path.joinpath(*out_parts)
    argv = [command, "--input", str(export), "--out", str(out)]
    if command == "drill":
        argv += ["--year", "1905"]
        if author is not None:
            argv.append(f"--author={author}")
    if strict:
        argv.append("--strict")
    assert main(argv) in (0, 1, 2)
