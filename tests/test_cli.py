"""End-to-end command tests: artifacts, exit codes, determinism."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rpys.cli import main

from conftest import citing_record, tagged_export


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

    def test_tsv_format_flag(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(
            "PT\tSO\tPY\tCR\tUT\n"
            "J\tERKENNTNIS\t2010\tA B, 1950, X; C D, 1951, Y\tWOS:1\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        code = main(["spectrum", "--input", str(path), "--format", "tsv", "--out", str(out)])
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

    def test_bad_range_exits_two(self, spike_export, capsys):
        assert main(["spectrum", "--input", spike_export, "--range", "1905"]) == 2
        assert main(["spectrum", "--input", spike_export, "--range", "1950:1900"]) == 2
        assert main(["spectrum", "--input", spike_export, "--range", "0:99999"]) == 2
        assert main(["spectrum", "--input", spike_export, "--range", "999:1905"]) == 2
        assert main(["spectrum", "--input", spike_export, "--range", "1900:2101"]) == 2
        assert "--range" in capsys.readouterr().err

    def test_bad_top_exits_two(self, spike_export):
        assert main(["peaks", "--input", spike_export, "--top", "0"]) == 2

    def test_negative_min_deviation_exits_two(self, spike_export):
        for value in ("-1", "nan", "inf", "-inf"):
            argv = ["peaks", "--input", spike_export, f"--min-deviation={value}"]
            assert main(argv) == 2, value

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

    def test_unrecognized_format_exits_two(self, tmp_path, capsys):
        # Every export starts with a header line, so an empty or blank
        # file is a failed export, not an empty corpus.
        path = tmp_path / "page.html"
        for content in ("<html><body>nope</body></html>\n", "", "\n  \n\n"):
            path.write_text(content, encoding="utf-8")
            assert main(["stats", "--input", str(path)]) == 2
            assert "unrecognized" in capsys.readouterr().err

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
)
def test_generated_exports_only_return_exit_codes(
    tmp_path, command, layout, pub_year, crs, strict
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
    argv = [command, "--input", str(path), "--out", str(tmp_path / "out")]
    if command == "drill":
        argv += ["--year", "1905"]
    if strict:
        argv.append("--strict")
    assert main(argv) in (0, 1, 2)
