"""Acceptance gate: one test per release criterion, with runtime bounds.

Each test prints a single summary line so a plain `pytest -v -s
tests/test_acceptance.py` run reads as a checklist.  Oracles are
independent of the implementation: statistics.median over Fractions for
the smoother, a restated local-max predicate for peaks, and hand-parsed
field values for the reference grammar.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from collections import Counter
from fractions import Fraction

from rpys import (
    Spectrum,
    build_corpus,
    compute_spectrum,
    detect_peaks,
    drill_year,
    author_breakdown,
    median_deviation,
    parse_cited_reference,
    parse_export,
)
from rpys.cli import main
from rpys.spectrum import DeviationSeries

from conftest import THREE_RECORD_EXPORT, citing_record, drill_1905_crs, tagged_export


def spectrum_of(counts, start=1900):
    return Spectrum(year_range=(start, start + len(counts) - 1), counts=tuple(counts))


def brute_force_medians(counts):
    return [
        statistics.median([Fraction(c) for c in counts[max(0, i - 2) : i + 3]])
        for i in range(len(counts))
    ]


def test_c1_parser_fixture_and_round_trip():
    started = time.perf_counter()
    records, diag = parse_export(THREE_RECORD_EXPORT)
    assert len(records) == 2
    assert diag.records_parsed == 2
    assert diag.malformed_records == 1
    text = tagged_export([r.tags for r in records])
    reparsed, rediag = parse_export(text)
    assert reparsed == records
    assert rediag.malformed_records == 0
    assert tagged_export([r.tags for r in reparsed]) == text
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"C1 parser fixture + round-trip: PASS ({elapsed:.3f}s < 1s)")


# (line, author, year, source, volume, page) hand-parsed: the line's work
# key, UNKNOWN for a missing author and "" for a missing text field
CR_ORACLE = [
    ("EINSTEIN A, 1905, ANN PHYS-BERLIN, V17, P891",
     "EINSTEIN A", 1905, "ANN PHYS-BERLIN", "17", "891"),
    ("KUHN TS, 1970, STRUCTURE SCI REVOLU",
     "KUHN TS", 1970, "STRUCTURE SCI REVOLU", "", ""),
    ("HUME DAVID, TREATISE HUMAN NATUR",
     "HUME DAVID", None, "", "", ""),
    ("1923, RELATIVITY THEORY",
     "UNKNOWN", 1923, "RELATIVITY THEORY", "", ""),
    ("POINCARÉ H, 1905, CR HEBD ACAD SCI, V140, P1504",
     "POINCARÉ H", 1905, "CR HEBD ACAD SCI", "140", "1504"),
    ("SMITH J, 2004, J INFORMETR, V1, P8, DOI 10.1016/j.joi.2006.09.001",
     "SMITH J", 2004, "J INFORMETR", "1", "8"),
    ("[ANONYMOUS], 1899, LANCET",
     "ANONYMOUS", 1899, "LANCET", "", ""),
    ("DOE J, 2101, FUTURE STUD",
     "DOE J", None, "", "", ""),
    ("NEWTON I, 1687, PHILOS NAT PRIN MATH",
     "NEWTON I", 1687, "PHILOS NAT PRIN MATH", "", ""),
    ("MARX K, 0867, DAS KAPITAL",
     "MARX K", None, "", "", ""),
    ("FISHER RA, 1925, STAT METHODS RES WOR, P239",
     "FISHER RA", 1925, "STAT METHODS RES WOR", "", "239"),
    ("BOHR N, 1913, PHILOS MAG, V26, P1",
     "BOHR N", 1913, "PHILOS MAG", "26", "1"),
    ("VAN FRAASSEN BC, 1980, SCI IMAGE",
     "VAN FRAASSEN BC", 1980, "SCI IMAGE", "", ""),
    ("CARNAP R, 1950, LOGICAL FDN PROBABIL, 2ND ED",
     "CARNAP R", 1950, "LOGICAL FDN PROBABIL", "", ""),
    ("PEIRCE CS, 1878, POP SCI MONTHLY, V12, P286",
     "PEIRCE CS", 1878, "POP SCI MONTHLY", "12", "286"),
    ("QUINE WV, 1951, PHILOS REV, V60, P20, V61, P99",
     "QUINE WV", 1951, "PHILOS REV", "60", "20"),
    ("ANSCOMBE GEM, 1957, INTENTION",
     "ANSCOMBE GEM", 1957, "INTENTION", "", ""),
    ("1962, PRIVATE COMMUNICATION",
     "UNKNOWN", 1962, "PRIVATE COMMUNICATION", "", ""),
    ("GÖDEL K, 1931, MONATSH MATH PHYS, V38, P173",
     "GÖDEL K", 1931, "MONATSH MATH PHYS", "38", "173"),
    ("POPPER K, 1959, LOGIC SCI DISCOVERY, DOI 10.4324/9780203994627",
     "POPPER K", 1959, "LOGIC SCI DISCOVERY", "", ""),
    ("UNESCO, 1974, REC STAT INT STAND",
     "UNESCO", 1974, "REC STAT INT STAND", "", ""),
    ("JAMES W, 1890, PRINCIPLES PSYCHOL, V1",
     "JAMES W", 1890, "PRINCIPLES PSYCHOL", "1", ""),
    ("LAKATOS I, 1970, CRITICISM GROWTH KNO, P91",
     "LAKATOS I", 1970, "CRITICISM GROWTH KNO", "", "91"),
    ("WHITEHEAD AN, 1910, PRINCIPIA MATH, V1, PVII",
     "WHITEHEAD AN", 1910, "PRINCIPIA MATH", "1", "VII"),
    ("DUHEM P, 1906, THEORIE PHYS SON OBJ",
     "DUHEM P", 1906, "THEORIE PHYS SON OBJ", "", ""),
]


def test_c2_cited_reference_grammar_oracle():
    started = time.perf_counter()
    assert len(CR_ORACLE) == 25
    for line, author, year, source, volume, page in CR_ORACLE:
        ref = parse_cited_reference(line)  # must never raise
        got = (ref.author, ref.year, ref.source, ref.volume, ref.page)
        assert got == (author, year, source, volume, page), line
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"C2 cited-reference grammar (25-line oracle): PASS ({elapsed:.3f}s < 1s)")


def test_c3_median_against_brute_force_oracle():
    started = time.perf_counter()
    rng = random.Random(30303)
    for _ in range(1000):
        counts = [rng.randint(0, 10000) for _ in range(rng.randint(1, 200))]
        series = median_deviation(spectrum_of(counts))
        expected = brute_force_medians(counts)
        assert list(series.median5) == expected
        assert list(series.deviation) == [
            Fraction(c) - m for c, m in zip(counts, expected)
        ]
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"C3 median oracle (1000 random series): PASS ({elapsed:.2f}s < 5s)")


def test_c4_smoothing_invariants():
    started = time.perf_counter()
    rng = random.Random(40404)
    for _ in range(200):
        counts = [rng.randint(0, 5000) for _ in range(rng.randint(1, 120))]
        base = median_deviation(spectrum_of(counts))

        c = rng.randint(1, 1000)
        shifted = median_deviation(spectrum_of([n + c for n in counts]))
        assert shifted.deviation == base.deviation
        assert all(s == b + c for s, b in zip(shifted.median5, base.median5))

        k = rng.randint(2, 9)
        scaled = median_deviation(spectrum_of([n * k for n in counts]))
        assert all(s == b * k for s, b in zip(scaled.deviation, base.deviation))
        assert [p.year for p in detect_peaks(scaled)] == [
            p.year for p in detect_peaks(base)
        ]
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"C4 shift/scale invariants (200 random series): PASS ({elapsed:.2f}s < 5s)")


def _independent_is_peak(devs, i):
    if devs[i] <= 0:
        return False
    if i > 0 and devs[i] <= devs[i - 1]:
        return False
    if i + 1 < len(devs) and devs[i] < devs[i + 1]:
        return False
    return True


def test_c5_peak_predicate():
    started = time.perf_counter()
    devs = [0, 3, 0, 5, 0]
    series = DeviationSeries(
        year_range=(2000, 2004),
        n_cr=(0, 3, 0, 5, 0),
        median5=tuple(Fraction(0) for _ in devs),
        deviation=tuple(Fraction(d) for d in devs),
    )
    peaks = detect_peaks(series)
    assert [(p.rank, p.deviation, p.year) for p in peaks] == [
        (1, Fraction(5), 2003),
        (2, Fraction(3), 2001),
    ]
    for peak in peaks:
        assert _independent_is_peak(series.deviation, peak.year - 2000)

    # Flat count series smooth to all-zero deviations, hence no peaks.
    for flat_counts in ([0, 0, 0, 0], [7, 7, 7], [2] * 10):
        flat_series = median_deviation(spectrum_of(flat_counts))
        assert all(d == 0 for d in flat_series.deviation)
        assert detect_peaks(flat_series) == []
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"C5 peak predicate: PASS ({elapsed:.3f}s < 1s)")


def test_c6_share_arithmetic_reproduction(tmp_path):
    started = time.perf_counter()
    crs = drill_1905_crs()
    blocks = [
        citing_record(f"WOS:C6{i}", journal="PHILOSOPHY OF SCIENCE", year=2012,
                      crs=crs[i * 25 : (i + 1) * 25])
        for i in range(4)
    ]
    path = tmp_path / "engineered.txt"
    path.write_text(tagged_export(blocks), encoding="utf-8")
    out = tmp_path / "out"

    code = main(["drill", "--input", str(path), "--year", "1905", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "profile_1905.json").read_text(encoding="utf-8"))
    assert payload["total_refs"] == 100
    assert payload["authors"][0] == {"name": "EINSTEIN A", "count": 24, "share": 24.0}
    assert payload["authors"][1] == {"name": "POINCARE H", "count": 10, "share": 10.0}

    records, _ = parse_export(path.read_text(encoding="utf-8"))
    corpus, _ = build_corpus(records)
    breakdown = author_breakdown(corpus, "EINSTEIN A", 1905)
    assert breakdown.total_refs == 24
    assert breakdown.rows[0].count == 13
    assert breakdown.rows[0].share == 54.2
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        "C6 share arithmetic (engineered 1905 fixture): PASS "
        f"(24.0/10.0/54.2, {elapsed:.3f}s < 1s)"
    )


def _random_export(rng: random.Random, tag: str) -> str:
    blocks = []
    for r in range(rng.randint(3, 8)):
        pub_year = rng.randint(1990, 2013)
        crs = []
        for j in range(rng.randint(0, 20)):
            roll = rng.random()
            year = rng.randint(1400, 2100)
            if roll < 0.65:
                crs.append(f"AUTH{rng.randint(0, 30):02d} A, {year}, SRC {rng.randint(0, 5)}")
            elif roll < 0.80:
                crs.append(f"NOYEAR{rng.randint(0, 9)} B, UNTITLED MANUSCRIPT")
            elif roll < 0.90:
                crs.append(f"{year}, ANON WORK {j}")
            else:
                crs.append(
                    f"AUTH{rng.randint(0, 30):02d} C, {year}, SRC X, "
                    f"V{rng.randint(1, 99)}, P{rng.randint(1, 999)}"
                )
        blocks.append(
            citing_record(
                f"WOS:{tag}:{r}",
                journal=rng.choice(["ERKENNTNIS", "MIND", "SYNTHESE"]),
                year=pub_year,
                crs=crs,
            )
        )
    return tagged_export(blocks)


def test_c7_conservation_over_random_corpora():
    started = time.perf_counter()
    rng = random.Random(70707)
    for i in range(100):
        text = _random_export(rng, f"C7{i}")
        records, diag = parse_export(text)
        corpus, corpus_diag = build_corpus(records)
        assert corpus_diag.excluded_missing_fields == 0
        assert corpus_diag.duplicates_skipped == 0
        spectrum = compute_spectrum(corpus)

        total_cr_lines = diag.cr_lines_parsed
        assert (
            spectrum.total + spectrum.dropped_out_of_range + spectrum.without_year
            == total_cr_lines
        )
        assert spectrum.without_year == sum(
            1 for ref in corpus.iter_refs() if ref.year is None
        )
        # The year index partitions the references: each string under its
        # own year, each counted as often as the records cite it.
        for year, lines in corpus.by_year.items():
            assert all(parse_cited_reference(line).year == year for line in lines)
        assert sum(c.total() for c in corpus.by_year.values()) == corpus.total_cited_refs
        assert corpus.by_year.get(None, Counter()).total() == spectrum.without_year

        nonzero_years = [y for y in spectrum.years() if spectrum.count_at(y)]
        for year in nonzero_years:
            assert drill_year(corpus, year, top_k=3).total_refs == spectrum.count_at(year)
        if spectrum.year_range is not None:
            absent = spectrum.year_range[0] - 1
            assert drill_year(corpus, absent, top_k=3).total_refs == spectrum.count_at(absent)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"C7 conservation (100 random corpora): PASS ({elapsed:.2f}s < 10s)")


def test_c8_full_pipeline_determinism(tmp_path):
    started = time.perf_counter()
    rng = random.Random(80808)
    paths = []
    for i in range(3):
        path = tmp_path / f"batch{i}.txt"
        path.write_text(_random_export(rng, f"C8{i}"), encoding="utf-8")
        paths.append(str(path))

    orders = [paths, paths[::-1], [str(tmp_path / "batch*.txt")]]
    artifacts = ("rpys.csv", "median.csv", "peaks.json", "spectrogram.svg")
    snapshots = []
    exit_codes = []
    for n, order in enumerate(orders):
        out = tmp_path / f"run{n}"
        inputs = [arg for p in order for arg in ("--input", p)]
        codes = tuple(
            main([cmd, *inputs, "--out", str(out)]) for cmd in ("spectrum", "peaks", "plot")
        )
        assert all(code in (0, 1) for code in codes)
        exit_codes.append(codes)
        snapshots.append({name: (out / name).read_bytes() for name in artifacts})

    assert len(set(exit_codes)) == 1
    for later in snapshots[1:]:
        assert later == snapshots[0]
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"C8 pipeline determinism (3 input orders): PASS ({elapsed:.2f}s < 5s)")
