#!/usr/bin/env python3
"""Run tier-1 against a catalogue of one-edit mutants of ``src/rpys``.

Passing tests say that no check fails, not that a defect would be
caught.  Each mutant here is a module, an exact text in it and the
text's replacement: a small defect that some test should notice.  For
each one the runner copies ``src``, ``tests`` and ``scripts`` (with
``pyproject.toml``, which holds the pytest settings, and ``README.md``,
whose example a test runs) to a temporary directory, because the tests
find ``src`` from their own path.  It applies the edit there and first
runs the mutant's killer, the test that killed it in the last full
pass; only pytest's exit code 1, a failed test, kills the mutant at
this step.  Any other outcome (the killer passes, is gone, or times
out) runs tier-1 with ``-x``.  There a mutant is killed when a test
fails, and the first failing test is reported, with a note when it is
not the catalogued killer; it survived when every test passes.

Before any run, every catalogue text must occur exactly once in its
module and every killer's test file must exist, so the catalogue cannot
go stale without notice, and the unmutated copy must pass; either
failure exits 2.  The exit status is 1 if any mutant survives, else 0.
This is not part of tier-1: a mutant its killer still fails costs one
test, any other up to one tier-1 run, a survivor a whole one.

Usage: python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "pyproject.toml", "README.md")
# The catalogue test fails on every mutated copy, where the applied
# mutant's text is gone; main checks the catalogue itself before any run.
PYTEST = (
    "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
    "--deselect", "tests/test_mutant_catalogue.py::test_every_catalogued_text_occurs_once",
)
TIMEOUT_S = 900  # a mutant that loops forever counts as killed


class Mutant(NamedTuple):
    name: str
    module: str  # relative to src/rpys
    text: str
    replacement: str
    killer: str  # pytest node id of the test that killed it in the last full pass


CATALOGUE = (
    # Five-year-median window and deviation.
    Mutant(
        "window-left-edge-off-by-one", "spectrum.py",
        "counts[max(0, center - 2) : center + 3]", "counts[max(0, center - 1) : center + 3]",
        "tests/test_acceptance.py::test_c3_median_against_brute_force_oracle",
    ),
    Mutant(
        "window-four-wide", "spectrum.py",
        "counts[max(0, center - 2) : center + 3]", "counts[max(0, center - 2) : center + 2]",
        "tests/test_acceptance.py::test_c3_median_against_brute_force_oracle",
    ),
    Mutant(
        "even-median-floor-division", "spectrum.py",
        "(window[mid - 1] + window[mid]) / 2", "(window[mid - 1] + window[mid]) // 2",
        "tests/test_acceptance.py::test_c3_median_against_brute_force_oracle",
    ),
    # Spectrum range.
    Mutant(
        "range-upper-bound-exclusive", "spectrum.py",
        "lo <= year <= hi", "lo <= year < hi",
        "tests/test_cli.py::TestSpectrumCommand::test_range_filters_and_reports_dropped",
    ),
    Mutant(
        "default-min-rpy-1501", "spectrum.py",
        "DEFAULT_MIN_RPY = 1500", "DEFAULT_MIN_RPY = 1501",
        "tests/test_spectrum.py::TestComputeSpectrum::test_default_lower_bound_is_1500_inclusive",
    ),
    # Peaks.
    Mutant(
        "threshold-through-float", "spectrum.py",
        "if d <= min_deviation:", "if d <= float(min_deviation):",
        "tests/test_spectrum.py::TestDetectPeaks::test_rational_threshold_is_compared_unrounded",
    ),
    Mutant(
        "plateau-peaks-at-rightmost-year", "spectrum.py",
        "if i > 0 and not d > dev[i - 1]:\n"
        "            continue\n"
        "        if i + 1 < len(dev) and not d >= dev[i + 1]:",
        "if i > 0 and not d >= dev[i - 1]:\n"
        "            continue\n"
        "        if i + 1 < len(dev) and not d > dev[i + 1]:",
        "tests/test_spectrum.py::TestDetectPeaks::test_constant_positive_deviations_peak_at_leftmost",
    ),
    Mutant(
        "tie-ranks-later-year-first", "spectrum.py",
        "(-item[0], item[1])", "(-item[0], -item[1])",
        "tests/test_pinned_artifacts.py::test_artifacts_match_pinned_digests[tagged]",
    ),
    # Corpus build.
    Mutant(
        "last-uid-wins", "corpus.py",
        "for raw in records:", "for raw in reversed(records):",
        "tests/test_cli.py::TestFlagsAndErrors::test_double_star_pattern_matches_any_depth",
    ),
    Mutant(
        "surrogate-uid-without-so", "corpus.py",
        'record.joined("SO") or "",', '"",',
        "tests/test_corpus.py::TestBuildCorpus::test_surrogate_uid_reads_each_descriptive_field[SO]",
    ),
    Mutant(
        "surrogate-uid-without-au", "corpus.py",
        '(record.first("AU") or "").strip(),', '"",',
        "tests/test_corpus.py::TestBuildCorpus::test_surrogate_uid_reads_each_descriptive_field[AU]",
    ),
    Mutant(
        "surrogate-uid-without-ti", "corpus.py",
        'record.joined("TI") or "",', '"",',
        "tests/test_corpus.py::TestBuildCorpus::test_surrogate_uid_reads_each_descriptive_field[TI]",
    ),
    Mutant(
        "five-digit-py", "corpus.py",
        "len(raw) <= 4 and", "len(raw) <= 5 and",
        "tests/test_corpus.py::TestBuildCorpus::test_build_matches_reference_and_parses_on_demand",
    ),
    Mutant(
        "corpus-py-non-ascii-digits", "corpus.py",
        "raw.isascii() and ", "",
        "tests/test_corpus.py::TestBuildCorpus::test_non_ascii_digit_py_treated_as_missing[\\u0661\\u0669\\u0669\\u0660]",
    ),
    Mutant(
        "corpus-journal-first-line", "corpus.py",
        'journal = raw.joined("SO")', 'journal = raw.first("SO")',
        "tests/test_cli.py::TestFlagsAndErrors::test_journal_filter_reads_a_wrapped_title_whole",
    ),
    Mutant(
        "journal-filter-by-upper", "corpus.py",
        "key_token(journal) not in wanted", "journal.upper() not in wanted",
        "tests/test_cli.py::TestFlagsAndErrors::test_journal_filter_normalizes_the_record_title_too",
    ),
    # Drill.
    Mutant(
        "year-scan-three-digits", "corpus.py",
        "digits = str(year)", "digits = str(year)[:3]",
        "tests/test_profiles.py::test_cli_drill_reads_only_its_year[None-tagged]",
    ),
    Mutant(
        "unattributed-out-of-denominator", "corpus.py",
        "total = works.total()", "total = works.total() - unattributed",
        "tests/test_acceptance.py::test_c7_conservation_over_random_corpora",
    ),
    Mutant(
        "share-rounds-half-down", "corpus.py",
        "((2000 * count + total) //", "((2000 * count + total - 1) //",
        "tests/test_profiles.py::TestRoundShare::test_halves_round_away_from_zero",
    ),
    # Export reader.
    Mutant(
        "min-rpy-1001", "wos.py",
        "MIN_RPY = 1000", "MIN_RPY = 1001",
        "tests/test_cli.py::TestPlotCommand::test_pinned_range_without_references_exits_one",
    ),
    Mutant(
        "header-without-cr", "wos.py",
        'if len(cells) > 1 and "PY" in cells and "CR" in cells:',
        'if len(cells) > 1 and "PY" in cells:',
        "tests/test_wos_parser.py::TestDetectFormat::test_near_misses_are_unrecognized[PY\\tUT]",
    ),
    Mutant(
        "parse-export-always-tagged", "wos.py",
        "parse = _parse_tab_delimited if detect_format(text) == TAB_DELIMITED else _parse_tagged",
        "parse = _parse_tagged",
        "tests/test_cli.py::TestStats::test_overlong_pub_year_is_invalid[tsv]",
    ),
    Mutant(
        "whole-file-latin-1", "wos.py",
        "    except UnicodeDecodeError:\n        pass\n",
        '    except UnicodeDecodeError:\n        return data.decode("latin-1")\n',
        "tests/test_wos_parser.py::TestEncodingAndLoading::test_decode_matches_per_line_reference",
    ),
    Mutant(
        "cited-year-without-strip-fallback", "wos.py",
        "if seg in _YEARS or (seg := seg.strip()) in _YEARS:", "if seg in _YEARS:",
        "tests/test_profiles.py::test_drills_match_per_line_reference",
    ),
    # Command line.
    Mutant(
        "inputs-deduplicated-by-name", "cli.py",
        "files.setdefault(Path(name).resolve(), Path(name))",
        "files.setdefault(Path(name), Path(name))",
        "tests/test_cli.py::TestFlagsAndErrors::test_inputs_deduplicated_by_file",
    ),
    Mutant(
        "cli-malformed-last-file-only", "cli.py",
        "malformed += diag.malformed_records", "malformed = diag.malformed_records",
        "tests/test_cli.py::TestFlagsAndErrors::test_malformed_blocks_are_counted_over_every_file",
    ),
    Mutant(
        "cli-range-hi-exclusive-max", "cli.py",
        "hi > MAX_RPY", "hi >= MAX_RPY",
        "tests/test_cli.py::TestSpectrumCommand::test_range_up_to_max_rpy",
    ),
    Mutant(
        "cli-range-four-digit-regex", "cli.py",
        r"(\d{1,5}):(\d{1,5})", r"(\d{1,4}):(\d{1,4})",
        "tests/test_cli.py::TestFlagsAndErrors::test_five_digit_range_bound_is_out_of_window",
    ),
    Mutant(
        "cli-glob-not-recursive", "cli.py",
        "glob.glob(pattern, recursive=True)", "glob.glob(pattern)",
        "tests/test_cli.py::TestFlagsAndErrors::test_double_star_pattern_matches_any_depth",
    ),
    Mutant(
        "cli-author-high-surrogate", "cli.py",
        '"\\ud800" <= ch', '"\\udc00" <= ch',
        "tests/test_cli.py::TestFlagsAndErrors::test_drill_author_check_exits_two[high-surrogate]",
    ),
    # Spectrogram.
    Mutant(
        "svg-peak-label-unclamped", "svgplot.py",
        "py = max(y0 + 10, sy(peak.deviation) - 8)", "py = sy(peak.deviation) - 8",
        "tests/test_cli.py::TestPlotCommand::test_peak_label_at_the_top_edge_stays_inside",
    ),
)


def stale_entries() -> list[str]:
    """One message per mutant whose text does not occur exactly once, and
    one per mutant whose killer's test file is missing."""
    problems = []
    for m in CATALOGUE:
        found = (ROOT / "src" / "rpys" / m.module).read_text(encoding="utf-8").count(m.text)
        if found != 1:
            problems.append(f"{m.name}: text occurs {found} times in {m.module}")
        killer_file = m.killer.split("::")[0]
        if not (ROOT / killer_file).is_file():
            problems.append(f"{m.name}: killer's test file {killer_file} is missing")
    return problems


def _pytest(work: Path, *nodes: str) -> tuple[int | None, str]:
    """Pytest's exit code in ``work`` (on ``nodes``, else tier-1), None on
    a timeout, and the first failing test's node id."""
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"src{os.pathsep}{inherited}" if inherited else "src")
    try:
        done = subprocess.run(
            [sys.executable, *PYTEST, *nodes], cwd=work, env=env,
            capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.splitlines()
    first = next((line for line in lines if line.startswith(("FAILED ", "ERROR "))), None)
    if first is None:
        return done.returncode, f"pytest exit {done.returncode}"
    return done.returncode, first.split(" ", 1)[1].split(" - ")[0]


def run_tier1(mutant: Mutant | None) -> tuple[int | None, str]:
    """Pytest's exit code on a copy of the tree with ``mutant`` applied,
    None on a timeout, and the first failing test's node id: the killer's
    when it fails, else tier-1's."""
    with tempfile.TemporaryDirectory(prefix="rpys-mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
                shutil.copytree(source, work / name, ignore=ignore)
            else:
                shutil.copy2(source, work / name)
        if mutant is not None:
            path = work / "src" / "rpys" / mutant.module
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(mutant.text, mutant.replacement), encoding="utf-8")
            code, first = _pytest(work, mutant.killer)
            if code == 1:
                return code, first
        return _pytest(work)


def main() -> int:
    stale = stale_entries()
    if stale:
        print("mutants.py: stale catalogue:\n  " + "\n  ".join(stale), file=sys.stderr)
        return 2
    code, first = run_tier1(None)
    if code != 0:
        print(f"mutants.py: tier-1 fails on the unmutated copy: {first}", file=sys.stderr)
        return 2

    survivors = []
    for m in CATALOGUE:
        start = time.perf_counter()
        code, first = run_tier1(m)
        took = f"{time.perf_counter() - start:.1f} s"
        if code == 0:
            survivors.append(m.name)
            print(f"SURVIVED  {m.name}  ({took})", flush=True)
        else:
            print(f"killed    {m.name}  ({took}): {first}", flush=True)
            if code == 1 and first != m.killer:
                print(f"          new killer: {first}", flush=True)
    print(f"{len(CATALOGUE) - len(survivors)} killed, {len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
