#!/usr/bin/env python3
"""Run tier-1 against a catalogue of one-edit mutants of ``src/rpys``.

Passing tests say that no check fails, not that a defect would be
caught.  Each mutant here is a module, an exact text in it and the
text's replacement: a small defect that some test should notice.  For
each one the runner copies ``src``, ``tests`` and ``scripts`` (with
``pyproject.toml``, which holds the pytest settings, and ``README.md``,
whose example a test runs) to a temporary directory, because the tests
find ``src`` from their own path.  It applies the edit there and runs
tier-1 with ``-x``, one mutant at a time.  A mutant is killed when a
test fails, and the first failing test is reported; it survived when
every test passes.

Before any run, every catalogue text must occur exactly once in its
module, so the catalogue cannot go stale without notice, and the
unmutated copy must pass; either failure exits 2.  The exit status is 1
if any mutant survives, else 0.  This is not part of tier-1: a killed
mutant costs up to one tier-1 run, a survivor a whole one.

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


CATALOGUE = (
    # Five-year-median window and deviation.
    Mutant(
        "window-left-edge-off-by-one", "spectrum.py",
        "counts[max(0, center - 2) : center + 3]", "counts[max(0, center - 1) : center + 3]",
    ),
    Mutant(
        "window-four-wide", "spectrum.py",
        "counts[max(0, center - 2) : center + 3]", "counts[max(0, center - 2) : center + 2]",
    ),
    Mutant(
        "even-median-floor-division", "spectrum.py",
        "(window[mid - 1] + window[mid]) / 2", "(window[mid - 1] + window[mid]) // 2",
    ),
    # Spectrum range.
    Mutant(
        "range-upper-bound-exclusive", "spectrum.py",
        "lo <= year <= hi", "lo <= year < hi",
    ),
    Mutant(
        "default-min-rpy-1501", "spectrum.py",
        "DEFAULT_MIN_RPY = 1500", "DEFAULT_MIN_RPY = 1501",
    ),
    # Peaks.
    Mutant(
        "threshold-through-float", "spectrum.py",
        "if d <= min_deviation:", "if d <= float(min_deviation):",
    ),
    Mutant(
        "plateau-peaks-at-rightmost-year", "spectrum.py",
        "if i > 0 and not d > dev[i - 1]:\n"
        "            continue\n"
        "        if i + 1 < len(dev) and not d >= dev[i + 1]:",
        "if i > 0 and not d >= dev[i - 1]:\n"
        "            continue\n"
        "        if i + 1 < len(dev) and not d > dev[i + 1]:",
    ),
    Mutant(
        "tie-ranks-later-year-first", "spectrum.py",
        "(-item[0], item[1])", "(-item[0], -item[1])",
    ),
    # Corpus build.
    Mutant(
        "last-uid-wins", "corpus.py",
        "for raw in records:", "for raw in reversed(records):",
    ),
    Mutant(
        "surrogate-uid-without-so", "corpus.py",
        'record.joined("SO") or "",', '"",',
    ),
    Mutant(
        "surrogate-uid-without-au", "corpus.py",
        '(record.first("AU") or "").strip(),', '"",',
    ),
    Mutant(
        "surrogate-uid-without-ti", "corpus.py",
        'record.joined("TI") or "",', '"",',
    ),
    Mutant(
        "five-digit-py", "corpus.py",
        "len(raw) <= 4 and", "len(raw) <= 5 and",
    ),
    Mutant(
        "journal-filter-by-upper", "corpus.py",
        "key_token(journal) not in wanted", "journal.upper() not in wanted",
    ),
    # Drill.
    Mutant(
        "year-scan-three-digits", "corpus.py",
        "digits = str(year)", "digits = str(year)[:3]",
    ),
    Mutant(
        "unattributed-out-of-denominator", "corpus.py",
        "total = works.total()", "total = works.total() - unattributed",
    ),
    Mutant(
        "share-rounds-half-down", "corpus.py",
        "((2000 * count + total) //", "((2000 * count + total - 1) //",
    ),
    # Export reader.
    Mutant(
        "min-rpy-1001", "wos.py",
        "MIN_RPY = 1000", "MIN_RPY = 1001",
    ),
    Mutant(
        "header-without-cr", "wos.py",
        'if len(cells) > 1 and "PY" in cells and "CR" in cells:',
        'if len(cells) > 1 and "PY" in cells:',
    ),
    Mutant(
        "parse-export-always-tagged", "wos.py",
        "parse = _parse_tab_delimited if detect_format(text) == TAB_DELIMITED else _parse_tagged",
        "parse = _parse_tagged",
    ),
    Mutant(
        "whole-file-latin-1", "wos.py",
        "    except UnicodeDecodeError:\n        pass\n",
        '    except UnicodeDecodeError:\n        return data.decode("latin-1")\n',
    ),
    Mutant(
        "cited-year-without-strip-fallback", "wos.py",
        "if seg in _YEARS or (seg := seg.strip()) in _YEARS:", "if seg in _YEARS:",
    ),
    # Command line.
    Mutant(
        "inputs-deduplicated-by-name", "cli.py",
        "files.setdefault(Path(name).resolve(), Path(name))",
        "files.setdefault(Path(name), Path(name))",
    ),
)


def stale_entries() -> list[str]:
    """One message per mutant whose text does not occur exactly once."""
    problems = []
    for m in CATALOGUE:
        found = (ROOT / "src" / "rpys" / m.module).read_text(encoding="utf-8").count(m.text)
        if found != 1:
            problems.append(f"{m.name}: text occurs {found} times in {m.module}")
    return problems


def run_tier1(mutant: Mutant | None) -> tuple[int | None, str]:
    """Tier-1's exit code on a copy of the tree with ``mutant`` applied,
    None on a timeout, and the first failing test's line."""
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
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=f"src{os.pathsep}{inherited}" if inherited else "src")
        try:
            done = subprocess.run(
                [sys.executable, *PYTEST], cwd=work, env=env,
                capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.splitlines()
    first = next((line for line in lines if line.startswith(("FAILED ", "ERROR "))), None)
    return done.returncode, (first or f"pytest exit {done.returncode}").split(" - ")[0]


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
    print(f"{len(CATALOGUE) - len(survivors)} killed, {len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
