"""The mutant catalogue of ``scripts/mutants.py`` names texts the code
holds and killers in test files that exist.

A refactor that moves a catalogued text or test file would otherwise
pass tier-1 and only make the mutation runner exit 2 later.  The runner
deselects the first test in its copies, where the applied mutant's text
is gone by design.
"""

from __future__ import annotations

import sys
from pathlib import Path


def _mutants():
    sys.path.insert(0, str(Path(__file__).parents[1] / "scripts"))
    try:
        import mutants
    finally:
        sys.path.pop(0)
    return mutants


def test_every_catalogued_text_occurs_once():
    assert _mutants().stale_entries() == []


def test_a_killer_in_a_missing_file_is_stale(monkeypatch):
    mutants = _mutants()
    entry = mutants.CATALOGUE[0]._replace(killer="tests/test_gone.py::test_x")
    monkeypatch.setattr(mutants, "CATALOGUE", (entry,))
    assert f"{entry.name}: killer's test file tests/test_gone.py is missing" in (
        mutants.stale_entries()
    )
