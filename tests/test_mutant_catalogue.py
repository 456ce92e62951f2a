"""The mutant catalogue of ``scripts/mutants.py`` names texts the code
holds and killers that their test files define.

A refactor that moves a catalogued text or renames a killing test
would otherwise pass tier-1 and only make the mutation runner exit 2
later.  The runner deselects the first test in its copies, where the
applied mutant's text is gone by design.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest


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


@pytest.mark.parametrize(
    "killer, path, names",
    [
        ("tests/test_corpus.py::TestBuildCorpus::test_renamed",
         "tests/test_corpus.py", "TestBuildCorpus::test_renamed"),
        ("tests/test_corpus.py::TestRenamed::test_duplicate_uid_kept_once[x]",
         "tests/test_corpus.py", "TestRenamed::test_duplicate_uid_kept_once"),
        ("tests/test_profiles.py::test_renamed[a-b]", "tests/test_profiles.py", "test_renamed"),
    ],
)
def test_a_killer_its_file_does_not_define_is_stale(monkeypatch, killer, path, names):
    mutants = _mutants()
    entry = mutants.CATALOGUE[0]._replace(killer=killer)
    monkeypatch.setattr(mutants, "CATALOGUE", (entry,))
    assert mutants.stale_entries() == [f"{entry.name}: killer {names} is not defined in {path}"]
