"""The mutant catalogue of ``scripts/mutants.py`` names texts the code holds.

A refactor that moves a catalogued text would otherwise pass tier-1 and
only make the mutation runner exit 2 later.  The runner deselects this
test in its copies, where the applied mutant's text is gone by design.
"""

from __future__ import annotations

import sys
from pathlib import Path


def test_every_catalogued_text_occurs_once():
    sys.path.insert(0, str(Path(__file__).parents[1] / "scripts"))
    try:
        import mutants
    finally:
        sys.path.pop(0)
    assert mutants.stale_entries() == []
