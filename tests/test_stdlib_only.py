"""The package imports nothing but the standard library and itself, in 3.10 syntax,
and its command line starts without the modules it does not need."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rpys"


def _foreign_imports(path: Path) -> list[str]:
    """Top-level names of absolute imports in ``path`` outside the stdlib."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]


def test_package_imports_only_stdlib_and_itself():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "wos.py" in sources
    foreign = {path.name: _foreign_imports(path) for path in sources}
    assert {name: found for name, found in foreign.items() if found} == {}


def test_sources_parse_as_python_3_10():
    # The requires-python floor: this checks its grammar (no ``except*``,
    # say), not how the code runs there.
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert ROOT / "scripts" / "demo_pipeline.py" in sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


# Run in a fresh interpreter: the modules ``import rpys.cli`` adds, then
# the two calls that import hashlib when they need it.
_IMPORT_GRAPH = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import rpys.cli
added = set(sys.modules) - before
from rpys import RawRecord, build_corpus
slug = rpys.cli._slug("A" * (rpys.cli._SLUG_MAX + 1))
corpus, _ = build_corpus([RawRecord({"SO": ("J",), "PY": ("2010",), "TI": ("T",)})])
print(json.dumps([sorted(added), slug, corpus.records[0].uid]))
"""


def test_cli_import_leaves_out_dataclasses_inspect_and_hashlib():
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH, str(PACKAGE.parent)],
        capture_output=True,
        text=True,
        check=True,
    )
    added, slug, uid = json.loads(done.stdout)
    assert "rpys.cli" in added
    assert {"dataclasses", "inspect", "hashlib"}.isdisjoint(added)
    head, digest = slug.split("~")
    assert head == "a" * len(head) and len(digest) == 16
    assert uid.startswith("SYN:") and len(uid) == 4 + 16
