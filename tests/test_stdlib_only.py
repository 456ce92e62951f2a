"""The package imports nothing but the standard library and itself, in 3.10 syntax."""

from __future__ import annotations

import ast
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
