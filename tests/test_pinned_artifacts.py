"""Pinned artifact bytes: every output of fixed sessions, by sha256.

Each session runs in a fresh directory with relative paths, so its
stdout and stderr are as stable as its files.  The demo sessions are
``scripts/demo_pipeline.py --records N`` at seed 42.  The fixture
sessions run every subcommand over one checked-in export per layout:
duplicates, a journal filter, a malformed block, a Latin-1 line, a
year-less reference, out-of-range years and a ``drill --author``
breakdown.  A refactor leaves every digest unchanged; a change that
alters an artifact on purpose says why in CHANGES.md and re-pins with
``PYTHONPATH=src python tests/test_pinned_artifacts.py``, which prints
each ``session/artifact`` whose digest moved, or that none did.  The
re-pin needs no pytest: this module never imports it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from rpys.cli import main

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS / "fixtures"
PINNED = TESTS / "pinned_digests.json"

_FIXTURE_COMMANDS = [
    ["stats"],
    ["spectrum"],
    ["peaks", "--top", "5"],
    ["drill", "--year", "1905", "--top", "5"],
    ["drill", "--year", "1905", "--author", "Einstein, A."],
    ["plot", "--top", "5"],
]


def _demo_session(records: int):
    def session() -> None:
        sys.path.insert(0, str(TESTS.parent / "scripts"))
        try:
            import demo_pipeline
        finally:
            sys.path.pop(0)
        argv = ["demo_pipeline.py", "--seed", "42", "--records", str(records), "--out", "out"]
        saved, sys.argv = sys.argv, argv
        try:
            demo_pipeline.main()
        finally:
            sys.argv = saved

    return session


def _fixture_session(name: str):
    def session() -> None:
        shutil.copyfile(FIXTURES / name, name)
        base = ["--input", name, "--out", "out", "--journals", "ERKENNTNIS,SYNTHESE"]
        codes = [main([*command, *base]) for command in _FIXTURE_COMMANDS]
        print(f"exit codes {codes}")

    return session


SESSIONS = {
    "demo-150": _demo_session(150),
    "demo-400": _demo_session(400),
    "tagged": _fixture_session("pinned_tagged.txt"),
    "tsv": _fixture_session("pinned_table.txt"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def session_digests(name: str) -> dict[str, str]:
    """sha256 of each file the session writes under out/, and of its stdout/stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                SESSIONS[name]()
        finally:
            os.chdir(cwd)
        out = Path(tmp) / "out"
        digests = {
            path.relative_to(out).as_posix(): _sha256(path.read_bytes())
            for path in sorted(out.rglob("*"))
        }
    digests["stdout"] = _sha256(stdout.getvalue().encode("utf-8"))
    digests["stderr"] = _sha256(stderr.getvalue().encode("utf-8"))
    return digests


def pytest_generate_tests(metafunc):
    # Parametrizes by hook rather than decorator, so the module imports without pytest.
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", list(SESSIONS))


def test_artifacts_match_pinned_digests(name):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[name]
    assert session_digests(name) == pinned


def test_module_and_sessions_run_without_pytest():
    # A child with the pytest import blocked loads this module and checks
    # one session against its pinned entry, writing no digests.
    before = PINNED.read_bytes()
    code = (
        "import json, sys\n"
        "sys.modules['pytest'] = None\n"
        "import test_pinned_artifacts as pins\n"
        "pinned = json.loads(pins.PINNED.read_text(encoding='utf-8'))['tsv']\n"
        "assert pins.session_digests('tsv') == pinned\n"
    )
    path = os.pathsep.join([str(TESTS), str(TESTS.parent / "src")])
    env = {**os.environ, "PYTHONPATH": path}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert PINNED.read_bytes() == before


def changed_artifacts(old: dict, new: dict) -> list[str]:
    """Each ``session/artifact`` whose digest differs, or that only one side has."""
    return [
        f"{name}/{artifact}"
        for name in sorted(old.keys() | new.keys())
        for artifact in sorted(old.get(name, {}).keys() | new.get(name, {}).keys())
        if old.get(name, {}).get(artifact) != new.get(name, {}).get(artifact)
    ]


def test_changed_artifacts_names_each_moved_digest():
    old = {"a": {"x": "1", "y": "2"}, "gone": {"x": "1"}}
    new = {"a": {"x": "1", "y": "3", "z": "4"}, "b": {"x": "1"}}
    assert changed_artifacts(old, new) == ["a/y", "a/z", "b/x", "gone/x"]
    assert changed_artifacts(new, new) == []


if __name__ == "__main__":
    old = json.loads(PINNED.read_text(encoding="utf-8")) if PINNED.exists() else {}
    digests = {name: session_digests(name) for name in SESSIONS}
    PINNED.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    moved = changed_artifacts(old, digests)
    print("\n".join(f"digest changed: {artifact}" for artifact in moved) or "no digest changed")
    print(f"wrote {PINNED}")
