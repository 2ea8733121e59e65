"""Every file reference in DESIGN.md and README.md resolves.

A reference is a backticked ``path``, ``path::name`` or ``path:line`` whose
path has a directory part and a file suffix: ``tests/test_fleet.py``,
``training/step.py::_DERIVED``, ``tests/test_fleet.py::TestReloadByPath``,
``scripts/serving_smoke.py:40``.  A path resolves from the repository root
or, the way the docs name package modules, from ``src/repro/`` or ``src/``.
``::name`` must be a top-level class, function or assignment of that Python
file, and each further ``::member`` a definition inside the class before
it; ``:line`` (or ``:first-last``) must lie inside the file.  Globs and
placeholders (``benchmarks/results/*.txt``, ``models/<version>/``) are
not references.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "README.md")
BASES = (ROOT, ROOT / "src" / "repro", ROOT / "src")

REFERENCE = re.compile(
    r"`(?P<path>[\w.-]+(?:/[\w.-]+)*/[\w.-]+\.[A-Za-z]+)"
    r"(?:(?P<names>(?:::\w+)+)|:(?P<first>\d+)(?:[-–](?P<last>\d+))?)?`"
)


def references() -> list[tuple[str, int, re.Match]]:
    found = []
    for doc in DOCS:
        for lineno, line in enumerate((ROOT / doc).read_text().splitlines(), 1):
            found.extend((doc, lineno, m) for m in REFERENCE.finditer(line))
    return found


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _defined(body: list[ast.stmt], name: str) -> ast.stmt | None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name == name:
            return node
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node
    return None


def unresolved(match: re.Match) -> str | None:
    """Why ``match`` does not resolve, or None when it does."""
    path = next((base / match["path"] for base in BASES
                 if (base / match["path"]).is_file()), None)
    if path is None:
        return "no such file"
    if match["names"]:
        if path.suffix != ".py":
            return "::name on a file that is not Python"
        body = _tree(path).body
        for name in match["names"].split("::")[1:]:
            node = _defined(body, name)
            if node is None:
                return f"{name!r} is not defined there"
            body = getattr(node, "body", [])
    if match["first"]:
        lines = len(path.read_text().splitlines())
        last = int(match["last"] or match["first"])
        if not 1 <= int(match["first"]) <= last <= lines:
            return f"the file has {lines} lines"
    return None


def test_every_doc_reference_resolves():
    found = references()
    assert len(found) > 80, "the reference pattern stopped matching the docs"
    broken = [f"{doc}:{lineno}: {match[0]}: {why}"
              for doc, lineno, match in found
              if (why := unresolved(match)) is not None]
    assert broken == []


@pytest.mark.parametrize("text, ok", [
    ("`training/step.py`", True),
    ("`training/step.py::RunState::recover`", True),
    ("`training/step.py::_DERIVED`", True),
    ("`training/step.py:1`", True),
    ("`tests/test_fleet.py::TestReloadByPath`", True),
    ("`repro/bench/configs.py`", True),
    ("`scripts/check_bench.py`", False),
    ("`training/step.py::no_such_name`", False),
    ("`training/step.py::RunState::no_such_method`", False),
    ("`training/step.py:100000`", False),
    ("`training/step.py:5-2`", False),
    ("`perfbench/README.md::name`", False),
])
def test_the_resolver_tells_good_from_broken(text, ok):
    match = REFERENCE.fullmatch(text)
    assert match is not None
    assert (unresolved(match) is None) == ok
