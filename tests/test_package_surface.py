"""Every public top-level def or class in src/kronx has a caller.

A name counts as used when it appears (as a name, an attribute or a string,
which covers the getattr tables of perfbench/tracing.py) anywhere in
src/kronx outside its own definition and __init__.py, in perfbench/*.py, or
in tests/test_acceptance.py.  Unit tests do not count: a function that only
its own unit test calls restates something the package computes elsewhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kronx"

# Paper constructions kept as references for the tests and later work.
KEEP = {
    "odd_even_perm": "the odd/even decimation lemma behind bit reversal",
    "dephase": "the paper's normal form of a complex Hadamard matrix",
    "fourier_matrix": "F_n, the matrix the stages factor",
    "hadamard": "the 2x2 factor whose powers hadamard_power builds in closed form",
    "ladder_norm": "norm of (J_-)^r |j, j>, for a column check of one CG entry",
    "total_sz": "S_z for symmetry sectors of the spin models",
}


def _public_defs() -> list:
    """(file, definition node) of every public top-level def or class."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name.startswith("_"):
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    out.append((path, node))
    return out


def _uses(path: Path) -> list:
    """(name, line) of every name, attribute and string constant in path."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno))
    return out


def _unreferenced() -> set:
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    sources.append(ROOT / "tests" / "test_acceptance.py")
    uses = {p: _uses(p) for p in sources}
    out = set()
    for home, node in _public_defs():
        own = range(node.lineno, node.end_lineno + 1)
        if not any(
            n == node.name and not (p == home and line in own)
            for p, found in uses.items()
            for n, line in found
        ):
            out.add(node.name)
    return out


def test_every_public_name_has_a_caller():
    unused = _unreferenced() - set(KEEP)
    assert not unused, (
        f"public names with no caller outside their unit tests: {sorted(unused)}"
        "; delete them, or add them to KEEP with the paper result they state"
    )


def test_keep_list_is_current():
    defined = {node.name for _, node in _public_defs()}
    assert set(KEEP) <= defined, "KEEP names a definition that is gone"
    stale = set(KEEP) - _unreferenced()
    assert not stale, f"{sorted(stale)} now have callers; drop them from KEEP"
