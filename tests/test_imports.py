"""No module of the package or its tests imports scipy or mpmath.

Neither is a dependency (pyproject lists numpy alone), so a constant or a
special function taken from them would make the suite pass only where they
happen to be installed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORBIDDEN = {"scipy", "mpmath"}


def _imported_packages(source: str):
    """Top-level package names of every absolute import in source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_guard_sees_every_import_form():
    source = ("import os, mpmath as mp\nfrom scipy.special import zeta\n"
              "def f():\n    import scipy\nfrom . import levy\n")
    assert set(_imported_packages(source)) == {"os", "mpmath", "scipy"}


def test_no_scipy_or_mpmath_import_in_src_or_tests():
    paths = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert len(paths) > 20
    bad = [(str(p.relative_to(ROOT)), name) for p in paths
           for name in _imported_packages(p.read_text()) if name in FORBIDDEN]
    assert not bad, bad
