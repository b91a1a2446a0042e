"""The docstring cross-reference check in ``scripts/check_docstrings.py``.

A role target such as ``:func:`repro.x.f``` must name code that
exists; the checker resolves each against the modules under its roots
with nothing imported, and fails on one that dangles.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CHECKER = ROOT / "scripts" / "check_docstrings.py"

PACKAGE = '''"""A package that re-exports :func:`repro.shapes.area`."""

from repro.shapes import Square, area

__all__ = ["Square", "area"]
'''

SHAPES = '''"""Shapes.

:func:`~repro.area` resolves through the package's re-export,
:meth:`repro.shapes.Square.side_km` is a method, and
:func:`repro.shapes.perimeter` was deleted.
"""


class Square:
    """A square."""

    def side_km(self) -> float:
        """Its side."""
        return 1.0


def area(square: Square) -> float:
    """Its area."""
    return square.side_km() ** 2
'''


def run_checker(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(CHECKER), str(root)], capture_output=True, text=True, check=False
    )


def test_checker_fails_on_the_one_dangling_target(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(PACKAGE)
    (package / "shapes.py").write_text(SHAPES)

    completed = run_checker(tmp_path / "src")

    assert completed.returncode == 1
    dangling = [line for line in completed.stdout.splitlines() if "dangling" in line]
    assert dangling == [
        f"dangling cross-reference: {package / 'shapes.py'}:5: :func:`repro.shapes.perimeter`"
    ]
    assert "3/4 repro. targets resolve" in completed.stdout


def test_repository_sources_have_no_dangling_target():
    completed = run_checker(ROOT / "src")
    assert completed.returncode == 0, completed.stdout
