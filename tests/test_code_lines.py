"""``tools/code_lines.py`` counts the code lines of ``src/``: one row per
module, and a total that is their sum."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_modules_sum_to_the_total():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    rows = [line.split(maxsplit=1) for line in result.stdout.splitlines()]
    *modules, (total, last) = rows
    assert last == "total"
    assert {path for _, path in modules} == {
        path.relative_to(ROOT / "src").as_posix() for path in (ROOT / "src").rglob("*.py")
    }
    assert all(int(count) > 0 for count, _ in modules)
    assert sum(int(count) for count, _ in modules) == int(total)


def test_docstrings_comments_and_blanks_are_not_code():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from code_lines import code_lines
    finally:
        sys.path.remove(str(ROOT / "tools"))
    source = '''"""Module docstring,
over two lines."""

import os  # a comment


def f(x):
    """Docstring."""
    # a comment line
    return (x +
            1)
'''
    assert code_lines(source) == 4
