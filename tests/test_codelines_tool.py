"""``tools/codelines.py``, the count of code lines per ``src/fomc`` module:
docstrings, comments and blank lines are left out, a string spread over
several lines counts each, and the printed total is the modules' sum."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "codelines.py"

FIXTURE = '''"""A module docstring
over two lines."""

# a comment
import os  # a comment after code


class Box:
    """A class docstring."""

    size = 2

    def grow(self, by):
        """A function docstring
        over two lines."""

        # a comment between statements
        text = """a string
        that is not a docstring"""
        return (self.size
                + by + len(text))


def bare():
    pass
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("codelines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_fixture_counts_only_its_code_lines():
    # import, class, size, def grow, text (2 lines), return (2 lines), def bare, pass
    assert load_tool().code_lines(FIXTURE) == 10
    assert load_tool().code_lines("") == 0


def test_the_tool_prints_every_module_and_their_total():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, timeout=60, check=True)
    rows = [line.split() for line in out.stdout.splitlines()]
    modules = {name: int(count) for name, count in rows[:-1]}
    assert set(modules) == {p.name for p in (ROOT / "src" / "fomc").glob("*.py")}
    assert rows[-1] == ["total", str(sum(modules.values()))]
    assert all(count > 0 for name, count in modules.items() if name != "__init__.py")
    refused = subprocess.run([sys.executable, str(TOOL), "--help"], capture_output=True, text=True, timeout=60)
    assert refused.returncode != 0 and "no options" in refused.stderr
