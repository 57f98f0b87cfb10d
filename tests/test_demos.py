"""The demo scripts run to completion, the public names all resolve, and the
package imports nothing outside the standard library."""

from __future__ import annotations

import ast
import runpy
import sys
from pathlib import Path

import pytest

import edgepack

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


def test_public_names_resolve():
    for name in edgepack.__all__:
        assert getattr(edgepack, name, None) is not None, name


def test_package_imports_only_the_standard_library():
    sources = sorted(Path(edgepack.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue   # not an import, or a relative one
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
