"""The demo scripts run to completion and the public names all resolve."""

from __future__ import annotations

import runpy
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
