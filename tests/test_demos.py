"""Every script in demos/ runs to the end against the installed package."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS, "no scripts under demos/"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    # demo 06 writes its CSV into the working directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
