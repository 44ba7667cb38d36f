"""Every demo script runs to completion and prints its pinned output.

``tests/golden/demos/<stem>.txt`` holds the stdout of ``demos/<stem>.py``,
byte for byte: each demo seeds its ensembles and runs them at ``threads``
1, so a demo that keeps its numbers keeps its bytes.  A change that moves a
printed digit on purpose rewrites the pin in the same commit and says why.
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = Path(__file__).resolve().parent / "golden" / "demos"


def test_demos_are_found():
    assert len(DEMOS) == 4
    assert sorted(path.stem for path in PINNED.glob("*.txt")) == [
        path.stem for path in DEMOS
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert out == (PINNED / f"{demo.stem}.txt").read_text()
