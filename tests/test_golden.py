"""The result tables, byte for byte: every committed table of tests/golden/.

Each ``<name>.json`` there is an experiment config (the four benchmark
configs at seed 0, and agp and gate again under the analytic engine); each
``<name>.seed<s>.csv`` is the table it writes at ``master_seed`` s, whatever
``threads`` says; ``echoes.json`` holds each run's manifest config at seed 0
and ``threads`` 1, ``out`` left out; ``environment.json`` records the numpy
version and SIMD loops that wrote the tables.  A change that moves a cell on
purpose rewrites its table in the same commit and says why.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from gqclab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
ECHOES = json.loads((GOLDEN / "echoes.json").read_text())
RECORDED = json.loads((GOLDEN / "environment.json").read_text())

#: (config name, seed) of each golden table: noise-long costs about 1 s a
#: run, so it runs at one seed, and the shor-scan table reads no seed
CASES = [
    (path.name.split(".")[0], int(path.suffixes[0][len(".seed"):]))
    for path in sorted(GOLDEN.glob("*.seed*.csv"))
]


def _relative(old: str, new: str) -> str:
    try:
        a, b = float(old), float(new)
    except ValueError:
        return "not a number"
    return f"relative change {(b - a) / abs(a):+.3g}" if a else "from zero"


def _moved_cells(golden: str, table: str) -> list:
    """One line per cell of ``table`` that differs from ``golden``: its row,
    its column, both values and the relative change."""
    old, new = (list(csv.reader(text.splitlines())) for text in (golden, table))
    if [len(old), old[0]] != [len(new), new[0]]:
        shapes = f"{old[0]} x {len(old)} -> {new[0]} x {len(new)}"
        return [f"header or row count moved: {shapes}"]
    return [
        f"row {i} {column}: {a} -> {b} ({_relative(a, b)})"
        for i, (old_row, new_row) in enumerate(zip(old[1:], new[1:]))
        for column, a, b in zip(old[0], old_row, new_row)
        if a != b
    ]


def _environment() -> str:
    """The numpy version and SIMD loops recorded with the tables, and the
    running ones, for a failure to show."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]
    return (
        f"recorded numpy {RECORDED['numpy']}, SIMD {RECORDED['simd_extensions']}; "
        f"running numpy {np.__version__}, SIMD baseline "
        f"{list(umath.__cpu_baseline__)}, found {found}"
    )


def test_every_config_has_its_tables_and_echo():
    configs = sorted(path.stem for path in GOLDEN.glob("*.json"))
    names = sorted(set(ECHOES) | {"echoes", "environment"})
    assert configs == names
    assert sorted({name for name, _ in CASES}) == sorted(ECHOES)
    assert len(CASES) == 10


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name, seed", CASES, ids=[f"{n}-seed{s}" for n, s in CASES])
def test_golden_table_bytes(tmp_path, name, seed, threads):
    """The table of config ``name`` at ``seed`` and ``threads`` is the golden
    one to the byte, and the manifest echoes the config with the same
    values and types, so that it re-runs the table."""
    config = GOLDEN / f"{name}.json"
    experiment = json.loads(config.read_text())["experiment"]
    out = tmp_path / "table.csv"
    argv = [experiment, "--config", str(config), "--out", str(out)]
    assert main([*argv, "--seed", str(seed), "--threads", str(threads)]) == 0
    golden = (GOLDEN / f"{name}.seed{seed}.csv").read_bytes()
    table = out.read_bytes()
    moved = "\n".join(_moved_cells(golden.decode(), table.decode()) + [_environment()])
    assert table == golden, f"{name} at seed {seed}, threads {threads}:\n{moved}"
    echo = json.loads(Path(f"{out}.manifest.json").read_text())["config"]
    del echo["out"]
    expected = dict(ECHOES[name], master_seed=seed, threads=threads)
    assert json.dumps(echo, sort_keys=True) == json.dumps(expected, sort_keys=True)
