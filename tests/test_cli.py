"""Config validation, experiment dispatch, exit codes, and manifests."""

import csv
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gqclab import (
    ConfigError,
    NoiseSpec,
    ResourceLimitError,
    errors,
    estimate_autocorrelation,
    euler_phi,
    make_noise_ensemble,
    realization_rng,
)
from gqclab import cli
from gqclab.cli import main, validate_config

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
SRC = ROOT / "src"

AGP_CONFIG = {
    "experiment": "agp-dephase",
    "coupling": 1.0,
    "magnitude": 400.0,
    "cone_angle": np.pi / 2,
    "period": 1.0,
    "cycles": 1,
    "correlation_time": 0.04,
    "sigma2": [0.0, 20.0],
    "realizations": 64,
    "master_seed": 9,
}


GATE_CONFIG = {key: v for key, v in AGP_CONFIG.items() if key != "cycles"}
GATE_CONFIG["experiment"] = "gate-fidelity"

NOISE_CONFIG = {
    "experiment": "noise-validate",
    "sigma2": 1.0,
    "correlation_time": 0.05,
    "duration": 1.0,
    "dt": 0.005,
    "realizations": 4,
}

SHOR_CONFIG = {"experiment": "shor-scan", "moduli": [15], "bases": [7], "variances": 0.0}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_empty_config_reports_missing_experiment():
    with pytest.raises(ConfigError, match="experiment missing"):
        validate_config("")
    with pytest.raises(ConfigError, match="not valid JSON"):
        validate_config("{nope")
    with pytest.raises(ConfigError, match="unknown experiment"):
        validate_config({"experiment": "frobnicate"})


def test_mutual_exclusions_and_unknown_keys_all_reported():
    raw = dict(
        AGP_CONFIG, power_density=2.0, bandwidth=1.0, b0=3.0, bogus=1,
        frame_points=8192,
    )
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    text = str(err.value)
    assert "mutually exclusive" in text
    assert "bogus" in text
    assert "frame_points" in text
    # multiple independent problems are all reported at once
    assert len(err.value.errors) >= 3


def test_missing_parameters_name_the_schema():
    with pytest.raises(ConfigError, match="gate-fidelity requires"):
        validate_config({"experiment": "gate-fidelity", "sigma2": 1.0})


def test_static_defaults_fill_params_and_unset_grids_stay_absent():
    params = validate_config(GATE_CONFIG).params
    assert params["engine"] == "analytic_phase"
    assert params["substeps"] == 1
    assert params["conditional_phase"] == 0.0
    assert params["out"] is None
    assert "noise_dt" not in params
    assert "lags" not in validate_config(NOISE_CONFIG).params


@pytest.mark.parametrize(
    "raw, key",
    [
        (dict(NOISE_CONFIG, dimension=3.0), "dimension"),
        (dict(NOISE_CONFIG, dimension=True), "dimension"),
        (dict(AGP_CONFIG, engine="fast"), "engine"),
        (dict(NOISE_CONFIG, format="xml"), "format"),
        (dict(AGP_CONFIG, strict_adiabatic="yes"), "strict_adiabatic"),
        (dict(NOISE_CONFIG, out=5), "out"),
        (dict(AGP_CONFIG, substeps=0), "substeps"),
        (dict(NOISE_CONFIG, realizations=1), "realizations"),
        (dict(GATE_CONFIG, noise_dt=0), "noise_dt"),
        (dict(GATE_CONFIG, conditional_phase="pi"), "conditional_phase"),
        (dict(NOISE_CONFIG, lags=[-1]), "lags"),
        (dict(NOISE_CONFIG, lags=[0.0123]), "lags"),
        (dict(NOISE_CONFIG, lags=[2.0]), "lags"),
        (dict(NOISE_CONFIG, lags=[]), "lags"),
        (dict(NOISE_CONFIG, correlation_time=0.5), "lags"),
        (dict(AGP_CONFIG, sigma2=[]), "sigma2"),
        (dict(SHOR_CONFIG, offset=-1), "offset"),
    ],
    ids=[
        "dimension-float", "dimension-bool", "engine", "format",
        "strict_adiabatic", "out", "substeps", "realizations", "noise_dt",
        "conditional_phase", "negative-lag", "off-grid-lag",
        "lag-beyond-duration", "no-lags", "default-lag-beyond-duration",
        "no-sigma2", "offset",
    ],
)
def test_cli_bad_value_is_a_config_error(tmp_path, monkeypatch, capsys, raw, key):
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, "cfg.json", raw)
    assert main([raw["experiment"], "--config", path]) == 2
    lines = capsys.readouterr().err.splitlines()
    # a list entry is named with its index, as in "lags[0]: ..."
    assert any(re.match(rf"config error: {key}(\[\d+\])?: ", line) for line in lines)
    assert not list(tmp_path.glob("*.csv"))


POWER_NOISE = {k: v for k, v in NOISE_CONFIG.items() if k != "sigma2"}
POWER_NOISE.update(power_density=1.0, bandwidth=2.0)
POWER_AGP = {k: v for k, v in AGP_CONFIG.items() if k != "sigma2"}
POWER_AGP.update(power_density=[1.0], bandwidth=1e-10)
FIELD_AGP = {
    k: v for k, v in AGP_CONFIG.items() if k not in ("cone_angle", "magnitude")
}
FIELD_AGP.update(b0=5.0, b_rf=3.0)

#: numeric key -> a config that reads it
NUMERIC_KEYS = {
    "sigma2": NOISE_CONFIG,
    "power_density": POWER_NOISE,
    "bandwidth": POWER_NOISE,
    "cone_angle": AGP_CONFIG,
    "magnitude": AGP_CONFIG,
    "b0": FIELD_AGP,
    "b_rf": FIELD_AGP,
    "coupling": AGP_CONFIG,
    "period": AGP_CONFIG,
    "correlation_time": AGP_CONFIG,
    "duration": NOISE_CONFIG,
    "dt": NOISE_CONFIG,
    "lags": dict(NOISE_CONFIG, lags=[0.0]),
    "conditional_phase": dict(GATE_CONFIG, conditional_phase=0.0),
    "noise_dt": dict(AGP_CONFIG, noise_dt=0.004),
    "variances": SHOR_CONFIG,
}


def test_every_numeric_key_is_checked_for_finiteness():
    """NUMERIC_KEYS names every key whose kind accepts a float or a list of
    floats, so the test below covers every key that _as_number checks."""
    numeric = set()
    for key, (kind, _) in cli._KEYS.items():
        for probe in (0.5, [0.5]):
            problems = []
            kind(probe, key, problems)
            if not problems:
                numeric.add(key)
    assert numeric == set(NUMERIC_KEYS)


def _refused_as_non_finite(tmp_path, capsys, raw, key, shown):
    """Exit 2 with the line 'config error: <key>: must be finite, got <shown>'
    and no table; ``raw`` goes through json.dumps, which writes NaN and
    Infinity tokens that json.loads reads back."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "x.csv"
    assert main([raw["experiment"], "--config", str(path), "--out", str(out)]) == 2
    message = f"config error: {key}: must be finite, got {shown}"
    assert message in capsys.readouterr().err.splitlines()
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("key", sorted(NUMERIC_KEYS))
def test_cli_non_finite_number_is_a_config_error(tmp_path, capsys, key, value):
    raw = dict(NUMERIC_KEYS[key])
    listed = isinstance(raw[key], list)
    raw[key] = [value] if listed else value
    _refused_as_non_finite(tmp_path, capsys, raw, f"{key}[0]" if listed else key, value)


@pytest.mark.parametrize(
    "raw, key, shown",
    [
        (dict(POWER_NOISE, power_density=1e308, bandwidth=1e-10), "sigma2", "inf"),
        (dict(POWER_AGP, power_density=[1.0, 1e308]), "sigma2[1]", "inf"),
        (dict(FIELD_AGP, b0=-1e308, b_rf=1e308), "magnitude", "inf"),
        (dict(NOISE_CONFIG, duration=10**400), "duration", "inf"),
        (dict(FIELD_AGP, b0=-(10**400)), "b0", "-inf"),
    ],
    ids=["power-over-bandwidth", "power-sweep", "field-pair", "huge-int",
         "huge-negative-int"],
)
def test_cli_number_that_overflows_is_a_config_error(tmp_path, capsys, raw, key, shown):
    """Finite inputs whose float value or resolved sigma2 or magnitude is not
    finite are refused like the NaN and Infinity tokens."""
    _refused_as_non_finite(tmp_path, capsys, raw, key, shown)


HUGE_GRID = "resource bound exceeded: time grid"


@pytest.mark.parametrize(
    "raw, code, message",
    [
        (dict(NOISE_CONFIG, duration=1e308), 4, HUGE_GRID),
        (dict(AGP_CONFIG, period=1e308, cycles=2), 4, HUGE_GRID),
        (dict(AGP_CONFIG, cycles=10**400), 2, "config error: cycles: must be finite"),
        (dict(GATE_CONFIG, period=1e308), 4, HUGE_GRID),
        (dict(GATE_CONFIG, period=1e307), 4, HUGE_GRID),
    ],
    ids=["noise-duration", "agp-period", "agp-cycles", "gate-period", "gate-period-1e307"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_huge_finite_number_is_refused(tmp_path, capsys, raw, code, message):
    """A finite number whose time grid has no finite or bounded step count is
    refused with exit 4 before any grid is built, or anything is computed on
    it, and a cycle count beyond the float range is a config error; no table
    or manifest is written."""
    path = _write(tmp_path, "cfg.json", raw)
    out = str(tmp_path / "x.csv")
    assert main([raw["experiment"], "--config", path, "--out", out]) == code
    assert capsys.readouterr().err.startswith(message)
    assert os.listdir(tmp_path) == ["cfg.json"]


def _table_lines(tmp_path, raw, name):
    path = _write(tmp_path, f"{name}.json", raw)
    out = tmp_path / f"{name}.csv"
    assert main([raw["experiment"], "--config", path, "--out", str(out)]) == 0
    return out.read_text().splitlines()


@pytest.mark.parametrize("master_seed", [None, 9])
@pytest.mark.parametrize(
    "raw",
    [
        dict(AGP_CONFIG, engine="exact_propagation", sigma2=[0.0, 50.0, 200.0]),
        dict(AGP_CONFIG, engine="analytic_phase", sigma2=[0.0, 50.0, 200.0]),
        dict(GATE_CONFIG, engine="exact_propagation", sigma2=[5.0, 20.0]),
        dict(GATE_CONFIG, engine="analytic_phase", sigma2=[5.0, 20.0]),
    ],
    ids=["agp-exact", "agp-analytic", "gate-exact", "gate-analytic"],
)
def test_cli_sweep_rows_are_the_rows_run_alone(tmp_path, raw, master_seed):
    """A sweep draws its normals once for all its rows; each row equals, to
    the byte, the table of its sigma^2 run alone."""
    raw = dict(raw, realizations=24)
    if master_seed is None:
        del raw["master_seed"]
    else:
        raw["master_seed"] = master_seed
    header, *rows = _table_lines(tmp_path, raw, "sweep")
    assert len(rows) == len(raw["sigma2"])
    for i, (sigma2, row) in enumerate(zip(raw["sigma2"], rows)):
        alone = _table_lines(tmp_path, dict(raw, sigma2=sigma2), f"row-{i}")
        assert alone == [header, row]


@pytest.mark.parametrize("source", ["config", "--seed"])
def test_cli_seed_beyond_64_bits_is_a_config_error(tmp_path, capsys, source):
    # a master seed is the low word of a 128-bit Philox key
    assert validate_config(dict(AGP_CONFIG, master_seed=2**64 - 1))
    argv = ["--seed", str(2**64)] if source == "--seed" else []
    raw = dict(AGP_CONFIG, master_seed=2**64) if source == "config" else AGP_CONFIG
    path = _write(tmp_path, "cfg.json", raw)
    out = tmp_path / "x.csv"
    assert main(["agp-dephase", "--config", path, "--out", str(out), *argv]) == 2
    message = f"config error: master_seed: must be < {2**64}, got {2**64}"
    assert capsys.readouterr().err.splitlines() == [message]
    assert not out.exists()


def test_readme_configs_are_valid():
    blocks = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:
        validate_config(block)


def test_power_density_resolves_sigma2():
    raw = dict(AGP_CONFIG)
    del raw["sigma2"]
    raw["power_density"] = 6.0
    raw["bandwidth"] = 3.0
    cfg = validate_config(raw)
    assert cfg.params["sigma2"] == 2.0
    assert cfg.params["bandwidth"] == 3.0


def test_field_pair_resolves_cone_angle():
    raw = dict(AGP_CONFIG)
    del raw["cone_angle"], raw["magnitude"]
    raw["b0"], raw["b_rf"] = 5.0, 3.0
    cfg = validate_config(raw)
    # sin^2 theta = b_rf^2 / (b_rf^2 + (b0 - b_rf)^2)
    expected_sin2 = 9.0 / (9.0 + 4.0)
    assert np.isclose(np.sin(cfg.params["cone_angle"]) ** 2, expected_sin2)
    assert np.isclose(cfg.params["magnitude"], np.sqrt(13.0))


def test_experiment_subcommand_mismatch():
    with pytest.raises(ConfigError, match="subcommand"):
        validate_config(AGP_CONFIG, experiment="shor-scan")


def test_cli_bad_config_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", {"sigma2": 1.0, "power_density": 1.0})
    assert main(["gate-fidelity", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_strict_adiabatic_exit_code(tmp_path):
    raw = dict(AGP_CONFIG, magnitude=1.0)  # gap 1: non-adiabatic
    path = _write(tmp_path, "cfg.json", raw)
    out = str(tmp_path / "x.csv")
    code = main(
        ["agp-dephase", "--config", path, "--out", out, "--strict-adiabatic"]
    )
    assert code == 3
    assert os.listdir(tmp_path) == ["cfg.json"]  # no table, no manifest


@pytest.mark.parametrize(
    "raw",
    [
        dict(AGP_CONFIG, correlation_time=1e-5, magnitude=10_000_000.0, sigma2=1.0),
        dict(GATE_CONFIG, correlation_time=1e-5, magnitude=10_000_000.0, sigma2=1.0),
        # the time window holds the 70,000-step lag's history:
        # 4096 x (70,000 + 4,096) samples
        {
            "experiment": "noise-validate",
            "sigma2": 1.0,
            "correlation_time": 0.05,
            "duration": 400.0,
            "dt": 0.005,
            "realizations": 2,
            "lags": [0.0, 350.0],
        },
        # midpoint noise of 10^9 propagation slices per noise step
        dict(AGP_CONFIG, engine="exact_propagation", substeps=10**9),
        dict(GATE_CONFIG, engine="exact_propagation", substeps=10**9),
        # 250,000 slices fit the bound, 4096 realizations of them do not,
        # although sigma^2 = 0 propagates one
        dict(AGP_CONFIG, engine="exact_propagation", substeps=1000, sigma2=[0.0]),
        dict(GATE_CONFIG, engine="exact_propagation", substeps=1000, sigma2=[0.0]),
    ],
    ids=[
        "agp-dephase",
        "gate-fidelity",
        "noise-validate",
        "agp-dephase-substeps",
        "gate-fidelity-substeps",
        "agp-dephase-noiseless-slices",
        "gate-fidelity-noiseless-slices",
    ],
)
def test_cli_resource_exit_code(tmp_path, raw):
    path = _write(tmp_path, "cfg.json", raw)
    out = str(tmp_path / "x.csv")
    code = main(
        [raw["experiment"], "--config", path, "--out", out, "--realizations", "4096"]
    )
    assert code == 4
    assert os.listdir(tmp_path) == ["cfg.json"]  # no table, no manifest


COARSE_AGP = dict(AGP_CONFIG, correlation_time=1e-5, magnitude=1e7, noise_dt=1e-5)


@pytest.mark.parametrize(
    "raw",
    [
        # noise steps of tau_c, where tau_c / 10 is needed, and 10^5 + 1 of them
        dict(COARSE_AGP, sigma2=1.0),
        dict(COARSE_AGP, sigma2=0.0),
        dict(NOISE_CONFIG, duration=4_000.0, dt=0.05),
    ],
    ids=["agp-dephase", "agp-dephase-noiseless", "noise-validate"],
)
def test_cli_coarse_grid_is_reported_before_the_bound(tmp_path, capsys, raw):
    path = _write(tmp_path, "cfg.json", raw)
    out = str(tmp_path / "x.csv")
    code = main(
        [raw["experiment"], "--config", path, "--out", out, "--realizations", "4096"]
    )
    assert code == 2
    assert "too coarse" in capsys.readouterr().err


def _fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports gqclab from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, because this test session has scipy loaded
    result = _fresh_python(
        "import sys, gqclab.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert result.stdout.strip() == "[]"


def test_cli_main_twice_in_one_process_matches_fresh_runs(tmp_path):
    # main reuses one parser across calls
    runs = [("agp-dephase", AGP_CONFIG), ("shor-scan", SHOR_CONFIG)]
    for name, raw in runs:
        path = _write(tmp_path, f"{name}.json", raw)
        assert main([name, "--config", path, "--out", str(tmp_path / name)]) == 0
    for name, _ in runs:
        fresh = tmp_path / f"{name}-fresh"
        argv = [name, "--config", str(tmp_path / f"{name}.json"), "--out", str(fresh)]
        _fresh_python(
            "import sys; from gqclab.cli import main; sys.exit(main(sys.argv[1:]))",
            *argv,
        )
        assert (tmp_path / name).read_bytes() == fresh.read_bytes()


def test_cli_agp_run_and_manifest_roundtrip(tmp_path):
    path = _write(tmp_path, "agp.json", AGP_CONFIG)
    out1 = str(tmp_path / "a.csv")
    assert main(["agp-dephase", "--config", path, "--out", out1]) == 0
    with open(out1) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    # sigma^2 = 0 row: full coherence
    assert float(rows[0]["magnitude_mc"]) == pytest.approx(1.0, abs=1e-9)
    assert float(rows[0]["d_analytic"]) == 1.0
    assert float(rows[1]["d_analytic"]) < 1.0
    # re-run from the manifest: bit-identical output
    out2 = str(tmp_path / "b.csv")
    assert main(
        ["agp-dephase", "--config", out1 + ".manifest.json", "--out", out2]
    ) == 0
    a = open(out1, "rb").read()
    b = open(out2, "rb").read()
    assert a == b
    manifest = json.loads(open(out1 + ".manifest.json").read())
    assert manifest["experiment"] == "agp-dephase"
    assert manifest["seeds"]["master_seed"] == 9
    assert "adiabaticity_ratios" in manifest["derived"]


def test_manifest_records_the_package_version(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    raw = {"experiment": "shor-scan", "moduli": [15], "bases": [7], "variances": 0.0}
    path = _write(tmp_path, "shor.json", raw)
    out = str(tmp_path / "scan.csv")
    assert main(["shor-scan", "--config", path, "--out", out]) == 0
    manifest = json.loads(open(out + ".manifest.json").read())
    with open(PYPROJECT, "rb") as f:
        assert manifest["version"] == tomllib.load(f)["project"]["version"]


def test_manifest_records_the_stream_contract_and_environment(tmp_path):
    path = _write(tmp_path, "agp.json", AGP_CONFIG)
    out = tmp_path / "agp.csv"
    assert main(["agp-dephase", "--config", path, "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "agp.csv.manifest.json").read_text())
    assert manifest["seeds"]["splitting"] == (
        "Generator(Philox(key=master_seed + 2**64 * realization))"
    )
    environment = manifest["environment"]
    assert environment["numpy"] == np.__version__
    assert environment["python"] == platform.python_version()
    assert environment["platform"].startswith(platform.system())
    # the table stays free of them, so equal runs give equal bytes anywhere
    assert np.__version__ not in out.read_text()


def test_cli_threads_do_not_change_results(tmp_path):
    path = _write(tmp_path, "agp.json", dict(AGP_CONFIG, sigma2=10.0))
    outs = []
    for threads, name in ((1, "t1.csv"), (8, "t8.csv")):
        out = str(tmp_path / name)
        assert main(
            [
                "agp-dephase",
                "--config",
                path,
                "--out",
                out,
                "--threads",
                str(threads),
            ]
        ) == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]


def test_cli_seed_override_changes_estimates(tmp_path):
    path = _write(tmp_path, "agp.json", dict(AGP_CONFIG, sigma2=10.0))
    outs = []
    for seed, name in ((9, "s9.csv"), (10, "s10.csv")):
        out = str(tmp_path / name)
        assert main(
            ["agp-dephase", "--config", path, "--out", out, "--seed", str(seed)]
        ) == 0
        outs.append(open(out, "rb").read())
    assert outs[0] != outs[1]


def test_cli_seed_override_applies_to_a_manifest(tmp_path):
    path = _write(tmp_path, "agp.json", dict(AGP_CONFIG, sigma2=10.0))
    out1 = str(tmp_path / "a.csv")
    assert main(["agp-dephase", "--config", path, "--out", out1]) == 0
    out2 = str(tmp_path / "b.csv")
    assert main(
        ["agp-dephase", "--config", out1 + ".manifest.json", "--out", out2,
         "--seed", "11"]
    ) == 0
    manifest = json.loads(open(out2 + ".manifest.json").read())
    assert manifest["config"]["master_seed"] == 11
    assert manifest["seeds"]["master_seed"] == 11
    assert open(out1, "rb").read() != open(out2, "rb").read()


@pytest.mark.parametrize(
    "raw",
    [
        {
            "experiment": "noise-validate",
            "sigma2": 1.0,
            "correlation_time": 0.05,
            "duration": 10.0,
            "dt": 0.1,
            "realizations": 4,
        },
        dict(AGP_CONFIG, noise_dt=0.01),  # tau_c / 10 = 0.004
        dict(AGP_CONFIG, sigma2=[0.0], noise_dt=0.01),
    ],
    ids=["noise-validate", "agp-dephase", "agp-dephase-zero-noise"],
)
def test_cli_coarse_noise_step_is_a_config_error(tmp_path, capsys, raw):
    path = _write(tmp_path, "cfg.json", raw)
    out = tmp_path / "x.csv"
    assert main([raw["experiment"], "--config", path, "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: dt = ")
    assert "tau_c/10" in line
    assert not out.exists()


@pytest.mark.parametrize(
    "raw, message",
    [
        (
            dict(GATE_CONFIG, engine="exact_propagation", cone_angle=1.0,
                 conditional_phase=1.0),
            "conditional_phase: the exact_propagation engine needs uniform",
        ),
        (
            dict(GATE_CONFIG, cone_angle=3.0, conditional_phase=1.0),
            "conditional_phase: cannot realize phi = 1 from base angle 3",
        ),
        (
            dict(NOISE_CONFIG, duration=0.001, lags=[0.0]),
            "duration must be >= dt, got 0.001 < 0.005",
        ),
        (
            dict(AGP_CONFIG, engine="exact_propagation", magnitude=1e-13),
            "level crossing: gap 1e-13",
        ),
        (
            dict(GATE_CONFIG, engine="exact_propagation", magnitude=1e-13),
            "level crossing: gap 1e-13",
        ),
    ],
    ids=[
        "exact-engine-calibrated-angles",
        "unrealizable-phase",
        "duration-below-dt",
        "agp-degenerate-gap",
        "gate-degenerate-gap",
    ],
)
def test_cli_library_rules_are_config_errors(tmp_path, capsys, raw, message):
    path = _write(tmp_path, "cfg.json", raw)
    out = tmp_path / "x.csv"
    assert main([raw["experiment"], "--config", path, "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def _refused_before_the_run(tmp_path, capsys, monkeypatch, out):
    def must_not_run(p):
        raise AssertionError("the experiment ran before the output was checked")

    monkeypatch.setitem(cli._RUNNERS, "shor-scan", must_not_run)
    path = _write(tmp_path, "cfg.json", SHOR_CONFIG)
    assert main(["shor-scan", "--config", path, "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: out: ")
    assert str(out) in line


def test_cli_unwritable_out_is_a_config_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "missing" / "x.csv"
    _refused_before_the_run(tmp_path, capsys, monkeypatch, out)


def test_cli_out_that_is_a_directory_is_a_config_error(tmp_path, capsys, monkeypatch):
    _refused_before_the_run(tmp_path, capsys, monkeypatch, tmp_path)


def test_cli_output_check_leaves_an_existing_table_alone(tmp_path, monkeypatch):
    def refused(p):
        raise ResourceLimitError("refused")

    monkeypatch.setitem(cli._RUNNERS, "shor-scan", refused)
    path = _write(tmp_path, "cfg.json", SHOR_CONFIG)
    out = tmp_path / "x.csv"
    out.write_text("an earlier table\n")
    assert main(["shor-scan", "--config", path, "--out", str(out)]) == 4
    assert out.read_text() == "an earlier table\n"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "x.csv"]


@pytest.mark.parametrize(
    "power",
    [{"sigma2": [1.0, 9.0]}, {"power_density": [1.0, 9.0], "bandwidth": 1.0}],
    ids=["sigma2", "power_density"],
)
def test_cli_noise_validate_rejects_a_variance_list(tmp_path, capsys, power):
    raw = {
        "experiment": "noise-validate",
        "correlation_time": 0.05,
        "duration": 1.0,
        "dt": 0.005,
        "realizations": 4,
        **power,
    }
    path = _write(tmp_path, "cfg.json", raw)
    out = tmp_path / "x.csv"
    assert main(["noise-validate", "--config", path, "--out", str(out)]) == 2
    key = next(iter(power))
    message = f"config error: {key}: noise-validate takes one value, not a list"
    assert message in capsys.readouterr().err.splitlines()
    assert not out.exists()


@pytest.mark.parametrize(
    "dimension, duration, dt",
    [(3, 2.0, 0.005), (1, 7.3, 0.003), (3, 7.3, 0.003)],
    ids=["dimension-3", "non-integer-steps", "dimension-3-non-integer-steps"],
)
def test_cli_noise_validate_matches_the_per_path_definition(
    tmp_path, ou_reference, dimension, duration, dt
):
    """Every cell equals, to the bit, the mean over paths of each path's time
    mean of x(t) . x(t + lag), with the paths made one at a time."""
    sigma2, tau_c, seed, n_paths = 2.0, 0.05, 3, 16
    raw = {
        "experiment": "noise-validate",
        "sigma2": sigma2,
        "correlation_time": tau_c,
        "duration": duration,
        "dt": dt,
        "realizations": n_paths,
        "master_seed": seed,
        "dimension": dimension,
    }
    path = _write(tmp_path, "nv.json", raw)
    out = str(tmp_path / "nv.csv")
    assert main(["noise-validate", "--config", path, "--out", out]) == 0

    spec = NoiseSpec(variance=sigma2, correlation_time=tau_c, dimension=dimension)
    n = round(duration / dt) + 1
    paths = [
        ou_reference(spec, realization_rng(seed, i).standard_normal((n, dimension)), dt)
        for i in range(n_paths)
    ]
    expected = [["lag_s", "autocovariance_field2", "standard_error_field2",
                 "expected_field2"]]
    for lag in sorted({round(k * tau_c / dt) * dt for k in range(4)}):
        m = round(lag / dt)
        # the sum over t and components as one product sum of the lag slices
        per_path = np.array(
            [np.einsum("i,i->", x[: n - m].ravel(), x[m:].ravel()) for x in paths]
        ) / (n - m)
        estimate = float(np.mean(per_path))
        se = float(np.std(per_path, ddof=1) / np.sqrt(n_paths))
        kernel = dimension * sigma2 * float(np.exp(-lag / tau_c))
        expected.append([repr(float(v)) for v in (lag, estimate, se, kernel)])
    with open(out, newline="") as f:
        assert list(csv.reader(f)) == expected


@pytest.mark.parametrize("spare, code", [(0, 0), (-1, 4)], ids=["fits", "one-over"])
def test_cli_noise_validate_bound_applies_to_the_window(
    tmp_path, monkeypatch, spare, code
):
    """MAX_ELEMENTS bounds the time window, realizations x (largest lag +
    4,096 steps) x dim, not the ensemble; the table is the in-memory
    estimate, to the bit."""
    lags = [0.0, 0.05, 1.0]  # 200 steps of history
    raw = dict(NOISE_CONFIG, duration=50.0, realizations=3, lags=lags)
    spec = NoiseSpec(variance=1.0, correlation_time=0.05)
    samples = make_noise_ensemble(spec, 50.0, 0.005, 0, 3)
    assert samples.size == 3 * 10_001
    expected = estimate_autocorrelation(samples, 0.005, lags)
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 3 * (200 + 4096) + spare)
    with pytest.raises(ResourceLimitError):
        make_noise_ensemble(spec, 50.0, 0.005, 0, 3)
    path = _write(tmp_path, "nv.json", raw)
    out = tmp_path / "nv.csv"
    assert main(["noise-validate", "--config", path, "--out", str(out)]) == code
    if code:
        assert not out.exists()
        return
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    keys = ("lag_s", "autocovariance_field2", "standard_error_field2")
    assert [tuple(float(r[k]) for k in keys) for r in rows] == expected


def test_cli_gate_fidelity_sweep(tmp_path):
    raw = {
        "experiment": "gate-fidelity",
        "coupling": 1.0,
        "magnitude": 400.0,
        "cone_angle": np.pi / 3,
        "period": 1.0,
        "correlation_time": 0.04,
        "sigma2": [0.0, 40.0, 400.0],
        "realizations": 128,
        "master_seed": 1,
    }
    path = _write(tmp_path, "gate.json", raw)
    out = str(tmp_path / "gate.csv")
    assert main(["gate-fidelity", "--config", path, "--out", out]) == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    fids = [float(r["f_mc"]) for r in rows]
    assert fids[0] > 0.99  # starts near 1
    assert abs(fids[-1] - 0.5) < 0.1  # tends to 1/2
    assert [r["sigma2_field2"] for r in rows] == ["0.0", "40.0", "400.0"]


def test_cli_shor_scan_oracle(tmp_path):
    raw = {
        "experiment": "shor-scan",
        "moduli": [15],
        "bases": [7],
        "variances": 0.0,
    }
    path = _write(tmp_path, "shor.json", raw)
    out = str(tmp_path / "scan.csv")
    assert main(["shor-scan", "--config", path, "--out", out]) == 0
    with open(out) as f:
        [row] = list(csv.DictReader(f))
    assert row["period"] == "4" and row["register_size"] == "256"
    assert float(row["success_probability"]) == pytest.approx(0.5, abs=1e-12)
    assert row["regime"] == "noiseless"


@pytest.mark.parametrize(
    "moduli, bases, message",
    [
        ([70001], [2], "moduli[0]: must be in [3, 65536], got 70001"),
        ([2], [1], "moduli[0]: must be in [3, 65536], got 2"),
        ([15], [5], "bases[0]: 5 is not co-prime with modulus 15"),
    ],
    ids=["above-max-modulus", "below-three", "not-co-prime"],
)
def test_cli_shor_scan_rejects_invalid_instances(
    tmp_path, capsys, moduli, bases, message
):
    raw = {"experiment": "shor-scan", "moduli": moduli, "bases": bases}
    raw["variances"] = 0.0
    path = _write(tmp_path, "shor.json", raw)
    out = str(tmp_path / "scan.csv")
    assert main(["shor-scan", "--config", path, "--out", out]) == 2
    assert f"config error: {message}" in capsys.readouterr().err.splitlines()


def test_cli_shor_scan_reports_every_invalid_instance():
    raw = {"moduli": [70001, 15, 21, 2], "bases": [2, 5, 2, 1], "variances": 0.0}
    with pytest.raises(ConfigError) as err:
        validate_config(raw, experiment="shor-scan")
    assert [e.split(":")[0] for e in err.value.errors] == [
        "moduli[0]", "bases[1]", "moduli[3]"
    ]


def test_cli_shor_scan_at_the_largest_register(tmp_path):
    # N = 65519: q = 2^32 and r = 32759, so only O(r) outcomes may be built
    raw = {
        "experiment": "shor-scan",
        "moduli": [65519, 65519],
        "bases": [2, 2],
        "variances": [0.0, 4 * np.pi**2],
    }
    path = _write(tmp_path, "shor.json", raw)
    out = str(tmp_path / "scan.csv")
    assert main(["shor-scan", "--config", path, "--out", out]) == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert [r["register_size"] for r in rows] == [str(2**32)] * 2
    assert [r["regime"] for r in rows] == ["noiseless", "decohered"]
    # decohered: P_suc tends to phi(r)/q
    p_flat = euler_phi(32759) / 2**32
    assert float(rows[1]["success_probability"]) == pytest.approx(p_flat, rel=0.1)


def test_cli_noise_validate_json_format(tmp_path):
    raw = {
        "experiment": "noise-validate",
        "sigma2": 1.0,
        "correlation_time": 0.1,
        "duration": 50.0,
        "dt": 0.01,
        "realizations": 50,
    }
    path = _write(tmp_path, "nv.json", raw)
    out = str(tmp_path / "nv.json.out")
    assert main(
        ["noise-validate", "--config", path, "--out", out, "--format", "json"]
    ) == 0
    rows = json.loads(open(out).read())
    lag0 = rows[0]
    assert lag0["lag_s"] == 0.0
    assert abs(lag0["autocovariance_field2"] - 1.0) < 3 * max(
        lag0["standard_error_field2"], 1e-3
    )
    for row in rows:
        assert abs(row["autocovariance_field2"] - row["expected_field2"]) < 4 * max(
            row["standard_error_field2"], 1e-3
        )
