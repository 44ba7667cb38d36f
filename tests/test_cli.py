"""Config validation, experiment dispatch, exit codes, and manifests."""

import csv
import json
import math
import os
import platform
import re
import subprocess
import sys
import warnings
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
from gqclab import cli, ensemble
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
    params = validate_config(GATE_CONFIG)
    assert params["engine"] == "analytic_phase"
    assert params["substeps"] == 1
    assert params["conditional_phase"] == 0.0
    assert params["out"] is None
    assert "noise_dt" not in params
    assert "lags" not in validate_config(NOISE_CONFIG)


POWER_NOISE = {k: v for k, v in NOISE_CONFIG.items() if k != "sigma2"}
POWER_NOISE.update(power_density=1.0, bandwidth=2.0)
POWER_AGP = {k: v for k, v in AGP_CONFIG.items() if k != "sigma2"}
POWER_AGP.update(power_density=[1.0], bandwidth=1e-10)
FIELD_AGP = {
    k: v for k, v in AGP_CONFIG.items() if k not in ("cone_angle", "magnitude")
}
FIELD_AGP.update(b0=5.0, b_rf=3.0)


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
        (dict(AGP_CONFIG, sigma2=[]), "sigma2"),
        (dict(SHOR_CONFIG, offset=-1), "offset"),
        (dict(AGP_CONFIG, cone_angle=3.2), "cone_angle"),
        (dict(FIELD_AGP, b0=0.0, b_rf=0.0), "magnitude"),
    ],
    ids=[
        "dimension-float", "dimension-bool", "engine", "format",
        "strict_adiabatic", "out", "substeps", "realizations", "noise_dt",
        "conditional_phase", "negative-lag", "off-grid-lag",
        "lag-beyond-duration", "no-lags",
        "no-sigma2", "offset", "cone-angle-above-pi", "zero-field",
    ],
)
def test_cli_bad_value_is_a_config_error(tmp_path, monkeypatch, capsys, raw, key):
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, "cfg.json", raw)
    assert main([raw["experiment"], "--config", path]) == 2
    lines = capsys.readouterr().err.splitlines()
    # a list entry is named with its index, as in "lags[0]: ..."; a number
    # is refused in the words of errors._check_real or _check_count, as in
    # "substeps must be >= 1, got 0"
    starts = rf"config error: {key}(\[\d+\])?(: | must )"
    assert any(re.match(starts, line) for line in lines)
    assert not list(tmp_path.glob("*.csv"))


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

#: numeric key -> its rule, in the words of errors._check_real
RULES = {
    "sigma2": "must be finite and >= 0",
    "power_density": "must be finite and >= 0",
    "bandwidth": "must be finite and > 0",
    "cone_angle": "must lie in [0, pi]",
    "magnitude": "must be finite and > 0",
    "b0": "must be finite",
    "b_rf": "must be finite and >= 0",
    "coupling": "must be finite and > 0",
    "period": "must be finite and > 0",
    "correlation_time": "must be finite and > 0",
    "duration": "must be finite and > 0",
    "dt": "must be finite and > 0",
    "lags": "must be finite and >= 0",
    "conditional_phase": "must be finite",
    "noise_dt": "must be finite and > 0",
    "variances": "must be finite and >= 0",
}


def test_every_numeric_key_is_checked_for_finiteness():
    """NUMERIC_KEYS names every key whose kind accepts a float or a list of
    floats, so the test below covers every key that _check_real checks."""
    numeric = set()
    for key, (kind, _) in cli._KEYS.items():
        for probe in (0.5, [0.5]):
            problems = []
            kind(probe, key, problems)
            if not problems:
                numeric.add(key)
    assert numeric == set(NUMERIC_KEYS)


def _refused_as_non_finite(tmp_path, capsys, raw, key, shown):
    """Exit 2 with the line 'config error: <key> <rule>, got <shown>', the
    rule of RULES, and no table; ``raw`` goes through json.dumps, which
    writes NaN and Infinity tokens that json.loads reads back."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "x.csv"
    assert main([raw["experiment"], "--config", str(path), "--out", str(out)]) == 2
    message = f"config error: {key} {RULES[key.split('[')[0]]}, got {shown}"
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
HUGE = 10**400


def _huge_count(key):
    return f"config error: {key} must be finite, got inf"


@pytest.mark.parametrize(
    "raw, code, message",
    [
        (dict(NOISE_CONFIG, duration=1e308), 4, HUGE_GRID),
        (dict(AGP_CONFIG, period=1e308, cycles=2), 4, HUGE_GRID),
        (dict(AGP_CONFIG, cycles=HUGE), 2, _huge_count("cycles")),
        (dict(GATE_CONFIG, period=1e308), 4, HUGE_GRID),
        (dict(GATE_CONFIG, period=1e307), 4, HUGE_GRID),
        (dict(AGP_CONFIG, threads=HUGE), 2, _huge_count("threads")),
        (dict(AGP_CONFIG, realizations=HUGE), 2, _huge_count("realizations")),
        (dict(AGP_CONFIG, substeps=HUGE), 2, _huge_count("substeps")),
        (dict(SHOR_CONFIG, offset=HUGE), 2, _huge_count("offset")),
        (
            dict(AGP_CONFIG, master_seed=HUGE),
            2,
            f"config error: master_seed must be in [0, {2**64 - 1}], got inf",
        ),
        (dict(SHOR_CONFIG, moduli=[HUGE]), 2, _huge_count("moduli[0]")),
    ],
    ids=[
        "noise-duration", "agp-period", "agp-cycles", "gate-period",
        "gate-period-1e307", "threads", "realizations", "substeps", "offset",
        "master_seed", "moduli",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_huge_finite_number_is_refused(tmp_path, capsys, raw, code, message):
    """A finite number whose time grid has no finite or bounded step count is
    refused with exit 4 before any grid is built, or anything is computed on
    it, and a count beyond the float range is a config error that shows it
    as inf; no table or manifest is written."""
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
    message = f"config error: master_seed must be in [0, {2**64 - 1}], got {2**64}"
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
    assert cfg["sigma2"] == 2.0
    assert cfg["bandwidth"] == 3.0


def test_field_pair_resolves_cone_angle():
    raw = dict(AGP_CONFIG)
    del raw["cone_angle"], raw["magnitude"]
    raw["b0"], raw["b_rf"] = 5.0, 3.0
    cfg = validate_config(raw)
    # sin^2 theta = b_rf^2 / (b_rf^2 + (b0 - b_rf)^2)
    expected_sin2 = 9.0 / (9.0 + 4.0)
    assert np.isclose(np.sin(cfg["cone_angle"]) ** 2, expected_sin2)
    assert np.isclose(cfg["magnitude"], np.sqrt(13.0))


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


def test_cli_warns_once_outside_the_adiabatic_limit(tmp_path):
    """A non-strict run that breaks the bound warns once, from the ensemble's
    one check; the manifest records the same ratios all the same."""
    raw = dict(AGP_CONFIG, engine="exact_propagation", magnitude=200.0, period=0.04)
    path = _write(tmp_path, "cfg.json", raw)
    out = str(tmp_path / "x.csv")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["agp-dephase", "--config", path, "--out", out]) == 0
    assert [str(w.message).split(":")[0] for w in caught] == ["adiabaticity violated"]
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    ratio = 1.0 / (0.04 * 200.0)  # 1/(T Delta) and 1/(tau_c Delta)
    ratios = manifest["derived"]["adiabaticity_ratios"]
    assert ratios == {"drive": ratio, "noise": ratio}


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


@pytest.mark.parametrize(
    "raw",
    [
        dict(AGP_CONFIG, engine="exact_propagation", substeps=100),
        dict(GATE_CONFIG, engine="exact_propagation", substeps=100),
    ],
    ids=["agp-dephase", "gate-fidelity"],
)
def test_cli_per_slice_arrays_are_bounded_at_few_realizations(
    tmp_path, monkeypatch, raw
):
    """Under a bound of 2^16, 2 realizations x 25,000 slices x 1 component
    fit, but the exact engine's per-slice arrays, 25,000 slices x segments
    x 3 (75,000 elements for one segment, 300,000 for the gate's four), do
    not, so the run exits 4 before allocating them."""
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 2**16)
    path = _write(tmp_path, "cfg.json", raw)
    out = str(tmp_path / "x.csv")
    code = main(
        [raw["experiment"], "--config", path, "--out", out, "--realizations", "2"]
    )
    assert code == 4
    assert os.listdir(tmp_path) == ["cfg.json"]  # no table, no manifest


def test_cli_refuses_the_analytic_weights_before_a_draw(
    tmp_path, monkeypatch, normal_draws
):
    """Under a bound of 2 x 1,001 elements the gate's 2 paths of 1,001
    points fit, but not its Gamma_s weights, 1,001 points x 4 levels: the
    run exits 4 before drawing a normal."""
    monkeypatch.setattr(errors, "MAX_ELEMENTS", 2 * 1001)
    raw = dict(GATE_CONFIG, engine="analytic_phase")
    path = _write(tmp_path, "cfg.json", raw)
    out = str(tmp_path / "x.csv")
    code = main(
        [raw["experiment"], "--config", path, "--out", out, "--realizations", "2"]
    )
    assert code == 4
    assert normal_draws == []
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


def test_cli_import_loads_no_process_or_mmap_module():
    """The fork runner imports signal only in the runs that fork, so no
    run's set-up pays for these modules; -I, as the benchmark's samples
    run, keeps the environment's modules out."""
    modules = ["mmap", "signal", "multiprocessing", "concurrent.futures"]
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import gqclab.cli; "
        f"print([m for m in {modules!r} if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
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
    assert float(rows[0]["d_mc_abs"]) == pytest.approx(1.0, abs=1e-9)
    assert float(rows[0]["d_analytic"]) == 1.0
    assert float(rows[1]["d_analytic"]) < 1.0
    # re-run from the manifest: bit-identical output
    out2 = str(tmp_path / "b.csv")
    assert main(
        ["agp-dephase", "--config", out1 + ".manifest.json", "--out", out2]
    ) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    manifest = json.loads(Path(out1 + ".manifest.json").read_text())
    assert manifest["experiment"] == "agp-dephase"
    assert manifest["seeds"]["master_seed"] == 9
    assert "adiabaticity_ratios" in manifest["derived"]


def test_manifest_records_the_package_version(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    raw = {"experiment": "shor-scan", "moduli": [15], "bases": [7], "variances": 0.0}
    path = _write(tmp_path, "shor.json", raw)
    out = str(tmp_path / "scan.csv")
    assert main(["shor-scan", "--config", path, "--out", out]) == 0
    manifest = json.loads(Path(out + ".manifest.json").read_text())
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


def test_cli_threads_do_not_change_results(tmp_path, monkeypatch):
    # four usable CPUs on any host: --threads 8 runs the agp sweep's 64 paths
    # in 4 worker processes and noise-validate's 7 paths in 3, and its
    # 6,001-point paths in two windows of 12,288-element lag slices, where a
    # block of one path would sum in another order
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    noise = dict(NOISE_CONFIG, realizations=7, dimension=3, duration=30.0)
    for config, workers in ((dict(AGP_CONFIG, sigma2=10.0), 4), (noise, 3)):
        experiment = config["experiment"]
        path = _write(tmp_path, f"{experiment}.json", config)
        outs = []
        for threads in (1, 8):
            out = str(tmp_path / f"{experiment}-t{threads}.csv")
            assert main(
                [experiment, "--config", path, "--out", out, "--threads", str(threads)]
            ) == 0
            with pytest.raises(ChildProcessError):  # every worker reaped
                os.waitpid(-1, os.WNOHANG)
            outs.append(Path(out).read_bytes())
            derived = json.loads(Path(out + ".manifest.json").read_text())["derived"]
            assert derived["workers"] == (1 if threads == 1 else workers)
        assert outs[0] == outs[1]
        assert b"worker" not in outs[0]


@pytest.mark.parametrize(
    "config, workers",
    [
        (dict(AGP_CONFIG, sigma2=[0.0]), 1),  # draws nothing: no fork
        (dict(GATE_CONFIG, sigma2=[0.0, 0.0]), 1),
        (AGP_CONFIG, 3),
        (GATE_CONFIG, 3),
        (dict(NOISE_CONFIG, realizations=8), 3),
        (dict(NOISE_CONFIG, realizations=8, sigma2=0.0), 1),  # draws nothing
    ],
    ids=["agp-noiseless", "gate-noiseless", "agp", "gate", "noise", "noise-zero"],
)
def test_cli_manifest_workers_are_the_processes_that_ran(
    tmp_path, monkeypatch, config, workers
):
    """derived.workers counts this process and each child it forked."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    experiment = config["experiment"]
    path = _write(tmp_path, "config.json", dict(config, threads=3))
    out = str(tmp_path / "table.csv")
    assert main([experiment, "--config", path, "--out", out]) == 0
    derived = json.loads(Path(out + ".manifest.json").read_text())["derived"]
    assert derived["workers"] == workers
    assert len(forks) == derived["workers"] - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_resource_error_in_a_worker_exits_4(tmp_path, monkeypatch, capsys):
    """A worker process's ResourceLimitError keeps its type in the caller."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)))
    caller = os.getpid()
    propagate = ensemble.evolve_exact_batch

    def bounded(*args):
        if os.getpid() != caller:
            raise ResourceLimitError("refused in a worker")
        return propagate(*args)

    monkeypatch.setattr(ensemble, "evolve_exact_batch", bounded)
    config = dict(AGP_CONFIG, engine="exact_propagation", threads=2)
    path = _write(tmp_path, "agp.json", config)
    out = str(tmp_path / "x.csv")
    assert main(["agp-dephase", "--config", path, "--out", out]) == 4
    assert "refused in a worker" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_seed_override_changes_estimates(tmp_path):
    path = _write(tmp_path, "agp.json", dict(AGP_CONFIG, sigma2=10.0))
    outs = []
    for seed, name in ((9, "s9.csv"), (10, "s10.csv")):
        out = str(tmp_path / name)
        assert main(
            ["agp-dephase", "--config", path, "--out", out, "--seed", str(seed)]
        ) == 0
        outs.append(Path(out).read_bytes())
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
    manifest = json.loads(Path(out2 + ".manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 11
    assert manifest["seeds"]["master_seed"] == 11
    assert Path(out1).read_bytes() != Path(out2).read_bytes()


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
        (
            {k: v for k, v in AGP_CONFIG.items() if k != "sigma2"},
            "one of sigma2 or (power_density, bandwidth) is required",
        ),
        (
            {k: v for k, v in POWER_AGP.items() if k != "bandwidth"},
            "power_density requires bandwidth",
        ),
        (
            {k: v for k, v in FIELD_AGP.items() if k != "b_rf"},
            "b0 and b_rf must be given together",
        ),
        (
            {k: v for k, v in AGP_CONFIG.items() if k != "magnitude"},
            "cone_angle and magnitude (or b0 and b_rf) are required",
        ),
        (
            dict(SHOR_CONFIG, bases=[7, 2]),
            "moduli and bases must have the same length",
        ),
        (
            dict(SHOR_CONFIG, variances=[0.0, 1.0]),
            "variances: expected a number or one value per instance",
        ),
    ],
    ids=[
        "exact-engine-calibrated-angles",
        "unrealizable-phase",
        "duration-below-dt",
        "agp-degenerate-gap",
        "gate-degenerate-gap",
        "no-noise-level",
        "power-without-bandwidth",
        "b0-without-b_rf",
        "no-geometry",
        "moduli-and-bases-unpaired",
        "variances-unpaired",
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


def test_cli_write_that_fails_after_the_check_is_a_config_error(tmp_path, capsys):
    """A name longer than the file system allows passes the access check of
    its directory, and its write fails: that OSError is a config error."""
    path = _write(tmp_path, "cfg.json", SHOR_CONFIG)
    out = tmp_path / ("x" * 300 + ".csv")
    assert main(["shor-scan", "--config", path, "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: out: [Errno ")
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_cli_unreadable_config_is_a_config_error(tmp_path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):
        assert main(["agp-dephase", "--config", str(path)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: [Errno ")
        assert str(path) in line


@pytest.mark.parametrize("text", ["[1, 2]", "3", "null", '"agp-dephase"'])
def test_a_config_that_is_not_an_object_is_refused(text):
    with pytest.raises(ConfigError, match="^config must be a JSON object$"):
        validate_config(text)


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


@pytest.mark.parametrize(
    "raw, steps",
    [
        (dict(NOISE_CONFIG, duration=0.1, realizations=8), [0, 10, 20]),
        (dict(NOISE_CONFIG, correlation_time=0.5), [0, 100, 200]),
    ],
    ids=["duration-2-tau_c", "tau_c-0.5"],
)
def test_cli_noise_validate_default_lags_stop_at_the_path_end(
    tmp_path, capsys, raw, steps
):
    """The default lags are the grid points nearest 0, 1, 2 and 3 tau_c
    that lie on the path; a given lag beyond the path is still refused."""
    path = _write(tmp_path, "nv.json", raw)
    out = tmp_path / "nv.csv"
    assert main(["noise-validate", "--config", path, "--out", str(out)]) == 0
    lags = [m * raw["dt"] for m in steps]
    with open(out, newline="") as f:
        assert [float(row["lag_s"]) for row in csv.DictReader(f)] == lags
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["derived"]["lags_s"] == lags
    beyond = (steps[-1] + 10) * raw["dt"]
    path = _write(tmp_path, "beyond.json", dict(raw, lags=[0.0, beyond]))
    out = tmp_path / "beyond.csv"
    assert main(["noise-validate", "--config", path, "--out", str(out)]) == 2
    message = f"config error: lags: lag {beyond} outside the path duration"
    assert message in capsys.readouterr().err.splitlines()
    assert not out.exists()


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


def test_format_cell_writes_numpy_floats_as_plain_floats():
    assert cli._format_cell(np.float64(0.1)) == "0.1"
    assert cli._format_cell(0.1) == "0.1"


@pytest.mark.parametrize(
    "name, raw", [("agp-dephase", AGP_CONFIG), ("gate-fidelity", GATE_CONFIG)]
)
def test_cli_every_cell_of_a_monte_carlo_table_is_a_number(tmp_path, name, raw):
    path = _write(tmp_path, f"{name}.json", raw)
    out = tmp_path / f"{name}.csv"
    assert main([name, "--config", path, "--out", str(out)]) == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    cells = [cell for row in rows for cell in row.values()]
    assert cells and all(math.isfinite(float(cell)) for cell in cells)


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


def test_cli_json_table_writes_a_non_finite_cell_as_null(tmp_path):
    """A flagged Shor row (r = 1: no useful outcome) needs infinitely many
    runs: the JSON table has null there, readable by a strict parser, and
    the CSV table keeps inf."""
    raw = {"experiment": "shor-scan", "moduli": [3, 15], "bases": [1, 7]}
    raw["variances"] = 0.0
    path = _write(tmp_path, "shor.json", raw)
    tables = {}
    for fmt in ("json", "csv"):
        out = tmp_path / f"scan.{fmt}"
        args = ["shor-scan", "--config", path, "--out", str(out), "--format", fmt]
        assert main(args) == 0
        tables[fmt] = out.read_text()

    def refuse(token):
        raise ValueError(f"not RFC 8259 JSON: {token}")

    rows = json.loads(tables["json"], parse_constant=refuse)
    assert [row["flagged"] for row in rows] == [True, False]
    assert rows[0]["runs_needed"] is None
    assert math.isfinite(rows[1]["runs_needed"])
    csv_rows = list(csv.DictReader(tables["csv"].splitlines()))
    assert csv_rows[0]["runs_needed"] == "inf"
    assert float(csv_rows[1]["runs_needed"]) == rows[1]["runs_needed"]


@pytest.mark.parametrize(
    "moduli, bases, message",
    [
        ([70001], [2], "moduli[0] must be in [3, 65536], got 70001"),
        ([2], [1], "moduli[0] must be in [3, 65536], got 2"),
        ([15], [5], "bases[0]: base 5 is not co-prime with modulus 15"),
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
    assert err.value.errors == [
        "moduli[0] must be in [3, 65536], got 70001",
        "bases[1]: base 5 is not co-prime with modulus 15",
        "moduli[3] must be in [3, 65536], got 2",
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


def test_cli_shor_scan_at_the_largest_period(tmp_path):
    # N = 65521 is prime and 17 a primitive root: r = N - 1 = 65520
    raw = {"experiment": "shor-scan", "moduli": [65521], "bases": [17]}
    raw["variances"] = 0.0
    path = _write(tmp_path, "shor.json", raw)
    out = str(tmp_path / "scan.csv")
    assert main(["shor-scan", "--config", path, "--out", out]) == 0
    with open(out) as f:
        [row] = list(csv.DictReader(f))
    assert row["period"] == "65520" and row["register_size"] == str(2**32)


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
    rows = json.loads(Path(out).read_text())
    lag0 = rows[0]
    assert lag0["lag_s"] == 0.0
    assert abs(lag0["autocovariance_field2"] - 1.0) < 3 * max(
        lag0["standard_error_field2"], 1e-3
    )
    for row in rows:
        assert abs(row["autocovariance_field2"] - row["expected_field2"]) < 4 * max(
            row["standard_error_field2"], 1e-3
        )
