"""Command line driver for the four experiment families.

Subcommands:

* ``noise-validate``  generate a noise ensemble and report its sample
  autocovariance against the exponential kernel
* ``agp-dephase``     Monte Carlo decoherence of the adiabatic geometric
  phase on a single qubit, swept over the noise variance
* ``gate-fidelity``   noisy Bell-state fidelity of the geometric
  controlled-phase gate, swept over the noise variance
* ``shor-scan``       success probability and expected repetitions of
  period finding for a list of (N, y) instances and phase variances

Configuration is a single JSON file (``--config``); command line flags
override config values.  ``validate_config`` resolves it to a params dict,
which ``run`` executes.  Every run writes the result table (CSV or JSON)
and a JSON run manifest that echoes those params, so re-running with
``--config manifest.json`` reproduces the table bit-exactly.  Exit codes: 0 ok, 2 configuration error, 3 adiabaticity
violation in strict mode, 4 resource bound exceeded.  An under-resolved
noise grid, a zero level splitting and an unwritable output path are
configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import time
from functools import partial

import numpy as np

from . import __version__
from .adiabatic import ControlSchedule, QubitHamiltonian, deterministic_phases
from .ensemble import ENGINES, EnsembleConfig, decoherence_sweep
from .errors import (
    AdiabaticityError,
    ConfigError,
    DegeneracyError,
    ResolutionError,
    ResourceLimitError,
    _check_count,
    _check_real,
)
from .gate import BELL_STATE, bell_gate_sweep, calibrate_level_cone_angles
from .noise import (
    NoiseSpec,
    _lag_steps,
    _n_times,
    _worker_count,
    ensemble_autocorrelation,
)
from .shor import MAX_MODULUS, ShorInstance, find_period, runtime_scaling

__all__ = ["validate_config", "run", "main"]


def _checked(check, value, key, errors, **bounds):
    """``check(value, key, **bounds)``, a checker of ``errors.py``: the
    checked value, or None once its message is appended to ``errors``."""
    try:
        return check(value, key, **bounds)
    except (TypeError, ValueError) as exc:
        errors.append(str(exc))
        return None


def _as_type(value, key, errors, types, expected):
    if not isinstance(value, types):
        errors.append(f"{key}: expected {expected}")
    return value


def _as_choice(value, key, errors, choices):
    # compares types too: True == 1 and 3.0 == 3, yet neither is a choice
    if not any(type(value) is type(c) and value == c for c in choices):
        allowed = " or ".join(map(repr, choices))
        errors.append(f"{key}: must be {allowed}, got {value!r}")
    return value


def _as_list(value, key, errors, item):
    """A non-empty list whose entries are each of kind ``item``."""
    if not isinstance(value, list) or not value:
        errors.append(f"{key}: expected a non-empty list")
        return None
    values = [item(v, f"{key}[{i}]", errors) for i, v in enumerate(value)]
    return None if None in values else values


_REAL = partial(_checked, _check_real)
_POSITIVE = partial(_REAL, minimum=0, strict=True)
_NONNEGATIVE = partial(_REAL, minimum=0)
_NONNEGATIVES = partial(_as_list, item=_NONNEGATIVE)
_COUNT = partial(_checked, _check_count)
_COUNTS = partial(_as_list, item=_COUNT)


def _as_sweep(value, key, errors):
    """A number >= 0, or a non-empty list of them."""
    if isinstance(value, list):
        return _NONNEGATIVES(value, key, errors)
    return _NONNEGATIVE(value, key, errors)


#: default markers: a _REQUIRED key must be given; an _OPTIONAL key stays
#: absent unless given, since a null echoed in a manifest would not re-run
_REQUIRED = object()
_OPTIONAL = object()

_COMMON = ("master_seed", "threads", "strict_adiabatic", "out", "format")
_POWER = ("sigma2", "power_density", "bandwidth")
_NOISE = ("correlation_time", "duration", "dt", "realizations", "dimension", "lags")
_DRIVE = _POWER + ("cone_angle", "magnitude", "b0", "b_rf", "coupling", "period")
_ENSEMBLE = ("correlation_time", "realizations", "engine", "noise_dt", "substeps")

#: key -> (kind, default).  A kind checks one value, appends what is wrong
#: to ``errors`` and returns the value to keep (None when it is wrong).
_KEYS = {
    # the low word of a 128-bit Philox key (noise.split_seed)
    "master_seed": (partial(_COUNT, minimum=0, maximum=2**64 - 1), 0),
    "threads": (partial(_COUNT, minimum=1), 1),
    "strict_adiabatic": (
        partial(_as_type, types=bool, expected="true or false"), False
    ),
    "out": (partial(_as_type, types=(str, type(None)), expected="a path string"), None),
    "format": (partial(_as_choice, choices=("csv", "json")), "csv"),
    "sigma2": (_as_sweep, _OPTIONAL),
    "power_density": (_as_sweep, _OPTIONAL),
    "bandwidth": (_POSITIVE, 1.0),
    "cone_angle": (partial(_REAL, minimum=0, maximum=math.pi), _OPTIONAL),
    "magnitude": (_POSITIVE, _OPTIONAL),
    "b0": (_REAL, _OPTIONAL),
    "b_rf": (_NONNEGATIVE, _OPTIONAL),
    "coupling": (_POSITIVE, _REQUIRED),
    "period": (_POSITIVE, _REQUIRED),
    "cycles": (partial(_COUNT, minimum=1), _REQUIRED),
    "correlation_time": (_POSITIVE, _REQUIRED),
    "duration": (_POSITIVE, _REQUIRED),
    "dt": (_POSITIVE, _REQUIRED),
    "realizations": (partial(_COUNT, minimum=2), _REQUIRED),
    "dimension": (partial(_as_choice, choices=(1, 3)), 1),
    "lags": (_NONNEGATIVES, _OPTIONAL),
    "conditional_phase": (_REAL, 0.0),
    "engine": (partial(_as_choice, choices=ENGINES), "analytic_phase"),
    "noise_dt": (_POSITIVE, _OPTIONAL),
    "substeps": (partial(_COUNT, minimum=1), 1),
    "moduli": (_COUNTS, _REQUIRED),
    "bases": (_COUNTS, _REQUIRED),
    "variances": (_as_sweep, _REQUIRED),
    "offset": (partial(_COUNT, minimum=0), 0),
}

#: experiment -> its schema, key -> (kind, default)
_SCHEMA = {
    exp: {key: _KEYS[key] for key in _COMMON + keys}
    for exp, keys in (
        ("noise-validate", _POWER + _NOISE),
        ("agp-dephase", _DRIVE + ("cycles",) + _ENSEMBLE),
        ("gate-fidelity", _DRIVE + ("conditional_phase",) + _ENSEMBLE),
        ("shor-scan", ("moduli", "bases", "variances", "offset")),
    )
}

EXPERIMENTS = tuple(_SCHEMA)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gqclab",
        description="Noisy-control dephasing experiments on a geometric "
        "quantum computer: noise validation, geometric-phase decoherence, "
        "gate fidelity, and period-finding efficiency.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        s = sub.add_parser(name)
        s.add_argument("--config", help="JSON config file (or a run manifest)")
        s.add_argument(
            "--seed", type=int, dest="master_seed", help="override master_seed"
        )
        s.add_argument("--realizations", type=int, help="override realizations")
        s.add_argument(
            "--threads",
            type=int,
            help="worker processes for the Monte Carlo experiments' per-path "
            "work; no output bit depends on them",
        )
        s.add_argument("--out", help="output table path")
        s.add_argument("--format", choices=("csv", "json"), help="table format")
        s.add_argument(
            "--strict-adiabatic",
            action="store_true",
            default=None,
            help="escalate adiabaticity warnings to errors (exit code 3)",
        )
    return parser


#: built once, at import, so that main() does no argparse set-up (nor imports locale)
_PARSER = _build_parser()


def _resolve_power(raw, params, errors):
    """sigma^2 vs (power_density, bandwidth): mutually exclusive inputs.

    The power relation P/V = sigma^2 * bandwidth links them; the resolved
    params always carry sigma2 (scalar or sweep list) and bandwidth.
    """
    has_sigma2 = "sigma2" in raw
    has_power = "power_density" in raw
    if has_sigma2 and has_power:
        errors.append(
            "sigma2 and power_density are mutually exclusive "
            "(they are linked by power_density = sigma2 * bandwidth)"
        )
    elif not has_sigma2 and not has_power:
        errors.append("one of sigma2 or (power_density, bandwidth) is required")
    elif has_power and "bandwidth" not in raw:
        errors.append("power_density requires bandwidth")
    elif has_power:
        power, bandwidth = params.pop("power_density"), params["bandwidth"]
        if power is not None and bandwidth is not None:
            sigma2 = (
                [v / bandwidth for v in power]
                if isinstance(power, list)
                else power / bandwidth
            )
            params["sigma2"] = _as_sweep(sigma2, "sigma2", errors)  # may overflow


def _resolve_geometry(raw, params, errors):
    """cone_angle/magnitude vs (b0, b_rf): mutually exclusive inputs.

    In the rotating-frame picture the effective field has transverse
    component b_rf and longitudinal component b0 - b_rf, so
    sin^2(theta_0) = b_rf^2 / (b_rf^2 + (b0 - b_rf)^2) and the magnitude
    is the quadrature sum.
    """
    has_angle = "cone_angle" in raw or "magnitude" in raw
    has_fields = "b0" in raw or "b_rf" in raw
    if has_angle and has_fields:
        errors.append("(cone_angle, magnitude) and (b0, b_rf) are mutually exclusive")
    elif has_fields:
        if "b0" not in raw or "b_rf" not in raw:
            errors.append("b0 and b_rf must be given together")
            return
        b0, b_rf = params.pop("b0"), params.pop("b_rf")
        if b0 is None or b_rf is None:
            return
        longitudinal = b0 - b_rf
        params["cone_angle"] = float(np.arctan2(b_rf, longitudinal))
        magnitude = np.hypot(b_rf, longitudinal)  # may be 0 or overflow
        params["magnitude"] = _POSITIVE(magnitude, "magnitude", errors)
    elif "cone_angle" not in raw or "magnitude" not in raw:
        errors.append("cone_angle and magnitude (or b0 and b_rf) are required")


def _validate_shor(params, errors):
    """Co-prime instances within the modulus bound, one variance each."""
    moduli, bases, variances = params["moduli"], params["bases"], params["variances"]
    if moduli is None or bases is None or variances is None:
        return
    if len(moduli) != len(bases):
        errors.append("moduli and bases must have the same length")
        return
    for i, (n, y) in enumerate(zip(moduli, bases)):
        key = f"moduli[{i}]"
        if _COUNT(n, key, errors, minimum=3, maximum=MAX_MODULUS) is not None:
            try:
                find_period(n, y)
            except ValueError as exc:
                errors.append(f"bases[{i}]: {exc}")
    if not isinstance(variances, list):
        params["variances"] = [variances] * len(moduli)
    elif len(variances) != len(moduli):
        errors.append("variances: expected a number or one value per instance")


def _config_mapping(raw) -> dict:
    """A copy of the config mapping in ``raw``: JSON text or a parsed object.

    A run manifest (a mapping with a ``config`` key) is unwrapped to the
    config it echoes, which is what makes manifests re-runnable.
    """
    if isinstance(raw, str):
        try:
            raw = json.loads(raw) if raw.strip() else {}
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    if "config" in raw and isinstance(raw["config"], dict):
        raw = raw["config"]
    return dict(raw)


def _noise_lags(p) -> list:
    """The lags noise-validate estimates: the given ones, or by default the
    grid points nearest 0, 1, 2 and 3 tau_c that lie on the path."""
    if "lags" in p:
        return p["lags"]
    dt = p["dt"]
    n = _n_times(p["duration"], dt)
    steps = {round(k * p["correlation_time"] / dt) for k in range(4)}
    return [m * dt for m in sorted(steps) if m < n]


def _check_noise_validate(raw, params, errors):
    """One variance, and lags that lie on the grid within the duration."""
    if isinstance(params.get("sigma2"), list):
        key = "sigma2" if "sigma2" in raw else "power_density"
        errors.append(f"{key}: noise-validate takes one value, not a list")
    grid = [params.get(key) for key in ("correlation_time", "duration", "dt")]
    if None in grid or params.get("lags", ()) is None:
        return  # missing or invalid, and already reported
    dt = params["dt"]
    try:
        _lag_steps(_noise_lags(params), dt, _n_times(params["duration"], dt))
    except ValueError as exc:
        errors.append(f"lags: {exc}")


def _hamiltonian(p, cycles: int, **qubits) -> QubitHamiltonian:
    """The Hamiltonian of an agp-dephase or gate-fidelity config's drive,
    ``cycles`` periods long; ``qubits`` sets the qubit count and angles."""
    schedule = ControlSchedule(
        magnitude=p["magnitude"],
        cone_angle=p["cone_angle"],
        period=p["period"],
        cycles=cycles,
    )
    return QubitHamiltonian(coupling=p["coupling"], schedule=schedule, **qubits)


def _gate_hamiltonian(p) -> QubitHamiltonian:
    """The two-qubit Hamiltonian of a gate-fidelity config, its level cone
    angles calibrated to the conditional phase (none when that is 0)."""
    phi = p["conditional_phase"]
    angles = calibrate_level_cone_angles(phi, p["cone_angle"]) if phi else None
    return _hamiltonian(p, 1, qubit_count=2, level_cone_angles=angles)


def _check_gate_fidelity(params, errors):
    """A conditional phase the cone angle can realize, and for the exact
    engine one that leaves the level cone angles uniform (EnsembleConfig)."""
    try:
        _ensemble_config(params, _gate_hamiltonian(params), BELL_STATE)
    except ValueError as exc:
        errors.append(f"conditional_phase: {exc}")


def validate_config(raw, experiment: str = None) -> dict:
    """Full schema validation; raises ConfigError carrying every problem.

    ``raw`` is JSON text, an already-parsed mapping or a run manifest (see
    ``_config_mapping``).  Returns the resolved params: the experiment under
    ``"experiment"`` and only canonical keys (sigma2 resolved from the power
    pair, cone_angle and magnitude from b0/b_rf, defaults filled in), so
    two configs resolving to equal params produce identical runs.  It is
    the mapping that the run manifest echoes as its ``config``.
    """
    errors = []
    raw = _config_mapping(raw)

    exp = raw.pop("experiment", experiment)
    if exp is None:
        raise ConfigError(["experiment missing"])
    if exp not in EXPERIMENTS:
        raise ConfigError([f"unknown experiment {exp!r}; choose from {EXPERIMENTS}"])
    if experiment is not None and exp != experiment:
        raise ConfigError(
            [f"config names experiment {exp!r} but the subcommand is {experiment!r}"]
        )

    schema = _SCHEMA[exp]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        errors.append(f"unknown keys: {', '.join(unknown)}")

    params, missing = {}, []
    for key, (kind, default) in schema.items():
        if key in raw:
            params[key] = kind(raw[key], key, errors)
        elif default is _REQUIRED:
            missing.append(key)
        elif default is not _OPTIONAL:
            params[key] = default
    if missing:
        errors.append(
            f"{exp} requires: {', '.join(sorted(missing))} "
            f"(full schema: {', '.join(sorted(set(schema) - set(_COMMON)))})"
        )

    if "sigma2" in schema:
        _resolve_power(raw, params, errors)
    if "cone_angle" in schema and not missing:
        _resolve_geometry(raw, params, errors)
    if exp == "shor-scan" and not missing:
        _validate_shor(params, errors)
    if exp == "noise-validate":
        _check_noise_validate(raw, params, errors)
    if exp == "gate-fidelity" and not errors:
        _check_gate_fidelity(params, errors)

    if errors:
        raise ConfigError(errors)
    params["experiment"] = exp
    return params


def _sigma2_sweep(params):
    s = params["sigma2"]
    return [float(x) for x in s] if isinstance(s, list) else [float(s)]


def _run_noise_validate(p):
    spec = NoiseSpec(
        variance=p["sigma2"],
        correlation_time=p["correlation_time"],
        dimension=p["dimension"],
    )
    lags = _noise_lags(p)
    grid = (p["duration"], p["dt"], p["master_seed"], p["realizations"])
    estimates = ensemble_autocorrelation(spec, *grid, lags, p["threads"])
    scale = spec.dimension * spec.variance
    rows = [
        {
            "lag_s": lag,
            "autocovariance_field2": est,
            "standard_error_field2": se,
            "expected_field2": scale * float(spec.kernel_profile(lag)),
        }
        for lag, est, se in estimates
    ]
    return rows, {"sigma2_field2": spec.variance, "lags_s": lags}


def _ensemble_config(p, h, amplitudes):
    """The EnsembleConfig of an agp/gate sweep, which supplies the sigma^2."""
    return EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=0.0, correlation_time=p["correlation_time"]),
        initial_amplitudes=amplitudes,
        realizations=p["realizations"],
        master_seed=p["master_seed"],
        engine=p["engine"],
        noise_dt=p.get("noise_dt"),
        substeps=p["substeps"],
        strict_adiabatic=p["strict_adiabatic"],
        threads=p["threads"],
    )


def _run_agp_dephase(p):
    h = _hamiltonian(p, p["cycles"])
    amps = (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))
    sweep, config = _sigma2_sweep(p), _ensemble_config(p, h, amps)
    reports = decoherence_sweep(config, sweep, levels=(1, 0))
    gamma_a = deterministic_phases(h, h.schedule.duration)  # after the refusals
    gamma_a_kj = float(gamma_a[1] - gamma_a[0])
    rows = []
    for sigma2, report in zip(sweep, reports):
        rows.append(
            {
                "sigma2_field2": sigma2,
                "variance_rad2": report.analytic_variance,
                "overlap_s2": report.overlap,
                "d_mc_abs": abs(report.mc_factor),
                "d_mc_se": report.mc_standard_error,
                "d_analytic": report.analytic_factor,
                "gamma_a_rad": gamma_a_kj,
                "onset_ratio": report.onset_ratio,
            }
        )
    derived = {
        "gap_rad_per_s": h.gap,
        "gamma_a_kj_rad": gamma_a_kj,
        "adiabaticity_ratios": h.adiabatic_ratios(p["correlation_time"]),
        "eta": p["cycles"],
    }
    return rows, derived


def _run_gate_fidelity(p):
    h = _gate_hamiltonian(p)
    angles = h.level_cone_angles
    sweep, config = _sigma2_sweep(p), _ensemble_config(p, h, BELL_STATE)
    results = bell_gate_sweep(config, sweep)
    rows = []
    for sigma2, result in zip(sweep, results):
        rows.append(
            {
                "sigma2_field2": sigma2,
                "variance_rad2": result.analytic_variance,
                "d_mc": abs(result.mc_factor),
                "d_analytic": result.decoherence_factor,
                "f_mc": result.fidelity,
                "f_mc_se": result.fidelity_standard_error,
                "f_closed_form": result.fidelity_closed_form,
                "conditional_phase_rad": result.conditional_phase,
                "onset_ratio": result.onset_ratio,
            }
        )
    derived = {
        "gap_rad_per_s": h.gap,
        "level_cone_angles_rad": list(angles) if angles else None,
        "adiabaticity_ratios": h.adiabatic_ratios(p["correlation_time"]),
    }
    return rows, derived


def _run_shor_scan(p):
    instances = [
        ShorInstance.build(n, y, offset=p["offset"])
        for n, y in zip(p["moduli"], p["bases"])
    ]
    rows = runtime_scaling(instances, p["variances"])
    derived = {
        "instances": [
            {
                "modulus": i.modulus,
                "base": i.base,
                "period": i.period,
                "register_size": i.register_size,
                "bits": i.bits,
                "gate_count": i.gate_count,
            }
            for i in instances
        ]
    }
    return rows, derived


_RUNNERS = {
    "noise-validate": _run_noise_validate,
    "agp-dephase": _run_agp_dephase,
    "gate-fidelity": _run_gate_fidelity,
    "shor-scan": _run_shor_scan,
}


def _format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip, also for np.float64
    return str(value)


def _json_cell(value):
    """``value``, or None (JSON null) for a number that is not finite:
    RFC 8259 JSON has no NaN or Infinity."""
    if isinstance(value, float) and not abs(value) < math.inf:  # NaN or +-inf
        return None
    return value


def _write_rows(rows, out_path, fmt):
    if fmt == "json":
        cells = [{key: _json_cell(v) for key, v in row.items()} for row in rows]
        with open(out_path, "w") as f:
            json.dump(cells, f, indent=2, allow_nan=False)
            f.write("\n")
        return
    with open(out_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(_format_cell(v) for v in row.values())


def run(params: dict) -> dict:
    """Execute the experiment of ``params`` (``validate_config``'s result):
    write the table and its run manifest.

    Returns the manifest.  Results are a pure function of the resolved
    configuration: the manifest, the code version and the numpy version it
    records reproduce every output bit-exactly, whatever ``threads`` says.
    The output paths are checked before it runs.
    """
    fmt = params["format"]
    out_path = params["out"] or f"{params['experiment']}.{fmt}"
    manifest_path = f"{out_path}.manifest.json"
    for path in (out_path, manifest_path):
        target = path if os.path.exists(path) else os.path.dirname(path) or "."
        if os.path.isdir(path) or not os.access(target, os.W_OK):
            raise ConfigError([f"out: cannot write {path!r}"])
    t_start = time.monotonic()
    rows, derived = _RUNNERS[params["experiment"]](params)
    if "realizations" in params:  # the processes that ran its per-path work
        derived["workers"] = _worker_count(
            params["threads"], params["realizations"], _sigma2_sweep(params)
        )
    try:
        _write_rows(rows, out_path, fmt)
    except OSError as exc:
        raise ConfigError([f"out: {exc}"]) from exc
    manifest = {
        "tool": "gqclab",
        "version": __version__,
        "experiment": params["experiment"],
        "config": dict(params, out=out_path),
        "derived": derived,
        "seeds": {
            "master_seed": params["master_seed"],
            "splitting": "Generator(Philox(key=master_seed + 2**64 * realization))",
        },
        # numpy does not promise the same Generator streams across versions
        "environment": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "platform": f"{platform.system()}-{platform.release()}-"
            f"{platform.machine()}",
        },
        "output": out_path,
        "wall_clock_s": time.monotonic() - t_start,
    }
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    return manifest


def main(argv=None) -> int:
    overrides = vars(_PARSER.parse_args(argv))
    experiment, config_path = overrides.pop("experiment"), overrides.pop("config")
    text = ""
    if config_path:
        try:
            with open(config_path) as f:
                text = f.read()
        except OSError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    try:
        # overrides apply to the config a manifest echoes, not to the manifest
        raw = _config_mapping(text)
        raw.update({k: v for k, v in overrides.items() if v is not None})
        manifest = run(validate_config(raw, experiment=experiment))
    except (ConfigError, ResolutionError, DegeneracyError) as exc:
        for err in getattr(exc, "errors", [exc]):
            print(f"config error: {err}", file=sys.stderr)
        return 2
    except AdiabaticityError as exc:
        print(f"adiabaticity violation: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {manifest['output']} and {manifest['output']}.manifest.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
