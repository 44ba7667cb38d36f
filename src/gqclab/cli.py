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
override config values.  Every run writes the result table (CSV or JSON)
and a JSON run manifest that echoes the fully resolved configuration, so
re-running with ``--config manifest.json`` reproduces the table
bit-exactly.  Exit codes: 0 ok, 2 configuration error, 3 adiabaticity
violation in strict mode, 4 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .adiabatic import ControlSchedule, QubitHamiltonian, deterministic_phases
from .ensemble import (
    ENGINES,
    EnsembleConfig,
    _check_noise_elements,
    decoherence_report,
)
from .errors import AdiabaticityError, ConfigError, ResourceLimitError
from .gate import PulseSequence, bell_gate_run, calibrate_level_cone_angles
from .noise import NoiseSpec, make_noise_path, split_seed, estimate_autocorrelation
from .shor import ShorInstance, runtime_scaling

__all__ = ["ExperimentConfig", "validate_config", "run", "main"]

EXPERIMENTS = ("noise-validate", "agp-dephase", "gate-fidelity", "shor-scan")

#: config keys shared by every experiment (None = no static default)
_COMMON_KEYS = {
    "experiment": None,
    "master_seed": 0,
    "threads": 1,
    "strict_adiabatic": False,
    "out": None,
    "format": "csv",
}

#: physics keys per experiment: name -> required?
_SCHEMA = {
    "noise-validate": {
        "correlation_time": True,
        "duration": True,
        "dt": True,
        "realizations": True,
        "dimension": False,
        "lags": False,
    },
    "agp-dephase": {
        "coupling": True,
        "period": True,
        "cycles": True,
        "correlation_time": True,
        "realizations": True,
        "engine": False,
        "noise_dt": False,
        "substeps": False,
    },
    "gate-fidelity": {
        "coupling": True,
        "period": True,
        "correlation_time": True,
        "realizations": True,
        "conditional_phase": False,
        "engine": False,
        "noise_dt": False,
        "substeps": False,
    },
    "shor-scan": {
        "moduli": True,
        "bases": True,
        "variances": True,
        "offset": False,
    },
}

#: experiments that take sigma^2 / (P/V, bandwidth) and field geometry
_NOISE_POWER = {"noise-validate", "agp-dephase", "gate-fidelity"}
_GEOMETRY = {"agp-dephase", "gate-fidelity"}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: the name plus fully resolved parameters.

    ``params`` holds only canonical keys (sigma2 resolved from the power
    pair, cone_angle and magnitude resolved from b0/b_rf, defaults filled
    in), so two configs resolving to equal params produce identical runs.
    """

    experiment: str
    params: dict


def _as_number(value, key, errors, minimum=None, strict_min=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(f"{key}: expected a number, got {value!r}")
        return None
    v = float(value)
    if minimum is not None and (v < minimum or (strict_min and v == minimum)):
        op = ">" if strict_min else ">="
        errors.append(f"{key}: must be {op} {minimum}, got {v}")
        return None
    return v


def _as_int(value, key, errors, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{key}: expected an integer, got {value!r}")
        return None
    if minimum is not None and value < minimum:
        errors.append(f"{key}: must be >= {minimum}, got {value}")
        return None
    return value


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
        return
    if not has_sigma2 and not has_power:
        errors.append("one of sigma2 or (power_density, bandwidth) is required")
        return
    bandwidth = _as_number(
        raw.get("bandwidth", 1.0), "bandwidth", errors, minimum=0, strict_min=True
    )
    if has_power and "bandwidth" not in raw:
        errors.append("power_density requires bandwidth")
        return
    if bandwidth is None:
        return
    source_key = "sigma2" if has_sigma2 else "power_density"
    value = raw[source_key]
    values = value if isinstance(value, list) else [value]
    out = []
    for i, v in enumerate(values):
        num = _as_number(v, f"{source_key}[{i}]", errors, minimum=0)
        if num is None:
            return
        out.append(num if has_sigma2 else num / bandwidth)
    params["bandwidth"] = bandwidth
    params["sigma2"] = out if isinstance(value, list) else out[0]


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
        return
    if has_fields:
        if "b0" not in raw or "b_rf" not in raw:
            errors.append("b0 and b_rf must be given together")
            return
        b0 = _as_number(raw["b0"], "b0", errors)
        b_rf = _as_number(raw["b_rf"], "b_rf", errors, minimum=0)
        if b0 is None or b_rf is None:
            return
        longitudinal = b0 - b_rf
        magnitude = float(np.hypot(b_rf, longitudinal))
        if magnitude == 0:
            errors.append("b0 and b_rf give a zero effective field")
            return
        params["cone_angle"] = float(np.arctan2(b_rf, longitudinal))
        params["magnitude"] = magnitude
        return
    if "cone_angle" not in raw or "magnitude" not in raw:
        errors.append("cone_angle and magnitude (or b0 and b_rf) are required")
        return
    angle = _as_number(raw["cone_angle"], "cone_angle", errors, minimum=0)
    mag = _as_number(raw["magnitude"], "magnitude", errors, minimum=0, strict_min=True)
    if angle is not None and angle > np.pi:
        errors.append(f"cone_angle: must be <= pi, got {angle}")
        angle = None
    if angle is None or mag is None:
        return
    params["cone_angle"] = angle
    params["magnitude"] = mag


def _validate_shor(raw, params, errors):
    moduli = raw.get("moduli")
    bases = raw.get("bases")
    variances = raw.get("variances")
    for key, val in (("moduli", moduli), ("bases", bases)):
        if not isinstance(val, list) or not val:
            errors.append(f"{key}: expected a non-empty list of integers")
            return
        if any(isinstance(x, bool) or not isinstance(x, int) for x in val):
            errors.append(f"{key}: entries must be integers")
            return
    if len(moduli) != len(bases):
        errors.append("moduli and bases must have the same length")
        return
    if isinstance(variances, (int, float)) and not isinstance(variances, bool):
        variances = [float(variances)] * len(moduli)
    if not isinstance(variances, list) or len(variances) != len(moduli):
        errors.append("variances: expected a number or one value per instance")
        return
    vs = []
    for i, v in enumerate(variances):
        num = _as_number(v, f"variances[{i}]", errors, minimum=0)
        if num is None:
            return
        vs.append(num)
    params["moduli"] = list(moduli)
    params["bases"] = list(bases)
    params["variances"] = vs
    offset = _as_int(raw.get("offset", 0), "offset", errors, minimum=0)
    if offset is not None:
        params["offset"] = offset


def validate_config(raw, experiment: str = None) -> ExperimentConfig:
    """Full schema validation; raises ConfigError carrying every problem.

    ``raw`` is JSON text or an already-parsed mapping; a run manifest (a
    mapping with a ``config`` key) is accepted and unwrapped, which is what
    makes manifests re-runnable.
    """
    errors = []
    if isinstance(raw, str):
        try:
            raw = json.loads(raw) if raw.strip() else {}
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    if "config" in raw and isinstance(raw["config"], dict):
        raw = raw["config"]  # run manifest: unwrap the echoed config
    raw = dict(raw)

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
    known = set(schema) | set(_COMMON_KEYS) - {"experiment"}
    if exp in _NOISE_POWER:
        known |= {"sigma2", "power_density", "bandwidth"}
    if exp in _GEOMETRY:
        known |= {"cone_angle", "magnitude", "b0", "b_rf"}
    unknown = sorted(set(raw) - known)
    if unknown:
        errors.append(f"unknown keys: {', '.join(unknown)}")

    params = {}
    for key, default in _COMMON_KEYS.items():
        if key == "experiment":
            continue
        params[key] = raw.get(key, default)
    if _as_int(params["master_seed"], "master_seed", errors, minimum=0) is None:
        params["master_seed"] = 0
    if _as_int(params["threads"], "threads", errors, minimum=1) is None:
        params["threads"] = 1
    if not isinstance(params["strict_adiabatic"], bool):
        errors.append("strict_adiabatic: expected true or false")
        params["strict_adiabatic"] = False
    if params["format"] not in ("csv", "json"):
        errors.append(f"format: must be 'csv' or 'json', got {params['format']!r}")
    if params["out"] is not None and not isinstance(params["out"], str):
        errors.append("out: expected a path string")

    missing = [
        key
        for key, required in schema.items()
        if required and key not in raw and key != "variances"
    ]
    if exp == "shor-scan" and "variances" not in raw:
        missing.append("variances")
    if missing:
        errors.append(
            f"{exp} requires: {', '.join(sorted(missing))} "
            f"(full schema: {', '.join(sorted(schema))})"
        )

    if exp in _NOISE_POWER:
        _resolve_power(raw, params, errors)
    if exp in _GEOMETRY and not missing:
        _resolve_geometry(raw, params, errors)

    for key in ("correlation_time", "duration", "dt", "period", "noise_dt"):
        if key in schema and key in raw:
            v = _as_number(raw[key], key, errors, minimum=0, strict_min=True)
            if v is not None:
                params[key] = v
    for key in ("coupling",):
        if key in schema and key in raw:
            v = _as_number(raw[key], key, errors, minimum=0, strict_min=True)
            if v is not None:
                params[key] = v
    for key, lo in (("realizations", 2), ("cycles", 1), ("substeps", 1)):
        if key in schema and key in raw:
            v = _as_int(raw[key], key, errors, minimum=lo)
            if v is not None:
                params[key] = v
    if "dimension" in raw:
        if raw["dimension"] in (1, 3):
            params["dimension"] = raw["dimension"]
        else:
            errors.append(f"dimension: must be 1 or 3, got {raw['dimension']!r}")
    if "lags" in raw:
        if isinstance(raw["lags"], list) and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) and x >= 0
            for x in raw["lags"]
        ):
            params["lags"] = [float(x) for x in raw["lags"]]
        else:
            errors.append("lags: expected a list of nonnegative numbers")
    if "engine" in raw:
        if raw["engine"] in ENGINES:
            params["engine"] = raw["engine"]
        else:
            errors.append(f"engine: must be one of {ENGINES}, got {raw['engine']!r}")
    if "conditional_phase" in raw:
        v = _as_number(raw["conditional_phase"], "conditional_phase", errors)
        if v is not None:
            params["conditional_phase"] = v
    if exp == "shor-scan" and not missing:
        _validate_shor(raw, params, errors)

    if errors:
        raise ConfigError(errors)
    params["experiment"] = exp
    return ExperimentConfig(experiment=exp, params=params)


def _sigma2_sweep(params):
    s = params["sigma2"]
    return [float(x) for x in s] if isinstance(s, list) else [float(s)]


def _run_noise_validate(p):
    spec = NoiseSpec(
        variance=_sigma2_sweep(p)[0],
        correlation_time=p["correlation_time"],
        dimension=p.get("dimension", 1),
    )
    dt, tau_c = p["dt"], p["correlation_time"]
    lags = p.get("lags")
    if lags is None:
        # nearest representable multiples of {0, 1, 2, 3} tau_c
        lags = sorted({round(k * tau_c / dt) * dt for k in range(4)})
    n_t = int(round(p["duration"] / dt)) + 1
    _check_noise_elements(p["realizations"], n_t, spec.dimension)
    paths = [
        make_noise_path(spec, p["duration"], dt, split_seed(p["master_seed"], i))
        for i in range(p["realizations"])
    ]
    rows = []
    for lag, est, se in estimate_autocorrelation(paths, lags):
        rows.append(
            {
                "lag_s": lag,
                "autocovariance_field2": est,
                "standard_error_field2": se,
                "expected_field2": spec.dimension
                * spec.variance
                * float(spec.kernel_profile(lag)),
            }
        )
    derived = {"sigma2_field2": spec.variance, "lags_s": list(lags)}
    return rows, derived


def _ensemble_config(p, h, sigma2, amplitudes):
    """The EnsembleConfig of one sigma^2 point of an agp/gate sweep."""
    return EnsembleConfig(
        hamiltonian=h,
        noise=NoiseSpec(variance=sigma2, correlation_time=p["correlation_time"]),
        initial_amplitudes=amplitudes,
        realizations=p["realizations"],
        master_seed=p["master_seed"],
        engine=p.get("engine", "analytic_phase"),
        noise_dt=p.get("noise_dt"),
        substeps=p.get("substeps", 1),
        strict_adiabatic=p["strict_adiabatic"],
    )


def _run_agp_dephase(p):
    schedule = ControlSchedule(
        magnitude=p["magnitude"],
        cone_angle=p["cone_angle"],
        period=p["period"],
        cycles=p["cycles"],
    )
    h = QubitHamiltonian(coupling=p["coupling"], schedule=schedule)
    gamma_a = deterministic_phases(h, schedule.duration)
    gamma_a_kj = float(gamma_a[1] - gamma_a[0])
    amps = (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))
    rows = []
    for sigma2 in _sigma2_sweep(p):
        cfg = _ensemble_config(p, h, sigma2, amps)
        report = decoherence_report(cfg, levels=(1, 0), bandwidth=p["bandwidth"])
        rows.append(
            {
                "sigma2_field2": sigma2,
                "variance_rad2": report.analytic_variance,
                "overlap_s2": report.overlap,
                "d_mc_abs": abs(report.mc_factor),
                "d_mc_se": report.mc_standard_error,
                "d_analytic": report.analytic_factor,
                "magnitude_mc": abs(report.mc_factor),
                "magnitude_analytic": report.analytic_factor,
                "gamma_a_rad": gamma_a_kj,
                "onset_ratio": report.onset_ratio,
            }
        )
    adiabatic = h.check_adiabatic(correlation_time=p["correlation_time"])
    derived = {
        "gap_rad_per_s": h.gap,
        "gamma_a_kj_rad": gamma_a_kj,
        "adiabaticity_ratios": adiabatic,
        "eta": p["cycles"],
    }
    return rows, derived


def _run_gate_fidelity(p):
    schedule = ControlSchedule(
        magnitude=p["magnitude"],
        cone_angle=p["cone_angle"],
        period=p["period"],
        cycles=1,
    )
    phi = p.get("conditional_phase", 0.0)
    angles = calibrate_level_cone_angles(phi, p["cone_angle"]) if phi else None
    h = QubitHamiltonian(
        coupling=p["coupling"],
        schedule=schedule,
        qubit_count=2,
        level_cone_angles=angles,
    )
    seq = PulseSequence.standard(schedule)
    bell = (1.0 / np.sqrt(2.0), 0.0, 0.0, 1.0 / np.sqrt(2.0))
    rows = []
    for sigma2 in _sigma2_sweep(p):
        result = bell_gate_run(_ensemble_config(p, h, sigma2, bell), seq)
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
    adiabatic = h.check_adiabatic(correlation_time=p["correlation_time"])
    derived = {
        "gap_rad_per_s": h.gap,
        "level_cone_angles_rad": list(angles) if angles else None,
        "adiabaticity_ratios": adiabatic,
    }
    return rows, derived


def _run_shor_scan(p):
    instances = [
        ShorInstance.build(n, y, offset=p.get("offset", 0))
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
        return repr(value)  # shortest round-trip representation
    return str(value)


def _write_rows(rows, out_path, fmt):
    if fmt == "json":
        with open(out_path, "w") as f:
            json.dump(rows, f, indent=2)
            f.write("\n")
        return
    with open(out_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(_format_cell(v) for v in row.values())


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment: write the table and its run manifest.

    Returns the manifest.  Results are a pure function of the resolved
    configuration: the manifest plus the code version reproduces every
    output bit-exactly, regardless of thread count.
    """
    p = config.params
    t_start = time.monotonic()
    rows, derived = _RUNNERS[config.experiment](p)
    fmt = p["format"]
    out_path = p["out"] or f"{config.experiment}.{fmt}"
    _write_rows(rows, out_path, fmt)
    manifest = {
        "tool": "gqclab",
        "version": __version__,
        "experiment": config.experiment,
        "config": dict(p, out=out_path),
        "derived": derived,
        "seeds": {
            "master_seed": p["master_seed"],
            "splitting": "SeedSequence(master_seed, spawn_key=(realization,))",
        },
        "output": out_path,
        "wall_clock_s": time.monotonic() - t_start,
    }
    manifest_path = f"{out_path}.manifest.json"
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    return manifest


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
        s.add_argument("--seed", type=int, help="override master_seed")
        s.add_argument("--realizations", type=int, help="override realizations")
        s.add_argument(
            "--threads", type=int, help="worker bound; never affects results"
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    raw = {}
    if args.config:
        try:
            with open(args.config) as f:
                raw = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        if isinstance(raw, dict) and "config" in raw and isinstance(raw["config"], dict):
            raw = raw["config"]
    if not isinstance(raw, dict):
        print("config error: config must be a JSON object", file=sys.stderr)
        return 2
    overrides = {
        "master_seed": args.seed,
        "realizations": args.realizations,
        "threads": args.threads,
        "out": args.out,
        "format": args.format,
        "strict_adiabatic": args.strict_adiabatic,
    }
    raw = dict(raw)
    raw.update({k: v for k, v in overrides.items() if v is not None})
    try:
        config = validate_config(raw, experiment=args.experiment)
        manifest = run(config)
    except ConfigError as exc:
        for err in exc.errors:
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
