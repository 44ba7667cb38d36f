"""Noisy-control dephasing of geometric quantum computation.

A simulation laboratory for how stochastic noise in a classical control
field dephases the adiabatic geometric phase, degrades a geometric
controlled-phase gate, and destroys the efficiency of period finding on a
geometric quantum computer.  Everything is computed twice: by brute-force
Monte Carlo over noise realizations and by Gaussian closed forms, and the
two are required to agree.
"""

from .adiabatic import (
    ControlSchedule,
    EigenFrame,
    PhaseRecord,
    QubitHamiltonian,
    adiabatic_phases,
    deterministic_phases,
    eigenframe,
    evolve_exact,
    evolve_exact_batch,
)
from .ensemble import (
    AveragedDensity,
    DecoherenceReport,
    EnsembleConfig,
    EnsemblePhases,
    averaged_density_analytic,
    decoherence_factor_analytic,
    decoherence_report,
    onset_ratio,
    overlap_integral,
    run_ensemble,
    transverse_magnetization,
    variance_analytic,
)
from .errors import (
    AdiabaticityError,
    ConfigError,
    DegeneracyError,
    ResolutionError,
    ResourceLimitError,
)
from .gate import (
    GateResult,
    LevelPath,
    PulseSequence,
    bell_gate_run,
    calibrate_level_cone_angles,
    gate_onset_ratio,
    gate_overlap_sum,
    gate_phases,
    level_index_map,
    level_path,
)
from .noise import (
    NoisePath,
    NoiseSpec,
    estimate_autocorrelation,
    make_noise_ensemble,
    make_noise_path,
    realization_rng,
    split_seed,
)
from .shor import (
    NoisyAmplitudeModel,
    ShorInstance,
    SuccessReport,
    amplitude_mc,
    amplitude_sample,
    choose_q,
    coprime_residues,
    dft_phase_variance,
    euler_phi,
    find_period,
    gqc_onset,
    prob_averaged,
    runtime_scaling,
    success_probability,
)

__all__ = [
    # noise
    "NoiseSpec",
    "NoisePath",
    "make_noise_path",
    "make_noise_ensemble",
    "estimate_autocorrelation",
    "split_seed",
    "realization_rng",
    # adiabatic
    "ControlSchedule",
    "QubitHamiltonian",
    "EigenFrame",
    "PhaseRecord",
    "eigenframe",
    "evolve_exact",
    "evolve_exact_batch",
    "deterministic_phases",
    "adiabatic_phases",
    # ensemble
    "EnsembleConfig",
    "AveragedDensity",
    "EnsemblePhases",
    "DecoherenceReport",
    "run_ensemble",
    "averaged_density_analytic",
    "decoherence_factor_analytic",
    "variance_analytic",
    "overlap_integral",
    "onset_ratio",
    "transverse_magnetization",
    "decoherence_report",
    # gate
    "PulseSequence",
    "LevelPath",
    "GateResult",
    "level_index_map",
    "level_path",
    "gate_phases",
    "bell_gate_run",
    "gate_onset_ratio",
    "gate_overlap_sum",
    "calibrate_level_cone_angles",
    # shor
    "ShorInstance",
    "NoisyAmplitudeModel",
    "SuccessReport",
    "find_period",
    "choose_q",
    "euler_phi",
    "coprime_residues",
    "dft_phase_variance",
    "amplitude_sample",
    "amplitude_mc",
    "prob_averaged",
    "success_probability",
    "runtime_scaling",
    "gqc_onset",
    # errors
    "ResolutionError",
    "DegeneracyError",
    "AdiabaticityError",
    "ConfigError",
    "ResourceLimitError",
]

__version__ = "0.1.0"
