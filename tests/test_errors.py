"""Every count and real number an entry point takes is refused by name when
it is not a number of its kind in its range (``errors._check_count`` and
``errors._check_real``)."""

from dataclasses import replace

import numpy as np
import pytest

from gqclab import (
    ControlSchedule,
    EnsembleConfig,
    GateResult,
    NoiseSpec,
    NoisyAmplitudeModel,
    QubitHamiltonian,
    ShorInstance,
    calibrate_level_cone_angles,
    choose_q,
    decoherence_factor_analytic,
    dft_phase_variance,
    ensemble_autocorrelation,
    estimate_autocorrelation,
    euler_phi,
    evolve_exact_batch,
    find_period,
    gate_onset_ratio,
    gate_overlap_sum,
    gqc_onset,
    make_noise_ensemble,
    onset_ratio,
    overlap_integral,
    runtime_scaling,
    split_seed,
    variance_analytic,
)

SPEC = NoiseSpec(variance=1.0, correlation_time=0.1)
SCHEDULE = ControlSchedule(magnitude=200.0, cone_angle=np.pi / 3, period=1.0)
H = QubitHamiltonian(1.0, SCHEDULE)
H2 = QubitHamiltonian(1.0, SCHEDULE, qubit_count=2)
GRID = np.linspace(0.0, 1.0, 11)
PATHS = np.zeros((2, 11, 1))
GATE = GateResult(0.0, 1.0, 0.0, 1.0, 1.0, 1.0 + 0j, 0.0, 0.0)
SHOR = ShorInstance.build(15, 7)


def _shor(**fields):
    args = dict(modulus=15, base=7, period=4, register_size=256, bits=8, offset=0)
    return ShorInstance(**dict(args, **fields))


#: argument -> (valid value, minimum, maximum, strict minimum, call); the
#: argument's name is the part of the key after its last "-"
REALS = {
    "NoiseSpec-variance": (1.0, 0, None, False, lambda v: NoiseSpec(v, 0.1)),
    "NoiseSpec-correlation_time": (0.1, 0, None, True, lambda v: NoiseSpec(1.0, v)),
    "make_noise_ensemble-dt": (
        0.01, 0, None, True, lambda v: make_noise_ensemble(SPEC, 0.1, v, 3, 2)
    ),
    "ensemble_autocorrelation-lags": (
        0.0, None, None, False,
        lambda v: ensemble_autocorrelation(SPEC, 0.1, 0.01, 3, 2, [v]),
    ),
    "estimate_autocorrelation-dt": (
        0.01, 0, None, True, lambda v: estimate_autocorrelation(PATHS, v, [0.0])
    ),
    "ControlSchedule-magnitude": (
        1.0, 0, None, False, lambda v: ControlSchedule(v, 1.0, 1.0)
    ),
    "ControlSchedule-cone_angle": (
        1.0, 0, np.pi, False, lambda v: ControlSchedule(1.0, v, 1.0)
    ),
    "ControlSchedule-period": (
        1.0, 0, None, True, lambda v: ControlSchedule(1.0, 1.0, v)
    ),
    "QubitHamiltonian-coupling": (
        1.0, 0, None, True, lambda v: QubitHamiltonian(v, SCHEDULE)
    ),
    "QubitHamiltonian.adiabatic_ratios-correlation_time": (
        0.1, 0, None, True, lambda v: H.adiabatic_ratios(v)
    ),
    "QubitHamiltonian-level_cone_angles": (
        1.0, 0, np.pi, False,
        lambda v: QubitHamiltonian(
            1.0, SCHEDULE, qubit_count=2, level_cone_angles=(1.0, 1.0, 1.0, v)
        ),
    ),
    "evolve_exact_batch-sigma": (
        1.0, 0, None, False,
        lambda v: evolve_exact_batch([H], GRID, PATHS, (1.0, 0.0), 10, v),
    ),
    "EnsembleConfig-noise_dt": (
        0.01, 0, None, True,
        lambda v: EnsembleConfig(H, SPEC, (1.0, 0.0), 2, noise_dt=v),
    ),
    "decoherence_factor_analytic-variance": (
        1.0, 0, None, False, decoherence_factor_analytic
    ),
    "variance_analytic-coupling": (
        1.0, 0, None, False, lambda v: variance_analytic(1, v, 1.0, 1.0)
    ),
    "variance_analytic-sigma2": (
        1.0, 0, None, False, lambda v: variance_analytic(1, 1.0, v, 1.0)
    ),
    "variance_analytic-overlap": (
        1.0, 0, None, False, lambda v: variance_analytic(1, 1.0, 1.0, v)
    ),
    "onset_ratio-power_density": (
        1.0, 0, None, False, lambda v: onset_ratio(v, 1.0, 1.0, 1, 1.0)
    ),
    "onset_ratio-bandwidth": (
        1.0, 0, None, True, lambda v: onset_ratio(1.0, v, 1.0, 1, 1.0)
    ),
    "overlap_integral-correlation_time": (
        0.1, 0, None, True, lambda v: overlap_integral(H, v, (0, 1))
    ),
    "gate_overlap_sum-correlation_time": (
        0.1, 0, None, True, lambda v: gate_overlap_sum(H2, v)
    ),
    "gate_onset_ratio-correlation_time": (
        0.01, 0, None, True,
        lambda v: gate_onset_ratio(1.0, 1.0, 1.0, 1, v, 1.0, 1.0),
    ),
    "gate_onset_ratio-period": (
        1.0, 0, None, True,
        lambda v: gate_onset_ratio(1.0, 1.0, 1.0, 1, 0.01, v, 1.0),
    ),
    "gate_onset_ratio-cone_angle": (
        1.0, 0, np.pi, False,
        lambda v: gate_onset_ratio(1.0, 1.0, 1.0, 1, 0.01, 1.0, v),
    ),
    "calibrate_level_cone_angles-phi": (
        1.0, None, None, False, lambda v: calibrate_level_cone_angles(v, 1.0)
    ),
    "calibrate_level_cone_angles-base_angle": (
        1.0, 0, np.pi, False, lambda v: calibrate_level_cone_angles(1.0, v)
    ),
    "GateResult-fidelity": (
        1.0, 0, 1 + 1e-9, False, lambda v: replace(GATE, fidelity=v)
    ),
    "GateResult-decoherence_factor": (
        1.0, 0, 1, True, lambda v: replace(GATE, decoherence_factor=v)
    ),
    "NoisyAmplitudeModel-path_phase_variance": (
        1.0, 0, None, False, lambda v: NoisyAmplitudeModel(SHOR, v)
    ),
    "runtime_scaling-path_phase_variance": (
        1.0, 0, None, False, lambda v: runtime_scaling([SHOR], [v])
    ),
    "dft_phase_variance-sigma2": (
        1.0, 0, None, False,
        lambda v: dft_phase_variance(8, 1.0, v, 0.01, 1.0, 1.0),
    ),
    "gqc_onset-coupling": (
        1.0, 0, None, True, lambda v: gqc_onset(1.0, 1.0, 0.01, 1.0, 8, v, 1.0)
    ),
}

#: argument -> (valid value, minimum, maximum, call), named as in REALS
COUNTS = {
    "NoiseSpec-dimension": (1, 1, None, lambda v: NoiseSpec(1.0, 0.1, v)),
    "split_seed-master_seed": (0, 0, 2**64 - 1, lambda v: split_seed(v, 0)),
    "split_seed-index": (0, 0, 2**64 - 1, lambda v: split_seed(0, v)),
    "ControlSchedule-cycles": (
        1, 1, None, lambda v: ControlSchedule(1.0, 1.0, 1.0, v)
    ),
    "QubitHamiltonian-qubit_count": (
        1, 1, 2, lambda v: QubitHamiltonian(1.0, SCHEDULE, qubit_count=v)
    ),
    "QubitHamiltonian.level_coupling-dimension": (
        1, 1, None, lambda v: H.level_coupling(0, v)
    ),
    "evolve_exact_batch-slices": (
        10, 1, None,
        lambda v: evolve_exact_batch([H], GRID, PATHS, (1.0, 0.0), v, 1.0),
    ),
    "variance_analytic-eta": (
        1, 1, None, lambda v: variance_analytic(v, 1.0, 1.0, 1.0)
    ),
    "overlap_integral-dimension": (
        1, 1, None, lambda v: overlap_integral(H, 0.1, (0, 1), v)
    ),
    "find_period-modulus": (15, 1, 2**16, lambda v: find_period(v, 7)),
    "find_period-base": (7, None, None, lambda v: find_period(15, v)),
    "ShorInstance.build-base": (7, None, None, lambda v: ShorInstance.build(15, v)),
    "ShorInstance.build-offset": (
        0, None, None, lambda v: ShorInstance.build(15, 7, offset=v)
    ),
    "choose_q-modulus": (15, 3, None, choose_q),
    "euler_phi-r": (4, 1, None, euler_phi),
    "ShorInstance-modulus": (15, 3, 2**16, lambda v: _shor(modulus=v)),
    "ShorInstance-base": (7, None, None, lambda v: _shor(base=v)),
    "ShorInstance-period": (4, None, None, lambda v: _shor(period=v)),
    "ShorInstance-register_size": (
        256, None, None, lambda v: _shor(register_size=v)
    ),
    "ShorInstance-bits": (8, None, None, lambda v: _shor(bits=v)),
    "ShorInstance-offset": (0, 0, 3, lambda v: _shor(offset=v)),
    "dft_phase_variance-bits": (
        8, 2, None, lambda v: dft_phase_variance(v, 1.0, 1.0, 0.01, 1.0, 1.0)
    ),
    "gqc_onset-bits": (
        8, 2, None, lambda v: gqc_onset(1.0, 1.0, 0.01, 1.0, v, 1.0, 1.0)
    ),
}


@pytest.mark.parametrize("entry", REALS)
def test_every_real_is_a_finite_number_in_its_range(entry):
    """NaN, +-inf, an integer beyond the float range and a value out of
    range are refused with a ValueError, a bool or a string with a
    TypeError, each naming the argument; the valid value, also as a numpy
    float, is accepted."""
    valid, minimum, maximum, strict, call = REALS[entry]
    name = entry.rsplit("-", 1)[1]
    refused = [np.nan, np.inf, -np.inf, 10**400, -(10**400)]
    if minimum is not None:
        refused.append(minimum if strict else minimum - 1)
    if maximum is not None:
        refused.append(maximum + 1)
    for value in refused:
        with pytest.raises(ValueError, match=f"^{name} must (be finite|lie in)"):
            call(value)
    for value in (True, "1"):
        with pytest.raises(TypeError, match=f"^{name} must be a real number, got"):
            call(value)
    call(valid)
    call(np.float64(valid))


@pytest.mark.parametrize("entry", COUNTS)
def test_every_count_is_an_integer_in_its_range(entry):
    """A float, a whole float, NaN or a bool is refused with a TypeError,
    and an integer out of range or beyond the float range with a
    ValueError, each naming the argument; the valid value, also as a numpy
    integer, is accepted."""
    valid, minimum, maximum, call = COUNTS[entry]
    name = entry.rsplit("-", 1)[1]
    for value in (valid + 0.5, float(valid), np.nan, True):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got"):
            call(value)
    refused = [10**400, -(10**400)] + ([] if minimum is None else [minimum - 1])
    if maximum is not None:
        refused.append(maximum + 1)
    for value in refused:
        with pytest.raises(ValueError, match=f"^{name} must be (>=|in|finite)"):
            call(value)
    call(valid)
    call(np.int64(valid))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: NoiseSpec(10**400, 0.1),
            "variance must be finite and >= 0, got inf",
        ),
        (
            lambda: ControlSchedule(1.0, -(10**400), 1.0),
            "cone_angle must lie in [0, pi], got -inf",
        ),
        (
            lambda: ControlSchedule(1.0, 1.0, 1.0, 10**400),
            "cycles must be finite, got inf",
        ),
        (
            lambda: split_seed(10**400, 0),
            f"master_seed must be in [0, {2**64 - 1}], got inf",
        ),
    ],
    ids=["real", "real-in-an-interval", "count", "count-in-an-interval"],
)
def test_a_number_beyond_the_float_range_is_shown_as_inf(call, message):
    """An integer beyond the float range is echoed as the inf or -inf that
    it rounds to, not digit by digit."""
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_a_nan_amplitude_is_refused():
    """The norm test is written so that NaN fails it: a NaN amplitude would
    run to a NaN density."""
    with pytest.raises(ValueError, match="^initial_amplitudes must satisfy"):
        EnsembleConfig(H, SPEC, (np.nan, 1.0), 2)


def test_a_spinor_that_is_not_finite_is_refused():
    with pytest.raises(ValueError, match="^psi0 must be normalized"):
        evolve_exact_batch([H], GRID, PATHS, (np.nan, 1.0), 10, 1.0)
