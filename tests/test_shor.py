"""Number theory, noisy DFT amplitudes, and efficiency-scaling tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqclab import (
    NoisyAmplitudeModel,
    ResourceLimitError,
    ShorInstance,
    choose_q,
    dft_phase_variance,
    euler_phi,
    find_period,
    gqc_onset,
    prob_averaged,
    runtime_scaling,
    shor,
    success_probability,
)
from gqclab.shor import _prime_factors

from conftest import coprime_residues

ONSET_V = 4 * np.pi**2


def exhaustive_probabilities(inst):
    """Oracle: DFT the literally prepared register state and square it."""
    q, r, l = inst.register_size, inst.period, inst.offset
    psi = np.zeros(q, dtype=complex)
    psi[np.arange(inst.path_count) * r + l] = 1.0 / np.sqrt(inst.path_count)
    return np.abs(np.fft.fft(psi) / np.sqrt(q)) ** 2


def test_find_period_examples():
    assert find_period(15, 7) == 4
    assert find_period(21, 2) == 6
    assert find_period(15, 1) == 1
    with pytest.raises(ValueError):
        find_period(15, 3)  # gcd(3, 15) = 3


def test_every_base_has_order_1_modulo_1():
    # x = y mod 1 = 0 = 1 mod 1 from the start: the loop must not look for x = 1
    assert [find_period(1, y) for y in (0, 1, 2, 7)] == [1, 1, 1, 1]


def brute_force_order(n, y):
    """Oracle: the first r >= 1 with y^r = 1 mod n, one product at a time."""
    x, r = y % n, 1
    while x != 1 % n:
        x, r = x * y % n, r + 1
    return r


def test_find_period_is_the_brute_force_order_for_small_moduli():
    for n in range(2, 301):
        for y in range(n):
            if math.gcd(y, n) == 1:
                assert find_period(n, y) == brute_force_order(n, y), (n, y)


@pytest.mark.parametrize(
    "n, y, r",
    [(65521, 17, 65520), (65519, 3, 32759), (65535, 2, 16)],
    ids=["prime-primitive-root", "prime-half-order", "composite-small-order"],
)
def test_find_period_at_the_largest_moduli(n, y, r):
    assert find_period(n, y) == r
    assert pow(y, r, n) == 1
    assert all(pow(y, r // p, n) != 1 for p in _prime_factors(r))


def test_prime_factors_are_the_distinct_primes():
    assert [_prime_factors(k) for k in (1, 2, 12, 97, 65520, 65535)] == [
        (), (2,), (2, 3), (97,), (2, 3, 5, 7, 13), (3, 5, 17, 257)
    ]


def test_find_period_makes_few_modular_powers(monkeypatch):
    # the module global shadows the builtin, so every pow of shor.py is counted
    calls = []

    def counted(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(shor, "pow", counted, raising=False)
    inst = ShorInstance.build(65521, 17)
    assert inst.period == 65520
    assert 0 < len(calls) <= 40  # r = 65520 powers when checked one by one


@given(st.integers(min_value=2, max_value=200), st.integers(min_value=2, max_value=200))
@settings(max_examples=60, deadline=None)
def test_find_period_is_the_multiplicative_order(n, y):
    if math.gcd(y, n) != 1:
        return
    r = find_period(n, y)
    assert pow(y, r, n) == 1
    assert all(pow(y, s, n) != 1 for s in range(1, r))


def test_choose_q_examples():
    assert choose_q(15) == (256, 8)
    assert choose_q(21) == (512, 9)
    assert choose_q(4) == (16, 4)


@given(st.integers(min_value=3, max_value=2**8))
@settings(max_examples=60, deadline=None)
def test_choose_q_window(n):
    q, bits = choose_q(n)
    assert n * n <= q <= 2 * n * n
    assert q == 1 << bits


def test_euler_phi_examples_and_coprimes():
    assert euler_phi(1) == 1
    assert euler_phi(4) == 2
    assert euler_phi(12) == 4
    assert coprime_residues(4) == (1, 3)
    assert coprime_residues(12) == (1, 5, 7, 11)
    assert coprime_residues(1) == ()


@given(st.integers(min_value=2, max_value=500))
@settings(max_examples=60, deadline=None)
def test_euler_phi_counts_coprimes(r):
    assert euler_phi(r) == len(coprime_residues(r))


def test_coprime_residues_and_euler_phi_are_the_gcd_definition():
    for r in [*range(1, 401), 65520]:
        residues = tuple(m for m in range(1, r) if math.gcd(m, r) == 1)
        assert coprime_residues(r) == residues, r
        assert euler_phi(r) == (len(residues) or 1), r
    assert all(type(m) is int for m in coprime_residues(30))
    for r in (0, -3):
        with pytest.raises(ValueError):
            coprime_residues(r)
        with pytest.raises(ValueError):
            euler_phi(r)


def test_instance_invariants():
    inst = ShorInstance.build(15, 7)
    assert (inst.period, inst.register_size, inst.bits) == (4, 256, 8)
    assert inst.path_count * inst.period + inst.offset >= inst.register_size
    assert (inst.path_count - 1) * inst.period + inst.offset < inst.register_size
    with pytest.raises(ValueError):
        ShorInstance(15, 7, 3, 256, 8)  # wrong period
    with pytest.raises(ValueError):
        ShorInstance(15, 7, 4, 128, 7)  # register too small


@pytest.mark.parametrize(
    "n, y", [(15, 7), (21, 2), (1023, 2), (2047, 2), (65535, 2), (65519, 3)]
)
def test_instance_refuses_a_multiple_or_divisor_of_the_order(n, y):
    inst = ShorInstance.build(n, y)
    q, L, r = inst.register_size, inst.bits, inst.period
    wrong = [r // p for p in _prime_factors(r)] + [r * p for p in (2, 3, 5, 7)]
    for s in wrong + [0, -r, n]:
        with pytest.raises(ValueError, match="multiplicative order"):
            ShorInstance(n, y, s, q, L)


def test_amplitude_noiseless_peaks_and_nulls():
    inst = ShorInstance.build(15, 7)  # r = 4 divides q = 256
    model = NoisyAmplitudeModel(instance=inst, path_phase_variance=0.0)
    # constructive c: r c = 0 mod q -> |f|^2 = 1/r
    peak = prob_averaged(model, 64)
    assert abs(peak - 1.0 / inst.period) < 1e-12
    # destructive c: r c = q/2 mod q -> cancelling roots of unity
    null = prob_averaged(model, 32)
    assert null < 1e-12


@pytest.mark.parametrize("pair", [(15, 7), (21, 2)])
def test_prob_averaged_matches_exhaustive_oracle(pair):
    inst = ShorInstance.build(*pair)
    model = NoisyAmplitudeModel(instance=inst, path_phase_variance=0.0)
    p = prob_averaged(model, np.arange(inst.register_size))
    assert np.max(np.abs(p - exhaustive_probabilities(inst))) < 1e-12


@pytest.mark.parametrize("v", [0.0, 0.5, ONSET_V])
@pytest.mark.parametrize("n, y, offset", [(15, 7, 0), (21, 2, 5), (51, 2, 3), (63, 2, 0)])
def test_prob_averaged_branch_is_the_float_angle_test(
    n, y, offset, v, prob_averaged_float_branch
):
    # every nonzero angle is >= 2 pi / q, far above the float test's 1e-12
    inst = ShorInstance.build(n, y, offset)
    model = NoisyAmplitudeModel(instance=inst, path_phase_variance=v)
    c = np.arange(inst.register_size)
    got = prob_averaged(model, c)
    assert np.array_equal(got, prob_averaged_float_branch(model, c))
    assert [prob_averaged(model, int(k)) for k in c[:: inst.period]] == list(
        got[:: inst.period]
    )


def test_prob_averaged_refuses_non_integer_outcomes():
    model = NoisyAmplitudeModel(instance=ShorInstance.build(15, 7), path_phase_variance=0.0)
    for c in (1.0, 0.5, np.array([0.0, 64.0]), [1, 2.5], np.array([True])):
        with pytest.raises(TypeError, match="integer"):
            prob_averaged(model, c)
    assert prob_averaged(model, np.int32(64)) == prob_averaged(model, 64)


def test_prob_averaged_takes_narrow_integer_outcomes():
    # q = 2^32 fits no 32-bit integer, and r c reaches 2^47
    model = NoisyAmplitudeModel(ShorInstance.build(65521, 17), path_phase_variance=0.5)
    c = np.array([0, 1, 2**20 + 3, 2**31 - 1], dtype=np.int64)
    want = prob_averaged(model, c)
    for dtype in (np.int32, np.uint32):
        assert np.array_equal(prob_averaged(model, c.astype(dtype)), want)
    with pytest.raises(ValueError):
        prob_averaged(model, np.array([2**64 - 1], dtype=np.uint64))


@pytest.mark.parametrize("v", [0.0, 0.5, 2.0, 8.0, ONSET_V])
def test_prob_averaged_normalized(v):
    inst = ShorInstance.build(21, 2)
    model = NoisyAmplitudeModel(instance=inst, path_phase_variance=v)
    p = prob_averaged(model, np.arange(inst.register_size))
    assert abs(p.sum() - 1.0) < 1e-9
    assert np.all(p >= 0)


def test_prob_averaged_flattens_at_large_v():
    inst = ShorInstance.build(15, 7)
    model = NoisyAmplitudeModel(instance=inst, path_phase_variance=50.0)
    p = prob_averaged(model, np.arange(inst.register_size))
    assert np.max(np.abs(p - 1.0 / inst.register_size)) < 1e-12


def test_amplitude_mc_matches_closed_form(amplitude_mc):
    inst = ShorInstance.build(15, 7)
    model = NoisyAmplitudeModel(instance=inst, path_phase_variance=1.0)
    c_values = np.arange(0, 256, 8)
    mean, se = amplitude_mc(model, c_values, n_samples=20_000, master_seed=3)
    p = prob_averaged(model, c_values)
    assert np.all(se > 0)
    assert np.all(np.abs(mean - p) < 3 * se)


def test_amplitude_mc_refuses_work_above_the_element_bound(amplitude_mc):
    inst = ShorInstance.build(65519, 2)  # q = 2^32, r = 32759: 131,110 paths
    model = NoisyAmplitudeModel(instance=inst, path_phase_variance=1.0)
    with pytest.raises(ResourceLimitError, match="amplitude_mc"):
        amplitude_mc(model, [0, 1], n_samples=10, master_seed=0)


def test_success_probability_noiseless_and_coprime_accounting():
    inst = ShorInstance.build(15, 7)
    model = NoisyAmplitudeModel(instance=inst, path_phase_variance=0.0)
    report = success_probability(model)
    assert report.regime == "noiseless"
    # success outcomes are exactly the c nearest c' q / r for co-prime c'
    q, r = inst.register_size, inst.period
    expected = tuple(
        int(round(cp * q / r)) for cp in coprime_residues(r)
    )
    assert report.success_outcomes == expected
    # exact-divisor peaks carry 1/r each: P_suc = phi(r)/r
    assert abs(report.success_probability - euler_phi(r) / r) < 1e-12
    assert abs(sum(prob_averaged(model, np.arange(q))) - 1.0) < 1e-9


#: every co-prime (N, y) with 3 <= N <= 64, and the benchmark's scan moduli
ORACLE_PAIRS = [
    (n, y) for n in range(3, 65) for y in range(1, n) if math.gcd(n, y) == 1
] + [(n, 2) for n in (1023, 1517, 2021, 2047)]


@pytest.mark.parametrize("pair", ORACLE_PAIRS, ids=str)
def test_success_accounting_matches_exhaustive_oracle(pair, constructive_outcomes):
    inst = ShorInstance.build(*pair)
    model = NoisyAmplitudeModel(instance=inst, path_phase_variance=0.5)
    report = success_probability(model)
    oracle, _ = constructive_outcomes(inst)
    assert report.success_outcomes == tuple(int(c) for c in oracle)
    p = prob_averaged(model, np.arange(inst.register_size))
    assert report.success_probability == float(np.sum(p[oracle]))


def test_success_probability_decohered_limit():
    for n, y in ((15, 7), (21, 2), (33, 2), (51, 2)):
        inst = ShorInstance.build(n, y)
        model = NoisyAmplitudeModel(instance=inst, path_phase_variance=ONSET_V)
        report = success_probability(model)
        assert report.regime == "decohered"
        target = euler_phi(inst.period) / inst.register_size
        assert abs(report.success_probability - target) < 0.10 * target


def test_success_probability_monotone_in_v():
    inst = ShorInstance.build(15, 7)
    values = [
        success_probability(
            NoisyAmplitudeModel(instance=inst, path_phase_variance=v)
        ).success_probability
        for v in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, ONSET_V)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_degenerate_period_one():
    inst = ShorInstance.build(15, 1)
    report = success_probability(
        NoisyAmplitudeModel(instance=inst, path_phase_variance=0.0)
    )
    assert report.degenerate
    assert report.success_probability == 0.0
    assert report.runs_needed == float("inf")
    assert report.success_outcomes == ()


def test_runtime_scaling_rows():
    pairs = [(15, 7), (21, 2), (33, 2), (51, 2)]
    instances = [ShorInstance.build(n, y) for n, y in pairs]
    rows = runtime_scaling(instances, [ONSET_V] * 4)
    for row, inst in zip(rows, instances):
        assert row["regime"] == "decohered"
        assert not row["flagged"]
        # runs_needed * phi(r)/q = 1 within 10%
        ratio = row["runs_needed"] * euler_phi(inst.period) / inst.register_size
        assert abs(ratio - 1.0) < 0.10
    noiseless = runtime_scaling(instances, [0.0] * 4)
    for row in noiseless:
        assert row["regime"] == "noiseless"
        assert row["runs_needed"] < 10  # O(1), bounded by phi(r)/r losses
    with pytest.raises(ValueError):
        runtime_scaling(instances, [0.0])


def test_dft_phase_variance_gate_counting():
    base = dft_phase_variance(2, 1.0, 1.0, 0.01, 1.0, np.pi / 2)
    assert np.isclose(dft_phase_variance(8, 1.0, 1.0, 0.01, 1.0, np.pi / 2), 28 * base)
    # explicit overlap sum bypasses the closed form
    assert dft_phase_variance(2, 2.0, 3.0, 0.01, 1.0, 0.0, overlap_sum=1.0) == 3.0
    with pytest.raises(ValueError):
        dft_phase_variance(1, 1.0, 1.0, 0.01, 1.0, 1.0)


def test_gqc_onset_identity_and_scaling():
    gamma, sigma2, tau_c, period, bits, theta = 1.3, 0.7, 0.02, 1.5, 8, 1.1
    bandwidth = 2.0
    v = dft_phase_variance(bits, gamma, sigma2, tau_c, period, theta)
    ratio = gqc_onset(
        sigma2 * bandwidth, bandwidth, tau_c, period, bits, gamma, theta
    )
    assert abs(ratio - v / ONSET_V) < 1e-12
    # L doubled at large L: ratio ~ x4
    big = gqc_onset(
        sigma2 * bandwidth, bandwidth, tau_c, period, 2 * bits, gamma, theta
    )
    assert abs(big / ratio - (2 * bits) * (2 * bits - 1) / (bits * (bits - 1))) < 1e-12
    with pytest.raises(ValueError):
        gqc_onset(1.0, 0.0, tau_c, period, bits, gamma, theta)
