"""Noisy-Shor amplitude model: period finding through a noisy DFT.

Factoring N reduces to finding the multiplicative order r of y mod N.  The
quantum core prepares |psi0> = (A+1)^{-1/2} sum_{j=0..A} |jr + l> on an
L-bit register of size q (N^2 <= q <= 2 N^2, q a power of two) and applies
the DFT mod q.  With noisy controlled-phase gates each path j picks up a
stochastic phase, so the measured amplitude is

    f(c) = (1 / sqrt((A+1) q)) sum_j exp[ (2 pi i / q)(j r + l) c + i G_j ],

with G_j i.i.d. normal(0, v).  (A single per-outcome phase cannot
reproduce the pairwise decoherence factors of the averaged probability;
per-path i.i.d. phases are the minimal model that does.)  The noise
average is then

    P(c) = <|f(c)|^2> = 1/q + (2 /((A+1) q)) sum_{k<j} cos[2 pi (j-k) (r c mod q)/q] e^{-v},

which interpolates between the noiseless interference pattern (v = 0) and
the flat distribution 1/q (v -> infinity).  A measurement succeeds when
its outcome c sits in the constructive window |r c - c' q| <= r/2 of some
c' that is less than and co-prime with r; strong noise therefore drives
the success probability to phi(r)/q ~ 1/(N log N) and the expected number
of repetitions grows exponentially in log N.  Each window holds exactly
one outcome, so the accounting enumerates phi(r) outcomes, not all q; the
exhaustive O(q) accounting, the literal DFT and a Monte Carlo over the path
phases are test oracles.

The order r is found from the prime factors of phi(N), the group order
(``find_period``), and checked against r's own primes; the residues
co-prime with r come from one numpy sieve.  An instance thus costs
O(sqrt N) integer steps plus one O(r) sieve.

The DFT on L qubits costs L(L-1)/2 controlled-phase gates; each gate
contributes the four-segment overlap sum of the geometric gate, giving the
variance v and the onset condition implemented here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ensemble import ONSET_VARIANCE, variance_analytic
from .errors import _check_count, _check_real
from .gate import _bell_overlap_limit, gate_onset_ratio

__all__ = [
    "ShorInstance",
    "NoisyAmplitudeModel",
    "SuccessReport",
    "find_period",
    "choose_q",
    "euler_phi",
    "dft_phase_variance",
    "prob_averaged",
    "success_probability",
    "runtime_scaling",
    "gqc_onset",
]

#: largest modulus: q <= 2^33 keeps r c and c' q within int64
MAX_MODULUS = 2**16


def _prime_factors(n: int) -> tuple:
    """The distinct primes of ``n``, ascending, by trial division: O(sqrt n)."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


def find_period(modulus: int, base: int) -> int:
    """Multiplicative order of ``base`` mod ``modulus`` from the group order.

    The order divides phi(N): starting from r = phi(N), each prime p of
    phi(N) is divided out of r while base^(r/p) = 1 (mod N) (Cohen, A Course
    in Computational Algebraic Number Theory, 1993, Alg. 1.4.3).  That is
    O(sqrt N) trial divisions and O(log^2 N) modular multiplications.
    """
    modulus = _check_count(modulus, "modulus", 1, MAX_MODULUS)
    base = _check_count(base, "base")
    if math.gcd(base, modulus) != 1:
        raise ValueError(f"base {base} is not co-prime with modulus {modulus}")
    r = euler_phi(modulus)  # phi(1) = 1: every base has order 1 mod 1
    for p in _prime_factors(r):
        while r % p == 0 and pow(base, r // p, modulus) == 1:
            r //= p
    return r


def choose_q(modulus: int):
    """Smallest power of two q with N^2 <= q <= 2 N^2, and L = log2 q."""
    modulus = _check_count(modulus, "modulus", 3)
    q = 1 << (modulus * modulus - 1).bit_length()
    return q, q.bit_length() - 1


def euler_phi(r: int) -> int:
    """Count of integers 1 <= m < r co-prime with r, phi(1) = 1: the
    product r prod_p (1 - 1/p) over the primes p of r."""
    _check_count(r, "r", 1)
    for p in _prime_factors(r):
        r -= r // p
    return r


@dataclass(frozen=True)
class ShorInstance:
    """Number-theoretic context of one period-finding run."""

    modulus: int
    base: int
    period: int
    register_size: int
    bits: int
    offset: int = 0

    def __post_init__(self):
        _check_count(self.modulus, "modulus", 3, MAX_MODULUS)
        for name in ("modulus", "base", "period", "register_size", "bits", "offset"):
            object.__setattr__(self, name, _check_count(getattr(self, name), name))
        n, y, r, q = self.modulus, self.base, self.period, self.register_size
        L, l = self.bits, self.offset
        if math.gcd(y, n) != 1:
            raise ValueError(f"base {y} not co-prime with modulus {n}")
        # the order is the r < N with y^r = 1 and y^(r/p) != 1 for each prime p | r
        if not 0 < r < n or pow(y, r, n) != 1 or any(
            pow(y, r // p, n) == 1 for p in _prime_factors(r)
        ):
            raise ValueError(f"{r} is not the multiplicative order of {y} mod {n}")
        if q != 1 << L or not n * n <= q <= 2 * n * n:
            raise ValueError(f"register size {q} invalid for modulus {n}")
        _check_count(l, "offset", 0, r - 1)

    @classmethod
    def build(cls, modulus: int, base: int, offset: int = 0) -> "ShorInstance":
        r = find_period(modulus, base)
        q, L = choose_q(modulus)
        return cls(modulus, base, r, q, L, _check_count(offset, "offset") % r)

    @property
    def path_count(self) -> int:
        """A + 1: number of register states |j r + l> below q."""
        return (self.register_size - 1 - self.offset) // self.period + 1

    @property
    def gate_count(self) -> int:
        """Controlled-phase gates in the DFT: L(L-1)/2."""
        return self.bits * (self.bits - 1) // 2


@dataclass(frozen=True)
class NoisyAmplitudeModel:
    """Eq.-of-motion-free amplitude model of the noisy DFT output (A+1 paths)."""

    instance: ShorInstance
    path_phase_variance: float

    def __post_init__(self):
        v = _check_real(self.path_phase_variance, "path_phase_variance", 0)
        object.__setattr__(self, "path_phase_variance", v)


@dataclass(frozen=True)
class SuccessReport:
    """The period-finding success budget and the outcomes that make it up."""

    success_probability: float
    runs_needed: float
    regime: str
    success_outcomes: tuple
    degenerate: bool = False


def dft_phase_variance(
    bits: int,
    coupling: float,
    sigma2: float,
    correlation_time: float,
    period: float,
    cone_angle: float,
    overlap_sum: Optional[float] = None,
) -> float:
    """Stochastic phase variance of the full DFT: L(L-1)/2 gates' worth.

    ``variance_analytic`` at eta = L(L-1)/2: the gates see independent
    noise (tau_c << T).  Pass ``overlap_sum`` to use one gate's exact
    whole-window overlap (``gate_overlap_sum``), otherwise the rf-noise
    limit 32 tau_c T sin^2(theta_0), valid for tau_c << T, is used.
    """
    _check_count(bits, "bits", 2)
    limit = _bell_overlap_limit(correlation_time, period, cone_angle)
    overlap = limit if overlap_sum is None else overlap_sum
    return variance_analytic(bits * (bits - 1) // 2, coupling, sigma2, overlap)


def prob_averaged(model: NoisyAmplitudeModel, c) -> np.ndarray:
    """Noise-averaged measurement probability P(c) = <|f(c)|^2>.

    P(c) = 1/q + (2/(M q)) sum_{k<j} cos[2 pi (j-k)(r c mod q)/q] e^{-v},
    with M = A+1 paths; the pair sum is evaluated in closed form through
    |sum_j e^{i a j}|^2 = M + 2 sum_{k<j} cos a(j-k).  Scalar in, scalar
    out; arrays map elementwise.  The outcomes c must be integers in
    [0, q): TypeError for any other dtype, ValueError out of range.
    """
    inst = model.instance
    q, r, m = inst.register_size, inst.period, inst.path_count
    c_arr = np.asarray(c)
    if not np.issubdtype(c_arr.dtype, np.integer):
        raise TypeError(f"c must be integer outcomes, got dtype {c_arr.dtype}")
    c_arr = c_arr.astype(np.int64, copy=False)  # q <= 2^33 and r c < 2^49
    if np.any((c_arr < 0) | (c_arr >= q)):
        raise ValueError(f"c must be in [0, {q})")
    rc = (r * c_arr) % q
    a = 2.0 * np.pi * rc / q
    with np.errstate(invalid="ignore", divide="ignore"):
        s2 = np.where(
            rc == 0,  # a = 0 exactly; every other a is >= 2 pi / q
            float(m) ** 2,
            (np.sin(m * a / 2.0) / np.sin(a / 2.0)) ** 2,
        )
    damping = np.exp(-model.path_phase_variance)
    p = (m + (s2 - m) * damping) / (m * q)
    return p if p.ndim else float(p)


def _useful_outcomes(inst: ShorInstance) -> np.ndarray:
    """The outcomes c = round(c' q / r) for the c' in [1, r) co-prime with
    r, ascending: one sieve over [0, r) strikes out 0 and the multiples of
    r's primes, and its int64 indices are the c' (none for r = 1).

    The window |r c - c' q| <= r/2 is |c - c' q / r| <= 1/2, and c' q / r is
    never a half-integer (that needs r = 2q, but r < N <= sqrt(q)), so each
    window holds exactly round(c' q / r); as q > r, its nearest c' is c'.
    """
    q, r = inst.register_size, inst.period
    keep = np.ones(r, dtype=bool)
    keep[0] = False
    for p in _prime_factors(r):
        keep[::p] = False
    c_prime = np.flatnonzero(keep).astype(np.int64, copy=False)
    return (2 * c_prime * q + r) // (2 * r)


def success_probability(model: NoisyAmplitudeModel) -> SuccessReport:
    """Total probability that one run reveals the period.

    Sums P(c), in ascending c, over the O(r) constructive outcomes whose c'
    is less than and co-prime with r; the full distribution is
    ``prob_averaged(model, np.arange(q))``.  r = 1 has no valid c' at all
    and is flagged degenerate with zero success probability.
    """
    inst = model.instance
    v = model.path_phase_variance
    regime = "noiseless" if v == 0 else "partial" if v < ONSET_VARIANCE else "decohered"
    c_good = _useful_outcomes(inst)
    p_suc = float(np.sum(prob_averaged(model, c_good)))
    runs = 1.0 / p_suc if p_suc > 0 else float("inf")
    return SuccessReport(
        success_probability=p_suc,
        runs_needed=runs,
        regime=regime,
        success_outcomes=tuple(c_good.tolist()),
        degenerate=inst.period == 1,
    )


def runtime_scaling(instances: Sequence[ShorInstance], variances: Sequence[float]):
    """Expected repetitions per instance: rows of the efficiency table.

    Each row carries (N, log2 N, r, q, L, v, P_suc, runs_needed, regime);
    rows with zero success probability report infinite runs and are
    flagged.  In the decohered regime runs_needed approaches q / phi(r),
    i.e. exponential growth in log N.
    """
    if len(instances) != len(variances):
        raise ValueError("need one variance per instance")
    rows = []
    for inst, v in zip(instances, variances):
        model = NoisyAmplitudeModel(instance=inst, path_phase_variance=v)
        report = success_probability(model)
        rows.append(
            {
                "modulus": inst.modulus,
                "base": inst.base,
                "log2_modulus": math.log2(inst.modulus),
                "period": inst.period,
                "register_size": inst.register_size,
                "bits": inst.bits,
                "variance_rad2": model.path_phase_variance,
                "success_probability": report.success_probability,
                "runs_needed": report.runs_needed,
                "regime": report.regime,
                "flagged": report.degenerate or report.success_probability == 0.0,
            }
        )
    return rows


def gqc_onset(
    power_density: float,
    bandwidth: float,
    correlation_time: float,
    period: float,
    bits: int,
    coupling: float,
    cone_angle: float,
) -> float:
    """Decoherence-onset ratio for the whole DFT on a geometric computer.

    ratio = (P/V)(tau_c/d_omega) * T L(L-1) gamma^2 sin^2(theta_0) / pi^2:
    ``gate_onset_ratio`` at eta = L(L-1)/2, which is the rf-limit
    ``dft_phase_variance`` over ONSET_VARIANCE; values >= 1 signal
    decoherence.
    """
    _check_count(bits, "bits", 2)
    _check_real(coupling, "coupling", 0, strict=True)
    if np.sin(cone_angle) == 0:
        raise ValueError("cone_angle must have nonzero sin(theta_0)")
    eta = bits * (bits - 1) // 2
    return gate_onset_ratio(
        power_density, bandwidth, coupling, eta, correlation_time, period, cone_angle
    )
