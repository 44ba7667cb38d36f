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
of repetitions grows exponentially in log N.

The DFT on L qubits costs L(L-1)/2 controlled-phase gates; each gate
contributes the four-segment overlap sum of the geometric gate, giving the
variance v and the onset condition implemented here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
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
]

#: exhaustive classical oracles are O(q) = O(N^2); keep N desk-scale
MAX_MODULUS = 2**16

#: Bell-pair overlap sum in the limit tau_c << T is 32 tau_c T sin^2(theta_0);
#: the generic DFT gate uses the same constant so the onset condition is an
#: exact identity.
DEFAULT_OVERLAP_CONSTANT = 32.0

ONSET_VARIANCE = 4.0 * np.pi**2


def find_period(modulus: int, base: int) -> int:
    """Multiplicative order of ``base`` mod ``modulus`` by brute force."""
    if modulus < 1 or modulus > MAX_MODULUS:
        raise ValueError(f"modulus must be in [1, {MAX_MODULUS}], got {modulus}")
    if math.gcd(base, modulus) != 1:
        raise ValueError(f"base {base} is not co-prime with modulus {modulus}")
    x = base % modulus
    r = 1
    while x != 1:
        x = (x * base) % modulus
        r += 1
        if r > modulus:
            raise RuntimeError("order exceeded modulus; arithmetic error")
    return r


def choose_q(modulus: int):
    """Smallest power of two q with N^2 <= q <= 2 N^2, and L = log2 q."""
    if modulus < 3:
        raise ValueError(f"modulus must be >= 3, got {modulus}")
    q = 1 << (modulus * modulus - 1).bit_length()
    return q, q.bit_length() - 1


def euler_phi(r: int) -> int:
    """Count of integers 1 <= m < r co-prime with r; phi(1) = 1."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if r == 1:
        return 1
    return sum(1 for m in range(1, r) if math.gcd(m, r) == 1)


def coprime_residues(r: int) -> tuple:
    """The residues m < r with gcd(m, r) = 1 (empty for r = 1 by convention)."""
    return tuple(m for m in range(1, r) if math.gcd(m, r) == 1)


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
        n, y, r, q, L, l = (
            self.modulus,
            self.base,
            self.period,
            self.register_size,
            self.bits,
            self.offset,
        )
        if math.gcd(y, n) != 1:
            raise ValueError(f"base {y} not co-prime with modulus {n}")
        if pow(y, r, n) != 1 or any(pow(y, s, n) == 1 for s in range(1, r)):
            raise ValueError(f"{r} is not the multiplicative order of {y} mod {n}")
        if q != 1 << L or not n * n <= q <= 2 * n * n:
            raise ValueError(f"register size {q} invalid for modulus {n}")
        if not 0 <= l < r:
            raise ValueError(f"offset must be in [0, period), got {l}")

    @classmethod
    def build(cls, modulus: int, base: int, offset: int = 0) -> "ShorInstance":
        r = find_period(modulus, base)
        q, L = choose_q(modulus)
        return cls(modulus, base, r, q, L, offset % r)

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
    """Eq.-of-motion-free amplitude model of the noisy DFT output.

    mode 'exact_divisor' insists r | q (the textbook interference sum);
    'general' allows any instance, using A+1 paths.
    """

    instance: ShorInstance
    path_phase_variance: float
    mode: str = "general"

    def __post_init__(self):
        if self.path_phase_variance < 0:
            raise ValueError("path_phase_variance must be >= 0")
        if self.mode not in ("exact_divisor", "general"):
            raise ValueError(f"unknown mode {self.mode!r}")
        inst = self.instance
        if self.mode == "exact_divisor" and inst.register_size % inst.period:
            raise ValueError(
                f"exact_divisor mode needs period | register size, got "
                f"{inst.period} and {inst.register_size}"
            )

    @property
    def eta(self) -> int:
        return self.instance.gate_count


@dataclass(frozen=True)
class SuccessReport:
    """Per-outcome probabilities and the period-finding success budget."""

    p_of_c: np.ndarray
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
    overlap_constant: float = DEFAULT_OVERLAP_CONSTANT,
) -> float:
    """Stochastic phase variance of the full DFT: L(L-1)/2 gates' worth.

    Each gate contributes the four-segment overlap sum; pass ``overlap_sum``
    to use an exact one (``gate_overlap_sum``), otherwise the rf-noise
    limit overlap_constant * tau_c * T * sin^2(theta_0), valid for
    tau_c << T, is used.
    """
    if bits < 2:
        raise ValueError(f"bits must be >= 2, got {bits}")
    if min(coupling, sigma2, correlation_time, period) < 0:
        raise ValueError("gate parameters must be >= 0")
    if overlap_sum is None:
        overlap_sum = (
            overlap_constant * correlation_time * period * np.sin(cone_angle) ** 2
        )
    eta = bits * (bits - 1) // 2
    return eta * coupling**2 * sigma2 * overlap_sum / 4.0


def _path_phases(model: NoisyAmplitudeModel, c) -> np.ndarray:
    inst = model.instance
    j = np.arange(inst.path_count)
    return (
        2.0
        * np.pi
        / inst.register_size
        * (j * inst.period + inst.offset)
        * np.asarray(c)[..., None]
    )


def amplitude_sample(model: NoisyAmplitudeModel, c: int, seed: int) -> complex:
    """One stochastic realization of the output amplitude f(c)."""
    inst = model.instance
    if not 0 <= c < inst.register_size:
        raise ValueError(f"c must be in [0, {inst.register_size}), got {c}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    gamma = rng.normal(
        0.0, np.sqrt(model.path_phase_variance), size=inst.path_count
    )
    phases = _path_phases(model, c) + gamma
    return complex(
        np.sum(np.exp(1j * phases)) / np.sqrt(inst.path_count * inst.register_size)
    )


def amplitude_mc(
    model: NoisyAmplitudeModel,
    c_values,
    n_samples: int,
    master_seed: int,
    chunk: int = 4096,
):
    """Monte Carlo mean and standard error of |f(c)|^2 for many outcomes.

    Shares each realization's path phases across all requested c (one
    matrix product per chunk), so estimates at different c are correlated
    but individually unbiased.
    """
    inst = model.instance
    c_values = np.asarray(c_values, dtype=int)
    d = np.exp(1j * _path_phases(model, c_values)).T / np.sqrt(
        inst.path_count * inst.register_size
    )  # (paths, n_c)
    rng = np.random.default_rng(np.random.SeedSequence(master_seed))
    total = np.zeros(c_values.size)
    total_sq = np.zeros(c_values.size)
    done = 0
    sigma = np.sqrt(model.path_phase_variance)
    while done < n_samples:
        m = min(chunk, n_samples - done)
        gamma = rng.normal(0.0, sigma, size=(m, inst.path_count))
        f = np.exp(1j * gamma) @ d
        p = np.abs(f) ** 2
        total += p.sum(axis=0)
        total_sq += (p * p).sum(axis=0)
        done += m
    mean = total / n_samples
    var = (total_sq - n_samples * mean**2) / (n_samples - 1)
    return mean, np.sqrt(np.maximum(var, 0.0) / n_samples)


def prob_averaged(model: NoisyAmplitudeModel, c) -> np.ndarray:
    """Noise-averaged measurement probability P(c) = <|f(c)|^2>.

    P(c) = 1/q + (2/(M q)) sum_{k<j} cos[2 pi (j-k)(r c mod q)/q] e^{-v},
    with M = A+1 paths; the pair sum is evaluated in closed form through
    |sum_j e^{i a j}|^2 = M + 2 sum_{k<j} cos a(j-k).  Scalar in, scalar
    out; arrays map elementwise.
    """
    inst = model.instance
    q, r, m = inst.register_size, inst.period, inst.path_count
    c_arr = np.asarray(c)
    if np.any((c_arr < 0) | (c_arr >= q)):
        raise ValueError(f"c must be in [0, {q})")
    a = 2.0 * np.pi * ((r * c_arr) % q) / q
    with np.errstate(invalid="ignore", divide="ignore"):
        s2 = np.where(
            np.isclose(np.mod(a, 2.0 * np.pi), 0.0, atol=1e-12),
            float(m) ** 2,
            (np.sin(m * a / 2.0) / np.sin(a / 2.0)) ** 2,
        )
    damping = np.exp(-model.path_phase_variance)
    p = (m + (s2 - m) * damping) / (m * q)
    return p if p.ndim else float(p)


def _constructive_outcomes(inst: ShorInstance):
    """Map each c to its nearest c' and keep the constructive, useful ones.

    Constructive interference needs |r c - c' q| <= r/2; the outcome is
    useful when that unique c' is less than and co-prime with r.
    """
    q, r = inst.register_size, inst.period
    c = np.arange(q)
    c_prime = np.floor_divide(2 * r * c + q, 2 * q)  # round(r c / q)
    constructive = np.abs(r * c - c_prime * q) * 2 <= r
    good = set(coprime_residues(r))
    useful = constructive & np.isin(c_prime, list(good) or [-1])
    return c[useful], c_prime[useful]


def success_probability(model: NoisyAmplitudeModel) -> SuccessReport:
    """Total probability that one run reveals the period.

    Sums P(c) over the constructive outcomes whose c' is less than and
    co-prime with r.  r = 1 has no valid c' at all and is flagged
    degenerate with zero success probability.
    """
    inst = model.instance
    p = prob_averaged(model, np.arange(inst.register_size))
    v = model.path_phase_variance
    if v == 0:
        regime = "noiseless"
    elif v >= ONSET_VARIANCE:
        regime = "decohered"
    else:
        regime = "partial"
    if inst.period == 1:
        return SuccessReport(
            p_of_c=p,
            success_probability=0.0,
            runs_needed=float("inf"),
            regime=regime,
            success_outcomes=(),
            degenerate=True,
        )
    c_good, _ = _constructive_outcomes(inst)
    p_suc = float(np.sum(p[c_good]))
    runs = 1.0 / p_suc if p_suc > 0 else float("inf")
    return SuccessReport(
        p_of_c=p,
        success_probability=p_suc,
        runs_needed=runs,
        regime=regime,
        success_outcomes=tuple(int(x) for x in c_good),
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
        report = success_probability(
            NoisyAmplitudeModel(instance=inst, path_phase_variance=float(v))
        )
        rows.append(
            {
                "modulus": inst.modulus,
                "base": inst.base,
                "log2_modulus": math.log2(inst.modulus),
                "period": inst.period,
                "register_size": inst.register_size,
                "bits": inst.bits,
                "variance_rad2": float(v),
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

    ratio = (P/V)(tau_c/d_omega) * T L(L-1) gamma^2 sin^2(theta_0) / pi^2;
    values >= 1 signal decoherence.  With the default overlap constant in
    ``dft_phase_variance`` this equals the DFT phase variance divided by
    (2 pi)^2 exactly.
    """
    if min(period, coupling, bandwidth) <= 0 or bits < 2:
        raise ValueError("period, coupling, bandwidth must be > 0 and bits >= 2")
    if np.sin(cone_angle) == 0:
        raise ValueError("cone_angle must have nonzero sin(theta_0)")
    if power_density < 0 or correlation_time <= 0:
        raise ValueError("power_density must be >= 0 and correlation_time > 0")
    return (
        power_density
        * correlation_time
        / bandwidth
        * period
        * bits
        * (bits - 1)
        * coupling**2
        * np.sin(cone_angle) ** 2
        / np.pi**2
    )
