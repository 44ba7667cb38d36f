"""Deterministic control schedules, qubit Hamiltonians, and adiabatic phases.

Conventions (used throughout the package):

* hbar = 1; all energies are angular frequencies.
* The deterministic control field precesses about z at cone angle theta_0
  with period T:  B_a(t) = |B| (sin t0 cos phi, sin t0 sin phi, cos t0),
  phi(t) = +/- 2 pi t / T (forward / reversed contour).
* H_a(t) = -(gamma/2) B_a(t) . sigma per qubit; the coupling gamma must be
  positive, so level 0 (the ground state) is the spin state *aligned* with
  the field and level 1 the anti-aligned one.
* Noise couples linearly: H_s(t) = -(gamma/2) B_n(t) . O_hat, where O_hat
  is a Pauli operator along a fixed axis for scalar noise, or the full
  Pauli vector for isotropic 3-component noise.

Instantaneous eigenstates use the explicit spherical gauge

    |0(t)> = (cos(t/2), e^{i phi} sin(t/2)),
    |1(t)> = (-e^{-i phi} sin(t/2), cos(t/2)),

(t = cone angle) whose Berry connections are smooth and analytic:
gamma_dot_0 = -phidot sin^2(theta/2), gamma_dot_1 = +phidot sin^2(theta/2).
Closed-loop geometric phases are therefore -pi(1 - cos theta) for the
aligned level and +pi(1 - cos theta) for the anti-aligned one.

The two-qubit mode tracks the four product levels k = (i1, i2), optionally
with a per-level effective cone angle (mimicking the level-dependent
effective field induced by an Ising z-z coupling); this is what makes a
conditional geometric phase possible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import AdiabaticityError, DegeneracyError, ResolutionError, _check_elements

__all__ = [
    "ControlSchedule",
    "QubitHamiltonian",
    "EigenFrame",
    "eigenframe",
    "evolve_exact_batch",
    "deterministic_phases",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

#: default ceiling for the adiabaticity ratios 1/(T Delta) and 1/(tau_c Delta)
ADIABATIC_RATIO_MAX = 0.1

#: level splitting below which the spectrum is a level crossing
_MIN_GAP = 1e-12

#: slice x realization elements per vectorized Cayley-Klein pass of
#: evolve_exact_batch (at least one slice): 8 slices at 512 realizations,
#: 1 at 8,192, so a pass's temporaries stay near 1 MiB at any ensemble size
_SLICE_ELEMENTS = 4096


@dataclass(frozen=True)
class ControlSchedule:
    """Deterministic precessing control field.

    magnitude   |B_a| (constant, field units)
    cone_angle  theta_0 in [0, pi]
    period      precession period T
    cycles      number of periods eta
    direction   'forward' traces the contour C, 'reversed' its time-reverse
    """

    magnitude: float
    cone_angle: float
    period: float
    cycles: int = 1
    direction: str = "forward"

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError(f"period must be > 0, got {self.period}")
        if not 0 <= self.cone_angle <= np.pi:
            raise ValueError(f"cone_angle must lie in [0, pi], got {self.cone_angle}")
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")
        if self.direction not in ("forward", "reversed"):
            raise ValueError(f"direction must be 'forward' or 'reversed'")
        if self.magnitude < 0:
            raise ValueError(f"magnitude must be >= 0, got {self.magnitude}")

    @property
    def duration(self) -> float:
        return self.cycles * self.period

    @property
    def orientation(self) -> float:
        """+1 for the forward contour C, -1 for the reversed contour."""
        return 1.0 if self.direction == "forward" else -1.0

    @property
    def azimuth_rate(self) -> float:
        return self.orientation * 2.0 * np.pi / self.period

    def azimuth(self, t):
        """Continuously unwrapped azimuth phi(t)."""
        return self.azimuth_rate * np.asarray(t, dtype=float)

    def reversed(self) -> "ControlSchedule":
        other = "reversed" if self.direction == "forward" else "forward"
        return ControlSchedule(
            self.magnitude, self.cone_angle, self.period, self.cycles, other
        )

    def field(self, t) -> np.ndarray:
        """B_a(t), shape (..., 3)."""
        phi = self.azimuth(t)
        s, c = np.sin(self.cone_angle), np.cos(self.cone_angle)
        return self.magnitude * np.stack(
            [s * np.cos(phi), s * np.sin(phi), c * np.ones_like(phi)], axis=-1
        )


@dataclass(frozen=True)
class QubitHamiltonian:
    """H(t; k) = H_a(t) + H_s(t; k) for one or two driven qubits.

    coupling            gyromagnetic coupling gamma > 0 (rad / (s field))
    schedule            the deterministic control schedule
    noise_operator_axis unit 3-vector: O_hat = axis . sigma for scalar noise
    qubit_count         1 or 2
    level_cone_angles   optional 4 effective cone angles (two-qubit mode),
                        indexed by level k = 2*i1 + i2; defaults to the
                        schedule's cone angle for every level
    """

    coupling: float
    schedule: ControlSchedule
    noise_operator_axis: tuple = (1.0, 0.0, 0.0)
    qubit_count: int = 1
    level_cone_angles: Optional[tuple] = None

    def __post_init__(self):
        if self.coupling <= 0:
            raise ValueError(f"coupling must be > 0, got {self.coupling}")
        if self.qubit_count not in (1, 2):
            raise ValueError(f"qubit_count must be 1 or 2, got {self.qubit_count}")
        axis = np.asarray(self.noise_operator_axis, dtype=float)
        if axis.shape != (3,) or not np.isclose(np.linalg.norm(axis), 1.0):
            raise ValueError("noise_operator_axis must be a unit 3-vector")
        if self.level_cone_angles is not None:
            if self.qubit_count != 2:
                raise ValueError("level_cone_angles is a two-qubit feature")
            if len(self.level_cone_angles) != 4:
                raise ValueError("level_cone_angles must have 4 entries")
        object.__setattr__(
            self, "noise_operator_axis", tuple(float(a) for a in axis)
        )

    @property
    def n_levels(self) -> int:
        return 2**self.qubit_count

    @property
    def gap(self) -> float:
        """Single-qubit level splitting Delta = gamma |B_a|.

        In two-qubit mode the middle product levels (0,1) and (1,0) are
        degenerate in energy, but they are exact product eigenstates that
        H_a never mixes; the splitting relevant for noise-induced
        transitions remains the per-qubit gap.
        """
        return self.coupling * self.schedule.magnitude

    def cone_angle_of_level(self, level: int) -> float:
        if self.qubit_count == 1 or self.level_cone_angles is None:
            return self.schedule.cone_angle
        return float(self.level_cone_angles[level])

    def uniform_cone_angles(self) -> bool:
        return self.level_cone_angles is None or np.allclose(
            self.level_cone_angles, self.schedule.cone_angle
        )

    def noise_operators(self, dimension: int) -> np.ndarray:
        """Component operators O_c such that H_s = -(gamma/2) sum_c B_n^c O_c.

        Scalar noise (dimension 1) uses the projected operator
        (axis . sigma); isotropic noise (dimension 3) uses the Pauli vector.
        Two-qubit operators act identically on both qubits (shared coil):
        O -> O x 1 + 1 x O.
        """
        if dimension == 1:
            ops = [np.tensordot(self.noise_operator_axis, PAULI, axes=(0, 0))]
        elif dimension == 3:
            ops = list(PAULI)
        else:
            raise ValueError(f"unsupported noise dimension {dimension}")
        if self.qubit_count == 2:
            eye = np.eye(2)
            ops = [np.kron(o, eye) + np.kron(eye, o) for o in ops]
        return np.stack(ops)

    def check_adiabatic(
        self,
        correlation_time: Optional[float] = None,
        ratio_max: float = ADIABATIC_RATIO_MAX,
        strict: bool = False,
    ) -> dict:
        """Verify 1/(T Delta) and 1/(tau_c Delta) against ``ratio_max``.

        Returns the ratios; warns on violation, or raises
        AdiabaticityError when ``strict``.  A level crossing, a gap below
        ``_MIN_GAP``, raises DegeneracyError instead, as ``eigenframe`` does.
        """
        gap = self.gap
        if gap < _MIN_GAP:
            raise DegeneracyError(
                f"level crossing: gap {gap:g} (field or coupling is zero)"
            )
        ratios = {"drive": 1.0 / (self.schedule.period * gap)}
        if correlation_time is not None:
            ratios["noise"] = 1.0 / (correlation_time * gap)
        bad = {k: v for k, v in ratios.items() if v > ratio_max}
        if bad:
            msg = (
                f"adiabaticity violated: ratios {bad} exceed {ratio_max} "
                f"(gap = {gap:g})"
            )
            if strict:
                raise AdiabaticityError(msg)
            warnings.warn(msg, stacklevel=2)
        return ratios


def _aligned_state(theta: float, phi: np.ndarray) -> np.ndarray:
    half = theta / 2.0
    return np.stack(
        [
            np.full_like(phi, np.cos(half), dtype=complex),
            np.exp(1j * phi) * np.sin(half),
        ],
        axis=-1,
    )


def _anti_state(theta: float, phi: np.ndarray) -> np.ndarray:
    half = theta / 2.0
    return np.stack(
        [
            -np.exp(-1j * phi) * np.sin(half),
            np.full_like(phi, np.cos(half), dtype=complex),
        ],
        axis=-1,
    )


_SINGLE_STATES = (_aligned_state, _anti_state)
_LEVEL_SIGN = np.array([-1.0, 1.0])  # energy/geometric sign per 1q level


@dataclass(frozen=True)
class EigenFrame:
    """Gauge-smooth instantaneous spectrum of the noiseless Hamiltonian.

    times        (n_t,) uniform grid
    energies     (n_levels, n_t)
    states       (n_levels, n_t, dim) in the smooth spherical gauge
    berry_rates  (n_levels, n_t)  gamma_dot_l = i <E_l | dE_l/dt>
    gap          recorded minimum relevant level splitting Delta
    """

    times: np.ndarray
    energies: np.ndarray
    states: np.ndarray
    berry_rates: np.ndarray
    gap: float

    def operator_expectations(self, operators: np.ndarray) -> np.ndarray:
        """<E_k(t)| O_c |E_k(t)>, shape (n_levels, n_components, n_t)."""
        out = np.einsum(
            "kti,cij,ktj->kct", self.states.conj(), operators, self.states
        )
        return np.real(out)


def eigenframe(h: QubitHamiltonian, time_grid) -> EigenFrame:
    """Instantaneous energies, smooth-gauge eigenstates, Berry connections.

    The spherical parameterization keeps the gauge analytic on the grid;
    the azimuth is linear in t (already unwrapped).
    """
    t = np.asarray(time_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("time_grid must be a 1-d array with >= 2 points")
    steps = np.diff(t)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise ValueError("time_grid must be uniform")
    gap = h.gap
    if gap < _MIN_GAP:
        raise DegeneracyError(
            f"level crossing: gap {gap:g} at t = {t[0]:g} (field or coupling is zero)"
        )
    sched = h.schedule
    phi = sched.azimuth(t)
    phidot = sched.azimuth_rate
    half_split = gap / 2.0

    if h.qubit_count == 1:
        theta = sched.cone_angle
        states = np.stack([f(theta, phi) for f in _SINGLE_STATES])
        energies = np.outer(_LEVEL_SIGN * half_split, np.ones_like(t))
        rates = np.outer(
            _LEVEL_SIGN * phidot * np.sin(theta / 2.0) ** 2, np.ones_like(t)
        )
        return EigenFrame(t, energies, states, rates, gap)

    # two qubits: product levels k = (i1, i2), per-level effective cone angle
    states, energies, rates = [], [], []
    for level in range(4):
        i1, i2 = level >> 1, level & 1
        theta = h.cone_angle_of_level(level)
        states.append(
            np.einsum(
                "ta,tb->tab",
                _SINGLE_STATES[i1](theta, phi),
                _SINGLE_STATES[i2](theta, phi),
            ).reshape(t.size, 4)
        )
        sign_sum = _LEVEL_SIGN[i1] + _LEVEL_SIGN[i2]
        energies.append(np.full_like(t, sign_sum * half_split))
        rates.append(
            np.full_like(t, sign_sum * phidot * np.sin(theta / 2.0) ** 2)
        )
    return EigenFrame(
        t, np.stack(energies), np.stack(states), np.stack(rates), gap
    )


def _cayley_klein(bx, by, bz, scale: float):
    """Cayley-Klein parameters of exp(+i scale b . sigma) = [[alpha, beta],
    [-beta*, alpha*]], elementwise over field components of any shape.

    With x = scale |b| and s = sin(x) / |b| (s = 0 at |b| = 0),
    alpha = cos x + i s b_z and beta = s (b_y + i b_x).
    """
    norm = np.sqrt(bx * bx + by * by + bz * bz)
    x = scale * norm
    s = np.divide(np.sin(x), norm, out=np.zeros_like(norm), where=norm > 0)
    alpha = np.empty(norm.shape, complex)
    alpha.real = np.cos(x)
    alpha.imag = s * bz
    beta = np.empty(norm.shape, complex)
    beta.real = s * by
    beta.imag = s * bx
    return alpha, beta


def evolve_exact_batch(
    h: QubitHamiltonian,
    time_grid: np.ndarray,
    noise_samples: np.ndarray,
    psi0,
    slices: int,
) -> np.ndarray:
    """Propagate a single-qubit psi0 through the full noisy Hamiltonian.

    noise_samples has shape (n_real, n_times, dim) on ``time_grid``.  psi0
    is one spinor of shape (2,) or column spinors of shape (2, m); the
    final states have shape (n_real,) + psi0.shape.  The interval covered
    by the grid is cut into ``slices`` pieces; each piece uses the exact
    closed-form SU(2) exponential of the midpoint-sampled Hamiltonian,
    H = -(gamma/2) b . sigma, as its Cayley-Klein pair (alpha, beta).
    n_real x slices x dim above MAX_ELEMENTS is refused before allocating;
    the slices run in passes of ``_SLICE_ELEMENTS`` slice x realization
    elements (at least one slice), whose temporaries do not grow with them.
    Norm is preserved to 1e-10 by construction; accuracy improves as
    O(slices^-2) and is validated by slice doubling in the tests.  Two
    qubits under the same field and noise evolve under u x u, which the
    ensemble's exact engine composes from the columns of u.
    """
    if h.qubit_count != 1:
        raise ValueError(
            "exact propagation is single-qubit; the ensemble's exact engine "
            "composes the two-qubit propagator u x u"
        )
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.ndim not in (1, 2) or psi0.shape[0] != 2:
        raise ValueError("psi0 must have shape (2,) or (2, m)")
    if np.any(np.abs(np.linalg.norm(psi0, axis=0) - 1.0) > 1e-9):
        raise ValueError("psi0 must be normalized")
    t = np.asarray(time_grid, dtype=float)
    n_steps = t.size - 1
    if slices < n_steps:
        raise ResolutionError(
            f"slices = {slices} below the noise grid resolution ({n_steps} steps)"
        )
    n_real, _, dim = noise_samples.shape
    # the per-slice arrays grow with the slices, the work with n_real x slices
    _check_elements((n_real, slices, dim), "exact propagation")
    t0, t1 = t[0], t[-1]
    eps = (t1 - t0) / slices
    mids = t0 + (np.arange(slices) + 0.5) * eps

    b_det = h.schedule.field(mids)  # (slices, 3)
    axis = np.asarray(h.noise_operator_axis)
    j = np.searchsorted(t, mids, side="right") - 1
    offset = mids - t[j]
    step = np.diff(t)
    path_major = noise_samples.transpose(1, 0, 2)  # (n_times, n_real, dim) view
    scale = 0.5 * h.coupling * eps

    # spinor components p0, p1 as contiguous (m, n_real) rows
    psi = np.repeat(psi0.reshape(2, -1, 1), n_real, axis=2)
    p0, p1 = psi
    tmp0, tmp1 = np.empty_like(p0), np.empty_like(p0)
    block = max(_SLICE_ELEMENTS // n_real, 1)
    for start in range(0, slices, block):
        k = slice(start, start + block)
        jk = j[k]
        # midpoint noise (block, n_real, dim) by linear interpolation on the
        # path grid, with np.interp's formula slope * (x - xp[j]) + fp[j]
        lo = path_major[jk]
        noise = path_major[jk + 1] - lo
        noise /= step[jk, None, None]
        noise *= offset[k, None, None]
        noise += lo
        b = [
            b_det[k, c, None]
            + (noise[..., 0] * axis[c] if dim == 1 else noise[..., c])
            for c in range(3)
        ]
        alpha, beta = _cayley_klein(*b, scale)
        for a, bt, ac, bc in zip(alpha, beta, alpha.conj(), beta.conj()):
            np.multiply(a, p0, out=tmp0)
            np.multiply(bt, p1, out=tmp1)
            np.multiply(bc, p0, out=p0)
            np.multiply(ac, p1, out=p1)
            p1 -= p0  # alpha* p1 - beta* p0
            np.add(tmp0, tmp1, out=p0)  # alpha p0 + beta p1
    return psi.transpose(2, 0, 1).reshape((n_real,) + psi0.shape)


def deterministic_phases(h: QubitHamiltonian, duration: float) -> np.ndarray:
    """Gamma_a(k) = duration * (E_k - gamma_dot_k) for every level k.

    Exact for a precessing schedule, on which both the energy and the
    Berry connection are constant in t.  Returns shape (n_levels,).
    """
    frame = eigenframe(h, [0.0, duration])
    return duration * (frame.energies[:, 0] - frame.berry_rates[:, 0])


def stochastic_phase_batch(
    h: QubitHamiltonian,
    frame: EigenFrame,
    noise_samples: np.ndarray,
    level: int,
) -> np.ndarray:
    """Gamma_s for one level across a batch of noise realizations.

    Gamma_s = int <E_k|H_s|E_k> dt = -(gamma/2) int B_n(t) . O_kk(t) dt,
    evaluated by the trapezoid rule on the shared time grid.
    noise_samples has shape (n_real, n_t, dim).
    """
    ops = h.noise_operators(noise_samples.shape[-1])
    okk = frame.operator_expectations(ops)[level]  # (dim, n_t)
    integrand = np.einsum("ntc,ct->nt", noise_samples, okk)
    integrand *= -0.5 * h.coupling
    # np.trapezoid's d * (y[1:] + y[:-1]) / 2.0, in place to hold peak memory
    pairs = integrand[:, 1:] + integrand[:, :-1]
    pairs *= np.diff(frame.times)
    pairs /= 2.0
    return pairs.sum(axis=-1)
