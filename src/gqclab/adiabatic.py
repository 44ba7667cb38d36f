"""Deterministic control schedules, qubit Hamiltonians, and adiabatic phases.

Conventions (used throughout the package):

* hbar = 1; all energies are angular frequencies.
* The deterministic control field precesses about z at cone angle theta_0
  with period T:  B_a(t) = |B| (sin t0 cos phi, sin t0 sin phi, cos t0),
  phi(t) = +/- 2 pi t / T (forward / reversed contour).
* H_a(t) = -(gamma/2) B_a(t) . sigma per qubit; the coupling gamma must be
  positive, so level 0 (the ground state) is the spin state *aligned* with
  the field and level 1 the anti-aligned one.
* Noise couples linearly: H_s(t) = -(gamma/2) B_n(t) . sigma, where B_n is
  sigma n(t) x_hat for scalar noise, the first component of isotropic
  3-component noise.

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
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import AdiabaticityError, DegeneracyError, ResolutionError
from .errors import _check_count, _check_elements, _check_real

__all__ = [
    "ControlSchedule",
    "QubitHamiltonian",
    "EigenFrame",
    "eigenframe",
    "evolve_exact_batch",
    "deterministic_phases",
]

#: ceiling for the adiabaticity ratios 1/(T Delta) and 1/(tau_c Delta)
ADIABATIC_RATIO_MAX = 0.1

#: level splitting below which the spectrum is a level crossing
_MIN_GAP = 1e-12

#: slice x segment x realization elements per vectorized Cayley-Klein pass
#: of evolve_exact_batch (at least one slice): 8 slices of one segment at 512
#: realizations, 2 of the gate's four, 1 of one at 8,192, so a pass's
#: temporaries stay near 1 MiB at any ensemble size
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
        _check_real(self.period, "period", 0, strict=True)
        _check_real(self.cone_angle, "cone_angle", 0, np.pi)
        _check_count(self.cycles, "cycles", 1)
        if self.direction not in ("forward", "reversed"):
            raise ValueError(f"direction must be 'forward' or 'reversed'")
        _check_real(self.magnitude, "magnitude", 0)

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
        return replace(self, direction=other)

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

    coupling           gyromagnetic coupling gamma > 0 (rad / (s field))
    schedule           the deterministic control schedule
    qubit_count        1 or 2
    level_cone_angles  optional 4 effective cone angles (two-qubit mode),
                       indexed by level k = 2*i1 + i2; defaults to the
                       schedule's cone angle for every level
    """

    coupling: float
    schedule: ControlSchedule
    qubit_count: int = 1
    level_cone_angles: Optional[tuple] = None

    def __post_init__(self):
        _check_real(self.coupling, "coupling", 0, strict=True)
        _check_count(self.qubit_count, "qubit_count", 1, 2)
        if self.level_cone_angles is not None:
            if self.qubit_count != 2:
                raise ValueError("level_cone_angles is a two-qubit feature")
            if len(self.level_cone_angles) != 4:
                raise ValueError("level_cone_angles must have 4 entries")
            for angle in self.level_cone_angles:
                _check_real(angle, "level_cone_angles", 0, np.pi)

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
        if self.level_cone_angles is None:
            return self.schedule.cone_angle
        return float(self.level_cone_angles[level])

    def uniform_cone_angles(self) -> bool:
        return self.level_cone_angles is None or np.allclose(
            self.level_cone_angles, self.schedule.cone_angle
        )

    def level_sign(self, level: int) -> int:
        """s_k: level k's aligned qubits minus its anti-aligned ones (bits 0
        and 1).  A level outside [0, n_levels) raises ValueError."""
        if not 0 <= level < self.n_levels:
            raise ValueError(f"level must lie in [0, {self.n_levels}), got {level}")
        return self.qubit_count - 2 * bin(level).count("1")

    def level_coupling(self, level: int, dimension: int) -> np.ndarray:
        """<E_k(t)| O_c |E_k(t)> of level k as coefficients, shape
        (dimension, 3), on f(t) = (1, cos wt, sin wt), w = 2 pi / T.

        The aligned spin's Bloch vector is n = (sin th cos phi,
        sin th sin phi, cos th) at the level's cone angle th, with
        phi = o w t and o the contour's orientation; the anti-aligned one's
        is -n.  The noise acts alike on every qubit (shared coil), so level k
        sees s_k n.  Noise of ``dimension`` 1 (scalar, along x) or 3
        (isotropic) reads the first ``dimension`` of its x, y, z rows.
        A level crossing, which has no eigenstates to couple, raises
        DegeneracyError, as in ``eigenframe``.
        """
        _check_count(dimension, "dimension", 1)
        self.adiabatic_ratios()
        s = self.level_sign(level)
        theta = self.cone_angle_of_level(level)
        sin, cos = np.sin(theta), np.cos(theta)
        o = self.schedule.orientation
        vector = s * np.array([[0.0, sin, 0.0], [0.0, 0.0, o * sin], [cos, 0.0, 0.0]])
        if dimension in (1, 3):
            return vector[:dimension]
        raise ValueError(f"unsupported noise dimension {dimension}")

    def adiabatic_ratios(self, correlation_time: Optional[float] = None) -> dict:
        """The adiabaticity ratios 1/(T Delta) and, given tau_c, 1/(tau_c Delta).

        A level crossing, a gap below ``_MIN_GAP``, raises DegeneracyError.
        """
        if correlation_time is not None:
            _check_real(correlation_time, "correlation_time", 0, strict=True)
        gap = self.gap
        if gap < _MIN_GAP:
            raise DegeneracyError(
                f"level crossing: gap {gap:g} (field or coupling is zero)"
            )
        ratios = {"drive": 1.0 / (self.schedule.period * gap)}
        if correlation_time is not None:
            ratios["noise"] = 1.0 / (correlation_time * gap)
        return ratios

    def check_adiabatic(
        self, correlation_time: Optional[float] = None, strict: bool = False
    ) -> None:
        """Warn when a ratio of ``adiabatic_ratios`` exceeds
        ADIABATIC_RATIO_MAX, or raise AdiabaticityError when ``strict``."""
        ratios = self.adiabatic_ratios(correlation_time)
        bad = {k: v for k, v in ratios.items() if v > ADIABATIC_RATIO_MAX}
        if bad:
            msg = (
                f"adiabaticity violated: ratios {bad} exceed {ADIABATIC_RATIO_MAX} "
                f"(gap = {self.gap:g})"
            )
            if strict:
                raise AdiabaticityError(msg)
            warnings.warn(msg, stacklevel=2)


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


@dataclass(frozen=True)
class EigenFrame:
    """Gauge-smooth instantaneous spectrum of the noiseless Hamiltonian.

    times        (n_t,) uniform grid
    energies     (n_levels, n_t)
    states       (n_levels, n_t, dim) in the smooth spherical gauge
    berry_rates  (n_levels, n_t)  gamma_dot_l = i <E_l | dE_l/dt>
    """

    times: np.ndarray
    energies: np.ndarray
    states: np.ndarray
    berry_rates: np.ndarray


def eigenframe(h: QubitHamiltonian, time_grid) -> EigenFrame:
    """Instantaneous energies, smooth-gauge eigenstates, Berry connections.

    The spherical parameterization keeps the gauge analytic on the grid;
    the azimuth is linear in t (already unwrapped).  Level k, with bits
    (i1, ...) most significant first, is the product of each qubit's
    aligned (bit 0) or anti-aligned (bit 1) state at the level's cone
    angle; its energy -s_k Delta/2 and Berry rate -s_k phidot sin^2(theta/2)
    are s_k times an aligned qubit's, s_k = ``h.level_sign(level)``.
    """
    t = np.asarray(time_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("time_grid must be a 1-d array with >= 2 points")
    steps = np.diff(t)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise ValueError("time_grid must be uniform")
    h.adiabatic_ratios()  # refuses a level crossing
    sched = h.schedule
    phi = sched.azimuth(t)
    phidot = sched.azimuth_rate
    half_split = h.gap / 2.0
    states, energies, rates = [], [], []
    for level in range(h.n_levels):
        bits = [(level >> q) & 1 for q in reversed(range(h.qubit_count))]
        theta = h.cone_angle_of_level(level)
        state = _SINGLE_STATES[bits[0]](theta, phi)
        for bit in bits[1:]:
            factor = _SINGLE_STATES[bit](theta, phi)
            state = np.einsum("ta,tb->tab", state, factor).reshape(t.size, -1)
        states.append(state)
        sign = -h.level_sign(level)
        energies.append(np.full_like(t, sign * half_split))
        rates.append(np.full_like(t, sign * phidot * np.sin(theta / 2.0) ** 2))
    return EigenFrame(t, np.stack(energies), np.stack(states), np.stack(rates))


def _cayley_klein(bx, by, bz, scale, norm, x, alpha, beta):
    """Fill ``alpha`` and ``beta`` with the Cayley-Klein parameters of
    exp(+i scale b . sigma) = [[alpha, beta], [-beta*, alpha*]], elementwise.

    The field components and ``scale`` broadcast against the buffers, real
    ``norm`` and ``x`` (overwritten) and complex ``alpha`` and ``beta``.
    With x = scale |b| and s = sin(x) / max(|b|, 5e-324), the quotient at
    |b| > 0 and 0 at |b| = 0, alpha = cos x + i s b_z and
    beta = s (b_y + i b_x).  |b|^2 sums (b_x^2 + b_y^2) + b_z^2; a narrower
    component squares into as many columns of ``x`` and broadcasts.
    """
    np.multiply(bx, bx, out=norm)
    for b in (by, bz):
        norm += np.multiply(b, b, out=x[..., : b.shape[-1]])
    np.sqrt(norm, out=norm)
    np.multiply(norm, scale, out=x)
    np.cos(x, out=alpha.real)
    np.sin(x, out=x)
    s = np.divide(x, np.maximum(norm, 5e-324, out=norm), out=x)
    np.multiply(s, bz, out=alpha.imag)
    np.multiply(s, by, out=beta.real)
    np.multiply(s, bx, out=beta.imag)


def evolve_exact_batch(
    segments: Sequence[QubitHamiltonian],
    time_grid: np.ndarray,
    noise_samples: np.ndarray,
    psi0,
    slices: int,
    sigma: float,
) -> np.ndarray:
    """Propagate the normalized spinor psi0, shape (2,), through the full
    noisy Hamiltonian of each of a row's P >= 1 one-qubit segments, from
    each segment's start; the final states have shape (P, n_real, 2).

    The segments run back to back on one noise path: noise_samples has
    shape (n_real, P n + 1, dim), n steps of ``time_grid`` per segment, and
    segment l reads the points l n ... (l + 1) n on ``time_grid``.  The
    noise is ``sigma`` times noise_samples, which is only read: the
    pipeline passes its sweep's one unit-variance path and each row's
    sigma.  On time-major memory, the pipeline's, slices gather contiguous
    rows.  Each segment's interval is cut into ``slices`` pieces; each
    piece uses the exact closed-form SU(2) exponential of the
    midpoint-sampled Hamiltonian, H = -(gamma/2) b . sigma, as its
    Cayley-Klein pair (alpha, beta).
    One slice loop serves every segment, which lie side by side on the
    vector axis, so a row's P segments cost one loop, not P.
    n_real x slices x dim, or slices x P x 3, above MAX_ELEMENTS is refused
    before allocating; the slices run in passes of ``_SLICE_ELEMENTS``
    slice x segment x realization elements (at least one slice) through
    arrays allocated once per call.  The noise's ``dim`` components add to
    the field's first ``dim`` (scalar noise is along x); a component that
    no noise reaches keeps its noiseless value per slice.  Norm is
    preserved to 1e-10 by construction; accuracy improves as O(slices^-2)
    and is validated by slice doubling in the tests.  Two qubits evolve
    under u x u, which the ensemble's exact engine composes.
    """
    if isinstance(segments, QubitHamiltonian) or not len(segments):
        raise ValueError("segments must be a sequence of one or more Hamiltonians")
    if any(s.qubit_count != 1 for s in segments):
        raise ValueError(
            "exact propagation is single-qubit; the ensemble's exact engine "
            "composes the two-qubit propagator u x u"
        )
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (2,):
        raise ValueError("psi0 must be one spinor of shape (2,)")
    if not abs(np.linalg.norm(psi0) - 1.0) <= 1e-9:  # NaN fails
        raise ValueError("psi0 must be normalized")
    _check_count(slices, "slices", 1)
    _check_real(sigma, "sigma", 0)
    t = np.asarray(time_grid, dtype=float)
    n_steps = t.size - 1
    if slices < n_steps:
        raise ResolutionError(
            f"slices = {slices} below the noise grid resolution ({n_steps} steps)"
        )
    n_real, n_times, dim = noise_samples.shape
    count = len(segments)
    if n_times != count * n_steps + 1:
        raise ValueError(
            f"{count} segment(s) of {n_steps} steps need {count * n_steps + 1} "
            f"noise points, got {n_times}"
        )
    # a segment's work grows with n_real x slices, the per-slice arrays
    # (midpoints, path indices, weights, control fields) with slices x P x 3
    _check_elements((n_real, slices, dim), "exact propagation")
    _check_elements((slices, count, 3), "exact propagation slices")
    t0, t1 = t[0], t[-1]
    eps = (t1 - t0) / slices
    mids = t0 + (np.arange(slices) + 0.5) * eps

    b_det = np.stack([s.schedule.field(mids) for s in segments], 1)  # (slices, P, 3)
    scale = np.array([[0.5 * s.coupling * eps] for s in segments])  # (P, 1)
    j = np.searchsorted(t, mids, side="right") - 1
    weight = sigma * (mids - t[j]) / np.diff(t)[j]
    first = n_steps * np.arange(count)  # each segment's first path point
    time_major = noise_samples.transpose(1, 0, 2)  # (n_times, n_real, dim) view

    # spinor components p0, p1 as contiguous (P, n_real) rows
    psi = np.broadcast_to(psi0[:, None, None], (2, count, n_real)).copy()
    p0, p1 = psi
    tmp0, tmp1 = np.empty_like(p0), np.empty_like(p0)
    block = min(max(_SLICE_ELEMENTS // (count * n_real), 1), slices)
    rows = (block, count, n_real)
    # the pass arrays: midpoint noise (then the noisy field components), |b|,
    # x (then s), alpha, beta and their conjugates, allocated once; a short
    # last pass takes leading views
    buffers = [np.empty(rows + (dim,)), np.empty(rows), np.empty(rows)]
    buffers += [np.empty(rows, complex) for _ in range(4)]
    for start in range(0, slices, block):
        k = slice(start, start + block)
        jk = j[k, None] + first
        m = len(jk)
        noise, norm, x, alpha, beta, ac, bc = (a[:m] for a in buffers)
        # midpoint noise (block, P, n_real, dim) by linear interpolation on
        # the path grid, sigma u[j] + (u[j+1] - u[j]) sigma (x - t[j]) / step:
        # sigma multiplies each gathered element once, in the copy ``lo``
        lo = time_major[jk]
        np.subtract(time_major[jk + 1], lo, out=noise)
        noise *= weight[k, None, None, None]
        lo *= sigma
        noise += lo
        # a component without noise stays per slice, (block, P, 1)
        b = [b_det[k, :, c, None] for c in range(3)]
        for c in range(dim):
            b[c] = np.add(noise[..., c], b[c], out=noise[..., c])
        _cayley_klein(*b, scale, norm, x, alpha, beta)
        np.conjugate(alpha, out=ac)
        np.conjugate(beta, out=bc)
        for a, bt, a_c, b_c in zip(alpha, beta, ac, bc):
            np.multiply(a, p0, out=tmp0)
            np.multiply(bt, p1, out=tmp1)
            np.multiply(b_c, p0, out=p0)
            np.multiply(a_c, p1, out=p1)
            p1 -= p0  # alpha* p1 - beta* p0
            np.add(tmp0, tmp1, out=p0)  # alpha p0 + beta p1
    # a reshape, not .copy(): the same C-order copy at a peak 0.18 MiB lower
    return psi.transpose(1, 2, 0).reshape(count, n_real, 2)


def deterministic_phases(h: QubitHamiltonian, duration: float) -> np.ndarray:
    """Gamma_a(k) = duration * (E_k - gamma_dot_k) for every level k.

    Exact for a precessing schedule, on which both the energy and the
    Berry connection are constant in t.  Returns shape (n_levels,).
    """
    frame = eigenframe(h, [0.0, duration])
    return duration * (frame.energies[:, 0] - frame.berry_rates[:, 0])


def _phase_weights(h: QubitHamiltonian, time_grid, level: int, dim: int) -> np.ndarray:
    """Trapezoid weights w (n_t, dim) on ``time_grid`` of the Gamma_s of
    ``level`` on noise samples x: -(gamma/2) int B_n(t) . O_kk(t) dt =
    sum x . w, with O_kk(t) the closed form ``h.level_coupling(level, dim)``
    . f(t)."""
    t = np.asarray(time_grid, dtype=float)
    wt = 2.0 * np.pi / h.schedule.period * t
    harmonics = np.stack([np.ones_like(t), np.cos(wt), np.sin(wt)])
    okk = h.level_coupling(level, dim) @ harmonics  # (dim, n_t)
    half = np.diff(t) / 2.0
    trapezoid = np.r_[half, 0.0] + np.r_[0.0, half]
    return (-0.5 * h.coupling * trapezoid)[:, None] * okk.T


def stochastic_phase_batch(h: QubitHamiltonian, time_grid, noise_samples, level: int):
    """Gamma_s of one level across a batch of noise realizations,
    noise_samples (n_real, n_t, dim), in any memory layout: one einsum with
    ``_phase_weights``."""
    weights = _phase_weights(h, time_grid, level, noise_samples.shape[-1])
    return np.einsum("ntc,tc->n", noise_samples, weights)
