"""Oracles and probes shared by several test modules."""

import itertools
import tracemalloc
from dataclasses import replace
from typing import Callable

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.signal import fftconvolve, lfilter

from gqclab import ensemble
from gqclab.adiabatic import (
    _SLICE_ELEMENTS,
    EigenFrame,
    QubitHamiltonian,
    deterministic_phases,
    eigenframe,
    evolve_exact_batch,
)
from gqclab.errors import ResourceLimitError, _check_elements
from gqclab.ensemble import (
    AveragedDensity,
    decoherence_factor_analytic,
    variance_analytic,
)
from gqclab.gate import BELL_LEVELS
from gqclab.noise import NoiseSpec
from gqclab.shor import NoisyAmplitudeModel, ShorInstance, _prime_factors

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])


def _noise_operators(h, dimension: int) -> np.ndarray:
    """Component operators O_c such that H_s = -(gamma/2) sum_c B_n^c O_c.

    Scalar noise (dimension 1) is along x, so it uses sigma_x; isotropic
    noise (dimension 3) uses the Pauli vector.  Two-qubit operators act
    identically on both qubits (shared coil): O -> O x 1 + 1 x O.
    """
    ops = list(PAULI[:dimension])
    if h.qubit_count == 2:
        eye = np.eye(2)
        ops = [np.kron(o, eye) + np.kron(eye, o) for o in ops]
    return np.stack(ops)


def _operator_expectations(frame: EigenFrame, operators) -> np.ndarray:
    """<E_k(t)| O_c |E_k(t)> from the frame's states, shape
    (n_levels, n_components, n_t): the numerical oracle of
    ``QubitHamiltonian.level_coupling``."""
    out = np.einsum("kti,cij,ktj->kct", frame.states.conj(), operators, frame.states)
    return np.real(out)


@pytest.fixture
def noise_operators():
    return _noise_operators


@pytest.fixture
def operator_expectations():
    return _operator_expectations


def _two_qubit_slice_product(h, time_grid, path, slices):
    """Two-qubit propagator of one noise path from dense 4x4 matrix exponentials.

    Each slice uses the midpoint field b = B_a(t_mid) + noise(t_mid), with the
    noise interpolated by ``np.interp`` and added to the field's first dim
    components, and H = -(gamma/2) b . (sigma x 1 + 1 x sigma); the slice
    propagators expm(-i H eps) are multiplied in time order.  ``path`` has
    shape (n_times, dim).
    """
    t = np.asarray(time_grid, dtype=float)
    eps = (t[-1] - t[0]) / slices
    mids = t[0] + (np.arange(slices) + 0.5) * eps
    field = h.schedule.field(mids)
    for c in range(path.shape[1]):
        field[:, c] += np.interp(mids, t, path[:, c])
    eye = np.eye(2)
    ops = np.stack([np.kron(s, eye) + np.kron(eye, s) for s in PAULI])
    u = np.eye(4, dtype=complex)
    for b in field:
        hamiltonian = -0.5 * h.coupling * np.tensordot(b, ops, axes=1)
        u = expm(-1j * eps * hamiltonian) @ u
    return u


@pytest.fixture
def two_qubit_slice_product():
    return _two_qubit_slice_product


def _noiseless_propagator(h, t: float) -> np.ndarray:
    """Exact propagator U(t) from 0 of a single qubit in the noiseless field.

    The field precesses at a constant magnitude and cone angle, so with
    R(t) = exp(-i phi(t) sigma_z / 2) the Hamiltonian is R(t) H(0) R(t)^dag,
    and in the co-rotating frame it is the constant H(0) - (phidot / 2)
    sigma_z:  U(t) = R(t) exp(-i [H(0) - (phidot / 2) sigma_z] t), the
    rotating-field solution with its non-adiabatic phase (Aharonov and
    Anandan, PRL 58, 1593 (1987)).  phidot carries the sign of the
    schedule's direction, so a gate segment passes its own schedule.
    """
    sched = h.schedule
    h0 = -0.5 * h.coupling * np.tensordot(sched.field(0.0), PAULI, axes=1)
    frame = expm(-1j * (h0 - 0.5 * sched.azimuth_rate * SIGMA_Z) * t)
    return expm(-0.5j * sched.azimuth(t) * SIGMA_Z) @ frame


@pytest.fixture
def noiseless_propagator():
    return _noiseless_propagator


def _su2_apply(b, coupling, eps, psi):
    """Apply exp(+i (gamma eps / 2) b . sigma) to a batch of spinors.

    ``b`` has shape (..., 3) and ``psi`` (..., 2); this is the exact
    propagator of H = -(gamma/2) b . sigma over a step ``eps``.
    """
    norm = np.linalg.norm(b, axis=-1)
    x = 0.5 * coupling * eps * norm
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(norm[..., None] > 0, b / norm[..., None], 0.0)
    cos_x = np.cos(x)[..., None]
    sin_x = np.sin(x)
    nx, ny, nz = unit[..., 0], unit[..., 1], unit[..., 2]
    # (n . sigma) psi
    rot0 = nz * psi[..., 0] + (nx - 1j * ny) * psi[..., 1]
    rot1 = (nx + 1j * ny) * psi[..., 0] - nz * psi[..., 1]
    return cos_x * psi + 1j * sin_x[..., None] * np.stack([rot0, rot1], axis=-1)


def _slice_loop_reference(h, time_grid, noise_samples, psi0, slices):
    """``evolve_exact_batch`` one slice at a time, from unit field vectors.

    Each slice applies the SU(2) exponential of the midpoint field, with the
    noise interpolated by np.interp's formula and added to the field's first
    dim components, to every realization.
    """
    t = np.asarray(time_grid, dtype=float)
    psi0 = np.asarray(psi0, dtype=complex)
    n_real = noise_samples.shape[0]
    eps = (t[-1] - t[0]) / slices
    mids = t[0] + (np.arange(slices) + 0.5) * eps
    b_det = h.schedule.field(mids)
    dim = noise_samples.shape[-1]
    j = np.searchsorted(t, mids, side="right") - 1
    slope = np.diff(noise_samples, axis=1) / np.diff(t)[:, None]
    noise_mid = slope[:, j] * (mids - t[j])[:, None] + noise_samples[:, j]
    cols = psi0.reshape(2, -1).T  # spinor columns (m, 2)
    psi = np.broadcast_to(cols, (n_real,) + cols.shape).copy()
    for k in range(slices):
        b = np.repeat(b_det[k][None], n_real, axis=0)
        b[:, :dim] += noise_mid[:, k]
        psi = _su2_apply(b[:, None], h.coupling, eps, psi)
    return psi.swapaxes(-1, -2).reshape((n_real,) + psi0.shape)


@pytest.fixture
def slice_loop_reference():
    return _slice_loop_reference


def _cayley_klein_reference(bx, by, bz, scale):
    """Cayley-Klein parameters of exp(+i scale b . sigma) = [[alpha, beta],
    [-beta*, alpha*]] on freshly allocated arrays: x = scale |b|,
    s = sin(x) / |b| (s = 0 at |b| = 0), alpha = cos x + i s b_z and
    beta = s (b_y + i b_x)."""
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


def _exact_batch_reference(h, time_grid, noise_samples, psi0, slices, sigma=1.0):
    """``evolve_exact_batch`` with every pass array allocated afresh.

    The same slice passes of ``_SLICE_ELEMENTS`` elements, midpoint rule,
    gather and spinor-update order, but each pass holds every field
    component at full width, adds the noise's dim components to the first
    dim and leaves the others at the control field, and divides sin x by |b|
    only where |b| > 0.  The engine's bits must equal these.
    """
    single = isinstance(h, QubitHamiltonian)
    segments = [h] if single else list(h)
    psi0 = np.asarray(psi0, dtype=complex)
    t = np.asarray(time_grid, dtype=float)
    n_steps = t.size - 1
    n_real, _, dim = noise_samples.shape
    count = len(segments)
    eps = (t[-1] - t[0]) / slices
    mids = t[0] + (np.arange(slices) + 0.5) * eps
    b_det = np.stack([s.schedule.field(mids) for s in segments], 1)
    scale = np.array([[0.5 * s.coupling * eps] for s in segments])
    j = np.searchsorted(t, mids, side="right") - 1
    weight = sigma * (mids - t[j]) / np.diff(t)[j]
    first = n_steps * np.arange(count)
    time_major = noise_samples.transpose(1, 0, 2)
    psi = np.repeat(psi0.reshape(2, -1, 1), count * n_real, axis=2)
    psi = psi.reshape(2, -1, count, n_real)
    p0, p1 = psi
    tmp0, tmp1 = np.empty_like(p0), np.empty_like(p0)
    block = max(_SLICE_ELEMENTS // (count * n_real), 1)
    for start in range(0, slices, block):
        k = slice(start, start + block)
        jk = j[k, None] + first
        lo = time_major[jk]
        noise = time_major[jk + 1] - lo
        noise *= weight[k, None, None, None]
        lo *= sigma
        noise += lo
        b = np.repeat(b_det[k, :, None], n_real, axis=2)  # (block, P, n_real, 3)
        b[..., :dim] += noise
        alpha, beta = _cayley_klein_reference(*np.moveaxis(b, -1, 0), scale)
        for a, bt, ac, bc in zip(alpha, beta, alpha.conj(), beta.conj()):
            np.multiply(a, p0, out=tmp0)
            np.multiply(bt, p1, out=tmp1)
            np.multiply(bc, p0, out=p0)
            np.multiply(ac, p1, out=p1)
            p1 -= p0
            np.add(tmp0, tmp1, out=p0)
    final = psi.transpose(2, 3, 0, 1).reshape((count, n_real) + psi0.shape)
    return final[0] if single else final


@pytest.fixture
def exact_batch_reference():
    return _exact_batch_reference


def _ou_reference(spec, xi, dt):
    """OU samples from the normals ``xi`` (..., n_t, dim) by scipy's IIR filter.

    The same scaling as ``noise._ou_from_normals``, then the AR(1) filter
    ``lfilter([1], [1, -a])`` along the time axis; ``xi`` is left as it is.
    """
    sigma = np.sqrt(spec.variance)
    a = np.exp(-dt / spec.correlation_time)
    x = np.array(xi)
    x[..., 1:, :] *= sigma * np.sqrt(1.0 - a * a)
    x[..., 0, :] *= sigma
    return lfilter([1.0], [1.0, -a], x, axis=-2)


@pytest.fixture
def ou_reference():
    return _ou_reference


def _trapezoid(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``values`` (..., n) times the trapezoid weights of the grid ``times``."""
    dt = times[1] - times[0]
    w = np.full(times.size, dt)
    w[0] = w[-1] = dt / 2.0
    return w * values


def _double_time_integral(
    weighted: np.ndarray, times: np.ndarray, kernel: Callable
) -> float:
    """sum_c int int o_c(t) o_c(t') f(t - t') dt dt' by an FFT convolution,
    from each component's quadrature-weighted samples w o_c on ``times``."""
    n = times.size
    dt = times[1] - times[0]
    lags = np.arange(-(n - 1), n) * dt
    kern = np.asarray(kernel(lags), dtype=float)
    total = 0.0
    for comp in weighted:
        g = fftconvolve(comp, kern)[n - 1 : 2 * n - 1]
        total += float(np.sum(comp * g))
    return total


def overlap_integral(
    frame: EigenFrame,
    operators: np.ndarray,
    kernel: Callable,
    levels: tuple,
    period: float,
    rtol: float = 1e-3,
) -> float:
    """Numerical I_kj over [0, period].

    O_kj(t) = <E_k|O|E_k> - <E_j|O|E_j> is evaluated from the eigenframe
    (component-wise for vector operators), and the double time integral is
    done with trapezoid weights and an FFT convolution against the kernel.
    The result must agree with the half-resolution grid to ``rtol``
    relative, otherwise the frame grid is too coarse and a ValueError is
    raised.
    """
    k, j = levels
    if k == j:
        raise ValueError("levels k and j must differ (I_kk is trivially zero)")
    t = frame.times
    if t[-1] < period * (1 - 1e-9):
        raise ValueError("frame must cover the full period [0, T]")
    n_t = int(round(period / (t[1] - t[0])))
    t = t[: n_t + 1]
    exp = _operator_expectations(frame, np.asarray(operators))
    o_diff = exp[k][:, : n_t + 1] - exp[j][:, : n_t + 1]
    # an integrand at the roundoff floor of the operator scale is exactly zero
    ref = float(np.max(np.abs(operators)))
    if float(np.max(np.abs(o_diff))) <= 1e-9 * ref:
        return 0.0

    full = _double_time_integral(_trapezoid(o_diff, t), t, kernel)
    coarse = _double_time_integral(_trapezoid(o_diff[:, ::2], t[::2]), t[::2], kernel)
    scale = max(abs(full), abs(coarse), 1e-300)
    if abs(full - coarse) > 10 * rtol * scale:
        raise ValueError(
            f"overlap integral not converged: {full:g} vs {coarse:g} on the "
            "half grid; use a finer eigenframe time grid"
        )
    return full


def _numeric_overlap(h, correlation_time, levels=(1, 0), dimension=1, steps=8192):
    """Oracle I_kj of ``h`` over its schedule's whole duration, all its
    cycles, on an eigenframe of ``steps`` steps per period."""
    duration = h.schedule.duration
    frame = eigenframe(h, np.linspace(0.0, duration, h.schedule.cycles * steps + 1))
    kernel = NoiseSpec(1.0, correlation_time).kernel_profile
    return overlap_integral(
        frame, _noise_operators(h, dimension), kernel, levels, duration
    )


def _level_index_map(k, j: int) -> tuple:
    """Level (i1, i2) occupied after the first j pulses pi_1, pi_2, pi_1,
    pi_2 of the gate's sequence, from level k given as its index 2 i1 + i2
    or as bits (i1, i2): pi_1 flips i1 and pi_2 flips i2."""
    if not 0 <= j <= 4:
        raise ValueError(f"segment step must be in 0..4, got {j}")
    i1, i2 = divmod(k, 2) if isinstance(k, (int, np.integer)) else k
    return (i1 ^ (j + 1) // 2 % 2, i2 ^ j // 2 % 2)


@pytest.fixture
def level_index_map():
    return _level_index_map


def _numeric_gate_overlap(
    h, correlation_time, levels=BELL_LEVELS, dimension=1, steps=8192
):
    """Oracle I_kj over the gate's whole window: its four segments C, Cbar,
    C, Cbar, one cycle each of ``h``'s contour, as one noise path.  Each
    segment keeps its own trapezoid weights, so a boundary point carries
    dt/2 (g_l(T) + g_{l+1}(0)), and one convolution spans all four."""
    contour = replace(h.schedule, cycles=1, direction="forward")
    t = np.linspace(0.0, contour.period, steps + 1)
    ops = _noise_operators(h, dimension)
    weighted = np.zeros((len(ops), 4 * steps + 1))
    for l, schedule in enumerate([contour, contour.reversed()] * 2):
        exp = _operator_expectations(eigenframe(replace(h, schedule=schedule), t), ops)
        (k1, k2), (j1, j2) = (_level_index_map(x, l) for x in levels)
        o_diff = exp[2 * k1 + k2] - exp[2 * j1 + j2]
        weighted[:, l * steps : (l + 1) * steps + 1] += _trapezoid(o_diff, t)
    window = t[1] * np.arange(4 * steps + 1)
    kernel = NoiseSpec(1.0, correlation_time).kernel_profile
    return _double_time_integral(weighted, window, kernel)


@pytest.fixture
def numeric_overlap():
    return _numeric_overlap


@pytest.fixture
def numeric_gate_overlap():
    return _numeric_gate_overlap


def _averaged_density_analytic(config) -> AveragedDensity:
    """Closed-form noise-averaged density matrix of ``config``, no Monte
    Carlo: rho_kj = c_k c_j* exp(-i Gamma_a(k,j)) exp(-Var_kj/2), Var_kj
    from the exact overlap of each level pair over the run's whole window,
    with zero standard errors.  The limit that ``run_ensemble`` converges to."""
    h, noise = config.hamiltonian, config.noise
    gamma_a = deterministic_phases(h, h.schedule.duration)
    c = config.amplitudes
    n = h.n_levels
    d = np.ones((n, n))
    for k, j in itertools.combinations(range(n), 2):
        i_kj = ensemble._segment_overlap(
            [(h, 0, 0)], noise.correlation_time, (k, j), noise.dimension
        )
        var = variance_analytic(1, h.coupling, noise.variance, i_kj)
        d[k, j] = d[j, k] = decoherence_factor_analytic(var)
    phases = np.exp(-1j * np.subtract.outer(gamma_a, gamma_a))
    return AveragedDensity(np.outer(c, c.conj()) * phases * d, np.zeros((n, n)))


@pytest.fixture
def averaged_density_analytic():
    return _averaged_density_analytic


def coprime_residues(r: int) -> tuple:
    """The residues m < r with gcd(m, r) = 1 (empty for r = 1 by convention):
    one sieve over [0, r) strikes out 0 and the multiples of r's primes."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    keep = np.ones(r, dtype=bool)
    keep[0] = False
    for p in _prime_factors(r):
        keep[::p] = False
    return tuple(np.flatnonzero(keep).tolist())


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


@pytest.fixture
def constructive_outcomes():
    return _constructive_outcomes


def _prob_averaged_float_branch(model: NoisyAmplitudeModel, c) -> np.ndarray:
    """``shor.prob_averaged`` with its zero-angle branch picked on the float
    angle (``np.isclose`` within 1e-12) rather than on the integer r c mod q:
    the oracle that the integer test picks the same branch, bit for bit."""
    inst = model.instance
    q, r, m = inst.register_size, inst.period, inst.path_count
    a = 2.0 * np.pi * ((r * np.asarray(c)) % q) / q
    with np.errstate(invalid="ignore", divide="ignore"):
        s2 = np.where(
            np.isclose(np.mod(a, 2.0 * np.pi), 0.0, atol=1e-12),
            float(m) ** 2,
            (np.sin(m * a / 2.0) / np.sin(a / 2.0)) ** 2,
        )
    damping = np.exp(-model.path_phase_variance)
    return (m + (s2 - m) * damping) / (m * q)


@pytest.fixture
def prob_averaged_float_branch():
    return _prob_averaged_float_branch


def _path_phases(model: NoisyAmplitudeModel, c) -> np.ndarray:
    """DFT phases 2 pi (j r + l) c / q of every path j, shape (..., paths)."""
    inst = model.instance
    j = np.arange(inst.path_count)
    return (
        2.0
        * np.pi
        / inst.register_size
        * (j * inst.period + inst.offset)
        * np.asarray(c)[..., None]
    )


def _amplitude_mc(
    model: NoisyAmplitudeModel,
    c_values,
    n_samples: int,
    master_seed: int,
    chunk: int = 4096,
):
    """Monte Carlo mean and standard error of |f(c)|^2 for many outcomes.

    The oracle for ``shor.prob_averaged``: each sample draws i.i.d.
    normal(0, v) phases for the paths and sums the DFT amplitude directly.
    Shares each realization's path phases across all requested c (one
    matrix product per chunk), so estimates at different c are correlated
    but individually unbiased.  The q/r paths make this O(N^2) wide for
    small r, so it refuses, before allocating, more than MAX_ELEMENTS.
    """
    inst = model.instance
    c_values = np.asarray(c_values, dtype=int)
    _check_elements((inst.path_count, c_values.size + chunk), "amplitude_mc")
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


@pytest.fixture
def amplitude_mc():
    return _amplitude_mc


def _peak_bytes(fn, *args) -> int:
    """Peak bytes that tracemalloc saw while ``fn(*args)`` ran."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    return _peak_bytes


def _refused_unallocated(fn, *args):
    """Assert that ``fn(*args)`` raises ResourceLimitError having allocated
    under 1 MiB (numpy reports its buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.fixture
def refused_unallocated():
    return _refused_unallocated


def _segment_amplitudes_reference(segments, t, path, c, slices, sigma):
    """The two-qubit exact engine (``ensemble._exact_basis``, then
    ``evolve_exact_batch``, then ``ensemble._exact_amplitudes``) one
    segment at a time.

    Each segment's window of ``path`` propagates both one-qubit
    eigenstates at azimuth 0, one ``evolve_exact_batch`` call per segment
    and eigenstate, and the amplitude matrix Psi[i1, i2] evolves as
    u Psi u^T, then the segment's ideal pi-pulse.  A one-row window (the
    sigma^2 = 0 row) propagates as two copies of its row: numpy multiplies
    a one-element array in place by another loop than a longer one, with
    other bits, and the pipeline's one call holds a row per segment.
    """
    singles = [replace(h, qubit_count=1, level_cone_angles=None) for h, *_ in segments]
    v = eigenframe(singles[0], t).states[:, 0, :]  # rows: the eigenstates
    n = t.size - 1
    psi = c.reshape(2, 2)
    for l, (h, (_, _, target)) in enumerate(zip(singles, segments)):
        window = path[:, l * n : (l + 1) * n + 1]
        rows = np.repeat(window, 2, axis=0) if len(window) == 1 else window
        columns = [evolve_exact_batch([h], t, rows, e, slices, sigma) for e in v]
        u = v @ np.stack(columns, axis=-1)[0, : len(window)]
        psi = u @ psi @ u.swapaxes(-1, -2)
        if target:
            psi = np.flip(psi, axis=target)
    return psi.reshape(-1, 4)


@pytest.fixture
def segment_amplitudes_reference():
    return _segment_amplitudes_reference


def _trapezoid_phase(h, time_grid, noise_samples, level) -> np.ndarray:
    """Gamma_s of one level over noise_samples (rows, n_t, dim) by the
    trapezoid rule: the integrand -(gamma/2) x(t) . O_kk(t), with O_kk the
    closed form ``h.level_coupling(level, dim)`` . f(t), summed pairwise.
    The integral that ``_phase_weights`` states as one weight vector."""
    t = np.asarray(time_grid, dtype=float)
    wt = 2.0 * np.pi / h.schedule.period * t
    harmonics = np.stack([np.ones_like(t), np.cos(wt), np.sin(wt)])
    okk = h.level_coupling(level, noise_samples.shape[-1]) @ harmonics
    y = np.einsum("ntc,ct->nt", noise_samples, okk) * (-0.5 * h.coupling)
    return ((y[:, 1:] + y[:, :-1]) * np.diff(t) / 2.0).sum(axis=-1)


def _gamma_s_reference(segments, t, path, levels) -> np.ndarray:
    """Gamma_s (rows, n_levels) of ``levels`` along the filtered noise
    ``path`` (rows, n_t, dim) spanning ``segments``, ``t`` each: segment l
    integrates level k ^ flips over its window path[:, l n : (l+1) n + 1]
    by the trapezoid rule.  The other columns stay 0.  The analytic
    engine's Gamma_s the long way, filter then integrate, which its weights
    on the normals (``ensemble._normal_weights``) state as one linear map."""
    n = t.size - 1
    gamma_s = np.zeros((len(path), segments[0][0].n_levels))
    for l, (h, flips, _) in enumerate(segments):
        window = path[:, l * n : (l + 1) * n + 1]
        for k in levels:
            gamma_s[:, k] += _trapezoid_phase(h, t, window, k ^ flips)
    return gamma_s


@pytest.fixture
def gamma_s_reference():
    return _gamma_s_reference


def _every_row(config, segments):
    """(matrix, standard_errors, gamma_a) of ``config`` over ``segments`` at
    sigma^2 = 0 with every realization propagated: the pipeline's engines on
    config.realizations rows of +0.0 noise per segment, the computation that
    the ensemble pipeline's one-row shortcut stands for."""
    span = segments[0][0].schedule.duration
    n = ensemble._grid_steps(span, config.dt)
    t = np.linspace(0.0, span, n + 1)
    rows, c = config.realizations, config.amplitudes
    path = np.zeros((rows, len(segments) * n + 1, config.noise.dimension))
    gamma_a = ensemble._gamma_a(segments, span)
    if config.engine == "exact_propagation":
        singles, states, spinor = ensemble._exact_basis(segments, t, c)
        x = evolve_exact_batch(singles, t, path, spinor, n * config.substeps, 0.0)
        amps = ensemble._exact_amplitudes(segments, states, c, x)
    else:
        gamma_s = _gamma_s_reference(segments, t, path, np.flatnonzero(c))
        amps = c * np.exp(-1j * (gamma_a + gamma_s))
    return (*ensemble._averaged_density(amps, rows), gamma_a)


@pytest.fixture
def every_row():
    return _every_row


@pytest.fixture
def propagated_rows(monkeypatch):
    """Row counts of the noise that the ensemble pipeline hands to the
    engines, one entry per completed call: the samples of each
    ``evolve_exact_batch`` call, and the normals of each analytic block,
    which returns their Gamma_s (rows, n_levels) read off the weights."""
    rows = []
    propagate, run_blocks = ensemble.evolve_exact_batch, ensemble._run_blocks

    def propagated(h, time_grid, samples, *args):
        result = propagate(h, time_grid, samples, *args)
        rows.append(samples.shape[0])
        return result

    def contracted(work, *args):
        def block(lo, hi):
            result = work(lo, hi)
            if isinstance(result, np.ndarray):  # the exact engine's is a list
                rows.append(len(result))
            return result

        return run_blocks(block, *args)

    monkeypatch.setattr(ensemble, "evolve_exact_batch", propagated)
    monkeypatch.setattr(ensemble, "_run_blocks", contracted)
    return rows


@pytest.fixture
def normal_draws(monkeypatch):
    """(realizations, shape) of each draw of normals that the ensemble
    pipeline makes: one call draws rows 0 ... realizations - 1, in order,
    into its ``out`` buffer."""
    draws = []
    real = ensemble._ensemble_normals

    def spy(master_seed, out):
        draws.append((len(out), out.shape[1:]))
        return real(master_seed, out)

    monkeypatch.setattr(ensemble, "_ensemble_normals", spy)
    return draws


@pytest.fixture
def phase_grids(monkeypatch):
    """(time grid, noise points) of each segment and level whose Gamma_s
    weights the ensemble pipeline builds (``_phase_weights``): the grid a
    run integrates on."""
    grids = []
    real = ensemble._phase_weights

    def spy(h, time_grid, level, dim):
        weights = real(h, time_grid, level, dim)
        grids.append((time_grid, len(weights)))
        return weights

    monkeypatch.setattr(ensemble, "_phase_weights", spy)
    return grids
