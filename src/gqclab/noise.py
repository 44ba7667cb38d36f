"""Stationary, exponentially correlated control-field noise.

The noise component of the control field is modeled as a zero-mean
Ornstein-Uhlenbeck process with stationary variance ``sigma2`` and
autocovariance

    <x(t) x(t+tau)> = sigma2 * exp(-|tau| / tau_c).

The OU process is the unique choice that is Gaussian, stationary, Markov,
and exponentially correlated, and it admits an *exact* discrete-time
recursion (no integration bias):

    x[n+1] = a x[n] + sigma * sqrt(1 - a^2) * xi[n],   a = exp(-dt / tau_c),

with ``xi`` i.i.d. standard normal and ``x[0]`` drawn from the stationary
marginal, so every path is stationary from t = 0.  Gaussian marginals make
the central-limit argument for the accumulated stochastic phase exact
rather than asymptotic.

Reproducibility contract: realization i of master seed m, for m in
[0, 2**64), draws its normals from ``Generator(Philox(key=m + 2**64 * i))``
from counter 0 (``realization_rng``).  A row is therefore a pure function
of (spec, duration, dt, m, i), whatever the realization count or order.
numpy documents that distinct Philox keys give independent streams, but
does not promise the same ``Generator`` streams across numpy versions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, _check_elements

__all__ = [
    "NoiseSpec",
    "make_noise_path",
    "make_noise_ensemble",
    "estimate_autocorrelation",
    "ensemble_autocorrelation",
    "split_seed",
    "realization_rng",
]

#: dt must be at least this many times smaller than tau_c.
RESOLUTION_FACTOR = 10.0

#: time steps and bytes that a contiguous time-major block of the OU
#: recursion may not exceed: 256 steps of 512 scalar paths, 16 of 8,192
_BLOCK = 256
_BLOCK_BYTES = 2**20

#: time steps per window of a streamed ensemble; a multiple of _BLOCK
_CHUNK = 16 * _BLOCK

@dataclass(frozen=True)
class NoiseSpec:
    """Statistical description of the control-field noise.

    variance         stationary variance sigma^2 (field^2 units)
    correlation_time correlation time tau_c (seconds)
    dimension        1 for scalar rf noise, 3 for isotropic vector noise
    """

    variance: float
    correlation_time: float
    dimension: int = 1

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")
        if self.correlation_time <= 0:
            raise ValueError(
                f"correlation_time must be > 0, got {self.correlation_time}"
            )
        if self.dimension not in (1, 3):
            raise ValueError(f"dimension must be 1 or 3, got {self.dimension}")

    def kernel_profile(self, tau):
        """Normalized fluctuation profile f(tau), with f(0) = 1."""
        return np.exp(-np.abs(np.asarray(tau, dtype=float)) / self.correlation_time)


def split_seed(master_seed: int, index: int) -> int:
    """128-bit Philox key of realization ``index``: master_seed + 2**64 index.

    The master seed is the key's low word and the index its high word, so
    the stream of realization i does not depend on how many other
    realizations exist or in which order they are generated.  Both must be
    integers in [0, 2**64): ValueError otherwise, TypeError for non-integers.
    """
    master_seed, index = operator.index(master_seed), operator.index(index)
    for name, value in (("master_seed", master_seed), ("index", index)):
        if not 0 <= value < 2**64:
            raise ValueError(f"{name} must be in [0, 2**64), got {value}")
    return master_seed + (index << 64)


def realization_rng(master_seed: int, index: int) -> np.random.Generator:
    """Generator of realization ``index``: Philox keyed by ``split_seed``,
    from counter 0."""
    return np.random.Generator(np.random.Philox(key=split_seed(master_seed, index)))


def _ensemble_normals(
    master_seed: int, realizations: int, shape: tuple, rngs=None, out=None
) -> np.ndarray:
    """Standard normals (realizations,) + shape, into ``out`` if given; row i
    is bit-identical to ``realization_rng(master_seed, i).standard_normal(shape)``.

    One Philox is re-keyed per row, at a tenth of the cost of a generator
    per row: the ``state`` setter puts i in the key's high word and resets
    the counter and buffer.  A ``rngs`` list, filled with a generator per
    row on the first window of a grid, carries the streams across windows.
    """
    xi = np.empty((realizations,) + tuple(shape)) if out is None else out
    if rngs is not None:
        if not rngs:
            rngs.extend(realization_rng(master_seed, i) for i in range(realizations))
        for gen, row in zip(rngs, xi):
            gen.standard_normal(out=row)
        return xi
    bit_generator = np.random.Philox(key=master_seed)
    gen = np.random.Generator(bit_generator)
    state = bit_generator.state  # counter 0, buffer empty
    for i in range(realizations):
        state["state"]["key"][1] = i
        bit_generator.state = state
        gen.standard_normal(out=xi[i])
    return xi


def _n_times(duration: float, dt: float) -> int:
    """Points of the grid 0, dt, ..., duration; a step count above
    MAX_ELEMENTS, or an infinite one, is refused."""
    steps = duration / dt
    _check_elements((steps,), "time grid")
    return int(round(steps)) + 1


def _check_resolution(spec: NoiseSpec, duration: float, dt: float) -> None:
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if duration < dt:
        raise ResolutionError(f"duration must be >= dt, got {duration} < {dt}")
    bound = spec.correlation_time / RESOLUTION_FACTOR
    if dt > bound * (1 + 1e-12):
        raise ResolutionError(
            f"dt = {dt} too coarse to resolve the correlation structure; "
            f"need dt <= tau_c/{RESOLUTION_FACTOR:g} = {bound}"
        )


def _ou_from_normals(
    spec: NoiseSpec, xi: np.ndarray, dt: float, prev=None
) -> np.ndarray:
    """Exact OU recursion along the time axis of ``xi``, shape (..., n_t, dim).

    Without ``prev``, ``xi[..., 0, :]`` seeds the stationary value at t = 0;
    with it, the window continues a path whose last time row was ``prev``.
    The result is written into ``xi``, which is returned.  The update
    x[n] += a x[n-1] runs time-major on contiguous copies of up to
    ``_BLOCK`` steps that fit in ``_BLOCK_BYTES`` (at least one step),
    starting from a zero state: the same floating-point operations as
    ``lfilter([1], [1, -a])``, so the same bits whatever the block, in
    about that budget of memory beyond ``xi``.
    """
    sigma = np.sqrt(spec.variance)
    a = np.exp(-dt / spec.correlation_time)
    if prev is None:
        xi[..., 1:, :] *= sigma * np.sqrt(1.0 - a * a)
        xi[..., 0, :] *= sigma  # stationary marginal at t = 0
        prev = 0.0
    else:
        xi *= sigma * np.sqrt(1.0 - a * a)
    x = np.moveaxis(xi, -2, 0)  # time-major view
    steps = min(_BLOCK, _BLOCK_BYTES // max(xi[..., :1, :].nbytes, 1)) or 1
    buf = np.empty((min(steps, x.shape[0]),) + x.shape[1:])
    for start in range(0, x.shape[0], steps):
        block = buf[: x.shape[0] - start]
        block[...] = x[start : start + steps]
        block[0] += a * prev
        for n in range(1, block.shape[0]):
            block[n] += a * block[n - 1]
        x[start : start + steps] = block
        prev = x[start + block.shape[0] - 1]
    return xi


def make_noise_path(
    spec: NoiseSpec, duration: float, dt: float, seed: int
) -> np.ndarray:
    """One noise realization on the grid 0, dt, ..., duration.

    Returns the samples, shape (n_times, dimension): row 0 of
    ``make_noise_ensemble(spec, duration, dt, seed, 1)``.  The exact
    discretization has stationary marginal variance sigma^2 and
    autocovariance sigma^2 exp(-|tau|/tau_c); the ``dimension`` components
    are independent.
    """
    return make_noise_ensemble(spec, duration, dt, seed, 1)[0]


def _noise_grid(spec, duration, dt, master_seed, realizations) -> int:
    """Grid points, once the count, the seed and the grid are checked."""
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    split_seed(master_seed, 0)  # checked at every variance
    _check_resolution(spec, duration, dt)
    return _n_times(duration, dt)


def _noise_windows(spec, n_times, dt, master_seed, realizations, chunk, history=0):
    """The ensemble in pairs (h, window) along time: each window, a view of
    one buffer, holds the last h <= ``history`` points before a chunk of
    up to ``chunk`` new ones.  Refuses, before allocating, a buffer above
    MAX_ELEMENTS.  A grid of one chunk keeps no generators."""
    shape = (realizations, min(history + chunk, n_times), spec.dimension)
    _check_elements(shape, "noise ensemble" if chunk >= n_times else "noise window")
    buf = np.zeros(shape) if spec.variance == 0.0 else np.empty(shape)
    rngs = None if chunk >= n_times else []
    prev, h = None, 0
    for start in range(0, n_times, chunk):
        c = min(chunk, n_times - start)
        window = buf[:, : h + c]
        if spec.variance:
            new = window[:, h:]
            _ensemble_normals(master_seed, realizations, new.shape[1:], rngs, new)
            prev = _ou_from_normals(spec, new, dt, prev)[:, -1].copy()
        yield h, window
        keep = min(history, start + c)
        buf[:, :keep] = window[:, h + c - keep :]
        h = keep


def _segment_noise(spec, normals, window, n, count, dt):
    """The noise of ``count`` back-to-back segments of n steps, in turn, as
    the one buffer ``window`` (rows, n + 1, dim): each segment's stretch of
    the OU path of ``normals`` (rows, count n + 1, dim), which is only read.
    A window's first row carries the last one of the window before as the
    recursion's ``prev``, so the windows are ``make_noise_ensemble``'s path
    to the bit.  At sigma^2 = 0 each is one row of +0.0 samples."""
    if spec.variance == 0.0:
        yield from [np.zeros((1, n + 1, spec.dimension))] * count
        return
    for l in range(count):
        head = min(l, 1)
        if head:
            window[:, 0] = window[:, n]
        new = window[:, head:]
        new[...] = normals[:, l * n + head : (l + 1) * n + 1]
        _ou_from_normals(spec, new, dt, window[:, 0] if head else None)
        yield window


def make_noise_ensemble(
    spec: NoiseSpec,
    duration: float,
    dt: float,
    master_seed: int,
    realizations: int,
) -> np.ndarray:
    """Noise samples for a whole ensemble, shape (realizations, n_times, dim).

    Row i is the OU recursion of
    ``realization_rng(master_seed, i).standard_normal((n_times, dim))``, so
    it does not depend on the realization count or generation order.  The
    seed is checked first (ValueError outside [0, 2**64), TypeError for a
    non-integer), then the grid, then the size against MAX_ELEMENTS, all
    before allocating; at sigma^2 = 0 the samples are the recursion's +0.0
    without drawing.
    """
    n = _noise_grid(spec, duration, dt, master_seed, realizations)
    [(_, samples)] = _noise_windows(spec, n, dt, master_seed, realizations, n)
    return samples


def _lag_steps(lags, dt: float, n_times: int) -> list:
    """Grid steps m = lag / dt of each lag on a path of ``n_times`` points.

    Raises ValueError for a lag that is not a multiple of ``dt`` or that
    does not fit in the path.
    """
    steps = []
    for lag in lags:
        m = int(round(lag / dt))
        if abs(m * dt - lag) > 1e-9 * max(dt, abs(lag)):
            raise ValueError(f"lag {lag} is not representable on the grid")
        if not 0 <= m < n_times:
            raise ValueError(f"lag {lag} outside the path duration")
        steps.append(m)
    return steps


def _autocovariance(windows, lags, steps, n_paths: int, n: int) -> list:
    """(lag, estimate, standard error) from an ensemble's windows (h, x):
    per path, x(t) . x(t + m) is summed over the pairs whose later point
    follows the window's first h, as one einsum of the flattened slices.
    einsum, unlike np.dot, starts no BLAS threads, whose number would change
    the bits; rows of up to 8,192 elements sum as a per-path ``"i,i->"``."""
    sums = np.zeros((len(steps), n_paths))
    for h, window in windows:
        n_w, dim = window.shape[1:]
        x = window.reshape(n_paths, n_w * dim)
        for row, m in zip(sums, steps):
            lo = max(h, m)
            if lo < n_w:
                a, b = x[:, (lo - m) * dim : (n_w - m) * dim], x[:, lo * dim :]
                row += np.einsum("ij,ij->i", a, b)
    per_path = sums / (n - np.array(steps))[:, None]
    est = per_path.mean(axis=1)
    se = np.zeros_like(est) if n_paths < 2 else per_path.std(axis=1, ddof=1)
    se /= np.sqrt(n_paths)
    return [(float(lag), float(e), float(s)) for lag, e, s in zip(lags, est, se)]


def estimate_autocorrelation(samples: np.ndarray, dt: float, lags):
    """Unbiased autocovariance estimate, averaged over paths and time.

    ``samples`` is a noise ensemble of shape (n_paths, n_times, dim) on a
    uniform grid of step ``dt``.  Returns a list of ``(lag, estimate,
    standard_error)``.  The estimator at each lag is the mean over paths of
    the per-path time average of ``x(t) . x(t + lag)`` (summed over
    components); the standard error is the across-path scatter of those
    per-path means.  At lag 0 this equals the (mean-zero) sample variance
    by construction.  Each path's sum is added up in chunks of ``_CHUNK``
    time steps, in time order, as in ``ensemble_autocorrelation``.
    """
    samples = np.asarray(samples)
    if samples.ndim != 3 or samples.shape[0] < 1:
        raise ValueError(
            "samples must have shape (n_paths, n_times, dim) with n_paths >= 1"
        )
    n_paths, n, _ = samples.shape
    steps = _lag_steps(lags, dt, n)
    heads = {t: min(max(steps, default=0), t) for t in range(0, n, _CHUNK)}
    windows = ((h, samples[:, t - h : t + _CHUNK]) for t, h in heads.items())
    return _autocovariance(windows, lags, steps, n_paths, n)


def ensemble_autocorrelation(
    spec: NoiseSpec,
    duration: float,
    dt: float,
    master_seed: int,
    realizations: int,
    lags,
):
    """``estimate_autocorrelation(make_noise_ensemble(spec, duration, dt,
    master_seed, realizations), dt, lags)``, to the bit, in the memory of
    realizations x (largest lag + ``_CHUNK`` steps) x dim samples, whatever
    the duration.  Arguments are checked as those two functions check them;
    MAX_ELEMENTS bounds the chunk's buffer."""
    n = _noise_grid(spec, duration, dt, master_seed, realizations)
    steps = _lag_steps(lags, dt, n)
    history = max(steps, default=0)
    windows = _noise_windows(spec, n, dt, master_seed, realizations, _CHUNK, history)
    return _autocovariance(windows, lags, steps, realizations, n)
