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

Reproducibility contract: a path is a pure function of (spec, duration,
dt, seed).  Ensembles derive one child seed per realization index from a
master seed, so results never depend on generation order.
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
    "split_seed",
    "realization_rng",
]

#: dt must be at least this many times smaller than tau_c.
RESOLUTION_FACTOR = 10.0

#: time steps per contiguous buffer of the OU recursion
_BLOCK = 256

#: realization indices per vectorized pass of the seed hash; the chunk's
#: PCG64 states are Python ints, and 4,096 of them raised agp-sweep's peak
#: RSS by 1.7 MiB where 1,024 leave it unchanged
_SEED_CHUNK = 1024

# numpy's SeedSequence hash (O'Neill's seed_seq_fe, pool of 4 uint32 words)
# and PCG64's seeding step, as numpy implements them
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
    """64-bit child seed for realization ``index`` of an ensemble.

    Splitting is counter-based (``SeedSequence(master, spawn_key=(i,))``),
    so the seed for realization i does not depend on how many other
    realizations exist or in which order they are generated.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def realization_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for realization ``index`` of an ensemble."""
    return np.random.default_rng(
        np.random.SeedSequence(split_seed(master_seed, index))
    )


def _seed_pool(words: list) -> list:
    """SeedSequence's entropy pool for rows of entropy ``words``.

    ``words`` lists the uint32 entropy words, each an array over rows; the
    pool is 4 such arrays.  uint32 array arithmetic wraps as the C code does.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value *= hash_const
        value ^= value >> 16
        return value

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        result ^= result >> 16
        return result

    # entropy shorter than the pool hashes on with zero words
    zero = np.zeros_like(words[0])
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _seed_state(pool: list, n_words: int) -> list:
    """``SeedSequence.generate_state(n_words, uint32)`` for each pool row."""
    hash_const = _INIT_B
    out = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value *= hash_const
        value ^= value >> 16
        out.append(value)
    return out


def _child_seed_words(master_seed: int, indices: np.ndarray) -> list:
    """Low and high uint32 words of ``split_seed(master_seed, i)`` per index.

    ``indices`` is a uint32 array.  The master seed's little-endian words
    are padded to the pool size, as SeedSequence does when it has a spawn
    key, and the index is the last entropy word.
    """
    rest = operator.index(master_seed)
    master = []
    while True:
        master.append(rest & _MASK32)
        rest >>= 32
        if not rest:
            break
    master += [0] * (_POOL_SIZE - len(master))
    words = [np.full(indices.shape, w, dtype=np.uint32) for w in master]
    return _seed_state(_seed_pool(words + [indices]), 2)


def _ensemble_normals(
    master_seed: int, realizations: int, shape: tuple
) -> np.ndarray:
    """Standard normals (realizations,) + shape; row i is bit-identical to
    ``realization_rng(master_seed, i).standard_normal(shape)``.

    Both SeedSequence hashes run as uint32 array operations on chunks of
    indices.  A child seed's two words are its SeedSequence entropy: one
    word hashes the same as that word and a zero.  Each row then re-seats
    one PCG64 at the state PCG64's own seeding reaches.
    """
    xi = np.empty((realizations,) + tuple(shape))
    bit_generator = np.random.PCG64(0)
    gen = np.random.Generator(bit_generator)
    for start in range(0, realizations, _SEED_CHUNK):
        stop = min(start + _SEED_CHUNK, realizations)
        indices = np.arange(start, stop, dtype=np.uint32)
        words = _seed_state(_seed_pool(_child_seed_words(master_seed, indices)), 8)
        # generate_state(4, uint64): little-endian pairs of uint32 words
        lo, hi = np.array(words[0::2], np.uint64), np.array(words[1::2], np.uint64)
        seeds = (lo | hi << np.uint64(32)).T.tolist()
        for i, (s_hi, s_lo, inc_hi, inc_lo) in enumerate(seeds, start):
            inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
            state = (((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc) & _MASK128
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            gen.standard_normal(out=xi[i])
    return xi


def _n_times(duration: float, dt: float) -> int:
    """Points of the grid 0, dt, ..., duration."""
    return int(round(duration / dt)) + 1


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


def _ou_from_normals(spec: NoiseSpec, xi: np.ndarray, dt: float) -> np.ndarray:
    """Exact OU recursion along the time axis of ``xi``, shape (..., n_t, dim).

    ``xi[..., 0, :]`` seeds the stationary initial value; later time steps
    drive the AR(1) update.  The result is written into ``xi``, which is
    returned.  The update x[n] += a x[n-1] runs time-major on contiguous
    blocks of ``_BLOCK`` steps, starting from a zero state: the same
    floating-point operations as ``lfilter([1], [1, -a])``, so the same bits.
    """
    sigma = np.sqrt(spec.variance)
    a = np.exp(-dt / spec.correlation_time)
    xi[..., 1:, :] *= sigma * np.sqrt(1.0 - a * a)
    xi[..., 0, :] *= sigma  # stationary marginal at t = 0
    x = np.moveaxis(xi, -2, 0)  # time-major view
    prev = 0.0
    for start in range(0, x.shape[0], _BLOCK):
        block = x[start : start + _BLOCK].copy()
        block[0] += a * prev
        for n in range(1, block.shape[0]):
            block[n] += a * block[n - 1]
        x[start : start + _BLOCK] = block
        prev = block[-1]
    return xi


def make_noise_path(
    spec: NoiseSpec, duration: float, dt: float, seed: int
) -> np.ndarray:
    """One noise realization on the grid 0, dt, ..., duration.

    Returns the samples, shape (n_times, dimension).  The exact
    discretization has stationary marginal variance sigma^2 and
    autocovariance sigma^2 exp(-|tau|/tau_c); the ``dimension`` components
    are independent.  The same (spec, duration, dt, seed) reproduces the
    samples bit-exactly.
    """
    _check_resolution(spec, duration, dt)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    xi = rng.standard_normal((_n_times(duration, dt), spec.dimension))
    return _ou_from_normals(spec, xi, dt)


def make_noise_ensemble(
    spec: NoiseSpec,
    duration: float,
    dt: float,
    master_seed: int,
    realizations: int,
) -> np.ndarray:
    """Noise samples for a whole ensemble, shape (realizations, n_times, dim).

    Row i is bit-identical to ``make_noise_path(spec, duration, dt,
    split_seed(master_seed, i))``; the rows are therefore independent of
    generation order and safe to compute in parallel.  The grid is checked
    first, then the size against MAX_ELEMENTS, both before allocating; at
    sigma^2 = 0 the samples are the recursion's +0.0 without drawing.
    """
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    # checked at every variance; TypeError for non-integers
    if operator.index(master_seed) < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    _check_resolution(spec, duration, dt)
    shape = (realizations, _n_times(duration, dt), spec.dimension)
    _check_elements(shape, "noise ensemble")
    if spec.variance == 0.0:
        return np.zeros(shape)
    xi = _ensemble_normals(master_seed, realizations, shape[1:])
    return _ou_from_normals(spec, xi, dt)


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


def estimate_autocorrelation(samples: np.ndarray, dt: float, lags):
    """Unbiased autocovariance estimate, averaged over paths and time.

    ``samples`` is a noise ensemble of shape (n_paths, n_times, dim) on a
    uniform grid of step ``dt``.  Returns a list of ``(lag, estimate,
    standard_error)``.  The estimator at each lag is the mean over paths of
    the per-path time average of ``x(t) . x(t + lag)`` (summed over
    components); the standard error is the across-path scatter of those
    per-path means.  At lag 0 this equals the (mean-zero) sample variance
    by construction.
    """
    samples = np.asarray(samples)
    if samples.ndim != 3 or samples.shape[0] < 1:
        raise ValueError(
            "samples must have shape (n_paths, n_times, dim) with n_paths >= 1"
        )
    n_paths, n, dim = samples.shape
    out = []
    for lag, m in zip(lags, _lag_steps(lags, dt, n)):
        per_path = np.empty(n_paths)
        for i, x in enumerate(samples):
            # summed component by component, which keeps the bits of a sum
            # over axis 1 without a fresh (n, dim) product per path
            prod = x[: n - m, 0] * x[m:, 0]
            for c in range(1, dim):
                prod += x[: n - m, c] * x[m:, c]
            per_path[i] = np.mean(prod)
        est = float(np.mean(per_path))
        if n_paths > 1:
            se = float(np.std(per_path, ddof=1) / np.sqrt(n_paths))
        else:
            se = 0.0
        out.append((float(lag), est, se))
    return out
