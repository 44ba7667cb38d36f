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

import contextlib
import os
import pickle
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError, _check_count, _check_elements, _check_real

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

#: time steps and bytes of a contiguous working copy: the OU recursion's
#: time-major block, 128 steps of 512 scalar paths (as fast as 256, in half
#: the memory), 16 of 8,192; a draw's rows
_BLOCK = 128
_BLOCK_BYTES = 2**20

#: time steps per window of a streamed ensemble; a multiple of _BLOCK
_CHUNK = 32 * _BLOCK

@dataclass(frozen=True)
class NoiseSpec:
    """Statistical description of the control-field noise.

    variance         stationary variance sigma^2 (field^2 units)
    correlation_time correlation time tau_c (seconds)
    dimension        1 for scalar rf noise along x, 3 for isotropic vector noise
    """

    variance: float
    correlation_time: float
    dimension: int = 1

    def __post_init__(self):
        # sigma = sqrt(variance) scales the noise in the engines: no NaN or inf
        _check_real(self.variance, "variance", 0)
        _check_real(self.correlation_time, "correlation_time", 0, strict=True)
        if _check_count(self.dimension, "dimension", 1) not in (1, 3):
            raise ValueError(f"dimension must be 1 or 3, got {self.dimension}")

    def kernel_profile(self, tau):
        """Normalized fluctuation profile f(tau), with f(0) = 1."""
        return np.exp(-np.abs(np.asarray(tau, dtype=float)) / self.correlation_time)


def split_seed(master_seed: int, index: int) -> int:
    """128-bit Philox key of realization ``index``: master_seed + 2**64 index.

    The master seed is the key's low word and the index its high word, so
    the stream of realization i does not depend on how many other
    realizations exist or in which order they are generated.  Both must be
    integers in [0, 2**64): ValueError otherwise, TypeError for non-integers
    and bools (``_check_count``).
    """
    low = _check_count(master_seed, "master_seed", 0, 2**64 - 1)
    return low + (_check_count(index, "index", 0, 2**64 - 1) << 64)


def realization_rng(master_seed: int, index: int) -> np.random.Generator:
    """Generator of realization ``index``: Philox keyed by ``split_seed``,
    from counter 0."""
    return np.random.Generator(np.random.Philox(key=split_seed(master_seed, index)))


def _worker_count(threads: int, realizations: int, variances) -> int:
    """Worker processes for a request of ``threads`` over ``realizations``
    paths at the noise ``variances``: at most the usable CPUs, and few
    enough for two paths per block; 1 where no variance is nonzero, as
    nothing is drawn, or where ``os.fork`` does not exist (Windows).
    ``threads`` is checked first (``_check_count``)."""
    _check_count(threads, "threads", 1)
    if not any(variances) or not hasattr(os, "fork"):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)  # not on macOS
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(threads, cpus, realizations // 2))


def _run_blocks(work, rows: int, workers: int) -> list:
    """The values of ``work(lo, hi)`` over ``workers`` contiguous blocks of
    ``rows`` rows, in row order.

    The first block runs in this process and each other one in a child of
    ``os.fork`` (``_run_child``), which sends its value back pickled
    through a pipe, read to its end before the child is reaped.  The first
    child, in row order, that sent an exception raises it here with its
    type, and one that ended otherwise (a signal) raises RuntimeError.
    Any exception here kills and reaps every child left and closes its
    pipe before it propagates; SIGINT is held from the fork until the child
    is inside its handler and this process has recorded it.
    """
    bounds = [rows * k // workers for k in range(workers + 1)]
    children = {}  # pid -> the read end of its pipe
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            import signal  # loaded by the runs that fork, not at import
            read, write = os.pipe()
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
            try:
                with warnings.catch_warnings():
                    # Python >= 3.12 warns of a fork while other threads
                    # exist: here OpenBLAS's idle pool, which OpenBLAS shuts
                    # down at a fork (its pthread_atfork handler).  The
                    # child runs numpy array code and leaves through
                    # os._exit, so it waits on no lock another thread held.
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _run_child(work, lo, hi, write, mask)
                children[pid] = read
            except BaseException:
                os.close(read)  # the fork failed: no child holds the pipe
                raise
            finally:
                os.close(write)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results = [work(0, bounds[1])]
        for pid in list(children):
            with open(children[pid], "rb", closefd=False) as pipe:
                message = pipe.read()  # to the end: the child has exited
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if code == 1 and message:
                raise pickle.loads(message)
            if code:
                end = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(f"a worker process ended by {end}")
            results.append(pickle.loads(message))
    finally:
        for pid, read in children.items():  # left only by an exception here
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(read)
    return results


def _run_child(work, lo: int, hi: int, write: int, mask) -> None:
    """Run ``work(lo, hi)`` in a forked child, under the signal ``mask``,
    send its value or its exception to ``write`` pickled, and leave through
    ``os._exit``, never returning into the caller's frames: no atexit
    handler runs and no inherited stdio buffer is flushed twice.  Exit
    status 0 once the value is sent, or 1 once the exception is (as a
    RuntimeError naming it if it does not survive pickling)."""
    import signal

    status = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        try:
            message, status = pickle.dumps(work(lo, hi)), 0
        except BaseException as exc:
            try:
                message = pickle.dumps(exc)
                pickle.loads(message)  # e.g. an __init__ that its args do not fit
            except Exception:
                message = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        with open(write, "wb") as pipe:
            pipe.write(message)
    finally:
        os._exit(status)


def _ensemble_normals(key: int, out: np.ndarray, rngs=None):
    """Fill ``out``, of shape (rows,) + shape, and return it: for ``key`` =
    ``split_seed(master_seed, first)``, row i is bit-identical to
    ``realization_rng(master_seed, first + i).standard_normal(shape)``.

    One Philox is re-keyed per row, at a tenth of the cost of a generator
    per row: the ``state`` setter puts first + i in the key's high word and
    resets the counter and buffer.  An ``out`` whose rows are not
    contiguous, such as time-major memory seen as (realizations, n_t, dim),
    is filled from a contiguous block of rows of up to ``_BLOCK_BYTES`` (at
    least one row).  A ``rngs`` list, filled with a generator per row on
    the first window of a grid, carries the streams across windows.
    """
    master_seed, first = key % 2**64, key >> 64
    if rngs is not None and not rngs:
        rngs.extend(realization_rng(master_seed, first + i) for i in range(len(out)))
    contiguous = out[0].flags.c_contiguous
    rows = _BLOCK_BYTES // max(out[0].nbytes, 1) or 1
    bit_generator = np.random.Philox(key=key)
    gen = np.random.Generator(bit_generator)
    state = bit_generator.state  # counter 0, buffer empty
    buf = out if contiguous else np.empty(out[:rows].shape)
    for start in range(0, len(out), len(buf)):
        block = buf[: len(out) - start]
        for i, row in enumerate(block, start):
            if rngs is None:
                state["state"]["key"][1] = first + i
                bit_generator.state = state
            (gen if rngs is None else rngs[i]).standard_normal(out=row)
        if not contiguous:
            out[start : start + len(block)] = block
    return out


def _n_times(duration: float, dt: float) -> int:
    """Points of the grid 0, dt, ..., duration; a step count above
    MAX_ELEMENTS, or an infinite one, is refused."""
    steps = duration / dt
    _check_elements((steps,), "time grid")
    return int(round(steps)) + 1


def _check_resolution(spec: NoiseSpec, duration: float, dt: float) -> None:
    _check_real(dt, "dt", 0, strict=True)
    if not duration >= dt:  # NaN fails each comparison
        raise ResolutionError(f"duration must be >= dt, got {duration} < {dt}")
    bound = spec.correlation_time / RESOLUTION_FACTOR
    if not dt <= bound * (1 + 1e-12):
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
    x[n] += a x[n-1] runs time-major, in blocks of up to ``_BLOCK`` steps
    that fit in ``_BLOCK_BYTES`` (at least one step): in place on
    time-major memory (the sweeps' paths), otherwise on a contiguous copy
    of each block (noise-validate's path-major windows).  A step is two
    ufunc calls into one preallocated row, t = a x[n-1] then x[n] + t,
    starting from a zero state: the same floating-point operations as
    ``lfilter([1], [1, -a])``, so the same bits whatever the layout, in
    about one block's memory beyond ``xi``.
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
    steps = min(_BLOCK, _BLOCK_BYTES // max(x[0].nbytes, 1)) or 1
    buf = None if x.flags.c_contiguous else np.empty(x[:steps].shape)
    a, tmp = np.array(a), np.empty(x.shape[1:])  # 0-d: no conversion per call
    multiply, add = np.multiply, np.add  # no attribute lookup per step
    for start in range(0, len(x), steps):
        block = x[start : start + steps]
        if buf is not None:
            buf[: len(block)] = block
            block = buf[: len(block)]
        rows = list(block)
        for last, row in zip([prev, *rows], rows):
            multiply(last, a, tmp)
            add(row, tmp, row)
        if buf is not None:
            x[start : start + steps] = block
        prev = x[start + len(rows) - 1]
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
    _check_count(realizations, "realizations", 1)
    split_seed(master_seed, 0)  # once per grid, even where sigma^2 = 0 draws nothing
    _check_resolution(spec, duration, dt)
    return _n_times(duration, dt)


def _window_shape(spec, n, realizations, chunk, history) -> tuple:
    """Shape of ``realizations`` paths' window buffer: the last ``history``
    points before a chunk of up to ``chunk`` new ones; refused above
    MAX_ELEMENTS."""
    shape = (realizations, min(history + chunk, n), spec.dimension)
    _check_elements(shape, "noise ensemble" if chunk >= n else "noise window")
    return shape


def _noise_windows(spec, n, dt, master_seed, realizations, chunk, history=0, first=0):
    """Rows first ... first + realizations - 1 of the ensemble in pairs
    (h, window) along time: each window, a view of one buffer, holds the
    last h <= ``history`` points before a chunk of up to ``chunk`` new
    ones.  Refuses, before allocating, a buffer above MAX_ELEMENTS; one
    chunk keeps no generators."""
    shape = _window_shape(spec, n, realizations, chunk, history)
    buf = np.zeros(shape) if spec.variance == 0.0 else np.empty(shape)
    key = split_seed(master_seed, first)
    rngs = None if chunk >= n else []
    prev, h = None, 0
    for start in range(0, n, chunk):
        c = min(chunk, n - start)
        window = buf[:, : h + c]
        if spec.variance:
            new = window[:, h:]
            _ensemble_normals(key, new, rngs)
            prev = _ou_from_normals(spec, new, dt, prev)[:, -1].copy()
        yield h, window
        keep = min(history, start + c)
        buf[:, :keep] = window[:, h + c - keep :]
        h = keep


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

    Raises ValueError for a lag off the grid or beyond the path, once
    ``_check_real`` has checked ``dt`` and each lag.
    """
    _check_real(dt, "dt", 0, strict=True)
    steps = []
    for lag in lags:
        _check_real(lag, "lags")
        m = np.rint(lag / dt)  # inf for a lag too far to round to an int
        if not 0 <= m < n_times:
            raise ValueError(f"lag {lag} outside the path duration")
        if abs(m * dt - lag) > 1e-9 * max(dt, abs(lag)):
            raise ValueError(f"lag {lag} is not representable on the grid")
        steps.append(int(m))
    return steps


def _lag_sums(windows, steps, sums: np.ndarray) -> np.ndarray:
    """Add to ``sums`` (lags, paths), and return it, each path's
    x(t) . x(t + m) over the pairs whose later point follows the first h of
    a window (h, x), as one einsum of the flattened slices.  einsum, unlike
    np.dot, starts no BLAS threads, whose number would change the bits;
    rows of up to 8,192 elements sum as a per-path ``"i,i->"``.  A lone
    longer row sums in another order than the same row among others, so
    blocks of paths hold two or more (``_worker_count``).  Rows that
    flatten to strided ones (time-major or Fortran memory at dim 1) are
    copied, as einsum would sum them in another order."""
    for h, window in windows:
        n_w, dim = window.shape[1:]
        x = window.reshape(len(window), -1)
        if x.strides[1] != x.itemsize:
            x = np.ascontiguousarray(x)
        for row, m in zip(sums, steps):
            first = max(h, m)
            if first < n_w:
                a = x[:, (first - m) * dim : (n_w - m) * dim]
                row += np.einsum("ij,ij->i", a, x[:, first * dim :])
    return sums


def _autocovariance(sums: np.ndarray, lags, steps, n: int) -> list:
    """(lag, estimate, standard error) from the lag sums of paths of ``n``
    points: the mean and its standard error over paths of each per-path
    time average."""
    n_paths = sums.shape[1]
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
    sums = _lag_sums(windows, steps, np.zeros((len(steps), n_paths)))
    return _autocovariance(sums, lags, steps, n)


def ensemble_autocorrelation(
    spec: NoiseSpec,
    duration: float,
    dt: float,
    master_seed: int,
    realizations: int,
    lags,
    threads: int = 1,
):
    """``estimate_autocorrelation(make_noise_ensemble(spec, duration, dt,
    master_seed, realizations), dt, lags)``, to the bit, in the memory of
    realizations x (largest lag + ``_CHUNK`` steps) x dim samples, whatever
    the duration.  Arguments are checked as those two functions check them;
    MAX_ELEMENTS bounds the chunk's buffer of all the paths, checked here.
    The paths run in ``_worker_count`` contiguous blocks, each drawing,
    filtering and lag-summing its own whole paths with the same bits
    (``_run_blocks``); at sigma^2 = 0 none runs, and each lag sum is +0.0,
    but ``threads`` is still checked."""
    n = _noise_grid(spec, duration, dt, master_seed, realizations)
    steps = _lag_steps(lags, dt, n)
    history = max(steps, default=0)
    _window_shape(spec, n, realizations, _CHUNK, history)  # before any fork

    def block(lo, hi):
        windows = _noise_windows(spec, n, dt, master_seed, hi - lo, _CHUNK, history, lo)
        return _lag_sums(windows, steps, np.zeros((len(steps), hi - lo)))

    workers = _worker_count(threads, realizations, [spec.variance])
    sums = np.zeros((len(steps), realizations))  # (lags, paths): _autocovariance's
    if spec.variance:
        sums = np.concatenate(_run_blocks(block, realizations, workers), axis=1)
    return _autocovariance(sums, lags, steps, n)
