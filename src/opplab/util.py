"""Shared helpers: the worker pool, chunked sampling, range expansion, canonical signs.

The Monte Carlo draws from numpy substreams spawned off a single
SeedSequence, with the chunk layout fixed by the input sizes alone, and
reduces its chunks in order.  The only thread pool, parallel_map, serves the
projection survey: it returns results in input order, so the number of
worker threads (OPPLAB_THREADS) changes wall time but never a single output
byte.  expand_ranges, the one expander of integer intervals, serves the
lattice ball walk and both stages of the window enumeration, and
canonical_mask (first nonzero entry positive) is the one sign rule of the
witnesses, the shortest vector and every integral approximation.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
U = TypeVar("U")


def worker_count() -> int:
    """Number of worker threads: OPPLAB_THREADS, or the CPUs this process may run on.

    The usable CPUs are the process's affinity set where the platform has
    one (a process pinned to one core gets one thread), else the CPU count.
    """
    raw = os.environ.get("OPPLAB_THREADS")
    if raw is not None:
        try:
            n = int(raw)
        except ValueError as exc:
            raise ValueError(f"OPPLAB_THREADS must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ValueError(f"OPPLAB_THREADS must be >= 1, got {n}")
        return n
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def parallel_map(fn: Callable[[T], U], items: Iterable[T]) -> list[U]:
    """Map ``fn`` over ``items``, preserving order.

    Work is farmed out to ``worker_count()`` threads; the returned list is
    always in input order, so reductions over it are thread-count-independent.
    """
    items = list(items)
    n = worker_count()
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # imported here: concurrent.futures loads threading, queue and logging,
    # which no other step needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(n, len(items))) as ex:
        return list(ex.map(fn, items))


def spawn_rngs(seed: int, k: int) -> list[np.random.Generator]:
    """k reproducible, statistically independent generators for one seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(k)]


def chunk_sizes(total: int, target: int) -> list[int]:
    """Split ``total`` into nearly equal chunks of size about ``target``.

    The layout depends only on (total, target), never on the worker count.
    """
    if total <= 0:
        return []
    k = max(1, -(-total // target))
    base, extra = divmod(total, k)
    return [base + (1 if i < extra else 0) for i in range(k)]


def uniform_ball(
    rng: np.random.Generator, n: int, dim: int = 3, out: np.ndarray | None = None
) -> np.ndarray:
    """n points uniform in the unit ball of R^dim (direction times radius^(1/dim)).

    The points are drawn into ``out`` (an (n, dim) float64 array) when one is
    given, so a caller that draws many chunks reuses one buffer; it is then
    returned.  The draws and their bits are the same either way: the norms
    are summed column by column, the order np.linalg.norm's reduction takes
    over so few columns, and the one temporary holds the norms, then the
    radii.
    """
    x = rng.standard_normal((n, dim), out=out)
    r = np.multiply(x[:, 0], x[:, 0])
    for c in range(1, dim):
        r += x[:, c] * x[:, c]
    x /= np.sqrt(r, out=r)[:, None]
    rng.random(out=r)
    x *= np.power(r, 1.0 / dim, out=r)[:, None]
    return x


#: Most entries in one chunk of expand_ranges, so its callers' temporaries
#: stay a few hundred KiB however many integers the intervals hold.
_RANGE_CHUNK = 1 << 11


def expand_ranges(lo: np.ndarray, hi: np.ndarray):
    """Chunks (i, v) of every integer v in each interval [lo[i], hi[i]], in order.

    lo and hi hold integers (float64 or int64), v holds them as float64.
    Each chunk holds at most _RANGE_CHUNK entries; an empty interval adds
    none and a long one may span several chunks.
    """
    counts = np.maximum(hi - lo + 1.0, 0.0)
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, _RANGE_CHUNK):
        stop = min(start + _RANGE_CHUNK, total)
        # the intervals that meet [start, stop), and how many of their integers lie in it
        first = int(np.searchsorted(ends, start, side="right"))
        last = int(np.searchsorted(ends, stop, side="left"))
        meet = slice(first, last + 1)
        part = np.minimum(ends[meet], stop) - np.maximum(starts[meet], start)
        i = np.repeat(np.arange(first, last + 1), part.astype(np.int64))
        yield i, (lo[i] - starts[i]) + np.arange(start, stop, dtype=float)


def canonical_mask(m: np.ndarray) -> np.ndarray:
    """Rows of m whose first nonzero entry is positive: one of each pair +-m_i."""
    nz = m != 0
    first = m[np.arange(len(m)), np.argmax(nz, axis=1)]
    return nz.any(axis=1) & (first > 0)


def weighted_mean_stderr(values: Sequence[float], weights: Sequence[float]) -> tuple[float, float]:
    """Weighted mean of independent chunk estimates and its standard error.

    The spread between chunks estimates the sampling variance, so no analytic
    variance formula for the underlying estimator is needed.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    mean = float(np.sum(w * v))
    if len(v) < 2:
        return mean, float("nan")
    # unbiased-ish spread of the weighted mean; exact for equal weights
    var = float(np.sum(w**2 * (v - mean) ** 2) * len(v) / (len(v) - 1))
    return mean, var**0.5


def power(x: float, e: float) -> float:
    """x**e for x >= 0, inf where it overflows (0 to a negative power included).

    Python's float ** raises OverflowError or ZeroDivisionError there; the
    callers test the result against their own domain instead.
    """
    try:
        return x**e
    except (OverflowError, ZeroDivisionError):
        return math.inf
