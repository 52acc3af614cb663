"""Shared helpers: the worker pool, chunked sampling, range expansion, canonical signs.

The Monte Carlo draws from numpy substreams spawned off a single
SeedSequence, with the chunk layout fixed by the input sizes alone, and
reduces its chunks in order.  The one worker pool, parallel_map, serves the
projection survey and the margulis transports: it runs shares of the items
in forked processes and returns the results in input order, so the number
of workers (OPPLAB_THREADS) changes wall time but never a single output
byte.  expand_ranges, the one expander of integer intervals, serves the
lattice ball walk and both stages of the window enumeration, and
canonical_mask (first nonzero entry positive) is the one sign rule of the
witnesses, the shortest vector and every integral approximation.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
U = TypeVar("U")


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def worker_count() -> int:
    """Number of workers: OPPLAB_THREADS capped at the usable CPUs, or the usable CPUs.

    A process pinned to one core gets one worker, and a huge OPPLAB_THREADS
    starts no more workers than there are CPUs to run them.
    """
    raw = os.environ.get("OPPLAB_THREADS")
    if raw is not None:
        try:
            n = int(raw)
        except ValueError as exc:
            raise ValueError(f"OPPLAB_THREADS must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ValueError(f"OPPLAB_THREADS must be >= 1, got {n}")
        return min(n, _usable_cpus())
    return _usable_cpus()


def _can_fork() -> bool:
    """Whether parallel_map may fork: os.fork exists, not on macOS, and no other Python thread runs.

    Forking after Apple's Accelerate has started is unsafe, and a fork made
    while another thread holds a lock leaves that lock held in the child.
    """
    if not hasattr(os, "fork") or sys.platform == "darwin":
        return False
    threading = sys.modules.get("threading")
    return threading is None or threading.active_count() == 1


def parallel_map(fn: Callable[[T], U], items: Iterable[T]) -> list[U]:
    """Map ``fn`` over ``items`` in ``worker_count()`` processes; results in item order.

    The items are cut into contiguous shares, one per worker.  The caller
    runs the first share; a forked child runs each other one and sends back
    the pickle of its results, or of its exception, which is then raised
    here with its type and message.  A child that dies without a result
    raises ChildProcessError naming its signal or exit code.  Every child is
    reaped before this returns or raises, and killed first when the caller's
    own share or a read raised, so none outlives the call.  The results are
    concatenated in item order, so reductions over them do not depend on
    the worker count.  The run is serial where _can_fork says no.
    """
    items = list(items)
    k = min(worker_count(), len(items))
    if k <= 1 or not _can_fork():
        return [fn(x) for x in items]
    import signal  # imported here: only a forking call needs it

    ends = [len(items) * s // k for s in range(k + 1)]
    pids, pipes = [], []
    try:
        for s in range(1, k):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            with os.fdopen(write_fd, "wb") as sink:  # the parent's copy closes here
                pid = os.fork()
                if pid == 0:
                    _run_share(sink, fn, items[ends[s] : ends[s + 1]])
            pids.append(pid)
        results = [fn(x) for x in items[: ends[1]]]
        outcomes = [pipe.read() for pipe in pipes]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for pid, data, status in zip(pids, outcomes, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code != 0:  # the child exits 0 only once its whole outcome is written
            how = f"was killed by {signal.Signals(-code).name}" if code < 0 else f"exited with code {code}"
            raise ChildProcessError(f"a parallel_map worker process (pid {pid}) {how} before sending its results")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results += value
    return results


def _run_share(sink, fn: Callable, share: list) -> None:
    """In a forked child: map fn over the share, write the pickled outcome to sink, and exit 0.

    os._exit skips the stdio buffers and exit handlers inherited from the
    parent, so nothing the parent holds is flushed twice.
    """
    code = 1
    try:
        try:
            outcome = (True, [fn(x) for x in share])
        except BaseException as exc:  # noqa: BLE001  (sent to the parent)
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome)
            pickle.loads(data)  # an exception can pickle yet not load
        except Exception as exc:  # noqa: BLE001
            what = exc if outcome[0] else outcome[1]
            data = pickle.dumps((False, RuntimeError(f"{type(what).__name__}: {what}")))
        sink.write(data)
        sink.flush()
        code = 0
    finally:
        os._exit(code)


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
