"""Tests for util.parallel_map: item order, errors, the worker cap, and reaping."""

import itertools
import os
import signal
import threading
import time

import pytest

from opplab import util


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that runs past 30 s, so a hung wait for a worker cannot stall the suite."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its 30 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def workers(monkeypatch):
    """Set k workers: k usable CPUs (whatever the machine has) and OPPLAB_THREADS=k."""

    def set_workers(k: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
        monkeypatch.setenv("OPPLAB_THREADS", str(k))

    return set_workers


@pytest.mark.parametrize("k", [1, 2, 3])
def test_parallel_map_keeps_item_order(workers, k):
    workers(k)
    caller = os.getpid()
    got = util.parallel_map(lambda x: (x * x, os.getpid()), range(10))
    _assert_no_child_left()
    assert [v for v, _ in got] == [x * x for x in range(10)]
    pids = [pid for _, pid in got]
    # contiguous shares: the caller runs the first, one forked child each other one
    assert pids[0] == caller and len(set(pids)) == k
    assert len([pid for pid, _ in itertools.groupby(pids)]) == k


def test_child_exception_reaches_the_caller(workers):
    workers(2)

    def fn(x):
        if x == 9:
            raise ValueError(f"item {x} is bad")
        return x

    with pytest.raises(ValueError, match=r"^item 9 is bad$"):
        util.parallel_map(fn, range(10))
    _assert_no_child_left()


def test_child_exception_that_does_not_pickle_keeps_its_type_and_message(workers):
    workers(2)

    class LocalError(Exception):  # a local class: its instances do not pickle
        pass

    def fn(x):
        if x == 9:
            raise LocalError("no pickle")
        return x

    with pytest.raises(RuntimeError, match=r"^LocalError: no pickle$"):
        util.parallel_map(fn, range(10))
    _assert_no_child_left()


def test_killed_child_raises_instead_of_hanging(workers):
    workers(2)
    caller = os.getpid()

    def fn(x):
        if os.getpid() != caller:
            os.kill(os.getpid(), 9)
        return x

    with pytest.raises(ChildProcessError, match="SIGKILL"):
        util.parallel_map(fn, range(4))
    _assert_no_child_left()


def test_caller_share_error_kills_and_reaps_the_children(workers):
    workers(3)
    caller = os.getpid()

    def fn(x):
        if os.getpid() == caller:
            raise KeyError("caller")
        time.sleep(20)  # killed long before this ends
        return x

    start = time.perf_counter()
    with pytest.raises(KeyError):
        util.parallel_map(fn, range(6))
    assert time.perf_counter() - start < 10
    _assert_no_child_left()


def test_thread_setting_is_capped_at_the_usable_cpus(monkeypatch):
    monkeypatch.setenv("OPPLAB_THREADS", "1000000")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert util.worker_count() == cpus
    # even with the cap broken this forks fewer than 64 processes
    pids = util.parallel_map(lambda x: os.getpid(), range(64))
    _assert_no_child_left()
    assert len(set(pids)) <= cpus


def test_runs_serially_while_another_thread_is_alive(workers):
    workers(2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        pids = util.parallel_map(lambda x: os.getpid(), range(4))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert set(pids) == {os.getpid()}
    _assert_no_child_left()
