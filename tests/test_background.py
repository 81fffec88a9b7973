"""The one background thread of ``envelope._in_background``: an array of at
least ``_OVERLAP_MIN`` betas computes its closed-form terms there, beside the
quadrature on the calling thread, with the errors, errstate and results of
the serial order; scalars and smaller arrays never start it, and a forked
child makes its own."""

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from envdet import envelope
from envdet.envelope import AngleParam, d2_log_det, d_log_det, log_det_area, scan

N = envelope._OVERLAP_MIN


def _grid(n):
    return AngleParam(np.linspace(-0.999, -0.501, n))


class ElementaryError(Exception):
    pass


class QuadratureError(Exception):
    pass


@pytest.mark.parametrize("n", [N - 1, N])
@pytest.mark.parametrize(
    "raising, expected",
    [
        ({"elementary"}, ElementaryError),
        ({"quadrature"}, QuadratureError),
        ({"elementary", "quadrature"}, ElementaryError),
    ],
)
def test_the_caller_sees_the_serial_orders_error(n, raising, expected, monkeypatch):
    real_elementary, real_pair = envelope._elementary, envelope._integral_pair

    def elementary(p, orders):
        if "elementary" in raising:
            raise ElementaryError
        return real_elementary(p, orders)

    def pair(p, orders):
        if "quadrature" in raising:
            raise QuadratureError
        return real_pair(p, orders)

    monkeypatch.setattr(envelope, "_elementary", elementary)
    monkeypatch.setattr(envelope, "_integral_pair", pair)
    with pytest.raises(expected):
        d2_log_det(_grid(n))


def test_a_quadrature_error_waits_for_the_job(monkeypatch):
    real_elementary = envelope._elementary
    finished = []

    def slow_elementary(p, orders):
        time.sleep(0.2)
        finished.append(threading.get_ident())
        return real_elementary(p, orders)

    def failing_pair(p, orders):
        raise QuadratureError

    monkeypatch.setattr(envelope, "_elementary", slow_elementary)
    monkeypatch.setattr(envelope, "_integral_pair", failing_pair)
    with pytest.raises(QuadratureError):
        d2_log_det(_grid(N))
    # the job ran on the other thread, and had finished when the error arrived
    assert len(finished) == 1 and finished[0] != threading.get_ident()


def test_the_job_runs_under_the_callers_errstate():
    def divide(p):
        return np.geterr()["divide"], 1.0 / np.zeros(1)

    with np.errstate(divide="ignore"):
        setting, _ = envelope._in_background(divide, _grid(N))()
    assert setting == "ignore"
    with np.errstate(divide="raise"):
        wait = envelope._in_background(divide, _grid(N))
        with pytest.raises(FloatingPointError):
            wait()


def test_scalars_and_small_arrays_never_make_the_worker(monkeypatch):
    monkeypatch.setattr(envelope, "_background", None)
    where = []
    envelope._in_background(lambda p: where.append(threading.get_ident()), _grid(N - 1))()
    assert where == [threading.get_ident()]
    log_det_area(AngleParam(-0.7), 2.0)
    d_log_det(AngleParam(-0.7))
    d2_log_det(_grid(N - 1))
    scan(-0.9, -0.6, N - 1)
    assert envelope._background is None
    d2_log_det(_grid(N))
    assert envelope._background is not None
    envelope._background.shutdown()


def test_concurrent_callers_share_one_worker_and_get_the_serial_bits(monkeypatch):
    reference = d2_log_det(_grid(N - 1)), d2_log_det(_grid(2 * N))
    monkeypatch.setattr(envelope, "_background", None)
    made = []
    real_executor = envelope.concurrent.futures.ThreadPoolExecutor

    def counting_executor(*args, **kwargs):
        time.sleep(0.01)  # a slow start, which widens any race to make two
        made.append(real_executor(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(envelope.concurrent.futures, "ThreadPoolExecutor", counting_executor)
    callers = 6  # more than the cores of a small host
    start = threading.Barrier(callers)
    results = [None] * callers

    def call(i):
        start.wait(timeout=30)
        results[i] = d2_log_det(_grid((N - 1, 2 * N)[i % 2]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        for executor in made:
            executor.shutdown()
    assert not any(thread.is_alive() for thread in threads)
    assert len(made) == 1
    assert all(r.tobytes() == reference[i % 2].tobytes() for i, r in enumerate(results))


def _exit_code_in_fork(target) -> int:
    """Run ``target`` in a forked child and return its exit code; a child that
    hangs is terminated, then killed, so that no process is left running."""
    child = multiprocessing.get_context("fork").Process(target=target)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.terminate()
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join(timeout=5)
    return child.exitcode


# Python 3.12 and later warn that a process with threads forks; here that is
# the case under test
_FORK_WITH_THREADS = pytest.mark.filterwarnings(
    "ignore:This process .* is multi-threaded:DeprecationWarning"
)


def _nested_job_in_child():
    def inner(p):
        return threading.get_ident()

    def outer(p):
        return threading.get_ident(), envelope._in_background(inner, p)()

    worker, nested = envelope._in_background(outer, _grid(N))()
    if not worker == nested != threading.get_ident():
        sys.exit(3)


@_FORK_WITH_THREADS
def test_a_job_that_asks_for_the_background_runs_inline():
    # in a child, so that a deadlock on the one worker fails the test rather
    # than hang the run
    assert _exit_code_in_fork(_nested_job_in_child) == 0


def _scan_in_child():
    # the fork dropped the parent's worker, whose thread did not come along
    if envelope._background is not None:
        sys.exit(3)
    scan(-0.95, -0.55, 20_000)


@_FORK_WITH_THREADS
def test_a_forked_child_makes_its_own_worker():
    scan(-0.95, -0.55, 20_000)
    assert envelope._background is not None
    assert _exit_code_in_fork(_scan_in_child) == 0
