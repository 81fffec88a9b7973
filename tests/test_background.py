"""The one background thread of ``envelope._in_background``: an array of at
least ``_OVERLAP_MIN`` betas computes its closed-form terms there, beside the
quadrature on the calling thread, and a scan of at least ``_SPLIT_MIN`` betas
its order-2 quadrature too, after them, beside the quadrature of orders 0 and
1; both with the errors, errstate and results of the serial order.  Scalars
and smaller arrays never start it, a forked child makes its own, and once
interpreter shutdown has begun (an ``atexit`` handler, a thread that outlives
the main one) a job runs on the calling thread."""

import collections
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from envdet import envelope
from envdet.envelope import AngleParam, d2_log_det, d_log_det, log_det_area, scan

N = envelope._OVERLAP_MIN
S = envelope._SPLIT_MIN
COLUMNS = ("beta", "log_det", "d1", "d2", "asymptotic_neg1", "asymptotic_neghalf")


def _grid(n):
    return AngleParam(np.linspace(-0.999, -0.501, n))


class ElementaryError(Exception):
    pass


class QuadratureError(Exception):
    pass


class LastOrderError(Exception):
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


@pytest.mark.parametrize("call", [d_log_det, d2_log_det], ids=["d_log_det", "d2_log_det"])
def test_a_float_beta_runs_straight_through_without_the_hand_off(call, monkeypatch):
    # the terms, then the quadrature, on the calling thread, with the bits
    # and the error order of the array path
    expected = call(AngleParam(-0.7))
    handed_off = []

    def in_background(*args):
        handed_off.append(args)
        raise AssertionError("a float beta reached _in_background")

    monkeypatch.setattr(envelope, "_in_background", in_background)
    assert call(AngleParam(-0.7)).hex() == expected.hex()

    def elementary(p, orders):
        raise ElementaryError

    def pair(p, orders):
        raise QuadratureError

    monkeypatch.setattr(envelope, "_elementary", elementary)
    monkeypatch.setattr(envelope, "_integral_pair", pair)
    with pytest.raises(ElementaryError):
        call(AngleParam(-0.7))
    assert handed_off == []


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


def _python(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter on this envdet, warnings as errors."""
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", textwrap.dedent(script)],
        env=dict(os.environ, PYTHONPATH=str(Path(envelope.__file__).parents[1])),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_scalars_and_small_arrays_never_make_the_worker():
    where = []
    envelope._in_background(lambda p: where.append(threading.get_ident()), _grid(N - 1))()
    assert where == [threading.get_ident()]
    # in a fresh interpreter, where no earlier call has started the thread
    done = _python(f"""
        import threading
        import numpy as np
        import envdet
        from envdet.envelope import AngleParam, d2_log_det, d_log_det, log_det_area, scan
        counts = [threading.active_count()]
        log_det_area(AngleParam(-0.7), 2.0)
        d_log_det(AngleParam(-0.7))
        d2_log_det(AngleParam(np.linspace(-0.999, -0.501, {N - 1})))
        scan(-0.9, -0.6, {N - 1})
        counts.append(threading.active_count())
        d2_log_det(AngleParam(np.linspace(-0.999, -0.501, {N})))
        counts.append(threading.active_count())
        print(counts)
    """)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[1, 1, 2]\n")


def test_concurrent_callers_share_one_worker_and_get_the_serial_bits(monkeypatch):
    reference = d2_log_det(_grid(N - 1)), d2_log_det(_grid(2 * N))
    real_job = envelope._elementary_then_pair
    jobs = []

    def job(p, *args):
        if p.beta.size >= N:  # handed to the background, not run inline
            jobs.append(threading.get_ident())
        return real_job(p, *args)

    monkeypatch.setattr(envelope, "_elementary_then_pair", job)
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
    assert not any(thread.is_alive() for thread in threads)
    # every large caller's job ran on one thread, none of the callers'
    assert len(jobs) == callers // 2 and len(set(jobs)) == 1
    assert jobs[0] not in {thread.ident for thread in threads}
    assert all(r.tobytes() == reference[i % 2].tobytes() for i, r in enumerate(results))


def _wide_scan(n):
    return scan(-0.999, -0.501, n, 1.7)


@pytest.mark.parametrize("n", [S - 1, S])
@pytest.mark.parametrize(
    "raising, expected",
    [
        ({"elementary"}, ElementaryError),
        ({"lower"}, QuadratureError),
        ({"last"}, LastOrderError),
        ({"elementary", "lower"}, ElementaryError),
        ({"elementary", "last"}, ElementaryError),
        ({"lower", "last"}, QuadratureError),
        ({"elementary", "lower", "last"}, ElementaryError),
    ],
)
def test_a_split_scan_raises_the_serial_orders_error(n, raising, expected, monkeypatch):
    # below _SPLIT_MIN one quadrature runs over orders 0, 1 and 2, and fails
    # as its first failing order would; from _SPLIT_MIN on the order-2
    # quadrature runs apart, and its error comes last
    real_elementary, real_pair = envelope._elementary, envelope._integral_pair

    def elementary(p, orders):
        if "elementary" in raising:
            raise ElementaryError
        return real_elementary(p, orders)

    def pair(p, orders):
        if "lower" in raising and 0 in orders:
            raise QuadratureError
        if "last" in raising and 2 in orders:
            raise LastOrderError
        return real_pair(p, orders)

    monkeypatch.setattr(envelope, "_elementary", elementary)
    monkeypatch.setattr(envelope, "_integral_pair", pair)
    with pytest.raises(expected):
        _wide_scan(n)


@pytest.mark.parametrize("n", [S - 1, S])
def test_a_split_scans_quadrature_error_waits_for_every_job(n, monkeypatch):
    real_elementary, real_pair = envelope._elementary, envelope._integral_pair
    finished = []

    def slow_elementary(p, orders):
        time.sleep(0.2)
        finished.append(("elementary", threading.get_ident()))
        return real_elementary(p, orders)

    def pair(p, orders):
        if 0 in orders:
            raise QuadratureError
        time.sleep(0.2)
        finished.append((orders, threading.get_ident()))
        return real_pair(p, orders)

    monkeypatch.setattr(envelope, "_elementary", slow_elementary)
    monkeypatch.setattr(envelope, "_integral_pair", pair)
    with pytest.raises(QuadratureError):
        _wide_scan(n)
    # every job ran on the other thread, and had finished when the error arrived
    assert [job for job, _ in finished] == (["elementary", (2,)] if n >= S else ["elementary"])
    assert all(thread != threading.get_ident() for _, thread in finished)


@pytest.mark.parametrize("n", [S - 1, S])
def test_every_quadrature_of_a_scan_runs_under_the_callers_errstate(n, monkeypatch):
    real_pair = envelope._integral_pair
    seen = []

    def pair(p, orders):
        seen.append((orders, np.geterr()["divide"], threading.get_ident()))
        return real_pair(p, orders)

    monkeypatch.setattr(envelope, "_integral_pair", pair)
    with np.errstate(divide="ignore"):
        _wide_scan(n)
    assert sorted(orders for orders, _, _ in seen) == ([(0, 1), (2,)] if n >= S else [(0, 1, 2)])
    assert all(setting == "ignore" for _, setting, _ in seen)
    # the order-2 quadrature of a split ran on the other thread
    assert len({thread for _, _, thread in seen}) == (2 if n >= S else 1)


def _columns_bytes(table):
    return [getattr(table, name).tobytes() for name in COLUMNS]


@pytest.mark.parametrize("n", [S - 1, S, S + 1, 20_000, 100_000])
def test_a_split_scan_gives_the_serial_bits(n, monkeypatch):
    split = _columns_bytes(_wide_scan(n))
    monkeypatch.setattr(envelope, "_SPLIT_MIN", n + 1)
    assert split == _columns_bytes(_wide_scan(n))


def test_a_split_takes_several_orders_of_a_wide_array_only(monkeypatch):
    real_pair = envelope._integral_pair
    orders_seen = []

    def pair(p, orders):
        orders_seen.append(orders)
        return real_pair(p, orders)

    monkeypatch.setattr(envelope, "_integral_pair", pair)
    d_log_det(_grid(S))
    d2_log_det(_grid(S))
    log_det_area(_grid(S), 2.0)
    _wide_scan(S - 1)
    assert orders_seen == [(1,), (2,), (0,), (0, 1, 2)]
    orders_seen.clear()
    _wide_scan(S)
    assert collections.Counter(orders_seen) == collections.Counter([(0, 1), (2,)])


def test_concurrent_split_scans_get_the_serial_bits():
    sizes = (S - 1, S)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(envelope, "_SPLIT_MIN", 10**9)
        reference = [_columns_bytes(_wide_scan(n)) for n in sizes]
    callers = 4  # more than the cores of a small host
    start = threading.Barrier(callers)
    results = [None] * callers

    def call(i):
        start.wait(timeout=30)
        results[i] = _columns_bytes(_wide_scan(sizes[i % 2]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(r == reference[i % 2] for i, r in enumerate(results))


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


@_FORK_WITH_THREADS
def test_a_forked_child_makes_its_own_worker():
    scan(-0.95, -0.55, 20_000)
    parents = envelope._background

    def scan_in_child():
        # the parent's executor stayed behind with its thread, which did not
        # come along
        if envelope._background is parents:
            sys.exit(3)
        scan(-0.95, -0.55, 20_000)

    assert _exit_code_in_fork(scan_in_child) == 0


# Large calls whose columns are printed as hashes: a d2_log_det wide enough to
# hand its closed-form terms to the background, and a scan wide enough to
# hand it its order-2 quadrature too.
_LARGE_CALLS = """
    import atexit, hashlib, threading, time
    import numpy as np
    from envdet.envelope import AngleParam, d2_log_det, scan

    def calls():
        d2 = d2_log_det(AngleParam(np.linspace(-0.9, -0.6, 600)))
        table = scan(-0.9, -0.6, 20000)
        columns = [d2] + [getattr(table, name) for name in {columns}]
        print(hashlib.sha256(b"".join(c.tobytes() for c in columns)).hexdigest())
"""


def _after_main(how: str, warm: bool) -> str:
    """The stdout of the large calls made in ``main``, or after it has ended
    by ``how``: an ``atexit`` handler or a thread that waits for the main one
    to finish; ``warm`` makes a large call in ``main`` first, so that the
    background thread has started."""
    late = {
        "main": "calls()",
        "atexit": "atexit.register(calls)",
        "thread": textwrap.dedent("""
            def late():
                while threading.main_thread().is_alive():
                    time.sleep(0.01)
                calls()
            threading.Thread(target=late).start()
        """),
    }[how]
    warm_up = "d2_log_det(AngleParam(np.linspace(-0.9, -0.6, 600)))\n" if warm else ""
    done = _python(textwrap.dedent(_LARGE_CALLS.format(columns=COLUMNS)) + warm_up + late)
    assert (done.returncode, done.stderr, len(done.stdout.split())) == (0, "", 1)
    return done.stdout


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_large_calls_in_an_atexit_handler_give_mains_bytes(warm):
    assert _after_main("atexit", warm) == _after_main("main", False)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_large_calls_from_a_thread_that_outlives_main_give_mains_bytes(warm):
    assert _after_main("thread", warm) == _after_main("main", False)
