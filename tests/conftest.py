"""Fixtures shared by the test modules."""

import contextlib
import signal

import pytest


@pytest.fixture
def time_limit():
    """``with time_limit(seconds): ...`` raises TimeoutError once the block runs too long.

    It turns a call that never returns into a failure instead of a hung run.
    """

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
