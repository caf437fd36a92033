"""Fixtures shared by the test modules."""

import signal

import pytest


@pytest.fixture
def within_a_second():
    """Fail the test with TimeoutError if it runs past one second."""
    def alarm(signum, frame):
        raise TimeoutError("no answer within a second")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
