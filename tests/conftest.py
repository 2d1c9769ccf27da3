"""Shared fixtures: the two bundled configuration spaces, and control over the
CPUs that training may use."""

import os
import signal

import pytest

from heterotune import bundled_space


@pytest.fixture(scope="session")
def ida():
    return bundled_space("ida")


@pytest.fixture(scope="session")
def emil():
    return bundled_space("emil")


@pytest.fixture
def cpus(monkeypatch):
    """`cpus(n)` makes n CPUs usable and returns the list of children forked since."""
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)

    def force(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        forked.clear()
        return forked

    return force


@pytest.fixture
def deadline():
    """A test still running after 120 s raises TimeoutError instead of hanging."""
    if not hasattr(signal, "SIGALRM"):
        pytest.skip("needs SIGALRM")

    def expire(signum, frame):
        raise TimeoutError("the test ran past its 120 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_children():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
