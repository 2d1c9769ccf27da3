"""Shared fixtures: the two bundled configuration spaces, a small pinned
model, and control over the CPUs that training may use."""

import os
import signal

import numpy as np
import pytest

from heterotune import (
    PatternMatchOracle, bundled_space, dataset_from_measurements, fit_boosted, gen_dataset,
)


@pytest.fixture(scope="session")
def ida():
    return bundled_space("ida")


@pytest.fixture(scope="session")
def emil():
    return bundled_space("emil")


@pytest.fixture(scope="session")
def emil_8_tree_model(emil):
    """The 8-tree, depth-6 model pinned as EMIL_MODEL_SHA256 in test_surrogate.py."""
    rows = gen_dataset(emil, PatternMatchOracle(), sample=400, seed=3)
    return fit_boosted(
        dataset_from_measurements(emil, rows), np.random.default_rng(11),
        n_estimators=8, max_depth=6,
    )


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
