"""Shared fixtures: the two bundled configuration spaces, a small pinned
model, and control over the CPUs that training may use; and the check that
an EM sweep ends as it ends one configuration at a time."""

import os
import signal

import numpy as np
import pytest

from heterotune import (
    CampaignError, PatternMatchOracle, bundled_space, dataset_from_measurements, fit_boosted,
    gen_dataset, run_em,
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


class OneAtATime:
    """An evaluator's one-row `evaluate` and `describe`, without its batch call."""

    def __init__(self, evaluator):
        self.evaluate, self.describe = evaluator.evaluate, evaluator.describe


def em_as_one_at_a_time(space, evaluator):
    """`run_em` over `evaluator` ends as it ends one configuration at a time.

    Where that fails, `evaluate_codes` declines (None), and `run_em` raises
    the same CampaignError: message, cause type and partial report. Returns
    that error, or else the report.
    """
    try:
        expected = run_em(space, OneAtATime(evaluator))
    except CampaignError as one_at_a_time:
        assert evaluator.evaluate_codes(space, space.codes()) is None
        with pytest.raises(CampaignError) as batched:
            run_em(space, evaluator)
        assert str(batched.value) == str(one_at_a_time)
        assert type(batched.value.__cause__) is type(one_at_a_time.__cause__)
        partial = batched.value.partial_report
        assert partial.to_dict(False) == one_at_a_time.partial_report.to_dict(False)
        return one_at_a_time
    assert run_em(space, evaluator).to_dict(False) == expected.to_dict(False)
    return expected
