"""Shared fixtures and the acceptance-criteria summary hook.

The unit tests run on deliberately small lattices so the whole suite stays
fast; the acceptance tests in test_acceptance.py use the full desk-scale
configuration and are the slow part of a run.
"""
import os
import re

import pytest

from ammfg import ControlBounds, Grids, InitialLaw, PoolParams, quadratic_costs


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test leaves no child process behind, running or as a zombie.

    Forked sweep and simulator workers are reaped before the call that made
    them returns.
    """
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"a child process was left behind (waitpid: pid {pid}, status {status}; "
                "pid 0 is one still running)")


@pytest.fixture
def grids_small():
    return Grids(horizon=1.0, n_t=20, x_min=-3.0, x_max=3.0, n_x=61, n_a=11,
                 n_particles=2000, n_quad=5, seed=101)


@pytest.fixture
def bounds_default():
    return ControlBounds(0.0, 0.5)


@pytest.fixture
def params_default():
    return PoolParams(x0=100.0, k0=1e6, phi=0.997, sigma=0.5)


@pytest.fixture
def costs_default():
    return quadratic_costs(0.5, 0.5, 1.0)


@pytest.fixture
def law_point():
    return InitialLaw(0.0, 0.0)


_CRITERIA = {
    "01": "spread factor at phi=0.997 reproduces 4.51e-6 within 1%",
    "02": "values ordered V_f1 <= V_f <= V_f2 within 3 combined stderr",
    "03": "phi=1, denom_exp=1 equilibrium matches a zero-cost rerun",
    "04": "upper gap nonincreasing in phi and inside the spread envelope",
    "05": "gap at phi=1 is the D^2 residual; scaled Young gap vanishes",
    "06": "direct deviation bounds sit below the certificate epsilon",
    "07": "strong and reweighted value estimates agree",
    "08": "swap mechanics: invariant growth, reserve identity, price formula",
    "09": "second difference in a: -spread_factor^2 for f1, zero for f2",
    "10": "sampled rewards stay inside the exponential growth envelope",
    "11": "deviation gain nonincreasing in crowd size",
}

_NODE_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d\d)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, aggregated over tests."""
    status: dict[str, str] = {}
    rank = {"PASS": 0, "SKIP": 1, "FAIL": 2}
    for outcome, mark in (("passed", "PASS"), ("skipped", "SKIP"),
                          ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(outcome, []):
            m = _NODE_RE.search(getattr(rep, "nodeid", ""))
            if not m:
                continue
            num = m.group(1)
            if num not in status or rank[mark] > rank[status[num]]:
                status[num] = mark
    if not status:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(status):
        terminalreporter.write_line(
            f"criterion {num} [{status[num]}] {_CRITERIA.get(num, '')}")
