"""Shared pytest hooks for this test tree.

The acceptance module records one verdict line per numbered criterion in
VERDICTS; echoing them in the terminal summary makes the full scorecard
visible in a plain `pytest -v` run, where stdout of passing tests is
otherwise captured and hidden.

The philox_streams fixture runs a test on the Philox streams keyed by
(seed, trajectory id) that the simulator used before its SFC64 streams; the
bitwise literals recorded on those streams are checked under it unchanged.
"""

import pytest

import oracles

VERDICTS = []


@pytest.fixture
def philox_streams(monkeypatch):
    import glmix.integrator

    monkeypatch.setattr(glmix.integrator, "trajectory_generator", oracles.philox_generator)


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)
