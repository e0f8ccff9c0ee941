"""Shared fixtures: two session-scoped Monte Carlo campaigns reused by the
acceptance checks, plus a terminal report that prints one line per check."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from vrrw import (
    DetectionConfig,
    ExperimentConfig,
    ModelParameters,
    run_campaign,
)

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# filled by tests/test_acceptance.py, printed after the run
ACCEPTANCE_LINES: dict = {}


def record_acceptance(index: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_LINES[index] = f"[{index:2d}] {'PASS' if ok else 'FAIL'} {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance checks")
    for index in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(ACCEPTANCE_LINES[index])


def _standard_campaign(alpha: float):
    cfg = ExperimentConfig(
        model=ModelParameters.for_complete_graph(3, alpha),
        replicas=1000,
        horizon=100_000,
        base_seed=20240817,
        detection=DetectionConfig(),
    )
    return run_campaign(cfg)


@pytest.fixture(scope="session")
def campaign_alpha_25():
    """1000 replicas at horizon 1e5 above the 3-site threshold."""
    return _standard_campaign(2.5)


@pytest.fixture(scope="session")
def campaign_alpha_15():
    """Same size, below the 3-site threshold: both phases occur."""
    return _standard_campaign(1.5)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
