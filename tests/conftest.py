import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lambid.dispersion import ElasticConstants, PlateSpec

# one line per acceptance criterion, filled in by test_acceptance.py and
# echoed after the run (plain prints are lost to fd-level capture)
ACCEPTANCE_REPORT: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_REPORT:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)


@pytest.fixture
def gfrp():
    """Regression constants for the glass-fibre coupon (Pa, kg/m^3)."""
    return ElasticConstants(28.1e9, 7.8e9, 16.7e9, 8.2e9, 1200.0)


@pytest.fixture
def baseline():
    """Baseline orthotropic constants for the sensitivity study."""
    return ElasticConstants(160e9, 6.5e9, 14e9, 7e9, 1200.0)


@pytest.fixture
def plate():
    return PlateSpec(2e-3)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def random_constants(rng):
    """Positive-definite orthotropic draw for property-style tests."""
    while True:
        c11 = rng.uniform(10e9, 200e9)
        c33 = rng.uniform(10e9, 200e9)
        c13 = rng.uniform(1e9, 0.9 * np.sqrt(c11 * c33))
        c55 = rng.uniform(2e9, 60e9)
        rho = rng.uniform(800.0, 3000.0)
        try:
            return ElasticConstants(c11, c13, c33, c55, rho)
        except ValueError:
            continue


_EIGVALSH = np.linalg.eigvalsh


def one_negative_at(rows):
    """np.linalg.eigvalsh, except that each stacked matrix whose index is in
    rows(stack size) keeps only one negative eigenvalue (still ascending)."""

    def fake(a):
        lams = _EIGVALSH(a)
        for i in rows(lams.shape[0]):
            lams[i] = np.sort(np.abs(lams[i]))
            lams[i, 0] *= -1.0
        return lams

    return fake
