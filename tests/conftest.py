import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from diracnlft.potential import PotentialSpec, SampledPotential, sample

# CI runs select this with --hypothesis-profile=ci: the same examples on every
# run, no per-example deadline on shared runners, and a reproduction blob for
# any failure.  Local runs keep the randomized default profile.
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)


@pytest.fixture(scope="session")
def free_pot():
    return sample(PotentialSpec(family="zero", params={}), h=0.05, T=100.0)


@pytest.fixture(scope="session")
def const_pot():
    """q = 1 on an 8-unit horizon (coalesces to O(1) cells)."""
    return sample(PotentialSpec(family="constant", params={"q": 1.0}), h=0.01, T=8.0)


@pytest.fixture(scope="session")
def bump_pot():
    """q = 0.3 box on [0, 1] padded with zeros out to T = 71."""
    base = sample(PotentialSpec(family="box", params={"q": 0.3, "t0": 1.0}), h=0.01, T=1.0)
    return SampledPotential(h=0.01, cells=base.cells + (0.0,) * 7000, T=71.0)


@pytest.fixture(scope="session")
def tall_bump_pot():
    """q = 0.8 box on [0, 1] padded to T = 31; zeros at ~(+-2.452, 0.830)."""
    base = sample(PotentialSpec(family="box", params={"q": 0.8, "t0": 1.0}), h=0.01, T=1.0)
    return SampledPotential(h=0.01, cells=base.cells + (0.0,) * 3000, T=31.0)


def random_potential(rng, max_amp=2.0, max_T=10.0, h=0.01) -> SampledPotential:
    n = int(rng.integers(20, int(max_T / h) + 1))
    return SampledPotential(h=h, cells=tuple(rng.uniform(-max_amp, max_amp, n)))


# Populated by test_acceptance; replayed after the test summary so the
# per-criterion verdict lines survive pytest's stdout capture.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
