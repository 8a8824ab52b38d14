import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracnlft.errors import InstabilityError, OverflowRangeError, RangeError, ValidationError
from diracnlft.potential import SampledPotential
from diracnlft.propagator import theta, transfer
from diracnlft.riccati import riccati_evolve_moebius, riccati_evolve_rk

from oracles import arg_mod_E_evolve, oracle_theta


def _random_pot(seed, n=30, h=0.05, amp=1.5):
    rng = np.random.default_rng(seed)
    return SampledPotential(h=h, cells=tuple(rng.uniform(-amp, amp, n)))


# ---------------------------------------------------------------------------
# Moebius route
# ---------------------------------------------------------------------------


def test_moebius_agrees_with_ode_oracle():
    pot = _random_pot(1, n=20)
    for z in (0.4, 1.0 + 0.5j, -2.0 + 0.2j):
        ref = oracle_theta(pot, z, pot.T)
        got = riccati_evolve_moebius(pot, z, pot.T)
        assert abs(got - ref) < 5e-9


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 40),
    h=st.sampled_from([0.05, 0.1]),
    re=st.floats(-6, 6),
    im=st.floats(-1.5, 2.0),
    frac=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_moebius_is_theta_of_transfer(seed, n, h, re, im, frac):
    # one theta evaluator: the Moebius route is theta(transfer(...)) bit for bit
    pot = _random_pot(seed, n=n, h=h)
    z, t = complex(re, im), frac * pot.T
    assert riccati_evolve_moebius(pot, z, t) == theta(transfer(pot, z, t))


def test_free_flow_is_pure_rotation():
    pot = SampledPotential(h=0.5, cells=(0.0,) * 6)
    for z in (0.9, 0.3 + 0.4j):
        for t in (0.7, 2.5):
            got = riccati_evolve_moebius(pot, z, t)
            assert abs(got - np.exp(2j * t * z)) < 1e-13


def test_horizon_guard():
    pot = _random_pot(3, n=10)
    with pytest.raises(RangeError):
        riccati_evolve_moebius(pot, 1.0, pot.T + 1.0)
    with pytest.raises(RangeError):
        riccati_evolve_rk(pot, 1.0, -0.1)
    with pytest.raises(ValidationError):
        riccati_evolve_rk(pot, 1.0, pot.T, dt_max=0.0)


@pytest.mark.parametrize("route", [riccati_evolve_moebius, riccati_evolve_rk],
                         ids=["moebius", "rk"])
def test_both_routes_refuse_what_transfer_refuses(route):
    # the RK route runs transfer's range check: a non-finite or huge z is a
    # RangeError, |Im z| t past the working range an OverflowRangeError
    pot = SampledPotential(h=0.1, cells=(0.5,) * 10)
    for z in (complex("nan"), complex(0.0, float("nan")), float("inf"), -float("inf"), 1e200):
        with pytest.raises(RangeError):
            route(pot, z, pot.T)
    with pytest.raises(OverflowRangeError):
        route(pot, 60j, 1.0)


@pytest.mark.parametrize("dt_max", [1e-9, 5e-324, float("nan")])
def test_rk_step_count_is_bounded(dt_max):
    # ten 0.1-wide cells: 1e-9 asks for 1e9 steps (hours), 5e-324 for infinitely
    # many; both are refused before the first step
    pot = SampledPotential(h=0.1, cells=(0.5,) * 10)
    with pytest.raises(ValidationError, match="dt_max"):
        riccati_evolve_rk(pot, 0.3 + 0.1j, pot.T, dt_max=dt_max)


@given(
    seed=st.integers(0, 500),
    x=st.floats(-10, 10),
)
@settings(max_examples=50, deadline=None)
def test_moebius_unimodular_on_real_axis(seed, x):
    pot = _random_pot(seed, n=12, h=0.1)
    th = riccati_evolve_moebius(pot, x, pot.T)
    assert abs(abs(th) - 1.0) < 1e-12


@given(
    seed=st.integers(0, 500),
    re=st.floats(-5, 5),
    im=st.floats(0.05, 2.0),
)
@settings(max_examples=50, deadline=None)
def test_moebius_contractive_above_real_axis(seed, re, im):
    pot = _random_pot(seed, n=12, h=0.1)
    th = riccati_evolve_moebius(pot, complex(re, im), pot.T)
    assert abs(th) < 1.0 + 1e-14


# ---------------------------------------------------------------------------
# RK route
# ---------------------------------------------------------------------------


def test_rk_matches_moebius_at_fine_step():
    pot = _random_pot(4, n=20)
    for z in (0.5, 1.5 + 0.5j, -2.0 + 1.0j):
        exact = riccati_evolve_moebius(pot, z, pot.T)
        rk = riccati_evolve_rk(pot, z, pot.T, dt_max=1e-3)
        assert abs(rk - exact) < 1e-6


def test_rk_is_fourth_order():
    # wide cells, else the per-cell step cap hides the dt_max refinement
    pot = SampledPotential(h=1.0, cells=(1.0, 1.0, 1.0))
    z = 0.9 + 0.4j
    exact = riccati_evolve_moebius(pot, z, pot.T)
    errs = []
    for dt in (1e-1, 5e-2, 2.5e-2):
        errs.append(abs(riccati_evolve_rk(pot, z, pot.T, dt_max=dt) - exact))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 > 3.5 and order2 > 3.5


def test_rk_disk_guard_trips_on_coarse_steps():
    # strong potential + crude step: the discrete flow leaves the unit disk,
    # which the exact flow never does for Im z >= 0
    pot = SampledPotential(h=1.0, cells=(4.0,) * 8)
    with pytest.raises(InstabilityError):
        riccati_evolve_rk(pot, 0.3 + 0.1j, pot.T, dt_max=1.0)


# ---------------------------------------------------------------------------
# phase / modulus flow on the real axis
# ---------------------------------------------------------------------------


def test_arg_mod_free_case():
    pot = SampledPotential(h=0.5, cells=(0.0,) * 6)
    phase, mod = arg_mod_E_evolve(pot, 2.0, 3.0)
    assert abs(phase - (-6.0)) < 1e-12
    assert abs(mod - 1.0) < 1e-12


def test_arg_mod_matches_first_kind_function():
    pot = _random_pot(6, n=25)
    for x in (0.8, -2.5, 4.0):
        phase, mod = arg_mod_E_evolve(pot, x, pot.T)
        E = transfer(pot, x).E
        # the phase flow has its own fixed step cap, good to ~1e-7
        assert abs(mod - abs(E)) < 5e-6 * max(1.0, abs(E))
        # phase agrees with arg E as a continuous branch: compare on the circle
        assert abs(np.exp(1j * phase) - E / abs(E)) < 5e-6
