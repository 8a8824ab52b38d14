import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracnlft.errors import (
    AliasingError,
    DomainTooSmallError,
    QuadratureError,
    RangeError,
    ValidationError,
)
from diracnlft.nlft import (
    ParsevalReport,
    hilbert_consistency,
    hilbert_transform,
    interval_scattering_grid,
    nlft_forward,
    parseval_check,
    _unwrap_phases,
)
from diracnlft.potential import SampledPotential, l2_norm_sq

from oracles import diagonal_closed_form, hilbert_pair_lorentzian, parseval_two_grid


def _random_pot(seed, n=40, h=0.05, amp=1.5):
    rng = np.random.default_rng(seed)
    return SampledPotential(h=h, cells=tuple(rng.uniform(-amp, amp, n)))


# ---------------------------------------------------------------------------
# forward transform basics
# ---------------------------------------------------------------------------


def test_free_transform_is_trivial(free_pot):
    grid = np.concatenate([np.linspace(-15, 15, 11), [0.5 + 1.0j, -2.0 + 0.5j]])
    sd = nlft_forward(free_pot, T=3.0, grid=grid)
    assert np.max(np.abs(sd.a - 1.0)) < 1e-12
    assert np.max(np.abs(sd.b)) < 1e-12
    assert np.max(np.abs(sd.r)) < 1e-12
    assert np.max(np.abs(sd.log_abs_a)) < 1e-12


def test_constant_potential_hyperbolic_values(const_pot):
    # at z = 0 the system decouples and a, b are hyperbolic in int f
    sd = nlft_forward(const_pot, T=1.0, grid=[0.0])
    assert abs(sd.a[0] - np.cosh(1.0)) < 1e-13
    assert abs(sd.b[0] - np.sinh(1.0)) < 1e-13
    M = diagonal_closed_form(const_pot, 1.0)
    assert abs(sd.a[0] - (M[0, 0] + M[1, 1]) / 2.0) < 1e-13


def test_conjugate_symmetry_is_exact():
    # every cell coefficient is even in the internal square root, so
    # conjugating z commutes through the whole propagation bit for bit
    pot = _random_pot(11)
    xs = np.array([0.3, 1.7, 4.0, 9.5])
    plus = nlft_forward(pot, grid=xs)
    minus = nlft_forward(pot, grid=-xs)
    assert np.array_equal(minus.a, np.conj(plus.a))
    assert np.array_equal(minus.b, np.conj(plus.b))


def test_real_axis_defects_structure():
    pot = _random_pot(12)
    sd = nlft_forward(pot, grid=np.linspace(-20, 20, 41))
    d = sd.real_axis_defects()
    assert d["unimodular"] < 1e-11
    assert d["log_a_negativity"] < 1e-12  # |a| >= 1 on the real axis
    assert d["r_modulus"] < 1.0  # strict: |r|^2 = 1 - 1/|a|^2


@given(seed=st.integers(0, 2000), x=st.floats(-25, 25))
@settings(max_examples=60, deadline=None)
def test_unimodularity_property(seed, x):
    pot = _random_pot(seed, n=20, h=0.1, amp=1.0)
    sd = nlft_forward(pot, grid=[x])
    assert abs(abs(sd.a[0]) ** 2 - abs(sd.b[0]) ** 2 - 1.0) < 1e-11


def test_forward_validation():
    pot = _random_pot(13, n=10)
    with pytest.raises(RangeError):
        nlft_forward(pot, T=pot.T + 1.0, grid=[0.0])
    with pytest.raises(RangeError):
        nlft_forward(pot, T=0.0, grid=[0.0])
    with pytest.raises(ValidationError):
        nlft_forward(pot)


# ---------------------------------------------------------------------------
# interval transforms
# ---------------------------------------------------------------------------


def test_interval_matches_shifted_potential():
    pot = _random_pot(14, n=40, h=0.05)
    # cut on cell boundaries so the shifted potential is easy to build by hand
    i1, i2 = 8, 31
    t1, t2 = i1 * pot.h, i2 * pot.h
    shifted = SampledPotential(h=pot.h, cells=pot.cells[i1:i2])
    grid = np.linspace(-8, 8, 17)
    a = interval_scattering_grid(pot, t1, t2, grid)
    b = nlft_forward(shifted, grid=grid)
    assert np.max(np.abs(a.a - b.a)) < 1e-12
    assert np.max(np.abs(a.b - b.b)) < 1e-12
    assert a.T == pytest.approx(t2 - t1)


def test_interval_single_point_matches_grid():
    pot = _random_pot(15, n=20)
    val = interval_scattering_grid(pot, 0.25, 0.8, [1.3]).a[0]
    sd = interval_scattering_grid(pot, 0.25, 0.8, [-2.0, 1.3, 4.5])
    assert abs(val - sd.a[1]) <= 1e-13 * abs(val)


def test_interval_validation():
    pot = _random_pot(16, n=10)
    with pytest.raises(RangeError):
        interval_scattering_grid(pot, 0.4, 0.4, [0.0])
    with pytest.raises(RangeError):
        interval_scattering_grid(pot, -0.1, 0.4, [0.0])


# ---------------------------------------------------------------------------
# Parseval
# ---------------------------------------------------------------------------


def test_parseval_smooth_bump(bump_pot):
    rep = parseval_check(bump_pot, T=1.0, tol=1e-2)
    assert rep.rel_err <= 1e-2
    assert rep.rhs == pytest.approx(l2_norm_sq(bump_pot, 0.0, 1.0), abs=1e-14)
    assert rep.lhs == pytest.approx((2.0 / np.pi) * rep.raw_integral, abs=1e-14)
    assert rep.domain_half_width >= 32.0


def test_parseval_on_sub_interval():
    pot = _random_pot(17, n=30, h=0.05, amp=0.8)
    rep = parseval_check(pot, T=1.2, t1=0.45, tol=1e-2)
    assert rep.rel_err <= 1e-2
    assert rep.rhs == pytest.approx(l2_norm_sq(pot, 0.45, 1.2), abs=1e-14)


def test_parseval_zero_potential(free_pot):
    rep = parseval_check(free_pot, T=2.0, tol=1e-2)
    assert rep.rhs == 0.0
    assert rep.rel_err == 0.0


def test_parseval_budget_exhaustion_carries_partial_report(monkeypatch):
    import diracnlft.nlft as nlft_mod

    # a tolerance this tight exhausts any level budget; shrink the budget so
    # the failure path is cheap to reach
    monkeypatch.setattr(nlft_mod, "_PARSEVAL_MAX_LEVELS", 4)
    pot = _random_pot(18, n=20, h=0.05, amp=0.7)
    with pytest.raises(QuadratureError) as exc_info:
        parseval_check(pot, tol=1e-13)
    rep = exc_info.value.report
    assert isinstance(rep, ParsevalReport)
    assert rep.refinement_levels >= 4
    assert rep.rhs > 0.0


def test_parseval_refuses_a_batch_past_the_node_budget():
    # the real budget: a potential 5000 wide starts at a step of 5e-5, so its
    # first core grid would hold 1 280 001 nodes; it is refused before any
    # propagation, with a report that holds no integral yet
    pot = SampledPotential(h=5000.0, cells=(0.01,))
    with pytest.raises(QuadratureError, match="budget of 1048576 nodes") as exc_info:
        parseval_check(pot)
    rep = exc_info.value.report
    assert rep.refinement_levels == 0 and math.isnan(rep.lhs)
    assert rep.rhs == pytest.approx(0.5)


def _sin2_bump(L, mass=0.6, h=0.02):
    """The benchmark's Parseval potential: a sin^2 bump of length L and mass ||f||^2."""
    n = round(L / h)
    mids = (np.arange(n) + 0.5) * h
    amp = math.sqrt(8.0 * mass / (3.0 * L))
    return SampledPotential(h=h, cells=tuple(amp * np.sin(np.pi * mids / L) ** 2), T=n * h)


def _record_batches(monkeypatch):
    import diracnlft.nlft as nlft_mod

    sizes, inner = [], nlft_mod.interval_scattering_grid

    def recorded(pot, t1, t2, grid):
        sizes.append(np.size(grid))
        return inner(pot, t1, t2, grid)

    monkeypatch.setattr(nlft_mod, "interval_scattering_grid", recorded)
    return sizes


@pytest.mark.parametrize("case", ["sin2_L1", "sin2_L2.3", "sin2_L3", "box", "zero", "wide"])
def test_parseval_equals_the_two_grid_quadrature(case, bump_pot, free_pot, monkeypatch):
    # each step level is one propagation: the first level's integral is the
    # trapezoid over the second level's even nodes, so the report keeps every
    # bit of the quadrature that propagated the first grid by itself
    if case.startswith("sin2"):
        pot, kw = _sin2_bump(float(case[6:])), {}
    elif case == "box":
        pot, kw = bump_pot, {"T": 1.0}
    elif case == "zero":
        pot, kw = free_pot, {"T": 2.0}
    else:
        # width 5.6027 > 5: the step starts at 0.25 / width, and the second
        # level holds 2n + 1 nodes where the first holds n, not 2n - 1
        pot = _random_pot(20, n=120, h=0.05, amp=0.3)
        kw = {"T": 0.35 + 1434.3 / 256.0, "t1": 0.35}
    sizes = _record_batches(monkeypatch)
    want = parseval_two_grid(pot, **kw)
    old = list(sizes)
    sizes.clear()
    assert parseval_check(pot, **kw) == want
    # the same batches, less the first level's
    assert sizes == old[1:] and old[0] not in sizes
    if case == "wide":
        assert old[1] == 2 * old[0] + 1


def test_parseval_refuses_a_fine_grid_past_the_budget_before_any_propagation(monkeypatch):
    # a potential 3000 wide starts at a step of 0.25 / 3000: the first level's
    # grid (768 001 nodes) fits the budget, the second (1 536 001) does not;
    # the first level is the second's even nodes, so nothing is propagated
    pot = SampledPotential(h=3000.0, cells=(0.01,))
    sizes = _record_batches(monkeypatch)
    with pytest.raises(QuadratureError, match="budget of 1048576 nodes") as exc_info:
        parseval_check(pot)
    rep = exc_info.value.report
    assert rep.refinement_levels == 0 and math.isnan(rep.lhs) and math.isnan(rep.raw_integral)
    assert rep.rhs == pytest.approx(0.3)
    assert sizes == []


def test_parseval_validation():
    pot = _random_pot(19, n=10)
    with pytest.raises(ValidationError):
        parseval_check(pot, tol=-1.0)
    with pytest.raises(RangeError):
        parseval_check(pot, T=pot.T, t1=pot.T)


# ---------------------------------------------------------------------------
# continuous argument and the Hilbert pair
# ---------------------------------------------------------------------------


def test_unwrap_refuses_aliased_grids():
    vals = np.exp(1j * np.array([0.0, 0.3, 2.2]))  # second step 1.9 > pi/2
    with pytest.raises(AliasingError):
        _unwrap_phases(vals, "test values")
    fine = np.exp(1j * np.linspace(0.0, 6.0, 40))
    out = _unwrap_phases(fine, "test values")
    assert np.allclose(out, np.linspace(0.0, 6.0, 40), atol=1e-12)  # no 2pi jumps


def test_hilbert_transform_lorentzian_pair():
    xs = np.linspace(-60.0, 60.0, 4096)
    u, v = hilbert_pair_lorentzian(xs)
    got = hilbert_transform(u)
    central = np.abs(xs) <= 30.0
    assert np.max(np.abs(got[central] - v[central])) < 2e-3


def test_hilbert_transform_validation():
    with pytest.raises(ValidationError):
        hilbert_transform(np.ones(3))


def test_hilbert_consistency_smoke(bump_pot):
    xs = np.linspace(-60.0, 60.0, 2048)
    sd = nlft_forward(bump_pot, T=1.0, grid=xs)
    assert hilbert_consistency(sd) < 1e-2


def test_hilbert_consistency_rejects_undecayed_domain(bump_pot):
    xs = np.linspace(-2.0, 2.0, 64)
    sd = nlft_forward(bump_pot, T=1.0, grid=xs)
    with pytest.raises(DomainTooSmallError):
        hilbert_consistency(sd)


def test_hilbert_consistency_grid_validation(bump_pot):
    sd = nlft_forward(bump_pot, T=1.0, grid=np.linspace(-40, 40, 8))
    with pytest.raises(ValidationError):
        hilbert_consistency(sd)  # too short
    xs = np.concatenate([np.linspace(-40, -1, 32), np.linspace(0, 40, 33)])
    sd = nlft_forward(bump_pot, T=1.0, grid=xs)
    with pytest.raises(ValidationError):
        hilbert_consistency(sd)  # non-uniform
