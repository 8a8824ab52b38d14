import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracnlft import debranges
from diracnlft.debranges import (
    estimate_w,
    gamma_factor,
    hb_fit,
    kernel_K,
    kernel_probe,
    kernel_sinc,
)
from diracnlft.errors import (
    OverflowRangeError,
    PreconditionError,
    RangeError,
    ValidationError,
)
from diracnlft.experiments import limit_identities
from diracnlft.potential import SampledPotential
from diracnlft.propagator import transfer
from diracnlft.resonance import Box

from oracles import (
    kernel_matrix_by_taylor,
    kernel_matrix_by_where,
    kernel_matrix_full,
    kernel_sinc_by_where,
    probe_full,
)

TALL_ZERO = 2.4517263992197713 + 0.8301314959136796j


# ---------------------------------------------------------------------------
# sinc kernel
# ---------------------------------------------------------------------------


def test_sinc_diagonal_and_shape():
    assert kernel_sinc(3.0, 1.5, 1.5) == pytest.approx(3.0 / np.pi, abs=1e-15)
    lam = np.array([0.0, 1.0, 2.0])
    out = kernel_sinc(2.0, lam[:, None], lam[None, :])
    assert out.shape == (3, 3)
    assert np.allclose(np.diag(out), 2.0 / np.pi)


def test_sinc_series_continuity():
    # straddle the Taylor switch |t d| = 1e-4
    t = 1.0
    for eps in (0.9e-4, 1.1e-4):
        direct = np.sin(t * eps) / (np.pi * eps)
        got = kernel_sinc(t, 0.0, eps)
        assert abs(got - direct) < 1e-16 * 10


def test_sinc_hermitian():
    lam, z = 0.7 + 0.2j, -0.3 + 0.5j
    assert kernel_sinc(2.0, lam, z) == pytest.approx(
        np.conj(kernel_sinc(2.0, z, lam)), abs=1e-15
    )


@pytest.mark.parametrize("grid_n", [8, 9, 24])
def test_sinc_matches_full_matrix_reference(grid_n):
    pts = Box(0.7, 0.5, grid_n=grid_n).tensor_grid()
    # near-conjugate partners: series entries, and entries on either side of the switch
    pts = np.concatenate([pts, pts[:5] + 1e-9, np.conj(pts[5:9]) + 3e-5])
    for t in (0.5, 8.0, 60.0):
        got = kernel_sinc(t, pts[:, None], pts[None, :])
        ref = kernel_sinc_by_where(t, pts[:, None], pts[None, :])
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert type(kernel_sinc(2.0, 0.3 + 0.1j, 0.3 - 0.1j)) is complex


def test_sinc_validation():
    for t in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValidationError):
            kernel_sinc(t, 1.0, 2.0)


# ---------------------------------------------------------------------------
# reproducing kernel
# ---------------------------------------------------------------------------


def test_free_kernel_is_the_sinc(free_pot):
    pts = [0.0, 0.8, -1.3, 0.4 + 0.3j, -0.2 - 0.4j]
    t = 2.0
    worst = 0.0
    for lam in pts:
        for z in pts:
            got = kernel_K(free_pot, t, lam, z)
            want = kernel_sinc(t, lam, z)
            worst = max(worst, abs(got - want))
    assert worst < 1e-12


def test_kernel_hermitian_symmetry_is_exact(const_pot):
    # conj A(p) = A(conj p) holds bit for bit, so swapping arguments
    # conjugates the kernel exactly
    t = 2.0
    for lam, z in [(0.5, 1.5), (0.5 + 0.2j, 1.0 - 0.3j), (-1.0 + 0.4j, 2.0 + 0.1j)]:
        assert kernel_K(const_pot, t, lam, z) == np.conj(kernel_K(const_pot, t, z, lam))


def _record_orders(monkeypatch):
    """The list that collects the ``order`` of each ``transfer`` call of ``debranges``."""
    import diracnlft.debranges as db

    orders, propagate = [], db.transfer

    def recording(*args, order=0, **kwargs):
        orders.append(order)
        return propagate(*args, order=order, **kwargs)

    monkeypatch.setattr(db, "transfer", recording)
    return orders


def test_non_confluent_kernel_is_its_closed_formula(monkeypatch):
    # no confluent entry: kernel_K propagates once, at order 1, and is the quotient
    # (A(z) C(conj lam) - C(z) A(conj lam)) / (pi (conj lam - z))
    rng = np.random.default_rng(31)
    pot = SampledPotential(h=0.01, cells=tuple(rng.uniform(-1.0, 1.0, 300)))
    orders = _record_orders(monkeypatch)
    pairs = [(0.5 + 0.2j, 1.0 - 0.3j), (-1.0 + 0.4j, 2.0 + 0.1j), (0.3 - 0.5j, -0.7 + 0.1j)]
    for lam, z in pairs:
        got = kernel_K(pot, pot.T, lam, z)
        m = transfer(pot, np.array([z, np.conj(lam)]), pot.T)
        want = (m.A[0] * m.C[1] - m.C[0] * m.A[1]) / (np.pi * (np.conj(lam) - z))
        assert abs(got - want) <= 1e-13 * abs(want)
    assert orders == [1] * len(pairs)


def test_kernel_diagonal_real_positive(const_pot):
    for lam in (0.0, 1.0, 2.5, 0.5 + 0.4j):
        val = kernel_K(const_pot, 2.0, lam, lam)
        assert val.imag == 0.0 or abs(val.imag) < 1e-14 * abs(val)
        assert val.real > 0.0


def test_kernel_confluent_switch_continuity(const_pot):
    lam, t = 1.2, 2.0
    base = 1e-5 / t  # the switch: |t (conj lam - z)| = 1e-5
    for sep in (0.9 * base, 1.1 * base):
        val = kernel_K(const_pot, t, lam, lam + sep)
        near = kernel_K(const_pot, t, lam, lam)
        # both routes agree to the digits the direct quotient has left
        assert abs(val - near) < 1e-5 * abs(near)


@pytest.mark.parametrize("grid_n", [8, 9, 16, 17])
def test_kernel_matrix_matches_full_matrix_reference(grid_n):
    # odd grid_n: the real row puts confluent entries on the diagonal
    rng = np.random.default_rng(30 + grid_n)
    pot = SampledPotential(h=0.02, cells=tuple(rng.uniform(-0.8, 0.8, 300)))
    t = pot.T
    pts = Box(0.7, 4.0 / t, grid_n=grid_n).tensor_grid()
    pts = np.concatenate([pts, pts[:3]])  # duplicates: more confluent entries
    K, _, _ = debranges._kernel_matrix(pot, t, pts, 1)
    state = transfer(pot, pts, t, order=1)
    ref = kernel_matrix_by_where(t, pts, state.A, state.C, state.dA, state.dC)
    near = t * np.abs(np.conj(pts)[:, None] - pts) < 1e-5
    assert np.count_nonzero(near) >= len(pts)  # every point meets its conjugate partner
    np.testing.assert_array_equal(K[near], ref[near])
    assert np.max(np.abs(K - ref)) <= 1e-12 * np.max(np.abs(ref))
    np.testing.assert_array_equal(K, np.conj(K.T))  # exactly Hermitian
    np.testing.assert_array_equal(K, kernel_matrix_full(pot, t, pts))


@pytest.mark.parametrize("grid_n", [8, 9, 16, 17, 24])
@pytest.mark.parametrize("s", [0.0, 0.7, -2.9])
def test_probe_kernel_at_order_1_is_the_order_2_kernel(monkeypatch, s, grid_n):
    # probe rows are exactly conjugate, so every confluent offset is exactly 0:
    # the trapezoid of the Wronskians is W(z) / pi there, which is the two-term
    # Taylor form of an order-2 propagation bit for bit
    rng = np.random.default_rng(40 + grid_n)
    pot = SampledPotential(h=0.02, cells=tuple(rng.uniform(-0.8, 0.8, 300)))
    t, C = pot.T, 4.0
    orders = _record_orders(monkeypatch)
    probe = kernel_probe(pot, s, t, C, w_hat=1.0, grid_n=grid_n)
    assert orders == [1]
    box = Box(s, C / t, grid_n)
    pts = box.tensor_grid()
    np.testing.assert_array_equal(probe.lambda_grid, pts)
    # E from the same batch is the order-0 E bit for bit
    np.testing.assert_array_equal(probe.E_values, transfer(pot, pts, t).E)
    K, _, gap = probe_full(pot, t, box.axis, pts, 1.0)
    np.testing.assert_array_equal(probe.K_values, K)
    assert probe.gap == gap
    # both branches of the full-matrix Taylor reference: the confluent one
    # (with its second-order term) exactly, the direct quotient up to its rounding
    m = transfer(pot, pts, t, order=2)
    ref = kernel_matrix_by_taylor(t, pts, m.A, m.C, m.dA, m.dC, m.d2A, m.d2C)
    near = t * np.abs(np.conj(pts)[:, None] - pts) < 1e-5
    np.testing.assert_array_equal(probe.K_values[near], ref[near])
    assert np.max(np.abs(probe.K_values - ref)) <= 1e-13 * np.max(np.abs(ref))


_HERMITIAN_POT = SampledPotential(
    h=0.02, cells=tuple(np.random.default_rng(44).uniform(-0.8, 0.8, 60)))


@given(grid_n=st.integers(8, 33), s=st.sampled_from([0.0]) | st.floats(-3.0, 3.0),
       half_width=st.sampled_from([4.0 / 2.4, 0.5]) | st.floats(1e-9, 2e-6),
       w_hat=st.floats(0.5, 2.0))
@example(grid_n=9, s=0.0, half_width=1e-6, w_hat=1.0)  # spacing under the switch
@example(grid_n=32, s=0.7, half_width=3e-7, w_hat=1.3)
@settings(max_examples=15, deadline=None)
def test_probe_is_the_upper_triangle_of_the_full_matrices(grid_n, s, half_width, w_hat):
    # the probe evaluates K over i <= j only and mirrors it: the full-matrix
    # reference is exactly Hermitian on both branches (the confluent trapezoid
    # included, on boxes finer than the switch), so the probe is that
    # reference bit for bit, with a real diagonal
    pot, t = _HERMITIAN_POT, _HERMITIAN_POT.T
    probe = kernel_probe(pot, s, t, half_width * t, w_hat=w_hat, grid_n=grid_n)
    box = Box.scaled(s, half_width * t, t, grid_n)
    K, _, gap = probe_full(pot, t, box.axis, box.tensor_grid(), w_hat)
    got = probe.K_values
    np.testing.assert_array_equal(K, np.conj(K.T))
    np.testing.assert_array_equal(got, K)
    np.testing.assert_array_equal(got.diagonal().imag, 0.0)
    assert probe.gap == gap


def test_probe_holds_one_kernel_matrix(monkeypatch):
    # K and its gap come from row blocks of the upper triangle: the traced
    # peak stays near the one (grid_n^2)^2 complex matrix it returns.  A box
    # finer than the confluent switch (half width 1e-7) makes every pair a
    # candidate; each row block finds its confluent entries among the offsets
    # it forms, so no pair list of N^2 candidates pushes the peak up.  Both
    # boxes propagate once, at order 1
    rng = np.random.default_rng(45)
    pot = SampledPotential(h=0.02, cells=tuple(rng.uniform(-0.8, 0.8, 300)))
    one = (32 * 32) ** 2 * 16
    orders = _record_orders(monkeypatch)
    for C in (4.0, 1e-7 * pot.T):
        tracemalloc.start()
        try:
            probe = kernel_probe(pot, 0.7, pot.T, C, w_hat=1.0, grid_n=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probe.K_values.nbytes == one
        assert peak < 1.5 * one
    assert orders == [1, 1]


@pytest.mark.parametrize("angle", [0.0, 0.1, np.pi / 2 - 0.1, np.pi / 2])
def test_confluent_entries_at_the_switch_edge(const_pot, angle):
    # offsets a few ulps either side of the switch |t d| = 1e-5, mostly real or
    # mostly imaginary; a block takes the switch's test on a superset chosen by
    # the real part, and must drop no confluent entry.  At t = 2.6 the purely
    # real offset 1e-5 / t is under the switch although it is not under 1e-5 / t
    t, r = 2.6, 1e-5 / 2.6
    d = (r + np.arange(-3, 4) * np.spacing(r)) * np.exp(1j * angle)
    pts = np.concatenate([[0.0], -d])  # conj(0) - (-d) is d exactly
    near = t * np.abs(np.conj(pts)[:, None] - pts) < 1e-5
    assert 1 < np.count_nonzero(near[0, 1:]) < len(d)  # both sides of the switch
    K, _, _ = debranges._kernel_matrix(const_pot, t, pts, 1)
    m = transfer(const_pot, pts, t, order=1)
    ref = kernel_matrix_by_where(t, pts, m.A, m.C, m.dA, m.dC)
    np.testing.assert_array_equal(K[near], ref[near])
    np.testing.assert_array_equal(K, np.conj(K.T))
    np.testing.assert_array_equal(K, kernel_matrix_full(const_pot, t, pts))


def test_kernel_propagates_once_at_order_1(monkeypatch, const_pot):
    # the confluent trapezoid needs first derivatives only: a close but unequal
    # pair, an exact one and a box finer than the switch each make one
    # order-1 propagation
    orders = _record_orders(monkeypatch)
    for lam, z in ((1.2, 1.2 + 1e-7), (0.7 + 0.1j, 0.7 - 0.1j)):
        orders.clear()
        got = kernel_K(const_pot, 2.0, lam, z)
        assert orders == [1]
        pts = np.array([lam, z], dtype=complex)
        m = transfer(const_pot, pts, 2.0, order=1)
        assert got == kernel_matrix_by_where(2.0, pts, m.A, m.C, m.dA, m.dC)[0, 1]
    orders.clear()
    kernel_probe(const_pot, 0.7, 2.0, 2e-7, w_hat=1.0, grid_n=9)
    assert orders == [1]


@pytest.mark.parametrize("t", [1.0, 3.0, 30.0])
def test_confluent_kernel_of_the_zero_potential_is_the_sinc(free_pot, t):
    # the trapezoid drops the (t d)^2 / 6 term of K ~ t / pi, as the Taylor
    # form does; at t |d| = 1e-9 only rounding is left
    for base in (0.0, 1.3, 0.4 + 0.5j / t, -2.0 + 1.5j / t):
        for r in (1e-9, 1e-7, 3e-6, 0.9e-5):
            for angle in (0.0, 0.7, np.pi / 2, 2.5):
                z = np.conj(base) - r / t * np.exp(1j * angle)  # t |conj lam - z| = r
                err = abs(kernel_K(free_pot, t, base, z) - kernel_sinc(t, base, z))
                assert err <= t / np.pi * (0.2 * r * r + 1e-13)


def test_confluent_trapezoid_is_the_taylor_form():
    # on a rough potential the first-derivative trapezoid stays within 1e-11
    # of the two-term Taylor form of an order-2 propagation up to t |d| = 0.9e-5,
    # inside the (t d)^2 / 6 truncation that both forms carry
    rng = np.random.default_rng(35)
    pot = SampledPotential(h=0.02, cells=tuple(rng.uniform(-0.8, 0.8, 150)))
    for t in (pot.T, 1.3):
        for base in (0.7, -1.1 + 0.3j, 2.0 - 0.2j):
            for r in (1e-9, 1e-7, 3e-6, 0.9e-5):
                for angle in (0.0, 0.7, np.pi / 2, 2.5):
                    pts = np.array([base, np.conj(base) - r / t * np.exp(1j * angle)])
                    m = transfer(pot, pts, t, order=2)
                    ref = kernel_matrix_by_taylor(t, pts, m.A, m.C, m.dA, m.dC, m.d2A,
                                                  m.d2C)[0, 1]
                    assert abs(kernel_K(pot, t, *pts) - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("grid_n", [8, 9])
def test_probe_propagates_each_conjugate_pair_once(free_pot, monkeypatch, grid_n):
    import diracnlft.propagator as prop

    seen, advance = [], prop._advance

    def recording(z, *args):
        seen.append(z)
        return advance(z, *args)

    monkeypatch.setattr(prop, "_advance", recording)
    for s in (0.0, 0.7):
        seen.clear()
        probe = kernel_probe(free_pot, s, 4.0, 2.0, w_hat=1.0, grid_n=grid_n)
        (z,) = seen
        pts = Box.scaled(s, 2.0, 4.0, grid_n).tensor_grid()
        if s == 0.0:  # ±Re z as well: a quarter of the points, the axes' once
            assert z.size == np.unique(np.abs(pts.real) + 1j * np.abs(pts.imag)).size
            assert z.size == ((grid_n + 1) // 2) ** 2
        else:  # Re z > 0: conjugate pairs only
            assert z.size == (grid_n * grid_n + grid_n % 2 * grid_n) // 2
        assert not np.any(z.imag < 0) and not np.any(z.real < 0)
        assert probe.gap < 1e-12


def test_kernel_time_guard(const_pot):
    # past pot.T the kernel is that of the potential extended by zero
    pot = SampledPotential(h=0.1, cells=(0.5,) * 10)
    padded = SampledPotential(h=0.1, cells=(0.5,) * 10 + (0.0,) * 20)
    for lam, z in ((0.3 + 0.2j, 1.1 - 0.4j), (0.7 + 0.1j, 0.7 - 0.1j)):  # plain, confluent
        assert kernel_K(pot, 3.0, lam, z) == kernel_K(padded, 3.0, lam, z)
    with pytest.raises(ValidationError):
        kernel_K(const_pot, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# w estimation
# ---------------------------------------------------------------------------


def test_estimate_w_free(free_pot):
    w, spread = estimate_w(free_pot, 0.7, (1.0, 3.0), 8)
    assert abs(w - 1.0) < 1e-12
    assert spread < 1e-12


def test_estimate_w_past_support_is_exact(bump_pot):
    w, spread = estimate_w(bump_pot, 0.5, (40.0, 71.0), 8)
    rep = limit_identities(bump_pot, 0.5, (40.0, 71.0))  # the dual density, from Etilde
    wt, spread_t = rep.w_tilde_hat, rep.w_tilde_spread
    # |E(t, s)| freezes once the potential has ended
    assert spread < 1e-12 and spread_t < 1e-12
    assert w == pytest.approx(0.5852682, rel=1e-5)
    assert wt == pytest.approx(1.5808137, rel=1e-5)
    # Cauchy-Schwarz style upper bound of the product
    assert np.sqrt(w * wt) <= 1.0 + 1e-9


def test_estimate_w_validation(bump_pot):
    with pytest.raises(ValidationError):
        estimate_w(bump_pot, 0.5, (3.0, 2.0), 8)
    with pytest.raises(ValidationError):
        estimate_w(bump_pot, 0.5, (1.0, 2.0), 3)
    with pytest.raises(RangeError):
        estimate_w(bump_pot, 0.5, (1.0, bump_pot.T + 5.0), 8)
    for window in (0.1, (0.1, 0.5, 0.7)):  # a scalar raised "not subscriptable"
        with pytest.raises(ValidationError, match="window"):
            estimate_w(bump_pot, 0.5, window, 8)
    # 8.5 raised numpy's TypeError, and 10**6 ran a million-time sweep
    for n in (8.5, "8", None, 2**16 + 1, 10**6):
        with pytest.raises(ValidationError, match="integer n from 4 to 65536"):
            estimate_w(bump_pot, 0.5, (1.0, 2.0), n)
    assert estimate_w(bump_pot, 0.5, (1.0, 2.0), np.int64(8)) == estimate_w(
        bump_pot, 0.5, (1.0, 2.0), 8)


# ---------------------------------------------------------------------------
# universality gap
# ---------------------------------------------------------------------------


def test_free_gap_vanishes(free_pot):
    probe = kernel_probe(free_pot, 0.0, 4.0, 2.0, w_hat=1.0)
    assert probe.gap < 1e-12
    assert probe.w_hat == 1.0
    assert probe.lambda_grid.shape == (256,)
    assert probe.K_values.shape == (256, 256)


@pytest.mark.parametrize("t", [3e5, 1e6, 1e7])
def test_free_gap_vanishes_at_far_horizons(t):
    # K = S exactly; the grid spacing 2C / (t (grid_n - 1)) drops under any
    # fixed |conj lam - z| switch as t grows, but not under |t d| < 1e-5, so
    # the probe's pairs keep the direct quotient (a relative switch sent them
    # to the confluent form: gap 1.5e-2 at t = 3e5, 0.36 at 1e6)
    pot = SampledPotential(h=0.05, cells=(0.0,) * 40)
    assert kernel_probe(pot, 1.5, t, 4.0, w_hat=1.0, grid_n=16).gap <= 1e-6


def test_gap_decreases_with_time(bump_pot):
    w, _ = estimate_w(bump_pot, 0.5, (40.0, 71.0), 8)
    g8 = kernel_probe(bump_pot, 0.5, 8.0, 4.0, w_hat=w).gap
    g32 = kernel_probe(bump_pot, 0.5, 32.0, 4.0, w_hat=w).gap
    assert g32 < g8


def test_probe_default_w_past_the_support():
    # the default w window ends at min(t, pot.T), as in the fits: past the
    # support |E(t, s)| is frozen
    pot = SampledPotential(h=0.1, cells=(0.5,) * 10)
    w_end, _ = estimate_w(pot, 0.5, (0.9 * pot.T, pot.T), 8)
    probe = kernel_probe(pot, 0.5, 3.0, 4.0, grid_n=8)
    assert probe.w_hat == w_end
    assert probe.gap == kernel_probe(pot, 0.5, 3.0, 4.0, w_hat=w_end, grid_n=8).gap
    assert probe.gap == pytest.approx(68.97, rel=1e-3)
    # within the support: the trailing tenth of [0, t], as before
    w_in, _ = estimate_w(pot, 0.5, (0.9 * 0.8, 0.8), 8)
    assert kernel_probe(pot, 0.5, 0.8, 4.0, grid_n=8).w_hat == w_in


def test_probe_validation(bump_pot):
    with pytest.raises(ValidationError):
        kernel_probe(bump_pot, 0.5, 8.0, 4.0, w_hat=-1.0)
    # |Im z| t reaches C on the grid; C = 1e308 overflowed its linspace before
    with pytest.raises(OverflowRangeError, match="working range"):
        kernel_probe(bump_pot, 0.5, 1.0, 50.5)
    with pytest.raises(RangeError, match="grid end"):
        kernel_probe(bump_pot, 0.5, 1.0, 1e308)


# ---------------------------------------------------------------------------
# gamma factor
# ---------------------------------------------------------------------------


def test_gamma_factor_values():
    assert gamma_factor(0.5) == pytest.approx(np.sqrt(2.0 / np.sinh(1.0)), abs=1e-15)
    for p in (1e-12, 0.01, 3.0, 300.0):
        assert gamma_factor(p) == pytest.approx(np.sqrt(2.0 / np.sinh(2.0 * p)), rel=1e-15)
    # sinh(2p) overflowed with an OverflowError past p = 355
    assert gamma_factor(400.0) == pytest.approx(2.0 * math.exp(-400.0), rel=1e-15)
    assert gamma_factor(1e4) == 0.0
    with pytest.raises(ValidationError):
        gamma_factor(0.0)
    with pytest.raises(ValidationError):
        gamma_factor(-1.0)


# ---------------------------------------------------------------------------
# sine fit (resonant boxes)
# ---------------------------------------------------------------------------


def _fitted(kind, pot, s, t, C, **probe_args):
    """:func:`hb_fit` on the box of ``kernel_probe(pot, s, t, C, **probe_args)``,
    checked to have fitted the ``kind`` model."""
    fit = hb_fit(pot, kernel_probe(pot, s, t, C, **probe_args))
    assert fit.kind == kind
    return fit


def test_sine_fit_at_a_frozen_zero(tall_bump_pot):
    fit = _fitted("sine", tall_bump_pot, TALL_ZERO.real, 2.0, 4.0)
    assert abs(abs(fit.alpha) - 1.0) < 1e-12  # alpha is exactly unimodular
    # model zero stays within the minimal shift of the true zero
    assert abs(fit.x - TALL_ZERO.real) < 0.2
    assert abs(fit.y - TALL_ZERO.imag) < 0.2
    assert fit.residual > 0


def test_sine_fit_pins_value_at_s(tall_bump_pot):
    s, t = TALL_ZERO.real, 2.0
    probe = kernel_probe(tall_bump_pot, s, t, 4.0)
    fit = hb_fit(tall_bump_pot, probe)
    assert fit.kind == "sine"
    model = (fit.alpha * gamma_factor(t * TALL_ZERO.imag) / np.sqrt(probe.w_hat)) * np.sin(
        t * (s - (fit.x - 1j * fit.y))
    )
    E_s = transfer(tall_bump_pot, s, t).E
    assert abs(model - E_s) < 1e-12 * max(1.0, abs(E_s))


def test_sine_fit_improves_with_time(tall_bump_pot):
    from diracnlft.propagator import transfer_batch

    ratios = []
    for t in (2.0, 3.0, 4.0):
        fit = _fitted("sine", tall_bump_pot, TALL_ZERO.real, t, 4.0)
        pts = Box(TALL_ZERO.real, 4.0 / t).tensor_grid()
        B = transfer_batch(tall_bump_pot, pts, t)
        sup_E = float(np.max(np.abs(B.A - 1j * B.C)))
        ratios.append(fit.residual / sup_E)
    assert ratios[0] > ratios[1] > ratios[2]


def test_sine_fit_mirror_symmetry(tall_bump_pot):
    plus = _fitted("sine", tall_bump_pot, TALL_ZERO.real, 2.0, 4.0)
    minus = _fitted("sine", tall_bump_pot, -TALL_ZERO.real, 2.0, 4.0)
    assert minus.x == pytest.approx(-plus.x, abs=1e-9)
    assert minus.y == pytest.approx(plus.y, abs=1e-9)
    assert minus.residual == pytest.approx(plus.residual, rel=1e-9)


def test_sine_fit_preconditions(tall_bump_pot):
    with pytest.raises(PreconditionError):
        # t * y = 0.83 < 1: below the calibrated band
        hb_fit(tall_bump_pot, kernel_probe(tall_bump_pot, TALL_ZERO.real, 1.0, 4.0))


# ---------------------------------------------------------------------------
# exponential fit (zero-free boxes)
# ---------------------------------------------------------------------------


def test_exp_fit_free_is_exact(free_pot):
    fit = _fitted("exp", free_pot, 0.5, 3.0, 2.0, w_hat=1.0)
    assert abs(abs(fit.alpha) - 1.0) < 1e-12
    assert fit.residual < 1e-12


def test_exp_fit_residual_decays(bump_pot):
    w, _ = estimate_w(bump_pot, 1.5, (40.0, 71.0), 8)
    res = [_fitted("exp", bump_pot, 1.5, t, 4.0, w_hat=w).residual for t in (4.0, 8.0, 16.0)]
    assert res[0] > res[1] > res[2]


def test_exp_fit_far_horizon(bump_pot):
    # propagation far past the support stays O(cells) and exact, so the
    # model defect keeps shrinking like 1/t
    assert _fitted("exp", bump_pot, 1.5, 1e6, 4.0).residual < 1e-2
    assert _fitted("exp", bump_pot, 1.5, 1e11, 4.0).residual < 1e-10


# ---------------------------------------------------------------------------
# one model fit: the zero search picks the model
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pot_name, s, t, kind", [
    ("tall_bump_pot", TALL_ZERO.real, 2.0, "sine"),
    ("bump_pot", 1.5, 8.0, "exp"),
    ("tall_bump_pot", TALL_ZERO.real, 1.0, None),  # t * y = 0.83 < 1
], ids=["sine", "exp", "band_failure"])
def test_hb_fit_runs_one_zero_search(pot_name, s, t, kind, request, monkeypatch):
    calls, search = [], debranges.find_zeros
    monkeypatch.setattr(debranges, "find_zeros",
                        lambda *a, **k: calls.append(a) or search(*a, **k))
    pot = request.getfixturevalue(pot_name)
    probe = kernel_probe(pot, s, t, 4.0, w_hat=1.0)
    if kind is None:
        with pytest.raises(PreconditionError, match="outside"):
            hb_fit(pot, probe)
    else:
        assert hb_fit(pot, probe).kind == kind
    assert len(calls) == 1


@pytest.mark.parametrize("pot_name, s, t, kind", [
    ("tall_bump_pot", TALL_ZERO.real, 2.0, "sine"),
    ("tall_bump_pot", -TALL_ZERO.real, 3.0, "sine"),
    ("bump_pot", 1.5, 8.0, "exp"),
    ("free_pot", 0.5, 3.0, "exp"),
], ids=["sine", "sine_mirror", "exp", "exp_free"])
def test_hb_fit_picks_the_model_the_box_admits(pot_name, s, t, kind, request):
    fit = _fitted(kind, request.getfixturevalue(pot_name), s, t, 4.0, grid_n=8)
    assert np.isnan(fit.x) == np.isnan(fit.y) == (fit.kind == "exp")


@pytest.mark.parametrize("pot_name, s, t, grid_n, kind", [
    ("tall_bump_pot", TALL_ZERO.real, 2.0, 8, "sine"),
    ("tall_bump_pot", -TALL_ZERO.real, 3.0, 9, "sine"),
    ("bump_pot", 1.5, 8.0, 16, "exp"),
    ("free_pot", 0.5, 3.0, 17, "exp"),
], ids=["sine", "sine_mirror", "exp", "exp_free"])
def test_fit_residual_is_that_of_an_order_0_propagation(pot_name, s, t, grid_n, kind, request):
    # the fit reads E from the probe's batch, which is the order-0 E bit for
    # bit, so its residual is the one a separate propagation of the grid gives
    pot = request.getfixturevalue(pot_name)
    probe = kernel_probe(pot, s, t, 4.0, grid_n=grid_n)
    fit = hb_fit(pot, probe)
    assert fit.kind == kind
    pts = probe.lambda_grid
    E = transfer(pot, pts, t).E
    # the model as hb_fit evaluates it, from the fields of the fit
    alpha, w = np.complex128(fit.alpha), probe.w_hat
    if kind == "exp":
        model = (-1j * alpha / math.sqrt(w)) * np.exp(-1j * t * pts)
    else:
        zeros = debranges.find_zeros(pot, t, Box.scaled(s, 4.0, t, grid_n))
        z_up = min((z for z, _ in zeros), key=lambda z: abs(z - s))
        gam = gamma_factor(t * z_up.imag)
        model = (alpha * gam / math.sqrt(w)) * np.sin(t * (pts - (fit.x - 1j * fit.y)))
    assert fit.residual == float(np.max(np.abs(E - model)))
