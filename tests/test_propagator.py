import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracnlft import propagator, resonance
from diracnlft.errors import (
    DiracNLFTError,
    InvariantViolation,
    OverflowRangeError,
    PoleProximityError,
    RangeError,
    ValidationError,
)
from diracnlft.debranges import estimate_w, kernel_probe, kernel_sinc
from diracnlft.experiments import box_sample_points
from diracnlft.nlft import nlft_forward
from diracnlft.potential import SampledPotential
from diracnlft.resonance import Box, find_zeros
from diracnlft.propagator import (
    _CHUNK_CAP,
    _SERIES,
    _TREE_CELL,
    Transfer,
    _blocks,
    _cell_jets,
    _closed,
    _coeffs,
    _prepared_cells,
    _tree,
    corrupted_propagator,
    hermite_biehler,
    symmetric_grid,
    theta,
    theta_derivs,
    transfer,
    transfer_batch,
    transfer_derivative,
)

from oracles import (
    coeffs_by_complex_ufuncs,
    fd1,
    fd2_of_derivative,
    free_rotation,
    oracle_transfer,
    prepared_cells_afresh,
    coeffs_by_series,
)


# ---------------------------------------------------------------------------
# single-cell closed forms
# ---------------------------------------------------------------------------


def test_cell_matches_matrix_exponential():
    for q, w, z in [
        (1.0, 0.5, 0.3 + 0.1j),
        (-0.7, 1.3, 2.0),
        (2.0, 0.8, -1.5 + 0.9j),
        (0.0, 2.0, 1.0 + 1.0j),
        (1.0, 1.0, 1.0),  # lambda^2 = q^2 - z^2 = 0, degenerate branch
    ]:
        G = np.array([[q, -z], [z, -q]], dtype=complex)
        expected = scipy.linalg.expm(w * G)
        got = transfer(SampledPotential(h=w, cells=(q,)), z).jet[0]
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-13), (q, w, z)


def test_cell_series_branch_is_continuous():
    # x = (q^2 - z^2) w^2 crosses the series/closed-form switch at _SERIES
    z = 0.5
    for scale in (0.9, 1.1):
        q = np.sqrt(z * z + scale * _SERIES)  # x = scale * _SERIES * w^2 with w=1
        G = np.array([[q, -z], [z, -q]], dtype=complex)
        expected = scipy.linalg.expm(G)
        got = transfer(SampledPotential(h=1.0, cells=(float(q),)), z).jet[0]
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-14)


def test_complex_coeffs_match_complex_ufuncs():
    # cosh/sinh of a + ib are assembled from real ufuncs of a and b
    rng = np.random.default_rng(16)
    worst = 0.0
    for w in (0.01, 0.02, 0.05, 1.0, 2.5):  # at 0.002 every entry takes the series
        q = rng.uniform(-2.0, 2.0, 4000)
        re = rng.uniform(-60.0, 60.0, 4000) * 10 ** rng.uniform(-3, 0, 4000)
        z = re + 1j * rng.uniform(-0.5, 0.5, 4000)  # Im(l w) up to ~150
        m = q * q - z * z
        m = m[np.abs(m * w * w) >= _SERIES]  # closed forms only
        c, s, _, _ = _coeffs(m, w, 0)
        ref_c, ref_s = coeffs_by_complex_ufuncs(m, w)
        worst = max(worst, np.max(np.abs(c - ref_c) / np.abs(ref_c)),
                    np.max(np.abs(s - ref_s) / np.abs(ref_s)))
    assert worst <= 2e-15


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is float64 here: no extended-precision reference")
def test_oscillatory_coeffs_from_the_half_angle_tangent():
    # a real m < 0 takes c = cos(lw) and s l = sin(lw) from t = tan(lw / 2); against
    # long double cos and sin of the same float64 lw over [0.1, 3e4], at the doubles
    # next to k pi and at lw = 2 fl(pi / 2), where |t| peaks (measured: 0.95 and 1.3 eps)
    rng = np.random.default_rng(18)
    eps = np.finfo(float).eps
    near = np.arange(1, 9550)[:, None] * np.pi * (1.0 + eps * np.arange(-3, 4))
    lw = np.concatenate([10 ** rng.uniform(-1.0, math.log10(3e4), 20000), near.ravel(),
                         [2.0 * (np.pi / 2.0)]])
    assert np.max(np.abs(np.tan(lw / 2.0))) > 1e16
    m = -(lw * lw)
    c, s, _, _ = _closed(m, 1.0, 0)
    lw = np.sqrt(np.abs(m)).astype(np.longdouble)  # as _closed forms l w at w = 1
    assert np.max(np.abs(c - np.cos(lw))) <= 2.0 * eps
    assert np.max(np.abs(s * lw - np.sin(lw))) <= 2.0 * eps


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_derivative_coeffs_match_extended_precision_series(kind):
    # c, s, ds/dm and d2s/dm2 at m w^2 log-uniform across the series switch, points
    # just either side of it, and m = 0
    rng = np.random.default_rng(17)
    x = np.concatenate([10 ** rng.uniform(-4, 0, 4000), _SERIES * np.array([0.999, 1.001])])
    if kind == "real":
        x = x * rng.choice([-1.0, 1.0], x.size)
    else:
        x = x * np.exp(1j * rng.uniform(-np.pi, np.pi, x.size))
    # relative error bounds of c, s, ds/dm, d2s/dm2: the series, then the closed forms
    bounds = {True: (1e-15, 1e-15, 1e-15, 1e-15), False: (2e-15, 2e-15, 1e-13, 2e-11)}
    for w in (0.002, 0.02, 0.5, 2.5):
        m = np.append(x / (w * w), 0.0)
        series = np.abs(m * w * w) < _SERIES
        for g, r, *bound in zip(_coeffs(m, w, 2), coeffs_by_series(m, w), *bounds.values()):
            err = np.abs(g - r) / np.abs(r)
            for side, b in zip((series, ~series), bound):
                assert np.max(err[side]) <= b, (w, b)


def _alone(q, w, z, order):
    """Jet and determinant of one cell at one frequency, computed on their own."""
    z = np.array([z])
    out = np.empty((order + 1, 2, 2, 1), dtype=z.dtype)
    det = _cell_jets(q, float(w), z, z * z, order, out, 0.0)
    return out[..., 0], det[0]


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_cell_jets_do_not_depend_on_the_batch(kind):
    # one block of 24 cells x 1500 frequencies (m past numpy's 256 KiB temporary
    # elision) against each sampled cell and frequency alone, at every order
    rng = np.random.default_rng(19)
    q = rng.uniform(-1.5, 1.5, 24)
    w = rng.choice([0.01, 0.05, 0.5, 3.0], 24)
    z = rng.uniform(-8.0, 8.0, 1500)
    if kind == "complex":
        z = z + 1j * rng.uniform(-1.0, 1.0, z.size)
    x = (q * q)[:, None] - z * z
    x *= (w * w)[:, None]
    assert x.nbytes > 256 * 1024
    picks = list(zip(rng.integers(0, 24, 60), rng.integers(0, z.size, 60)))
    series = [abs(x[i, j]) < _SERIES for i, j in picks]
    assert any(series) and not all(series)
    for order in (0, 1, 2):
        block = np.empty((order + 1, 2, 2) + x.shape, dtype=z.dtype)
        det = _cell_jets(q[:, None], w[:, None], z, z * z, order, block, 0.0)
        for i, j in picks:
            jet, d = _alone(q[i], w[i], z[j], order)
            np.testing.assert_array_equal(jet, block[..., i, j])
            assert d == det[i, j]


def test_oscillatory_block_allocates_only_its_arrays():
    # the half-angle form works in place on l w: at its peak a real all-oscillatory
    # block holds l, l w, c, s and the sign mask (4.13 blocks); a further temporary
    # would add a block-sized allocation to every call
    q = np.linspace(-1.0, 1.0, 12)[:, None]
    m = q * q - np.linspace(20.0, 64.0, 1281) ** 2
    w = np.full((12, 1), 0.05)
    tracemalloc.start()
    try:
        _closed(m, w, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * m.nbytes


def test_oscillatory_entries_do_not_depend_on_the_signs_beside_them():
    # m < 0 in every entry of the first two cells; the third (q = 3.5 > |z| in two
    # columns) adds m > 0 entries, and the half-angle form stays the same bits
    z = np.array([2.5, 3.1, 4.7])
    q, w = np.array([0.4, -1.1, 3.5]), np.array([0.5, 0.3, 0.2])
    m = (q * q)[:, None] - z * z
    assert np.all(np.abs(m * (w * w)[:, None]) >= _SERIES)  # closed forms only
    assert np.all(m[:2] < 0) and np.any(m[2] > 0) and np.any(m[2] < 0)
    for order in (0, 1, 2):
        jets = []
        for k in (2, 3):  # all oscillatory, and both signs
            block = np.empty((order + 1, 2, 2, k, z.size))
            jets.append((block, _cell_jets(q[:k, None], w[:k, None], z, z * z, order, block, 0.0)))
        (osc, osc_det), (mixed, det) = jets
        np.testing.assert_array_equal(osc, mixed[..., :2, :])
        np.testing.assert_array_equal(osc_det, det[:2])
        for j in range(z.size):
            jet, d = _alone(q[2], w[2], z[j], order)
            np.testing.assert_array_equal(jet, mixed[..., 2, j])
            assert d == det[2, j]


@pytest.mark.parametrize("z", [np.array([1.3]), np.array([2.0 + 0.3j, 0.4 + 0.05j, 3.0 + 0.5j])])
def test_zero_tail_cell_leaves_the_fine_cells_alone(z):
    # a resonance-like block: fine cells (every entry under the switch) plus one
    # coarse zero-tail cell, the only one to take the closed forms
    rng = np.random.default_rng(20)
    q = np.append(rng.uniform(-1.0, 1.0, 40), 0.0)
    w = np.append(np.full(40, 0.025), 30.0)
    for order in (0, 1, 2):
        jets = []
        for k in (40, 41):  # without and with the tail cell
            block = np.empty((order + 1, 2, 2, k) + z.shape, dtype=z.dtype)
            jets.append((block, _cell_jets(q[:k, None], w[:k, None], z, z * z, order, block, 0.0)))
        (fine, fine_det), (whole, det) = jets
        np.testing.assert_array_equal(fine, whole[..., :40, :])
        np.testing.assert_array_equal(fine_det, det[:40])
        for j in range(z.size):
            for i in (0, 17, 40):
                jet, d = _alone(q[i], w[i], z[j], order)
                np.testing.assert_array_equal(jet, whole[..., i, j])
                assert d == det[i, j]


def test_large_cell_is_chunked_correctly():
    # q * w = 10 far exceeds the single-step cap, so the cell must be split
    q, w, z = 2.0, 5.0, 0.7 + 0.3j
    pot = SampledPotential(h=w, cells=(q,))
    G = np.array([[q, -z], [z, -q]], dtype=complex)
    expected = scipy.linalg.expm(w * G)
    got = transfer(pot, z).jet[0]
    assert np.allclose(got, expected, rtol=1e-11, atol=1e-12)


# ---------------------------------------------------------------------------
# multi-cell propagation vs the RK4 oracle
# ---------------------------------------------------------------------------


def test_matches_rk4_oracle_real_and_complex():
    rng = np.random.default_rng(42)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-1.5, 1.5, 40)))
    worst = 0.0
    for z in (0.0, 3.7, -12.0, 1.0 + 0.5j, -2.0 + 1.5j, 0.3 - 0.8j):
        got = transfer(pot, z).jet[0]
        # the RK4 oracle's own error goes like (|z| dt)^4, so resolve in |z|
        ref = oracle_transfer(pot, z, pot.T, steps_per_cell=int(64 * (1 + abs(z))))
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst < 5e-12


def test_free_potential_is_a_rotation():
    pot = SampledPotential(h=0.5, cells=(0.0,) * 8)
    for z in (0.7, -3.0, 1.0 + 0.2j):
        for t in (0.9, 4.0):
            got = transfer(pot, z, t=t).jet[0]
            assert np.allclose(got, free_rotation(t, z), rtol=0, atol=1e-14)


def test_time_zero_is_identity():
    pot = SampledPotential(h=0.1, cells=(1.0, -1.0))
    m = transfer(pot, 0.5 + 0.5j, t=0.0)
    assert (m.A, m.B, m.C, m.D) == (1, 0, 0, 1)


def test_propagation_beyond_support_extends_by_zero():
    rng = np.random.default_rng(7)
    pot = SampledPotential(h=0.1, cells=tuple(rng.uniform(-1, 1, 10)))
    z = 1.3 + 0.4j
    t = 5.0
    direct = transfer(pot, z, t=t).jet[0]
    composed = free_rotation(t - pot.T, z) @ transfer(pot, z).jet[0]
    assert np.allclose(direct, composed, rtol=1e-13, atol=1e-14)


def test_huge_time_stays_cheap_and_clean():
    pot = SampledPotential(h=0.01, cells=tuple([0.3] * 100))
    m = transfer(pot, 0.8, t=1e9)
    assert m.det_drift < 1e-12
    assert np.isfinite(m.A) and abs(m.A) < 10


# ---------------------------------------------------------------------------
# determinant tracking and corruption
# ---------------------------------------------------------------------------


@given(
    seed=st.integers(0, 10_000),
    re=st.floats(-15, 15),
    im=st.floats(-1.5, 1.5),
)
@settings(max_examples=50, deadline=None)
def test_det_tracked_stays_at_one(seed, re, im):
    rng = np.random.default_rng(seed)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-2, 2, 30)))
    m = transfer(pot, complex(re, im))
    assert m.det_drift < 1e-11


_HOOK_POINTS = pytest.mark.parametrize("z", [1.0, 1.0 + 0.3j], ids=["real", "complex"])


@_HOOK_POINTS
def test_corruption_trips_the_monitor(z):
    pot = SampledPotential(h=0.05, cells=tuple(np.linspace(-1, 1, 40)))
    with corrupted_propagator(1e-4):
        with pytest.raises(InvariantViolation):
            transfer(pot, z)
    # restored afterwards
    assert transfer(pot, z).det_drift < 1e-12


@_HOOK_POINTS
def test_mild_corruption_is_visible_but_tolerated(z):
    pot = SampledPotential(h=0.05, cells=tuple(np.linspace(-1, 1, 40)))
    with corrupted_propagator(1e-12):
        drift = transfer(pot, z).det_drift
    assert 1e-12 < drift < 1e-8


def test_corruption_stays_in_its_thread():
    pot = SampledPotential(h=0.05, cells=tuple(np.linspace(-1, 1, 40)))
    start = threading.Barrier(4, timeout=30)

    def corrupted():
        with corrupted_propagator(1e-4):
            start.wait()
            for _ in range(50):
                with pytest.raises(InvariantViolation):
                    transfer(pot, 1.0)

    def clean():
        start.wait()
        return max(transfer(pot, 1.0).det_drift for _ in range(50))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            bad = [pool.submit(corrupted) for _ in range(2)]
            good = [pool.submit(clean) for _ in range(2)]
            for f in bad:
                f.result(timeout=60)
            assert max(f.result(timeout=60) for f in good) < 1e-12
    finally:
        sys.setswitchinterval(old)


def test_working_range_guard():
    pot = SampledPotential(h=0.1, cells=(0.5,) * 10)
    with pytest.raises(OverflowRangeError):
        transfer(pot, 3.0j, t=20.0)
    with pytest.raises(RangeError):
        transfer(pot, 1.0, t=-0.5)


# ---------------------------------------------------------------------------
# derivatives in z
# ---------------------------------------------------------------------------


def test_first_derivative_matches_finite_differences():
    rng = np.random.default_rng(3)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-1.5, 1.5, 40)))
    for z in (0.9, -4.0, 0.5 + 0.7j):
        aug = transfer_derivative(pot, z)
        for name in "ABCD":
            fd = fd1(lambda u, s=name: getattr(transfer(pot, u), s), z)
            assert abs(getattr(aug, "d" + name) - fd) < 5e-10


def test_second_derivative_matches_fd_of_first():
    rng = np.random.default_rng(4)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-1.0, 1.0, 30)))
    z = 1.1 + 0.3j
    aug = transfer_derivative(pot, z, order=2)
    for name in "ABCD":
        fd = fd2_of_derivative(
            lambda u, s=name: getattr(transfer_derivative(pot, u), "d" + s), z
        )
        assert abs(getattr(aug, "d2" + name) - fd) < 5e-10


def test_derivative_invariants():
    rng = np.random.default_rng(5)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-1.5, 1.5, 40)))
    m = transfer_derivative(pot, 2.0 + 0.5j)
    trace_inv_d = m.D * m.dA - m.B * m.dC - m.C * m.dB + m.A * m.dD  # trace(M^-1 dM)
    assert abs(trace_inv_d) < 1e-12  # d/dz log det M = 0
    aug0 = transfer_derivative(pot, 2.0 + 0.5j, t=0.0)
    assert aug0.dA == aug0.dB == aug0.dC == aug0.dD == 0


def test_derivative_order_validation():
    pot = SampledPotential(h=0.1, cells=(1.0,))
    with pytest.raises(RangeError):
        transfer_derivative(pot, 1.0, order=3)
    for order in (0.0, 1.0, 1.5):  # 0.0 == 0 passed and raised numpy's TypeError
        with pytest.raises(RangeError, match="order must be 0, 1 or 2"):
            transfer(pot, 0.5, order=order)
    assert transfer(pot, 0.5, order=np.int64(1)).order == 1


# ---------------------------------------------------------------------------
# blocked tree product vs a plain per-cell loop
# ---------------------------------------------------------------------------


def _im_max(z):
    return float(np.abs(np.imag(z)).max(initial=0.0))


def _sequential(pot, z, t, order, eps=0.0, t1=0.0):
    """Jet and tracked det of M(t, z) on [t1, t] multiplying the same cells one
    at a time (``eps``: the corruption hook's skew)."""
    qs, ws, _ = _prepared_cells(pot, t1, t, _im_max(z))
    jet = np.zeros((order + 1, 2, 2, z.size), dtype=complex)
    jet[0, 0, 0] = jet[0, 1, 1] = 1.0
    det = np.ones(z.size, dtype=complex)
    for q, w in zip(qs, ws):
        cell = np.empty_like(jet)
        det = det * _cell_jets(q, float(w), z, z * z, order, cell, eps)
        jet = np.array([
            sum(math.comb(j, i) * np.einsum("abz,bcz->acz", cell[i], jet[j - i])
                for i in range(j + 1))
            for j in range(order + 1)
        ])
    return jet, det


def _propagated(pot, z, t, order, t1=0.0):
    m = transfer(pot, z, t, order=order, t1=t1)
    return m.jet, m.det_tracked


def _assert_jets_close(got, ref, rtol=1e-12):
    for j in range(len(ref)):  # per derivative order, relative to its largest entry
        scale = np.max(np.abs(ref[j]), axis=(0, 1))
        err = np.max(np.abs(got[j] - ref[j]), axis=(0, 1))
        assert np.all(err <= rtol * np.maximum(scale, 1e-300)), (j, np.max(err / scale))


_TREE_CASES = {  # kind -> (cell width, amplitude)
    "rough": (0.05, 1.5),
    "series": (1e-4, 1.0),  # m w^2 <= 1e-6: every cell on the series branch
    "chunked": (3.0, 2.0),  # |l| w up to ~7: cells are split before propagating
}


def _n_cells(kind):
    # 150 wide cells (T = 450, ~290 chunks) cancel so strongly that the loop
    # itself is up to 1e-11 of the largest entry off the exact product of its
    # cells (tree and loop then differ by up to 2.4e-12).
    return [0, 1, 2, 3, 7, 33] if kind == "chunked" else [0, 1, 2, 3, 7, 33, 150]


@given(
    seed=st.integers(0, 10_000),
    kind_n=st.sampled_from(sorted(_TREE_CASES)).flatmap(
        lambda kind: st.tuples(st.just(kind), st.sampled_from(_n_cells(kind)))),
    nz=st.sampled_from([1, 5, 64, 300]),
    order=st.sampled_from([0, 1, 2]),
    start=st.sampled_from([0.0, 0.37]),  # t1 as a share of t, cutting a cell
)
@settings(max_examples=60, deadline=None)
# wide cells whose partial products cancel: a tree over them missed by 2e-11
@example(seed=979, kind_n=("chunked", 33), nz=300, order=0, start=0.0)
def test_tree_matches_per_cell_loop(seed, kind_n, nz, order, start):
    kind, n = kind_n
    rng = np.random.default_rng(seed)
    h, amp = _TREE_CASES[kind]
    pot = SampledPotential(h=h, cells=tuple(rng.uniform(-amp, amp, max(n, 1))))
    t = pot.T if n else 0.0
    t1 = start * t
    im_max = min(0.4, 40.0 / pot.T)  # stay inside the working range |Im z| t <= 50
    z = rng.uniform(-6.0, 6.0, nz) + 1j * rng.choice([0.0, im_max], nz) * rng.uniform(0, 1, nz)
    # a skew of 1e-11 per cell makes every cell's det factor count at 1e-12
    eps = 0.0 if kind == "chunked" else 1e-11
    ref_jet, ref_det = _sequential(pot, z, t, order, eps, t1)
    with corrupted_propagator(eps):
        jet, det = _propagated(pot, z, t, order, t1)
    _assert_jets_close(jet, ref_jet)
    assert np.max(np.abs(det - ref_det)) < 1e-12


def _jet_product_rule(X, Y):
    """The jet of X Y summed by the product rule with einsum: the reference."""
    return np.array([sum(math.comb(j, i) * np.einsum("rk...,kc...->rc...", X[i], Y[j - i])
                         for i in range(j + 1)) for j in range(len(X))])


@given(seed=st.integers(0, 10_000), order=st.sampled_from([0, 1, 2]),
       cells=st.sampled_from([1, 2, 7, 33, 150, 400]), nz=st.sampled_from([1, 3, 64]),
       cplx=st.booleans(), scale=st.floats(-6.0, 6.0))
@settings(max_examples=80, deadline=None)
@example(seed=0, order=2, cells=1, nz=1, cplx=True, scale=0.0)  # one-entry arrays
def test_jet_mul_forms_agree_bit_for_bit(seed, order, cells, nz, cplx, scale):
    # the small form adds the products X^(i) Y^(k) in the entrywise form's order,
    # so the two give the same bits on either side of _ENTRYWISE_MIN, real or complex
    rng = np.random.default_rng(seed)
    shape = (order + 1, 2, 2, cells, nz)
    X, Y = (10.0 ** (scale * rng.uniform(-1.0, 1.0, shape)) * (
        rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if cplx else 0.0))
        for _ in range(2))
    forms = []
    for switch in (math.inf, 0):  # the small form everywhere, the entrywise form everywhere
        with mock.patch.object(propagator, "_ENTRYWISE_MIN", switch):
            forms.append(propagator._jet_mul(X, Y, np.empty_like(X)))
    either = propagator._jet_mul(X, Y, np.empty_like(X))  # the form its size picks
    np.testing.assert_array_equal(forms[0], forms[1])
    np.testing.assert_array_equal(either, forms[1])
    ref = _jet_product_rule(X, Y)
    assert np.all(np.abs(either - ref) <= 1e-13 * _jet_product_rule(abs(X), abs(Y)))


@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["deck", "wide", "constant"]),
       order=st.sampled_from([0, 1]), nz=st.integers(2, 8), share=st.floats(0.05, 1.2))
@settings(max_examples=60, deadline=None)
def test_scalar_z_is_its_column_of_a_batch_with_the_same_chunks(seed, kind, order, nz, share):
    # a lock-step Newton reads each start's column of one batch; one im z for
    # all points keeps every chunk plan the same (wide cells: one-cell blocks)
    rng = np.random.default_rng(seed)
    cells = {"deck": lambda: np.append(rng.uniform(-0.8, 0.8, rng.integers(30, 61)), [0.0] * 10),
             "wide": lambda: rng.uniform(-1.5, 1.5, rng.integers(1, 8)),
             "constant": lambda: np.full(rng.integers(50, 800), rng.uniform(0.2, 1.5))}[kind]()
    pot = SampledPotential(h={"deck": 0.05, "wide": 1.0, "constant": 0.01}[kind], cells=tuple(cells))
    t = share * pot.T
    z = rng.uniform(-4.0, 4.0, nz) + 1j * rng.uniform(0.0, 1.0 / t)
    batch = transfer(pot, z, t, order=order)
    for i in range(nz):
        np.testing.assert_array_equal(transfer(pot, complex(z[i]), t, order=order).jet,
                                      batch.jet[..., i])


def test_blocks_isolate_wide_cells():
    wide = np.array([0, 0, 1, 0, 0, 0, 0, 1, 1, 0], dtype=bool)
    assert _blocks(wide, 3) == [(0, 2), (2, 1), (3, 3), (6, 1), (7, 1), (8, 1), (9, 1)]
    assert _blocks(wide, 1) == [(i, 1) for i in range(10)]
    assert _blocks(np.zeros(7, dtype=bool), 4) == [(0, 4), (4, 3)]
    assert _blocks(np.zeros(0, dtype=bool), 4) == []


# Block budget of the tests that cross block boundaries and reach one-cell
# blocks: their sizes follow it, not _TREE_BUDGET, so their cost stays put.
_BUDGET = 4096


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(propagator, "_TREE_BUDGET", _BUDGET)


def test_tree_spans_several_blocks(small_blocks):
    rng = np.random.default_rng(11)
    n = _BUDGET + 905  # one full block of cells at nz = 1, then a partial one
    pot = SampledPotential(h=0.002, cells=tuple(rng.uniform(-1.0, 1.0, n)))
    z = np.array([1.3 + 0.2j])
    assert len(_prepared_cells(pot, 0.0, pot.T, _im_max(z))[0]) > _BUDGET
    for order in (0, 1, 2):
        ref_jet, ref_det = _sequential(pot, z, pot.T, order)
        jet, det = _propagated(pot, z, pot.T, order)
        _assert_jets_close(jet, ref_jet)
        assert np.max(np.abs(det - ref_det)) < 1e-12


@pytest.mark.parametrize("nz", [300, _BUDGET + 1])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_scalar_z_matches_wide_batch(small_blocks, nz, order):
    rng = np.random.default_rng(12)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-1.5, 1.5, 60)))
    z0 = 0.8 + 0.3j  # the batch's largest |Im z|, so both chunk the same
    batch = np.concatenate([rng.uniform(-6.0, 6.0, nz - 1) + 0j, [z0]])
    alone, _ = _propagated(pot, np.array([z0]), pot.T, order)
    wide, _ = _propagated(pot, batch, pot.T, order)
    _assert_jets_close(wide[..., -1:], alone)
    if order:
        aug = transfer_derivative(pot, z0, order=order)
        assert abs(aug.dA - wide[1, 0, 0, -1]) <= 1e-12 * np.max(np.abs(wide[1, ..., -1]))


def test_kernel_probe_batch_takes_at_most_three_blocks(monkeypatch):
    # a grid_n 16 probe box folds to 128 points; 300 fine cells at order 1
    # go in blocks of _TREE_BUDGET // 128 cells
    rng = np.random.default_rng(22)
    pot = SampledPotential(h=0.02, cells=tuple(rng.uniform(-0.8, 0.8, 300)))
    seen, blocks = [], propagator._blocks

    def recording(wide, cap):
        seen.append((wide.size, blocks(wide, cap)))
        return seen[-1][1]

    monkeypatch.setattr(propagator, "_blocks", recording)
    m = transfer(pot, Box.scaled(0.7, 4.0, pot.T, 16).tensor_grid(), pot.T, order=1)
    ((cells, out),) = seen
    assert m.A.size == 256 and cells == 300
    assert len(out) <= 3


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_one_block_propagation_is_the_tree_of_its_cell_jets(kind, order):
    # the first block starts the running product: no product with I
    rng = np.random.default_rng(23)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-1.5, 1.5, 80)))
    z = rng.uniform(0.1, 6.0, 20)
    if kind == "complex":
        z = z + 1j * rng.uniform(0.0, 0.5, 20)
    qs, ws, _ = _prepared_cells(pot, 0.63, pot.T, _im_max(z))
    assert 1 < len(qs) <= propagator._TREE_BUDGET // z.size
    assert not np.any(np.abs(qs) * ws > _TREE_CELL)  # one block
    cells = np.empty((order + 1, 2, 2, len(qs), z.size), dtype=z.dtype)
    det = _cell_jets(qs[:, None], ws[:, None], z, z * z, order, cells, 0.0)
    m = transfer(pot, z, pot.T, order=order, t1=0.63)
    np.testing.assert_array_equal(m.jet, _tree(cells, np.empty_like(cells)))
    np.testing.assert_array_equal(m.det_tracked, np.prod(det, axis=0))


# ---------------------------------------------------------------------------
# special values: a NaN, an infinity or a huge value never passes a check
# ---------------------------------------------------------------------------

_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324,
                            2.2250738585072014e-308, -0.0, 0.0, 1.0])
# cell values: the special ones, and large ones around and past the growth bound
_SPECIAL_Q = _SPECIAL | st.sampled_from([300.0, 800.0, -1e6, 1e300])


def _special_call(entry, a, b, q):
    """The arrays one entry point returns for the special values ``a``, ``b``
    on a potential with a cell of value ``q``."""
    pot = SampledPotential(h=0.1, cells=(1.0, q, 0.25) * 4)
    if entry == "transfer":
        m = transfer(pot, complex(a, b), 1.0, 2)
        return m.jet, m.det_tracked
    if entry == "theta":
        return (theta(transfer(pot, complex(a, b), 1.0)),)
    if entry == "find_zeros":
        return [v for pair in find_zeros(pot, 1.0, resonance.Box(a, b)) for v in pair]
    if entry == "kernel_probe":
        probe = kernel_probe(pot, a, 1.0, b, grid_n=8)
        return probe.K_values, probe.gap, probe.w_hat
    sd = nlft_forward(pot, pot.T, np.array([a, b]))
    return sd.a, sd.b, sd.r


@pytest.mark.parametrize("entry", ["transfer", "theta", "find_zeros", "nlft_forward",
                                   "kernel_probe"])
@given(a=_SPECIAL, b=_SPECIAL, q=_SPECIAL_Q)
@settings(max_examples=150, deadline=None)
def test_special_floats_give_finite_values_or_a_package_error(entry, a, b, q):
    # a RuntimeWarning is an error in this suite, so numpy may not see them either
    try:
        values = _special_call(entry, a, b, q)
    except DiracNLFTError:
        return
    assert all(np.all(np.isfinite(v)) for v in values)


@pytest.mark.parametrize("z", [math.nan, complex(0.0, math.nan), math.inf, 1e200, 1e200 + 1j],
                         ids=["nan", "nan_i", "inf", "huge", "huge_complex"])
def test_non_finite_or_huge_frequency_is_refused_by_value(z):
    # these returned NaN entries and a NaN tracked det with no error before
    pot = SampledPotential(h=0.1, cells=(1.0,) * 10)
    with pytest.raises(RangeError, match="frequency z = .*(nan|inf|e\\+200)"):
        transfer(pot, z, 1.0)
    with pytest.raises(RangeError):
        transfer(pot, np.array([0.5, z, 2.0]), 1.0)


@pytest.mark.parametrize("call, error", [
    (lambda pot: transfer(pot, np.ones((2, 3))), RangeError),
    (lambda pot: nlft_forward(pot, grid=np.ones((2, 3))), RangeError),
    (lambda pot: theta_derivs(transfer(pot, 0.5 + 0.1j)), ValidationError),
    (lambda pot: resonance.Box(0.0, 1.0, grid_n=8.5), ValidationError),
    (lambda pot: box_sample_points(0.0, 1.0, 6, seed=-5), ValidationError),
    (lambda pot: symmetric_grid(1.0, 2.5), ValidationError),
    (lambda pot: symmetric_grid(1.0, -3), ValidationError),
    (lambda pot: transfer(pot, 0.5, [[0.1, 0.2]]), RangeError),
    (lambda pot: estimate_w(pot, 1j, (0.1, 0.3), 8), ValidationError),
    (lambda pot: kernel_sinc(1.0, math.nan, 0.5), RangeError),
    (lambda pot: kernel_sinc(1.0, 0.5, math.inf), RangeError),
    (lambda pot: kernel_sinc(1.0, 0.5, 1e308), RangeError),
    (lambda pot: kernel_sinc(1e308, 0.5, 0.6), RangeError),
    (lambda pot: symmetric_grid(3.0, 10**30), ValidationError),
    (lambda pot: box_sample_points(0.0, 1.0, 4, seed=10**30), ValidationError),
    (lambda pot: box_sample_points(1j, 1.0, 4), ValidationError),
], ids=["transfer_2d_z", "nlft_forward_2d_grid", "theta_derivs_order_0", "box_grid_n_8.5",
        "box_samples_negative_seed", "symmetric_grid_n_2.5", "symmetric_grid_n_negative",
        "transfer_2d_times", "estimate_w_complex_s", "kernel_sinc_nan_lam", "kernel_sinc_inf_z",
        "kernel_sinc_huge_z", "kernel_sinc_huge_t", "symmetric_grid_huge_n",
        "box_samples_huge_seed", "box_samples_complex_s"])
def test_library_inputs_the_cli_never_passes_are_refused(call, error):
    # a numpy broadcast ValueError, a TypeError, an accepted grid_n that
    # find_zeros failed on, samples on a corner, and numpy's TypeError and
    # ValueError from linspace before; then a TypeError, numbers at z = 1j,
    # RuntimeWarnings of the sinc, "Maximum allowed size exceeded", an
    # OverflowError and a ComplexWarning
    with pytest.raises(error):
        call(SampledPotential(h=0.1, cells=(1.0, -0.5, 0.25)))


def test_growth_past_the_float_range_is_refused():
    # A = nan with only RuntimeWarnings before; det_tracked stayed 1
    with pytest.raises(OverflowRangeError, match="is 800, past 305"):
        transfer(SampledPotential(h=0.5, cells=(800.0, 800.0)), 0.5, 1.0)
    with pytest.raises(OverflowRangeError, match="is inf"):  # a sum past the float range
        transfer(SampledPotential(h=1.0, cells=(1e308,) * 40), 0.5, 40.0)
    # a sweep sums over its stretches: each adds 100, three pass and four do not
    pot = SampledPotential(h=0.5, cells=(100.0,) * 8)
    assert len(transfer(pot, 0.5, [1.0, 2.0, 3.0])) == 3
    with pytest.raises(OverflowRangeError, match="is 400"):
        transfer(pot, 0.5, [1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("z, t", [(0.5, 1e60), (1e149, 100.0), (0.0, 1e308)],
                         ids=["long_span", "large_z_span", "huge_span"])
def test_span_past_the_range_is_refused(z, t):
    # (z w)^2 and the order-2 series' w^5 overflowed with a RuntimeWarning before
    pot = SampledPotential(h=0.5, cells=(1.0, 1.0))
    with pytest.raises(RangeError, match="span"):
        transfer(pot, z, t, order=2)


def test_nan_fails_the_monitors():
    pot = SampledPotential(h=0.1, cells=(1.0,) * 10)
    with corrupted_propagator(math.nan), pytest.raises(InvariantViolation, match="nan"):
        transfer(pot, 0.5)
    with pytest.raises(RangeError):  # a NaN time is not sorted after t1
        transfer(pot, 0.5, math.nan)
    with pytest.raises(OverflowRangeError):  # |Im z| t = 0 * inf is NaN
        transfer(pot, 0.5, math.inf)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_empty_batch_gives_an_empty_transfer(order):
    # numpy's zero-size reduction error came out of the cell plan before
    pot = SampledPotential(h=0.1, cells=tuple(np.linspace(-1.0, 1.0, 10)))
    empty = np.array([], dtype=complex)
    for m in (transfer(pot, empty, 1.0, order), *transfer(pot, empty, [0.5, 1.0], order)):
        assert m.jet.shape == (order + 1, 2, 2, 0) and m.det_tracked.shape == (0,)
        assert theta(m).shape == (0,)


# ---------------------------------------------------------------------------
# symmetries: M(conj z) = conj M(z) and M(-z) = S M(z) S fold a batch onto the
# distinct keys |Re z| + i |Im z|
# ---------------------------------------------------------------------------


@given(X=st.floats(1e-3, 1e3), n=st.integers(3, 5121))
@example(X=1e-3, n=3)
@example(X=1e3, n=5121)
@settings(max_examples=200, deadline=None)
def test_symmetric_grid_is_mirrored_and_nests_in_its_refinement(X, n):
    # the mirror makes transfer's +-x fold exact; the nesting lets Parseval
    # take each coarse level from the even nodes of the next
    x = symmetric_grid(X, n)
    assert x.size == n and x[0] == -X and x[-1] == X
    assert np.array_equal(x, -x[::-1])
    assert symmetric_grid(X, 2 * n - 1)[::2].tobytes() == x.tobytes()
    assert symmetric_grid(X, np.int64(n)).tobytes() == x.tobytes()  # a numpy count


def test_symmetric_grid_takes_an_integer_end_past_int64():
    # linspace made an object array of 10**30 and raised numpy's UFuncTypeError
    assert symmetric_grid(10**30, 8).tobytes() == symmetric_grid(1e30, 8).tobytes()
    with pytest.raises(RangeError):
        symmetric_grid(10**400, 8)


_S = np.diag([1.0, -1.0])


def _assert_folds_onto_keys(pot, z, order):
    """``transfer`` over ``z`` equals, bit for bit, the batch of distinct keys
    propagated alone and mapped back by hand; and the cell-by-cell product."""
    jet, det = _propagated(pot, z, pot.T, order)
    key = np.abs(z.real) + 1j * np.abs(z.imag)
    fold = np.unique(key)
    fold_jet, fold_det = _propagated(pot, fold, pot.T, order)  # no lower, no negative: unfolded
    k = np.searchsorted(fold, key)
    want_jet, want_det = fold_jet[..., k], fold_det[k]
    neg = z.real < 0  # M^(j)(-z) = (-1)^j S M^(j)(z) S
    for j in range(order + 1):
        want_jet[j][..., neg] = (-1) ** j * np.einsum("ab,bcz,cd->adz", _S, want_jet[j][..., neg], _S)
    flip = (z.imag < 0) != neg  # the image of z is conj(key) or -conj(key)
    want_jet[..., flip], want_det[flip] = np.conj(want_jet[..., flip]), np.conj(want_det[flip])
    np.testing.assert_array_equal(jet, want_jet)
    np.testing.assert_array_equal(det, want_det)
    ref_jet, ref_det = _sequential(pot, z, pot.T, order)
    _assert_jets_close(jet, ref_jet)
    assert np.max(np.abs(det - ref_det)) < 1e-12


@pytest.mark.parametrize("order", [0, 1, 2])
def test_lower_half_points_fold_onto_their_partners(order):
    rng = np.random.default_rng(18 + order)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-1.5, 1.5, 80)))
    up = rng.uniform(-6.0, 6.0, 40) + 1j * rng.uniform(0.01, 0.4, 40)
    lone = rng.uniform(-6.0, 6.0, 5) - 1j * rng.uniform(0.01, 0.4, 5)  # no partner in the batch
    real = rng.uniform(-6.0, 6.0, 5)
    dup = np.concatenate([up[:3], np.conj(up[30:33]), np.conj(up[30:32]), real[:2]])
    mirror = np.concatenate([-up[:10], -np.conj(up[10:15]), -real[:3]])  # -z and -conj z
    z = rng.permutation(np.concatenate([up, np.conj(up[:25]), lone, real, dup, mirror]))
    assert np.any(z.imag < 0) and np.any(z.real < 0)
    _assert_folds_onto_keys(pot, z, order)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_mirror_points_fold_onto_their_partners(order):
    rng = np.random.default_rng(40 + order)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-1.5, 1.5, 80)))
    x = rng.uniform(0.05, 6.0, 30)
    lone = -rng.uniform(0.05, 6.0, 5)  # negative points without a partner
    real = np.concatenate([x, -x[:20], [0.0, 0.0, -0.0], lone, x[:3], -x[25:28]])
    a, b = rng.uniform(0.05, 6.0, 8), rng.uniform(0.01, 0.4, 8)
    images = np.concatenate([a + 1j * b, -a + 1j * b, a - 1j * b, -a - 1j * b])  # all four
    for z in (real, np.concatenate([images, images[:5]])):
        _assert_folds_onto_keys(pot, rng.permutation(z), order)


def test_folded_batch_keeps_its_guards():
    pot = SampledPotential(h=0.1, cells=tuple(np.linspace(-1, 1, 10)))
    # below the axis (one a mirror image), and real with mirror pairs
    for z in (np.array([0.5 - 3.0j, -1.0 - 1.0j, 0.5 - 3.0j]),
              np.array([0.5, -1.0, 0.5, -0.5, 1.0])):
        with pytest.raises(OverflowRangeError):  # |Im z| t = 60 > 50, checked before the fold
            transfer_batch(pot, np.append(z, -3.0j), t=20.0)
        with corrupted_propagator(1e-4):
            with pytest.raises(InvariantViolation):
                transfer_batch(pot, z)
        with corrupted_propagator(1e-12):
            drift = transfer_batch(pot, z).det_drift
        assert np.all((1e-13 < drift) & (drift < 1e-8))
        assert drift[0] == drift[2]


# ---------------------------------------------------------------------------
# real axis: float64 propagation vs complex arithmetic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", [0, 1, 2])
def test_real_coeffs_match_complex(order):
    w = np.array([[1e-3], [0.05], [1.0], [2.5]])
    # m w^2 on both sides of the series switch, both signs, and m = 0
    x = np.array([1e-9, 1e-6, 0.5 * _SERIES, 2 * _SERIES, 0.3, 1.0, 6.0])
    x = np.concatenate([-x[::-1], [0.0], x])
    m = x / (w * w)
    q = 0.7
    m[:, len(x) // 2] = q * q - (-q) ** 2  # z = -q: m = 0 exactly
    got, ref = _coeffs(m, w, order), _coeffs(m + 0j, w, order)
    for g, r in zip(got, ref):
        if r is None:
            assert g is None
            continue
        assert g.dtype == np.float64
        assert np.all(np.abs(g - r) <= 1e-12 * np.abs(r))


def test_entries_do_not_depend_on_the_order_carried():
    # on kernel-probe grids (the full square Q(s, C/t), half of it below the axis),
    # A and C are the same bits at orders 0, 1 and 2, and dA and dC at orders 1 and 2
    rng = np.random.default_rng(21)
    for _ in range(6):
        pot = SampledPotential(h=0.02, cells=tuple(rng.uniform(-0.8, 0.8, rng.integers(50, 351))))
        grid_n = int(rng.integers(8, 25))
        box = Box.scaled(rng.uniform(-3.0, 3.0), rng.uniform(2.0, 6.0), pot.T, grid_n)
        m0, m1, m2 = (transfer(pot, box.tensor_grid(), pot.T, order=k) for k in range(3))
        for name, lower in (("A", m0), ("C", m0), ("A", m2), ("C", m2), ("dA", m2), ("dC", m2)):
            assert getattr(m1, name).tobytes() == getattr(lower, name).tobytes(), name


@pytest.mark.parametrize("n", [0, 1, 7, 150, _BUDGET + 905])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_real_batch_matches_complex_path(small_blocks, n, order):
    # 4096+905 cells skip nz = 4097 (20 M cell x frequency steps per path)
    rng = np.random.default_rng(13)
    h = 0.002 if n > 150 else 0.05
    pot = SampledPotential(h=h, cells=tuple(rng.uniform(-1.5, 1.5, max(n, 1))))
    t = pot.T if n else 0.0
    q0 = pot.cells[0]
    for nz in [1, 5, 300] + ([] if n > 150 else [_BUDGET + 1]):
        z = rng.uniform(-8.0, 8.0, nz)
        z[:2] = (q0, -q0)[:nz]  # m = 0 exactly in the first cell
        mixed = np.append(z, 0.5 + 0.05j)  # one non-real z: the complex path
        for a, b in zip(_prepared_cells(pot, 0.0, t, _im_max(z)),
                        _prepared_cells(pot, 0.0, t, _im_max(mixed))):
            np.testing.assert_array_equal(a, b)  # same cells: only the arithmetic differs
        jet, det = _propagated(pot, z, t, order)
        ref_jet, ref_det = _propagated(pot, mixed, t, order)
        _assert_jets_close(jet, ref_jet[..., :-1])
        assert np.max(np.abs(det - ref_det[:-1])) < 1e-12


@pytest.mark.parametrize("z", [0.0, 0.4, -0.9, 3.7, -12.0])
def test_real_axis_transfer_matches_rk4_oracle(z):
    rng = np.random.default_rng(14)
    cells = rng.uniform(-1.5, 1.5, 12)
    cells[5] = 0.9  # z = +-0.9 meets m = 0 in this cell
    pot = SampledPotential(h=0.05, cells=tuple(cells))
    got = transfer(pot, z).jet[0]
    ref = oracle_transfer(pot, z, pot.T, steps_per_cell=int(256 * (1 + abs(z))))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_public_results_stay_complex():
    rng = np.random.default_rng(15)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-1.5, 1.5, 30)))
    z = np.array([0.3, -2.0, 1.0])
    m = transfer(pot, 0.3)
    aug = transfer_derivative(pot, 0.3, order=2)
    scalars = [m.A, m.B, m.C, m.D, m.det_tracked, aug.dA, aug.dD, aug.d2B, aug.d2C]
    assert all(type(v) is complex for v in scalars)
    state = transfer(pot, z, order=2)
    sd = nlft_forward(pot, grid=z)
    arrays = [state.z, state.jet, state.det, sd.a, sd.b, sd.r]
    for b in [transfer_batch(pot, z)] + transfer(pot, z, [0.5, 2.0]):
        arrays += [b.z, b.A, b.B, b.C, b.D, b.det_tracked]
    assert all(a.dtype == np.complex128 for a in arrays)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoints_match_separate_calls():
    rng = np.random.default_rng(6)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-1.5, 1.5, 60)))
    # real, upper- and lower-half points (one conjugate pair): fold and sweep at once
    zs = np.array([0.5, -2.0, 1.0 + 0.5j, 1.0 - 0.5j, -0.3 - 0.2j])
    t_list = [0.33, 1.0, 1.77, 2.9, 5.5]  # off-boundary cuts and beyond support
    for order in (0, 1, 2):
        chk = transfer(pot, zs, t_list, order=order)
        assert [b.t for b in chk] == t_list
        names = [p + name for p in ("", "d", "d2")[:order + 1] for name in "ABCD"]
        for b in chk:
            assert b.order == order
            ref = transfer(pot, zs, t=b.t, order=order)
            for name in names:
                assert np.allclose(
                    getattr(b, name), getattr(ref, name), rtol=1e-12, atol=1e-13
                ), (order, b.t, name)
        for b, s in zip(chk, transfer(pot, zs[3], t_list, order=order)):  # scalar z
            np.testing.assert_array_equal(s.jet, b.jet[..., 3])


def test_empty_sweep_gives_no_results():
    # an empty list of times fell through to the drift check of no determinant
    pot = SampledPotential(h=0.1, cells=(1.0,) * 5)
    for z in (0.5, np.array([0.5, 1.0 + 0.2j])):
        assert transfer(pot, z, []) == [] and transfer(pot, z, np.array([]), order=1) == []
    with pytest.raises(RangeError):  # the frequencies are still checked
        transfer(pot, np.array([[0.5]]), [])


def test_checkpoints_reject_negative_times():
    pot = SampledPotential(h=0.1, cells=(1.0,))
    with pytest.raises(RangeError):
        transfer(pot, 1.0, [-1.0, 0.5])
    with pytest.raises(RangeError):
        transfer(pot, 1.0, [0.5, 0.2])


# ---------------------------------------------------------------------------
# Hermite-Biehler layer
# ---------------------------------------------------------------------------


def test_free_first_kind_function_and_theta():
    pot = SampledPotential(h=0.5, cells=(0.0,) * 8)
    for t in (0.5, 2.0):
        for z in (1.3, -0.4, 0.6 + 0.3j):
            m = transfer(pot, z, t=t)
            assert abs(m.E - np.exp(-1j * t * z)) < 1e-13
            assert abs(theta(m) - np.exp(2j * t * z)) < 1e-13


def test_det2i_identity():
    rng = np.random.default_rng(8)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-2, 2, 50)))
    for z in np.linspace(-10, 10, 9):
        m = transfer(pot, z)
        assert abs(m.det2i() - 2j * m.det) < 1e-13


@pytest.mark.parametrize("z", [0.7 + 0.2j, np.array([-1.5, 0.3, 2.0 + 0.4j])],
                         ids=["scalar", "batch"])
def test_hermite_biehler_functions_are_transfer_members(z):
    rng = np.random.default_rng(12)
    m = transfer(SampledPotential(h=0.05, cells=tuple(rng.uniform(-1.5, 1.5, 30))), z)
    assert hermite_biehler(m) is m
    for got, want in ((m.E, m.A - 1j * m.C), (m.Etilde, m.B - 1j * m.D),
                      (m.Esharp, m.A + 1j * m.C), (m.Etildesharp, m.B + 1j * m.D)):
        assert type(got) is type(want) and np.array_equal(got, want)
    assert np.array_equal(m.det2i(), m.E * m.Etildesharp - m.Etilde * m.Esharp)


@given(re=st.floats(-20, 20), seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_theta_unimodular_on_real_axis(re, seed):
    rng = np.random.default_rng(seed)
    pot = SampledPotential(h=0.1, cells=tuple(rng.uniform(-1, 1, 15)))
    assert abs(abs(theta(transfer(pot, re))) - 1.0) < 1e-12


def test_theta_contractive_in_upper_half_plane():
    rng = np.random.default_rng(9)
    pot = SampledPotential(h=0.1, cells=tuple(rng.uniform(-1, 1, 20)))
    for z in (0.5 + 0.3j, -1.0 + 1.0j, 2.0 + 0.05j):
        assert abs(theta(transfer(pot, z))) < 1.0


def test_theta_pole_guard():
    # A - iC = 0: one pole test serves theta (scalar or batch) and theta_derivs
    m = Transfer(t=1.0, z=0j, jet=np.array([[[1.0, 0.0], [-1.0j, 0.0]]]), det_tracked=1 + 0j)
    with pytest.raises(PoleProximityError):
        theta(m)
    m1 = Transfer(t=1.0, z=0j, jet=np.array([m.jet[0], np.eye(2)]), det_tracked=1 + 0j)
    with pytest.raises(PoleProximityError):
        theta_derivs(m1)
    batch = np.stack([m.jet, np.eye(2)[None]], axis=-1).astype(complex)
    with pytest.raises(PoleProximityError):
        theta(Transfer(t=1.0, z=np.zeros(2, complex), jet=batch, det_tracked=np.ones(2, complex)))


def test_theta_derivatives_match_fd():
    rng = np.random.default_rng(10)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-1, 1, 30)))
    z = 0.8 + 0.6j
    th, th_z, th_zz = theta_derivs(transfer_derivative(pot, z, order=2))
    fd_z = fd1(lambda u: theta(transfer(pot, u)), z)
    fd_zz = fd2_of_derivative(
        lambda u: theta_derivs(transfer_derivative(pot, u))[1], z
    )
    assert abs(th - theta(transfer(pot, z))) < 1e-14
    assert abs(th_z - fd_z) < 1e-9 * max(1.0, abs(th_z))
    assert abs(th_zz - fd_zz) < 1e-8 * max(1.0, abs(th_zz))


# ---------------------------------------------------------------------------
# cell covers: slices of the arrays built with the potential
# ---------------------------------------------------------------------------


def _runs_pot(seed, h=0.25, n=12):
    """Rough cells from few values, so neighbours coalesce.  At h = 0.25 a
    lone 9.0 cell chunks from |Im z| = 1 on, two coalesced ones at any z."""
    rng = np.random.default_rng(seed)
    return SampledPotential(h=h, cells=tuple(rng.choice([0.0, -0.4, 1.1, 9.0], n)))


def _chunk_edge(pot, t1, t2):
    """Smallest |Im z| >= 0 at which chunking afresh cuts some cell of the
    cover of [t1, t2] (bisection over the float64 bit patterns)."""
    qs, ws = prepared_cells_afresh(pot, t1, t2, 0.0, _CHUNK_CAP)
    cuts = lambda im: len(prepared_cells_afresh(pot, t1, t2, im, _CHUNK_CAP)[0]) > len(qs)
    if not len(qs) or cuts(0.0):
        return 0.0
    lo, hi = 0, int(np.float64(2.0 * _CHUNK_CAP / ws.max()).view(np.int64))
    while hi - lo > 1:  # cuts(lo) is false, cuts(hi) true
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if cuts(float(np.int64(mid).view(np.float64))) else (mid, hi)
    return float(np.int64(hi).view(np.float64))


@given(seed=st.integers(0, 10_000), span=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.3)),
       where=st.sampled_from(["ulp_below", "at", "ulp_above", "random", "far", "real"]))
@example(seed=0, span=(0.0, 1.0), where="at")
@settings(max_examples=300, deadline=None)
def test_prepared_cells_equal_the_cover_chunked_afresh(seed, span, where):
    rng = np.random.default_rng(seed)
    values = [0.0, *rng.uniform(-9.0, 9.0, 3)]
    pot = SampledPotential(h=float(rng.uniform(0.05, 0.6)),
                           cells=tuple(rng.choice(values, int(rng.integers(1, 30)))))
    t1, t2 = sorted(u * pot.T for u in span)
    edge = _chunk_edge(pot, t1, t2)
    im = {"ulp_below": np.nextafter(edge, -1.0), "at": edge,
          "ulp_above": np.nextafter(edge, 2 * edge), "random": rng.uniform(0.0, 3.0 * edge + 1.0),
          "far": 3.0 * edge + 1.0, "real": 0.0}[where]
    im = max(float(im), 0.0)
    qs, ws, grown = _prepared_cells(pot, t1, t2, im, 1.5)
    for got, ref in zip((qs, ws), prepared_cells_afresh(pot, t1, t2, im, _CHUNK_CAP)):
        np.testing.assert_array_equal(got, ref)
        assert got.dtype == ref.dtype
    assert grown == pytest.approx(1.5 + float(np.abs(qs) @ ws), rel=1e-14)


def _fresh(pot):
    return SampledPotential(h=pot.h, cells=pot.cells, T=pot.T)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("z", [
    1.3 + 0.4j,
    np.array([-2.0, -0.5, 0.0, 0.7, 3.1]),
    np.array([0.4 + 0.3j, -1.0 - 2.0j, 2.5 + 0.1j]),  # |Im z| 2 chunks the 9.0 cells
], ids=["scalar", "real_batch", "complex_batch"])
@pytest.mark.parametrize("t, t1", [(None, 0.0), ([0.8, 1.9, 3.0], 0.0), (2.6, 0.55)],
                         ids=["whole", "sweep", "sub_interval"])
def test_transfer_on_a_warm_plan_equals_a_fresh_potential(order, z, t, t1):
    # "warm": a potential that earlier calls propagated, at another z and at this
    # one; a potential keeps no plan of its intervals, so they leave no trace
    warm = _runs_pot(6)  # no chunk below |Im z| = 1
    for other in (0.2 + 0.1j, z):
        transfer(warm, other, t, order=order, t1=t1)
    got = transfer(warm, z, t, order=order, t1=t1)
    ref = transfer(_fresh(warm), z, t, order=order, t1=t1)
    for g, r in zip(*(x if isinstance(x, list) else [x] for x in (got, ref))):
        np.testing.assert_array_equal(g.jet, r.jet)
        np.testing.assert_array_equal(g.det_tracked, r.det_tracked)


def test_threads_sharing_a_potential_get_the_serial_bits():
    # a potential holds no state that changes, so threads sharing one get the
    # bits of a serial run on a fresh potential
    pot = _fresh(_runs_pot(6))
    cases = [(t, z) for t in (1.0, 2.0, pot.T) for z in (0.4 + 0.3j, 0.5 + 2.0j)]
    ref = {c: transfer(_fresh(pot), c[1], c[0], order=1).jet for c in cases}
    start = threading.Barrier(6, timeout=30)

    def worker(k):
        start.wait()
        return all(np.array_equal(transfer(pot, z, t, order=1).jet, ref[t, z])
                   for t, z in (cases[(i + k) % len(cases)] for i in range(60)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads finely
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(worker, k) for k in range(6)]
            assert all(f.result(timeout=60) for f in futures)
    finally:
        sys.setswitchinterval(old)
