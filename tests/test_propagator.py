import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from diracnlft.errors import (
    InvariantViolation,
    OverflowRangeError,
    PoleProximityError,
    RangeError,
)
from diracnlft.potential import SampledPotential
from diracnlft.propagator import (
    _TREE_BUDGET,
    TransferMatrix,
    _cell_jets,
    _prepared_cells,
    cell_propagator,
    corrupted_propagator,
    hermite_biehler,
    theta,
    theta_derivs,
    transfer,
    transfer_batch,
    transfer_checkpoints,
    transfer_derivative,
    transfer_derivative_batch,
)

from oracles import fd1, fd2_of_derivative, free_rotation, oracle_transfer


def _mat(m):
    return m.matrix() if hasattr(m, "matrix") else m


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
        got = cell_propagator(q, w, z)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-13), (q, w, z)


def test_cell_series_branch_is_continuous():
    # x = (q^2 - z^2) w^2 crosses the series/closed-form switch near 1e-6
    z = 0.5
    for scale in (0.9, 1.1):
        q = np.sqrt(z * z + scale * 1e-6)  # x = scale * 1e-6 * w^2 with w=1
        G = np.array([[q, -z], [z, -q]], dtype=complex)
        expected = scipy.linalg.expm(G)
        got = cell_propagator(float(q), 1.0, z)
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-14)


def test_large_cell_is_chunked_correctly():
    # q * w = 10 far exceeds the single-step cap, so the cell must be split
    q, w, z = 2.0, 5.0, 0.7 + 0.3j
    pot = SampledPotential(h=w, cells=(q,))
    G = np.array([[q, -z], [z, -q]], dtype=complex)
    expected = scipy.linalg.expm(w * G)
    got = _mat(transfer(pot, z))
    assert np.allclose(got, expected, rtol=1e-11, atol=1e-12)


# ---------------------------------------------------------------------------
# multi-cell propagation vs the RK4 oracle
# ---------------------------------------------------------------------------


def test_matches_rk4_oracle_real_and_complex():
    rng = np.random.default_rng(42)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-1.5, 1.5, 40)))
    worst = 0.0
    for z in (0.0, 3.7, -12.0, 1.0 + 0.5j, -2.0 + 1.5j, 0.3 - 0.8j):
        got = _mat(transfer(pot, z))
        # the RK4 oracle's own error goes like (|z| dt)^4, so resolve in |z|
        ref = oracle_transfer(pot, z, pot.T, steps_per_cell=int(64 * (1 + abs(z))))
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst < 5e-12


def test_free_potential_is_a_rotation():
    pot = SampledPotential(h=0.5, cells=(0.0,) * 8)
    for z in (0.7, -3.0, 1.0 + 0.2j):
        for t in (0.9, 4.0):
            got = _mat(transfer(pot, z, t=t))
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
    direct = _mat(transfer(pot, z, t=t))
    composed = free_rotation(t - pot.T, z) @ _mat(transfer(pot, z))
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


def test_corruption_trips_the_monitor():
    pot = SampledPotential(h=0.05, cells=tuple(np.linspace(-1, 1, 40)))
    with corrupted_propagator(1e-4):
        with pytest.raises(InvariantViolation):
            transfer(pot, 1.0)
    # restored afterwards
    assert transfer(pot, 1.0).det_drift < 1e-12


def test_mild_corruption_is_visible_but_tolerated():
    pot = SampledPotential(h=0.05, cells=tuple(np.linspace(-1, 1, 40)))
    with corrupted_propagator(1e-12):
        drift = transfer(pot, 1.0).det_drift
    assert 1e-12 < drift < 1e-8


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
    aug = transfer_derivative(pot, 2.0 + 0.5j)
    assert abs(aug.trace_inv_d()) < 1e-12  # d/dz log det M = 0
    aug0 = transfer_derivative(pot, 2.0 + 0.5j, t=0.0)
    assert aug0.dA == aug0.dB == aug0.dC == aug0.dD == 0


def test_derivative_order_validation():
    pot = SampledPotential(h=0.1, cells=(1.0,))
    with pytest.raises(RangeError):
        transfer_derivative(pot, 1.0, order=3)


# ---------------------------------------------------------------------------
# blocked tree product vs a plain per-cell loop
# ---------------------------------------------------------------------------


def _sequential(pot, z, t, order):
    """Jet and tracked det of M(t, z) multiplying the same cells one at a time."""
    qs, ws = _prepared_cells(pot, 0.0, t, z)
    jet = np.zeros((order + 1, 2, 2, z.size), dtype=complex)
    jet[0, 0, 0] = jet[0, 1, 1] = 1.0
    det = np.ones(z.size, dtype=complex)
    for q, w in zip(qs, ws):
        cell = np.empty_like(jet)
        det = det * _cell_jets(q, float(w), z, z * z, order, cell)
        jet = np.array([
            sum(math.comb(j, i) * np.einsum("abz,bcz->acz", cell[i], jet[j - i])
                for i in range(j + 1))
            for j in range(order + 1)
        ])
    return jet, det


def _propagated(pot, z, t, order):
    if order == 0:
        m = transfer_batch(pot, z, t)
        return np.array([[[m.A, m.B], [m.C, m.D]]]), m.det_tracked
    state = transfer_derivative_batch(pot, z, t, order=order)
    return state.jet, state.det


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
    # 150 wide cells (T = 450, ~290 chunks) cancel so strongly that tree and
    # loop differ by up to 1.5e-11 of the largest entry; there the loop itself
    # is 1.3e-11 off the exact product of its cells and the tree 2.8e-12.
    return [0, 1, 2, 3, 7, 33] if kind == "chunked" else [0, 1, 2, 3, 7, 33, 150]


@given(
    seed=st.integers(0, 10_000),
    kind_n=st.sampled_from(sorted(_TREE_CASES)).flatmap(
        lambda kind: st.tuples(st.just(kind), st.sampled_from(_n_cells(kind)))),
    nz=st.sampled_from([1, 5, 64, 300]),
    order=st.sampled_from([0, 1, 2]),
)
@settings(max_examples=60, deadline=None)
def test_tree_matches_per_cell_loop(seed, kind_n, nz, order):
    kind, n = kind_n
    rng = np.random.default_rng(seed)
    h, amp = _TREE_CASES[kind]
    pot = SampledPotential(h=h, cells=tuple(rng.uniform(-amp, amp, max(n, 1))))
    t = pot.T if n else 0.0
    im_max = min(0.4, 40.0 / pot.T)  # stay inside the working range |Im z| t <= 50
    z = rng.uniform(-6.0, 6.0, nz) + 1j * rng.choice([0.0, im_max], nz) * rng.uniform(0, 1, nz)
    # a skew of 1e-11 per cell makes every cell's det factor count at 1e-12
    with corrupted_propagator(0.0 if kind == "chunked" else 1e-11):
        ref_jet, ref_det = _sequential(pot, z, t, order)
        jet, det = _propagated(pot, z, t, order)
    _assert_jets_close(jet, ref_jet)
    assert np.max(np.abs(det - ref_det)) < 1e-12


def test_tree_spans_several_blocks():
    rng = np.random.default_rng(11)
    n = _TREE_BUDGET + 905  # one full block of cells at nz = 1, then a partial one
    pot = SampledPotential(h=0.002, cells=tuple(rng.uniform(-1.0, 1.0, n)))
    z = np.array([1.3 + 0.2j])
    assert len(_prepared_cells(pot, 0.0, pot.T, z)[0]) > _TREE_BUDGET
    for order in (0, 1, 2):
        ref_jet, ref_det = _sequential(pot, z, pot.T, order)
        jet, det = _propagated(pot, z, pot.T, order)
        _assert_jets_close(jet, ref_jet)
        assert np.max(np.abs(det - ref_det)) < 1e-12


@pytest.mark.parametrize("nz", [300, _TREE_BUDGET + 1])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_scalar_z_matches_wide_batch(nz, order):
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


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoints_match_separate_calls():
    rng = np.random.default_rng(6)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-1.5, 1.5, 60)))
    zs = np.array([0.5, -2.0, 1.0 + 0.5j])
    t_list = [0.33, 1.0, 1.77, 2.9, 5.5]  # off-boundary cuts and beyond support
    chk = transfer_checkpoints(pot, zs, t_list)
    assert [b.t for b in chk] == sorted(t_list)
    for b in chk:
        ref = transfer_batch(pot, zs, t=b.t)
        for name in "ABCD":
            assert np.allclose(
                getattr(b, name), getattr(ref, name), rtol=1e-12, atol=1e-13
            )


def test_checkpoints_reject_negative_times():
    pot = SampledPotential(h=0.1, cells=(1.0,))
    with pytest.raises(RangeError):
        transfer_checkpoints(pot, 1.0, [-1.0, 0.5])


# ---------------------------------------------------------------------------
# Hermite-Biehler layer
# ---------------------------------------------------------------------------


def test_free_first_kind_function_and_theta():
    pot = SampledPotential(h=0.5, cells=(0.0,) * 8)
    for t in (0.5, 2.0):
        for z in (1.3, -0.4, 0.6 + 0.3j):
            m = transfer(pot, z, t=t)
            hb = hermite_biehler(m)
            assert abs(hb.E - np.exp(-1j * t * z)) < 1e-13
            assert abs(theta(m) - np.exp(2j * t * z)) < 1e-13


def test_det2i_identity():
    rng = np.random.default_rng(8)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-2, 2, 50)))
    for z in np.linspace(-10, 10, 9):
        m = transfer(pot, z)
        hb = hermite_biehler(m)
        assert abs(hb.det2i() - 2j * m.det) < 1e-13


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
    m = TransferMatrix(t=1.0, z=0.0, A=1.0, B=0.0, C=-1.0j, D=0.0)
    with pytest.raises(PoleProximityError):
        theta(m)


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
