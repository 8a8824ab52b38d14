import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracnlft import resonance
from diracnlft.cli import main
from diracnlft.debranges import hb_exp_fit, hb_sine_fit, kernel_probe
from diracnlft.errors import (
    BoundaryNearZeroError,
    DerivativeDegenerateError,
    PreconditionError,
    ValidationError,
)
from diracnlft.experiments import run_convergence
from diracnlft.potential import PotentialSpec, SampledPotential, sample
from diracnlft.propagator import theta, transfer
from diracnlft.resonance import (
    Box,
    MotionSegment,
    ResonanceTrack,
    classify_track,
    find_zeros,
    track_eigenvalue,
    track_resonance,
)

from oracles import dense_box_ring, fd1, oracle_winding

# the symmetric zero pair of theta for q = 1 on [0, 8] at t = 3, polished to
# machine precision by find_zeros itself on first freeze
CONST_ZERO = 1.347701939268 + 0.084182501847j
# the (frozen) zero of the tall bump (q = 0.8 on [0, 1]) for every t >= 1
TALL_ZERO = 2.4517263992197713 + 0.8301314959136796j


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------


def test_box_validation_and_membership():
    with pytest.raises(ValidationError):
        Box(0.0, 0.0)
    with pytest.raises(ValidationError):
        Box(0.0, 1.0, grid_n=4)
    box = Box(1.0, 0.5)
    assert box.contains(1.2 + 0.3j)
    assert not box.contains(1.2 + 0.6j)
    assert not box.contains(1.6 + 0.1j)
    assert box.contains(1.55 + 0.1j, slack=0.1)
    assert Box.scaled(1.0, 2.0, 4.0, grid_n=8) == Box(1.0, 0.5, grid_n=8)


# every Q(s, C/t) site, at t = 0: a ValidationError, not a ZeroDivisionError
@pytest.mark.parametrize("call", [
    lambda pot: kernel_probe(pot, 0.5, 0.0, 4.0, w_hat=1.0),
    lambda pot: hb_sine_fit(pot, 0.5, 0.0, 4.0),
    lambda pot: hb_exp_fit(pot, 0.5, 0.0, 4.0),
    lambda pot: run_convergence(pot, [0.5], [0.0, 1.0], 4.0),
    "cli",
], ids=["kernel_probe", "hb_sine_fit", "hb_exp_fit", "run_convergence",
        "cli_resonances"])
def test_zero_time_box_is_a_validation_error(call, free_pot, tmp_path, capsys):
    if call == "cli":
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"potential": {"family": "zero", "params": {}},
                                   "h": 0.05, "T": 2.0, "t": 0, "C": 6}))
        assert main(["resonances", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        return
    with pytest.raises(ValidationError):
        call(free_pot)


def test_box_tensor_grid():
    box = Box(0.0, 1.0, grid_n=8)
    full = box.tensor_grid()
    assert full.shape == (64,)
    assert np.min(full.imag) == -1.0 and np.max(full.imag) == 1.0
    assert np.max(np.abs(full.real)) == 1.0


@given(n=st.integers(8, 40), half_width=st.floats(1e-3, 10.0), s=st.floats(-10.0, 10.0))
@example(n=8, half_width=0.5, s=0.0)
@settings(max_examples=80, deadline=None)
def test_full_tensor_grid_is_conjugate_symmetric(n, half_width, s):
    box = Box(s, half_width, grid_n=n)
    full = box.tensor_grid().reshape(n, n)
    np.testing.assert_array_equal(full[::-1], np.conj(full))  # row i mirrors row n-1-i
    # symmetrizing moved the rows of the plain linspace by a rounding at most
    im = np.linspace(-half_width, half_width, n)
    assert np.all(np.abs(full[:, 0].imag - im) <= 2 * np.spacing(half_width))
    # the real row: within rounding of the plain linspace, exactly mirrored at s = 0
    re = np.linspace(s - half_width, s + half_width, n)
    assert np.all(np.abs(full[0].real - re) <= 2 * np.spacing(abs(s) + half_width))
    if s == 0.0:
        np.testing.assert_array_equal(full[0].real, -full[0].real[::-1])


# ---------------------------------------------------------------------------
# zero finding
# ---------------------------------------------------------------------------


def test_find_zeros_constant_potential(const_pot):
    zeros = find_zeros(const_pot, 3.0, Box(0.0, 2.0))
    assert len(zeros) == 2
    (zm, tzm), (zp, tzp) = zeros
    assert abs(zp - CONST_ZERO) < 1e-9
    assert abs(zm - (-np.conj(zp))) < 1e-12  # mirror pair of a real potential
    # residual contract: |theta| at the returned zero
    assert abs(theta(transfer(const_pot, zp, 3.0))) < 1e-9
    # returned derivative is the true local derivative
    fd = fd1(lambda u: theta(transfer(const_pot, u, 3.0)), zp)
    assert abs(tzp - fd) < 1e-6 * abs(tzp)


@pytest.fixture
def rough_pot():
    return SampledPotential(h=0.05, cells=tuple(np.random.default_rng(0).uniform(-1.5, 1.5, 40)))


# (potential, t, box, does the outer contour need midpoints, least quadrisection depth)
@pytest.mark.parametrize("pot_name, t, box, refined, depth", [
    ("const_pot", 3.0, Box(0.0, 2.0), True, 3),
    ("tall_bump_pot", 1.0, Box(TALL_ZERO.real, 1.0), False, 0),
    ("tall_bump_pot", 1.0, Box(TALL_ZERO.real, 3.0), True, 0),
    ("rough_pot", 2.0, Box(0.0, 3.0), False, 2),
], ids=["constant", "tall_bump", "tall_bump_refined_contour", "rough_two_levels"])
def test_zero_count_matches_dense_winding_oracle(pot_name, t, box, refined, depth, request,
                                                 monkeypatch):
    pot = request.getfixturevalue(pot_name)
    contours, depths = [], []  # per contour: its transfer batches; quadrisection depths
    winding, collect, batch = resonance._winding, resonance._collect_zeros, resonance.transfer

    def counted_winding(*args):
        contours.append(0)
        return winding(*args)

    def counted_collect(pot, t, rect, n0, level, out):
        depths.append(level)
        return collect(pot, t, rect, n0, level, out)

    def counted_transfer(pot, z, *args, **kw):
        if np.ndim(z) == 1:  # a contour's batch; Newton passes scalars
            contours[-1] += 1
        return batch(pot, z, *args, **kw)

    monkeypatch.setattr(resonance, "_winding", counted_winding)
    monkeypatch.setattr(resonance, "_collect_zeros", counted_collect)
    monkeypatch.setattr(resonance, "transfer", counted_transfer)
    zeros = find_zeros(pot, t, box)
    assert (contours[0] > 1) == refined and max(depths) >= depth
    # the oracle: a fixed dense ring of the same box, no adaptivity
    ring = dense_box_ring(*box.rect, 800)
    assert round(oracle_winding(theta(batch(pot, ring, t)))) == len(zeros)


def test_free_potential_has_no_zeros(free_pot):
    assert find_zeros(free_pot, 2.0, Box(0.0, 3.0)) == []


def test_find_zeros_validation(free_pot):
    with pytest.raises(ValidationError):
        find_zeros(free_pot, 0.0, Box(0.0, 1.0))


def test_zero_on_boundary_is_refused(const_pot):
    zeros = find_zeros(const_pot, 3.0, Box(0.0, 2.0))
    zstar = zeros[1][0]
    # right edge of this box runs straight through the zero
    with pytest.raises(BoundaryNearZeroError):
        find_zeros(const_pot, 3.0, Box(zstar.real - 0.5, 0.5))


def test_exact_zero_on_the_contour_is_refused(const_pot, monkeypatch):
    # an exact 0 among the contour values is a zero on the contour; the phase
    # steps divide by it, so it must be refused before any division warns
    exact = resonance.theta

    def theta_with_an_exact_zero(m):
        vals = exact(m)
        vals[len(vals) // 3] = 0.0
        return vals

    monkeypatch.setattr(resonance, "theta", theta_with_an_exact_zero)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BoundaryNearZeroError, match="exactly 0"):
            find_zeros(const_pot, 3.0, Box(0.0, 2.0))


def test_oversized_box_beyond_resolving_power(tall_bump_pot):
    # far above the support at late times theta is uniformly below the zero
    # tolerance and theta_z underflows its floor; the finder must refuse
    # loudly instead of fabricating zeros
    with pytest.raises(DerivativeDegenerateError):
        find_zeros(tall_bump_pot, 5.0, Box(0.0, 4.0))


def test_zeros_freeze_once_potential_ends(tall_bump_pot):
    box = Box(TALL_ZERO.real, 1.0)
    z1 = find_zeros(tall_bump_pot, 1.0, box)
    z2 = find_zeros(tall_bump_pot, 2.0, box)
    z3 = find_zeros(tall_bump_pot, 3.0, box)
    assert len(z1) == len(z2) == len(z3) == 1
    assert abs(z1[0][0] - TALL_ZERO) < 1e-10
    assert abs(z2[0][0] - z1[0][0]) < 1e-10
    assert abs(z3[0][0] - z1[0][0]) < 1e-10


# ---------------------------------------------------------------------------
# resonance tracking
# ---------------------------------------------------------------------------


def test_track_resonance_constant_potential(const_pot):
    track = track_resonance(const_pot, CONST_ZERO, 3.0, 5.0, dt=0.01)
    assert track.status == "completed"
    assert len(track.samples) == 201
    assert max(track.residuals) < 1e-9
    assert np.all(np.diff(track.times) > 0)
    assert np.all(track.zs.imag > 0)


def test_track_velocity_law(const_pot):
    # central-difference velocity along the track vs -f / theta_z
    track = track_resonance(const_pot, CONST_ZERO, 3.0, 3.05, dt=1e-3)
    zs, ts, tzs = track.zs, track.times, track.theta_zs
    fd_vel = (zs[2:] - zs[:-2]) / (ts[2:] - ts[:-2])
    law = -1.0 / tzs[1:-1]  # f = 1 everywhere here
    rel = np.max(np.abs(fd_vel - law) / np.abs(law))
    assert rel < 1e-4


def test_track_requires_a_zero(const_pot):
    with pytest.raises(PreconditionError):
        track_resonance(const_pot, 1.0 + 0.5j, 3.0, 4.0, dt=0.01)
    with pytest.raises(ValidationError):
        track_resonance(const_pot, CONST_ZERO, 3.0, 2.0, dt=0.01)
    with pytest.raises(ValidationError):
        track_resonance(const_pot, CONST_ZERO, 3.0, 4.0, dt=0.0)


def test_track_accepts_loose_seed_with_pre_tol(const_pot):
    rough = CONST_ZERO + 1e-4 + 1e-4j
    with pytest.raises(PreconditionError):
        track_resonance(const_pot, rough, 3.0, 3.1, dt=0.01, pre_tol=1e-8)
    track = track_resonance(const_pot, rough, 3.0, 3.1, dt=0.01, pre_tol=1e-2)
    assert abs(track.zs[0] - CONST_ZERO) < 1e-9  # polished back onto the zero


def test_track_is_stationary_past_support(tall_bump_pot):
    track = track_resonance(tall_bump_pot, TALL_ZERO, 1.5, 2.5, dt=0.05)
    assert track.status == "completed"
    assert np.max(np.abs(track.zs - track.zs[0])) < 1e-10


def test_track_crosses_the_support_end():
    # each step averages f over [t, t + dt]; past pot.T that stretch lies
    # beyond the support, where f = 0 and the zero stands still
    pot = sample(PotentialSpec(family="constant", params={"q": 1.0}), h=0.05, T=4.0)
    z0 = find_zeros(pot, 3.9, Box(0.0, 2.0))[-1][0]  # sorted by real part
    track = track_resonance(pot, z0, 3.9, 4.2, 0.05)
    assert track.status == "completed" and len(track.samples) == 7
    after = track.zs[track.times >= pot.T - 1e-9]
    assert len(after) == 5 and np.max(np.abs(after - after[0])) <= 1e-12


# the resonance start is not polished to 1e-13, so its first Newton step
# trips the floor; the free NN start is exact, so the first march step does
@pytest.mark.parametrize("pot_name, follow, n_samples", [
    ("const_pot", lambda pot: track_resonance(pot, CONST_ZERO, 3.0, 3.1, dt=0.01), 0),
    ("free_pot", lambda pot: track_eigenvalue(pot, "NN", np.pi, 2.0, 3.0, dt=0.05), 1),
], ids=["resonance", "eigenvalue"])
def test_degenerate_theta_z_carries_the_partial_track(pot_name, follow, n_samples,
                                                       request, monkeypatch):
    monkeypatch.setattr(resonance, "THETA_Z_FLOOR_SCALE", 1e6)
    with pytest.raises(DerivativeDegenerateError) as info:
        follow(request.getfixturevalue(pot_name))
    track = info.value.track
    assert track.status == "derivative_degenerate"
    assert len(track.samples) == len(track.residuals) == n_samples


# ---------------------------------------------------------------------------
# eigenvalue tracking
# ---------------------------------------------------------------------------


def test_free_nn_points_follow_exact_law(free_pot):
    # theta = e^{2itx} = 1 at x = pi k / t; the k = 2 point moves as pi*2/t
    track = track_eigenvalue(free_pot, "NN", np.pi, 2.0, 3.0, dt=0.05)
    assert track.status == "completed"
    assert track.monotone
    xs, ts = track.xs, track.times
    assert np.max(np.abs(xs - 2.0 * np.pi / ts)) < 1e-12
    assert abs(xs[-1] - 2.0 * np.pi / 3.0) < 1e-12


def test_free_nd_points_follow_exact_law(free_pot):
    # theta = -1 at x = pi (k + 1/2) / t; negative points move up toward 0
    x0 = -np.pi * 2.5 / 2.0
    track = track_eigenvalue(free_pot, "ND", x0, 2.0, 3.0, dt=0.05)
    assert track.monotone
    assert np.max(np.abs(track.xs + np.pi * 2.5 / track.times)) < 1e-12


def test_eigenvalue_monotone_for_constant_potential(const_pot):
    # seed: theta(2, x) = 1 near x ~ pi k / 2 for weak coupling; scan for it
    t0 = 2.0
    xs = np.linspace(2.5, 3.5, 400)
    th = np.array([theta(transfer(const_pot, x, t0)) for x in xs])
    sign_flips = np.nonzero((np.imag(th[:-1]) * np.imag(th[1:]) < 0)
                            & (np.real(th[:-1]) > 0))[0]
    assert sign_flips.size > 0
    x_seed = float(xs[sign_flips[0]])
    track = track_eigenvalue(const_pot, "NN", x_seed, t0, 2.5, dt=0.02, pre_tol=0.5)
    assert track.status == "completed"
    assert track.monotone  # positive points strictly decrease
    assert max(track.residuals) < 1e-9


def test_eigenvalue_validation(const_pot):
    with pytest.raises(ValidationError):
        track_eigenvalue(const_pot, "XX", 1.0, 2.0, 3.0, dt=0.1)
    with pytest.raises(PreconditionError):
        track_eigenvalue(const_pot, "NN", 0.77, 2.0, 3.0, dt=0.1, pre_tol=1e-10)


# ---------------------------------------------------------------------------
# motion classification
# ---------------------------------------------------------------------------


def _synthetic_track(ts, zs):
    return ResonanceTrack(
        samples=tuple((float(t), complex(z), 1.0 + 0.0j) for t, z in zip(ts, zs)),
        residuals=tuple(0.0 for _ in ts),
        status="completed",
        dt=float(ts[1] - ts[0]),
    )


def test_classify_pure_vertical():
    ts = np.linspace(0.0, 1.0, 11)
    track = _synthetic_track(ts, 1.0 + 1j * (1.0 - 0.3 * ts))
    segs = classify_track(track)
    assert len(segs) == 1
    assert segs[0].label == "V"
    assert segs[0].t1 == 0.0 and segs[0].t2 == 1.0
    assert abs(segs[0].mean_direction + 1j) < 1e-12  # moving straight down


def test_classify_pure_horizontal():
    ts = np.linspace(0.0, 1.0, 11)
    track = _synthetic_track(ts, ts + 0.5j)
    segs = classify_track(track)
    assert len(segs) == 1
    assert segs[0].label == "H"
    assert abs(segs[0].mean_direction - 1.0) < 1e-12


def test_classify_stationary_dwell_counts_as_vertical():
    ts = np.linspace(0.0, 1.0, 11)
    track = _synthetic_track(ts, np.full(11, 2.0 + 0.8j))
    segs = classify_track(track)
    assert len(segs) == 1
    assert segs[0].label == "V"
    assert segs[0].mean_direction == 1j


def test_classify_mixed_track_splits():
    ts = np.linspace(0.0, 2.0, 21)
    zs = np.where(ts <= 1.0, 1.0 + 1j * (1.0 - 0.5 * ts), 0.5 * (1.0 - ts) + 0.5j)
    zs = zs + 0j
    zs[ts > 1.0] = 1.0 + 0.5j - 0.5 * (ts[ts > 1.0] - 1.0)
    track = _synthetic_track(ts, zs)
    segs = classify_track(track)
    labels = [s.label for s in segs]
    assert "V" in labels and "H" in labels
    # segments tile without overlap, in time order
    for a, b in zip(segs, segs[1:]):
        assert a.t2 <= b.t1


def test_classify_validation(const_pot):
    with pytest.raises(PreconditionError):
        classify_track(_synthetic_track([0.0, 1.0], [1j, 1j]))
