import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracnlft import resonance
from diracnlft.cli import main
from diracnlft.debranges import gamma_factor, kernel_probe, kernel_sinc
from diracnlft.errors import (
    BoundaryNearZeroError,
    DerivativeDegenerateError,
    OverflowRangeError,
    PreconditionError,
    ValidationError,
)
from diracnlft.experiments import run_convergence
from diracnlft.nlft import parseval_check
from diracnlft.potential import PotentialSpec, SampledPotential, sample
from diracnlft.propagator import theta, transfer
from diracnlft.resonance import (
    Box,
    ResonanceTrack,
    find_zeros,
    track_eigenvalue,
    track_resonance,
    track_rows,
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
    with pytest.raises(ValidationError):  # its contour, or a probe's grid_n^4 kernel
        Box(0.0, 1.0, grid_n=65)
    box = Box(1.0, 0.5)
    assert box.contains(1.2 + 0.3j)
    assert not box.contains(1.2 + 0.6j)
    assert not box.contains(1.6 + 0.1j)
    assert box.contains(1.55 + 0.1j, slack=0.1)
    assert Box.scaled(1.0, 2.0, 4.0, grid_n=8) == Box(1.0, 0.5, grid_n=8)


# every Q(s, C/t) site, at t = 0: a ValidationError, not a ZeroDivisionError
@pytest.mark.parametrize("call", [
    lambda pot: kernel_probe(pot, 0.5, 0.0, 4.0, w_hat=1.0),
    lambda pot: run_convergence(pot, [0.5], [0.0, 1.0], 4.0),
    "cli",
], ids=["kernel_probe", "run_convergence", "cli_resonances"])
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


# every "x > 0" guard: NaN is a ValidationError, not a NaN result or a later failure
@pytest.mark.parametrize("call", [
    lambda pot: kernel_sinc(math.nan, 0.0, 0.0),
    lambda pot: kernel_probe(pot, 0.5, 1.5, 4.0, w_hat=math.nan, grid_n=8),
    lambda pot: gamma_factor(math.nan),
    lambda pot: parseval_check(pot, tol=math.nan),
    lambda pot: run_convergence(pot, [0.5], [1.0, 2.0], math.nan),
    # the start's residual is 1.66; pre_tol = 1e-6 refuses it
    lambda pot: track_eigenvalue(pot, "NN", 0.77, 2.0, 3.0, dt=0.1, pre_tol=math.nan),
], ids=["kernel_sinc", "kernel_probe", "gamma_factor", "parseval_check", "run_convergence",
        "track_eigenvalue"])
def test_nan_is_refused_where_a_positive_number_is_needed(call, const_pot):
    with pytest.raises(ValidationError):
        call(const_pot)


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
    with pytest.raises(ValidationError):  # not transfer's unsorted-times RangeError
        find_zeros(free_pot, float("nan"), Box(0.0, 1.0))


def test_find_zeros_refuses_a_box_past_the_working_range(free_pot):
    # half_width * t just past 50: transfer's refusal, with transfer's message
    with pytest.raises(OverflowRangeError, match="working range 50"):
        find_zeros(free_pot, 1.0, Box(0.0, np.nextafter(50.0, np.inf)))


def test_zero_on_boundary_is_refused(const_pot):
    zeros = find_zeros(const_pot, 3.0, Box(0.0, 2.0))
    zstar = zeros[1][0]
    # right edge of this box runs straight through the zero
    with pytest.raises(BoundaryNearZeroError):
        find_zeros(const_pot, 3.0, Box(zstar.real - 0.5, 0.5))


def test_zeros_on_one_vertical_line_come_out_by_height(const_pot, monkeypatch):
    # real parts that differ by rounding noise only must not set the order
    def two_zeros(pot, t, rect, n0, depth, out):
        out.extend([(1e-16 + 2j, 1.0), (1e-12 + 1j, 1.0)])

    monkeypatch.setattr(resonance, "_collect_zeros", two_zeros)
    zeros = [z for z, _ in find_zeros(const_pot, 3.0, Box(0.0, 3.0))]
    assert [z.imag for z in zeros] == [1.0, 2.0]


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
    # more than 10**6 steps, or none that can be counted: these never ended
    for t1, dt in ((4.0, 1e-9), (4.0, 5e-324), (float("nan"), 0.01), (1e300, 0.01)):
        with pytest.raises(ValidationError, match="steps"):
            track_resonance(const_pot, CONST_ZERO, 3.0, t1, dt=dt)


def test_track_start_tolerance_is_fixed(const_pot):
    # a start within |theta| <= 1e-6 is polished back onto the zero; a rougher
    # one is not a starting point of the track
    with pytest.raises(PreconditionError, match="start tolerance 1e-06"):
        track_resonance(const_pot, CONST_ZERO + 1e-4 + 1e-4j, 3.0, 3.1, dt=0.01)
    track = track_resonance(const_pot, CONST_ZERO + 1e-8 + 1e-8j, 3.0, 3.1, dt=0.01)
    assert abs(track.zs[0] - CONST_ZERO) < 1e-9


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


# the first 38 cells of a rough benchmark potential: from t = 1.784 the corrector
# at t = 1.844 starts far from the zero, and its iterates wandered to
# |Im z| t = 100, where transfer refused them
_WANDER_CELLS = (
    0.3036306807082271, 0.4965843889085308, -0.11816102762850984, 0.5044224007733781,
    -0.33808655166878615, -0.6190603445837447, -0.7244456653266226, 0.13909863264586692,
    -0.7209606600553908, 0.12383865282677166, -0.6448376498803781, 0.4653182722709117,
    0.6746137325910927, -0.593392076134009, 0.029683456367131517, 0.6088012660642144,
    -0.2453920026221889, 0.4505441530346933, -0.6980438302113953, -0.40095740987528716,
    0.07276981037466684, 0.43117405971350525, -0.03787350139855073, 0.37688396846167516,
    -0.4130977863779891, 0.4107569346417302, 0.00010167478457524478, 0.26235742792517935,
    0.03870295475705162, -0.6564264399369009, 0.6371910831234019, -0.36727449119505734,
    0.23649666800788802, -0.043080902956771173, 0.3970299999718746, -0.5460938116324623,
    0.7767342284700878, 0.2545342456300895,
)


def test_a_corrector_past_the_working_range_ends_the_track(tmp_path, caplog):
    pot = SampledPotential(h=0.05, cells=_WANDER_CELLS)
    t = 1.7838553208423984
    box = Box.scaled(-1.0425030932742252, 2.8782620739348572, t)
    (z0, _), = find_zeros(pot, t, box)
    track = track_resonance(pot, z0, t, t + 0.1, 0.02)
    assert track.status == "newton_diverged" and len(track.samples) == 3
    # the CLI writes the partial track and names its ending on stderr only
    (tmp_path / "pot.json").write_text(json.dumps({"h": 0.05, "cells": list(_WANDER_CELLS)}))
    cfg = {"potential": str(tmp_path / "pot.json"), "t": t, "t1": t + 0.1, "dt": 0.02,
           "s": box.s, "C": 2.8782620739348572}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "resonance.csv"
    assert main(["resonances", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
    assert len([l for l in out.read_text().splitlines() if l[:1].isdigit()]) == 3
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "newton_diverged at t = 1.82385532084239" in caplog.text


def test_track_start_is_one_propagation(monkeypatch):
    # the pre_tol check reads Newton's first residual: one transfer at (z0, t0)
    pot = sample(PotentialSpec(family="constant", params={"q": 1.0}), h=0.05, T=4.0)
    z0 = find_zeros(pot, 3.9, Box(0.0, 2.0))[-1][0]
    calls, propagate = [], resonance.transfer
    monkeypatch.setattr(resonance, "transfer",
                        lambda p, z, t, **k: calls.append((z, t)) or propagate(p, z, t, **k))
    track_resonance(pot, z0, 3.9, 4.0, 0.05)
    assert calls.count((z0, 3.9)) == 1


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
    ts, xs = np.array(track.samples).T
    assert np.max(np.abs(xs - 2.0 * np.pi / ts)) < 1e-12
    assert abs(xs[-1] - 2.0 * np.pi / 3.0) < 1e-12


def test_free_nd_points_follow_exact_law(free_pot):
    # theta = -1 at x = pi (k + 1/2) / t; negative points move up toward 0
    x0 = -np.pi * 2.5 / 2.0
    track = track_eigenvalue(free_pot, "ND", x0, 2.0, 3.0, dt=0.05)
    assert track.monotone
    ts, xs = np.array(track.samples).T
    assert np.max(np.abs(xs + np.pi * 2.5 / ts)) < 1e-12


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
    # at t0 = 5e-324 theta = 1 holds at any x, and theta_z is 0: the predictor
    # divided by it (ZeroDivisionError) before
    with pytest.raises(DerivativeDegenerateError):
        track_eigenvalue(const_pot, "NN", np.pi, 5e-324, 0.1, dt=0.05)


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


def _labels(ts, zs):
    return [row[-1] for row in track_rows(_synthetic_track(ts, zs))]


def test_classify_pure_vertical():
    ts = np.linspace(0.0, 1.0, 11)
    assert _labels(ts, 1.0 + 1j * (1.0 - 0.3 * ts)) == ["V"] * 11


def test_classify_pure_horizontal():
    ts = np.linspace(0.0, 1.0, 11)
    assert _labels(ts, ts + 0.5j) == ["H"] * 11


def test_classify_stationary_dwell_counts_as_vertical():
    ts = np.linspace(0.0, 1.0, 11)
    assert _labels(ts, np.full(11, 2.0 + 0.8j)) == ["V"] * 11


def test_classify_mixed_track_splits():
    ts = np.linspace(0.0, 2.0, 21)
    zs = np.where(ts <= 1.0, 1.0 + 1j * (1.0 - 0.5 * ts), 0.5 * (1.0 - ts) + 0.5j)
    zs = zs + 0j
    zs[ts > 1.0] = 1.0 + 0.5j - 0.5 * (ts[ts > 1.0] - 1.0)
    labels = _labels(ts, zs)
    # a vertical stretch, then a horizontal one, with at most the hysteresis
    # band ("") between them
    assert labels[:10] == ["V"] * 10 and labels[-10:] == ["H"] * 10
    assert "".join(labels) == "V" * labels.count("V") + "H" * labels.count("H")


def test_classify_validation():
    # a track too short for central differences gets no labels, not an error
    assert _labels([0.0, 1.0], [1j, 1j]) == ["", ""]
