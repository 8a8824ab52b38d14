import numpy as np
import pytest

from diracnlft import debranges
from diracnlft.debranges import estimate_w
from diracnlft.errors import RangeError, ValidationError
from diracnlft.experiments import (
    box_sample_points,
    limit_identities,
    run_convergence,
)
from diracnlft.nlft import nlft_forward
from diracnlft.potential import PotentialSpec, sample
from diracnlft.propagator import transfer

from oracles import box_sample_points_by_loop


# ---------------------------------------------------------------------------
# box sampling
# ---------------------------------------------------------------------------


def test_box_samples_are_deterministic():
    a = box_sample_points(1.0, 0.5, 16, seed=3)
    b = box_sample_points(1.0, 0.5, 16, seed=3)
    assert np.array_equal(a, b)
    c = box_sample_points(1.0, 0.5, 16, seed=4)
    assert not np.array_equal(a, c)


def test_box_samples_cover_the_box():
    pts = box_sample_points(2.0, 0.25, 32)
    assert pts.shape == (32,)
    assert np.all(np.abs(pts.real - 2.0) <= 0.25)
    assert np.all(pts.imag >= 0) and np.all(pts.imag <= 0.25)
    # every fourth sample probes the real segment itself
    assert np.all(pts.imag[::4] == 0.0)
    assert np.all(pts.imag[1::4] > 0.0)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 1000, 2**16])
@pytest.mark.parametrize("seed", [0, 1, 17, 123, 4096])
def test_box_samples_are_those_of_the_point_by_point_loop(n, seed):
    got = box_sample_points(0.7, 0.3, n, seed=seed)
    assert got.dtype == complex and got.shape == (n,)
    assert np.all(got == box_sample_points_by_loop(0.7, 0.3, n, seed=seed))


def test_box_samples_validation():
    for n in (0, 2**16 + 1, 10**12):  # the last would take 16 TB
        with pytest.raises(ValidationError):
            box_sample_points(0.0, 1.0, n)
    # a width <= 0 would put points below the real axis; NaN would give NaN points
    for half_width in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="half_width must be finite and > 0"):
            box_sample_points(0.0, half_width, 4)
    for s in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="s must be finite"):
            box_sample_points(s, 1.0, 4)


@pytest.mark.parametrize("n", [2.5, 16.0, np.float64(3.0), "16", None])
def test_box_samples_refuse_a_count_that_is_not_an_integer(n):
    with pytest.raises(ValidationError, match="box samples"):
        box_sample_points(0.0, 1.0, n)
    assert box_sample_points(0.0, 1.0, np.int64(16)).shape == (16,)


# ---------------------------------------------------------------------------
# convergence tables
# ---------------------------------------------------------------------------


def test_free_table_is_identically_zero(free_pot):
    tab = run_convergence(free_pot, [0.0, 1.5], [2.0, 4.0, 8.0], 2.0)
    assert tab.err.shape == (2, 3)
    assert np.all(tab.err == 0.0)  # r vanishes identically, at every horizon
    assert tab.r_ref_T == 8.0
    assert tab.failures == ()


def test_compact_support_horizons_agree_pointwise(bump_pot):
    # past the support r_T is literally the same function for every T
    grid = box_sample_points(0.5, 0.5, 12)
    r2 = nlft_forward(bump_pot, T=2.0, grid=grid).r
    r8 = nlft_forward(bump_pot, T=8.0, grid=grid).r
    assert np.max(np.abs(r2 - r8)) < 1e-12


def test_compact_support_table_shows_only_box_variation(bump_pot):
    # with all horizons past the support, e(s, T) is pure in-box variation
    # of r around its center value, which shrinks with the box
    tab = run_convergence(bump_pot, [0.5, 1.5], [2.0, 8.0, 20.0], 4.0,
                          box_samples=12)
    assert np.all(np.diff(tab.err, axis=1) < 0)
    # collapse the boxes: the variation goes with them
    tiny = run_convergence(bump_pot, [0.5], [2.0, 8.0], 1e-12, box_samples=8)
    assert np.all(tiny.err < 1e-12)


def test_failures_annotate_instead_of_aborting(bump_pot):
    # C = 100 drives box samples past the working range at T = 2; the cell
    # must go NaN with a recorded reason, not raise
    tab = run_convergence(bump_pot, [0.5], [2.0], 100.0, box_samples=8)
    assert np.isnan(tab.err[0, 0])
    assert len(tab.failures) == 1
    s, T, msg = tab.failures[0]
    assert (s, T) == (0.5, 2.0)
    assert "working range" in msg


def test_decaying_potential_converges():
    spec = PotentialSpec(family="powerlaw", params={"q": 0.5, "p": 0.75})
    pot = sample(spec, h=0.05, T=400.0)
    tab = run_convergence(pot, [-2.0, 0.7, 3.1], [50.0, 200.0, 400.0], 4.0)
    med = tab.median_err()
    assert med[0] > med[1] > med[2]


def test_table_to_dict_schema(free_pot):
    tab = run_convergence(free_pot, [0.0], [2.0, 4.0], 1.0, box_samples=4)
    doc = tab.to_dict()
    assert set(doc) == {"s", "T", "C", "err", "reference_T"}
    assert doc["s"] == [0.0] and doc["T"] == [2.0, 4.0]
    assert doc["reference_T"] == 4.0
    assert doc["err"] == [[0.0, 0.0]]


def test_convergence_validation(bump_pot):
    with pytest.raises(ValidationError):
        run_convergence(bump_pot, [], [2.0], 1.0)
    with pytest.raises(ValidationError):
        run_convergence(bump_pot, [0.0], [2.0], -1.0)
    with pytest.raises(RangeError):
        run_convergence(bump_pot, [0.0], [bump_pot.T + 10.0], 1.0)
    with pytest.raises(ValidationError, match="distinct"):  # one horizon written twice
        run_convergence(bump_pot, [0.0], [0.5, 0.5], 1.0)


# ---------------------------------------------------------------------------
# limit identities
# ---------------------------------------------------------------------------


def test_limits_free(free_pot):
    rep = limit_identities(free_pot, 0.8, (1.0, 3.0))
    assert rep.status == "ok"
    assert abs(rep.w_hat - 1.0) < 1e-12
    assert abs(rep.abs_a_pred - 1.0) < 1e-12
    # |b| prediction takes a square root at its zero: half the digits remain
    assert rep.abs_b_pred < 1e-7
    assert abs(rep.abs_a_obs - 1.0) < 1e-12
    assert rep.abs_b_obs < 1e-12


def test_limits_exact_past_compact_support(bump_pot):
    rep = limit_identities(bump_pot, 0.5, (40.0, 71.0))
    assert rep.status == "ok"
    assert rep.w_spread < 1e-12 and rep.w_tilde_spread < 1e-12
    assert abs(rep.abs_a_pred - rep.abs_a_obs) < 1e-9
    assert abs(rep.abs_b_pred - rep.abs_b_obs) < 1e-9
    # hyperbolic identity of the predictions themselves
    assert rep.abs_a_pred**2 - rep.abs_b_pred**2 == pytest.approx(1.0, abs=1e-12)
    # the density estimates underlie the observed moduli
    assert rep.abs_E_obs == pytest.approx(1.0 / np.sqrt(rep.w_hat), rel=1e-9)


def test_limit_identities_runs_one_sweep(bump_pot, monkeypatch):
    calls, propagate = [], debranges.transfer
    monkeypatch.setattr(debranges, "transfer",
                        lambda *a, **k: calls.append(a) or propagate(*a, **k))
    rep = limit_identities(bump_pot, 0.5, (40.0, 71.0))
    assert len(calls) == 1  # E, Etilde and the window end from one sweep
    monkeypatch.undo()
    assert (rep.w_hat, rep.w_spread) == estimate_w(bump_pot, 0.5, (40.0, 71.0), 8)
    ts = np.linspace(40.0, 71.0, 8)
    inv = [1.0 / abs(transfer(bump_pot, 0.5, t).Etilde) ** 2 for t in ts]
    assert rep.w_tilde_hat == pytest.approx(np.mean(inv), rel=1e-12)


def test_limits_inconclusive_inside_support(tall_bump_pot):
    rep = limit_identities(tall_bump_pot, 0.5, (0.1, 0.9))
    assert rep.status == "inconclusive"
    assert max(rep.w_spread, rep.w_tilde_spread) > 0.05
