import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracnlft.errors import RangeError, ValidationError
from diracnlft.potential import (
    PotentialSpec,
    SampledPotential,
    abs_integral,
    cell_cover,
    integral,
    l2_norm_sq,
    load_potential,
    potential_from_dict,
    potential_to_dict,
    restrict,
    sample,
    save_potential,
    sigma_intervals,
)

from oracles import cell_cover_by_hand, sigma_intervals_by_hand


# ---------------------------------------------------------------------------
# specs and sampling
# ---------------------------------------------------------------------------


def test_spec_families_and_validation():
    PotentialSpec(family="zero", params={})
    PotentialSpec(family="constant", params={"q": 0.5})
    PotentialSpec(family="box", params={"q": 1.0, "t0": 2.0})
    PotentialSpec(family="powerlaw", params={"q": 0.5, "p": 0.75})
    PotentialSpec(family="damped_cosine", params={"q": 1.0, "p": 0.6, "omega": 3.0})
    with pytest.raises(ValidationError):
        PotentialSpec(family="nosuch", params={})
    with pytest.raises(ValidationError):
        # decay exponent at or below 1/2 is outside the decaying class
        PotentialSpec(family="powerlaw", params={"q": 1.0, "p": 0.5})


def test_sampling_is_midpoint_rule():
    spec = PotentialSpec(family="powerlaw", params={"q": 0.5, "p": 0.75})
    pot = sample(spec, h=0.1, T=1.0)
    mids = (np.arange(10) + 0.5) * 0.1
    # midpoint values, not cell averages (those differ at ~1e-5 here)
    assert np.allclose(pot.cells, 0.5 * (1 + mids) ** -0.75, rtol=5e-15, atol=0)


def test_partial_final_cell_midpoint():
    spec = PotentialSpec(family="constant", params={"q": 1.0})
    pot = sample(spec, h=0.4, T=1.0)  # cells at [0,.4),[.4,.8),[.8,1.0)
    assert pot.n_cells == 3
    assert pot.T == 1.0
    assert np.isclose(pot.cell_widths().sum(), 1.0)


def test_horizon_validation():
    with pytest.raises(ValidationError):
        SampledPotential(h=0.1, cells=(1.0, 1.0), T=0.05)  # T <= (n-1) h
    with pytest.raises(ValidationError):
        SampledPotential(h=0.1, cells=(1.0, 1.0), T=0.30001)  # T > n h
    SampledPotential(h=0.1, cells=(1.0, 1.0), T=0.15)


def test_restrict_composes():
    rng = np.random.default_rng(0)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-1, 1, 40)))
    a = restrict(restrict(pot, 1.5), 0.7)
    b = restrict(pot, 0.7)
    assert a.cells == b.cells and a.T == b.T


# ---------------------------------------------------------------------------
# covers and exact cell arithmetic
# ---------------------------------------------------------------------------


def test_cover_widths_partition_interval():
    rng = np.random.default_rng(1)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-1, 1, 40)))
    qs, ws = cell_cover(pot, 0.32, 1.91)
    assert np.isclose(ws.sum(), 1.91 - 0.32, atol=1e-14)
    assert np.all(ws > 0)


def test_cover_pads_zero_beyond_support():
    pot = SampledPotential(h=0.5, cells=(1.0, 1.0))
    qs, ws = cell_cover(pot, 0.5, 3.0)
    assert qs[-1] == 0.0 and np.isclose(ws[-1], 2.0)


@given(
    t1=st.floats(0.0, 1.9),
    span=st.floats(0.01, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_cover_partition_property(t1, span):
    pot = SampledPotential(h=0.13, cells=tuple(np.sin(np.arange(16))))
    t2 = t1 + span
    qs, ws = cell_cover(pot, t1, t2)
    assert np.isclose(ws.sum(), span, atol=1e-12)


@st.composite
def _cover_case(draw):
    """A potential (short last cell allowed) and an interval hitting edge cases."""
    h = draw(st.sampled_from([0.01, 0.05, 0.13, 0.1, 1.0 / 3.0, 2.5]))
    n = draw(st.integers(1, 40))
    last = draw(st.sampled_from([1.0, 0.5, 1e-6, 0.999999999]))
    pot = SampledPotential(h=h, cells=tuple(np.round(np.sin(np.arange(n) * 1.7), 1)),
                           T=(n - 1 + last) * h)
    time = st.one_of(
        st.floats(0.0, 1.3 * pot.T),
        st.builds(lambda k, f: k * h * f, st.integers(0, n + 2),
                  st.sampled_from([1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 1e-8])),
        st.just(pot.T),
    )
    t1, t2 = sorted((draw(time), draw(time)))
    return pot, t1, t2


@given(case=_cover_case())
@settings(max_examples=300, deadline=None)
def test_cover_matches_per_cell_walk(case):
    pot, t1, t2 = case
    qs, ws = cell_cover(pot, t1, t2)
    ref_q, ref_w = cell_cover_by_hand(pot, t1, t2)
    assert np.array_equal(qs, ref_q) and np.array_equal(ws, ref_w)


def test_integrals_exact_cell_arithmetic():
    pot = SampledPotential(h=0.5, cells=(2.0, -1.0, 0.5))
    assert integral(pot) == pytest.approx(0.5 * (2 - 1 + 0.5), abs=1e-15)
    assert abs_integral(pot) == pytest.approx(0.5 * 3.5, abs=1e-15)
    assert l2_norm_sq(pot) == pytest.approx(0.5 * (4 + 1 + 0.25), abs=1e-15)
    # sub-interval cuts cells exactly
    assert integral(pot, 0.25, 0.75) == pytest.approx(0.25 * 2 - 0.25 * 1, abs=1e-15)


# ---------------------------------------------------------------------------
# sigma intervals
# ---------------------------------------------------------------------------


def test_sigma_intervals_spec_examples():
    pot = SampledPotential(h=1.0, cells=(1.0, 1.0, -0.01))
    out = sigma_intervals(pot, sigma=0.05, min_mass=0.5)
    assert len(out) == 1
    assert (out[0].t1, out[0].t2) == (0.0, 3.0)

    pot = SampledPotential(h=1.0, cells=(1.0, -1.0))
    out = sigma_intervals(pot, sigma=0.05, min_mass=0.5)
    assert [(iv.t1, iv.t2) for iv in out] == [(0.0, 1.0), (1.0, 2.0)]


@given(
    cells=st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=25),
    sigma=st.floats(0.0, 0.9),
)
@settings(max_examples=80, deadline=None)
def test_sigma_intervals_match_hand_oracle(cells, sigma):
    pot = SampledPotential(h=0.25, cells=tuple(cells))
    got = sigma_intervals(pot, sigma=sigma, min_mass=0.05)
    expect = sigma_intervals_by_hand(cells, 0.25, sigma, 0.05)
    assert len(got) == len(expect)
    for iv, (t1, t2, s_int, s_abs) in zip(got, expect):
        assert iv.t1 == pytest.approx(t1, abs=1e-12)
        assert iv.t2 == pytest.approx(t2, abs=1e-12)
        assert iv.mass == pytest.approx(s_abs, abs=1e-12)
        # defining inequality of the interval
        assert abs(integral(pot, iv.t1, iv.t2)) >= (1 - sigma) * iv.mass - 1e-12


def test_sigma_intervals_disjoint_ordered():
    rng = np.random.default_rng(5)
    pot = SampledPotential(h=0.1, cells=tuple(rng.uniform(-1, 1, 60)))
    out = sigma_intervals(pot, sigma=0.2, min_mass=0.05)
    for a, b in zip(out, out[1:]):
        assert a.t2 <= b.t1 + 1e-12


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-1, 1, 17)), T=0.83)
    path = tmp_path / "pot.json"
    save_potential(pot, path)
    back = load_potential(path)
    assert back.h == pot.h and back.T == pot.T and back.cells == pot.cells


def test_spec_form_json(tmp_path):
    doc = {"family": "constant", "params": {"q": 0.7}, "h": 0.1, "T": 1.0}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    pot = load_potential(path)
    assert pot.n_cells == 10
    assert np.allclose(pot.cells, 0.7)


def test_from_dict_rejects_garbage():
    with pytest.raises(ValidationError):
        potential_from_dict({"nonsense": 1})


def test_value_matches_cells():
    pot = SampledPotential(h=0.2, cells=(1.0, -2.0, 3.0))
    ts = np.array([0.1, 0.3, 0.5, 0.7])
    assert np.allclose(pot.value(ts), [1.0, -2.0, 3.0, 0.0])
