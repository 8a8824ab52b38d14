import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracnlft.errors import RangeError, ValidationError
from diracnlft.debranges import estimate_w
from diracnlft.experiments import run_convergence
from diracnlft.nlft import interval_scattering_grid, parseval_check
from diracnlft.potential import (
    PotentialSpec,
    SampledPotential,
    cell_cover,
    clip_to_support,
    integral,
    l2_norm_sq,
    load_potential,
    potential_from_dict,
    potential_to_dict,
    restrict,
    sample,
    save_potential,
)
from diracnlft.riccati import riccati_evolve_moebius, riccati_evolve_rk

from oracles import cell_cover_by_hand


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
        # explicit cells are a SampledPotential (plain-cells JSON), not a family
        potential_from_dict({"family": "custom_samples", "samples": [0.1, 0.2],
                             "h": 0.1, "T": 0.2})
    with pytest.raises(ValidationError):
        # decay exponent at or below 1/2 is outside the decaying class
        PotentialSpec(family="powerlaw", params={"q": 1.0, "p": 0.5})


@pytest.mark.parametrize("family, params, typo", [
    ("box", {"q": 0.4, "t_0": 1.5}, "t_0"),
    ("damped_cosine", {"q": 1.0, "p": 0.6, "omgea": 3.0}, "omgea"),
    ("zero", {"q": 1.0, "t0": 2.0}, "'q', 't0'"),
], ids=["box_t_0", "damped_cosine_omgea", "zero_any"])
def test_spec_refuses_params_its_family_does_not_read(family, params, typo):
    # these built the family defaults (t0 = 1, omega = 1) without a word
    with pytest.raises(ValidationError, match=typo):
        PotentialSpec(family=family, params=params)


def test_sampling_is_midpoint_rule():
    spec = PotentialSpec(family="powerlaw", params={"q": 0.5, "p": 0.75})
    pot = sample(spec, h=0.1, T=1.0)
    mids = (np.arange(10) + 0.5) * 0.1
    # midpoint values, not cell averages (those differ at ~1e-5 here)
    assert np.allclose(pot.cells, 0.5 * (1 + mids) ** -0.75, rtol=5e-15, atol=0)


def test_partial_final_cell_midpoint():
    spec = PotentialSpec(family="constant", params={"q": 1.0})
    pot = sample(spec, h=0.4, T=1.0)  # cells at [0,.4),[.4,.8),[.8,1.0)
    assert len(pot.cells) == 3
    assert pot.T == 1.0
    assert np.isclose(cell_cover(pot, 0.0, pot.T)[1].sum(), 1.0)


@pytest.mark.parametrize("h,T", [(0.1, float("inf")), (float("inf"), float("inf")),
                                 (0.1, float("nan")), (float("nan"), 1.0)])
def test_sample_refuses_non_finite_width_or_horizon(h, T):
    with pytest.raises(ValidationError):
        sample(PotentialSpec(family="constant", params={"q": 1.0}), h=h, T=T)


def test_sample_refuses_more_than_a_million_cells():
    # T / h = 1e10 allocated its cell grid (80 GB) before; 1e308 overflowed
    spec = PotentialSpec(family="constant", params={"q": 1.0})
    for h, T in ((1e-10, 1.0), (0.5, 1e308)):
        with pytest.raises(ValidationError, match="T / h"):
            sample(spec, h=h, T=T)
    assert len(sample(spec, h=1e-6, T=1.0).cells) == 10**6


@pytest.mark.parametrize("kwargs", [
    {"h": 0.1, "cells": ("x", 1.0)},
    {"h": 0.1, "cells": (10**400,)},
    {"h": 10**400, "cells": (1.0,)},
    {"h": 0.1, "cells": (1.0,), "T": "x"},
    {"h": 0.1, "cells": (1.0,), "T": 10**400},
], ids=["cell_word", "cell_huge_int", "h_huge_int", "T_word", "T_huge_int"])
def test_unconvertible_values_are_a_validation_error(kwargs):
    # a potential file with such a value ended in a ValueError or OverflowError
    # traceback before
    with pytest.raises(ValidationError):
        SampledPotential(**kwargs)


def test_spec_refuses_a_param_past_the_float_range():
    with pytest.raises(ValidationError, match="finite real"):  # an OverflowError before
        PotentialSpec(family="constant", params={"q": 10**400})


def test_horizon_validation():
    with pytest.raises(ValidationError):
        SampledPotential(h=0.1, cells=(1.0, 1.0), T=0.05)  # T <= (n-1) h
    with pytest.raises(ValidationError):
        SampledPotential(h=0.1, cells=(1.0, 1.0), T=0.30001)  # T > n h
    SampledPotential(h=0.1, cells=(1.0, 1.0), T=0.15)
    # n h overflows to inf, and lo < T <= n h let T == inf through
    for T in (None, math.inf):
        with pytest.raises(ValidationError, match="not finite"):
            SampledPotential(h=1e308, cells=(1.0, 2.0), T=T)
    assert SampledPotential(h=1e308, cells=(1.0,)).T == 1e308


def test_restrict_composes():
    rng = np.random.default_rng(0)
    pot = SampledPotential(h=0.05, cells=tuple(rng.uniform(-1, 1, 40)))
    a = restrict(restrict(pot, 1.5), 0.7)
    b = restrict(pot, 0.7)
    assert a.cells == b.cells and a.T == b.T


def test_clip_to_support():
    pot = SampledPotential(h=0.1, cells=(1.0, 1.0, 1.0))
    assert clip_to_support(pot, 0.2) == 0.2
    assert clip_to_support(pot, pot.T * (1 + 1e-10)) == pot.T
    with pytest.raises(RangeError, match=f"T={pot.T}"):
        clip_to_support(pot, pot.T * (1 + 1e-8))


# every site that needs a horizon within the support refuses one past it the same way
@pytest.mark.parametrize("call", [
    lambda pot, t: restrict(pot, t),
    lambda pot, t: interval_scattering_grid(pot, 0.0, t, [0.5]),
    lambda pot, t: parseval_check(pot, T=t),
    lambda pot, t: riccati_evolve_moebius(pot, 0.5, t),
    lambda pot, t: riccati_evolve_rk(pot, 0.5, t),
    lambda pot, t: estimate_w(pot, 0.5, (0.1, t), 8),
    lambda pot, t: run_convergence(pot, [0.5], [t], 4.0),
], ids=["restrict", "interval_scattering_grid", "parseval_check", "riccati_evolve_moebius",
        "riccati_evolve_rk", "estimate_w", "run_convergence"])
def test_horizon_past_the_support_is_a_range_error(call):
    pot = SampledPotential(h=0.1, cells=(0.5,) * 10)
    call(pot, pot.T * (1 + 1e-10))  # within the boundary slack
    with pytest.raises(RangeError, match=f"exceeds the horizon T={pot.T}"):
        call(pot, pot.T * (1 + 1e-6))


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
    rate = draw(st.sampled_from([1.7, 0.05]))  # 0.05: runs of equal neighbours
    cells = np.round(np.sin(np.arange(n) * rate), 1)
    cells[n - draw(st.integers(0, 3)):] = 0.0  # a trailing zero run, at times
    pot = SampledPotential(h=h, cells=tuple(cells), T=(n - 1 + last) * h)
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


@given(case=_cover_case())
@settings(max_examples=300, deadline=None)
# t1 a hair before a cell edge: the cover is a sliver of the next cell, -0.4
@example(case=(SampledPotential(h=0.1, cells=(1.0, -0.4, -0.4, 2.0)), 0.0999999999999,
               0.100000001))
def test_coalesced_cover_is_the_walk_merged_by_runs(case):
    # each run of equal cells is one piece, its width the run's end less its start
    pot, t1, t2 = case
    qs, ws = cell_cover(pot, t1, t2, coalesce=True)
    ref_q, ref_w = cell_cover_by_hand(pot, t1, t2, coalesce=True)
    assert np.array_equal(qs, ref_q) and np.array_equal(ws, ref_w)


def test_cover_arrays_are_read_only_and_no_part_of_the_value():
    one, twin = (SampledPotential(h=0.25, cells=(0.0, 1.1, 1.1, -0.4), T=0.9) for _ in range(2))
    for a in one._cover:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0
    object.__setattr__(twin, "_cover", None)  # arrays differ, the value does not
    assert one == twin and hash(one) == hash(twin) and repr(one) == repr(twin)
    assert "_cover" not in repr(one)
    assert potential_to_dict(one) == {"h": 0.25, "cells": [0.0, 1.1, 1.1, -0.4], "T": 0.9}
    shorter = dataclasses.replace(one, T=0.8)
    fresh = SampledPotential(h=0.25, cells=(0.0, 1.1, 1.1, -0.4), T=0.8)
    assert shorter._cover is not one._cover
    for got, ref in zip(shorter._cover, fresh._cover, strict=True):
        np.testing.assert_array_equal(got, ref)
    assert shorter._cover[1][-1] == 0.8
    SampledPotential(h=1e308, cells=(1.0, 2.0), T=1.5e308)  # ends near the float range


@pytest.mark.parametrize("call", [
    lambda pot: cell_cover(pot, math.nan, 0.3),
    lambda pot: l2_norm_sq(pot, math.nan),
    lambda pot: integral(pot, 0.0, math.nan),
], ids=["cell_cover", "l2_norm_sq", "integral"])
def test_nan_interval_bounds_are_a_range_error(call):
    # the covers of these held cells (or none), and the sums read 0.05 and 0.0
    with pytest.raises(RangeError, match="bad interval"):
        call(SampledPotential(h=0.1, cells=(0.5,) * 10))


def test_integrals_exact_cell_arithmetic():
    pot = SampledPotential(h=0.5, cells=(2.0, -1.0, 0.5))
    assert integral(pot) == pytest.approx(0.5 * (2 - 1 + 0.5), abs=1e-15)
    qs, ws = cell_cover(pot, 0.0, pot.T)  # the integral of |f|
    assert np.dot(np.abs(qs), ws) == pytest.approx(0.5 * 3.5, abs=1e-15)
    assert l2_norm_sq(pot) == pytest.approx(0.5 * (4 + 1 + 0.25), abs=1e-15)
    # sub-interval cuts cells exactly
    assert integral(pot, 0.25, 0.75) == pytest.approx(0.25 * 2 - 0.25 * 1, abs=1e-15)


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
    assert len(pot.cells) == 10
    assert np.allclose(pot.cells, 0.7)


def test_from_dict_rejects_garbage():
    with pytest.raises(ValidationError):
        potential_from_dict({"nonsense": 1})


@pytest.mark.parametrize("doc,key", [
    ({"family": "constant", "parms": {"q": 0.5}, "h": 0.5, "T": 1.0}, "parms"),
    ({"family": "constant", "params": {}, "samples": [0.1], "h": 0.5, "T": 1.0}, "samples"),
    ({"h": 0.5, "cells": [1.0, 2.0], "T": 1.0, "params": {}}, "params"),
], ids=["parms_typo", "retired_samples", "family_key_on_cells"])
def test_from_dict_names_unknown_keys(doc, key):
    # a misspelt or retired key must not fall back to the family defaults
    with pytest.raises(ValidationError, match=key):
        potential_from_dict(doc)
