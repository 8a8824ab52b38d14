"""Per-layer tracing for the diracnlft benchmark.

The tracer wraps the public functions listed in ``TRACED`` from the outside:
every module-level binding in ``diracnlft.*`` that is the same function
object is replaced, so calls across modules (``resonance`` calling
``transfer_derivative``, ``cli`` calling ``transfer_batch``) are caught too.
Private helpers are not wrapped; their time is the self time of the public
function that calls them.  The library itself is not changed.

A span is ``[name, start, end, parent, job, points, cellz, count]``; spans
live in memory and are written out when the run ends.  Work counts are
taken inside a ``trace.count`` child span, so their cost is not charged to
any library function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import math
import os
import statistics
import sys
import time

import numpy as np

from workloads import level_seeds, write_json

#: Public functions traced, per layer (module of ``diracnlft``).
TRACED = {
    "potential": ("cell_cover", "load_potential"),
    "propagator": ("transfer", "transfer_batch", "transfer_derivative",
                   "transfer_derivative_batch", "transfer_checkpoints"),
    "riccati": ("riccati_evolve_moebius", "riccati_evolve_rk"),
    "nlft": ("nlft_forward", "interval_scattering_grid", "parseval_check"),
    "resonance": ("find_zeros", "track_resonance", "track_eigenvalue"),
    "debranges": ("kernel_probe", "estimate_w", "hb_sine_fit", "hb_exp_fit"),
    "experiments": ("run_convergence",),
    "cli": ("main",),
    "reporting": ("write_csv", "write_json"),
}

#: Entry points that propagate a batch of frequencies over [t1, t2].
GRID_FNS = ("propagator.transfer", "propagator.transfer_batch",
            "propagator.transfer_derivative", "propagator.transfer_derivative_batch",
            "propagator.transfer_checkpoints", "nlft.nlft_forward",
            "nlft.interval_scattering_grid")
TRACKS = ("resonance.track_resonance", "resonance.track_eigenvalue")
WRITERS = ("reporting.write_csv", "reporting.write_json")
OVERHEAD = "trace.count"
JOB = "bench.job"

NAME, START, END, PARENT, JOBID, POINTS, CELLZ, COUNT = range(8)


def coalesced_cells(pot, t1, t2):
    """Cells in the cover of [t1, t2] after merging equal neighbours.

    The count ``cell_cover(coalesce=True)`` returns, including the zero cell
    that pads a horizon past the support; computed here so it does not
    depend on how the library chunks or stores its cells.
    """
    if not t2 > t1:
        return 0
    h, n = pot.h, len(pot.cells)
    j1 = min(n, int(math.floor(t1 / h + 1e-9)))
    j2 = min(n, int(math.ceil(min(t2, pot.T) / h - 1e-9)))
    vals = np.asarray(pot.cells[j1:j2], dtype=float)
    if t2 > pot.T * (1.0 + 1e-9):
        vals = np.append(vals, 0.0)
    return 1 + int(np.count_nonzero(vals[1:] != vals[:-1])) if len(vals) else 0


def _extent(name, a):
    """(potential, number of frequencies, t1, t2) of a grid entry point call."""
    pot = a["pot"]
    z = a["grid"] if "grid" in a else a["z"]
    if name == "propagator.transfer_checkpoints":
        t1, t2 = 0.0, max((float(t) for t in a["t_list"]), default=0.0)
    elif name == "nlft.interval_scattering_grid":
        t1, t2 = float(a["t1"]), min(float(a["t2"]), pot.T)
    elif name == "nlft.nlft_forward":
        t1, t2 = 0.0, min(pot.T if a.get("T") is None else float(a["T"]), pot.T)
    else:
        t1, t2 = 0.0, pot.T if a.get("t") is None else float(a["t"])
    return pot, int(np.size(z)), t1, t2


class Tracer:
    """Span recorder that wraps the traced functions while installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.absent = []
        self.count_errors = 0
        self.bases = {}
        self._restore = []

    # -- installation --------------------------------------------------------

    def install(self):
        wrappers = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"diracnlft.{layer}")
            for fn_name in names:
                fn = getattr(module, fn_name, None)
                if not callable(fn):
                    self.absent.append(f"{layer}.{fn_name}")
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fn_name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "diracnlft" and not mod_name.startswith("diracnlft."):
                continue
            for attr, val in list(vars(module).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((module, attr, val))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, val in reversed(self._restore):
            setattr(module, attr, val)
        self._restore.clear()

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
               self.job, 0, 0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self.stack.pop()

    def _count(self, fn, *args):
        rec = self._open(OVERHEAD)
        try:
            fn(*args)
        except Exception:  # a counter must never break the traced call
            self.count_errors += 1
        self._close(rec)

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)

        def pre(rec, args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            pot, points, t1, t2 = _extent(name, bound.arguments)
            rec[POINTS] = points
            rec[CELLZ] = points * coalesced_cells(pot, t1, t2)

        def post(rec, args, result):
            if name in WRITERS:
                rec[COUNT] = os.path.getsize(args[0])
            elif name in TRACKS:
                rec[COUNT] = len(result.samples)
            else:  # find_zeros
                rec[COUNT] = len(result)

        has_pre = name in GRID_FNS
        has_post = name in WRITERS or name in TRACKS or name == "resonance.find_zeros"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                if has_pre:
                    self._count(pre, rec, args, kwargs)
                result = fn(*args, **kwargs)
                if has_post:
                    self._count(post, rec, args, result)
                return result
            finally:
                self._close(rec)

        return wrapper

    # -- aggregation ---------------------------------------------------------

    def self_times(self):
        """Self time of every span: duration minus its children's durations."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        spans = self.spans
        self_t = self.self_times()
        n = len(spans)
        in_track = [False] * n
        in_zeros = [False] * n
        in_parseval = [False] * n
        in_grid = [False] * n
        for i, rec in enumerate(spans):
            p = rec[PARENT]
            if p >= 0:
                pname = spans[p][NAME]
                in_track[i] = in_track[p] or pname in TRACKS
                in_zeros[i] = in_zeros[p] or pname == "resonance.find_zeros"
                in_parseval[i] = in_parseval[p] or pname == "nlft.parseval_check"
                in_grid[i] = in_grid[p] or pname in GRID_FNS
        names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
        calls = dict.fromkeys(names, 0)
        self_s = dict.fromkeys(names, 0.0)
        points = dict.fromkeys(GRID_FNS, 0)
        cellz = dict.fromkeys(GRID_FNS, 0)
        counts = dict.fromkeys(names, 0)
        newton = parseval_points = zero_points = 0
        for i, rec in enumerate(spans):
            name = rec[NAME]
            if name not in calls:
                continue
            calls[name] += 1
            self_s[name] += self_t[i]
            counts[name] += rec[COUNT]
            if name in GRID_FNS:
                points[name] += rec[POINTS]
                cellz[name] += rec[CELLZ]
                if not in_grid[i]:
                    parseval_points += rec[POINTS] if in_parseval[i] else 0
                    zero_points += rec[POINTS] if in_zeros[i] else 0
            if name == "propagator.transfer_derivative" and in_track[i]:
                newton += 1
        out = {}
        for name in names:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for name in GRID_FNS:
            out[f"{name}.points"] = (points[name], "count")
            out[f"{name}.cellz"] = (cellz[name], "count")
        out["nlft.parseval_check.points"] = (parseval_points, "count")
        for name in WRITERS:
            out[f"{name}.bytes"] = (counts[name], "bytes")
        samples = sum(counts[name] for name in TRACKS)
        zeros = counts["resonance.find_zeros"]
        out["resonance.newton_per_sample"] = (newton / samples if samples else 0.0, "calls/sample")
        out["resonance.find_zeros.points_per_zero"] = (
            zero_points / zeros if zeros else 0.0, "points/zero")
        self.bases = {"track_samples": samples, "newton_calls_in_tracks": newton,
                      "zeros_found": zeros, "points_in_find_zeros": zero_points}
        return out


# ---------------------------------------------------------------------------
# layer sweep: one small call to every traced function
# ---------------------------------------------------------------------------


def _fn(path):
    layer, name = path.rsplit(".", 1)
    return getattr(importlib.import_module(f"diracnlft.{layer}"), name)


def sweep(tracer, lib, workdir):
    """Call every traced function once on a small input, as job ``sweep``.

    Makes every per-layer metric a measurement on every workload, whichever
    layers its deck reaches.  Returns the names of calls that raised (the
    inputs are chosen so that none should).
    """
    rng = np.random.default_rng(0)
    rough_d = {"h": 0.05, "cells": rng.uniform(-0.8, 0.8, 40).tolist() + [0.0] * 10, "T": 2.5}
    mids = (np.arange(50) + 0.5) * 0.02
    bump_d = {"h": 0.02, "cells": (0.8 * np.sin(np.pi * mids) ** 2).tolist(), "T": 1.0}
    path = {name: os.path.join(workdir, f"sweep.{name}") for name in
            ("rough.json", "bump.json", "cfg.json", "out.json", "out.csv")}
    write_json(path["rough.json"], rough_d)
    write_json(path["bump.json"], bump_d)
    write_json(path["cfg.json"], {"potential": path["bump.json"], "format": "json",
                                  "output": path["out.json"]})
    rough = lib.SampledPotential(h=0.05, cells=tuple(rough_d["cells"]))
    flat = lib.SampledPotential(h=0.01, cells=(1.0,) * 400)
    bump = lib.SampledPotential(h=0.02, cells=tuple(bump_d["cells"]))
    T, z, zs = rough.T, 0.5 + 0.1j, np.linspace(-2.0, 2.0, 4) + 0.1j
    xs = np.linspace(-4.0, 4.0, 16)
    raised = []

    def traced(name, *args, **kwargs):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return tracer.call(JOB, _fn(name), *args, **kwargs)
        except Exception as exc:
            raised.append(f"{name}: {type(exc).__name__}")
            return None

    tracer.job = "sweep"
    traced("potential.load_potential", path["rough.json"])
    traced("potential.cell_cover", rough, 0.0, T, coalesce=True)
    traced("propagator.transfer", rough, z)
    traced("propagator.transfer_batch", rough, zs)
    traced("propagator.transfer_derivative", rough, z, order=1)
    traced("propagator.transfer_derivative_batch", rough, zs, order=2)
    traced("propagator.transfer_checkpoints", rough, zs, [T / 2, T])
    traced("riccati.riccati_evolve_moebius", rough, z, T)
    traced("riccati.riccati_evolve_rk", rough, z, T, dt_max=1e-2)
    traced("nlft.nlft_forward", rough, grid=xs)
    traced("nlft.interval_scattering_grid", rough, T / 4, T, xs)
    traced("nlft.parseval_check", bump, tol=1e-2)
    zeros = traced("resonance.find_zeros", flat, 2.0, lib.Box(s=1.0, half_width=1.0))
    if zeros:
        traced("resonance.track_resonance", flat, zeros[0][0], 2.0, 2.04, 0.02)
    x0 = level_seeds(rough_d, 2.0, "NN")[0]
    traced("resonance.track_eigenvalue", rough, "NN", x0, 2.0, 2.04, 0.02, pre_tol=0.5)
    traced("debranges.kernel_probe", rough, 0.0, T, 3.0, grid_n=8)
    traced("debranges.estimate_w", rough, 0.0, (T / 2, T), 8)
    # rough has a theta-zero near 0.934 + 0.706i at t = T: inside Q(0.9, 2/T)
    traced("debranges.hb_sine_fit", rough, 0.9, T, 2.0, grid_n=8)
    traced("debranges.hb_exp_fit", rough, 0.0, T, 1.0, grid_n=8)
    traced("experiments.run_convergence", rough, [0.0], [T / 2, T], 2.0, box_samples=4)
    traced("cli.main", ["parseval", "--config", path["cfg.json"]])
    traced("reporting.write_csv", path["out.csv"], ("x",), [(1.0,)])
    traced("reporting.write_json", path["out.json"], {"x": 1.0})
    tracer.job = None
    return raised


# ---------------------------------------------------------------------------
# layer probes: cost per cell x frequency of single propagation calls
# ---------------------------------------------------------------------------

#: name -> (entry point, cells, frequencies, complex z, derivative order, calls per sample)
PROBES = {
    "propagator.probe.ns_per_cellz.real.nz1": ("transfer_batch", 2000, 1, False, 0, 1),
    "propagator.probe.ns_per_cellz.real.nz16": ("transfer_batch", 2000, 16, False, 0, 1),
    "propagator.probe.ns_per_cellz.real.nz320": ("transfer_batch", 1000, 320, False, 0, 1),
    "propagator.probe.ns_per_cellz.real.nz4096": ("transfer_batch", 200, 4096, False, 0, 1),
    "propagator.probe.ns_per_cellz.cplx.nz1.order1": ("transfer_derivative", 50, 1, True, 1, 10),
    "propagator.probe.ns_per_cellz.cplx.nz320": ("transfer_batch", 1000, 320, True, 0, 1),
    "propagator.probe.ns_per_cellz.cplx.nz256.order2":
        ("transfer_derivative_batch", 300, 256, True, 2, 1),
}
PROBE_SAMPLES = 5


def _median_time(fn, reps):
    samples = []
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples)


def probes(lib):
    """Untraced per-cell costs; returns ({name: (value, unit)}, absent names)."""
    out, absent = {}, []
    rng = np.random.default_rng(1)
    for name, (entry, cells, nz, cplx, order, reps) in PROBES.items():
        fn = getattr(importlib.import_module("diracnlft.propagator"), entry, None)
        if fn is None:
            out[name] = (0.0, "ns/cellz")
            absent.append(name)
            continue
        pot = lib.SampledPotential(h=0.01, cells=tuple(rng.uniform(-1.0, 1.0, cells)))
        re = np.linspace(-10.0, 10.0, nz) if nz > 1 else np.array([0.7])
        z = re + 1j * np.linspace(0.05, 1.0, nz) if cplx else re + 0j
        kw = {"order": order} if order else {}
        arg = complex(z[0]) if entry == "transfer_derivative" else z
        sec = _median_time(lambda: fn(pot, arg, **kw), reps)
        out[name] = (sec * 1e9 / (coalesced_cells(pot, 0.0, pot.T) * nz), "ns/cellz")
    cover = getattr(importlib.import_module("diracnlft.potential"), "cell_cover", None)
    name = "potential.probe.ns_per_cell.cell_cover"
    if cover is None:
        out[name] = (0.0, "ns/cell")
        absent.append(name)
    else:
        pot = lib.SampledPotential(h=0.01, cells=tuple(rng.uniform(-1.0, 1.0, 20000)))
        sec = _median_time(lambda: cover(pot, 0.0, pot.T, coalesce=True), 1)
        out[name] = (sec * 1e9 / 20000, "ns/cell")
    return out, absent
