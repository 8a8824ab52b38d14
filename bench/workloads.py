"""Seeded workloads of the diracnlft benchmark: inputs, jobs and output checks.

Every workload is a deck of jobs built from a template of slots.  A slot
fixes the kind of job and a stratum of its size (cells, batch width, box
constant) and draws its base input: potential, box, horizon.  The pool holds
``REPLICAS`` variants of every slot, each perturbing the slot's potential by
up to ``PERTURB`` (relative).  ``--seed`` picks one variant per slot and the
order of the deck.  The slots fix what a deck costs, so run-to-run spread
measures the program and not the draw (the number of resonances in a box,
for one, would otherwise swing a deck by 10 %); the finite pool lets every
input carry a reference value committed in ``refs/<workload>.json``.

Draws are never filtered: an input on which the program fails stays in the
pool, and the failure is counted when a deck runs it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("spectrum", "resonance", "kernels")

#: Master seed of the input pool; changing it invalidates every reference.
POOL_SEED = 20261017
#: Seeded variants per slot, and the relative size of their perturbation.
REPLICAS = 8
PERTURB = 0.02

#: Reference comparison: |x - ref| <= RTOL * |ref| + ATOL.  Reordering the
#: cell products moves M(t, z) by ~2e-12 relative; derived summaries (sums
#: of log|a|, Newton-polished zeros, quadrature sums) stay well inside 1e-7.
RTOL = 1e-7
ATOL = 1e-12

#: Output invariants promised by the subcommands.
UNIMODULAR_TOL = 1e-10
RESIDUAL_TOL = 1e-9
PARSEVAL_TOL = 1e-2

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFS_DIR = os.path.join(BENCH_DIR, "refs")


def import_library():
    """Import diracnlft from the checkout's ``src``, never from site-packages."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "diracnlft", "__init__.py")):
        raise SystemExit(f"error: no diracnlft sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import diracnlft
    import diracnlft.cli  # noqa: F401  (jobs call diracnlft.cli.main)

    if not os.path.abspath(diracnlft.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: diracnlft was imported from {diracnlft.__file__}, not {src}")
    return diracnlft


class JobFailed(Exception):
    """The job raised or returned a non-zero exit code."""


class CheckFailed(Exception):
    """The job completed but its output broke an invariant or its reference."""


@dataclass
class Job:
    """One timed call into the library, plus the check of its output.

    ``execute`` is the timed part.  ``reduce`` runs right after it, untimed,
    and keeps only a small digest of an in-memory result.  ``check`` runs
    after the pass and returns the job's summary vector, which is compared
    with the committed reference.
    """

    key: str
    kind: str
    execute: object
    reduce: object
    check: object


# ---------------------------------------------------------------------------
# templates: (kind, stratum parameters) per slot
# ---------------------------------------------------------------------------


def _strata(kind, count, lo, hi, name, **fixed):
    """``count`` slots whose parameter ``name`` tiles [lo, hi] in equal strata."""
    width = (hi - lo) / count
    return [(kind, dict(fixed, **{name: (lo + k * width, lo + (k + 1) * width)}))
            for k in range(count)]


TEMPLATES = {
    # transform at three batch widths (cells tile 200-1000 in each), full-line
    # and sub-interval Parseval on sin^2 bumps, and an occasional verify.
    "spectrum": (
        _strata("transform", 36, 200, 1000, "cells", nz=256)
        + _strata("transform", 9, 200, 1000, "cells", nz=1024)
        + _strata("transform", 2, 200, 1000, "cells", nz=4096)
        + _strata("parseval", 26, 1.0, 3.0, "L")
        + _strata("parseval_sub", 21, 1.0, 3.0, "L")
        + [("verify", {})] * 6
    ),
    # zero search plus short tracking in Q(s, C/t), and NN/ND eigenvalue
    # tracks over the same span, on 30-60 rough cells with a zero tail.
    "resonance": (
        _strata("resonances", 28, 2.0, 6.0, "C")
        + _strata("eigenvalues", 36, 30, 61, "cells", level="NN")
        + _strata("eigenvalues", 36, 30, 61, "cells", level="ND")
    ),
    # order-2 kernel matrices off the real axis, checkpoint sweeps, and the
    # long-horizon convergence table through the CLI.
    "kernels": (
        _strata("kernel_probe", 35, 2.0, 6.0, "C", grid_n=16)
        + _strata("kernel_probe", 24, 2.0, 6.0, "C", grid_n=24)
        + _strata("estimate_w", 21, 250, 351, "cells")
        + _strata("converge", 20, 40.0, 100.0, "T")
    ),
}

#: Fixed-size job run once per set-up as the warm-up; never timed or checked.
WARMUP = {
    "spectrum": ("transform", {"cells": (400, 400), "nz": 256}),
    "resonance": ("eigenvalues", {"cells": (45, 45), "level": "NN"}),
    "kernels": ("kernel_probe", {"C": (4.0, 4.0), "grid_n": 16}),
}


def _uniform(rng, bounds):
    lo, hi = bounds
    return float(lo + (hi - lo) * rng.random())


def _count(rng, bounds):
    lo, hi = bounds
    return int(math.floor(_uniform(rng, (lo, hi)))) if hi > lo else int(lo)


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _jitter(var, size=None):
    return 1.0 + PERTURB * var.uniform(-1.0, 1.0, size)


def _rough(rng, var, n, amp, h, tail=0):
    cells = (rng.uniform(-amp, amp, n) * _jitter(var, n)).tolist() + [0.0] * tail
    return {"h": h, "cells": cells, "T": len(cells) * h}


def _sin2_bump(L, mass, h):
    n = max(1, round(L / h))
    mids = (np.arange(n) + 0.5) * h
    amp = math.sqrt(8.0 * mass / (3.0 * L))
    return {"h": h, "cells": (amp * np.sin(np.pi * mids / L) ** 2).tolist(), "T": n * h}


def _theta_real(pot, t, xs):
    """theta(t, x) = (A + iC)/(A - iC) on real x, by the exact cell product.

    The benchmark's own evaluation, so finding eigenvalue seeds does not
    depend on the library's propagation API.
    """
    h, cells = pot["h"], pot["cells"]
    z = np.asarray(xs, dtype=float)
    A = np.ones_like(z, dtype=complex)
    C = np.zeros_like(z, dtype=complex)
    pos = 0.0
    for j, q in enumerate(cells):
        w = min((j + 1) * h, t) - pos
        if w <= 0:
            break
        lam = np.sqrt(q * q - z * z + 0j)
        c = np.cosh(lam * w)
        small = np.abs(lam) < 1e-12
        s = np.where(small, w, np.sinh(lam * w) / np.where(small, 1.0, lam))
        A, C = (c + s * q) * A - s * z * C, s * z * A + (c - s * q) * C
        pos += w
    return (A + 1j * C) / (A - 1j * C)


def level_seeds(pot, t, kind):
    """Real points where theta(t, .) crosses the NN (+1) or ND (-1) level."""
    target = 1.0 if kind == "NN" else -1.0
    xs = np.concatenate([np.linspace(0.3, 4.0, 400), np.linspace(-4.0, -0.3, 400)])
    th = _theta_real(pot, t, xs)
    seeds = []
    for part in (slice(0, 400), slice(400, 800)):
        x, im, re = xs[part], th[part].imag, th[part].real
        for i in np.nonzero((im[:-1] * im[1:] < 0) & (re[:-1] * target > 0.5))[0]:
            w = im[i] / (im[i] - im[i + 1])
            seeds.append(float(x[i] + w * (x[i + 1] - x[i])))
    return seeds


# ---------------------------------------------------------------------------
# output readers
# ---------------------------------------------------------------------------


def _read_csv(path):
    """(meta dict, column names, rows as lists of strings) of a CLI CSV."""
    meta, header, rows = {}, None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition(": ")
                meta[key] = val
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return meta, header, rows


def _columns(path, names):
    _, header, rows = _read_csv(path)
    idx = [header.index(n) for n in names]
    data = np.array([[float(r[i]) for i in idx] for r in rows], dtype=float)
    return data.reshape(len(rows), len(names))


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _exit_ok(code):
    if code != 0:
        raise JobFailed(f"exit code {code}")


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# job kinds: each function writes the inputs of one job and returns it
# ---------------------------------------------------------------------------


def _cli_job(lib, key, kind, cfg_path, argv, check):
    def execute():
        with contextlib.redirect_stdout(io.StringIO()):
            return lib.cli.main(argv + ["--config", cfg_path])

    return Job(key, kind, execute, lambda code: code, check)


def _transform(lib, rng, var, p, key, stem):
    n = _count(rng, p["cells"])
    pot = _rough(rng, var, n, _uniform(rng, (0.3, 1.0)), 0.01)
    out = stem + ".csv"
    write_json(stem + ".pot.json", pot)
    write_json(stem + ".cfg.json", {
        "potential": stem + ".pot.json", "output": out,
        "grid": {"zmin": -10.0, "zmax": 10.0, "nz": p["nz"]},
    })

    def check(code):
        _exit_ok(code)
        d = _columns(out, ("re_a", "im_a", "re_b", "im_b", "re_r", "im_r", "log_abs_a"))
        _require(len(d) == p["nz"], f"{len(d)} rows, expected {p['nz']}")
        aa = d[:, 0] ** 2 + d[:, 1] ** 2
        bb = d[:, 2] ** 2 + d[:, 3] ** 2
        defect = float(np.max(np.abs(aa - bb - 1.0)))
        _require(defect <= UNIMODULAR_TOL, f"| |a|^2 - |b|^2 - 1 | = {defect:.3e}")
        k = len(d) // 3
        return [float(np.sum(d[:, 6])), float(np.sum(d[:, 4] ** 2 + d[:, 5] ** 2)),
                d[k, 0], d[k, 1], d[k, 2], d[k, 3]]

    return _cli_job(lib, key, "transform", stem + ".cfg.json", ["transform"], check)


def _parseval(lib, rng, var, p, key, stem):
    pot = _sin2_bump(_uniform(rng, p["L"]), _uniform(rng, (0.05, 2.0)) * _jitter(var), 0.02)
    out = stem + ".json"
    write_json(stem + ".pot.json", pot)
    write_json(stem + ".cfg.json", {
        "potential": stem + ".pot.json", "output": out, "format": "json",
        "tolerances": {"parseval": PARSEVAL_TOL},
    })

    def check(code):
        _exit_ok(code)
        doc = _read_json(out)
        _require(doc["rel_err"] <= PARSEVAL_TOL, f"rel_err {doc['rel_err']:.3e}")
        return [doc["lhs"], doc["rhs"], doc["refinement_levels"], doc["domain_half_width"]]

    return _cli_job(lib, key, "parseval", stem + ".cfg.json", ["parseval"], check)


def _parseval_sub(lib, rng, var, p, key, stem):
    # a sub-interval [t1, T] that keeps the middle third of the bump, so the
    # relative target stays well conditioned without rejecting any draw
    pot = _sin2_bump(_uniform(rng, p["L"]), _uniform(rng, (0.05, 2.0)) * _jitter(var), 0.02)
    n = len(pot["cells"])
    k1 = int(rng.integers(0, n // 3 + 1))
    k2 = int(rng.integers(n - n // 3, n + 1))
    path = stem + ".pot.json"
    write_json(path, pot)
    t1, T = k1 * pot["h"], k2 * pot["h"]

    def execute():
        return lib.parseval_check(lib.load_potential(path), T=T, t1=t1, tol=PARSEVAL_TOL)

    def reduce(rep):
        return rep.lhs, rep.rhs, rep.rel_err

    def check(digest):
        lhs, rhs, rel_err = digest
        _require(rel_err <= PARSEVAL_TOL, f"rel_err {rel_err:.3e}")
        return [lhs, rhs]

    return Job(key, "parseval_sub", execute, reduce, check)


def _verify(lib, rng, var, p, key, stem):
    out = stem + ".json"
    write_json(stem + ".cfg.json", {"seed": int(var.integers(0, 2**31)), "output": out})

    def check(code):
        _exit_ok(code)
        doc = _read_json(out)
        _require(doc["all_pass"] is True, "verify reported a failing check")
        parseval = [c["max_defect"] for c in doc["checks"] if c["name"] == "parseval"]
        return parseval

    return _cli_job(lib, key, "verify", stem + ".cfg.json", ["verify"], check)


def _resonance_pot(rng, var, cells):
    return _rough(rng, var, cells, 0.8, 0.05, tail=10)


def _resonances(lib, rng, var, p, key, stem):
    pot = _resonance_pot(rng, var, _count(rng, (30, 61)))
    t = _uniform(rng, (1.5, pot["T"] - 0.2))
    out = stem + ".csv"
    write_json(stem + ".pot.json", pot)
    write_json(stem + ".cfg.json", {
        "potential": stem + ".pot.json", "output": out, "t": t, "t1": t + 0.1,
        "dt": 0.02, "s": _uniform(rng, (-3.0, 3.0)), "C": _uniform(rng, p["C"]),
    })

    def check(code):
        _exit_ok(code)
        d = _columns(out, ("re_z", "im_z", "residual"))
        if len(d):
            _require(float(np.max(d[:, 2])) <= RESIDUAL_TOL,
                     f"residual {float(np.max(d[:, 2])):.3e}")
            _require(bool(np.all(d[:, 1] > 0.0)), "a zero with Im z <= 0")
        return [len(d), float(np.sum(d[:, 0])), float(np.sum(d[:, 1]))]

    return _cli_job(lib, key, "resonances", stem + ".cfg.json", ["resonances"], check)


def _eigenvalues(lib, rng, var, p, key, stem):
    pot = _resonance_pot(rng, var, _count(rng, p["cells"]))
    t = _uniform(rng, (1.5, pot["T"] - 0.2))
    seeds = level_seeds(pot, t, p["level"])
    # no crossing found leaves x0 off the level set; the job then fails
    x0 = seeds[int(rng.integers(0, len(seeds)))] if seeds else 1.0
    out = stem + ".csv"
    write_json(stem + ".pot.json", pot)
    write_json(stem + ".cfg.json", {
        "potential": stem + ".pot.json", "output": out, "kind": p["level"],
        "x0": x0, "t0": t, "t1": t + 0.1, "dt": 0.02, "pre_tol": 0.5,
    })

    def check(code):
        _exit_ok(code)
        meta, _, _ = _read_csv(out)
        _require(meta.get("monotone") == "True", f"monotone = {meta.get('monotone')}")
        d = _columns(out, ("x",))
        return [len(d), float(np.sum(d[:, 0])), float(d[-1, 0])]

    return _cli_job(lib, key, "eigenvalues", stem + ".cfg.json", ["eigenvalues"], check)


def _kernel_pot(rng, var, cells):
    return _rough(rng, var, cells, 0.8, 0.02)


def _kernel_probe(lib, rng, var, p, key, stem):
    pot = _kernel_pot(rng, var, _count(rng, (250, 351)))
    path = stem + ".pot.json"
    write_json(path, pot)
    s, C = _uniform(rng, (-3.0, 3.0)), _uniform(rng, p["C"])
    grid_n = p["grid_n"]

    def execute():
        P = lib.load_potential(path)
        return lib.kernel_probe(P, s, P.T, C, grid_n=grid_n)

    def reduce(probe):
        # the diagonal comes from the confluent (second-derivative) branch
        diag = np.diagonal(probe.K_values)
        return probe.gap, probe.w_hat, float(np.sum(diag.real)), float(np.sum(diag.imag))

    def check(digest):
        gap, w_hat, diag_re, diag_im = digest
        _require(all(math.isfinite(v) for v in digest), "non-finite kernel values")
        return [gap, w_hat, diag_re]

    return Job(key, "kernel_probe", execute, reduce, check)


def _estimate_w(lib, rng, var, p, key, stem):
    pot = _kernel_pot(rng, var, _count(rng, p["cells"]))
    path = stem + ".pot.json"
    write_json(path, pot)
    s = _uniform(rng, (-3.0, 3.0))
    T = pot["T"]

    def execute():
        return lib.estimate_w(lib.load_potential(path), s, (0.5 * T, T), 32)

    def check(digest):
        w_hat, spread = digest
        _require(math.isfinite(w_hat) and math.isfinite(spread), "non-finite estimate")
        return [w_hat, spread]

    return Job(key, "estimate_w", execute, lambda r: r, check)


def _converge(lib, rng, var, p, key, stem):
    h = 0.05
    n = round(_uniform(rng, p["T"]) / h)
    T = n * h
    q = _uniform(rng, (0.3, 0.8)) * _jitter(var)
    decay, omega = _uniform(rng, (0.6, 1.2)), _uniform(rng, (0.5, 2.0))
    mids = (np.arange(n) + 0.5) * h
    cells = q * (1.0 + mids) ** (-decay) * np.cos(omega * mids)
    out = stem + ".csv"
    write_json(stem + ".pot.json", {"h": h, "cells": cells.tolist(), "T": T})
    write_json(stem + ".cfg.json", {
        "potential": stem + ".pot.json", "output": out,
        "s_list": sorted(_uniform(rng, (-3.0, 3.0)) for _ in range(3)),
        "T_list": [T / 4.0, T / 2.0, T], "C": _uniform(rng, (2.0, 6.0)), "box_samples": 16,
    })

    def check(code):
        _exit_ok(code)
        d = _columns(out, ("err",))
        _require(len(d) == 9 and bool(np.all(np.isfinite(d))), "non-finite or missing e(s, T)")
        return [float(np.sum(d)), float(np.max(d))]

    return _cli_job(lib, key, "converge", stem + ".cfg.json", ["converge"], check)


BUILDERS = {
    "transform": _transform,
    "parseval": _parseval,
    "parseval_sub": _parseval_sub,
    "verify": _verify,
    "resonances": _resonances,
    "eigenvalues": _eigenvalues,
    "kernel_probe": _kernel_probe,
    "estimate_w": _estimate_w,
    "converge": _converge,
}


# ---------------------------------------------------------------------------
# decks
# ---------------------------------------------------------------------------


def _rngs(workload, slot, replica):
    """Generators of a slot's base draw and of one replica's perturbation."""
    wl = WORKLOADS.index(workload)
    return (np.random.default_rng([POOL_SEED, wl, slot]),
            np.random.default_rng([POOL_SEED, wl, slot, replica]))


def pool_job(lib, workload, slot, replica, workdir):
    """Build pool item (slot, replica) of a workload, writing its inputs."""
    kind, params = TEMPLATES[workload][slot]
    key = f"{slot}:{replica}"
    return BUILDERS[kind](lib, *_rngs(workload, slot, replica), params, key,
                          os.path.join(workdir, f"j{slot:03d}-{replica}"))


def deck_order(workload, seed):
    """(slot, replica) pairs of the deck for ``seed`` in run order, and the
    replica of the warm-up job."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    n = len(TEMPLATES[workload])
    replicas = rng.integers(0, REPLICAS, n)
    return [(int(s), int(replicas[s])) for s in rng.permutation(n)], int(rng.integers(0, REPLICAS))


def build_deck(lib, workload, seed, workdir):
    """Write every input of the deck to ``workdir``; return (jobs, warm-up job)."""
    os.makedirs(workdir, exist_ok=True)
    order, warm_rep = deck_order(workload, seed)
    jobs = [pool_job(lib, workload, slot, rep, workdir) for slot, rep in order]
    kind, params = WARMUP[workload]
    slot = len(TEMPLATES[workload])  # the warm-up draws as one slot past the deck
    warm = BUILDERS[kind](lib, *_rngs(workload, slot, warm_rep), params, "warmup",
                          os.path.join(workdir, "warmup"))
    return jobs, warm


def load_refs(workload):
    path = os.path.join(REFS_DIR, f"{workload}.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["items"]


def compare(summary, ref):
    """None when ``summary`` matches ``ref`` within RTOL/ATOL, else a message."""
    if len(summary) != len(ref):
        return f"{len(summary)} summary values, reference has {len(ref)}"
    for i, (x, r) in enumerate(zip(summary, ref)):
        if not abs(float(x) - float(r)) <= RTOL * abs(float(r)) + ATOL:
            return f"summary[{i}] = {float(x)!r}, reference {float(r)!r}"
    return None
