"""Command-line driver: every module behind reproducible subcommands.

Config-first: a JSON config carries the potential, grids, and tolerances;
flags override individual fields.  All output files embed the tool version
and a sha256 of the effective config, and identical configs produce
byte-identical files (no timestamps anywhere).

Exit codes: 0 success, 1 usage/config error, 2 numerical non-convergence,
3 invariant violation.  ``NLFT_LOG={error,warn,info,debug}`` tunes logging.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import os
import sys

import numpy as np

from .debranges import estimate_w, hb_fit, kernel_probe
from .errors import (
    DiracNLFTError,
    InvariantViolation,
    NumericalError,
    PreconditionError,
    UsageError,
)
from .experiments import run_convergence
from .nlft import nlft_forward, parseval_check
from .potential import (
    PotentialSpec, SampledPotential, clip_to_support, load_potential, potential_from_dict,
    sample,
)
from .propagator import corrupted_propagator, hermite_biehler, symmetric_grid, theta, transfer
from .reporting import config_hash, write_csv, write_json
from .resonance import Box, find_zeros, track_eigenvalue, track_resonance, track_rows
from .riccati import riccati_evolve_moebius, riccati_evolve_rk

log = logging.getLogger("diracnlft.cli")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class _Parser(argparse.ArgumentParser):
    """argparse usage failures become UsageError (exit 1, not argparse's 2)."""

    def error(self, message):
        raise UsageError(message)


def _setup_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("NLFT_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _reading(what: str, path):
    """An unreadable or malformed JSON file becomes a UsageError."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON in {path}: {exc.msg} (line {exc.lineno} column {exc.colno})"
        ) from exc


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        with _reading("config", args.config), open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise UsageError("config root must be a JSON object")
    for key, val in vars(args).items():  # the common flags, less --config
        if key not in ("command", "config") and val is not None:
            cfg["output" if key == "out" else key] = val
    cfg.setdefault("format", "csv")
    cfg.setdefault("seed", 0)
    if cfg["format"] not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {cfg['format']!r}")
    tols = _require(cfg, "tolerances", _object, {})
    for name in tols:
        if name not in ("unimodular", "parseval"):
            raise UsageError(f"unknown tolerance {name!r}: expected unimodular or parseval")
        if not (_require(tols, name) > 0):
            raise UsageError(f"tolerance {name!r} must be > 0, got {tols[name]}")
    return cfg


def _require(cfg: dict, key: str, kind=float, default=None):
    """``kind(cfg[key])``, or ``kind(default)`` when the key is absent; a
    missing key without a default, or a value that ``kind`` refuses, is a
    UsageError."""
    if key not in cfg and default is None:
        raise UsageError(f"config key {key!r} is required for this command")
    try:
        return kind(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config key {key!r}: {exc}") from exc


def _numbers(val) -> list:
    if not isinstance(val, list) or not all(type(v) in (int, float) for v in val):
        raise ValueError(f"expected a JSON list of numbers, got {val!r}")
    return val


def _integer(val) -> int:
    # a JSON integer, or a float with an integral value; bool is not a number here
    if not (type(val) is int or type(val) is float and val.is_integer()):
        raise ValueError(f"expected a JSON integer, got {val!r}")
    return int(val)


def _object(val) -> dict:
    if not isinstance(val, dict):
        raise ValueError(f"expected a JSON object, got {val!r}")
    return val


def _build_potential(cfg: dict):
    if "potential" not in cfg:
        raise UsageError("config must supply 'potential' (spec object or file path)")
    pspec = cfg["potential"]
    if isinstance(pspec, str):
        with _reading("potential", pspec):
            pot = load_potential(pspec)
        if "T" in cfg:
            clip_to_support(pot, _require(cfg, "T"), "T")
        return pot
    if not isinstance(pspec, dict):
        raise UsageError("'potential' must be an object or a file path")
    if set(pspec) - {"family", "params"}:
        raise UsageError(f"inline potential takes 'family' and 'params' only, got {sorted(pspec)}")
    return potential_from_dict({**pspec, "h": _require(cfg, "h"), "T": _require(cfg, "T")})


def _real_grid(cfg: dict) -> np.ndarray:
    grid = _require(cfg, "grid", _object, {})
    zmin = _require(cfg, "zmin", float, _require(grid, "zmin", float, -10.0))
    zmax = _require(cfg, "zmax", float, _require(grid, "zmax", float, 10.0))
    nz = _require(cfg, "nz", _integer, _require(grid, "nz", _integer, 201))
    if nz < 2:
        raise UsageError(f"nz must be >= 2, got {nz}")
    if not (zmax > zmin):
        raise UsageError(f"need zmax > zmin, got [{zmin}, {zmax}]")
    return symmetric_grid(zmax, nz) if zmin == -zmax else np.linspace(zmin, zmax, nz)


def _meta(cfg: dict) -> dict:
    hashed = {k: v for k, v in cfg.items() if k != "output"}
    return {"config_sha256": config_hash(hashed), "seed": cfg.get("seed", 0)}


def _write(cfg: dict, stem: str, cols, rows, meta=None, fields=None, body=None) -> str:
    """Write a subcommand's output to ``cfg["output"]`` (default
    ``stem.<format>``) and return the path.

    CSV gets ``cols`` and ``rows`` under a ``meta`` header (default: the
    config meta).  JSON gets ``body`` if given, else ``fields`` plus one
    object per row under ``"rows"``; a key of ``fields`` is left out of the
    JSON meta, since the body carries it.
    """
    meta = _meta(cfg) if meta is None else meta
    path = _require(cfg, "output", str, f"{stem}.{cfg['format']}")
    if cfg["format"] == "csv":
        write_csv(path, cols, rows, meta)
    else:
        fields = fields or {}
        if body is None:
            body = {**fields, "rows": [dict(zip(cols, r)) for r in rows]}
        write_json(path, body, {k: v for k, v in meta.items() if k not in fields})
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_transform(cfg: dict) -> int:
    pot = _build_potential(cfg)
    T = _require(cfg, "T", float, pot.T)
    grid = _real_grid(cfg)
    sd = nlft_forward(pot, T=T, grid=grid)
    defects = sd.real_axis_defects()
    det_defect = float(np.max(sd.det_drift))
    print(f"max | |a|^2 - |b|^2 - 1 | = {defects['unimodular']:.6e}")
    print(f"max | det M - 1 |        = {det_defect:.6e}")
    tol = _require(_require(cfg, "tolerances", _object, {}), "unimodular", float, 1e-8)
    if defects["unimodular"] > tol:
        raise InvariantViolation(
            f"unimodularity defect {defects['unimodular']:.3e} exceeds {tol}"
        )
    rows = [
        (T, z.real, z.imag, a.real, a.imag, b.real, b.imag, r.real, r.imag, la)
        for z, a, b, r, la in zip(sd.grid, sd.a, sd.b, sd.r, sd.log_abs_a)
    ]
    cols = ("T", "re_z", "im_z", "re_a", "im_a", "re_b", "im_b", "re_r", "im_r", "log_abs_a")
    path = _write(cfg, "scattering", cols, rows, fields={"T": T})
    log.info("wrote %d scattering rows to %s", len(rows), path)
    return 0


def _verify_suite(cfg: dict) -> list:
    seed = _require(cfg, "seed", _integer, 0)
    rng = np.random.default_rng(seed)
    checks = []
    real_grid = symmetric_grid(10.0, 33)
    cplx = rng.uniform(-8, 8, 8) + 1j * rng.uniform(0.05, 1.0, 8)
    det_max = det2i_max = uni_max = 0.0
    for _ in range(6):
        n = int(rng.integers(40, 120))
        pot = SampledPotential(h=0.02, cells=tuple(rng.uniform(-1.5, 1.5, n)))
        zs = np.concatenate([real_grid.astype(complex), cplx])
        B = transfer(pot, zs, pot.T)
        det_max = max(det_max, float(np.max(B.det_drift)))
        hb = hermite_biehler(B)
        det2i_max = max(det2i_max, float(np.max(np.abs(hb.det2i() - 2j * B.det))))
        sd = nlft_forward(pot, grid=real_grid)
        uni_max = max(uni_max, sd.real_axis_defects()["unimodular"])
    checks.append(("determinant_tracked", det_max, 1e-10))
    checks.append(("hb_determinant_identity", det2i_max, 1e-10))
    checks.append(("unimodularity", uni_max, 1e-10))

    ric_max = 0.0
    for _ in range(4):
        n = int(rng.integers(30, 80))
        pot = SampledPotential(h=0.02, cells=tuple(rng.uniform(-1.0, 1.0, n)))
        z = complex(rng.uniform(-3, 3), rng.uniform(0.0, 1.0))
        tm = riccati_evolve_moebius(pot, z, pot.T)
        tr = riccati_evolve_rk(pot, z, pot.T, dt_max=1e-3)
        ric_max = max(ric_max, abs(tm - tr))
    checks.append(("riccati_cross_check", ric_max, 1e-6))

    bump = sample(PotentialSpec(family="box", params={"q": 0.4, "t0": 1.5}), h=0.02, T=1.5)
    rep = parseval_check(bump, tol=1e-2)
    checks.append(("parseval", rep.rel_err, 1e-2))
    return checks


def cmd_verify(cfg: dict) -> int:
    corrupt = os.environ.get("NLFT_TEST_CORRUPT_PROPAGATOR")
    if corrupt:
        log.warning("corruption hook active: eps=%s", corrupt)
    with corrupted_propagator(float(corrupt or 0.0)):
        checks = _verify_suite(cfg)
    all_pass = all(defect <= tol for _, defect, tol in checks)
    payload = {
        "checks": [
            {"name": name, "max_defect": defect, "tolerance": tol,
             "pass": bool(defect <= tol)}
            for name, defect, tol in checks
        ],
        "all_pass": bool(all_pass),
        "seed": cfg.get("seed", 0),
    }
    write_json(_require(cfg, "output", str, "verify.json"), payload, _meta(cfg))
    for name, defect, tol in checks:
        status = "PASS" if defect <= tol else "FAIL"
        print(f"{status} {name}: max defect {defect:.3e} (tolerance {tol:g})")
    return 0 if all_pass else 3


def _box_from(cfg: dict, t: float) -> Box:
    box_cfg = _require(cfg, "box", _object, {})
    s = _require(cfg, "s", float, _require(box_cfg, "s", float, 0.0))
    grid_n = _require(box_cfg, "grid_n", _integer, 16)
    if "C" in cfg or "C" in box_cfg:
        return Box.scaled(s, _require(cfg, "C", float, box_cfg.get("C")), t, grid_n)
    return Box(s=s, half_width=_require(box_cfg, "half_width", float, 2.0), grid_n=grid_n)


def cmd_resonances(cfg: dict) -> int:
    pot = _build_potential(cfg)
    t = _require(cfg, "t", float, _require(cfg, "T", float, pot.T))
    box = _box_from(cfg, t)
    zeros = find_zeros(pot, t, box)
    cols = ("t", "re_z", "im_z", "re_theta_z", "im_theta_z", "residual", "label")
    rows = []
    if zeros and "t1" in cfg:
        dt = _require(cfg, "dt", float, 1e-2)
        t1 = _require(cfg, "t1")
        for z0, _ in zeros:
            rows += track_rows(track_resonance(pot, z0, t, t1, dt))
    else:
        th = theta(transfer(pot, np.array([z for z, _ in zeros]), t)) if zeros else []
        for (z, tz), thv in zip(zeros, th):
            rows.append((t, z.real, z.imag, tz.real, tz.imag, abs(thv), ""))
    path = _write(cfg, "resonance", cols, rows)
    print(f"{len(zeros)} zero(s) in box; {len(rows)} row(s) written to {path}")
    return 0


def cmd_eigenvalues(cfg: dict) -> int:
    pot = _build_potential(cfg)
    kind = _require(cfg, "kind", str, "NN")
    x0 = _require(cfg, "x0")
    t0 = _require(cfg, "t0")
    t1 = _require(cfg, "t1")
    dt = _require(cfg, "dt", float, 1e-2)
    track = track_eigenvalue(pot, kind, x0, t0, t1, dt,
                             pre_tol=_require(cfg, "pre_tol", float, 1e-6))
    cols = ("t", "x", "residual")
    rows = [(ti, xi, res) for (ti, xi), res in zip(track.samples, track.residuals)]
    fields = {"kind": track.kind, "monotone": track.monotone, "status": track.status}
    _write(cfg, "eigen", cols, rows, meta={**_meta(cfg), **fields}, fields=fields)
    print(f"{kind} track: {len(rows)} samples, monotone={track.monotone}, "
          f"status={track.status}")
    return 0


def cmd_kernels(cfg: dict) -> int:
    pot = _build_potential(cfg)
    t = _require(cfg, "t", float, _require(cfg, "T", float, pot.T))
    s = _require(cfg, "s", float, 0.0)
    C = _require(cfg, "C", float, 4.0)
    grid_n = _require(_require(cfg, "box", _object, {}), "grid_n", _integer, 16)
    window = _require(cfg, "w_window", _numbers, [0.9 * min(t, pot.T), min(t, pot.T)])
    if len(window) != 2:
        raise UsageError(f"config key 'w_window' must hold 2 numbers, got {window!r}")
    w_hat, spread = estimate_w(pot, s, (float(window[0]), float(window[1])), 8)
    probe = kernel_probe(pot, s, t, C, w_hat=w_hat, grid_n=grid_n)
    try:
        fit = hb_fit(pot, s, t, C, grid_n=grid_n, w_hat=w_hat)
        fit_kind, alpha, x, y, residual = fit.kind, fit.alpha, fit.x, fit.y, fit.residual
    except PreconditionError as exc:
        log.info("no admissible fit: %s", exc)
        fit_kind, alpha, x, y, residual = "none", complex(np.nan, np.nan), np.nan, np.nan, np.nan
    cols = ("t", "s", "C", "w_hat", "gap", "fit_kind", "re_alpha", "im_alpha",
            "x", "y", "residual")
    row = (t, s, C, w_hat, probe.gap, fit_kind, alpha.real, alpha.imag, x, y, residual)
    _write(cfg, "kernels", cols, [row], meta={**_meta(cfg), "w_spread": spread})
    print(f"gap = {probe.gap:.6e}, w_hat = {w_hat:.6f} (spread {spread:.2e}), "
          f"fit = {fit_kind}")
    return 0


def cmd_converge(cfg: dict) -> int:
    pot = _build_potential(cfg)
    s_list = _require(cfg, "s_list", _numbers, [_require(cfg, "s", float, 0.0)])
    C = _require(cfg, "C", float, 4.0)
    table = run_convergence(
        pot, s_list, _require(cfg, "T_list", _numbers), C,
        box_samples=_require(cfg, "box_samples", _integer, 16),
    )
    rows = [(s, T, table.err[i, j]) for i, s in enumerate(table.s_list)
            for j, T in enumerate(table.T_list)]
    _write(cfg, "converge", ("s", "T", "err"), rows, body=table.to_dict())
    meds = table.median_err()
    print("median e(s, T) per horizon:",
          ", ".join(f"{T:g}: {m:.3e}" for T, m in zip(table.T_list, meds)))
    if table.failures:
        log.warning("%d cell(s) failed numerically", len(table.failures))
    return 0


def cmd_parseval(cfg: dict) -> int:
    pot = _build_potential(cfg)
    T = _require(cfg, "T", float, pot.T)
    tol = _require(_require(cfg, "tolerances", _object, {}), "parseval", float, 1e-2)
    rep = parseval_check(pot, T=T, tol=tol)
    payload = dataclasses.asdict(rep)
    _write(cfg, "parseval", tuple(payload), [tuple(payload.values())], body=payload)
    print(f"lhs = {rep.lhs:.8f}, rhs = {rep.rhs:.8f}, rel_err = {rep.rel_err:.3e}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "transform": cmd_transform,
    "verify": cmd_verify,
    "resonances": cmd_resonances,
    "eigenvalues": cmd_eigenvalues,
    "kernels": cmd_kernels,
    "converge": cmd_converge,
    "parseval": cmd_parseval,
}


@functools.cache  # in-process callers run main once per job; parsing keeps no state
def _build_parser() -> _Parser:
    parser = _Parser(prog="diracnlft", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="output file path")
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--seed", type=int)
    common.add_argument("--T", type=float, help="horizon override")
    common.add_argument("--zmin", type=float)
    common.add_argument("--zmax", type=float)
    common.add_argument("--nz", type=int)
    common.add_argument("--s", type=float, help="center frequency")
    common.add_argument("--C", type=float, help="box-scaling constant")
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("a subcommand is required "
                             f"(one of: {', '.join(_COMMANDS)})")
        cfg = _load_config(args)
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        log.error("invariant violation: %s", exc)
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        log.error("numerical failure: %s", exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except DiracNLFTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
