"""Command-line driver: every module behind reproducible subcommands.

Config-first: a JSON config carries the potential, grids and tolerances;
flags override single keys.  ``_KEYS`` declares every key each subcommand
reads, with its kind and default; any other key is a usage error.  All output
files embed the tool version and a sha256 of the effective config, and
identical configs produce byte-identical files (no timestamps anywhere).

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
from .errors import DiracNLFTError, InvariantViolation, PreconditionError, UsageError
from .experiments import run_convergence
from .nlft import nlft_forward, parseval_check
from .potential import (
    PotentialSpec, SampledPotential, clip_to_support, load_potential, potential_from_dict,
    sample,
)
from .propagator import (
    _Z_LIMIT, corrupted_propagator, symmetric_grid, theta, transfer,
)
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
def _file(what: str, path):
    """An unreadable or unwritable file, or malformed JSON, becomes a UsageError."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON in {path}: {exc.msg} (line {exc.lineno} column {exc.colno})"
        ) from exc


def _load_config(args) -> dict:
    """The config file merged with the given flags, ``format`` and ``seed``
    set: the dict that ``config_sha256`` hashes (less ``output``)."""
    cfg: dict = {}
    if args.config:
        with _file("read config", args.config), open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise UsageError("config root must be a JSON object")
    for key, val in vars(args).items():  # the common flags, less --config
        if key not in ("command", "config") and val is not None:
            cfg["output" if key == "out" else key] = val
    cfg.setdefault("format", "csv")
    cfg.setdefault("seed", 0)
    return cfg


def _kind(test, expected: str, convert=None):
    """A config value kind: ``convert(val)`` (or ``val``) once ``test(val)``
    holds, else a ValueError that says what was ``expected``."""
    def check(val):
        if not test(val):
            raise ValueError(f"expected {expected}, got {val!r}")
        return convert(val) if convert else val
    check.expected = expected
    return check


# bool is not a number here, nor is a JSON string
_number = _kind(lambda v: type(v) in (int, float), "a JSON number", float)
_numbers = _kind(lambda v: isinstance(v, list) and all(type(x) in (int, float) for x in v),
                 "a JSON list of numbers")
# a JSON integer, or a float with an integral value
_integer = _kind(lambda v: type(v) is int or type(v) is float and v.is_integer(),
                 "a JSON integer", int)
_count = _kind(lambda v: 2 <= _integer(v) <= 65536, "an integer from 2 to 65536", int)
_frequency = _kind(lambda v: abs(_number(v)) <= _Z_LIMIT, f"a number of size <= {_Z_LIMIT:g}",
                   float)
_pair = _kind(lambda v: len(_numbers(v)) == 2, "a JSON list of 2 numbers")
_positive = _kind(lambda v: _number(v) > 0, "a number > 0", float)
_format = _kind(lambda v: v in ("csv", "json"), "csv or json")
_potential = _kind(lambda v: isinstance(v, (dict, str)), "a spec object or a file path")


# The keys each subcommand reads: ``key: (kind, default)``, or a sub-table
# for a nested object.  The default is a value, None (absent: the command
# works it out, e.g. T -> the potential's horizon) or _REQUIRED.
_REQUIRED = object()
_COMMON = {"output": (str, None), "format": (_format, "csv"), "seed": (_integer, 0)}
_POTENTIAL = {**_COMMON, "potential": (_potential, _REQUIRED), "h": (_number, None),
              "T": (_number, None)}
_KEYS = {
    "transform": {**_POTENTIAL, "zmin": (_frequency, None), "zmax": (_frequency, None),
                  "nz": (_count, None),
                  "grid": {"zmin": (_frequency, -10.0), "zmax": (_frequency, 10.0),
                           "nz": (_count, 201)},
                  "tolerances": {"unimodular": (_positive, 1e-8)}},
    "verify": _COMMON,
    "resonances": {**_POTENTIAL, "t": (_number, None), "s": (_number, 0.0),
                   "C": (_number, None),
                   "box": {"half_width": (_number, 2.0), "grid_n": (_integer, 16)},
                   "t1": (_number, None), "dt": (_number, 1e-2)},
    "eigenvalues": {**_POTENTIAL, "kind": (str, "NN"), "x0": (_number, _REQUIRED),
                    "t0": (_number, _REQUIRED), "t1": (_number, _REQUIRED), "dt": (_number, 1e-2),
                    "pre_tol": (_number, 1e-6)},
    "kernels": {**_POTENTIAL, "t": (_number, None), "s": (_number, 0.0), "C": (_number, 4.0),
                "box": {"grid_n": (_integer, 16)}, "w_window": (_pair, None)},
    "converge": {**_POTENTIAL, "s_list": (_numbers, None), "s": (_number, 0.0),
                 "C": (_number, 4.0), "T_list": (_numbers, _REQUIRED),
                 "box_samples": (_integer, 16)},
    "parseval": {**_POTENTIAL, "tolerances": {"parseval": (_positive, 1e-2)}},
}


def _typed(cfg: dict, keys: dict, where: str) -> dict:
    """``cfg`` typed by the key table ``keys``, defaults filled in, nested
    objects typed by their sub-tables.  An unknown key, a missing required one
    or a value its kind refuses is a UsageError; ``where`` names the object."""
    if not isinstance(cfg, dict):
        raise UsageError(f"the {where} config must be a JSON object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise UsageError(f"unknown key(s) {', '.join(map(repr, unknown))} in the {where} "
                         f"config; allowed: {', '.join(sorted(keys))}")
    typed = {}
    for key, spec in keys.items():
        if isinstance(spec, dict):  # a nested object
            typed[key] = _typed(cfg.get(key, {}), spec, f"{where} {key}")
        elif key in cfg:
            try:
                typed[key] = spec[0](cfg[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise UsageError(f"config key {key!r}: {exc}") from exc
        elif spec[1] is _REQUIRED:
            raise UsageError(f"config key {key!r} is required for {where}")
        else:
            typed[key] = spec[1]
    return typed


def _or(val, default):
    return default if val is None else val


def _build_potential(cfg: dict) -> SampledPotential:
    """The configured potential; an absent ``T`` becomes its horizon."""
    pspec = cfg["potential"]
    if isinstance(pspec, dict):  # sampled here: h and T are required
        if set(pspec) - {"family", "params"}:
            raise UsageError("inline potential takes 'family' and 'params' only, "
                             f"got {sorted(pspec)}")
        given = {k: cfg[k] for k in ("h", "T") if cfg[k] is not None}
        pot = potential_from_dict({**pspec, **given})
    elif cfg["h"] is not None:
        raise UsageError("config key 'h' is for an inline potential, not a file")
    else:
        with _file("read potential", pspec):
            pot = load_potential(pspec)
        if cfg["T"] is not None:
            clip_to_support(pot, cfg["T"], "T")
    cfg["T"] = _or(cfg["T"], pot.T)
    return pot


def _write(cfg: dict, meta: dict, stem: str, cols, rows, fields=None, body=None) -> str:
    """Write ``rows`` under ``cols`` and a ``meta`` header (CSV), or ``body``
    (default: ``fields`` and the rows as objects; the meta less ``fields``)
    (JSON), to ``cfg["output"]`` or ``stem.<format>``; return the path."""
    path = _or(cfg["output"], f"{stem}.{cfg['format']}")
    with _file("write", path):
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


def cmd_transform(cfg: dict, meta: dict) -> int:
    pot = _build_potential(cfg)
    T = cfg["T"]
    zmin, zmax, nz = (_or(cfg[key], cfg["grid"][key]) for key in ("zmin", "zmax", "nz"))
    if not (zmax > zmin):
        raise UsageError(f"need zmax > zmin, got [{zmin}, {zmax}]")
    grid = symmetric_grid(zmax, nz) if zmin == -zmax else np.linspace(zmin, zmax, nz)
    sd = nlft_forward(pot, T=T, grid=grid)
    defects = sd.real_axis_defects()
    det_defect = float(np.max(sd.det_drift))
    print(f"max | |a|^2 - |b|^2 - 1 | = {defects['unimodular']:.6e}")
    print(f"max | det M - 1 |        = {det_defect:.6e}")
    tol = cfg["tolerances"]["unimodular"]
    if not defects["unimodular"] <= tol:  # NaN fails too
        raise InvariantViolation(
            f"unimodularity defect {defects['unimodular']:.3e} exceeds {tol}"
        )
    z, a, b, r = sd.grid, sd.a, sd.b, sd.r
    rows = np.column_stack([np.full(z.shape, T), z.real, z.imag, a.real, a.imag, b.real,
                            b.imag, r.real, r.imag, sd.log_abs_a]).tolist()
    cols = ("T", "re_z", "im_z", "re_a", "im_a", "re_b", "im_b", "re_r", "im_r", "log_abs_a")
    path = _write(cfg, meta, "scattering", cols, rows, fields={"T": T})
    log.info("wrote %d scattering rows to %s", len(rows), path)
    return 0


def _verify_suite(seed: int) -> list:
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
        det2i_max = max(det2i_max, float(np.max(np.abs(B.det2i() - 2j))))
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


def cmd_verify(cfg: dict, meta: dict) -> int:
    corrupt = os.environ.get("NLFT_TEST_CORRUPT_PROPAGATOR")
    if corrupt:
        log.warning("corruption hook active: eps=%s", corrupt)
    with corrupted_propagator(float(corrupt or 0.0)):
        checks = _verify_suite(cfg["seed"])
    all_pass = all(defect <= tol for _, defect, tol in checks)
    payload = {
        "checks": [
            {"name": name, "max_defect": defect, "tolerance": tol,
             "pass": bool(defect <= tol)}
            for name, defect, tol in checks
        ],
        "all_pass": bool(all_pass),
        "seed": meta["seed"],
    }
    _write({**cfg, "format": "json"}, meta, "verify", (), [], body=payload)
    for name, defect, tol in checks:
        status = "PASS" if defect <= tol else "FAIL"
        print(f"{status} {name}: max defect {defect:.3e} (tolerance {tol:g})")
    return 0 if all_pass else 3


def cmd_resonances(cfg: dict, meta: dict) -> int:
    pot = _build_potential(cfg)
    t, s, grid_n = _or(cfg["t"], cfg["T"]), cfg["s"], cfg["box"]["grid_n"]
    if cfg["C"] is None:
        box = Box(s=s, half_width=cfg["box"]["half_width"], grid_n=grid_n)
    else:
        box = Box.scaled(s, cfg["C"], t, grid_n)
    zeros = find_zeros(pot, t, box)
    cols = ("t", "re_z", "im_z", "re_theta_z", "im_theta_z", "residual", "label")
    rows = []
    if zeros and cfg["t1"] is not None:
        for z0, _ in zeros:
            track = track_resonance(pot, z0, t, cfg["t1"], cfg["dt"])
            if track.status != "completed":
                log.warning("the track of the zero at %s ended as %s at t = %r, before t1 = %r",
                            z0, track.status, track.samples[-1][0], cfg["t1"])
            rows += track_rows(track)
    else:
        th = theta(transfer(pot, np.array([z for z, _ in zeros]), t)) if zeros else []
        for (z, tz), thv in zip(zeros, th):
            rows.append((t, z.real, z.imag, tz.real, tz.imag, abs(thv), ""))
    path = _write(cfg, meta, "resonance", cols, rows)
    print(f"{len(zeros)} zero(s) in box; {len(rows)} row(s) written to {path}")
    return 0


def cmd_eigenvalues(cfg: dict, meta: dict) -> int:
    pot = _build_potential(cfg)
    kind = cfg["kind"]
    track = track_eigenvalue(pot, kind, cfg["x0"], cfg["t0"], cfg["t1"], cfg["dt"],
                             pre_tol=cfg["pre_tol"])
    cols = ("t", "x", "residual")
    rows = [(ti, xi, res) for (ti, xi), res in zip(track.samples, track.residuals)]
    fields = {"kind": track.kind, "monotone": track.monotone, "status": track.status}
    _write(cfg, {**meta, **fields}, "eigen", cols, rows, fields=fields)
    print(f"{kind} track: {len(rows)} samples, monotone={track.monotone}, "
          f"status={track.status}")
    return 0


def cmd_kernels(cfg: dict, meta: dict) -> int:
    pot = _build_potential(cfg)
    t, s, C, grid_n = _or(cfg["t"], cfg["T"]), cfg["s"], cfg["C"], cfg["box"]["grid_n"]
    window = _or(cfg["w_window"], [0.9 * min(t, pot.T), min(t, pot.T)])
    w_hat, spread = estimate_w(pot, s, (float(window[0]), float(window[1])), 8)
    probe = kernel_probe(pot, s, t, C, w_hat=w_hat, grid_n=grid_n)
    try:
        fit = hb_fit(pot, probe)
        fit_kind, alpha, x, y, residual = fit.kind, fit.alpha, fit.x, fit.y, fit.residual
    except PreconditionError as exc:
        log.info("no admissible fit: %s", exc)
        fit_kind, alpha, x, y, residual = "none", complex(np.nan, np.nan), np.nan, np.nan, np.nan
    cols = ("t", "s", "C", "w_hat", "gap", "fit_kind", "re_alpha", "im_alpha",
            "x", "y", "residual")
    row = (t, s, C, w_hat, probe.gap, fit_kind, alpha.real, alpha.imag, x, y, residual)
    _write(cfg, {**meta, "w_spread": spread}, "kernels", cols, [row])
    print(f"gap = {probe.gap:.6e}, w_hat = {w_hat:.6f} (spread {spread:.2e}), "
          f"fit = {fit_kind}")
    return 0


def cmd_converge(cfg: dict, meta: dict) -> int:
    pot = _build_potential(cfg)
    table = run_convergence(pot, _or(cfg["s_list"], [cfg["s"]]), cfg["T_list"], cfg["C"],
                            box_samples=cfg["box_samples"])
    rows = [(s, T, table.err[i, j]) for i, s in enumerate(table.s_list)
            for j, T in enumerate(table.T_list)]
    _write(cfg, meta, "converge", ("s", "T", "err"), rows, body=table.to_dict())
    meds = table.median_err()
    print("median e(s, T) per horizon:",
          ", ".join(f"{T:g}: {m:.3e}" for T, m in zip(table.T_list, meds)))
    if table.failures:
        log.warning("%d cell(s) failed numerically", len(table.failures))
    return 0


def cmd_parseval(cfg: dict, meta: dict) -> int:
    pot = _build_potential(cfg)
    rep = parseval_check(pot, T=cfg["T"], tol=cfg["tolerances"]["parseval"])
    payload = dataclasses.asdict(rep)
    _write(cfg, meta, "parseval", tuple(payload), [tuple(payload.values())], body=payload)
    print(f"lhs = {rep.lhs:.8f}, rhs = {rep.rhs:.8f}, rel_err = {rep.rel_err:.3e}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# every subcommand of the key table, run by its cmd_<name> function
_COMMANDS = {name: globals()[f"cmd_{name}"] for name in _KEYS}


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
        raw = _load_config(args)
        cfg = _typed(raw, _KEYS[args.command], args.command)
        hashed = {k: v for k, v in raw.items() if k != "output"}
        meta = {"config_sha256": config_hash(hashed), "seed": raw["seed"]}
        return _COMMANDS[args.command](cfg, meta)
    except DiracNLFTError as exc:  # one stderr line, labelled by its branch
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
