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
import json
import logging
import os
import sys

import numpy as np

from .debranges import estimate_w, hb_exp_fit, hb_sine_fit, kernel_probe
from .errors import (
    DiracNLFTError,
    InvariantViolation,
    NumericalError,
    PreconditionError,
    UsageError,
    ValidationError,
)
from .experiments import limit_identities, run_convergence
from .nlft import nlft_forward, parseval_check
from .potential import PotentialSpec, SampledPotential, load_potential, sample
from .propagator import corrupted_propagator, hermite_biehler, transfer_batch
from .reporting import TOOL_VERSION, config_hash, write_csv, write_json
from .resonance import Box, classify_track, find_zeros, track_eigenvalue, track_resonance
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

_FLAG_KEYS = ("out", "format", "threads", "seed", "T", "zmin", "zmax", "nz", "s", "C")


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(
                f"malformed JSON in {args.config}: {exc.msg} "
                f"(line {exc.lineno} column {exc.colno})"
            ) from exc
        if not isinstance(cfg, dict):
            raise UsageError("config root must be a JSON object")
    for key in _FLAG_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            cfg["output" if key == "out" else key] = val
    cfg.setdefault("format", "csv")
    cfg.setdefault("seed", 0)
    cfg.setdefault("threads", 1)
    if cfg["format"] not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {cfg['format']!r}")
    if int(cfg["threads"]) < 1:
        raise UsageError(f"--threads must be >= 1, got {cfg['threads']}")
    for name, tol in dict(cfg.get("tolerances", {})).items():
        if not (float(tol) > 0):
            raise UsageError(f"tolerance {name!r} must be > 0, got {tol}")
    return cfg


def _require(cfg: dict, key: str, kind=float):
    if key not in cfg:
        raise UsageError(f"config key {key!r} is required for this command")
    try:
        return kind(cfg[key])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config key {key!r}: {exc}") from exc


def _build_potential(cfg: dict):
    if "potential" not in cfg:
        raise UsageError("config must supply 'potential' (spec object or file path)")
    pspec = cfg["potential"]
    if isinstance(pspec, str):
        pot = load_potential(pspec)
        if "T" in cfg and float(cfg["T"]) > pot.T * (1 + 1e-9):
            raise UsageError(
                f"T={cfg['T']} exceeds the horizon {pot.T} of {pspec}"
            )
        return pot
    if not isinstance(pspec, dict):
        raise UsageError("'potential' must be an object or a file path")
    h = _require(cfg, "h")
    if not (h > 0):
        raise UsageError(f"h must be > 0, got {h}")
    T = _require(cfg, "T")
    try:
        spec = PotentialSpec(
            family=pspec.get("family", ""), params=dict(pspec.get("params", {}))
        )
        return sample(spec, h=h, T=T)
    except ValidationError as exc:
        raise UsageError(str(exc)) from exc


def _real_grid(cfg: dict) -> np.ndarray:
    grid = cfg.get("grid", {})
    zmin = float(cfg.get("zmin", grid.get("zmin", -10.0)))
    zmax = float(cfg.get("zmax", grid.get("zmax", 10.0)))
    nz = int(cfg.get("nz", grid.get("nz", 201)))
    if nz < 2:
        raise UsageError(f"nz must be >= 2, got {nz}")
    if not (zmax > zmin):
        raise UsageError(f"need zmax > zmin, got [{zmin}, {zmax}]")
    return np.linspace(zmin, zmax, nz)


def _meta(cfg: dict) -> dict:
    hashed = {k: v for k, v in cfg.items() if k != "output"}
    return {"config_sha256": config_hash(hashed), "seed": cfg.get("seed", 0)}


def _out_path(cfg: dict, default: str) -> str:
    return str(cfg.get("output", default))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_transform(cfg: dict) -> int:
    pot = _build_potential(cfg)
    T = float(cfg.get("T", pot.T))
    grid = _real_grid(cfg)
    sd = nlft_forward(pot, T=T, grid=grid)
    defects = sd.real_axis_defects()
    det_defect = float(np.max(sd.det_drift))
    print(f"max | |a|^2 - |b|^2 - 1 | = {defects['unimodular']:.6e}")
    print(f"max | det M - 1 |        = {det_defect:.6e}")
    tol = float(cfg.get("tolerances", {}).get("unimodular", 1e-8))
    if defects["unimodular"] > tol:
        raise InvariantViolation(
            f"unimodularity defect {defects['unimodular']:.3e} exceeds {tol}"
        )
    rows = [
        (T, z.real, z.imag, a.real, a.imag, b.real, b.imag, r.real, r.imag, la)
        for z, a, b, r, la in zip(sd.grid, sd.a, sd.b, sd.r, sd.log_abs_a)
    ]
    cols = ("T", "re_z", "im_z", "re_a", "im_a", "re_b", "im_b", "re_r", "im_r", "log_abs_a")
    path = _out_path(cfg, "scattering." + cfg["format"])
    if cfg["format"] == "csv":
        write_csv(path, cols, rows, _meta(cfg))
    else:
        write_json(path, {"T": T, "rows": [dict(zip(cols, r)) for r in rows]}, _meta(cfg))
    log.info("wrote %d scattering rows to %s", len(rows), path)
    return 0


def _verify_suite(cfg: dict) -> list:
    seed = int(cfg.get("seed", 0))
    rng = np.random.default_rng(seed)
    checks = []
    real_grid = np.linspace(-10.0, 10.0, 33)
    cplx = rng.uniform(-8, 8, 8) + 1j * rng.uniform(0.05, 1.0, 8)
    det_max = det2i_max = uni_max = 0.0
    for _ in range(6):
        n = int(rng.integers(40, 120))
        pot = SampledPotential(h=0.02, cells=tuple(rng.uniform(-1.5, 1.5, n)))
        zs = np.concatenate([real_grid.astype(complex), cplx])
        B = transfer_batch(pot, zs, pot.T)
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
        with corrupted_propagator(float(corrupt)):
            checks = _verify_suite(cfg)
    else:
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
    path = _out_path(cfg, "verify.json")
    write_json(path, payload, _meta(cfg))
    for name, defect, tol in checks:
        status = "PASS" if defect <= tol else "FAIL"
        print(f"{status} {name}: max defect {defect:.3e} (tolerance {tol:g})")
    return 0 if all_pass else 3


def _box_from(cfg: dict, t: float) -> Box:
    box_cfg = dict(cfg.get("box", {}))
    s = float(cfg.get("s", box_cfg.get("s", 0.0)))
    if "C" in cfg or "C" in box_cfg:
        half = float(cfg.get("C", box_cfg.get("C"))) / t
    else:
        half = float(box_cfg.get("half_width", 2.0))
    return Box(s=s, half_width=half, grid_n=int(box_cfg.get("grid_n", 16)))


def cmd_resonances(cfg: dict) -> int:
    pot = _build_potential(cfg)
    t = float(cfg.get("t", cfg.get("T", pot.T)))
    box = _box_from(cfg, t)
    zeros = find_zeros(pot, t, box)
    cols = ("t", "re_z", "im_z", "re_theta_z", "im_theta_z", "residual", "label")
    rows = []
    if zeros and "t1" in cfg:
        dt = float(cfg.get("dt", 1e-2))
        t1 = float(cfg["t1"])
        for z0, _ in zeros:
            track = track_resonance(pot, z0, t, t1, dt)
            labels = {}
            if len(track.samples) >= 3:
                for seg in classify_track(track):
                    for ti, _, _ in track.samples:
                        if seg.t1 <= ti <= seg.t2:
                            labels[ti] = seg.label
            for (ti, zi, tzi), res in zip(track.samples, track.residuals):
                rows.append((ti, zi.real, zi.imag, tzi.real, tzi.imag, res,
                             labels.get(ti, "")))
    else:
        from .resonance import _theta_many

        th = _theta_many(pot, t, np.array([z for z, _ in zeros])) if zeros else []
        for (z, tz), thv in zip(zeros, th):
            rows.append((t, z.real, z.imag, tz.real, tz.imag, abs(thv), ""))
    path = _out_path(cfg, "resonance." + cfg["format"])
    if cfg["format"] == "csv":
        write_csv(path, cols, rows, _meta(cfg))
    else:
        write_json(path, {"rows": [dict(zip(cols, r)) for r in rows]}, _meta(cfg))
    print(f"{len(zeros)} zero(s) in box; {len(rows)} row(s) written to {path}")
    return 0


def cmd_eigenvalues(cfg: dict) -> int:
    pot = _build_potential(cfg)
    kind = str(cfg.get("kind", "NN"))
    x0 = _require(cfg, "x0")
    t0 = _require(cfg, "t0")
    t1 = _require(cfg, "t1")
    dt = float(cfg.get("dt", 1e-2))
    track = track_eigenvalue(pot, kind, x0, t0, t1, dt,
                             pre_tol=float(cfg.get("pre_tol", 1e-6)))
    cols = ("t", "x", "residual")
    rows = [(ti, xi, res) for (ti, xi), res in zip(track.samples, track.residuals)]
    meta = _meta(cfg)
    meta.update({"kind": track.kind, "monotone": track.monotone, "status": track.status})
    path = _out_path(cfg, "eigen." + cfg["format"])
    if cfg["format"] == "csv":
        write_csv(path, cols, rows, meta)
    else:
        write_json(path, {"kind": track.kind, "monotone": track.monotone,
                          "status": track.status,
                          "rows": [dict(zip(cols, r)) for r in rows]}, _meta(cfg))
    print(f"{kind} track: {len(rows)} samples, monotone={track.monotone}, "
          f"status={track.status}")
    return 0


def cmd_kernels(cfg: dict) -> int:
    pot = _build_potential(cfg)
    t = float(cfg.get("t", cfg.get("T", pot.T)))
    s = float(cfg.get("s", 0.0))
    C = float(cfg.get("C", 4.0))
    grid_n = int(cfg.get("box", {}).get("grid_n", 16))
    window = cfg.get("w_window", (0.9 * min(t, pot.T), min(t, pot.T)))
    w_hat, spread = estimate_w(pot, s, (float(window[0]), float(window[1])), 8)
    probe = kernel_probe(pot, s, t, C, w_hat=w_hat, grid_n=grid_n)
    fit_kind, alpha, x, y, residual = "none", complex(np.nan, np.nan), np.nan, np.nan, np.nan
    try:
        fit = hb_sine_fit(pot, s, t, C, grid_n=grid_n, w_hat=w_hat)
        fit_kind, alpha, x, y, residual = "sine", fit.alpha, fit.x, fit.y, fit.residual
    except PreconditionError:
        try:
            alpha, residual = hb_exp_fit(pot, s, t, C, grid_n=grid_n, w_hat=w_hat)
            fit_kind = "exp"
        except PreconditionError as exc:
            log.info("no admissible fit: %s", exc)
    cols = ("t", "s", "C", "w_hat", "gap", "fit_kind", "re_alpha", "im_alpha",
            "x", "y", "residual")
    row = (t, s, C, w_hat, probe.gap, fit_kind, alpha.real, alpha.imag, x, y, residual)
    meta = _meta(cfg)
    meta["w_spread"] = spread
    path = _out_path(cfg, "kernels." + cfg["format"])
    if cfg["format"] == "csv":
        write_csv(path, cols, [row], meta)
    else:
        write_json(path, {"rows": [dict(zip(cols, row))]}, meta)
    print(f"gap = {probe.gap:.6e}, w_hat = {w_hat:.6f} (spread {spread:.2e}), "
          f"fit = {fit_kind}")
    return 0


def cmd_converge(cfg: dict) -> int:
    pot = _build_potential(cfg)
    s_list = cfg.get("s_list")
    if s_list is None:
        s_list = [float(cfg.get("s", 0.0))]
    T_list = cfg.get("T_list")
    if T_list is None:
        raise UsageError("config key 'T_list' is required for converge")
    C = float(cfg.get("C", 4.0))
    table = run_convergence(
        pot, s_list, T_list, C,
        box_samples=int(cfg.get("box_samples", 16)),
        workers=int(cfg.get("threads", 1)),
    )
    path = _out_path(cfg, "converge." + cfg["format"])
    if cfg["format"] == "csv":
        rows = [
            (s, T, table.err[i, j])
            for i, s in enumerate(table.s_list)
            for j, T in enumerate(table.T_list)
        ]
        write_csv(path, ("s", "T", "err"), rows, _meta(cfg))
    else:
        write_json(path, table.to_dict(), _meta(cfg))
    meds = table.median_err()
    print("median e(s, T) per horizon:",
          ", ".join(f"{T:g}: {m:.3e}" for T, m in zip(table.T_list, meds)))
    if table.failures:
        log.warning("%d cell(s) failed numerically", len(table.failures))
    return 0


def cmd_parseval(cfg: dict) -> int:
    pot = _build_potential(cfg)
    T = float(cfg.get("T", pot.T))
    tol = float(cfg.get("tolerances", {}).get("parseval", 1e-2))
    rep = parseval_check(pot, T=T, tol=tol)
    payload = {
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "rel_err": rep.rel_err,
        "domain_half_width": rep.domain_half_width,
        "refinement_levels": rep.refinement_levels,
        "raw_integral": rep.raw_integral,
    }
    path = _out_path(cfg, "parseval." + cfg["format"])
    if cfg["format"] == "csv":
        write_csv(path, tuple(payload), [tuple(payload.values())], _meta(cfg))
    else:
        write_json(path, payload, _meta(cfg))
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="diracnlft", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="output file path")
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--threads", type=int)
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
