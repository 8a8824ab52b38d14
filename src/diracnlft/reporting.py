"""Deterministic CSV/JSON emission with config fingerprints.

Every output file carries the tool version and a sha256 of the canonical
config JSON, so identical configs are provably behind identical files;
floats are serialized with 17 significant digits (exact double round-trip)
and no timestamps are embedded.
"""

from __future__ import annotations

import hashlib
import json

from . import __version__

__all__ = ["config_hash", "format_float", "write_csv", "write_json"]


def config_hash(cfg: dict) -> str:
    """sha256 of the canonical (sorted-keys, compact) JSON encoding."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def format_float(v) -> str:
    return "%.17g" % v if isinstance(v, float) else str(v)


def _meta_lines(meta: dict) -> list:
    lines = [f"# tool: diracnlft {__version__}"]
    for key in sorted(meta):
        lines.append(f"# {key}: {meta[key]}")
    return lines


def write_csv(path: str, columns, rows, meta: dict | None = None) -> None:
    """Write rows (iterables matching ``columns``) with a comment header.

    A row of floats only is formatted by one ``%`` operation, with the text
    :func:`format_float` gives each value; other rows value by value.
    """
    lines = _meta_lines(meta or {})
    lines.append(",".join(columns))
    floats = ",".join(["%.17g"] * len(columns))
    for row in map(tuple, rows):
        if len(row) == len(columns) and all(isinstance(v, float) for v in row):
            lines.append(floats % row)
        else:
            lines.append(",".join(map(format_float, row)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, payload: dict, meta: dict | None = None) -> None:
    """Write a payload dict with an embedded ``meta`` block."""
    doc = {"meta": {"tool": f"diracnlft {__version__}", **(meta or {})}}
    doc.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")
