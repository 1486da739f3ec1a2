"""On-disk frame container.

Format "etfspectra-frame" version 1: a single JSON document with fields

    format   : "etfspectra-frame"
    version  : 1
    family   : construction name
    m, n     : shape (vectors are columns of an m-by-n matrix)
    field    : "real" | "complex"
    seed     : integer or null
    params   : construction parameters
    data_b64 : base64 of the row-major float64 little-endian entries;
               complex matrices store interleaved (re, im) pairs.

Writing the same frame twice produces byte-identical files.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from .frames import FrameMatrix

__all__ = ["save_frame", "load_frame", "FORMAT_NAME", "FORMAT_VERSION"]

FORMAT_NAME = "etfspectra-frame"
FORMAT_VERSION = 1


def save_frame(frame: FrameMatrix, path: str) -> None:
    E = frame.entries
    if frame.is_complex:
        raw = np.ascontiguousarray(E.astype(np.complex128)).view(np.float64)
    else:
        raw = np.ascontiguousarray(E.astype(np.float64))
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "family": frame.family,
        "m": frame.m,
        "n": frame.n,
        "field": "complex" if frame.is_complex else "real",
        "seed": frame.seed,
        "params": frame.params,
        "data_b64": base64.b64encode(raw.astype("<f8").tobytes()).decode("ascii"),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_frame(path: str) -> FrameMatrix:
    """The frame stored at ``path``.  A file that is not a well-formed
    version-1 frame raises a ValueError naming the path and the problem."""
    with open(path) as fh:
        doc = json.load(fh)
    if (not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME
            or doc.get("version") != FORMAT_VERSION):
        raise ValueError(f"not a {FORMAT_NAME} v{FORMAT_VERSION} file: {path}")
    missing = [key for key in ("family", "m", "n", "field", "data_b64") if key not in doc]
    if missing:
        raise ValueError(f"{path}: missing {', '.join(missing)}")
    m, n, field = int(doc["m"]), int(doc["n"]), doc["field"]
    if field not in ("real", "complex"):
        raise ValueError(f"{path}: field must be 'real' or 'complex'; got {field!r}")
    raw = np.frombuffer(base64.b64decode(doc["data_b64"]), dtype="<f8")
    size = (2 if field == "complex" else 1) * m * n
    if raw.size != size:
        raise ValueError(f"{path}: data_b64 holds {raw.size} values; a {field} {m}x{n} "
                         f"frame has {size}")
    if field == "complex":
        entries = raw.astype(np.float64).view(np.complex128).reshape(m, n)
    else:
        entries = raw.astype(np.float64).reshape(m, n)
    return FrameMatrix(entries, doc["family"], seed=doc.get("seed"),
                       params=doc.get("params", {}))
