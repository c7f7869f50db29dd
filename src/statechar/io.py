"""Instance and report files.

Instance files are JSON objects with fields ``characteristics``, ``states``,
``utility`` (row-major n x m), ``phi``, ``mu``, ``alpha``, ``lambda``.
Reports are JSON objects with a fixed field order.  All floats are written
with 17 significant digits so that a serialized report re-parses to an
identical value and identical inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .model import ProblemInstance, ValidationError, validate_instance

__all__ = [
    "INSTANCE_FIELDS",
    "dumps_canonical",
    "load_instance",
    "read_json",
    "instance_payload",
    "instance_hash",
    "gen_instance",
    "generated_instance",
]

INSTANCE_FIELDS = ("characteristics", "states", "utility", "phi", "mu",
                   "alpha", "lambda")


def _canonical(obj, out: list) -> None:
    if isinstance(obj, np.ndarray) and obj.ndim:  # a 0-d array raises below
        obj = obj.tolist()
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _canonical(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) and set(map(type, obj)) == {float}:
        # A flat row of Python floats is formatted by one C-level % call.
        out.append(("[" + ", ".join(["%.17g"] * len(obj)) + "]") % tuple(obj))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _canonical(v, out)
        out.append("]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(f"{float(obj):.17g}")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: insertion-ordered fields, %.17g floats."""
    out: list = []
    _canonical(obj, out)
    out.append("\n")
    return "".join(out)


def read_json(path, parse):
    """``parse`` of a JSON file's value; an unreadable file, invalid JSON or a
    TypeError/ValueError from ``parse`` becomes a ValidationError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON "
                              f"({exc.msg})") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _parse_instance(raw):
    if not isinstance(raw, dict):
        raise ValidationError("top level must be a JSON object")
    missing = [f for f in INSTANCE_FIELDS if f not in raw]
    if missing:
        raise ValidationError(f"missing field(s) {missing}")
    return validate_instance(raw), raw


def load_instance(path):
    """Parse and validate an instance file; returns (instance, raw payload)."""
    return read_json(path, _parse_instance)


def instance_payload(raw: dict) -> dict:
    """The instance fields in canonical order (for hashing and echo)."""
    return {f: raw[f] for f in INSTANCE_FIELDS}


def instance_hash(raw: dict) -> str:
    """Content hash of an instance payload, invariant to file formatting."""
    text = dumps_canonical(instance_payload(raw))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def gen_instance(seed: int, n: int, m: int, u_range=(0.0, 2.0),
                 alpha: float = 0.5, lam: float = 1.0) -> dict:
    """Deterministic pseudo-random instance payload.

    Utilities are uniform on ``u_range``; priors are uniform draws bounded
    away from zero, then normalized.  The same seed always yields the same
    payload (and therefore byte-identical files).
    """
    if n < 1 or m < 1:
        raise ValidationError("gen_instance: n and m must be >= 1")
    lo, hi = float(u_range[0]), float(u_range[1])
    if not hi >= lo:
        raise ValidationError("gen_instance: empty utility range")
    rng = np.random.default_rng(seed)
    utility = rng.uniform(lo, hi, size=(n, m))
    phi = rng.uniform(0.2, 1.0, size=n)
    mu = rng.uniform(0.2, 1.0, size=m)
    return {
        "characteristics": [f"x{i + 1}" for i in range(n)],
        "states": [f"t{j + 1}" for j in range(m)],
        "utility": utility.tolist(),
        "phi": (phi / phi.sum()).tolist(),
        "mu": (mu / mu.sum()).tolist(),
        "alpha": float(alpha),
        "lambda": float(lam),
    }


def generated_instance(seed: int, n: int, m: int, u_range=(0.0, 2.0),
                       alpha: float = 0.5, lam: float = 1.0) -> ProblemInstance:
    """Validated instance straight from gen_instance (test/demo convenience)."""
    return validate_instance(gen_instance(seed, n, m, u_range, alpha, lam))
