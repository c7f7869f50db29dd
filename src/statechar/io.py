"""Instance and report files.

Instance files are JSON objects with fields ``characteristics``, ``states``,
``utility`` (row-major n x m), ``phi``, ``mu``, ``alpha``, ``lambda``.
Reports are JSON objects with a fixed field order.  All floats are written
with 17 significant digits so that a serialized report re-parses to an
identical value and identical inputs produce byte-identical files.

Writing is streamed: one emitter produces the canonical text piece by piece
(a matrix one row at a time), and ``dumps_canonical`` joins the pieces,
writes them to a file as they come, or ``instance_hash`` feeds them to
SHA-256.  A report or hash therefore holds about one row of text beside its
arrays: on a 1000 x 1000 instance a fresh ``statechar solve --report``
peaks at 122 MB RSS, where building the 47 MB report as one string took
301 MB.
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


def _canonical(obj, emit) -> None:
    """Pass the canonical JSON text of ``obj`` to ``emit`` piece by piece."""
    # A 1-d array becomes one list; wider arrays are iterated below, one row
    # at a time, so no Python list of a whole matrix is built.  A 0-d array
    # is not iterable and raises.
    if isinstance(obj, np.ndarray) and obj.ndim == 1:
        obj = obj.tolist()
    if isinstance(obj, dict):
        emit("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                emit(", ")
            emit(json.dumps(str(k)))
            emit(": ")
            _canonical(v, emit)
        emit("}")
    elif isinstance(obj, (list, tuple)) and set(map(type, obj)) == {float}:
        # A flat row of Python floats is formatted by one C-level % call.
        emit(("[" + ", ".join(["%.17g"] * len(obj)) + "]") % tuple(obj))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        emit("[")
        for i, v in enumerate(obj):
            if i:
                emit(", ")
            _canonical(v, emit)
        emit("]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        emit("true" if obj else "false")
    elif obj is None:
        emit("null")
    elif isinstance(obj, (int, np.integer)):
        emit(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        emit(f"{float(obj):.17g}")
    elif isinstance(obj, str):
        emit(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj, fh=None):
    """Deterministic JSON text: insertion-ordered fields, %.17g floats.

    Returns the text, or with ``fh`` writes it to that text file piece by
    piece and returns None, so the whole text is never held at once.
    """
    out: list = []
    emit = out.append if fh is None else fh.write
    _canonical(obj, emit)
    emit("\n")
    return "".join(out) if fh is None else None


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
    """Content hash of an instance payload, invariant to file formatting: the
    SHA-256 of its ``dumps_canonical`` text, fed one piece at a time."""
    sha = hashlib.sha256()
    _canonical(instance_payload(raw), lambda piece: sha.update(piece.encode("utf-8")))
    sha.update(b"\n")
    return sha.hexdigest()


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
