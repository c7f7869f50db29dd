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

A large float matrix is formatted on the CPUs in this process's affinity
mask (``os.sched_getaffinity``; restrict them with ``taskset``): its rows are
cut into contiguous blocks, forked children write the text of all blocks but
the first into memfds while this process emits the first, and the blocks'
text is then emitted in order.  The bytes are the same as on one CPU.
Without ``fork``, ``sched_getaffinity`` or ``memfd_create``, or below
``_CELLS_PER_WORKER`` cells per process, every matrix is formatted here.
The children's memory is not counted in this process's RSS.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import warnings

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


# A float matrix is split across processes only when each gets at least this
# many cells.  Measured on a 2-vCPU x86-64 sandbox (Python 3.11, numpy 2.4):
# the canonical text of a random matrix of 2 * C cells (50 and 200 columns)
# was hashed with 2 processes and with 1, 15 interleaved repeats each, while
# a busy loop of the same user ran pinned to the second CPU; 10 runs over 25
# minutes, in which the second vCPU was at times not there at all.  Median
# cost of the split path against the serial one, per run, for float64 arrays
# (report matrices): up to 1.07x at C = 50,000, 0.83x to 1.05x at 75,000,
# 0.78x to 1.05x at 100,000.  Lists of float rows (parsed instances, gen) read
# 0.95x to 1.19x at 75,000 and 100,000: their rows are type-checked here
# first, and each page holding their floats is copied on first write while
# both processes map it, a cost per cell that no C removes.  With the second
# CPU free and no busy loop, the split path took 0.54x to 0.68x at 100,000.
_CELLS_PER_WORKER = 75_000

# Largest piece of a child's text passed to ``emit`` at once.
_CHUNK = 1 << 16

_CAN_SPLIT = all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "memfd_create"))


def _split_count(obj) -> int:
    """Processes that should format the rows of ``obj``: more than 1 only for
    a 2-D float matrix (a float ndarray, or a list or tuple of at least 2 rows
    that hold only floats) of at least 2 * _CELLS_PER_WORKER cells; at most
    one per row and one per CPU this process may run on."""
    if isinstance(obj, np.ndarray):
        if obj.ndim != 2 or obj.dtype.kind != "f":
            return 1
        cells = obj.size
    elif all(isinstance(row, (list, tuple)) for row in obj):
        cells = sum(map(len, obj))
    else:
        return 1
    workers = min(cells // _CELLS_PER_WORKER, len(obj))
    if workers < 2 or not _CAN_SPLIT:
        return 1
    # list.count compares by identity first: the cheapest exact-type test.
    if not isinstance(obj, np.ndarray) and not all(
            row and [*map(type, row)].count(float) == len(row) for row in obj):
        return 1
    return min(workers, len(os.sched_getaffinity(0)))


def _emit_float_rows(rows, emit, lead: bool) -> None:
    """``_canonical`` of each row, each after ", " (the first only if
    ``lead``).  _split_count has checked that the rows hold only floats, so
    they are not checked again, and rows of one width share one template."""
    width, template = -1, ""
    for i, row in enumerate(rows):
        if isinstance(row, np.ndarray):
            row = row.tolist()
        if len(row) != width:
            width = len(row)
            template = "[" + ", ".join(["%.17g"] * width) + "]"
        if i or lead:
            emit(", ")
        emit(template % tuple(row))


def _write_rows_and_exit(rows, fd) -> None:
    """In a forked child: write the rows' text, each after ", ", to ``fd``,
    then exit, with status 1 on any error; never returns."""
    code = 1
    try:
        with open(fd, "w", encoding="ascii", buffering=_CHUNK, closefd=False) as out:
            _emit_float_rows(rows, out.write, True)
        code = 0
    finally:
        os._exit(code)


def _emit_split(rows, workers, emit) -> None:
    """Emit the rows of a float matrix, comma-separated, on ``workers``
    processes.  The rows are cut into contiguous blocks; a forked child writes
    the text of each block after the first into its own memfd while this
    process emits the first block, then each child is reaped and its text
    passed on in order."""
    bounds = [len(rows) * k // workers for k in range(workers + 1)]
    children = []  # [pid or 0 once reaped, memfd], one per block after the first
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append([0, os.memfd_create("statechar-rows", os.MFD_CLOEXEC)])
            with warnings.catch_warnings():
                # Python >= 3.12 warns on fork() in a process with threads, and
                # numpy's BLAS pool counts.  Safe here: the child only formats
                # floats into its memfd and calls os._exit, taking no lock and
                # running no BLAS.
                warnings.filterwarnings(
                    "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                    DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                _write_rows_and_exit(rows[lo:hi], children[-1][1])
            children[-1][0] = pid
        _emit_float_rows(rows[:bounds[1]], emit, False)
        for child in children:
            pid, fd = child
            status = os.waitpid(pid, 0)[1]
            child[0] = 0
            if status:
                raise OSError(f"process {pid} formatting matrix rows failed "
                              f"(exit status {os.waitstatus_to_exitcode(status)})")
            os.lseek(fd, 0, os.SEEK_SET)
            while chunk := os.read(fd, _CHUNK):
                emit(chunk.decode("ascii"))
    finally:
        for pid, fd in children:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(fd)


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
        workers = _split_count(obj)
        if workers > 1:
            _emit_split(obj, workers, emit)
        else:
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

    Utilities are uniform on ``u_range``, whose bounds and width must be
    finite; priors are uniform draws bounded away from zero, then normalized.
    The same seed always yields the same payload (and therefore
    byte-identical files).
    """
    if n < 1 or m < 1:
        raise ValidationError("gen_instance: n and m must be >= 1")
    lo, hi = float(u_range[0]), float(u_range[1])
    if not math.isfinite(hi - lo):
        raise ValidationError(f"gen_instance: utility range {(lo, hi)!r} is not finite "
                              "or too wide")
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
