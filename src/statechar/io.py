"""Instance and report files.

Instance files are JSON objects with fields ``characteristics``, ``states``,
``utility`` (row-major n x m), ``phi``, ``mu``, ``alpha``, ``lambda``.
Reports are JSON objects with a fixed field order.  All floats are written
with 17 significant digits so that a serialized report re-parses to an
identical value and identical inputs produce byte-identical files.

Writing is streamed: one emitter produces the canonical text piece by piece
(a float matrix a block of rows of about 1,024 cells at a time, each block
formatted by one % template), and ``dumps_canonical`` joins the pieces,
writes them to a file as they come, or ``instance_hash`` feeds them to
SHA-256.  A report or hash therefore holds about one block of text beside
its arrays: on a 1000 x 1000 instance a fresh ``statechar solve --report``
peaks at 122 MB RSS, where building the 47 MB report as one string took
301 MB.

Work that runs beside this process's main thread goes to ``Workers``:
forked children, each pinned to a CPU of the affinity mask
(``os.sched_getaffinity``; restrict it with ``taskset``) of its own, while
the main thread keeps the CPUs no worker has.  The mask is restored when
they are closed, a failed child is an OSError, and no child outlives its
``Workers``.  Pinning both sides matters: unpinned, short-lived children
were seen to share the parent's CPU on a 2-vCPU machine.  A large float
matrix is formatted on all CPUs the main thread may use: its rows are cut
into contiguous blocks, workers write the text of all blocks but the first
into memfds while this process emits the first, and the blocks' text is
then emitted in order.  The bytes are the same as on one CPU.  Without
``fork``, ``sched_getaffinity`` or ``memfd_create``, with one CPU left to
the main thread (as with two allowed CPUs while a hash worker runs), or
below ``_CELLS_PER_WORKER`` cells per process, every matrix is formatted
here.  The workers' memory is not counted in this process's RSS.
"""

from __future__ import annotations

import hashlib
import itertools
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
    "hash_splits",
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

# Cells of float matrix rows formatted by one % template.  Measured on a
# 2-vCPU x86-64 sandbox (Python 3.11): 1,024 and 4,096 cells format 300^2,
# 200^2 and 2000 x 50 matrices equally fast (0.83x to 0.95x of one template
# per row), but text built from ~90 kB blocks fragments the heap more:
# ``dumps_canonical`` of a 1000 x 1000 instance to a 19.6 MB string raised
# the peak RSS by 38.7 MB at 4,096 cells, 34.6 MB at 1,024 and 31.8 MB with
# one template per row.
_BLOCK_CELLS = 1024

# Largest piece of a worker's text passed on at once.
_CHUNK = 1 << 16

_CAN_FORK = all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "memfd_create"))


def _pin(cpus) -> None:
    """Restrict the calling thread to ``cpus``; where the kernel refuses (they
    went offline), it keeps running where it may."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _run_worker(target, fd: int, cpu: int) -> None:
    """In a forked child: pin to ``cpu``, call ``target`` with a text file on
    ``fd``, then exit, with status 1 if anything raised; never returns."""
    code = 1
    try:
        _pin((cpu,))
        with open(fd, "w", encoding="ascii", buffering=_CHUNK, closefd=False) as out:
            target(out)
        code = 0
    finally:
        os._exit(code)


class Workers:
    """Forked worker processes, each on a CPU of its own.

    Worker k runs on the (k + 1)-th highest CPU of the calling thread's
    affinity mask (``os.sched_getaffinity``) as it was at the first
    ``spawn``, and each ``spawn`` pins the calling thread to the CPUs no
    worker has, so at most ``cpus() - 1`` workers fit.  ``cpus()`` then
    reads the CPUs left to the calling thread, and 1 in a worker, so work
    split further in either never shares a CPU.  Used as a context manager:
    ``close`` (on exit) kills and reaps every worker not yet waited for and
    restores the thread's affinity mask.
    """

    def __init__(self):
        self._mask = None
        self._workers = []  # [pid or 0 once reaped, memfd, task]

    @staticmethod
    def cpus() -> int:
        """CPUs the calling thread may run on; 1 where ``fork``,
        ``sched_getaffinity`` or ``memfd_create`` is missing."""
        return len(os.sched_getaffinity(0)) if _CAN_FORK else 1

    def spawn(self, target, task: str) -> int:
        """Fork a worker that calls ``target(out)`` with an ASCII text file
        and exits; returns its index.  ``task`` names it in errors."""
        if self._mask is None:
            self._mask = os.sched_getaffinity(0)
        cpus, k = sorted(self._mask), len(self._workers)
        if k + 1 >= len(cpus):
            raise ValueError(f"no CPU left for a worker {task}")
        _pin(cpus[:-1 - k])
        fd = os.memfd_create("statechar-worker", os.MFD_CLOEXEC)
        self._workers.append([0, fd, task])
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork() in a process with threads, and
            # numpy's BLAS pool counts.  Safe here: a worker formats or hashes
            # Python objects into its memfd and calls os._exit, taking no lock
            # and running no BLAS.
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            _run_worker(target, fd, cpus[-1 - k])
        self._workers[-1][0] = pid
        return k

    def output(self, k: int):
        """Wait for worker k, then yield its text in pieces of at most _CHUNK
        characters; OSError if it failed."""
        pid, fd, task = self._workers[k]
        if pid:
            status = os.waitpid(pid, 0)[1]
            self._workers[k][0] = 0
            if status:
                raise OSError(f"process {pid} {task} failed "
                              f"(exit status {os.waitstatus_to_exitcode(status)})")
        os.lseek(fd, 0, os.SEEK_SET)
        while chunk := os.read(fd, _CHUNK):
            yield chunk.decode("ascii")

    def close(self) -> None:
        """Kill and reap the workers not waited for, close their memfds and
        restore the calling thread's affinity mask."""
        try:
            while self._workers:
                pid, fd, _ = self._workers.pop()
                if pid:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                os.close(fd)
        finally:
            if self._mask is not None:
                os.sched_setaffinity(0, self._mask)
                self._mask = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _float_matrix(obj) -> bool:
    """Whether ``obj`` is a float matrix: a 2-D float ndarray with columns, or
    a list or tuple of non-empty list or tuple rows that hold only floats."""
    if isinstance(obj, np.ndarray):
        return obj.ndim == 2 and obj.dtype.kind == "f" and obj.shape[1] > 0
    # list.count compares by identity first: the cheapest exact-type test.
    return all(isinstance(row, (list, tuple)) and row
               and [*map(type, row)].count(float) == len(row) for row in obj)


def _split_count(matrix) -> int:
    """Processes that should format the rows of a float matrix: one per
    _CELLS_PER_WORKER cells, at most one per row and one per CPU this thread
    may run on."""
    cells = matrix.size if isinstance(matrix, np.ndarray) else sum(map(len, matrix))
    workers = min(cells // _CELLS_PER_WORKER, len(matrix))
    return min(workers, Workers.cpus()) if workers > 1 else 1


def _rows_template(width: int, rows: int) -> str:
    row = "[" + ", ".join(["%.17g"] * width) + "]"
    return ", ".join([row] * rows)


def _emit_float_rows(rows, emit, lead: bool) -> None:
    """``_canonical`` of each row of a float matrix, each after ", " (the
    first only if ``lead``): consecutive rows of one width are formatted in
    blocks of about _BLOCK_CELLS cells by one % template.  Templates are not
    kept past the call: a long-lived string amid the heap keeps freed memory
    from going back to the system."""
    i, count = 0, len(rows)
    shape, template = None, ""
    while i < count:
        if isinstance(rows, np.ndarray):
            width = rows.shape[1]
            j = min(count, i + max(1, _BLOCK_CELLS // width))
            cells = tuple(rows[i:j].ravel().tolist())
        else:
            width = len(rows[i])
            stop = min(count, i + max(1, _BLOCK_CELLS // width))
            j = i + 1
            while j < stop and len(rows[j]) == width:
                j += 1
            cells = tuple(itertools.chain.from_iterable(rows[i:j]))
        if shape != (width, j - i):
            shape = width, j - i
            template = _rows_template(*shape)
        if i or lead:
            emit(", ")
        emit(template % cells)
        i = j


def _write_rows(rows, out) -> None:
    """In a worker: the rows' text, each after ", ", to ``out``."""
    _emit_float_rows(rows, out.write, True)


def _emit_split(rows, workers, emit) -> None:
    """Emit the rows of a float matrix, comma-separated, on ``workers``
    processes.  The rows are cut into contiguous blocks; a worker writes the
    text of each block after the first while this process emits the first,
    then each worker's text is passed on in order."""
    bounds = [len(rows) * k // workers for k in range(workers + 1)]
    with Workers() as pool:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            pool.spawn(lambda out, lo=lo, hi=hi: _write_rows(rows[lo:hi], out),
                       "formatting matrix rows")
        _emit_float_rows(rows[:bounds[1]], emit, False)
        for k in range(workers - 1):
            for chunk in pool.output(k):
                emit(chunk)


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
    elif isinstance(obj, (list, tuple)) and (kinds := set(map(type, obj))) in ({float}, {str}):
        # A flat row of Python floats is formatted by one C-level % call, a
        # list of str (labels) by one json.dumps call.
        emit(_rows_template(len(obj), 1) % tuple(obj) if float in kinds else json.dumps(obj))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        emit("[")
        if not _float_matrix(obj):
            for i, v in enumerate(obj):
                if i:
                    emit(", ")
                _canonical(v, emit)
        elif (workers := _split_count(obj)) > 1:
            _emit_split(obj, workers, emit)
        else:
            _emit_float_rows(obj, emit, False)
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


def hash_splits(raw: dict) -> bool:
    """Whether ``instance_hash(raw)`` would format the utility matrix on more
    than one process: with two or more CPUs left to this thread and at least
    2 * _CELLS_PER_WORKER cells."""
    return _split_count(raw["utility"]) > 1


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
