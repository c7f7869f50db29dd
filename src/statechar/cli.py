"""Batch front end.

Commands: solve, bridge, entry, oracle, diagnose, gen.  The five instance
commands run through one skeleton, ``_run``: each supplies only its report
body, its stdout rendering and its ok/not-ok outcome, and declares only the
options it reads; the report's ``flags`` echo its tuning options.  Machine
reports are written to ``--report`` as canonical JSON (fixed field order, 17
significant digits); human tables on stdout are rendered from the same report
dict, never computed separately.  Exit codes: 0 success, 2 input error
(including an output path that cannot be opened), 3 non-convergence.

Every report header carries ``"schema": 2``.  Schema 2 writes one n x m
matrix per solution: ``solution.coupling``, the optimal policy P*(x, t).  The
conditional choice probabilities P(x|t) are its columns divided by mu(t), the
instance's pruned and renormalized state prior (or, to 1e-10, by the
coupling's column sums); ``solve`` renders its P(x|t) table that way.

The ``--report`` path is opened before any work, so a path that cannot be
opened is an immediate input error; an existing file is truncated only when
the new report is written, and a report left incomplete by a failure is
removed.  Instance hashes are computed only for a report.  Where the process
may run on two or more CPUs, they are computed in the program's one worker:
a child forked once, pinned to the highest CPU of the affinity mask while
the main thread keeps the others, that hashes the instance files into a
memfd while the command solves and writes its report.  With one CPU, or if
no child can be started, they are computed inline.  Everything else,
including every matrix's text, is formatted in the process itself.
In a regular file each "<name>_hash" field is written as ``PENDING_HASH``,
64 characters wide, and overwritten in place with the digest once it is
known; a report that is not a regular file waits for the digests.  The
bytes are the same either way.

Reports are byte-identical across runs for fixed inputs and seeds; wall-clock
timings are added only on request (``--timings``) since they would break that
guarantee.  Library functions are looked up in this module's namespace at call
time, so that a tracer can swap timing wrappers in for them; the hash worker
calls ``instance_hash`` in its own process, so what a wrapper records there
stays there.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import signal
import stat
import sys
import time
import warnings

import numpy as np

from . import __version__
from .bridge import schrodinger_residual, sinkhorn_solve, standard_a
from .diagnostics import (
    DiagnosticsReport,
    density_bounds,
    gibbs_check,
    jensen_gap,
    mnl_residual,
    run_diagnostics,
)
from .entry import _check_report_tolerances, entry_report, solve_entry_pair
from .io import dumps_canonical, gen_instance, instance_hash, load_instance, read_json
from .model import (
    ConvergenceError,
    Coupling,
    Marginal,
    ValidationError,
    information_cost,
    kl_divergence,
    mutual_information,
    objective_value,
    validate_instance,
)
from .optimize import brute_force_oracle, full_solve

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3

# Report format version, written in every report header after "version".
SCHEMA = 2

# Tuning options by report key.  A command's report echoes the ones it
# declares as "flags"; every command declares them in this order.
_TUNING = {"outer_tol": (float, 1e-10), "inner_tol": (float, 1e-10),
           "max_iter": (int, 100_000), "seed": (int, 0)}


def _fmt(x) -> str:
    return f"{x:.8g}"


def _print_vector(name, labels, values) -> None:
    print("\n".join([f"{name}:"] + [f"  {lab:>8}  {_fmt(v)}"
                                    for lab, v in zip(labels, values)]))


def _print_matrix(name, row_labels, col_labels, rows) -> None:
    cells = " ".join(["%12.8g"] * len(col_labels))  # one template call per row
    lines = [f"{name}:", f"  {'':>8} " + " ".join(f"{c:>12}" for c in col_labels)]
    lines += [f"  {lab:>8} " + cells % tuple(row.tolist())
              for lab, row in zip(row_labels, rows)]
    print("\n".join(lines))


def _diagnostics_payload(d: DiagnosticsReport) -> dict:
    return {
        "gibbs_deviation": d.gibbs_deviation,
        "fso_slopes": [[e, s] for e, s in d.fso_slopes],
        "directional_derivative_error": d.directional_derivative_error,
        "jensen_gap": d.jensen_gap,
        "density_bounds": list(d.density_bounds),
        "mnl_residual": d.mnl_residual,
        "thresholds": d.thresholds,
        "pass_flags": d.pass_flags,
        "all_passed": d.all_passed,
    }


def _solution_payload(inst, sol) -> dict:
    vertical = inst.alpha * inst.lam * kl_divergence(sol.coupling.marginal_x, inst.phi)
    mutual = inst.lam * mutual_information(sol.coupling)
    return {
        "converged": sol.converged,
        "nu_star": sol.nu_star.weights.tolist(),
        "coupling": sol.coupling.joint,
        "U_star": sol.U_star,
        "f_star": sol.f_star,
        "expected_utility": sol.U_star + vertical + mutual,
        "kappa": vertical + mutual,
        "kappa_vertical": vertical,
        "kappa_mutual_information": mutual,
        "foc_residual": sol.foc_residual,
        "marginal_residual": sol.marginal_residual,
        "duality_gap": sol.duality_gap,
        "outer_iterations": sol.outer_iterations,
    }


def _solve(args, inst):
    sol = full_solve(inst, outer_tol=args.outer_tol, max_iter=args.max_iter)
    diag = run_diagnostics(sol, inst)
    return ({"solution": _solution_payload(inst, sol),
             "diagnostics": _diagnostics_payload(diag)},
            sol.converged and diag.all_passed)


def _show_solve(report, inst) -> None:
    s = report["solution"]
    _print_vector("optimal marginal nu*", inst.characteristic_labels, s["nu_star"])
    _print_matrix("conditional choice probabilities P(x|t)",
                  inst.characteristic_labels, inst.state_labels,
                  s["coupling"] / inst.mu)
    print(f"U* = {_fmt(s['U_star'])}   f* = {_fmt(s['f_star'])}")
    print(f"cost = {_fmt(s['kappa'])} "
          f"(vertical {_fmt(s['kappa_vertical'])}, "
          f"mutual information {_fmt(s['kappa_mutual_information'])})")
    print(f"duality gap = {_fmt(s['duality_gap'])}   "
          f"foc residual = {_fmt(s['foc_residual'])}")
    print(f"diagnostics passed: {report['diagnostics']['all_passed']}")


def _bridge(args, inst):
    def parse(raw):
        weights = np.asarray(raw.get("nu") if isinstance(raw, dict) else raw,
                             dtype=float)
        if weights.shape != (inst.n,):
            raise ValidationError(f"nu must have length {inst.n}")
        return Marginal(weights=weights)

    nu = read_json(args.nu, parse)
    sol = sinkhorn_solve(inst, nu, tol=args.inner_tol, max_iter=args.max_iter)
    return ({
        "nu": nu.weights.tolist(),
        "bridge": {
            "converged": sol.converged,
            "iterations": sol.iterations,
            "value_V": sol.value,
            "marginal_residual": sol.marginal_residual,
            "duality_gap": sol.duality_gap,
            "schrodinger_residual": schrodinger_residual(sol.potentials, nu, inst),
            "gauge": sol.potentials.gauge,
            "a": standard_a(sol.potentials, nu, inst).tolist(),
            "a_scaled": sol.potentials.a_scaled.tolist(),
            "b": sol.potentials.b.tolist(),
            "coupling": sol.coupling.joint,
        },
    }, sol.converged)


def _show_bridge(report, inst) -> None:
    b = report["bridge"]
    _print_vector("potential a(x)", inst.characteristic_labels, b["a"])
    _print_vector("potential b(t)", inst.state_labels, b["b"])
    print(f"V(nu) = {_fmt(b['value_V'])}   iterations = {b['iterations']}")
    print(f"marginal residual = {_fmt(b['marginal_residual'])}   "
          f"duality gap = {_fmt(b['duality_gap'])}")


def _entry(args, base, entrant):
    _check_report_tolerances(args.constancy_tol, args.alpha_tol)  # before solving
    pair = solve_entry_pair(base, entrant, outer_tol=args.outer_tol,
                            max_iter=args.max_iter)
    rep = entry_report(pair, tol=args.constancy_tol, alpha_tol=args.alpha_tol)
    labels = base.characteristic_labels
    return ({
        "constancy_tol": args.constancy_tol,
        "alpha_tol": args.alpha_tol,
        "base_nu": pair.base_solution.nu_star.weights.tolist(),
        "entrant_nu": pair.entrant_solution.nu_star.weights.tolist(),
        "pairs": [
            {"x1": labels[x1], "x2": labels[x2], "deviation": dev,
             "constant": ok, "alpha_hat": a}
            for x1, x2, dev, ok, a in rep.pairs
        ],
        "alpha_median": rep.alpha_median,
        "alpha_spread": rep.alpha_spread,
        "informative_pairs": rep.informative_pairs,
        "passed": rep.passed,
    }, True)


def _show_entry(report, base, entrant) -> None:
    print(f"{'x1':>8} {'x2':>8} {'deviation':>12} {'constant':>9} {'alpha_hat':>12}")
    for row in report["pairs"]:
        a = "-" if row["alpha_hat"] is None else _fmt(row["alpha_hat"])
        print(f"{row['x1']:>8} {row['x2']:>8} {_fmt(row['deviation']):>12} "
              f"{str(row['constant']):>9} {a:>12}")
    med = "-" if report["alpha_median"] is None else _fmt(report["alpha_median"])
    print(f"alpha median = {med}   informative pairs = {report['informative_pairs']}")
    print(f"restrictions passed: {report['passed']}")


def _oracle(args, inst):
    oracle = brute_force_oracle(inst, iterations=args.iterations, seed=args.seed)
    sol = full_solve(inst, outer_tol=args.outer_tol, max_iter=args.max_iter)
    return ({
        "iterations": args.iterations,
        "oracle": {
            "U_oracle": oracle.u_best,
            "U_solver": sol.U_star,
            "difference": sol.U_star - oracle.u_best,
            "marginal_max_diff": float(np.max(np.abs(
                oracle.coupling.marginal_x - sol.nu_star.weights))),
            "start_values": list(oracle.start_values),
        },
        "solution": _solution_payload(inst, sol),
    }, sol.converged)


def _show_oracle(report, inst) -> None:
    o = report["oracle"]
    print(f"U (solver)  = {_fmt(o['U_solver'])}")
    print(f"U (oracle)  = {_fmt(o['U_oracle'])}")
    print(f"difference  = {_fmt(o['difference'])}")
    print(f"max |nu_solver - nu_oracle| = {_fmt(o['marginal_max_diff'])}")


def _diagnose(args, inst):
    if args.coupling:
        P = read_json(args.coupling,
                      lambda raw: Coupling(joint=np.asarray(raw, dtype=float)))
        return ({"diagnostics": {
            "mode": "coupling",
            "gibbs_deviation": gibbs_check(P, inst),
            "jensen_gap": jensen_gap(P, inst),
            "mnl_residual": mnl_residual(P, inst),
            "density_bounds": list(density_bounds(P.marginal_x, inst)),
            "objective": objective_value(P, inst),
            "information_cost": information_cost(P, inst),
        }}, True)
    sol = full_solve(inst, outer_tol=args.outer_tol, max_iter=args.max_iter)
    diag = run_diagnostics(sol, inst)
    return ({"diagnostics": {"mode": "solution", **_diagnostics_payload(diag)}},
            sol.converged and diag.all_passed)


def _show_diagnose(report, inst) -> None:
    for key, value in report["diagnostics"].items():
        print(f"{key}: {value}")


# name -> (help, instance-file options, (flag, argparse keywords) of the other
# inputs, _TUNING keys, body, show).  A body maps (args, *instances) to
# (report body, ok); show prints the report for (report, *instances).  Each
# instance-file option adds "<name>_hash" to the report header.
_COMMANDS = {
    "solve": ("full solve plus diagnostics", ("instance",), (),
              ("outer_tol", "max_iter"), _solve, _show_solve),
    "bridge": (
        "two-marginal solve at a fixed nu", ("instance",),
        (("--nu", dict(required=True, help="JSON file: array or {\"nu\": [...]}")),),
        ("inner_tol", "max_iter"), _bridge, _show_bridge),
    "entry": (
        "entry restrictions and alpha identification", ("instance", "entrant"),
        (("--constancy-tol", dict(type=float, default=1e-6)),
         ("--alpha-tol", dict(type=float, default=1e-4))),
        ("outer_tol", "max_iter"), _entry, _show_entry),
    "oracle": ("brute-force cross-check (n*m <= 12)", ("instance",),
               (("--iterations", dict(type=int, default=3000)),),
               ("outer_tol", "max_iter", "seed"), _oracle, _show_oracle),
    "diagnose": (
        "structural checks on a solution or coupling", ("instance",),
        (("--coupling", dict(help="JSON n x m joint matrix to diagnose as-is")),),
        ("outer_tol", "max_iter"), _diagnose, _show_diagnose),
}


# What a report carries in a "<name>_hash" field until its digest is known:
# the width of a SHA-256 hex digest, and no valid one.
PENDING_HASH = "-" * 64


_CAN_FORK = all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "memfd_create"))


def _pin(cpus) -> None:
    """Restrict the calling thread to ``cpus``; where the kernel refuses (they
    went offline), it keeps running where it may."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)


class _Hashes:
    """Instance hashes of the loaded payloads.  Where this thread may run on
    two or more CPUs, one forked child pinned to the highest CPU of the
    affinity mask computes them into a memfd while the main thread, pinned to
    the other CPUs, runs the command.  Pinning both sides matters: unpinned,
    short-lived children were seen to share the parent's CPU on a 2-vCPU
    machine.  With one CPU, or if no child or memfd can be had, the hashes
    are computed here at once.  Used as a context manager that kills the
    child if it still runs and restores the mask."""

    def __init__(self, raws):
        self._count, self._pid, self._fd, self._mask = len(raws), 0, None, None
        self._digests = None
        cpus = sorted(os.sched_getaffinity(0)) if _CAN_FORK else []
        if len(cpus) > 1:
            try:
                self._fork(raws, cpus)
                return
            except OSError:  # no process or memfd to be had: hash here
                self.close()
        self._digests = [instance_hash(raw) for raw in raws]

    def _fork(self, raws, cpus) -> None:
        self._fd = os.memfd_create("statechar-hash", os.MFD_CLOEXEC)
        self._mask = set(cpus)
        _pin(cpus[:-1])
        with warnings.catch_warnings():
            # Python >= 3.12 warns on fork() in a process with threads, and
            # numpy's BLAS pool counts.  Safe here: the child hashes Python
            # objects into its memfd and calls os._exit, taking no lock and
            # running no BLAS.
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded, use of fork\(\)",
                DeprecationWarning)
            self._pid = os.fork()
        if self._pid == 0:
            code = 1
            try:
                _pin(cpus[-1:])
                with open(self._fd, "w", encoding="ascii", closefd=False) as out:
                    for raw in raws:
                        out.write(instance_hash(raw))
                code = 0
            finally:
                os._exit(code)

    def digests(self) -> list:
        """The hex digests, in load order; waits for the child."""
        if self._digests is None:
            pid, self._pid = self._pid, 0
            status = os.waitpid(pid, 0)[1]
            if status:
                raise OSError(f"process {pid} hashing the instance failed "
                              f"(exit status {os.waitstatus_to_exitcode(status)})")
            text = os.pread(self._fd, 64 * self._count, 0).decode("ascii")
            self.close()
            self._digests = [text[i:i + 64] for i in range(0, len(text), 64)]
        return self._digests

    def close(self) -> None:
        """Kill and reap the child if it was not waited for, close the memfd
        and restore this thread's affinity mask."""
        try:
            if self._pid:
                os.kill(self._pid, signal.SIGKILL)
                os.waitpid(self._pid, 0)
                self._pid = 0
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
        finally:
            if self._mask is not None:
                os.sched_setaffinity(0, self._mask)
                self._mask = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class _ReportFile:
    """The ``--report`` file, opened before the command runs so that a path
    that cannot be opened is an input error before any work.  An existing
    file is truncated only when the report is written; if the command fails
    before the report is complete, a file this run created or truncated is
    removed (a device or pipe never is).  Used as a context manager."""

    def __init__(self, path):
        self.path = path
        try:
            try:
                self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                self._remove = True  # until a report is complete in it
            except FileExistsError:
                self._fd = os.open(path, os.O_WRONLY | os.O_CREAT)
                self._remove = False
        except OSError as exc:
            raise ValidationError(f"{path}: {exc.strerror}") from None

    def write(self, report, keys, hashes) -> None:
        """Write ``report`` with the digests of ``hashes`` in its fields
        ``keys``.  A regular file is written with PENDING_HASH in their
        place, overwritten in place once the digests are known; anything
        else waits for the digests first."""
        regular = stat.S_ISREG(os.fstat(self._fd).st_mode)
        if regular:
            os.ftruncate(self._fd, 0)
            self._remove = True
        else:
            report.update(zip(keys, hashes.digests()))
        with open(self._fd, "w", encoding="utf-8", closefd=False) as fh:
            offsets = _Offsets(fh, json.dumps(PENDING_HASH), len(keys) if regular else 0)
            dumps_canonical(report, offsets)
        if regular:
            digests = hashes.digests()
            for offset, digest in zip(offsets.found, digests):
                os.pwrite(self._fd, digest.encode("ascii"), offset)
            report.update(zip(keys, digests))
        self._remove = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.close(self._fd)
        if self._remove:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.path)
        return False


class _Offsets:
    """A text file's ``write`` that notes the offsets of the first ``count``
    pieces equal to ``quoted``, past its opening quote (canonical text is
    ASCII, so characters are bytes)."""

    def __init__(self, fh, quoted, count):
        self.found, self._fh, self._quoted, self._count, self._pos = [], fh, quoted, count, 0

    def write(self, piece) -> None:
        if len(self.found) < self._count and piece == self._quoted:
            self.found.append(self._pos + 1)
        self._pos += len(piece)
        self._fh.write(piece)


def _open_output(path):
    """``path`` opened for writing text; an OSError is an input error."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror}") from None


def _run(args) -> int:
    _, files, _, tuning, body, show = _COMMANDS[args.command]
    t0 = time.perf_counter()
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(_ReportFile(args.report)) if args.report else None
        insts, raws = zip(*(load_instance(getattr(args, name)) for name in files))
        hashes = stack.enter_context(_Hashes(raws)) if out else None
        del raws  # a hash worker has its own copy
        keys = [f"{name}_hash" for name in files] if out else []
        report = {"command": args.command, "version": __version__, "schema": SCHEMA,
                  **dict.fromkeys(keys, PENDING_HASH)}
        report["flags"] = {key: getattr(args, key) for key in tuning}
        payload, ok = body(args, *insts)
        report.update(payload)
        elapsed = time.perf_counter() - t0
        if args.timings:
            report["timings"] = {"seconds": elapsed}
        if out:
            out.write(report, keys, hashes)
    show(report, *insts)
    print(f"elapsed: {elapsed:.3f} s")
    return EXIT_OK if ok else EXIT_NO_CONVERGENCE


class _Sha256Writer:
    """A text file's ``write`` that also feeds each piece to SHA-256."""

    def __init__(self, fh):
        self._fh, self.sha = fh, hashlib.sha256()

    def write(self, piece) -> None:
        self._fh.write(piece)
        self.sha.update(piece.encode("utf-8"))


def _cmd_gen(args) -> int:
    payload = gen_instance(args.seed, args.n, args.m,
                           u_range=(args.umin, args.umax),
                           alpha=args.alpha, lam=args.lam)
    validate_instance(payload)  # write only what every command accepts
    if args.out:
        with _open_output(args.out) as fh:
            out = _Sha256Writer(fh)
            dumps_canonical(payload, out)
        # gen_instance returns INSTANCE_FIELDS in canonical order, so this is
        # instance_hash(payload) without serializing the payload again.
        print(f"wrote {args.out} (hash {out.sha.hexdigest()[:12]})")
    else:
        dumps_canonical(payload, sys.stdout)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statechar",
        description="Solve and test state-characteristic rational-inattention problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (text, files, options, tuning, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for file in files:
            p.add_argument(f"--{file}", required=True, help=f"{file} JSON file")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        for key in tuning:
            kind, default = _TUNING[key]
            p.add_argument("--" + key.replace("_", "-"), type=kind, default=default)
        p.add_argument("--report", help="write the machine-readable JSON report here")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings in the report "
                            "(makes reports non-reproducible byte-for-byte)")
        p.set_defaults(func=_run)

    p = sub.add_parser("gen", help="generate a pseudo-random instance file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--umin", type=float, default=0.0)
    p.add_argument("--umax", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--lambda", type=float, default=1.0, dest="lam")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, ValidationError) else EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
