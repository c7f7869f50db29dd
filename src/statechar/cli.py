"""Batch front end.

Commands: solve, bridge, entry, oracle, diagnose, gen.  The five instance
commands run through one skeleton, ``_run``: each supplies only its report
body, its stdout rendering and its ok/not-ok outcome, and declares only the
options it reads; the report's ``flags`` echo its tuning options.  Machine
reports are written to ``--report`` as canonical JSON (fixed field order, 17
significant digits); human tables on stdout are rendered from the same report
dict, never computed separately.  Exit codes: 0 success, 2 input error, 3
non-convergence.

Reports are byte-identical across runs for fixed inputs and seeds; wall-clock
timings are added only on request (``--timings``) since they would break that
guarantee.  Library functions are looked up in this module's namespace at call
time, so that a tracer can swap timing wrappers in for them.
"""

from __future__ import annotations

import argparse
import sys
import time

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
)
from .optimize import brute_force_oracle, full_solve

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3

# Tuning options by report key.  A command's report echoes the ones it
# declares as "flags"; every command declares them in this order.
_TUNING = {"outer_tol": (float, 1e-10), "inner_tol": (float, 1e-10),
           "max_iter": (int, 100_000), "seed": (int, 0)}


def _fmt(x) -> str:
    return f"{x:.8g}"


def _print_vector(name, labels, values) -> None:
    print(f"{name}:")
    for lab, v in zip(labels, values):
        print(f"  {lab:>8}  {_fmt(v)}")


def _print_matrix(name, row_labels, col_labels, rows) -> None:
    print(f"{name}:")
    head = " ".join(f"{c:>12}" for c in col_labels)
    print(f"  {'':>8} {head}")
    for lab, row in zip(row_labels, rows):
        body = " ".join(f"{_fmt(v):>12}" for v in row)
        print(f"  {lab:>8} {body}")


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
        "ccp": sol.ccp.tolist(),
        "coupling": sol.coupling.joint.tolist(),
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
                  inst.characteristic_labels, inst.state_labels, s["ccp"])
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
            "coupling": sol.coupling.joint.tolist(),
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


def _run(args) -> int:
    _, files, _, tuning, body, show = _COMMANDS[args.command]
    t0 = time.perf_counter()
    loaded = [load_instance(getattr(args, name)) for name in files]
    report = {"command": args.command, "version": __version__}
    for name, (_, raw) in zip(files, loaded):
        report[f"{name}_hash"] = instance_hash(raw)
    report["flags"] = {key: getattr(args, key) for key in tuning}
    insts = [inst for inst, _ in loaded]
    payload, ok = body(args, *insts)
    report.update(payload)
    elapsed = time.perf_counter() - t0
    if args.timings:
        report["timings"] = {"seconds": elapsed}
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(report))
    show(report, *insts)
    print(f"elapsed: {elapsed:.3f} s")
    return EXIT_OK if ok else EXIT_NO_CONVERGENCE


def _cmd_gen(args) -> int:
    payload = gen_instance(args.seed, args.n, args.m,
                           u_range=(args.umin, args.umax),
                           alpha=args.alpha, lam=args.lam)
    text = dumps_canonical(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} (hash {instance_hash(payload)[:12]})")
    else:
        sys.stdout.write(text)
    return EXIT_OK


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
