"""The benchmark's own check of each written report.

A solve report passes when its coupling is Bayes plausible and a certified
bound on its suboptimality is within 10x the solve tolerance.  With
f(nu) = lambda * E_mu[log Z(t; nu)] concave and f >= U, and with the
gradient of f / lambda equal to (1 - alpha) * g(x; nu), every nu gives

    max U - U(P) <= lambda * [ (f(nu) - U(P)) / lambda
                               + (1 - alpha) * max(0, max_x g(x; nu) - 1) ]

so the bracket, in rescaled units, certifies the (nu*, P*) read back from the
report without trusting any number the report states about itself.

A bridge report passes when its coupling is nonnegative, has marginals
(nu, mu) within 10x the tolerance, equals the Schrodinger form built from the
reported potentials, and the reported duality gap is not negative.
"""

from __future__ import annotations

import json

import numpy as np

from statechar.model import Coupling, Marginal, ValidationError, objective_value
from statechar.optimize import foc_multiplier, jensen_envelope

GAP_FLOOR = -1e-12


def suboptimality_bound(nu: np.ndarray, joint: np.ndarray, inst) -> float:
    """Certified bound on max U - U(P), in rescaled (u / lambda) units."""
    marginal = Marginal(weights=nu)
    f = jensen_envelope(marginal, inst)
    u = objective_value(Coupling(joint=joint), inst)
    g = foc_multiplier(marginal, inst)
    return (f - u) / inst.lam + (1.0 - inst.alpha) * max(0.0, float(g.max()) - 1.0)


def check_solve(report: dict, inst, tol: float) -> str | None:
    """None when the solve report is certified optimal, else the reason."""
    sol = report["solution"]
    joint = np.asarray(sol["coupling"], dtype=float)
    if joint.shape != (inst.n, inst.m) or joint.min() < 0.0:
        return "coupling has the wrong shape or a negative entry"
    col = float(np.max(np.abs(joint.sum(axis=0) - inst.mu)))
    if col > 10.0 * tol:
        return f"coupling column sums miss mu by {col:.3g}"
    try:
        bound = suboptimality_bound(np.asarray(sol["nu_star"], dtype=float), joint, inst)
    except ValidationError as exc:
        return f"report does not parse as a solution: {exc}"
    if not bound <= 10.0 * tol:
        return f"suboptimality bound {bound:.3g} exceeds {10.0 * tol:.3g}"
    return None


def check_bridge(report: dict, inst, nu: np.ndarray, tol: float) -> str | None:
    """None when the bridge report is a converged, certified solution."""
    b = report["bridge"]
    if report["nu"] != nu.tolist():
        return "report nu differs from the nu given"
    joint = np.asarray(b["coupling"], dtype=float)
    if joint.shape != (inst.n, inst.m) or joint.min() < 0.0:
        return "coupling has the wrong shape or a negative entry"
    if not b["marginal_residual"] <= tol:
        return f"reported marginal residual {b['marginal_residual']:.3g} exceeds {tol:.3g}"
    residual = max(float(np.max(np.abs(joint.sum(axis=1) - nu))),
                   float(np.max(np.abs(joint.sum(axis=0) - inst.mu))))
    if residual > 10.0 * tol:
        return f"coupling marginals miss (nu, mu) by {residual:.3g}"
    form = np.exp(np.log(nu)[:, None] + np.log(inst.mu)[None, :] + inst.utility
                  - np.asarray(b["a_scaled"])[:, None] - np.asarray(b["b"])[None, :])
    mismatch = float(np.max(np.abs(joint - form)))
    if mismatch > 10.0 * tol:
        return f"coupling differs from the potentials' coupling by {mismatch:.3g}"
    if not b["duality_gap"] >= GAP_FLOOR:
        return f"duality gap {b['duality_gap']:.3g} is negative"
    return None


def check_report(path: str, op: dict, inst, tol: float) -> str | None:
    """Check one written report against the instance it was run on."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("command") != op["command"] or report.get("instance_hash") != op["hash"]:
        return "report is for another command or instance"
    if op["command"] == "solve":
        return check_solve(report, inst, tol)
    with open(op["nu"], "r", encoding="utf-8") as fh:
        nu = np.asarray(json.load(fh)["nu"], dtype=float)
    return check_bridge(report, inst, nu, tol)
