"""Numerical checks of the model's structural properties.

Each check maps a coupling (or a solved instance) to a scalar that is zero,
up to stated tolerance, exactly when the corresponding property holds:
constancy of the surprisal on-support (Gibbs), vanishing first-step
orthogonality slopes, the directional-derivative identity, the envelope
inequality, the weighted-MNL form of the conditional, and interior density
bounds of the optimal marginal.  Every check is also expected to come out
strictly positive on documented non-optimal probes; both directions belong
to the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Coupling,
    Marginal,
    ProblemInstance,
    SurprisalMatrix,
    ValidationError,
    mnl_ccp,
    log_partition,
    objective_value,
    surprisal_matrix,
)

__all__ = [
    "DiagnosticsReport",
    "gibbs_check",
    "fso_check",
    "directional_derivative_check",
    "jensen_gap",
    "mnl_residual",
    "density_bounds",
    "product_coupling",
    "run_diagnostics",
]

DEFAULT_EPS_GRID = (1e-2, 1e-3, 1e-4)

# Roundoff of one computed expectation of the surprisal, per unit of its
# magnitude plus one (run_diagnostics).
FSO_ROUNDOFF = 4 * np.finfo(float).eps

DEFAULT_THRESHOLDS = {
    "gibbs": 1e-6,
    "fso_final_slope": 1e-3,
    "directional_derivative": 1e-3,
    "jensen_gap": 1e-8,
    "mnl_residual": 1e-8,
    "density_min": 1e-6,
}


def product_coupling(inst: ProblemInstance) -> Coupling:
    """The zero-information policy phi x mu (always Bayes plausible)."""
    return Coupling(joint=np.outer(inst.phi, inst.mu))


def _check_plausible(H: Coupling, inst: ProblemInstance, name: str) -> None:
    if H.joint.shape != (inst.n, inst.m):
        raise ValidationError(f"{name}: shape mismatch with instance")
    if np.max(np.abs(H.marginal_theta - inst.mu)) > 1e-9:
        raise ValidationError(f"{name}: state marginal does not equal mu")


def _expectation_of_surprisal(weights: Coupling, at: Coupling,
                              inst: ProblemInstance) -> float:
    """sum weights * Y(.; at); requires Y defined wherever weights put mass."""
    return _expectation(weights, surprisal_matrix(at, inst))


def _expectation(weights: Coupling, y: SurprisalMatrix) -> float:
    mass = weights.joint > 0
    if np.any(mass & ~y.defined):
        raise ValidationError("surprisal undefined on a cell carrying probe mass")
    return float(np.sum(weights.joint[mass] * y.values[mass]))


def gibbs_check(P: Coupling, inst: ProblemInstance) -> float:
    """Max over states of the conditional-weighted std of the surprisal.

    Near zero at the optimum (the surprisal is constant wherever the
    conditional puts mass); typically large elsewhere.
    """
    return _gibbs_deviation(P, surprisal_matrix(P, inst), inst)


def _gibbs_deviation(P: Coupling, y: SurprisalMatrix, inst: ProblemInstance) -> float:
    col = P.marginal_theta
    if np.any(col <= 0.0):
        raise ValidationError("gibbs_check: zero-mass state column")
    ccp = P.joint / col[None, :]
    worst = 0.0
    for t in range(inst.m):
        w = ccp[:, t]
        on = w > 0
        vals = y.values[on, t]
        mean = float(np.dot(w[on], vals))
        var = float(np.dot(w[on], (vals - mean) ** 2))
        worst = max(worst, np.sqrt(max(var, 0.0)))
    return worst


def fso_check(P: Coupling, H: Coupling, inst: ProblemInstance,
              eps_list=DEFAULT_EPS_GRID):
    """Slopes |E_P[Y(.; P_eps)] - E_P[Y(.; P)]| / eps along P_eps = (1-eps)P + eps H.

    The one-sided derivative of eps -> E_P[Y(.; P_eps)] is zero for every P,
    so the slopes must shrink as eps decreases.  Returns [(eps, slope), ...]
    in the order given.
    """
    _check_plausible(H, inst, "fso_check probe")
    return _fso_slopes(P, H, inst, eps_list, _expectation_of_surprisal(P, P, inst))


def _fso_slopes(P: Coupling, H: Coupling, inst: ProblemInstance, eps_list,
                base: float):
    """fso_check's slopes, given base = E_P[Y(.; P)]."""
    out = []
    for eps in eps_list:
        if not 0.0 < eps < 1.0:
            raise ValidationError(f"fso_check: eps {eps!r} outside (0, 1)")
        mixed = Coupling(joint=(1.0 - eps) * P.joint + eps * H.joint)
        out.append((float(eps),
                    abs(_expectation_of_surprisal(P, mixed, inst) - base) / eps))
    return out


def directional_derivative_check(P: Coupling, H: Coupling,
                                 inst: ProblemInstance, eps: float) -> float:
    """Error of the first-order expansion of U along the path toward H:

        | [U(P_eps) - U(P)]/eps - lambda * (E_H[Y(.;P)] - E_P[Y(.;P)]) |

    which must vanish linearly in eps.
    """
    _check_plausible(H, inst, "directional probe")
    y = surprisal_matrix(P, inst)
    return _directional_error(P, H, inst, eps, _expectation(H, y) - _expectation(P, y),
                              objective_value(P, inst))


def _directional_error(P: Coupling, H: Coupling, inst: ProblemInstance, eps: float,
                       slope: float, value: float) -> float:
    """directional_derivative_check, given slope = E_H[Y(.; P)] - E_P[Y(.; P)]
    and value = U(P)."""
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"directional_derivative_check: eps {eps!r} outside (0, 1)")
    mixed = Coupling(joint=(1.0 - eps) * P.joint + eps * H.joint)
    fd = (objective_value(mixed, inst) - value) / eps
    return abs(fd - inst.lam * slope)


def jensen_gap(P: Coupling, inst: ProblemInstance) -> float:
    """Envelope slack f(P_x) - U(P) in utils; nonnegative for every coupling."""
    return _jensen_gap(P, inst, objective_value(P, inst))


def _jensen_gap(P: Coupling, inst: ProblemInstance, value: float) -> float:
    f = inst.lam * float(np.dot(inst.mu, log_partition(P.marginal_x, inst)))
    return f - value


def mnl_residual(P: Coupling, inst: ProblemInstance) -> float:
    """Max-norm gap between the conditional of P and the weighted-MNL form
    evaluated at P's own row marginal; zero exactly at the optimum."""
    nu = P.marginal_x
    if np.any(nu <= 0.0):
        raise ValidationError("mnl_residual: zero-mass characteristic row")
    col = P.marginal_theta
    if np.any(col <= 0.0):
        raise ValidationError("mnl_residual: zero-mass state column")
    return float(np.max(np.abs(P.joint / col[None, :]
                               - mnl_ccp(Marginal(weights=nu), inst))))


def density_bounds(nu, inst: ProblemInstance):
    """(min, max) of the density of nu with respect to phi."""
    w = np.asarray(nu, dtype=float)
    ratio = w / inst.phi
    return float(ratio.min()), float(ratio.max())


@dataclass(frozen=True)
class DiagnosticsReport:
    """All checks on one solution, with the thresholds that judged them."""

    gibbs_deviation: float
    fso_slopes: tuple
    directional_derivative_error: float
    jensen_gap: float
    density_bounds: tuple
    mnl_residual: float
    thresholds: dict
    pass_flags: dict

    @property
    def all_passed(self) -> bool:
        return all(self.pass_flags.values())


def run_diagnostics(solution, inst: ProblemInstance) -> DiagnosticsReport:
    """Run every check against a full_solve Solution.

    The perturbation probe is the zero-information product coupling and the
    steps are DEFAULT_EPS_GRID.  Thresholds are recorded in the report itself
    so a serialized report is self-describing.
    """
    thr = dict(DEFAULT_THRESHOLDS)
    H = product_coupling(inst)
    P = solution.coupling
    _check_plausible(H, inst, "fso_check probe")

    # Y(.; P), E_P[Y(.; P)] and U(P) are each computed once and shared; Y is
    # dropped before the probes build their own n x m arrays.
    y = surprisal_matrix(P, inst)
    gibbs = _gibbs_deviation(P, y, inst)
    base = _expectation(P, y)
    slope = _expectation(H, y) - base
    del y
    value = objective_value(P, inst)
    slopes = tuple(_fso_slopes(P, H, inst, DEFAULT_EPS_GRID, base))
    dd_err = _directional_error(P, H, inst, min(DEFAULT_EPS_GRID), slope, value)
    gap = _jensen_gap(P, inst, value)
    bounds = density_bounds(solution.nu_star, inst)
    mnl = mnl_residual(P, inst)

    # A slope |E_eps - E_0| / eps differences two expectations that are each
    # exact to FSO_ROUNDOFF * (1 + |E|): the ratios inside the surprisal's
    # logs round to an ulp of 1.  E_0 = E_P[Y(.; P)] is U*/lambda, and
    # |E_eps| <= |E_0| + eps * slope; two slopes are compared within the sum
    # of their margins.  A fixed slack fails the pure-roundoff slopes of an
    # exact optimum.
    base = abs(solution.U_star / inst.lam)
    ordered = sorted(slopes, reverse=True)
    margin = [FSO_ROUNDOFF * (2.0 + 2.0 * base + e * s) / e for e, s in ordered]
    decay_ok = all(ordered[i][1] >= ordered[i + 1][1] - margin[i] - margin[i + 1]
                   for i in range(len(ordered) - 1))
    flags = {
        "gibbs": bool(gibbs <= thr["gibbs"]),
        "fso": bool(decay_ok and ordered[-1][1] <= thr["fso_final_slope"]),
        "directional_derivative": bool(dd_err <= thr["directional_derivative"]),
        "jensen_gap": bool(-1e-12 <= gap <= thr["jensen_gap"]),
        "mnl_residual": bool(mnl <= thr["mnl_residual"]),
        "density": bool(bounds[0] > thr["density_min"]),
    }
    return DiagnosticsReport(
        gibbs_deviation=gibbs,
        fso_slopes=slopes,
        directional_derivative_error=dd_err,
        jensen_gap=gap,
        density_bounds=bounds,
        mnl_residual=mnl,
        thresholds=thr,
        pass_flags=flags,
    )
