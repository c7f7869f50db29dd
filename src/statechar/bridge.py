"""Inner solver: the optimal policy subject to both marginals being fixed.

Maximizing the objective over couplings with row marginal nu and column
marginal mu is an entropic optimal transport problem: writing U in rescaled
units and pinning the row marginal,

    -U(P) = sum_P [ -u/lambda + alpha*log(nu/phi) ] + KL(P || nu x mu)

(the relative-entropy term enters with a positive sign because the mutual
information equals KL(P || nu x mu) once the row marginal is fixed).  The
optimal coupling is characterized by Schrodinger potentials a(x), b(t):

    P(x, t) = nu(x) * mu(t) * exp(u/lambda - a(x) - b(t)) * (nu(x)/phi(x))^(-alpha)

Substituting the scaled potential a~(x) = a(x) + alpha*log(nu(x)/phi(x))
absorbs the x-only part of the transport cost, so the fixed-point updates are
the plain Sinkhorn pair for the kernel exp(u/lambda):

    exp(b(t))  = sum_x nu(x) * exp(u/lambda - a~(x))
    exp(a~(x)) = sum_t mu(t) * exp(u/lambda - b(t))

They are the two contractions of the instance's Gibbs kernel that the outer
solve uses too (the outer condition g = 1 is the a-equation at a = 0, and
log Z(nu) the b-equation): b = over_x(log nu - a~), a~ = over_t(log mu - b).
A sweep is two matrix-vector products with the cached exp(u/lambda - column
max), or two log-domain sums when the utility span is too wide for that; it
builds no n x m array.  Potentials are in rescaled (u/lambda) units; values
are reported in utils.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (
    ConvergenceError,
    Coupling,
    Marginal,
    ProblemInstance,
    ValidationError,
    _logsumexp,
    objective_value,
)

__all__ = [
    "Potentials",
    "BridgeSolution",
    "sinkhorn_solve",
    "standard_a",
    "schrodinger_residual",
    "dual_value",
    "duality_gap",
    "certificate_gap",
    "constrained_value",
    "envelope_derivative",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000

GAUGE_RAW = "raw"
GAUGE_NU_MEAN_ZERO = "nu-mean-zero"  # sum_x nu(x) a(x) = 0


@dataclass(frozen=True)
class Potentials:
    """Schrodinger dual variables in rescaled-util units.

    ``a_scaled`` is a~(x) = a(x) + alpha*log(nu(x)/phi(x)); ``b`` is b(t).
    ``gauge`` records which translation convention has been applied.
    """

    a_scaled: np.ndarray
    b: np.ndarray
    gauge: str = GAUGE_RAW

    def shifted(self, c: float) -> "Potentials":
        """Translate by (+c, -c); a no-op on every gauge-invariant quantity."""
        return replace(self, a_scaled=self.a_scaled + c, b=self.b - c, gauge=GAUGE_RAW)


@dataclass(frozen=True)
class BridgeSolution:
    """Converged (or best-effort) solution of the two-marginal problem."""

    potentials: Potentials
    coupling: Coupling
    nu: Marginal
    value: float               # V(nu), utils
    marginal_residual: float   # max-norm deviation of coupling marginals
    duality_gap: float         # rescaled-util units; >= 0 up to roundoff
    iterations: int
    converged: bool
    residual_history: tuple


def standard_a(pot: Potentials, nu: Marginal, inst: ProblemInstance) -> np.ndarray:
    """Recover the unscaled potential a(x) = a~(x) - alpha*log(nu(x)/phi(x))."""
    return pot.a_scaled - inst.alpha * np.log(nu.weights / inst.phi)


def _coupling_matrix(pot: Potentials, nu: Marginal, inst: ProblemInstance) -> np.ndarray:
    log_p = (np.log(nu.weights)[:, None] + inst.log_mu[None, :] + inst.utility
             - pot.a_scaled[:, None] - pot.b[None, :])
    return np.exp(log_p)


def sinkhorn_solve(inst: ProblemInstance, nu: Marginal,
                   tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> BridgeSolution:
    """Solve for the optimal coupling with row marginal nu and column marginal mu.

    Alternates the two fixed-point updates until the max-norm marginal
    residual of the implied coupling falls below ``tol``.  After an a~-update
    the coupling of (a~, b) has row marginal nu, and its column t sums to
    mu(t) exp(b'(t) - b(t)) for the next b-update b', so a sweep measures
    that column defect without forming the coupling.  The returned
    potentials are gauge-fixed so that sum_x nu(x) a(x) = 0;
    ``marginal_residual`` is measured on the returned coupling.

    If ``max_iter`` sweeps do not reach ``tol`` the best iterate is returned
    with ``converged=False``.
    """
    if not tol > 0:  # NaN fails too
        raise ValidationError(f"sinkhorn_solve: tol must be > 0, got {tol!r}")
    if not max_iter >= 1:
        raise ValidationError("sinkhorn_solve: max_iter must be >= 1")
    if len(nu) != inst.n:
        raise ValidationError(f"sinkhorn_solve: nu has length {len(nu)}, "
                              f"instance has n={inst.n}")
    kernel = inst._kernel
    log_nu = np.log(nu.weights)

    b_next = kernel.over_x(log_nu)  # the b-update at a~ = 0
    history = []
    for iterations in range(1, int(max_iter) + 1):
        b = b_next
        a_scaled = kernel.over_t(inst.log_mu - b)
        b_next = kernel.over_x(log_nu - a_scaled)
        history.append(float(np.max(inst.mu * np.abs(np.expm1(b_next - b)))))
        if history[-1] <= tol:
            break

    # Gauge: translate so the nu-weighted mean of the unscaled potential is 0.
    a = a_scaled - inst.alpha * (log_nu - inst.log_phi)
    shift = float(np.dot(nu.weights, a))
    pot = Potentials(a_scaled=a_scaled - shift, b=b + shift, gauge=GAUGE_NU_MEAN_ZERO)

    coupling = Coupling(joint=_coupling_matrix(pot, nu, inst))
    residual = max(float(np.max(np.abs(coupling.marginal_x - nu.weights))),
                   float(np.max(np.abs(coupling.marginal_theta - inst.mu))))
    value = inst.lam * (float(np.dot(nu.weights, standard_a(pot, nu, inst)))
                        + float(np.dot(inst.mu, pot.b)))
    sol = BridgeSolution(
        potentials=pot,
        coupling=coupling,
        nu=nu,
        value=value,
        marginal_residual=residual,
        duality_gap=0.0,
        iterations=iterations,
        converged=residual <= tol,
        residual_history=tuple(history),
    )
    return replace(sol, duality_gap=duality_gap(sol, inst))


def schrodinger_residual(pot: Potentials, nu: Marginal, inst: ProblemInstance) -> float:
    """Max log-domain violation of the two fixed-point equations.

    Zero (up to floating error) exactly when (a, b) are Schrodinger
    potentials; invariant under translating the pair by (+c, -c).
    """
    kernel = inst._kernel
    res_a = pot.a_scaled - kernel.over_t(inst.log_mu - pot.b)
    res_b = pot.b - kernel.over_x(np.log(nu.weights) - pot.a_scaled)
    return max(float(np.max(np.abs(res_a))), float(np.max(np.abs(res_b))))


def dual_value(pot: Potentials, nu: Marginal, inst: ProblemInstance) -> float:
    """Dual objective at (a, b), in rescaled-util units:

        sum_x a dnu + sum_t b dmu + sumsum exp(u/lambda - a - b) dphi^alpha dnu^(1-alpha) dmu - 1

    Upper-bounds the constrained value for any potentials; equals it at the
    true ones.  The double sum is the mu-weighted sum over states of
    exp(over_x(log nu - a~) - b), evaluated in the log domain.
    """
    a = standard_a(pot, nu, inst)
    log_mass = _logsumexp(inst.log_mu - pot.b
                          + inst._kernel.over_x(np.log(nu.weights) - pot.a_scaled))
    return (float(np.dot(nu.weights, a)) + float(np.dot(inst.mu, pot.b))
            + float(np.exp(log_mass)) - 1.0)


def _ratio(target: np.ndarray, current: np.ndarray) -> np.ndarray:
    """target / current, and +inf where current is 0 (an empty row or column,
    e.g. one whose every cell underflowed), without a divide warning."""
    return np.divide(target, current, out=np.full_like(target, np.inf),
                     where=current > 0.0)


def _round_to_marginals(joint: np.ndarray, row: np.ndarray,
                        col: np.ndarray) -> np.ndarray:
    """Smallest adjustment of a nonnegative matrix onto exact marginals.

    Scales rows then columns down where they overshoot, then spreads the
    remaining deficit as a rank-one patch.  Leaves matrices that already have
    the target marginals untouched.  After the scalings every deficit is
    nonnegative in exact arithmetic (Altschuler, Weed and Rigollet 2017,
    Alg. 2); the roundoff that leaves one slightly negative is clipped, or
    the patch could push a cell below zero.
    """
    x = joint * np.minimum(1.0, _ratio(row, joint.sum(axis=1)))[:, None]
    x = x * np.minimum(1.0, _ratio(col, x.sum(axis=0)))[None, :]
    def_row = np.maximum(row - x.sum(axis=1), 0.0)
    def_col = np.maximum(col - x.sum(axis=0), 0.0)
    deficit = def_row.sum()
    if deficit > 0.0:
        x = x + np.outer(def_row, def_col) / deficit
    return x


def certificate_gap(pot: Potentials, coupling: Coupling, nu: Marginal,
                    inst: ProblemInstance) -> float:
    """Dual value minus primal objective at the marginal-rounded coupling.

    Rounding makes the primal point feasible for the constrained problem, so
    weak duality keeps the gap nonnegative up to roundoff for *any*
    potentials, converged or not.  The raw structure-equation coupling would
    not certify: its marginal defect can push its unconstrained objective
    above V(nu).
    """
    rounded = Coupling(joint=_round_to_marginals(coupling.joint,
                                                 nu.weights, inst.mu))
    primal = objective_value(rounded, inst) / inst.lam
    return dual_value(pot, nu, inst) - primal


def duality_gap(sol: BridgeSolution, inst: ProblemInstance) -> float:
    """Convergence certificate for a bridge solution (rescaled units)."""
    return certificate_gap(sol.potentials, sol.coupling, sol.nu, inst)


def constrained_value(nu: Marginal, inst: ProblemInstance,
                      tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> float:
    """V(nu): the best objective (utils) among couplings with marginals (nu, mu)."""
    sol = sinkhorn_solve(inst, nu, tol=tol, max_iter=max_iter)
    if not sol.converged:
        raise ConvergenceError(f"bridge solve stalled at residual "
                               f"{sol.marginal_residual!r} after {sol.iterations} sweeps")
    return sol.value


def envelope_derivative(nu: Marginal, x: int, inst: ProblemInstance,
                        eps: float,
                        tol: float = DEFAULT_TOL,
                        max_iter: int = DEFAULT_MAX_ITER):
    """Two estimates (utils) of the rate of increase of V when mixing mass toward x.

    Returns ``(finite_difference, potential_prediction)`` where the first is
    [V((1-eps)*nu + eps*delta_x) - V(nu)] / eps and the second is the envelope
    prediction lambda * (a(x) - sum_x a dnu) from the potentials at nu (the
    gauge makes the centering term vanish).  The two agree up to O(eps).
    """
    if not eps > 0:  # NaN fails too
        raise ValidationError("envelope_derivative: eps must be > 0")
    sol = sinkhorn_solve(inst, nu, tol=tol, max_iter=max_iter)
    if not sol.converged:
        raise ConvergenceError("envelope_derivative: base solve did not converge")
    a = standard_a(sol.potentials, nu, inst)
    prediction = inst.lam * float(a[x] - np.dot(nu.weights, a))

    bumped = (1.0 - eps) * nu.weights.copy()
    bumped[x] += eps
    v_eps = constrained_value(Marginal(weights=bumped), inst, tol=tol, max_iter=max_iter)
    return (v_eps - sol.value) / eps, prediction
