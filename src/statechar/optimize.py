"""Outer solver: maximize the Jensen envelope over the simplex, then assemble.

The envelope f(nu) = E_mu[log Z(theta; nu)] is strictly concave for
alpha in (0, 1), upper-bounds the objective, and shares its maximizer with it.
Its interior first-order condition is g(x; nu) = 1 for the multiplier

    g(x; nu) = sum_t mu(t) * phi(x)^alpha * nu(x)^(-alpha) * exp(u/lambda) / Z(t; nu)

which satisfies sum_x nu(x) g(x; nu) = 1 identically, so the damped
multiplicative update nu <- normalize(nu * g^eta) is a fixed-point iteration
of Blahut-Arimoto type that preserves strict positivity.  At the optimum the
coupling assembles in closed form: a = 0 and b(t) = log Z(t; nu*) are valid
dual potentials, giving P = mu(t) * mnl_ccp(nu*).

For alpha = 1 the envelope does not depend on nu and the problem separates
state by state; the Maxwell-Boltzmann conditional phi * exp(u/lambda) / Z is
optimal and nu* is its row marginal under mu.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import bridge
from .model import (
    Coupling,
    Marginal,
    ProblemInstance,
    ValidationError,
    coupling_from_marginal,
    log_partition,
    mnl_ccp,
    objective_value,
)

__all__ = [
    "OuterResult",
    "Solution",
    "OracleResult",
    "jensen_envelope",
    "foc_multiplier",
    "outer_solve",
    "full_solve",
    "maxwell_boltzmann_ccp",
    "brute_force_oracle",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
ORACLE_MAX_CELLS = 12


def _f_norm(weights: np.ndarray, inst: ProblemInstance) -> float:
    return float(np.dot(inst.mu, log_partition(weights, inst)))


def jensen_envelope(nu: Marginal, inst: ProblemInstance) -> float:
    """f(nu) = lambda * E_mu[log Z(theta; nu)], in utils.

    Upper-bounds objective_value over all couplings with row marginal nu;
    coincides with it at the mutual optimum.
    """
    return inst.lam * _f_norm(nu.weights, inst)


def foc_multiplier(nu: Marginal, inst: ProblemInstance, *,
                   log_z: np.ndarray | None = None) -> np.ndarray:
    """First-order multiplier g(.; nu); g = 1 at the optimal marginal.

    Always satisfies sum_x nu(x) g(x) = 1 exactly (up to roundoff).
    ``log_z``, when given, must be ``log_partition(nu.weights, inst)``; it
    saves recomputing the partition function.  g is assembled in the log
    domain, so a tiny nu cannot overflow a factor while g itself is finite.
    """
    if log_z is None:
        log_z = log_partition(nu.weights, inst)
    log_ratio = inst.alpha * (inst.log_phi - np.log(nu.weights))
    return np.exp(log_ratio + inst._kernel.over_t(inst.log_mu - log_z))


@dataclass(frozen=True)
class OuterResult:
    nu: Marginal
    foc_residual: float     # max |g - 1|
    f_value: float          # utils
    iterations: int
    converged: bool


def _maxwell_boltzmann_marginal(inst: ProblemInstance) -> Marginal:
    joint = maxwell_boltzmann_ccp(inst) * inst.mu[None, :]
    return Marginal(weights=joint.sum(axis=1))


def maxwell_boltzmann_ccp(inst: ProblemInstance) -> np.ndarray:
    """Closed-form conditional phi * exp(u/lambda) / Z; optimal when alpha = 1.

    This is mnl_ccp at alpha = 1, where the marginal drops out.
    """
    if inst.alpha != 1.0:
        inst = replace(inst, alpha=1.0)
    return mnl_ccp(Marginal(weights=inst.phi), inst)


def outer_solve(inst: ProblemInstance,
                tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER,
                start: Marginal | None = None) -> OuterResult:
    """Maximize the Jensen envelope over strictly positive marginals.

    Iterates nu <- normalize(nu * g^eta) from nu0 = phi (or ``start``) with
    eta = 1.  A step that decreases f is rejected and retried with eta
    halved, so f is non-decreasing along the accepted sequence.  Stops when
    max |g - 1| <= tol; on max_iter exhaustion the best iterate is returned
    flagged ``converged=False``.

    Each iteration contracts the instance's Gibbs kernel twice: log Z at the
    candidate (which gives f) and g at the accepted iterate, reusing that
    candidate's log Z.  Below the span bound of ``log_partition`` both are
    one matrix-vector product with the cached exp(u/lambda - column max);
    otherwise both run in the log domain.

    alpha = 1 is routed to the closed form (f is constant in nu there).
    """
    if not tol > 0:  # NaN fails too
        raise ValidationError(f"outer_solve: tol must be > 0, got {tol!r}")

    if inst.alpha == 1.0:
        nu = _maxwell_boltzmann_marginal(inst)
        res = float(np.max(np.abs(foc_multiplier(nu, inst) - 1.0)))
        return OuterResult(nu=nu, foc_residual=res,
                           f_value=inst.lam * _f_norm(nu.weights, inst),
                           iterations=0, converged=True)

    w = inst.phi.copy() if start is None else start.weights.copy()
    log_z = log_partition(w, inst)
    f_cur = float(np.dot(inst.mu, log_z))
    residual = np.inf
    iterations = 0
    converged = False
    for iterations in range(1, int(max_iter) + 1):
        g = foc_multiplier(Marginal(weights=w), inst, log_z=log_z)
        residual = float(np.max(np.abs(g - 1.0)))
        if residual <= tol:
            converged = True
            break
        eta = 1.0
        for _ in range(60):
            cand = w * g ** eta
            cand /= cand.sum()
            cand_log_z = log_partition(cand, inst)
            f_cand = float(np.dot(inst.mu, cand_log_z))
            if f_cand >= f_cur - 1e-15 * (1.0 + abs(f_cur)):
                break
            eta *= 0.5  # monotone safeguard: reject f-decreasing steps
        w, log_z, f_cur = cand, cand_log_z, f_cand
    return OuterResult(nu=Marginal(weights=w), foc_residual=residual,
                       f_value=inst.lam * f_cur,
                       iterations=iterations, converged=converged)


@dataclass(frozen=True)
class Solution:
    """Global optimum of the decision problem, with solver diagnostics."""

    nu_star: Marginal
    coupling: Coupling
    ccp: np.ndarray
    U_star: float              # utils
    f_star: float              # utils
    foc_residual: float
    marginal_residual: float   # row-marginal consistency of the assembled coupling
    duality_gap: float         # rescaled-util units
    outer_iterations: int
    inner_diagnostics: tuple   # BridgeSolution summaries when the bridge path is used
    converged: bool


def full_solve(inst: ProblemInstance,
               outer_tol: float = DEFAULT_TOL,
               inner_tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER,
               verify_with_bridge: bool = False) -> Solution:
    """Solve the decision problem end to end.

    Runs the outer fixed point, then assembles the optimal coupling in closed
    form from nu*: with a = 0 and b(t) = log Z(t; nu*) the structure equation
    gives P = mu(t) * mnl_ccp(nu*).  The assembled potentials also yield a
    duality-gap certificate without re-running the bridge.  ``converged`` is
    set only if the outer loop converged and both consistency checks pass:
    |f* - U*| and the row-marginal residual within 10x the outer tolerance.

    With ``verify_with_bridge`` a full Sinkhorn solve at nu* is attached to
    ``inner_diagnostics`` as an independent cross-check.
    """
    outer = outer_solve(inst, tol=outer_tol, max_iter=max_iter)
    nu_star = outer.nu
    ccp = mnl_ccp(nu_star, inst)
    coupling, row_residual = coupling_from_marginal(nu_star, inst)
    u_star = objective_value(coupling, inst)
    f_star = outer.f_value

    a_scaled = inst.alpha * (np.log(nu_star.weights) - inst.log_phi)  # a = 0
    pot = bridge.Potentials(a_scaled=a_scaled,
                            b=log_partition(nu_star.weights, inst),
                            gauge=bridge.GAUGE_NU_MEAN_ZERO)
    gap = bridge.certificate_gap(pot, coupling, nu_star, inst)

    inner = ()
    if verify_with_bridge:
        inner = (bridge.sinkhorn_solve(inst, nu_star, tol=inner_tol, max_iter=max_iter),)

    consistent = (abs(f_star - u_star) / inst.lam <= 10.0 * outer_tol
                  and row_residual <= 10.0 * outer_tol)
    return Solution(
        nu_star=nu_star,
        coupling=coupling,
        ccp=ccp,
        U_star=u_star,
        f_star=f_star,
        foc_residual=outer.foc_residual,
        marginal_residual=row_residual,
        duality_gap=gap,
        outer_iterations=outer.iterations,
        inner_diagnostics=inner,
        converged=outer.converged and consistent,
    )


# --- brute-force oracle ----------------------------------------------------

def _project_columns(q: np.ndarray) -> np.ndarray:
    """Euclidean projection of each column onto the probability simplex."""
    n = q.shape[0]
    srt = np.sort(q, axis=0)[::-1]
    csum = np.cumsum(srt, axis=0) - 1.0
    idx = np.arange(1, n + 1)[:, None]
    cond = srt - csum / idx > 0
    rho = n - 1 - np.argmax(cond[::-1], axis=0)
    theta = csum[rho, np.arange(q.shape[1])] / (rho + 1.0)
    return np.maximum(q - theta[None, :], 0.0)


def _oracle_objective(q: np.ndarray, inst: ProblemInstance) -> float:
    # Rescaled units; q holds one conditional per column, P = mu * q.
    rho = q @ inst.mu
    with np.errstate(divide="ignore", invalid="ignore"):
        q_log_q = np.where(q > 0, q * np.log(np.where(q > 0, q, 1.0)), 0.0)
        rho_log_rho = np.where(rho > 0, rho * np.log(np.where(rho > 0, rho, 1.0)), 0.0)
    expected_u = float(((q * inst.utility) @ inst.mu).sum())
    return (expected_u
            - float(np.dot(q_log_q.sum(axis=0), inst.mu))
            + (1.0 - inst.alpha) * float(rho_log_rho.sum())
            + inst.alpha * float(np.dot(rho, inst.log_phi)))


def _oracle_gradient(q: np.ndarray, inst: ProblemInstance) -> np.ndarray:
    floor = 1e-300
    rho = q @ inst.mu
    log_q = np.log(np.maximum(q, floor))
    log_rho = np.log(np.maximum(rho, floor))
    return inst.mu[None, :] * (inst.utility - log_q
                               + (1.0 - inst.alpha) * log_rho[:, None]
                               + inst.alpha * inst.log_phi[:, None]
                               - inst.alpha)


def _verify_gradient(q: np.ndarray, inst: ProblemInstance) -> None:
    # The ascent direction is only trusted after a finite-difference audit.
    h = 1e-6
    grad = _oracle_gradient(q, inst)
    for x in range(q.shape[0]):
        for t in range(q.shape[1]):
            qp = q.copy(); qp[x, t] += h
            qm = q.copy(); qm[x, t] -= h
            fd = (_oracle_objective(qp, inst) - _oracle_objective(qm, inst)) / (2 * h)
            if abs(fd - grad[x, t]) > 1e-5 * (1.0 + abs(fd)):
                raise RuntimeError(f"oracle gradient check failed at cell ({x}, {t}): "
                                   f"analytic {grad[x, t]!r} vs finite diff {fd!r}")


@dataclass(frozen=True)
class OracleResult:
    u_best: float        # utils
    coupling: Coupling
    start_values: tuple  # best objective reached from each start, utils


def brute_force_oracle(inst: ProblemInstance,
                       iterations: int = 3000,
                       seed: int = 0,
                       extra_starts: tuple = ()) -> OracleResult:
    """Directly maximize the objective over Bayes-plausible couplings.

    Parameterizes the conditional P(.|theta) of each state as a point on the
    simplex and runs multi-start projected gradient ascent with backtracking
    line search; the analytic gradient is finite-difference verified at the
    first interior start.  Deterministic for a fixed seed.  Guarded to
    n * m <= 12 cells.

    The objective is concave in the conditionals (the cost is convex in the
    joint and the joint is linear in them), so ascent finds the global
    optimum; multiple starts are retained as a safety net.
    """
    if not iterations >= 1:
        raise ValidationError(f"brute_force_oracle: iterations must be >= 1, "
                              f"got {iterations!r}")
    if inst.n * inst.m > ORACLE_MAX_CELLS:
        raise ValidationError(f"brute_force_oracle: {inst.n * inst.m} cells "
                              f"exceed the desk-scale guard ({ORACLE_MAX_CELLS})")
    rng = np.random.default_rng(seed)
    starts = [np.tile(inst.phi[:, None], (1, inst.m))]
    for _ in range(3):
        draw = rng.gamma(1.0, 1.0, size=(inst.n, inst.m))
        starts.append(draw / draw.sum(axis=0, keepdims=True))
    starts.extend(np.array(s, dtype=float) for s in extra_starts)

    _verify_gradient(starts[0], inst)

    best_q = None
    best_val = -np.inf
    start_values = []
    for q in starts:
        q = _project_columns(q)
        val = _oracle_objective(q, inst)
        step = 0.5
        stall = 0
        for _ in range(int(iterations)):
            grad = _oracle_gradient(q, inst)
            improved = False
            for _ in range(40):
                cand = _project_columns(q + step * grad)
                cand_val = _oracle_objective(cand, inst)
                if cand_val > val:
                    q, val = cand, cand_val
                    improved = True
                    step *= 1.3
                    break
                step *= 0.5
            if not improved:
                stall += 1
                step = max(step, 1e-12)
                if stall >= 3:
                    break
            else:
                stall = 0
        start_values.append(inst.lam * val)
        if val > best_val:
            best_val, best_q = val, q
    joint = best_q * inst.mu[None, :]
    return OracleResult(u_best=inst.lam * best_val,
                        coupling=Coupling(joint=joint / joint.sum()),
                        start_values=tuple(start_values))
