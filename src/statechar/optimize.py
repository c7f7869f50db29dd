"""Outer solver: maximize the Jensen envelope over the simplex, then assemble.

The envelope f(nu) = E_mu[log Z(theta; nu)] is strictly concave for
alpha in (0, 1), upper-bounds the objective, and shares its maximizer with it.
Its interior first-order condition is g(x; nu) = 1 for the multiplier

    g(x; nu) = sum_t mu(t) * phi(x)^alpha * nu(x)^(-alpha) * exp(u/lambda) / Z(t; nu)

which satisfies sum_x nu(x) g(x; nu) = 1 identically, so the multiplicative
update nu <- normalize(nu * g^eta) is a fixed-point iteration of
Blahut-Arimoto type that preserves strict positivity.  The gradient of f / lambda
is (1 - alpha) * g, so by concavity the Frank-Wolfe gap

    (1 - alpha) * max(0, max_x g(x; nu) - 1)

bounds f(nu*) - f(nu) in rescaled units (Jaggi, ICML 2013).  The outer loop
over-relaxes the step (eta up to 1/alpha; Matz and Duhamel, ITW 2004), keeps
a long step only while that gap shrinks, and stops once the gap is within
tolerance.  At the optimum the coupling assembles in closed form: a = 0 and
b(t) = log Z(t; nu*) are valid dual potentials, giving P = mu(t) * mnl_ccp(nu*).

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


def foc_multiplier(nu: Marginal | np.ndarray, inst: ProblemInstance, *,
                   log_z: np.ndarray | None = None) -> np.ndarray:
    """First-order multiplier g(.; nu); g = 1 at the optimal marginal.

    ``nu`` is a Marginal or its weights (strictly positive, summing to 1; a
    raw array is not validated again).  Always satisfies
    sum_x nu(x) g(x) = 1 exactly (up to roundoff).  ``log_z``, when given,
    must be ``log_partition(weights, inst)``; it saves recomputing the
    partition function.  g is assembled in the log domain, so a tiny nu cannot
    overflow a factor while g itself is finite.
    """
    weights = np.asarray(nu, dtype=float)
    if log_z is None:
        log_z = log_partition(weights, inst)
    log_ratio = inst.alpha * (inst.log_phi - np.log(weights))
    return np.exp(log_ratio + inst._kernel.over_t(inst.log_mu - log_z))


def _fw_gap(g: np.ndarray, inst: ProblemInstance) -> float:
    """Frank-Wolfe gap (1 - alpha) * max(0, max g - 1): a certified bound on
    f(nu*) - f(nu) in rescaled units, since grad f / lambda = (1 - alpha) g
    and <nu, g> = 1."""
    return (1.0 - inst.alpha) * max(0.0, float(g.max()) - 1.0)


@dataclass(frozen=True)
class OuterResult:
    nu: Marginal
    foc_residual: float     # max |g - 1|
    fw_gap: float           # (1 - alpha) * max(0, max g - 1), rescaled units
    f_value: float          # utils
    iterations: int
    converged: bool         # fw_gap <= tol


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


def _step(w: np.ndarray, g: np.ndarray, eta: float, inst: ProblemInstance):
    """The candidate normalize(w * g^eta), its log Z and f / lambda.

    Formed in the log domain, so g^eta cannot overflow at eta = 1/alpha.
    A weight that underflows to 0 leaves the candidate on the boundary,
    where f has no gradient; it is returned and the caller rejects it.
    """
    log_c = np.log(w) + eta * np.log(g)
    cand = np.exp(log_c - log_c.max())
    cand /= cand.sum()
    log_z = log_partition(cand, inst)
    return cand, log_z, float(np.dot(inst.mu, log_z))


def outer_solve(inst: ProblemInstance,
                tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER,
                start: Marginal | None = None) -> OuterResult:
    """Maximize the Jensen envelope over strictly positive marginals.

    Iterates nu <- normalize(nu * g^eta) from nu0 = phi (or ``start``).  Each
    iteration first tries the long step eta = min(2 * eta_prev, 1/alpha),
    with eta_prev = 1 at the start, and keeps it only if f does not drop
    (beyond 1e-15 relative roundoff) and the Frank-Wolfe gap
    (1 - alpha) * max(0, max g - 1) at the candidate is smaller than at the
    current iterate; eta_prev becomes that eta.  Otherwise it takes the
    plain step eta = 1, halved until f does not drop, and sets
    eta_prev = max(1, eta_prev / 4).  So f is non-decreasing along the
    iterates.  The loop stops when the gap is at most ``tol``: that gap
    certifies f(nu*) - f(nu) <= lambda * tol, and ``converged`` means
    exactly that.  On max_iter exhaustion the last iterate is returned with
    ``converged=False``.  ``foc_residual`` is max |g - 1| at the returned
    nu; near a tiny alpha it can exceed ``tol`` where nu has little mass
    (there g < 1 and the gap does not see it).

    An accepted long step costs two contractions of the instance's Gibbs
    kernel (log Z, then g at the candidate, which the next iteration reuses);
    a rejected one costs two more.  Below the span bound of
    ``log_partition`` each contraction is one matrix-vector product with the
    cached exp(u/lambda - column max); otherwise it runs in the log domain.

    alpha = 1 is routed to the closed form (f is constant in nu there).
    """
    if not tol > 0:  # NaN fails too
        raise ValidationError(f"outer_solve: tol must be > 0, got {tol!r}")

    if inst.alpha == 1.0:
        nu = _maxwell_boltzmann_marginal(inst)
        res = float(np.max(np.abs(foc_multiplier(nu, inst) - 1.0)))
        return OuterResult(nu=nu, foc_residual=res, fw_gap=0.0,
                           f_value=inst.lam * _f_norm(nu.weights, inst),
                           iterations=0, converged=True)

    def kept(cand, f_cand):  # the monotone safeguard, on an interior candidate
        return cand.min() > 0.0 and f_cand >= f_cur - 1e-15 * (1.0 + abs(f_cur))

    w = inst.phi.copy() if start is None else start.weights.copy()
    log_z = log_partition(w, inst)
    f_cur = float(np.dot(inst.mu, log_z))
    g = foc_multiplier(w, inst, log_z=log_z)
    gap = _fw_gap(g, inst)
    eta_max = 1.0 / inst.alpha
    eta_prev = 1.0
    iterations = 0
    for iterations in range(1, int(max_iter) + 1):
        if gap <= tol:
            break
        eta = min(2.0 * eta_prev, eta_max)
        cand, cand_log_z, f_cand = _step(w, g, eta, inst)
        if kept(cand, f_cand):
            cand_g = foc_multiplier(cand, inst, log_z=cand_log_z)
            cand_gap = _fw_gap(cand_g, inst)
            if cand_gap < gap:
                w, f_cur, g, gap, eta_prev = cand, f_cand, cand_g, cand_gap, eta
                continue
        eta = 1.0
        for _ in range(60):
            cand, cand_log_z, f_cand = _step(w, g, eta, inst)
            if kept(cand, f_cand):
                break
            eta *= 0.5
        else:
            break  # even the shortest step drops f or a weight: stop here
        w, f_cur = cand, f_cand
        g = foc_multiplier(w, inst, log_z=cand_log_z)
        gap = _fw_gap(g, inst)
        eta_prev = max(1.0, 0.25 * eta_prev)
    return OuterResult(nu=Marginal(weights=w),
                       foc_residual=float(np.max(np.abs(g - 1.0))),
                       fw_gap=gap, f_value=inst.lam * f_cur,
                       iterations=iterations, converged=gap <= tol)


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
    log_z = log_partition(nu_star.weights, inst)  # the one kernel call
    ccp = mnl_ccp(nu_star, inst, log_z=log_z)
    coupling, row_residual = coupling_from_marginal(nu_star, inst, ccp=ccp)
    u_star = objective_value(coupling, inst)
    f_star = outer.f_value

    a_scaled = inst.alpha * (np.log(nu_star.weights) - inst.log_phi)  # a = 0
    pot = bridge.Potentials(a_scaled=a_scaled, b=log_z, gauge=bridge.GAUGE_NU_MEAN_ZERO)
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
