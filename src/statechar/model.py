"""Problem data and closed-form quantities of the state-characteristic model.

A decision problem is a tuple (X, Theta, u, phi, mu, alpha, lambda): a finite
set X of n hedonic characteristics with a strictly positive prior phi, a
finite set Theta of m states with a strictly positive prior mu, an n x m
utility matrix u, a cost weight alpha in (0, 1], and a cost scale lambda > 0.
The decision-maker commits to an information policy -- a joint probability P
over X x Theta whose state marginal equals mu (Bayes plausibility) -- and
trades expected utility against the information cost

    cost(P) = alpha * lambda * KL(P_x || phi) + lambda * I(P)

where P_x is the characteristic marginal and I(P) the mutual information
between characteristic and state.  All entropic quantities are in nats.

Utilities are divided by lambda once at validation so every formula below
works on the rescaled matrix; reported values are multiplied back by lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ValidationError",
    "ConvergenceError",
    "ProblemInstance",
    "Coupling",
    "Marginal",
    "SurprisalMatrix",
    "make_instance",
    "validate_instance",
    "kl_divergence",
    "mutual_information",
    "information_cost",
    "objective_value",
    "surprisal_matrix",
    "log_partition",
    "partition_function",
    "mnl_ccp",
    "coupling_from_marginal",
]

SIMPLEX_TOL = 1e-12
INPUT_SIMPLEX_TOL = 1e-9


class ValidationError(ValueError):
    """Raised when instance data or a probability object is malformed."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative solve fails to reach its tolerance."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _check_simplex(w: np.ndarray, name: str, tol: float) -> None:
    # Written so that NaN fails each test (every comparison with NaN is false).
    if not (w >= 0).all():
        raise ValidationError(f"{name}: negative or NaN probability entry at "
                              f"index {int(np.argmin(w))} ({w.min()!r})")
    total = float(w.sum())
    if not abs(total - 1.0) <= tol:
        raise ValidationError(f"{name}: entries sum to {total!r}, off the "
                              f"simplex by more than {tol}")


@dataclass(frozen=True)
class ProblemInstance:
    """A validated decision problem.

    ``utility`` is stored rescaled (u / lambda); ``lam`` keeps the original
    scale for reporting.  Arrays are read-only; instances are safe to share
    across threads.  Derived arrays (``log_phi``, ``log_mu`` and the Gibbs
    kernel shared by the outer solve and the bridge) are computed on first
    use and cached read-only.
    """

    characteristic_labels: tuple
    state_labels: tuple
    utility: np.ndarray   # n x m, rescaled by 1/lambda
    phi: np.ndarray       # length n, strictly positive, sums to 1
    mu: np.ndarray        # length m, strictly positive, sums to 1
    alpha: float
    lam: float

    @property
    def n(self) -> int:
        return len(self.characteristic_labels)

    @property
    def m(self) -> int:
        return len(self.state_labels)

    @cached_property
    def log_phi(self) -> np.ndarray:
        return _readonly(np.log(self.phi))

    @cached_property
    def log_mu(self) -> np.ndarray:
        return _readonly(np.log(self.mu))

    @cached_property
    def _kernel(self) -> "_GibbsKernel":
        """The Gibbs kernel exp(u/lambda): scaled when every column's u/lambda
        span is within ``_scaled_span_bound(max(n, m))``, else log-domain."""
        cmax = self.utility.max(axis=0)
        span = float(np.max(cmax - self.utility.min(axis=0)))
        if span > _scaled_span_bound(max(self.n, self.m)):
            return _GibbsKernel(self.utility)
        return _ScaledGibbsKernel(self.utility, cmax)


@dataclass(frozen=True)
class Marginal:
    """A strictly positive probability over characteristics."""

    weights: np.ndarray

    def __post_init__(self):
        w = _readonly(self.weights)
        if w.ndim != 1:
            raise ValidationError("marginal must be a vector")
        _check_simplex(w, "marginal", SIMPLEX_TOL)
        if not w.min() > 0.0:
            raise ValidationError("marginal must be strictly positive; "
                                  f"min entry is {w.min()!r}")
        object.__setattr__(self, "weights", w)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.weights, dtype=dtype)

    def __len__(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class Coupling:
    """A joint probability over X x Theta (an information policy)."""

    joint: np.ndarray

    def __post_init__(self):
        j = _readonly(self.joint)
        if j.ndim != 2:
            raise ValidationError("coupling must be a matrix")
        if not (j >= 0).all():
            raise ValidationError("coupling has a negative or NaN entry")
        total = float(j.sum())
        if not abs(total - 1.0) <= SIMPLEX_TOL * j.size:
            raise ValidationError(f"coupling mass is {total!r}, not 1")
        object.__setattr__(self, "joint", j)

    @property
    def marginal_x(self) -> np.ndarray:
        """Row marginal (distribution of the chosen characteristic)."""
        return self.joint.sum(axis=1)

    @property
    def marginal_theta(self) -> np.ndarray:
        """Column marginal (distribution of the state)."""
        return self.joint.sum(axis=0)

    def ccp(self) -> np.ndarray:
        """Conditional choice probabilities P(x | theta), one column per state."""
        col = self.marginal_theta
        if np.any(col <= 0.0):
            raise ValidationError("coupling has a zero-mass state column")
        return self.joint / col[None, :]


@dataclass(frozen=True)
class SurprisalMatrix:
    """Per-cell surprisal values; ``defined`` masks cells carrying no mass."""

    values: np.ndarray
    defined: np.ndarray


def make_instance(characteristics, states, utility, phi, mu, alpha, lam) -> ProblemInstance:
    """Build and validate an instance from in-memory arrays."""
    return validate_instance({
        "characteristics": list(characteristics),
        "states": list(states),
        "utility": utility,
        "phi": phi,
        "mu": mu,
        "alpha": alpha,
        "lambda": lam,
    })


def validate_instance(raw) -> ProblemInstance:
    """Validate raw instance data and return a normalized ProblemInstance.

    Characteristics with phi = 0 and states with mu = 0 are removed (no
    feasible policy puts mass there), the priors are renormalized, and the
    utility matrix is divided by lambda.

    Raises ValidationError on: negative or NaN probabilities, simplex sums
    off by more than 1e-9, non-finite utilities, alpha outside (0, 1],
    lambda <= 0 or infinite, a utility / lambda that overflows, or an empty
    characteristic/state set after pruning.
    """
    try:
        chars = list(raw["characteristics"])
        states = list(raw["states"])
        utility = np.array(raw["utility"], dtype=float)
        phi = np.array(raw["phi"], dtype=float)
        mu = np.array(raw["mu"], dtype=float)
        alpha = float(raw["alpha"])
        lam = float(raw["lambda"])
    except KeyError as exc:
        raise ValidationError(f"missing instance field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed instance field: {exc}") from None

    if len(set(chars)) != len(chars):
        raise ValidationError("characteristics: labels are not distinct")
    if len(set(states)) != len(states):
        raise ValidationError("states: labels are not distinct")
    if utility.ndim != 2 or utility.shape != (len(chars), len(states)):
        raise ValidationError(f"utility: expected shape {(len(chars), len(states))}, "
                              f"got {utility.shape}")
    if phi.shape != (len(chars),):
        raise ValidationError(f"phi: expected length {len(chars)}, got {phi.shape}")
    if mu.shape != (len(states),):
        raise ValidationError(f"mu: expected length {len(states)}, got {mu.shape}")
    if not np.all(np.isfinite(utility)):
        raise ValidationError("utility: non-finite entry")
    if not (0.0 < alpha <= 1.0):
        if alpha == 0.0:
            raise ValidationError(
                "alpha: 0 is rejected -- with no cost on diverging from phi the "
                "optimal policy need not be unique; use alpha in (0, 1]")
        raise ValidationError(f"alpha: {alpha!r} outside (0, 1]")
    if not 0.0 < lam < math.inf:
        raise ValidationError(f"lambda: {lam!r} must be finite and > 0")
    with np.errstate(over="ignore"):
        scaled = utility / lam
    if not np.all(np.isfinite(scaled)):
        raise ValidationError(f"utility: u / lambda overflows at lambda = {lam!r}")

    _check_simplex(phi, "phi", INPUT_SIMPLEX_TOL)
    _check_simplex(mu, "mu", INPUT_SIMPLEX_TOL)

    keep_x = phi > 0.0
    keep_t = mu > 0.0
    if not keep_x.any():
        raise ValidationError("phi: no characteristic retains positive mass")
    if not keep_t.any():
        raise ValidationError("mu: no state retains positive mass")

    phi = phi[keep_x]
    mu = mu[keep_t]
    scaled = scaled[np.ix_(keep_x, keep_t)]
    chars = [c for c, k in zip(chars, keep_x) if k]
    states = [s for s, k in zip(states, keep_t) if k]

    return ProblemInstance(
        characteristic_labels=tuple(chars),
        state_labels=tuple(states),
        utility=_readonly(scaled),
        phi=_readonly(phi / phi.sum()),
        mu=_readonly(mu / mu.sum()),
        alpha=alpha,
        lam=lam,
    )


def kl_divergence(p, q) -> float:
    """KL divergence sum(p * log(p/q)) in nats, with 0*log(0/q) = 0.

    Returns math.inf when p puts mass where q does not (absolute continuity
    fails).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValidationError(f"kl_divergence: length mismatch {p.shape} vs {q.shape}")
    if np.any(p < 0) or np.any(q < 0):
        raise ValidationError("kl_divergence: negative entry")
    support = p > 0
    if np.any(q[support] == 0.0):
        return math.inf
    return float(np.sum(p[support] * np.log(p[support] / q[support])))


def mutual_information(P: Coupling) -> float:
    """Shannon information between characteristic and state, in nats."""
    joint = P.joint
    nu, mu = P.marginal_x, P.marginal_theta
    outer = np.outer(nu, mu)
    mask = joint > 0
    under = mask & (outer == 0.0)
    mask &= ~under
    total = np.sum(joint[mask] * np.log(joint[mask] / outer[mask]))
    if under.any():
        # nu(x) mu(t) underflowed to 0 under a cell with mass: sum the logs
        # of the factors there instead of dividing by 0.
        r, c = np.nonzero(under)
        total += np.sum(joint[r, c] * (np.log(joint[r, c]) - np.log(nu[r]) - np.log(mu[c])))
    return float(total)


def _check_feasible(P: Coupling, inst: ProblemInstance) -> None:
    if P.joint.shape != (inst.n, inst.m):
        raise ValidationError(f"coupling shape {P.joint.shape} does not match "
                              f"instance ({inst.n}, {inst.m})")
    # phi is strictly positive after validation, so support is never an issue;
    # guard anyway for couplings paired with the wrong instance.
    if np.any(P.marginal_x[inst.phi <= 0.0] > 0.0):
        raise ValidationError("coupling puts mass on a zero-prior characteristic")


def information_cost(P: Coupling, inst: ProblemInstance) -> float:
    """Total information cost, in utils:

        alpha * lambda * KL(P_x || phi) + lambda * I(P).
    """
    _check_feasible(P, inst)
    vertical = kl_divergence(P.marginal_x, inst.phi)
    return inst.lam * (inst.alpha * vertical + mutual_information(P))


def objective_value(P: Coupling, inst: ProblemInstance) -> float:
    """Expected utility net of information cost, in utils."""
    _check_feasible(P, inst)
    expected_u = float(np.sum(P.joint * inst.utility))  # rescaled utils
    return inst.lam * expected_u - information_cost(P, inst)


def surprisal_matrix(P: Coupling, inst: ProblemInstance, rows=None) -> SurprisalMatrix:
    """Surprisal of each cell under policy P (rescaled-util units):

        Y(x, t) = u(x, t)/lambda - alpha*log(nu(x)/phi(x)) - log(P(x|t)/nu(x))

    where nu is the row marginal of P.  Cells with P(x|t) = 0, and whole rows
    with nu(x) = 0, are flagged undefined rather than evaluated to +-inf.
    The policy-weighted mean of Y equals objective_value(P) / lambda.

    If ``rows`` is given, raises when any requested row carries no mass.
    """
    _check_feasible(P, inst)
    nu = P.marginal_x
    if rows is not None:
        rows = np.atleast_1d(rows)
        if np.any(nu[rows] == 0.0):
            raise ValidationError("surprisal requested on a zero-mass row")
    # Dense and in place, in the order of the formula; undefined cells are
    # evaluated too (to +-inf or NaN, warnings off) and then set to NaN.
    with np.errstate(divide="ignore", invalid="ignore"):
        ccp = P.joint / P.marginal_theta[None, :]
        defined = (ccp > 0) & (nu[:, None] > 0)
        ccp /= nu[:, None]
        np.log(ccp, out=ccp)
        values = inst.utility - (inst.alpha * np.log(nu / inst.phi))[:, None]
        values -= ccp
    values[~defined] = np.nan
    values.setflags(write=False)
    defined.setflags(write=False)
    return SurprisalMatrix(values=values, defined=defined)


# --- the Gibbs kernel -------------------------------------------------------
#
# Every sum over cells is one of two contractions of exp(u/lambda):
#
#     over_x(l)(t) = log sum_x exp(l(x) + u(x,t)/lambda)
#     over_t(l)(x) = log sum_t exp(l(t) + u(x,t)/lambda)
#
# log Z = over_x(log w~) with log w~ = alpha*log phi + (1-alpha)*log w, the
# multiplier g = (phi/w)^alpha exp(over_t(log mu - log Z)), and the bridge's
# Sinkhorn pair b = over_x(log nu - a~), a~ = over_t(log mu - b).  With
# E = exp(u/lambda - cmax) cached per instance each is one matrix-vector
# product.  Weights are shifted so their largest is 1, and a sum then lies in
# [e^-span, max(n, m)]: a term that underflows carries at most 2^-1022 of
# mass, a relative error of at most max(n, m) * 2^-1022 * e^span, under one
# unit of roundoff (2^-52) below the span bound.  Wider spans are evaluated
# in the log domain (Schmitzer 2019, stabilized scaling).

def _scaled_span_bound(size: int) -> float:
    """Largest per-column u/lambda span the scaled kernel evaluates exactly,
    for sums of up to ``size`` = max(n, m) terms:
    size * 2^-1022 * e^span <= 2^-52, i.e. span <= (1022 - 52) ln 2 - ln size."""
    return (1022 - 52) * math.log(2.0) - math.log(size)


def _logsumexp(a: np.ndarray, axis: int | None = None):
    """log sum exp(a) along ``axis`` (over all entries when None).

    Shifted by the largest entry, so no term overflows and the largest is
    exactly 1.  ``a`` may hold -inf entries (zero terms), not all of one sum.
    """
    top = np.max(a, axis=axis, keepdims=True)
    total = np.sum(np.exp(a - top), axis=axis)
    return np.log(total) + np.squeeze(top, axis=axis)


class _GibbsKernel:
    """The two contractions by max-shifted sums in the log domain.

    Exact for any utility span; the reference the scaled form is tested
    against.  ``l`` may hold -inf entries (zero weights), not all of them.
    """

    def __init__(self, utility: np.ndarray):
        self.utility = utility

    def over_x(self, l: np.ndarray) -> np.ndarray:
        return _logsumexp(l[:, None] + self.utility, axis=0)

    def over_t(self, l: np.ndarray) -> np.ndarray:
        return _logsumexp(l[None, :] + self.utility, axis=1)


class _ScaledGibbsKernel(_GibbsKernel):
    """The two contractions as matrix-vector products with the cached E.

    ``over_x`` splits off the heaviest row k the way a max-shifted
    log-sum-exp does, so a dominant row costs no roundoff:

        over_x(l) = l(k) + u(k,.)/lambda + log1p(sum_{x != k} e^(l(x) - l(k)) E(x,.) / E(k,.))
        over_t(l) = s + log(E e^(l + cmax - s)),  s = max(l + cmax)
    """

    def __init__(self, utility: np.ndarray, cmax: np.ndarray):
        super().__init__(utility)
        self.cmax = _readonly(cmax)
        self.kernel = _readonly(np.exp(utility - cmax))

    def over_x(self, l: np.ndarray) -> np.ndarray:
        top = int(np.argmax(l))
        rest = np.exp(l - l[top])
        rest[top] = 0.0
        return (l[top] + self.utility[top]
                + np.log1p((rest @ self.kernel) / self.kernel[top]))

    def over_t(self, l: np.ndarray) -> np.ndarray:
        shifted = l + self.cmax
        top = shifted.max()
        return top + np.log(self.kernel @ np.exp(shifted - top))


def _log_weights(weights, inst: ProblemInstance) -> np.ndarray:
    """log w~ = alpha*log phi + (1-alpha)*log w; exactly log phi at alpha = 1."""
    if inst.alpha == 1.0:
        return inst.log_phi
    with np.errstate(divide="ignore"):  # zero weights drop out of log Z
        log_w = np.log(np.asarray(weights, dtype=float))
    return inst.alpha * inst.log_phi + (1.0 - inst.alpha) * log_w


def log_partition(weights: np.ndarray, inst: ProblemInstance) -> np.ndarray:
    """log Z(theta; nu) per state.

    Z(theta; nu) = sum_x phi(x)^alpha * nu(x)^(1-alpha) * exp(u(x,theta)/lambda).
    Accepts weights with zero entries (their terms vanish for alpha < 1; for
    alpha = 1 the weights do not enter at all).

    When every state's u/lambda span is at most (1022 - 52) ln 2 - ln max(n, m)
    (about 672 - ln max(n, m)) this is one matrix-vector product with the
    instance's cached exp(u/lambda - column max), exact to roundoff; wider
    spans use a max-shifted log-sum-exp over all cells.
    """
    return inst._kernel.over_x(_log_weights(weights, inst))


def partition_function(nu: Marginal, inst: ProblemInstance) -> np.ndarray:
    """Partition function Z(theta; nu), strictly positive, one value per state."""
    return np.exp(log_partition(nu.weights, inst))


def mnl_ccp(nu: Marginal, inst: ProblemInstance, *,
            log_z: np.ndarray | None = None) -> np.ndarray:
    """Weighted multinomial-logit conditional choice probabilities.

    P(x | theta) = phi(x)^alpha * nu(x)^(1-alpha) * exp(u/lambda) / Z(theta; nu).
    Columns sum to 1; all entries are strictly positive.  For alpha = 1 the
    result does not depend on nu (Maxwell-Boltzmann form).  ``log_z``, when
    given, must be ``log_partition(nu.weights, inst)``; it saves recomputing
    the partition function.
    """
    log_w = _log_weights(nu.weights, inst)
    if log_z is None:
        log_z = inst._kernel.over_x(log_w)
    return np.exp(log_w[:, None] + inst.utility - log_z[None, :])


def coupling_from_marginal(nu: Marginal, inst: ProblemInstance, *,
                           ccp: np.ndarray | None = None):
    """Bayes-plausible coupling mu(theta) * mnl_ccp(nu) and its consistency gap.

    Returns ``(coupling, residual)`` where residual is the max-norm deviation
    of the coupling's row marginal from nu.  The residual vanishes exactly
    when nu satisfies the outer first-order condition.  ``ccp``, when given,
    must be ``mnl_ccp(nu, inst)``.
    """
    if ccp is None:
        ccp = mnl_ccp(nu, inst)
    coupling = Coupling(joint=ccp * inst.mu[None, :])
    residual = float(np.max(np.abs(coupling.marginal_x - nu.weights)))
    return coupling, residual
