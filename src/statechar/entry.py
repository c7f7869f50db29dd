"""Falsifiable predictions under product entry, and identification of alpha.

When entry shifts the characteristic prior from phi to phi' (everything else
held fixed), the optimal conditionals P(.|theta) and P'(.|theta) move, but
the weighted-MNL structure forces the double ratio

    [P(x1|t) / P'(x1|t)] * [P'(x2|t) / P(x2|t)]

to be constant across states t for every pair (x1, x2): the state-dependent
partition functions cancel.  Testing this needs no knowledge of the priors.
When the priors are known, the log double ratio L decomposes as
L = alpha*A + (1-alpha)*B with A the log prior odds-shift and B the log
marginal odds-shift, so every informative pair re-identifies alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConvergenceError, ProblemInstance, ValidationError
from .optimize import Solution, full_solve

__all__ = [
    "EntryPair",
    "EntryReport",
    "solve_entry_pair",
    "double_ratio",
    "constancy_test",
    "identify_alpha",
    "entry_report",
    "counts_prior",
]

DEGENERATE_GAP = 1e-10


@dataclass(frozen=True)
class EntryPair:
    """Two solved instances differing only in the characteristic prior."""

    base: ProblemInstance
    entrant: ProblemInstance
    base_solution: Solution
    entrant_solution: Solution


def _require_shared(base: ProblemInstance, entrant: ProblemInstance) -> None:
    if base.characteristic_labels != entrant.characteristic_labels:
        raise ValidationError("entry pair: characteristic sets differ")
    if base.state_labels != entrant.state_labels:
        raise ValidationError("entry pair: state sets differ")
    if base.alpha != entrant.alpha or base.lam != entrant.lam:
        raise ValidationError("entry pair: alpha/lambda differ")
    if not np.array_equal(base.utility, entrant.utility):
        raise ValidationError("entry pair: utilities differ")
    if not np.array_equal(base.mu, entrant.mu):
        raise ValidationError("entry pair: state priors differ (mu must be fixed)")


def solve_entry_pair(base: ProblemInstance, entrant: ProblemInstance,
                     outer_tol: float = 1e-10,
                     max_iter: int = 100_000) -> EntryPair:
    """Validate shared fields and solve both sides of the entry experiment."""
    _require_shared(base, entrant)
    sols = []
    for name, inst in (("base", base), ("entrant", entrant)):
        sol = full_solve(inst, outer_tol=outer_tol, max_iter=max_iter)
        if not sol.converged:
            raise ConvergenceError(f"entry pair: {name} solve did not converge")
        sols.append(sol)
    return EntryPair(base=base, entrant=entrant,
                     base_solution=sols[0], entrant_solution=sols[1])


def double_ratio(pair: EntryPair, x1: int, x2: int) -> np.ndarray:
    """Per-state double ratio of conditionals across the entry event."""
    p, q = pair.base_solution.ccp, pair.entrant_solution.ccp
    rows = (p[x1], q[x1], p[x2], q[x2])
    if any(np.any(r <= 0.0) for r in rows):
        raise ValidationError("double_ratio: zero conditional choice probability")
    return (p[x1] / q[x1]) * (q[x2] / p[x2])


def constancy_test(ratios: np.ndarray, tol: float):
    """(pass, deviation) where deviation = max(ratios)/min(ratios) - 1."""
    ratios = np.asarray(ratios, dtype=float)
    if np.any(ratios <= 0.0):
        raise ValidationError("constancy_test: nonpositive ratio")
    deviation = float(ratios.max() / ratios.min() - 1.0)
    return deviation <= tol, deviation


def identify_alpha(pair: EntryPair, x1: int, x2: int,
                   constancy_tol: float = 1e-6):
    """Recover alpha from one pair of characteristics, or None if uninformative.

    Solves L = alpha*A + (1-alpha)*B for the log double ratio L; the pair is
    degenerate when |A - B| < 1e-10 (entry moved prior and marginal odds
    identically, so alpha drops out).  Rejects non-constant ratios first.
    """
    ratios = double_ratio(pair, x1, x2)
    ok, deviation = constancy_test(ratios, constancy_tol)
    if not ok:
        raise ValidationError(f"identify_alpha: double ratio varies with the state "
                              f"(deviation {deviation:.3g}); model rejected")
    L = float(np.log(ratios).mean())
    phi, phi2 = pair.base.phi, pair.entrant.phi
    nu = pair.base_solution.nu_star.weights
    nu2 = pair.entrant_solution.nu_star.weights
    A = float(np.log(phi[x1] * phi2[x2] / (phi2[x1] * phi[x2])))
    B = float(np.log(nu[x1] * nu2[x2] / (nu2[x1] * nu[x2])))
    if abs(A - B) < DEGENERATE_GAP:
        return None
    return (L - B) / (A - B)


@dataclass(frozen=True)
class EntryReport:
    """Constancy and identification results over all ordered pairs."""

    pairs: tuple            # (x1, x2, deviation, constancy_pass, alpha_hat | None)
    ratios: dict            # (x1, x2) -> per-state double-ratio vector
    alpha_median: float | None
    alpha_spread: float | None
    informative_pairs: int
    passed: bool


def entry_report(pair: EntryPair, tol: float = 1e-6,
                 alpha_tol: float = 1e-4) -> EntryReport:
    """Run the restriction battery over every ordered characteristic pair.

    Passes when every double ratio is constant within ``tol`` relative
    deviation and the informative alpha estimates agree within ``alpha_tol``.
    """
    n = pair.base.n
    rows = []
    ratios = {}
    estimates = []
    all_constant = True
    for x1 in range(n):
        for x2 in range(n):
            if x1 == x2:
                continue
            r = double_ratio(pair, x1, x2)
            ratios[(x1, x2)] = r
            ok, deviation = constancy_test(r, tol)
            all_constant = all_constant and ok
            alpha_hat = None
            if ok:
                alpha_hat = identify_alpha(pair, x1, x2, constancy_tol=tol)
            if alpha_hat is not None:
                estimates.append(alpha_hat)
            rows.append((x1, x2, deviation, ok, alpha_hat))

    if estimates:
        median = float(np.median(estimates))
        spread = float(max(estimates) - min(estimates))
    else:
        median = None
        spread = None
    passed = all_constant and (spread is None or spread <= alpha_tol)
    return EntryReport(pairs=tuple(rows), ratios=ratios,
                       alpha_median=median, alpha_spread=spread,
                       informative_pairs=len(estimates), passed=passed)


def counts_prior(products, characteristic_labels) -> np.ndarray:
    """Prior phi(x) = (number of products with characteristic x) / (total products).

    Convenience for entry experiments where the prior is the market share of
    each characteristic among J undifferentiated products.  Labels absent
    from the product list get mass 0 (they are pruned at validation).
    """
    products = list(products)
    if not products:
        raise ValidationError("counts_prior: empty product list")
    unknown = set(products) - set(characteristic_labels)
    if unknown:
        raise ValidationError(f"counts_prior: unknown characteristics {sorted(unknown)!r}")
    counts = np.array([products.count(label) for label in characteristic_labels],
                      dtype=float)
    return counts / counts.sum()
