"""Independent reference computations used to pin expected values.

Everything here is written from the definitions with explicit loops or
closed forms, deliberately avoiding the library code paths it is used to
check.
"""

import json
import math

import numpy as np


def mi_direct(joint) -> float:
    """Mutual information as the explicit double sum over cells."""
    joint = np.asarray(joint, dtype=float)
    row = joint.sum(axis=1)
    col = joint.sum(axis=0)
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            p = joint[i, j]
            if p > 0:
                total += p * math.log(p / (row[i] * col[j]))
    return total


def kl_direct(p, q) -> float:
    total = 0.0
    for a, b in zip(p, q):
        if a > 0:
            total += a * math.log(a / b)
    return total


def kappa_first_form(joint, phi, mu_unused, alpha, lam) -> float:
    """Cost as alpha*lam*E[KL(P(.|t) || phi)] + (1-alpha)*lam*I(P).

    This is the other end of the dual-route check: the library computes the
    vertical + mutual-information decomposition instead.
    """
    joint = np.asarray(joint, dtype=float)
    col = joint.sum(axis=0)
    expected_kl = 0.0
    for j in range(joint.shape[1]):
        if col[j] > 0:
            cond = joint[:, j] / col[j]
            expected_kl += col[j] * kl_direct(cond, phi)
    return alpha * lam * expected_kl + (1.0 - alpha) * lam * mi_direct(joint)


def objective_direct(joint, inst) -> float:
    """U from the definition, in utils, using the first cost form."""
    joint = np.asarray(joint, dtype=float)
    expected_u = float(np.sum(joint * inst.utility)) * inst.lam
    return expected_u - kappa_first_form(joint, inst.phi, inst.mu,
                                         inst.alpha, inst.lam)


def expect_surprisal(weights, at, inst) -> float:
    """sum weights * Y(.; at) from the definition, via explicit loops."""
    w = np.asarray(weights, dtype=float)
    p = np.asarray(at, dtype=float)
    nu = p.sum(axis=1)
    col = p.sum(axis=0)
    total = 0.0
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            if w[i, j] == 0:
                continue
            ccp = p[i, j] / col[j]
            y = (inst.utility[i, j]
                 - inst.alpha * math.log(nu[i] / inst.phi[i])
                 - math.log(ccp / nu[i]))
            total += w[i, j] * y
    return total


def surprisal_matrix_reference(P, inst):
    """(values, defined) of the surprisal, evaluated only on the defined cells
    gathered by np.nonzero; NaN elsewhere.  The dense library version must
    match it bit for bit."""
    nu = P.marginal_x
    with np.errstate(divide="ignore", invalid="ignore"):
        ccp = P.joint / P.marginal_theta[None, :]
    defined = (ccp > 0) & (nu[:, None] > 0)
    values = np.full((inst.n, inst.m), np.nan)
    r, c = np.nonzero(defined)
    values[r, c] = (inst.utility[r, c]
                    - inst.alpha * np.log(nu[r] / inst.phi[r])
                    - np.log(ccp[r, c] / nu[r]))
    return values, defined


def logsumexp_fsum(values) -> float:
    """log sum exp(values), the sum exactly rounded by math.fsum.

    -inf entries are zero terms; at least one entry must be finite.
    """
    values = [float(v) for v in values]
    top = max(values)
    return top + math.log(math.fsum(math.exp(v - top) for v in values))


def simplex_grid(n: int, resolution: float):
    """All points of the n-simplex on a uniform grid of the given step."""
    k = round(1.0 / resolution)
    if n == 2:
        i = np.arange(k + 1)
        pts = np.stack([i, k - i], axis=1)
    elif n == 3:
        i, j = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
        keep = i + j <= k
        pts = np.stack([i[keep], j[keep], k - i[keep] - j[keep]], axis=1)
    else:
        raise ValueError("grid oracle supports n in {2, 3}")
    return pts / k


def f_grid_argmax(inst, resolution=1e-3):
    """Grid-search maximizer of the envelope E_mu[log Z] over the simplex."""
    pts = simplex_grid(inst.n, resolution)
    # vectorized log Z per grid point; zero weights contribute nothing (alpha<1)
    base = np.where(pts > 0, np.power(pts, 1.0 - inst.alpha), 0.0)
    base = base * np.power(inst.phi, inst.alpha)[None, :]
    z = base @ np.exp(inst.utility)          # (points, m)
    f = np.log(z) @ inst.mu
    best = int(np.argmax(f))
    return pts[best], float(f[best])


def _canonical_reference(obj, out: list) -> None:
    """One recursive call per value: the per-element canonical JSON writer."""
    if isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _canonical_reference(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _canonical_reference(v, out)
        out.append("]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(f"{float(obj):.17g}")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical_reference(obj) -> str:
    """The text statechar.io.dumps_canonical must produce, byte for byte."""
    out: list = []
    _canonical_reference(obj, out)
    out.append("\n")
    return "".join(out)


def print_vector_reference(name, labels, values) -> None:
    """The CLI's labelled vector table, one print and one format per cell."""
    print(f"{name}:")
    for lab, v in zip(labels, values):
        print(f"  {lab:>8}  {v:.8g}")


def print_matrix_reference(name, row_labels, col_labels, rows) -> None:
    """The CLI's labelled matrix table, one format per cell."""
    print(f"{name}:")
    head = " ".join(f"{c:>12}" for c in col_labels)
    print(f"  {'':>8} {head}")
    for lab, row in zip(row_labels, rows):
        body = " ".join(f"{f'{v:.8g}':>12}" for v in row)
        print(f"  {lab:>8} {body}")
