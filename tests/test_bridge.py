import math

import numpy as np
import pytest

import statechar as sc
from statechar import model
from statechar.bridge import GAUGE_NU_MEAN_ZERO, _round_to_marginals
from statechar.io import gen_instance, generated_instance

from conftest import log_domain_twin, random_simplex
from oracles import objective_direct

E = math.e


def uniform_marginal(n):
    return sc.Marginal(weights=np.full(n, 1.0 / n))


# --- sinkhorn_solve ----------------------------------------------------------

def test_constant_kernel_one_sweep(flat2x2):
    sol = sc.sinkhorn_solve(flat2x2, sc.Marginal(weights=flat2x2.phi))
    assert sol.iterations == 1
    assert sol.converged
    np.testing.assert_allclose(sol.coupling.joint,
                               np.outer(flat2x2.phi, flat2x2.mu), atol=1e-14)
    np.testing.assert_allclose(sol.potentials.a_scaled, 0.0, atol=1e-14)
    np.testing.assert_allclose(sol.potentials.b, 0.0, atol=1e-14)


def test_constant_kernel_skewed_marginal(flat2x2):
    nu = sc.Marginal(weights=np.array([0.9, 0.1]))
    sol = sc.sinkhorn_solve(flat2x2, nu)
    np.testing.assert_allclose(sol.coupling.joint,
                               np.outer(nu.weights, flat2x2.mu), atol=1e-13)


def test_symmetric_bridge_closed_form(sym2x2):
    sol = sc.sinkhorn_solve(sym2x2, uniform_marginal(2))
    # constant potentials satisfy both fixed-point equations by symmetry
    a = sc.standard_a(sol.potentials, sol.nu, sym2x2)
    np.testing.assert_allclose(a, 0.0, atol=1e-12)
    total = sol.potentials.a_scaled[:, None] + sol.potentials.b[None, :]
    np.testing.assert_allclose(total, math.log((1 + E) / 2), atol=1e-12)
    p, q = E / (2 * (1 + E)), 1 / (2 * (1 + E))
    np.testing.assert_allclose(sol.coupling.joint, [[p, q], [q, p]], atol=1e-12)
    assert sol.potentials.gauge == GAUGE_NU_MEAN_ZERO


def test_gauge_is_nu_mean_zero():
    inst = generated_instance(12, 4, 3, alpha=0.35)
    rng = np.random.default_rng(0)
    nu = sc.Marginal(weights=random_simplex(rng, 4))
    sol = sc.sinkhorn_solve(inst, nu)
    a = sc.standard_a(sol.potentials, nu, inst)
    assert abs(float(np.dot(nu.weights, a))) <= 1e-12


def test_structure_equation_holds_bitwise():
    inst = generated_instance(12, 3, 3, alpha=0.5)
    nu = uniform_marginal(3)
    sol = sc.sinkhorn_solve(inst, nu)
    rebuilt = np.exp(np.log(nu.weights)[:, None] + inst.log_mu[None, :]
                     + inst.utility - sol.potentials.a_scaled[:, None]
                     - sol.potentials.b[None, :])
    np.testing.assert_array_equal(sol.coupling.joint, rebuilt)


def test_marginal_residual_non_increasing():
    for seed in range(8):
        inst = generated_instance(seed, 4, 5, alpha=0.4,
                                  lam=0.5 if seed % 2 else 1.0)
        rng = np.random.default_rng(seed)
        nu = sc.Marginal(weights=random_simplex(rng, 4))
        sol = sc.sinkhorn_solve(inst, nu)
        h = np.array(sol.residual_history)
        assert np.all(np.diff(h) <= 1e-13)


def test_non_convergence_flagged():
    inst = generated_instance(11, 3, 3, alpha=0.5)
    rng = np.random.default_rng(1)
    nu = sc.Marginal(weights=random_simplex(rng, 3))
    sol = sc.sinkhorn_solve(inst, nu, max_iter=1)
    assert not sol.converged
    assert sol.iterations == 1
    assert sol.marginal_residual > 1e-10


def test_value_matches_objective_of_coupling():
    for seed, lam in [(0, 1.0), (1, 2.5), (2, 0.5)]:
        inst = generated_instance(seed, 3, 4, alpha=0.6, lam=lam)
        rng = np.random.default_rng(seed)
        nu = sc.Marginal(weights=random_simplex(rng, 3))
        sol = sc.sinkhorn_solve(inst, nu, tol=1e-12)
        assert sol.value == pytest.approx(
            objective_direct(sol.coupling.joint, inst), abs=1e-10)


# --- schrodinger residual ----------------------------------------------------

def test_residual_small_after_convergence(sym2x2):
    sol = sc.sinkhorn_solve(sym2x2, uniform_marginal(2), tol=1e-12)
    assert sc.schrodinger_residual(sol.potentials, sol.nu, sym2x2) <= 1e-11


def test_residual_translation_invariant():
    inst = generated_instance(4, 3, 3, alpha=0.7)
    nu = uniform_marginal(3)
    sol = sc.sinkhorn_solve(inst, nu)
    base = sc.schrodinger_residual(sol.potentials, nu, inst)
    shifted = sc.schrodinger_residual(sol.potentials.shifted(1.0), nu, inst)
    assert shifted == pytest.approx(base, abs=1e-12)


def test_residual_detects_perturbation(sym2x2):
    sol = sc.sinkhorn_solve(sym2x2, uniform_marginal(2), tol=1e-12)
    delta = 0.1
    b = sol.potentials.b.copy()
    b[0] += delta
    pot = sc.Potentials(a_scaled=sol.potentials.a_scaled, b=b, gauge="raw")
    assert sc.schrodinger_residual(pot, sol.nu, sym2x2) >= delta / 2


# --- dual value and duality gap ----------------------------------------------

def test_dual_value_trivial_product(flat2x2):
    nu = sc.Marginal(weights=flat2x2.phi)
    pot = sc.Potentials(a_scaled=np.zeros(2), b=np.zeros(2))
    # a = -alpha*log(nu/phi) = 0 here, so the dual is 0 + 0 + 1 - 1 = 0 = V
    assert sc.dual_value(pot, nu, flat2x2) == pytest.approx(0.0, abs=1e-14)


def test_dual_value_at_true_potentials_symmetric(sym2x2):
    sol = sc.sinkhorn_solve(sym2x2, uniform_marginal(2), tol=1e-12)
    assert sc.dual_value(sol.potentials, sol.nu, sym2x2) == \
        pytest.approx(math.log((1 + E) / 2), abs=1e-10)


def test_dual_value_upper_bounds_constrained_value():
    inst = generated_instance(6, 3, 4, alpha=0.45)
    rng = np.random.default_rng(2)
    nu = sc.Marginal(weights=random_simplex(rng, 3))
    sol = sc.sinkhorn_solve(inst, nu, tol=1e-12)
    v_norm = sol.value / inst.lam
    for _ in range(50):
        pot = sc.Potentials(
            a_scaled=sol.potentials.a_scaled + rng.normal(0, 0.5, 3),
            b=sol.potentials.b + rng.normal(0, 0.5, 4))
        assert sc.dual_value(pot, nu, inst) >= v_norm - 1e-12


def test_weak_duality_against_feasible_couplings():
    # candidate primal points built by loop-perturbing the product coupling,
    # preserving both marginals exactly
    inst = generated_instance(6, 3, 4, alpha=0.45)
    rng = np.random.default_rng(3)
    nu = sc.Marginal(weights=random_simplex(rng, 3))
    sol = sc.sinkhorn_solve(inst, nu, tol=1e-12)
    for _ in range(40):
        joint = np.outer(nu.weights, inst.mu)
        for _ in range(5):
            i, k = rng.choice(3, size=2, replace=False)
            j, l = rng.choice(4, size=2, replace=False)
            c = min(joint[i, j], joint[k, l]) * rng.uniform(0, 0.5)
            joint[i, j] -= c; joint[k, l] -= c
            joint[i, l] += c; joint[k, j] += c
        Q = sc.Coupling(joint=joint)
        pot = sc.Potentials(
            a_scaled=sol.potentials.a_scaled + rng.normal(0, 0.3, 3),
            b=sol.potentials.b + rng.normal(0, 0.3, 4))
        assert sc.dual_value(pot, nu, inst) >= \
            sc.objective_value(Q, inst) / inst.lam - 1e-10


def test_gap_certificate_on_seeded_solves():
    for seed in range(10):
        inst = generated_instance(seed, 3, 4,
                                  alpha=(0.25, 0.5, 0.75)[seed % 3])
        rng = np.random.default_rng(seed + 50)
        nu = sc.Marginal(weights=random_simplex(rng, 3))
        sol = sc.sinkhorn_solve(inst, nu)
        assert sol.converged
        assert -1e-12 <= sol.duality_gap <= 1e-8


def test_gap_shrinks_with_convergence():
    inst = generated_instance(11, 3, 3, alpha=0.5)
    rng = np.random.default_rng(4)
    nu = sc.Marginal(weights=random_simplex(rng, 3))
    rough = sc.sinkhorn_solve(inst, nu, max_iter=1)
    tight = sc.sinkhorn_solve(inst, nu)
    assert rough.duality_gap > tight.duality_gap
    assert rough.duality_gap > 0


def test_gap_exact_zero_product_case(flat2x2):
    sol = sc.sinkhorn_solve(flat2x2, sc.Marginal(weights=flat2x2.phi))
    assert abs(sol.duality_gap) <= 1e-14


def test_rounding_fills_an_empty_row():
    # A row whose every cell underflowed has sum 0: it is left for the
    # rank-one patch to fill, not divided by.
    joint = np.array([[0.0, 0.0], [0.5, 0.5]])
    row, col = np.array([0.25, 0.75]), np.array([0.5, 0.5])
    x = _round_to_marginals(joint, row, col)
    np.testing.assert_array_equal(x, [[0.125, 0.125], [0.375, 0.375]])


def steep_transport_instance(seed, n, m, s):
    """u(x, t) = -s (x - t)^2 on sorted uniform points; priors from (0.2, 1)."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, size=n))
    t = np.sort(rng.uniform(0.0, 1.0, size=m))
    phi = rng.uniform(0.2, 1.0, size=n)
    mu = rng.uniform(0.2, 1.0, size=m)
    return sc.make_instance([f"x{i}" for i in range(n)], [f"t{j}" for j in range(m)],
                            -s * (x[:, None] - t[None, :]) ** 2,
                            phi / phi.sum(), mu / mu.sum(), alpha=0.5, lam=1.0)


@pytest.mark.parametrize("inst", [
    generated_instance(0, 30, 30, u_range=(0, 40)),
    generated_instance(3, 50, 50, lam=0.02),
], ids=["u-span-40", "lambda-0.02"])
def test_certificate_at_wide_utility_span(inst):
    # Roundoff left a rounding deficit near -3e-18 here, and the rank-one
    # patch then made the certified coupling negative.
    sol = sc.full_solve(inst)
    assert sol.converged
    assert -1e-12 <= sol.duality_gap <= 1e-8


def test_steep_transport_bridge_certifies():
    inst = steep_transport_instance(0, 100, 10, 100.0)
    nu = sc.Marginal(weights=inst.phi)
    sol = sc.sinkhorn_solve(inst, nu)
    assert sol.converged
    assert sol.coupling.joint.min() >= 0.0
    assert -1e-12 <= sol.duality_gap <= 1e-8


@pytest.mark.parametrize("inst", [
    generated_instance(12, 6, 9, alpha=0.35),
    generated_instance(5, 40, 3, u_range=(0, 40), alpha=0.7),
    steep_transport_instance(1, 8, 120, 30.0),
], ids=["6x9", "40x3-span-40", "8x120-transport"])
def test_sinkhorn_matches_log_domain_reference(inst):
    # The matrix-vector sweep changes only roundoff: same sweep count, same
    # potentials and value as the max-shifted log-domain sums.
    rng = np.random.default_rng(inst.n)
    nu = sc.Marginal(weights=random_simplex(rng, inst.n))
    ref = log_domain_twin(inst)
    sol = sc.sinkhorn_solve(inst, nu)
    want = sc.sinkhorn_solve(ref, nu)
    assert sol.converged and want.converged
    assert sol.iterations == want.iterations
    np.testing.assert_allclose(sol.potentials.a_scaled, want.potentials.a_scaled,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(sol.potentials.b, want.potentials.b, rtol=0, atol=1e-12)
    assert sol.value == pytest.approx(want.value, abs=1e-12)
    assert sc.schrodinger_residual(sol.potentials, nu, inst) == \
        pytest.approx(sc.schrodinger_residual(want.potentials, nu, ref), abs=1e-12)


def test_span_800_bridge_takes_log_domain_and_certifies():
    # Forbidden pairings at u = -800 put a u/lambda span of 800 in five
    # columns: exp(u/lambda - column max) would underflow there, so the sweep
    # runs on log-domain sums.  Rounding moves a deficit of about the
    # residual onto those cells at a cost of 800 each, hence the tight tol.
    raw = gen_instance(0, 30, 20)
    u = np.array(raw["utility"])
    u[np.arange(30) % 3 == 0, :5] = -800.0
    inst = sc.validate_instance(dict(raw, utility=u.tolist()))
    assert type(inst._kernel) is model._GibbsKernel
    sol = sc.sinkhorn_solve(inst, sc.Marginal(weights=inst.phi), tol=1e-12)
    assert sol.converged
    assert sol.marginal_residual <= 1e-12
    assert -1e-12 <= sol.duality_gap <= 1e-8
    assert sc.schrodinger_residual(sol.potentials, sol.nu, inst) <= 1e-10


def test_gauge_shift_leaves_everything_unchanged():
    inst = generated_instance(13, 3, 3, alpha=0.5)
    nu = uniform_marginal(3)
    sol = sc.sinkhorn_solve(inst, nu)
    shifted = sol.potentials.shifted(0.75)
    np.testing.assert_allclose(
        np.exp(np.log(nu.weights)[:, None] + inst.log_mu[None, :] + inst.utility
               - shifted.a_scaled[:, None] - shifted.b[None, :]),
        sol.coupling.joint, atol=1e-13)
    assert sc.dual_value(shifted, nu, inst) == \
        pytest.approx(sc.dual_value(sol.potentials, nu, inst), abs=1e-12)
    assert sc.schrodinger_residual(shifted, nu, inst) == \
        pytest.approx(sc.schrodinger_residual(sol.potentials, nu, inst), abs=1e-12)


# --- constrained value -------------------------------------------------------

def test_constrained_value_zero_utility(flat2x2):
    assert sc.constrained_value(sc.Marginal(weights=flat2x2.phi), flat2x2) == \
        pytest.approx(0.0, abs=1e-12)


def test_constrained_value_symmetric(sym2x2):
    assert sc.constrained_value(uniform_marginal(2), sym2x2) == \
        pytest.approx(math.log((1 + E) / 2), abs=1e-10)


def test_constrained_value_below_envelope():
    inst = generated_instance(8, 3, 3, alpha=0.5)
    rng = np.random.default_rng(5)
    for _ in range(10):
        nu = sc.Marginal(weights=random_simplex(rng, 3))
        assert sc.constrained_value(nu, inst) <= \
            sc.jensen_envelope(nu, inst) + 1e-10


def test_constrained_value_propagates_non_convergence():
    inst = generated_instance(11, 3, 3, alpha=0.5)
    rng = np.random.default_rng(6)
    nu = sc.Marginal(weights=random_simplex(rng, 3))
    with pytest.raises(sc.ConvergenceError):
        sc.constrained_value(nu, inst, max_iter=1)


# --- envelope derivative -----------------------------------------------------

def test_envelope_derivative_symmetric_is_zero(sym2x2):
    fd, pred = sc.envelope_derivative(uniform_marginal(2), 0, sym2x2, 1e-4)
    assert pred == pytest.approx(0.0, abs=1e-10)
    assert abs(fd) <= 1e-3


def test_envelope_derivative_zero_utility(flat2x2):
    fd, pred = sc.envelope_derivative(sc.Marginal(weights=flat2x2.phi), 1,
                                      flat2x2, 1e-4)
    assert pred == 0.0
    assert abs(fd) <= 1e-3


def test_envelope_derivative_seeded_3x3():
    for seed in (3, 7, 21):
        inst = generated_instance(seed, 3, 3, alpha=0.5)
        rng = np.random.default_rng(seed)
        nu = sc.Marginal(weights=random_simplex(rng, 3, floor=0.15))
        for x in range(3):
            fd, pred = sc.envelope_derivative(nu, x, inst, 1e-4)
            assert abs(fd - pred) <= 1e-3


def test_envelope_derivative_rejects_bad_eps(sym2x2):
    with pytest.raises(sc.ValidationError):
        sc.envelope_derivative(uniform_marginal(2), 0, sym2x2, 0.0)
