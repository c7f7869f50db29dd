import math

import numpy as np
import pytest

import statechar as sc
from statechar.io import generated_instance
from statechar.optimize import _oracle_gradient, _oracle_objective

from conftest import random_coupling, random_simplex
from oracles import f_grid_argmax, objective_direct

E = math.e


# --- jensen envelope ---------------------------------------------------------

def test_envelope_zero_utility(flat2x2):
    assert sc.jensen_envelope(sc.Marginal(weights=flat2x2.phi), flat2x2) == \
        pytest.approx(0.0, abs=1e-14)


def test_envelope_symmetric_closed_form(sym2x2):
    nu = sc.Marginal(weights=np.array([0.5, 0.5]))
    assert sc.jensen_envelope(nu, sym2x2) == \
        pytest.approx(math.log((1 + E) / 2), abs=1e-12)


def test_envelope_dominates_objective():
    rng = np.random.default_rng(0)
    for seed in range(5):
        inst = generated_instance(seed, 3, 4, alpha=0.35, lam=1.5)
        for _ in range(20):
            P = random_coupling(rng, inst)
            nu = sc.Marginal(weights=P.marginal_x)
            assert sc.jensen_envelope(nu, inst) >= \
                sc.objective_value(P, inst) - 1e-12


def test_strict_concavity_midpoint():
    rng = np.random.default_rng(1)
    inst = generated_instance(7, 3, 3, alpha=0.5)
    for _ in range(50):
        nu1 = random_simplex(rng, 3)
        nu2 = random_simplex(rng, 3)
        if np.allclose(nu1, nu2):
            continue
        mid = sc.Marginal(weights=0.5 * (nu1 + nu2))
        lhs = sc.jensen_envelope(mid, inst)
        rhs = 0.5 * (sc.jensen_envelope(sc.Marginal(weights=nu1), inst)
                     + sc.jensen_envelope(sc.Marginal(weights=nu2), inst))
        assert lhs > rhs + 1e-12 * (1.0 + abs(rhs))


# --- first-order multiplier --------------------------------------------------

def test_multiplier_identity_at_flat(flat2x2):
    g = sc.foc_multiplier(sc.Marginal(weights=flat2x2.phi), flat2x2)
    np.testing.assert_allclose(g, 1.0, atol=1e-14)


def test_multiplier_identity_at_symmetric_uniform(sym2x2):
    g = sc.foc_multiplier(sc.Marginal(weights=np.array([0.5, 0.5])), sym2x2)
    np.testing.assert_allclose(g, 1.0, atol=1e-12)


def test_multiplier_averages_to_one():
    rng = np.random.default_rng(2)
    for seed in range(8):
        inst = generated_instance(seed, 4, 3,
                                  alpha=(0.25, 0.5, 0.75, 1.0)[seed % 4])
        nu = sc.Marginal(weights=random_simplex(rng, 4))
        g = sc.foc_multiplier(nu, inst)
        assert float(np.dot(nu.weights, g)) == pytest.approx(1.0, abs=1e-12)


# --- outer solve -------------------------------------------------------------

def test_outer_flat_returns_prior_immediately(flat2x2):
    res = sc.outer_solve(flat2x2)
    assert res.iterations == 1
    assert res.converged
    np.testing.assert_allclose(res.nu.weights, flat2x2.phi, atol=1e-14)


def test_outer_symmetric_uniform(sym2x2):
    res = sc.outer_solve(sym2x2)
    np.testing.assert_allclose(res.nu.weights, [0.5, 0.5], atol=1e-10)
    assert res.foc_residual <= 1e-10


def test_outer_matches_grid_search():
    inst = generated_instance(7, 3, 3, alpha=0.5)
    res = sc.outer_solve(inst)
    grid_nu, grid_f = f_grid_argmax(inst, resolution=1e-3)
    assert np.max(np.abs(res.nu.weights - grid_nu)) <= 2e-3
    assert res.f_value >= grid_f - 1e-12


def test_outer_flags_exhaustion():
    inst = generated_instance(11, 3, 3, alpha=0.25)
    res = sc.outer_solve(inst, max_iter=2)
    assert not res.converged
    assert res.foc_residual > 1e-10


def test_outer_unique_from_random_starts():
    rng = np.random.default_rng(3)
    for seed in (5, 9):
        inst = generated_instance(seed, 4, 3, alpha=0.4)
        sols = []
        for _ in range(5):
            start = sc.Marginal(weights=random_simplex(rng, 4))
            sols.append(sc.outer_solve(inst, start=start).nu.weights)
        sols = np.array(sols)
        assert np.max(sols.max(axis=0) - sols.min(axis=0)) <= 1e-9


def test_outer_small_alpha_converges_quickly():
    # Plain steps (eta = 1) need about 21,700 iterations here; their count
    # grows like 1/alpha.
    inst = generated_instance(7, 50, 50, alpha=0.001)
    res = sc.outer_solve(inst)
    assert res.converged
    assert res.iterations <= 2000


# At (3, 60, 20, 0.003, 20) the loop certifies a gap within tol with nu
# entries at 5e-324: seven coupling rows and three nu(x) mu(t) products
# underflow to 0, which the assembly and its certificate must take.
SWEEP = [(seed, n, m, alpha, u_hi)
         for seed, (n, m) in enumerate([(3, 2), (10, 7), (30, 30), (60, 20), (5, 80)])
         for alpha in (0.003, 0.03, 0.25, 0.9)
         for u_hi in (2.0, 20.0)]


@pytest.mark.parametrize("seed, n, m, alpha, u_hi", SWEEP)
def test_outer_certified_bound_and_converged_flag(seed, n, m, alpha, u_hi):
    # (f - U)/lambda + (1 - alpha) max(0, max g - 1) bounds max U - U(P) by
    # concavity; it is evaluated with the public functions only.
    inst = generated_instance(seed, n, m, u_range=(0.0, u_hi), alpha=alpha, lam=0.7)
    tol = 1e-10
    res = sc.outer_solve(inst, tol=tol)
    assert res.converged
    assert res.fw_gap <= tol
    sol = sc.full_solve(inst, outer_tol=tol)
    f = sc.jensen_envelope(sol.nu_star, inst)
    u = sc.objective_value(sol.coupling, inst)
    g = sc.foc_multiplier(sol.nu_star, inst)
    bound = (f - u) / inst.lam + (1.0 - alpha) * max(0.0, float(g.max()) - 1.0)
    assert bound <= 10.0 * tol


def test_outer_converged_means_gap_within_tol():
    inst = generated_instance(4, 20, 15, alpha=0.05)
    for tol in (1e-4, 1e-8, 1e-12):
        for max_iter in (1, 3, 10, 100):
            res = sc.outer_solve(inst, tol=tol, max_iter=max_iter)
            assert res.converged == (res.fw_gap <= tol)
            g = sc.foc_multiplier(res.nu, inst)
            assert res.fw_gap == pytest.approx(
                (1.0 - inst.alpha) * max(0.0, float(g.max()) - 1.0), rel=1e-9, abs=1e-15)


def test_outer_envelope_nondecreasing_in_max_iter():
    for seed, alpha in ((2, 0.02), (6, 0.3)):
        inst = generated_instance(seed, 25, 12, u_range=(0.0, 6.0), alpha=alpha)
        values = [sc.outer_solve(inst, tol=1e-14, max_iter=k).f_value
                  for k in range(1, 31)]
        for prev, cur in zip(values, values[1:]):
            # the monotone safeguard admits 1e-15 relative roundoff per step
            assert cur >= prev - 1e-15 * inst.lam * (1.0 + abs(prev))


def test_outer_monotone_envelope_along_iterations():
    # safeguard guarantees f never decreases between accepted iterates
    inst = generated_instance(15, 4, 4, alpha=0.3)
    res = sc.outer_solve(inst)
    assert res.converged
    assert res.f_value >= sc.jensen_envelope(sc.Marginal(weights=inst.phi), inst) - 1e-12


# --- full solve --------------------------------------------------------------

def test_full_solve_flat_family(flat2x2):
    sol = sc.full_solve(flat2x2)
    assert sol.converged
    np.testing.assert_allclose(sol.nu_star.weights, flat2x2.phi, atol=1e-10)
    np.testing.assert_allclose(sol.coupling.joint,
                               np.outer(flat2x2.phi, flat2x2.mu), atol=1e-10)
    assert sol.U_star == pytest.approx(0.0, abs=1e-12)
    assert sol.f_star == pytest.approx(0.0, abs=1e-12)


def test_full_solve_symmetric_closed_form(sym2x2):
    sol = sc.full_solve(sym2x2)
    assert sol.converged
    np.testing.assert_allclose(sol.nu_star.weights, [0.5, 0.5], atol=1e-6)
    assert sol.U_star == pytest.approx(math.log((1 + E) / 2), abs=1e-6)
    assert sol.f_star == pytest.approx(math.log((1 + E) / 2), abs=1e-6)
    assert sol.ccp[0, 0] == pytest.approx(E / (1 + E), abs=1e-6)
    assert abs(sol.f_star - sol.U_star) <= 1e-9


def test_full_solve_matches_oracle_seeded():
    inst = generated_instance(7, 3, 3, alpha=0.5)
    sol = sc.full_solve(inst)
    oracle = sc.brute_force_oracle(inst, seed=1)
    assert sol.U_star >= oracle.u_best - 1e-5
    assert abs(sol.U_star - oracle.u_best) <= 1e-5


def test_full_solve_ccp_columns(sym2x2):
    sol = sc.full_solve(sym2x2)
    np.testing.assert_allclose(sol.ccp.sum(axis=0), 1.0, atol=1e-12)


@pytest.mark.parametrize("inst", [
    generated_instance(3, 6, 5, alpha=0.35),
    generated_instance(4, 5, 7, alpha=1.0),                      # log phi weights
    generated_instance(5, 4, 6, u_range=(0.0, 800.0), lam=1.0),  # log-domain kernel
], ids=["scaled", "alpha-one", "log-domain"])
def test_full_solve_assembles_bitwise_as_the_model(inst):
    # One kernel call gives ccp and log Z; the joint, the residual and the
    # gap equal those built from coupling_from_marginal and log_partition.
    sol = sc.full_solve(inst)
    nu = sol.nu_star
    coupling, residual = sc.coupling_from_marginal(nu, inst)
    assert sol.ccp.tobytes() == sc.mnl_ccp(nu, inst).tobytes()
    assert sol.coupling.joint.tobytes() == coupling.joint.tobytes()
    assert sol.marginal_residual == residual
    pot = sc.bridge.Potentials(a_scaled=inst.alpha * (np.log(nu.weights) - inst.log_phi),
                               b=sc.log_partition(nu.weights, inst),
                               gauge=sc.bridge.GAUGE_NU_MEAN_ZERO)
    assert sol.duality_gap == sc.bridge.certificate_gap(pot, coupling, nu, inst)


def test_full_solve_bridge_cross_check():
    inst = generated_instance(9, 3, 4, alpha=0.6)
    sol = sc.full_solve(inst, verify_with_bridge=True)
    assert len(sol.inner_diagnostics) == 1
    inner = sol.inner_diagnostics[0]
    assert inner.converged
    assert abs(inner.value - sol.U_star) <= 1e-8


def test_full_solve_alpha_one_closed_form():
    inst = generated_instance(7, 3, 3, alpha=1.0)
    sol = sc.full_solve(inst)
    assert sol.converged
    np.testing.assert_allclose(sol.ccp, sc.maxwell_boltzmann_ccp(inst), atol=1e-14)
    assert sol.outer_iterations == 0


def test_alpha_near_one_close_to_maxwell_boltzmann():
    inst = generated_instance(7, 3, 3, alpha=0.999)
    sol = sc.full_solve(inst)
    assert np.max(np.abs(sol.ccp - sc.maxwell_boltzmann_ccp(inst))) <= 1e-2


# --- brute-force oracle ------------------------------------------------------

def test_oracle_flat_instance(flat2x2):
    res = sc.brute_force_oracle(flat2x2)
    assert res.u_best == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(res.coupling.joint,
                               np.outer(flat2x2.phi, flat2x2.mu), atol=1e-4)


def test_oracle_symmetric_closed_form(sym2x2):
    res = sc.brute_force_oracle(sym2x2)
    assert res.u_best == pytest.approx(math.log((1 + E) / 2), abs=1e-9)


def test_oracle_ascends_from_full_information_start(sym2x2):
    full_info = np.eye(2)
    res = sc.brute_force_oracle(sym2x2, extra_starts=(full_info,))
    # that start is worth 1 - log 2; ascent must strictly improve on it
    start_value = res.start_values[-1]
    assert start_value > (1 - math.log(2)) + 0.1
    assert start_value == pytest.approx(math.log((1 + E) / 2), abs=1e-9)


def test_oracle_deterministic():
    inst = generated_instance(5, 3, 3, alpha=0.25)
    a = sc.brute_force_oracle(inst, seed=42)
    b = sc.brute_force_oracle(inst, seed=42)
    assert a.u_best == b.u_best
    np.testing.assert_array_equal(a.coupling.joint, b.coupling.joint)


def test_oracle_dimension_guard():
    inst = generated_instance(0, 4, 4, alpha=0.5)
    with pytest.raises(sc.ValidationError):
        sc.brute_force_oracle(inst)


def test_oracle_gradient_matches_finite_differences():
    inst = generated_instance(3, 3, 3, alpha=0.4, lam=1.0)
    rng = np.random.default_rng(7)
    q = rng.gamma(1.0, 1.0, (3, 3)) + 0.2
    q /= q.sum(axis=0, keepdims=True)
    grad = _oracle_gradient(q, inst)
    h = 1e-6
    for i in range(3):
        for j in range(3):
            qp = q.copy(); qp[i, j] += h
            qm = q.copy(); qm[i, j] -= h
            fd = (_oracle_objective(qp, inst) - _oracle_objective(qm, inst)) / (2 * h)
            assert grad[i, j] == pytest.approx(fd, abs=1e-5)


def test_oracle_objective_agrees_with_direct_definition():
    inst = generated_instance(3, 3, 3, alpha=0.4, lam=2.0)
    rng = np.random.default_rng(8)
    for _ in range(10):
        q = rng.gamma(1.0, 1.0, (3, 3)) + 1e-3
        q /= q.sum(axis=0, keepdims=True)
        joint = q * inst.mu[None, :]
        assert inst.lam * _oracle_objective(q, inst) == \
            pytest.approx(objective_direct(joint, inst), abs=1e-10)


# --- interior support --------------------------------------------------------

def test_support_bounded_across_family():
    worst = np.inf
    for seed in range(10):
        inst = generated_instance(seed, 3, 3, alpha=(0.25, 0.5, 0.75)[seed % 3])
        sol = sc.full_solve(inst)
        lo, hi = sc.density_bounds(sol.nu_star, inst)
        worst = min(worst, lo)
        assert lo > 0
        assert np.isfinite(hi)
    assert worst > 1e-6
