import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import statechar as sc
from statechar import model
from statechar.io import generated_instance

from conftest import log_domain_twin, random_coupling, random_simplex
from oracles import (expect_surprisal, kappa_first_form, logsumexp_fsum, mi_direct,
                     surprisal_matrix_reference)

E = math.e


# --- validation --------------------------------------------------------------

def test_null_mass_pruning():
    inst = sc.make_instance(["a", "b", "c"], ["s", "t"],
                            [[1, 0], [0, 1], [5, 5]],
                            [0.5, 0.5, 0.0], [0.5, 0.5], 0.5, 1.0)
    assert inst.characteristic_labels == ("a", "b")
    assert inst.n == 2
    np.testing.assert_allclose(inst.phi, [0.5, 0.5])
    assert inst.utility.shape == (2, 2)


def test_state_pruning_and_renormalization():
    inst = sc.make_instance(["a"], ["s", "t", "w"], [[1, 2, 3]],
                            [1.0], [0.25, 0.0, 0.75], 0.5, 1.0)
    assert inst.state_labels == ("s", "w")
    np.testing.assert_allclose(inst.mu, [0.25, 0.75])


def test_lambda_folded_into_utility():
    inst = sc.make_instance(["a", "b"], ["s", "t"], [[2, 0], [0, 2]],
                            [0.5, 0.5], [0.5, 0.5], 0.5, 2.0)
    np.testing.assert_array_equal(inst.utility, [[1, 0], [0, 1]])
    assert inst.lam == 2.0


def test_alpha_zero_rejected_with_uniqueness_reason():
    with pytest.raises(sc.ValidationError, match="unique"):
        sc.make_instance(["a"], ["s"], [[1]], [1.0], [1.0], 0.0, 1.0)


@pytest.mark.parametrize("bad", [
    {"phi": [-0.1, 1.1]},
    {"phi": [0.6, 0.6]},
    {"utility": [[np.inf, 0], [0, 1]]},
    {"alpha": 1.5},
    {"alpha": -0.3},
    {"lam": 0.0},
    {"lam": -1.0},
    {"lam": np.inf},
    {"utility": [[1e308, 0], [0, 1]], "lam": 0.5},  # u / lambda overflows
])
def test_validation_rejects(bad):
    base = dict(characteristics=["a", "b"], states=["s", "t"],
                utility=[[1, 0], [0, 1]], phi=[0.5, 0.5], mu=[0.5, 0.5],
                alpha=0.5, lam=1.0)
    base.update(bad)
    with pytest.raises(sc.ValidationError):
        sc.make_instance(base["characteristics"], base["states"],
                         base["utility"], base["phi"], base["mu"],
                         base["alpha"], base["lam"])


def test_empty_after_pruning_rejected():
    with pytest.raises(sc.ValidationError):
        sc.validate_instance({"characteristics": ["a"], "states": ["s"],
                              "utility": [[1.0]], "phi": [0.0], "mu": [1.0],
                              "alpha": 0.5, "lambda": 1.0})


def test_duplicate_labels_rejected():
    with pytest.raises(sc.ValidationError):
        sc.make_instance(["a", "a"], ["s", "t"], [[1, 0], [0, 1]],
                         [0.5, 0.5], [0.5, 0.5], 0.5, 1.0)


def test_instance_arrays_are_immutable(sym2x2):
    with pytest.raises(ValueError):
        sym2x2.phi[0] = 0.9


# --- kl divergence -----------------------------------------------------------

def test_kl_identical_is_zero():
    assert sc.kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_kl_point_mass_vs_uniform():
    assert sc.kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)


def test_kl_absolute_continuity_failure():
    assert sc.kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_kl_errors():
    with pytest.raises(sc.ValidationError):
        sc.kl_divergence([0.5, 0.5], [0.5, 0.25, 0.25])
    with pytest.raises(sc.ValidationError):
        sc.kl_divergence([-0.5, 1.5], [0.5, 0.5])


@given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6),
       st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_kl_nonnegative_zero_iff_equal(raw_p, raw_q):
    k = min(len(raw_p), len(raw_q))
    p = np.array(raw_p[:k]) / sum(raw_p[:k])
    q = np.array(raw_q[:k]) / sum(raw_q[:k])
    d = sc.kl_divergence(p, q)
    assert d >= -1e-15
    if np.allclose(p, q, atol=1e-15):
        assert d <= 1e-12
    if d <= 1e-15:
        assert np.allclose(p, q, atol=1e-6)


# --- mutual information ------------------------------------------------------

def test_mi_product_is_zero(flat2x2):
    P = sc.product_coupling(flat2x2)
    assert sc.mutual_information(P) == pytest.approx(0.0, abs=1e-15)


def test_mi_perfect_correlation():
    P = sc.Coupling(joint=np.diag([0.5, 0.5]))
    assert sc.mutual_information(P) == pytest.approx(math.log(2), abs=1e-15)


def test_mi_symmetric_optimum_value():
    # four-term sum evaluated from the closed-form optimal coupling
    p, q = E / (2 * (1 + E)), 1 / (2 * (1 + E))
    joint = np.array([[p, q], [q, p]])
    direct = 2 * (p * math.log(4 * p) + q * math.log(4 * q))
    assert direct == pytest.approx(0.11094407167172735, abs=1e-12)
    assert sc.mutual_information(sc.Coupling(joint=joint)) == pytest.approx(direct, abs=1e-12)


def test_mi_matches_direct_sum_on_random_couplings(sym2x2):
    rng = np.random.default_rng(0)
    for _ in range(25):
        P = random_coupling(rng, sym2x2)
        assert sc.mutual_information(P) == pytest.approx(mi_direct(P.joint), abs=1e-12)


def test_mi_bounded_by_marginal_entropies():
    rng = np.random.default_rng(1)
    inst = generated_instance(3, 4, 5)
    for _ in range(50):
        P = random_coupling(rng, inst)
        h_row = -np.sum(P.marginal_x * np.log(P.marginal_x))
        h_col = -np.sum(P.marginal_theta * np.log(P.marginal_theta))
        assert sc.mutual_information(P) <= min(h_row, h_col) + 1e-10


def test_mi_cell_whose_marginal_product_underflows():
    # nu(a) mu(s) = 1e-170 * 1e-160 underflows to 0 under a cell with mass;
    # that term is taken from the logs of the factors instead of a 0 divisor.
    joint = np.array([[1e-170, 0.0], [1e-160, 1.0]])
    row, col = joint.sum(axis=1), joint.sum(axis=0)
    assert row[0] * col[0] == 0.0
    direct = math.fsum(p * (math.log(p) - math.log(row[i]) - math.log(col[j]))
                       for (i, j), p in np.ndenumerate(joint) if p > 0)
    assert direct > 0.0
    assert sc.mutual_information(sc.Coupling(joint=joint)) == pytest.approx(direct, rel=1e-12)


# --- information cost and objective ------------------------------------------

def test_cost_zero_at_product(flat2x2):
    assert sc.information_cost(sc.product_coupling(flat2x2), flat2x2) == \
        pytest.approx(0.0, abs=1e-14)


def test_cost_form_equivalence_random():
    rng = np.random.default_rng(2)
    for seed in range(8):
        inst = generated_instance(seed, 3, 4, alpha=0.3 + 0.2 * (seed % 3),
                                  lam=0.5 if seed % 2 else 2.0)
        for _ in range(10):
            P = random_coupling(rng, inst)
            first = kappa_first_form(P.joint, inst.phi, inst.mu,
                                     inst.alpha, inst.lam)
            assert sc.information_cost(P, inst) == pytest.approx(first, abs=1e-10)


def test_cost_full_information_2x2(sym2x2):
    P = sc.Coupling(joint=np.diag([0.5, 0.5]))
    # nu = phi so only the mutual-information term remains
    assert sc.information_cost(P, sym2x2) == pytest.approx(math.log(2), abs=1e-12)


def test_objective_product_equals_expected_utility():
    inst = sc.make_instance(["a", "b"], ["s", "t"], [[3, 1], [0, 2]],
                            [0.4, 0.6], [0.3, 0.7], 0.5, 1.0)
    P = sc.product_coupling(inst)
    expected = float(np.sum(P.joint * np.array([[3, 1], [0, 2]])))
    assert sc.objective_value(P, inst) == pytest.approx(expected, abs=1e-12)


def test_objective_full_information_2x2(sym2x2):
    P = sc.Coupling(joint=np.diag([0.5, 0.5]))
    assert sc.objective_value(P, sym2x2) == pytest.approx(1 - math.log(2), abs=1e-12)


def test_objective_symmetric_optimum(sym2x2):
    p, q = E / (2 * (1 + E)), 1 / (2 * (1 + E))
    P = sc.Coupling(joint=np.array([[p, q], [q, p]]))
    assert sc.objective_value(P, sym2x2) == pytest.approx(math.log((1 + E) / 2), abs=1e-12)


def test_objective_rescales_with_lambda():
    rng = np.random.default_rng(3)
    inst = generated_instance(5, 3, 3, lam=2.5)
    for _ in range(10):
        P = random_coupling(rng, inst)
        from oracles import objective_direct
        assert sc.objective_value(P, inst) == pytest.approx(
            objective_direct(P.joint, inst), abs=1e-10)


# --- surprisal ---------------------------------------------------------------

def test_surprisal_zero_utility_product(flat2x2):
    y = sc.surprisal_matrix(sc.product_coupling(flat2x2), flat2x2)
    assert y.defined.all()
    np.testing.assert_allclose(y.values, 0.0, atol=1e-14)


def test_surprisal_product_general_u():
    inst = sc.make_instance(["a", "b"], ["s", "t"], [[3, 1], [0, 2]],
                            [0.4, 0.6], [0.3, 0.7], 0.5, 1.0)
    y = sc.surprisal_matrix(sc.product_coupling(inst), inst)
    np.testing.assert_allclose(y.values, inst.utility, atol=1e-14)


def test_surprisal_constant_at_symmetric_optimum(sym2x2):
    p, q = E / (2 * (1 + E)), 1 / (2 * (1 + E))
    P = sc.Coupling(joint=np.array([[p, q], [q, p]]))
    y = sc.surprisal_matrix(P, sym2x2)
    np.testing.assert_allclose(y.values, math.log((1 + E) / 2), atol=1e-12)


def test_surprisal_undefined_cells_flagged(sym2x2):
    P = sc.Coupling(joint=np.diag([0.5, 0.5]))
    y = sc.surprisal_matrix(P, sym2x2)
    assert y.defined[0, 0] and y.defined[1, 1]
    assert not y.defined[0, 1] and not y.defined[1, 0]
    assert np.isnan(y.values[0, 1])


def test_surprisal_dense_matches_gathered_reference():
    # Bitwise equal values on defined cells, NaN on the others, and the same
    # mask, with no RuntimeWarning from the dense evaluation of the others.
    inst = generated_instance(5, 12, 9, alpha=0.3, lam=0.8)
    opt = sc.full_solve(inst).coupling.joint
    assert opt.min() > 0.0
    holes = np.where(np.random.default_rng(2).random(opt.shape) < 0.3, 0.0, opt)
    zero_rows = opt.copy()
    zero_rows[[2, 7]] = 0.0
    zero_cols = holes.copy()
    zero_cols[:, [0, 4]] = 0.0
    for joint in (opt, holes, zero_rows, zero_cols):
        P = sc.Coupling(joint=joint / joint.sum())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sc.surprisal_matrix(P, inst)
        values, defined = surprisal_matrix_reference(P, inst)
        np.testing.assert_array_equal(got.defined, defined)
        assert np.array_equal(got.values[defined].view(np.uint64),
                              values[defined].view(np.uint64))
        assert np.isnan(got.values[~defined]).all()
        assert defined.all() == (joint is opt)


def test_surprisal_zero_mass_row_request():
    inst = sc.make_instance(["a", "b"], ["s"], [[1], [0]], [0.5, 0.5], [1.0],
                            0.5, 1.0)
    P = sc.Coupling(joint=np.array([[1.0], [0.0]]))
    with pytest.raises(sc.ValidationError):
        sc.surprisal_matrix(P, inst, rows=1)


def test_expected_surprisal_identity():
    # E_P[Y] = U(P)/lambda on full-support couplings
    rng = np.random.default_rng(4)
    for seed in range(5):
        inst = generated_instance(seed, 3, 4, alpha=0.4, lam=1.5)
        for _ in range(10):
            P = random_coupling(rng, inst)
            y = sc.surprisal_matrix(P, inst)
            lhs = float(np.sum(P.joint * y.values))
            assert lhs == pytest.approx(sc.objective_value(P, inst) / inst.lam,
                                        abs=1e-10)
            assert lhs == pytest.approx(expect_surprisal(P.joint, P.joint, inst),
                                        abs=1e-10)


@given(st.lists(st.floats(0.01, 10.0), min_size=9, max_size=9))
@settings(max_examples=60, deadline=None)
def test_coupling_identities_hold_for_arbitrary_conditionals(raw):
    # one draw parameterizes all three conditional columns of a 3x3 coupling
    inst = generated_instance(17, 3, 3, alpha=0.4, lam=1.3)
    q = np.array(raw).reshape(3, 3)
    q /= q.sum(axis=0, keepdims=True)
    P = sc.Coupling(joint=q * inst.mu[None, :])
    first = kappa_first_form(P.joint, inst.phi, inst.mu, inst.alpha, inst.lam)
    assert sc.information_cost(P, inst) == pytest.approx(first, abs=1e-10)
    y = sc.surprisal_matrix(P, inst)
    assert float(np.sum(P.joint * y.values)) == pytest.approx(
        sc.objective_value(P, inst) / inst.lam, abs=1e-10)
    assert sc.jensen_gap(P, inst) >= -1e-12


# --- partition function and MNL ----------------------------------------------

def test_partition_ones_for_zero_utility(flat2x2):
    nu = sc.Marginal(weights=flat2x2.phi)
    np.testing.assert_allclose(sc.partition_function(nu, flat2x2), 1.0, atol=1e-14)


def test_partition_symmetric_value(sym2x2):
    nu = sc.Marginal(weights=np.array([0.5, 0.5]))
    np.testing.assert_allclose(sc.partition_function(nu, sym2x2),
                               (1 + E) / 2, atol=1e-12)


def test_partition_constant_utility_factorizes():
    c = 1.7
    inst = sc.make_instance(["a", "b"], ["s", "t"], [[c, c], [c, c]],
                            [0.3, 0.7], [0.5, 0.5], 0.25, 1.0)
    nu = sc.Marginal(weights=np.array([0.6, 0.4]))
    expected = math.exp(c) * np.sum(inst.phi ** 0.25 * nu.weights ** 0.75)
    np.testing.assert_allclose(sc.partition_function(nu, inst), expected, atol=1e-12)


def test_mnl_ccp_no_utility_variation(flat2x2):
    ccp = sc.mnl_ccp(sc.Marginal(weights=flat2x2.phi), flat2x2)
    np.testing.assert_allclose(
        ccp, np.tile(flat2x2.phi[:, None], (1, flat2x2.m)), atol=1e-14)


def test_mnl_ccp_symmetric_diagonal(sym2x2):
    ccp = sc.mnl_ccp(sc.Marginal(weights=np.array([0.5, 0.5])), sym2x2)
    assert ccp[0, 0] == pytest.approx(E / (1 + E), abs=1e-12)
    assert ccp[1, 1] == pytest.approx(E / (1 + E), abs=1e-12)


def test_mnl_ccp_columns_are_probabilities():
    rng = np.random.default_rng(5)
    for seed in range(6):
        inst = generated_instance(seed, 4, 3, alpha=0.1 + 0.25 * (seed % 4))
        nu = sc.Marginal(weights=random_simplex(rng, 4))
        ccp = sc.mnl_ccp(nu, inst)
        assert np.all(ccp > 0)
        np.testing.assert_allclose(ccp.sum(axis=0), 1.0, atol=1e-12)


def test_mnl_ccp_alpha_one_ignores_marginal():
    inst = generated_instance(9, 3, 3, alpha=1.0)
    rng = np.random.default_rng(6)
    a = sc.mnl_ccp(sc.Marginal(weights=random_simplex(rng, 3)), inst)
    b = sc.mnl_ccp(sc.Marginal(weights=random_simplex(rng, 3)), inst)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(a, sc.maxwell_boltzmann_ccp(inst), atol=1e-15)


# --- scaled kernel against the log-domain reference --------------------------

# square-ish shapes, and tall and wide ones where one contraction sums far
# more terms than the other
SHAPES = st.one_of(st.tuples(st.integers(1, 30), st.integers(1, 30)),
                   st.tuples(st.integers(1, 4), st.integers(100, 400)),
                   st.tuples(st.integers(100, 400), st.integers(1, 4)))


@given(st.integers(0, 2**32 - 1), SHAPES,
       st.floats(1e-3, 1.0), st.floats(0.0, 200.0), st.floats(0.0, 300.0))
@settings(max_examples=150, deadline=None)
def test_scaled_kernel_matches_log_domain(seed, shape, alpha, span, tiny):
    n, m = shape
    rng = np.random.default_rng(seed)
    inst = sc.make_instance(range(n), range(m),
                            span * rng.uniform(-0.5, 0.5, size=(n, m)),
                            random_simplex(rng, n), random_simplex(rng, m),
                            alpha, 1.0)
    assert isinstance(inst._kernel, model._ScaledGibbsKernel)  # GEMV path taken
    ref = log_domain_twin(inst)
    assert type(ref._kernel) is model._GibbsKernel

    # both contractions, on log weights spread over `tiny` decades
    decades = tiny * math.log(10.0)
    l_x = -decades * rng.uniform(size=n)
    l_t = -decades * rng.uniform(size=m)
    np.testing.assert_allclose(inst._kernel.over_x(l_x), ref._kernel.over_x(l_x),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(inst._kernel.over_t(l_t), ref._kernel.over_t(l_t),
                               rtol=0, atol=1e-12)

    # marginal entries spread log-uniformly down to 10^-tiny
    w = 10.0 ** -rng.uniform(0.0, tiny, size=n)
    nu = sc.Marginal(weights=w / w.sum())
    np.testing.assert_allclose(sc.log_partition(nu.weights, inst),
                               sc.log_partition(nu.weights, ref), rtol=0, atol=1e-12)
    np.testing.assert_allclose(sc.mnl_ccp(nu, inst), sc.mnl_ccp(nu, ref),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(sc.foc_multiplier(nu, inst),
                               sc.foc_multiplier(nu, ref), rtol=1e-12, atol=0)


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12),
       st.floats(0.0, 800.0), st.floats(0.0, 0.5), st.floats(-1000.0, 1000.0))
@settings(max_examples=60, deadline=None)
def test_kernel_contractions_match_fsum_reference(seed, n, m, span, p_zero, offset):
    # Both kernel forms against a math.fsum log-sum-exp, with -inf entries
    # (zero weights) in the input, never all of them, and an offset that
    # overflows or underflows every term unless the sum is shifted.
    rng = np.random.default_rng(seed)
    utility = span * rng.uniform(-0.5, 0.5, size=(n, m))
    kernels = [model._GibbsKernel(utility)]
    if span <= model._scaled_span_bound(max(n, m)):
        kernels.append(model._ScaledGibbsKernel(utility, utility.max(axis=0)))
    l_x = rng.uniform(-50.0, 5.0, size=n)
    l_t = rng.uniform(-50.0, 5.0, size=m)
    l_x[rng.uniform(size=n) < p_zero] = -np.inf
    l_t[rng.uniform(size=m) < p_zero] = -np.inf
    l_x[rng.integers(n)] = 0.0
    l_t[rng.integers(m)] = 0.0
    l_x += offset
    l_t += offset
    want_x = [logsumexp_fsum(l_x + utility[:, t]) for t in range(m)]
    want_t = [logsumexp_fsum(l_t + utility[x, :]) for x in range(n)]
    for kernel in kernels:
        np.testing.assert_allclose(kernel.over_x(l_x), want_x, rtol=1e-13, atol=1e-12)
        np.testing.assert_allclose(kernel.over_t(l_t), want_t, rtol=1e-13, atol=1e-12)


def test_logsumexp_shift_keeps_huge_and_zero_terms():
    a = np.array([[1000.0, -np.inf], [1000.0 + math.log(3.0), 0.0]])
    np.testing.assert_allclose(model._logsumexp(a, axis=0),
                               [1000.0 + math.log(4.0), 0.0], rtol=1e-15)
    assert model._logsumexp(np.array([-np.inf, 2.0])) == 2.0


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(sc.__file__))
    code = "import sys, statechar; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_wide_span_falls_back_to_log_domain():
    # One 2-cell column with u/lambda span 800 whose two terms are equal:
    # exp(u/lambda - column max) underflows the second to 0, which would
    # drop log 2 from log Z.  (log_partition takes any nonnegative weights;
    # a marginal could not offset a span this wide.)
    alpha = 0.5
    inst = sc.make_instance(["a", "b"], ["t"], [[800.0], [0.0]],
                            [1e-300, 1.0 - 1e-300], [1.0], alpha, 1.0)
    assert type(inst._kernel) is model._GibbsKernel
    top = alpha * math.log(inst.phi[0]) + (1 - alpha) * math.log(1e-300) + 800.0
    weights = np.array([1e-300,
                        math.exp((top - alpha * math.log(inst.phi[1])) / (1 - alpha))])
    terms = (alpha * np.log(inst.phi) + (1 - alpha) * np.log(weights)
             + inst.utility[:, 0])
    assert terms[0] == pytest.approx(terms[1], abs=1e-12)
    expected = terms.max() + math.log1p(math.exp(terms.min() - terms.max()))
    assert sc.log_partition(weights, inst)[0] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(terms[0] + math.log(2.0), abs=1e-12)


def test_span_rule_counts_the_longer_sum():
    # over_t sums m terms, so the bound is taken at max(n, m): a span between
    # the bounds for n = 2 and for m = 1000 must stay in the log domain.
    n, m = 2, 1000
    span = 0.5 * (model._scaled_span_bound(n) + model._scaled_span_bound(m))
    utility = np.zeros((n, m))
    utility[0, 0] = span
    inst = sc.make_instance(range(n), range(m), utility, [0.5, 0.5],
                            np.full(m, 1.0 / m), 0.5, 1.0)
    assert type(inst._kernel) is model._GibbsKernel
    utility[0, 0] = model._scaled_span_bound(m)
    inst = sc.make_instance(range(n), range(m), utility, [0.5, 0.5],
                            np.full(m, 1.0 / m), 0.5, 1.0)
    assert isinstance(inst._kernel, model._ScaledGibbsKernel)


@pytest.mark.parametrize("seed, size, alpha", [(0, 100, 0.05), (1, 50, 0.1)])
def test_outer_iteration_count_pinned(seed, size, alpha):
    # The scaled kernel changes only roundoff, so the outer loop must take
    # exactly as many steps as with the log-domain reference.
    inst = generated_instance(seed, size, size, alpha=alpha)
    assert isinstance(inst._kernel, model._ScaledGibbsKernel)
    res = sc.outer_solve(inst)
    ref = sc.outer_solve(log_domain_twin(inst))
    assert res.converged and ref.converged
    assert res.iterations == ref.iterations


# --- coupling assembly -------------------------------------------------------

def test_coupling_from_marginal_product_case(flat2x2):
    coupling, residual = sc.coupling_from_marginal(
        sc.Marginal(weights=flat2x2.phi), flat2x2)
    np.testing.assert_allclose(coupling.joint,
                               np.outer(flat2x2.phi, flat2x2.mu), atol=1e-14)
    assert residual <= 1e-14


def test_coupling_from_marginal_symmetric(sym2x2):
    coupling, residual = sc.coupling_from_marginal(
        sc.Marginal(weights=np.array([0.5, 0.5])), sym2x2)
    np.testing.assert_allclose(coupling.marginal_x, [0.5, 0.5], atol=1e-12)
    assert residual <= 1e-12
    np.testing.assert_allclose(coupling.marginal_theta, sym2x2.mu, atol=1e-15)


def test_coupling_from_marginal_off_optimum_residual_positive():
    inst = generated_instance(11, 3, 3, alpha=0.5)
    _, residual = sc.coupling_from_marginal(sc.Marginal(weights=inst.phi), inst)
    assert residual > 1e-3


def test_coupling_type_invariants():
    with pytest.raises(sc.ValidationError):
        sc.Coupling(joint=np.array([[0.6, 0.6]]))
    with pytest.raises(sc.ValidationError):
        sc.Coupling(joint=np.array([[-0.1, 1.1]]))
    with pytest.raises(sc.ValidationError):
        sc.Marginal(weights=np.array([1.0, 0.0]))
