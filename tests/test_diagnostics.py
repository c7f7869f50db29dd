import math

import numpy as np
import pytest

import statechar as sc
from statechar.io import generated_instance

from conftest import random_coupling
from oracles import expect_surprisal

E = math.e


@pytest.fixture(scope="module")
def seeded():
    inst = generated_instance(7, 3, 3, alpha=0.5)
    return inst, sc.full_solve(inst)


# --- gibbs -------------------------------------------------------------------

def test_gibbs_zero_at_flat_product(flat2x2):
    assert sc.gibbs_check(sc.product_coupling(flat2x2), flat2x2) <= 1e-14


def test_gibbs_product_probe_value(sym2x2):
    # Y = u at the product coupling, so each column has weighted std 1/2
    dev = sc.gibbs_check(sc.product_coupling(sym2x2), sym2x2)
    assert dev == pytest.approx(0.5, abs=1e-12)


def test_gibbs_small_at_optimum(seeded):
    inst, sol = seeded
    assert sc.gibbs_check(sol.coupling, inst) <= 1e-6


def test_gibbs_large_off_optimum(seeded):
    inst, _ = seeded
    assert sc.gibbs_check(sc.product_coupling(inst), inst) >= 1e-2


# --- first-step orthogonality ------------------------------------------------

def test_fso_zero_for_identical_probe(seeded):
    inst, sol = seeded
    out = sc.fso_check(sol.coupling, sol.coupling, inst, (1e-2, 1e-3))
    for _, slope in out:
        assert slope <= 1e-12


def test_fso_slopes_decay_at_optimum(seeded):
    inst, sol = seeded
    out = sc.fso_check(sol.coupling, sc.product_coupling(inst), inst,
                       (1e-2, 1e-3, 1e-4))
    slopes = [s for _, s in out]
    assert slopes[0] >= slopes[1] >= slopes[2]
    assert slopes[2] <= 1e-3


def test_fso_symmetric_optimum_probe(sym2x2):
    sol = sc.full_solve(sym2x2)
    out = sc.fso_check(sol.coupling, sc.product_coupling(sym2x2), sym2x2,
                       (1e-2, 1e-3, 1e-4))
    slopes = [s for _, s in out]
    assert slopes[0] >= slopes[1] >= slopes[2]
    assert slopes[2] <= 1e-3


def test_fso_on_product_perturbations():
    # paths between two product couplings with different row marginals
    inst = sc.make_instance(["a", "b"], ["s", "t"], [[0, 0], [0, 0]],
                            [0.4, 0.6], [0.3, 0.7], 0.5, 1.0)
    P = sc.Coupling(joint=np.outer([0.5, 0.5], inst.mu))
    H = sc.Coupling(joint=np.outer([0.7, 0.3], inst.mu))
    out = sc.fso_check(P, H, inst, (1e-2, 1e-3, 1e-4))
    slopes = [s for _, s in out]
    assert slopes[0] >= slopes[1] >= slopes[2]
    # the one-sided derivative is zero even away from any optimum
    assert slopes[2] <= 1e-3


def test_fso_rejects_bad_eps(seeded):
    inst, sol = seeded
    with pytest.raises(sc.ValidationError):
        sc.fso_check(sol.coupling, sc.product_coupling(inst), inst, (1.5,))


def test_fso_rejects_implausible_probe(seeded):
    inst, sol = seeded
    bad = sc.Coupling(joint=np.full((3, 3), 1 / 9))
    if np.max(np.abs(bad.marginal_theta - inst.mu)) > 1e-9:
        with pytest.raises(sc.ValidationError):
            sc.fso_check(sol.coupling, bad, inst, (1e-2,))


# --- directional derivative --------------------------------------------------

def test_directional_zero_for_identical_probe(seeded):
    inst, sol = seeded
    assert sc.directional_derivative_check(sol.coupling, sol.coupling,
                                           inst, 1e-3) <= 1e-9


def test_directional_error_scales_linearly():
    inst = generated_instance(7, 3, 3, alpha=0.5)
    sol = sc.full_solve(inst)
    H = sc.product_coupling(inst)
    e3 = sc.directional_derivative_check(sol.coupling, H, inst, 1e-3)
    e4 = sc.directional_derivative_check(sol.coupling, H, inst, 1e-4)
    assert 0.05 <= e4 / e3 <= 0.15


def test_directional_prediction_from_direct_sums():
    # check against hand-rolled expectations of the surprisal
    inst = generated_instance(4, 3, 3, alpha=0.4)
    rng = np.random.default_rng(0)
    P = random_coupling(rng, inst)
    H = random_coupling(rng, inst)
    eps = 1e-5
    mixed = sc.Coupling(joint=(1 - eps) * P.joint + eps * H.joint)
    fd = (sc.objective_value(mixed, inst) - sc.objective_value(P, inst)) / eps
    pred = inst.lam * (expect_surprisal(H.joint, P.joint, inst)
                       - expect_surprisal(P.joint, P.joint, inst))
    reported = sc.directional_derivative_check(P, H, inst, eps)
    assert reported == pytest.approx(abs(fd - pred), abs=1e-12)
    assert reported <= 1e-3


def test_first_order_optimality_at_optimum(seeded):
    inst, sol = seeded
    y = sc.surprisal_matrix(sol.coupling, inst)
    base = float(np.sum(sol.coupling.joint * y.values))
    rng = np.random.default_rng(1)
    probes = [sc.product_coupling(inst)] + [random_coupling(rng, inst)
                                            for _ in range(10)]
    for H in probes:
        gain = float(np.sum(H.joint * y.values)) - base
        assert gain <= 1e-8


# --- jensen gap --------------------------------------------------------------

def test_jensen_gap_zero_at_optimum(seeded):
    inst, sol = seeded
    assert 0 <= sc.jensen_gap(sol.coupling, inst) <= 1e-8


def test_jensen_gap_full_information_probe(sym2x2):
    gap = sc.jensen_gap(sc.Coupling(joint=np.diag([0.5, 0.5])), sym2x2)
    assert gap == pytest.approx(math.log((1 + E) / 2) - (1 - math.log(2)),
                                abs=1e-12)
    assert gap == pytest.approx(0.3132616875182228, abs=1e-12)


def test_jensen_gap_zero_at_flat_product(flat2x2):
    assert abs(sc.jensen_gap(sc.product_coupling(flat2x2), flat2x2)) <= 1e-12


def test_jensen_gap_nonnegative_sweep(seeded):
    inst, _ = seeded
    rng = np.random.default_rng(2)
    lowest = np.inf
    for _ in range(1000):
        gap = sc.jensen_gap(random_coupling(rng, inst), inst)
        lowest = min(lowest, gap)
        assert gap >= -1e-12
    assert lowest >= 0


# --- mnl residual ------------------------------------------------------------

def test_mnl_residual_zero_at_optimum(seeded):
    inst, sol = seeded
    assert sc.mnl_residual(sol.coupling, inst) <= 1e-8


def test_mnl_residual_product_probe(sym2x2):
    res = sc.mnl_residual(sc.product_coupling(sym2x2), sym2x2)
    assert res == pytest.approx(E / (1 + E) - 0.5, abs=1e-12)


def test_mnl_residual_zero_for_flat_product(flat2x2):
    assert sc.mnl_residual(sc.product_coupling(flat2x2), flat2x2) <= 1e-14


# --- density bounds ----------------------------------------------------------

def test_density_bounds_identity(flat2x2):
    assert sc.density_bounds(flat2x2.phi, flat2x2) == (1.0, 1.0)


def test_density_bounds_arithmetic(sym2x2):
    lo, hi = sc.density_bounds(np.array([0.9, 0.1]), sym2x2)
    assert lo == pytest.approx(0.2, abs=1e-15)
    assert hi == pytest.approx(1.8, abs=1e-15)


# --- aggregated report -------------------------------------------------------

def test_report_passes_on_solver_output(seeded):
    inst, sol = seeded
    report = sc.run_diagnostics(sol, inst)
    assert report.all_passed, report.pass_flags
    assert report.thresholds["gibbs"] == 1e-6
    assert len(report.fso_slopes) == 3
    assert np.isfinite(report.directional_derivative_error)


def test_fso_passes_within_ulps_of_an_exact_optimum():
    # Zero utility, phi = (0.25, 0.75): the optimum is phi x mu exactly, and
    # its fso slopes are roundoff / eps.  Moving each cell by up to 2 ulps
    # gave slopes up to 2.2e-12, which a fixed 1e-12 decay slack failed.
    import dataclasses
    import itertools

    inst = sc.make_instance(["a", "b"], ["lo", "hi"], [[0.0, 0.0], [0.0, 0.0]],
                            [0.25, 0.75], [0.5, 0.5], alpha=0.5, lam=1.0)
    sol = sc.full_solve(inst)
    exact = np.outer(inst.phi, inst.mu)
    np.testing.assert_array_equal(sol.coupling.joint, exact)
    failed = []
    for steps in itertools.product(range(-2, 3), repeat=exact.size):
        joint = exact.ravel().copy()
        for k, step in enumerate(steps):
            for _ in range(abs(step)):
                joint[k] = np.nextafter(joint[k], math.copysign(np.inf, step))
        P = sc.Coupling(joint=joint.reshape(exact.shape))
        moved = dataclasses.replace(sol, coupling=P,
                                    nu_star=sc.Marginal(weights=P.marginal_x))
        if not sc.run_diagnostics(moved, inst).pass_flags["fso"]:
            failed.append(steps)
    assert failed == []


def test_report_flags_failures_on_probes(seeded):
    inst, _ = seeded
    # a fake "solution" built around the product coupling must fail checks
    import dataclasses
    sol = sc.full_solve(inst)
    probe = dataclasses.replace(sol, coupling=sc.product_coupling(inst),
                                nu_star=sc.Marginal(weights=inst.phi))
    report = sc.run_diagnostics(probe, inst)
    assert not report.pass_flags["gibbs"]
    assert not report.pass_flags["mnl_residual"]
    assert not report.all_passed
