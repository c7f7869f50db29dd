import dataclasses

import pytest

import statechar as sc
from statechar import model


@pytest.fixture
def sym2x2():
    """u = 1{x = t}, uniform priors, lambda 1, alpha 1/2: fully symmetric."""
    return sc.make_instance(["a", "b"], ["lo", "hi"],
                            [[1.0, 0.0], [0.0, 1.0]],
                            [0.5, 0.5], [0.5, 0.5], alpha=0.5, lam=1.0)


@pytest.fixture
def flat2x2():
    """Constant-utility instance with non-uniform priors."""
    return sc.make_instance(["a", "b"], ["lo", "hi"],
                            [[0.0, 0.0], [0.0, 0.0]],
                            [0.4, 0.6], [0.3, 0.7], alpha=0.5, lam=1.0)


def random_simplex(rng, n, floor=0.05):
    w = rng.uniform(floor, 1.0, size=n)
    return w / w.sum()


def random_coupling(rng, inst):
    """Bayes-plausible full-support coupling with random conditionals."""
    q = rng.gamma(1.0, 1.0, size=(inst.n, inst.m)) + 1e-3
    q /= q.sum(axis=0, keepdims=True)
    return sc.Coupling(joint=q * inst.mu[None, :])


def log_domain_twin(inst):
    """An equal instance whose cached Gibbs kernel is the log-domain reference."""
    twin = dataclasses.replace(inst)
    object.__setattr__(twin, "_kernel", model._GibbsKernel(twin.utility))
    return twin
