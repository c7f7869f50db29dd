"""Probes of two seed-state defects, measured in traced runs.

Every op a workload times must complete, so the workloads stay clear of the
inputs where statechar fails (see the comment above ``WORKLOADS``).  The
defects still show: each probe calls the layer functions directly, outside
the tracer and the timed ops, on the input a workload would otherwise have
carried, and reports how often the defect showed there.  A fix moves the
count to 0.

* ROADMAP 2b, ``diagnostics.failed_checks_small_alpha``: diagnostics checks
  that fail at the optimum of a 100x100 solve at alpha = 0.01 (3 on the seed
  code: ``fso``, ``directional_derivative`` and ``density``).
* ROADMAP 2a, ``bridge.failed_solves_steep``: 1 when ``sinkhorn_solve``
  raises on the 2000x50 transport instance at s = 100 (``coupling has a
  negative entry`` on the seed code), else 0.
"""

from __future__ import annotations

from statechar.bridge import sinkhorn_solve
from statechar.diagnostics import run_diagnostics
from statechar.io import gen_instance
from statechar.model import Marginal, ValidationError, validate_instance
from statechar.optimize import full_solve
from workloads import TOL, op_seed, transport_instance

PROBE_SET = 1000  # instance-set index of probe inputs; no workload has this many


def failed_checks_small_alpha(seed: int) -> float:
    inst = validate_instance(gen_instance(op_seed(seed, PROBE_SET, 0), 100, 100,
                                          u_range=(0.0, 2.0), alpha=0.01, lam=1.0))
    sol = full_solve(inst, outer_tol=TOL, inner_tol=TOL)
    return float(sum(not ok for ok in run_diagnostics(sol, inst).pass_flags.values()))


def failed_solves_steep(seed: int) -> float:
    inst = validate_instance(transport_instance(op_seed(seed, PROBE_SET, 1), 2000, 50, 100.0))
    try:
        sinkhorn_solve(inst, Marginal(weights=inst.phi), tol=TOL)
    except ValidationError:
        return 1.0
    return 0.0


# workload -> (per-layer metric, probe); the metric reads 0 on other workloads
PROBES = {
    "solve-small-alpha": ("diagnostics.failed_checks_small_alpha", failed_checks_small_alpha),
    "bridge-transport": ("bridge.failed_solves_steep", failed_solves_steep),
}


def probe_metrics(workload: str, seed: int) -> dict:
    """Every probe metric, measured on its own workload and 0 on the others."""
    return {name: probe(seed) if owner == workload else 0.0
            for owner, (name, probe) in PROBES.items()}
