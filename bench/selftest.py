"""Self-test of the benchmark: python3 bench/selftest.py (from the repo root).

Runs every workload at a tiny size, untraced and traced, and asserts that
every metric named in BENCHMARK.json prints with its unit and that no answer
fails the output check.  Then asserts that the output check accepts real
reports and rejects a solve report at a 1 %-perturbed nu and bridge reports
with a tampered coupling, and that a traced call that raised is still timed.
Exits 0 when everything holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import shutil
import sys

import run

run._cap_blas_threads()
sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

import harness  # noqa: E402
from check import check_report  # noqa: E402
from statechar.cli import main as cli_main  # noqa: E402
from statechar.io import dumps_canonical, instance_hash, load_instance  # noqa: E402
from statechar.model import Marginal, mnl_ccp  # noqa: E402
from workloads import TOL, WORKLOADS, OpSpec, Workload, write_instances  # noqa: E402


def check_metrics_print() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for workload in WORKLOADS.values():
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = harness.run(workload.tiny(), seed=3, seconds=0.5, trace=trace)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run._print_summary(result)
            line = run.result_line(result)
            assert line["correct"] and line["attempted"] >= 1, (workload.name, line)
            assert set(line["metrics"]) == {m["name"] for m in declared}, workload.name
            printed = [row.split() for row in out.getvalue().splitlines()]
            for m in declared:
                got = line["metrics"][m["name"]]
                assert got["unit"] == m["unit"] and math.isfinite(got["value"]), (m, got)
                assert any(row[:1] == [m["name"]] and row[-1] == m["unit"]
                           for row in printed if row), m["name"]
            print(f"ok  {workload.name} trace={int(trace)}: "
                  f"{line['attempted']} ops, {line['failed']} failed")


def run_cli(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj))


def check_rejections(tmp: str) -> None:
    workload = Workload("selftest", (OpSpec("solve", 6, 5, alpha=0.3),
                                     OpSpec("bridge", 8, 6, s=30.0)), instance_sets=1)
    solve_op, bridge_op = write_instances(workload, 11, tmp)[0]
    for op in (solve_op, bridge_op):
        with open(op["instance"], encoding="utf-8") as fh:
            assert op["hash"] == instance_hash(json.load(fh))

    inst = load_instance(solve_op["instance"])[0]
    good = os.path.join(tmp, "solve.json")
    assert run_cli(["solve", "--instance", solve_op["instance"], "--report", good]) == 0
    assert check_report(good, solve_op, inst, TOL) is None
    with open(good, encoding="utf-8") as fh:
        report = json.load(fh)
    nu = np.asarray(report["solution"]["nu_star"])
    nu = nu * (1.0 + 0.01 * np.where(np.arange(inst.n) % 2, 1.0, -1.0))
    nu /= nu.sum()
    for consistent in (True, False):
        bad = copy.deepcopy(report)
        bad["solution"]["nu_star"] = nu.tolist()
        if consistent:
            bad["solution"]["coupling"] = (mnl_ccp(Marginal(weights=nu), inst)
                                           * inst.mu[None, :]).tolist()
        path = os.path.join(tmp, "solve-bad.json")
        write_json(path, bad)
        reason = check_report(path, solve_op, inst, TOL)
        assert reason is not None, "perturbed-nu solve report accepted"
        print(f"ok  perturbed nu (coupling {'rebuilt' if consistent else 'kept'}) "
              f"rejected: {reason}")

    inst = load_instance(bridge_op["instance"])[0]
    good = os.path.join(tmp, "bridge.json")
    assert run_cli(["bridge", "--instance", bridge_op["instance"], "--nu", bridge_op["nu"],
                    "--report", good]) == 0
    assert check_report(good, bridge_op, inst, TOL) is None
    with open(good, encoding="utf-8") as fh:
        report = json.load(fh)
    joint = np.asarray(report["bridge"]["coupling"])
    delta = 0.1 * joint[:2, :2].min()
    cycle = joint.copy()      # keeps both marginals
    cycle[0, 0] += delta
    cycle[1, 1] += delta
    cycle[0, 1] -= delta
    cycle[1, 0] -= delta
    scaled = joint.copy()
    scaled[0, 0] *= 1.01
    for name, tampered in (("mass-preserving cycle", cycle), ("scaled entry", scaled)):
        bad = copy.deepcopy(report)
        bad["bridge"]["coupling"] = tampered.tolist()
        path = os.path.join(tmp, "bridge-bad.json")
        write_json(path, bad)
        reason = check_report(path, bridge_op, inst, TOL)
        assert reason is not None, f"bridge report with a {name} accepted"
        print(f"ok  tampered coupling ({name}) rejected: {reason}")


def check_raised_call_in_trace() -> None:
    """A traced call that raised (no note) counts in its layer's time only."""
    spans = [["cli.main", 0.0, 2.0, None, 0, None],
             ["bridge.sinkhorn_solve", 0.5, 1.5, 0, 0, None]]
    op = {"instance_bytes": 10}
    records = [{"traced": True, "wall_s": 2.0, "op": op, "report": None},
               {"traced": False, "wall_s": 1.5, "op": op, "report": None}]
    m = harness.per_layer_metrics(records, spans, {})
    assert m["bridge.sinkhorn_solve_s"] == 1.0 and m["cli.self_s"] == 1.0, m
    assert m["bridge.sweeps"] == 0.0 and m["bridge.ns_per_cell_sweep"] == 0.0, m
    assert m["trace.overhead_s"] == 0.5, m
    print("ok  a traced call that raised is timed and left out of the ratios")


def main() -> int:
    tmp = os.path.join(harness.WORK, f"selftest-{os.getpid()}")
    os.makedirs(tmp)
    try:
        check_rejections(tmp)
        check_raised_call_in_trace()
        check_metrics_print()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
