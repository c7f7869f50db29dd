"""The workload's process: runs CLI operations back to back and records them.

Usage: python3 worker.py PLAN.json RESULT.json

One client in a closed loop: each op is one in-process ``statechar.cli.main``
call, started when the previous one has returned.  Whole passes over the
workload's ops are run until the ops have taken ``seconds``; the passes cycle
through the generated instance sets.  With tracing on, every instance set is
run twice in a row, once traced, so tracing overhead is measured on the same
inputs.  A speed calibration (speed.py) runs before the first op and after
every op, outside its timing, and is recorded with the op it follows.  Reports are left on disk for the parent to check; this
process does nothing else, so its peak RSS is the program's.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

CALIBRATION_SHARE = 0.05  # calibration time after each op, as a share of the op


def run_op(main, op: dict, report: str, stdout_path: str, tracer, op_id: int) -> dict:
    argv = [op["command"], "--instance", op["instance"], "--report", report]
    if op["command"] == "bridge":
        argv += ["--nu", op["nu"]]
    err = io.StringIO()
    error = None
    with open(stdout_path, "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = tracer.op_call(op_id, main, argv) if tracer else main(argv)
        except Exception as exc:  # an op that raises counts as failed
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - start
    return {"exit_code": code, "wall_s": wall, "error": error or err.getvalue().strip()[-300:]}


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from speed import calibrate_for, calibration_s
    from statechar.cli import main as cli_main
    from tracing import Tracer

    tracer = Tracer() if plan["trace"] else None
    sets = plan["sets"]
    records = []
    calibration_s()  # warm-up
    first_calibrations = calibrate_for(0.3)
    measured = 0.0
    k = 0
    while measured < plan["seconds"] or k < 1 or (tracer and k % 2):
        # Traced runs go in pairs of passes over one instance set, one pass
        # traced, and the order flips from pair to pair so that the first,
        # cold pass does not always land on the same side.
        traced = tracer is not None and k % 2 != k // 2 % 2
        ops = sets[(k // 2 if tracer else k) % len(sets)]
        with tracer if traced else contextlib.nullcontext():
            for op in ops:
                op_id = len(records)
                report = os.path.join(plan["work"], f"report-{op_id}.json")
                rec = run_op(cli_main, op, report, plan["stdout"],
                             tracer if traced else None, op_id)
                rec.update(op=op, report=report if os.path.exists(report) else None,
                           traced=traced, pass_index=k)
                rec["calibrations"] = calibrate_for(CALIBRATION_SHARE * rec["wall_s"])
                records.append(rec)
                measured += rec["wall_s"]
        k += 1

    result = {
        "records": records,
        "first_calibrations": first_calibrations,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
        "counters": tracer.counters if tracer else {},
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
