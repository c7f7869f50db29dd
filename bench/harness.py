"""One benchmark run: set-up timing, instance generation, the workload's
process, the output check, and the metrics.

End-to-end metrics come only from untraced runs, per-layer metrics only from
traced runs (see NOTES.md for what each one is meant to move).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

from check import check_report
from probes import probe_metrics
from speed import reference_seconds
from statechar.io import load_instance
from workloads import TOL, write_instances

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 7
SETUP_EXPONENT = 0.5  # how much a slow spell slows the import (speed.py)
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
}

# Spans the CLI opens directly; with cli.self_s they add up to the op.
TOP_LEVEL = ("io.load_instance", "io.instance_hash", "io.dumps_canonical",
             "optimize.full_solve", "diagnostics.run_diagnostics",
             "bridge.sinkhorn_solve", "bridge.schrodinger_residual")
INNER = ("model.validate_instance", "optimize.outer_solve",
         "diagnostics.gibbs_check", "diagnostics.fso_check",
         "diagnostics.directional_derivative_check", "diagnostics.jensen_gap",
         "diagnostics.mnl_residual", "bridge.duality_gap")

PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in TOP_LEVEL + INNER},
    "cli.self_s": "s",
    "io.instance_bytes": "bytes",
    "io.report_bytes": "bytes",
    "model.log_partition_us": "us",
    "model.log_partition_ns_per_cell": "ns",
    "optimize.foc_multiplier_us": "us",
    "optimize.assemble_s": "s",
    "optimize.outer_iterations": "count",
    "optimize.outer_ns_per_cell_iter": "ns",
    "diagnostics.failed_checks": "count",
    "diagnostics.failed_checks_small_alpha": "count",
    "bridge.sweeps": "count",
    "bridge.ns_per_cell_sweep": "ns",
    "bridge.failed_solves_steep": "count",
    "trace.op_s_mean": "s",
    "trace.overhead_s": "s",
}


def measure_setup(repeats: int = SETUP_REPEATS):
    """``import statechar`` timed in fresh interpreters, as every CLI call pays it.

    Each interpreter times a speed calibration (speed.py) right before the
    import and one right after it.  Returns the import
    times and those pairs of calibrations.  The first interpreter only warms
    the file cache and writes bytecode.
    """
    code = ("import time, speed; c = speed.calibration_s(); "
            "t = time.perf_counter(); import statechar; t = time.perf_counter() - t; "
            "print(repr(t), repr(c), repr(speed.calibration_s()))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, BENCH)))
    times, calibrations = [], []
    for _ in range(repeats + 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        t, *c = map(float, out.stdout.split())
        times.append(t)
        calibrations.append(c)
    return times[1:], calibrations[1:]


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def _source_hash() -> str:
    """SHA-256 over the package sources, naming the code measured without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "statechar")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "src_sha256": _source_hash(),
    }


def _check_records(records: list) -> list:
    """The output check's verdict per op: None, or why the answer is bad."""
    instances = {}
    verdicts = []
    for rec in records:
        op = rec["op"]
        if rec["report"] is None:
            verdicts.append("exit 0 without a report" if rec["exit_code"] == 0 else None)
            continue
        if op["instance"] not in instances:
            instances[op["instance"]] = load_instance(op["instance"])[0]
        try:
            verdicts.append(check_report(rec["report"], op, instances[op["instance"]], TOL))
        except (KeyError, TypeError, ValueError) as exc:
            verdicts.append(f"report does not parse: {type(exc).__name__}: {exc}")
    return verdicts


def end_to_end_metrics(records: list, first_calibrations: list, setup_times: list,
                       setup_calibrations: list, peak_rss_kb: int) -> dict:
    """Times in reference seconds (speed.py); raw wall times stay in the record.

    A block of calibrations runs before the first op and after every op; an
    op is scaled by the two blocks on each side of it.  A pass mixes op sizes
    whose times interleave, so the median of single ops jumps between sizes
    from run to run; op_s_p50 is therefore the median over passes of the mean
    op time in a pass (for one-op passes, the op median).
    """
    blocks = [first_calibrations] + [rec["calibrations"] for rec in records]
    passes = {}
    for i, rec in enumerate(records):
        near = [c for block in blocks[max(0, i - 1):i + 3] for c in block]
        rec["ref_s"] = reference_seconds(rec["wall_s"], near)
        passes.setdefault(rec["pass_index"], []).append(rec["ref_s"])
    return {
        "setup_s": statistics.median(reference_seconds(t, c, SETUP_EXPONENT) for t, c
                                     in zip(setup_times, setup_calibrations)),
        "ops_per_s": len(records) / sum(r["ref_s"] for r in records),
        "op_s_p50": statistics.median(statistics.fmean(p) for p in passes.values()),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def per_layer_metrics(records: list, spans: list, counters: dict) -> dict:
    """Times are means per traced op, in wall seconds; the counts
    (iterations, sweeps, failed checks) are means per call that returned."""
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    n_ops = len(traced)
    total = dict.fromkeys(TOP_LEVEL + INNER + ("cli.main",), 0.0)
    # Notes exist only for calls that returned; a call that raised counts in
    # its layer's time but not in the ratios.
    notes = {"iterations": 0, "outer_cell_iters": 0, "outer_s": 0.0, "outer_calls": 0,
             "sweeps": 0, "cell_sweeps": 0, "sinkhorn_s": 0.0, "sinkhorn_calls": 0,
             "failed_checks": 0, "diagnostics_calls": 0}
    self_time = 0.0
    for name, start, end, parent, _op, note in spans:
        total[name] += end - start
        if parent is None:
            self_time += end - start
        elif spans[parent][0] == "cli.main":
            self_time -= end - start
        if note is None:
            continue
        if name == "optimize.outer_solve":
            notes["iterations"] += note["iterations"]
            notes["outer_cell_iters"] += note["iterations"] * note["cells"]
            notes["outer_s"] += end - start
            notes["outer_calls"] += 1
        elif name == "bridge.sinkhorn_solve":
            notes["sweeps"] += note["sweeps"]
            notes["cell_sweeps"] += note["sweeps"] * note["cells"]
            notes["sinkhorn_s"] += end - start
            notes["sinkhorn_calls"] += 1
        elif name == "diagnostics.run_diagnostics":
            notes["failed_checks"] += note["failed_checks"]
            notes["diagnostics_calls"] += 1

    def ratio(num, den, scale):
        return num * scale / den if den else 0.0

    lp = counters.get("model.log_partition", [0, 0.0, 0])
    foc = counters.get("optimize.foc_multiplier", [0, 0.0, 0])
    metrics = {f"{name}_s": total[name] / n_ops for name in TOP_LEVEL + INNER}
    metrics.update({
        "cli.self_s": self_time / n_ops,
        "io.instance_bytes": sum(r["op"]["instance_bytes"] for r in traced) / n_ops,
        "io.report_bytes": sum(os.path.getsize(r["report"])
                               for r in traced if r["report"]) / n_ops,
        "model.log_partition_us": ratio(lp[1], lp[0], 1e6),
        "model.log_partition_ns_per_cell": ratio(lp[1], lp[2], 1e9),
        "optimize.foc_multiplier_us": ratio(foc[1], foc[0], 1e6),
        "optimize.assemble_s": (total["optimize.full_solve"]
                                - total["optimize.outer_solve"]) / n_ops,
        "optimize.outer_iterations": ratio(notes["iterations"], notes["outer_calls"], 1),
        "optimize.outer_ns_per_cell_iter": ratio(notes["outer_s"],
                                                 notes["outer_cell_iters"], 1e9),
        "diagnostics.failed_checks": ratio(notes["failed_checks"],
                                           notes["diagnostics_calls"], 1),
        "bridge.sweeps": ratio(notes["sweeps"], notes["sinkhorn_calls"], 1),
        "bridge.ns_per_cell_sweep": ratio(notes["sinkhorn_s"],
                                          notes["cell_sweeps"], 1e9),
        "trace.op_s_mean": total["cli.main"] / n_ops,
        "trace.overhead_s": (statistics.fmean(r["wall_s"] for r in traced)
                             - statistics.fmean(r["wall_s"] for r in untraced)),
    })
    return metrics


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload once; returns everything the run measured."""
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    tmp = os.path.join(WORK, f"tmp-{workload.name}-{seed}-{int(trace)}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        setup_times, setup_calibrations = measure_setup()
        sets = write_instances(workload, seed, tmp)
        plan = {"src": SRC, "seconds": seconds, "trace": trace, "sets": sets,
                "work": tmp, "stdout": os.path.join(tmp, "stdout.txt")}
        plan_path = os.path.join(tmp, "plan.json")
        result_path = os.path.join(tmp, "worker.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"),
                        plan_path, result_path],
                       cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
        with open(result_path, encoding="utf-8") as fh:
            worker = json.load(fh)
        records = worker["records"]
        for rec, verdict in zip(records, _check_records(records)):
            rec["bad_answer"] = verdict
        if trace:
            metrics = per_layer_metrics(records, worker["spans"], worker["counters"])
            metrics.update(probe_metrics(workload.name, seed))
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end_metrics(records, worker["first_calibrations"], setup_times,
                                         setup_calibrations, worker["peak_rss_kb"])
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load": "closed loop, 1 client, in-process statechar.cli.main",
        "environment": environment(),
        "setup_wall_s": setup_times,
        "setup_calibrations_s": setup_calibrations,
        "first_calibrations_s": worker["first_calibrations"],
        "instances": [{"label": op["label"], "sha256": op["hash"],
                       "bytes": op["instance_bytes"]} for ops in sets for op in ops],
        "ops": [{"label": r["op"]["label"], "exit_code": r["exit_code"],
                 "wall_s": r["wall_s"], "ref_s": r.get("ref_s"),
                 "calibrations_s": r["calibrations"], "traced": r["traced"],
                 "error": r["error"], "bad_answer": r["bad_answer"]} for r in records],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "spans": worker["spans"],
        "counters": worker["counters"],
    }
    path = os.path.join(WORK, "results",
                        f"{workload.name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    result["results_file"] = os.path.relpath(path, ROOT)
    return result
