"""statechar benchmark: run one workload once and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload solve-small-alpha --seed 1 --seconds 30 --trace 0

Workloads: solve-small-alpha, bridge-transport (NOTES.md says why each
exists, and why solve-large was dropped).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record of the run (environment,
instance hashes, every op, spans) is written under ``.bench_work/results/``.
Exits 2 without a result when ``src/statechar`` is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; numpy is not loaded yet."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def _print_summary(result: dict) -> None:
    ops = result["ops"]
    env = result["environment"]
    failed = [o for o in ops if o["exit_code"] != 0]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}"
          f"  {result['load']}")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for inst in result["instances"]:
        print(f"instance {inst['label']:<28} sha256 {inst['sha256']}  {inst['bytes']} bytes")
    print(f"ops: {len(ops)} attempted, {len(failed)} failed, "
          f"{sum(o['bad_answer'] is not None for o in ops)} bad answers, "
          f"{sum(o['wall_s'] for o in ops):.3f} s of ops")
    for o in failed:
        print(f"  failed: {o['label']} exit {o['exit_code']}: {o['error']}")
    for o in ops:
        if o["bad_answer"] is not None:
            print(f"  bad answer: {o['label']}: {o['bad_answer']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    if not result["trace"]:
        walls = sorted(o["wall_s"] for o in ops)
        print(f"  op_s_p50 is over {len(ops)} ops, in reference seconds (raw wall "
              f"median {statistics.median(walls):.4g} s); setup_s over "
              f"{len(result['setup_wall_s'])} fresh interpreters")
    print(f"full record: {result['results_file']}")


def result_line(result: dict) -> dict:
    ops = result["ops"]
    return {
        "correct": all(o["bad_answer"] is None for o in ops),
        "attempted": len(ops),
        "failed": sum(o["exit_code"] != 0 for o in ops),
        "metrics": result["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "statechar", "__init__.py")):
        print(f"error: no statechar sources under {SRC}", file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path.insert(0, SRC)
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    _print_summary(result)
    print(json.dumps(result_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
