"""Workloads of the statechar benchmark and the instance files they run on.

A workload is a fixed list of CLI operations (one *pass*).  Every run
generates its instances from ``--seed`` alone, writes them as canonical JSON
files, and the program only ever sees those files.  ``instance_sets`` fresh
sets are generated per run and the passes cycle through them, so a run
averages over several random instances where the per-instance work varies.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace

import numpy as np

from statechar.io import dumps_canonical, gen_instance

TOL = 1e-10  # the CLI's default --outer-tol and --inner-tol


@dataclass(frozen=True)
class OpSpec:
    """One CLI invocation: ``statechar solve`` or ``statechar bridge --nu phi``."""

    command: str        # "solve" or "bridge"
    n: int
    m: int
    alpha: float = 0.5
    s: float = 0.0      # bridge only: u(x, t) = -s * (x - t)^2

    @property
    def label(self) -> str:
        if self.command == "solve":
            return f"solve {self.n}x{self.m} alpha={self.alpha:g}"
        return f"bridge {self.n}x{self.m} s={self.s:g}"


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    instance_sets: int

    def tiny(self) -> "Workload":
        """The same operations on instances of a few dozen cells (self-test)."""
        ops = tuple(replace(op, n=max(4, op.n // 50), m=max(4, op.m // 50))
                    for op in self.ops)
        return replace(self, ops=ops, instance_sets=min(self.instance_sets, 2))


# Why each workload exists is written up in NOTES.md beside this file.  No
# op of a workload fails on the seed code: smaller alpha at these sizes, or a
# steeper transport utility, runs into the defects that probes.py measures.
# solve-small-alpha reuses one instance set: its iteration counts barely vary
# with the seed.  Sinkhorn sweep counts vary by ~10 % between instances,
# so bridge-transport cycles through several sets.
WORKLOADS = {w.name: w for w in (
    Workload("solve-small-alpha",
             (OpSpec("solve", 300, 300, alpha=0.05),
              OpSpec("solve", 200, 200, alpha=0.04),
              OpSpec("solve", 100, 100, alpha=0.05),
              OpSpec("solve", 50, 50, alpha=0.1)),
             instance_sets=1),
    Workload("bridge-transport",
             (OpSpec("bridge", 2000, 50, s=30.0),
              OpSpec("bridge", 50, 2000, s=30.0),
              OpSpec("bridge", 1000, 200, s=30.0),
              OpSpec("bridge", 200, 1000, s=30.0)),
             instance_sets=3),
)}


def op_seed(seed: int, instance_set: int, index: int) -> int:
    """Independent integer seed for one generated instance."""
    return int(np.random.SeedSequence([seed, instance_set, index]).generate_state(1)[0])


def transport_instance(seed: int, n: int, m: int, s: float) -> dict:
    """Structured instance u(x, t) = -s * (x - t)^2 on sorted uniform locations.

    Priors are uniform(0.2, 1) draws, normalized; alpha = 0.5, lambda = 1.
    """
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, size=n))
    t = np.sort(rng.uniform(0.0, 1.0, size=m))
    phi = rng.uniform(0.2, 1.0, size=n)
    mu = rng.uniform(0.2, 1.0, size=m)
    return {
        "characteristics": [f"x{i + 1}" for i in range(n)],
        "states": [f"t{j + 1}" for j in range(m)],
        "utility": (-s * (x[:, None] - t[None, :]) ** 2).tolist(),
        "phi": (phi / phi.sum()).tolist(),
        "mu": (mu / mu.sum()).tolist(),
        "alpha": 0.5,
        "lambda": 1.0,
    }


def instance_payload(op: OpSpec, seed: int) -> dict:
    if op.command == "solve":
        return gen_instance(seed, op.n, op.m, u_range=(0.0, 2.0),
                            alpha=op.alpha, lam=1.0)
    return transport_instance(seed, op.n, op.m, op.s)


def write_instances(workload: Workload, seed: int, directory: str) -> list:
    """Generate every instance of a run; returns one list of op dicts per set.

    Each op dict holds the file paths, the instance hash and the file size.
    The file text is ``dumps_canonical`` of the instance fields in canonical
    order, so its SHA-256 equals ``statechar.io.instance_hash`` of the payload.
    """
    sets = []
    for k in range(workload.instance_sets):
        ops = []
        for j, op in enumerate(workload.ops):
            payload = instance_payload(op, op_seed(seed, k, j))
            text = dumps_canonical(payload)
            path = os.path.join(directory, f"instance-{k}-{j}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            entry = {
                "label": op.label,
                "command": op.command,
                "instance": path,
                "hash": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                "instance_bytes": len(text),
                "cells": op.n * op.m,
            }
            if op.command == "bridge":
                entry["nu"] = os.path.join(directory, f"nu-{k}-{j}.json")
                with open(entry["nu"], "w", encoding="utf-8") as fh:
                    fh.write(dumps_canonical({"nu": payload["phi"]}))
            ops.append(entry)
        sets.append(ops)
    return sets
