"""Spans and counters recorded around the calls into each statechar layer.

Tracing is done from outside the package: while a ``Tracer`` is installed,
the names that one statechar module looks up in another (for example
``statechar.cli.full_solve`` or ``statechar.optimize.outer_solve``) are
replaced by timing wrappers, and the originals are put back on exit.  Coarse
calls become spans (name, start, end, parent, op id, notes); the hot kernel
calls inside the outer loop only bump counters (calls, seconds, cells), so
tracing adds no per-iteration records.
"""

from __future__ import annotations

import importlib
from time import perf_counter

ROOT = "cli.main"

# (module, attribute, span name, note made from the call's result and arguments)
SPANS = (
    ("statechar.cli", "load_instance", "io.load_instance", None),
    ("statechar.cli", "instance_hash", "io.instance_hash", None),
    ("statechar.cli", "dumps_canonical", "io.dumps_canonical", None),
    ("statechar.cli", "full_solve", "optimize.full_solve", None),
    ("statechar.cli", "run_diagnostics", "diagnostics.run_diagnostics",
     lambda r, args: {"failed_checks": sum(not ok for ok in r.pass_flags.values())}),
    ("statechar.cli", "sinkhorn_solve", "bridge.sinkhorn_solve",
     lambda r, args: {"sweeps": r.iterations, "cells": args[0].n * args[0].m}),
    ("statechar.cli", "schrodinger_residual", "bridge.schrodinger_residual", None),
    ("statechar.io", "validate_instance", "model.validate_instance", None),
    ("statechar.optimize", "outer_solve", "optimize.outer_solve",
     lambda r, args: {"iterations": r.iterations, "cells": args[0].n * args[0].m}),
    ("statechar.diagnostics", "gibbs_check", "diagnostics.gibbs_check", None),
    ("statechar.diagnostics", "fso_check", "diagnostics.fso_check", None),
    ("statechar.diagnostics", "directional_derivative_check",
     "diagnostics.directional_derivative_check", None),
    ("statechar.diagnostics", "jensen_gap", "diagnostics.jensen_gap", None),
    ("statechar.diagnostics", "mnl_residual", "diagnostics.mnl_residual", None),
    ("statechar.bridge", "duality_gap", "bridge.duality_gap", None),
)

# (module, attribute, counter name); every one takes the instance second.
COUNTERS = (
    ("statechar.model", "log_partition", "model.log_partition"),
    ("statechar.optimize", "log_partition", "model.log_partition"),
    ("statechar.diagnostics", "log_partition", "model.log_partition"),
    ("statechar.optimize", "foc_multiplier", "optimize.foc_multiplier"),
)


class Tracer:
    """In-memory spans and counters; install it with ``with tracer:``."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id, notes]
        self.counters = {}   # name -> [calls, seconds, cells]
        self._stack = []
        self._saved = []
        self.op = None

    def _span(self, name, fn, note):
        def wrapped(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            record = [name, 0.0, 0.0, parent, self.op, None]
            self.spans.append(record)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                record[1] = start
                self._stack.pop()
            if note is not None:
                record[5] = note(result, args)
            return result
        return wrapped

    def _counter(self, name, fn):
        entry = self.counters.setdefault(name, [0, 0.0, 0])

        def wrapped(first, inst, *args, **kwargs):
            start = perf_counter()
            result = fn(first, inst, *args, **kwargs)
            entry[1] += perf_counter() - start
            entry[0] += 1
            entry[2] += inst.n * inst.m
            return result
        return wrapped

    def op_call(self, op_id, fn, *args):
        """Run ``fn(*args)`` as the root span of one traced op."""
        self.op = op_id
        return self._span(ROOT, fn, None)(*args)

    def __enter__(self):
        for module, attr, name, note in SPANS:
            mod = importlib.import_module(module)
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self._span(name, getattr(mod, attr), note))
        for module, attr, name in COUNTERS:
            mod = importlib.import_module(module)
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self._counter(name, getattr(mod, attr)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
        self.op = None
        return False
