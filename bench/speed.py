"""Machine-speed calibration for end-to-end times.

On a shared 2-core machine (the one this was tuned on) the same numpy loop
took anywhere from 1x to 2x its best time from one second to the next, and
the same op took 1.5x longer in one hour than in the next.  So a run
interleaves a fixed calibration workload that does not touch statechar with
its ops and its set-up samples, and reports their times in reference
seconds, each scaled by calibrations taken close to it:

    t_ref = t_wall * (REFERENCE_S / mean(calibrations close to it)) ** k

A change to statechar moves t_wall and leaves the calibrations alone; a slow
spell of the machine moves both.  Slow spells come and go within seconds and
double the calibration time, so only calibrations close to a measurement
track it.  Re-scoring ten runs of each workload, ops_per_s spread (IQR over
median) by 0.07 on solve-small-alpha and 0.04 on bridge-transport when each
op was scaled by the two calibration blocks on each side of it; by 0.08 and
0.05 with one block on each side; by 0.20 and 0.24 with the median
calibration of the run; and by 0.10 and 0.28 unscaled.  The exponent k is how strongly a slow spell slows
the measured work against how strongly it slows a calibration: fitted on
log-log, about 1 for ops (0.7 to 0.9 by workload; k = 1 is used) and 0.47 (correlation
0.85, 70 samples) for ``import statechar`` (k = 0.5 is used), which loads
files and runs little Python.  Raw wall times are kept in the run record.

The module imports nothing outside the standard library's ``time``, so a
fresh interpreter can calibrate before it times ``import statechar``.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.09  # a typical calibration time on that machine


def _floats(count: int, state: int = 20250808) -> list:
    """Fixed pseudo-random floats in [0, 1) from a 64-bit LCG."""
    out = []
    for _ in range(count):
        state = (6364136223846793005 * state + 1442695040888963407) % 2**64
        out.append(state / 2**64)
    return out


_FLOATS = _floats(20_000)


def calibration_s() -> float:
    """Wall time of formatting 160,000 floats with %.17g, as report writing does.

    Measured on that machine, this tracks the slow spells of statechar ops
    best: over 10 s blocks it cut the spread of an outer solve from 15 % to
    4 % and of canonical JSON dumping from 20 % to 9 %, where a numpy
    reduction kernel did worse.  Callers discard the first call.
    """
    start = perf_counter()
    for _ in range(8):
        ", ".join(f"{x:.17g}" for x in _FLOATS)
    return perf_counter() - start


def calibrate_for(seconds: float) -> list:
    """Calibration samples taking at least ``seconds`` in all (at least one)."""
    samples = [calibration_s()]
    while sum(samples) < seconds:
        samples.append(calibration_s())
    return samples


def reference_seconds(wall_s: float, calibrations: list, exponent: float = 1.0) -> float:
    """``wall_s`` in reference seconds, by the calibrations taken around it."""
    return wall_s * (REFERENCE_S * len(calibrations) / sum(calibrations)) ** exponent
