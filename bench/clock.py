"""Call timing corrected for the speed of a shared host.

On a shared 2-core sandbox the same pure-Python computation takes anywhere
from 1x to about 1.8x its undisturbed time, in phases that last from seconds
to minutes, so raw wall times of two runs of identical code differ by more
than any useful regression bound.  ``Timer`` therefore times a fixed
calibration loop next to the calls it measures and reports each call's wall
time scaled to a reference speed:

    reported = wall * REFERENCE_LOOP_S / loop time measured around the call

The loop is the benchmark's own code (exact ``Fraction`` and ``int``
arithmetic, like the program's), so a change to heightzeta cannot move it;
only the host's speed does.  Calls of ``LONG_CALL_S`` or more are reported
unscaled.  At the time of writing the only such calls are the L anchor's
assemble_zeta and build_report, which spend their time in big-integer gcds:
measured side by side, those moved by 4% (interquartile) while the loop's
time swung 1.8x, so scaling them by the loop would add noise, not remove it.
Raw wall times are kept beside the scaled ones.

A call that runs in a child process (a CLI invocation) is scaled once per
run instead (``Timer(per_call=False)``): by the reference loop time over the
median of the loop times taken before each call of the run.  Scaled call by
call, the five-seed spread of cli_session's pass time was 0.12, worse than
raw; the loop right next to a child's exit does not track the child's speed,
while the median over a run follows the host's slow phases, which last a
minute or so.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# Calibration loop time at reference speed: the median of 400 loops on the
# 2-core x86-64 sandbox (Python 3.11) where the benchmark was written.
REFERENCE_LOOP_S = 0.0045
# Calibrate again before a call when the last calibration is older than this.
RECALIBRATE_S = 0.2
# Calls at least this long are reported unscaled.
LONG_CALL_S = 3.0


def _loop() -> float:
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i % 97 + 1, i)
    table: dict[int, int] = {}
    for i in range(15000):
        table[i % 257] = table.get(i % 257, 0) + i * i
    return perf_counter() - t0


class Timer:
    """Times calls; ``calls`` holds (call id, scaled seconds, raw seconds).

    With ``per_call=False`` both times in ``calls`` are raw, and the run's
    scaled times are raw times multiplied by ``run_scale()``.
    """

    def __init__(self, per_call: bool = True):
        self.per_call = per_call
        self.loops: list[float] = []  # loop times taken before calls
        self.calls: list[tuple[str, float, float]] = []
        self._loop_s = 0.0
        self._at = float("-inf")

    def calibrate(self) -> float:
        """Loop time now: the median of three runs of the loop."""
        self._loop_s = statistics.median(_loop() for _ in range(3))
        self._at = perf_counter()
        return self._loop_s

    def scale(self, raw: float, loop_before: float, loop_after: float) -> float:
        return raw * REFERENCE_LOOP_S / ((loop_before + loop_after) / 2)

    def run_scale(self) -> float:
        """The factor from raw to scaled times of a per_call=False run."""
        if self.per_call or not self.loops:
            return 1.0
        return REFERENCE_LOOP_S / statistics.median(self.loops)

    def call(self, call_id: str, fn, *args, **kwargs):
        if perf_counter() - self._at > RECALIBRATE_S:
            self.calibrate()
        before = self._loop_s
        self.loops.append(before)
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        raw = perf_counter() - t0
        if raw >= LONG_CALL_S or not self.per_call:
            self.calls.append((call_id, raw, raw))
        else:
            after = self.calibrate() if raw > RECALIBRATE_S else self._loop_s
            self.calls.append((call_id, self.scale(raw, before, after), raw))
        return result
