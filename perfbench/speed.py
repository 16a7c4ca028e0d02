"""CPU-speed probe sampled while a pass runs, to scale its time to one speed.

The benchmark's machine is shared: its CPU speed drifts by up to 2x within
minutes, so raw pass times of identical work spread far wider than any useful
regression bound.  While sampling is on, a SIGALRM every ``INTERVAL_S`` runs
a fixed pure-Python loop twice and records how long the second run took.  The
median of those times says how fast the CPU ran during the pass; a time
scaled by ``REFERENCE_S / median`` is the time the pass would take at the
speed where the probe reads ``REFERENCE_S``.  ``scaling_check.py`` measures how
much of the work added to a pass the scaled time reports.

The probe costs about 0.5% of a pass and touches no state of the program.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

INTERVAL_S = 0.02
# A probe time typical of the 2-CPU machine of the first history entry;
# scaled times are seconds at the speed where the probe reads this.
REFERENCE_S = 43e-6


def _loop() -> None:
    table = {}
    x = 0
    for i in range(300):
        table[i & 15] = x
        x = (x * 31 + i) % 1000003


def probe() -> float:
    """Seconds that one run of a fixed loop takes, right after an untimed run."""
    # The untimed first run refills the caches and branch predictors that the
    # pass has just used: timed cold, the probe read 15% slower inside a pass
    # than outside it, and more so the more memory the pass touched.
    _loop()
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


@contextlib.contextmanager
def sampling():
    """Yield a list that fills with probe times until the block ends.

    There is always one sample from just before and one from just after the
    block, so a block spent inside one long native call still gets a reading.
    """
    samples = [probe()]
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(probe()))
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        samples.append(probe())


def scale(samples) -> float:
    """Factor that turns a time taken during ``samples`` into reference seconds."""
    return REFERENCE_S / statistics.median(samples)
