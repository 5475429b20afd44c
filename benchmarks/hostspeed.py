"""Host speed, measured by fixed reference loops run next to each timed part.

On a shared host the speed of one CPU swings by up to 2x over seconds and
minutes, with no steal time reported. Work slows together with a fixed loop
of the same kind, so timing such a loop just before and just after a timed
part, and scaling the part's time by the loop's idle-host time over its
mean time there, gives the part's time at a steadier reference speed. There
are two kinds of loop: ``python`` for work bound by Python bytecode and
small NumPy calls, and ``array`` for work bound by NumPy passes over
megabyte arrays. A loop slows somewhat more than the work it stands for,
so a scaled time can read below the time on an idle host.
"""

import time

import numpy as np

# Loops run on each side of a timed part.
LOOPS = 3


def python_loop() -> float:
    """Seconds for a fixed mix of Python bytecode and NumPy calls on 128
    elements, the mix of the library's step loops at small dimension."""
    a = np.linspace(0.0, 1.0, 128)
    b = np.ones(128)
    s = 0.0
    t0 = time.perf_counter()
    for i in range(6000):
        a = a * 0.999 + b * 1e-3
        s += float(a[i % 128])
    return time.perf_counter() - t0


def array_loop() -> float:
    """Seconds for four elementwise passes over 1e6-element f64 arrays
    (8 MB each, with temporaries), the mix of one optimizer step at 1e6."""
    a = np.linspace(0.0, 1.0, 1_000_000)
    b = np.ones(1_000_000)
    t0 = time.perf_counter()
    for _ in range(4):
        a = a * 0.999 + b * 1e-3
    return time.perf_counter() - t0


# Each loop, and the seconds it takes on an idle host: the fastest of many
# runs on an Intel Xeon (Sapphire Rapids) KVM guest CPU, numpy 2. Neither
# loop calls the library, so a change there leaves them alone.
KINDS = {"python": (python_loop, 0.0100), "array": (array_loop, 0.0100)}


def reference_loops(kind: str) -> list:
    return [KINDS[kind][0]() for _ in range(LOOPS)]


def scaled(seconds: float, loops: list, kind: str) -> float:
    """``seconds`` measured between ``kind`` loops that took ``loops``
    seconds each, at reference speed."""
    return seconds * KINDS[kind][1] * len(loops) / sum(loops)
