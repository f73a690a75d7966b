"""Speed of the machine, measured with a fixed piece of work.

On a 2-vCPU virtual machine on a shared host, the same operations ran up
to twice as fast in one ten-minute stretch as in the next, with no change
to the code.  A run therefore times this kernel before the first
operation of a round and after every operation, and scales each operation
time by ``NOMINAL_S`` over the mean of the two kernel times around it.
The metrics then read as times on the machine at its nominal speed, and a
slower or faster host moves both the kernel and the operations together.

The kernel does what the program does most, in the benchmark's own code:
complex Horner evaluation and a float Routh array in pure Python, plus
small numpy calls.  It uses nothing from ``robustpoly``, so a change to
the program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time at the nominal speed: about its median in the quiet stretches
# of the 2-vCPU virtual machine that the figures in README.md come from.
NOMINAL_S = 0.00175

_POLYS = [[float(c) for c in np.poly(-np.linspace(0.5, 3.0, 8) * (1 + 0.1 * k))[::-1]] for k in range(6)]
_OMEGAS = np.linspace(0.0, 8.0, 200)


def _routh_first_column(p: list[float]) -> list[float]:
    desc = p[::-1]
    above, row = desc[0::2], desc[1::2] + [0.0] * (len(desc[0::2]) - len(desc[1::2]))
    col = [above[0]]
    for _ in range(len(p) - 1):
        col.append(row[0])
        if row[0] == 0.0:
            break
        nxt = [(row[0] * above[i + 1] - above[0] * row[i + 1]) / row[0] for i in range(len(above) - 1)]
        above, row = row, nxt + [0.0]
    return col


def kernel() -> float:
    """Run the fixed work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for p in _POLYS:
        for w in _OMEGAS:
            z = complex(0.0, w)
            v = 0j
            for c in reversed(p):
                v = v * z + c
            acc += abs(v)
        acc += sum(_routh_first_column(p))
        acc += float(np.abs(np.polyval(p[::-1], _OMEGAS)).sum())
        acc += float(np.roots(p[::-1]).real.max())
    if not np.isfinite(acc):
        raise ArithmeticError("calibration kernel produced a non-finite value")
    return time.perf_counter() - t0
