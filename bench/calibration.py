"""Machine speed, measured by a fixed kernel that does not use `upkolmo`.

A shared virtual machine runs the same code at speeds that drift by +-20%
over tens of seconds and minutes (measured on a 2-vCPU KVM guest of a
2.1 GHz Xeon).  Wall times taken minutes apart then differ by more than
any bound a regression gate can use.  Timing this kernel next to each
command gives the speed the command ran at; dividing its wall time by
the speed factor gives the time at the reference speed, which drifts about
half as much.

The kernel is a Python loop over small NumPy arrays, the same mix of
interpreter and array work as the solver's step loop.  It must never
change: the reference time is tied to it.
"""

import time

import numpy as np

# The kernel's median time on the machine above; any fixed value would do.
REFERENCE_S = 0.2133


def kernel_seconds():
    """Wall time of one run of the fixed kernel."""
    a = np.random.default_rng(0).random((66, 66))
    nodes = np.linspace(-3.0, 3.0, 6145)
    table = np.cumsum(np.abs(nodes)) * 1e-3
    start = time.perf_counter()
    for _ in range(1500):
        w = a[1:-1, :]
        f = np.interp(w.ravel(), nodes, table).reshape(w.shape)
        d = 0.5 * (f[:, 1:] - f[:, :-1])
        a[1:-1, 1:-1] = (0.5 * a[1:-1, 1:-1] + 0.01 * d[:, :-1]
                         + 0.49 * np.tanh(a[1:-1, 1:-1]))
        if not np.all(np.isfinite(a)):
            raise FloatingPointError("calibration kernel diverged")
    return time.perf_counter() - start
