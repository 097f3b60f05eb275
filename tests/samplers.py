"""The sampled sups that the enclosures of ``exprdsl.sup`` replaced, kept
as a test oracle: a sample is a value the expression takes, so no
enclosure may fall below it, and on smooth data a dense one comes close."""

import numpy as np

from upkolmo import exprdsl as E


def sample_max(expr, box, n=256, signed=False):
    """max |expr| (max expr where ``signed``) on n ``linspace`` points per
    axis of ``box``, {name: (lo, hi)}, or one count per axis; of a
    derivative, of its ``diff``."""
    counts = np.broadcast_to(n, len(box))
    axes = {name: np.linspace(lo, hi, k).reshape(
                [k if j == i else 1 for j in range(len(box))])
            for i, ((name, (lo, hi)), k) in enumerate(zip(box.items(), counts))}
    vals = np.asarray(E.compile(expr)[0](axes), dtype=float)
    return float(np.max(vals if signed else np.abs(vals)))


def slab(spec, radius):
    """The box (x, s) in the domain, |lambda| <= radius."""
    return {"x": (0.0, spec.L), "s": (0.0, spec.S),
            "lambda": (-radius, radius)}
