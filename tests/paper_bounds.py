"""The paper's continuum sup-norm bounds, kept as a test oracle.

``verify`` certifies the march against its own maximum principle,
``verify._bound_curves``; the tests compare that bound with the paper's
growth bound M (in closed form here) and the refined M7
(``problem.refined_max_bound``), so the paper's L-infinity theorem stands
as a measured comparison.
"""

import numpy as np

from upkolmo import kernels
from upkolmo.problem import (ZeroInitialDataError, data_sup_norms,
                             refined_max_bound)


def max_principle_bound(t_prime, b1g, b2g, dnorm):
    """Sup-norm bound M(t'): infimum over xi > b1g of

        exp(xi t') * max(dnorm, sqrt(b2g / (xi - b1g))),

    where ``dnorm`` is the sup-norm of the data over (0, t').  In
    g = xi - b1g the objective falls while g < 1/(2t') and the tail
    sqrt(b2g / g) exceeds dnorm, and rises after, so the infimum is at
    g = min(1/(2t'), b2g / dnorm^2):

        M = exp(b1g t' + 1/2) * sqrt(2 b2g t')     if 2 b2g t' >= dnorm^2,
        M = dnorm * exp((b1g + b2g / dnorm^2) t')  otherwise.

    ``t_prime`` and ``dnorm`` may be arrays.
    """
    t = np.asarray(t_prime, dtype=float)
    d = np.asarray(dnorm, dtype=float)
    # the branch not taken may divide by dnorm = 0 or overflow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.where(2.0 * b2g * t >= d * d,
                       np.exp(b1g * t + 0.5) * np.sqrt(2.0 * b2g * t),
                       d * np.exp((b1g + b2g / (d * d)) * t))
    return float(out) if out.ndim == 0 else out


def paper_bound(spec, traj):
    """min(M, M7) at each snapshot of a delayed-source run: the growth
    constants of the run's own gamma, the data norms over (0, t) enclosed
    as ``verify`` encloses them, and M7 where it is defined."""
    times = np.maximum(traj.times, 1e-9)
    dnorms = np.array([max(data_sup_norms(spec, (0.0, t)).values())
                       for t in times])
    b1g, b2g = kernels.source_growth_constants(
        spec.beta, traj.meta["gamma"], L=spec.L, S=spec.S, b1=spec.b1)
    bound = max_principle_bound(times, b1g, b2g, dnorms)
    try:
        return np.minimum(bound, refined_max_bound(spec, times))
    except ZeroInitialDataError:
        return bound
