"""Mollifier and the delayed impulse kernel.

The mollifier is the classical bump

    omega(t) = C * exp(-1 / (1 - t^2))   for |t| < 1,   0 otherwise,

with C = 1 / (mass of the raw bump) = 2.2522836210435795 stored as a
constant, so that the kernel has unit mass.  The delayed kernel

    K_gamma(t, tau) = 1_{t <= tau} * (2/gamma) * omega((t - tau)/gamma)

is supported on [tau - gamma, tau], keeps unit mass for every gamma, and
collapses onto a left-sided point impulse at tau as gamma -> 0+.

Its primitive P(t) = 2 * int_{-1}^{(t - tau)/gamma} omega is 0 before the
support and 1 from tau on; ``k_gamma_primitive`` tabulates it once, so
that the march applies the kernel's exact average over each time step.
"""

from __future__ import annotations

import functools

import numpy as np

from . import exprdsl

__all__ = [
    "omega", "k_gamma", "k_gamma_primitive", "step_mass",
    "source_growth_constants", "estimate_dbeta_sup",
    "NonPositiveGammaError",
]

# 1 / integral of exp(-1/(1 - t^2)) over (-1, 1): the mollifier's unit-mass C
_NORM = float.fromhex("0x1.204ad466d96ccp+1")


class NonPositiveGammaError(ValueError):
    pass


def _bump_raw(t):
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        arg = np.where(inside, 1.0 - t * t, 1.0)
        return np.where(inside, np.exp(-1.0 / arg), 0.0)


def omega(t):
    """Evaluate the unit-mass mollifier (scalar or array argument)."""
    return _NORM * _bump_raw(t)


def k_gamma(t, tau, gamma):
    """Delayed kernel: one-sided rescaled mollifier with unit mass.

    Vanishes for t > tau and for t < tau - gamma.
    """
    if gamma <= 0:
        raise NonPositiveGammaError(f"gamma must be positive, got {gamma}")
    t = np.asarray(t, dtype=float)
    val = (2.0 / gamma) * omega((t - tau) / gamma)
    out = np.where(t <= tau, val, 0.0)
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=1)
def k_gamma_primitive():
    """The delayed kernel's primitive on its support, as a table.

    Returns nodes z on [-1, 0], z = (t - tau)/gamma, and P(z) = 2 * int_{-1}^z
    omega by the cumulative trapezoid rule on 4096 cells, divided by its last
    entry so that P(0) = 1 exactly: the step averages (P(t + dt) - P(t))/dt
    then add up to unit mass to roundoff, whatever the steps.  The entries
    are nondecreasing, so a linear interpolant's slope is never negative,
    and no slope exceeds sup K_gamma = (2/gamma) omega(0) by more than
    roundoff.  By symmetry the half-range trapezoid sum is half the
    full-range one, which converges spectrally on the bump, so the divisor
    is 1 to roundoff.  The linear interpolant is within 5e-8 of P.
    Memoized, read-only: a process builds the table once.
    """
    z = np.linspace(-1.0, 0.0, 4097)
    w = omega(z)
    p = np.concatenate(([0.0], np.cumsum(w[:-1] + w[1:])))
    p = p / p[-1]
    z.flags.writeable = p.flags.writeable = False
    return z, p


def step_mass(n, dt, tau, gamma, n_tau):
    """theta_n, the kernel mass the march kicks with on the step from each
    level of the integer array n (see ``scheme``): P(t + dt) - P(t) at t =
    n dt, at gamma = 0 1 on the step that ends at level n_tau, else 0."""
    if gamma <= 0:
        return (n + 1 == n_tau).astype(float)
    t = n * dt
    p0, p1 = np.interp((np.array((t, t + dt)) - tau) / gamma,
                       *k_gamma_primitive())
    return p1 - p0


@functools.lru_cache(maxsize=32)
def estimate_dbeta_sup(beta, L, S, b1):
    """An enclosure of sup |d(beta)/d(lambda)| over the slab (x, s) in the
    domain, lambda in [-(b1+1), b1+1] (``exprdsl.sup``), whose slab holds
    every slope, beta vanishing for |lambda| >= b1
    (``problem.consistency_errors``).  Memoized, as the AST is frozen: a
    process encloses b0 once, for the stability estimate, its one user."""
    return exprdsl.on_slope(beta, exprdsl.sup,
                            {"x": (0.0, L), "s": (0.0, S),
                             "lambda": (-(b1 + 1.0), b1 + 1.0)})


def source_growth_constants(beta, gamma, *, L=1.0, S=1.0, b1=1.0):
    """Growth constants (b1g, b2g) of the delayed source K_gamma * beta.

        b1g = (2/gamma) * omega(0) * (b0 + ||beta(.,.,0)||_C / 2)
        b2g = (1/gamma) * omega(0) * ||beta(.,.,0)||_C

    b0 bounds |d(beta)/d(lambda)| (see estimate_dbeta_sup).  No program
    path calls it (see ``chi``).
    """
    if gamma <= 0:
        raise NonPositiveGammaError(f"gamma must be positive, got {gamma}")
    if beta is None:
        return 0.0, 0.0
    b0 = estimate_dbeta_sup(beta, L, S, b1)
    omega_sup = float(omega(0.0))
    # ||beta(., ., 0)||_C: lambda = 0 is a one-point axis
    beta0 = exprdsl.sup(beta, {"x": (0.0, L), "s": (0.0, S),
                               "lambda": (0.0, 0.0)})
    b1g = 2.0 / gamma * omega_sup * (b0 + 0.5 * beta0)
    b2g = 1.0 / gamma * omega_sup * beta0
    return b1g, b2g
