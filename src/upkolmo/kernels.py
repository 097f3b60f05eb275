"""Mollifier and the delayed impulse kernel.

The mollifier is the classical bump

    omega(t) = C * exp(-1 / (1 - t^2))   for |t| < 1,   0 otherwise,

with C chosen so that the kernel has unit mass: ``_norm_const`` computes it
by adaptive Simpson quadrature (1e-12 tolerance) on first use and caches
it for the process.  The delayed kernel

    K_gamma(t, tau) = 1_{t <= tau} * (2/gamma) * omega((t - tau)/gamma)

is supported on [tau - gamma, tau], keeps unit mass for every gamma, and
collapses onto a left-sided point impulse at tau as gamma -> 0+.
"""

from __future__ import annotations

import functools

import numpy as np

from . import exprdsl

__all__ = [
    "omega", "k_gamma",
    "source_growth_constants", "estimate_dbeta_sup",
    "NonPositiveGammaError", "adaptive_simpson",
]


class NonPositiveGammaError(ValueError):
    pass


def _bump_raw(t):
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    with np.errstate(divide="ignore", over="ignore"):
        arg = np.where(inside, 1.0 - t * t, 1.0)
        out = np.where(inside, np.exp(-1.0 / arg), 0.0)
    return out


def adaptive_simpson(f, a, b, tol=1e-12, max_depth=48):
    """Adaptive Simpson quadrature of a scalar function on [a, b]."""

    def simpson(fa, fm, fb, a, b):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, a, m)
        right = simpson(fm, frm, fb, m, b)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, m, fa, flm, fm, left, tol / 2.0, depth + 1)
                + recurse(m, b, fm, frm, fb, right, tol / 2.0, depth + 1))

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = simpson(fa, fm, fb, a, b)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


@functools.cache
def _norm_const():
    """The mollifier's normalisation constant C, 1 / mass of the raw bump."""
    return 1.0 / adaptive_simpson(lambda t: float(_bump_raw(t)), -1.0, 1.0,
                                  tol=1e-12)


def omega(t):
    """Evaluate the unit-mass mollifier (scalar or array argument)."""
    return _norm_const() * _bump_raw(t)


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


def estimate_dbeta_sup(beta, L, S, b1):
    """Sampled sup of |d(beta)/d(lambda)| over the slab (x, s) in the domain,
    lambda in [-(b1+1), b1+1].  An estimate, not a proof."""
    return exprdsl.sample_sup(beta, ("x", "s", "lambda"),
                              [(0.0, L), (0.0, S), (-(b1 + 1.0), b1 + 1.0)],
                              n=(64, 64, 256), wrt="lambda")


def source_growth_constants(beta, gamma, *, L=1.0, S=1.0, b1=1.0):
    """Growth constants (b1g, b2g) of the delayed source K_gamma * beta.

        b1g = (2/gamma) * omega(0) * (b0 + ||beta(.,.,0)||_C / 2)
        b2g = (1/gamma) * omega(0) * ||beta(.,.,0)||_C

    b0 bounds |d(beta)/d(lambda)|; it is estimated by dense sampling (see
    estimate_dbeta_sup).
    """
    if gamma <= 0:
        raise NonPositiveGammaError(f"gamma must be positive, got {gamma}")
    if beta is None:
        return 0.0, 0.0
    b0 = estimate_dbeta_sup(beta, L, S, b1)
    omega_sup = float(omega(0.0))
    # ||beta(., ., 0)||_C: lambda = 0 is a one-point axis
    beta0 = exprdsl.sample_sup(beta, ("x", "s", "lambda"),
                               [(0.0, L), (0.0, S), (0.0, 0.0)],
                               n=(256, 256, 1))
    b1g = 2.0 / gamma * omega_sup * (b0 + 0.5 * beta0)
    b2g = 1.0 / gamma * omega_sup * beta0
    return b1g, b2g
