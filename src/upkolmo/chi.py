"""Kinetic chi-function calculus.

chi(lambda; v) is 1 on (0, v), -1 on (v, 0) and 0 otherwise.  Its two basic
integral identities,

    integral of psi'(lambda) chi(lambda; v) dlambda = psi(v) - psi(0),
    integral of |chi(lambda; v) - chi(lambda; w)| dlambda = |v - w|,

turn pointwise statements about a solution into statements about integrals
over the value variable.  The second underlies the continuum L1 stability
estimate.  ``kinetic_impulse_residual`` evaluates the
first as a midpoint quadrature of the kinetic form of the impulse condition,

    int chi(.; u+) = int (1 + d beta/d lambda) chi(.; u-) + beta(x, s, 0),

which reduces, cell by cell, to u+ = u- + beta(x, s, u-): apply the first
identity with psi(lambda) = lambda on the left and with psi(lambda) =
lambda + beta(x, s, lambda) on the right.

The right-hand weight 1 + d beta/d lambda is the derivative of the jump
map lambda -> lambda + beta(x, s, lambda), which the impulsive march needs
nondecreasing; the residual also returns the weight's sampled minimum.

No program path reaches this module: ``verify.check_jump`` checks the
pointwise identity, which the kinetic form restates, and the jump map's
slope with ``problem.min_kick_slope``.  It stays for the benchmark's traced
pass (``bench/run.py``) and ``tests/test_chi.py``; delete it in the next
benchmark change, with what only that trace keeps alive:
``problem.golden_section_min``, ``problem.refined_max_bound`` and its
``ZeroInitialDataError``, the ``refined_max_bound`` bindings in ``verify``
and ``cli``, ``kernels.source_growth_constants``, ``kernels.k_gamma`` and
the ``flux`` methods of ``scheme``.

All quadrature here is the midpoint rule on a uniform lambda grid: chi is
piecewise constant, and midpoints never hit its breakpoints.  The
midpoints are taken in blocks of ``_LAMBDA_BLOCK``, so memory stays at a
few (block, cells) arrays however fine the lambda grid; each block's sums
continue the previous block's in lambda order, which gives the bits of a
one-shot sum over all midpoints.
"""

from __future__ import annotations

import numpy as np

from . import exprdsl
from .problem import GridMismatchError

__all__ = ["chi", "kinetic_impulse_residual", "GridMismatchError"]

# lambda midpoints per block of ``kinetic_impulse_residual``
_LAMBDA_BLOCK = 64


def chi(lam, v):
    """chi(lambda; v): +1 if 0 < lambda < v, -1 if v < lambda < 0, else 0."""
    lam = np.asarray(lam, dtype=float)
    v = np.asarray(v, dtype=float)
    pos = (lam > 0) & (lam < v)
    neg = (lam < 0) & (lam > v)
    out = np.where(pos, 1, np.where(neg, -1, 0))
    return int(out) if out.ndim == 0 else out


def _midpoints(Lambda, n_cells):
    dlam = 2.0 * Lambda / n_cells
    return -Lambda + (np.arange(n_cells) + 0.5) * dlam, dlam


def kinetic_impulse_residual(u_minus, u_plus, beta, M3, n_cells=1024,
                             weight_radius=np.inf):
    """Sup over grid cells of the kinetic jump-condition defect, and the
    minimum of the kinetic weight.

    For fields on the same grid, computes per cell

        | int chi(.; u+) - int (1 + d beta/d lambda) chi(.; u-)
          - beta(x, s, 0) |

    with midpoint quadrature on [-M3, M3], and returns the maximum with
    the minimum of the weight 1 + d beta/d lambda over the cells and the
    midpoints with |lambda| <= ``weight_radius`` (inf if there are none).
    beta may be None (pure continuity check, weight 1).
    """
    vm = getattr(u_minus, "values", u_minus)
    vp = getattr(u_plus, "values", u_plus)
    vm = np.asarray(vm, dtype=float)
    vp = np.asarray(vp, dtype=float)
    if vm.shape != vp.shape:
        raise GridMismatchError(f"{vm.shape} vs {vp.shape}")
    gm = getattr(u_minus, "grid", None)
    gp = getattr(u_plus, "grid", None)
    if gm is not None and gp is not None and gm != gp:
        raise GridMismatchError("fields live on different grids")

    mids, dlam = _midpoints(M3, n_cells)
    if gm is not None:
        xc, sc = gm.cell_centers()
        bind = {"x": xc[:, None], "s": sc[None, :]}
    else:
        bind = {"x": 0.0, "s": 0.0}
    lifted = {k: np.asarray(val)[None] for k, val in bind.items()}
    dbeta = (exprdsl.compile(exprdsl.diff(beta, "lambda"))[0]
             if beta is not None else None)
    lhs = rhs = 0
    min_weight = np.inf
    for first in range(0, n_cells, _LAMBDA_BLOCK):
        lam = mids[first:first + _LAMBDA_BLOCK]
        lam = lam.reshape((-1,) + (1,) * vm.ndim)
        # chi counts are integers, so their block sums add up exactly
        lhs = lhs + np.sum(chi(lam, vp[None]), axis=0)
        weight = (1.0 if dbeta is None
                  else 1.0 + dbeta({**lifted, "lambda": lam}))
        inside = np.abs(lam.ravel()) <= weight_radius
        if inside.any():
            min_weight = min(min_weight, float(np.min(np.broadcast_to(
                weight, (len(lam),) + vm.shape)[inside])))
        terms = weight * chi(lam, vm[None])
        # an axis-0 sum adds rows in order: seeding the first row with the
        # running sum continues it exactly
        terms[0] += rhs
        rhs = np.sum(terms, axis=0)
    beta0 = (exprdsl.evaluate(beta, {**bind, "lambda": 0.0})
             if beta is not None else 0.0)
    return float(np.max(np.abs(lhs * dlam - rhs * dlam - beta0))), min_weight
