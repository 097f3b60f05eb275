"""Problem definitions, grids, fields, and closed-form solution bounds.

The bounds implemented here are the quantitative side of the solver's
a-priori theory:

* ``saturated_bound`` -- the march's own discrete maximum principle, both
  sources, saturated at b1 (derived in ``verify``); at gamma = 0 the
  impulsive problem's M2 before the jump and M3 after.  ``sup_bound`` is
  it at the enclosed data norm, which sizes the march.  It rests on beta
  = 0 for |lambda| >= b1 (``consistency_errors``) and on a kick that
  ``min_kick_slope``, beta's least slope, keeps nondecreasing.
* ``stability_rhs`` -- the L1 data-stability estimate of two runs of the
  march, both sources, at the snapshot levels (derived in ``verify``),
  from each step's s-end inflow difference and kick mass.

Every sup-norm of expression-defined data, and every other bound the
march or a check reads off the config's expressions, is an enclosure
(``exprdsl.sup``): no value the expression takes on its box exceeds it,
so no bound needs a margin.  ``data_sup_norms`` encloses one time window.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import exprdsl, kernels

__all__ = [
    "ProblemSpec", "Grid", "Field", "Trajectory",
    "refined_max_bound", "sup_bound", "saturated_bound", "stability_rhs",
    "snapshot_levels", "min_kick_slope", "data_sup_norms",
    "consistency_errors", "SUP_SLACK", "ZeroInitialDataError",
    "GridMismatchError",
]

_COLLAR = 0.05

# what a march's sup-norm may exceed its bound by, its roundoff: the march
# aborts beyond it, and the max-principle row fails
SUP_SLACK = 1e-10


class ZeroInitialDataError(ValueError):
    """The refined bound's exponent is undefined for vanishing initial data."""


class GridMismatchError(ValueError):
    """Fields or trajectories that should share a grid do not."""


@dataclass(frozen=True)
class Grid:
    nx: int
    ns: int
    L: float
    S: float

    @property
    def dx(self):
        return self.L / self.nx

    @property
    def ds(self):
        return self.S / self.ns

    @property
    def cell_volume(self):
        return self.dx * self.ds

    def cell_centers(self):
        x = (np.arange(self.nx) + 0.5) * self.dx
        s = (np.arange(self.ns) + 0.5) * self.ds
        return x, s


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem definition; expressions are exprdsl ASTs.  Omega is
    the interval (0, L), d = 1: ``flux_phi`` is its one lateral flux, and
    ``describe`` states d=1, as every run's spec_hash was taken with it."""

    L: float
    T: float
    S: float
    flux_a: exprdsl.Expr
    flux_phi: exprdsl.Expr
    data_u0_1: exprdsl.Expr
    data_u0_2: exprdsl.Expr
    data_uS_2: exprdsl.Expr
    beta: exprdsl.Expr | None = None
    tau: float = 0.5
    gamma: float = 0.0
    epsilon: float = 0.0
    b1: float = 0.0

    @property
    def gamma0(self):
        return min(self.tau, self.T - self.tau)

    def describe(self):
        beta = exprdsl.to_string(self.beta) if self.beta is not None else "-"
        return (f"d=1;L={self.L!r};T={self.T!r};S={self.S!r};"
                f"a={exprdsl.to_string(self.flux_a)};"
                f"phi={exprdsl.to_string(self.flux_phi)};beta={beta};"
                f"tau={self.tau!r};gamma={self.gamma!r};eps={self.epsilon!r};"
                f"b1={self.b1!r};u0_1={exprdsl.to_string(self.data_u0_1)};"
                f"u0_2={exprdsl.to_string(self.data_u0_2)};"
                f"uS_2={exprdsl.to_string(self.data_uS_2)}")

    def context_hash(self):
        return hashlib.sha256(f"{self.describe()}|".encode()).hexdigest()[:16]

    def with_data(self, **kwargs):
        return replace(self, **kwargs)


@dataclass
class Field:
    """Cell-averaged values u(i_x, i_s) at a fixed time."""

    values: np.ndarray
    grid: Grid
    t: float = 0.0

    def sup_norm(self):
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


@dataclass
class Trajectory:
    """Snapshots, their times and step levels."""

    grid: Grid
    times: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    levels: list = field(default_factory=list)

    def append(self, n, fld):
        if self.levels and n <= self.levels[-1]:
            raise ValueError("snapshot levels must be strictly increasing")
        self.levels.append(n)
        self.times.append(fld.t)
        self.fields.append(fld)


def snapshot_levels(n_steps, stride, n_tau):
    """The step levels the march stores, in order and lazily: 0, stride, ...,
    n_steps, and n_tau and n_tau + 1 (the jump ``verify.check_jump``
    replays) up to n_steps when tau lies inside (0, T)."""
    jump = () if n_tau is None else (n_tau, n_tau + 1)
    off_stride = sorted({n for n in (n_steps, *jump)
                         if 0 <= n <= n_steps and n % stride})
    for n in range(0, n_steps + 1, stride):
        while off_stride and off_stride[0] < n:
            yield off_stride.pop(0)
        yield n
    yield from off_stride


# --- spec consistency ------------------------------------------------------

def _collar_max(expr, names, extents):
    """Max |expr| on the relative-width-0.05 collar of a 2-D box, over its
    four strips."""
    (a, b), c = extents, _COLLAR
    strips = (((0.0, c * a), (0.0, b)), (((1 - c) * a, a), (0.0, b)),
              ((0.0, a), (0.0, c * b)), ((0.0, a), ((1 - c) * b, b)))
    return max(exprdsl.sup(expr, dict(zip(names, strip))) for strip in strips)


def consistency_errors(spec):
    """Named violations of the load-time invariants (empty list when clean).
    An expression that cannot be evaluated where it is checked (it divides
    by zero, say, or overflows) is a violation too, and so, before any is
    evaluated, is one that reads a variable its role does not bind."""
    lam, xs, xt = ("lambda",), ("x", "s"), ("x", "t")
    roles = (("flux a", spec.flux_a, lam), ("flux phi_1", spec.flux_phi, lam),
             ("data u0_1", spec.data_u0_1, xs),
             ("data u0_2", spec.data_u0_2, xt),
             ("data uS_2", spec.data_uS_2, xt),
             ("source beta", spec.beta, xs + lam))
    errors = [f"{name}: reads {var}, but is a function of {', '.join(free)} "
              "only" for name, expr, free in roles if expr is not None
              for var in sorted(exprdsl.compile(expr)[1] - set(free))]
    if errors:
        return errors
    for name, expr in (("a", spec.flux_a), ("phi_1", spec.flux_phi)):
        try:
            f0 = float(exprdsl.evaluate(expr, {"lambda": 0.0}))
        except exprdsl.DomainError as exc:
            errors.append(f"flux {name}: cannot be evaluated at 0: {exc}")
            continue
        if f0 != 0.0:
            errors.append(f"flux {name}: {name}(0) = {f0} != 0")
    if not (0.0 < spec.tau < spec.T):
        errors.append(f"tau: need 0 < tau < T, got tau={spec.tau}, T={spec.T}")
    else:
        if spec.gamma < 0:
            errors.append(f"gamma: must be >= 0, got {spec.gamma}")
        elif spec.gamma > spec.gamma0 / 2.0:
            errors.append(
                f"gamma: gamma = {spec.gamma} exceeds gamma0/2 = "
                f"{spec.gamma0 / 2.0} where gamma0 = min(tau, T - tau)")
    if spec.epsilon < 0:
        errors.append(f"epsilon: must be >= 0, got {spec.epsilon}")
    for name, expr, axes in roles[2:5]:
        try:
            m = _collar_max(expr, axes, (spec.L, spec.S if axes == xs
                                         else spec.T))
        except exprdsl.DomainError as exc:
            errors.append(f"{name}: cannot be evaluated on its box: {exc}")
            continue
        if m >= 1e-12:
            errors.append(f"{name}: |value| = {m:.3e} on the boundary collar")
    if spec.beta is None or errors:
        return errors
    # every sup bound rests on beta = 0 for |lambda| >= b1 (see ``verify``)
    try:
        beyond = _horizon(spec)[2]
    except exprdsl.DomainError as exc:
        return [f"source beta: cannot be evaluated on its slab: {exc}"]
    return [] if beyond < 1e-12 else [
        f"source b1: |beta| = {beyond:.3e} on b1 = {spec.b1!r} <= |lambda|, "
        "where beta must vanish"]


# --- enclosed sup-norms ----------------------------------------------------

def _slab(spec, lam):
    """The box (x, s) in the domain, lambda in the range ``lam``."""
    return {"x": (0.0, spec.L), "s": (0.0, spec.S), "lambda": lam}


def min_kick_slope(spec, mass):
    """A lower bound of d beta / d lambda, signed, over |lambda| <= B(tau),
    with ``mass`` the kick mass applied before the kick: every value a
    kick acts on, and |lambda| <= b1 too where B(tau) with unit mass
    reaches b1 (see ``verify``).  0.0 without a beta."""
    if spec.beta is None:
        return 0.0
    reach = sup_bound(spec, spec.tau, (mass, 1.0))
    radius = max(reach[0], spec.b1 if reach[1] >= spec.b1 else 0.0)
    return -exprdsl.on_slope(spec.beta, lambda d, box: exprdsl.sup(
        exprdsl.Neg(d), box, signed=True), _slab(spec, (-radius, radius)))


def data_sup_norms(spec, t_window=None):
    """Enclosed sup-norms of the three data functions, the s-boundary
    data's over the time window ``t_window`` = (lo, hi), (0, T) if None."""
    box = {"x": (0.0, spec.L), "t": t_window or (0.0, spec.T)}
    return {"u0_1": exprdsl.sup(spec.data_u0_1,
                                {"x": (0.0, spec.L), "s": (0.0, spec.S)}),
            "u0_2": exprdsl.sup(spec.data_u0_2, box),
            "uS_2": exprdsl.sup(spec.data_uS_2, box)}


# --- closed-form bounds ----------------------------------------------------

# No program path searches: bench/run.py traces this name, and the tests
# check the paper's growth bound against it.
def golden_section_min(f, a, b, tol=1e-10):
    """Golden-section minimization of a unimodal function on [a, b]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


# Only bench/run.py's trace and the tests (against sup_bound) read this.
def refined_max_bound(spec, t_prime):
    """Sharper bound M7(t') for the delayed-impulse source.

    The exponent is zero when b1 <= ||u0_1|| - 1 (the perturbation is
    already cut off within the data range), and otherwise grows just fast
    enough that the weighted solution clears the perturbation's support
    before the impulse window opens.  ``t_prime`` may be an array, which
    encloses the data once for all of its times.
    """
    if spec.gamma > 0 and spec.gamma > spec.gamma0 / 2.0:
        raise ValueError("refined bound requires gamma <= gamma0/2")
    norms = data_sup_norms(spec, (0.0, spec.T))
    u01 = norms["u0_1"]
    b1 = spec.b1 if spec.beta is not None else 0.0
    if b1 <= u01 - 1.0:
        xi_star = 0.0
    else:
        if u01 == 0.0:
            raise ZeroInitialDataError(
                "refined bound undefined: ||u0_1|| = 0 with b1 > -1")
        xi_star = 2.0 / (2.0 * spec.tau - spec.gamma0) * np.log((b1 + 1.0) / u01)
    out = np.exp(xi_star * np.asarray(t_prime, dtype=float)) * max(norms.values())
    return float(out) if out.ndim == 0 else out


def _horizon(spec):
    """D(0, T), sup|beta| on |lambda| <= max(D(0, T), b1) + 1, and its sup
    on b1 <= |lambda| <= that."""
    base = max(data_sup_norms(spec).values())
    if spec.beta is None:
        return base, 0.0, 0.0
    r, b1 = max(base, spec.b1) + 1.0, spec.b1
    beta, below, above = (exprdsl.sup(spec.beta, _slab(spec, lam))
                          for lam in ((-r, r), (-r, -b1), (b1, r)))
    return base, beta, max(below, above)


def saturated_bound(spec, dnorm, masses):
    """B = min(D + m sup|beta|, max(D, b1)) (derived in ``verify``), D =
    ``dnorm`` a bound of |u^0| and of every s-end ghost the march read and
    m = ``masses`` the kick mass it applied, arrays that broadcast."""
    beta_sup = _horizon(spec)[1]
    out = np.minimum(dnorm + np.asarray(masses, dtype=float) * beta_sup,
                     np.maximum(dnorm, spec.b1))
    return float(out) if out.ndim == 0 else out


def sup_bound(spec, t, masses):
    """``saturated_bound`` at D(0, t), the enclosed data norm over (0, t),
    or (0, T) for t None: what sizes the march, its region B(T) and the
    kick slope's radius B(tau)."""
    dnorm = (_horizon(spec)[0] if t is None
             else max(data_sup_norms(spec, (0.0, t)).values()))
    return saturated_bound(spec, dnorm, masses)


def check_region(spec, m_bound):
    """Refuse a region m_bound below B(T), which the march can leave: no
    march is sized on one, nor is a run on one verified."""
    reach = sup_bound(spec, None, 1.0)
    if m_bound < reach:
        raise ValueError(f"m_bound = {m_bound} lies below B(T) = {reach}, "
                         "the region the march can reach")


def stability_rhs(spec1, spec2, levels, d_init, inflow, thetas):
    """The L1 stability estimate of two runs at each step level n in
    ``levels`` (derived in the ``verify`` notes):

        W_n d_init + sum_{m<n} (W_n/W_m) inflow_m
                   + S |Omega| dbeta sum_{m<n} theta_m W_n/W_{m+1},

    W_n = prod_{m<n} (1 + theta_m b0), |Omega| = L.  ``inflow`` and
    ``thetas`` hold each step's L1 difference of what the runs' s-end
    ghosts put into the march, dt included, and its kick mass.  b0 =
    ``kernels.estimate_dbeta_sup`` of beta1, enclosed only where d_init,
    an inflow or dbeta is nonzero, since else every term is 0 whatever b0
    is; dbeta encloses sup|beta1 - beta2| over |lambda| <= max b1 + 1,
    exactly 0 for equal ASTs; no beta is 0.
    """
    beta1, beta2 = spec1.beta, spec2.beta
    zero = exprdsl.Num(0.0)
    radius = max(spec1.b1, spec2.b1) + 1.0
    dbeta = 0.0 if beta1 == beta2 else exprdsl.sup(
        exprdsl.BinOp("-", beta1 or zero, beta2 or zero),
        _slab(spec1, (-radius, radius)))
    b0 = (kernels.estimate_dbeta_sup(beta1, spec1.L, spec1.S, spec1.b1)
          if beta1 is not None and (d_init or dbeta or inflow.any())
          else 0.0)
    # W_0..W_N, and the boundary and source sums scaled by W_n, by level
    w = np.concatenate(([1.0], np.cumprod(1.0 + b0 * thetas)))
    boundary = w * np.concatenate(([0.0], np.cumsum(inflow / w[:-1])))
    source = w * np.concatenate(([0.0], np.cumsum(thetas / w[1:])))
    rhs = (w[levels] * d_init + boundary[levels]
           + spec1.S * spec1.L * dbeta * source[levels])
    return [float(r) for r in rhs]


# bench/run.py traces this name in `problem` and `verify`: the impulsive
# pair has no estimate of its own, the gamma = 0 kick is a theta_n = 1 step
stability_rhs_impulsive = stability_rhs
