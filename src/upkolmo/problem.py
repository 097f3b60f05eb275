"""Problem definitions, grids, fields, and closed-form solution bounds.

The bounds implemented here are the quantitative side of the solver's
a-priori theory:

* ``sup_bound`` -- the march's own discrete maximum principle, both
  sources, saturated at b1 (derived in ``verify``); at gamma = 0 the
  impulsive problem's M2 before the jump and M3 after.  It rests on beta
  = 0 for |lambda| >= b1 (``consistency_errors``) and on a kick that
  ``min_kick_slope``, beta's least slope, keeps nondecreasing.
* ``stability_rhs`` -- the L1 data-stability estimate of two runs of the
  march, both sources, over the snapshot times (derived in ``verify``),
  from each step's s-end inflow difference and kick mass.

Sup-norms of expression-defined data are estimated by dense sampling
(256 points per axis).  Callers that assert these bounds apply the 1%
``NORM_INFLATION`` via the ``inflate`` argument.  ``data_sup_norms``
samples one time window, or an array of window ends at once.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import exprdsl, kernels
from .exprdsl import sample_min, sample_sup

__all__ = [
    "ProblemSpec", "Grid", "Field", "Trajectory",
    "refined_max_bound", "sup_bound", "stability_rhs",
    "sample_sup", "slab_sup", "min_kick_slope", "data_sup_norms",
    "consistency_errors", "NORM_INFLATION",
    "ZeroInitialDataError", "GridMismatchError",
]

_COLLAR = 0.05

# sampled sup-norms fall slightly short; every asserted bound inflates them
NORM_INFLATION = 1.01


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
    """Full problem definition; expressions are exprdsl ASTs."""

    d: int
    L: float
    T: float
    S: float
    flux_a: exprdsl.Expr
    flux_phi: tuple
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

    @property
    def omega_measure(self):
        return self.L ** self.d

    def describe(self):
        phi = ",".join(exprdsl.to_string(p) for p in self.flux_phi)
        beta = exprdsl.to_string(self.beta) if self.beta is not None else "-"
        return (f"d={self.d};L={self.L!r};T={self.T!r};S={self.S!r};"
                f"a={exprdsl.to_string(self.flux_a)};phi={phi};beta={beta};"
                f"tau={self.tau!r};gamma={self.gamma!r};eps={self.epsilon!r};"
                f"b1={self.b1!r};u0_1={exprdsl.to_string(self.data_u0_1)};"
                f"u0_2={exprdsl.to_string(self.data_u0_2)};"
                f"uS_2={exprdsl.to_string(self.data_uS_2)}")

    def context_hash(self, extra=""):
        return hashlib.sha256((self.describe() + "|" + extra).encode()).hexdigest()[:16]

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
    """Time-ordered snapshots plus the extracted boundary traces."""

    grid: Grid
    times: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def append(self, t, fld):
        if self.times and t <= self.times[-1]:
            raise ValueError("snapshot times must be strictly increasing")
        self.times.append(t)
        self.fields.append(fld)

    @property
    def s0_traces(self):
        """Each snapshot's first s-column, the discrete trace at s = 0."""
        return [fld.values[:, 0] for fld in self.fields]

    @property
    def sS_traces(self):
        """Each snapshot's last s-column, the discrete trace at s = S."""
        return [fld.values[:, -1] for fld in self.fields]

    @property
    def final(self):
        return self.fields[-1]


# --- spec consistency ------------------------------------------------------

def _collar_max(expr, names, extents, n=128):
    """Max |expr| on the relative-width-0.05 collar of a 2-D box."""
    a = np.linspace(0.0, extents[0], n)
    b = np.linspace(0.0, extents[1], n)
    va, vb = np.meshgrid(a, b, indexing="ij")
    collar = ((va <= _COLLAR * extents[0]) | (va >= (1 - _COLLAR) * extents[0])
              | (vb <= _COLLAR * extents[1]) | (vb >= (1 - _COLLAR) * extents[1]))
    vals = np.broadcast_to(
        np.asarray(exprdsl.evaluate(expr, {names[0]: va, names[1]: vb}),
                   dtype=float), va.shape)
    return float(np.max(np.abs(vals[collar])))


def consistency_errors(spec):
    """Named violations of the load-time invariants (empty list when clean).
    An expression that cannot be evaluated where it is checked (it divides
    by zero, say, or overflows) is a violation too."""
    errors = []
    if spec.d != 1:
        errors.append(f"dimension: only d=1 is supported, got d={spec.d}")
    fluxes = {"a": spec.flux_a, **{f"phi_{i}": phi for i, phi
                                   in enumerate(spec.flux_phi, start=1)}}
    for name, expr in fluxes.items():
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
    for name, expr, axes, extents in (
            ("u0_1", spec.data_u0_1, ("x", "s"), (spec.L, spec.S)),
            ("u0_2", spec.data_u0_2, ("x", "t"), (spec.L, spec.T)),
            ("uS_2", spec.data_uS_2, ("x", "t"), (spec.L, spec.T))):
        try:
            m = _collar_max(expr, axes, extents)
        except exprdsl.DomainError as exc:
            errors.append(f"data {name}: cannot be evaluated on its box: "
                          f"{exc}")
            continue
        if m >= 1e-12:
            errors.append(f"data {name}: |value| = {m:.3e} on the boundary collar")
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


# --- sampled sup-norms -----------------------------------------------------

def slab_sup(spec, beta, radius):
    """Sampled sup of |beta| over the slab, 64 points per axis: (x, s) in
    the domain and lambda in [-radius, radius].  0 without a beta."""
    if beta is None:
        return 0.0
    return sample_sup(beta, ("x", "s", "lambda"),
                      [(0.0, spec.L), (0.0, spec.S), (-radius, radius)], n=64)


def _memo_on_data(fn):
    """Memoize fn(spec, ...) on the spec's data: fn reads no gamma or eps."""
    cached = functools.lru_cache(maxsize=32)(fn)
    memo = functools.wraps(fn)(lambda spec, *args, **kwargs: cached(
        spec.with_data(gamma=0.0, epsilon=0.0), *args, **kwargs))
    memo.cache_info, memo.cache_clear = cached.cache_info, cached.cache_clear
    return memo


@_memo_on_data
def min_kick_slope(spec, mass, n=64):
    """Sampled min of d beta / d lambda, signed, on n points per axis over
    |lambda| <= B(tau), norms inflated 1%, with ``mass`` the kick mass
    applied before the kick: every value a kick acts on, and |lambda| <= b1
    too where B(tau) with unit mass reaches b1 (see ``verify``).  0.0
    without a beta.  Memoized, as ``_horizon`` is."""
    if spec.beta is None:
        return 0.0
    reach = sup_bound(spec, spec.tau, (mass, 1.0), inflate=NORM_INFLATION)
    radius = max(reach[0], spec.b1 if reach[1] >= spec.b1 else 0.0)
    return sample_min(spec.beta, ("x", "s", "lambda"),
                      [(0.0, spec.L), (0.0, spec.S), (-radius, radius)],
                      n=n, wrt="lambda")


def data_sup_norms(spec, t_window=None, inflate=1.0):
    """Sampled sup-norms of the three data functions.

    ``t_window`` = (lo, hi) restricts the time interval of the s-boundary
    data; defaults to (0, T).  An ascending array ``hi`` makes u0_2 and uS_2
    arrays, entry i the sup over (lo, hi[i]).  The t-axis is the linspace of
    256 points up to max(hi) with hi added, so each window holds its end; a
    repeated time changes no max, and a sort, unlike ``np.union1d``, does
    not import ``numpy.ma`` (about 14 ms) into every run's set-up.
    """
    lo, hi = t_window if t_window is not None else (0.0, spec.T)
    hi = np.maximum(hi, lo + 1e-12)
    ts = np.sort(np.append(np.linspace(lo, np.max(hi), 256), hi))
    ends = np.searchsorted(ts, hi, side="right") - 1
    xs = np.linspace(0.0, spec.L, 256)[:, None]
    norms = {"u0_1": sample_sup(spec.data_u0_1, ("x", "s"),
                                [(0.0, spec.L), (0.0, spec.S)], inflate=inflate)}
    for name, expr in (("u0_2", spec.data_u0_2), ("uS_2", spec.data_uS_2)):
        vals = exprdsl.compile(expr)[0]({"x": xs, "t": ts[None, :]})
        # data that do not read t give one column, which stands for every t
        cols = np.atleast_2d(np.abs(np.asarray(vals, dtype=float))).max(axis=0)
        run = np.maximum.accumulate(np.broadcast_to(cols, ts.shape))[ends]
        norms[name] = float(run) * inflate if run.ndim == 0 else run * inflate
    return norms


def sampled_deriv_max(expr, lo, hi):
    """Max |d expr / d lambda| on [lo, hi] by dense sampling."""
    return sample_sup(expr, ("lambda",), [(lo, hi)], n=4097, wrt="lambda")


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
def refined_max_bound(spec, t_prime, inflate=1.0):
    """Sharper bound M7(t') for the delayed-impulse source.

    The exponent is zero when b1 <= ||u0_1|| - 1 (the perturbation is
    already cut off within the data range), and otherwise grows just fast
    enough that the weighted solution clears the perturbation's support
    before the impulse window opens.  ``t_prime`` may be an array, which
    samples the data once for all of its times.
    """
    if spec.gamma > 0 and spec.gamma > spec.gamma0 / 2.0:
        raise ValueError("refined bound requires gamma <= gamma0/2")
    norms = data_sup_norms(spec, (0.0, spec.T), inflate=inflate)
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


@_memo_on_data
def _horizon(spec):
    """D(0, T), sup|beta| on ``slab_sup``'s points to |lambda| = max(D(0,
    T), b1) + 1, and max |beta| on those with |lambda| >= b1 and +-b1, from
    max |beta| over (x, s) at each lambda, 16 lambdas (``ELEMENT_BUDGET``
    samples) at a time.  Memoized: a process samples a spec's data once."""
    base = max(data_sup_norms(spec).values())
    r = max(base, spec.b1) + 1.0
    lam = np.append(np.linspace(-r, r, 64), (-spec.b1, spec.b1))
    x, s = np.linspace(0.0, spec.L, 64)[:, None], np.linspace(0.0, spec.S, 64)
    beta = exprdsl.compile(spec.beta or exprdsl.Num(0.0))[0]
    at_lam = np.concatenate([np.abs(np.broadcast_to(beta({
        "x": x, "s": s, "lambda": part[:, None, None]}), (part.size, 64, 64)))
        .reshape(part.size, -1).max(axis=1)
        for part in np.split(lam, range(16, lam.size, 16))])
    return base, float(at_lam[:64].max()), float(
        at_lam[np.abs(lam) >= spec.b1].max())


def sup_bound(spec, times, masses, inflate=1.0):
    """B(t) = min(D(0, t) + m(t) sup|beta|, max(D(0, t), b1)) (derived in
    ``verify``): D the data norm over (0, t), m the kick mass the march
    has applied by t.  ``times`` may be an array, or None for T, and
    ``masses`` any shape that broadcasts against it; ``inflate`` scales
    both sampled norms, not b1."""
    base, beta_sup, _ = _horizon(spec)
    dnorm = base * inflate if times is None else functools.reduce(
        np.maximum, data_sup_norms(spec, (0.0, times), inflate).values())
    out = np.minimum(dnorm + np.asarray(masses, dtype=float)
                     * (beta_sup * inflate), np.maximum(dnorm, spec.b1))
    return float(out) if out.ndim == 0 else out


def stability_rhs(spec1, spec2, times, d_init, inflow, thetas, dt):
    """The L1 stability estimate of two runs at each time in ``times``,
    at its level n (derived in the ``verify`` notes):

        W_n d_init + sum_{m<n} (W_n/W_m) inflow_m
                   + S |Omega| dbeta sum_{m<n} theta_m W_n/W_{m+1},

    W_n = prod_{m<n} (1 + theta_m b0).  ``inflow`` and ``thetas`` hold
    each step's L1 difference of what the runs' s-end ghosts put into the
    march, dt included, and its kick mass.  b0 =
    ``kernels.estimate_dbeta_sup`` of beta1, sampled only where d_init,
    an inflow or dbeta is nonzero, since else every term is 0 whatever b0
    is; dbeta = sup|beta1 - beta2| over |lambda| <= max b1 + 1, exactly 0
    for equal ASTs; no beta is 0.
    """
    beta1, beta2 = spec1.beta, spec2.beta
    zero = exprdsl.Num(0.0)
    dbeta = 0.0 if beta1 == beta2 else slab_sup(
        spec1, exprdsl.BinOp("-", beta1 or zero, beta2 or zero),
        max(spec1.b1, spec2.b1) + 1.0)
    inflow = np.asarray(inflow, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    b0 = (kernels.estimate_dbeta_sup(beta1, spec1.L, spec1.S, spec1.b1)
          if beta1 is not None and (d_init or dbeta or inflow.any())
          else 0.0)
    # W_0..W_N, and the boundary and source sums scaled by W_n, by level
    w = np.concatenate(([1.0], np.cumprod(1.0 + b0 * thetas)))
    boundary = w * np.concatenate(([0.0], np.cumsum(inflow / w[:-1])))
    source = w * np.concatenate(([0.0], np.cumsum(thetas / w[1:])))
    levels = np.rint(np.asarray(times, dtype=float) / dt).astype(int)
    rhs = (w[levels] * d_init + boundary[levels]
           + spec1.S * spec1.omega_measure * dbeta * source[levels])
    return [float(r) for r in rhs]


# bench/run.py traces this name in `problem` and `verify`: the impulsive
# pair has no estimate of its own, the gamma = 0 kick is a theta_n = 1 step
stability_rhs_impulsive = stability_rhs
