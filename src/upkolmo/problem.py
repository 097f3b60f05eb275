"""Problem definitions, grids, fields, and closed-form solution bounds.

The bounds implemented here are the quantitative side of the solver's
a-priori theory:

* ``max_principle_bound`` -- sup-norm bound for sources obeying a quadratic
  growth condition with constants (b1g, b2g); the infimum over the free
  exponential-weight parameter has a closed form.
* ``refined_max_bound`` -- sharper sup-norm bound for a delayed impulse
  source whose perturbation vanishes for |value| > b1.
* ``stability_rhs`` -- right-hand side of the L1 data-stability estimate,
  with the Gronwall weight b0 P((t - tau)/gamma) read from the kernel's
  tabulated primitive P (``kernels.k_gamma_primitive``), the table the
  march's source rate reads.
* ``impulsive_bounds`` -- sup-norm bounds before (M2) and after (M3) the
  jump of the impulsive problem, for one run or for a pair of runs.
* ``stability_rhs_impulsive`` -- the impulsive counterpart of the L1
  stability estimate, including the perturbation-difference terms.

Each stability estimate returns its curve over the snapshot times: the
data it samples and the Gronwall weight do not depend on t, so they are
computed once per curve.  The sup-norm bound m1(t) behind max|a'| in
``stability_rhs`` is an argument, one value per snapshot time, and |a'|
is sampled once for the whole curve; the verifier passes the bound that
its max-principle check certifies.

Sup-norms of expression-defined data are estimated by dense sampling
(256 points per axis).  Callers that assert these bounds apply a 1%
inflation via the ``inflate`` argument.  ``data_sup_norms`` samples one
time window, or an array of window ends at once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import exprdsl, kernels
from .exprdsl import sample_sup

__all__ = [
    "ProblemSpec", "Grid", "Field", "Trajectory",
    "max_principle_bound", "refined_max_bound", "stability_rhs",
    "stability_rhs_impulsive", "impulsive_bounds",
    "sample_sup", "slab_sup", "min_jump_slope", "data_sup_norms",
    "consistency_errors",
    "ZeroInitialDataError",
]

_COLLAR = 0.05


class ZeroInitialDataError(ValueError):
    """The refined bound's exponent is undefined for vanishing initial data."""


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
    """Time-ordered snapshots plus the extracted boundary/jump traces."""

    grid: Grid
    times: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    tau_minus: Field | None = None
    tau_plus: Field | None = None
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
    """Named violations of the load-time invariants (empty list when clean)."""
    errors = []
    if spec.d != 1:
        errors.append(f"dimension: only d=1 is supported, got d={spec.d}")
    a0 = float(exprdsl.evaluate(spec.flux_a, {"lambda": 0.0}))
    if a0 != 0.0:
        errors.append(f"flux a: a(0) = {a0} != 0")
    for i, phi in enumerate(spec.flux_phi, start=1):
        p0 = float(exprdsl.evaluate(phi, {"lambda": 0.0}))
        if p0 != 0.0:
            errors.append(f"flux phi_{i}: phi_{i}(0) = {p0} != 0")
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
    m = _collar_max(spec.data_u0_1, ("x", "s"), (spec.L, spec.S))
    if m >= 1e-12:
        errors.append(f"data u0_1: |value| = {m:.3e} on the boundary collar")
    for name, expr in (("u0_2", spec.data_u0_2), ("uS_2", spec.data_uS_2)):
        m = _collar_max(expr, ("x", "t"), (spec.L, spec.T))
        if m >= 1e-12:
            errors.append(f"data {name}: |value| = {m:.3e} on the boundary collar")
    return errors


# --- sampled sup-norms -----------------------------------------------------

def slab_sup(spec, beta, radius, n=64, inflate=1.0, wrt=None):
    """Sampled sup of |beta|, or of |d beta / d wrt|, over the slab: (x, s)
    in the domain and lambda in [-radius, radius].  0 without a beta."""
    if beta is None:
        return 0.0
    return sample_sup(beta, ("x", "s", "lambda"),
                      [(0.0, spec.L), (0.0, spec.S), (-radius, radius)],
                      n=n, inflate=inflate, wrt=wrt)


def min_jump_slope(spec, radius, n=64):
    """Sampled min of 1 + d beta / d lambda, the slope of the jump map
    lambda -> lambda + beta, over the slab with |lambda| <= radius, on n
    points per axis.  1 without a beta."""
    if spec.beta is None:
        return 1.0
    axes = {"x": np.linspace(0.0, spec.L, n)[:, None, None],
            "s": np.linspace(0.0, spec.S, n)[None, :, None],
            "lambda": np.linspace(-radius, radius, n)[None, None, :]}
    slope = exprdsl.compile(spec.beta, "lambda")[0](axes)[1]
    return 1.0 + float(np.min(slope))


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
# check max_principle_bound against it.
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


# Nodes of the a' grid of ``stability_rhs`` per unit of radius: the 4097
# samples that ``sampled_deriv_max`` takes of [-m, m] are 2048 per m.
_NODES_PER_RADIUS = 2048


def _deriv_max_curve(expr, m1):
    """max|d expr / d lambda| over [-m, m] for each m in ``m1``, from one
    evaluation on a symmetric node grid over [-max m1, max m1].

    The nonnegative nodes are spaced m_min / 2048 on [0, m_min], m_min the
    smallest positive m1, and grow geometrically by 1 + 1/2048 past it: the
    spacing at radius r is that of the 4097 samples ``sampled_deriv_max``
    takes of [-m, m] at m = max(r, m_min), so every [-m, m] holds nodes at
    least as dense as those samples.  A uniform grid at the finest spacing
    would need 4096 max/min nodes: 780,000 for the sup-norm curve of the
    ``tests/scenarios.py`` source problem (m1 from 0.81 to 154), against
    26,000 here.
    The running max of |d expr| outward from 0 is read at the first node
    at or past each m, which keeps the bound on the safe side; a
    non-finite m reads inf.
    """
    m1 = np.asarray(m1, dtype=float)
    radii = np.zeros(1)
    positive = m1[(m1 > 0) & np.isfinite(m1)]
    if positive.size:
        lo, hi = positive.min(), positive.max()
        growth = 1.0 + 1.0 / _NODES_PER_RADIUS
        n_geo = int(np.ceil(np.log(hi / lo) / np.log(growth)))
        radii = np.concatenate((
            np.arange(_NODES_PER_RADIUS) * (lo / _NODES_PER_RADIUS),
            lo * growth ** np.arange(n_geo + 1)))
        radii[-1] = max(radii[-1], hi)
    lam = np.concatenate((-radii[:0:-1], radii))
    _, d = exprdsl.compile(expr, "lambda")[0]({"lambda": lam})
    d = np.abs(np.broadcast_to(np.asarray(d, dtype=float), lam.shape))
    mid = len(radii) - 1
    envelope = np.maximum.accumulate(np.maximum(d[mid:], d[mid::-1]))
    return np.append(envelope, np.inf)[np.searchsorted(radii, m1)]


def stability_rhs(spec, times, d_init, d_s0, d_sS, b0, gamma, m1, dt):
    """Right-hand side of the L1 stability estimate at each time in ``times``.

        exp(G(t)) * [d_init + max|a'| * int_0^t exp(-G) (d_s0 + d_sS) dt']

    ``d_s0`` and ``d_sS`` are L1(x) boundary-data differences sampled at
    t-cell midpoints with spacing ``dt``.  G(t) = b0 P((t - tau)/gamma) is
    b0 times the kernel mass the march applied by t: P is the primitive its
    source rate reads (``kernels.k_gamma_primitive``), and ``gamma`` the
    runs' delay width.  max|a'| is taken over [-m1(t), m1(t)], where ``m1``
    holds a sup-norm bound of both solutions at each time in ``times``;
    |a'| is sampled once per curve (``_deriv_max_curve``).
    """
    d_s0 = np.asarray(d_s0, dtype=float)
    d_sS = np.asarray(d_sS, dtype=float)
    mids = (np.arange(len(d_s0)) + 0.5) * dt
    if spec.beta is None or gamma <= 0 or b0 == 0.0:
        g, g_ts = np.zeros(len(mids)), np.zeros(len(times))
    else:
        z, p = kernels.k_gamma_primitive()
        g, g_ts = (b0 * np.interp((np.asarray(ts) - spec.tau) / gamma, z, p)
                   for ts in (mids, times))
    weighted = np.exp(-g) * (d_s0 + d_sS)
    a_max = _deriv_max_curve(spec.flux_a, m1)
    out = []
    for t, g_t, a in zip(times, g_ts, a_max):
        # the midpoints before t are a prefix; summing it, not a running
        # cumsum, keeps the rounding of the estimate at a single t
        boundary = float(np.sum(weighted[:np.searchsorted(mids, t)]) * dt)
        out.append(float(np.exp(g_t) * (d_init + a * boundary)))
    return out


def impulsive_bounds(*specs, inflate=1.0):
    """Sup-norm bounds (M2, M3) for the impulsive problem of one or two runs.

    M2 bounds every run before the jump; M3 = max(M2 + sup|beta| over the
    pre-jump range for each beta, post-jump boundary-data norms) bounds them
    after.  The jump time, horizon and slab domain are the first spec's.
    """
    first = specs[0]
    m2 = max(max(data_sup_norms(spec, (0.0, first.tau),
                                inflate=inflate).values()) for spec in specs)
    m3 = m2
    for spec in specs:
        post = data_sup_norms(spec, (first.tau, first.T), inflate=inflate)
        m3 = max(m3, m2 + slab_sup(first, spec.beta, m2, inflate=inflate),
                 post["u0_2"], post["uS_2"])
    return m2, m3


def stability_rhs_impulsive(spec1, spec2, times, d_init, d_s0, d_sS, dt):
    """Right-hand side of the L1 stability estimate for two impulsive runs,
    at each time in ``times``.

    Without a source, the estimate of ``stability_rhs`` with max|a'| over
    [-m4, m4] holds at every time; past the jump time the bound gains the
    perturbation-difference term and the same estimate at the jump time,
    over [-m5, m5], scaled by the first perturbation's value-Lipschitz
    constant db1.  m5 and m4 bound both runs before and after the jump
    (``impulsive_bounds`` of the pair).  sup|beta1 - beta2| and db1 are
    sampled from the data once per curve.  Returns one value per time.
    """
    m5, m4 = impulsive_bounds(spec1, spec2)
    if spec1.beta is not None and spec2.beta is not None:
        diff = exprdsl.BinOp("-", spec1.beta, spec2.beta)
    else:
        diff = spec1.beta if spec1.beta is not None else spec2.beta
    db1 = slab_sup(spec1, spec1.beta, m5, n=(64, 64, 256), wrt="lambda")
    beta_diff = slab_sup(spec1, diff, m5)
    at_tau, = stability_rhs(spec1, [spec1.tau], d_init, d_s0, d_sS, 0.0, 0.0,
                            [m5], dt)
    jump = spec1.S * spec1.omega_measure * beta_diff + db1 * at_tau
    pre = stability_rhs(spec1, times, d_init, d_s0, d_sS, 0.0, 0.0,
                        [m4] * len(times), dt)
    return [rhs + jump if t >= spec1.tau else rhs for t, rhs in zip(times, pre)]
