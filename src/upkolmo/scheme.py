"""Monotone finite-volume building blocks.

One step is an explicit conservative update, one backward-Euler solve of
the lateral diffusion along x, and a kick that applies the source:

    u* = u^n - (dt/ds) dF_a - (dt/dx) dF_phi + dt * eps * D_ss u^n,
    (I - dt * Lap_x) v = u*,
    u^{n+1} = v + theta_n * beta(x, s, v),

with a monotone two-point numerical flux in each convective direction:

* Lax-Friedrichs: F(uL, uR) = (f(uL) + f(uR))/2 - alpha (uR - uL)/2,
  alpha at least max|f'| over the invariant region;
* Engquist-Osher: F(uL, uR) = f(0) + int_0^uL max(f', 0) + int_0^uR min(f', 0),
  which handles non-monotone fluxes without a Riemann solver.

theta_n = P(t_n + dt) - P(t_n), t_n = n dt (``kernels.step_mass``), is the
kernel mass of the step from level n, so the kicks add up to unit mass
whatever the step.  At gamma = 0 P is 1_{t >= tau}: theta_n is exactly 1 on
the step that ends at level ``n_tau`` = ceil(tau/dt) and 0 on every other,
so the impulsive problem is the gamma = 0 case of the one step (operator
splitting; Holden, Karlsen, Lie & Risebro, EMS 2010).  ``step`` and ``kick``
take the level n; ``Stepper.thetas`` holds each theta_n.

The operator is ultra-parabolic: diffusion acts along x only.  The explicit
part is forward Euler under the CFL step of ``Stepper._cfl``, which is
monotone in every argument.  Lap_x is the three-point Laplacian with zero
ghosts, so I - dt * Lap_x is an M-matrix: its inverse is nonnegative with
row sums at most 1; the step multiplies by it, its entries >= 0 exactly
(``Stepper._solve_lateral``).  The kick's slope is 1 + theta_n
dbeta/dlambda, with theta_n <= 1, and <= dt (2/gamma) omega(0) for gamma >
0; both sources guard it with one enclosed min of dbeta/dlambda,
``Stepper.kick_slope``: ``Stepper._cfl`` caps dt where it is below -1,
and ``solver.solve`` refuses a decreasing jump map.  So the
composition keeps what the scheme promises exactly: it is monotone, it
obeys the discrete maximum principle, and by Kato's inequality the
discrete entropy inequality (derived in ``verify``; Crandall & Majda,
Math. Comp. 34, 1980; Evje & Karlsen, SIAM J. Numer. Anal. 37, 2000).

Boundary handling: lateral (x) ghosts are zero for both the convective
exterior state and the diffusion stencil.  In s, prescribed exterior states
are fed through the numerical flux; with eps > 0 they are additionally
imposed strongly in the eps * D_ss stencil.  Attainment at the s-ends is
not forced, so computed traces may deviate from the prescribed data; the
verifier checks the boundary entropy inequalities on the traces instead.

Both fluxes are sum-split, F(uL, uR) = g(uL) + h(uR), and ``split(w)``
is their only form: it returns the two per-cell parts (g(w), h(w)), looked
up once per cell of the padded state and distinct flux (``Stepper.split``),
and the step forms each s- and x-interface flux as g(uL) + h(uR).
For Engquist-Osher g = f(0) + f_plus and h = f_minus, for Lax-Friedrichs
g = (f + alpha w)/2 and h = (f - alpha w)/2.  The entropy-residual check
builds its Kruzhkov fluxes from the same parts (see ``verify``), so it
certifies the fluxes the march computed.  Each flux also carries
``coeff``, an enclosure of max|f'| over [-m_bound, m_bound], which bounds
g'(w) - h'(w) there (it is alpha itself for Lax-Friedrichs): what a
cell's own coefficient loses per unit dt/ds, the convective term of
``Stepper._cfl``.

For Engquist-Osher the split integrals are read from a cumulative-midpoint
table (node spacing 1/1024) with linear interpolation.  The table is
nondecreasing/nonincreasing by construction, so monotonicity of the scheme
is preserved exactly, and constant states still cancel at interfaces, so
conservation and the maximum principle are untouched.  Both integrals are
stored as one complex table ``f_plus + 1j * f_minus``, so a single
``np.interp`` returns them together.  This is exact, not just close: the
complex interpolation multiplies by 1/h where the real one divides by h,
and with h = 2^-10 both are exact scalings by a power of two, so each
part equals the real interpolation of its own table bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import exprdsl, kernels
from .problem import min_kick_slope, sup_bound

__all__ = [
    "SchemeOptions", "Stepper",
    "DegenerateGridError", "NaNDetectedError", "SupNormExceeded",
    "LAX_FRIEDRICHS", "ENGQUIST_OSHER", "LATERAL_DIFFUSION", "SOURCE_STEP",
    "MAX_TABLE_NODES", "MAX_LATERAL_ENTRIES", "MAX_STEP_GHOSTS",
]

LAX_FRIEDRICHS = "lax_friedrichs"
ENGQUIST_OSHER = "engquist_osher"
# how the step treats Lap_x and the source; `meta.json` records both, so
# that a trajectory is only ever certified against the update it came from
LATERAL_DIFFUSION = "backward_euler"
SOURCE_STEP = "kick"

_TABLE_SPACING = 1.0 / 1024.0
# the largest march a Stepper is built for, as each of its arrays is held
# whole: the Engquist-Osher table's nodes, 2048 (m_bound + 1) and about
# 90 bytes each while it is built; the lateral inverse's Nx^2 entries;
# and n_steps Nx, the s-end ghost values of every step, which ``verify``
# holds at once (``thetas`` holds n_steps values).  A 1024^2 run of 2,959
# steps needs 4,713 nodes, 1,048,576 entries and 3,030,016 ghost values.
MAX_TABLE_NODES = 2 ** 20 + 1
MAX_LATERAL_ENTRIES = 2 ** 24
MAX_STEP_GHOSTS = 2 ** 24
# backward Euler's relative error on the first lateral sine mode, by the
# time the mode has decayed by 1/e, where no stiffness term sizes dt
_HEAT_ERROR = 0.005


class DegenerateGridError(ValueError):
    pass


class NaNDetectedError(FloatingPointError):
    pass


class SupNormExceeded(RuntimeError):
    """Runtime sup-norm left the invariant region the step was sized for."""

    def __init__(self, sup, bound, t):
        self.sup, self.bound, self.t = sup, bound, t
        super().__init__(f"|u| = {sup:.6g} exceeded bound {bound:.6g} at t = {t:.6g}")


@dataclass(frozen=True)
class SchemeOptions:
    """How the march steps and stores, every value checked here."""

    flux_kind: str = ENGQUIST_OSHER
    cfl_safety: float = 0.9
    snapshot_stride: int = 32

    def __post_init__(self):
        if self.flux_kind not in (ENGQUIST_OSHER, LAX_FRIEDRICHS):
            raise ValueError(f"flux_kind: expected '{ENGQUIST_OSHER}' or "
                             f"'{LAX_FRIEDRICHS}', got {self.flux_kind!r}")
        safety, stride = self.cfl_safety, self.snapshot_stride
        if isinstance(safety, bool) or not (
                isinstance(safety, (int, float)) and 0.0 < safety <= 1.0):
            raise ValueError(f"cfl_safety: must be in (0, 1], got {safety!r}")
        if type(stride) is not int or stride < 1:   # bool is not int here
            raise ValueError(
                f"snapshot_stride: must be an integer >= 1, got {stride!r}")


# --- tabulated split fluxes ------------------------------------------------

def _fits(what, size, unit, limit):
    """Refuse, before it is allocated, a march whose ``what`` would hold
    ``size`` ``unit``, above ``limit`` (a MAX_ constant)."""
    if size > limit:
        raise ValueError(f"{what} would hold {size:,} {unit}, above the "
                         f"limit of {limit:,}: the march is refused")


class _SplitTable:
    """Cumulative-midpoint table of the Engquist-Osher split integrals on
    [-(m_bound + 1), m_bound + 1]; ``coeff`` is enclosed on first use."""

    def __init__(self, f, m_bound):
        self.f, self.m_bound = f, m_bound
        k = math.ceil((m_bound + 1.0) / _TABLE_SPACING)
        _fits(f"the Engquist-Osher table of m_bound = {m_bound!r}",
              2 * k + 1, "nodes", MAX_TABLE_NODES)
        self.nodes = (np.arange(-k, k + 1)) * _TABLE_SPACING
        mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        d = np.broadcast_to(exprdsl.on_slope(f, exprdsl.evaluate,
                                             {"lambda": mids}), mids.shape)
        inc_p = np.maximum(d, 0.0) * _TABLE_SPACING
        inc_m = np.minimum(d, 0.0) * _TABLE_SPACING
        cp = np.concatenate(([0.0], np.cumsum(inc_p)))
        cm = np.concatenate(([0.0], np.cumsum(inc_m)))
        # f_plus + 1j f_minus: one np.interp reads both split integrals
        self.table = (cp - cp[k]) + 1j * (cm - cm[k])
        self.f0 = float(exprdsl.evaluate(f, {"lambda": 0.0}))

    @functools.cached_property
    def coeff(self):
        return exprdsl.on_slope(self.f, exprdsl.sup,
                                {"lambda": (-self.m_bound, self.m_bound)})

    def split(self, w):
        """(g(w), h(w)) with flux(wL, wR) = g(wL) + h(wR)."""
        v = np.interp(w.ravel(), self.nodes, self.table).reshape(w.shape)
        return self.f0 + v.real, v.imag

    def flux(self, wL, wR):
        return self.split(wL)[0] + self.split(wR)[1]


class _LFFlux:
    """Lax-Friedrichs flux with alpha = ``coeff``; f is evaluated under
    ``Stepper.step``'s errstate, which tests the step."""

    def __init__(self, f, m_bound):
        self.f = exprdsl.compile(f, finite=False)[0]
        self.coeff = exprdsl.on_slope(f, exprdsl.sup,
                                      {"lambda": (-m_bound, m_bound)})

    def split(self, w):
        """(g(w), h(w)) with flux(wL, wR) = g(wL) + h(wR)."""
        v = self.f({"lambda": w})
        aw = self.coeff * w
        return 0.5 * (v + aw), 0.5 * (v - aw)

    def flux(self, wL, wR):
        return self.split(wL)[0] + self.split(wR)[1]


# --- the stepper -----------------------------------------------------------

def _lateral_inverse(n, r):
    """(I - r * (second difference))^{-1} on n cells with zero ghosts, by
    the Thomas sweep on the identity (pivots m_i = 1 + 2r - r g_{i-1}, with
    g_i = r/m_i and g_{-1} = 0): every term is positive, so every computed
    entry is >= 0, which ``np.linalg.inv`` does not promise."""
    x = np.eye(n)
    g = np.empty(n)
    for i in range(n):
        x[i, i] = 1.0 / (1.0 + 2.0 * r - r * (g[i - 1] if i else 0.0))
        g[i] = r * x[i, i]
        if i:
            x[i] += g[i] * x[i - 1]
    for i in range(n - 2, -1, -1):
        x[i] += g[i] * x[i + 1]
    return x


class Stepper:
    """Prepared one-step update operator for a fixed spec/grid/options.

    The construction is deterministic in its arguments: identical inputs
    produce bit-identical steps, which the singular-limit comparisons rely
    on.  ``m_bound`` fixes the invariant region the flux tables and the LF
    dissipation are sized for.  Its default, B(T) = ``problem.sup_bound``
    with unit kick mass, the region the march never leaves, reads no eps
    or gamma, so a ``with_data`` family of them shares it; other specs are
    comparable exactly only with a common value.  One flux object serves
    each distinct expression (``flux_phi`` is ``flux_a`` where they are
    equal), and it, an Engquist-Osher table's ``coeff``, the lateral
    solve's inverse and ``kick_slope`` are each built on first use, so a
    Stepper given its dt encloses nothing that only sizing dt reads, and
    one that never steps builds no inverse; so is ``thetas``, the kick
    masses ``kick`` and ``verify`` read, and ``u0``, u^0 at the cells: the
    march and the checks of its run read it and ``beta`` alike.  It steps
    with the spec's eps and gamma; the ``eps`` and ``gamma`` keywords that
    override them are kept for ``bench/setup_probe.py``.  A march whose
    table, lateral inverse or ghosts would exceed their MAX_ constant is
    refused with a ``ValueError`` before any of them is allocated.
    """

    def __init__(self, spec, grid, eps=None, gamma=None, options=None,
                 m_bound=None, dt=None):
        if grid.nx <= 0 or grid.ns <= 0 or grid.dx <= 0 or grid.ds <= 0:
            raise DegenerateGridError(f"grid {grid}")
        _fits(f"the lateral inverse of Nx = {grid.nx}", grid.nx ** 2,
              "entries", MAX_LATERAL_ENTRIES)
        self.options = options or SchemeOptions()
        self.spec = spec
        self.grid = grid
        self.eps = spec.epsilon if eps is None else eps
        self.gamma = spec.gamma if gamma is None else gamma
        if m_bound is None:
            m_bound = sup_bound(spec, None, 1.0)
        self.m_bound = m_bound
        self.xc, self.sc = grid.cell_centers()
        self._cells = {"x": self.xc[:, None], "s": self.sc[None, :]}
        self._kind = (_SplitTable if self.options.flux_kind == ENGQUIST_OSHER
                      else _LFFlux)
        # the _cfl term that set dt; None when the caller fixed dt
        self.dt_term = None
        # a caller's dt is some march's T / n_steps, up to rounding; the
        # monotone step is a bound that no rounded step count may exceed
        slack = 1e-12
        if dt is None:
            dt, slack = self._cfl(), 0.0
        # a jump time inside (0, T) gets a level strictly between 0 and T
        inner_tau = 0 < spec.tau < spec.T
        n_steps = max(2 if inner_tau else 1, math.ceil(spec.T / dt - slack))
        self._fit_steps(n_steps)
        self.dt = spec.T / n_steps
        self.n_steps = n_steps
        # the first level at or after tau, where the gamma = 0 kick lands
        self.n_tau = max(math.ceil(spec.tau / self.dt - 1e-9), 1) \
            if inner_tau else None

        # compiled once, as the march evaluates them at every step; the kick
        # tests its result, the data (the ghosts) test their own values
        self.beta_fn = (exprdsl.compile(spec.beta, finite=False)[0]
                        if spec.beta is not None else None)
        self._data = [exprdsl.compile(e)
                      for e in (spec.data_u0_2, spec.data_uS_2)]
        self._fixed_rows = None
        if not any("t" in free for _, free in self._data):
            self._fixed_rows = self.boundary_values(0.0)

    @functools.cached_property
    def u0(self):
        """u0_1 at the cell centres, the march's first field, read-only."""
        u0 = np.empty((self.grid.nx, self.grid.ns))
        u0[...] = exprdsl.evaluate(self.spec.data_u0_1, self._cells)
        u0.flags.writeable = False
        return u0

    @functools.cached_property
    def flux_a(self):
        return self._kind(self.spec.flux_a, self.m_bound)

    @functools.cached_property
    def flux_phi(self):
        if self.spec.flux_phi == self.spec.flux_a:
            return self.flux_a
        return self._kind(self.spec.flux_phi, self.m_bound)

    def split(self, w):
        """Both fluxes' parts of every cell of w, (g_a, h_a) and (g_phi,
        h_phi): one ``split`` per distinct flux, the s- and x-faces sliced
        from it by the caller."""
        parts = self.flux_a.split(w)
        return parts, (parts if self.flux_phi is self.flux_a
                       else self.flux_phi.split(w))

    @functools.cached_property
    def kick_slope(self):
        """``problem.min_kick_slope``, no kick mass before the impulse, unit
        mass before a delayed kick; None without a beta."""
        if self.spec.beta is None:
            return None
        return min_kick_slope(self.spec, 0.0 if self.gamma == 0 else 1.0)

    def _fit_steps(self, n_steps):
        _fits(f"the s-end ghosts of {n_steps:,} steps of Nx = {self.grid.nx}",
              n_steps * self.grid.nx, "values", MAX_STEP_GHOSTS)

    def _cfl(self):
        """Time step: the monotonicity bound of the step's explicit part,

            dt = safety / ( coeff_a/ds + coeff_phi/dx + 2 eps / ds^2 ),

        capped for gamma > 0 at safety gamma / (2 omega(0) d) where d =
        -``kick_slope`` > 1, so that the kick stays nondecreasing; theta_n
        <= 1, so d <= 1 needs no cap.  coeff is each flux's bound on g' -
        h' (module notes), so a cell's own coefficient is 1 - dt times
        this sum at most, nonnegative for safety <= 1.  The lateral
        Laplacian is solved implicitly and has no term here.

        With zero fluxes and eps = 0 no term is left, and dt is
        capped for accuracy instead.  Backward Euler damps the first
        lateral sine mode, e^(-mu t) with mu = (pi/L)^2, by 1/(1 + mu dt)
        per step, so after n steps, at t = n dt, the log of its ratio to
        the exact decay is n (mu dt - log(1 + mu dt)) <= n (mu dt)^2 / 2 =
        (mu t)(mu dt)/2.  By t = 1/mu, where the mode has decayed by 1/e,
        the relative error is at most mu dt / 2; holding it to _HEAT_ERROR
        gives dt = 2 _HEAT_ERROR / mu, 1.01e-3 on the unit box.  Where any
        term is present it sets dt, and the accuracy cap is not applied.

        ``dt_term`` records which bound set dt: ``convective`` (the
        monotonicity bound above, eps D_ss included), ``kick_cap`` or
        ``heat_accuracy``.
        """
        spec, grid = self.spec, self.grid
        safety = self.options.cfl_safety
        denom = self.flux_a.coeff / grid.ds + self.flux_phi.coeff / grid.dx
        if self.eps > 0:
            denom += 2.0 * self.eps / grid.ds ** 2
        if denom > 0:
            dt, self.dt_term = safety / denom, "convective"
        else:
            dt = 2.0 * _HEAT_ERROR / (math.pi / spec.L) ** 2
            self.dt_term = "heat_accuracy"
        # refused before the kick slope is enclosed: its cap only shortens dt
        self._fit_steps(math.ceil(spec.T / dt))
        slope = self.kick_slope if self.gamma > 0 else None
        if slope is not None and slope < -1.0:
            cap = safety * self.gamma / (2.0 * float(kernels.omega(0.0))
                                         * -slope)
            if cap < dt:
                dt, self.dt_term = cap, "kick_cap"
        return dt

    # ghost filling ---------------------------------------------------------

    def boundary_values(self, t):
        """Prescribed exterior states at the s-ends at time t, read-only;
        data that do not read t are evaluated once per Stepper.  A column
        of times gives one row per time."""
        if self._fixed_rows is not None:
            return self._fixed_rows
        shape = np.broadcast_shapes(np.shape(t), self.xc.shape)
        return tuple(np.broadcast_to(np.asarray(_guarded(
            f, {"x": self.xc, "t": t}, t), dtype=float), shape)
            for f, _ in self._data)

    def padded(self, u, t):
        """State extended by one ghost cell on every side."""
        nx, ns = u.shape
        w = np.empty((nx + 2, ns + 2), dtype=float)
        w[0] = w[-1] = 0.0  # the x-ghosts, corners included
        w[1:-1, 1:-1] = u
        w[1:-1, 0], w[1:-1, -1] = self.boundary_values(t)
        return w

    # single step -----------------------------------------------------------

    def source_rate(self, levels):
        """``kernels.step_mass`` of an integer array of levels: the kick
        mass of the step from each; 0 without a beta."""
        if self.beta_fn is None:
            return np.zeros(np.shape(levels))
        return kernels.step_mass(levels, self.dt, self.spec.tau, self.gamma,
                                 self.n_tau)

    @functools.cached_property
    def thetas(self):
        """theta_n of every level n < ``n_steps``, read-only."""
        thetas = self.source_rate(np.arange(self.n_steps))
        thetas.flags.writeable = False
        return thetas

    @functools.cached_property
    def _inverse(self):
        return _lateral_inverse(self.grid.nx, self.dt / self.grid.dx ** 2)

    def _solve_lateral(self, d):
        """(I - dt * Lap_x)^{-1} d along x with zero ghosts: one product with
        the inverse from ``_lateral_inverse``, entrywise >= 0.  A rounded
        product a b with a >= 0, a rounded sum and a fused multiply-add
        round(a b + c) with a >= 0 are each nondecreasing in b and c, so the
        map is monotone exactly, whatever order, blocking or FMA the BLAS
        uses, and keeps d >= 0 at x >= 0.  Where 1 - x is below the rounding
        unit, rounding can lift a cell an ulp above the exact bound max(0,
        max d); the clip to [min(0, min d), max(0, max d)], which the exact
        solution never leaves, is monotone too, its ends nondecreasing in d.
        Cost: O(nx^2 ns) in four NumPy calls whatever nx, with no band to
        skip (entries stay above 1e-17)."""
        x = self._inverse @ d
        return np.clip(x, min(d.min(), 0.0), max(d.max(), 0.0), out=x)

    def step(self, u, n):
        """``update`` of u's ``padded`` state at level n and its ``split``
        parts: the state v that ``kick`` completes into level n + 1."""
        t = n * self.dt
        w = self.padded(u, t)
        with np.errstate(over="ignore", invalid="ignore"):
            parts = _guarded(self.split, w, t)
        return self.update(w, parts, n)

    def update(self, w, parts, n):
        """The explicit update and the lateral solve of w, a padded state
        at level n, from its split ``parts``.  A value that overflows ends
        the step in ``NaNDetectedError``, from ``_finite``, so NumPy's own
        overflow and invalid-value warnings are silenced."""
        grid, dt, u = self.grid, self.dt, w[1:-1, 1:-1]
        (g_a, h_a), (g_p, h_p) = parts
        with np.errstate(over="ignore", invalid="ignore"):
            # the s-faces of the inner rows, the x-faces of the inner columns
            f_a = g_a[1:-1, :-1] + h_a[1:-1, 1:]
            div_s = (f_a[:, 1:] - f_a[:, :-1]) / grid.ds
            f_p = g_p[:-1, 1:-1] + h_p[1:, 1:-1]
            div_x = (f_p[1:, :] - f_p[:-1, :]) / grid.dx
            new = u - dt * (div_s + div_x)
            if self.eps > 0:
                lap_s = (w[1:-1, :-2] - 2.0 * u + w[1:-1, 2:]) / grid.ds ** 2
                new = new + dt * self.eps * lap_s
            return _finite(self._solve_lateral(new), n * dt)

    def beta(self, v):
        """beta(x, s, v) at the cells, 0.0 without a beta: v is a state,
        or constants k on a leading axis of shape (k, 1, 1)."""
        return (0.0 if self.beta_fn is None
                else self.beta_fn({**self._cells, "lambda": v}))

    def kick(self, v, n):
        """v + theta_n ``beta(v)``, theta_n = ``thetas[n]``: the end of
        the step from level n.  v itself where theta_n = 0."""
        theta = self.thetas[n]
        if theta == 0.0:
            return v
        t = n * self.dt
        with np.errstate(over="ignore", invalid="ignore"):  # as in step
            return _finite(v + theta * _guarded(self.beta, v, t), t)


def _guarded(fn, arg, t):
    """fn(arg): a value the flux or source expressions cannot evaluate (an
    overflow, say) ends the march like a non-finite value."""
    try:
        return fn(arg)
    except exprdsl.DomainError as exc:
        raise NaNDetectedError(f"non-finite value in the step from "
                               f"t = {np.min(t):.6g}: {exc}") from exc


def _finite(new, t):
    if not np.all(np.isfinite(new)):
        bad = np.argwhere(~np.isfinite(new))[0]
        raise NaNDetectedError(
            f"non-finite value at cell {tuple(bad)} after step from "
            f"t = {t:.6g}")
    return new
