"""Numerical certification of the solver's closed-form estimates.

Every check is a pure function of trajectories and their specs or
``rebuild`` steppers and returns a ``VerificationReport``; it passes iff

    measured <= bound * (1 + tolerance) + slack.

Failures are reported, never thrown.  Reports serialize to line-oriented
CSV (``check,measured,bound,tolerance,pass,context_hash``); the hash
covers the full context dictionary, slack included, so that re-running a
check on the same inputs reproduces the line verbatim.

Notes on four constructions:

* The sup-norm bound is the march's own maximum principle (Crandall &
  Majda, Math. Comp. 34, 1980): |u^n| <= B_n = min(D_n + m_n sup|beta|,
  max(D_n, b1)) (``problem.saturated_bound``), D_n the largest of |u^0|
  and the s-end ghosts of the steps m < n, and m_n = sum_{m<n} theta_m.
  By induction: the explicit update is monotone and keeps constants, and
  the lateral inverse is >= 0 with row sums <= 1, so the v a kick acts on
  has |v| <= R = max(|u^n|, the s-end ghosts at t_n), at most B_n with
  D_{n+1} for D_n, the x-ghosts being 0.  The kick H(v) = v + theta_n
  beta(v) maps [-R, R] into [-R - theta_n sup|beta|, R + theta_n
  sup|beta|] and, if it is nondecreasing on [-b1, b1], into [-max(R, b1),
  max(R, b1)], as beta = 0 for |lambda| >= b1; so |u^{n+1}| <= B_{n+1}.
  ``_bound_curves`` reads D_n off the rebuilt stepper's ``u0`` and
  ``boundary_values``, the values the march read.  The
  enclosures (``exprdsl.sup``) but sup|beta| only size the march: D(0,
  t), the data norm over (0, t), is at least D_n for t_n <= t, and B(T) =
  ``problem.sup_bound`` with unit mass is the region m_bound.  sup|beta|
  is enclosed over |lambda| <= max(D(0, T), b1) + 1, which holds every R,
  and ``problem.consistency_errors`` refuses a beta whose enclosure on b1
  <= |lambda| <= that is not 0 to 1e-12.  So B bounds the march up to its
  roundoff, and the row's slack is ``problem.SUP_SLACK``, beyond which
  the march itself aborts.  At gamma = 0 m_n is 0 before the jump's level
  and 1 from it on: the impulsive M2 and M3.  The paper's continuum
  bounds M and M7 are never below B on the scenarios of the tests but the
  zero-data one, whose run is exactly 0; no check reads them.  Every kick
  starts at some t_n < tau, as theta_n = 0 from tau on, so |v| <= B(tau)
  with unit mass, or with none at gamma = 0, where the one kick is the
  first; the min binds at a kick only if B(tau) with unit mass reaches
  b1, D and m being nondecreasing.  ``problem.min_kick_slope`` encloses
  d beta / d lambda from below over both ranges, and the kick is
  nondecreasing where 1 + theta_n times it is >= 0.

* The entropy residual is the largest, over every step, cell and k, of
  the cell inequality of the monotone update.  Each cell term is
  nonpositive up to roundoff, so every nonnegative weighted sum is too,
  but a weighted sum can pass a wrong source that a cell fails (twice the
  spec's kick mass passes a bump-weighted sum).  It needs snapshot
  stride 1.  The march steps with the sum-split form F(a, b) =
  g(a) + h(b) (``split`` in ``scheme``), and for any such F the entropy
  flux Q(a, b; k) = F(a v k, b v k) - F(a ^ k, b ^ k) needs no max or
  min: g(a v k) - g(a ^ k) is g(a) - g(k) for a > k, g(k) - g(a) for
  a < k and 0 for a = k, and likewise for h, so

      Q(a, b; k) = G_k(a) + H_k(b),  G_k = sgn(. - k) (g - g(k)),
                                     H_k = sgn(. - k) (h - h(k)).

  So Q is sum-split too: G_k and H_k are formed once per cell, for every
  k at once, from the g and h the march steps with, and each interface
  adds its two neighbours' parts the way the march forms F.

  A step is an explicit monotone update u* of u^n, then (I - dt Lap_x) v
  = u* with zero x-ghosts, then the kick u^{n+1} = v + theta_n beta(v)
  (see ``scheme``).  The explicit part gives the Crandall-Majda
  inequality |u* - k| <= |u^n - k| - dt dQ + dt eps D_ss |u^n - k|, with
  dQ the Kruzhkov flux differences of both directions.  The solve enters
  in Kato's form: with z = v - k, whose x-ghosts are 0 - k, multiply row
  i by sgn(z_i); since sgn(z_i) z_j <= |z_j| and sgn(z_i) z_i = |z_i|,
  sgn(z_i) (Lap_x z)_i <= (Lap_x |z|)_i, so

      |v - k| - dt Lap_x |v - k| <= sgn(z) (u* - k) <= |u* - k|,

  with the x-ghosts of |v - k| equal to |0 - k|.  The kick H(v) = v +
  theta_n beta(v) is nondecreasing, so |H(v) - H(k)| = sgn(v - k) (H(v)
  - H(k)), and |H(k) - k| = theta_n |beta(k)|, so

      |u^{n+1} - k| <= |v - k| + theta_n [sgn(v - k) (beta(v) - beta(k))
                                          + |beta(k)|].

  Chaining the three, cell by cell,

      rho = |u^{n+1} - k| - |u^n - k| + dt dQ - dt Lap_x |v - k|
            - dt eps D_ss |u^n - k|
            - theta_n [sgn(v - k) (beta(v) - beta(k)) + |beta(k)|]  <=  0.

  Steps go by level n, with theta_n = ``Stepper.thetas[n]``.  Where
  theta_n = 0, v = u^{n+1}; on a kick step ``Stepper.update`` of the
  padded u^n and the parts the check split replays the march's own v.
* The stability estimate bounds the march itself, step by step, for two
  runs of one operator: grid, dt, eps, fluxes and their kind, m_bound and
  each step's kick mass theta_n (Kruzhkov, Math. USSR Sb. 10, 1970;
  Crandall & Majda, Math. Comp. 34, 1980).  With the s-end ghosts held
  as inputs, the explicit update is monotone and conservative, so no
  cell passes on more than its own L1 difference (Crandall & Tartar,
  Proc. AMS 78, 1980).  Both fluxes are sum-split, F(a, b) = g(a) + h(b),
  so a ghost enters only its neighbour cell: as (dt/ds) g(ghost) at s =
  0, as -(dt/ds) h(ghost) at s = S, and as (dt eps/ds^2) ghost through
  eps D_ss.  By the triangle inequality, trading one run's ghosts y0, yS
  for the other's z0, zS then adds at most

      inflow_n = dt [|g(y0) - g(z0)| + |h(yS) - h(zS)|
                     + (eps/ds) (|y0 - z0| + |yS - zS|)]

  in L1(x), the cell area dx ds turning each column sum into an L1(x)
  norm: the ghosts and the parts the march stepped with, and no
  Lipschitz constant of a.  The lateral inverse is nonnegative with
  column sums at most 1.  The kick v -> v + theta_n beta1(v) is Lipschitz
  with 1 + theta_n b0, b0 = sup|d beta1 / d lambda|, and beta2 moves a
  cell by at most theta_n sup|beta1 - beta2| more.  So

      e_{n+1} <= (1 + theta_n b0) (e_n + inflow_n)
                 + theta_n S |Omega| sup|beta1 - beta2|,

  unrolled from e_0 = d_init in ``problem.stability_rhs``.  At gamma = 0
  the impulse is the step with theta = 1; for gamma > 0 the weight
  prod (1 + theta_m b0) is at most the continuum's exp(b0 P(t)).  It
  bounds the discrete march, so no grid allowance is added.
* Genuine nonlinearity of the s-flux, meas{lambda : xi1 + a'(lambda) xi2
  = 0} = 0 for every (xi1, xi2) != 0 (Lions, Perthame & Tadmor, J. AMS 7,
  1994), is certified on [-Lambda, Lambda] by enclosing a'' (Moore,
  1966).  At xi2 = 0 the set is empty, else it is the level set {a' =
  -xi1/xi2}.  Where the enclosure of a'' on a part excludes 0, a'' keeps
  one strict sign between the kinks of abs, min and max, so a' is strictly
  monotone on each piece: the part holds at most one point of each level
  set per piece, one where a' is continuous, a null set.  A part whose
  enclosure holds 0 or reaches a pole of a'' (|lambda|^1.5 at 0) is
  counted whole, so mu, the width of the counted parts, bounds every level
  set's measure at once; ``exprdsl.zero_width`` halves only those again.
  A flux linear on an interval keeps that interval's width in mu.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import exprdsl
from .problem import (SUP_SLACK, GridMismatchError, saturated_bound,
                      stability_rhs)
# bench/run.py traces these names where `verify` binds them
from .problem import refined_max_bound, stability_rhs_impulsive  # noqa: F401
from .scheme import NaNDetectedError, Stepper
from . import solver as solver_mod
from .solver import GammaOutOfRangeError

__all__ = [
    "VerificationReport", "write_reports", "rebuild", "check_max_principle",
    "check_stability", "check_entropy_residual", "check_bln",
    "check_jump", "check_gamma_limit", "check_epsilon_cauchy",
    "validate_genuine_nonlinearity",
    "TooFewRunsError", "GridMismatchError",
    "GammaOutOfRangeError",
]


class TooFewRunsError(ValueError):
    pass


@dataclass
class VerificationReport:
    check: str
    measured: float
    bound: float
    tolerance: float
    slack: float
    passed: bool
    context: dict = field(default_factory=dict)

    @property
    def margin(self):
        return self.bound * (1.0 + self.tolerance) + self.slack - self.measured

    def context_hash(self):
        payload = dict(self.context)
        payload["slack"] = self.slack
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def row(self):
        return [self.check, f"{self.measured:.12g}", f"{self.bound:.12g}",
                f"{self.tolerance:.12g}", str(self.passed).lower(),
                self.context_hash()]


def _report(check, measured, bound, tolerance, slack, context):
    passed = bool(measured <= bound * (1.0 + tolerance) + slack)
    return VerificationReport(check, float(measured), float(bound),
                              float(tolerance), float(slack), passed, context)


def write_reports(path, reports):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "measured", "bound", "tolerance", "pass",
                         "context_hash"])
        for rep in reports:
            writer.writerow(rep.row())


# --- discrete norms ---------------------------------------------------------

def l1_diff(field1, field2):
    return float(np.sum(np.abs(field1.values - field2.values))
                 * field1.grid.cell_volume)


def _trapezoid_weights(times):
    if len(times) == 1:
        return np.array([1.0])
    t = np.asarray([times[0], *times, times[-1]], dtype=float)
    return 0.5 * (t[2:] - t[:-2])


def spacetime_l1_diff(traj1, traj2):
    """Full space-time L1 distance from matched snapshots."""
    if traj1.grid != traj2.grid:
        raise GridMismatchError("trajectories on different grids")
    if traj1.times != traj2.times:
        raise GridMismatchError("snapshot times differ")
    return float(sum(wi * l1_diff(f1, f2) for wi, f1, f2 in zip(
        _trapezoid_weights(traj1.times), traj1.fields, traj2.fields)))


# --- sup-norm bound curves ----------------------------------------------------

def _bound_curves(stepper, traj):
    """Each snapshot's bound B_k of the module notes, from the data the
    march read: u^0, the ``boundary_values`` of every step and the kick
    masses ``thetas`` of the run's rebuilt ``stepper``."""
    ts = np.arange(stepper.n_steps)[:, None] * stepper.dt
    ghosts = np.abs(stepper.boundary_values(ts)).max(axis=(0, -1))
    u0 = np.abs(stepper.u0).max()
    dnorms = np.maximum.accumulate(np.append(u0, np.broadcast_to(
        ghosts, stepper.n_steps)))[traj.levels]
    masses = np.concatenate(([0.0], np.cumsum(stepper.thetas)))[traj.levels]
    return tuple(map(float, saturated_bound(stepper.spec, dnorms, masses)))


def _inf_unless_finite(value):
    """A non-finite measurement exceeds every bound (a NaN compares with
    nothing, so it would otherwise never be the worst)."""
    return value if np.isfinite(value) else np.inf


def _worst_cell(values):
    """Index of the first non-finite entry, else of the largest."""
    bad = ~np.isfinite(values)
    flat = np.argmax(bad) if bad.any() else np.argmax(values)
    return [int(i) for i in np.unravel_index(flat, values.shape)]


def check_max_principle(traj, stepper):
    """Every t > 0 snapshot's sup-norm must respect its bound B of
    ``_bound_curves``, ``stepper`` the run's ``rebuild``.

    The t = 0 snapshot is the initial datum on the grid, which the bound
    covers by construction, so it is left out and every row is decided by
    the march.  The row is the snapshot of largest (sup - slack) / bound,
    which exceeds 1 exactly where the row fails, so a failing snapshot is
    the one named; the context names it (``t_worst``) and its cell
    (``cell_worst``).  A non-finite value measures inf, and the first such
    snapshot is the worst.  With no t > 0 snapshot there is nothing to
    certify and the report fails with measured = inf.
    """
    spec = stepper.spec
    bounds = _bound_curves(stepper, traj)
    sups = {i: _inf_unless_finite(fld.sup_norm())
            for i, (t, fld) in enumerate(zip(traj.times, traj.fields))
            if t > 0.0}
    slack = SUP_SLACK
    i = max(sups, default=None, key=lambda i: (
        (sups[i] - slack) / bounds[i] if bounds[i] > 0.0
        else np.inf if sups[i] > slack else -np.inf))
    worst = ((np.inf, max(bounds, default=0.0), None, None) if i is None else
             (sups[i], bounds[i], traj.times[i],
              _worst_cell(np.abs(traj.fields[i].values))))
    context = {"spec": spec.context_hash(), "mode": traj.meta.get("mode"),
               "t_worst": worst[2], "cell_worst": worst[3]}
    return _report("max_principle", worst[0], worst[1], 0.0, slack, context)


# --- stability ----------------------------------------------------------------

def rebuild(spec, traj):
    """The run's ``Stepper``, of the spec it marched and its meta's dt,
    m_bound and options: it steps and kicks as the deterministic march did."""
    meta = traj.meta
    return Stepper(spec, traj.grid, options=meta["options"],
                   m_bound=meta["m_bound"], dt=meta["dt"])


def _inflow(st1, st2):
    """Each step's inflow_n of the module notes: the L1(x) differences of
    the two runs' s-end ghosts at the step's start n dt, from
    ``Stepper.boundary_values``, through the first run's split parts and
    eps D_ss.  The ghosts of every step form one (n_steps, nx) array, so
    ``split`` runs once per end and run, and a step is a row, whose sum
    adds in the order a sum of that row alone does."""
    n, grid = st1.n_steps, st1.grid
    ts = np.arange(n)[:, None] * st1.dt
    (y0, yS), (z0, zS) = st1.boundary_values(ts), st2.boundary_values(ts)
    split = st1.flux_a.split

    def l1(d):
        return np.broadcast_to(np.abs(d).sum(axis=-1) * grid.dx, (n,))

    flux = l1(split(y0)[0] - split(z0)[0]) + l1(split(yS)[1] - split(zS)[1])
    return st1.dt * (flux + st1.eps / grid.ds * (l1(y0 - z0) + l1(yS - zS)))


def check_stability(traj1, traj2, st1, st2):
    """L1 distance of two runs versus the stability estimate
    ``stability_rhs`` of the march (see the module notes), both sources.

    The runs must share grid, snapshot times, dt, eps, m_bound, flux kind
    and fluxes and, where both have a beta, every kick's mass; else
    ``GridMismatchError``.  ``st1`` and ``st2`` are their ``rebuild``s,
    so the ghosts, split parts and kick masses are those the march
    used.  As in ``check_max_principle``, t = 0 is left out: the row is the
    t > 0 snapshot (``t_worst``) of largest lhs / (1.05 rhs).
    """
    if traj1.grid != traj2.grid:
        raise GridMismatchError("trajectories on different grids")
    if traj1.times != traj2.times:
        raise GridMismatchError("snapshot times differ; rerun with a common dt")
    grid, spec1, spec2 = traj1.grid, st1.spec, st2.spec
    steps = [(st.dt, st.eps, st.m_bound, st.options.flux_kind,
              st.spec.flux_a, st.spec.flux_phi) for st in (st1, st2)]
    if steps[0] != steps[1]:
        raise GridMismatchError("the runs step with different dt, eps, "
                                "fluxes or invariant region m_bound")
    kicks = [st.thetas for st in (st1, st2) if st.beta_fn is not None]
    if kicks[1:] and not np.array_equal(*kicks):
        raise GridMismatchError("the runs kick with different kernel masses; "
                                "rerun with a common delay width")
    d_init = float(np.sum(np.abs(st1.u0 - st2.u0)) * grid.cell_volume)
    rhs = stability_rhs(spec1, spec2, traj1.levels, d_init, _inflow(st1, st2),
                        (kicks or [st1.thetas])[0])

    scored = []
    for t, f1, f2, r in zip(traj1.times, traj1.fields, traj2.fields, rhs):
        if t > 0.0:
            lhs = _inf_unless_finite(l1_diff(f1, f2))
            # lhs / (1.05 rhs): 0 for lhs = 0, else inf over rhs = 0
            ratio = (0.0 if lhs == 0.0 else lhs / (1.05 * r)
                     if r > 0.0 and lhs < np.inf else np.inf)
            scored.append((ratio, lhs, r, t))
    _, lhs, r, t_worst = max(scored, key=lambda row: row[0],
                             default=(np.inf, np.inf, 0.0, None))
    context = {"spec1": spec1.context_hash(), "spec2": spec2.context_hash(),
               "d_init": d_init, "t_worst": t_worst}
    return _report("stability", lhs, r, 0.05, 0.0, context)


# --- entropy residuals ----------------------------------------------------------

def _entropy_parts(parts, k_parts, sign):
    """Per-cell parts (G_k(w), H_k(w)) of the Kruzhkov flux, for every k
    at once: Q(uL, uR; k) = G_k(uL) + H_k(uR), as the march forms F.

    ``parts`` and ``k_parts`` are the split parts (g(w), h(w)) and (g(k),
    h(k)), and ``sign`` is sgn(w - k).
    """
    return sign * (parts[0] - k_parts[0]), sign * (parts[1] - k_parts[1])


def _pre_kick(stepper, u, n0, n1):
    """The march's state v before the kick of the step that ends at level
    n1, replayed from its state u at level n0 < n1 with ``Stepper.step``
    and ``kick``, the deterministic march's own v bit for bit; NaN where a
    step cannot form it.  At n1 = n0 + 1 it is ``Stepper.step(u, n0)``."""
    try:
        for n in range(n0, n1 - 1):
            u = stepper.kick(stepper.step(u, n), n)
        return stepper.step(u, n1 - 1)
    except NaNDetectedError:
        return np.full_like(u, np.nan)


def check_entropy_residual(traj, stepper, k_values):
    """Largest cellwise entropy residual rho over every step, cell and k
    of a stride-1 trajectory, ``stepper`` its ``rebuild``: the cell
    inequality of the monotone update (see the module notes), nonpositive
    up to roundoff.  The context names the worst step by its start
    ``t_worst``, its ``cell_worst`` and ``k_worst``.  With no k, or no
    step, there is nothing to certify and the report fails with measured
    = inf; so it does when a snapshot holds a non-finite value.

    One step is scored at a time, on (k, x, s) arrays that treat every k
    in each array op, and each flux direction's parts are folded into rho
    before the other's are formed, so memory holds one step's arrays
    whatever the number of steps.  The worst is the first non-finite entry,
    else the first largest, in step order.
    """
    if traj.meta["options"].snapshot_stride != 1:
        raise ValueError("entropy residual needs a stride-1 trajectory")
    spec, grid = stepper.spec, traj.grid
    dt, dx, ds = stepper.dt, grid.dx, grid.ds
    # one axis per entropy |u - k|: every k is treated in the same array op
    ks = np.asarray(k_values, dtype=float).reshape(-1, 1, 1)
    k_a, k_p = stepper.split(ks)
    beta_k = stepper.beta(ks)
    n_scored = len(traj.times) - 1 if len(ks) else 0
    worst = (np.inf if n_scored == 0 else -np.inf, None, None, None)

    for i in range(n_scored):
        n, t0 = traj.levels[i], traj.times[i]
        u0, u1 = traj.fields[i].values, traj.fields[i + 1].values
        theta = stepper.thetas[n]
        w = stepper.padded(u0, n * dt)
        (g_a, h_a), (g_p, h_p) = parts = stepper.split(w)
        v = u1
        if theta:  # the march's own v, from the state and parts formed here
            try:
                v = stepper.update(w, parts, n)
            except NaNDetectedError:
                v = np.full_like(u0, np.nan)
        diff = w - ks
        sign, eta_pad = np.sign(diff), np.abs(diff)
        eta0 = eta_pad[:, 1:-1, 1:-1]
        # the s-flux acts inside the s-strip, then the x-flux inside the
        # x-strip: each direction's parts are folded into rho before the
        # other's are formed.  They stay bound until those replace them; a
        # helper that freed them on return let malloc hand the heap top
        # back to the OS and fault it in again, 30% slower at 128^2.
        g, h = _entropy_parts((g_a[1:-1], h_a[1:-1]), k_a, sign[:, 1:-1])
        q = g[..., :-1] + h[..., 1:]
        rho = np.abs(u1 - ks) - eta0 + dt / ds * (q[..., 1:] - q[..., :-1])
        g, h = _entropy_parts((g_p[:, 1:-1], h_p[:, 1:-1]), k_p,
                              sign[..., 1:-1])
        q = g[..., :-1, :] + h[..., 1:, :]
        rho = rho + dt / dx * (q[..., 1:, :] - q[..., :-1, :])
        # Kato's form: the Laplacian of eta(v), x-ghosts |0 - k|
        zero = np.zeros_like(v[:1])
        ev = np.abs(np.concatenate((zero, v, zero)) - ks)
        rho = rho - dt * (ev[:, :-2] - 2.0 * ev[:, 1:-1] + ev[:, 2:]) / dx ** 2
        if stepper.eps > 0:
            es = eta_pad[:, 1:-1, :]
            rho = rho - dt * stepper.eps * (
                es[..., :-2] - 2.0 * eta0 + es[..., 2:]) / ds ** 2
        if theta:
            rho = rho - theta * (np.sign(v - ks) * (stepper.beta(v) - beta_k)
                                 + np.abs(beta_k))
        j, cx, cs = _worst_cell(rho)
        value = _inf_unless_finite(float(rho[j, cx, cs]))
        if value > worst[0]:
            worst = (value, t0, [cx, cs], float(ks[j, 0, 0]))

    context = {"spec": spec.context_hash(), "k_values": list(map(float, k_values)),
               "n_scored": n_scored, "t_worst": worst[1],
               "cell_worst": worst[2], "k_worst": worst[3]}
    return _report("entropy_residual", worst[0], 0.0, 0.0, 1e-8, context)


# --- boundary entropy inequalities ---------------------------------------------

def _smooth_sign(z):
    return z / np.sqrt(z * z + 1e-12)  # a width of 1e-6


def _q_a(a, v, k):
    """Kruzhkov flux of the compiled s-flux ``a`` at v for the constant k,
    and a(v)."""
    a_v = np.asarray(a({"lambda": v}))
    return np.sign(v - k) * (a_v - float(a({"lambda": k}))), a_v


def check_bln(traj, stepper, k_values):
    """Boundary entropy inequalities on the s-traces, each snapshot's first
    and last s-column, against the s-end data of ``stepper``, the run's
    ``rebuild``, at the snapshot's time, n dt in a stored run (``io``).

    For eta = |. - k|:  q(tr) - q(data) - eta'(data) (a(tr) - a(data))
    must be <= tol at s -> 0+ and >= -tol at s -> S-, for every k.
    Prescribed data may stay unattained; only the inequality is asserted.

    The boundary entropy conditions constrain the trace only for almost
    every t > 0, so the t = 0 snapshot, whose first and last s-columns hold
    the initial datum u0_1 rather than a trace, is left out.  Every t > 0
    snapshot is scored: the relaxation layer of a few cell-transit times
    ds/|a'| right after t = 0, and in impulsive mode the post-jump snapshot,
    stay checked.  With no t > 0 snapshot, or no k, there is nothing to
    certify and the report fails with measured = inf.

    The context names where the row was decided, as ``check_max_principle``
    does: the snapshot ``t_worst``, the ``end`` (``s0`` or ``sS``), the
    trace's ``cell_worst`` and ``k_worst``, the first non-finite entry,
    else the first largest, in k, end, snapshot and cell order.
    """
    spec, grid = stepper.spec, traj.grid
    tol = 5.0 * (grid.ds + grid.dx)
    # the initial datum, not a boundary trace, sits at t = 0
    scored = [i for i, t in enumerate(traj.times) if t > 0.0]
    n_scored = len(scored)
    # with nothing to certify the report fails with measured = inf
    worst = (-np.inf if n_scored and len(k_values) else np.inf,
             None, None, None, None)
    if n_scored and len(k_values):
        # every scored trace, a snapshot's first or last s-column, and its
        # data as one (n_scored, nx) array
        ts = np.asarray([traj.times[i] for i in scored])[:, None]
        ends = []
        for end, data, cs in zip(("s0", "sS"), stepper.boundary_values(ts),
                                 (0, grid.ns - 1)):
            tr = np.stack([traj.fields[i].values[:, cs] for i in scored])
            ends.append((end, tr, np.broadcast_to(data, tr.shape), cs))
        a = exprdsl.compile(spec.flux_a)[0]
        for k in k_values:
            for end, tr, data, cs in ends:
                q_tr, a_tr = _q_a(a, tr, k)
                q_d, a_d = _q_a(a, data, k)
                gap = q_tr - q_d - _smooth_sign(data - k) * (a_tr - a_d)
                # the inequality is <= tol at s = 0 and >= -tol at s = S
                gap = gap if end == "s0" else -gap
                i, cx = _worst_cell(gap)
                value = _inf_unless_finite(float(gap[i, cx]))
                if value > worst[0]:
                    worst = (value, traj.times[scored[i]], end, [cx, cs],
                             float(k))
    context = {"spec": spec.context_hash(), "tol": tol,
               "k_values": list(map(float, k_values)), "n_scored": n_scored,
               "t_worst": worst[1], "end": worst[2], "cell_worst": worst[3],
               "k_worst": worst[4]}
    return _report("bln_boundary", worst[0], 0.0, 0.0, tol, context)


# --- jump condition -------------------------------------------------------------

def check_jump(traj, stepper):
    """The impulse jump condition u(tau+) = u(tau-) + beta(x, s, u(tau-)),
    cell by cell to 1e-14, the post-jump sup-norm against M3, the snapshot's
    bound of ``_bound_curves`` (unit kick mass), and the jump map's least
    slope ``min_jump_weight``, 1 + ``stepper.kick_slope`` as in
    ``solver.solve``.  u(tau+) is the stored snapshot at level n_tau, and
    u(tau-) the v ``_pre_kick`` replays up to it from the last stored
    snapshot below it with ``stepper``, the run's ``rebuild``, whose
    ``beta`` the jump reads.  The measured value is the largest of the
    pointwise and post-jump ratios and 1 - min_jump_weight, so the row fails
    where the map decreases and the impulsive march is not monotone; a
    replay that cannot form v measures inf.
    """
    spec, n_tau, levels = stepper.spec, stepper.n_tau, traj.levels
    i = levels.index(n_tau)  # stored by the march, required by ``io``
    up = traj.fields[i]
    um = _pre_kick(stepper, traj.fields[i - 1].values, levels[i - 1], n_tau)
    jump = up.values - um - stepper.beta(um)
    pointwise = _inf_unless_finite(float(np.max(np.abs(jump))))
    m3 = _bound_curves(stepper, traj)[i]
    min_weight = 1.0 + stepper.kick_slope
    post_sup = up.sup_norm()
    measured = max(pointwise / 1e-14, post_sup / max(m3, 1e-300),
                   1.0 - min_weight)
    context = {"spec": spec.context_hash(), "pointwise": pointwise,
               "post_sup": post_sup, "m3": m3, "min_jump_weight": min_weight}
    return _report("jump_condition", measured, 1.0, 0.0, 0.0, context)


# --- singular limits -------------------------------------------------------------

def check_gamma_limit(spec, grid, gammas, options=None, map_fn=map):
    """Convergence of the delayed-source runs to their gamma -> 0 limit.

    ``solver.solve`` marches ``spec.with_data(gamma=g)`` at each width g
    and g = 0 on one time step and invariant region, so the pre-impulse
    window is bitwise shared, and the space-time L1 distance must decrease
    (5% slack) and at least halve from first to last.  The per-width runs
    go through ``map_fn``, e.g. a process pool's ``map``.
    """
    gammas = list(gammas)
    if any(g <= 0 for g in gammas):
        raise GammaOutOfRangeError("delay widths must be positive")
    if any(g > spec.gamma0 / 2.0 for g in gammas):
        raise GammaOutOfRangeError(f"delay widths must be <= gamma0/2 = "
                                   f"{spec.gamma0 / 2.0}")
    if any(gammas[i] <= gammas[i + 1] for i in range(len(gammas) - 1)):
        raise GammaOutOfRangeError("delay widths must be strictly decreasing")

    # every run gets Stepper's default m_bound, which depends on neither
    # gamma nor eps, so the family shares one invariant region; dt depends
    # on the width only through the kick's cap, tightest at the smallest
    family = [spec.with_data(gamma=g) for g in gammas]
    dt = Stepper(family[-1], grid, options=options).dt
    march = functools.partial(solver_mod.solve, grid=grid, options=options,
                              dt=dt)
    ref = march(spec.with_data(gamma=0.0))
    trajs = list(map_fn(march, family))
    errors = [spacetime_l1_diff(traj, ref) for traj in trajs]
    return gamma_limit_report(spec, gammas, errors, trajs, ref)


def gamma_limit_report(spec, gammas, errors, trajs, ref):
    """Assemble the singular-limit report from precomputed runs."""
    windows_exact = all(
        np.array_equal(f_g.values, f_ref.values)
        for g, traj in zip(gammas, trajs)
        for t, f_g, f_ref in zip(traj.times, traj.fields, ref.fields)
        if t <= spec.tau - g - traj.meta["dt"])
    flat = max(errors) <= 1e-12
    monotone = flat or all(b <= 1.05 * a for a, b in zip(errors, errors[1:]))
    report = _report("gamma_limit", 0.0 if flat else errors[-1] / errors[0],
                     0.5, 0.0, 0.0,
                     {"spec": spec.context_hash(), "gammas": list(gammas),
                      "errors": list(errors), "monotone": monotone,
                      "pre_window_bitwise": windows_exact})
    report.passed = report.passed and monotone and windows_exact
    return report


def check_epsilon_cauchy(spec, grid, epsilons, options=None, map_fn=map):
    """Successive L1 differences along a decreasing viscosity sequence; the
    runs of ``spec.with_data(epsilon=e)`` go through ``map_fn``."""
    epsilons = list(epsilons)
    if len(epsilons) < 3:
        raise TooFewRunsError("need at least 3 viscosity values")
    if min(epsilons) <= 0:  # eps = 0 is the limit, not a regularization
        raise ValueError("viscosities must be positive")
    family = [spec.with_data(epsilon=e) for e in epsilons]
    dt = min(Stepper(s, grid, options=options).dt for s in family)
    trajs = list(map_fn(functools.partial(
        solver_mod.solve, grid=grid, options=options, dt=dt), family))
    diffs = [spacetime_l1_diff(a, b) for a, b in zip(trajs, trajs[1:])]
    return epsilon_cauchy_report(spec, epsilons, diffs)


def epsilon_cauchy_report(spec, epsilons, diffs):
    """Assemble the vanishing-viscosity report from precomputed differences."""
    measured = 0.0 if max(diffs) <= 1e-14 else max(
        b / max(a, 1e-300) for a, b in zip(diffs, diffs[1:]))
    return _report("epsilon_cauchy", measured, 1.0, 0.0, 0.0,
                   {"spec": spec.context_hash(), "epsilons": list(epsilons),
                    "diffs": list(diffs)})


# --- genuine nonlinearity ---------------------------------------------------------

def validate_genuine_nonlinearity(a, Lambda):
    """Certificate of the non-degeneracy of the s-flux ``a`` on [-Lambda,
    Lambda] (module notes): it passes iff mu <= 1e-3 Lambda.  ``n_parts``
    counts the parts enclosed; an error of a' or a'' names a slope of a."""
    if not (np.isfinite(Lambda) and Lambda > 0):  # else mu is vacuous
        raise ValueError(f"Lambda must be a finite number > 0, got {Lambda}")
    bound = 1e-3 * Lambda
    mu, n_parts = exprdsl.on_slope(a, lambda d, box: exprdsl.zero_width(
        exprdsl.diff(d, "lambda"), box, bound), {"lambda": (-Lambda, Lambda)})
    return _report("genuine_nonlinearity", mu, bound, 0.0, 0.0,
                   {"Lambda": Lambda, "n_parts": n_parts})
