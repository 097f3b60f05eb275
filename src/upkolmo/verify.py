"""Numerical certification of the solver's closed-form estimates.

Every check is a pure function of trajectories and problem specs and
returns a ``VerificationReport``; a report passes iff

    measured <= bound * (1 + tolerance) + slack.

Failures are reported, never thrown.  Reports serialize to line-oriented
CSV (``check,measured,bound,tolerance,pass,context_hash``); the hash
covers the full context dictionary, slack included, so that re-running a
check on the same inputs reproduces the line verbatim.

Notes on two deliberately discrete constructions:

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

  Where theta_n = 0, v = u^{n+1}; on a kick step the check replays
  ``Stepper.step(u^n)``, the deterministic march's own v bit for bit.
* The stability estimate bounds the march itself, step by step, for two
  runs of one operator: grid, dt, eps, fluxes and their kind, m_bound and
  each step's kick mass theta_n (Kruzhkov, Math. USSR Sb. 10, 1970;
  Crandall & Majda, Math. Comp. 34, 1980).  The explicit update is
  monotone and conservative, so no cell passes on more than its own L1
  difference; an s-end ghost enters its neighbour with weight (dt/ds) g'
  through the flux and dt eps/ds^2 through eps D_ss, where g' <= A =
  max|a'| over the runs' sup-norm bound m1 for Engquist-Osher and
  (A + alpha)/2 for Lax-Friedrichs, alpha its dissipation over
  [-m_bound, m_bound].  The lateral inverse is nonnegative with column
  sums at most 1.  The kick v -> v + theta_n beta1(v) is Lipschitz with
  1 + theta_n b0, b0 = sup|d beta1 / d lambda|, and beta2 moves a cell by
  at most theta_n sup|beta1 - beta2| more.  So, with d_s0, d_sS the L1(x)
  differences of the s-end data at step n and g' for A,

      e_{n+1} <= (1 + theta_n b0) (e_n + dt (A + eps/ds) (d_s0 + d_sS)_n)
                 + theta_n S |Omega| sup|beta1 - beta2|,

  unrolled from e_0 = d_init in ``problem.stability_rhs``.  At gamma = 0
  the impulse is the step with theta = 1; for gamma > 0 the weight
  prod (1 + theta_m b0) is at most the continuum's exp(b0 P(t)).  It
  bounds the discrete march, so no grid allowance is added.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import exprdsl, kernels
from .problem import (NORM_INFLATION, GridMismatchError, ZeroInitialDataError,
                      data_sup_norms, impulsive_bounds, max_principle_bound,
                      min_jump_slope, refined_max_bound, stability_rhs)
# bench/run.py traces the alias where `verify` binds it
from .problem import stability_rhs_impulsive  # noqa: F401
from .scheme import (LAX_FRIEDRICHS, NaNDetectedError, Stepper,
                     lax_friedrichs_alpha)
from . import solver as solver_mod
from .solver import GammaOutOfRangeError

__all__ = [
    "VerificationReport", "write_reports", "check_max_principle",
    "check_stability", "check_entropy_residual", "check_bln",
    "check_jump", "check_gamma_limit", "check_epsilon_cauchy",
    "validate_genuine_nonlinearity",
    "TooFewRunsError", "MissingTauTracesError", "GridMismatchError",
    "GammaOutOfRangeError",
]


class TooFewRunsError(ValueError):
    pass


class MissingTauTracesError(ValueError):
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
    v1 = getattr(field1, "values", field1)
    v2 = getattr(field2, "values", field2)
    grid = field1.grid
    return float(np.sum(np.abs(v1 - v2)) * grid.cell_volume)


def _trapezoid_weights(times):
    times = np.asarray(times, dtype=float)
    if len(times) == 1:
        return np.array([1.0])
    w = np.empty_like(times)
    w[0] = 0.5 * (times[1] - times[0])
    w[-1] = 0.5 * (times[-1] - times[-2])
    w[1:-1] = 0.5 * (times[2:] - times[:-2])
    return w


def spacetime_l1_diff(traj1, traj2):
    """Full space-time L1 distance from matched snapshots."""
    if traj1.grid != traj2.grid:
        raise GridMismatchError("trajectories on different grids")
    if traj1.times != traj2.times:
        raise GridMismatchError("snapshot times differ")
    w = _trapezoid_weights(traj1.times)
    total = 0.0
    for wi, f1, f2 in zip(w, traj1.fields, traj2.fields):
        total += wi * l1_diff(f1, f2)
    return float(total)


# --- sup-norm bound curves ----------------------------------------------------

def _bound_curves(spec, traj):
    """Per-snapshot sup-norm bounds applicable to the trajectory's mode."""
    meta = traj.meta
    tau_snap = (meta["n_tau"] * meta["dt"] if meta.get("mode") == "impulsive"
                else None)
    return _bound_curve(spec, tuple(traj.times),
                        meta.get("gamma", spec.gamma), tau_snap)


@functools.lru_cache(maxsize=2)
def _bound_curve(spec, times, gamma, tau_snap):
    """``_bound_curves`` on the only inputs a curve depends on; ``tau_snap``
    is None outside impulsive mode.  Cached, so that ``check_max_principle``
    and ``check_stability`` on one run build its curve once."""
    if tau_snap is not None:
        m2, m3 = impulsive_bounds(spec, inflate=NORM_INFLATION)
        return (tuple(m2 if t < tau_snap else m3 for t in times),
                {"m2": m2, "m3": m3})
    if spec.beta is not None and gamma > 0:
        b1g, b2g = kernels.source_growth_constants(
            spec.beta, gamma, L=spec.L, S=spec.S, b1=spec.b1)
    else:
        b1g = b2g = 0.0
    t_effs = np.maximum(times, 1e-9)
    # each snapshot's data norm is the sup over its own window (0, t)
    norms = data_sup_norms(spec, (0.0, t_effs), inflate=NORM_INFLATION)
    dnorms = np.maximum(norms["u0_1"], np.maximum(norms["u0_2"], norms["uS_2"]))
    bounds = max_principle_bound(t_effs, b1g, b2g, dnorms)
    try:
        m7 = refined_max_bound(spec, t_effs, inflate=NORM_INFLATION)
        if spec.beta is None or gamma > 0:
            bounds = np.minimum(bounds, m7)
    except (ZeroInitialDataError, ValueError):
        pass  # no refined bound: the growth bound stands alone
    return tuple(map(float, bounds)), {"b1g": b1g, "b2g": b2g}


def _inf_unless_finite(value):
    """A non-finite measurement exceeds every bound (a NaN compares with
    nothing, so it would otherwise never be the worst)."""
    return value if np.isfinite(value) else np.inf


def _worst_cell(values):
    """Index of the first non-finite entry, else of the largest."""
    bad = ~np.isfinite(values)
    flat = np.argmax(bad) if bad.any() else np.argmax(values)
    return [int(i) for i in np.unravel_index(flat, values.shape)]


def check_max_principle(traj, spec):
    """Every t > 0 snapshot's sup-norm must respect the applicable
    a-priori bound.

    The t = 0 snapshot is the initial datum on the grid, which the bound
    covers by construction, so it is left out and every row is decided by
    the march.  The context names the snapshot (``t_worst``) and the cell
    (``cell_worst``) of the smallest margin.  A snapshot holding a
    non-finite value measures inf, and the first such snapshot and cell
    are the worst.  With no t > 0 snapshot there is nothing to certify and
    the report fails with measured = inf.
    """
    bounds, extra = _bound_curves(spec, traj)
    worst_gap = -np.inf
    worst = (np.inf, max(bounds) if bounds else 0.0, None, None)
    for t, fld, bnd in zip(traj.times, traj.fields, bounds):
        if t <= 0.0:
            continue
        sup = _inf_unless_finite(fld.sup_norm())
        gap = sup - bnd
        if gap > worst_gap:
            worst_gap = gap
            worst = (sup, bnd, t, fld)
    context = {"spec": spec.context_hash(), "mode": traj.meta.get("mode"),
               "t_worst": worst[2],
               "cell_worst": (_worst_cell(np.abs(worst[3].values))
                              if worst[3] is not None else None),
               **extra}
    return _report("max_principle", worst[0], worst[1], 0.0, 1e-10, context)


# --- stability ----------------------------------------------------------------

def _boundary_series(spec1, spec2, grid, n_steps, dt):
    """L1(x) differences of the two runs' s-end data at each step's start
    n dt, where the march reads them (``Stepper.padded``).  A step is a
    row, so its sum adds in the order a sum of that step's row alone does."""
    xc, _ = grid.cell_centers()
    at = {"x": xc[None, :], "t": np.arange(n_steps)[:, None] * dt}

    def values(expr):
        return np.broadcast_to(exprdsl.evaluate(expr, at), (n_steps, len(xc)))

    return [np.abs(values(e1) - values(e2)).sum(axis=1) * grid.dx
            for e1, e2 in ((spec1.data_u0_2, spec2.data_u0_2),
                           (spec1.data_uS_2, spec2.data_uS_2))]


def _kick_masses(spec, meta):
    """Each step's kernel mass, as the march's ``Stepper.source_rate``."""
    return [kernels.step_mass(n * meta["dt"], meta["dt"], spec.tau,
                              meta["gamma"], meta["n_tau"])
            for n in range(meta["n_steps"])]


def check_stability(traj1, traj2, spec1, spec2):
    """L1 distance of two runs versus the stability estimate
    ``stability_rhs`` of the march (see the module notes), both sources.

    The runs must share grid, snapshot times, dt, eps, m_bound, flux kind
    and fluxes and, where both have a beta, every kick's mass; else
    ``GridMismatchError``.  m1 is the larger of the runs' ``_bound_curves``,
    which ``check_max_principle`` certifies.  As there, t = 0 is left out:
    the row is the t > 0 snapshot (``t_worst``) of largest lhs / (1.05 rhs).
    """
    if traj1.grid != traj2.grid:
        raise GridMismatchError("trajectories on different grids")
    if traj1.times != traj2.times:
        raise GridMismatchError("snapshot times differ; rerun with a common dt")
    meta, grid = traj1.meta, traj1.grid
    kind = meta["options"].flux_kind
    fluxes = [(spec.flux_a, spec.flux_phi) for spec in (spec1, spec2)]
    if (any(meta[key] != traj2.meta[key] for key in ("dt", "eps", "m_bound"))
            or kind != traj2.meta["options"].flux_kind
            or fluxes[0] != fluxes[1]):
        raise GridMismatchError("the runs step with different dt, eps, "
                                "fluxes or invariant region m_bound")
    masses = [_kick_masses(spec, traj.meta)
              for spec, traj in ((spec1, traj1), (spec2, traj2))
              if spec.beta is not None]
    if masses[1:] and masses[0] != masses[1]:
        raise GridMismatchError("the runs kick with different kernel masses; "
                                "rerun with a common delay width")
    dt, n_steps = meta["dt"], meta["n_steps"]
    d_init = float(np.sum(np.abs(solver_mod.initial_values(spec1, grid)
                                 - solver_mod.initial_values(spec2, grid)))
                   * grid.cell_volume)
    d_s0, d_sS = _boundary_series(spec1, spec2, grid, n_steps, dt)
    m1 = np.maximum(_bound_curves(spec1, traj1)[0],
                    _bound_curves(spec2, traj2)[0])
    alpha = (lax_friedrichs_alpha(spec1.flux_a, meta["m_bound"])
             if kind == LAX_FRIEDRICHS else None)
    rhs = stability_rhs(spec1, spec2, traj1.times, d_init, d_s0, d_sS,
                        masses[0] if masses else np.zeros(n_steps), m1, dt,
                        meta["eps"] / grid.ds, alpha)

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

def _entropy_parts(flux, k_parts, w, sign):
    """Per-cell parts (G_k(w), H_k(w)) of the Kruzhkov flux, for every k
    at once: Q(uL, uR; k) = G_k(uL) + H_k(uR), as the march forms F.

    ``sign`` is sgn(w - k) and ``k_parts`` the split parts (g(k), h(k)).
    """
    g, h = flux.split(w)
    return sign * (g - k_parts[0]), sign * (h - k_parts[1])


def _pre_kick(stepper, u, t):
    """The march's state before the kick, ``Stepper.step(u, t)``; NaN
    where the step cannot form it."""
    try:
        return stepper.step(u, t)
    except NaNDetectedError:
        return np.full_like(u, np.nan)


def check_entropy_residual(traj, spec, k_values):
    """Largest cellwise entropy residual rho over every step, cell and k
    of a stride-1 trajectory: the cell inequality of the monotone update
    (see the module notes), nonpositive up to roundoff.  The context names
    the worst step by its start ``t_worst``, its ``cell_worst`` and
    ``k_worst``.  With no k, or no step, there is nothing to certify and
    the report fails with measured = inf; so it does when a snapshot holds
    a non-finite value.

    One step is scored at a time, on (k, x, s) arrays that treat every k
    in each array op, and each flux direction's parts are folded into rho
    before the other's are formed, so memory holds one step's arrays
    whatever the number of steps.  The worst is the first non-finite entry,
    else the first largest, in step order.
    """
    meta = traj.meta
    if meta.get("stride", 0) != 1:
        raise ValueError("entropy residual needs a stride-1 trajectory")
    stepper = Stepper(spec, traj.grid, eps=meta["eps"], gamma=meta["gamma"],
                      options=meta["options"], m_bound=meta["m_bound"],
                      dt=meta["dt"])
    grid = traj.grid
    dt, dx, ds = meta["dt"], grid.dx, grid.ds
    # one axis per entropy |u - k|: every k is treated in the same array op
    ks = np.asarray(k_values, dtype=float).reshape(-1, 1, 1)
    k_a, k_p = stepper.flux_a.split(ks), stepper.flux_phi.split(ks)
    cells = {"x": stepper.xc[:, None], "s": stepper.sc[None, :]}
    beta_k = (stepper.beta_fn({**cells, "lambda": ks})
              if stepper.beta_fn is not None else None)
    n_scored = len(traj.times) - 1 if len(ks) else 0
    worst = (np.inf if n_scored == 0 else -np.inf, None, None, None)

    for n in range(n_scored):
        t0 = traj.times[n]
        u0, u1 = traj.fields[n].values, traj.fields[n + 1].values
        theta = stepper.source_rate(t0)
        v = _pre_kick(stepper, u0, t0) if theta else u1
        w = stepper.padded(u0, t0)
        diff = w - ks
        sign, eta_pad = np.sign(diff), np.abs(diff)
        eta0 = eta_pad[:, 1:-1, 1:-1]
        # the s-flux acts inside the s-strip, then the x-flux inside the
        # x-strip: each direction's parts are folded into rho before the
        # other's are formed.  They stay bound until those replace them; a
        # helper that freed them on return let malloc hand the heap top
        # back to the OS and fault it in again, 30% slower at 128^2.
        g, h = _entropy_parts(stepper.flux_a, k_a, w[1:-1], sign[:, 1:-1])
        q = g[..., :-1] + h[..., 1:]
        rho = np.abs(u1 - ks) - eta0 + dt / ds * (q[..., 1:] - q[..., :-1])
        g, h = _entropy_parts(stepper.flux_phi, k_p, w[:, 1:-1],
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
            beta_v = stepper.beta_fn({**cells, "lambda": v})
            rho = rho - theta * (np.sign(v - ks) * (beta_v - beta_k)
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

def _smooth_sign(z, width=1e-6):
    return z / np.sqrt(z * z + width * width)


def _q_a(a, v, k):
    """Kruzhkov flux of the compiled s-flux ``a`` at v for the constant k."""
    a_v = np.asarray(a({"lambda": v}))
    a_k = float(a({"lambda": k}))
    return np.sign(v - k) * (a_v - a_k), a_v, a_k


def check_bln(traj, spec, k_values):
    """Boundary entropy inequalities on the extracted s-traces.

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
    """
    grid = traj.grid
    tol = 5.0 * (grid.ds + grid.dx)
    xc, _ = grid.cell_centers()
    # the initial datum, not a boundary trace, sits at t = 0
    scored = [i for i, t in enumerate(traj.times) if t > 0.0]
    n_scored = len(scored)
    worst = -np.inf
    if n_scored and len(k_values):
        # every scored trace and its data as one (n_scored, nx) array
        ts = np.asarray([traj.times[i] for i in scored])[:, None]
        tr0 = np.stack(traj.s0_traces)[scored]
        trS = np.stack(traj.sS_traces)[scored]
        data0 = np.broadcast_to(np.asarray(exprdsl.evaluate(
            spec.data_u0_2, {"x": xc[None, :], "t": ts})), tr0.shape)
        dataS = np.broadcast_to(np.asarray(exprdsl.evaluate(
            spec.data_uS_2, {"x": xc[None, :], "t": ts})), trS.shape)
        a = exprdsl.compile(spec.flux_a)[0]
        for k in k_values:
            q_tr0, a_tr0, _ = _q_a(a, tr0, k)
            q_d0, a_d0, _ = _q_a(a, data0, k)
            expr0 = q_tr0 - q_d0 - _smooth_sign(data0 - k) * (a_tr0 - a_d0)
            worst = max(worst, _inf_unless_finite(float(np.max(expr0))))
            q_trS, a_trS, _ = _q_a(a, trS, k)
            q_dS, a_dS, _ = _q_a(a, dataS, k)
            exprS = q_trS - q_dS - _smooth_sign(dataS - k) * (a_trS - a_dS)
            worst = max(worst, _inf_unless_finite(float(np.max(-exprS))))
    else:
        worst = np.inf  # no trace or no k: nothing to certify
    context = {"spec": spec.context_hash(), "tol": tol,
               "k_values": list(map(float, k_values)), "n_scored": n_scored}
    return _report("bln_boundary", worst, 0.0, 0.0, tol, context)


# --- jump condition -------------------------------------------------------------

def check_jump(traj, spec):
    """The impulse jump condition u(tau+) = u(tau-) + beta(x, s, u(tau-)),
    cell by cell to 1e-14, the post-jump sup-norm against M3, and the
    monotonicity of the jump map.

    The jump map lambda -> lambda + beta(x, s, lambda) must be
    nondecreasing on |lambda| <= M2, or the impulsive march is not
    monotone.  ``min_jump_weight`` is its sampled minimum slope, from
    ``problem.min_jump_slope`` as in ``solver.solve_impulsive``.  The
    measured value is the largest of the pointwise and post-jump ratios
    and 1 - min_jump_weight, so the row fails when the slope is negative.
    """
    if traj.tau_minus is None or traj.tau_plus is None:
        raise MissingTauTracesError("trajectory has no pre/post jump fields")
    um, up = traj.tau_minus, traj.tau_plus
    jump = up.values - um.values
    if spec.beta is not None:
        xc, sc = traj.grid.cell_centers()
        jump = jump - exprdsl.evaluate(spec.beta, {
            "x": xc[:, None], "s": sc[None, :], "lambda": um.values})
    pointwise = float(np.max(np.abs(jump)))
    m3 = impulsive_bounds(spec, inflate=NORM_INFLATION)[1]
    min_weight = min_jump_slope(spec)
    post_sup = up.sup_norm()
    measured = max(pointwise / 1e-14, post_sup / max(m3, 1e-300),
                   1.0 - min_weight)
    context = {"spec": spec.context_hash(), "pointwise": pointwise,
               "post_sup": post_sup, "m3": m3, "min_jump_weight": min_weight}
    return _report("jump_condition", measured, 1.0, 0.0, 0.0, context)


# --- singular limits -------------------------------------------------------------

def check_gamma_limit(spec, grid, gammas, options=None, map_fn=map):
    """Convergence of the delayed-source runs to the impulsive run.

    Runs the entropy solver per delay width and the impulsive solver once,
    with a common time step and invariant region so that the pre-impulse
    window is bitwise shared, then checks that the space-time L1 distance
    decreases (5% slack) and at least halves from first to last.  The
    per-width runs go through ``map_fn``, e.g. a process pool's ``map``.
    """
    gammas = list(gammas)
    if any(g <= 0 for g in gammas):
        raise GammaOutOfRangeError("delay widths must be positive")
    if any(g > spec.gamma0 / 2.0 for g in gammas):
        raise GammaOutOfRangeError(f"delay widths must be <= gamma0/2 = "
                                   f"{spec.gamma0 / 2.0}")
    if any(gammas[i] <= gammas[i + 1] for i in range(len(gammas) - 1)):
        raise GammaOutOfRangeError("delay widths must be strictly decreasing")

    # every run gets Stepper's default m_bound, which depends on the spec
    # alone, so the family shares one invariant region; dt depends on the
    # width only through the kick's cap, tightest at the smallest width
    dt = Stepper(spec, grid, eps=0.0, gamma=gammas[-1], options=options).dt
    ref = solver_mod.solve_impulsive(spec, grid, options=options, dt=dt)
    trajs = list(map_fn(functools.partial(
        solver_mod.solve_entropy, spec, grid, options=options, dt=dt),
        gammas))
    errors = [spacetime_l1_diff(traj, ref) for traj in trajs]
    return gamma_limit_report(spec, gammas, errors, trajs, ref)


def gamma_limit_report(spec, gammas, errors, trajs, ref):
    """Assemble the singular-limit report from precomputed runs."""
    windows_exact = True
    for g, traj in zip(gammas, trajs):
        cutoff = spec.tau - g - traj.meta["dt"]
        for t, f_g, f_ref in zip(traj.times, traj.fields, ref.fields):
            if t <= cutoff and not np.array_equal(f_g.values, f_ref.values):
                windows_exact = False
                break

    if max(errors) <= 1e-12:
        measured, bound = 0.0, 0.5
        monotone = True
    else:
        monotone = all(errors[i + 1] <= 1.05 * errors[i]
                       for i in range(len(errors) - 1))
        measured = errors[-1] / errors[0]
        bound = 0.5
    passed_all = monotone and windows_exact
    report = _report("gamma_limit", measured, bound, 0.0, 0.0,
                     {"spec": spec.context_hash(), "gammas": list(gammas),
                      "errors": list(errors), "monotone": monotone,
                      "pre_window_bitwise": windows_exact})
    report.passed = report.passed and passed_all
    return report


def check_epsilon_cauchy(spec, grid, epsilons, gamma, options=None,
                         map_fn=map):
    """Successive L1 differences along a decreasing viscosity sequence; the
    per-viscosity runs go through ``map_fn``."""
    epsilons = list(epsilons)
    if len(epsilons) < 3:
        raise TooFewRunsError("need at least 3 viscosity values")
    dt = min(Stepper(spec, grid, eps=e, gamma=gamma, options=options).dt
             for e in epsilons)
    trajs = list(map_fn(functools.partial(
        solver_mod.solve_regularized, spec, grid, gamma=gamma,
        options=options, dt=dt), epsilons))
    diffs = [spacetime_l1_diff(trajs[i], trajs[i + 1])
             for i in range(len(trajs) - 1)]
    return epsilon_cauchy_report(spec, epsilons, diffs)


def epsilon_cauchy_report(spec, epsilons, diffs):
    """Assemble the vanishing-viscosity report from precomputed differences."""
    if max(diffs) <= 1e-14:
        measured = 0.0
    else:
        ratios = [diffs[i + 1] / max(diffs[i], 1e-300)
                  for i in range(len(diffs) - 1)]
        measured = max(ratios)
    return _report("epsilon_cauchy", measured, 1.0, 0.0, 0.0,
                   {"spec": spec.context_hash(), "epsilons": list(epsilons),
                    "diffs": list(diffs)})


# --- genuine nonlinearity ---------------------------------------------------------

def validate_genuine_nonlinearity(a, Lambda, n_dirs=64, deltas=(1e-2, 1e-3, 1e-4),
                                  n_lambda=4096):
    """Numeric proxy for the non-degeneracy of the s-flux.

    For unit directions (xi1, xi2), measures the near-root set

        mu(delta) = Leb{ lambda in [-Lambda, Lambda] :
                         |xi1 + a'(lambda) xi2| < delta }

    on a midpoint lambda-grid.  Half the directions are uniform on the
    circle; the other half are root-seeking candidates (-a'(lambda_q), 1)
    built from quantiles of sampled a' values, so that flat stretches of a'
    cannot hide between uniform angles.  Passes iff the worst mu at the
    smallest delta is at most 10 * delta_min * Lambda.  This is a profile,
    not a proof: a true measure-zero root set is not certifiable from
    finitely many samples.
    """
    if n_dirs < 64:
        raise ValueError("need at least 64 directions")
    dlam = 2.0 * Lambda / n_lambda
    mids = -Lambda + (np.arange(n_lambda) + 0.5) * dlam
    _, aprime = exprdsl.eval_dual(a, {"lambda": mids}, "lambda")
    aprime = np.broadcast_to(np.asarray(aprime, dtype=float), mids.shape)

    n_uniform = n_dirs // 2
    angles = (np.arange(n_uniform) + 0.5) * np.pi / n_uniform
    dirs = [(float(np.cos(th)), float(np.sin(th))) for th in angles]
    q_idx = np.linspace(0, n_lambda - 1, n_dirs - n_uniform).astype(int)
    for ap in np.sort(aprime)[q_idx]:
        norm = float(np.hypot(ap, 1.0))
        dirs.append((-float(ap) / norm, 1.0 / norm))

    deltas = sorted(deltas, reverse=True)
    delta_min = deltas[-1]
    profiles = []
    worst = 0.0
    for xi1, xi2 in dirs:
        g = np.abs(xi1 + aprime * xi2)
        mus = [float(np.count_nonzero(g < d)) * dlam for d in deltas]
        profiles.append(mus)
        worst = max(worst, mus[-1])
    bound = 10.0 * delta_min * Lambda
    profiles = np.asarray(profiles)
    quantiles = {f"q{q}": [float(v) for v in
                           np.quantile(profiles, q / 100.0, axis=0)]
                 for q in (50, 90, 100)}
    return _report("genuine_nonlinearity", worst, bound, 0.0, 0.0,
                   {"Lambda": Lambda, "deltas": list(deltas),
                    "n_dirs": len(dirs), "mu_quantiles": quantiles})
