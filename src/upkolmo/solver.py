"""Time marching: one driver, ``solve``, for the problem a spec states.

``solve`` marches the spec it is given, named by ``meta["spec_hash"]``,
in the mode ``mode_of`` derives from its eps, gamma and beta; a family
(gamma -> 0, eps -> 0) is one spec per member, ``spec.with_data(...)``.
Every step ends with the source's kick (``Stepper.kick``):

* ``regularized`` -- eps > 0, both s-end data imposed strongly in the
  eps-diffusion stencil and fed to the convective flux;
* ``impulsive``   -- eps = 0, gamma = 0 and a beta: the one kick, theta =
  1, applies the jump map u <- u + beta(x, s, u) at level n_tau =
  ceil(tau/dt), the first at or after tau, stored as a snapshot with the
  next (``verify.check_jump`` replays u(tau-)).  It needs tau in (0, T)
  and refuses a decreasing jump map, 1 + ``kick_slope`` < 0, with which
  the march is not monotone;
* ``entropy``     -- any other eps = 0 problem: s-end data enter only as
  exterior flux states, so they may stay unattained where
  characteristics leave.

Elsewhere a beta needs gamma in (0, gamma0/2] (``GammaOutOfRangeError``).
Runs are deterministic: a given (spec, grid, options, dt, m_bound)
produces a bit-identical trajectory, which the delayed-vs-impulsive
comparisons exploit: before the kernel's support the kicks are 0 in
both, and a support [tau - gamma, tau] inside one step kicks with theta
= 1 exactly, as the impulse does.

If the running sup-norm escapes the invariant region the step was sized
for, the march restarts once.  The new region is the larger of twice the
old one or the escaping sup, and ``scheme.reachable_bound``, the bound
the monotone scheme never leaves.  ``meta["restart"]`` records the old
region ``m_bound``, the escaping ``sup`` and its time ``t`` (None without
a restart).  An escape beyond that bound, which no region sized from the
spec can hold, or a second escape raises ``CflViolationError``.  The
wall seconds in ``meta`` are summed over a restart (see ``io``).
"""

from __future__ import annotations

import time

import numpy as np

from . import exprdsl
from .problem import Field, Trajectory, min_kick_slope
from .scheme import (LATERAL_DIFFUSION, SOURCE_STEP, Stepper,
                     SupNormExceeded, reachable_bound)

__all__ = ["solve", "CflViolationError", "GammaOutOfRangeError"]


class CflViolationError(RuntimeError):
    pass


class GammaOutOfRangeError(ValueError):
    pass


def initial_values(spec, grid):
    """u0_1 on the grid's cell centres: the march's first field."""
    xc, sc = grid.cell_centers()
    vals = exprdsl.evaluate(spec.data_u0_1, {"x": xc[:, None], "s": sc[None, :]})
    return np.broadcast_to(np.asarray(vals, dtype=float),
                           (grid.nx, grid.ns)).astype(float)


def _march(spec, grid, options, dt, m_bound):
    restart = None
    setup_s = march_s = 0.0
    while True:
        start = time.perf_counter()
        stepper = Stepper(spec, grid, options=options, m_bound=m_bound, dt=dt)
        built = time.perf_counter()
        setup_s += built - start
        try:
            traj = _march_once(spec, grid, stepper)
        except SupNormExceeded as exc:
            march_s += time.perf_counter() - built
            reach = reachable_bound(spec)
            if restart is not None or exc.sup > reach:
                raise CflViolationError(
                    f"{exc}, beyond {reach:.6g}, the bound the monotone "
                    "scheme keeps for data within their sampled norms"
                ) from exc
            restart = {"m_bound": stepper.m_bound, "sup": exc.sup,
                       "t": exc.t}
            m_bound = max(2.0 * max(stepper.m_bound, exc.sup), reach)
            dt = None  # re-derive the step for the enlarged region
            continue
        traj.meta.update(restart=restart, setup_s=setup_s,
                         march_s=march_s + time.perf_counter() - built)
        return traj


def _march_once(spec, grid, stepper):
    dt = stepper.dt
    n_steps = stepper.n_steps
    n_tau = stepper.n_tau
    traj = Trajectory(grid=grid)
    traj.meta = {
        "mode": mode_of(spec),
        "lateral_diffusion": LATERAL_DIFFUSION,
        "source": SOURCE_STEP,
        "dt": dt,
        "n_steps": n_steps,
        "n_tau": n_tau,
        "eps": stepper.eps,
        "gamma": stepper.gamma,
        "m_bound": stepper.m_bound,
        "kick_slope": stepper.kick_slope,
        "dt_term": stepper.dt_term,
        "options": stepper.options,
        "spec_hash": spec.context_hash(),
    }
    u = initial_values(spec, grid)
    traj.append(0.0, Field(u.copy(), grid, 0.0))

    snap_at = set(range(0, n_steps + 1, stepper.options.snapshot_stride))
    snap_at.add(n_steps)
    if n_tau is not None:
        snap_at.add(n_tau)
        snap_at.add(n_tau + 1)

    for n in range(n_steps):
        u = stepper.kick(stepper.step(u, n * dt), n * dt)
        t_new = (n + 1) * dt
        sup = float(np.max(np.abs(u)))
        if sup > stepper.m_bound:
            raise SupNormExceeded(sup, stepper.m_bound, t_new)
        if n + 1 in snap_at:
            traj.append(t_new, Field(u.copy(), grid, t_new))
    return traj


def mode_of(spec):
    """What ``solve`` marches the spec as (module notes)."""
    if spec.epsilon > 0:
        return "regularized"
    return ("impulsive" if spec.gamma == 0 and spec.beta is not None
            else "entropy")


def solve(spec, grid, options=None, dt=None, m_bound=None):
    """March the problem the spec states, in the mode ``mode_of`` derives
    (module notes)."""
    if spec.epsilon < 0:
        raise ValueError(f"viscosity must be >= 0, got {spec.epsilon}")
    mode = mode_of(spec)
    if mode == "impulsive":
        if not (0.0 < spec.tau < spec.T):
            raise ValueError(f"jump time must lie in (0, T), got {spec.tau}")
        slope = 1.0 + min_kick_slope(spec, 0.0)
        if slope < 0.0:
            raise ValueError(
                f"the jump map lambda -> lambda + beta decreases: 1 + d beta "
                f"/ d lambda reaches {slope:.6g}, so the march would not be "
                "monotone")
    elif spec.beta is not None and not (0.0 < spec.gamma <= spec.gamma0 / 2.0):
        raise GammaOutOfRangeError(
            f"delay width must lie in (0, gamma0/2] = (0, {spec.gamma0 / 2.0}]"
            f" for a delayed source; got {spec.gamma} (gamma = 0 at eps = 0 "
            "is the instantaneous jump)")
    return _march(spec, grid, options, dt, m_bound)
