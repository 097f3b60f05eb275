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

The invariant region the step is sized for is a caller's ``m_bound``, or
B(T) = ``problem.sup_bound`` with unit kick mass, which the monotone march
never leaves (derived in ``verify``), its norms enclosed; a region below
B(T) is refused, as the march could leave it.  A sup-norm beyond
the region by more than ``problem.SUP_SLACK``, the max-principle row's own
roundoff, can only be a fault of the program: the march aborts with
``scheme.SupNormExceeded``.
"""

from __future__ import annotations

import time

import numpy as np

from . import exprdsl
from .problem import (SUP_SLACK, Field, Trajectory, check_region,
                      min_kick_slope, snapshot_levels)
from .scheme import LATERAL_DIFFUSION, SOURCE_STEP, Stepper, SupNormExceeded

__all__ = ["solve", "GammaOutOfRangeError"]


class GammaOutOfRangeError(ValueError):
    pass


def initial_values(spec, grid):
    """u0_1 on the grid's cell centres: the march's first field."""
    xc, sc = grid.cell_centers()
    vals = exprdsl.evaluate(spec.data_u0_1, {"x": xc[:, None], "s": sc[None, :]})
    return np.broadcast_to(np.asarray(vals, dtype=float),
                           (grid.nx, grid.ns)).astype(float)


def _march(spec, grid, options, dt, m_bound):
    start = time.perf_counter()
    stepper = Stepper(spec, grid, options=options, m_bound=m_bound, dt=dt)
    built = time.perf_counter()
    traj = _march_once(spec, grid, stepper)
    traj.meta.update(setup_s=built - start,
                     march_s=time.perf_counter() - built)
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
    traj.append(0, Field(u.copy(), grid, 0.0))

    snap_at = set(snapshot_levels(n_steps, stepper.options.snapshot_stride,
                                  n_tau))
    for n in range(n_steps):
        u = stepper.kick(stepper.step(u, n), n)
        sup = float(np.max(np.abs(u)))
        if sup > stepper.m_bound + SUP_SLACK:
            raise SupNormExceeded(sup, stepper.m_bound, (n + 1) * dt)
        if n + 1 in snap_at:
            traj.append(n + 1, Field(u.copy(), grid, (n + 1) * dt))
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
    if m_bound is not None:
        check_region(spec, m_bound)
    return _march(spec, grid, options, dt, m_bound)
