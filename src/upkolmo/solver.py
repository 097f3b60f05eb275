"""Time marching: one driver, ``solve``, for the problem a spec states.

``solve`` marches the spec it is given, named by ``meta["spec_hash"]``,
in the mode ``mode_of`` derives from its eps, gamma and beta, from
``Stepper.u0``, and stores level n at t = n dt exactly, as ``io``
requires.  Every step ends with the source's kick (``Stepper.kick``):

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
= 1 exactly, as the impulse does.  ``solve_family`` marches a family
(gamma -> 0, eps -> 0) of ``with_data`` members as one stack, a state
with a leading member axis that shares all but each member's eps and
theta_n (``Stepper.stack``), bit for bit as their solo runs: the step is
elementwise but for one lateral product and clip per member slice, and a
member whose eps or theta_n is 0 gets no term at all (-0.0 + 0 is +0.0).

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

from .problem import (SUP_SLACK, Field, Trajectory, check_region,
                      min_kick_slope, snapshot_levels)
from .scheme import LATERAL_DIFFUSION, SOURCE_STEP, Stepper, SupNormExceeded

__all__ = ["solve", "solve_family", "GammaOutOfRangeError"]


class GammaOutOfRangeError(ValueError):
    pass


def _march(spec, grid, options, dt, m_bound):
    return _march_stack([spec], grid, options, dt, m_bound)[0]


def _march_stack(family, grid, options, dt, m_bound):
    start = time.perf_counter()
    steppers = [Stepper(spec, grid, options=options, m_bound=m_bound, dt=dt)
                for spec in family]
    built = time.perf_counter()
    trajs, end = _march_once(family, grid, steppers), time.perf_counter()
    for traj in trajs:
        traj.meta.update(setup_s=built - start, march_s=end - built)
    return trajs


def _march_once(family, grid, steppers):
    stack = steppers[0].stack(steppers)
    dt, n_steps, m_bound = stack.dt, stack.n_steps, stack.m_bound
    trajs = [Trajectory(grid=grid, meta={
        "mode": mode_of(spec), "lateral_diffusion": LATERAL_DIFFUSION,
        "source": SOURCE_STEP, **{key: getattr(st, key) for key in (
            "dt", "n_steps", "n_tau", "eps", "gamma", "m_bound", "kick_slope",
            "dt_term", "options")}, "spec_hash": spec.context_hash()})
        for spec, st in zip(family, steppers)]

    snap_at = set(snapshot_levels(n_steps, stack.options.snapshot_stride,
                                  stack.n_tau))
    u = np.stack([st.u0 for st in steppers])
    for n in range(n_steps + 1):
        if n:
            u = stack.kick(stack.step(u, n - 1), n - 1)
            sup = float(np.max(np.abs(u)))
            if sup > m_bound + SUP_SLACK:
                raise SupNormExceeded(sup, m_bound, n * dt)
        if n in snap_at:
            for traj, member in zip(trajs, u):
                traj.append(n, Field(member.copy(), grid, n * dt))
    return trajs


def mode_of(spec):
    """What ``solve`` marches the spec as (module notes)."""
    if spec.epsilon > 0:
        return "regularized"
    return ("impulsive" if spec.gamma == 0 and spec.beta is not None
            else "entropy")


def solve(spec, grid, options=None, dt=None, m_bound=None):
    """March the problem the spec states, in the mode ``mode_of`` derives
    (module notes)."""
    _refuse(spec, m_bound)
    return _march(spec, grid, options, dt, m_bound)


def solve_family(family, grid, options=None):
    """``solve`` of each ``with_data`` member of one spec on the least of
    their steps, marched as one stack (module notes): their trajectories."""
    for spec in family:
        _refuse(spec, None)
    dt = min(Stepper(spec, grid, options=options).dt for spec in family)
    return _march_stack(family, grid, options, dt, None)


def _refuse(spec, m_bound):
    if not (0.0 <= spec.epsilon < np.inf and np.isfinite(spec.gamma)):
        raise ValueError(f"viscosity must be >= 0 and finite, delay width "
                         f"finite: got {spec.epsilon} and {spec.gamma}")
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
