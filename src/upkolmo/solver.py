"""Time-marching drivers.

Three drivers share one march loop, whose every step ends with the
source's kick (``scheme.Stepper.kick``):

* ``solve_regularized`` -- eps > 0, both s-end data imposed strongly in the
  eps-diffusion stencil and fed to the convective flux;
* ``solve_entropy``     -- eps = 0, s-end data enter only as exterior flux
  states, so they may stay unattained where characteristics leave;
* ``solve_impulsive``   -- the gamma = 0 case: the one kick, with theta = 1,
  applies the jump map u <- u + beta(x, s, u) at level n_tau = ceil(tau/dt),
  the first at or after tau, and both one-sided fields there are recorded
  (the other drivers record none).

Runs are deterministic: a given (spec, grid, options, dt, m_bound)
produces a bit-identical trajectory, which the delayed-vs-impulsive
comparisons exploit: before the kernel's support the kicks are 0 in
both, and a support [tau - gamma, tau] inside one step kicks with
theta = 1 exactly, as the impulse does.

If the running sup-norm escapes the invariant region the step was sized
for, the march restarts once.  The new region is the larger of twice the
old one or the escaping sup, and ``scheme.reachable_bound``, the bound
the monotone scheme never leaves (the data norms plus the kernel's unit
mass times sup|beta|, with room for sampling).  The restart is recorded
in the trajectory's ``meta["restart"]``: the old region ``m_bound``, the
escaping ``sup`` and its time ``t`` (None without a restart).  An escape
beyond that bound, which no region sized from the spec can hold, or a
second escape raises ``CflViolationError``.  ``meta`` also records the
stepper's sampled ``b0`` and the ``dt_term`` that set its step (see
``scheme.Stepper._cfl``), and the wall seconds spent building steppers
(``setup_s``) and marching (``march_s``), each summed over a restart.

``solve_impulsive`` rejects a jump map lambda -> lambda + beta that is
decreasing somewhere on the pre-jump range: the impulsive march is
monotone only if it is nondecreasing.
"""

from __future__ import annotations

import time

import numpy as np

from . import exprdsl
from .problem import Field, Trajectory, min_jump_slope
from .scheme import (LATERAL_DIFFUSION, SOURCE_STEP, SchemeOptions, Stepper,
                     SupNormExceeded, reachable_bound)

__all__ = [
    "solve_regularized", "solve_entropy", "solve_impulsive",
    "CflViolationError", "GammaOutOfRangeError",
]


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


def _march(spec, grid, eps, gamma, options, dt, m_bound, mode):
    options = options or SchemeOptions()
    restart = None
    setup_s = march_s = 0.0
    while True:
        start = time.perf_counter()
        stepper = Stepper(spec, grid, eps=eps, gamma=gamma, options=options,
                          m_bound=m_bound, dt=dt)
        built = time.perf_counter()
        setup_s += built - start
        try:
            traj = _march_once(spec, grid, stepper, mode)
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


def _march_once(spec, grid, stepper, mode):
    dt = stepper.dt
    stride = stepper.options.snapshot_stride
    n_steps = stepper.n_steps
    n_tau = stepper.n_tau
    traj = Trajectory(grid=grid)
    traj.meta = {
        "mode": mode,
        "lateral_diffusion": LATERAL_DIFFUSION,
        "source": SOURCE_STEP,
        "dt": dt,
        "n_steps": n_steps,
        "n_tau": n_tau,
        "stride": stride,
        "eps": stepper.eps,
        "gamma": stepper.gamma,
        "m_bound": stepper.m_bound,
        "b0": stepper.b0,
        "dt_term": stepper.dt_term,
        "options": stepper.options,
        "spec_hash": spec.context_hash(),
    }
    u = initial_values(spec, grid)
    traj.append(0.0, Field(u.copy(), grid, 0.0))

    snap_at = set(range(0, n_steps + 1, stride))
    snap_at.add(n_steps)
    if n_tau is not None:
        snap_at.add(n_tau)
        snap_at.add(n_tau + 1)

    for n in range(n_steps):
        v = stepper.step(u, n * dt)
        u = stepper.kick(v, n * dt)
        t_new = (n + 1) * dt
        if mode == "impulsive" and n + 1 == n_tau:
            traj.tau_minus = Field(v.copy(), grid, t_new)
            traj.tau_plus = Field(u.copy(), grid, t_new)
        sup = float(np.max(np.abs(u)))
        if sup > stepper.m_bound:
            raise SupNormExceeded(sup, stepper.m_bound, t_new)
        if n + 1 in snap_at:
            traj.append(t_new, Field(u.copy(), grid, t_new))
    return traj


def _require_gamma(spec, gamma):
    if spec.beta is None:
        return
    if not (0.0 < gamma <= spec.gamma0 / 2.0):
        raise GammaOutOfRangeError(
            f"delay width must lie in (0, gamma0/2] = (0, {spec.gamma0 / 2.0}]"
            f" for a delayed source; got {gamma} "
            "(use solve_impulsive for the instantaneous jump)")


def solve_regularized(spec, grid, eps=None, gamma=None, options=None,
                      dt=None, m_bound=None):
    """March the strictly parabolic regularization (eps > 0)."""
    eps = spec.epsilon if eps is None else eps
    gamma = spec.gamma if gamma is None else gamma
    if eps <= 0:
        raise ValueError(f"regularized solve needs eps > 0, got {eps}")
    _require_gamma(spec, gamma)
    return _march(spec, grid, eps, gamma, options, dt, m_bound, "regularized")


def solve_entropy(spec, grid, gamma=None, options=None, dt=None, m_bound=None):
    """March the eps = 0 scheme with flux-mediated s-end data."""
    gamma = spec.gamma if gamma is None else gamma
    _require_gamma(spec, gamma)
    return _march(spec, grid, 0.0, gamma, options, dt, m_bound, "entropy")


def solve_impulsive(spec, grid, options=None, dt=None, m_bound=None):
    """March the gamma = 0 case: one pointwise jump, at level n_tau."""
    if not (0.0 < spec.tau < spec.T):
        raise ValueError(f"jump time must lie in (0, T), got {spec.tau}")
    slope = min_jump_slope(spec)
    if slope < 0.0:
        raise ValueError(
            f"the jump map lambda -> lambda + beta decreases: 1 + d beta / "
            f"d lambda reaches {slope:.6g} on |lambda| <= 1.01 M2, so the "
            "impulsive march would not be monotone")
    return _march(spec, grid, 0.0, 0.0, options, dt, m_bound, "impulsive")

