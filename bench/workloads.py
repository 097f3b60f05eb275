"""The benchmark's fixed workloads, written as ``upkolmo`` config files.

All three solve the source problem of ``tests/scenarios.py``: bump initial
data, quadratic fluxes, a bump perturbation beta, tau = 0.5, gamma = 0.1.
Seed 0 reproduces ``scenarios.source_spec()`` exactly; any other seed moves
the x and s bump centres of ``u0_1`` and of beta by at most
``MAX_SHIFT``.  The bumps have half-width 0.35, so shifted supports stay
clear of the 0.05 boundary collar that ``load_config`` rejects, and the
64x64 step count stays at 9,375.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MAX_SHIFT = 0.04


@dataclass(frozen=True)
class Workload:
    name: str
    n: int            # cells per axis, Nx = Ns
    stride: int       # snapshot stride
    mode: str         # `upkolmo run --mode`
    flux_kind: str

    @property
    def expected_checks(self):
        """Report rows `upkolmo verify` must write, in its order."""
        checks = ["max_principle", "stability"]
        if self.mode == "impulsive":
            checks.append("jump_condition")
        checks.append("bln_boundary")
        if self.stride == 1:
            checks.append("entropy_residual")
        return checks


WORKLOADS = {w.name: w for w in (
    # The Engquist-Osher table lookup in `Stepper.step` dominates and
    # verify is light: the workload for step-loop work.
    Workload("source64", 64, 32, "entropy", "engquist_osher"),
    # Stride 1: verify runs all four checks, the entropy residual
    # included, over 2,417 snapshots, and io writes and reads them all.
    Workload("source32_stride1", 32, 1, "entropy", "engquist_osher"),
    # Lax-Friedrichs evaluates every flux through exprdsl, with no table
    # and no source term; the only workload with the jump path and chi.
    Workload("impulsive_lf64", 64, 32, "impulsive", "lax_friedrichs"),
)}


def _bump(var, centre):
    return f"(max(0, 1-(({var}-{centre!r})/0.35)^2))^2"


def shifts(seed):
    """Bump centres (u0_1 x, u0_1 s, beta x, beta s) for a seed."""
    if seed == 0:
        return 0.5, 0.5, 0.5, 0.5
    rng = random.Random(seed)
    return tuple(round(0.5 + rng.uniform(-MAX_SHIFT, MAX_SHIFT), 3)
                 for _ in range(4))


def config_text(workload, seed, out_dir):
    """Config file text for one workload and seed, in the `io` format."""
    ux, us, bx, bs = shifts(seed)
    lcut = "(max(0, 1-(lambda/2)^2))^2"
    u0 = f"0.8*{_bump('x', ux)}*{_bump('s', us)}"
    beta = f"0.5*{_bump('x', bx)}*{_bump('s', bs)}*{lcut}"
    return f"""\
[domain]
d = 1
L = 1.0
T = 1.0
S = 1.0

[flux]
a = "lambda^2/2"
phi_1 = "lambda^2/2"

[source]
tau = 0.5
gamma = 0.1
beta = "{beta}"
b1 = 2.0

[data]
u0_1 = "{u0}"
u0_2 = "0"
uS_2 = "0"

[grid]
Nx = {workload.n}
Ns = {workload.n}
snapshot_stride = {workload.stride}

[scheme]
flux_kind = {workload.flux_kind}
epsilon = 0.0
cfl_safety = 0.9

[output]
dir = "{out_dir}"
"""
