"""Canonical problem setups shared across the test modules.

Desk scale throughout: T = S = 1, tau = 0.5, 64x64 grids, on the unit
box except for the two inviscid problems, `shock_spec` and
`unattainable_spec`, whose box is 16 wide in x.
"""

from upkolmo import exprdsl as E
from upkolmo.problem import Grid, ProblemSpec

XBUMP = "(max(0, 1-((x-0.5)/0.35)^2))^2"
SBUMP = "(max(0, 1-((s-0.5)/0.35)^2))^2"
LCUT = "(max(0, 1-(lambda/2)^2))^2"

BETA_TEXT = f"0.5*{XBUMP}*{SBUMP}*{LCUT}"
U01_TEXT = f"0.8*{XBUMP}*{SBUMP}"
# lambda on |lambda| <= 1, back to 0 at |lambda| = 2 and 0 beyond: c TENT
# has slope c inside, -c on 1 < |lambda| < 2, and vanishes beyond b1 = 2
TENT = "(max(0, min(lambda, 2-lambda)) - max(0, min(-lambda, 2+lambda)))"


def flat_cut(b1):
    """1 on |lambda| <= b1 - 0.1 and 0 from |lambda| = b1 on: a beta times
    it vanishes beyond b1, with its values and slopes kept inside."""
    return f"min(1, max(0, ({b1} - abs(lambda))*10))"


def unit_grid(n=64):
    return Grid(nx=n, ns=n, L=1.0, S=1.0)


def zero_spec():
    """All-zero data, perturbation vanishing at zero value."""
    return ProblemSpec(
        L=1.0, T=1.0, S=1.0,
        flux_a=E.parse("lambda^2/2"),
        flux_phi=E.parse("lambda^2/2"),
        data_u0_1=E.parse("0"),
        data_u0_2=E.parse("0"),
        data_uS_2=E.parse("0"),
        beta=E.parse(f"0.5*{XBUMP}*{SBUMP}*sin(lambda)*{LCUT}"),
        tau=0.5, gamma=0.1, epsilon=0.0, b1=2.0,
    )


def source_spec(beta_amp=0.5, gamma=0.1):
    """Nonlinear fluxes, bump initial data, delayed bump perturbation."""
    beta = E.parse(f"{beta_amp}*{XBUMP}*{SBUMP}*{LCUT}") if beta_amp else None
    return ProblemSpec(
        L=1.0, T=1.0, S=1.0,
        flux_a=E.parse("lambda^2/2"),
        flux_phi=E.parse("lambda^2/2"),
        data_u0_1=E.parse(U01_TEXT),
        data_u0_2=E.parse("0"),
        data_uS_2=E.parse("0"),
        beta=beta,
        tau=0.5, gamma=gamma, epsilon=0.0, b1=2.0,
    )


def nosource_spec():
    return source_spec(beta_amp=0.0)


def saturated_spec():
    """A kick sum far above b1: u0_1 = 3 bumps and beta = 4 bumps cut off
    at b1 = 1.5, so the sup bound saturates at max(D, b1) = D."""
    cut = "(max(0, 1-(lambda/1.5)^2))^2"
    return source_spec().with_data(
        data_u0_1=E.parse(f"3*{XBUMP}*{SBUMP}"),
        beta=E.parse(f"4*{XBUMP}*{SBUMP}*{cut}"), b1=1.5)


def perturbed_spec(base, delta):
    """Same problem with the initial data shifted by delta * bump."""
    text = f"{E.to_string(base.data_u0_1)} + {delta}*{XBUMP}*{SBUMP}"
    return base.with_data(data_u0_1=E.parse(text))


def box_grid(spec, n=64):
    """An n x n grid on the spec's own box."""
    return Grid(nx=n, ns=n, L=spec.L, S=spec.S)


def shock_spec(L=16.0):
    """Value-transport shock: quadratic s-flux, step data, constant in x.

    The inflow state 1 at s=0 sustains the jump, which travels at speed
    1/2.  The lateral diffusion against the zero x-walls pulls the rows
    toward 0 by less the farther they lie from the walls.  With L = 16 the
    lateral solves of a 64x64 run (72 steps) take 1.7e-7 from a centre
    row of ones (9.7e-7 in 36 steps at 32x32) and 0.72-0.86 from the wall
    rows; on the unit box they take more than 0.9996 from every row.  So
    at the centre rows, where the checks score, the wide box stands in for
    the inviscid problem.
    """
    return ProblemSpec(
        L=L, T=1.0, S=1.0,
        flux_a=E.parse("lambda^2/2"),
        flux_phi=E.parse("0"),
        data_u0_1=E.parse("max(0, min(1, (0.4-s)*200))"),
        data_u0_2=E.parse("1"),
        data_uS_2=E.parse("0"),
        tau=0.5, gamma=0.0, epsilon=0.0,
    )


def unattainable_spec(L=16.0):
    """Final-condition data the outflow end cannot attain.

    The inflow ramp drives the interior toward 1 where the bump sits; the
    final data at s = S asks for twice that, but characteristics exit
    there, so the trace settles near the transported interior values and
    the boundary entropy inequality is what remains checkable.  The x-bump
    scales as x/L.  The default box is as wide as `shock_spec`'s, so that
    the zero x-walls stay far from the bump's rows (see there).
    """
    ramp = "min(1, max(0, (t-0.1)*2))"
    xbump = XBUMP.replace("(x-0.5)", f"(x/{L!r}-0.5)")
    return ProblemSpec(
        L=L, T=1.0, S=1.0,
        flux_a=E.parse("lambda^2/2"),
        flux_phi=E.parse("0"),
        data_u0_1=E.parse("0"),
        data_u0_2=E.parse(f"{ramp}*{xbump}"),
        data_uS_2=E.parse(f"2*{ramp}*{xbump}"),
        tau=0.5, gamma=0.0, epsilon=0.0,
    )
