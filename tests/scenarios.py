"""Canonical problem setups shared across the test modules.

Desk scale throughout: unit box, T = S = 1, tau = 0.5, 64x64 grids.
"""

from upkolmo import exprdsl as E
from upkolmo.problem import Grid, ProblemSpec
from upkolmo.scheme import SchemeOptions

XBUMP = "(max(0, 1-((x-0.5)/0.35)^2))^2"
SBUMP = "(max(0, 1-((s-0.5)/0.35)^2))^2"
LCUT = "(max(0, 1-(lambda/2)^2))^2"

BETA_TEXT = f"0.5*{XBUMP}*{SBUMP}*{LCUT}"
U01_TEXT = f"0.8*{XBUMP}*{SBUMP}"


def unit_grid(n=64):
    return Grid(nx=n, ns=n, L=1.0, S=1.0)


def zero_spec():
    """All-zero data, perturbation vanishing at zero value."""
    return ProblemSpec(
        d=1, L=1.0, T=1.0, S=1.0,
        flux_a=E.parse("lambda^2/2"),
        flux_phi=(E.parse("lambda^2/2"),),
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
        d=1, L=1.0, T=1.0, S=1.0,
        flux_a=E.parse("lambda^2/2"),
        flux_phi=(E.parse("lambda^2/2"),),
        data_u0_1=E.parse(U01_TEXT),
        data_u0_2=E.parse("0"),
        data_uS_2=E.parse("0"),
        beta=beta,
        tau=0.5, gamma=gamma, epsilon=0.0, b1=2.0,
    )


def nosource_spec():
    return source_spec(beta_amp=0.0)


def perturbed_spec(base, delta):
    """Same problem with the initial data shifted by delta * bump."""
    text = f"{E.to_string(base.data_u0_1)} + {delta}*{XBUMP}*{SBUMP}"
    return base.with_data(data_u0_1=E.parse(text))


def shock_spec():
    """Value-transport shock: quadratic s-flux, step data, constant in x.

    Run with x-diffusion disabled so the front stays sharp; the inflow
    state 1 at s=0 sustains the jump, which travels at speed 1/2.
    """
    return ProblemSpec(
        d=1, L=1.0, T=1.0, S=1.0,
        flux_a=E.parse("lambda^2/2"),
        flux_phi=(E.parse("0"),),
        data_u0_1=E.parse("max(0, min(1, (0.4-s)*200))"),
        data_u0_2=E.parse("1"),
        data_uS_2=E.parse("0"),
        tau=0.5, gamma=0.0, epsilon=0.0,
    )


def unattainable_spec():
    """Final-condition data the outflow end cannot attain.

    The inflow ramp drives the interior toward 1 where the bump sits; the
    final data at s = S asks for twice that, but characteristics exit
    there, so the trace settles near the transported interior values and
    the boundary entropy inequality is what remains checkable.
    """
    ramp = "min(1, max(0, (t-0.1)*2))"
    return ProblemSpec(
        d=1, L=1.0, T=1.0, S=1.0,
        flux_a=E.parse("lambda^2/2"),
        flux_phi=(E.parse("0"),),
        data_u0_1=E.parse("0"),
        data_u0_2=E.parse(f"{ramp}*{XBUMP}"),
        data_uS_2=E.parse(f"2*{ramp}*{XBUMP}"),
        tau=0.5, gamma=0.0, epsilon=0.0,
    )


def diffusionless_options(stride=1):
    return SchemeOptions(x_diffusion=False, snapshot_stride=stride)
