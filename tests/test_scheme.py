import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from upkolmo import exprdsl as E
from upkolmo import io as upk_io
from upkolmo import kernels
from upkolmo import problem as P
from upkolmo import scheme as S
from upkolmo import verify
from upkolmo.problem import Grid
from samplers import sample_max, slab
from scenarios import (SBUMP, TENT, XBUMP, box_grid, flat_cut, nosource_spec,
                       perturbed_spec, shock_spec, source_spec,
                       unattainable_spec, zero_spec)

BURGERS = E.parse("lambda^2/2")


def _flux(flux, uL, uR):
    """The two-point flux of ``flux`` at scalars or same-shape arrays."""
    return flux.flux(np.asarray(uL, dtype=float), np.asarray(uR, dtype=float))


def _lf(uL, uR, m_bound):
    """Burgers' Lax-Friedrichs flux, alpha = max|f'| = m_bound."""
    return _flux(S._LFFlux(BURGERS, m_bound), uL, uR)


def _eo(uL, uR, f=BURGERS):
    return float(_flux(S._SplitTable(f, m_bound=2.0), uL, uR))


def _eo_direct(uL, uR, f):
    """Engquist-Osher flux by composite midpoint quadrature of the split
    derivative from 0, 64 points per unit interval: a reference for the
    table."""
    def split(u, part):
        n = max(1, int(np.ceil(64.0 * abs(u))))
        mids = (np.arange(n) + 0.5) * (u / n)
        d = E.evaluate(E.diff(f, "lambda"), {"lambda": mids})
        return float(np.sum(part(d, 0.0)) * (u / n))
    f0 = float(E.evaluate(f, {"lambda": 0.0}))
    return f0 + split(uL, np.maximum) + split(uR, np.minimum)


class TestLaxFriedrichs:
    def test_zero_state(self):
        assert _lf(0.0, 0.0, 1.0) == 0.0

    def test_hand_value(self):
        # alpha = max|f'| = 1: (0.5 + 0.5)/2 - 1*(-1-1)/2 = 1.5
        assert _lf(1.0, -1.0, 1.0) == pytest.approx(1.5, rel=1e-12)

    def test_consistency(self):
        assert _lf(2.0, 2.0, 1.0) == pytest.approx(2.0)

    def test_array_broadcast(self):
        uL = np.array([1.0, 2.0])
        out = _lf(uL, uL, 0.5)
        assert np.allclose(out, [0.5, 2.0])


class TestEngquistOsher:
    """The tabulated flux the stepper uses, ``_SplitTable.flux``."""

    def test_rarefaction_pair(self):
        assert _eo(-1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_shock_pair(self):
        assert _eo(1.0, -1.0) == pytest.approx(1.0, abs=1e-12)

    def test_consistency_identity(self):
        # exact at the table nodes (multiples of 2^-10), every one of them
        table = S._SplitTable(BURGERS, m_bound=2.0)
        for v in (-1.5, 0.0, 2.0):
            assert _eo(v, v) == pytest.approx(v * v / 2, abs=1e-12)
        nodes = table.nodes
        assert np.allclose(table.flux(nodes, nodes), nodes ** 2 / 2,
                           rtol=0.0, atol=1e-12)
        # between nodes a < v < b, f interpolated linearly:
        # v^2/2 + (v - a)(b - v)/2, at most h^2/8 = 2^-23 above f(v)
        for v in (-0.3, 0.7):
            a = np.floor(v * 1024) / 1024
            b = a + 1 / 1024
            assert _eo(v, v) == pytest.approx(v * v / 2 + (v - a) * (b - v) / 2,
                                              abs=1e-12)

    def test_consistency_smooth_nonconvex(self):
        f = E.parse("sin(lambda)")
        for v in (-2.0, -0.5, 0.4, 1.8):
            f_v = float(np.sin(v))
            assert _eo(v, v, f) == pytest.approx(f_v, abs=1e-5)

    def test_monotone_probe_table(self):
        # the tabulated split flux used inside the stepper is exactly monotone
        rng = np.random.default_rng(41)
        table = S._SplitTable(E.parse("sin(lambda)"), m_bound=2.0)
        h = 1e-4
        for _ in range(100):
            uL, uR = rng.uniform(-2, 2, size=2)
            base = table.flux(np.array([uL]), np.array([uR]))[0]
            up_l = table.flux(np.array([uL + h]), np.array([uR]))[0]
            up_r = table.flux(np.array([uL]), np.array([uR + h]))[0]
            assert up_l >= base
            assert up_r <= base


SPLIT_FLUXES = {
    "eo_burgers": lambda: S._SplitTable(BURGERS, m_bound=2.0),
    "eo_sin": lambda: S._SplitTable(E.parse("sin(3*lambda) - lambda"),
                                    m_bound=2.0),
    # alpha = 1.05 max|f'| on [-m_bound, m_bound]: 1.575 and 1.05
    "lf_burgers": lambda: S._LFFlux(BURGERS, 1.5),
    "lf_sin": lambda: S._LFFlux(E.parse("sin(lambda)"), 1.0),
}


class TestSumSplit:
    """F(a, b) = g(a) + h(b) gives the Kruzhkov flux the entropy-residual
    check uses, sum-split too:

        Q(a, b; k) = G_k(a) + H_k(b),  G_k = sgn(. - k)(g - g(k)),
                                       H_k = sgn(. - k)(h - h(k)).
    """

    @pytest.mark.parametrize("name", sorted(SPLIT_FLUXES))
    def test_kruzhkov_flux_from_the_split(self, name):
        flux = SPLIT_FLUXES[name]()
        rng = np.random.default_rng(44)
        a, b, k = rng.uniform(-1.5, 1.5, size=(3, 2000))
        a[::5] = k[::5]       # ties a = k
        b[1::5] = k[1::5]     # ties b = k
        a[2::5] = b[2::5] = k[2::5]
        w = np.stack((a, b), axis=-1)
        g, h = verify._entropy_parts(flux.split(w), flux.split(k[:, None]),
                                     np.sign(w - k[:, None]))
        q = g[:, 0] + h[:, 1]
        want = (flux.flux(np.maximum(a, k), np.maximum(b, k))
                - flux.flux(np.minimum(a, k), np.minimum(b, k)))
        assert np.max(np.abs(q - want)) <= 1e-15
        assert np.all(q[2::5] == 0.0)


class TestNumericalFlux:
    """The Stepper's flux objects, one per kind."""

    def test_kinds(self):
        grid = Grid(8, 8, 1.0, 1.0)
        lf = S.Stepper(nosource_spec(), grid, eps=0.0, m_bound=1.0,
                       options=S.SchemeOptions(flux_kind=S.LAX_FRIEDRICHS))
        assert isinstance(lf.flux_a, S._LFFlux)
        assert _lf(1.0, 1.0, 2.0) == pytest.approx(0.5)
        eo = S.Stepper(nosource_spec(), grid, eps=0.0, m_bound=1.0)
        assert isinstance(eo.flux_a, S._SplitTable)
        assert _eo(1.0, -1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("phi", ["lambda^2/2", "lambda^2/3"])
    @pytest.mark.parametrize("kind", [S.ENGQUIST_OSHER, S.LAX_FRIEDRICHS])
    def test_max_slope_is_sampled_once_per_flux(self, monkeypatch, kind,
                                                phi):
        # the step's fluxes and the CFL step share one enclosure of each
        # distinct flux's max|f'| (the Lax-Friedrichs alpha itself); dt is
        # their coeff over the cell widths
        calls = []
        real = E.sup

        def counting(expr, box, signed=False):
            calls.append(box)
            return real(expr, box, signed)
        monkeypatch.setattr(E, "sup", counting)
        spec = nosource_spec().with_data(flux_phi=E.parse(phi))
        grid = Grid(8, 16, 1.0, 1.0)
        stepper = S.Stepper(spec, grid, eps=0.0, gamma=0.0, m_bound=1.5,
                            options=S.SchemeOptions(flux_kind=kind))
        assert calls == [{"lambda": (-1.5, 1.5)}] * (
            1 if spec.flux_phi == spec.flux_a else 2)
        for flux, f in ((stepper.flux_a, spec.flux_a),
                        (stepper.flux_phi, spec.flux_phi)):
            assert flux.coeff == real(E.diff(f, "lambda"),
                                      {"lambda": (-1.5, 1.5)})
        assert stepper.flux_a.coeff == pytest.approx(1.5, rel=1e-12)
        assert stepper._cfl() == 0.9 / (stepper.flux_a.coeff / grid.ds
                                        + stepper.flux_phi.coeff / grid.dx)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="flux_kind: expected "
                           "'engquist_osher' or 'lax_friedrichs', got 'roe'"):
            S.Stepper(nosource_spec(), Grid(8, 8, 1.0, 1.0),
                      options=S.SchemeOptions(flux_kind="roe"))


def _cfl(spec, grid, **kwargs):
    kwargs = {"eps": 0.0, "gamma": 0.0, **kwargs}
    return S.Stepper(spec, grid, m_bound=1.0, **kwargs)._cfl()


def _bench_spec(seed):
    """The benchmark's spec at a seed, as `upkolmo run` loads it; its
    workloads differ only in grid and scheme, so they share it."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import WORKLOADS, config_text
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(config_text(WORKLOADS["source64"], seed, Path(tmp)))
        return upk_io.load_config(cfg).spec


_REGION_SPECS = [pytest.param(spec, id=name) for name, spec in {
    "source": source_spec(), "nosource": nosource_spec(),
    "zero": zero_spec(), "shock": shock_spec(),
    "unattainable": unattainable_spec(),
    "perturbed": perturbed_spec(source_spec(), 0.1),
    "bench-seed0": _bench_spec(0), "bench-seed1": _bench_spec(1)}.items()]


@pytest.mark.parametrize("limit, size", [
    ("MAX_TABLE_NODES", lambda st: st.flux_a.nodes.size),
    ("MAX_LATERAL_ENTRIES", lambda st: st.grid.nx ** 2),
    ("MAX_STEP_GHOSTS", lambda st: st.n_steps * st.grid.nx)])
def test_the_limits_admit_the_largest_measured_grid(monkeypatch, limit, size):
    # 1024^2 at 2,959 steps, with each limit at its size and one below
    spec, grid = source_spec(), Grid(1024, 1024, 1.0, 1.0)
    stepper = S.Stepper(spec, grid)
    assert stepper.n_steps == 2959 and size(stepper) <= getattr(S, limit)
    monkeypatch.setattr(S, limit, size(stepper))
    assert S.Stepper(spec, grid).n_steps == 2959
    monkeypatch.setattr(S, limit, size(stepper) - 1)
    with pytest.raises(ValueError, match=f"above the limit of "
                       f"{size(stepper) - 1:,}: the march is refused$"):
        S.Stepper(spec, grid)


class TestCfl:
    def test_stated_formula(self):
        # max|a'| = max|phi'| = 1 on [-1,1], dx = ds = 0.1; the lateral
        # Laplacian is implicit and adds no term: dt = 0.9 / (10 + 10)
        spec = nosource_spec().with_data(flux_a=E.parse("lambda"),
                                         flux_phi=E.parse("lambda"))
        grid = Grid(nx=10, ns=10, L=1.0, S=1.0)
        assert _cfl(spec, grid) == pytest.approx(0.9 / 20.0, rel=1e-6)
        # Lax-Friedrichs: a cell's coefficient loses dt * alpha/ds per
        # direction, alpha = max|f'|
        opts = S.SchemeOptions(flux_kind=S.LAX_FRIEDRICHS)
        assert _cfl(spec, grid, options=opts) == pytest.approx(
            0.9 / 20.0, rel=1e-6)

    def test_eps_override(self):
        # the Stepper's eps, not spec.epsilon = 0: + 2 * 0.01 / 0.1^2 = 2
        spec = nosource_spec().with_data(flux_a=E.parse("lambda"),
                                         flux_phi=E.parse("lambda"))
        assert spec.epsilon == 0.0
        grid = Grid(nx=10, ns=10, L=1.0, S=1.0)
        assert _cfl(spec, grid, eps=0.01) == pytest.approx(0.9 / 22.0,
                                                           rel=1e-6)

    @pytest.mark.parametrize("L", [1.0, 2.0])
    def test_pure_heat(self, L):
        # no stiffness term: the accuracy cap 2 * 0.005 / (pi/L)^2, which
        # depends on neither the grid nor the safety factor
        spec = nosource_spec().with_data(flux_a=E.parse("0"),
                                         flux_phi=E.parse("0"), L=L)
        want = 0.01 * L ** 2 / np.pi ** 2
        for grid in (Grid(16, 16, L, 1.0), Grid(64, 8, L, 1.0)):
            assert _cfl(spec, grid) == pytest.approx(want, rel=1e-12)
        opts = S.SchemeOptions(cfl_safety=0.5)
        assert _cfl(spec, Grid(16, 16, L, 1.0), options=opts) == \
            pytest.approx(want, rel=1e-12)

    def test_refinement_scaling(self):
        # a convective term shrinks the step like dx, not like dx^2
        spec = nosource_spec().with_data(flux_a=E.parse("0"),
                                         flux_phi=E.parse("lambda"))
        d1 = _cfl(spec, Grid(16, 16, 1.0, 1.0))
        d2 = _cfl(spec, Grid(32, 16, 1.0, 1.0))
        assert d1 == pytest.approx(2 * d2, rel=1e-12)

    def test_default_invariant_region_depends_on_the_spec_alone(self):
        # runs of one spec across delay widths and viscosities share it
        spec = source_spec()
        grid = Grid(16, 16, 1.0, 1.0)
        bounds = {S.Stepper(spec, grid, eps=e, gamma=g).m_bound
                  for e in (0.0, 0.02) for g in (0.2, 0.1, 0.05, 0.0)}
        assert bounds == {P.sup_bound(spec, None, 1.0)}
        assert bounds.pop() == pytest.approx(1.3, rel=1e-12)

    @pytest.mark.parametrize("spec", _REGION_SPECS)
    def test_reachable_bound_is_the_first_formula(self, spec):
        # the default region is the bound of all the march can reach, B(T)
        # read off the one sup-norm bound, and, bit for bit, the formula
        # written from the enclosed data norms and sup|beta| directly
        base = max(P.data_sup_norms(spec).values())
        sup_beta = (0.0 if spec.beta is None else E.sup(
            spec.beta, slab(spec, max(base, spec.b1) + 1.0)))
        region = S.Stepper(spec, Grid(8, 8, spec.L, spec.S)).m_bound
        assert region == min(base + sup_beta, max(base, spec.b1))
        assert region >= sample_max(spec.data_u0_1, {
            "x": (0.0, spec.L), "s": (0.0, spec.S)})

    def test_reachable_bound_samples_the_data_norms_once(self, sup_keys):
        # D(0, T) serves both B(T) and the radius of sup|beta|'s slab, each
        # bound enclosed once: u0_1 on the domain, and the s-end data, both
        # the expression 0, over (0, T) and over (0, tau) for the kick
        # slope's radius
        spec = source_spec()
        region = S.Stepper(spec, Grid(8, 8, 1.0, 1.0)).m_bound
        assert region == pytest.approx(1.3, rel=1e-12)
        data = {spec.data_u0_1, spec.data_u0_2, spec.data_uS_2}
        assert len({key for key in sup_keys if key[0] in data}) == 3
        assert E.sup.cache_info().misses == len(set(sup_keys))

    def test_degenerate_grid(self):
        with pytest.raises(S.DegenerateGridError):
            S.Stepper(nosource_spec(), Grid(0, 16, 1.0, 1.0))

    @pytest.mark.parametrize("safety", [0.0, -0.5, 1.5])
    def test_rejects_safety_out_of_range(self, safety):
        with pytest.raises(ValueError,
                           match=r"cfl_safety: must be in \(0, 1\]"):
            _cfl(nosource_spec(), Grid(8, 8, 1.0, 1.0),
                 options=S.SchemeOptions(cfl_safety=safety))

    @pytest.mark.parametrize("field, value", [
        ("cfl_safety", "0.5"), ("cfl_safety", True),
        ("cfl_safety", float("nan")), ("snapshot_stride", 0),
        ("snapshot_stride", 2.0), ("snapshot_stride", "x"),
        ("snapshot_stride", True)])
    def test_options_refuse_a_value_of_the_wrong_kind(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: must be "):
            S.SchemeOptions(**{field: value})

    def test_delay_width_leaves_the_step_alone(self):
        # the source is a kick, not a CFL term: with slope -0.44 >= -1 the
        # 64x64 march takes as many steps at gamma = 0.001 as at gamma = 0
        # (973 when the source sat in the explicit part)
        spec = source_spec()
        grid = Grid(nx=64, ns=64, L=1.0, S=1.0)
        steps = {g: S.Stepper(spec, grid, eps=0.0, gamma=g).n_steps
                 for g in (0.1, 0.001, 0.0)}
        assert steps == {0.1: 185, 0.001: 185, 0.0: 185}

    def test_kick_caps_the_step_where_b0_exceeds_1(self):
        # beta = -3 TENT bumps: the kick's slope is -3, so 1 - 3 theta >=
        # 0 needs dt <= gamma / (2 omega(0) 3), times the safety factor;
        # the cap is the one the enclosed least slope gives, bit for bit
        spec = source_spec(gamma=0.02).with_data(
            beta=E.parse(f"-3*{TENT}*{XBUMP}*{SBUMP}"))
        grid = Grid(nx=16, ns=16, L=1.0, S=1.0)
        b0 = kernels.estimate_dbeta_sup(spec.beta, spec.L, spec.S, spec.b1)
        slope = P.min_kick_slope(spec, 1.0)
        assert b0 == pytest.approx(3.0, rel=1e-12)
        assert slope == pytest.approx(-3.0, rel=1e-12) and slope <= -3.0
        cap = 0.9 * 0.02 / (2.0 * float(kernels.omega(0.0)) * -slope)
        assert _cfl(spec, grid, gamma=0.02) == cap
        assert _cfl(spec, grid) > cap  # no cap at gamma = 0

    def test_an_increasing_kick_is_not_capped(self):
        # +3 lambda bumps on |lambda| < 0.1, flat up to 1.9 and 0 from b1
        # = 2 on: sup|dbeta/dlambda| = 3, but on |lambda| <= B(tau) =
        # 1.11, every value the kick acts on, its slope is 1 + 3 theta >=
        # 1, which no step size can make decrease
        spec = source_spec(gamma=0.02).with_data(beta=E.parse(
            f"3*max(-0.1, min(0.1, lambda))*{XBUMP}*{SBUMP}*{flat_cut(2)}"))
        assert kernels.estimate_dbeta_sup(spec.beta, spec.L, spec.S,
                                          spec.b1) == pytest.approx(3.0,
                                                                    rel=1e-2)
        stepper = S.Stepper(spec, Grid(nx=16, ns=16, L=1.0, S=1.0), eps=0.0,
                            m_bound=1.0)
        assert stepper.kick_slope == 0.0  # beta's min slope, at the edges
        assert stepper.dt_term == "convective"

    def test_records_the_term_that_set_the_step(self):
        grid = Grid(nx=16, ns=16, L=1.0, S=1.0)
        heat = nosource_spec().with_data(flux_a=E.parse("0"),
                                         flux_phi=E.parse("0"))
        # b0 = 3, as in the test above
        capped = source_spec(gamma=0.02).with_data(
            beta=E.parse(f"-3*{TENT}*{XBUMP}*{SBUMP}"))
        for spec, gamma, term in ((source_spec(), 0.1, "convective"),
                                  (heat, 0.0, "heat_accuracy"),
                                  (capped, 0.02, "kick_cap"),
                                  (capped, 0.0, "convective")):
            stepper = S.Stepper(spec, grid, eps=0.0, gamma=gamma, m_bound=1.0)
            assert stepper.dt_term == term, (term, gamma)
        # a step the caller fixes was set by no term
        assert S.Stepper(source_spec(), grid, dt=0.01).dt_term is None

    def test_kick_slope_is_sampled_on_first_use(self):
        # unit kick mass before a delayed kick, none before the impulse; a
        # Stepper given its dt encloses neither the slope nor a flux's coeff
        spec, grid = source_spec(), Grid(nx=8, ns=8, L=1.0, S=1.0)
        stepper = S.Stepper(spec, grid, gamma=0.1, dt=0.01)
        stepper.flux_a.split(np.zeros(3))
        assert "kick_slope" not in vars(stepper)
        assert "flux_phi" not in vars(stepper)
        assert "coeff" not in vars(stepper.flux_a)
        assert stepper.kick_slope == P.min_kick_slope(spec, 1.0)
        assert (S.Stepper(spec, grid, gamma=0.0).kick_slope
                == P.min_kick_slope(spec, 0.0))
        assert S.Stepper(nosource_spec(), grid, gamma=0.1).kick_slope is None


def _random_field(rng, grid, amp=0.8):
    return amp * (2.0 * rng.random((grid.nx, grid.ns)) - 1.0)


def _two_split_step(stepper, u, n):
    """``Stepper.step`` with each direction's strip of the padded state
    split on its own, the s-strip by ``flux_a`` and the x-strip by
    ``flux_phi``."""
    grid, dt = stepper.grid, stepper.dt
    w = stepper.padded(u, n * dt)
    ws, wx = w[1:-1, :], w[:, 1:-1]
    g_a, h_a = stepper.flux_a.split(ws)
    g_p, h_p = stepper.flux_phi.split(wx)
    f_a = g_a[:, :-1] + h_a[:, 1:]
    f_p = g_p[:-1, :] + h_p[1:, :]
    new = u - dt * ((f_a[:, 1:] - f_a[:, :-1]) / grid.ds
                    + (f_p[1:, :] - f_p[:-1, :]) / grid.dx)
    if stepper.eps > 0:
        new = new + dt * stepper.eps * (
            (ws[:, :-2] - 2.0 * u + ws[:, 2:]) / grid.ds ** 2)
    return stepper._solve_lateral(new)


class TestOneSplitPerFlux:
    """A Stepper holds one flux object per distinct expression and splits
    the whole padded state once with it, the s- and x-faces sliced from
    that one result."""

    @pytest.mark.parametrize("phi", ["lambda^2/2", "sin(lambda)"])
    @pytest.mark.parametrize("kind", [S.ENGQUIST_OSHER, S.LAX_FRIEDRICHS])
    def test_step_equals_the_two_split_step(self, monkeypatch, kind, phi):
        # phi is parsed apart from a: equal trees share one flux object
        spec = source_spec().with_data(flux_phi=E.parse(phi), epsilon=0.01)
        grid = Grid(12, 16, 1.0, 1.0)
        stepper = S.Stepper(spec, grid, m_bound=1.3,
                            options=S.SchemeOptions(flux_kind=kind))
        assert (stepper.flux_phi is stepper.flux_a) == (phi == "lambda^2/2")
        calls = []
        cls = type(stepper.flux_a)
        real = cls.split

        def counting(flux, w):
            calls.append(w.shape)
            return real(flux, w)
        monkeypatch.setattr(cls, "split", counting)
        rng = np.random.default_rng(5)
        for n in (0, 7, 21):
            u = _random_field(rng, grid, amp=1.2)
            want = _two_split_step(stepper, u, n)
            del calls[:]
            assert np.array_equal(stepper.step(u, n), want)
            distinct = 1 if stepper.flux_phi is stepper.flux_a else 2
            assert calls == [(14, 18)] * distinct


class TestStep:
    def test_zero_fixed_point(self):
        spec = zero_spec()  # perturbation vanishes at value 0
        grid = Grid(16, 16, 1.0, 1.0)
        out = S.Stepper(spec, grid, eps=0.0).step(np.zeros((16, 16)), 5)
        assert np.all(out == 0.0)

    def test_constant_preserved(self):
        # zero x-flux and s-end data equal to the constant: every interface
        # flux is the same, so the explicit part leaves 0.37 bit for bit and
        # the step is the lateral solve of the constant alone
        spec = nosource_spec().with_data(flux_phi=E.parse("0"),
                                         data_u0_2=E.parse("0.37"),
                                         data_uS_2=E.parse("0.37"))
        grid = Grid(16, 16, 1.0, 1.0)
        for kind in (S.ENGQUIST_OSHER, S.LAX_FRIEDRICHS):
            opts = S.SchemeOptions(flux_kind=kind)
            stepper = S.Stepper(spec, grid, eps=0.0, options=opts)
            out = stepper.step(np.full((16, 16), 0.37), 0)
            want = stepper._solve_lateral(np.full((16, 16), 0.37))
            assert np.array_equal(out, want)

    @pytest.mark.parametrize("kind", [S.ENGQUIST_OSHER, S.LAX_FRIEDRICHS])
    def test_discrete_max_principle_exact(self, kind):
        rng = np.random.default_rng(17)
        spec = nosource_spec()
        grid = Grid(16, 16, 1.0, 1.0)
        opts = S.SchemeOptions(flux_kind=kind)
        stepper = S.Stepper(spec, grid, eps=0.02, gamma=0.0, options=opts,
                            m_bound=1.0)
        for _ in range(50):
            u = _random_field(rng, grid)
            w = stepper.padded(u, t=rng.uniform(0, 1))
            lo, hi = w.min(), w.max()
            out = stepper.step(u, 3)
            assert out.min() >= lo
            assert out.max() <= hi

    @pytest.mark.parametrize("kind", [S.ENGQUIST_OSHER, S.LAX_FRIEDRICHS])
    def test_discrete_entropy_inequality(self, kind):
        # Crandall-Majda cell residuals of |u - k| entropies are
        # nonpositive, with the lateral Laplacian in Kato's form: taken on
        # |u^{n+1} - k|, whose x-ghosts are |0 - k|
        rng = np.random.default_rng(23)
        spec = nosource_spec()
        grid = Grid(16, 16, 1.0, 1.0)
        opts = S.SchemeOptions(flux_kind=kind)
        stepper = S.Stepper(spec, grid, eps=0.01, gamma=0.0, options=opts,
                            m_bound=1.0)
        dt, dx, ds = stepper.dt, grid.dx, grid.ds
        for _ in range(10):
            u = _random_field(rng, grid)
            k = float(rng.uniform(-1, 1))
            out = stepper.step(u, 2)
            w = stepper.padded(u, 2 * dt)
            w_up, w_dn = np.maximum(w, k), np.minimum(w, k)
            eta_pad = w_up - w_dn
            su, sd = w_up[1:-1, :], w_dn[1:-1, :]
            q_a = (stepper.flux_a.flux(su[:, :-1], su[:, 1:])
                   - stepper.flux_a.flux(sd[:, :-1], sd[:, 1:]))
            xu, xd = w_up[:, 1:-1], w_dn[:, 1:-1]
            q_p = (stepper.flux_phi.flux(xu[:-1, :], xu[1:, :])
                   - stepper.flux_phi.flux(xd[:-1, :], xd[1:, :]))
            eta0 = eta_pad[1:-1, 1:-1]
            rho = (np.abs(out - k) - eta0
                   + dt / ds * (q_a[:, 1:] - q_a[:, :-1])
                   + dt / dx * (q_p[1:, :] - q_p[:-1, :]))
            eta1 = np.abs(out - k)
            ex = np.pad(eta1, ((1, 1), (0, 0)), constant_values=abs(k))
            rho -= dt * (ex[:-2, :] - 2 * eta1 + ex[2:, :]) / dx ** 2
            es = eta_pad[1:-1, :]
            rho -= dt * stepper.eps * (es[:, :-2] - 2 * eta0 + es[:, 2:]) / ds ** 2
            assert rho.max() <= 1e-12

    def test_conservation_interior(self):
        # a field on the centre 8x8 cells of a 48x48 grid spreads at most
        # one cell per step in s, so in 20 steps nothing crosses an s-end;
        # the implicit lateral solve reaches the x-walls in one step, so
        # the mass changes by exactly what crosses them: the convective
        # flux against the zero ghosts, and dt/dx * (u_0 + u_{nx-1}) * ds
        # of the implicit diffusion
        rng = np.random.default_rng(29)
        spec = nosource_spec()
        grid = Grid(48, 48, 1.0, 1.0)
        stepper = S.Stepper(spec, grid, eps=0.01, gamma=0.0, m_bound=1.0)
        dt, dx, ds = stepper.dt, grid.dx, grid.ds
        u = np.zeros((48, 48))
        u[20:28, 20:28] = _random_field(rng, Grid(8, 8, 1.0, 1.0))
        zero = np.zeros(48)
        for _ in range(20):
            new = stepper.step(u, 1)
            wall = (stepper.flux_phi.flux(u[-1], zero)
                    - stepper.flux_phi.flux(zero, u[0])).sum() * ds
            leak = (new[0] + new[-1]).sum() * ds / dx
            balance = (new.sum() - u.sum()) * grid.cell_volume \
                + dt * (wall + leak)
            assert abs(balance) <= 1e-15
            u = new
        assert np.count_nonzero(u[0]) > 0   # the x-walls were reached

    def test_shock_speed(self):
        spec = shock_spec()
        grid = box_grid(spec)
        stepper = S.Stepper(spec, grid)
        xc, sc = grid.cell_centers()
        u = np.broadcast_to(
            np.asarray(E.evaluate(spec.data_u0_1,
                                  {"x": xc[:, None], "s": sc[None, :]})),
            (64, 64)).astype(float)
        n = 0
        while n * stepper.dt < 0.6 - 1e-12:
            u = stepper.step(u, n)
            n += 1
        t = n * stepper.dt
        profile = u[32, :]
        pos = sc[np.argmax(profile < 0.5)]
        expected = 0.4 + 0.5 * t
        assert abs(pos - expected) <= 2 * grid.ds

    @pytest.mark.parametrize("kind", [S.ENGQUIST_OSHER, S.LAX_FRIEDRICHS])
    def test_nan_detection(self, kind):
        # the implicit lateral solve is stable at any dt, the explicit
        # part is not: with dt far above its CFL step and eps = 0.5 the
        # s-stencil amplifies the top s-mode by about 4 dt eps/ds^2 =
        # 1.3e5 per step, more than the lateral solve damps any x-mode
        # (by at most 1 + 4 r sin^2(pi/18) = 7.7e3, r = dt/dx^2), until a
        # value overflows
        spec = nosource_spec().with_data(data_u0_1=E.parse("0"))
        grid = Grid(8, 8, 1.0, 1.0)
        opts = S.SchemeOptions(flux_kind=kind)
        stepper = S.Stepper(spec, grid, eps=0.5, gamma=0.0, m_bound=1.0,
                            options=opts, dt=1e3)
        rng = np.random.default_rng(31)
        u = _random_field(rng, grid)
        with pytest.raises(S.NaNDetectedError, match="non-finite value"):
            for _ in range(400):
                u = stepper.step(u, 1)

    def test_lax_friedrichs_flux_overflow_ends_the_step(self):
        # exp overflows at the ghost 1000: the flux closure is unchecked,
        # so the step's own test ends it, with no NumPy warning
        spec = nosource_spec().with_data(flux_a=E.parse("exp(lambda) - 1"),
                                         data_u0_2=E.parse("1000"))
        opts = S.SchemeOptions(flux_kind=S.LAX_FRIEDRICHS)
        stepper = S.Stepper(spec, Grid(8, 8, 1.0, 1.0), eps=0.0, gamma=0.0,
                            m_bound=1.0, options=opts, dt=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(S.NaNDetectedError, match="non-finite value"):
                stepper.step(np.zeros((8, 8)), 0)

    def test_table_matches_direct_quadrature(self):
        table = S._SplitTable(BURGERS, m_bound=1.0)
        rng = np.random.default_rng(37)
        for _ in range(30):
            uL, uR = rng.uniform(-1.5, 1.5, size=2)
            direct = _eo_direct(uL, uR, BURGERS)
            via_table = float(table.flux(np.array([uL]), np.array([uR]))[0])
            assert via_table == pytest.approx(direct, abs=1e-6)


def _solver(nx, r):
    """A Stepper on an nx x 6 grid whose lateral solve has dt/dx^2 close to
    r, and that ratio: one step of dt = T, so that no ratio asks for more
    steps than ``scheme.MAX_STEP_GHOSTS`` admits."""
    grid = Grid(nx, 6, 1.0, 1.0)
    dt = r * grid.dx ** 2
    stepper = S.Stepper(nosource_spec().with_data(T=dt), grid, eps=0.0,
                        gamma=0.0, m_bound=1.0, dt=dt)
    return stepper, stepper.dt / grid.dx ** 2


# dt/dx^2 across decades: the bench grids have r between 3 and 15, and
# below about 1e-4 the solution of d = M sits within an ulp of M far from
# the walls
RATIOS = [1e-12, 1e-8, 1e-4, 0.3, 1.0, 3.7, 15.0, 1e3, 1e8]


class TestLateralSolve:
    """The backward-Euler solve (I - dt Lap_x) x = d with zero ghosts."""

    @pytest.mark.parametrize("nx", [1, 2, 7, 64])
    @pytest.mark.parametrize("r", RATIOS)
    def test_matches_a_dense_solve(self, nx, r):
        stepper, r = _solver(nx, r)
        a = ((1.0 + 2.0 * r) * np.eye(nx) - r * np.eye(nx, k=1)
             - r * np.eye(nx, k=-1))
        d = np.random.default_rng(5).uniform(-1.0, 1.0, (nx, 6))
        got = stepper._solve_lateral(d.copy())
        want = np.linalg.solve(a, d)
        # both solves are backward stable and |A^-1| <= 1 in the max-norm:
        # the gap is within a few n eps cond(A) |d|, cond(A) <= 1 + 4r
        assert np.max(np.abs(got - want)) <= 4 * nx * (1 + 4 * r) * 2.0 ** -52

    @pytest.mark.parametrize("nx", [1, 2, 7, 64])
    @pytest.mark.parametrize("r", RATIOS)
    def test_inverse_is_nonnegative(self, nx, r):
        # no tolerance: the sweep on the identity forms every entry from
        # positive terms, so none rounds below zero
        inverse = _solver(nx, r)[0]._inverse
        assert inverse.shape == (nx, nx)
        assert np.all(inverse >= 0.0)

    @pytest.mark.parametrize("r", RATIOS)
    def test_keeps_sign_and_bound(self, r):
        # no tolerance: d >= 0 gives x >= 0, and |d| <= M gives |x| <= M,
        # for random data, for the constant M itself and for M a single cell
        rng = np.random.default_rng(19)
        stepper, _ = _solver(64, r)
        for m in (1.0, 0.8, 1.863, 1e-300, 1e300):
            for d in (np.full((64, 6), m), rng.uniform(0.0, m, (64, 6)),
                      np.where(rng.random((64, 6)) < 0.1, m, 0.0)):
                x = stepper._solve_lateral(d.copy())
                assert x.min() >= 0.0 and x.max() <= m
                x = stepper._solve_lateral(-d)
                assert x.max() <= 0.0 and x.min() >= -m

    @pytest.mark.parametrize("r", RATIOS)
    def test_is_monotone(self, r):
        rng = np.random.default_rng(43)
        stepper, _ = _solver(64, r)
        for _ in range(20):
            d = rng.uniform(-1.0, 1.0, (64, 6))
            hit = rng.random((64, 6)) < 0.2
            e = d + rng.uniform(0.0, 1.0, (64, 6)) * hit
            assert np.all(stepper._solve_lateral(d.copy())
                          <= stepper._solve_lateral(e.copy()))

    @pytest.mark.parametrize("n, centre", [(64, 1.8e-7), (32, 1e-6)])
    def test_how_far_the_zero_walls_reach(self, n, centre):
        # a shock run's lateral solves alone, on a row of ones: on the
        # wide box the centre rows lose 1.7e-7 (64x64, 72 steps) or
        # 9.7e-7 (32x32, 36 steps) and the wall rows 0.72-0.86; on the
        # unit box every row loses more than 0.9996
        loss = {}
        for L in (16.0, 1.0):
            spec = shock_spec(L=L)
            stepper = S.Stepper(spec, box_grid(spec, n))
            u = np.ones((n, 1))
            for _ in range(stepper.n_steps):
                u = stepper._solve_lateral(u)
            loss[L] = 1.0 - u[:, 0]
        wide, unit = loss[16.0], loss[1.0]
        assert max(wide[n // 2 - 1], wide[n // 2]) <= centre
        assert min(wide[0], wide[-1]) >= 0.7
        assert unit.min() > 0.9996


@pytest.mark.parametrize("kind", [S.ENGQUIST_OSHER, S.LAX_FRIEDRICHS])
@pytest.mark.parametrize("eps", [0.0, 0.02])
def test_step_is_monotone(kind, eps):
    # u <= v cell by cell gives step(u) <= step(v) cell by cell, with the
    # kick that ends it active, without tolerance
    rng = np.random.default_rng(47)
    spec = source_spec(gamma=0.05)
    grid = Grid(16, 16, 1.0, 1.0)
    stepper = S.Stepper(spec, grid, eps=eps,
                        options=S.SchemeOptions(flux_kind=kind))
    n = int((spec.tau - 0.02) / stepper.dt)
    assert stepper.thetas[n] > 0.0
    for _ in range(30):
        u = _random_field(rng, grid)
        v = np.minimum(u + rng.uniform(0.0, 0.5, u.shape)
                       * (rng.random(u.shape) < 0.3), 0.8)
        assert np.all(u <= v)
        assert np.all(stepper.kick(stepper.step(u, n), n)
                      <= stepper.kick(stepper.step(v, n), n))


@pytest.mark.parametrize("kind", [S.ENGQUIST_OSHER, S.LAX_FRIEDRICHS])
def test_step_is_monotone_at_full_safety(kind):
    # phi = 0 and no source: the s-flux alone sizes dt.  Raising one whole
    # s-column of a zero field leaves it raised by (1 - dt alpha/ds) times
    # the raise under Lax-Friedrichs, which dt must keep >= 0 up to the
    # largest safety a config may set (here 1 - alpha 16/17, alpha the
    # enclosure of max|f'| = 1, a few ulps above it); the
    # implicit x-solve keeps the sign of a column that is constant in x
    spec = nosource_spec().with_data(flux_phi=E.parse("0"))
    grid = Grid(16, 16, 1.0, 1.0)
    stepper = S.Stepper(spec, grid, eps=0.0, gamma=0.0, m_bound=1.0,
                        options=S.SchemeOptions(flux_kind=kind,
                                                cfl_safety=1.0))
    u = np.zeros((16, 16))
    v = u.copy()
    v[:, 8] = 1e-3
    assert np.all(stepper.step(v, 1) >= stepper.step(u, 1))


def _probe_points(table, rng):
    """Random points, every table node and its two neighbouring doubles,
    and points beyond both ends of the table."""
    nodes = table.nodes
    return np.concatenate([
        rng.uniform(-1.5 * nodes[-1], 1.5 * nodes[-1], 100_000),
        nodes, np.nextafter(nodes, np.inf), np.nextafter(nodes, -np.inf),
        [-1e300, 2.0 * nodes[0], 2.0 * nodes[-1], 1e300]])


class TestSplitForm:
    """``split``, the only form of either flux, and the complex table."""

    @pytest.mark.parametrize("text", ["lambda^2/2", "sin(3*lambda)",
                                      "exp(lambda) - 1"])
    def test_complex_lookup_is_two_real_lookups(self, text):
        table = S._SplitTable(E.parse(text), m_bound=1.0)
        f_plus, f_minus = table.table.real.copy(), table.table.imag.copy()
        pts = _probe_points(table, np.random.default_rng(7))
        # many points and few: np.interp precomputes slopes only for many
        for p in (pts, pts[:3]):
            both = np.interp(p, table.nodes, table.table)
            assert np.array_equal(both.real, np.interp(p, table.nodes, f_plus))
            assert np.array_equal(both.imag, np.interp(p, table.nodes, f_minus))

    def test_table_split_sum_is_the_real_lookups(self):
        # f0 + f_plus(wL) + f_minus(wR) from two real lookups, added left
        # to right: the split sum keeps that order, bit for bit
        f = E.parse("sin(3*lambda) + lambda^2/2")
        table = S._SplitTable(f, m_bound=1.0)
        rng = np.random.default_rng(11)
        wL = _probe_points(table, rng)
        wR = rng.permutation(wL)
        want = (table.f0
                + np.interp(wL, table.nodes, table.table.real.copy())
                + np.interp(wR, table.nodes, table.table.imag.copy()))
        assert np.array_equal(table.split(wL)[0] + table.split(wR)[1], want)
        assert np.array_equal(table.flux(wL, wR), want)

    def test_lf_split_sum_is_the_textbook_flux_to_rounding(self):
        # 0.5 (f(a) + alpha a) + 0.5 (f(b) - alpha b) against
        # 0.5 (f(a) + f(b)) - 0.5 alpha (b - a): a few units of roundoff
        f = E.parse("sin(3*lambda) + lambda^2/2")
        flux = S._LFFlux(f, 2.0)
        rng = np.random.default_rng(11)
        wL = rng.uniform(-6.0, 6.0, 100_000)
        wR = rng.permutation(wL)
        fL, fR = E.evaluate(f, {"lambda": wL}), E.evaluate(f, {"lambda": wR})
        textbook = 0.5 * (fL + fR) - 0.5 * flux.coeff * (wR - wL)
        scale = np.abs(fL) + np.abs(fR) + flux.coeff * (np.abs(wL) + np.abs(wR))
        got = flux.flux(wL, wR)
        assert np.all(np.abs(got - textbook) <= 2.0 * np.finfo(float).eps
                      * scale)

    @pytest.mark.parametrize("kind", ["table", "lf"])
    def test_split_of_a_strip_slices_like_the_slices(self, kind):
        # the step splits a padded strip once and slices the parts
        flux = (S._SplitTable(BURGERS, m_bound=1.0) if kind == "table"
                else S._LFFlux(BURGERS, 1.0))
        w = np.random.default_rng(13).uniform(-1.5, 1.5, (18, 18))
        wx = w[:, 1:-1]
        g, h = flux.split(wx)
        assert np.array_equal(g[:-1], flux.split(wx[:-1])[0])
        assert np.array_equal(h[1:], flux.split(wx[1:])[1])

    def test_lf_split_of_a_constant_flux_has_the_cell_shape(self):
        flux = S._LFFlux(E.parse("0"), 1.0)
        w = np.ones((4, 5))
        g, h = flux.split(w)
        assert g.shape == h.shape == (4, 5)
        assert np.array_equal(g[:-1] + h[1:], np.zeros((3, 5)))


class TestSourceRate:
    """The source rate per step is the kernel's mass over the step."""

    @staticmethod
    def _mass(stepper, t, n=20001):
        """Trapezoid quadrature of K_gamma over the step's overlap with
        the support [tau - gamma, tau]."""
        tau, gamma = stepper.spec.tau, stepper.gamma
        lo, hi = max(t, tau - gamma), min(t + stepper.dt, tau)
        if lo >= hi:
            return 0.0
        ts = np.linspace(lo, hi, n)
        return np.trapezoid(kernels.k_gamma(ts, tau, gamma), ts)

    def test_zero_off_the_support_and_the_average_on_it(self):
        spec = source_spec()
        grid = Grid(8, 8, 1.0, 1.0)
        dt, gamma = S.Stepper(spec, grid).dt, spec.gamma
        k = round(spec.tau / dt)
        peak = (2.0 / gamma) * float(kernels.omega(0.0))
        # the march's own steps, and with tau moved, a step from tau, one
        # from 1e-3 before it, and steps straddling either end by half
        on = []
        for tau in (spec.tau, k * dt, k * dt + 1e-3, k * dt + 0.5 * dt,
                    k * dt + gamma + 0.5 * dt):
            stepper = S.Stepper(spec.with_data(tau=tau), grid, dt=dt)
            for n, got in enumerate(stepper.thetas.tolist()):
                t = n * dt
                if min(t + dt, tau) <= max(t, tau - gamma):
                    assert got == 0.0
                    continue
                assert 0.0 < got <= peak * dt
                # P is tabulated to within 5e-8 at each end of the step
                assert abs(got - self._mass(stepper, t)) <= 1e-7
                on.append(t - tau)
        for start in (-gamma - 0.5 * dt, -0.5 * dt, -1e-3):
            assert min(abs(t - start) for t in on) <= 1e-12
        assert len(on) > 3


class TestGhostRows:
    @staticmethod
    def _direct(spec, stepper, t):
        return [np.broadcast_to(np.asarray(E.evaluate(e, {"x": stepper.xc,
                                                          "t": t}),
                                           dtype=float), stepper.xc.shape)
                for e in (spec.data_u0_2, spec.data_uS_2)]

    @staticmethod
    def _counting_compile(monkeypatch, counts):
        """Count, per expression text, the calls of each closure that
        `scheme` compiles."""
        def counting(expr, **options):
            fn, free = E.compile(expr, **options)
            key = E.to_string(expr)

            def counted(b):
                counts[key] = counts.get(key, 0) + 1
                return fn(b)
            return counted, free
        monkeypatch.setattr(S, "exprdsl", SimpleNamespace(
            compile=counting, evaluate=E.evaluate, on_slope=E.on_slope,
            sup=E.sup))

    def test_time_dependent_data_are_evaluated_at_each_t(self, monkeypatch):
        spec = unattainable_spec(L=1.0)
        counts = {}
        self._counting_compile(monkeypatch, counts)
        stepper = S.Stepper(spec, Grid(16, 16, 1.0, 1.0))
        early, late = stepper.boundary_values(0.05), stepper.boundary_values(0.6)
        for t, rows in ((0.05, early), (0.6, late)):
            for got, want in zip(rows, self._direct(spec, stepper, t)):
                assert np.array_equal(got, want)
        assert not np.array_equal(early[0], late[0])
        assert not np.array_equal(early[1], late[1])
        # the flux tables' derivatives are evaluated once, at set-up
        assert {counts[E.to_string(e)]
                for e in (spec.data_u0_2, spec.data_uS_2)} == {2}
        w = stepper.padded(np.zeros((16, 16)), 0.6)
        assert np.array_equal(w[1:-1, 0], late[0])
        assert np.array_equal(w[1:-1, -1], late[1])

    def test_time_free_data_are_evaluated_once_per_stepper(self, monkeypatch):
        spec = source_spec().with_data(data_u0_2=E.parse("0.1*sin(3*x)"))
        counts = {}
        self._counting_compile(monkeypatch, counts)
        stepper = S.Stepper(spec, Grid(16, 16, 1.0, 1.0))
        u = np.zeros((16, 16))
        for n in range(5):
            u = stepper.step(u, n)
        rows = stepper.boundary_values(0.0)
        assert stepper.boundary_values(0.7) is rows
        assert counts["0.1 * sin(3.0 * x)"] == 1 and counts["0.0"] == 1
        for row, want in zip(rows, self._direct(spec, stepper, 0.3)):
            assert np.array_equal(row, want)
            assert not row.flags.writeable
        assert np.count_nonzero(rows[0]) > 0
