from types import SimpleNamespace

import numpy as np
import pytest

from upkolmo import exprdsl as E
from upkolmo import kernels
from upkolmo import scheme as S
from upkolmo import verify
from upkolmo.problem import Grid
from scenarios import nosource_spec, shock_spec, source_spec, zero_spec, \
    diffusionless_options, unattainable_spec

BURGERS = E.parse("lambda^2/2")


def _flux(flux, uL, uR):
    """The two-point flux of ``flux`` at scalars or same-shape arrays."""
    return flux.flux(np.asarray(uL, dtype=float), np.asarray(uR, dtype=float))


def _lf(uL, uR, alpha):
    return _flux(S._LFFlux(BURGERS, alpha), uL, uR)


def _eo(uL, uR, f=BURGERS):
    return float(_flux(S._SplitTable(f, radius=3.0), uL, uR))


def _eo_direct(uL, uR, f):
    """Engquist-Osher flux by composite midpoint quadrature of the split
    derivative from 0, 64 points per unit interval: a reference for the
    table."""
    def split(u, part):
        n = max(1, int(np.ceil(64.0 * abs(u))))
        mids = (np.arange(n) + 0.5) * (u / n)
        _, d = E.eval_dual(f, {"lambda": mids}, "lambda")
        return float(np.sum(part(d, 0.0)) * (u / n))
    f0 = float(E.evaluate(f, {"lambda": 0.0}))
    return f0 + split(uL, np.maximum) + split(uR, np.minimum)


class TestLaxFriedrichs:
    def test_zero_state(self):
        assert _lf(0.0, 0.0, 1.0) == 0.0

    def test_hand_value(self):
        # (0.5 + 0.5)/2 - 1*(-1-1)/2 = 1.5
        assert _lf(1.0, -1.0, 1.0) == pytest.approx(1.5)

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
        table = S._SplitTable(BURGERS, radius=3.0)
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
        table = S._SplitTable(E.parse("sin(lambda)"), radius=3.0)
        h = 1e-4
        for _ in range(100):
            uL, uR = rng.uniform(-2, 2, size=2)
            base = table.flux(np.array([uL]), np.array([uR]))[0]
            up_l = table.flux(np.array([uL + h]), np.array([uR]))[0]
            up_r = table.flux(np.array([uL]), np.array([uR + h]))[0]
            assert up_l >= base
            assert up_r <= base


SPLIT_FLUXES = {
    "eo_burgers": lambda: S._SplitTable(BURGERS, radius=3.0),
    "eo_sin": lambda: S._SplitTable(E.parse("sin(3*lambda) - lambda"),
                                    radius=3.0),
    # alpha = 1.05 max|f'| on [-1.5, 1.5], as the Stepper sets it
    "lf_burgers": lambda: S._LFFlux(BURGERS, 1.575),
    "lf_sin": lambda: S._LFFlux(E.parse("sin(lambda)"), 1.05),
}


class TestSumSplit:
    """F(a, b) = g(a) + h(b) gives the Kruzhkov flux the entropy-residual
    check uses:

        Q(a, b; k) = sgn(a - k)(g(a) - g(k)) + sgn(b - k)(h(b) - h(k)).
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
        q = verify._entropy_flux(flux, flux.split(k[:, None]), w,
                                 np.sign(w - k[:, None]), -1)[:, 0]
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

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown flux kind 'roe'"):
            S.Stepper(nosource_spec(), Grid(8, 8, 1.0, 1.0),
                      options=S.SchemeOptions(flux_kind="roe"))


def _cfl(spec, grid, **kwargs):
    kwargs = {"eps": 0.0, "gamma": 0.0, **kwargs}
    return S.Stepper(spec, grid, m_bound=1.0, **kwargs)._cfl()


class TestCfl:
    def test_stated_formula(self):
        # max|a'| = max|phi'| = 1 on [-1,1], dx = ds = 0.1, d = 1:
        # dt = 0.9 / (10 + 10 + 200) ~ 0.004091
        spec = nosource_spec().with_data(flux_a=E.parse("lambda"),
                                         flux_phi=(E.parse("lambda"),))
        grid = Grid(nx=10, ns=10, L=1.0, S=1.0)
        assert _cfl(spec, grid) == pytest.approx(0.9 / 220.0, rel=1e-6)

    def test_without_lateral_diffusion(self):
        # the 2 d / dx^2 = 200 term drops out: 0.9 / (10 + 10)
        spec = nosource_spec().with_data(flux_a=E.parse("lambda"),
                                         flux_phi=(E.parse("lambda"),))
        grid = Grid(nx=10, ns=10, L=1.0, S=1.0)
        opts = S.SchemeOptions(x_diffusion=False)
        assert _cfl(spec, grid, options=opts) == pytest.approx(0.9 / 20.0,
                                                               rel=1e-6)

    def test_eps_override(self):
        # the Stepper's eps, not spec.epsilon = 0: + 2 * 0.01 / 0.1^2 = 2
        spec = nosource_spec().with_data(flux_a=E.parse("lambda"),
                                         flux_phi=(E.parse("lambda"),))
        assert spec.epsilon == 0.0
        grid = Grid(nx=10, ns=10, L=1.0, S=1.0)
        assert _cfl(spec, grid, eps=0.01) == pytest.approx(0.9 / 222.0,
                                                           rel=1e-6)

    def test_pure_heat(self):
        spec = nosource_spec().with_data(flux_a=E.parse("0"),
                                         flux_phi=(E.parse("0"),))
        grid = Grid(nx=16, ns=16, L=1.0, S=1.0)
        assert _cfl(spec, grid) == pytest.approx(0.9 * grid.dx ** 2 / 2.0,
                                                 rel=1e-12)

    def test_refinement_scaling(self):
        spec = nosource_spec().with_data(flux_a=E.parse("0"),
                                         flux_phi=(E.parse("0"),))
        d1 = _cfl(spec, Grid(16, 16, 1.0, 1.0))
        d2 = _cfl(spec, Grid(32, 16, 1.0, 1.0))
        assert d1 == pytest.approx(4 * d2, rel=1e-12)

    def test_default_invariant_region_depends_on_the_spec_alone(self):
        # runs of one spec across delay widths and viscosities share it
        spec = source_spec()
        grid = Grid(16, 16, 1.0, 1.0)
        bounds = {S.Stepper(spec, grid, eps=e, gamma=g).m_bound
                  for e in (0.0, 0.02) for g in (0.2, 0.1, 0.05, 0.0)}
        assert bounds == {1.05 * S.predicted_sup(spec) + 0.5}

    def test_degenerate_grid(self):
        with pytest.raises(S.DegenerateGridError):
            S.Stepper(nosource_spec(), Grid(0, 16, 1.0, 1.0))

    @pytest.mark.parametrize("safety", [0.0, -0.5, 1.5])
    def test_rejects_safety_out_of_range(self, safety):
        with pytest.raises(ValueError, match="safety must be in"):
            _cfl(nosource_spec(), Grid(8, 8, 1.0, 1.0),
                 options=S.SchemeOptions(cfl_safety=safety))

    def test_source_term_enters(self):
        with_src = source_spec(gamma=0.05)
        without = nosource_spec()
        grid = Grid(nx=16, ns=16, L=1.0, S=1.0)
        assert _cfl(with_src, grid, gamma=None) < _cfl(without, grid,
                                                       gamma=None)


def _random_field(rng, grid, amp=0.8):
    return amp * (2.0 * rng.random((grid.nx, grid.ns)) - 1.0)


class TestStep:
    def test_zero_fixed_point(self):
        spec = zero_spec()  # perturbation vanishes at value 0
        grid = Grid(16, 16, 1.0, 1.0)
        out = S.Stepper(spec, grid, eps=0.0).step(np.zeros((16, 16)), t=0.45)
        assert np.all(out == 0.0)

    def test_constant_preserved(self):
        # zero x-flux and s-end data equal to the constant: every interface
        # flux is the same, so one step leaves 0.37 bit for bit
        spec = nosource_spec().with_data(flux_phi=(E.parse("0"),),
                                         data_u0_2=E.parse("0.37"),
                                         data_uS_2=E.parse("0.37"))
        grid = Grid(16, 16, 1.0, 1.0)
        for kind in (S.ENGQUIST_OSHER, S.LAX_FRIEDRICHS):
            opts = S.SchemeOptions(flux_kind=kind, x_diffusion=False)
            stepper = S.Stepper(spec, grid, eps=0.0, options=opts)
            out = stepper.step(np.full((16, 16), 0.37), t=0.0)
            assert np.array_equal(out, np.full((16, 16), 0.37))

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
            out = stepper.step(u, t=0.3)
            assert out.min() >= lo
            assert out.max() <= hi

    @pytest.mark.parametrize("kind", [S.ENGQUIST_OSHER, S.LAX_FRIEDRICHS])
    def test_discrete_entropy_inequality(self, kind):
        # Crandall-Majda cell residuals of |u - k| entropies are nonpositive
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
            out = stepper.step(u, t=0.2)
            w = stepper.padded(u, t=0.2)
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
            ex = eta_pad[:, 1:-1]
            rho -= dt * (ex[:-2, :] - 2 * eta0 + ex[2:, :]) / dx ** 2
            es = eta_pad[1:-1, :]
            rho -= dt * stepper.eps * (es[:, :-2] - 2 * eta0 + es[:, 2:]) / ds ** 2
            assert rho.max() <= 1e-12

    def test_conservation_interior(self):
        # a field on the centre 8x8 cells of a 48x48 grid spreads at most
        # one cell per step, so in 20 steps nothing crosses the boundary
        rng = np.random.default_rng(29)
        spec = nosource_spec()
        grid = Grid(48, 48, 1.0, 1.0)
        stepper = S.Stepper(spec, grid, eps=0.01, gamma=0.0, m_bound=1.0)
        u = np.zeros((48, 48))
        u[20:28, 20:28] = _random_field(rng, Grid(8, 8, 1.0, 1.0))
        mass0 = u.sum() * grid.cell_volume
        for _ in range(20):
            u = stepper.step(u, t=0.1)
            assert abs(u.sum() * grid.cell_volume - mass0) <= 1e-15

    def test_shock_speed(self):
        spec = shock_spec()
        grid = Grid(64, 64, 1.0, 1.0)
        opts = diffusionless_options(stride=8)
        stepper = S.Stepper(spec, grid, options=opts)
        xc, sc = grid.cell_centers()
        u = np.broadcast_to(
            np.asarray(E.evaluate(spec.data_u0_1,
                                  {"x": xc[:, None], "s": sc[None, :]})),
            (64, 64)).astype(float)
        t = 0.0
        while t < 0.6 - 1e-12:
            u = stepper.step(u, t)
            t += stepper.dt
        profile = u[32, :]
        pos = sc[np.argmax(profile < 0.5)]
        expected = 0.4 + 0.5 * t
        assert abs(pos - expected) <= 2 * grid.ds

    def test_nan_detection(self):
        spec = nosource_spec().with_data(data_u0_1=E.parse("0"))
        grid = Grid(8, 8, 1.0, 1.0)
        stepper = S.Stepper(spec, grid, eps=0.0, gamma=0.0, m_bound=1.0,
                            dt=1e6)  # wildly unstable on purpose
        rng = np.random.default_rng(31)
        u = _random_field(rng, grid)
        with pytest.raises(S.NaNDetectedError):
            for _ in range(400):
                u = stepper.step(u, t=0.1)

    def test_table_matches_direct_quadrature(self):
        table = S._SplitTable(BURGERS, radius=2.0)
        rng = np.random.default_rng(37)
        for _ in range(30):
            uL, uR = rng.uniform(-1.5, 1.5, size=2)
            direct = _eo_direct(uL, uR, BURGERS)
            via_table = float(table.flux(np.array([uL]), np.array([uR]))[0])
            assert via_table == pytest.approx(direct, abs=1e-6)


def _probe_points(table, rng):
    """Random points, every table node and its two neighbouring doubles,
    and points beyond both ends of the table."""
    nodes = table.nodes
    return np.concatenate([
        rng.uniform(-1.5 * nodes[-1], 1.5 * nodes[-1], 100_000),
        nodes, np.nextafter(nodes, np.inf), np.nextafter(nodes, -np.inf),
        [-1e300, 2.0 * nodes[0], 2.0 * nodes[-1], 1e300]])


class TestPerCellValues:
    """``values``/``combine`` and the complex table, bit for bit."""

    @pytest.mark.parametrize("text", ["lambda^2/2", "sin(3*lambda)",
                                      "exp(lambda) - 1"])
    def test_complex_lookup_is_two_real_lookups(self, text):
        table = S._SplitTable(E.parse(text), radius=2.0)
        f_plus, f_minus = table.table.real.copy(), table.table.imag.copy()
        pts = _probe_points(table, np.random.default_rng(7))
        # many points and few: np.interp precomputes slopes only for many
        for p in (pts, pts[:3]):
            both = np.interp(p, table.nodes, table.table)
            assert np.array_equal(both.real, np.interp(p, table.nodes, f_plus))
            assert np.array_equal(both.imag, np.interp(p, table.nodes, f_minus))

    @pytest.mark.parametrize("kind", ["table", "lf"])
    def test_combine_of_values_is_flux(self, kind):
        f = E.parse("sin(3*lambda) + lambda^2/2")
        table = S._SplitTable(f, radius=2.0)
        flux = table if kind == "table" else S._LFFlux(f, 4.0)
        rng = np.random.default_rng(11)
        pts = _probe_points(table, rng)
        if kind == "lf":
            pts = pts[np.abs(pts) < 1e100]   # f(1e300) overflows
        wL = pts
        wR = rng.permutation(pts)
        # the flux as it was computed before the per-cell split
        if kind == "table":
            want = (table.f0
                    + np.interp(wL, table.nodes, table.table.real.copy())
                    + np.interp(wR, table.nodes, table.table.imag.copy()))
        else:
            want = (0.5 * (E.evaluate(f, {"lambda": wL})
                           + E.evaluate(f, {"lambda": wR}))
                    - 0.5 * 4.0 * (wR - wL))
        got = flux.combine(flux.values(wL), flux.values(wR), wL, wR)
        assert np.array_equal(got, want)
        assert np.array_equal(flux.flux(wL, wR), want)

    @pytest.mark.parametrize("kind", ["table", "lf"])
    def test_values_of_a_strip_slice_like_the_slices(self, kind):
        # the step looks up a padded strip once and slices the result
        table = S._SplitTable(BURGERS, radius=2.0)
        flux = table if kind == "table" else S._LFFlux(BURGERS, 2.0)
        w = np.random.default_rng(13).uniform(-1.5, 1.5, (18, 18))
        wx = w[:, 1:-1]
        v = flux.values(wx)
        assert np.array_equal(v[:-1], flux.values(wx[:-1]))
        assert np.array_equal(v[1:], flux.values(wx[1:]))

    def test_lf_values_of_a_constant_flux_have_the_cell_shape(self):
        flux = S._LFFlux(E.parse("0"), 1.0)
        w = np.ones((4, 5))
        assert flux.values(w).shape == (4, 5)
        assert np.array_equal(flux.combine(flux.values(w[:-1]),
                                           flux.values(w[1:]), w[:-1], w[1:]),
                              np.zeros((3, 5)))


class TestSourceRate:
    def test_matches_the_kernel_on_both_sides_of_its_support(self):
        spec = source_spec()
        stepper = S.Stepper(spec, Grid(8, 8, 1.0, 1.0))
        tau, gamma, half = spec.tau, stepper.gamma, 0.5 * stepper.dt
        edges = [tau - gamma, tau]
        starts = [0.0, 0.3, tau + 0.2, stepper.dt * 100]
        for c in edges:
            for tc in (c, np.nextafter(c, -1.0), np.nextafter(c, 2.0),
                       c - 1e-3, c + 1e-3):
                starts.append(tc - half)
        starts += [t for t in np.arange(stepper.n_steps) * stepper.dt
                   if tau - gamma - 0.01 < t < tau + 0.01]
        inside = 0
        for t in starts:
            want = float(kernels.k_gamma(t + half, tau, gamma))
            got = stepper.source_rate(t)
            assert got == want and np.signbit(got) == np.signbit(want)
            inside += want != 0.0
        assert 0 < inside < len(starts)


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
        def counting(expr):
            fn, free = E.compile(expr)
            key = E.to_string(expr)

            def counted(b):
                counts[key] = counts.get(key, 0) + 1
                return fn(b)
            return counted, free
        monkeypatch.setattr(S, "exprdsl", SimpleNamespace(
            compile=counting, evaluate=E.evaluate, eval_dual=E.eval_dual))

    def test_time_dependent_data_are_evaluated_at_each_t(self, monkeypatch):
        spec = unattainable_spec()
        counts = {}
        self._counting_compile(monkeypatch, counts)
        stepper = S.Stepper(spec, Grid(16, 16, 1.0, 1.0))
        early, late = stepper.boundary_values(0.05), stepper.boundary_values(0.6)
        for t, rows in ((0.05, early), (0.6, late)):
            for got, want in zip(rows, self._direct(spec, stepper, t)):
                assert np.array_equal(got, want)
        assert not np.array_equal(early[0], late[0])
        assert not np.array_equal(early[1], late[1])
        assert set(counts.values()) == {2}
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
            u = stepper.step(u, n * stepper.dt)
        rows = stepper.boundary_values(0.0)
        assert stepper.boundary_values(0.7) is rows
        assert counts["0.1 * sin(3.0 * x)"] == 1 and counts["0.0"] == 1
        for row, want in zip(rows, self._direct(spec, stepper, 0.3)):
            assert np.array_equal(row, want)
            assert not row.flags.writeable
        assert np.count_nonzero(rows[0]) > 0
