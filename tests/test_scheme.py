import numpy as np
import pytest

from upkolmo import exprdsl as E
from upkolmo import kernels
from upkolmo import scheme as S
from upkolmo.problem import Field, Grid
from scenarios import nosource_spec, shock_spec, source_spec, zero_spec, \
    diffusionless_options

BURGERS = E.parse("lambda^2/2")


class TestLaxFriedrichs:
    def test_zero_state(self):
        assert S.lf_flux(0.0, 0.0, BURGERS, 1.0) == 0.0

    def test_hand_value(self):
        # (0.5 + 0.5)/2 - 1*(-1-1)/2 = 1.5
        assert S.lf_flux(1.0, -1.0, BURGERS, 1.0) == pytest.approx(1.5)

    def test_consistency(self):
        assert S.lf_flux(2.0, 2.0, BURGERS, 1.0) == pytest.approx(2.0)

    def test_array_broadcast(self):
        uL = np.array([1.0, 2.0])
        out = S.lf_flux(uL, uL, BURGERS, 0.5)
        assert np.allclose(out, [0.5, 2.0])


class TestEngquistOsher:
    def test_rarefaction_pair(self):
        assert S.eo_flux(-1.0, 1.0, BURGERS) == pytest.approx(0.0, abs=1e-12)

    def test_shock_pair(self):
        assert S.eo_flux(1.0, -1.0, BURGERS) == pytest.approx(1.0, abs=1e-12)

    def test_consistency_identity(self):
        for v in (-1.5, -0.3, 0.0, 0.7, 2.0):
            f_v = float(E.evaluate(BURGERS, {"lambda": v}))
            assert S.eo_flux(v, v, BURGERS) == pytest.approx(f_v, abs=1e-12)

    def test_consistency_smooth_nonconvex(self):
        f = E.parse("sin(lambda)")
        for v in (-2.0, -0.5, 0.4, 1.8):
            f_v = float(np.sin(v))
            assert S.eo_flux(v, v, f) == pytest.approx(f_v, abs=1e-5)

    def test_monotone_probe_direct(self):
        # the direct quadrature's cell count tracks |u|, so the probe allows
        # jitter at the quadrature error scale on flat split stretches
        rng = np.random.default_rng(4)
        f = E.parse("sin(lambda)")  # genuinely non-monotone flux
        h = 1e-4
        for _ in range(50):
            uL, uR = rng.uniform(-2, 2, size=2)
            base = S.eo_flux(uL, uR, f)
            assert S.eo_flux(uL + h, uR, f) >= base - 1e-4
            assert S.eo_flux(uL, uR + h, f) <= base + 1e-4

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


class TestNumericalFlux:
    def test_kinds(self):
        nf = S.NumericalFlux(S.LAX_FRIEDRICHS, BURGERS, alpha=2.0)
        assert nf(1.0, 1.0) == pytest.approx(0.5)
        nf = S.NumericalFlux(S.ENGQUIST_OSHER, BURGERS)
        assert nf(1.0, -1.0) == pytest.approx(1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            S.NumericalFlux("roe", BURGERS)


class TestCfl:
    def test_stated_formula(self):
        # max|a'| = max|phi'| = 1 on [-1,1], dx = ds = 0.1, d = 1:
        # dt = 0.9 / (10 + 10 + 200) ~ 0.004091
        spec = nosource_spec().with_data(flux_a=E.parse("lambda"),
                                         flux_phi=(E.parse("lambda"),))
        grid = Grid(nx=10, ns=10, L=1.0, S=1.0)
        dt = S.cfl_dt(spec, grid, M=1.0, safety=0.9)
        assert dt == pytest.approx(0.9 / 220.0, rel=1e-6)

    def test_pure_heat(self):
        spec = nosource_spec().with_data(flux_a=E.parse("0"),
                                         flux_phi=(E.parse("0"),))
        grid = Grid(nx=16, ns=16, L=1.0, S=1.0)
        dt = S.cfl_dt(spec, grid, M=1.0, safety=0.9)
        assert dt == pytest.approx(0.9 * grid.dx ** 2 / 2.0, rel=1e-12)

    def test_refinement_scaling(self):
        spec = nosource_spec().with_data(flux_a=E.parse("0"),
                                         flux_phi=(E.parse("0"),))
        d1 = S.cfl_dt(spec, Grid(16, 16, 1.0, 1.0), M=1.0, safety=0.9)
        d2 = S.cfl_dt(spec, Grid(32, 16, 1.0, 1.0), M=1.0, safety=0.9)
        assert d1 == pytest.approx(4 * d2, rel=1e-12)

    def test_degenerate_grid(self):
        with pytest.raises(S.DegenerateGridError):
            S.cfl_dt(nosource_spec(), Grid(0, 16, 1.0, 1.0), 1.0, 0.9)

    def test_source_term_enters(self):
        with_src = source_spec(gamma=0.05)
        without = nosource_spec()
        grid = Grid(nx=16, ns=16, L=1.0, S=1.0)
        assert S.cfl_dt(with_src, grid, 1.0, 0.9) \
            < S.cfl_dt(without, grid, 1.0, 0.9)


def _random_field(rng, grid, amp=0.8):
    return amp * (2.0 * rng.random((grid.nx, grid.ns)) - 1.0)


class TestStep:
    def test_zero_fixed_point(self):
        spec = zero_spec()  # perturbation vanishes at value 0
        grid = Grid(16, 16, 1.0, 1.0)
        u = Field(np.zeros((16, 16)), grid, 0.0)
        out = S.step(u, spec, grid, t=0.45, eps=0.0)
        assert np.all(out.values == 0.0)

    def test_constant_preserved_periodic(self):
        spec = nosource_spec()
        grid = Grid(16, 16, 1.0, 1.0)
        opts = S.SchemeOptions(periodic=True)
        u = Field(np.full((16, 16), 0.37), grid, 0.0)
        out = S.step(u, spec, grid, t=0.0, eps=0.0, options=opts)
        assert np.allclose(out.values, 0.37, atol=1e-15)

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

    def test_conservation_periodic(self):
        rng = np.random.default_rng(29)
        spec = nosource_spec()
        grid = Grid(16, 16, 1.0, 1.0)
        opts = S.SchemeOptions(periodic=True)
        stepper = S.Stepper(spec, grid, eps=0.01, gamma=0.0, options=opts,
                            m_bound=1.0)
        u = _random_field(rng, grid)
        mass0 = u.sum() * grid.cell_volume
        for _ in range(20):
            u = stepper.step(u, t=0.1)
            assert abs(u.sum() * grid.cell_volume - mass0) <= 1e-12

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
            direct = S.eo_flux(uL, uR, BURGERS)
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
