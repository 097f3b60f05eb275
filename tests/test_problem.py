import math
import tracemalloc

import numpy as np
import pytest

from upkolmo import exprdsl as E
from upkolmo import kernels
from upkolmo import problem as P
from upkolmo.scheme import Stepper
from scenarios import source_spec, nosource_spec, unit_grid


def const_data_spec(u01="1", u02="1", uS2="1", **kwargs):
    defaults = dict(d=1, L=1.0, T=1.0, S=1.0,
                    flux_a=E.parse("lambda^2/2"),
                    flux_phi=(E.parse("lambda^2/2"),),
                    data_u0_1=E.parse(u01),
                    data_u0_2=E.parse(u02),
                    data_uS_2=E.parse(uS2),
                    tau=0.5, gamma=0.0, epsilon=0.0)
    defaults.update(kwargs)
    return P.ProblemSpec(**defaults)


class TestConsistency:
    def test_clean_spec(self):
        assert P.consistency_errors(source_spec()) == []

    def test_flux_not_anchored(self):
        spec = source_spec().with_data(flux_a=E.parse("lambda + 0.3"))
        errors = P.consistency_errors(spec)
        assert any("a(0) = 0.3" in e for e in errors)

    def test_gamma_budget(self):
        spec = source_spec().with_data(gamma=0.3)  # gamma0/2 = 0.25
        errors = P.consistency_errors(spec)
        assert any("gamma0" in e for e in errors)

    def test_collar_violation(self):
        spec = source_spec().with_data(data_u0_1=E.parse("1"))
        errors = P.consistency_errors(spec)
        assert any("u0_1" in e and "collar" in e for e in errors)

    def test_boundary_data_collar(self):
        spec = source_spec().with_data(data_u0_2=E.parse("t"))
        errors = P.consistency_errors(spec)
        assert any("u0_2" in e for e in errors)

    def test_dimension_guard(self):
        spec = source_spec().with_data(d=2, flux_phi=(E.parse("0"),
                                                      E.parse("0")))
        errors = P.consistency_errors(spec)
        assert any("d=2" in e for e in errors)

    def test_tau_inside_horizon(self):
        spec = source_spec().with_data(tau=1.5)
        errors = P.consistency_errors(spec)
        assert any("tau" in e for e in errors)


class TestGridField:
    def test_spacing(self):
        g = P.Grid(nx=64, ns=128, L=2.0, S=1.0)
        assert g.dx == pytest.approx(2.0 / 64)
        assert g.ds == pytest.approx(1.0 / 128)
        assert g.nx * g.dx == pytest.approx(g.L)
        assert g.ns * g.ds == pytest.approx(g.S)

    def test_field_norms(self):
        g = P.Grid(nx=4, ns=4, L=1.0, S=1.0)
        f = P.Field(np.full((4, 4), -2.0), g, 0.0)
        assert f.sup_norm() == 2.0

    def test_trajectory_strictly_increasing(self):
        g = P.Grid(nx=2, ns=2, L=1.0, S=1.0)
        traj = P.Trajectory(grid=g)
        traj.append(0.0, P.Field(np.zeros((2, 2)), g, 0.0))
        with pytest.raises(ValueError):
            traj.append(0.0, P.Field(np.zeros((2, 2)), g, 0.0))


def _data_norm(spec, t):
    return max(P.data_sup_norms(spec, (0.0, t)).values())


class TestMaxPrincipleBound:
    def test_no_growth_reduces_to_data_norms(self):
        spec = const_data_spec(u01="0.5", u02="0.25", uS2="0.75")
        m = P.max_principle_bound(1.0, 0.0, 0.0, dnorm=_data_norm(spec, 1.0))
        assert m == pytest.approx(0.75, abs=1e-6)

    def test_zero_data(self):
        spec = const_data_spec(u01="0", u02="0", uS2="0")
        assert P.max_principle_bound(1.0, 0.0, 0.0,
                                     dnorm=_data_norm(spec, 1.0)) \
            == pytest.approx(0.0, abs=1e-9)

    def test_closed_form_target(self):
        # minimize exp(xi) * max(1, 1/sqrt(xi-1)) over xi > 1:
        # optimum at xi = 1.5, value exp(1.5) * sqrt(2)
        spec = const_data_spec()
        m = P.max_principle_bound(1.0, 1.0, 1.0, dnorm=_data_norm(spec, 1.0))
        assert m == pytest.approx(math.exp(1.5) * math.sqrt(2.0), rel=1e-12)

    @staticmethod
    def _searched(t, b1g, b2g, dnorm):
        """The paper's objective minimised by golden-section search over
        xi in [b1g + 1e-9, b1g + 50]."""

        def objective(xi):
            tail = np.sqrt(b2g / (xi - b1g)) if b2g > 0 else 0.0
            return np.exp(xi * t) * max(dnorm, tail)

        return P.golden_section_min(objective, b1g + 1e-9, b1g + 50.0)[1]

    CASES = [(t, b1g, b2g, d) for t in (1e-9, 1e-3, 0.5, 1.0)
             for b1g in (0.0, 1.0, 10.5) for b2g in (0.0, 0.5, 4.14)
             for d in (0.0, 0.1, 0.8)]

    def test_closed_form_against_the_search(self):
        capped = []
        for t, b1g, b2g, d in self.CASES:
            exact = P.max_principle_bound(t, b1g, b2g, d)
            searched = self._searched(t, b1g, b2g, d)
            assert exact <= searched * (1 + 1e-12)
            if d > 0 and b2g / d ** 2 <= 50:
                # the search brackets the minimiser, so only its
                # tolerance separates the two
                assert exact >= searched * (1 - 1e-8)
            elif exact < searched:
                capped.append((t, b1g, b2g, d))
        # the search's cap xi <= b1g + 50 binds below the true minimiser
        assert (1e-3, 0.0, 4.14, 0.1) in capped

    def test_arrays_give_the_scalar_results(self):
        t = np.array([1e-9, 1e-3, 0.5, 1.0])[:, None]
        d = np.array([0.0, 0.1, 0.8])[None, :]
        t, d = np.broadcast_arrays(t, d)
        for b1g in (0.0, 1.0, 10.5):
            for b2g in (0.0, 0.5, 4.14):
                got = P.max_principle_bound(t, b1g, b2g, d)
                assert got.shape == t.shape
                assert got.ravel().tolist() == [
                    P.max_principle_bound(ti, b1g, b2g, di)
                    for ti, di in zip(t.ravel(), d.ravel())]

    def test_monotone_in_arguments(self):
        rng = np.random.default_rng(21)
        spec = const_data_spec(u01="0.8", u02="0.3", uS2="0.1")

        def bound(t, b1g, b2g):
            return P.max_principle_bound(t, b1g, b2g,
                                         dnorm=_data_norm(spec, t))

        for _ in range(20):
            t1, t2 = np.sort(rng.uniform(0.05, 1.0, size=2))
            b1a, b1b = np.sort(rng.uniform(0.0, 2.0, size=2))
            b2a, b2b = np.sort(rng.uniform(0.0, 2.0, size=2))
            assert bound(t1, b1a, b2a) <= bound(t2, b1a, b2a) * (1 + 1e-9)
            assert bound(t1, b1a, b2a) <= bound(t1, b1b, b2a) * (1 + 1e-9)
            assert bound(t1, b1a, b2a) <= bound(t1, b1a, b2b) * (1 + 1e-9)


class TestRefinedMaxBound:
    def test_cutoff_within_data_range(self):
        # b1 <= ||u0_1|| - 1: flat branch, bound is the data norm
        spec = const_data_spec(u01="2", u02="1", uS2="1",
                               beta=E.parse("0"), b1=1.0, gamma=0.1)
        assert P.refined_max_bound(spec, 1.0) == pytest.approx(2.0, abs=1e-9)

    def test_no_perturbation_flat_branch(self):
        spec = const_data_spec(u01="2", u02="0.5", uS2="1")  # beta None, b1=0
        assert P.refined_max_bound(spec, 0.7) == pytest.approx(2.0, abs=1e-9)

    def test_exponent_value(self):
        # b1 = 1, ||u0_1|| = 1, tau = 0.5, T = 1: gamma0 = 0.5 and
        # xi* = 2/(2 tau - gamma0) * ln 2 = 4 ln 2, so M7(1) = 2^4
        spec = const_data_spec(u01="1", u02="0", uS2="0",
                               beta=E.parse("0"), b1=1.0, gamma=0.1)
        got = P.refined_max_bound(spec, 1.0)
        assert got == pytest.approx(math.exp(4 * math.log(2.0)), rel=1e-9)
        assert got == pytest.approx(16.0, rel=1e-9)

    def test_zero_initial_data_rejected(self):
        spec = const_data_spec(u01="0", u02="0", uS2="0",
                               beta=E.parse("0"), b1=1.0, gamma=0.1)
        with pytest.raises(P.ZeroInitialDataError):
            P.refined_max_bound(spec, 1.0)


def _rhs_at(spec, t, d_init, d_s0, d_sS, m1, thetas=None):
    """``stability_rhs`` of two runs of ``spec`` at the single time t, with
    the steps spanning T."""
    n = len(d_s0)
    thetas = np.zeros(n) if thetas is None else thetas
    return P.stability_rhs(spec, spec, [t], d_init, d_s0, d_sS, thetas, [m1],
                           spec.T / n)[0]


def _march_thetas(stepper):
    """The kernel mass of every step of the march, from the stepper."""
    return [stepper.source_rate(n * stepper.dt)
            for n in range(stepper.n_steps)]


class TestStabilityRhs:
    def test_no_source_form(self):
        spec = nosource_spec()
        n = 100
        d_s0 = np.full(n, 0.2)
        d_sS = np.full(n, 0.1)
        # max|a'| over [-m1, m1] with a = l^2/2 is m1
        m1 = 2.0
        got = _rhs_at(spec, 1.0, 0.5, d_s0, d_sS, m1=m1)
        assert got == pytest.approx(0.5 + m1 * 0.3, rel=1e-12)

    def test_identical_data(self):
        spec = nosource_spec()
        got = _rhs_at(spec, 1.0, 0.0, np.zeros(50), np.zeros(50), m1=1.0)
        assert got == 0.0

    def test_additive_in_initial_distance(self):
        spec = nosource_spec()
        zeros = np.zeros(50)
        a = _rhs_at(spec, 1.0, 1.0, zeros, zeros, m1=1.0)
        b = _rhs_at(spec, 1.0, 2.0, zeros, zeros, m1=1.0)
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_gronwall_weight_accumulates_kernel_mass(self):
        # the weight is the product of the kick gains 1 + theta_n b0: never
        # above exp(b0 sum theta) = exp(b0), and close to it for small steps
        spec = source_spec(gamma=0.1)
        stepper = Stepper(spec, unit_grid(16), dt=1.0 / 4096)
        b0 = kernels.estimate_dbeta_sup(spec.beta, spec.L, spec.S, spec.b1)
        zeros = np.zeros(stepper.n_steps)
        got = _rhs_at(spec, 1.0, 1.0, zeros, zeros, m1=1.0,
                      thetas=_march_thetas(stepper))
        assert got <= math.exp(b0) * (1 + 1e-12)
        assert got == pytest.approx(math.exp(b0), rel=1e-3)

    @pytest.mark.parametrize("cells", [16, 32, 64])
    def test_gronwall_weight_is_the_mass_the_march_applies(self, cells):
        # at the run's own dt the weight at T is the product of the gains
        # of the kicks the march applies, whose masses add up to 1
        spec = source_spec()
        stepper = Stepper(spec, unit_grid(cells))
        b0 = kernels.estimate_dbeta_sup(spec.beta, spec.L, spec.S, spec.b1)
        thetas = _march_thetas(stepper)
        assert sum(thetas) == pytest.approx(1.0, rel=1e-14)
        zeros = np.zeros(stepper.n_steps)
        got, = P.stability_rhs(spec, spec, [spec.T], 1.0, zeros, zeros,
                               thetas, [1.0], stepper.dt)
        assert got == pytest.approx(math.prod(1 + b0 * th for th in thetas),
                                    rel=1e-14)
        assert got < math.exp(b0)

    @staticmethod
    def _spy_curves(monkeypatch):
        curves = []
        real = P._deriv_max_curve

        def spy(expr, m1):
            curves.append(list(m1))
            return real(expr, m1)

        monkeypatch.setattr(P, "_deriv_max_curve", spy)
        return curves

    def test_max_a_prime_sampled_once_per_curve(self, monkeypatch):
        curves = self._spy_curves(monkeypatch)
        spec = nosource_spec()
        times = [0.1, 0.2, 0.3, 0.4, 0.5]
        m1 = [1.0, 1.0, 2.0, 2.0, 1.0]
        d = np.full(100, 0.1)
        got = P.stability_rhs(spec, spec, times, 0.5, d, d, np.zeros(100),
                              m1, spec.T / 100)
        # one curve: the running max of m1, which bounds every earlier step
        running = [1.0, 1.0, 2.0, 2.0, 2.0]
        assert curves == [running]
        # max|a'| over [-m, m] with a = l^2/2 is m, read at most one node
        # spacing, m/2048 here, further out
        for g, t, m in zip(got, times, running):
            assert (0.5 + m * 0.2 * t * (1 - 1e-12) <= g
                    <= 0.5 + m * (1 + 1 / 2048) * 0.2 * t * (1 + 1e-12))

    def test_regularized_ghost_adds_eps_over_ds(self):
        spec = nosource_spec()
        d = np.full(100, 0.1)
        times = [0.5, 1.0]
        zeros = np.zeros(100)
        plain = P.stability_rhs(spec, spec, times, 0.5, d, d, zeros, [1.0] * 2,
                                0.01)
        ghost = P.stability_rhs(spec, spec, times, 0.5, d, d, zeros, [1.0] * 2,
                                0.01, eps_ds=0.4)
        for t, p, g in zip(times, plain, ghost):
            assert g - p == pytest.approx(0.4 * 0.2 * t, rel=1e-12)


class TestStabilityRhsImpulsive:
    def test_pre_jump_curve_is_the_sourceless_estimate_over_m4(self):
        # the gamma = 0 kick is the step with theta = 1, the one ending at
        # n_tau: before it the curve is the sourceless estimate over the
        # same m1; from it on, the weight 1 + b0 and the beta difference
        spec = source_spec()
        other = spec.with_data(beta=E.parse(f"0.7*{E.to_string(spec.beta)}"))
        m4 = P.impulsive_bounds(spec)[1]
        stepper = Stepper(spec, unit_grid(16), gamma=0.0, dt=spec.T / 200)
        thetas = _march_thetas(stepper)
        assert thetas.count(1.0) == 1 and sum(thetas) == 1.0
        n = stepper.n_steps
        dt = stepper.dt
        d_s0 = np.linspace(0.0, 0.02, n)
        d_sS = np.linspace(0.01, 0.0, n)
        times = [k * 20 * dt for k in range(11)]
        m1 = [m4] * len(times)
        pre = P.stability_rhs(spec, spec, times, 0.1, d_s0, d_sS, np.zeros(n),
                              m1, dt)
        got = P.stability_rhs(spec, other, times, 0.1, d_s0, d_sS, thetas,
                              m1, dt)
        b0 = kernels.estimate_dbeta_sup(spec.beta, spec.L, spec.S, spec.b1)
        dbeta = 0.3 * P.slab_sup(spec, spec.beta, spec.b1 + 1.0)
        for t, g, p in zip(times, got, pre):
            if round(t / dt) < stepper.n_tau:
                assert g == p
            else:
                assert g > (1 + b0) * p * (1 - 1e-12)
                assert g > dbeta
        assert {round(t / dt) < stepper.n_tau for t in times} == {True, False}


class TestDerivMaxCurve:
    def test_safe_side_on_burgers(self):
        # a = l^2/2: max|a'| over [-m, m] is m, and the node spacing at
        # radius m is max(m, m_min)/2048
        curve = np.array([0.0, 0.37, 0.3701, 0.5, 1.0, 2.0, 7.3, 153.6, 0.37])
        got = P._deriv_max_curve(E.parse("lambda^2/2"), curve)
        h = np.maximum(curve, 0.37) / 2048
        assert got[0] == 0.0
        assert np.all(got >= curve)
        assert np.all(got < curve + h * (1 + 1e-12))

    def test_one_value_is_the_sampled_max(self):
        # a curve of one value samples [-m, m] at 4097 points, as
        # sampled_deriv_max does
        f = E.parse("sin(3*lambda) - lambda^3")
        for m in (0.3, 1.863):
            got, = P._deriv_max_curve(f, [m])
            assert got == pytest.approx(P.sampled_deriv_max(f, -m, m),
                                        rel=1e-12)

    def test_non_finite_bound_reads_inf(self):
        got = P._deriv_max_curve(E.parse("lambda^2/2"), [1.0, np.inf, np.nan])
        assert got.tolist() == [1.0, np.inf, np.inf]


class TestImpulsiveBounds:
    def test_no_perturbation(self):
        spec = const_data_spec(u01="0.5", u02="0.25", uS2="0.25")
        m2, m3 = P.impulsive_bounds(spec)
        assert m2 == pytest.approx(0.5)
        assert m3 == pytest.approx(max(m2, 0.25))

    def test_constant_initial_data(self):
        spec = const_data_spec(u01="0.7", u02="0", uS2="0")
        m2, _ = P.impulsive_bounds(spec)
        assert m2 == pytest.approx(0.7)

    def test_constant_perturbation_raises_m3(self):
        spec = const_data_spec(u01="1", u02="0", uS2="0",
                               beta=E.parse("0.5"), b1=1.0)
        m2, m3 = P.impulsive_bounds(spec)
        assert m2 == pytest.approx(1.0)
        assert m3 >= 1.5

    def test_m3_is_m2_plus_the_kick_over_the_pre_jump_range(self):
        spec = source_spec()
        m2, m3 = P.impulsive_bounds(spec)
        assert m2 == max(P.data_sup_norms(spec, (0.0, spec.tau)).values())
        assert m3 == m2 + P.slab_sup(spec, spec.beta, m2) > m2

    def test_m3_dominates_m2(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            amp = rng.uniform(0.1, 2.0)
            spec = const_data_spec(u01=f"{amp}", u02="0", uS2="0",
                                   beta=E.parse("0.3*cos(lambda)"), b1=2.0)
            m2, m3 = P.impulsive_bounds(spec)
            assert m3 >= m2


def test_describe_hash_stable():
    spec = source_spec()
    assert spec.context_hash() == spec.context_hash()
    assert spec.context_hash() != source_spec(beta_amp=0.3).context_hash()


def _sample_sup_meshgrid(expr, names, ranges, n=256, inflate=1.0):
    """``sample_sup`` as it was before it sampled on open axes."""
    axes = [np.linspace(lo, hi, n) for lo, hi in ranges]
    grids = np.meshgrid(*axes, indexing="ij")
    vals = E.evaluate(expr, dict(zip(names, grids)))
    vals = np.broadcast_to(np.asarray(vals, dtype=float), grids[0].shape)
    return float(np.max(np.abs(vals))) * inflate


class TestSampleSupOpenAxes:
    @pytest.mark.parametrize("text", [
        "0", "-0.7",                                  # constant
        "sin(7*x) * exp(-x)",                         # x only
        "(max(0, 1-((t-0.5)/0.35)^2))^2 - 0.3",       # t only
        "x*(1-x)*cos(5*t) + tanh(x - t)",             # every variable
        "min(1, max(0, (t-0.1)*2))*(max(0, 1-((x-0.5)/0.35)^2))^2",
    ])
    def test_matches_meshgrid_sampling(self, text):
        expr = E.parse(text)
        ranges = [(0.0, 1.0), (0.0, 0.73)]
        for inflate in (1.0, 1.01):
            assert (P.sample_sup(expr, ("x", "t"), ranges, inflate=inflate)
                    == _sample_sup_meshgrid(expr, ("x", "t"), ranges,
                                            inflate=inflate))

    def test_matches_meshgrid_sampling_in_three_axes(self):
        beta = source_spec().beta
        names = ("x", "s", "lambda")
        ranges = [(0.0, 1.0), (0.0, 1.0), (-2.5, 2.5)]
        assert (P.sample_sup(beta, names, ranges, n=64)
                == _sample_sup_meshgrid(beta, names, ranges, n=64))


# --- the samplers `sample_sup` replaced ---------------------------------------
#
# Each copy below built its own grid; `sample_sup`, with one count per
# axis and the `wrt` mode, must return the same float, bit for bit.

def _dbeta_sup_reference(beta, L, S, b1, shape=(64, 64, 256)):
    nx, ns, nl = shape
    grid = {"x": np.linspace(0.0, L, nx)[:, None, None],
            "s": np.linspace(0.0, S, ns)[None, :, None],
            "lambda": np.linspace(-(b1 + 1.0), b1 + 1.0, nl)[None, None, :]}
    _, d = E.eval_dual(beta, grid, "lambda")
    return float(np.max(np.abs(d)))


def _beta0_sup_reference(beta, L, S, n=256):
    xs = np.linspace(0.0, L, n)
    ss = np.linspace(0.0, S, n)
    vals = E.evaluate(beta, {"x": xs[:, None], "s": ss[None, :],
                             "lambda": 0.0})
    return float(np.max(np.abs(vals)))


def _deriv_max_reference(expr, lo, hi, n=4097):
    lam = np.linspace(lo, hi, n)
    _, d = E.eval_dual(expr, {"lambda": lam}, "lambda")
    return float(np.max(np.abs(d)))


BETAS = [
    source_spec().beta,                              # the bench's beta
    E.parse("0.7"),                                  # constant
    E.parse("0.3*sin(lambda)"),                      # lambda only
    E.parse("x*(1-x)*s + 0.2"),                      # lambda-free
    E.parse("exp(-lambda^2)*cos(3*x) - tanh(s*lambda)"),
    E.parse("min(abs(lambda - 0.3), 1 - x) * max(s, sqrt(1 + lambda^2))"),
]


class TestSampleSupAgainstTheSamplersItReplaced:
    @pytest.mark.parametrize("beta", BETAS, ids=E.to_string)
    @pytest.mark.parametrize("L, S, b1", [(1.0, 1.0, 2.0), (0.7, 1.3, 0.5)])
    def test_dbeta_sup(self, beta, L, S, b1):
        want = _dbeta_sup_reference(beta, L, S, b1)
        assert kernels.estimate_dbeta_sup(beta, L, S, b1) == want

    @pytest.mark.parametrize("beta", BETAS, ids=E.to_string)
    @pytest.mark.parametrize("L, S", [(1.0, 1.0), (0.7, 1.3)])
    def test_beta0_sup_on_a_one_point_axis(self, beta, L, S):
        got = P.sample_sup(beta, ("x", "s", "lambda"),
                           [(0.0, L), (0.0, S), (0.0, 0.0)], n=(256, 256, 1))
        assert got == _beta0_sup_reference(beta, L, S)

    def test_beta0_sup_in_the_growth_constants(self):
        beta = source_spec().beta
        b0 = kernels.estimate_dbeta_sup(beta, 1.0, 1.0, 1.0)
        omega0 = float(kernels.omega(0.0))
        beta0 = _beta0_sup_reference(beta, 1.0, 1.0)
        assert kernels.source_growth_constants(beta, 0.1) == (
            2.0 / 0.1 * omega0 * (b0 + 0.5 * beta0),
            1.0 / 0.1 * omega0 * beta0)

    @pytest.mark.parametrize("text", [
        "lambda^2/2", "lambda", "0", "sin(3*lambda) - lambda^3",
        "max(lambda, 0)^2", "abs(lambda)"])
    @pytest.mark.parametrize("lo, hi", [(-1.863, 1.863), (0.0, 0.5)])
    def test_sampled_deriv_max(self, text, lo, hi):
        expr = E.parse(text)
        assert P.sampled_deriv_max(expr, lo, hi) == \
            _deriv_max_reference(expr, lo, hi)

    def test_one_count_per_axis(self):
        # a per-axis count equal on every axis is the single count
        beta = source_spec().beta
        ranges = [(0.0, 1.0), (0.0, 1.0), (-2.5, 2.5)]
        names = ("x", "s", "lambda")
        assert (P.sample_sup(beta, names, ranges, n=(64, 64, 64))
                == P.sample_sup(beta, names, ranges, n=64))
        for wrt in ("lambda", "x"):
            assert (P.sample_sup(beta, names, ranges, n=(64, 64, 64), wrt=wrt)
                    == P.sample_sup(beta, names, ranges, n=64, wrt=wrt))

    def test_slab_sup_of_no_perturbation_is_zero(self):
        assert P.slab_sup(source_spec(), None, 2.0) == 0.0


class TestJumpSlopeSampling:
    def _reference(self, spec, n=64):
        """The jump map's slope, sampled in one evaluation of the box."""
        radius = P.impulsive_bounds(spec, inflate=P.NORM_INFLATION)[0]
        axes = {"x": np.linspace(0.0, spec.L, n)[:, None, None],
                "s": np.linspace(0.0, spec.S, n)[None, :, None],
                "lambda": np.linspace(-radius, radius, n)[None, None, :]}
        _, d = E.eval_dual(spec.beta, axes, "lambda")
        return 1.0 + float(np.min(d))

    @pytest.mark.parametrize("text", [
        None, "-1.5*lambda*(max(0, 1-((x-0.5)/0.35)^2))^2",
        "0.3*sin(4*lambda)*s - x", "0.7"])
    def test_min_slope_matches_one_evaluation(self, text):
        spec = source_spec()
        if text is not None:
            spec = spec.with_data(beta=E.parse(text))
        assert P.min_jump_slope(spec) == self._reference(spec)
        assert P.min_jump_slope(spec, n=70) == self._reference(spec, n=70)

    def test_peaks_below_4_mib(self):
        # 64^3 samples and the impulsive bounds' own sampling; the one
        # evaluation of the box peaked at 6.2 MiB
        spec = source_spec()
        P.impulsive_bounds.cache_clear()
        tracemalloc.start()
        try:
            P.min_jump_slope(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_impulsive_bounds_are_sampled_once_per_key(self):
        spec = source_spec()
        P.impulsive_bounds.cache_clear()
        first = P.impulsive_bounds(spec, inflate=P.NORM_INFLATION)
        assert P.impulsive_bounds(spec, inflate=P.NORM_INFLATION) is first
        assert P.impulsive_bounds(spec) != first
        info = P.impulsive_bounds.cache_info()
        assert (info.misses, info.hits) == (2, 1)
