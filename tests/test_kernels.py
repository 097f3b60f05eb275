import math
import tracemalloc

import numpy as np
import pytest

from upkolmo import exprdsl as E
from upkolmo import kernels
from upkolmo.scheme import Stepper
from scenarios import source_spec, unit_grid


def dense_simpson(f, a, b, n=20001):
    """Independent quadrature oracle (composite Simpson, n odd)."""
    x = np.linspace(a, b, n)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / (n - 1)
    return h / 3.0 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-2:2].sum())


class TestMollifier:
    def test_vanishes_outside_support(self):
        assert kernels.omega(1.0) == 0.0
        assert kernels.omega(-1.0) == 0.0
        assert kernels.omega(1.7) == 0.0

    def test_even(self):
        assert kernels.omega(-0.3) == kernels.omega(0.3)
        ts = np.linspace(-0.99, 0.99, 101)
        assert np.allclose(kernels.omega(ts), kernels.omega(-ts))

    def test_nonnegative(self):
        ts = np.linspace(-2, 2, 401)
        assert np.all(kernels.omega(ts) >= 0.0)

    def test_unit_mass(self):
        mass = dense_simpson(kernels.omega, -1.0, 1.0)
        assert abs(mass - 1.0) <= 1e-8

    def test_normalization_constant(self):
        # the stored constant is 1 / mass of the raw bump; the trapezoid
        # rule converges spectrally on a bump that vanishes to all orders
        # at both ends, and the classical 4-digit value is 2.2522
        t = np.linspace(-1.0, 1.0, 1025)
        mass = np.trapezoid(kernels._bump_raw(t), t)
        assert kernels._NORM == pytest.approx(1.0 / mass, rel=1e-14)
        assert abs(kernels._NORM - 2.2522) < 1e-3

    def test_peak_value(self):
        # omega(0) = C * exp(-1), frozen from the quadrature oracle
        assert kernels.omega(0.0) == pytest.approx(0.8285688, abs=1e-6)


class TestDelayedKernel:
    def test_zero_after_impulse_time(self):
        for gamma in (0.2, 0.05, 1e-3):
            assert kernels.k_gamma(0.5 + 0.01, 0.5, gamma) == 0.0

    def test_zero_before_window(self):
        assert kernels.k_gamma(0.5 - 2 * 0.1, 0.5, 0.1) == 0.0

    def test_nonnegative(self):
        ts = np.linspace(0, 1, 1001)
        assert np.all(kernels.k_gamma(ts, 0.5, 0.1) >= 0.0)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(kernels.NonPositiveGammaError):
            kernels.k_gamma(0.3, 0.5, 0.0)
        with pytest.raises(kernels.NonPositiveGammaError):
            kernels.k_gamma(0.3, 0.5, -1.0)

    @pytest.mark.parametrize("gamma", [0.2, 0.1, 0.05])
    def test_unit_mass(self, gamma):
        # midpoint rule on 4,096 cells of [0, 1]
        dt = 1.0 / 4096
        mids = (np.arange(4096) + 0.5) * dt
        mass = float(np.sum(kernels.k_gamma(mids, 0.5, gamma)) * dt)
        assert abs(mass - 1.0) <= 1e-8

    @pytest.mark.parametrize("cells", [16, 32, 64])
    def test_unit_mass_the_march_applies(self, cells):
        # the kick masses of the steps telescope to P(T) - P(0) = 1,
        # wherever tau falls in a step (tau/dt = 33.5, 66.5 and 132.5 at
        # the CFL step of 16, 32 and 64 cells, and 64 at dt = 1/128)
        def primitive(t):
            return float(np.interp((t - 0.5) / 0.1,
                                   *kernels.k_gamma_primitive()))

        for dt in (None, 1.0 / 128):
            stepper = Stepper(source_spec(), unit_grid(cells), dt=dt)
            mass = sum(stepper.thetas.tolist())
            assert abs(mass - 1.0) <= 1e-8
            # gamma = 0: the whole mass, exactly 1, on the step that ends
            # at level n_tau = ceil(tau/dt), the first at or after tau
            impulse = Stepper(source_spec(), unit_grid(cells), gamma=0.0,
                              dt=dt)
            thetas = impulse.thetas.tolist()
            n_tau = math.ceil(round(0.5 / impulse.dt, 6))
            assert impulse.n_tau == n_tau
            assert thetas[n_tau - 1] == 1.0
            assert thetas.count(0.0) == len(thetas) - 1
            # the levels' array gives each step's mass, bit for bit as a
            # one-level array does
            for st in (stepper, impulse):
                levels = np.arange(st.n_steps)
                assert st.source_rate(levels).tolist() == \
                    st.thetas.tolist() == \
                    [st.source_rate(levels[n:n + 1])[0]
                     for n in range(st.n_steps)]
                assert not st.thetas.flags.writeable
            # each mass is the kernel's primitive read at the step's two
            # ends, t = n dt and t + dt, bit for bit
            assert stepper.thetas.tolist() == [
                primitive(n * stepper.dt + stepper.dt)
                - primitive(n * stepper.dt) for n in range(stepper.n_steps)]

    def test_mass_independent_quadrature(self):
        # integrate up to the jump at t = tau; the kernel vanishes beyond it
        mass = dense_simpson(lambda t: kernels.k_gamma(t, 0.5, 0.1), 0.0, 0.5,
                             n=40001)
        assert abs(mass - 1.0) <= 1e-8


def _second_moment_error(gamma, tau=0.5):
    # the integral of t^2 dP over the kernel's support [tau - gamma, tau],
    # as the midpoint sum over the table of its primitive P that the
    # march's kick masses read
    z, p = kernels.k_gamma_primitive()
    t = tau + gamma * 0.5 * (z[:-1] + z[1:])
    return abs(float(np.sum(t ** 2 * np.diff(p))) - tau ** 2)


def test_point_impulse_limit_monotone():
    errors = [_second_moment_error(g) for g in (0.2, 0.1, 0.05, 0.025)]
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))


@pytest.mark.xfail(strict=True, reason=(
    "the one-sided kernel's mass centroid sits 0.3345*gamma left of the "
    "impulse time, so the t^2 test error is ~0.334*gamma = 8.3e-3 at "
    "gamma = 0.025; the 1e-3 target would need gamma ~ 0.003 "
    "(see the acceptance suite, criterion 2, which asserts this faithfully)"))
def test_point_impulse_limit_final_error_below_1e3():
    assert _second_moment_error(0.025) < 1e-3


class TestGrowthConstants:
    def test_zero_perturbation(self):
        assert kernels.source_growth_constants(None, 0.1) == (0.0, 0.0)

    def test_constant_perturbation(self):
        c = 0.7
        beta = E.parse(str(c))
        omega0 = float(kernels.omega(0.0))
        for gamma in (0.2, 0.05):
            b1g, b2g = kernels.source_growth_constants(beta, gamma, L=1, S=1,
                                                       b1=1.0)
            assert b1g == pytest.approx(omega0 * c / gamma, rel=1e-12)
            assert b2g == pytest.approx(omega0 * c / gamma, rel=1e-12)

    def test_halving_gamma_doubles_both(self):
        beta = E.parse("0.3*sin(lambda) + 0.2")
        a = kernels.source_growth_constants(beta, 0.2, L=1, S=1, b1=2.0)
        b = kernels.source_growth_constants(beta, 0.1, L=1, S=1, b1=2.0)
        assert b[0] == pytest.approx(2 * a[0], rel=1e-12)
        assert b[1] == pytest.approx(2 * a[1], rel=1e-12)

    def test_sampled_b0_formula(self):
        # d beta / d lambda = 2 everywhere and beta(., ., 0) = 0, so the
        # enclosed b0 is 2 and only it enters b1g
        beta = E.parse("2*lambda")
        b1g, b2g = kernels.source_growth_constants(beta, 0.1, L=1, S=1,
                                                   b1=1.0)
        omega0 = float(kernels.omega(0.0))
        assert b1g == pytest.approx(2.0 / 0.1 * omega0 * 2.0)
        assert b2g == 0.0

    def test_estimated_b0_matches_analytic(self):
        beta = E.parse("0.3*sin(lambda)")
        est = kernels.estimate_dbeta_sup(beta, 1.0, 1.0, 2.0)
        assert est == pytest.approx(0.3, abs=1e-4)

    def test_an_overflowing_slope_is_named(self):
        beta = E.parse("sin(1e300*lambda)*1e9")
        with pytest.raises(E.DomainError, match=(
                r"^d/dlambda of sin\(1e\+300 \* lambda\) \* 1000000000.0: "
                "overflow to a non-finite value$")):
            kernels.estimate_dbeta_sup(beta, 1.0, 1.0, 2.0)

    def test_b0_sampling_peaks_below_4_mib(self):
        # at most 8,192 parts of the slab, each node on the axes it reads;
        # 64 x 64 x 256 samples at once peaked at 24 MiB
        spec = source_spec()
        tracemalloc.start()
        try:
            b0 = kernels.estimate_dbeta_sup(spec.beta, spec.L, spec.S,
                                            spec.b1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        assert b0 == kernels.estimate_dbeta_sup(spec.beta, spec.L, spec.S,
                                                spec.b1)

    def test_b0_is_sampled_once_per_argument_set(self, sup_keys):
        beta = E.parse("0.3*sin(lambda)*x")
        first = kernels.estimate_dbeta_sup(beta, 1.0, 1.0, 2.0)
        # an equal AST parsed again is the same key of ``exprdsl.sup``
        again = kernels.estimate_dbeta_sup(E.parse("0.3*sin(lambda)*x"),
                                           1.0, 1.0, 2.0)
        assert again is first
        assert len(sup_keys) == 2 and E.sup.cache_info().misses == 1
        # another slab is another key
        kernels.estimate_dbeta_sup(beta, 1.0, 1.0, 1.0)
        assert len(set(sup_keys)) == E.sup.cache_info().misses == 2

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(kernels.NonPositiveGammaError):
            kernels.source_growth_constants(E.parse("1"), 0.0, L=1, S=1, b1=1)
