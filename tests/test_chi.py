import tracemalloc

import numpy as np
import pytest

from upkolmo import chi as C
from upkolmo import exprdsl as E
from upkolmo.problem import Field, Grid
from scenarios import source_spec


class TestChi:
    def test_positive_branch(self):
        assert C.chi(1.0, 2.0) == 1

    def test_negative_branch(self):
        assert C.chi(-0.5, -1.0) == -1

    def test_outside(self):
        assert C.chi(0.5, 0.2) == 0
        assert C.chi(-3.0, 1.0) == 0

    def test_breakpoints_are_zero(self):
        assert C.chi(0.0, 1.0) == 0
        assert C.chi(1.0, 1.0) == 0

    def test_sign_bound(self):
        rng = np.random.default_rng(3)
        lam = rng.uniform(-5, 5, size=1000)
        v = rng.uniform(-5, 5)
        vals = C.chi(lam, v)
        assert np.all(vals * np.sign(lam) >= 0)
        assert np.all(vals * np.sign(lam) <= 1)

    def test_support(self):
        lam = np.linspace(-5, 5, 1001)
        vals = C.chi(lam, 2.5)
        assert np.all(vals[np.abs(lam) > 2.5] == 0)


def _chi_integral(weight, v, Lambda, n_cells):
    """Midpoint rule for int weight(lambda) chi(lambda; v) over
    [-Lambda, Lambda], on the lambda grid of ``kinetic_impulse_residual``."""
    lam, dlam = C._midpoints(Lambda, n_cells)
    return float(np.sum(weight(lam) * C.chi(lam, v)) * dlam)


def _chi_distance(v, w, Lambda, n_cells):
    """Midpoint rule for int |chi(lambda; v) - chi(lambda; w)|."""
    lam, dlam = C._midpoints(Lambda, n_cells)
    return float(np.sum(np.abs(C.chi(lam, v) - C.chi(lam, w))) * dlam)


class TestChiIntegral:
    """int psi'(lambda) chi(lambda; v) dlambda = psi(v) - psi(0)."""

    def test_unit_weight_recovers_value(self):
        got = _chi_integral(np.ones_like, 3.0, 10.0, 1024)
        assert abs(got - 3.0) <= 20.0 / 1024

    def test_zero_value(self):
        assert _chi_integral(np.ones_like, 0.0, 10.0, 1024) == 0.0

    def test_linear_weight(self):
        # antiderivative lambda^2/2: expect 2^2/2 - 0 = 2
        got = _chi_integral(lambda lam: lam, 2.0, 10.0, 4096)
        assert got == pytest.approx(2.0, abs=4 * 20.0 / 4096)

    def test_random_values_within_cell(self):
        rng = np.random.default_rng(11)
        dlam = 20.0 / 1024
        for v in rng.uniform(-10, 10, size=200):
            got = _chi_integral(np.ones_like, float(v), 10.0, 1024)
            assert abs(got - v) <= dlam


class TestChiDistance:
    """int |chi(lambda; v) - chi(lambda; w)| dlambda = |v - w|, the identity
    behind the L1 stability estimate."""

    def test_separated_values(self):
        got = _chi_distance(2.0, -1.0, 10.0, 1024)
        assert abs(got - 3.0) <= 20.0 / 1024

    def test_equal_values(self):
        assert _chi_distance(5.0, 5.0, 10.0, 1024) == 0.0

    def test_same_sign(self):
        # piecewise: the difference is the indicator of (0.2, 0.7)
        got = _chi_distance(0.7, 0.2, 10.0, 4096)
        assert got == pytest.approx(0.5, abs=20.0 / 4096)

    def test_random_pairs_within_cell(self):
        rng = np.random.default_rng(12)
        dlam = 20.0 / 1024
        for _ in range(200):
            v, w = rng.uniform(-10, 10, size=2)
            got = _chi_distance(float(v), float(w), 10.0, 1024)
            assert abs(got - abs(v - w)) <= dlam


def test_difference_idempotence_pointwise():
    # |chi(.;v) - chi(.;w)| takes values in {0, 1}, so it equals its square
    rng = np.random.default_rng(13)
    lam = -10.0 + (np.arange(1024) + 0.5) * (20.0 / 1024)
    for _ in range(50):
        v, w = rng.uniform(-9, 9, size=2)
        diff = np.abs(C.chi(lam, v) - C.chi(lam, w))
        assert np.array_equal(diff, diff ** 2)


def _random_smooth_field(rng, grid, amp=1.0):
    xc, sc = grid.cell_centers()
    kx, ks = rng.integers(1, 4, size=2)
    phase = rng.uniform(0, 2 * np.pi)
    vals = amp * np.sin(2 * np.pi * kx * xc[:, None] + phase) \
        * np.cos(2 * np.pi * ks * sc[None, :])
    return Field(vals, grid, 0.0)


class TestKineticImpulseResidual:
    def setup_method(self):
        self.grid = Grid(nx=16, ns=16, L=1.0, S=1.0)

    def test_continuity_case(self):
        rng = np.random.default_rng(5)
        um = _random_smooth_field(rng, self.grid)
        up = Field(um.values.copy(), self.grid, 0.0)
        assert C.kinetic_impulse_residual(um, up, None, 3.0) == (0.0, 1.0)

    def test_continuity_defect_is_the_largest_gap(self):
        # without beta the defect of a cell is |int chi(.; u+) -
        # int chi(.; u-)| = |u+ - u-|, up to one lambda cell per integral
        rng = np.random.default_rng(8)
        um = _random_smooth_field(rng, self.grid)
        up = _random_smooth_field(rng, self.grid)
        m3 = 3.0
        res, _ = C.kinetic_impulse_residual(um, up, None, m3, n_cells=1024)
        gap = float(np.max(np.abs(up.values - um.values)))
        assert gap > 0.5
        assert abs(res - gap) <= 2 * (2 * m3 / 1024)

    def test_constant_shift(self):
        rng = np.random.default_rng(6)
        c = 0.4
        um = _random_smooth_field(rng, self.grid)
        up = Field(um.values + c, self.grid, 0.0)
        beta = E.parse(str(c))
        m3 = 3.0
        res, _ = C.kinetic_impulse_residual(um, up, beta, m3, n_cells=1024)
        dlam = 2 * m3 / 1024
        assert res <= 3 * dlam

    def test_sine_perturbation_single_point(self):
        beta = E.parse("0.1*sin(lambda)")
        grid = Grid(nx=1, ns=1, L=1.0, S=1.0)
        um = Field(np.array([[0.6]]), grid, 0.0)
        up = Field(um.values + 0.1 * np.sin(um.values), grid, 0.0)
        m3 = 2.0
        res, _ = C.kinetic_impulse_residual(um, up, beta, m3, n_cells=1024)
        assert res <= 2 * (2 * m3 / 1024)

    def test_jump_map_property(self):
        # applying the jump map exactly satisfies the kinetic form
        rng = np.random.default_rng(7)
        beta = E.parse("0.1*sin(lambda)*(max(0, 1-(lambda/2)^2))^2")
        b0 = 0.2    # coarse bound on |d beta / d lambda|
        for _ in range(5):
            um = _random_smooth_field(rng, self.grid, amp=0.8)
            xc, sc = self.grid.cell_centers()
            b = E.evaluate(beta, {"x": xc[:, None], "s": sc[None, :],
                                  "lambda": um.values})
            up = Field(um.values + b, self.grid, 0.0)
            m3 = 3.0
            n_cells = 1024
            res, _ = C.kinetic_impulse_residual(um, up, beta, m3,
                                                n_cells=n_cells)
            assert res <= 3 * (2 * m3 / n_cells) * (1 + b0)

    def test_grid_mismatch(self):
        um = Field(np.zeros((4, 4)), Grid(4, 4, 1.0, 1.0), 0.0)
        up = Field(np.zeros((8, 8)), Grid(8, 8, 1.0, 1.0), 0.0)
        with pytest.raises(C.GridMismatchError):
            C.kinetic_impulse_residual(um, up, None, 1.0)


def _kinetic_one_shot(vm, vp, beta, grid, M3, n_cells, weight_radius):
    """``kinetic_impulse_residual`` with every lambda midpoint in one array."""
    lam, dlam = C._midpoints(M3, n_cells)
    lam = lam[:, None, None]
    xc, sc = grid.cell_centers()
    lhs = np.sum(C.chi(lam, vp[None]), axis=0) * dlam
    dbeta = E.evaluate(E.diff(beta, "lambda"), {
        "x": xc[None, :, None], "s": sc[None, None, :], "lambda": lam})
    weight = np.broadcast_to(1.0 + dbeta, (n_cells,) + vm.shape)
    rhs = np.sum(weight * C.chi(lam, vm[None]), axis=0) * dlam
    beta0 = E.evaluate(beta, {"x": xc[:, None], "s": sc[None, :],
                              "lambda": 0.0})
    inside = np.abs(lam.ravel()) <= weight_radius
    return (float(np.max(np.abs(lhs - rhs - beta0))),
            float(np.min(weight[inside])))


class TestKineticResidualInLambdaBlocks:
    @pytest.mark.parametrize("n_cells", [1024, 1000, 37])
    def test_equals_the_one_shot_sum(self, n_cells):
        grid = Grid(nx=16, ns=12, L=1.0, S=1.0)
        beta = source_spec().beta
        rng = np.random.default_rng(9)
        um = _random_smooth_field(rng, grid, amp=0.8)
        xc, sc = grid.cell_centers()
        up = Field(um.values + E.evaluate(beta, {
            "x": xc[:, None], "s": sc[None, :], "lambda": um.values}), grid)
        got = C.kinetic_impulse_residual(um, up, beta, 2.3, n_cells=n_cells,
                                         weight_radius=0.8)
        want = _kinetic_one_shot(um.values, up.values, beta, grid, 2.3,
                                 n_cells, 0.8)
        assert got[0] == pytest.approx(want[0], rel=0, abs=1e-15)
        assert got[1] == want[1]

    def test_peak_memory_of_a_64x64_call(self):
        grid = Grid(nx=64, ns=64, L=1.0, S=1.0)
        beta = source_spec().beta
        um = _random_smooth_field(np.random.default_rng(10), grid, amp=0.8)
        up = Field(um.values + 0.1, grid)
        tracemalloc.start()
        try:
            C.kinetic_impulse_residual(um, up, beta, 2.3, n_cells=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
