import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from upkolmo import exprdsl as E
from upkolmo import io, kernels
from upkolmo import problem as P
from upkolmo import solver
from upkolmo.scheme import Stepper
from paper_bounds import max_principle_bound
from samplers import sample_max, slab
from scenarios import (BETA_TEXT, LCUT, SBUMP, U01_TEXT, XBUMP, flat_cut,
                       nosource_spec, perturbed_spec, saturated_spec,
                       shock_spec, source_spec, unattainable_spec, unit_grid,
                       zero_spec)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import WORKLOADS, config_text  # noqa: E402


def const_data_spec(u01="1", u02="1", uS2="1", **kwargs):
    defaults = dict(L=1.0, T=1.0, S=1.0,
                    flux_a=E.parse("lambda^2/2"),
                    flux_phi=E.parse("lambda^2/2"),
                    data_u0_1=E.parse(u01),
                    data_u0_2=E.parse(u02),
                    data_uS_2=E.parse(uS2),
                    tau=0.5, gamma=0.0, epsilon=0.0)
    defaults.update(kwargs)
    return P.ProblemSpec(**defaults)


class TestConsistency:
    def test_clean_spec(self):
        assert P.consistency_errors(source_spec()) == []

    @pytest.mark.parametrize("scenario", [
        zero_spec, source_spec, lambda: source_spec(gamma=0.05),
        lambda: perturbed_spec(source_spec(), 0.05), saturated_spec],
        ids=["zero", "source", "source_gamma_0.05", "perturbed", "saturated"])
    def test_every_scenario_beta_vanishes_beyond_b1(self, scenario):
        spec = scenario()
        assert spec.beta is not None
        assert P.consistency_errors(spec) == []

    @pytest.mark.parametrize("text, b1", [
        (f"2*{XBUMP}*{SBUMP}*(0.3 + lambda^2)", 0.1),
        # the source spec's beta reaches 0 at |lambda| = 2, not 1.9
        (BETA_TEXT, 1.9)])
    def test_beta_beyond_b1_is_refused(self, text, b1):
        spec = source_spec().with_data(beta=E.parse(text), b1=b1)
        errors = P.consistency_errors(spec)
        assert len(errors) == 1
        assert errors[0].startswith("source b1: |beta| = ")
        assert f"on b1 = {b1!r} <= |lambda|" in errors[0]

    def test_a_beta_that_overflows_on_its_slab_is_named(self):
        spec = source_spec().with_data(beta=E.parse("exp(1000*lambda)*x"))
        assert P.consistency_errors(spec) == [
            "source beta: cannot be evaluated on its slab: overflow to a "
            "non-finite value"]

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
        traj.append(0, P.Field(np.zeros((2, 2)), g, 0.0))
        with pytest.raises(ValueError):
            traj.append(0, P.Field(np.zeros((2, 2)), g, 0.0))


def _data_norm(spec, t):
    return max(P.data_sup_norms(spec, (0.0, t)).values())


class TestMaxPrincipleBound:
    def test_no_growth_reduces_to_data_norms(self):
        spec = const_data_spec(u01="0.5", u02="0.25", uS2="0.75")
        m = max_principle_bound(1.0, 0.0, 0.0, dnorm=_data_norm(spec, 1.0))
        assert m == pytest.approx(0.75, abs=1e-6)

    def test_zero_data(self):
        spec = const_data_spec(u01="0", u02="0", uS2="0")
        assert max_principle_bound(1.0, 0.0, 0.0,
                                   dnorm=_data_norm(spec, 1.0)) \
            == pytest.approx(0.0, abs=1e-9)

    def test_closed_form_target(self):
        # minimize exp(xi) * max(1, 1/sqrt(xi-1)) over xi > 1:
        # optimum at xi = 1.5, value exp(1.5) * sqrt(2)
        spec = const_data_spec()
        m = max_principle_bound(1.0, 1.0, 1.0, dnorm=_data_norm(spec, 1.0))
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
            exact = max_principle_bound(t, b1g, b2g, d)
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
                got = max_principle_bound(t, b1g, b2g, d)
                assert got.shape == t.shape
                assert got.ravel().tolist() == [
                    max_principle_bound(ti, b1g, b2g, di)
                    for ti, di in zip(t.ravel(), d.ravel())]

    def test_monotone_in_arguments(self):
        rng = np.random.default_rng(21)
        spec = const_data_spec(u01="0.8", u02="0.3", uS2="0.1")

        def bound(t, b1g, b2g):
            return max_principle_bound(t, b1g, b2g,
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


def _rhs_at(spec, t, d_init, inflow, thetas=None):
    """``stability_rhs`` of two runs of ``spec`` at the single time t, the
    level t/n_steps T of the steps spanning T."""
    n = len(inflow)
    thetas = np.zeros(n) if thetas is None else thetas
    return P.stability_rhs(spec, spec, [round(t * n / spec.T)], d_init,
                           inflow, thetas)[0]


class TestStabilityRhs:
    def test_no_source_form(self):
        # without kicks the estimate is d_init plus every step's inflow
        spec = nosource_spec()
        inflow = np.full(100, 0.003)
        got = _rhs_at(spec, 1.0, 0.5, inflow)
        assert got == pytest.approx(0.5 + 0.3, rel=1e-12)
        assert _rhs_at(spec, 0.5, 0.5, inflow) == \
            pytest.approx(0.5 + 0.15, rel=1e-12)

    def test_identical_data(self):
        spec = nosource_spec()
        got = _rhs_at(spec, 1.0, 0.0, np.zeros(50))
        assert got == 0.0

    def test_additive_in_initial_distance(self):
        spec = nosource_spec()
        zeros = np.zeros(50)
        a = _rhs_at(spec, 1.0, 1.0, zeros)
        b = _rhs_at(spec, 1.0, 2.0, zeros)
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_gronwall_weight_accumulates_kernel_mass(self):
        # the weight is the product of the kick gains 1 + theta_n b0: never
        # above exp(b0 sum theta) = exp(b0), and close to it for small steps
        spec = source_spec(gamma=0.1)
        stepper = Stepper(spec, unit_grid(16), dt=1.0 / 4096)
        b0 = kernels.estimate_dbeta_sup(spec.beta, spec.L, spec.S, spec.b1)
        got = _rhs_at(spec, 1.0, 1.0, np.zeros(stepper.n_steps),
                      thetas=stepper.thetas)
        assert got <= math.exp(b0) * (1 + 1e-12)
        assert got == pytest.approx(math.exp(b0), rel=1e-3)

    @pytest.mark.parametrize("cells", [16, 32, 64])
    def test_gronwall_weight_is_the_mass_the_march_applies(self, cells):
        # at the run's own dt the weight at T is the product of the gains
        # of the kicks the march applies, whose masses add up to 1
        spec = source_spec()
        stepper = Stepper(spec, unit_grid(cells))
        b0 = kernels.estimate_dbeta_sup(spec.beta, spec.L, spec.S, spec.b1)
        thetas = stepper.thetas
        assert sum(thetas.tolist()) == pytest.approx(1.0, rel=1e-14)
        got, = P.stability_rhs(spec, spec, [stepper.n_steps], 1.0,
                               np.zeros(stepper.n_steps), thetas)
        assert got == pytest.approx(math.prod(1 + b0 * th for th in thetas),
                                    rel=1e-14)
        assert got < math.exp(b0)

    def test_b0_is_sampled_only_where_it_weighs_a_term(self, monkeypatch):
        # with equal initial data, no inflow and equal betas every term is
        # 0 whatever b0 is, so b0 is not enclosed; any one of the three
        # makes it count
        sampled = []
        real = kernels.estimate_dbeta_sup

        def spy(*args):
            sampled.append(args)
            return real(*args)

        monkeypatch.setattr(kernels, "estimate_dbeta_sup", spy)
        spec = source_spec()
        stepper = Stepper(spec, unit_grid(16), gamma=0.0, dt=spec.T / 20)
        thetas, zeros = stepper.thetas, np.zeros(20)
        other = spec.with_data(beta=E.parse(f"0.7*{E.to_string(spec.beta)}"))
        inflow = np.zeros(20)
        inflow[3] = 1e-3
        cases = [((spec, 0.0, zeros), False), ((spec, 0.1, zeros), True),
                 ((spec, 0.0, inflow), True), ((other, 0.0, zeros), True)]
        for (spec2, d_init, flow), weighs in cases:
            sampled.clear()
            rhs = P.stability_rhs(spec, spec2, [10, 20], d_init, flow,
                                  thetas)
            assert bool(sampled) == weighs
            assert (rhs == [0.0, 0.0]) != weighs


class TestStabilityRhsImpulsive:
    def test_pre_jump_curve_is_the_sourceless_estimate_over_m4(self):
        # the gamma = 0 kick is the step with theta = 1, the one ending at
        # n_tau: before it the curve is the sourceless estimate of the
        # same inflow; from it on, the weight 1 + b0 and the beta difference
        spec = source_spec()
        other = spec.with_data(beta=E.parse(f"0.7*{E.to_string(spec.beta)}"))
        stepper = Stepper(spec, unit_grid(16), gamma=0.0, dt=spec.T / 200)
        thetas = stepper.thetas
        assert thetas.tolist().count(1.0) == 1 and sum(thetas) == 1.0
        n = stepper.n_steps
        dt = stepper.dt
        inflow = dt * (np.linspace(0.0, 0.02, n) + np.linspace(0.01, 0.0, n))
        levels = [k * 20 for k in range(11)]
        pre = P.stability_rhs(spec, spec, levels, 0.1, inflow, np.zeros(n))
        got = P.stability_rhs(spec, other, levels, 0.1, inflow, thetas)
        b0 = kernels.estimate_dbeta_sup(spec.beta, spec.L, spec.S, spec.b1)
        dbeta = 0.3 * sample_max(spec.beta, slab(spec, spec.b1 + 1.0), n=64)
        for n, g, p in zip(levels, got, pre):
            if n < stepper.n_tau:
                assert g == p
            else:
                assert g > (1 + b0) * p * (1 - 1e-12)
                assert g > dbeta
        assert {n < stepper.n_tau for n in levels} == {True, False}


def _impulsive_bounds_reference(spec):
    """The impulsive problem's bounds as first written: M2 the data norm
    over (0, tau), M3 = max(M2 + sup|beta| over |lambda| <= M2, the data
    norms over (tau, T)), every norm enclosed."""
    m2 = max(P.data_sup_norms(spec, (0.0, spec.tau)).values())
    post = P.data_sup_norms(spec, (spec.tau, spec.T))
    m3 = max(m2 + E.sup(spec.beta, slab(spec, m2)), post["u0_2"],
             post["uS_2"])
    return m2, m3


class TestImpulsiveBounds:
    """M2 and M3 are ``sup_bound`` at gamma = 0: kick mass 0 before the
    jump and 1 after it."""

    @staticmethod
    def _m2_m3(spec):
        return (P.sup_bound(spec, spec.tau, 0.0),
                P.sup_bound(spec, spec.tau, 1.0))

    def test_no_perturbation(self):
        spec = const_data_spec(u01="0.5", u02="0.25", uS2="0.25")
        m2, m3 = self._m2_m3(spec)
        assert m2 == pytest.approx(0.5)
        assert m3 == pytest.approx(max(m2, 0.25))

    def test_constant_initial_data(self):
        spec = const_data_spec(u01="0.7", u02="0", uS2="0")
        m2, _ = self._m2_m3(spec)
        assert m2 == pytest.approx(0.7)

    def test_constant_perturbation_raises_m3(self):
        # beta = 0.5 wherever the kick can reach, and 0 beyond b1 = 3
        spec = const_data_spec(u01="1", u02="0", uS2="0",
                               beta=E.parse(f"0.5*{flat_cut(3)}"), b1=3.0)
        m2, m3 = self._m2_m3(spec)
        assert m2 == pytest.approx(1.0)
        assert m3 >= 1.5

    def test_m3_is_m2_plus_the_kick_over_the_pre_jump_range(self):
        # the slab is wider than |lambda| <= M2, which changes the enclosed
        # sup|beta| of the impulsive scenarios by no more than roundoff
        for spec in (source_spec(), perturbed_spec(source_spec(), 0.05)):
            m2, m3 = self._m2_m3(spec)
            ref = _impulsive_bounds_reference(spec)
            assert m2 == ref[0]
            assert m3 == pytest.approx(ref[1], rel=1e-3)
            radius = max(max(P.data_sup_norms(spec).values()), spec.b1) + 1
            assert m3 == m2 + E.sup(spec.beta, slab(spec, radius)) > m2

    def test_m3_dominates_m2(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            amp = rng.uniform(0.1, 2.0)
            spec = const_data_spec(u01=f"{amp}", u02="0", uS2="0",
                                   beta=E.parse(f"0.3*cos(lambda)*{LCUT}"),
                                   b1=2.0)
            m2, m3 = self._m2_m3(spec)
            assert m3 >= m2

    def test_sup_beta_is_sampled_once_per_spec(self, sup_keys):
        # every bound of a spec, of any window or mass, reads one enclosed
        # sup|beta|, and a spec of the same data without a beta encloses
        # nothing more
        spec = source_spec()
        first = P.sup_bound(spec, spec.T, 1.0)
        got = [P.sup_bound(spec, t, [0.0, 0.5, 1.0]) for t in (0.25, 0.5)]
        assert got[1].shape == (3,) and got[1][-1] > got[1][0]
        assert P.saturated_bound(spec, 0.8, 1.0) > 0.8
        assert P.sup_bound(spec, spec.T, 1.0) == first
        assert P.sup_bound(spec.with_data(beta=None), spec.T, 1.0) < first
        beta = [key for key in sup_keys if key[0] == spec.beta]
        assert len(set(beta)) == 3 < len(beta)  # _horizon's three slabs
        assert E.sup.cache_info().misses == len(set(sup_keys))


class TestSupBoundSaturates:
    """B = min(D + m sup|beta|, max(D, b1)): a nondecreasing kick that is
    the identity beyond b1 maps [-R, R] into itself for every R >= b1."""

    def test_data_above_b1_take_no_kick(self):
        spec = saturated_spec()
        base = max(P.data_sup_norms(spec).values())
        beta_sup = E.sup(spec.beta, slab(spec, base + 1.0))
        assert base > spec.b1 and base + beta_sup >= 7.0
        for mass in (0.0, 0.01, 1.0):
            assert P.sup_bound(spec, None, mass) == base

    def test_a_kick_sum_above_b1_stops_at_b1(self):
        spec = source_spec().with_data(
            beta=E.parse(f"3*{XBUMP}*{SBUMP}*{flat_cut(1)}"), b1=1.0)
        base = max(P.data_sup_norms(spec).values())
        beta_sup = E.sup(spec.beta, slab(spec, 2.0))
        got = P.sup_bound(spec, None, np.array([0.0, 0.05, 1.0]))
        assert got.tolist() == [base, base + 0.05 * beta_sup, 1.0]
        assert base + beta_sup > 3.0


def test_describe_hash_stable():
    spec = source_spec()
    assert spec.context_hash() == spec.context_hash()
    assert spec.context_hash() != source_spec(beta_amp=0.3).context_hash()


# context_hash() of each scenario spec and bench config: a run's meta.json
# and every report row hold these, so the form of ProblemSpec must not
# move them
SPEC_HASHES = {
    "zero": "deb4dc8bbda938f9", "source": "01fa0a072147e5eb",
    "nosource": "f8c4ba2bbe78831d", "saturated": "60741c89660bf12a",
    "shock": "49e1d1f168bd71e6", "unattainable": "e4526a7007d4fcf9",
    "perturbed": "33e9f29aff01b9c8",
}
BENCH_HASHES = {0: "01fa0a072147e5eb", 1: "4bde87f98baf51ca"}


@pytest.mark.parametrize("name", sorted(SPEC_HASHES))
def test_scenario_spec_hashes_are_pinned(name):
    specs = {"zero": zero_spec, "source": source_spec,
             "nosource": nosource_spec, "saturated": saturated_spec,
             "shock": shock_spec, "unattainable": unattainable_spec,
             "perturbed": lambda: perturbed_spec(source_spec(), 0.1)}
    assert specs[name]().context_hash() == SPEC_HASHES[name]


@pytest.mark.parametrize("seed", sorted(BENCH_HASHES))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_bench_config_hashes_are_pinned(tmp_path, workload, seed):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(config_text(WORKLOADS[workload], seed, tmp_path / "out"))
    assert io.load_config(cfg).spec.context_hash() == BENCH_HASHES[seed]


def _sample_sup_meshgrid(expr, names, ranges, n=256):
    """max |expr| on a meshgrid of n points per axis."""
    axes = [np.linspace(lo, hi, n) for lo, hi in ranges]
    grids = np.meshgrid(*axes, indexing="ij")
    vals = E.evaluate(expr, dict(zip(names, grids)))
    vals = np.broadcast_to(np.asarray(vals, dtype=float), grids[0].shape)
    return float(np.max(np.abs(vals)))


# how far above a dense sample a 1-D or 2-D enclosure may lie: its parts
# are bisected until none lies more than 0.1% above the values found, and
# the sample itself falls a little short of the sup
NEAR = 2e-3


class TestSampleSupOpenAxes:
    """``exprdsl.sup`` against the meshgrid samples it replaced: no sample
    above it, and none far below."""

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
        want = _sample_sup_meshgrid(expr, ("x", "t"), ranges)
        got = E.sup(expr, dict(zip(("x", "t"), ranges)))
        assert want <= got <= want * (1.0 + NEAR)

    def test_matches_meshgrid_sampling_in_three_axes(self):
        # the bump beta's natural enclosure is exact on every part
        beta = source_spec().beta
        names = ("x", "s", "lambda")
        ranges = [(0.0, 1.0), (0.0, 1.0), (-2.5, 2.5)]
        want = _sample_sup_meshgrid(beta, names, ranges, n=64)
        assert want < E.sup(beta, dict(zip(names, ranges))) == pytest.approx(
            0.5, rel=1e-14)


# --- the samplers the enclosures replaced -------------------------------------
#
# Each copy below built its own grid.  The enclosure that replaced it must
# lie above every sample, and on 1-D and 2-D boxes within NEAR of them.

def _dbeta_sup_reference(beta, L, S, b1, shape=(64, 64, 256)):
    nx, ns, nl = shape
    grid = {"x": np.linspace(0.0, L, nx)[:, None, None],
            "s": np.linspace(0.0, S, ns)[None, :, None],
            "lambda": np.linspace(-(b1 + 1.0), b1 + 1.0, nl)[None, None, :]}
    d = E.evaluate(E.diff(beta, "lambda"), grid)
    return float(np.max(np.abs(d)))


def _beta0_sup_reference(beta, L, S, n=256):
    xs = np.linspace(0.0, L, n)
    ss = np.linspace(0.0, S, n)
    vals = E.evaluate(beta, {"x": xs[:, None], "s": ss[None, :],
                             "lambda": 0.0})
    return float(np.max(np.abs(vals)))


def _deriv_max_reference(expr, lo, hi, n=4097):
    lam = np.linspace(lo, hi, n)
    d = E.evaluate(E.diff(expr, "lambda"), {"lambda": lam})
    return float(np.max(np.abs(d)))


BETAS = [
    source_spec().beta,                              # the bench's beta
    E.parse("0.7"),                                  # constant
    E.parse("0.3*sin(lambda)"),                      # lambda only
    E.parse("x*(1-x)*s + 0.2"),                      # lambda-free
    E.parse("exp(-lambda^2)*cos(3*x) - tanh(s*lambda)"),
    E.parse("min(abs(lambda - 0.3), 1 - x) * max(s, sqrt(1 + lambda^2))"),
]


# the collar maxima of u0_1, u0_2 and uS_2, _horizon and min_kick_slope
# at mass 0 and 1, in hex, as enclosed when the collar's four strips and
# _horizon's three slabs were each one batch of ``exprdsl.sup``
RECORDED_BOUNDS = {
    "bench_seed0": [
        "-0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.99999999999b2p-1",
        "0x1.0000000000015p-1", "0x1.2000000000019p-100",
        "-0x1.58a5d8a0d4ac7p-2", "-0x1.920c57c57c5bbp-2"],
    "bench_seed1": [
        "-0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.99999999999b2p-1",
        "0x1.0000000000015p-1", "0x1.2000000000019p-100",
        "-0x1.5865f6fb6f960p-2", "-0x1.9814353f7cf18p-2"],
    "zero": [
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.28320b7b6ab35p-2", "0x1.05e0ae415f583p-100", "0x0.0p+0",
        "-0x1.47a9e71d26ec6p-11"],
    "nosource": [
        "-0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.99999999999b2p-1",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
    "saturated": [
        "-0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.8000000000016p+1",
        "0x1.0000000000015p+2", "0x1.2000000000019p-97",
        "-0x1.2c3f35ba781c2p+2", "-0x1.2c3f35ba781c2p+2"],
    "perturbed": [
        "-0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.ccccccccccceap-1",
        "0x1.0000000000015p-1", "0x1.2000000000019p-100",
        "-0x1.7051bc8a98678p-2", "-0x1.92b22d0e5607ep-2"],
    "shock": [
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x0.0p+0",
        "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0"],
    "unattainable": [
        "0x0.0p+0", "0x1.0000000000007p+0", "0x1.0000000000008p+1",
        "0x1.0000000000008p+1", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0"],
}
SCENARIOS = {"zero": zero_spec, "nosource": nosource_spec,
             "saturated": saturated_spec,
             "perturbed": lambda: perturbed_spec(source_spec(), 0.1),
             "shock": shock_spec, "unattainable": unattainable_spec}


class TestSampleSupAgainstTheSamplersItReplaced:
    @pytest.mark.parametrize("beta", BETAS, ids=E.to_string)
    @pytest.mark.parametrize("L, S, b1", [(1.0, 1.0, 2.0), (0.7, 1.3, 0.5)])
    def test_dbeta_sup(self, beta, L, S, b1):
        # 8^3 parts, and the loose ones cut within a budget of 8,192: the
        # product rule of exp(-lambda^2) cos(3x) - tanh(s lambda), loose
        # along the ridge of its slope in x, lies 19% above the samples,
        # the bench's beta 8.5%
        want = _dbeta_sup_reference(beta, L, S, b1)
        assert want <= kernels.estimate_dbeta_sup(beta, L, S, b1) <= 1.2 * want

    @pytest.mark.parametrize("beta", BETAS, ids=E.to_string)
    @pytest.mark.parametrize("L, S", [(1.0, 1.0), (0.7, 1.3)])
    def test_beta0_sup_on_a_one_point_axis(self, beta, L, S):
        # a one-point axis is not cut
        got = E.sup(beta, {"x": (0.0, L), "s": (0.0, S), "lambda": (0.0, 0.0)})
        want = _beta0_sup_reference(beta, L, S)
        assert want <= got <= want * (1.0 + NEAR)

    def test_beta0_sup_in_the_growth_constants(self):
        beta = source_spec().beta
        b0 = kernels.estimate_dbeta_sup(beta, 1.0, 1.0, 1.0)
        omega0 = float(kernels.omega(0.0))
        beta0 = E.sup(beta, {"x": (0.0, 1.0), "s": (0.0, 1.0),
                             "lambda": (0.0, 0.0)})
        assert beta0 == pytest.approx(0.5, rel=1e-14)
        assert kernels.source_growth_constants(beta, 0.1) == (
            2.0 / 0.1 * omega0 * (b0 + 0.5 * beta0),
            1.0 / 0.1 * omega0 * beta0)

    @pytest.mark.parametrize("text", [
        "lambda^2/2", "lambda", "0", "sin(3*lambda) - lambda^3",
        "max(lambda, 0)^2", "abs(lambda)"])
    @pytest.mark.parametrize("lo, hi", [(-1.863, 1.863), (0.0, 0.5)])
    def test_sampled_deriv_max(self, text, lo, hi):
        expr = E.parse(text)
        want = _deriv_max_reference(expr, lo, hi)
        got = E.sup(E.diff(expr, "lambda"), {"lambda": (lo, hi)})
        assert want <= got <= want * (1.0 + NEAR)

    @pytest.mark.parametrize("name", list(RECORDED_BOUNDS))
    def test_one_box_per_call_gives_the_recorded_bounds(self, name,
                                                       tmp_path):
        # the collar's strips and _horizon's slabs enclosed one at a time,
        # as the batch of them gave each bound
        if name.startswith("bench_seed"):
            cfg = tmp_path / "bench.cfg"
            cfg.write_text(config_text(WORKLOADS["source64"], int(name[-1]),
                                       tmp_path))
            spec = io.load_config(cfg).spec
        else:
            spec = SCENARIOS[name]()
        collar = [P._collar_max(e, ax, ext) for e, ax, ext in (
            (spec.data_u0_1, ("x", "s"), (spec.L, spec.S)),
            (spec.data_u0_2, ("x", "t"), (spec.L, spec.T)),
            (spec.data_uS_2, ("x", "t"), (spec.L, spec.T)))]
        got = [*collar, *P._horizon(spec), P.min_kick_slope(spec, 0.0),
               P.min_kick_slope(spec, 1.0)]
        assert [float(v).hex() for v in got] == RECORDED_BOUNDS[name]

    def test_slab_sup_of_no_perturbation_is_zero(self):
        spec = source_spec().with_data(beta=None)
        assert P._horizon(spec)[1:] == (0.0, 0.0)
        assert P.sup_bound(spec, None, 1.0) == P._horizon(spec)[0]


class TestJumpSlopeSampling:
    def _reference(self, spec, n=64):
        """The jump map's slope, sampled in one evaluation of the box: over
        |lambda| <= M2, and <= b1 too where M3 reaches b1 and saturates."""
        m2, m3 = _impulsive_bounds_reference(spec)
        radius = max(m2, spec.b1) if m3 >= spec.b1 else m2
        axes = {"x": np.linspace(0.0, spec.L, n)[:, None, None],
                "s": np.linspace(0.0, spec.S, n)[None, :, None],
                "lambda": np.linspace(-radius, radius, n)[None, None, :]}
        d = E.evaluate(E.diff(spec.beta, "lambda"), axes)
        return 1.0 + float(np.min(d))

    @staticmethod
    def _spec(text):
        """The source spec with beta = text, cut off at b1 = 3: M3 stays
        below it, so the slab is |lambda| <= M2, but for the steep text,
        whose slope is -1.5 bumps wherever the slab ends."""
        spec = source_spec()
        if text is None:
            return spec
        return spec.with_data(beta=E.parse(f"({text})*{flat_cut(3)}"), b1=3.0)

    @pytest.mark.parametrize("text", [
        None, "-1.5*lambda*(max(0, 1-((x-0.5)/0.35)^2))^2",
        "0.3*sin(4*lambda)*s - x", "0.7"])
    def test_min_slope_matches_one_evaluation(self, text):
        # the enclosure lies below every sampled slope, and within 2e-3 of
        # them: the parts are cut until each lies within 0.1% of the
        # slopes found, or the budget ends
        spec = self._spec(text)
        weight, want = 1 + P.min_kick_slope(spec, 0.0), self._reference(spec)
        assert want - 2e-3 <= weight <= want

    def test_peaks_below_4_mib(self):
        # at most 8,192 parts of the slab, each node on the axes it reads;
        # 64^3 samples in one evaluation of the box peaked at 6.2 MiB
        spec = source_spec()
        tracemalloc.start()
        try:
            P.min_kick_slope(spec, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("text, pinned", [
        (None, "0x1.53ad13af95a9cp-1"),
        ("-1.5*lambda*(max(0, 1-((x-0.5)/0.35)^2))^2",
         "-0x1.0000000000022p-1"),
        ("0.3*sin(4*lambda)*s - x", "-0x1.99999999999d0p-3"),
        ("0.7", "0x1.0000000000000p+0")])
    def test_min_slope_is_the_recorded_one(self, text, pinned):
        # the enclosed slopes over the radius M2 of the separate impulsive
        # bounds, as recorded, bit for bit
        spec = self._spec(text)
        assert 1 + P.min_kick_slope(spec, 0.0) == float.fromhex(pinned)


class TestDataAtADomainEdge:
    """Data whose sqrt argument reaches 0 at an edge of the box: a part's
    enclosure of it reaches below 0 there, by outward rounding (1 - x*x at
    x = 1) or the dependency of x and x^2 (x - x^2 at x = 0), and the
    data are still enclosed, and marched."""

    @pytest.mark.parametrize("root", [
        "sqrt(1 - x*x)", "sqrt(1 - x^2)", "sqrt(x - x^2)", "(x - x*x)^0.5"])
    def test_initial_data(self, root):
        spec = source_spec().with_data(data_u0_1=E.parse(f"{root}*{U01_TEXT}"))
        want = _sample_sup_meshgrid(spec.data_u0_1, ("x", "s"),
                                    [(0.0, 1.0), (0.0, 1.0)], n=257)
        # x - x^2 is loose on every part: the budget ends 0.4% above
        got = P.data_sup_norms(spec)["u0_1"]
        assert want <= got <= want * 1.005
        assert P.consistency_errors(spec) == []
        traj = solver.solve(spec, unit_grid(8))
        assert traj.meta["m_bound"] == P.sup_bound(spec, None, 1.0)

    def test_boundary_data_from_t_0(self):
        # every window starts at t = 0, where t - t^2 is 0
        text = f"sqrt(t - t^2)*{XBUMP}*{XBUMP.replace('(x-', '(t-')}"
        spec = source_spec().with_data(data_u0_2=E.parse(text))
        for end in (0.1, 0.5, 1.0):
            got = P.data_sup_norms(spec, (0.0, end))["u0_2"]
            want = _sample_sup_meshgrid(spec.data_u0_2, ("x", "t"),
                                        [(0.0, 1.0), (0.0, end)], n=257)
            assert want <= got <= want * (1.0 + NEAR)
        assert P.consistency_errors(spec) == []
        solver.solve(spec, unit_grid(8))


def _spike(var, centre):
    """A bump 1e-3 wide at ``centre``, of height 1."""
    return f"max(0, 1-(({var}-{centre!r})/5e-4)^2)"


class TestSpikesBetweenSamples:
    """A spike 1e-3 wide between the nodes the samplers read: each sampler
    missed it, and each enclosure covers it."""

    def test_a_spike_in_the_initial_data(self):
        # between the nodes k/255 of 256 samples per axis, which read
        # sup|u0_1| = 0.7999 and B(T) = 1.2983 here
        c = 100.5 / 255
        spec = source_spec().with_data(data_u0_1=E.parse(
            f"{U01_TEXT} + 2*{_spike('x', c)}*{_spike('s', c)}"))
        peak = float(E.evaluate(spec.data_u0_1, {"x": c, "s": c}))
        assert peak == pytest.approx(2.545, abs=1e-3)
        assert P.data_sup_norms(spec)["u0_1"] >= peak
        assert P.sup_bound(spec, None, 1.0) >= peak

    def test_a_spike_in_beta(self):
        # between the nodes k/63 of the 64 x 64 samples of the slab, which
        # read sup|beta| = 0.4984 here
        c = 10.5 / 63
        spec = source_spec().with_data(beta=E.parse(
            f"{BETA_TEXT} + 2*{_spike('x', c)}*{_spike('s', c)}*{LCUT}"))
        peak = float(E.evaluate(spec.beta, {"x": c, "s": c, "lambda": 0.0}))
        assert peak == pytest.approx(2.0, abs=1e-3)
        assert P._horizon(spec)[1] >= peak
        assert P.consistency_errors(spec) == []

    def test_a_spike_in_a_flux_slope(self):
        # a + 3 (1 - z^2) on |z| < 1, z = (lambda - c)/5e-4, c midway
        # between two of the 4,097 samples of [-2, 2], which read max|a'| =
        # 2 here
        c = -2 + 2600.5 * 4 / 4096
        z = f"max(-1, min(1, (lambda-{c!r})/5e-4))"
        flux = E.parse(f"lambda^2/2 + 3*5e-4*({z} - {z}^3/3)")
        peak = E.evaluate(E.diff(flux, "lambda"), {"lambda": c})
        assert peak == pytest.approx(3.54, abs=1e-2)
        stepper = Stepper(source_spec().with_data(flux_a=flux), unit_grid(8),
                          m_bound=2.0)
        assert stepper.flux_a.coeff >= peak
