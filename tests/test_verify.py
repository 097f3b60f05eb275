import copy
import tracemalloc

import numpy as np
import pytest

from upkolmo import exprdsl as E
from upkolmo import cli, kernels, problem, solver, verify
from upkolmo.problem import (SUP_SLACK, Field, Trajectory, data_sup_norms,
                             min_kick_slope, saturated_bound, stability_rhs,
                             sup_bound)
from upkolmo.scheme import LAX_FRIEDRICHS, SchemeOptions, Stepper
from paper_bounds import paper_bound
from samplers import slab
from scenarios import (BETA_TEXT, SBUMP, TENT, XBUMP, box_grid, nosource_spec,
                       perturbed_spec, saturated_spec, shock_spec,
                       source_spec, unattainable_spec, unit_grid, zero_spec)


def _op(spec, traj):
    """The run's operator as ``upkolmo verify`` rebuilds it: of ``spec``,
    or for an impulsive run its gamma -> 0 limit, and the run's meta."""
    return verify.rebuild(cli._marched(spec, traj.meta["mode"]), traj)


def _max_principle(traj, spec):
    return verify.check_max_principle(traj, _op(spec, traj))


def _stability(traj1, traj2, spec1, spec2):
    return verify.check_stability(traj1, traj2, _op(spec1, traj1),
                                  _op(spec2, traj2))


def _jump(traj, spec):
    return verify.check_jump(traj, _op(spec, traj))


def _entropy_residual(traj, spec, k_values):
    return verify.check_entropy_residual(traj, _op(spec, traj), k_values)


def _bounds(spec, traj):
    return verify._bound_curves(_op(spec, traj), traj)


def _bln(traj, spec, k_values):
    """``check_bln`` against the s-end ghosts of ``spec`` on the run's
    grid, which read neither the run's dt nor its region."""
    return verify.check_bln(traj, Stepper(spec, traj.grid, dt=spec.T),
                            k_values)


class TestMaxPrinciple:
    def test_source_run_passes(self, gamma_family):
        rep = _max_principle(gamma_family["trajs"][0.1],
                             gamma_family["spec"])
        assert rep.passed
        assert rep.margin >= 0
        # the march's own bound decides the row, and nothing else is read
        assert set(rep.context) == {"spec", "mode", "t_worst", "cell_worst"}

    def test_a_delayed_source_run_samples_no_paper_curve(self, monkeypatch,
                                                         gamma_family):
        # B reads the data norms and sup|beta| alone: no b0, no growth
        # constants and no M7
        calls = []
        for owner, name in ((kernels, "estimate_dbeta_sup"),
                            (kernels, "source_growth_constants"),
                            (problem, "refined_max_bound"),
                            (verify, "refined_max_bound")):
            monkeypatch.setattr(owner, name,
                                lambda *a, name=name, **k: calls.append(name))
        rep = _max_principle(gamma_family["trajs"][0.1],
                             gamma_family["spec"])
        assert rep.passed and calls == []

    @pytest.mark.parametrize("scenario, gamma", [
        (source_spec, 0.1), (source_spec, 0.05),
        (lambda: perturbed_spec(source_spec(), 0.05), 0.1),
        (nosource_spec, 0.1), (saturated_spec, 0.1), (zero_spec, 0.1)],
        ids=["source", "source_gamma_0.05", "perturbed", "nosource",
             "saturated", "zero"])
    def test_the_paper_curves_never_undercut_the_discrete_bound(
            self, scenario, gamma):
        # the paper's L-infinity theorem as a measured comparison: B <=
        # min(M, M7) at every t > 0 snapshot; only the zero-data run has
        # the paper's curve below B, and that run is exactly 0
        spec = scenario().with_data(gamma=gamma)
        traj = solver.solve(spec, unit_grid(32),
                            options=SchemeOptions(snapshot_stride=8))
        later = np.asarray(traj.times) > 0.0
        bounds = np.array(_bounds(spec, traj))[later]
        paper = paper_bound(spec, traj)[later]
        if scenario is zero_spec:
            assert np.any(paper < bounds)
            assert all(fld.sup_norm() == 0.0 for fld in traj.fields)
        else:
            assert np.all(bounds <= paper)

    def test_the_bound_saturates_where_the_kick_sum_would_not(self):
        # u0_1 = 3 bumps above b1 = 1.5: D + m sup|beta| reaches 7, and B
        # stays at D = max|u^0|, 2.976 on the grid, which the run respects
        spec = saturated_spec()
        traj = solver.solve(spec, unit_grid(32))
        rep = _max_principle(traj, spec)
        assert rep.passed
        bounds = _bounds(spec, traj)
        assert set(bounds) == {traj.fields[0].sup_norm()}
        assert max(bounds) == pytest.approx(2.976, abs=1e-3)
        beta_sup = E.sup(spec.beta, slab(spec, 4.0))
        assert max(bounds) + beta_sup >= 6.9
        assert 2.9 < max(fld.sup_norm() for fld in traj.fields) < 3.0

    def test_zero_data_run(self):
        spec = zero_spec()
        traj = solver.solve(spec, unit_grid(16))
        rep = _max_principle(traj, spec)
        assert rep.passed
        assert rep.measured == 0.0

    def test_impulsive_uses_two_level_bounds(self, impulsive_run):
        # B with kick mass 0 before the jump's level and 1 from it on
        spec, traj = impulsive_run["spec"], impulsive_run["traj"]
        rep = _max_principle(traj, spec)
        assert rep.passed and rep.slack == SUP_SLACK
        assert "m3" not in rep.context
        bounds = _bounds(spec, traj)
        # the s-end data are 0, so D is max|u^0| at every level
        dnorm = traj.fields[0].sup_norm()
        for n, bound in zip(traj.levels, bounds):
            mass = 1.0 if n >= traj.meta["n_tau"] else 0.0
            assert bound == saturated_bound(spec, dnorm, mass)
        assert len({round(b, 9) for b in bounds}) == 2

    def test_a_run_marched_with_eight_times_beta_fails(self):
        # marched with 8 beta in its own default region, B(T) saturated at
        # b1 = 2, and verified against beta: the march's own maximum
        # principle for beta fails it
        spec = source_spec()
        marched = spec.with_data(beta=E.parse(f"8*{BETA_TEXT}"))
        traj = solver.solve(marched, unit_grid(32),
                            options=SchemeOptions(snapshot_stride=1))
        rep = _max_principle(traj, spec)
        assert not rep.passed
        assert rep.measured / rep.bound == pytest.approx(1.165, abs=1e-3)
        assert rep.context["t_worst"] < spec.tau

    def test_zero_source_run_bounded_by_data_norm(self, contraction_family):
        base_spec = contraction_family["specs"][0]
        traj = contraction_family["trajs"][0]
        rep = _max_principle(traj, base_spec)
        assert rep.passed

    def test_every_bound_covers_its_own_boundary_data(self):
        # the inflow ramp rises with t, so a snapshot's data norm must
        # include every ghost the march read before its level, and needs
        # none it read later: on the ramp the next step's ghost lies above
        spec = unattainable_spec(L=1.0)
        traj = solver.solve(spec, unit_grid(16),
                            options=SchemeOptions(snapshot_stride=1))
        bounds = _bounds(spec, traj)
        xc, _ = traj.grid.cell_centers()
        dt = traj.meta["dt"]

        def ghosts_at(n):
            return max(float(np.max(np.abs(np.broadcast_to(np.asarray(
                E.evaluate(expr, {"x": xc, "t": n * dt}), dtype=float),
                xc.shape)))) for expr in (spec.data_u0_2, spec.data_uS_2))

        read = np.maximum.accumulate([ghosts_at(n) for n in traj.levels])
        assert len(traj.times) == 37
        assert all(b >= r for b, r in zip(bounds[1:], read[:-1]))
        assert any(b < ghosts_at(n) for n, b in zip(traj.levels, bounds))


    def test_snapshot_above_the_bound_fails(self, impulsive_run):
        # a t > 0 snapshot planted one cell above its bound decides the
        # row; the same value at t = 0, the initial datum, decides nothing
        spec, traj = impulsive_run["spec"], impulsive_run["traj"]
        bounds = _bounds(spec, traj)
        i = len(traj.times) // 2
        planted = Trajectory(grid=traj.grid, meta=traj.meta)
        for n, fld in zip(traj.levels, traj.fields):
            planted.append(n, Field(fld.values.copy(), fld.grid, fld.t))
        planted.fields[i].values[5, 7] = -1.01 * bounds[i]
        rep = _max_principle(planted, spec)
        assert not rep.passed
        assert rep.context["t_worst"] == traj.times[i] > 0.0
        assert rep.context["cell_worst"] == [5, 7]
        assert rep.measured == 1.01 * bounds[i] and rep.bound == bounds[i]

        planted.fields[i].values[5, 7] = traj.fields[i].values[5, 7]
        planted.fields[0].values[5, 7] = -1.01 * bounds[0]
        rep = _max_principle(planted, spec)
        assert rep.passed and rep.context["t_worst"] > 0.0

    def test_a_cell_between_the_march_bound_and_the_enclosed_one_fails(self):
        # at the last level of the 64^2 source run B_k = max|u^0| + 0.5 =
        # 1.2984, u^0 on the grid, below the enclosed B(t_k) = 1.3 of the
        # data norm over (0, t_k); a cell planted halfway between passes
        # the enclosed bound and fails the march's own
        spec = source_spec()
        traj = solver.solve(spec, unit_grid(64))
        stepper = _op(spec, traj)
        i = len(traj.times) - 1
        assert traj.levels[i] > stepper.n_tau
        bound = _bounds(spec, traj)[i]
        enclosed = sup_bound(spec, traj.times[i], np.sum(stepper.thetas))
        assert bound == pytest.approx(1.2984, abs=1e-4)
        assert enclosed == pytest.approx(1.3, abs=1e-9)
        planted = Trajectory(grid=traj.grid, meta=traj.meta)
        for n, fld in zip(traj.levels, traj.fields):
            planted.append(n, Field(fld.values.copy(), fld.grid, fld.t))
        planted.fields[i].values[20, 30] = 0.5 * (bound + enclosed)
        rep = _max_principle(planted, spec)
        assert not rep.passed and rep.bound == bound
        assert rep.context["t_worst"] == traj.times[i]
        assert rep.context["cell_worst"] == [20, 30]

    def test_the_bounds_of_a_stride_1_run_enclose_nothing(self, monkeypatch):
        # x (1 - x) exp(t) times the x-bump at s = 0, 64^2, stride 1: once
        # sup|beta| is remembered (``exprdsl.sup``), the bounds read u^0,
        # each step's ghosts and the kick masses, and enclose nothing; a
        # window enclosure per snapshot took 12.3 MiB here
        text = f"x*(1-x)*exp(t)*{XBUMP}"
        spec = source_spec().with_data(data_u0_2=E.parse(text))
        traj = solver.solve(spec, unit_grid(64),
                            options=SchemeOptions(snapshot_stride=1))
        stepper = _op(spec, traj)
        want = verify._bound_curves(stepper, traj)
        enclosed = E.sup.cache_info().misses
        calls = []
        monkeypatch.setattr(E, "enclose", lambda *a: calls.append(a))
        tracemalloc.start()
        try:
            got = verify._bound_curves(stepper, traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [] and got == want
        assert E.sup.cache_info().misses == enclosed
        assert len(got) == len(traj.times) == 186
        assert peak < 2 ** 20

    @staticmethod
    def _planted(monkeypatch, bounds, sups):
        """Snapshots at t = 0.1, 0.2, ... of the given sups, each held to
        the given bound."""
        grid = unit_grid(4)
        traj = Trajectory(grid=grid, meta={"mode": "entropy"})
        for i, sup in enumerate([0.0, *sups]):
            values = np.zeros((4, 4))
            values[1, 2] = -sup
            traj.append(i, Field(values, grid, i / 10))
        monkeypatch.setattr(verify, "_bound_curves",
                            lambda stepper, tr: (1.0, *bounds))
        return traj

    @staticmethod
    def _source(traj, dt=0.1):
        """A source-problem operator on the run's grid, given its dt."""
        return Stepper(source_spec(), traj.grid, dt=dt)

    def test_the_tightest_snapshot_decides_the_row(self, monkeypatch):
        # 0.39 is 0.3 of its bound 1.3, tighter than 0.16 of 0.8, though
        # its gap sup - bound, -0.91 against -0.64, is the lower
        traj = self._planted(monkeypatch, [0.8, 1.3], [0.16, 0.39])
        rep = verify.check_max_principle(traj, self._source(traj))
        assert rep.passed and rep.context["t_worst"] == 0.2
        assert (rep.measured, rep.bound) == (0.39, 1.3)
        assert rep.context["cell_worst"] == [1, 2]

    def test_a_failing_snapshot_is_the_one_named(self, monkeypatch):
        # 1.5e-10 over the bound 0.8 fails (slack 1e-10); 0.99e-10 over the
        # bound 1e-3 passes, though its sup / bound is the larger
        traj = self._planted(monkeypatch, [1e-3, 0.8, 1.3],
                             [1e-3 + 0.99e-10, 0.8 + 1.5e-10, 1.3])
        rep = verify.check_max_principle(traj, self._source(traj))
        assert not rep.passed and rep.context["t_worst"] == 0.2
        assert (rep.measured, rep.bound) == (0.8 + 1.5e-10, 0.8)
        # a bound of 0 ranks inf where the sup exceeds the slack, and
        # below every bound > 0 where it does not
        traj = self._planted(monkeypatch, [0.0, 1.3], [2e-10, 1.3])
        rep = verify.check_max_principle(traj, self._source(traj))
        assert not rep.passed and rep.context["t_worst"] == 0.1
        traj = self._planted(monkeypatch, [0.0, 1.3], [0.5e-10, 0.2])
        rep = verify.check_max_principle(traj, self._source(traj))
        assert rep.passed and rep.context["t_worst"] == 0.2

    def test_no_snapshot_after_t0_fails(self):
        grid = unit_grid(8)
        traj = Trajectory(grid=grid, meta={"mode": "entropy"})
        traj.append(0, Field(np.zeros((8, 8)), grid, 0.0))
        rep = verify.check_max_principle(traj, self._source(traj, 0.01))
        assert not rep.passed and rep.measured == np.inf
        assert rep.context["t_worst"] is None


class TestStability:
    def test_self_comparison_is_zero(self, gamma_family):
        traj = gamma_family["trajs"][0.1]
        spec = gamma_family["spec"]
        rep = _stability(traj, traj, spec, spec)
        assert rep.passed
        assert rep.measured == 0.0

    @pytest.mark.parametrize("delta", [0.1, 0.01])
    def test_perturbed_initial_data(self, stability_family, delta):
        base = stability_family["specs"][0.0]
        pert = stability_family["specs"][delta]
        rep = _stability(stability_family["trajs"][0.0],
                         stability_family["trajs"][delta],
                         base, pert)
        assert rep.passed, rep

    def test_contraction_zero_source(self, contraction_family):
        base, pert = contraction_family["specs"]
        t1, t2 = contraction_family["trajs"]
        rep = _stability(t1, t2, base, pert)
        assert rep.passed
        # same boundary data, zero source: pure L1 contraction, with the
        # initial distance measured on the grid cells themselves
        d_init = verify.l1_diff(t1.fields[0], t2.fields[0])
        for f1, f2 in zip(t1.fields, t2.fields):
            assert verify.l1_diff(f1, f2) <= d_init * (1 + 1e-12) + 1e-14

    def test_impulsive_pair(self, grid64):
        base = source_spec().with_data(gamma=0.0)
        pert = perturbed_spec(base, 0.05)
        m = max(sup_bound(s, None, 1.0) for s in (base, pert))
        dt = min(Stepper(s, grid64, m_bound=m).dt for s in (base, pert))
        t1 = solver.solve(base, grid64, dt=dt, m_bound=m)
        t2 = solver.solve(pert, grid64, dt=dt, m_bound=m)
        rep = _stability(t1, t2, base, pert)
        assert rep.passed
        assert 0.0 < rep.measured <= 1.05 * rep.bound
        assert rep.context["t_worst"] > 0.0

    @staticmethod
    def _spy(monkeypatch, name):
        """Record the arguments and results of every ``verify.<name>`` call."""
        calls = []
        real = getattr(verify, name)

        def spy(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]

        monkeypatch.setattr(verify, name, spy)
        return calls

    def test_builds_no_bound_curve(self, monkeypatch):
        # the estimate reads no sup-norm bound: check_stability of two runs
        # samples none of the curves that check_max_principle certifies
        base, pert = source_spec(), perturbed_spec(source_spec(), 0.1)
        t1, t2 = self._pair([base, pert], 16)
        calls = [self._spy(monkeypatch, name) for name in
                 ("_bound_curves", "saturated_bound", "refined_max_bound")]
        rep = _stability(t1, t2, base, pert)
        assert rep.passed and rep.measured > 0.0
        assert calls == [[], [], []]

    def test_gronwall_weight_uses_the_run_gamma(self, monkeypatch,
                                                gamma_family):
        # the run marched the family's gamma = 0.05 member: the kicks weigh
        # in by the kernel masses of that width, which differ from the
        # config's width's on the steps inside [tau - 0.1, tau)
        spec = gamma_family["spec"].with_data(gamma=0.05)
        traj = gamma_family["trajs"][0.05]
        meta = traj.meta
        assert meta["spec_hash"] == spec.context_hash()
        calls = self._spy(monkeypatch, "stability_rhs")
        # the same run against other initial data: rhs = W_n d_init
        rep = _stability(traj, traj, spec,
                         perturbed_spec(spec, 0.1))
        (args, rhs), = calls
        d_init, thetas = rep.context["d_init"], args[5]
        dt = meta["dt"]

        def masses(gamma):
            return kernels.step_mass(np.arange(meta["n_steps"]), dt, spec.tau,
                                     gamma, meta["n_tau"]).tolist()

        assert thetas.tolist() == masses(0.05) != masses(0.1)
        want = [_stability_rhs_reference(spec, spec, t, d_init,
                                         np.zeros(len(thetas)), thetas, dt)
                for t in traj.times]
        assert rhs == pytest.approx(want, rel=1e-13, abs=0.0)
        assert rhs[-1] > d_init

    def test_grid_mismatch(self, gamma_family):
        spec = gamma_family["spec"]
        other = solver.solve(spec, unit_grid(32))
        with pytest.raises(verify.GridMismatchError):
            _stability(gamma_family["trajs"][0.1], other,
                       spec, spec)

    @staticmethod
    def _pair(specs, n, impulsive=False, options=None):
        """Runs of ``specs``, or of their gamma -> 0 limits, on the n x n
        grid with one dt and m_bound."""
        grid = unit_grid(n)
        specs = [s.with_data(gamma=0.0) if impulsive else s for s in specs]
        m = max(sup_bound(s, None, 1.0) for s in specs)
        dt = min(Stepper(s, grid, m_bound=m, options=options).dt
                 for s in specs)
        return [solver.solve(s, grid, dt=dt, m_bound=m, options=options)
                for s in specs]

    def test_lax_friedrichs_pair_with_different_inflow(self, monkeypatch):
        # a Lax-Friedrichs ghost enters through the part the march stepped
        # with, g = (f + alpha w)/2, alpha its dissipation; the zero ghost
        # of the first run gives g = 0
        base = source_spec()
        other = base.with_data(data_u0_2=E.parse(f"0.2*{XBUMP}"))
        t1, t2 = self._pair([base, other], 32,
                            options=SchemeOptions(flux_kind=LAX_FRIEDRICHS))
        calls = self._spy(monkeypatch, "stability_rhs")
        rep = _stability(t1, t2, base, other)
        assert rep.passed, rep
        assert rep.context["d_init"] == 0.0 < rep.measured
        (args, _), = calls
        stepper = _op(base, t1)
        ghost = 0.2 * np.maximum(0.0, 1 - ((stepper.xc - 0.5) / 0.35) ** 2) ** 2
        g = 0.5 * (ghost ** 2 / 2 + stepper.flux_a.coeff * ghost)
        want = stepper.dt * float(np.sum(g)) * t1.grid.dx
        assert args[4] == pytest.approx(np.full(stepper.n_steps, want),
                                        rel=1e-13)

    def test_regularized_ghost_adds_eps_over_ds(self):
        # eps D_ss reads a ghost with weight dt eps/ds^2 in its cell, so
        # dt (eps/ds) times the ghosts' L1(x) difference in the inflow
        spec, grid = nosource_spec(), unit_grid(16)
        other = spec.with_data(data_u0_2=E.parse(f"0.2*{XBUMP}"),
                               data_uS_2=E.parse(f"0.1*{XBUMP}"))

        def inflow(eps):
            return verify._inflow(*(Stepper(s.with_data(epsilon=eps), grid,
                                            m_bound=2.0, dt=0.01)
                                    for s in (spec, other)))

        stepper = Stepper(other, grid, m_bound=2.0, dt=0.01)
        ghosts = sum(float(np.sum(np.abs(y))) * grid.dx
                     for y in stepper.boundary_values(0.0))
        assert inflow(0.05) - inflow(0.0) == pytest.approx(
            np.full(100, 0.01 * 0.05 / grid.ds * ghosts), rel=1e-12)

    def test_planted_inflow_fails(self):
        # the second run is fed twice the s = 0 inflow of the spec it is
        # verified against: an estimate from the ghosts the march reads
        # fails it, which one through max|a'| over the sup-norm bound did not
        base = source_spec()
        verified = base.with_data(data_u0_2=E.parse(f"0.2*{XBUMP}"))
        marched = base.with_data(data_u0_2=E.parse(f"0.4*{XBUMP}"))
        t1, t2 = self._pair([base, marched], 32)
        assert _stability(t1, t2, base, marched).passed
        rep = _stability(t1, t2, base, verified)
        assert not rep.passed
        assert rep.measured > 1.3 * 1.05 * rep.bound
        assert rep.context["t_worst"] > 0.0

    def test_estimate_is_attained_on_the_wide_box(self):
        # on the 16-wide box no x-wall reaches the inflow's rows, and the
        # data differ at s = 0 only: up to roundoff the runs' distance is
        # the inflow's sum, which the 5% tolerance covers
        spec = unattainable_spec()
        other = spec.with_data(data_u0_2=E.parse("0"))
        grid = box_grid(spec)
        m = max(sup_bound(s, None, 1.0) for s in (spec, other))
        dt = min(Stepper(s, grid, m_bound=m).dt for s in (spec, other))
        t1, t2 = (solver.solve(s, grid, dt=dt, m_bound=m)
                  for s in (spec, other))
        rep = _stability(t1, t2, spec, other)
        assert rep.passed, rep
        assert 0.99 * rep.bound <= rep.measured <= 1.05 * rep.bound

    @pytest.mark.parametrize("change", ["m_bound", "flux_kind", "flux"])
    def test_pair_stepping_differently_is_refused(self, change):
        # the contraction compares two runs of one operator: alpha and the
        # Engquist-Osher tables depend on m_bound, the flux on its kind
        spec, grid = nosource_spec(), unit_grid(16)
        other = spec.with_data(flux_a=E.parse("lambda^2/4")) \
            if change == "flux" else spec
        runs = [{"m_bound": 2.0, "options": SchemeOptions()},
                {"m_bound": 4.0 if change == "m_bound" else 2.0,
                 "options": SchemeOptions(flux_kind=LAX_FRIEDRICHS)
                 if change == "flux_kind" else SchemeOptions()}]
        dt = min(Stepper(spec, grid, **run).dt for run in runs)
        t1, t2 = (solver.solve(spec, grid, dt=dt, **run)
                  for run in runs)
        with pytest.raises(verify.GridMismatchError, match="m_bound"):
            _stability(t1, t2, spec, other)

    @pytest.mark.parametrize("impulsive", [False, True])
    def test_pair_differing_only_in_beta(self, impulsive):
        # seed 0 against seed 1 bump centres of beta, and no grid allowance
        base = source_spec()
        other = base.with_data(beta=E.parse(BETA_TEXT.replace(
            "(x-0.5)", "(x-0.521)").replace("(s-0.5)", "(s-0.48)")))
        t1, t2 = self._pair([base, other], 32, impulsive)
        rep = _stability(t1, t2, base, other)
        assert rep.passed, rep
        assert rep.context["d_init"] == 0.0
        assert rep.measured > 0.0 and rep.context["t_worst"] > 0.0

    def test_pair_with_against_without_beta(self):
        base, bare = source_spec(), nosource_spec()
        t1, t2 = self._pair([base, bare], 32)
        for rep in (_stability(t1, t2, base, bare),
                    _stability(t2, t1, bare, base)):
            assert rep.passed, rep
            assert rep.measured > 0.0

    def test_run_with_a_stronger_beta_fails(self):
        # the second run kicks with 1.5 beta, and is verified against beta:
        # the row is the first snapshot after the kicks begin at tau -
        # gamma, the one at n_tau
        spec = source_spec()
        t1, t2 = self._pair([spec, source_spec(beta_amp=0.75)], 32)
        rep = _stability(t1, t2, spec, spec)
        assert not rep.passed
        assert rep.bound == 0.0 < rep.measured
        assert rep.context["t_worst"] == t1.meta["n_tau"] * t1.meta["dt"]
        assert t1.times[t1.levels.index(t1.meta["n_tau"]) - 1] < (
            spec.tau - spec.gamma)

    def test_pair_with_different_gamma_is_refused(self):
        specs = [source_spec(), source_spec(gamma=0.05)]
        t1, t2 = self._pair(specs, 16)
        with pytest.raises(verify.GridMismatchError, match="kernel masses"):
            _stability(t1, t2, *specs)

    def test_row_is_the_largest_ratio_after_t0(self, stability_family):
        base = stability_family["specs"][0.0]
        pert = stability_family["specs"][0.1]
        t1 = stability_family["trajs"][0.0]
        t2 = stability_family["trajs"][0.1]
        rep = _stability(t1, t2, base, pert)
        d_init = rep.context["d_init"]
        # at t = 0 both sides are d_init; the row is decided by the march
        assert verify.l1_diff(t1.fields[0], t2.fields[0]) == \
            pytest.approx(d_init, rel=1e-12)
        st1, st2 = _op(base, t1), _op(pert, t2)
        rhs = stability_rhs(base, pert, t1.levels, d_init,
                            verify._inflow(st1, st2), st1.thetas)
        ratios = [verify.l1_diff(f1, f2) / (1.05 * r)
                  for t, f1, f2, r in zip(t1.times, t1.fields, t2.fields, rhs)
                  if t > 0.0]
        i = int(np.argmax(ratios)) + 1
        assert rep.context["t_worst"] == t1.times[i] > 0.0
        assert rep.bound == rhs[i]
        assert max(ratios) < 1.0 and rep.passed

    def test_no_snapshot_after_t0_fails(self):
        grid = unit_grid(8)
        spec = source_spec()
        traj = Trajectory(grid=grid, meta={"mode": "entropy", "gamma": 0.1,
                                           "dt": 0.1, "eps": 0.0,
                                           "n_steps": 10, "n_tau": 5,
                                           "m_bound": 3.0,
                                           "options": SchemeOptions()})
        traj.append(0, Field(np.zeros((8, 8)), grid, 0.0))
        rep = _stability(traj, traj, spec, spec)
        assert not rep.passed and rep.measured == np.inf
        assert rep.context["t_worst"] is None


class TestEntropyResidual:
    def test_shock_run_sign(self, shock_run):
        ks = [-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5]
        rep = _entropy_residual(shock_run["traj"],
                                shock_run["spec"], ks)
        assert rep.passed
        assert rep.measured <= 1e-8  # i.e. min residual >= -1e-8

    def test_strict_dissipation_between_shock_states(self, shock_run):
        # k = 0.5 lies between the shock states 1 and 0: the cells the
        # shock crosses dissipate entropy, so the least cellwise rho is
        # strictly negative, by far more than roundoff
        rhos = _entropy_rhos_reference(shock_run["traj"], shock_run["spec"],
                                       [0.5])
        assert min(float(rho.min()) for _, rho in rhos) < -1e-3

    def test_outside_range_conservation(self, shock_run):
        rep = _entropy_residual(shock_run["traj"],
                                shock_run["spec"], [5.0])
        assert abs(rep.measured) <= 1e-8

    def test_constant_solution(self):
        spec = nosource_spec().with_data(data_u0_1=E.parse("0.7"),
                                         data_u0_2=E.parse("0.7"),
                                         data_uS_2=E.parse("0.7"))
        opts = SchemeOptions(snapshot_stride=1)
        traj = solver.solve(spec, unit_grid(16), options=opts)
        rep = _entropy_residual(traj, spec, [0.2, 0.7, 1.3])
        assert rep.passed
        assert abs(rep.measured) <= 1e-12

    def test_step_above_the_cfl_fails(self):
        # the CFL step is sized on m_bound = 1.55 while |u| <= 1 here, and
        # the implicit lateral solve adds dissipation, so a few times the
        # step still passes; at seven times it, a Courant number of about
        # 4 on the data, the explicit part is no longer monotone, though
        # its sup stays in the region it was given
        spec = shock_spec(L=1.0)
        grid = unit_grid(32)
        opts = SchemeOptions(snapshot_stride=1)
        dt = 7.0 * Stepper(spec, grid, options=opts, m_bound=1.55).dt
        traj = solver.solve(spec, grid, options=opts, dt=dt, m_bound=1.55)
        assert traj.meta["m_bound"] == 1.55
        rep = _entropy_residual(
            traj, spec, [-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5])
        assert not rep.passed

    @pytest.mark.parametrize("amp", [0.25, -0.5])
    @pytest.mark.parametrize("mode", ["entropy", "impulsive"])
    def test_a_wrong_source_fails_on_the_kick_steps(self, mode, amp):
        # the run kicks with beta, the spec it is verified against says
        # beta/2 (the march applied twice the spec's mass) or -beta: a cell
        # of a kick step sees either (a bump-weighted sum passed beta/2 at
        # -0.0017 and -0.0019)
        spec = source_spec()
        opts = SchemeOptions(snapshot_stride=1)
        traj = solver.solve(cli._marched(spec, mode), unit_grid(32),
                            options=opts)
        ks = list(np.linspace(-0.2, 0.8, 9))
        assert _entropy_residual(traj, spec, ks).passed
        wrong = source_spec(beta_amp=amp)
        rep = _entropy_residual(traj, wrong, ks)
        assert not rep.passed
        assert rep.measured > 1e-3
        # the worst step is a kick step: within the kernel's support, or
        # the impulse's step
        t_worst = rep.context["t_worst"]
        assert spec.tau - spec.gamma - traj.meta["dt"] < t_worst < spec.tau
        if mode == "impulsive":
            assert t_worst == traj.times[traj.meta["n_tau"] - 1]
        _assert_same_residual(rep, _entropy_residual_reference(traj, wrong,
                                                               ks))

    def test_requires_stride_one(self, gamma_family):
        with pytest.raises(ValueError):
            _entropy_residual(gamma_family["trajs"][0.1],
                              gamma_family["spec"], [0.0])

    def test_regularized_run_passes(self, regularized_run):
        # the eps D_ss term of the cell inequality: roundoff only
        spec, traj, ks = regularized_run
        rep = _entropy_residual(traj, spec, ks)
        assert rep.passed
        assert rep.measured <= 1e-13
        _assert_same_residual(rep, _entropy_residual_reference(traj, spec,
                                                               ks))

    def test_regularized_run_with_a_planted_defect_fails(self,
                                                         regularized_run):
        # +1e-3 in one cell of snapshot 40: the steps into and out of it
        spec, full, ks = regularized_run
        fields = [Field(f.values.copy(), f.grid, f.t) for f in full.fields]
        fields[40].values[16, 16] += 1e-3
        traj = Trajectory(full.grid, list(full.times), fields, meta=full.meta,
                          levels=list(full.levels))
        rep = _entropy_residual(traj, spec, ks)
        assert not rep.passed
        assert rep.measured > 1e-3
        assert rep.context["t_worst"] in full.times[39:41]

    @pytest.mark.parametrize("T", [1.0, 2.0])
    def test_traced_peak_does_not_grow_with_the_steps(self, T):
        # one step's (k, x, s) arrays at a time: 32^2 with 9 k read 7.2 MiB
        # when six steps were scored together, 1.4 MiB one at a time
        spec = source_spec().with_data(T=T)
        traj = solver.solve(spec, unit_grid(32),
                            options=SchemeOptions(snapshot_stride=1))
        ks = list(np.linspace(-0.2, 0.8, 9))
        _entropy_residual(traj, spec, ks)  # warm every cache
        tracemalloc.start()
        try:
            _entropy_residual(traj, spec, ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2 ** 20


class TestBln:
    def test_trace_equals_data_is_exact_zero(self):
        grid = unit_grid(8)
        traj = Trajectory(grid=grid)
        traj.append(5, Field(np.full((8, 8), 0.4), grid, 0.5))
        spec = nosource_spec().with_data(data_u0_2=E.parse("0.4"),
                                         data_uS_2=E.parse("0.4"))
        rep = _bln(traj, spec, [-1.0, 0.0, 0.4, 1.0])
        assert rep.passed
        assert rep.measured <= 1e-12

    def test_linear_flux_inflow(self):
        # linear increasing s-flux: s=0 is inflow everywhere and gets
        # attained, s=S is outflow and satisfies the inequality trivially
        spec = shock_spec().with_data(flux_a=E.parse("2*lambda"),
                                      data_u0_2=E.parse("0.5"),
                                      data_uS_2=E.parse("0"))
        traj = solver.solve(spec, box_grid(spec, 32),
                            options=SchemeOptions(snapshot_stride=8))
        rep = _bln(traj, spec, list(np.linspace(-1, 1, 9)))
        assert rep.passed
        # the check's tol 5 (ds + dx) grows with the wide box's dx = L/n;
        # the measure stays within the unit box's 10 ds
        assert rep.measured <= 10.0 * traj.grid.ds

    def test_linear_flux_inflow_stride1(self):
        # every step is a snapshot, so the first ones after t = 0 still
        # carry the inflow layer (about 0.111) and are scored
        spec = shock_spec().with_data(flux_a=E.parse("2*lambda"),
                                      data_u0_2=E.parse("0.5"),
                                      data_uS_2=E.parse("0"))
        traj = solver.solve(spec, box_grid(spec, 32),
                            options=SchemeOptions(snapshot_stride=1))
        rep = _bln(traj, spec, list(np.linspace(-1, 1, 9)))
        assert rep.passed
        assert rep.context["n_scored"] == len(traj.times) - 1
        assert 1e-2 < rep.measured <= 10.0 * traj.grid.ds

    # Hand-built 8x8 trajectories with s-flux 2*lambda and data 0.4: a
    # trace of 2.0 scores 4.0 at k = 1, far above tol = 1.25.
    BLN_KS = [-1.0, 0.0, 0.4, 1.0]

    @staticmethod
    def _bln_case(snapshots):
        grid = unit_grid(8)
        traj = Trajectory(grid=grid)
        for n, (t, value) in enumerate(snapshots):
            traj.append(n, Field(np.full((8, 8), value), grid, t))
        spec = nosource_spec().with_data(flux_a=E.parse("2*lambda"),
                                         data_u0_2=E.parse("0.4"),
                                         data_uS_2=E.parse("0.4"))
        return traj, spec

    def test_initial_datum_is_not_scored(self):
        traj, spec = self._bln_case([(0.0, 2.0), (0.1, 0.4)])
        rep = _bln(traj, spec, self.BLN_KS)
        assert rep.passed
        assert rep.measured <= 1e-12
        assert rep.context["n_scored"] == 1

    def test_first_snapshot_after_initial_is_scored(self):
        traj, spec = self._bln_case([(0.0, 0.4), (0.1, 2.0)])
        rep = _bln(traj, spec, self.BLN_KS)
        assert not rep.passed
        assert rep.measured >= 3.9
        assert rep.context["n_scored"] == 1
        # every cell of both traces reads 2.0: the first, at s = 0, at k = 1
        assert [rep.context[key] for key in
                ("t_worst", "end", "cell_worst", "k_worst")] == \
            [0.1, "s0", [0, 0], 1.0]

    @pytest.mark.parametrize("snapshots", [[(0.0, 0.4)], []],
                             ids=["initial_only", "empty"])
    def test_no_trace_to_score_fails(self, snapshots):
        traj, spec = self._bln_case(snapshots)
        rep = _bln(traj, spec, self.BLN_KS)
        assert not rep.passed
        assert rep.measured == np.inf
        assert rep.context["n_scored"] == 0

    @pytest.mark.parametrize("col", [0, -1], ids=["s0", "sS"])
    def test_non_finite_trace_fails(self, col):
        traj, spec = self._bln_case([(0.0, 0.4), (0.1, 0.4)])
        values = np.full((8, 8), 0.4)
        values[3, col] = np.nan
        traj.append(2, Field(values, traj.grid, 0.2))
        rep = _bln(traj, spec, self.BLN_KS)
        assert not rep.passed
        assert rep.measured == np.inf
        # the row names the NaN cell, at the first k
        end = "s0" if col == 0 else "sS"
        assert [rep.context[key] for key in
                ("t_worst", "end", "cell_worst", "k_worst")] == \
            [0.2, end, [3, col % 8], -1.0]

    def test_unattainable_final_data(self, unattainable_run):
        spec = unattainable_run["spec"]
        traj = unattainable_run["traj"]
        ks = list(np.linspace(-2.5, 2.5, 9))
        rep = _bln(traj, spec, ks)
        assert rep.passed
        assert rep.measured <= 10.0 * traj.grid.ds   # the unit box's tol
        # while the inequality holds, the prescribed final data stays
        # unattained by an O(1) margin
        xc, _ = traj.grid.cell_centers()
        t_final = traj.times[-1]
        data = np.asarray(E.evaluate(spec.data_uS_2, {"x": xc, "t": t_final}))
        gap = np.max(np.abs(traj.fields[-1].values[:, -1] - data))
        assert gap >= 0.2


class TestJump:
    @pytest.mark.parametrize("stride", [1, 32])
    def test_the_row_reads_the_rebuilt_stepper(self, small_runs, stride):
        # the jump row reads beta, M3 and the jump map's slope off the
        # run's rebuilt stepper: the row the values read off the spec give,
        # byte for byte
        spec, runs = small_runs
        traj = runs["impulsive", stride]
        assert (_jump(traj, spec).row()
                == _jump_reference(traj, spec).row())

    def test_impulsive_run(self, impulsive_run):
        rep = _jump(impulsive_run["traj"], impulsive_run["spec"])
        assert rep.passed
        assert rep.context["pointwise"] <= 1e-14
        assert rep.context["min_jump_weight"] >= 0.0

    def test_decreasing_jump_map_fails(self):
        # d beta / d lambda = -1.5 bx(x) bs(s) falls below -1 mid-domain,
        # where the jump map lambda -> lambda + beta is decreasing
        bump = "(max(0, 1-((x-0.5)/0.35)^2))^2*(max(0, 1-((s-0.5)/0.35)^2))^2"
        spec = source_spec().with_data(beta=E.parse(f"-1.5*{TENT}*{bump}"))
        rep = _jump(_refused_impulsive_run(spec), spec)
        assert not rep.passed
        assert rep.context["pointwise"] <= 1e-14
        # the slab sampler `run` refuses the map with
        weight = 1 + min_kick_slope(spec, 0.0)
        assert weight == pytest.approx(1.0 - 1.5, abs=5e-3)
        assert rep.context["min_jump_weight"] == weight
        assert rep.measured == 1.0 - weight

    def test_run_and_verify_give_one_verdict(self):
        # the jump map decreases only for 0.7999 < lambda < 1.40005, from
        # just inside the pre-jump bound M2 = 0.8: `run` refuses it, and
        # `verify` fails it on a trajectory holding the jump it would make.
        # beta is 0 from 2 on, and b1 = 3 keeps M3 below b1, so the slab is
        # M2's alone
        bump = "(max(0, 1-((x-0.5)/0.35)^2))^2*(max(0, 1-((s-0.5)/0.35)^2))^2"
        spec = source_spec().with_data(beta=E.parse(
            f"-3*max(0, min(lambda - 0.7999, 2 - lambda))*{bump}"), b1=3.0)
        m2 = sup_bound(spec, spec.tau, 0.0)
        assert 0.7999 < m2 < 0.8 * (1 + 1e-12)
        assert sup_bound(spec, spec.tau, 1.0) < 3.0
        with pytest.raises(ValueError, match="jump map .* decreases"):
            solver.solve(spec.with_data(gamma=0.0), unit_grid(16))
        rep = _jump(_refused_impulsive_run(spec), spec)
        assert not rep.passed
        assert rep.context["pointwise"] <= 1e-14
        assert rep.measured == pytest.approx(3.0, rel=1e-12)

    def test_a_jump_past_b1_is_refused(self):
        # 10 TENT bumps: on |lambda| <= M2 the jump map rises, and at
        # tau = 0.05 it lifts the run's peak 0.33 to 3.6, past b1 = 2.  M3
        # saturates at b1, which holds only for a map nondecreasing on
        # |lambda| <= b1, and there the map's slope is -9: `run` refuses
        # it, `verify` fails it
        spec = source_spec().with_data(
            beta=E.parse(f"10*{TENT}*{XBUMP}*{SBUMP}"), tau=0.05)
        m2 = sup_bound(spec, spec.tau, 0.0)
        assert sup_bound(spec, spec.tau, 1.0) == 2.0
        assert E.sup(E.Neg(E.diff(spec.beta, "lambda")), slab(spec, m2),
                     signed=True) <= 0.0
        assert 1.0 + min_kick_slope(spec, 0.0) == pytest.approx(-9.0,
                                                                rel=1e-12)
        with pytest.raises(ValueError, match="jump map .* decreases"):
            solver.solve(spec.with_data(gamma=0.0), unit_grid(16))
        rep = _jump(_refused_impulsive_run(spec), spec)
        assert not rep.passed
        assert rep.context["pointwise"] <= 1e-14
        assert rep.context["m3"] == 2.0 < rep.context["post_sup"]

    def test_a_saturated_jump_passes(self):
        # 0.9 (1 - |lambda|)+ bumps, b1 = 1: M2 + sup|beta| = 1.7 > b1, so
        # M3 = b1, and the map has slope >= 0.1 on |lambda| <= b1, where
        # it takes |v| <= 1 to 0.9 + 0.1 |v| <= 1 at most
        spec = source_spec().with_data(beta=E.parse(
            f"0.9*max(0, 1 - abs(lambda))*{XBUMP}*{SBUMP}"), b1=1.0)
        assert problem.consistency_errors(spec) == []
        traj = solver.solve(spec.with_data(gamma=0.0), unit_grid(16))
        rep = _jump(traj, spec)
        assert rep.passed
        assert rep.context["m3"] == 1.0
        assert rep.context["min_jump_weight"] == pytest.approx(0.1, abs=5e-3)
        assert 0.8 < rep.context["post_sup"] <= 1.0
        assert _max_principle(traj, spec).passed

    def test_no_perturbation(self, grid64):
        # beta = 0, so that gamma = 0 states the impulse
        spec = nosource_spec().with_data(beta=E.parse("0"), gamma=0.0)
        traj = solver.solve(spec, grid64)
        rep = _jump(traj, spec)
        assert rep.passed
        assert rep.context["pointwise"] == 0.0

    @pytest.mark.parametrize("before", [0, 1], ids=["at_n_tau", "below"])
    def test_a_planted_cell_fails(self, impulsive_run, before):
        # the jump is the stored snapshot at n_tau against the v replayed
        # from the last stored one below it: a cell moved in either fails
        spec = impulsive_run["spec"]
        traj = copy.deepcopy(impulsive_run["traj"])
        i = traj.times.index(traj.meta["n_tau"] * traj.meta["dt"]) - before
        traj.fields[i].values[20, 30] += 1e-3
        rep = _jump(traj, spec)
        assert not rep.passed
        assert rep.context["pointwise"] > 1e-6

    def test_a_replay_that_cannot_step_measures_inf(self, impulsive_run):
        spec = impulsive_run["spec"]
        traj = copy.deepcopy(impulsive_run["traj"])
        i = traj.times.index(traj.meta["n_tau"] * traj.meta["dt"])
        traj.fields[i - 1].values[20, 30] = np.nan
        rep = _jump(traj, spec)
        assert not rep.passed
        assert rep.measured == rep.context["pointwise"] == np.inf


def _refused_impulsive_run(spec):
    """The impulsive march, the gamma -> 0 limit, of a spec whose jump map
    `solve` refuses, in an invariant region wide enough for the jump it
    makes."""
    return solver._march(spec.with_data(gamma=0.0), unit_grid(16), None,
                         None, 20.0)


class TestGammaLimit:
    def test_source_family(self, gamma_family):
        rep = gamma_family["report"]
        assert rep.passed
        assert rep.context["monotone"]
        assert rep.context["pre_window_bitwise"]
        assert rep.measured <= 0.5

    def test_lax_friedrichs_family(self):
        options = SchemeOptions(flux_kind=LAX_FRIEDRICHS)
        rep = verify.check_gamma_limit(source_spec(), unit_grid(16),
                                       [0.2, 0.1, 0.05], options)
        assert rep.passed
        assert rep.context["pre_window_bitwise"]

    @pytest.mark.parametrize("gamma", [0.003125, 0.001])
    def test_narrow_widths_reach_the_impulsive_run_exactly(self, gamma):
        # at 32x32 tau/dt = 66.5: a support [tau - gamma, tau] inside the
        # step from level 66 to 67 gets theta = P(z > 0) - P(z < -1) = 1
        # exactly, the impulse's kick, on the same dt
        spec = source_spec()
        grid = unit_grid(32)
        ref = solver.solve(spec.with_data(gamma=0.0), grid)
        traj = solver.solve(spec.with_data(gamma=gamma), grid)
        assert traj.meta["dt"] == ref.meta["dt"]
        assert verify.spacetime_l1_diff(traj, ref) == 0.0

    def test_degenerate_no_perturbation(self):
        # every width would march the one run, and the flat errors passed
        with pytest.raises(ValueError, match="^a gamma sweep needs a "
                                             "source beta"):
            verify.check_gamma_limit(nosource_spec(), unit_grid(32),
                                     [0.2, 0.1, 0.05])

    def test_rejects_oversized_gamma(self):
        with pytest.raises(verify.GammaOutOfRangeError):
            verify.check_gamma_limit(source_spec(), unit_grid(8), [0.3, 0.1])

    def test_rejects_nondecreasing(self):
        with pytest.raises(verify.GammaOutOfRangeError):
            verify.check_gamma_limit(source_spec(), unit_grid(8), [0.1, 0.2])


class TestEpsilonCauchy:
    def test_successive_differences_decrease(self, epsilon_family):
        diffs = [verify.spacetime_l1_diff(epsilon_family["trajs"][a],
                                          epsilon_family["trajs"][b])
                 for a, b in ((0.04, 0.02), (0.02, 0.01))]
        rep = verify.epsilon_cauchy_report(epsilon_family["spec"],
                                           epsilon_family["eps_values"], diffs)
        assert rep.passed
        assert diffs[1] < diffs[0]

    def test_ordering_against_vanishing_viscosity_limit(self, epsilon_family):
        trajs = epsilon_family["trajs"]
        d_small = verify.spacetime_l1_diff(trajs[0.01], trajs[0.0])
        d_large = verify.spacetime_l1_diff(trajs[0.04], trajs[0.0])
        assert d_small < d_large


class TestGenuineNonlinearity:
    """mu bounds the measure of every level set of a' by the width of the
    parts on which the enclosure of a'' holds 0 or reaches a pole."""

    def _certify(self, text):
        return verify.validate_genuine_nonlinearity(E.parse(text), 10.0)

    def test_quadratic_passes(self):
        # a'' = 1 excludes 0 on the whole range: one enclosure
        rep = self._certify("lambda^2/2")
        assert rep.passed
        assert (rep.measured, rep.context["n_parts"]) == (0.0, 1)

    def test_linear_fails(self):
        # a' is constant, so one level set is all of [-Lambda, Lambda]
        rep = self._certify("2*lambda")
        assert not rep.passed
        assert rep.measured == 20.0

    def test_degenerate_fails(self):
        rep = self._certify("0")
        assert not rep.passed
        assert rep.measured == 20.0

    @pytest.mark.parametrize("flux, flat", [
        ("max(lambda, 0)^2/2", 10.0),
        ("max(lambda - 1.5, 0)^2/2 + min(lambda - 1, 0)^2/2", 0.5)])
    def test_interval_linear_fails(self, flux, flat):
        # linear on an interval of width ``flat``, [-Lambda, 0] or [1, 1.5],
        # where a'' is 0: mu holds it, exactly where a cut lands on its ends
        rep = self._certify(flux)
        assert not rep.passed
        assert flat <= rep.measured <= flat * (1 + 1e-3)

    @pytest.mark.parametrize("flux", ["lambda^3", "tanh(lambda)",
                                      "abs(lambda)^1.5", "sin(lambda)"])
    def test_isolated_inflections_and_a_pole_pass(self, flux):
        # a'' vanishes at isolated points, or |lambda|^1.5's has a pole at
        # 0: the parts that hold them are cut until their width is small
        rep = self._certify(flux)
        assert rep.passed
        assert 0.0 < rep.measured <= rep.bound == 1e-2


class TestReports:
    def test_rerun_identical(self, shock_run):
        ks = [0.0, 0.5, 1.0]
        r1 = _entropy_residual(shock_run["traj"],
                               shock_run["spec"], ks)
        r2 = _entropy_residual(shock_run["traj"],
                               shock_run["spec"], ks)
        assert r1.row() == r2.row()

    def test_csv_round_trip(self, tmp_path, shock_run):
        reps = [_entropy_residual(shock_run["traj"],
                                  shock_run["spec"], [0.5])]
        path = tmp_path / "reports.csv"
        verify.write_reports(path, reps)
        lines = path.read_text().splitlines()
        assert lines[0] == "check,measured,bound,tolerance,pass,context_hash"
        assert len(lines) == 2
        assert lines[1].startswith("entropy_residual,")


def _jump_reference(traj, spec):
    """``check_jump``'s row as the check first read its values off the
    spec: beta evaluated from its AST, M3 the jump level's bound of
    ``_bound_curves_reference``, and the slope ``min_kick_slope`` without
    kick mass."""
    stepper = _op(spec, traj)
    marched = stepper.spec
    i = traj.levels.index(stepper.n_tau)
    um = verify._pre_kick(stepper, traj.fields[i - 1].values,
                          traj.levels[i - 1], stepper.n_tau)
    xc, sc = traj.grid.cell_centers()
    jump = traj.fields[i].values - um - E.evaluate(marched.beta, {
        "x": xc[:, None], "s": sc[None, :], "lambda": um})
    pointwise = verify._inf_unless_finite(float(np.max(np.abs(jump))))
    m3 = _bound_curves_reference(marched, traj)[i]
    min_weight = 1.0 + min_kick_slope(marched, 0.0)
    post_sup = traj.fields[i].sup_norm()
    measured = max(pointwise / 1e-14, post_sup / max(m3, 1e-300),
                   1.0 - min_weight)
    context = {"spec": marched.context_hash(), "pointwise": pointwise,
               "post_sup": post_sup, "m3": m3, "min_jump_weight": min_weight}
    return verify._report("jump_condition", measured, 1.0, 0.0, 0.0, context)


# --- the hoisted checks against their per-snapshot loop versions -------------
#
# The references below are the loops the checks ran before their
# t-invariant work was hoisted out: the same arithmetic on the same samples,
# so the reports must agree bit for bit.

def _window_sups_reference(expr, L, ends):
    """Entry i: the max of |expr| over x in linspace(0, L, 256) and every
    sampled t <= ends[i], where the sampled times are linspace(0, max(ends),
    256) joined with the ends; a plain loop over the sample set."""
    ts = np.array(sorted(set(np.linspace(0.0, max(ends), 256).tolist())
                         | set(map(float, ends))))
    xs = np.linspace(0.0, L, 256)
    vals = np.abs(np.broadcast_to(np.asarray(
        E.evaluate(expr, {"x": xs[:, None], "t": ts[None, :]}), dtype=float),
        (len(xs), len(ts))))
    out = []
    for end in ends:
        best = 0.0
        for j, t in enumerate(ts):
            if t <= end:
                best = max(best, float(vals[:, j].max()))
        out.append(best)
    return out


def _bound_curves_reference(spec, traj):
    """B at each snapshot, one step at a time: D the largest of |u^0| and
    the s-end data at the start of every step so far, the kick mass
    applied so far times sup|beta|, saturated at max(D, b1); every value
    evaluated from the spec's ASTs."""
    meta = traj.meta
    dt, gamma, n_steps = meta["dt"], meta["gamma"], meta["n_steps"]
    xc, sc = traj.grid.cell_centers()

    def sup_on_cells(expr, cells):
        return float(np.max(np.abs(E.evaluate(expr, cells))))

    base = max(data_sup_norms(spec).values())
    sup_beta = (0.0 if spec.beta is None else
                E.sup(spec.beta, slab(spec, max(base, spec.b1) + 1.0)))
    thetas = kernels.step_mass(np.arange(n_steps), dt, spec.tau,
                               gamma, meta["n_tau"]).tolist()
    dnorm = sup_on_cells(spec.data_u0_1, {"x": xc[:, None],
                                          "s": sc[None, :]})
    mass, bounds = 0.0, []
    for n in range(n_steps + 1):
        if n in traj.levels:
            bounds.append(float(min(dnorm + mass * sup_beta,
                                    max(dnorm, spec.b1))))
        if n < n_steps:
            for expr in (spec.data_u0_2, spec.data_uS_2):
                dnorm = max(dnorm, sup_on_cells(expr, {"x": xc, "t": n * dt}))
            mass += thetas[n] if spec.beta is not None else 0.0
    return bounds


def _q_a_reference(spec, v, k):
    a_v = np.asarray(E.evaluate(spec.flux_a, {"lambda": v}))
    a_k = float(E.evaluate(spec.flux_a, {"lambda": k}))
    return np.sign(v - k) * (a_v - a_k), a_v


def _bln_reference(traj, spec, k_values):
    """``check_bln`` one snapshot at a time; the row is then decided by the
    first non-finite, else first largest, entry in k, end, snapshot and
    cell order."""
    grid = traj.grid
    tol = 5.0 * (grid.ds + grid.dx)
    xc, _ = grid.cell_centers()
    gaps = {}  # (k index, end) -> [(t, gap over the trace's cells)]
    n_scored = 0
    for t, fld in zip(traj.times, traj.fields):
        if t <= 0.0:
            continue
        tr0, trS = fld.values[:, 0], fld.values[:, -1]
        n_scored += 1
        data0 = np.broadcast_to(np.asarray(E.evaluate(
            spec.data_u0_2, {"x": xc, "t": t})), xc.shape)
        dataS = np.broadcast_to(np.asarray(E.evaluate(
            spec.data_uS_2, {"x": xc, "t": t})), xc.shape)
        for j, k in enumerate(k_values):
            q_tr0, a_tr0 = _q_a_reference(spec, tr0, k)
            q_d0, a_d0 = _q_a_reference(spec, data0, k)
            expr0 = (q_tr0 - q_d0
                     - verify._smooth_sign(data0 - k) * (a_tr0 - a_d0))
            gaps.setdefault((j, "s0"), []).append((t, expr0))
            q_trS, a_trS = _q_a_reference(spec, trS, k)
            q_dS, a_dS = _q_a_reference(spec, dataS, k)
            exprS = (q_trS - q_dS
                     - verify._smooth_sign(dataS - k) * (a_trS - a_dS))
            gaps.setdefault((j, "sS"), []).append((t, -exprS))
    worst = (-np.inf, None, None, None, None) if gaps else \
        (np.inf, None, None, None, None)
    for (j, end), rows in sorted(gaps.items()):
        for t, row in rows:
            bad = np.flatnonzero(~np.isfinite(row))
            cx = int(bad[0]) if bad.size else int(np.argmax(row))
            value = np.inf if bad.size else float(row[cx])
            if value > worst[0]:
                worst = (value, t, end,
                         [cx, 0 if end == "s0" else grid.ns - 1],
                         float(k_values[j]))
    context = {"spec": spec.context_hash(), "tol": tol,
               "k_values": list(map(float, k_values)), "n_scored": n_scored,
               "t_worst": worst[1], "end": worst[2], "cell_worst": worst[3],
               "k_worst": worst[4]}
    return verify._report("bln_boundary", worst[0], 0.0, 0.0, tol, context)


def _entropy_rhos_reference(traj, spec, k_values):
    """(t_n, rho) for every step of a stride-1 run, rho on axes (k, x, s):
    the cell inequality with the Kruzhkov fluxes in the max/min form
    F(u v k) - F(u ^ k), one k at a time, and the kick's mass theta_n
    from the kernel's primitive, or at gamma = 0 from ``n_tau``."""
    meta = traj.meta
    stepper = Stepper(spec.with_data(epsilon=meta["eps"], gamma=meta["gamma"]),
                      traj.grid, options=meta["options"],
                      m_bound=meta["m_bound"], dt=meta["dt"])
    grid = traj.grid
    dt, dx, ds = meta["dt"], grid.dx, grid.ds
    xc, sc = grid.cell_centers()
    cells = {"x": xc[:, None], "s": sc[None, :]}
    z, p = kernels.k_gamma_primitive()
    out = []
    for n in range(len(traj.times) - 1):
        t0 = traj.times[n]
        u0 = traj.fields[n].values
        u1 = traj.fields[n + 1].values
        if spec.beta is None:
            theta = 0.0
        elif meta["gamma"] == 0.0:
            theta = 1.0 if n + 1 == meta["n_tau"] else 0.0
        else:
            ends = (np.array([t0, t0 + dt]) - spec.tau) / meta["gamma"]
            theta = float(np.diff(np.interp(ends, z, p))[0])
        v = stepper.step(u0, round(t0 / dt)) if theta else u1
        w = stepper.padded(u0, t0)
        rhos = []
        for k in k_values:
            w_up = np.maximum(w, k)
            w_dn = np.minimum(w, k)
            eta_pad = w_up - w_dn
            ws_up, ws_dn = w_up[1:-1, :], w_dn[1:-1, :]
            q_a = (stepper.flux_a.flux(ws_up[:, :-1], ws_up[:, 1:])
                   - stepper.flux_a.flux(ws_dn[:, :-1], ws_dn[:, 1:]))
            wx_up, wx_dn = w_up[:, 1:-1], w_dn[:, 1:-1]
            q_p = (stepper.flux_phi.flux(wx_up[:-1, :], wx_up[1:, :])
                   - stepper.flux_phi.flux(wx_dn[:-1, :], wx_dn[1:, :]))
            eta0 = eta_pad[1:-1, 1:-1]
            rho = (np.abs(u1 - k) - eta0
                   + dt / ds * (q_a[:, 1:] - q_a[:, :-1])
                   + dt / dx * (q_p[1:, :] - q_p[:-1, :]))
            # Kato's form: Lap_x of |v - k|, x-ghosts |0 - k|
            ev = np.pad(np.abs(v - k), ((1, 1), (0, 0)),
                        constant_values=abs(k))
            rho = rho - dt * (ev[:-2, :] - 2.0 * ev[1:-1, :]
                              + ev[2:, :]) / dx ** 2
            if stepper.eps > 0:
                es = eta_pad[1:-1, :]
                rho = rho - dt * stepper.eps * (
                    es[:, :-2] - 2.0 * eta0 + es[:, 2:]) / ds ** 2
            if theta:
                b_v = E.evaluate(spec.beta, {**cells, "lambda": v})
                b_k = E.evaluate(spec.beta, {**cells, "lambda": k})
                rho = rho - theta * (np.sign(v - k) * (b_v - b_k)
                                     + np.abs(b_k))
            rhos.append(rho)
        out.append((t0, np.array(rhos)))
    return out


def _entropy_residual_reference(traj, spec, k_values):
    worst = (-np.inf, None, None, None)
    for t0, rho in _entropy_rhos_reference(traj, spec, k_values):
        j, cx, cs = np.unravel_index(np.argmax(rho), rho.shape)
        if rho[j, cx, cs] > worst[0]:
            worst = (float(rho[j, cx, cs]), t0, [int(cx), int(cs)],
                     float(k_values[j]))
    # the spec of the operator ``_op`` rebuilds
    marched = cli._marched(spec, traj.meta["mode"])
    context = {"spec": marched.context_hash(),
               "k_values": list(map(float, k_values)),
               "n_scored": len(traj.times) - 1, "t_worst": worst[1],
               "cell_worst": worst[2], "k_worst": worst[3]}
    return verify._report("entropy_residual", worst[0], 0.0, 0.0, 1e-8,
                          context)


def _stability_rhs_reference(spec1, spec2, t, d_init, inflow, thetas, dt):
    """The stability estimate at time t, one step of the march at a time:
    the explicit part and the lateral solve add the step's inflow, and the
    kick multiplies by 1 + theta b0, beta1's slope bound, and adds theta S
    |Omega| sup|beta1 - beta2|, both enclosed."""
    b0 = (kernels.estimate_dbeta_sup(spec1.beta, spec1.L, spec1.S, spec1.b1)
          if spec1.beta is not None else 0.0)
    b1 = max(spec1.b1, spec2.b1)
    zero = E.Num(0.0)
    dbeta = (0.0 if spec1.beta == spec2.beta else E.sup(
        E.BinOp("-", spec1.beta or zero, spec2.beta or zero),
        slab(spec1, b1 + 1.0)))
    e = d_init
    for n in range(round(t / dt)):
        e = e + inflow[n]
        e = (1.0 + thetas[n] * b0) * e
        e = e + thetas[n] * spec1.S * spec1.L * dbeta
    return float(e)


def _inflow_reference(st1, st2):
    """Each step's inflow, one step at a time: the two runs' ghosts from
    ``Stepper.boundary_values`` at the step's start, through the first
    run's split parts and eps D_ss."""
    grid, split = st1.grid, st1.flux_a.split

    def l1(d):
        return np.sum(np.abs(d)) * grid.dx

    out = []
    for n in range(st1.n_steps):
        (y0, yS), (z0, zS) = (st.boundary_values(n * st1.dt)
                              for st in (st1, st2))
        flux = l1(split(y0)[0] - split(z0)[0]) + l1(split(yS)[1]
                                                    - split(zS)[1])
        ghosts = l1(y0 - z0) + l1(yS - zS)
        out.append(st1.dt * (flux + st1.eps / grid.ds * ghosts))
    return np.array(out)


def _assert_same_residual(got, want):
    """The entropy residual against the per-k reference: the sum-split and
    the max/min flux forms round differently, so the largest rho may move
    by roundoff, and where every cell reads roundoff, so may its place."""
    assert got.passed == want.passed
    assert abs(got.measured - want.measured) <= 1e-14
    where = ("t_worst", "cell_worst", "k_worst")
    if want.measured > 1e-10:
        assert [got.context[key] for key in where] == \
            [want.context[key] for key in where]
    for key in where:
        del got.context[key], want.context[key]
    assert got.context == want.context


def _assert_same_report(got, want):
    assert got.measured == want.measured
    assert got.bound == want.bound
    assert got.passed == want.passed
    assert got.context_hash() == want.context_hash()


@pytest.fixture(scope="module")
def small_runs():
    """16x16 source-problem runs, entropy and impulsive (its gamma -> 0
    limit), at strides 1 and 32, and a Lax-Friedrichs entropy run at
    stride 1."""
    spec = source_spec()
    grid = unit_grid(16)
    runs = {}
    for stride in (1, 32):
        opts = SchemeOptions(snapshot_stride=stride)
        runs["entropy", stride] = solver.solve(spec, grid, options=opts)
        runs["impulsive", stride] = solver.solve(spec.with_data(gamma=0.0),
                                                 grid, options=opts)
    runs["entropy_lf", 1] = solver.solve(
        spec, grid, options=SchemeOptions(snapshot_stride=1,
                                          flux_kind=LAX_FRIEDRICHS))
    return spec, runs


SMALL_KS = list(np.linspace(-1.5, 1.5, 9))


@pytest.fixture(scope="module")
def regularized_run():
    """The source problem at 32^2, eps = 0.01, stride 1, and the k bank
    ``upkolmo verify`` scores it with."""
    spec = source_spec().with_data(epsilon=0.01)
    traj = solver.solve(spec, unit_grid(32),
                        options=SchemeOptions(snapshot_stride=1))
    return spec, traj, cli._k_bank(traj)


def _two_split_residual(traj, stepper, k_values):
    """``check_entropy_residual``'s worst (value, t, cell, k), with the
    s-strip of the padded state split by ``flux_a`` and the x-strip by
    ``flux_phi``, each on its own, and g(k), h(k) split once per flux."""
    grid, dt = traj.grid, stepper.dt
    ks = np.asarray(k_values, dtype=float).reshape(-1, 1, 1)
    k_a, k_p = stepper.flux_a.split(ks), stepper.flux_phi.split(ks)
    cells = {"x": stepper.xc[:, None], "s": stepper.sc[None, :]}
    worst = (-np.inf, None, None, None)
    for i in range(len(traj.times) - 1):
        n, t0 = traj.levels[i], traj.times[i]
        u0, u1 = traj.fields[i].values, traj.fields[i + 1].values
        theta = stepper.thetas[n]
        v = stepper.step(u0, n) if theta else u1
        w = stepper.padded(u0, t0)
        sign, eta_pad = np.sign(w - ks), np.abs(w - ks)
        eta0 = eta_pad[:, 1:-1, 1:-1]
        g, h = stepper.flux_a.split(w[1:-1])
        sg = sign[:, 1:-1]
        q = sg[..., :-1] * (g[:, :-1] - k_a[0]) + sg[..., 1:] * (
            h[:, 1:] - k_a[1])
        rho = (np.abs(u1 - ks) - eta0
               + dt / grid.ds * (q[..., 1:] - q[..., :-1]))
        g, h = stepper.flux_phi.split(w[:, 1:-1])
        sg = sign[..., 1:-1]
        q = sg[:, :-1] * (g[:-1] - k_p[0]) + sg[:, 1:] * (h[1:] - k_p[1])
        rho = rho + dt / grid.dx * (q[:, 1:] - q[:, :-1])
        ev = np.abs(np.pad(v, ((1, 1), (0, 0))) - ks)
        rho = rho - dt * (ev[:, :-2] - 2.0 * ev[:, 1:-1]
                          + ev[:, 2:]) / grid.dx ** 2
        if stepper.eps > 0:
            es = eta_pad[:, 1:-1, :]
            rho = rho - dt * stepper.eps * (
                es[..., :-2] - 2.0 * eta0 + es[..., 2:]) / grid.ds ** 2
        if theta:
            b_v = stepper.beta_fn({**cells, "lambda": v})
            b_k = stepper.beta_fn({**cells, "lambda": ks})
            rho = rho - theta * (np.sign(v - ks) * (b_v - b_k)
                                 + np.abs(b_k))
        j, cx, cs = np.unravel_index(np.argmax(rho), rho.shape)
        if rho[j, cx, cs] > worst[0]:
            worst = (float(rho[j, cx, cs]), t0, [int(cx), int(cs)],
                     float(ks[j, 0, 0]))
    return worst


class TestOneSplitPerFlux:
    @pytest.mark.parametrize("phi", ["lambda^2/2", "sin(lambda)"])
    @pytest.mark.parametrize("kind", ["engquist_osher", LAX_FRIEDRICHS])
    def test_entropy_residual_equals_the_two_split_form(self, monkeypatch,
                                                        kind, phi):
        # the delayed source at eps = 0.01 kicks, and phi, parsed apart
        # from a, shares a's flux object exactly when the two trees agree
        spec = source_spec().with_data(flux_phi=E.parse(phi), epsilon=0.01)
        traj = solver.solve(spec, unit_grid(12), options=SchemeOptions(
            flux_kind=kind, snapshot_stride=1))
        stepper = verify.rebuild(spec, traj)
        assert (stepper.flux_phi is stepper.flux_a) == (phi == "lambda^2/2")
        ks = [-0.3, 0.0, 0.2, 0.45, 0.8]
        value, t_worst, cell, k = _two_split_residual(traj, stepper, ks)
        calls = []
        cls = type(stepper.flux_a)
        real = cls.split

        def counting(flux, w):
            calls.append(w.shape)
            return real(flux, w)
        monkeypatch.setattr(cls, "split", counting)
        rep = verify.check_entropy_residual(traj, stepper, ks)
        assert rep.measured == value
        assert rep.context["t_worst"] == t_worst
        assert (rep.context["cell_worst"], rep.context["k_worst"]) == (cell,
                                                                       k)
        # k's parts once, then each step's padded state once, per distinct
        # flux; a kick step's replayed update reuses that state's parts
        assert np.count_nonzero(stepper.thetas[:len(traj.times) - 1]) > 0
        distinct = 1 if stepper.flux_phi is stepper.flux_a else 2
        assert len(calls) == distinct * len(traj.times)
        assert calls[:distinct] == [(len(ks), 1, 1)] * distinct


class TestHoistedAgainstReference:
    @pytest.mark.parametrize("mode", ["entropy", "impulsive"])
    def test_bln(self, small_runs, mode):
        spec, runs = small_runs
        traj = runs[mode, 1]
        _assert_same_report(_bln(traj, spec, SMALL_KS),
                            _bln_reference(traj, spec, SMALL_KS))

    def test_bln_time_dependent_data(self, unattainable_run):
        spec, traj = unattainable_run["spec"], unattainable_run["traj"]
        ks = list(np.linspace(-2.5, 2.5, 9))
        _assert_same_report(_bln(traj, spec, ks),
                            _bln_reference(traj, spec, ks))

    @pytest.mark.parametrize("mode", ["entropy", "impulsive", "entropy_lf"])
    def test_entropy_residual(self, small_runs, mode):
        spec, runs = small_runs
        traj = runs[mode, 1]
        _assert_same_residual(
            _entropy_residual(traj, spec, SMALL_KS),
            _entropy_residual_reference(traj, spec, SMALL_KS))

    @pytest.mark.parametrize("mode", ["entropy", "impulsive", "nan"])
    def test_entropy_residual_is_its_worst_step(self, small_runs, mode):
        # the row over the run is the first worst of the rows of its
        # one-step pieces, each a pair of consecutive snapshots; "nan"
        # plants non-finite cells in two snapshots, 20 steps apart
        spec, runs = small_runs
        traj = runs["impulsive" if mode == "impulsive" else "entropy", 1]
        if mode == "nan":
            fields = [Field(f.values.copy(), f.grid, f.t) for f in traj.fields]
            fields[20].values[3, 4] = np.nan
            fields[40].values[2, 2] = np.inf
            traj = Trajectory(traj.grid, list(traj.times), fields,
                              meta=traj.meta, levels=list(traj.levels))
        rep = _entropy_residual(traj, spec, SMALL_KS)
        pieces = [_entropy_residual(
            Trajectory(traj.grid, traj.times[n:n + 2], traj.fields[n:n + 2],
                       meta=traj.meta, levels=traj.levels[n:n + 2]),
            spec, SMALL_KS)
            for n in range(len(traj.times) - 1)]
        worst = max(pieces, key=lambda piece: piece.measured)
        assert rep.measured == worst.measured
        where = ("t_worst", "cell_worst", "k_worst")
        assert [rep.context[key] for key in where] == \
            [worst.context[key] for key in where]
        if mode == "nan":
            assert rep.measured == np.inf
            assert rep.context["t_worst"] == traj.times[19]
        else:
            _assert_same_residual(
                rep, _entropy_residual_reference(traj, spec, SMALL_KS))

    def test_entropy_residual_shock(self, shock_run):
        spec, traj = shock_run["spec"], shock_run["traj"]
        ks = [-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5]
        _assert_same_residual(_entropy_residual(traj, spec, ks),
                              _entropy_residual_reference(traj, spec, ks))

    def test_max_principle_bounds(self, small_runs):
        spec, runs = small_runs
        for mode in ("entropy", "impulsive"):
            traj = runs[mode, 1]
            bounds = _bounds(spec, traj)
            marched = cli._marched(spec, mode)
            assert list(bounds) == _bound_curves_reference(marched, traj)

    def test_max_principle_bounds_time_dependent_data(self, unattainable_run):
        # the inflow ramp raises D step by step, and no beta kicks
        spec, traj = unattainable_run["spec"], unattainable_run["traj"]
        bounds = _bounds(spec, traj)
        assert list(bounds) == _bound_curves_reference(spec, traj)
        assert len(set(bounds)) > 10

    @staticmethod
    def _assert_stability_curve(spec1, spec2, traj, inflow):
        dt = traj.meta["dt"]
        stepper = _op(spec1 if spec1.beta is not None else spec2,
                      traj)
        thetas = stepper.thetas
        got = stability_rhs(spec1, spec2, traj.levels, 0.1, inflow, thetas)
        want = [_stability_rhs_reference(spec1, spec2, t, 0.1, inflow,
                                         thetas, dt) for t in traj.times]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        return got

    @staticmethod
    def _inflow(spec1, spec2, traj):
        """The two specs' inflow on the run's steppers, which must equal
        the per-step loop byte for byte."""
        st1, st2 = _op(spec1, traj), _op(spec2, traj)
        inflow = verify._inflow(st1, st2)
        assert inflow.tobytes() == _inflow_reference(st1, st2).tobytes()
        return inflow

    def test_stability_curve(self, small_runs):
        spec, runs = small_runs
        traj = runs["entropy", 32]
        n, dt = traj.meta["n_steps"], traj.meta["dt"]
        other = spec.with_data(beta=E.parse(f"0.6*{E.to_string(spec.beta)}"))
        inflow = dt * (np.linspace(0.0, 0.02, n) + np.linspace(0.01, 0.0, n))
        got = self._assert_stability_curve(spec, other, traj, inflow)
        assert got[0] == 0.1 < got[-1]

    def test_stability_curve_lax_friedrichs(self, small_runs):
        # zero ghosts against a bump at s = 0, through the Lax-Friedrichs
        # parts the run stepped with
        spec, runs = small_runs
        traj = runs["entropy_lf", 1]
        other = spec.with_data(data_u0_2=E.parse(f"0.2*{XBUMP}"))
        inflow = self._inflow(spec, other, traj)
        assert np.all(inflow > 0.0) and len(set(inflow)) == 1
        got = self._assert_stability_curve(spec, other, traj, inflow)
        assert got[0] == 0.1 < got[-1]

    def test_stability_curve_time_dependent_data(self, small_runs):
        # the source problem's zero boundary data against the inflow ramp
        # of `unattainable_spec`, which starts at t = 0.1
        source, runs = small_runs
        traj = runs["entropy", 32]
        spec = unattainable_spec(L=1.0)
        inflow = self._inflow(source, spec, traj)
        ts = np.arange(traj.meta["n_steps"]) * traj.meta["dt"]
        assert np.all(inflow[ts <= 0.1] == 0.0)
        assert np.all(inflow[ts > 0.1] > 0.0)
        self._assert_stability_curve(source, spec, traj, inflow)

    @pytest.mark.parametrize("pair", ["both", "first", "second", "ramp",
                                      "shifted"])
    def test_impulsive_stability_curve(self, small_runs, pair):
        spec, runs = small_runs
        shifted = spec.with_data(beta=E.parse(BETA_TEXT.replace(
            "(x-0.5)", "(x-0.521)")))
        other = {"both": perturbed_spec(spec, 0.05), "first": nosource_spec(),
                 "second": spec, "ramp": spec, "shifted": shifted}[pair]
        spec1 = {"second": nosource_spec(),
                 "ramp": unattainable_spec(L=1.0)}.get(pair, spec)
        traj = runs["impulsive", 32]
        dt, n = traj.meta["dt"], traj.meta["n_steps"]
        if pair == "ramp":
            inflow = self._inflow(spec1, other, traj)
        else:
            inflow = dt * (np.linspace(0.0, 0.02, n)
                           + np.linspace(0.01, 0.0, n))
        got = self._assert_stability_curve(spec1, other, traj, inflow)
        n_tau = traj.meta["n_tau"]
        levels = [round(t / dt) for t in traj.times]
        assert {lv >= n_tau for lv in levels} == {False, True}
        # the kick at n_tau lifts the curve at its level
        i = levels.index(n_tau)
        assert got[i] > got[i - 1]


# constant, x-only (t-free), t-only and (x, t) boundary data
DATA = ["0", "0.4", "0.3*sin(7*x) + x*x", "0.2*t", "x*(1-x)*exp(t)"]
# window ends on and off the 256-point t-axis, the first next to 0
WINDOW_ENDS = np.array([1e-9, 0.021, 0.10638, 0.25, 0.5, 0.731, 1.0])


# how far above a dense sample the enclosures of these data may lie: the
# most is x (1 - x) exp(t), 1.4% above, as x and 1 - x vary apart on the
# parts the budget leaves
TIGHT = 0.015


class TestDataSamplingAgainstReference:
    @pytest.mark.parametrize("text", DATA)
    @pytest.mark.parametrize("scale", [1.0, 1.01])
    def test_window_ends(self, text, scale):
        # each window's norm encloses every sample of the window, of the
        # data and of the data scaled by 1.01, and on these data comes
        # within TIGHT of the samples
        text = f"{scale!r}*({text})"
        spec = source_spec().with_data(data_u0_2=E.parse(text),
                                       data_uS_2=E.parse(f"-({text})"))
        whole = data_sup_norms(spec)
        reads_t = "t" in E.compile(E.parse(text))[1]
        for name in ("u0_2", "uS_2"):
            want = _window_sups_reference(getattr(spec, f"data_{name}"),
                                          spec.L, WINDOW_ENDS)
            for end, sample in zip(WINDOW_ENDS, want):
                got = data_sup_norms(spec, (0.0, float(end)))
                assert got["u0_1"] == whole["u0_1"]
                assert sample <= got[name] <= sample * (1.0 + TIGHT) + 1e-12
                if not reads_t:
                    assert got[name] == whole[name]

    @pytest.mark.parametrize("text1", DATA)
    @pytest.mark.parametrize("text2", ["0", "0.1*cos(5*x)", "0.5*t*x"])
    @pytest.mark.parametrize("n_steps", [1, 2, 37])
    def test_boundary_series(self, text1, text2, n_steps):
        # the inflow from one (n_steps, nx) array of ghosts against the
        # per-step loop, byte for byte, for both flux kinds, with and
        # without eps; with tau past T the steps are T/dt = n_steps
        base = source_spec().with_data(T=0.01 * n_steps)
        spec1 = base.with_data(data_u0_2=E.parse(text1),
                               data_uS_2=E.parse(text2))
        spec2 = base.with_data(data_u0_2=E.parse(text2),
                               data_uS_2=E.parse(f"2*({text1})"))
        for kind in (LAX_FRIEDRICHS, "engquist_osher"):
            for eps in (0.0, 0.01):
                st1, st2 = (Stepper(s.with_data(epsilon=eps), unit_grid(16),
                                    m_bound=2.0, dt=0.01,
                                    options=SchemeOptions(flux_kind=kind))
                            for s in (spec1, spec2))
                assert st1.n_steps == n_steps
                got = verify._inflow(st1, st2)
                want = _inflow_reference(st1, st2)
                assert got.shape == want.shape == (n_steps,)
                assert got.tobytes() == want.tobytes()


class TestNothingToCertify:
    def test_bln_empty_k_bank_fails(self):
        traj, spec = TestBln._bln_case([(0.0, 0.4), (0.1, 2.0)])
        rep = _bln(traj, spec, [])
        assert not rep.passed
        assert rep.measured == np.inf
        assert set(rep.context) == {"spec", "tol", "k_values", "n_scored",
                                    "t_worst", "end", "cell_worst",
                                    "k_worst"}
        assert rep.context["t_worst"] is None

    def test_entropy_residual_empty_k_bank_fails(self, shock_run):
        rep = _entropy_residual(shock_run["traj"],
                                shock_run["spec"], [])
        assert not rep.passed
        assert rep.measured == np.inf

    def test_entropy_residual_no_step_scored_fails(self, shock_run):
        full = shock_run["traj"]
        traj = Trajectory(grid=full.grid, meta=full.meta)
        traj.append(0, full.fields[0])
        rep = _entropy_residual(traj, shock_run["spec"], [0.5])
        assert not rep.passed
        assert rep.measured == np.inf

    def test_entropy_residual_non_finite_cell_fails(self, shock_run):
        full = shock_run["traj"]
        traj = Trajectory(grid=full.grid, meta=full.meta)
        for i, (n, fld) in enumerate(zip(full.levels, full.fields)):
            if i == 5:
                fld = Field(fld.values.copy(), fld.grid, fld.t)
                fld.values[20, 30] = np.nan
            traj.append(n, fld)
        rep = _entropy_residual(traj, shock_run["spec"], [0.5])
        assert not rep.passed
        assert rep.measured == np.inf
        assert rep.row()[1] == "inf"
        # the first step to read the cell ends on it; its Kato Laplacian
        # spreads the NaN to the x-neighbours, the first of which is named
        assert rep.context["t_worst"] == full.times[4]
        assert rep.context["cell_worst"] == [19, 30]

    def test_entropy_residual_non_finite_kick_step_fails(self, small_runs):
        # the replay of a kick step from a NaN snapshot cannot form the
        # pre-kick state: the row reads inf, it does not raise
        spec, runs = small_runs
        full = runs["impulsive", 1]
        n = full.meta["n_tau"] - 1
        traj = Trajectory(grid=full.grid, meta=full.meta)
        for m, fld in zip(full.levels, full.fields):
            if m == n:
                fld = Field(fld.values.copy(), fld.grid, fld.t)
                fld.values[8, 8] = np.nan
            traj.append(m, fld)
        rep = _entropy_residual(traj, spec, SMALL_KS)
        assert rep.measured == np.inf and not rep.passed
        assert rep.context["t_worst"] == full.times[n - 1]

    def test_entropy_residual_context_names_the_worst_step(self, shock_run):
        traj = shock_run["traj"]
        rep = _entropy_residual(traj, shock_run["spec"], [0.5])
        assert set(rep.context) == {"spec", "k_values", "n_scored",
                                    "t_worst", "cell_worst", "k_worst"}
        assert rep.context["n_scored"] == len(traj.times) - 1
        assert rep.context["t_worst"] in traj.times[:-1]
        assert rep.context["k_worst"] == 0.5
