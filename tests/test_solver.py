import functools
import itertools
import math

import numpy as np
import pytest

from upkolmo import exprdsl as E
from upkolmo import solver, verify
from upkolmo.problem import (SUP_SLACK, Field, Grid, ProblemSpec, Trajectory,
                             min_kick_slope, refined_max_bound, sup_bound)
from upkolmo.scheme import (LAX_FRIEDRICHS, NaNDetectedError, SchemeOptions,
                            Stepper, SupNormExceeded)
from samplers import sample_max, slab
from scenarios import (box_grid, nosource_spec, saturated_spec, shock_spec,
                       source_spec, unattainable_spec, unit_grid, zero_spec,
                       LCUT, SBUMP, TENT, XBUMP, flat_cut)


class TestZeroData:
    def test_entropy_stays_zero(self):
        spec = zero_spec()  # beta vanishes at value 0
        traj = solver.solve(ProblemSpec(**{**spec.__dict__}), unit_grid(16))
        for fld in traj.fields:
            assert np.all(fld.values == 0.0)

    def test_regularized_stays_zero(self):
        traj = solver.solve(zero_spec().with_data(epsilon=0.02),
                            unit_grid(16))
        assert all(f.sup_norm() == 0.0 for f in traj.fields)

    def test_impulsive_stays_zero(self):
        traj = solver.solve(zero_spec().with_data(gamma=0.0), unit_grid(16))
        assert traj.fields[-1].sup_norm() == 0.0


class TestDerivedMode:
    # (scenario, the eps and gamma of its spec, the mode solve marches)
    CASES = [
        (source_spec, {}, "entropy"),
        (source_spec, {"gamma": 0.0}, "impulsive"),
        (source_spec, {"eps": 0.01}, "regularized"),
        (zero_spec, {"gamma": 0.0}, "impulsive"),
        (zero_spec, {"eps": 0.02}, "regularized"),
        (nosource_spec, {"gamma": 0.0}, "entropy"),
        (nosource_spec, {"eps": 0.02, "gamma": 0.0}, "regularized"),
        (saturated_spec, {}, "entropy"),
        (shock_spec, {}, "entropy"),
        (unattainable_spec, {}, "entropy"),
    ]

    @pytest.mark.parametrize("scenario, given, mode", CASES, ids=[
        f"{scenario.__name__}-{mode}-{'-'.join(given)}"
        for scenario, given, mode in CASES])
    def test_solve_is_the_march_of_the_derived_mode(self, scenario, given,
                                                    mode):
        spec = scenario()
        spec = spec.with_data(epsilon=given.get("eps", spec.epsilon),
                              gamma=given.get("gamma", spec.gamma))
        grid = box_grid(spec, 8)
        traj = solver.solve(spec, grid)
        assert traj.meta["mode"] == solver.mode_of(spec) == mode
        assert (traj.meta["eps"], traj.meta["gamma"]) == (spec.epsilon,
                                                          spec.gamma)
        assert traj.meta["spec_hash"] == spec.context_hash()
        direct = solver._march(spec, grid, None, None, None)
        assert traj.times == direct.times
        assert all(np.array_equal(a.values, b.values)
                   for a, b in zip(traj.fields, direct.fields))


class TestFamily:
    # a family marches as one stack, each member's operations those of its
    # solo run in the same order: every stored level keeps its bits
    FAMILIES = {
        "gamma": [source_spec().with_data(gamma=g)
                  for g in (0.0, 0.2, 0.1, 0.05)],
        "epsilon": [nosource_spec().with_data(gamma=0.0, epsilon=e)
                    for e in (0.04, 0.02, 0.01)],
        # eps = 0 gets no eps term at all, as the kick where theta_n = 0
        "epsilon_and_limit": [nosource_spec().with_data(gamma=0.0, epsilon=e)
                              for e in (0.04, 0.02, 0.01, 0.0)]}

    @pytest.mark.parametrize("family, n, flux", [
        ("gamma", 16, None), ("gamma", 32, None),
        ("gamma", 16, LAX_FRIEDRICHS),
        ("epsilon", 16, None), ("epsilon", 32, None),
        ("epsilon_and_limit", 16, None)])
    def test_every_member_is_its_solo_run(self, family, n, flux):
        specs = self.FAMILIES[family]
        options = SchemeOptions(flux_kind=flux) if flux else None
        stack = solver.solve_family(specs, unit_grid(n), options)
        dt = min(Stepper(s, unit_grid(n), options=options).dt for s in specs)
        assert [traj.meta["dt"] for traj in stack] == [dt] * len(specs)
        for spec, traj in zip(specs, stack):
            solo = solver.solve(spec, unit_grid(n), options, dt=dt)
            assert traj.levels == solo.levels and traj.times == solo.times
            assert all(np.array_equal(a.values.view(np.uint64),
                                      b.values.view(np.uint64))
                       for a, b in zip(traj.fields, solo.fields))
            assert ({k: v for k, v in traj.meta.items()
                     if k not in ("setup_s", "march_s")}
                    == {k: v for k, v in solo.meta.items()
                        if k not in ("setup_s", "march_s")})

    def test_a_member_not_kicked_keeps_a_negative_zero(self):
        # theta_n = 0 leaves a member as it is; v + 0 beta(v) would not
        spec = source_spec()
        stepper = Stepper(spec, unit_grid(8))
        n = next(n for n, theta in enumerate(stepper.thetas) if theta)
        stack = stepper.stack([stepper, Stepper(spec.with_data(gamma=0.0),
                                                unit_grid(8),
                                                dt=stepper.dt)])
        assert stack.thetas[n].tolist() == [stepper.thetas[n], 0.0]
        v = np.full((2, 8, 8), -0.0)
        kicked = stack.kick(v, n)
        assert np.array_equal(np.signbit(kicked[1]), np.ones((8, 8), bool))
        assert np.array_equal(kicked[0], stepper.kick(v[0], n))

    def test_a_non_finite_member_names_itself_and_its_cell(self):
        # the explicit update is tested before the lateral solve, whose clip
        # ends one NaN would turn NaN, and with them every cell of the member
        stepper = Stepper(nosource_spec().with_data(gamma=0.0), unit_grid(8))
        u = np.zeros((2, 8, 8))
        u[1, 2, 3] = np.nan
        for st, state, at in ((stepper.stack([stepper, stepper]), u,
                               "member 1, cell (2, 3)"),
                              (stepper, u[1], "cell (2, 3)")):
            with pytest.raises(NaNDetectedError) as info:
                st.step(state, 0)
            assert str(info.value) == (f"non-finite value at {at} after step "
                                       "from t = 0")


class TestPreconditions:
    @pytest.mark.parametrize("eps, gamma", [
        (np.nan, 0.1), (np.inf, 0.1), (0.0, np.nan), (0.0, np.inf)])
    def test_refuses_a_viscosity_or_width_not_finite(self, eps, gamma):
        with pytest.raises(ValueError, match="finite, delay width finite"):
            solver.solve(source_spec().with_data(epsilon=eps, gamma=gamma),
                         unit_grid(8))

    def test_regularized_needs_positive_eps(self):
        # eps = 0 is the entropy problem; below it no problem is stated
        with pytest.raises(ValueError, match="viscosity must be >= 0"):
            solver.solve(nosource_spec().with_data(epsilon=-0.01),
                         unit_grid(8))

    def test_regularized_rejects_zero_gamma_with_perturbation(self):
        # at eps = 0 the same gamma marches the impulse
        with pytest.raises(solver.GammaOutOfRangeError):
            solver.solve(source_spec().with_data(epsilon=0.01, gamma=0.0),
                         unit_grid(8))

    def test_entropy_rejects_oversized_gamma(self):
        with pytest.raises(solver.GammaOutOfRangeError):
            solver.solve(source_spec().with_data(gamma=0.3), unit_grid(8))

    def test_impulsive_needs_interior_tau(self):
        spec = source_spec().with_data(tau=0.0, gamma=0.0)
        with pytest.raises(ValueError, match="jump time"):
            solver.solve(spec, unit_grid(8))


class TestMaxPrincipleBound:
    def test_snapshots_below_refined_bound(self, gamma_family):
        spec = gamma_family["spec"]
        traj = gamma_family["trajs"][0.1]
        for t, fld in zip(traj.times, traj.fields):
            bound = refined_max_bound(spec, max(t, 1e-9))
            assert fld.sup_norm() <= bound + 1e-10


def test_heat_decay_rate():
    # pure lateral diffusion: the sine profile decays like exp(-(pi/L)^2 t)
    spec = ProblemSpec(
        L=1.0, T=0.1, S=1.0,
        flux_a=E.parse("0"), flux_phi=E.parse("0"),
        data_u0_1=E.parse(f"sin(3.14159265358979*x)*{SBUMP}"),
        data_u0_2=E.parse("0"), data_uS_2=E.parse("0"),
        tau=0.05, gamma=0.0, epsilon=0.0,
    )
    grid = Grid(nx=128, ns=8, L=1.0, S=1.0)
    traj = solver.solve(spec, grid)
    ratio = traj.fields[-1].sup_norm() / traj.fields[0].sup_norm()
    expected = math.exp(-math.pi ** 2 * 0.1)
    assert abs(ratio - expected) / expected <= 0.02


class TestJumpMap:
    def test_bench_jump_map_is_accepted(self):
        # the workload's beta: 1 + d beta/d lambda >= 0.6634 on |lambda| <=
        # M2, as enclosed; 64 samples per axis reach 0.663
        spec = source_spec().with_data(gamma=0.0)
        weight = 1 + min_kick_slope(spec, 0.0)
        sampled = 1 - sample_max(
            E.Neg(E.diff(spec.beta, "lambda")),
            slab(spec, sup_bound(spec, spec.tau, 0.0)), n=64, signed=True)
        assert weight <= sampled == pytest.approx(0.663, abs=2e-3)
        assert weight == pytest.approx(0.6634, abs=1e-4)
        traj = solver.solve(spec, unit_grid(8))
        assert verify.check_jump(traj, verify.rebuild(spec, traj)).passed

    def test_decreasing_jump_map_is_rejected(self):
        spec = source_spec().with_data(
            beta=E.parse(f"-1.5*{TENT}*{XBUMP}*{SBUMP}"), gamma=0.0)
        with pytest.raises(ValueError, match="jump map .* decreases"):
            solver.solve(spec, unit_grid(8))


class TestKickCap:
    def test_capped_kick_is_nondecreasing_on_the_run(self):
        # beta = -3 lambda bumps, cut off in lambda: b0 = 3 > 1 and the
        # jump map decreases,
        # so the kick u <- v + theta beta(v) is monotone only while theta
        # b0 <= 1; the capped dt keeps it so on every value the run takes
        spec = source_spec(gamma=0.02).with_data(
            beta=E.parse(f"-3*lambda*{XBUMP}*{SBUMP}*{LCUT}"))
        assert 1 + min_kick_slope(spec, 0.0) < 0.0
        grid = unit_grid(16)
        traj = solver.solve(
            spec, grid, options=SchemeOptions(snapshot_stride=1))
        stepper = verify.rebuild(spec, traj)
        uncapped = Stepper(spec.with_data(gamma=0.0), grid).dt
        assert stepper.dt < uncapped
        slope = E.compile(E.diff(spec.beta, "lambda"))[0]
        cells = {"x": stepper.xc[:, None], "s": stepper.sc[None, :]}
        kicks = 0
        for n, fld in zip(traj.levels[:-1], traj.fields):
            theta = stepper.thetas[n]
            if theta:
                v = stepper.step(fld.values, n)
                d_beta = slope({**cells, "lambda": v})
                assert np.min(1.0 + theta * d_beta) >= 0.0
                kicks += 1
        assert kicks >= 2
        assert verify.check_max_principle(traj, stepper).passed
        ks = list(np.linspace(-0.1, 0.7, 9))
        assert verify.check_entropy_residual(traj, stepper, ks).passed


class TestImpulsive:
    def test_no_perturbation_continuous(self, grid64):
        # beta = 0, so that gamma = 0 states the impulse
        spec = nosource_spec().with_data(beta=E.parse("0"), gamma=0.0)
        traj = solver.solve(spec, grid64)
        v, jumped = _jump(traj, spec)
        assert np.max(np.abs(jumped - v)) <= 1e-15

    def test_constant_shift_on_support(self):
        # perturbation constant in value on |lambda| <= 9.9, where every
        # value lies, and 0 from b1 = 10 on: the jump is that constant
        spec = source_spec().with_data(
            beta=E.parse(f"0.25*{flat_cut(10)}"), b1=10.0, gamma=0.0)
        traj = solver.solve(spec, unit_grid(16))
        v, jumped = _jump(traj, spec)
        assert np.allclose(jumped - v, 0.25, atol=0.0)

    def test_jump_recorded_at_snapped_time(self, impulsive_run):
        traj = impulsive_run["traj"]
        n_tau, dt = traj.meta["n_tau"], traj.meta["dt"]
        assert n_tau * dt in traj.times and n_tau in traj.levels
        # the march records each snapshot's level and its time n dt
        assert traj.times == [n * dt for n in traj.levels]
        # n_tau = ceil(tau/dt): the first level at or after tau
        assert (n_tau - 1) * dt < impulsive_run["spec"].tau <= n_tau * dt

    def test_post_jump_snapshot_is_jumped_state(self, impulsive_run):
        # the stored snapshot at n_tau is the kick of the replayed v
        spec, traj = impulsive_run["spec"], impulsive_run["traj"]
        v, jumped = _jump(traj, spec)
        n = traj.meta["n_tau"] - 1
        assert np.array_equal(jumped, verify.rebuild(spec, traj).kick(v, n))

    def test_one_step_horizon_still_jumps(self):
        # dt = T would leave no step before the jump: the march takes two
        spec = source_spec().with_data(T=0.02, tau=0.01, gamma=0.0)
        traj = solver.solve(spec, unit_grid(8))
        assert (traj.meta["n_steps"], traj.meta["n_tau"]) == (2, 1)
        assert traj.times == [0.0, 0.01, 0.02]
        assert not np.array_equal(*_jump(traj, spec))
        assert verify.check_jump(traj, verify.rebuild(spec, traj)).passed


def _jump(traj, spec):
    """An impulsive run's pre-kick state at level n_tau, replayed from the
    snapshot below it, and its stored snapshot there."""
    n_tau = traj.meta["n_tau"]
    i = traj.levels.index(n_tau)
    v = verify._pre_kick(verify.rebuild(spec, traj),
                         traj.fields[i - 1].values, traj.levels[i - 1], n_tau)
    return v, traj.fields[i].values


class TestDeterminismAndConsistency:
    def test_bit_identical_reruns(self):
        spec = source_spec()
        grid = unit_grid(32)
        t1 = solver.solve(spec, grid)
        t2 = solver.solve(spec, grid)
        assert t1.times == t2.times
        for f1, f2 in zip(t1.fields, t2.fields):
            assert np.array_equal(f1.values, f2.values)

    def test_shared_window_bitwise(self, gamma_family):
        ref = gamma_family["ref"]
        for g in gamma_family["gammas"]:
            traj = gamma_family["trajs"][g]
            cutoff = gamma_family["spec"].tau - g - traj.meta["dt"]
            compared = 0
            for t, f_g, f_ref in zip(traj.times, traj.fields, ref.fields):
                if t <= cutoff:
                    assert np.array_equal(f_g.values, f_ref.values)
                    compared += 1
            assert compared > 0

    def test_l1_time_continuity(self):
        spec = nosource_spec().with_data(gamma=0.0)
        grid = unit_grid(32)

        def continuity_constant(traj, times):
            """Largest L1 secant slope between consecutive ``times``."""
            fields = [f for t, f in zip(traj.times, traj.fields)
                      if t in times]
            best = 0.0
            for i in range(len(times) - 1):
                dt_snap = times[i + 1] - times[i]
                diff = np.sum(np.abs(fields[i + 1].values
                                     - fields[i].values)) \
                    * grid.cell_volume
                best = max(best, diff / dt_snap)
            return best

        t1 = solver.solve(spec, grid)
        t2 = solver.solve(spec, grid, dt=t1.meta["dt"] / 2.0)
        # the stride counts steps, so halving dt halves the snapshot
        # spacing: the secants are compared over the same intervals (the
        # snapshot one step after tau is not common to both)
        times = sorted(set(t1.times) & set(t2.times))
        assert len(times) == len(t1.times) - 1 >= 4
        c1, c2 = continuity_constant(t1, times), continuity_constant(t2, times)
        assert c2 <= 1.5 * c1

    def test_a_region_below_b_of_t_is_refused(self):
        # the step sized for |u| <= 0.05 would let the sup reach 0.154 at
        # once: a region below B(T) is refused, and the march defaults to
        # B(T), which it never leaves
        spec = nosource_spec().with_data(gamma=0.0)
        reach = sup_bound(spec, None, 1.0)
        with pytest.raises(ValueError, match="lies below B"):
            solver.solve(spec, unit_grid(16), m_bound=0.05)
        with pytest.raises(ValueError, match="lies below B"):
            solver.solve(spec, unit_grid(16), m_bound=np.nextafter(reach, 0))
        traj = solver.solve(spec, unit_grid(16))
        assert traj.meta["m_bound"] == reach > 0.5
        assert max(f.sup_norm() for f in traj.fields) > 0.154
        assert traj.fields[-1].sup_norm() <= traj.meta["m_bound"]
        for m_bound in (reach, 2.0):
            wide = solver.solve(spec, unit_grid(16), m_bound=m_bound)
            assert wide.meta["m_bound"] == m_bound

    def test_meta_holds_no_restart(self):
        traj = solver.solve(nosource_spec().with_data(gamma=0.0),
                            unit_grid(8))
        assert "restart" not in traj.meta

    def test_wall_times_are_one_stepper_and_one_march(self, monkeypatch):
        # a clock that ticks once per reading: it is read before and after
        # building the stepper and once after marching
        monkeypatch.setattr(solver.time, "perf_counter",
                            functools.partial(next, itertools.count()))
        traj = solver.solve(nosource_spec().with_data(gamma=0.0),
                            unit_grid(16))
        assert traj.meta["setup_s"] == traj.meta["march_s"] == 1

    def test_escape_beyond_the_reachable_region_is_not_restarted(
            self, monkeypatch):
        # the march cannot leave B(T) but by its roundoff, so a kick that
        # lifts the state past it by more than the max-principle row's
        # slack is a fault: the march aborts at the step that made it, and
        # within the slack it goes on
        spec = nosource_spec().with_data(gamma=0.0)
        bound = sup_bound(spec, None, 1.0)
        real = Stepper.kick
        for excess in (0.5 * SUP_SLACK, 2.0 * SUP_SLACK):
            def lifted(self, v, n, excess=excess):
                u = real(self, v, n)
                return (np.where(u == u.max(), bound + excess, u) if n == 3
                        else u)
            monkeypatch.setattr(Stepper, "kick", lifted)
            if excess < SUP_SLACK:
                traj = solver.solve(spec, unit_grid(8))
                assert traj.meta["m_bound"] == bound
                continue
            with pytest.raises(SupNormExceeded, match="exceeded bound") as exc:
                solver.solve(spec, unit_grid(8))
            assert exc.value.sup == bound + excess
            assert exc.value.bound == bound
            assert exc.value.t == 4 * Stepper(spec, unit_grid(8)).dt


class TestTraces:
    # the discrete traces at s = 0 and s = S are a snapshot's first and
    # last s-columns, which `verify.check_bln` slices itself
    def test_zero_data_trace(self):
        traj = solver.solve(zero_spec(), unit_grid(8))
        assert all(np.all(fld.values[:, 0] == 0.0) for fld in traj.fields)

    def test_traces_run_along_x_at_the_s_ends(self):
        # check_bln reads the s-end columns alone: NaN in every inner
        # column leaves the row finite, and the trace at s = 0 is scored
        # along x against the zero data
        grid = Grid(nx=4, ns=6, L=1.0, S=1.0)
        traj = Trajectory(grid=grid)
        for n, t in enumerate((0.0, 0.5)):
            vals = np.full((4, 6), np.nan)
            vals[:, 0], vals[:, -1] = np.arange(4.0) / 8, 0.0
            traj.append(n, Field(vals, grid, t))
        spec = zero_spec()
        rep = verify.check_bln(traj, Stepper(spec, grid, dt=spec.T), [0.2])
        assert rep.context["n_scored"] == 1
        assert np.isfinite(rep.measured)
        assert [rep.context[key] for key in ("end", "cell_worst")] == [
            "s0", [3, 0]]

    def test_refinement_consistency(self):
        # successive s-refinements of the final-time trace get closer
        spec = nosource_spec().with_data(gamma=0.0)

        def final_trace(ns):
            grid = Grid(nx=16, ns=ns, L=1.0, S=1.0)
            traj = solver.solve(spec, grid)
            return traj.fields[-1].values[:, -1]

        t32, t64, t128 = final_trace(32), final_trace(64), final_trace(128)
        d1 = np.abs(t32 - t64).sum() / 16
        d2 = np.abs(t64 - t128).sum() / 16
        assert d2 < d1
