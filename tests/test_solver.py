import functools
import itertools
import math

import numpy as np
import pytest

from upkolmo import exprdsl as E
from upkolmo import solver, verify
from upkolmo.problem import (Grid, ProblemSpec, min_kick_slope,
                             refined_max_bound)
from upkolmo.scheme import SchemeOptions, Stepper, reachable_bound
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
        assert traj.final.sup_norm() == 0.0


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


class TestPreconditions:
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
            bound = refined_max_bound(spec, max(t, 1e-9), inflate=1.01)
            assert fld.sup_norm() <= bound + 1e-10


def test_heat_decay_rate():
    # pure lateral diffusion: the sine profile decays like exp(-(pi/L)^2 t)
    spec = ProblemSpec(
        d=1, L=1.0, T=0.1, S=1.0,
        flux_a=E.parse("0"), flux_phi=(E.parse("0"),),
        data_u0_1=E.parse(f"sin(3.14159265358979*x)*{SBUMP}"),
        data_u0_2=E.parse("0"), data_uS_2=E.parse("0"),
        tau=0.05, gamma=0.0, epsilon=0.0,
    )
    grid = Grid(nx=128, ns=8, L=1.0, S=1.0)
    traj = solver.solve(spec, grid)
    ratio = traj.final.sup_norm() / traj.fields[0].sup_norm()
    expected = math.exp(-math.pi ** 2 * 0.1)
    assert abs(ratio - expected) / expected <= 0.02


class TestJumpMap:
    def test_bench_jump_map_is_accepted(self):
        # the workload's beta: 1 + d beta/d lambda >= 0.66 on |lambda| <=
        # 1.01 M2
        spec = source_spec().with_data(gamma=0.0)
        assert 1 + min_kick_slope(spec, 0.0) == pytest.approx(0.663, abs=2e-3)
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
        slope = E.compile(spec.beta, "lambda")[0]
        cells = {"x": stepper.xc[:, None], "s": stepper.sc[None, :]}
        kicks = 0
        for n, (t, fld) in enumerate(zip(traj.times[:-1], traj.fields)):
            theta = stepper.source_rate(t)
            if theta:
                v = stepper.step(fld.values, t)
                d_beta = slope({**cells, "lambda": v})[1]
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
        assert n_tau * dt in traj.times
        # n_tau = ceil(tau/dt): the first level at or after tau
        assert (n_tau - 1) * dt < impulsive_run["spec"].tau <= n_tau * dt

    def test_post_jump_snapshot_is_jumped_state(self, impulsive_run):
        # the stored snapshot at n_tau is the kick of the replayed v
        spec, traj = impulsive_run["spec"], impulsive_run["traj"]
        v, jumped = _jump(traj, spec)
        t = (traj.meta["n_tau"] - 1) * traj.meta["dt"]
        assert np.array_equal(jumped, verify.rebuild(spec, traj).kick(v, t))

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
    n_tau, dt = traj.meta["n_tau"], traj.meta["dt"]
    i = traj.times.index(n_tau * dt)
    v = verify._pre_kick(verify.rebuild(spec, traj),
                         traj.fields[i - 1].values,
                         round(traj.times[i - 1] / dt), n_tau)
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

    def test_cfl_restart_inflates_bound(self):
        # the step sized for |u| <= 0.05 lets the sup reach 0.154 at once;
        # doubling that would be outgrown again, so the restart takes the
        # region the monotone scheme never leaves
        spec = nosource_spec().with_data(gamma=0.0)
        grid = unit_grid(16)
        traj = solver.solve(spec, grid, m_bound=0.05)
        reach = reachable_bound(spec)
        assert traj.meta["m_bound"] == reach
        assert traj.final.sup_norm() <= traj.meta["m_bound"]
        restart = traj.meta["restart"]
        assert restart["m_bound"] == 0.05
        assert 0.05 < restart["sup"] < reach / 2
        assert 0 < restart["t"] < spec.T

    def test_no_restart_is_recorded_as_none(self):
        traj = solver.solve(nosource_spec().with_data(gamma=0.0),
                            unit_grid(8))
        assert traj.meta["restart"] is None

    @pytest.mark.parametrize("m_bound, attempts", [(None, 1), (0.05, 2)])
    def test_wall_times_sum_over_a_restart(self, monkeypatch, m_bound,
                                           attempts):
        # a clock that ticks once per reading: each attempt reads it before
        # and after building its stepper and once after marching
        monkeypatch.setattr(solver.time, "perf_counter",
                            functools.partial(next, itertools.count()))
        traj = solver.solve(nosource_spec().with_data(gamma=0.0),
                            unit_grid(16), m_bound=m_bound)
        assert (traj.meta["restart"] is None) == (attempts == 1)
        assert traj.meta["setup_s"] == traj.meta["march_s"] == attempts

    def test_escape_beyond_the_reachable_region_is_not_restarted(self):
        # a spike of 1000 on one cell centre, too narrow for the sampled
        # data norms: the spec's region is 0.5, and the first step, which
        # spreads the spike along x, leaves about 2 behind
        spike = ("1000*max(0, 1-((x-0.46875)/1e-6)^2)"
                 "*max(0, 1-((s-0.46875)/1e-6)^2)")
        spec = nosource_spec().with_data(data_u0_1=E.parse(spike), gamma=0.0)
        assert reachable_bound(spec) < 0.51
        with pytest.raises(solver.CflViolationError,
                           match="beyond 0.5.*the bound the monotone scheme"):
            solver.solve(spec, unit_grid(16))


class TestTraces:
    def test_constant_field_trace(self):
        grid = unit_grid(8)
        from upkolmo.problem import Field, Trajectory
        traj = Trajectory(grid=grid)
        traj.append(0.0, Field(np.full((8, 8), 0.3), grid, 0.0))
        assert np.all(np.stack(traj.s0_traces) == 0.3)
        assert np.all(np.stack(traj.sS_traces) == 0.3)

    def test_zero_data_trace(self):
        traj = solver.solve(zero_spec(), unit_grid(8))
        assert np.all(np.stack(traj.s0_traces) == 0.0)

    def test_traces_run_along_x_at_the_s_ends(self):
        from upkolmo.problem import Field, Trajectory
        grid = Grid(nx=4, ns=6, L=1.0, S=1.0)
        traj = Trajectory(grid=grid)
        for t in (0.0, 0.5):
            vals = t + np.arange(6.0)[None, :] + np.zeros((4, 1))
            traj.append(t, Field(vals, grid, t))
        assert [tr.tolist() for tr in traj.s0_traces] == [[0.0] * 4,
                                                         [0.5] * 4]
        assert [tr.tolist() for tr in traj.sS_traces] == [[5.0] * 4,
                                                         [5.5] * 4]

    def test_refinement_consistency(self):
        # successive s-refinements of the final-time trace get closer
        spec = nosource_spec().with_data(gamma=0.0)

        def final_trace(ns):
            grid = Grid(nx=16, ns=ns, L=1.0, S=1.0)
            traj = solver.solve(spec, grid)
            return traj.sS_traces[-1]

        t32, t64, t128 = final_trace(32), final_trace(64), final_trace(128)
        d1 = np.abs(t32 - t64).sum() / 16
        d2 = np.abs(t64 - t128).sum() / 16
        assert d2 < d1
