import functools
import itertools
import math

import numpy as np
import pytest

from upkolmo import exprdsl as E
from upkolmo import solver, verify
from upkolmo.problem import (Grid, ProblemSpec, min_jump_slope,
                             refined_max_bound)
from upkolmo.scheme import SchemeOptions, Stepper, predicted_sup
from scenarios import (nosource_spec, source_spec, unit_grid, zero_spec,
                       LCUT, SBUMP, XBUMP)


class TestZeroData:
    def test_entropy_stays_zero(self):
        spec = zero_spec()  # beta vanishes at value 0
        traj = solver.solve_entropy(ProblemSpec(**{**spec.__dict__}),
                                    unit_grid(16))
        for fld in traj.fields:
            assert np.all(fld.values == 0.0)

    def test_regularized_stays_zero(self):
        traj = solver.solve_regularized(zero_spec(), unit_grid(16), eps=0.02)
        assert all(f.sup_norm() == 0.0 for f in traj.fields)

    def test_impulsive_stays_zero(self):
        traj = solver.solve_impulsive(zero_spec(), unit_grid(16))
        assert traj.final.sup_norm() == 0.0


class TestPreconditions:
    def test_regularized_needs_positive_eps(self):
        with pytest.raises(ValueError):
            solver.solve_regularized(nosource_spec(), unit_grid(8), eps=0.0)

    def test_entropy_rejects_zero_gamma_with_perturbation(self):
        with pytest.raises(solver.GammaOutOfRangeError):
            solver.solve_entropy(source_spec(), unit_grid(8), gamma=0.0)

    def test_entropy_rejects_oversized_gamma(self):
        with pytest.raises(solver.GammaOutOfRangeError):
            solver.solve_entropy(source_spec(), unit_grid(8), gamma=0.3)

    def test_impulsive_needs_interior_tau(self):
        spec = source_spec().with_data(tau=0.0)
        with pytest.raises(ValueError):
            solver.solve_impulsive(spec, unit_grid(8))


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
    traj = solver.solve_entropy(spec, grid, gamma=0.0)
    ratio = traj.final.sup_norm() / traj.fields[0].sup_norm()
    expected = math.exp(-math.pi ** 2 * 0.1)
    assert abs(ratio - expected) / expected <= 0.02


class TestJumpMap:
    def test_bench_jump_map_is_accepted(self):
        # the workload's beta: 1 + d beta/d lambda >= 0.66 on |lambda| <=
        # 1.01 M2
        spec = source_spec()
        assert min_jump_slope(spec) == pytest.approx(0.663, abs=2e-3)
        assert solver.solve_impulsive(spec, unit_grid(8)).tau_plus is not None

    def test_decreasing_jump_map_is_rejected(self):
        spec = source_spec().with_data(
            beta=E.parse(f"-1.5*lambda*{XBUMP}*{SBUMP}"))
        with pytest.raises(ValueError, match="jump map .* decreases"):
            solver.solve_impulsive(spec, unit_grid(8))


class TestKickCap:
    def test_capped_kick_is_nondecreasing_on_the_run(self):
        # beta = -3 lambda bumps, cut off in lambda: b0 = 3 > 1 and the
        # jump map decreases,
        # so the kick u <- v + theta beta(v) is monotone only while theta
        # b0 <= 1; the capped dt keeps it so on every value the run takes
        spec = source_spec(gamma=0.02).with_data(
            beta=E.parse(f"-3*lambda*{XBUMP}*{SBUMP}*{LCUT}"))
        assert min_jump_slope(spec) < 0.0
        grid = unit_grid(16)
        traj = solver.solve_entropy(
            spec, grid, options=SchemeOptions(snapshot_stride=1))
        stepper = Stepper(spec, grid, eps=0.0, dt=traj.meta["dt"])
        uncapped = Stepper(spec, grid, eps=0.0, gamma=0.0).dt
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
        assert verify.check_max_principle(traj, spec).passed
        ks = list(np.linspace(-0.1, 0.7, 9))
        assert verify.check_entropy_residual(traj, spec, ks).passed


class TestImpulsive:
    def test_no_perturbation_continuous(self, grid64):
        spec = nosource_spec()
        traj = solver.solve_impulsive(spec, grid64)
        gap = np.max(np.abs(traj.tau_plus.values - traj.tau_minus.values))
        assert gap <= 1e-15

    def test_constant_shift_on_support(self):
        # perturbation constant in value: the jump is exactly that constant
        spec = source_spec().with_data(
            beta=E.parse("0.25"), b1=10.0)
        traj = solver.solve_impulsive(spec, unit_grid(16))
        jump = traj.tau_plus.values - traj.tau_minus.values
        assert np.allclose(jump, 0.25, atol=0.0)

    def test_jump_recorded_at_snapped_time(self, impulsive_run):
        traj = impulsive_run["traj"]
        n_tau, dt = traj.meta["n_tau"], traj.meta["dt"]
        assert traj.tau_minus.t == pytest.approx(n_tau * dt)
        # n_tau = ceil(tau/dt): the first level at or after tau
        assert (n_tau - 1) * dt < impulsive_run["spec"].tau <= n_tau * dt

    def test_post_jump_snapshot_is_jumped_state(self, impulsive_run):
        traj = impulsive_run["traj"]
        i = traj.times.index(traj.tau_plus.t)
        assert np.array_equal(traj.fields[i].values, traj.tau_plus.values)

    def test_one_step_horizon_still_jumps(self):
        # dt = T would leave no step before the jump: the march takes two
        spec = source_spec().with_data(T=0.02, tau=0.01, gamma=0.0)
        traj = solver.solve_impulsive(spec, unit_grid(8))
        assert (traj.meta["n_steps"], traj.meta["n_tau"]) == (2, 1)
        assert traj.tau_minus.t == traj.tau_plus.t == 0.01
        assert not np.array_equal(traj.tau_plus.values, traj.tau_minus.values)
        assert verify.check_jump(traj, spec).passed


class TestDeterminismAndConsistency:
    def test_bit_identical_reruns(self):
        spec = source_spec()
        grid = unit_grid(32)
        t1 = solver.solve_entropy(spec, grid)
        t2 = solver.solve_entropy(spec, grid)
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
        spec = nosource_spec()
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

        t1 = solver.solve_entropy(spec, grid, gamma=0.0)
        t2 = solver.solve_entropy(spec, grid, gamma=0.0,
                                  dt=t1.meta["dt"] / 2.0)
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
        spec = nosource_spec()
        grid = unit_grid(16)
        traj = solver.solve_entropy(spec, grid, gamma=0.0, m_bound=0.05)
        reach = 1.05 * predicted_sup(spec) + 0.5
        assert traj.meta["m_bound"] == reach
        assert traj.final.sup_norm() <= traj.meta["m_bound"]
        restart = traj.meta["restart"]
        assert restart["m_bound"] == 0.05
        assert 0.05 < restart["sup"] < reach / 2
        assert 0 < restart["t"] < spec.T

    def test_no_restart_is_recorded_as_none(self):
        traj = solver.solve_entropy(nosource_spec(), unit_grid(8), gamma=0.0)
        assert traj.meta["restart"] is None

    @pytest.mark.parametrize("m_bound, attempts", [(None, 1), (0.05, 2)])
    def test_wall_times_sum_over_a_restart(self, monkeypatch, m_bound,
                                           attempts):
        # a clock that ticks once per reading: each attempt reads it before
        # and after building its stepper and once after marching
        monkeypatch.setattr(solver.time, "perf_counter",
                            functools.partial(next, itertools.count()))
        traj = solver.solve_entropy(nosource_spec(), unit_grid(16),
                                    gamma=0.0, m_bound=m_bound)
        assert (traj.meta["restart"] is None) == (attempts == 1)
        assert traj.meta["setup_s"] == traj.meta["march_s"] == attempts

    def test_escape_beyond_the_reachable_region_is_not_restarted(self):
        # a spike of 1000 on one cell centre, too narrow for the sampled
        # data norms: the spec's region is 0.5, and the first step, which
        # spreads the spike along x, leaves about 2 behind
        spike = ("1000*max(0, 1-((x-0.46875)/1e-6)^2)"
                 "*max(0, 1-((s-0.46875)/1e-6)^2)")
        spec = nosource_spec().with_data(data_u0_1=E.parse(spike))
        assert 1.05 * predicted_sup(spec) + 0.5 < 0.51
        with pytest.raises(solver.CflViolationError,
                           match="beyond 0.5.*the bound the monotone scheme"):
            solver.solve_entropy(spec, unit_grid(16), gamma=0.0)


class TestTraces:
    def test_constant_field_trace(self):
        grid = unit_grid(8)
        from upkolmo.problem import Field, Trajectory
        traj = Trajectory(grid=grid)
        traj.append(0.0, Field(np.full((8, 8), 0.3), grid, 0.0))
        assert np.all(np.stack(traj.s0_traces) == 0.3)
        assert np.all(np.stack(traj.sS_traces) == 0.3)

    def test_zero_data_trace(self):
        traj = solver.solve_entropy(zero_spec(), unit_grid(8))
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
        spec = nosource_spec()

        def final_trace(ns):
            grid = Grid(nx=16, ns=ns, L=1.0, S=1.0)
            traj = solver.solve_entropy(spec, grid, gamma=0.0)
            return traj.sS_traces[-1]

        t32, t64, t128 = final_trace(32), final_trace(64), final_trace(128)
        d1 = np.abs(t32 - t64).sum() / 16
        d2 = np.abs(t64 - t128).sum() / 16
        assert d2 < d1
