"""Batch front door: run solvers, parameter sweeps and verification suites.

Exit codes are the machine contract, and ``main`` alone maps exceptions to
them, with one ``error:`` or ``aborted:`` line on stderr: 0 success; 1 a
usage error (``_Parser.error``), or a config, validation or I/O error
(``ValueError``, which covers the ``io`` parse, validation and format
errors, ``GridMismatchError`` and ``GammaOutOfRangeError``; ``OSError``;
``exprdsl.DomainError``); 2 march
aborted (``NaNDetectedError``, ``scheme.SupNormExceeded``); 3 at least
one verification check failed.  Output goes to stdout, diagnostics to
stderr, reports and trajectories to files.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

import numpy as np

from . import io as config_io
# `verify` is imported by the commands that use it, so `run` compiles no check
from . import exprdsl, problem, solver
# bench/run.py traces refined_max_bound where each module binds it
from .problem import refined_max_bound  # noqa: F401
from .scheme import NaNDetectedError, SupNormExceeded

# what ends a march early: exit code 2
_ABORTS = (NaNDetectedError, SupNormExceeded)


def _k_bank(traj):
    """Nine Kruzhkov constants strictly inside the trajectory's value range.

    For a constant k outside the values u takes, |u - k| is a linear
    entropy, which every conservative scheme satisfies, so only constants
    between min u and max u test the entropy condition.  Non-finite cells
    are left out of the range; with no finite cell the bank is empty.
    """
    lo, hi = np.inf, -np.inf
    for fld in traj.fields:
        finite = fld.values[np.isfinite(fld.values)]
        if finite.size:
            lo, hi = min(lo, finite.min()), max(hi, finite.max())
    if lo > hi:
        return []
    return [float(k) for k in np.linspace(lo, hi, 11)[1:-1]]


def _marched(config, mode):
    """The spec ``run --mode`` marches: impulsive is gamma -> 0."""
    return config.with_data(gamma=0.0) if mode == "impulsive" else config


def _cmd_run(args):
    loaded = config_io.load_config(args.config)
    spec = _marched(loaded.spec, args.mode)
    mode = solver.mode_of(spec)
    if args.mode not in (None, mode):
        raise ValueError(f"--mode {args.mode}, but {args.config} states the "
                         f"{mode} problem (epsilon {loaded.spec.epsilon}, "
                         f"gamma {loaded.spec.gamma})")
    traj = solver.solve(spec, loaded.grid, options=loaded.options)
    out = Path(args.out or loaded.output_dir)
    config_io.write_trajectory(out, traj)
    grid = traj.grid
    print(f"{'t':>10}  {'sup|u|':>12}  {'||u||_L2^2':>12}")
    for t, fld in zip(traj.times, traj.fields):
        l2 = float(np.sum(fld.values ** 2)) * grid.cell_volume
        print(f"{t:10.6f}  {fld.sup_norm():12.6g}  {l2:12.6g}")
    meta = traj.meta
    print(f"{meta['mode']}, eps {meta['eps']:.6g}, gamma {meta['gamma']:.6g}"
          f", dt {meta['dt']:.6g} ({meta['dt_term']}), setup "
          f"{meta['setup_s']:.3f} s, march {meta['march_s']:.3f} s")
    print(f"wrote {len(traj.times)} snapshots to {out}")
    return 0


def _cmd_sweep(args):
    from concurrent.futures import ProcessPoolExecutor  # not at start-up
    from . import verify
    loaded = config_io.load_config(args.config)
    spec, grid, options = loaded.spec, loaded.grid, loaded.options
    values = [float(v) for v in args.values.split(",")]
    if args.jobs < 1:
        raise ValueError(f"--jobs must be an integer >= 1, got {args.jobs}")
    # a gamma family is scored against its limit, an eps family pairwise
    gamma = args.param == "gamma"
    check = verify.check_gamma_limit if gamma else verify.check_epsilon_cauchy
    jobs = min(args.jobs, len(values))  # a pool forks all its workers at once
    with (ProcessPoolExecutor(max_workers=jobs) if jobs > 1
          else contextlib.nullcontext()) as pool:
        report = check(spec, grid, values, options,
                       map_fn=pool.map if pool else map)
    errors = report.context["errors" if gamma else "diffs"]
    labels = ([repr(v) for v in values] if gamma else
              [f"{v1!r}->{v2!r}" for v1, v2 in zip(values, values[1:])])
    out = Path(args.out or loaded.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{args.param}_sweep.csv", "w", encoding="utf-8") as fh:
        fh.write(f"{args.param},error\n")
        fh.writelines(f"{v},{e!r}\n" for v, e in zip(labels, errors))
    verify.write_reports(out / "sweep_report.csv", [report])
    print(f"{args.param} sweep: errors = {errors}")
    print(f"report: {report.check} pass={report.passed}")
    return 0 if report.passed else 3


def _cmd_verify(args):
    from . import verify
    loaded = config_io.load_config(args.config)
    config = loaded.spec
    runs = []
    for path in [args.traj] + ([args.traj2] if args.traj2 else []):
        tr = config_io.read_trajectory(path, L=config.L, S=config.S)
        meta = tr.meta
        spec = _marched(config, meta["mode"])
        problem.check_region(spec, meta["m_bound"])
        stepper = verify.rebuild(spec, tr)
        off = np.count_nonzero(tr.fields[0].values.view(np.uint64)
                               != stepper.u0.view(np.uint64))
        for what, got, want in (
                ("spec hash", meta["spec_hash"], spec.context_hash()),
                *((key, meta[key], getattr(stepper, key))
                  for key in ("eps", "gamma", "n_steps", "n_tau")),
                ("grid", (tr.grid.nx, tr.grid.ns),
                 (loaded.grid.nx, loaded.grid.ns)),
                ("options", meta["options"], loaded.options),
                # ``io`` requires its level to be 0
                ("first snapshot", f"{off} cells off u0_1",
                 "0 cells off u0_1")):
            if got != want:
                raise ValueError(f"{path} was computed with {what} {got}, not "
                                 f"from {args.config} ({what} {want})")
        runs.append((tr, stepper))
    # without --traj2 the run is compared with itself, by one Stepper
    (traj, st1), (traj2, st2) = runs[0], runs[-1]
    reports = [verify.check_max_principle(traj, st1),
               verify.check_stability(traj, traj2, st1, st2)]
    k_bank = _k_bank(traj)
    if traj.meta["mode"] == "impulsive":
        reports.append(verify.check_jump(traj, st1))
    if traj.meta["eps"] == 0.0:
        reports.append(verify.check_bln(traj, st1, k_bank))
    if traj.meta["options"].snapshot_stride == 1:
        reports.append(verify.check_entropy_residual(traj, st1, k_bank))
    out = Path(args.out) if args.out else Path(args.traj) / "reports.csv"
    verify.write_reports(out, reports)
    for rep in reports:
        print(f"{rep.check}: measured={rep.measured:.6g} "
              f"bound={rep.bound:.6g} pass={rep.passed}")
    return 0 if all(r.passed for r in reports) else 3


def _cmd_validate_flux(args):
    from . import verify
    report = verify.validate_genuine_nonlinearity(
        config_io.load_config(args.config).spec.flux_a, args.Lambda)
    print(f"mu = {report.measured:.6g} (bound {report.bound:.6g}, parts "
          f"enclosed {report.context['n_parts']}) pass={report.passed}")
    return 0 if report.passed else 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1: argparse's 2 is an aborted march's
        raise ValueError(f"{self.prog}: {message}")


def main(argv=None):
    parser = _Parser(
        prog="upkolmo",
        description="Solvers and verification for ultra-parabolic equations "
                    "with delayed or impulsive sources")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one solve and write the trajectory")
    p_run.add_argument("config")
    p_run.add_argument("--mode", choices=["regularized", "entropy", "impulsive"],
                       help="entropy or regularized asserts what the config "
                            "states (else exit 1); impulsive marches it at gamma"
                            " = 0.  Goes with the next benchmark change")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep gamma or epsilon")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", choices=["gamma", "epsilon"], required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated decreasing values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="verify stored trajectories")
    p_verify.add_argument("config")
    p_verify.add_argument("--traj", required=True)
    p_verify.add_argument("--traj2", default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_flux = sub.add_parser("validate-flux",
                            help="check the s-flux non-degeneracy certificate")
    p_flux.add_argument("config")
    p_flux.add_argument("--Lambda", type=float, default=10.0)
    p_flux.set_defaults(func=_cmd_validate_flux)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _ABORTS as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, exprdsl.DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
