"""Batch front door: run solvers, parameter sweeps and verification suites.

Exit codes are the machine contract: 0 success, 1 config/validation error
(a bound the set-up cannot sample included), 2 march aborted (a non-finite
value, a value the flux, source or boundary expressions cannot evaluate,
or a sup-norm that left every invariant region the march could size),
3 at least one verification check failed.
Human-readable output goes to stdout, diagnostics to stderr, reports and
trajectories to files.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

import numpy as np

from . import io as config_io
from . import exprdsl, solver, verify
# bench/run.py traces refined_max_bound where each module binds it
from .problem import refined_max_bound  # noqa: F401
from .scheme import NaNDetectedError
from .solver import CflViolationError

# what ends a march early: exit code 2
_ABORTS = (NaNDetectedError, CflViolationError)


def _load(path):
    try:
        return config_io.load_config(path)
    except (config_io.ParseError, config_io.ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _k_bank(traj, n=9):
    """n Kruzhkov constants strictly inside the trajectory's value range.

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
    return [float(k) for k in np.linspace(lo, hi, n + 2)[1:-1]]


def _solve(loaded, mode):
    spec, grid, options = loaded.spec, loaded.grid, loaded.options
    if mode == "regularized":
        return solver.solve_regularized(spec, grid, options=options)
    if mode == "impulsive":
        return solver.solve_impulsive(spec, grid, options=options)
    return solver.solve_entropy(spec, grid, options=options)


def _cmd_run(args):
    loaded = _load(args.config)
    if loaded is None:
        return 1
    try:
        traj = _solve(loaded, args.mode)
    except _ABORTS as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2
    except (ValueError, exprdsl.DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out or loaded.output_dir)
    config_io.write_trajectory(out, traj)
    grid = traj.grid
    print(f"{'t':>10}  {'sup|u|':>12}  {'||u||_L2^2':>12}")
    for t, fld in zip(traj.times, traj.fields):
        l2 = float(np.sum(fld.values ** 2)) * grid.cell_volume
        print(f"{t:10.6f}  {fld.sup_norm():12.6g}  {l2:12.6g}")
    meta = traj.meta
    print(f"dt {meta['dt']:.6g} ({meta['dt_term']}), setup "
          f"{meta['setup_s']:.3f} s, march {meta['march_s']:.3f} s")
    print(f"wrote {len(traj.times)} snapshots to {out}")
    return 0


def _cmd_sweep(args):
    from concurrent.futures import ProcessPoolExecutor  # not at start-up
    loaded = _load(args.config)
    if loaded is None:
        return 1
    spec, grid, options = loaded.spec, loaded.grid, loaded.options
    try:
        values = [float(v) for v in args.values.split(",")]
        with (ProcessPoolExecutor(max_workers=args.jobs) if args.jobs > 1
              else contextlib.nullcontext()) as pool:
            map_fn = pool.map if pool else map
            if args.param == "gamma":
                report = verify.check_gamma_limit(spec, grid, values, options,
                                                  map_fn=map_fn)
                errors = report.context["errors"]
            else:
                gamma = spec.gamma if spec.beta is not None else 0.0
                report = verify.check_epsilon_cauchy(
                    spec, grid, values, gamma, options, map_fn=map_fn)
                errors = report.context["diffs"]
    except _ABORTS as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2
    except (ValueError, exprdsl.DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out or loaded.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{args.param}_sweep.csv", "w", encoding="utf-8") as fh:
        fh.write(f"{args.param},error\n")
        if args.param == "gamma":
            for v, e in zip(values, errors):
                fh.write(f"{v!r},{e!r}\n")
        else:
            for (v1, v2), e in zip(zip(values[:-1], values[1:]), errors):
                fh.write(f"{v1!r}->{v2!r},{e!r}\n")
    verify.write_reports(out / "sweep_report.csv", [report])
    print(f"{args.param} sweep: errors = {errors}")
    print(f"report: {report.check} pass={report.passed}")
    return 0 if report.passed else 3


def _cmd_verify(args):
    loaded = _load(args.config)
    if loaded is None:
        return 1
    spec = loaded.spec
    try:
        traj = config_io.read_trajectory(args.traj, L=spec.L, S=spec.S)
        traj2 = (config_io.read_trajectory(args.traj2, L=spec.L, S=spec.S)
                 if args.traj2 else traj)
    except (OSError, ValueError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path, tr in ((args.traj, traj), (args.traj2, traj2)):
        stored = tr.meta.get("spec_hash")
        if stored is not None and stored != spec.context_hash():
            print(f"error: {path} was computed from a problem with spec hash "
                  f"{stored}, not from {args.config} (spec hash "
                  f"{spec.context_hash()})", file=sys.stderr)
            return 1
    try:
        reports = [verify.check_max_principle(traj, spec),
                   verify.check_stability(traj, traj2, spec, spec)]
    except verify.GridMismatchError as exc:  # a --traj2 on another grid or dt
        print(f"error: {exc}", file=sys.stderr)
        return 1
    k_bank = _k_bank(traj)
    if traj.meta["mode"] == "impulsive":
        reports.append(verify.check_jump(traj, spec))
    if traj.meta["eps"] == 0.0:
        reports.append(verify.check_bln(traj, spec, k_bank))
    if traj.meta["stride"] == 1:
        reports.append(verify.check_entropy_residual(traj, spec, k_bank))
    out = Path(args.out) if args.out else Path(args.traj) / "reports.csv"
    verify.write_reports(out, reports)
    for rep in reports:
        print(f"{rep.check}: measured={rep.measured:.6g} "
              f"bound={rep.bound:.6g} pass={rep.passed}")
    return 0 if all(r.passed for r in reports) else 3


def _cmd_validate_flux(args):
    loaded = _load(args.config)
    if loaded is None:
        return 1
    report = verify.validate_genuine_nonlinearity(
        loaded.spec.flux_a, args.Lambda, n_dirs=args.dirs)
    quantiles = report.context["mu_quantiles"]
    deltas = report.context["deltas"]
    print(f"{'delta':>10}  " + "  ".join(f"{q:>12}" for q in quantiles))
    for i, d in enumerate(deltas):
        row = "  ".join(f"{quantiles[q][i]:12.6g}" for q in quantiles)
        print(f"{d:10.2g}  {row}")
    print(f"worst mu(delta_min) = {report.measured:.6g} "
          f"(bound {report.bound:.6g}) pass={report.passed}")
    return 0 if report.passed else 3


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="upkolmo",
        description="Solvers and verification for ultra-parabolic equations "
                    "with delayed or impulsive sources")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one solve and write the trajectory")
    p_run.add_argument("config")
    p_run.add_argument("--mode", choices=["regularized", "entropy", "impulsive"],
                       default="entropy")
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
                            help="check the s-flux non-degeneracy profile")
    p_flux.add_argument("config")
    p_flux.add_argument("--Lambda", type=float, default=10.0)
    p_flux.add_argument("--dirs", type=int, default=64)
    p_flux.set_defaults(func=_cmd_validate_flux)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
