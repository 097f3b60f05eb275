"""Benchmark: the time to a certified trajectory with the `upkolmo` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs numpy and nothing
installed.  The workloads are in `workloads.py`.  Each pass runs
`upkolmo run` on the workload's config and then `upkolmo verify` on the
trajectory, and checks what they wrote.  An operation is one command or
one report row, and `attempted` and `failed` count them:

* `run` fails unless it exits 0, the snapshot count it prints matches
  `index.csv`, and the final field is finite;
* `verify` fails unless it writes exactly the report rows expected for the
  workload and exits 0, or 3 when a row fails;
* a report row fails when it is missing or reads pass=false.

--trace 0 measures end to end, with tracing off, each command in its own
child process, one at a time, for S seconds (see `end_to_end`).  The gated
time is `total_ref_s`: the median time of `run` plus that of `verify`,
each taken at the reference machine speed (see `calibration`); the raw
wall times are printed too.  `setup_s` is the median set-up time of a run
at the reference speed, timed in fresh interpreters (`setup_probe.py`).
`peak_rss_mb` is the larger of the two commands' medians of their own
peak RSS, from `os.wait4`, and `ok_ratio` is 1 - failed / attempted.

--trace 1 measures per layer.  It makes one untraced run and verify as
above, then one pass calling `cli.main` in this process with the public
functions of each module wrapped (see `_layers`), and reports what the
spans add up to, with the tracing overhead: traced total minus untraced
total.  The spans are written to `.bench_work/spans-<workload>-seed<N>.jsonl`.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give every
metric by name and unit, and the SHA-256 of the final field.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from calibration import REFERENCE_S, kernel_seconds
from tracing import Tracer, aggregate
from workloads import WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PROBE = HERE / "setup_probe.py"
CLI = [sys.executable, "-m", "upkolmo.cli"]
# SHA-256 of each workload's final field file at seed 0, as first measured;
# a change that alters a trajectory shows here.
SEED0_FIELDS = HERE / "seed0_final_fields.json"

END_TO_END_UNITS = {
    "total_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PROBES_PER_PASS = 4
MIN_PASSES = 2

# verify function -> check name in the per-layer metrics
CHECKS = {
    "check_max_principle": "max_principle", "check_stability": "stability",
    "check_bln": "bln", "check_entropy_residual": "entropy_residual",
    "check_jump": "jump",
}


@dataclass
class Tally:
    """Operations attempted and failed; each failure is told on stderr."""

    attempted: int = 0
    failed: int = 0

    def add(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"bench: {what} failed: {'; '.join(problems)}",
                  file=sys.stderr)

    @property
    def ok_ratio(self):
        return (self.attempted - self.failed) / self.attempted


# --- output checks ------------------------------------------------------------

def check_run(code, log_text, traj, expected_sha=None):
    """Problems with what `upkolmo run` wrote, and the final field's SHA-256.

    With ``expected_sha``, a final field that differs is a problem: runs of
    one config are deterministic, traced or not.
    """
    from upkolmo import io as upk_io

    if code != 0:
        return [f"exit code {code}"], ""
    lines = log_text.splitlines()
    words = lines[-1].split() if lines else []
    printed = int(words[1]) if words[:1] == ["wrote"] else None
    rows = [line.split(",") for line in
            (traj / "index.csv").read_text().splitlines()[1:] if line]
    snapshots = [name for _, name, role in rows if role == "snapshot"]
    if printed != len(snapshots) or not snapshots:
        return [f"printed {printed} snapshots, index.csv lists "
                f"{len(snapshots)}"], ""
    problems = []
    final = traj / snapshots[-1]
    if not np.all(np.isfinite(upk_io.read_field(final).values)):
        problems.append(f"final field {final.name} is not finite")
    sha = hashlib.sha256(final.read_bytes()).hexdigest()
    if expected_sha and sha != expected_sha:
        problems.append("final field differs from the first run's")
    return problems, sha


def check_verify(code, reports_csv, expected, tally):
    """Count `upkolmo verify` and each expected report row in the tally."""
    rows = {}
    if reports_csv.exists():
        with open(reports_csv, newline="") as fh:
            rows = {r["check"]: r["pass"] for r in csv.DictReader(fh)}
    passed = all(rows.get(check) == "true" for check in expected)
    problems = []
    if sorted(rows) != sorted(expected):
        problems.append(f"report rows {sorted(rows)}, expected "
                        f"{sorted(expected)}")
    if code != (0 if passed else 3):
        problems.append(f"exit code {code}")
    tally.add(problems, "verify")
    for check in expected:
        if check not in rows:
            tally.add(["missing"], f"report row {check}")
        else:
            tally.add([] if rows[check] == "true" else ["pass=false"],
                      f"report row {check}")


# --- untraced passes ----------------------------------------------------------

def run_child(cmd, log_path):
    """Run a command to its end: exit code, wall seconds, its peak RSS (MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli_args(wl, cfg, traj):
    return (["run", str(cfg), "--mode", wl.mode, "--out", str(traj)],
            ["verify", str(cfg), "--traj", str(traj)])


def setup_probe(wl, cfg, work, tally):
    log = work / "probe.log"
    code, _, _ = run_child([sys.executable, str(PROBE), str(cfg), wl.mode], log)
    try:
        seconds = float(log.read_text().split()[-1])
    except (ValueError, IndexError):
        seconds = None
    tally.add([] if code == 0 and seconds else [f"exit code {code}"],
              "setup probe")
    return seconds


def timed_run(wl, cfg, traj, tally, expected_sha=None):
    """`upkolmo run` in a child, writing ``traj``, which must not exist yet:
    wall seconds, peak RSS (MB) and the final field's SHA-256."""
    log = traj.parent / "run.log"
    code, wall, rss = run_child(CLI + cli_args(wl, cfg, traj)[0], log)
    problems, sha = check_run(code, log.read_text(), traj, expected_sha)
    tally.add(problems, "run")
    return wall, rss, sha


def timed_verify(wl, cfg, traj, tally):
    """`upkolmo verify` of ``traj`` in a child: wall seconds, peak RSS (MB)."""
    code, wall, rss = run_child(CLI + cli_args(wl, cfg, traj)[1],
                                traj.parent / "verify.log")
    check_verify(code, traj / "reports.csv", wl.expected_checks, tally)
    return wall, rss


def end_to_end(wl, cfg, work, seconds, tally):
    """Passes until ``seconds`` have gone, and at least MIN_PASSES: the
    metrics, medians over their samples, and the final field's SHA-256.

    A pass is: PROBES_PER_PASS set-up probes, run, and verify of that run,
    with the calibration kernel timed after each of the three steps (and
    once before the first pass).  A sample's time at the reference speed
    is its wall time times `calibration.REFERENCE_S` over the mean of the
    kernel's times on its two sides.  Each run writes a fresh directory:
    deleting thousands of files between commands loads the file system
    while the next one is timed.
    """
    setups, runs, verifies = [], [], []   # (wall s, reference s[, RSS MB])
    kernel = [kernel_seconds()]

    def at_reference(wall):
        return wall * 2 * REFERENCE_S / (kernel[-2] + kernel[-1])

    sha = None
    start = time.perf_counter()
    while len(runs) < MIN_PASSES or time.perf_counter() - start < seconds:
        probes = [setup_probe(wl, cfg, work, tally)
                  for _ in range(PROBES_PER_PASS)]
        kernel.append(kernel_seconds())
        setups += [(p, at_reference(p)) for p in probes if p is not None]
        traj = work / f"traj{len(runs)}"
        wall, rss, run_sha = timed_run(wl, cfg, traj, tally, sha)
        sha = sha or run_sha
        kernel.append(kernel_seconds())
        runs.append((wall, at_reference(wall), rss))
        wall, rss = timed_verify(wl, cfg, traj, tally)
        kernel.append(kernel_seconds())
        verifies.append((wall, at_reference(wall), rss))

    def med(samples, i):
        return statistics.median(x[i] for x in samples) if samples else 0.0

    for label, xs in (("run", [r[0] for r in runs]),
                      ("verify", [v[0] for v in verifies]),
                      ("setup probe", [p[0] for p in setups]),
                      ("kernel", kernel)):
        print(f"{label + ' (s):':18s}" + " ".join(f"{x:.4f}" for x in xs))
    # Raw wall times are shown, not gated: see `calibration`.
    for name, value in (("run_wall_s", med(runs, 0)),
                        ("verify_wall_s", med(verifies, 0)),
                        ("total_wall_s", med(runs, 0) + med(verifies, 0)),
                        ("setup_wall_s", med(setups, 0)),
                        ("run_ref_s", med(runs, 1)),
                        ("verify_ref_s", med(verifies, 1))):
        print(f"{name:40s} {value:>16.6g} s (not gated)")
    values = {
        "total_ref_s": med(runs, 1) + med(verifies, 1),
        "setup_s": med(setups, 1),
        "peak_rss_mb": max(med(runs, 2), med(verifies, 2)),
        "ok_ratio": tally.ok_ratio,
    }
    metrics = {name: (values[name], unit)
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, sha


# --- traced pass --------------------------------------------------------------

def _layers():
    """(owner, attribute, span name, record) for every function traced."""
    from upkolmo import (chi, cli, exprdsl, io, kernels, problem, scheme,
                         solver, verify)

    def margin(report):
        return report.margin, report.passed

    return [
        (cli, "main", "cli.main", None),
        (io, "load_config", "io.load_config", None),
        (io, "write_trajectory", "io.write_trajectory", None),
        (io, "read_trajectory", "io.read_trajectory", None),
        (solver, "_march", "solver.march", lambda traj: len(traj.times)),
        (solver, "_march_once", "solver.march_once", None),
        # Methods are looked up on the class, wherever `Stepper` is bound.
        (scheme.Stepper, "__init__", "scheme.Stepper", None),
        (scheme.Stepper, "step", "scheme.step", None),
        (scheme.Stepper, "padded", "scheme.padded", None),
        (scheme.Stepper, "source_rate", "scheme.source_rate", None),
        (scheme._SplitTable, "flux", "scheme.flux", None),
        (scheme._LFFlux, "flux", "scheme.flux", None),
        *[(verify, fn, f"verify.{check}", margin)
          for fn, check in CHECKS.items()],
        # `verify` and `cli` bind these names with `from .problem import`.
        *[(mod, "refined_max_bound", "problem.refined_max_bound", None)
          for mod in (problem, verify, cli)],
        *[(mod, name, f"problem.{name}", None) for mod in (problem, verify)
          for name in ("stability_rhs", "stability_rhs_impulsive")],
        (problem, "golden_section_min", "problem.golden_section_min", None),
        (kernels, "k_gamma", "kernels.k_gamma", None),
        (kernels, "estimate_dbeta_sup", "kernels.estimate_dbeta_sup", None),
        (kernels, "source_growth_constants",
         "kernels.source_growth_constants", None),
        (exprdsl, "evaluate", "exprdsl.evaluate", None),
        (chi, "kinetic_impulse_residual", "chi.kinetic_impulse_residual",
         None),
    ]


def traced_pass(wl, cfg, traj, tally, expected_sha=None):
    """One pass through `cli.main` in this process, traced; returns the
    tracer, the sizes of the files `run` wrote and the final field's hash."""
    from upkolmo import cli

    work = traj.parent
    run_argv, verify_argv = cli_args(wl, cfg, traj)
    tracer = Tracer()
    try:
        for owner, attribute, name, record in _layers():
            tracer.patch(owner, attribute, name, record)
        with open(work / "run.log", "w") as log, \
                contextlib.redirect_stdout(log):
            code = cli.main(run_argv)
        problems, sha = check_run(code, (work / "run.log").read_text(), traj,
                                  expected_sha)
        tally.add(problems, "run")
        written = [p.stat().st_size for p in traj.iterdir()]
        with open(work / "verify.log", "w") as log, \
                contextlib.redirect_stdout(log):
            code = cli.main(verify_argv)
        check_verify(code, traj / "reports.csv", wl.expected_checks, tally)
    finally:
        tracer.restore()
    return tracer, written, sha


def per_layer(wl, tracer, written, run_wall, verify_wall):
    agg = aggregate(tracer.spans)

    def total(name):
        return agg[name].total if name in agg else 0.0

    def calls(name):
        return agg[name].calls if name in agg else 0

    def self_time(name):
        return agg[name].self_time if name in agg else 0.0

    records = {}
    for name, value in tracer.records:
        records.setdefault(name, []).append(value)
    traced_total = total("cli.main")
    steps = calls("scheme.step")
    m = {
        "scheme.setup_s": (total("scheme.Stepper"), "s"),
        "scheme.steppers_built": (calls("scheme.Stepper"), "count"),
        "scheme.steps": (steps, "count"),
        "scheme.step_s": (total("scheme.step"), "s"),
        "scheme.cell_steps_per_s": (
            steps * wl.n * wl.n / total("scheme.step")
            if steps else 0.0, "cell-steps/s"),
        "scheme.step_self_s": (self_time("scheme.step"), "s"),
        "scheme.flux_s": (total("scheme.flux"), "s"),
        "scheme.flux_calls": (calls("scheme.flux"), "count"),
        "scheme.ghost_s": (total("scheme.padded"), "s"),
        "scheme.source_rate_s": (total("scheme.source_rate"), "s"),
        "solver.march_s": (total("solver.march"), "s"),
        "solver.loop_self_s": (self_time("solver.march_once"), "s"),
        "solver.snapshots": (sum(records.get("solver.march", [])), "count"),
        "solver.restarts": (calls("solver.march_once")
                            - calls("solver.march"), "count"),
        "io.load_config_s": (total("io.load_config"), "s"),
        "io.write_s": (total("io.write_trajectory"), "s"),
        "io.read_s": (total("io.read_trajectory"), "s"),
        "io.files_written": (len(written), "count"),
        "io.bytes_written": (sum(written), "B"),
    }
    # A check the workload does not run reports 0 s and a margin of 0;
    # `verify.checks_run` tells them apart from a check passed at 0.
    for check in CHECKS.values():
        name = f"verify.{check}"
        results = records.get(name, [])
        m[f"{name}_s"] = (total(name), "s")
        m[f"{name}.margin"] = (min((r[0] for r in results), default=0.0),
                               "1")
    results = [r for check in CHECKS.values()
               for r in records.get(f"verify.{check}", [])]
    m["verify.checks_run"] = (len(results), "count")
    m["verify.checks_failed"] = (sum(not passed for _, passed in results),
                                 "count")
    for name in ("problem.refined_max_bound", "problem.stability_rhs",
                 "problem.stability_rhs_impulsive", "kernels.k_gamma",
                 "kernels.estimate_dbeta_sup",
                 "kernels.source_growth_constants", "exprdsl.evaluate"):
        m[f"{name}_calls"] = (calls(name), "count")
        m[f"{name}_s"] = (total(name), "s")
    m["problem.golden_section_min_calls"] = (
        calls("problem.golden_section_min"), "count")
    m["chi.kinetic_impulse_residual_s"] = (
        total("chi.kinetic_impulse_residual"), "s")
    m["cli.self_s"] = (self_time("cli.main"), "s")
    m["cli.run_wall_s"] = (run_wall, "s")
    m["cli.verify_wall_s"] = (verify_wall, "s")
    m["trace.traced_total_s"] = (traced_total, "s")
    m["trace.overhead_s"] = (traced_total - run_wall - verify_wall, "s")
    return m


# --- entry point ----------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: the running child is killed and waited for, and
    # the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "upkolmo" / "__init__.py").is_file():
        print(f"bench: no upkolmo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        cfg = work / "workload.cfg"
        cfg.write_text(config_text(wl, args.seed, work / "out"))
        if args.trace:
            traj = work / "traj0"
            run_wall, _, sha = timed_run(wl, cfg, traj, tally)
            verify_wall, _ = timed_verify(wl, cfg, traj, tally)
            tracer, written, sha = traced_pass(wl, cfg, work / "traj1", tally,
                                               sha)
            metrics = per_layer(wl, tracer, written, run_wall, verify_wall)
            spans = WORK / f"spans-{wl.name}-seed{args.seed}.jsonl"
            tracer.write(spans)
            print(f"spans: {len(tracer.spans)} written to "
                  f"{spans.relative_to(ROOT)}")
        else:
            metrics, sha = end_to_end(wl, cfg, work, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {wl.name}, seed {args.seed}: final field sha256 {sha}")
    if args.seed == 0:
        recorded = json.loads(SEED0_FIELDS.read_text())[wl.name]
        print(f"recorded seed-0 final field: {recorded} "
              f"({'same' if sha == recorded else 'CHANGED'})")
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
