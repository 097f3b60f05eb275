"""The benchmark's trajectories at seeds 0 and 1, pinned byte for byte.

Each workload's config is run and verified in process, as `bench/run.py`
does it, through `upkolmo run --mode` and `upkolmo verify`.  The SHA-256 of
every file they write, each `.upkf`, `index.csv`, `reports.csv`,
`reports.jsonl` and `meta.json`, must equal the one recorded in
`bench_outputs.json` beside this file, so a change that alters any bit of a
benchmark output fails here.  `meta.json` is hashed without its wall-second
lines `setup_s` and `march_s`, which differ between any two runs.  The
bench keeps its own record of the seed-0 final fields
(`bench/seed0_final_fields.json`), from which it prints `same` or
`CHANGED`.  The seed-0 `reports.csv` rows are also recorded as text in
`seed0_reports.json`, so that a change to a check's measure, bound or
context shows which row moved.

The lateral solve is a BLAS matrix product, so the pins also hold only if
the product does not depend on the BLAS thread count; a 64x64 run checks
that with one thread and with two.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import upkolmo
from upkolmo import cli, exprdsl

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, config_text  # noqa: E402

RECORDED = json.loads(Path(__file__).with_name("bench_outputs.json")
                      .read_text())
REPORTS = json.loads(Path(__file__).with_name("seed0_reports.json")
                     .read_text())
SEEDS = (0, 1)
_WALL_SECONDS = re.compile(rb'^ *"(setup_s|march_s)": ')


def _main(*argv):
    """`upkolmo` in process, its stdout table dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(map(str, argv)))


def run_and_verify(name, seed, out):
    """The config and run directory of a workload run and verified in
    ``out``, as `bench/run.py` runs it."""
    workload, cfg = WORKLOADS[name], out / f"{name}.cfg"
    cfg.write_text(config_text(workload, seed, out / "out"))
    traj = out / "traj"
    assert _main("run", cfg, "--mode", workload.mode, "--out", traj) == 0
    assert _main("verify", cfg, "--traj", traj) == 0
    return cfg, traj


def digests(traj):
    """SHA-256 of every file of a run directory, by name; meta.json's
    without its wall-second lines."""
    out = {}
    for path in sorted(traj.iterdir()):
        data = path.read_bytes()
        if path.name == "meta.json":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not _WALL_SECONDS.match(line))
        out[path.name] = hashlib.sha256(data).hexdigest()
    return out


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    """The config and run directory of a workload at a seed, each run and
    verified once."""
    runs = {}

    def run(name, seed):
        if (name, seed) not in runs:
            out = tmp_path_factory.mktemp(f"{name}_{seed}")
            runs[name, seed] = run_and_verify(name, seed, out)
        return runs[name, seed]
    return run


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_are_the_recorded_ones(bench_run, name, seed):
    got = digests(bench_run(name, seed)[1])
    want = RECORDED[name][str(seed)]
    assert sorted(got) == sorted(want)
    assert [n for n in sorted(got) if got[n] != want[n]] == []


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_reports_are_the_recorded_ones(bench_run, name):
    traj = bench_run(name, 0)[1]
    assert (traj / "reports.csv").read_text().splitlines() == REPORTS[name]


def test_every_workload_is_recorded():
    assert sorted(RECORDED) == sorted(REPORTS) == sorted(WORKLOADS)
    assert all(sorted(RECORDED[n]) == list(map(str, SEEDS)) for n in RECORDED)


def test_run_and_verify_enclose_each_bound_once(tmp_path, sup_keys):
    # one process: `run` computes its 16 distinct bounds once each, though
    # both s-end data are the expression 0 on the same boxes, and `verify`
    # of the run computes none, as it reads only bounds `run` read
    workload, cfg = WORKLOADS["source64"], tmp_path / "source64.cfg"
    cfg.write_text(config_text(workload, 0, tmp_path / "out"))
    traj = tmp_path / "traj"
    assert _main("run", cfg, "--mode", workload.mode, "--out", traj) == 0
    assert exprdsl.sup.cache_info().misses == len(set(sup_keys)) == 16
    asked = len(sup_keys)
    assert _main("verify", cfg, "--traj", traj) == 0
    assert len(sup_keys) > asked
    assert exprdsl.sup.cache_info().misses == len(set(sup_keys)) == 16


def test_fields_do_not_depend_on_the_blas_thread_count(tmp_path):
    workload = WORKLOADS["source64"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(workload, 0, tmp_path / "out"))
    fields = []
    for threads in ("1", "2"):
        traj = tmp_path / f"traj{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-c",
                        "import sys; from upkolmo import cli; "
                        "sys.exit(cli.main(sys.argv[1:]))",
                        "run", str(cfg), "--mode", workload.mode,
                        "--out", str(traj)],
                       env=env, capture_output=True, check=True,
                       cwd=Path(upkolmo.__file__).parents[1])
        fields.append({path.name: hashlib.sha256(path.read_bytes())
                       .hexdigest() for path in traj.glob("field_*.upkf")})
    assert len(fields[0]) == 9
    want = RECORDED["source64"]["0"]
    assert fields[0] == fields[1] == {n: want[n] for n in fields[0]}
