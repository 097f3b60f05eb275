"""The benchmark's seed-0 trajectories, pinned by their final fields and
their reports.

Each workload's seed-0 config is solved in process through `upkolmo run`,
and the SHA-256 of the final snapshot's `.upkf` file must equal the one
recorded in `seed0_final_fields.json` beside this file.  A change that
alters any bit of a benchmark trajectory fails here.  The bench keeps its
own record (`bench/seed0_final_fields.json`), from which it prints `same`
or `CHANGED`.  `upkolmo verify` of each run, in process, must write the
`reports.csv` rows recorded in `seed0_reports.json`, so a change to any
check's measure, bound or context fails here too.

The lateral solve is a BLAS matrix product, so the pins also hold only if
the product does not depend on the BLAS thread count; a 64x64 run checks
that with one thread and with two.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import upkolmo
from upkolmo import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, config_text  # noqa: E402

RECORDED = json.loads((Path(__file__).with_name("seed0_final_fields.json")
                       .read_text()))
REPORTS = json.loads(Path(__file__).with_name("seed0_reports.json")
                     .read_text())


def _main(*argv):
    """`upkolmo` in process, its stdout table dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(map(str, argv)))


@pytest.fixture(scope="module")
def seed0_run(tmp_path_factory):
    """The config and run directory of a workload's seed-0 run, each
    solved once."""
    runs = {}

    def run(name):
        if name not in runs:
            workload, out = WORKLOADS[name], tmp_path_factory.mktemp(name)
            cfg = out / f"{name}.cfg"
            cfg.write_text(config_text(workload, 0, out / "out"))
            assert _main("run", cfg, "--mode", workload.mode,
                         "--out", out / "traj") == 0
            runs[name] = cfg, out / "traj"
        return runs[name]
    return run


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_final_field_is_the_recorded_one(seed0_run, name):
    traj = seed0_run(name)[1]
    rows = [line.split(",") for line in
            (traj / "index.csv").read_text().splitlines()[1:] if line]
    final = [fname for _, fname, role in rows if role == "snapshot"][-1]
    sha = hashlib.sha256((traj / final).read_bytes()).hexdigest()
    assert sha == RECORDED[name]


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_reports_are_the_recorded_ones(seed0_run, name):
    cfg, traj = seed0_run(name)
    assert _main("verify", cfg, "--traj", traj) == 0
    assert (traj / "reports.csv").read_text().splitlines() == REPORTS[name]


def test_every_workload_is_recorded():
    assert sorted(RECORDED) == sorted(REPORTS) == sorted(WORKLOADS)


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
        fields.append([f.read_bytes()
                       for f in sorted(traj.glob("field_*.upkf"))])
    assert len(fields[0]) == 9
    assert fields[0] == fields[1]
    assert hashlib.sha256(fields[0][-1]).hexdigest() == RECORDED["source64"]
