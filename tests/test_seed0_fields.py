"""The benchmark's seed-0 trajectories, pinned by their final fields.

Each workload's seed-0 config is solved in process through `upkolmo run`,
and the SHA-256 of the final snapshot's `.upkf` file must equal the one
recorded in `seed0_final_fields.json` beside this file.  A change that
alters any bit of a benchmark trajectory fails here.  The bench keeps its
own record (`bench/seed0_final_fields.json`), from which it prints `same`
or `CHANGED`.

The lateral solve is a BLAS matrix product, so the pins also hold only if
the product does not depend on the BLAS thread count; a 64x64 run checks
that with one thread and with two.
"""

import hashlib
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


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_final_field_is_the_recorded_one(tmp_path, capsys, name):
    workload = WORKLOADS[name]
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(config_text(workload, 0, tmp_path / "out"))
    traj = tmp_path / "traj"
    assert cli.main(["run", str(cfg), "--mode", workload.mode,
                     "--out", str(traj)]) == 0
    capsys.readouterr()  # the per-snapshot table
    rows = [line.split(",") for line in
            (traj / "index.csv").read_text().splitlines()[1:] if line]
    final = [fname for _, fname, role in rows if role == "snapshot"][-1]
    sha = hashlib.sha256((traj / final).read_bytes()).hexdigest()
    assert sha == RECORDED[name]


def test_every_workload_is_recorded():
    assert sorted(RECORDED) == sorted(WORKLOADS)


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
