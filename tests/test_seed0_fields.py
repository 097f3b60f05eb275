"""The benchmark's seed-0 trajectories, pinned by their final fields.

Each workload's seed-0 config is solved in process through `upkolmo run`,
and the SHA-256 of the final snapshot's `.upkf` file must equal the one
recorded in `seed0_final_fields.json` beside this file.  A change that
alters any bit of a benchmark trajectory fails here.  The bench keeps its
own record (`bench/seed0_final_fields.json`), from which it prints `same`
or `CHANGED`.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

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
