"""Exit codes of the `upkolmo` command line on tiny 8x8 configs.

0 success, 1 config or validation error, 3 a verification check failed.
"""

import json

import numpy as np
import pytest

from upkolmo import cli
from upkolmo import io as upk_io
from upkolmo.problem import Field
from scenarios import BETA_TEXT, U01_TEXT

CONFIG = f"""\
[domain]
d = 1
L = 1.0
T = 1.0
S = 1.0

[flux]
a = "lambda^2/2"
phi_1 = "lambda^2/2"

[source]
tau = 0.5
gamma = 0.1
beta = "{BETA_TEXT}"
b1 = 2.0

[data]
u0_1 = "{{u0_1}}"
u0_2 = "0"
uS_2 = "0"

[grid]
Nx = 8
Ns = 8
snapshot_stride = 4

[scheme]
flux_kind = engquist_osher
epsilon = 0.0
cfl_safety = 0.9

[output]
dir = "out"
"""


def _config(tmp_path, name="run.cfg", u0_1=U01_TEXT):
    path = tmp_path / name
    path.write_text(CONFIG.format(u0_1=u0_1))
    return path


def _rows(path):
    lines = path.read_text().splitlines()[1:]
    return {line.split(",")[0]: line.split(",")[4] for line in lines}


@pytest.fixture
def run_dir(tmp_path):
    cfg = _config(tmp_path)
    traj = tmp_path / "traj"
    assert cli.main(["run", str(cfg), "--out", str(traj)]) == 0
    return cfg, traj


def test_run_and_verify_succeed(run_dir):
    cfg, traj = run_dir
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 0
    rows = _rows(traj / "reports.csv")
    assert list(rows) == ["max_principle", "stability", "bln_boundary"]
    assert set(rows.values()) == {"true"}


@pytest.mark.parametrize("command", ["run", "verify"])
def test_malformed_config_exits_1(tmp_path, capsys, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_config(tmp_path).read_text().replace("[grid]", "[grid"))
    argv = [command, str(cfg)]
    if command == "verify":
        argv += ["--traj", str(tmp_path / "traj")]
    assert cli.main(argv) == 1
    assert "unterminated section header" in capsys.readouterr().err


def test_verify_refuses_a_config_the_run_did_not_come_from(run_dir, tmp_path,
                                                            capsys):
    _, traj = run_dir
    other = _config(tmp_path, "other.cfg",
                    u0_1=U01_TEXT.replace("0.8*", "0.7*", 1))
    assert cli.main(["verify", str(other), "--traj", str(traj)]) == 1
    assert "spec hash" in capsys.readouterr().err
    assert not (traj / "reports.csv").exists()


def test_verify_accepts_a_trajectory_without_spec_hash(run_dir):
    cfg, traj = run_dir
    meta = json.loads((traj / "meta.json").read_text())
    del meta["spec_hash"]
    (traj / "meta.json").write_text(json.dumps(meta))
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 0


def test_failed_check_exits_3(run_dir):
    cfg, traj = run_dir
    final = sorted(traj.glob("field_*.upkf"))[-1]
    fld = upk_io.read_field(final)
    upk_io.write_field(final, Field(np.full_like(fld.values, 1e6),
                                    fld.grid, fld.t))
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 3
    assert _rows(traj / "reports.csv")["max_principle"] == "false"
