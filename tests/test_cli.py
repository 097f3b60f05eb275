"""Exit codes of the `upkolmo` command line on tiny 8x8 configs.

0 success, 1 config or validation error, 2 an aborted march, 3 a
verification check failed.
"""

import dataclasses
import json

import numpy as np
import pytest

from upkolmo import cli, kernels, problem, verify
from upkolmo import io as upk_io
from upkolmo.problem import Field
from upkolmo.scheme import SchemeOptions
from scenarios import BETA_TEXT, SBUMP, U01_TEXT, XBUMP

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
    meta = json.loads((traj / "meta.json").read_text())
    assert meta["lateral_diffusion"] == "backward_euler"
    assert meta["source"] == "kick"
    assert meta["restart"] is None


def test_run_prints_and_stores_its_step_and_wall_times(tmp_path, capsys):
    # one line before the last: dt, the CFL term that set it, and the
    # set-up and march seconds that meta.json stores
    cfg = _config(tmp_path)
    traj = tmp_path / "traj"
    assert cli.main(["run", str(cfg), "--out", str(traj)]) == 0
    meta = json.loads((traj / "meta.json").read_text())
    assert meta["setup_s"] > 0.0 and meta["march_s"] > 0.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == (f"dt {meta['dt']:.6g} (convective), setup "
                         f"{meta['setup_s']:.3f} s, march "
                         f"{meta['march_s']:.3f} s")
    assert lines[-1].startswith("wrote ")


def test_verify_scores_the_entropy_residual_of_a_regularized_run(tmp_path):
    # eps > 0 at stride 1: the residual carries eps D_ss; the boundary
    # entropy row stays an eps = 0 check
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(u0_1=U01_TEXT)
                   .replace("snapshot_stride = 4", "snapshot_stride = 1")
                   .replace("epsilon = 0.0", "epsilon = 0.01"))
    traj = tmp_path / "traj"
    assert cli.main(["run", str(cfg), "--mode", "regularized",
                      "--out", str(traj)]) == 0
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 0
    rows = _rows(traj / "reports.csv")
    assert list(rows) == ["max_principle", "stability", "entropy_residual"]
    assert set(rows.values()) == {"true"}


def test_verify_refuses_a_run_written_with_the_in_step_source(run_dir,
                                                              capsys):
    # a run from before the kick has no "source" key; scoring it against
    # the kick would certify an update it did not take
    cfg, traj = run_dir
    meta = json.loads((traj / "meta.json").read_text())
    del meta["source"]
    (traj / "meta.json").write_text(json.dumps(meta))
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {traj}: meta.json lacks source\n"
    assert not (traj / "reports.csv").exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_malformed_config_exits_1(tmp_path, capsys, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_config(tmp_path).read_text().replace("[grid]", "[grid"))
    argv = [command, str(cfg)]
    if command == "verify":
        argv += ["--traj", str(tmp_path / "traj")]
    assert cli.main(argv) == 1
    assert "unterminated section header" in capsys.readouterr().err


@pytest.mark.parametrize("u0_2, cause", [
    ("(x*1e200)^2", "invalid power (overflow)"),
    ("exp(1000*x)*0", "overflow to a non-finite value"),
])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_data_that_cannot_be_evaluated_exit_1(tmp_path, capsys, u0_2, cause,
                                              command):
    cfg = _config(tmp_path)
    cfg.write_text(cfg.read_text().replace('u0_2 = "0"', f'u0_2 = "{u0_2}"'))
    with pytest.raises(upk_io.ValidationError, match="data u0_2: cannot"):
        upk_io.load_config(cfg)
    argv = [command, str(cfg), "--out", str(tmp_path / "traj")]
    if command == "verify":
        argv[2:] = ["--traj", str(tmp_path / "traj")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == (f"error: data u0_2: cannot be evaluated on its box: "
                   f"{cause}\n")
    assert not (tmp_path / "traj").exists()


def test_a_source_that_overflows_on_its_slab_exits_1(tmp_path, capsys):
    # the set-up samples sup|beta| over the slab, where exp overflows
    cfg = _config(tmp_path)
    cfg.write_text(cfg.read_text().replace(f'beta = "{BETA_TEXT}"',
                                           'beta = "exp(1000*lambda)*x"'))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "traj")]) == 1
    assert capsys.readouterr().err == \
        "error: overflow to a non-finite value\n"


def test_config_sets_every_scheme_option(tmp_path):
    # an option no config can set is a second equation only code reaches:
    # the config moves every field of SchemeOptions off its default
    cfg = tmp_path / "options.cfg"
    cfg.write_text(_config(tmp_path).read_text()
                   .replace("engquist_osher", "lax_friedrichs")
                   .replace("cfl_safety = 0.9", "cfl_safety = 0.5"))
    options = upk_io.load_config(cfg).options
    assert options == SchemeOptions(flux_kind="lax_friedrichs",
                                    cfl_safety=0.5, snapshot_stride=4)
    for field in dataclasses.fields(SchemeOptions):
        assert getattr(options, field.name) != field.default, field.name


def test_verify_refuses_a_config_the_run_did_not_come_from(run_dir, tmp_path,
                                                            capsys):
    _, traj = run_dir
    other = _config(tmp_path, "other.cfg",
                    u0_1=U01_TEXT.replace("0.8*", "0.7*", 1))
    assert cli.main(["verify", str(other), "--traj", str(traj)]) == 1
    assert "spec hash" in capsys.readouterr().err
    assert not (traj / "reports.csv").exists()


def test_verify_of_a_missing_trajectory_exits_1(run_dir, tmp_path, capsys):
    cfg, _ = run_dir
    argv = ["verify", str(cfg), "--traj", str(tmp_path / "nosuch")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nosuch" in err
    assert "Traceback" not in err


def test_verify_of_an_unreadable_trajectory_exits_1(run_dir, capsys):
    cfg, traj = run_dir
    meta = json.loads((traj / "meta.json").read_text())
    meta["options"]["x_diffusion"] = False
    (traj / "meta.json").write_text(json.dumps(meta))
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    assert capsys.readouterr().err.startswith("error: meta.json: a run with "
                                              "no lateral Laplacian")
    assert not (traj / "reports.csv").exists()


def test_verify_of_a_trajectory_with_unknown_options_exits_1(run_dir,
                                                             capsys):
    cfg, traj = run_dir
    meta = json.loads((traj / "meta.json").read_text())
    meta["options"]["foo"] = 1
    (traj / "meta.json").write_text(json.dumps(meta))
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: meta.json: unknown options foo")
    assert "Traceback" not in err
    assert not (traj / "reports.csv").exists()


def test_verify_of_a_trajectory_without_meta_json_exits_1(run_dir, capsys):
    # without meta.json the run's dt and step count are unknown
    cfg, traj = run_dir
    (traj / "meta.json").unlink()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {traj}: no meta.json, so the run's march " \
                  "parameters are unknown\n"
    assert not (traj / "reports.csv").exists()


def test_verify_of_a_trajectory_with_empty_meta_json_exits_1(run_dir,
                                                             capsys):
    cfg, traj = run_dir
    (traj / "meta.json").write_text("{}")
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {traj}: meta.json lacks mode, lateral_diffusion, "
                   "source, dt, n_steps, n_tau, stride, eps, gamma, m_bound, "
                   "options\n")
    assert not (traj / "reports.csv").exists()


def _impulsive_dir(tmp_path):
    cfg = _config(tmp_path)
    traj = tmp_path / "impulsive"
    argv = ["run", str(cfg), "--mode", "impulsive", "--out", str(traj)]
    assert cli.main(argv) == 0
    return cfg, traj


def _jump_rows(traj):
    rows = (traj / "index.csv").read_text().splitlines()[1:]
    return [row.split(",")[1:] for row in rows
            if row.split(",")[2] != "snapshot"]


def test_only_an_impulsive_run_writes_jump_fields(run_dir, tmp_path):
    # `verify` reads the one-sided jump fields of impulsive runs only
    _, traj = run_dir
    assert _jump_rows(traj) == []
    assert list(traj.glob("tau_*")) == []
    _, impulsive = _impulsive_dir(tmp_path)
    assert _jump_rows(impulsive) == [["tau_minus.upkf", "tau_minus"],
                                     ["tau_plus.upkf", "tau_plus"]]
    assert sorted(p.name for p in impulsive.glob("tau_*")) == [
        "tau_minus.upkf", "tau_plus.upkf"]


def test_verify_samples_each_bound_once(tmp_path):
    # a stride-1 delayed-source run: the growth constants, the Gronwall
    # weight and the entropy residual's stepper all read one b0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(u0_1=U01_TEXT).replace(
        "snapshot_stride = 4", "snapshot_stride = 1"))
    traj = tmp_path / "traj"
    assert cli.main(["run", str(cfg), "--out", str(traj)]) == 0
    kernels.estimate_dbeta_sup.cache_clear()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 0
    assert "entropy_residual" in _rows(traj / "reports.csv")
    info = kernels.estimate_dbeta_sup.cache_info()
    assert info.misses == 1 and info.hits >= 2
    # an impulsive run: M2 and M3 once, for the bound curve, the jump
    # weight and M3 in check_jump; b0 once, for the stability estimate
    cfg, traj = _impulsive_dir(tmp_path)
    problem.impulsive_bounds.cache_clear()
    kernels.estimate_dbeta_sup.cache_clear()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 0
    info = problem.impulsive_bounds.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert kernels.estimate_dbeta_sup.cache_info().misses == 1


def test_verify_of_an_impulsive_run_without_jump_fields_exits_1(tmp_path,
                                                                capsys):
    cfg, traj = _impulsive_dir(tmp_path)
    capsys.readouterr()
    index = (traj / "index.csv").read_text().splitlines()
    (traj / "index.csv").write_text("\n".join(
        row for row in index if ",tau_" not in row) + "\n")
    for path in traj.glob("tau_*.upkf"):
        path.unlink()
    argv = ["verify", str(cfg), "--traj", str(traj)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {traj}: an impulsive run's index.csv lacks the "
                   "tau_minus or tau_plus row\n")
    assert not (traj / "reports.csv").exists()


@pytest.mark.parametrize("malform", [
    lambda row: row.rpartition(",")[0],
    lambda row: "abc," + row.partition(",")[2],
], ids=["role_cut_off", "time_not_a_number"])
def test_verify_of_a_malformed_index_row_exits_1(run_dir, capsys, malform):
    cfg, traj = run_dir
    index = (traj / "index.csv").read_text().splitlines()
    row = malform(index[2])  # the second snapshot
    index[2] = row
    (traj / "index.csv").write_text("\n".join(index) + "\n")
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {traj}: index.csv row {row!r} is not "
                   "t,filename,role\n")
    assert not (traj / "reports.csv").exists()


@pytest.mark.parametrize("change, message", [
    (("Nx = 8\nNs = 8", "Nx = 16\nNs = 16"), "different grids"),
    (("cfl_safety = 0.9", "cfl_safety = 0.5"), "snapshot times differ"),
])
def test_verify_of_a_second_run_on_another_grid_or_dt_exits_1(
        run_dir, tmp_path, capsys, change, message):
    # the spec hash covers the problem, not the grid or the time step, so
    # the second run passes the hash check and the comparison refuses it
    cfg, traj = run_dir
    other_cfg = tmp_path / "other.cfg"
    other_cfg.write_text(cfg.read_text().replace(*change))
    other = tmp_path / "other"
    assert cli.main(["run", str(other_cfg), "--out", str(other)]) == 0
    capsys.readouterr()
    argv = ["verify", str(cfg), "--traj", str(traj), "--traj2", str(other)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
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


def _spike(var, centre):
    return f"max(0, 1-(({var}-{centre})/1e-6)^2)"


@pytest.mark.parametrize("kind, cause", [
    # f(1e308) = 1e308^2/2 overflows in the first step's flux evaluation
    ("lax_friedrichs", "non-finite value in the step from t = 0: "),
    # the table clamps the flux, and the implicit lateral solve keeps the
    # spike finite; it leaves the region the scheme can reach from the
    # spec's sampled data norms, so no restart can size a region for it
    ("engquist_osher", "exceeded bound"),
])
def test_non_finite_march_exits_2(tmp_path, capsys, kind, cause):
    # a spike of 1e308 on one cell centre, too narrow for the sampled data
    # norms to see
    cfg = _config(tmp_path, u0_1=f"1e308*{_spike('x', 0.4375)}"
                                 f"*{_spike('s', 0.4375)}")
    cfg.write_text(cfg.read_text().replace("engquist_osher", kind))
    traj = tmp_path / "traj"
    assert cli.main(["run", str(cfg), "--out", str(traj)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("aborted: ") and err.count("\n") == 1
    assert cause in err
    assert not traj.exists()


def test_decreasing_jump_map_is_rejected_before_the_march(tmp_path, capsys):
    # 1 + d beta / d lambda = 1 - 1.5 bx bs reaches -0.5 on the slab
    cfg = _config(tmp_path)
    text = cfg.read_text().replace(f'beta = "{BETA_TEXT}"',
                                   f'beta = "-1.5*lambda*{XBUMP}*{SBUMP}"')
    cfg.write_text(text)
    traj = tmp_path / "traj"
    assert cli.main(["run", str(cfg), "--mode", "impulsive",
                     "--out", str(traj)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the jump map lambda -> lambda + beta "
                          "decreases") and err.count("\n") == 1
    assert not traj.exists()


def test_non_finite_snapshot_fails_verify(run_dir):
    cfg, traj = run_dir
    fields = sorted(traj.glob("field_*.upkf"))
    fld = upk_io.read_field(fields[2])
    values = fld.values.copy()
    values[3, 4] = np.nan
    upk_io.write_field(fields[2], Field(values, fld.grid, fld.t))
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 3
    rows = _rows(traj / "reports.csv")
    assert rows["max_principle"] == rows["stability"] == "false"

    loaded = upk_io.load_config(cfg)
    stored = upk_io.read_trajectory(traj, L=loaded.spec.L, S=loaded.spec.S)
    for rep in (verify.check_max_principle(stored, loaded.spec),
                verify.check_stability(stored, stored, loaded.spec,
                                       loaded.spec)):
        assert not rep.passed
        assert rep.measured == np.inf
        assert rep.context["t_worst"] == stored.times[2] == fld.t


def _stored(cfg, traj):
    loaded = upk_io.load_config(cfg)
    return loaded.spec, upk_io.read_trajectory(traj, L=loaded.spec.L,
                                               S=loaded.spec.S)


def test_k_bank_lies_inside_the_solution_range(run_dir):
    cfg, traj = run_dir
    spec, stored = _stored(cfg, traj)
    lo = min(float(f.values.min()) for f in stored.fields)
    hi = max(float(f.values.max()) for f in stored.fields)
    bank = cli._k_bank(stored)
    assert len(bank) == len(set(bank)) == 9
    assert all(lo < k < hi for k in bank)
    # verify scores the boundary entropies with exactly this bank
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 0
    line = (traj / "reports.csv").read_text().splitlines()[3]
    assert line == ",".join(verify.check_bln(stored, spec, bank).row())


def test_k_bank_leaves_non_finite_cells_out(run_dir):
    cfg, traj = run_dir
    _, stored = _stored(cfg, traj)
    bank = cli._k_bank(stored)
    stored.fields[1].values[0, 0] = np.inf
    stored.fields[2].values[0, 0] = np.nan
    assert cli._k_bank(stored) == bank
    for fld in stored.fields:
        fld.values[:] = np.nan
    assert cli._k_bank(stored) == []


def _sweep_config(tmp_path):
    return _config(tmp_path, "sweep.cfg").read_text().replace(
        "Nx = 8\nNs = 8", "Nx = 16\nNs = 16")


SWEEPS = {"gamma": "0.2,0.1,0.05", "epsilon": "0.04,0.02,0.01"}


@pytest.mark.parametrize("param", sorted(SWEEPS))
def test_sweep_writes_the_same_files_at_any_job_count(tmp_path, param):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_sweep_config(tmp_path))
    written = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["sweep", str(cfg), "--param", param, "--values",
                         SWEEPS[param], "--jobs", str(jobs),
                         "--out", str(out)]) == 0
        written[jobs] = {name: (out / name).read_bytes()
                         for name in (f"{param}_sweep.csv", "sweep_report.csv")}
    assert written[1] == written[2]
    sweep = written[1][f"{param}_sweep.csv"].decode().splitlines()
    assert sweep[0] == f"{param},error"
    assert len(sweep) == 1 + (3 if param == "gamma" else 2)
    report = written[1]["sweep_report.csv"].decode().splitlines()
    check = "gamma_limit" if param == "gamma" else "epsilon_cauchy"
    assert report[1].split(",")[0] == check
    assert report[1].split(",")[4] == "true"


def test_sweep_with_a_failed_report_exits_3(tmp_path, capsys):
    # one gamma leaves no pair to compare: the report fails, and is written
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_sweep_config(tmp_path))
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfg), "--param", "gamma", "--values",
                     "0.1", "--out", str(out)]) == 3
    assert "gamma_limit pass=False" in capsys.readouterr().out
    report = (out / "sweep_report.csv").read_text().splitlines()
    assert report[1].split(",")[4] == "false"


def test_sweep_rejects_a_value_that_is_not_a_number(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_sweep_config(tmp_path))
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfg), "--param", "gamma", "--values",
                     "0.1,abc", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "abc" in err[0]
    assert not out.exists()


def test_sweep_rejects_non_decreasing_gammas(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_sweep_config(tmp_path))
    assert cli.main(["sweep", str(cfg), "--param", "gamma", "--values",
                     "0.1,0.2", "--out", str(tmp_path / "out")]) == 1
    assert "strictly decreasing" in capsys.readouterr().err


def test_sweep_needs_three_epsilons(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_sweep_config(tmp_path))
    assert cli.main(["sweep", str(cfg), "--param", "epsilon", "--values",
                     "0.02,0.01", "--out", str(tmp_path / "out")]) == 1
    assert "need at least 3 viscosity values" in capsys.readouterr().err


def test_epsilon_sweep_with_a_delayed_source_needs_gamma(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_sweep_config(tmp_path).replace("gamma = 0.1",
                                                   "gamma = 0.0"))
    assert cli.main(["sweep", str(cfg), "--param", "epsilon", "--values",
                     SWEEPS["epsilon"], "--out", str(tmp_path / "out")]) == 1
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("flux, code", [("lambda^2/2", 0), ("lambda", 3)])
def test_validate_flux_exit_codes(tmp_path, flux, code):
    cfg = tmp_path / "flux.cfg"
    cfg.write_text(_config(tmp_path).read_text().replace(
        'a = "lambda^2/2"', f'a = "{flux}"'))
    assert cli.main(["validate-flux", str(cfg)]) == code
