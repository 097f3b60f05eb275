"""Exit codes of the `upkolmo` command line on tiny 8x8 configs.

0 success, 1 a config, validation or I/O error, 2 an aborted march, 3 a
verification check failed.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from upkolmo import cli, exprdsl, kernels, problem, scheme, verify
from upkolmo import io as upk_io
from upkolmo.problem import Field
from upkolmo.scheme import SchemeOptions
from scenarios import BETA_TEXT, LCUT, SBUMP, TENT, U01_TEXT, XBUMP

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
    assert "restart" not in meta


def test_verify_writes_each_row_as_a_json_line_beside_the_csv(run_dir):
    # the CSV keeps a hash of each row's context, reports.jsonl the context
    cfg, traj = run_dir
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 0
    rows = (traj / "reports.csv").read_text().splitlines()[1:]
    lines = (traj / "reports.jsonl").read_text().splitlines()
    assert len(lines) == len(rows) == 3
    for line, row in zip(lines, rows):
        got = json.loads(line)
        assert line == json.dumps(got, sort_keys=True)
        margin = got.pop("margin")
        rep = verify.VerificationReport(**got)
        assert (",".join(rep.row()), margin) == (row, rep.margin)


def test_a_field_past_its_bound_is_located_in_reports_jsonl(run_dir):
    # a planted fault: one stored field scaled 1000-fold fails the
    # maximum principle, and its JSON line names that snapshot and cell
    cfg, traj = run_dir
    name = _index_rows(traj)[2][1]
    fld = upk_io.read_field(traj / name)
    upk_io.write_field(traj / name, Field(1e3 * fld.values, fld.grid, fld.t))
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 3
    got = json.loads((traj / "reports.jsonl").read_text().splitlines()[0])
    cell = np.unravel_index(np.argmax(np.abs(fld.values)), fld.values.shape)
    assert (got["check"], got["passed"], got["margin"] < 0) == (
        "max_principle", False, True)
    assert got["context"]["t_worst"] == fld.t > 0.0
    assert got["context"]["cell_worst"] == [int(i) for i in cell]


def test_run_prints_and_stores_its_step_and_wall_times(tmp_path, capsys):
    # one line before the last: the marched mode, eps and gamma, dt, the
    # CFL term that set it, and the set-up and march seconds that
    # meta.json stores
    cfg = _config(tmp_path)
    traj = tmp_path / "traj"
    assert cli.main(["run", str(cfg), "--out", str(traj)]) == 0
    meta = json.loads((traj / "meta.json").read_text())
    assert meta["setup_s"] > 0.0 and meta["march_s"] > 0.0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == (f"entropy, eps 0, gamma 0.1, dt {meta['dt']:.6g} "
                         f"(convective), setup {meta['setup_s']:.3f} s, "
                         f"march {meta['march_s']:.3f} s")
    assert lines[-1].startswith("wrote ")


def _eps_config(tmp_path, epsilon="0.01"):
    cfg = tmp_path / "eps.cfg"
    cfg.write_text(_config(tmp_path).read_text().replace(
        "epsilon = 0.0", f"epsilon = {epsilon}"))
    return cfg


def test_run_marches_the_configs_epsilon(tmp_path, capsys):
    cfg, traj = _eps_config(tmp_path), tmp_path / "traj"
    assert cli.main(["run", str(cfg), "--out", str(traj)]) == 0
    meta = json.loads((traj / "meta.json").read_text())
    assert (meta["mode"], meta["eps"], meta["gamma"]) == (
        "regularized", 0.01, 0.1)
    assert capsys.readouterr().out.splitlines()[-2].startswith(
        "regularized, eps 0.01, gamma 0.1, dt ")
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 0


@pytest.mark.parametrize("epsilon, mode, stated", [
    ("0.01", "entropy", "regularized"), ("0.01", "impulsive", "regularized"),
    ("0.0", "regularized", "entropy")])
def test_a_mode_the_config_does_not_state_exits_1(tmp_path, capsys, epsilon,
                                                  mode, stated):
    cfg, traj = _eps_config(tmp_path, epsilon), tmp_path / "traj"
    assert cli.main(["run", str(cfg), "--mode", mode,
                     "--out", str(traj)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: --mode {mode}, but {cfg} states the {stated} "
                   f"problem (epsilon {float(epsilon)}, gamma 0.1)\n")
    assert not traj.exists()


@pytest.mark.parametrize("epsilon, mode, key, value, want", [
    ("0.01", None, "eps", 0.0, 0.01),
    ("0.0", None, "gamma", 0.05, 0.1),
    ("0.0", "impulsive", "gamma", 0.1, 0.0)])
def test_verify_of_a_run_marched_at_another_eps_or_gamma_exits_1(
        tmp_path, capsys, epsilon, mode, key, value, want):
    # the spec hash covers the config's epsilon and gamma, not the ones
    # the run marched at; an impulsive run marches at gamma = 0
    cfg, traj = _eps_config(tmp_path, epsilon), tmp_path / "traj"
    argv = ["run", str(cfg), "--out", str(traj)]
    assert cli.main(argv + (["--mode", mode] if mode else [])) == 0
    meta = json.loads((traj / "meta.json").read_text())
    assert meta[key] == want
    meta[key] = value
    (traj / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {traj} was computed with {key} {value}, not from "
                   f"{cfg} ({key} {want})\n")
    assert not (traj / "reports.csv").exists()


_AT_64 = {"Nx = 8": "Nx = 64", "Ns = 8": "Ns = 64"}


@pytest.mark.parametrize("edits, refused", [
    # u0_1 of amplitude 1e6: B(T) = 1e6, so 2048 (B(T) + 1) nodes
    ({"0.8*": "1e6*"}, "the Engquist-Osher table of m_bound = "
     "1000000.000000003 would hold 2,048,002,051 nodes, above the limit "
     "of 1,048,577"),
    # a' = 1e6 lambda at 64^2: 0.74 GB of kick masses, and 47 GB of the
    # s-end ghosts verify holds
    ({'a = "lambda^2/2"': 'a = "1e6*lambda^2/2"', **_AT_64},
     "the s-end ghosts of 92,444,537 steps of Nx = 64 would hold "
     "5,916,450,368 values, above the limit of 16,777,216"),
    # an 80 GB lateral inverse
    ({"Nx = 8": "Nx = 100000"}, "the lateral inverse of Nx = 100000 would "
     "hold 10,000,000,000 entries, above the limit of 16,777,216")])
def test_a_march_that_cannot_fit_is_refused_before_it_allocates(
        tmp_path, capsys, edits, refused):
    text = _config(tmp_path).read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(text)
    tracemalloc.start()
    try:
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "traj")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 2 ** 20
    assert capsys.readouterr().err == (f"error: {refused}: the march is "
                                       "refused\n")
    assert not (tmp_path / "traj").exists()


def test_run_of_a_delayed_source_samples_no_b0(tmp_path, monkeypatch):
    # the kick's guard reads problem.min_kick_slope; sup|dbeta/dlambda| is
    # for the stability estimate alone
    calls = []
    real = kernels.estimate_dbeta_sup
    monkeypatch.setattr(kernels, "estimate_dbeta_sup",
                        lambda *args: calls.append(args) or real(*args))
    traj = tmp_path / "traj"
    assert cli.main(["run", str(_config(tmp_path)), "--out", str(traj)]) == 0
    assert json.loads((traj / "meta.json").read_text())["gamma"] == 0.1
    assert calls == []


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


@pytest.mark.parametrize("text, what", [
    ("5", "is not a JSON object"), ("null", "is not a JSON object"),
    ("[]", "is not a JSON object"), ('"x"', "is not a JSON object"),
    ("{", "is not JSON: Expecting property name enclosed in double "
          "quotes: line 1 column 2 (char 1)"),
    ("\udcff", "is not JSON: 'utf-8' codec can't decode byte 0xff in "
                "position 0: invalid start byte")])
def test_verify_refuses_a_meta_json_that_is_not_an_object(run_dir, capsys,
                                                          text, what):
    cfg, traj = run_dir
    (traj / "meta.json").write_bytes(text.encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    assert _one_error_line(capsys) == f"error: {traj}: meta.json {what}\n"
    assert not (traj / "reports.csv").exists()


FLOAT_KEYS = ["L", "T", "S", "tau", "gamma", "b1", "epsilon", "cfl_safety"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_a_non_finite_number_exits_1(tmp_path, capsys, key, value):
    # float() reads each of them, and a march or a meta.json of one is
    # not a run: eps = nan wrote NaN, T = inf overflowed the step count
    lines = _config(tmp_path).read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1)
                  if line.startswith(f"{key} = "))
    lines[lineno - 1] = f"{key} = {value}"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "traj")]) == 1
    assert _one_error_line(capsys) == (
        f"error: line {lineno}: {key}: expected a finite number, got "
        f"{value!r}\n")
    assert not (tmp_path / "traj").exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_malformed_config_exits_1(tmp_path, capsys, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_config(tmp_path).read_text().replace("[grid]", "[grid"))
    argv = [command, str(cfg)]
    if command == "verify":
        argv += ["--traj", str(tmp_path / "traj")]
    assert cli.main(argv) == 1
    assert "unterminated section header" in capsys.readouterr().err


MISSING_CONFIG = {
    "run": [],
    "sweep": ["--param", "gamma", "--values", "0.1,0.05"],
    "verify": ["--traj", "traj"],
    "validate-flux": []}


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("command", sorted(MISSING_CONFIG))
def test_a_missing_config_exits_1_in_every_command(tmp_path, capsys,
                                                    command):
    cfg = tmp_path / "nosuch.cfg"
    assert cli.main([command, str(cfg)] + MISSING_CONFIG[command]) == 1
    assert str(cfg) in _one_error_line(capsys)


@pytest.mark.parametrize("argv, line", [
    (["run", "CFG", "--bogus"], "upkolmo: unrecognized arguments: --bogus"),
    ([], "upkolmo: the following arguments are required: command"),
    (["sweep", "CFG", "--param", "gamma", "--values", "0.1", "--jobs", "two"],
     "upkolmo: unrecognized arguments: --jobs two"),
    (["validate-flux", "CFG", "--Lambda", "x"],
     "upkolmo validate-flux: argument --Lambda: invalid float value: 'x'"),
], ids=["unknown_option", "no_command", "jobs_not_an_int",
        "lambda_not_a_float"])
def test_a_usage_error_exits_1(tmp_path, capsys, argv, line):
    # exit 2 is an aborted march's, so argparse's own exit 2 is not used
    cfg = str(_config(tmp_path))
    assert cli.main([cfg if arg == "CFG" else arg for arg in argv]) == 1
    assert _one_error_line(capsys) == f"error: {line}\n"


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: upkolmo")


@pytest.mark.parametrize("key, expr, line", [
    ("a", "x*lambda^2/2", "flux a: reads x, but is a function of lambda only"),
    ("phi_1", "s*lambda^2/2",
     "flux phi_1: reads s, but is a function of lambda only"),
    ("u0_1", f"t*{U01_TEXT}",
     "data u0_1: reads t, but is a function of x, s only"),
    ("u0_1", f"lambda*{U01_TEXT}",
     "data u0_1: reads lambda, but is a function of x, s only"),
    ("u0_2", "0*s", "data u0_2: reads s, but is a function of x, t only"),
    ("uS_2", "0*lambda",
     "data uS_2: reads lambda, but is a function of x, t only"),
    ("beta", f"t*{BETA_TEXT}",
     "source beta: reads t, but is a function of x, s, lambda only"),
], ids=["a_x", "phi_s", "u0_1_t", "u0_1_lambda", "u0_2_s", "uS_2_lambda",
        "beta_t"])
@pytest.mark.parametrize("command", ["run", "verify", "validate-flux"])
def test_an_expression_reading_a_variable_its_role_does_not_bind_exits_1(
        tmp_path, capsys, key, expr, line, command):
    # refused before any check evaluates it, which would raise
    # exprdsl.UnboundVariableError
    cfg = _config(tmp_path)
    lines = [f'{key} = "{expr}"' if row.startswith(f"{key} = ") else row
             for row in cfg.read_text().splitlines()]
    cfg.write_text("\n".join(lines) + "\n")
    assert cli.main([command, str(cfg)] + MISSING_CONFIG[command]) == 1
    assert _one_error_line(capsys) == f"error: {line}\n"


@pytest.mark.parametrize("Lambda", ["inf", "0", "-1", "nan"])
def test_validate_flux_refuses_a_lambda_not_finite_and_positive(
        tmp_path, capsys, Lambda):
    # each measured nothing: inf and 0 passed, -1 gave negative measures and
    # nan gave nan quantiles
    cfg = _config(tmp_path)
    assert cli.main(["validate-flux", str(cfg), "--Lambda", Lambda]) == 1
    assert _one_error_line(capsys) == (
        f"error: Lambda must be a finite number > 0, got {float(Lambda)}\n")


def test_run_into_a_directory_it_cannot_make_exits_1(tmp_path, capsys):
    cfg, blocker = _config(tmp_path), tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["run", str(cfg), "--out", str(blocker / "traj")]) == 1
    assert str(blocker) in _one_error_line(capsys)


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
    cfg.write_text(cfg.read_text().replace(
        f'beta = "{BETA_TEXT}"', f'beta = "exp(1000*lambda)*x*{LCUT}"'))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "traj")]) == 1
    assert capsys.readouterr().err == ("error: source beta: cannot be "
                                       "evaluated on its slab: overflow to "
                                       "a non-finite value\n")


@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_beta_that_ignores_b1_exits_1(run_dir, tmp_path, capsys, command):
    # every sup bound rests on beta = 0 beyond b1; this one is 0.6 bumps
    # there and grows with lambda^2
    _, traj = run_dir
    cfg = _config(tmp_path, "wide.cfg")
    cfg.write_text(cfg.read_text().replace(
        f'beta = "{BETA_TEXT}"\nb1 = 2.0',
        f'beta = "2*{XBUMP}*{SBUMP}*(0.3 + lambda^2)"\nb1 = 0.1'))
    argv = ([command, str(cfg), "--out", str(tmp_path / "wide")]
            if command == "run" else [command, str(cfg), "--traj", str(traj)])
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: source b1: |beta| = ")
    assert "on b1 = 0.1 <= |lambda|" in err and err.count("\n") == 1
    assert not (tmp_path / "wide").exists()
    assert not (traj / "reports.csv").exists()


@pytest.mark.parametrize("kind", ["engquist_osher", "lax_friedrichs"])
def test_a_flux_whose_slope_overflows_exits_1(tmp_path, capsys, kind):
    # the set-up tabulates or encloses a' for the step, the value staying
    # below 1e9: the derivative overflows, and the error names it
    cfg = _config(tmp_path)
    cfg.write_text(cfg.read_text().replace(
        'a = "lambda^2/2"', 'a = "sin(1e300*lambda)*1e9"').replace(
        "engquist_osher", kind))
    traj = tmp_path / "traj"
    named = ("error: d/dlambda of sin(1e+300 * lambda) * 1000000000.0: "
             "overflow to a non-finite value\n")
    assert cli.main(["run", str(cfg), "--out", str(traj)]) == 1
    assert capsys.readouterr().err == named
    assert not traj.exists()
    assert cli.main(["validate-flux", str(cfg)]) == 1
    assert capsys.readouterr().err == named


@pytest.mark.parametrize("gamma", ["0.1", "0.0"])
def test_a_source_whose_slope_overflows_exits_1(tmp_path, capsys, gamma):
    # the kick's least slope is enclosed before either march, the value of
    # beta staying below 1e9: the derivative overflows, and the error names it
    cfg = _config(tmp_path)
    cfg.write_text(cfg.read_text().replace(
        'beta = "', 'beta = "sin(1e300*lambda)*1e9*').replace(
        "gamma = 0.1", f"gamma = {gamma}"))
    beta = upk_io.load_config(cfg).spec.beta
    traj = tmp_path / "traj"
    assert cli.main(["run", str(cfg), "--out", str(traj)]) == 1
    assert capsys.readouterr().err == (
        f"error: d/dlambda of {exprdsl.to_string(beta)}: overflow to a "
        "non-finite value\n")
    assert not traj.exists()


@pytest.mark.parametrize("command", ["run", "verify", "validate-flux"])
def test_a_config_of_two_dimensions_exits_1(tmp_path, capsys, command):
    # only d = 1 is marched: the dimension is refused before [flux] is
    # read, so a d = 2 config's phi_2 is not what is named
    cfg = _config(tmp_path)
    cfg.write_text(cfg.read_text().replace("d = 1", "d = 2").replace(
        'phi_1 = "lambda^2/2"', 'phi_1 = "lambda^2/2"\nphi_2 = "0"'))
    argv = {"run": ["run", str(cfg), "--out", str(tmp_path / "traj")],
            "verify": ["verify", str(cfg), "--traj", str(tmp_path / "traj")],
            "validate-flux": ["validate-flux", str(cfg)]}[command]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == \
        "error: dimension: only d=1 is supported, got d=2\n"
    assert not (tmp_path / "traj").exists()


def test_a_second_lateral_flux_is_an_unknown_key(tmp_path, capsys):
    cfg = _config(tmp_path)
    cfg.write_text(cfg.read_text().replace(
        'phi_1 = "lambda^2/2"', 'phi_1 = "lambda^2/2"\nphi_2 = "0"'))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "traj")]) == 1
    assert capsys.readouterr().err == \
        "error: line 10: unknown key 'phi_2' in [flux]\n"


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
    assert "spec_hash" in capsys.readouterr().err
    assert not (traj / "reports.csv").exists()


def _options(flux_kind, cfl_safety, stride):
    """``SchemeOptions`` as ``meta.json`` holds them."""
    return (f'{{"cfl_safety": {cfl_safety}, "flux_kind": "{flux_kind}", '
            f'"snapshot_stride": {stride}}}')


@pytest.mark.parametrize("change, what, got, want", [
    (("Nx = 8\nNs = 8", "Nx = 4\nNs = 4"), "grid", (8, 8), (4, 4)),
    (("engquist_osher", "lax_friedrichs"), "options",
     _options("engquist_osher", 0.9, 4), _options("lax_friedrichs", 0.9, 4)),
    (("cfl_safety = 0.9", "cfl_safety = 0.5"), "options",
     _options("engquist_osher", 0.9, 4), _options("engquist_osher", 0.5, 4)),
    (("snapshot_stride = 4", "snapshot_stride = 8"), "options",
     _options("engquist_osher", 0.9, 4), _options("engquist_osher", 0.9, 8)),
], ids=["grid", "flux_kind", "cfl_safety", "snapshot_stride"])
def test_verify_refuses_a_run_marched_on_another_grid_or_scheme(
        run_dir, tmp_path, capsys, change, what, got, want):
    # the spec hash covers the problem, not how it was discretized
    _, traj = run_dir
    other = tmp_path / "other.cfg"
    other.write_text(_config(tmp_path).read_text().replace(*change))
    capsys.readouterr()
    assert cli.main(["verify", str(other), "--traj", str(traj)]) == 1
    assert capsys.readouterr().err == (
        f"error: {traj} was computed with {what} {got}, not from {other} "
        f"({what} {want})\n")
    assert not (traj / "reports.csv").exists()


def test_verify_of_a_missing_trajectory_exits_1(run_dir, tmp_path, capsys):
    cfg, _ = run_dir
    argv = ["verify", str(cfg), "--traj", str(tmp_path / "nosuch")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nosuch" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("restart", [None, {"m_bound": 1.9}])
def test_verify_refuses_a_run_marched_with_sampled_bounds(run_dir, capsys,
                                                         restart):
    # every such run holds a restart key, null where it did not restart:
    # its Lax-Friedrichs alpha was 1.05 max|f'| on a wider region, so the
    # rebuilt stepper would replay it with another operator
    cfg, traj = run_dir
    meta = json.loads((traj / "meta.json").read_text())
    meta["restart"] = restart
    (traj / "meta.json").write_text(json.dumps(meta))
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    assert capsys.readouterr().err == (
        "error: meta.json: a restart key marks a run marched with sampled "
        "bounds, on a wider region and dissipation than this version "
        "rebuilds\n")
    assert not (traj / "reports.csv").exists()


def test_verify_of_an_unreadable_trajectory_exits_1(run_dir, capsys):
    cfg, traj = run_dir
    meta = json.loads((traj / "meta.json").read_text())
    meta["options"]["x_diffusion"] = False
    (traj / "meta.json").write_text(json.dumps(meta))
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    assert capsys.readouterr().err == ("error: meta.json: unknown options "
                                       "x_diffusion\n")
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


@pytest.mark.parametrize("option, value, message", [
    ("flux_kind", "roe", "flux_kind: expected 'engquist_osher' or "
                         "'lax_friedrichs', got 'roe'"),
    ("cfl_safety", 2.0, "cfl_safety: must be in (0, 1], got 2.0"),
    ("snapshot_stride", "x", "snapshot_stride: must be an integer >= 1, "
                             "got 'x'")])
def test_verify_of_a_meta_json_with_a_bad_option_value_exits_1(
        run_dir, capsys, option, value, message):
    cfg, traj = run_dir
    meta = json.loads((traj / "meta.json").read_text())
    meta["options"][option] = value
    (traj / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    assert capsys.readouterr().err == f"error: meta.json: {message}\n"
    assert not (traj / "reports.csv").exists()


def test_verify_of_a_meta_json_whose_dt_is_not_the_runs_exits_1(run_dir,
                                                                capsys):
    # the checks re-derive each kick mass and step from dt: one whose
    # multiples of the march's levels are not the stored times is refused,
    # not certified
    cfg, traj = run_dir
    meta = json.loads((traj / "meta.json").read_text())
    row = (traj / "index.csv").read_text().splitlines()[2]
    for dt in (0.5, meta["dt"] / 2):
        meta["dt"] = dt
        (traj / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
        assert capsys.readouterr().err == _refusal(
            traj, 3, row, f"{4 * dt!r},field_000001.upkf,snapshot")
    assert not (traj / "reports.csv").exists()


@pytest.mark.parametrize("shift", ["third", "ulp"])
def test_verify_of_a_snapshot_time_off_the_step_grid_exits_1(run_dir,
                                                             capsys, shift):
    # a third of a step, or one ulp: a snapshot sits at exactly level * dt
    cfg, traj = run_dir
    dt = json.loads((traj / "meta.json").read_text())["dt"]
    index = (traj / "index.csv").read_text().splitlines()
    t, name, role = index[2].split(",")
    off = (float(t) + dt / 3 if shift == "third"
           else float(np.nextafter(float(t), 1.0)))
    index[2] = f"{off!r},{name},{role}"
    (traj / "index.csv").write_text("\n".join(index) + "\n")
    # the field's header states the same time, as the index must
    fld = upk_io.read_field(traj / name)
    upk_io.write_field(traj / name, Field(fld.values, fld.grid, off))
    capsys.readouterr()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    assert capsys.readouterr().err == _refusal(
        traj, 3, index[2], f"{t},{name},{role}")
    assert not (traj / "reports.csv").exists()


def test_verify_of_a_field_whose_header_time_is_not_its_index_time_exits_1(
        tmp_path, capsys):
    # check_jump's M3 reads the index time; the header must agree with it
    cfg, traj = _impulsive_dir(tmp_path)
    meta = json.loads((traj / "meta.json").read_text())
    t = repr(meta["n_tau"] * meta["dt"])
    name = next(name for t_row, name, _ in _index_rows(traj) if t_row == t)
    fld = upk_io.read_field(traj / name)
    upk_io.write_field(traj / name, Field(fld.values, fld.grid, 0.05))
    capsys.readouterr()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    assert capsys.readouterr().err == (
        f"error: {traj / name}: header time 0.05 is not its index.csv time "
        f"{t}\n")
    assert not (traj / "reports.csv").exists()


def test_verify_of_a_field_on_another_grid_exits_1(run_dir, capsys):
    cfg, traj = run_dir
    name = _index_rows(traj)[2][1]
    fld = upk_io.read_field(traj / name)
    small = problem.Grid(nx=4, ns=4, L=1.0, S=1.0)
    upk_io.write_field(traj / name, Field(np.zeros((4, 4)), small, fld.t))
    capsys.readouterr()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    assert capsys.readouterr().err == (
        f"error: {traj / name}: (4, 4) cells, not the first field's "
        "(8, 8)\n")
    assert not (traj / "reports.csv").exists()


@pytest.mark.parametrize("key, value, what", [
    ("options", "x", "an object"),
    ("dt", "abc", "a finite number > 0"),
    ("dt", 0.0, "a finite number > 0"),
    ("dt", float("inf"), "a finite number > 0"),
    ("m_bound", -1.0, "a finite number >= 0"),
    ("m_bound", None, "a finite number >= 0"),
    ("n_steps", 2.5, "a positive integer"),
    ("n_steps", 0, "a positive integer"),
    ("n_tau", 1.5, "an integer or null"),
    ("n_tau", "3", "an integer or null")])
def test_verify_of_a_meta_json_of_the_wrong_type_exits_1(run_dir, capsys,
                                                         key, value, what):
    # the keys `io` and `verify.rebuild` read before the record is compared
    cfg, traj = run_dir
    meta = json.loads((traj / "meta.json").read_text())
    meta[key] = value
    (traj / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: meta.json: {key} = {json.dumps(value)} is not "
                   f"{what}\n")
    assert not (traj / "reports.csv").exists()


def _refused_record(run_dir, capsys, key, value):
    """`verify` of the run with meta.json's ``key`` set to ``value`` exits
    1 naming it: every march key but the ones `io` reads is compared with
    `solver.record` of the rebuilt stepper, as the JSON text `run` writes."""
    cfg, traj = run_dir
    meta = json.loads((traj / "meta.json").read_text())
    want = json.dumps(meta[key])
    meta[key] = value
    (traj / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    assert capsys.readouterr().err == (
        f"error: {traj} was computed with {key} {json.dumps(value)}, not "
        f"from {cfg} ({key} {want})\n")
    assert not (traj / "reports.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("eps", -0.5), ("eps", float("nan")), ("gamma", "0.1"),
    # equal to 0.0 in Python, but not the number the run wrote
    ("eps", False),
    ("mode", "explicit"), ("spec_hash", None)],
    ids=["eps-negative", "eps-nan", "gamma-string", "eps-false",
         "mode-explicit", "spec_hash-null"])
def test_verify_of_a_record_key_the_run_did_not_write_exits_1(
        run_dir, capsys, key, value):
    _refused_record(run_dir, capsys, key, value)


def test_another_lateral_diffusion_is_named(run_dir, capsys):
    # as a directory written by the explicit lateral update would
    _refused_record(run_dir, capsys, "lateral_diffusion", "forward_euler")


def test_another_source_step_is_named(run_dir, capsys):
    # as one written with the source inside the explicit part would
    _refused_record(run_dir, capsys, "source", "explicit")


def test_a_gamma_sweep_without_a_source_exits_1(tmp_path, capsys):
    # every width would march the one run: it measured errors [0, 0, 0]
    # and passed
    cfg = _config(tmp_path)
    cfg.write_text(cfg.read_text().replace(f'beta = "{BETA_TEXT}"\n', "")
                   .replace("b1 = 2.0\n", ""))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", str(cfg), "--param", "gamma", "--values",
                     "0.1,0.05,0.025", "--out", str(out)]) == 1
    assert _one_error_line(capsys) == (
        "error: a gamma sweep needs a source beta: without one every delay "
        "width marches the same run\n")
    assert not out.exists()


def test_verify_of_an_impulsive_run_recorded_as_entropy_exits_1(tmp_path,
                                                                capsys):
    # a config at gamma = 0 states the impulsive problem; with its mode
    # edited, the jump row would silently go
    cfg = _config(tmp_path)
    cfg.write_text(cfg.read_text().replace("gamma = 0.1", "gamma = 0.0"))
    traj = tmp_path / "traj"
    assert cli.main(["run", str(cfg), "--out", str(traj)]) == 0
    meta = json.loads((traj / "meta.json").read_text())
    assert meta["mode"] == "impulsive"
    meta["mode"] = "entropy"
    (traj / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    assert _one_error_line(capsys) == (
        f'error: {traj} was computed with mode "entropy", not from {cfg} '
        '(mode "impulsive")\n')
    assert not (traj / "reports.csv").exists()


@pytest.mark.parametrize("keys, named", [
    (("dt",), "dt"), (("eps", "options"), "options"),
    # a directory written by the explicit lateral update has no such key
    (("lateral_diffusion",), "lateral_diffusion"),
    # nor has one written with the source inside the explicit part
    (("source",), "source"),
    # nor one that does not name the spec it marched
    (("spec_hash",), "spec_hash"),
    (("mode", "lateral_diffusion", "source", "dt", "n_steps", "n_tau",
      "eps", "gamma", "m_bound", "options", "spec_hash"),
     "dt, n_steps, n_tau, m_bound, options"),
], ids=["dt", "eps_and_options", "explicit_update", "in_step_source",
        "spec_hash", "all"])
def test_missing_march_parameters_are_named(run_dir, capsys, keys, named):
    # `io` names the keys it reads, then `verify` the record's others
    cfg, traj = run_dir
    meta = json.loads((traj / "meta.json").read_text())
    for key in keys:
        del meta[key]
    (traj / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    assert capsys.readouterr().err == (f"error: {traj}: meta.json lacks "
                                       f"{named}\n")
    assert not (traj / "reports.csv").exists()


def test_verify_of_a_meta_json_of_a_longer_march_holds_no_schedule(run_dir,
                                                                   capsys):
    # a claim of 10^6 steps at stride 1 is refused at the first index.csv
    # line that differs, having built no more levels than index.csv has
    # lines: the whole schedule took 214 MiB
    cfg, traj = run_dir
    meta = json.loads((traj / "meta.json").read_text())
    meta["n_steps"], meta["options"]["snapshot_stride"] = 10 ** 6, 1
    (traj / "meta.json").write_text(json.dumps(meta))
    index = (traj / "index.csv").read_text().splitlines()
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = cli.main(["verify", str(cfg), "--traj", str(traj)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 8 * 2 ** 20
    assert capsys.readouterr().err == _refusal(
        traj, 3, index[2], f"{meta['dt']!r},field_000001.upkf,snapshot")
    assert not (traj / "reports.csv").exists()


def test_a_zero_data_config_runs_and_verifies(tmp_path):
    # all data 0 and no beta: B(T) = 0 is the region the march is sized on
    cfg, traj = _config(tmp_path, u0_1="0"), tmp_path / "traj"
    cfg.write_text(cfg.read_text().replace(f'beta = "{BETA_TEXT}"\n', ""))
    assert cli.main(["run", str(cfg), "--out", str(traj)]) == 0
    assert json.loads((traj / "meta.json").read_text())["m_bound"] == 0.0
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 0


def test_verify_refuses_a_region_below_the_configs_bound(run_dir, capsys):
    # the run could not have come from the config: solve refuses to size a
    # march on such a region, and verify to rebuild one
    cfg, traj = run_dir
    meta = json.loads((traj / "meta.json").read_text())
    reach = problem.sup_bound(upk_io.load_config(cfg).spec, None, 1.0)
    assert meta["m_bound"] == reach
    meta["m_bound"] = 0.5 * reach
    (traj / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    assert capsys.readouterr().err == (
        f"error: m_bound = {0.5 * reach} lies below B(T) = {reach}, the "
        "region the march can reach\n")
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
    assert err == (f"error: {traj}: meta.json lacks dt, n_steps, n_tau, "
                   "m_bound, options\n")
    assert not (traj / "reports.csv").exists()


def _impulsive_dir(tmp_path, stride=4):
    cfg = _config(tmp_path)
    cfg.write_text(cfg.read_text().replace(
        "snapshot_stride = 4", f"snapshot_stride = {stride}"))
    traj = tmp_path / "impulsive"
    argv = ["run", str(cfg), "--mode", "impulsive", "--out", str(traj)]
    assert cli.main(argv) == 0
    return cfg, traj


def _index_rows(traj):
    return [row.split(",")
            for row in (traj / "index.csv").read_text().splitlines()[1:]]


def _refusal(traj, line, reads, want):
    """`verify`'s error for index.csv's line (from 1), which reads
    ``reads`` (None: is missing) where the march's schedule has ``want``
    (None: no line)."""
    return (f"error: {traj}: index.csv line {line} "
            + ("is missing" if reads is None else f"reads {reads!r}")
            + ", where the march's schedule has "
            + ("no line" if want is None else repr(want)) + "\n")


def test_no_run_writes_a_non_snapshot_row(run_dir, tmp_path):
    # `verify` replays an impulsive run's jump from its snapshots
    _, impulsive = _impulsive_dir(tmp_path)
    for traj in (run_dir[1], impulsive):
        rows = _index_rows(traj)
        assert {role for _, _, role in rows} == {"snapshot"}
        assert sorted(p.name for p in traj.glob("*.upkf")) == [
            name for _, name, _ in rows]


def test_an_impulsive_run_marches_the_configs_gamma_limit(tmp_path):
    # the config says gamma = 0.1; `--mode impulsive` marches gamma = 0,
    # and the spec hash names that spec, not the config's
    cfg, traj = _impulsive_dir(tmp_path)
    meta = json.loads((traj / "meta.json").read_text())
    assert (meta["mode"], meta["eps"], meta["gamma"]) == ("impulsive", 0.0,
                                                          0.0)
    config = upk_io.load_config(cfg).spec
    assert meta["spec_hash"] == config.with_data(gamma=0.0).context_hash() \
        != config.context_hash()
    # the jump is the snapshot at level n_tau
    assert repr(meta["n_tau"] * meta["dt"]) in [
        t for t, _, _ in _index_rows(traj)]
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 0
    assert _rows(traj / "reports.csv")["jump_condition"] == "true"


def test_verify_refuses_an_impulsive_run_hashed_as_its_config(tmp_path,
                                                              capsys):
    # the layout written while the impulsive run recorded the config's
    # gamma = 0.1 hash: it names a problem the run did not march
    cfg, traj = _impulsive_dir(tmp_path)
    meta = json.loads((traj / "meta.json").read_text())
    config = upk_io.load_config(cfg).spec
    meta["spec_hash"] = config.context_hash()
    (traj / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    err = capsys.readouterr().err
    assert err == (f'error: {traj} was computed with spec_hash '
                   f'"{config.context_hash()}", not from {cfg} (spec_hash '
                   f'"{config.with_data(gamma=0.0).context_hash()}")\n')
    assert not (traj / "reports.csv").exists()


@pytest.mark.parametrize("key", ["n_tau", "n_steps"])
def test_verify_of_a_meta_the_rebuilt_stepper_did_not_march_exits_1(
        tmp_path, capsys, key):
    # at stride 1 every level is stored, so a directory whose meta names
    # the next n_tau loads, and a replay kicking there measured 4.5e13 on
    # the 64^2 benchmark run; a run cut after its first snapshots is
    # consistent with a shorter n_steps
    cfg, traj = _impulsive_dir(tmp_path, stride=1 if key == "n_tau" else 4)
    if key == "n_steps":
        traj = tmp_path / "entropy"
        assert cli.main(["run", str(cfg), "--out", str(traj)]) == 0
    meta = json.loads((traj / "meta.json").read_text())
    want = meta[key]
    if key == "n_tau":
        meta["n_tau"] += 1
    else:
        rows = (traj / "index.csv").read_text().splitlines()[:3]
        (traj / "index.csv").write_text("\n".join(rows) + "\n")
        meta["n_steps"] = round(float(rows[-1].split(",")[0]) / meta["dt"])
    (traj / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {traj} was computed with {key} {meta[key]}, not "
                   f"from {cfg} ({key} {want})\n")
    assert not (traj / "reports.csv").exists()


def _verify_keys(cfg, traj, keys):
    """The expressions ``verify`` of the run bounds through ``exprdsl.sup``,
    every key of the test, the run's too, computed once; and the config's
    beta and its slope, b0's expression."""
    before = len(keys)
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 0
    assert exprdsl.sup.cache_info().misses == len(set(keys))
    beta = upk_io.load_config(cfg).spec.beta
    return ({expr for expr, _, _ in keys[before:]}, beta,
            exprdsl.diff(beta, "lambda"))


def test_verify_samples_each_bound_once(tmp_path, sup_keys):
    # a stride-1 delayed-source run: each bound enclosed once, sup|beta|
    # among them, read by the config's check and the bound curve; b0
    # never, as the run compared with itself weighs no term by it and the
    # sup bound reads none, and the rebuilt steppers, given their dt, read
    # no kick slope
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(u0_1=U01_TEXT).replace(
        "snapshot_stride = 4", "snapshot_stride = 1"))
    traj = tmp_path / "traj"
    assert cli.main(["run", str(cfg), "--out", str(traj)]) == 0
    exprs, beta, slope = _verify_keys(cfg, traj, sup_keys)
    assert "entropy_residual" in _rows(traj / "reports.csv")
    assert beta in exprs and not exprs & {slope, exprdsl.Neg(slope)}
    # an impulsive run: each bound once, though the config's b1, the bound
    # curve, the jump weight's radius and M3 in check_jump, and B(T) for
    # the run's region each read sup|beta|; b0 never, as the run compared
    # with itself gives a stability estimate of 0 whatever b0 is
    exprs, beta, slope = _verify_keys(*_impulsive_dir(tmp_path), sup_keys)
    assert beta in exprs and slope not in exprs


@pytest.mark.parametrize("case, steppers", [
    ("source", 1), ("impulsive", 1), ("two_runs", 2)])
def test_verify_evaluates_u0_once_per_rebuilt_stepper(tmp_path, monkeypatch,
                                                      case, steppers):
    # the first-snapshot refusal, the bound curves, d_init and M3 all read
    # `Stepper.u0`: a compiled u0_1 is called once per rebuilt Stepper
    if case == "impulsive":
        cfg, traj = _impulsive_dir(tmp_path)
    else:
        cfg, traj = _config(tmp_path), tmp_path / "traj"
        assert cli.main(["run", str(cfg), "--out", str(traj)]) == 0
    u0_1 = upk_io.load_config(cfg).spec.data_u0_1
    compile_, calls = exprdsl.compile, []

    def counted(expr, finite=True):
        fn, free = compile_(expr, finite)
        if expr != u0_1:
            return fn, free
        return (lambda b: calls.append(b) or fn(b)), free
    monkeypatch.setattr(exprdsl, "compile", counted)
    argv = ["verify", str(cfg), "--traj", str(traj)]
    assert cli.main(argv + ["--traj2", str(traj)] * (case == "two_runs")) == 0
    assert len(calls) == steppers


def test_verify_of_an_impulsive_run_without_jump_fields_exits_1(tmp_path,
                                                                capsys):
    cfg, traj = _impulsive_dir(tmp_path)
    capsys.readouterr()
    meta = json.loads((traj / "meta.json").read_text())
    n_tau = meta["n_tau"]
    index = (traj / "index.csv").read_text().splitlines()
    (traj / "index.csv").write_text("\n".join(
        row for row in index
        if not row.startswith(f"{n_tau * meta['dt']!r},")) + "\n")
    argv = ["verify", str(cfg), "--traj", str(traj)]
    assert cli.main(argv) == 1
    line = next(i for i, row in enumerate(index, 1)
                if row.startswith(f"{n_tau * meta['dt']!r},"))
    assert capsys.readouterr().err == _refusal(traj, line, index[line],
                                               index[line - 1])
    assert not (traj / "reports.csv").exists()


@pytest.mark.parametrize("mode, stride, level", [
    ("entropy", 1, 49), ("impulsive", 32, "n_tau + 1")])
def test_verify_refuses_a_directory_without_a_level_the_march_stores(
        tmp_path, capsys, mode, stride, level):
    # the benchmark's seed-0 source problem at 32^2: a stride-1 run without
    # its snapshot at level 49, which the entropy residual scored from
    # level 48 against level 50, and a stride-32 impulsive run without the
    # snapshot after the jump
    cfg = _config(tmp_path)
    cfg.write_text(cfg.read_text().replace("Nx = 8", "Nx = 32").replace(
        "Ns = 8", "Ns = 32").replace("snapshot_stride = 4",
                                     f"snapshot_stride = {stride}"))
    traj = tmp_path / "traj"
    assert cli.main(["run", str(cfg), "--mode", mode, "--out", str(traj)]) == 0
    meta = json.loads((traj / "meta.json").read_text())
    if level == "n_tau + 1":
        level = meta["n_tau"] + 1
    index = (traj / "index.csv").read_text().splitlines()
    times = [float(row.split(",")[0]) for row in index[1:]]
    i = times.index(level * meta["dt"])
    (traj / "index.csv").write_text("\n".join(index[:i + 1] + index[i + 2:])
                                    + "\n")
    capsys.readouterr()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    assert capsys.readouterr().err == _refusal(traj, i + 2, index[i + 2],
                                               index[i + 1])
    assert not (traj / "reports.csv").exists()


def test_verify_of_a_directory_with_one_sided_jump_rows_exits_1(tmp_path,
                                                                capsys):
    # the layout written while the run stored u(tau-) and u(tau+)
    cfg, traj = _impulsive_dir(tmp_path)
    capsys.readouterr()
    meta = json.loads((traj / "meta.json").read_text())
    t = repr(meta["n_tau"] * meta["dt"])
    name = next(name for t_row, name, _ in _index_rows(traj) if t_row == t)
    lines = len((traj / "index.csv").read_text().splitlines())
    with open(traj / "index.csv", "a") as fh:
        for role in ("tau_minus", "tau_plus"):
            (traj / f"{role}.upkf").write_bytes((traj / name).read_bytes())
            fh.write(f"{t},{role}.upkf,{role}\n")
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    assert capsys.readouterr().err == _refusal(
        traj, lines + 1, f"{t},tau_minus.upkf,tau_minus", None)
    assert not (traj / "reports.csv").exists()


@pytest.mark.parametrize("malform", [
    lambda row: row.rpartition(",")[0],
    lambda row: "abc," + row.partition(",")[2],
], ids=["role_cut_off", "time_not_a_number"])
def test_verify_of_a_malformed_index_row_exits_1(run_dir, capsys, malform):
    cfg, traj = run_dir
    index = (traj / "index.csv").read_text().splitlines()
    row = malform(index[2])  # the second snapshot
    (traj / "index.csv").write_text("\n".join([*index[:2], row, *index[3:]])
                                    + "\n")
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    assert capsys.readouterr().err == _refusal(traj, 3, row, index[2])
    assert not (traj / "reports.csv").exists()


@pytest.mark.parametrize("change, message", [
    (("Nx = 8\nNs = 8", "Nx = 16\nNs = 16"), "grid (16, 16)"),
    (("cfl_safety = 0.9", "cfl_safety = 0.5"), '"cfl_safety": 0.5'),
])
def test_verify_of_a_second_run_on_another_grid_or_dt_exits_1(
        run_dir, tmp_path, capsys, change, message):
    # the spec hash covers the problem, not the grid or the time step, so
    # the second run passes the hash check and the config's grid and
    # scheme options refuse it
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


def _bench_config(tmp_path, name, ux, us, bx, bs):
    """The 32^2 stride-8 source config whose u0_1 and beta bumps are
    centred at (ux, us) and (bx, bs): at 0.5 each, the source spec."""
    def bumps(amp, x, s):
        return (f"{amp}*{XBUMP.replace('0.5', repr(x))}"
                f"*{SBUMP.replace('0.5', repr(s))}")

    path = tmp_path / name
    path.write_text(CONFIG.format(u0_1=bumps(0.8, ux, us))
                    .replace(BETA_TEXT, f"{bumps(0.5, bx, bs)}*{LCUT}")
                    .replace("Nx = 8\nNs = 8", "Nx = 32\nNs = 32")
                    .replace("snapshot_stride = 4", "snapshot_stride = 8"))
    return path


def test_verify_refuses_a_trajectory_without_spec_hash(tmp_path, capsys):
    # without its hash a run would be certified against any config of
    # the same eps, gamma, grid and options: here one whose bumps moved,
    # against which every row passed when the key was optional
    cfg = _bench_config(tmp_path, "seed0.cfg", 0.5, 0.5, 0.5, 0.5)
    moved = _bench_config(tmp_path, "seed3.cfg", 0.479, 0.504, 0.49, 0.508)
    assert upk_io.load_config(cfg).spec.context_hash() != \
        upk_io.load_config(moved).spec.context_hash()
    traj = tmp_path / "traj"
    assert cli.main(["run", str(cfg), "--out", str(traj)]) == 0
    meta = json.loads((traj / "meta.json").read_text())
    del meta["spec_hash"]
    (traj / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    for config in (moved, cfg):
        assert cli.main(["verify", str(config), "--traj", str(traj)]) == 1
        assert capsys.readouterr().err == (
            f"error: {traj}: meta.json lacks spec_hash\n")
    assert not (traj / "reports.csv").exists()


@pytest.mark.parametrize("plant", ["cell", "level"])
def test_verify_refuses_a_first_snapshot_that_is_not_u0(run_dir, capsys,
                                                        plant):
    # every row certifies the march from the stored t = 0 field: it must
    # be level 0 and the config's u0_1 on the grid, bit for bit
    cfg, traj = run_dir
    index = (traj / "index.csv").read_text().splitlines()
    if plant == "cell":
        first = traj / index[1].split(",")[1]
        fld = upk_io.read_field(first)
        fld.values[3, 3] += 0.05
        upk_io.write_field(first, fld)
        err = (f"error: {traj} was computed with first snapshot 1 cells off "
               f"u0_1, not from {cfg} (first snapshot 0 cells off u0_1)\n")
    else:
        (traj / "index.csv").write_text("\n".join(index[:1] + index[2:])
                                        + "\n")
        err = _refusal(traj, 2, index[2], index[1])
    capsys.readouterr()
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 1
    assert capsys.readouterr().err == err
    assert not (traj / "reports.csv").exists()


@pytest.mark.parametrize("gamma", ["0.1", "0.0"], ids=["delayed", "impulse"])
def test_a_run_writes_the_same_bytes_twice(tmp_path, gamma):
    # the march is deterministic: two runs of one config write the same
    # directory byte for byte, but for the wall seconds in meta.json
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_config(tmp_path).read_text().replace(
        "gamma = 0.1", f"gamma = {gamma}"))
    runs = []
    for out in ("first", "second"):
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / out)]) == 0
        files = {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}
        meta = files["meta.json"].decode().splitlines()
        timed = [line for line in meta
                 if line.startswith((' "setup_s": ', ' "march_s": '))]
        assert len(timed) == 2
        files["meta.json"] = [line for line in meta if line not in timed]
        runs.append(files)
    assert runs[0] == runs[1]
    assert len(runs[0]) == 2 + len(_index_rows(tmp_path / "first")) > 4


def test_failed_check_exits_3(run_dir):
    cfg, traj = run_dir
    final = sorted(traj.glob("field_*.upkf"))[-1]
    fld = upk_io.read_field(final)
    upk_io.write_field(final, Field(np.full_like(fld.values, 1e6),
                                    fld.grid, fld.t))
    assert cli.main(["verify", str(cfg), "--traj", str(traj)]) == 3
    assert _rows(traj / "reports.csv")["max_principle"] == "false"


@pytest.mark.parametrize("kind, cause", [
    # a flux the step cannot evaluate
    ("lax_friedrichs", "non-finite value in the step from t = 0: "),
    # a state lifted past the region the step was sized for
    ("engquist_osher", "exceeded bound"),
])
def test_non_finite_march_exits_2(tmp_path, capsys, monkeypatch, kind,
                                  cause):
    # the step is sized on enclosures of the config's expressions, so no
    # config makes the march overflow or leave its region: a planted fault
    # stands in for one
    def no_flux(self, w):
        raise exprdsl.DomainError("planted")

    def lifted(self, v, n):
        return v + 2.0 * self.m_bound
    monkeypatch.setattr(scheme._LFFlux, "split", no_flux)
    monkeypatch.setattr(scheme.Stepper, "kick", lifted)
    cfg = _config(tmp_path)
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
                                   f'beta = "-1.5*{TENT}*{XBUMP}*{SBUMP}"')
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
    stepper = verify.rebuild(loaded.spec, stored)
    for rep in (verify.check_max_principle(stored, stepper),
                verify.check_stability(stored, stored, stepper, stepper)):
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
    stepper = verify.rebuild(spec, stored)
    assert line == ",".join(verify.check_bln(stored, stepper, bank).row())


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


# SHA-256 of each file `sweep` writes for `_sweep_config` and SWEEPS, the
# CSVs as first written when each member was marched alone
SWEEP_FILES = {"gamma": {
    "gamma_sweep.csv":
        "0464257789ecf5b1266233263619b82e78cbbe99683fd6a870f5a1b15d821eb9",
    "sweep_report.csv":
        "fe886abf9c2b28787f45a66ada9e3bd12d4af667f498cd166a018b5b280d4e08",
    "sweep_report.jsonl":
        "0918906fce868d24a202985da1356f553facd8b63392e49584914be274252098",
}, "epsilon": {
    "epsilon_sweep.csv":
        "ef16f9d3eb1c7fb9fe54a82b2a47821de9d394d370d7b8620f0df2b277d467bd",
    "sweep_report.csv":
        "a61854a421dbe6376f19e221996364330147b1456d152435f5c3264893a781d8",
    "sweep_report.jsonl":
        "221ce632b12b877cb83c82cbac0b742dcb9d5038ba1541f1b6767af25cae0064",
}}


def _sweep_hashes(out, param):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in SWEEP_FILES[param]}


@pytest.mark.parametrize("param", sorted(SWEEPS))
def test_sweep_writes_the_pinned_files(tmp_path, param):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_sweep_config(tmp_path))
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfg), "--param", param, "--values",
                     SWEEPS[param], "--out", str(out)]) == 0
    assert _sweep_hashes(out, param) == SWEEP_FILES[param]
    report = (out / "sweep_report.csv").read_text().splitlines()
    check = "gamma_limit" if param == "gamma" else "epsilon_cauchy"
    assert report[1].split(",")[:5:4] == [check, "true"]


def test_sweep_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the stack's lateral solve is one BLAS product per member slice
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_sweep_config(tmp_path))
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        subprocess.run([sys.executable, "-c",
                        "import sys; from upkolmo import cli; "
                        "sys.exit(cli.main(sys.argv[1:]))",
                        "sweep", str(cfg), "--param", "gamma", "--values",
                        SWEEPS["gamma"], "--out", str(out)],
                       env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                       capture_output=True, check=True,
                       cwd=Path(cli.__file__).parents[1])
        assert _sweep_hashes(out, "gamma") == SWEEP_FILES["gamma"]


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


def test_epsilon_sweep_refuses_the_limit_itself(tmp_path, capsys):
    # eps = 0 would march the entropy problem, not a regularization
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_sweep_config(tmp_path))
    assert cli.main(["sweep", str(cfg), "--param", "epsilon", "--values",
                     "0.04,0.02,0", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: viscosities must be positive\n")


@pytest.mark.parametrize("values, line", [
    ("nan,0.02,0.01", "viscosities must be strictly decreasing"),
    ("0.01,0.02,0.04", "viscosities must be strictly decreasing"),
    ("0.04,0.02,0.02", "viscosities must be strictly decreasing"),
    ("inf,0.02,0.01",
     "viscosity must be >= 0 and finite, delay width finite: got inf and "
     "0.1"),
], ids=["nan", "increasing", "repeated", "inf"])
def test_epsilon_sweep_refuses_values_not_finite_and_decreasing(
        tmp_path, capsys, values, line):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_sweep_config(tmp_path))
    out = tmp_path / "out"
    assert cli.main(["sweep", str(cfg), "--param", "epsilon", "--values",
                     values, "--out", str(out)]) == 1
    assert _one_error_line(capsys) == f"error: {line}\n"
    assert not out.exists()


def test_epsilon_sweep_with_a_delayed_source_needs_gamma(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(_sweep_config(tmp_path).replace("gamma = 0.1",
                                                   "gamma = 0.0"))
    assert cli.main(["sweep", str(cfg), "--param", "epsilon", "--values",
                     SWEEPS["epsilon"], "--out", str(tmp_path / "out")]) == 1
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("flux, code, line", [
    ("lambda^2/2", 0, "mu = 0 (bound 0.01, parts enclosed 1) pass=True"),
    ("lambda", 3, "mu = 20 (bound 0.01, parts enclosed 8191) pass=False"),
    ("max(lambda, 0)^2/2", 3,
     "mu = 10 (bound 0.01, parts enclosed 4097) pass=False")])
def test_validate_flux_exit_codes(tmp_path, capsys, flux, code, line):
    cfg = tmp_path / "flux.cfg"
    cfg.write_text(_config(tmp_path).read_text().replace(
        'a = "lambda^2/2"', f'a = "{flux}"'))
    assert cli.main(["validate-flux", str(cfg)]) == code
    assert capsys.readouterr().out == line + "\n"
