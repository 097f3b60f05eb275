"""Trajectory directories: what `meta.json` holds and what loads back."""

import json
import struct

import numpy as np
import pytest

from upkolmo import io as upk_io
from upkolmo.problem import Field, Grid, Trajectory
from upkolmo.scheme import LAX_FRIEDRICHS, SchemeOptions
from scenarios import unit_grid

OPTIONS = SchemeOptions(flux_kind=LAX_FRIEDRICHS, cfl_safety=0.5,
                        snapshot_stride=3)


def _trajectory():
    grid = unit_grid(4)
    rng = np.random.default_rng(3)
    traj = Trajectory(grid=grid)
    for t in (0.0, 0.25, 0.5):
        traj.append(t, Field(rng.random((4, 4)), grid, t))
    traj.tau_minus = Field(rng.random((4, 4)), grid, 0.375)
    traj.tau_plus = Field(rng.random((4, 4)), grid, 0.375)
    traj.meta = {"mode": "impulsive", "lateral_diffusion": "backward_euler",
                 "dt": 0.125, "n_steps": 4, "n_tau": 3,
                 "stride": 3, "eps": 0.0, "gamma": 0.0, "m_bound": 2.0,
                 "options": OPTIONS}
    return traj


def test_round_trip_keeps_options_fields_and_jump_fields(tmp_path):
    traj = _trajectory()
    upk_io.write_trajectory(tmp_path, traj)
    back = upk_io.read_trajectory(tmp_path)
    assert back.meta == traj.meta
    assert back.times == traj.times
    for got, want in zip(back.fields + [back.tau_minus, back.tau_plus],
                         traj.fields + [traj.tau_minus, traj.tau_plus]):
        assert got.t == want.t
        assert np.array_equal(got.values, want.values)


def test_meta_json_lists_every_option_once(tmp_path):
    upk_io.write_trajectory(tmp_path, _trajectory())
    text = (tmp_path / "meta.json").read_text()
    stored = json.loads(text)["options"]
    assert stored == {"flux_kind": LAX_FRIEDRICHS, "cfl_safety": 0.5,
                      "snapshot_stride": 3}
    assert text == json.dumps(json.loads(text), indent=1, sort_keys=True)


def _with_option(tmp_path, name, value):
    upk_io.write_trajectory(tmp_path, _trajectory())
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["options"][name] = value
    (tmp_path / "meta.json").write_text(json.dumps(meta))


@pytest.mark.parametrize("name, kept", [("periodic", False),
                                         ("x_diffusion", True)])
def test_retired_option_loads_only_at_its_kept_value(tmp_path, name, kept):
    # every earlier run wrote the kept value; the other one solved another
    # equation and cannot be re-stepped
    _with_option(tmp_path, name, kept)
    assert upk_io.read_trajectory(tmp_path).meta["options"] == OPTIONS
    _with_option(tmp_path, name, not kept)
    named = f"\\({name} = {json.dumps(not kept)}\\)"
    with pytest.raises(upk_io.FormatError,
                       match=f"^meta.json: a run with .* {named} cannot be "
                             "re-stepped$"):
        upk_io.read_trajectory(tmp_path)


def test_unknown_options_are_named(tmp_path):
    upk_io.write_trajectory(tmp_path, _trajectory())
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["options"].update(foo=1, bar=None)
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(upk_io.FormatError,
                       match="^meta.json: unknown options bar, foo$"):
        upk_io.read_trajectory(tmp_path)


@pytest.mark.parametrize("keys", [
    ("dt",), ("eps", "options"),
    # a directory written by the explicit lateral update has no such key
    ("lateral_diffusion",),
    ("mode", "lateral_diffusion", "dt", "n_steps", "n_tau", "stride", "eps",
     "gamma", "m_bound", "options"),
], ids=["dt", "eps_and_options", "explicit_update", "all"])
def test_missing_march_parameters_are_named(tmp_path, keys):
    upk_io.write_trajectory(tmp_path, _trajectory())
    meta = json.loads((tmp_path / "meta.json").read_text())
    for key in keys:
        del meta[key]
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(upk_io.FormatError) as info:
        upk_io.read_trajectory(tmp_path)
    assert str(info.value) == f"{tmp_path}: meta.json lacks {', '.join(keys)}"


def test_another_lateral_diffusion_is_named(tmp_path):
    upk_io.write_trajectory(tmp_path, _trajectory())
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["lateral_diffusion"] = "forward_euler"
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(upk_io.FormatError,
                       match="^meta.json: lateral diffusion 'forward_euler' "
                             "is not the 'backward_euler' update"):
        upk_io.read_trajectory(tmp_path)


def test_field_header_is_d1(tmp_path):
    # the .upkf layout: magic, version, d = 1, Nx, Ns, t, payload
    path = tmp_path / "f.upkf"
    values = np.arange(12.0).reshape(4, 3)
    upk_io.write_field(path, Field(values, Grid(4, 3, 1.0, 1.0), 0.5))
    assert path.read_bytes() == (
        upk_io.MAGIC + struct.pack("<IIII", upk_io.VERSION, 1, 4, 3)
        + struct.pack("<d", 0.5) + values.astype("<f8").tobytes())


def test_field_of_another_dimension_is_named(tmp_path):
    # a d = 2 header with its full payload: 4^2 * 3 values
    path = tmp_path / "d2.upkf"
    path.write_bytes(upk_io.MAGIC
                     + struct.pack("<IIII", upk_io.VERSION, 2, 4, 3)
                     + struct.pack("<d", 0.0) + np.zeros(48).tobytes())
    with pytest.raises(upk_io.FormatError) as info:
        upk_io.read_field(path)
    assert str(info.value) == f"{path}: unsupported dimension d=2"


def _index_lines(directory):
    upk_io.write_trajectory(directory, _trajectory())
    return (directory / "index.csv").read_text().splitlines()


def _write_index(directory, lines):
    (directory / "index.csv").write_text("\n".join(lines) + "\n")


def test_missing_meta_json_is_a_format_error(tmp_path):
    upk_io.write_trajectory(tmp_path, _trajectory())
    (tmp_path / "meta.json").unlink()
    with pytest.raises(upk_io.FormatError, match="no meta.json"):
        upk_io.read_trajectory(tmp_path)


@pytest.mark.parametrize("malform", [
    lambda row: row.rpartition(",")[0],
    lambda row: "abc," + row.partition(",")[2],
    lambda row: row + ",extra",
], ids=["role_cut_off", "time_not_a_number", "extra_column"])
def test_malformed_index_row_is_named(tmp_path, malform):
    lines = _index_lines(tmp_path)
    row = malform(lines[2])
    lines[2] = row
    _write_index(tmp_path, lines)
    with pytest.raises(upk_io.FormatError) as info:
        upk_io.read_trajectory(tmp_path)
    assert str(info.value) == (f"{tmp_path}: index.csv row {row!r} is not "
                               "t,filename,role")


def test_unknown_role_is_named(tmp_path):
    lines = _index_lines(tmp_path)
    lines[2] = lines[2].replace(",snapshot", ",keyframe")
    _write_index(tmp_path, lines)
    with pytest.raises(upk_io.FormatError, match="unknown role 'keyframe'"):
        upk_io.read_trajectory(tmp_path)


def test_index_without_its_header_is_malformed(tmp_path):
    lines = _index_lines(tmp_path)
    _write_index(tmp_path, lines[1:])
    with pytest.raises(upk_io.FormatError, match="malformed index.csv"):
        upk_io.read_trajectory(tmp_path)


def test_index_without_rows_is_an_empty_trajectory(tmp_path):
    lines = _index_lines(tmp_path)
    _write_index(tmp_path, lines[:1])
    with pytest.raises(upk_io.FormatError, match="empty trajectory"):
        upk_io.read_trajectory(tmp_path)
