"""Trajectory directories: what `meta.json` holds and what loads back."""

import json
import struct

import numpy as np
import pytest

from upkolmo import io as upk_io
from upkolmo import kernels, solver
from upkolmo.problem import Field, Grid, Trajectory, min_kick_slope
from upkolmo.scheme import LAX_FRIEDRICHS, SchemeOptions
from scenarios import source_spec, unit_grid

OPTIONS = SchemeOptions(flux_kind=LAX_FRIEDRICHS, cfl_safety=0.5,
                        snapshot_stride=3)


def _trajectory():
    # the levels the march stores at stride 3 with n_tau = 2
    grid = unit_grid(4)
    rng = np.random.default_rng(3)
    traj = Trajectory(grid=grid)
    for n in (0, 2, 3, 4):
        traj.append(n, Field(rng.random((4, 4)), grid, n * 0.125))
    traj.meta = {"mode": "impulsive", "lateral_diffusion": "backward_euler",
                 "source": "kick", "dt": 0.125, "n_steps": 4, "n_tau": 2,
                 "eps": 0.0, "gamma": 0.0, "m_bound": 2.0, "options": OPTIONS,
                 "spec_hash": source_spec().context_hash()}
    return traj


def test_round_trip_keeps_options_and_fields(tmp_path):
    traj = _trajectory()
    upk_io.write_trajectory(tmp_path, traj)
    back = upk_io.read_trajectory(tmp_path)
    assert back.meta == traj.meta
    assert back.times == traj.times
    assert back.levels == traj.levels == [0, 2, 3, 4]
    for got, want in zip(back.fields, traj.fields, strict=True):
        assert got.t == want.t
        assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("mode", ["entropy", "impulsive"])
def test_round_trip_keeps_the_kick_slope_and_the_step_term(tmp_path, mode):
    # a delayed source stores the slope over unit kick mass, the impulse
    # over none; the convective bound sets dt on the source problem
    spec = source_spec()
    traj = solver.solve(spec.with_data(gamma=0.0) if mode == "impulsive"
                        else spec, unit_grid(8))
    slope = min_kick_slope(spec, 1.0 if mode == "entropy" else 0.0)
    assert (traj.meta["kick_slope"], traj.meta["dt_term"]) == (
        slope, "convective")
    upk_io.write_trajectory(tmp_path, traj)
    stored = json.loads((tmp_path / "meta.json").read_text())
    assert (stored["kick_slope"], stored["dt_term"]) == (slope, "convective")
    back = upk_io.read_trajectory(tmp_path)
    assert (back.meta["kick_slope"], back.meta["dt_term"]) == (
        slope, "convective")
    # a directory written before the slope holds b0 in its place, and
    # one written before runs dropped it, the stride
    stored["b0"] = kernels.estimate_dbeta_sup(spec.beta, spec.L, spec.S,
                                              spec.b1)
    stored["stride"] = 32
    del stored["kick_slope"]
    (tmp_path / "meta.json").write_text(json.dumps(stored))
    back = upk_io.read_trajectory(tmp_path)
    assert (back.meta["b0"], back.meta["stride"]) == (stored["b0"], 32)


def test_times_that_are_numpy_scalars_are_written_as_floats(tmp_path):
    # a T given as np.float64 makes every time one; index.csv holds their
    # float repr, which read_trajectory parses back bit for bit
    spec = source_spec().with_data(T=np.float64(1.0))
    traj = solver.solve(spec, unit_grid(8))
    assert type(traj.times[-1]) is np.float64
    upk_io.write_trajectory(tmp_path, traj)
    rows = (tmp_path / "index.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == [
        repr(float(t)) for t in traj.times]
    assert upk_io.read_trajectory(tmp_path).times == traj.times


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


@pytest.mark.parametrize("value", [True, False])
def test_the_retired_x_diffusion_option_is_unknown(tmp_path, value):
    # it was retired before meta.json held `source`, which every directory
    # that loads holds, so no such directory ever wrote it
    _with_option(tmp_path, "x_diffusion", value)
    with pytest.raises(upk_io.FormatError,
                       match="^meta.json: unknown options x_diffusion$"):
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
    # nor has one written with the source inside the explicit part
    ("source",),
    # nor one that does not name the spec it marched
    ("spec_hash",),
    ("mode", "lateral_diffusion", "source", "dt", "n_steps", "n_tau",
     "eps", "gamma", "m_bound", "options", "spec_hash"),
], ids=["dt", "eps_and_options", "explicit_update", "in_step_source",
        "spec_hash", "all"])
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


def test_another_source_step_is_named(tmp_path):
    upk_io.write_trajectory(tmp_path, _trajectory())
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["source"] = "explicit"
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(upk_io.FormatError,
                       match="^meta.json: source 'explicit' is not the "
                             "'kick' update"):
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


@pytest.mark.parametrize("rows", [[2, 1], [1, 1]], ids=["swapped", "twice"])
def test_snapshots_out_of_level_order_are_refused(tmp_path, rows):
    lines = _index_lines(tmp_path)
    _write_index(tmp_path, [lines[0], *(lines[i] for i in rows), *lines[3:]])
    with pytest.raises(upk_io.FormatError) as info:
        upk_io.read_trajectory(tmp_path)
    i, got, want = (0, 2, 0) if rows == [2, 1] else (1, 0, 2)
    assert str(info.value) == (
        f"{tmp_path}: snapshot {i} of index.csv is at t = {got * 0.125}, not "
        f"at the march's level {want}, t = {want * 0.125}")


def test_a_row_past_the_last_level_is_refused(tmp_path):
    lines = _index_lines(tmp_path)
    _write_index(tmp_path, [*lines, lines[-1]])
    with pytest.raises(upk_io.FormatError) as info:
        upk_io.read_trajectory(tmp_path)
    assert str(info.value) == (
        f"{tmp_path}: snapshot 4 of index.csv is at t = 0.5, not at the "
        "march's level none, t = none")


@pytest.mark.parametrize("mode", ["impulsive", "entropy"])
@pytest.mark.parametrize("level", [2, 3, 4])
def test_every_level_the_march_stores_is_required(tmp_path, mode, level):
    # the march stores n_tau and n_tau + 1 whenever tau lies inside (0, T),
    # and the last level n_steps: a directory without one is refused
    traj = _trajectory()
    traj.meta["mode"] = mode
    upk_io.write_trajectory(tmp_path, traj)
    lines = (tmp_path / "index.csv").read_text().splitlines()
    _write_index(tmp_path, [row for row in lines
                            if not row.startswith(f"{level * 0.125!r},")])
    with pytest.raises(upk_io.FormatError) as info:
        upk_io.read_trajectory(tmp_path)
    i = traj.levels.index(level)
    got = traj.levels[i + 1] * 0.125 if level < 4 else "none"
    assert str(info.value) == (
        f"{tmp_path}: snapshot {i} of index.csv is at t = {got}, not at the "
        f"march's level {level}, t = {level * 0.125}")
