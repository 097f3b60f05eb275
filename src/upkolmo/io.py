"""Config ingestion, binary field/trajectory persistence, report CSV.

Config files are line-oriented ``[section]`` / ``key = value`` text.
Expression values are double-quoted strings; everything else is a bare
finite number or identifier.  The sections and keys are ``_SCHEMA``'s:
``[domain] d``, the dimension of Omega, must be 1, and ``[flux]`` holds
the s-flux a and the one lateral flux phi_1.  Unknown sections or keys
are rejected, missing required keys are rejected, and the loaded problem
is validated (flux vanishing at zero, boundary-collar consistency of the
data, delay-width budget, beta vanishing beyond ``[source] b1``, and
``SchemeOptions``).

Field files (extension ``.upkf``) are little-endian and bit-exact:

    magic   4 bytes  "UPKF"
    version u32      1
    d       u32      spatial dimension, always 1
    Nx      u32      cells per spatial axis
    Ns      u32      cells along s
    t       f64      snapshot time
    payload Nx * Ns f64, x-major then s

A trajectory directory holds one field file per snapshot, an ``index.csv``
and a ``meta.json``: the run's ``solver.record``, its ``kick_slope`` and
``dt_term`` (the ``scheme.Stepper._cfl`` bound that set dt, or null) and
its wall seconds ``setup_s`` and ``march_s``.  Five keys are read here,
each refused if missing or of the wrong type: ``dt``, ``n_steps`` and
``n_tau``, which give the schedule below, and ``m_bound`` and ``options``
(a ``SchemeOptions``), with which ``verify.rebuild`` rebuilds the stepper.
``restart`` is refused: every run marched with sampled bounds holds it,
and its region and dissipation were wider than the enclosed ones rebuilt.
``upkolmo verify`` compares the whole record as ``meta_text`` writes it;
other keys (older runs hold ``b0`` and ``stride``) are ignored.

The snapshots are the levels the march stores, in order,
``problem.snapshot_levels`` of ``n_steps``, the stride and ``n_tau`` (the
last is ``n_steps``; an impulsive run holds the jump ``verify.check_jump``
scores).  ``index.csv`` is that schedule as text (``_schedule``): a
``t,filename,role`` header, then ``repr(n dt),field_{i:06d}.upkf,snapshot``
for snapshot i at level n.  The reader rebuilds these lines from
``meta.json``, one more than ``index.csv`` has at most, and refuses, with
the first line that differs, a file that is not them: a time an ulp off,
a level missing or extra, a renamed field file, another role (older
impulsive runs' ``tau_minus`` rows).  Each field's header must hold its
level's time, and its (Nx, Ns) the first's.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import exprdsl
from .problem import (Field, Grid, ProblemSpec, Trajectory, consistency_errors,
                      snapshot_levels)
from .scheme import SchemeOptions

__all__ = [
    "LoadedConfig", "load_config", "write_field", "read_field",
    "write_trajectory", "read_trajectory", "ParseError", "ValidationError",
    "FormatError", "MAGIC", "VERSION", "meta_text",
]

MAGIC = b"UPKF"
VERSION = 1


def _integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _real(v):
    return _integer(v) or isinstance(v, float) and math.isfinite(v)


# the march keys read here and by ``verify.rebuild``, and what each holds
_KINDS = {
    "dt": ("a finite number > 0", lambda v: _real(v) and v > 0),
    "n_steps": ("a positive integer", lambda v: _integer(v) and v > 0),
    "n_tau": ("an integer or null", lambda v: v is None or _integer(v)),
    # B(T), 0 for all-zero data and no beta (``problem.check_region``)
    "m_bound": ("a finite number >= 0", lambda v: _real(v) and v >= 0),
    "options": ("an object", lambda v: isinstance(v, dict)),
}


class ParseError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class ValidationError(ValueError):
    pass


class FormatError(ValueError):
    pass


# --- config ------------------------------------------------------------------

_SCHEMA = {
    "domain": {"d": "int", "L": "float", "T": "float", "S": "float"},
    "flux": {"a": "expr", "phi_1": "expr"},
    "source": {"tau": "float", "gamma": "float", "beta": "expr?",
               "b1": "float?"},
    "data": {"u0_1": "expr", "u0_2": "expr", "uS_2": "expr"},
    "grid": {"Nx": "int", "Ns": "int", "snapshot_stride": "int?"},
    "scheme": {"flux_kind": "ident", "epsilon": "float", "cfl_safety": "float"},
    "output": {"dir": "str?"},
}


@dataclass
class LoadedConfig:
    spec: ProblemSpec
    grid: Grid
    options: SchemeOptions
    output_dir: str


def _parse_sections(text):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno)
            name = line[1:-1].strip()
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise ParseError("key outside any [section]", lineno)
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ParseError("empty key", lineno)
        if key in sections[current]:
            raise ParseError(f"duplicate key {key!r} in [{current}]", lineno)
        sections[current][key] = (value, lineno)
    return sections


def _coerce(kind, key, value, lineno):
    if kind.startswith("expr"):
        if len(value) < 2 or value[0] != '"' or value[-1] != '"':
            raise ParseError(f"{key}: expression values must be double-quoted",
                             lineno)
        try:
            return exprdsl.parse(value[1:-1])
        except exprdsl.ExprSyntaxError as exc:
            raise ParseError(f"{key}: {exc}", lineno) from exc
    if kind.startswith(("int", "float")):
        cast, what = ((int, "an integer") if kind.startswith("int")
                      else (float, "a finite number"))
        try:
            number = cast(value)
        except ValueError:
            number = math.nan
        if not -math.inf < number < math.inf:  # float() reads nan and inf
            raise ParseError(f"{key}: expected {what}, got {value!r}", lineno)
        return number
    if kind.startswith("str"):
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            return value[1:-1]
        return value
    return value  # ident


def load_config(path):
    """Parse and validate a config file into spec, grid and scheme options."""
    text = Path(path).read_text(encoding="utf-8")
    sections = _parse_sections(text)

    for name in _SCHEMA:
        if name not in sections:
            raise ParseError(f"missing required section [{name}]")
    for name in sections:
        if name not in _SCHEMA:
            raise ParseError(f"unknown section [{name}]")

    values = {}
    for name, schema in _SCHEMA.items():
        got = sections[name]
        for key, (raw, lineno) in got.items():
            if key not in schema:
                raise ParseError(f"unknown key {key!r} in [{name}]", lineno)
        for key, kind in schema.items():
            if key not in got:
                if kind.endswith("?"):
                    continue
                raise ParseError(f"missing key {key!r} in [{name}]")
            raw, lineno = got[key]
            values[(name, key)] = _coerce(kind, key, raw, lineno)
        # before [flux], which has no phi_2..phi_d for a wider domain
        if name == "domain" and values[(name, "d")] != 1:
            raise ValidationError("dimension: only d=1 is supported, got "
                                  f"d={values[(name, 'd')]}")

    beta = values.get(("source", "beta"))
    b1 = values.get(("source", "b1"))
    if beta is not None and b1 is None:
        raise ParseError("[source] with beta requires b1 (support bound)")

    spec = ProblemSpec(
        L=values[("domain", "L")],
        T=values[("domain", "T")],
        S=values[("domain", "S")],
        flux_a=values[("flux", "a")],
        flux_phi=values[("flux", "phi_1")],
        data_u0_1=values[("data", "u0_1")],
        data_u0_2=values[("data", "u0_2")],
        data_uS_2=values[("data", "uS_2")],
        beta=beta,
        tau=values[("source", "tau")],
        gamma=values[("source", "gamma")],
        epsilon=values[("scheme", "epsilon")],
        b1=b1 if b1 is not None else 0.0,
    )
    errors = consistency_errors(spec)
    if errors:
        raise ValidationError("; ".join(errors))

    try:
        options = SchemeOptions(
            flux_kind=values[("scheme", "flux_kind")],
            cfl_safety=values[("scheme", "cfl_safety")],
            snapshot_stride=values.get(("grid", "snapshot_stride"), 32))
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    nx, ns = values[("grid", "Nx")], values[("grid", "Ns")]
    if nx < 2 or ns < 2:
        raise ValidationError(f"grid: need Nx, Ns >= 2, got {nx}, {ns}")

    grid = Grid(nx=nx, ns=ns, L=spec.L, S=spec.S)
    out_dir = values.get(("output", "dir"), "out")
    return LoadedConfig(spec=spec, grid=grid, options=options,
                        output_dir=out_dir)


# --- binary fields -------------------------------------------------------------

def write_field(path, field):
    values = np.ascontiguousarray(field.values, dtype="<f8")
    nx, ns = values.shape
    header = MAGIC + struct.pack("<IIII", VERSION, 1, nx, ns) \
        + struct.pack("<d", float(field.t))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(values.tobytes(order="C"))


def read_field(path, L=1.0, S=1.0):
    blob = Path(path).read_bytes()
    if len(blob) < 28:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    if blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    version, d, nx, ns = struct.unpack("<IIII", blob[4:20])
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if d != 1:
        raise FormatError(f"{path}: unsupported dimension d={d}")
    (t,) = struct.unpack("<d", blob[20:28])
    expected = nx * ns * 8
    if len(blob) != 28 + expected:
        raise FormatError(f"{path}: payload length {len(blob) - 28} does not "
                          f"match header ({expected} bytes expected)")
    values = np.frombuffer(blob, dtype="<f8", offset=28).reshape(nx, ns).copy()
    grid = Grid(nx=nx, ns=ns, L=L, S=S)
    return Field(values=values, grid=grid, t=t)


# --- trajectory directories ------------------------------------------------------

def _schedule(levels, dt):
    """The field file names of the snapshots a march at step dt stores at
    ``levels``, and the lines of their ``index.csv``, the header first."""
    names = [f"field_{i:06d}.upkf" for i in range(len(levels))]
    return names, ["t,filename,role"] + [f"{float(n * dt)!r},{name},snapshot"
                                         for n, name in zip(levels, names)]


def write_trajectory(directory, traj):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names, rows = _schedule(traj.levels, traj.meta["dt"])
    for name, fld in zip(names, traj.fields, strict=True):
        write_field(directory / name, fld)
    (directory / "index.csv").write_text("\n".join(rows) + "\n",
                                         encoding="utf-8")
    (directory / "meta.json").write_text(meta_text(traj.meta, indent=1),
                                         encoding="utf-8")


def meta_text(value, indent=None):
    """``value`` as ``meta.json`` holds it, a ``SchemeOptions`` as an
    object: a whole meta, or the key's value that ``verify`` compares."""
    return json.dumps(value, indent=indent, sort_keys=True,
                      default=dataclasses.asdict)


def read_trajectory(directory, L=1.0, S=1.0):
    directory = Path(directory)
    index = (directory / "index.csv").read_text(encoding="utf-8").splitlines()
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise FormatError(f"{directory}: no meta.json, so the run's march "
                          "parameters are unknown")
    try:
        data = json.loads(meta_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise FormatError(f"{directory}: meta.json is not JSON: "
                          f"{exc}") from None
    if not isinstance(data, dict):
        raise FormatError(f"{directory}: meta.json is not a JSON object")
    missing = [key for key in _KINDS if key not in data]
    if missing:
        raise FormatError(f"{directory}: meta.json lacks {', '.join(missing)}")
    if "restart" in data:
        raise FormatError("meta.json: a restart key marks a run marched "
                          "with sampled bounds, on a wider region and "
                          "dissipation than this version rebuilds")
    for key, (what, ok) in _KINDS.items():
        if not ok(data[key]):
            raise FormatError(f"meta.json: {key} = {json.dumps(data[key])} "
                              f"is not {what}")
    unknown = sorted(set(data["options"]) - {
        f.name for f in dataclasses.fields(SchemeOptions)})
    if unknown:
        raise FormatError(f"meta.json: unknown options {', '.join(unknown)}")
    try:
        data["options"] = SchemeOptions(**data["options"])
    except ValueError as exc:
        raise FormatError(f"meta.json: {exc}") from None
    dt, march = data["dt"], list(itertools.islice(snapshot_levels(
        data["n_steps"], data["options"].snapshot_stride, data["n_tau"]),
        len(index)))
    names, rows = _schedule(march, dt)
    if index != rows:  # the march's schedule, as text
        i = next((i for i, (got, want) in enumerate(zip(index, rows))
                  if got != want), min(len(index), len(rows)))
        reads = f"reads {index[i]!r}" if i < len(index) else "is missing"
        want = repr(rows[i]) if i < len(rows) else "no line"
        raise FormatError(f"{directory}: index.csv line {i + 1} {reads}, "
                          f"where the march's schedule has {want}")
    fields = []
    for name, n in zip(names, march):
        path = directory / name
        fld = read_field(path, L=L, S=S)
        if fld.t != n * dt:
            raise FormatError(f"{path}: header time {fld.t!r} is not its "
                              f"index.csv time {float(n * dt)!r}")
        if fields and fld.grid != fields[0].grid:
            raise FormatError(f"{path}: {fld.values.shape} cells, not the "
                              f"first field's {fields[0].values.shape}")
        fields.append(fld)
    return Trajectory(fields[0].grid, [fld.t for fld in fields], fields,
                      data, march)
