"""Config ingestion, binary field/trajectory persistence, report CSV.

Config files are line-oriented ``[section]`` / ``key = value`` text.
Expression values are double-quoted strings; everything else is a bare
number or identifier.  Unknown sections or keys are rejected, missing
required keys are rejected, and the loaded problem is validated (flux
vanishing at zero, boundary-collar consistency of the data, delay-width
budget).

Field files (extension ``.upkf``) are little-endian and bit-exact:

    magic   4 bytes  "UPKF"
    version u32      1
    d       u32      spatial dimension, always 1
    Nx      u32      cells per spatial axis
    Ns      u32      cells along s
    t       f64      snapshot time
    payload Nx * Ns f64, x-major then s

A trajectory directory holds one field file per snapshot, an ``index.csv``
mapping snapshot times to filenames (with a role column marking the
one-sided jump fields ``tau_minus`` and ``tau_plus``, which an impulsive
run must have and other modes do not write), and a ``meta.json`` with the
march parameters the verification checks need to reconstruct the stepper:
``mode``, ``lateral_diffusion``, ``source``, ``dt``, ``n_steps``,
``n_tau`` (the level the gamma = 0 kick lands on, ceil(tau/dt)),
``stride``, ``eps``, ``gamma``, ``m_bound`` and ``options`` are required;
``spec_hash``, ``restart`` (the escape that enlarged the invariant
region, or null), ``b0`` (the sampled sup|dbeta/dlambda| of a delayed
source, or null), ``dt_term`` (the ``scheme.Stepper._cfl`` bound that set
dt: ``convective``, ``kick_cap`` or ``heat_accuracy``; null when the
caller fixed dt), and ``setup_s`` and ``march_s`` (the wall seconds the
run spent building its steppers and marching, each summed over a restart)
are optional.  ``lateral_diffusion`` and ``source`` name how the step treated
the lateral Laplacian and the source, and only ``scheme.LATERAL_DIFFUSION``
("backward_euler") and ``scheme.SOURCE_STEP`` ("kick", applied after the
lateral solve) are read: a directory written by the earlier explicit
update, or with the source inside the explicit part, lacks the key, so it
is refused instead of being scored against the wrong update.  The retired
option ``x_diffusion`` loads only at the value every earlier run wrote
(``_RETIRED_OPTIONS``); another value is refused.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import exprdsl
from .problem import Field, Grid, ProblemSpec, Trajectory, consistency_errors
from .scheme import (ENGQUIST_OSHER, LATERAL_DIFFUSION, LAX_FRIEDRICHS,
                     SOURCE_STEP, SchemeOptions)

__all__ = [
    "LoadedConfig", "load_config", "write_field", "read_field",
    "write_trajectory", "read_trajectory", "ParseError", "ValidationError",
    "FormatError", "MAGIC", "VERSION",
]

MAGIC = b"UPKF"
VERSION = 1
_MARCH_KEYS = ("mode", "lateral_diffusion", "source", "dt", "n_steps",
               "n_tau", "stride", "eps", "gamma", "m_bound", "options")
# the update each key names, the only one this version steps
_UPDATES = {"lateral_diffusion": LATERAL_DIFFUSION, "source": SOURCE_STEP}
# retired option: (the value every earlier run wrote, what another meant)
_RETIRED_OPTIONS = {"x_diffusion": (True, "no lateral Laplacian")}


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
    "flux": None,  # a plus phi_1..phi_d, checked against [domain] d
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
    if kind.startswith("int"):
        try:
            return int(value)
        except ValueError:
            raise ParseError(f"{key}: expected an integer, got {value!r}",
                             lineno) from None
    if kind.startswith("float"):
        try:
            return float(value)
        except ValueError:
            raise ParseError(f"{key}: expected a number, got {value!r}",
                             lineno) from None
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
        if schema is None:
            continue
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

    d = values[("domain", "d")]
    flux = sections["flux"]
    if "a" not in flux:
        raise ParseError("missing key 'a' in [flux]")
    expected = {"a"} | {f"phi_{i}" for i in range(1, max(d, 1) + 1)}
    for key, (raw, lineno) in flux.items():
        if key not in expected:
            raise ParseError(f"unknown key {key!r} in [flux]", lineno)
    for key in expected:
        if key not in flux:
            raise ParseError(f"missing key {key!r} in [flux]")
    flux_a = _coerce("expr", "a", *flux["a"])
    flux_phi = tuple(_coerce("expr", f"phi_{i}", *flux[f"phi_{i}"])
                     for i in range(1, max(d, 1) + 1))

    beta = values.get(("source", "beta"))
    b1 = values.get(("source", "b1"))
    if beta is not None and b1 is None:
        raise ParseError("[source] with beta requires b1 (support bound)")

    spec = ProblemSpec(
        d=d,
        L=values[("domain", "L")],
        T=values[("domain", "T")],
        S=values[("domain", "S")],
        flux_a=flux_a,
        flux_phi=flux_phi,
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

    kind = values[("scheme", "flux_kind")]
    if kind not in (ENGQUIST_OSHER, LAX_FRIEDRICHS):
        raise ValidationError(
            f"flux_kind: expected '{ENGQUIST_OSHER}' or '{LAX_FRIEDRICHS}', "
            f"got {kind!r}")
    safety = values[("scheme", "cfl_safety")]
    if not (0.0 < safety <= 1.0):
        raise ValidationError(f"cfl_safety: must be in (0, 1], got {safety}")
    stride = values.get(("grid", "snapshot_stride"), 32)
    if stride < 1:
        raise ValidationError(f"snapshot_stride: must be >= 1, got {stride}")
    nx, ns = values[("grid", "Nx")], values[("grid", "Ns")]
    if nx < 2 or ns < 2:
        raise ValidationError(f"grid: need Nx, Ns >= 2, got {nx}, {ns}")

    grid = Grid(nx=nx, ns=ns, L=spec.L, S=spec.S)
    options = SchemeOptions(flux_kind=kind, cfl_safety=safety,
                            snapshot_stride=stride)
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

def _meta_to_json(meta):
    out = dict(meta)
    opts = out.get("options")
    if isinstance(opts, SchemeOptions):
        out["options"] = dataclasses.asdict(opts)
    return out


def _meta_from_json(data):
    out = dict(data)
    for key, update in _UPDATES.items():
        if out[key] != update:
            raise FormatError(f"meta.json: {key.replace('_', ' ')} "
                              f"{out[key]!r} is not the {update!r} update "
                              "this version steps")
    opts = out.get("options")
    if isinstance(opts, dict):
        opts = dict(opts)
        for name, (kept, what) in _RETIRED_OPTIONS.items():
            value = opts.pop(name, kept)
            if value != kept:
                raise FormatError(f"meta.json: a run with {what} ({name} = "
                                  f"{json.dumps(value)}) cannot be re-stepped")
        unknown = sorted(set(opts) - {f.name for f in
                                      dataclasses.fields(SchemeOptions)})
        if unknown:
            raise FormatError(f"meta.json: unknown options {', '.join(unknown)}")
        out["options"] = SchemeOptions(**opts)
    return out


def write_trajectory(directory, traj):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, (t, fld) in enumerate(zip(traj.times, traj.fields)):
        name = f"field_{i:06d}.upkf"
        write_field(directory / name, fld)
        rows.append((t, name, "snapshot"))
    if traj.tau_minus is not None:
        write_field(directory / "tau_minus.upkf", traj.tau_minus)
        rows.append((traj.tau_minus.t, "tau_minus.upkf", "tau_minus"))
    if traj.tau_plus is not None:
        write_field(directory / "tau_plus.upkf", traj.tau_plus)
        rows.append((traj.tau_plus.t, "tau_plus.upkf", "tau_plus"))
    with open(directory / "index.csv", "w", encoding="utf-8") as fh:
        fh.write("t,filename,role\n")
        for t, name, role in rows:
            fh.write(f"{t!r},{name},{role}\n")
    with open(directory / "meta.json", "w", encoding="utf-8") as fh:
        json.dump(_meta_to_json(traj.meta), fh, indent=1, sort_keys=True)


def read_trajectory(directory, L=1.0, S=1.0):
    directory = Path(directory)
    index = (directory / "index.csv").read_text(encoding="utf-8").splitlines()
    if not index or index[0].strip() != "t,filename,role":
        raise FormatError(f"{directory}: malformed index.csv")
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise FormatError(f"{directory}: no meta.json, so the run's march "
                          "parameters are unknown")
    data = json.loads(meta_path.read_text())
    missing = [key for key in _MARCH_KEYS if key not in data]
    if missing:
        raise FormatError(f"{directory}: meta.json lacks {', '.join(missing)}")
    meta = _meta_from_json(data)
    traj = None
    tau_minus = tau_plus = None
    for row in index[1:]:
        if not row.strip():
            continue
        try:
            t_str, name, role = row.split(",")
            t = float(t_str)
        except ValueError:
            raise FormatError(f"{directory}: index.csv row {row!r} is not "
                              "t,filename,role") from None
        fld = read_field(directory / name, L=L, S=S)
        if traj is None:
            traj = Trajectory(grid=fld.grid)
            traj.meta = meta
        if role == "snapshot":
            traj.append(t, fld)
        elif role == "tau_minus":
            tau_minus = fld
        elif role == "tau_plus":
            tau_plus = fld
        else:
            raise FormatError(f"{directory}: unknown role {role!r}")
    if traj is None:
        raise FormatError(f"{directory}: empty trajectory")
    if meta["mode"] == "impulsive" and (tau_minus is None or tau_plus is None):
        raise FormatError(f"{directory}: an impulsive run's index.csv lacks "
                          "the tau_minus or tau_plus row")
    traj.tau_minus = tau_minus
    traj.tau_plus = tau_plus
    return traj
