"""Tests of the benchmark's own code (run with the Tier-1 pytest command)."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

import run  # noqa: E402
from scenarios import source_spec  # noqa: E402
from tracing import Span, Tracer, aggregate, self_times  # noqa: E402
from upkolmo import io as upk_io  # noqa: E402
from workloads import WORKLOADS, Workload, config_text  # noqa: E402

TINY = Workload("tiny", 8, 32, "impulsive", "lax_friedrichs")


def _load(tmp_path, workload, seed):
    cfg = tmp_path / f"{workload.name}-{seed}.cfg"
    cfg.write_text(config_text(workload, seed, tmp_path / "out"))
    return upk_io.load_config(cfg)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_zero_is_the_scenarios_source_problem(tmp_path, name):
    spec = _load(tmp_path, WORKLOADS[name], 0).spec
    assert spec.context_hash() == source_spec().context_hash()


def test_other_seeds_shift_the_bumps_and_still_load(tmp_path):
    hashes = {_load(tmp_path, WORKLOADS["source64"], seed).spec.context_hash()
              for seed in range(1, 6)}
    assert len(hashes) == 5
    assert source_spec().context_hash() not in hashes


def test_traced_pass_restores_every_wrapped_function(tmp_path):
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _, _ in run._layers()]
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(config_text(TINY, 0, tmp_path / "out"))
    tally = run.Tally()
    tracer, written, _ = run.traced_pass(TINY, cfg, tmp_path / "a", tally)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    agg = aggregate(tracer.spans)
    assert agg["cli.main"].calls == 2
    assert agg["scheme.step"].calls > 0
    assert len(written) > 0

    with pytest.raises(FileNotFoundError):
        run.traced_pass(TINY, tmp_path / "missing.cfg", tmp_path / "b",
                        tally)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_self_time_subtracts_what_children_cover():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 7.0, 0),
        Span("b", 6.0, 9.0, 0),   # overlaps the first b: union is [5, 9]
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 2.0, 3.0]
    agg = aggregate(spans)
    assert (agg["b"].calls, agg["b"].total, agg["b"].self_time) == (2, 5.0, 5.0)
    assert agg["root"].self_time == 3.0


def test_recursive_function_counts_its_outermost_call_only():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def depth(n):
        return 0 if n == 0 else 1 + traced(n - 1)

    traced = tracer.wrap("depth", depth)
    assert traced(5) == 5
    assert [(s.name, s.parent) for s in tracer.spans] == [("depth", None)]


def _write_reports(path, rows):
    path.write_text("check,measured,bound,tolerance,pass,context_hash\n"
                    + "".join(f"{c},0,0,0,{p},0\n" for c, p in rows))


def test_failing_report_row_counts_as_a_failed_operation(tmp_path):
    expected = WORKLOADS["source64"].expected_checks
    reports = tmp_path / "reports.csv"
    rows = [(c, "false" if c == "stability" else "true") for c in expected]
    _write_reports(reports, rows)

    tally = run.Tally()
    run.check_verify(3, reports, expected, tally)
    assert (tally.attempted, tally.failed) == (1 + len(expected), 1)
    assert tally.ok_ratio == 1 - 1 / (1 + len(expected))

    tally = run.Tally()   # exit code 0 despite the failing row
    run.check_verify(0, reports, expected, tally)
    assert tally.failed == 2

    _write_reports(reports, [(c, "true") for c in expected[:-1]])
    tally = run.Tally()   # a missing row fails, and so does the command
    run.check_verify(0, reports, expected, tally)
    assert tally.failed == 2


def test_metric_names_and_units_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    produced = run.per_layer(TINY, Tracer(), [], 0.0, 0.0)
    assert layer == {name: unit for name, (_, unit) in produced.items()}
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS)
