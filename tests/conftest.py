"""Shared solver runs; session-scoped because full marches dominate runtime."""

import pytest

from upkolmo import exprdsl, solver, verify
from upkolmo.problem import sup_bound
from upkolmo.scheme import SchemeOptions, Stepper
from scenarios import (box_grid, nosource_spec, perturbed_spec, shock_spec,
                       source_spec, unattainable_spec, unit_grid)


@pytest.fixture(autouse=True)
def _fresh_memos():
    """exprdsl remembers bounds, derivatives and compiled closures for the
    process: each test starts with none, so that no count or bound depends
    on which test ran before it."""
    for memo in (exprdsl.sup, exprdsl.diff, exprdsl._compiled):
        memo.cache_clear()


@pytest.fixture
def sup_keys(monkeypatch):
    """Every key (expression, box items, signed) of an ``exprdsl.sup``
    call in the test, in call order: the test encloses each distinct key
    once where ``exprdsl.sup.cache_info().misses`` is ``len(set(keys))``."""
    keys, remembered = [], exprdsl._sup
    monkeypatch.setattr(exprdsl, "_sup",
                        lambda *key: keys.append(key) or remembered(*key))
    return keys


@pytest.fixture(scope="session")
def grid64():
    return unit_grid(64)


@pytest.fixture(scope="session")
def gamma_family(grid64):
    """Entropy runs across delay widths plus the impulsive reference,
    with a common step and the spec's default invariant region."""
    spec = source_spec()
    gammas = [0.2, 0.1, 0.05, 0.025]
    dt = min(Stepper(spec.with_data(gamma=g), grid64).dt
             for g in gammas + [0.0])
    ref = solver.solve(spec.with_data(gamma=0.0), grid64, dt=dt)
    trajs = {g: solver.solve(spec.with_data(gamma=g), grid64, dt=dt)
             for g in gammas}
    errors = [verify.spacetime_l1_diff(trajs[g], ref) for g in gammas]
    report = verify.gamma_limit_report(spec, gammas,
                                       errors, [trajs[g] for g in gammas], ref)
    return {"spec": spec, "gammas": gammas, "trajs": trajs, "ref": ref,
            "errors": errors, "report": report, "dt": dt}


@pytest.fixture(scope="session")
def stability_family(grid64):
    """Source runs with initial data perturbed by 0.1 and 0.01 bumps."""
    base = source_spec()
    specs = {0.0: base, 0.1: perturbed_spec(base, 0.1),
             0.01: perturbed_spec(base, 0.01)}
    m_common = max(sup_bound(s, None, 1.0) for s in specs.values())
    dt = min(Stepper(s, grid64, m_bound=m_common).dt for s in specs.values())
    trajs = {d: solver.solve(s, grid64, dt=dt, m_bound=m_common)
             for d, s in specs.items()}
    return {"specs": specs, "trajs": trajs}


@pytest.fixture(scope="session")
def contraction_family(grid64):
    """Zero-source runs with equal boundary data and perturbed initial data."""
    base = nosource_spec()
    pert = perturbed_spec(base, 0.1)
    m_common = sup_bound(pert, None, 1.0)
    dt = min(Stepper(s, grid64, m_bound=m_common).dt for s in (base, pert))
    t1 = solver.solve(base, grid64, dt=dt, m_bound=m_common)
    t2 = solver.solve(pert, grid64, dt=dt, m_bound=m_common)
    return {"specs": (base, pert), "trajs": (t1, t2)}


@pytest.fixture(scope="session")
def epsilon_family(grid64):
    """Viscous runs for decreasing eps plus the eps = 0 entropy reference."""
    spec = nosource_spec().with_data(gamma=0.0)
    eps_values = [0.04, 0.02, 0.01]
    family = {e: spec.with_data(epsilon=e) for e in eps_values + [0.0]}
    dt = min(Stepper(family[e], grid64).dt for e in eps_values)
    trajs = {e: solver.solve(s, grid64, dt=dt) for e, s in family.items()}
    return {"spec": spec, "eps_values": eps_values, "trajs": trajs}


@pytest.fixture(scope="session")
def impulsive_run(grid64):
    """The gamma -> 0 limit of the source problem, ``spec`` the one it
    marched."""
    spec = source_spec().with_data(gamma=0.0)
    traj = solver.solve(spec, grid64)
    return {"spec": spec, "traj": traj}


@pytest.fixture(scope="session")
def shock_run():
    spec = shock_spec()
    grid = box_grid(spec)
    traj = solver.solve(spec, grid, options=SchemeOptions(snapshot_stride=1))
    return {"spec": spec, "traj": traj, "grid": grid}


@pytest.fixture(scope="session")
def unattainable_run():
    spec = unattainable_spec()
    grid = box_grid(spec)
    traj = solver.solve(spec, grid, options=SchemeOptions(snapshot_stride=1))
    return {"spec": spec, "traj": traj, "grid": grid}
