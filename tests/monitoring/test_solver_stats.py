"""Tests for the solver perf-counter snapshot (SolverStats)."""

import pytest

from repro.des import Environment
from repro.monitoring import SolverStats
from repro.sharing import Activity, FairShareModel, SharedResource


def _run_model():
    env = Environment()
    model = FairShareModel(env)
    resources = [SharedResource(f"r{i}", 10.0) for i in range(3)]
    for res in resources:
        model.execute(Activity(100.0, {res: 1.0}))
    env.run()
    return model


def test_from_model_snapshots_counters():
    model = _run_model()
    stats = SolverStats.from_model(model)
    assert stats.resolves == model.resolves
    assert stats.solve_events == model.solve_events
    assert stats.solved_activities == model.solved_activities
    assert stats.peak_components == 3
    assert stats.component_count == 0  # everything finished
    assert stats.mean_solve_scope == pytest.approx(
        model.solved_activities / model.resolves
    )
    assert stats.solver_time >= 0.0


def test_as_dict_is_json_shaped():
    stats = SolverStats.from_model(_run_model())
    payload = stats.as_dict()
    assert payload["resolves"] == stats.resolves
    assert payload["mean_solve_scope"] == stats.mean_solve_scope
    assert isinstance(payload["size_histogram"], dict)


def test_mean_solve_scope_zero_when_no_resolves():
    assert SolverStats().mean_solve_scope == 0.0


def test_simulation_attaches_solver_stats():
    from repro import Simulation
    from benchmarks.common import evaluation_workload, reference_platform

    platform = reference_platform(num_nodes=8)
    jobs = evaluation_workload(
        num_jobs=4, seed=1, num_nodes=8, max_request=4, mean_interarrival=5.0
    )
    monitor = Simulation(platform, jobs, algorithm="easy").run()
    assert monitor.solver is not None
    assert monitor.solver.resolves > 0
    assert monitor.solver.solved_activities >= monitor.solver.resolves


def test_slot_rows_counts_fan_outs_not_members():
    # One fan-out of 4 members is one slot-table row solve; the activity
    # counters still count members.
    env = Environment()
    model = FairShareModel(env, array_engine=True)
    model.execute_many(
        [Activity(100.0, {SharedResource(f"r{i}", 10.0): 1.0}) for i in range(4)]
    )
    env.run()
    stats = SolverStats.from_model(model)
    assert stats.slot_rows == 1
    assert stats.slot_solves == stats.resolves == 4
    assert stats.as_dict()["slot_rows"] == 1
