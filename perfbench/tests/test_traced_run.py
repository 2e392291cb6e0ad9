"""The traced run changes no result, restores every wrapper and repeats.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The child runs in-process here, on shrunken versions of the workloads,
so the whole file takes seconds; the benchmark itself runs each command
in a fresh interpreter.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import child
import run
import workloads
from layers import LayerTracer, install_program_wrappers, install_simulation_wrappers

ROOT = Path(__file__).resolve().parents[2]

SMALL_JOBS = {"sched-e5": 60, "io-fattree-128": 25}


@pytest.fixture
def small(monkeypatch):
    """Shrink the sim workloads and the study's trace excerpt."""
    for name, jobs in SMALL_JOBS.items():
        w = workloads.WORKLOADS[name]
        monkeypatch.setitem(
            workloads.WORKLOADS, name,
            dataclasses.replace(w, generate=dict(w.generate, num_jobs=jobs)),
        )
    study = json.loads(json.dumps(workloads._STUDY_SPEC))
    for block in study["workloads"]:
        block["swf"]["max_jobs"] = 30
    monkeypatch.setattr(workloads, "_STUDY_SPEC", study)


def run_child(tmp_path: Path, name: str, traced: bool, seed: int = 7) -> dict:
    work = tmp_path / f"{name}-{int(traced)}-{seed}-{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    request = {"root": str(ROOT), "workload": name, "seed": seed,
               "trace": traced, "work_dir": str(work)}
    if workloads.WORKLOADS[name].kind == "study":
        spec = work / "study.json"
        spec.write_text(json.dumps(workloads.study_spec(ROOT, seed)))
        request["spec"] = str(spec)
    (work / "request.json").write_text(json.dumps(request))
    assert child.main(str(work / "request.json"), str(work / "result.json")) == 0
    return json.loads((work / "result.json").read_text())


def program_attributes() -> dict:
    """Every class and module attribute the traced run patches."""
    import repro.sharing.model as sharing_model
    import repro.workload as workload
    from repro.batch import Simulation
    from repro.campaign import CampaignRunner
    from repro.engine import JobExecutor
    from repro.expressions.compiler import CompiledExpression

    owners = [(JobExecutor, "run"), (CompiledExpression, "evaluate"),
              (sharing_model, "solve_max_min"), (workload, "jobs_from_swf_block"),
              (CampaignRunner, "run"), (Simulation, "run")]
    return {(id(owner), name): vars(owner)[name] for owner, name in owners}


@pytest.mark.parametrize("name", ["sched-e5", "io-fattree-128", "study-cli"])
def test_traced_run_matches_untraced_and_repeats(small, tmp_path, name):
    before = program_attributes()
    plain = run_child(tmp_path, name, traced=False)
    traced = run_child(tmp_path, name, traced=True)
    again = run_child(tmp_path, name, traced=True, seed=7) if name != "study-cli" else None

    assert traced["fingerprints"] == plain["fingerprints"]
    events = sum(r["events"] for r in plain["runs"])
    assert sum(r["events"] for r in traced["runs"]) == events
    assert traced["layers"]["calls"]["des"] == len(plain["runs"])
    assert program_attributes() == before
    if again is not None:
        assert again["layers"]["calls"] == traced["layers"]["calls"]
        assert again["layers"]["counts"] == traced["layers"]["counts"]
        assert again["fingerprints"] == traced["fingerprints"]


def test_simulation_wrappers_are_restored(small):
    from repro import Simulation, platform_from_dict
    from repro.workload import WorkloadSpec, generate_workload

    w = workloads.WORKLOADS["io-fattree-128"]
    sim = Simulation(platform_from_dict(w.platform),
                     generate_workload(WorkloadSpec(**w.generate), seed=2),
                     algorithm=w.algorithm)
    batch = sim.batch
    objects = [sim.env, batch, batch.algorithm, batch.monitor, batch.platform, batch.model]
    before = [dict(vars(obj)) for obj in objects]
    tracer = LayerTracer()
    install_program_wrappers(tracer)
    install_simulation_wrappers(tracer, sim)
    try:
        sim.run()
    finally:
        tracer.restore()
    assert tracer.patched == 0
    for obj, attrs in zip(objects, before):
        assert set(vars(obj)) == set(attrs), type(obj).__name__
    # Every layer the workload reaches was entered at least once.
    for layer in ("des", "engine", "batch", "scheduler", "sharing.admit", "sharing.wake",
                  "sharing.floodfill", "sharing.solve", "platform", "monitoring"):
        assert tracer.calls[layer] > 0, layer


def test_self_times_exclude_children():
    tracer = LayerTracer()
    inner = tracer.timed("inner", lambda: sum(range(20000)))

    def outer():
        inner()
        inner()

    tracer.timed("outer", outer)()
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert 0 <= tracer.self_s["outer"] < tracer.self_s["inner"]


def test_forwarding_generator_passes_values_and_errors():
    tracer = LayerTracer()

    def body():
        got = yield "a"
        try:
            yield got
        except KeyError:
            yield "caught"
        return "done"

    gen = tracer.forward("engine", body())
    assert next(gen) == "a"
    assert gen.send("b") == "b"
    assert gen.throw(KeyError()) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert tracer.calls["engine"] == 4


def test_mismatch_crash_and_lost_jobs_count_as_failed():
    w = workloads.WORKLOADS["sched-e5"]

    def fingerprint(events, completed=3):
        summary = {"completed_jobs": completed, "killed_jobs": 0}
        return json.dumps({"summary": summary, "num_jobs": 3, "processed_events": events})

    def command(instance, events, error=None, completed=3):
        c = run.Command(instance, traced=False)
        c.result = {"fingerprints": {w.name: fingerprint(events, completed)},
                    "runs": [{"events": events, "run_s": 1.0}]}
        c.error = error
        return c

    commands = [command(1, 5), command(1, 6), command(2, 7), command(2, 8),
                command(3, 5, error="exit 1"), command(4, 5, completed=2)]
    expected = {"1": run.command_outcome(command(1, 5))}
    failed = run.check(commands, w, expected)
    assert [c.error is None for c in commands] == [True, False, True, False, False, False]
    assert failed == 4


def test_expectations_cover_default_and_held_out_seeds():
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    for w in workloads.WORKLOADS.values():
        for seed in (w.default_seed, w.held_out_seed):
            for instance in w.instances(seed):
                assert str(instance) in expected.get(w.name, {}), (w.name, instance)
