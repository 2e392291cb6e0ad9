"""Snapshot/resume byte-identity on handcrafted and fuzz scenarios.

Each scenario runs cold, then with periodic checkpoints (which must not
perturb it), then resumed from every checkpoint after a JSON round-trip
of the snapshot document; every resumed run must reproduce the cold
``run_record`` and ``processed_events`` exactly.  Alongside the identity
sweep: regressions for the snapshot-hostile nondeterminism fixed with
the replay work (event-pool recycling, insertion-ordered evolving
waits) and the snapshot file format itself.
"""

import json

import pytest

from repro.batch import Simulation
from repro.fuzz import generate_scenario
from repro.replay import SCHEMA_VERSION, ReplayError, Snapshot, capture_snapshot

from tests.replay.helpers import (
    assert_resume_identical,
    cold_run,
    fingerprint,
    json_roundtrip,
    snapshot_run,
)


def _platform(count=8, **extra):
    spec = {
        "name": "replay-test",
        "nodes": {"count": count, "flops": 1e12},
        "network": {"topology": "star", "bandwidth": 1e10, "pfs_bandwidth": 1e11},
        "pfs": {"read_bw": 1e11, "write_bw": 8e10},
    }
    spec.update(extra)
    return spec


def _job(jid, *, submit=0.0, nodes=2, seconds=30.0, **extra):
    job = {
        "id": jid,
        "submit_time": submit,
        "num_nodes": nodes,
        "application": {
            "name": "app",
            "phases": [{"tasks": [{"type": "delay", "seconds": seconds}]}],
        },
    }
    job.update(extra)
    return job


def _rigid_mix():
    """Rigid jobs with cpu/comm/pfs phases and iteration loops."""
    phases = [
        {
            "tasks": [
                {"type": "cpu", "flops": 5e10},
                {"type": "comm", "bytes": "1e6 * num_nodes", "pattern": "alltoall"},
            ],
            "iterations": 3,
        },
        {"tasks": [{"type": "pfs_write", "bytes": 2e9}]},
    ]
    jobs = [
        {
            "id": j,
            "submit_time": 10.0 * j,
            "num_nodes": 2 + (j % 3),
            "application": {"name": "app", "phases": phases},
        }
        for j in range(1, 7)
    ]
    return {"platform": _platform(), "workload": {"inline": {"jobs": jobs}}, "algorithm": "easy"}


def _elastic_mix():
    """Malleable and evolving jobs under the malleable scheduler."""

    def app(iters):
        return {
            "name": "app",
            "phases": [
                {
                    "tasks": [
                        {"type": "cpu", "flops": 2e10},
                        {"type": "comm", "bytes": "1e6 / num_nodes", "pattern": "gather"},
                    ],
                    "iterations": iters,
                }
            ],
        }

    jobs = [
        {"id": 1, "submit_time": 0.0, "num_nodes": 4, "type": "malleable",
         "min_nodes": 2, "max_nodes": 6, "application": app(6)},
        {"id": 2, "submit_time": 5.0, "num_nodes": 3, "type": "malleable",
         "min_nodes": 1, "max_nodes": 4, "application": app(5)},
        {"id": 3, "submit_time": 8.0, "num_nodes": 2, "type": "evolving",
         "min_nodes": 1, "max_nodes": 5, "application": app(4)},
        {"id": 4, "submit_time": 12.0, "num_nodes": 4, "application": app(3)},
        {"id": 5, "submit_time": 30.0, "num_nodes": 2, "type": "evolving",
         "min_nodes": 1, "max_nodes": 6, "application": app(5)},
    ]
    return {"platform": _platform(), "workload": {"inline": {"jobs": jobs}}, "algorithm": "malleable"}


def _walltime_kills():
    """Jobs killed by walltime mid-phase, between finishers."""
    jobs = [
        _job(1, nodes=2, seconds=50.0, walltime=20.0),
        _job(2, submit=2.0, nodes=2, seconds=10.0),
        _job(3, submit=4.0, nodes=2, seconds=60.0, walltime=30.0),
        _job(4, submit=6.0, nodes=2, seconds=15.0),
    ]
    return {"platform": _platform(), "workload": {"inline": {"jobs": jobs}}, "algorithm": "fcfs"}


def _failures_and_requeue():
    """Node failures with requeue + checkpoint_restart crossing snapshots."""
    jobs = [
        _job(j, submit=3.0 * j, nodes=2, seconds=25.0) for j in range(1, 6)
    ]
    sim = {
        "failures": {
            "trace": [
                {"node": 0, "time": 15.0, "downtime": 20.0},
                {"node": 3, "time": 40.0, "downtime": 10.0},
            ]
        },
        "requeue_on_failure": True,
        "max_requeues": 2,
        "checkpoint_restart": True,
    }
    return {
        "platform": _platform(),
        "workload": {"inline": {"jobs": jobs}},
        "algorithm": "easy",
        "sim": sim,
    }


def _hybrid_preemption():
    """On-demand preemption with restart I/O under the power corridor."""
    from tests.scheduler.test_hybrid import HYBRID_SPEC

    return json.loads(json.dumps(HYBRID_SPEC))


#: scenario builder + checkpoint cadence (sparse-event scenarios need a
#: finer cadence to yield multiple quiet boundaries).
SCENARIOS = {
    "rigid-mix": (_rigid_mix, 15),
    "elastic-mix": (_elastic_mix, 15),
    "walltime-kills": (_walltime_kills, 6),
    "failures-requeue": (_failures_and_requeue, 6),
    "hybrid-preemption": (_hybrid_preemption, 4),
}


class TestResumeIdentity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_handcrafted_scenarios(self, name):
        builder, cadence = SCENARIOS[name]
        checked = assert_resume_identical(builder(), snapshot_every=cadence)
        assert checked >= 2, "scenario too short to exercise resume"

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_fuzz_scenarios(self, seed):
        scenario = generate_scenario(seed, algorithm="easy")
        assert_resume_identical(scenario, snapshot_every=50)

    def test_hybrid_snapshot_lands_mid_preemption(self):
        # The identity sweep above resumes from *every* checkpoint; this
        # pins that at least one of them sits inside the preemption epoch
        # — batch victims killed (t=5), their resumed clones not yet
        # started (t=16/3) — so preempted-job state, pending requeues,
        # and the power meter all cross a resume boundary.
        _, _, snapshots = snapshot_run(_hybrid_preemption(), 4)
        assert any(5.0 <= snap.time < 16 / 3 for snap in snapshots), (
            f"no snapshot in the preemption window: "
            f"{[snap.time for snap in snapshots]}"
        )

    def test_resume_from_saved_file(self, tmp_path):
        spec = _rigid_mix()
        cold_fp, cold_events = cold_run(spec)
        _, _, snapshots = snapshot_run(spec, 100)
        path = tmp_path / "checkpoint.json"
        snapshots[len(snapshots) // 2].save(path)
        sim = Simulation.resume(Snapshot.load(path))
        sim.run()
        assert fingerprint(sim) == cold_fp
        assert sim.env.processed_events == cold_events


class TestSnapshotDocument:
    def test_quiet_boundaries(self):
        """Checkpoints only land between timestamps: nothing queued at now."""
        _, _, snapshots = snapshot_run(_rigid_mix(), 60)
        assert snapshots
        for snap in snapshots:
            queue = snap.state["env"]["queue"]
            assert all(entry[0] > snap.time for entry in queue)

    def test_document_is_json_safe_and_versioned(self):
        _, _, snapshots = snapshot_run(_rigid_mix(), 100)
        doc = json.loads(json.dumps(snapshots[0].to_dict()))
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["spec"]["algorithm"] == "easy"
        assert doc["processed_events"] == snapshots[0].processed_events

    def test_unknown_schema_version_refused(self):
        _, _, snapshots = snapshot_run(_rigid_mix(), 100)
        doc = snapshots[0].to_dict()
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ReplayError):
            Snapshot.from_dict(doc)

    def test_schema_1_snapshot_refused(self):
        # Schema 2 records slot-table rows (several members each); a
        # schema-1 document holds one activity per slot and cannot load.
        _, _, snapshots = snapshot_run(_rigid_mix(), 100)
        doc = snapshots[0].to_dict()
        doc["schema_version"] = 1
        with pytest.raises(ReplayError, match="schema version 1"):
            Snapshot.from_dict(doc)

    def test_capture_requires_spec(self):
        """Snapshots need a from_spec-built sim (the spec rides along)."""
        from repro.platform import platform_from_dict
        from repro.workload import workload_from_dict

        spec = _rigid_mix()
        sim = Simulation(
            platform_from_dict(spec["platform"]),
            workload_from_dict(spec["workload"]["inline"]),
            algorithm="easy",
        )
        sim.run()
        with pytest.raises(ReplayError):
            capture_snapshot(sim)


class TestNondeterminismRegressions:
    """Snapshot-hostile state must not leak across the restore boundary."""

    def test_event_pool_restored_empty(self):
        # Recycled PooledEvent objects from the captured run must never be
        # shared with (or pre-seed) the restored environment: aliasing one
        # pool across runs reorders callback lists nondeterministically.
        _, _, snapshots = snapshot_run(_rigid_mix(), 60)
        sim = Simulation.resume(json_roundtrip(snapshots[-1]))
        assert sim.env._event_pool == []
        sim.run()

    def test_waiting_evolving_is_insertion_ordered(self):
        # The evolving-growth wait set is a dict (insertion-ordered), not a
        # set: retry order feeds the event stream, so a restored run must
        # rebuild it in the captured order.
        _, _, snapshots = snapshot_run(_elastic_mix(), 60)
        for snap in snapshots:
            sim = Simulation.resume(json_roundtrip(snap))
            assert isinstance(sim.batch._waiting_evolving, dict)
            waiting = snap.state["batch"]["waiting_evolving"]
            assert [job.jid for job in sim.batch._waiting_evolving] == waiting
