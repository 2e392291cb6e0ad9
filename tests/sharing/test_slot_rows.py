"""Slot-table rows: a homogeneous fan-out admitted, solved and finished as one row.

``execute_many`` groups the members of a task fan-out that share rate
inputs, work and remaining work into one ``_SlotTable`` row, so they
share one horizon-heap entry, one integration and one finish check.
Everything observable must stay bit-for-bit what the object engine
(``array_engine=False``) produces: every member's ``remaining`` and
``rate`` at arbitrary probe times (read raw, without integrating),
finish times, cancellations and the final clock.  Each case here runs a
scripted scenario on both engines and compares those observations as
float hex strings, then checks the array engine really formed the rows
the case is about.
"""

import json
from heapq import heappush

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.sharing import (
    Activity,
    ActivityCancelled,
    FairShareModel,
    SharedResource,
    array_engine_enabled,
    set_array_engine_enabled,
)

from tests.replay.helpers import assert_resume_identical, cold_run, snapshot_run


def _hex(x):
    return None if x is None else float(x).hex()


def _drive(array, fanouts, cancels=(), joins=(), syncs=(), probes=()):
    """Run a scripted scenario on one engine; return (observations, model).

    ``fanouts``: ``(time, capacities, works, remainings)`` per task fan-out,
    admitted in list order with one ``execute_many`` each (a ``None``
    remaining keeps ``remaining == work``).  ``cancels``: ``(time, fan,
    member)``.  ``joins``: ``(time, fan, member, work)`` starts a second
    activity on that member's resource.  ``syncs``: times of a
    ``sync_progress()``.  ``probes``: times at which every activity's raw
    ``remaining``/``rate`` is recorded.  Events at one instant run in the
    order admit, cancel, join, sync, probe.
    """
    env = Environment()
    model = FairShareModel(env, array_engine=array)
    fans = []
    everything = []
    probe_log = []

    def admit(t, caps, works, rems):
        yield env.timeout(t)
        resources = [SharedResource(f"node{j}", c) for j, c in enumerate(caps)]
        acts = [Activity(w, {r: 1.0}) for r, w in zip(resources, works)]
        for act, rem in zip(acts, rems or [None] * len(acts)):
            if rem is not None:
                act.remaining = rem
        fans.append(acts)
        everything.extend(acts)
        model.execute_many(acts)

    def cancel(t, fan, member):
        yield env.timeout(t)
        if fan < len(fans):
            model.cancel(fans[fan][member % len(fans[fan])])

    def join(t, fan, member, work):
        yield env.timeout(t)
        if fan < len(fans):
            target = fans[fan][member % len(fans[fan])]
            act = Activity(work, dict(target.usages))
            everything.append(act)
            model.execute(act)

    def sync(t):
        yield env.timeout(t)
        model.sync_progress()

    def probe(t):
        yield env.timeout(t)
        probe_log.append(
            [t] + [(_hex(a.remaining), _hex(a.rate)) for a in everything]
        )

    # One process per fan-out/action, started in this order, so ties at
    # an instant resolve identically on both engines.
    for spec in fanouts:
        env.process(admit(*spec))
    for spec in cancels:
        env.process(cancel(*spec))
    for spec in joins:
        env.process(join(*spec))
    for t in syncs:
        env.process(sync(t))
    for t in probes:
        env.process(probe(t))
    env.run()

    outcomes = []
    for act in everything:
        cancelled = isinstance(act.done.value, ActivityCancelled)
        outcomes.append(
            (cancelled, _hex(act.finished_at), _hex(act.remaining), _hex(act.rate))
        )
    return {"probes": probe_log, "outcomes": outcomes, "now": _hex(env.now)}, model


def _assert_engines_agree(**script):
    rows, model = _drive(True, **script)
    objects, _ = _drive(False, **script)
    assert rows == objects
    return rows, model


def _fan(t, k, cap=100.0, work=1000.0):
    return (t, [cap] * k, [work] * k, None)


class TestRowLifecycle:
    def test_fan_out_is_one_row(self):
        env = Environment()
        model = FairShareModel(env, array_engine=True)
        resources = [SharedResource(f"n{j}", 100.0) for j in range(8)]
        acts = [Activity(1000.0, {r: 1.0}) for r in resources]
        model.execute_many(acts)
        assert model._array.live == 1
        assert model.component_count == 8
        assert model.component_sizes() == [1] * 8
        env.run()
        assert model.slot_rows == 1
        assert model.slot_solves == model.resolves == 8
        assert [a.finished_at for a in acts] == [10.0] * 8
        assert model._array.live == 0 and not model._slot_of

    def test_cancel_one_member_of_live_row(self):
        # Member 3 leaves at t=4; the other seven keep the row's heap entry,
        # their raw `remaining` and their t=10 finish.  The sync at t=2
        # makes the detached member start from the row's integrated work.
        obs, model = _assert_engines_agree(
            fanouts=[_fan(0.0, 8)],
            cancels=[(4.0, 0, 3)],
            syncs=[2.0],
            probes=[2.0, 4.0, 4.5, 9.0],
        )
        assert [o[0] for o in obs["outcomes"]] == [False] * 3 + [True] + [False] * 4
        survivors = [o[1] for i, o in enumerate(obs["outcomes"]) if i != 3]
        assert survivors == [(10.0).hex()] * 7
        assert model.slot_rows == 1  # the cancel re-solved nothing

    def test_cancel_every_member_in_turn(self):
        _assert_engines_agree(
            fanouts=[_fan(0.0, 4)],
            cancels=[(1.0 + i, 0, 0) for i in range(4)] + [(7.0, 0, 0)],
            probes=[0.5, 2.5, 5.0],
        )

    def test_promotion_when_second_activity_lands(self):
        # At t=3 a newcomer shares member 5's resource: member 5 is detached
        # and promoted to a real component; the rest stay one row.
        obs, model = _assert_engines_agree(
            fanouts=[_fan(0.0, 8)],
            joins=[(3.0, 0, 5, 200.0)],
            syncs=[1.5],
            probes=[1.0, 3.0, 3.5, 6.0, 11.0],
        )
        finish = [o[1] for o in obs["outcomes"]]
        assert finish[:5] + finish[6:8] == [(10.0).hex()] * 7
        assert finish[5] != (10.0).hex()
        assert model.merges == 0  # the promoted member was the only comp

    def test_promotion_of_a_row_admitted_this_instant(self):
        # The join lands at the admission instant, before the first flush.
        _assert_engines_agree(
            fanouts=[_fan(0.0, 6)],
            joins=[(0.0, 0, 2, 300.0), (0.0, 0, 4, 600.0)],
            probes=[0.0, 2.0, 5.0],
        )

    def test_sync_progress_writes_back_every_member(self):
        env = Environment()
        model = FairShareModel(env, array_engine=True)
        acts = [
            Activity(1000.0, {SharedResource(f"n{j}", 100.0): 1.0})
            for j in range(5)
        ]
        model.execute_many(acts)
        env.run(until=2.5)
        model.sync_progress()
        assert [a.remaining for a in acts] == [750.0] * 5

    def test_unfinished_due_row_writes_back_every_member(self):
        # A row reaching a horizon before its work is done (float drift in
        # practice; forced here) integrates once, writes the result back to
        # every member and is re-solved as one row.
        env = Environment()
        model = FairShareModel(env, array_engine=True)
        acts = [
            Activity(1000.0, {SharedResource(f"n{j}", 100.0): 1.0})
            for j in range(5)
        ]
        model.execute_many(acts)
        env.run(until=4.0)
        (row,) = set(model._slot_of.values())
        heappush(model._horizon_heap, (4.0, -1, row, model._array.version[row]))
        model._on_wake(model._wake_version)
        assert [a.remaining for a in acts] == [600.0] * 5
        assert model.slot_rows == 2
        env.run()
        assert [a.finished_at for a in acts] == [10.0] * 5


class TestRowFormation:
    def _rows_after_admission(self, fanout):
        env = Environment()
        model = FairShareModel(env, array_engine=True)
        _, caps, works, rems = fanout
        acts = [
            Activity(w, {SharedResource(f"n{j}", c): 1.0})
            for j, (c, w) in enumerate(zip(caps, works))
        ]
        for act, rem in zip(acts, rems or [None] * len(acts)):
            if rem is not None:
                act.remaining = rem
        model.execute_many(acts)
        return model._array.live

    def test_mixed_node_flops_split_rows(self):
        blocks = (0.0, [1e12] * 4 + [2e12] * 4, [5e12] * 8, None)
        alternating = (0.0, [1e12, 2e12] * 4, [5e12] * 8, None)
        assert self._rows_after_admission(blocks) == 2
        # The rate memo holds one entry, so alternation opens a row each.
        assert self._rows_after_admission(alternating) == 8
        _assert_engines_agree(fanouts=[blocks, alternating], probes=[1.0, 3.0])

    def test_differing_work_splits_rows(self):
        fanout = (0.0, [100.0] * 8, [1000.0] * 3 + [2000.0] * 5, None)
        assert self._rows_after_admission(fanout) == 2
        obs, _ = _assert_engines_agree(fanouts=[fanout], probes=[5.0, 12.0])
        finish = [o[1] for o in obs["outcomes"]]
        assert finish == [(10.0).hex()] * 3 + [(20.0).hex()] * 5

    def test_differing_remaining_splits_rows(self):
        fanout = (0.0, [100.0] * 4, [1000.0] * 4, [None, None, 400.0, 400.0])
        assert self._rows_after_admission(fanout) == 2
        _assert_engines_agree(fanouts=[fanout], probes=[3.0, 5.0])

    def test_fallback_mid_batch_closes_the_row(self):
        # A two-resource activity mid-batch goes through execute(); the
        # next member opens a fresh row instead of joining the old one.
        env = Environment()
        model = FairShareModel(env, array_engine=True)
        nodes = [SharedResource(f"n{j}", 100.0) for j in range(4)]
        link = SharedResource("link", 100.0)
        acts = [Activity(1000.0, {n: 1.0}) for n in nodes[:2]]
        acts.append(Activity(1000.0, {nodes[3]: 1.0, link: 1.0}))
        acts.append(Activity(1000.0, {nodes[2]: 1.0}))
        model.execute_many(acts)
        assert model._array.live == 2
        assert model.component_count == 4
        env.run()
        assert [a.finished_at for a in acts] == [10.0] * 4


_fanouts = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]),
        st.integers(1, 6),
        st.sampled_from([[100.0], [100.0, 250.0], [1e12, 3e11]]),
        st.sampled_from([[1000.0], [1000.0, 400.0], [0.1, 7.3e3]]),
    ),
    min_size=1,
    max_size=4,
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    fanouts=_fanouts,
    cancels=st.lists(
        st.tuples(
            st.floats(0.0, 12.0, allow_nan=False),
            st.integers(0, 3),
            st.integers(0, 5),
        ),
        max_size=4,
    ),
    joins=st.lists(
        st.tuples(
            st.floats(0.0, 12.0, allow_nan=False),
            st.integers(0, 3),
            st.integers(0, 5),
            st.sampled_from([50.0, 500.0, 5000.0]),
        ),
        max_size=3,
    ),
    syncs=st.lists(st.floats(0.0, 12.0, allow_nan=False), max_size=2),
    probes=st.lists(st.floats(0.0, 15.0, allow_nan=False), max_size=4),
    data=st.data(),
)
def test_rows_match_object_engine(fanouts, cancels, joins, syncs, probes, data):
    # Each fan-out cycles through its capacity and work menus, so members
    # group into rows of mixed sizes (and some into rows of one).
    script = []
    for t, k, caps, works in sorted(fanouts, key=lambda f: f[0]):
        rems = None
        if data.draw(st.booleans(), label="partial remaining"):
            rems = [None if j % 3 else works[0] / 2 for j in range(k)]
        script.append(
            (
                t,
                [caps[(j // 2) % len(caps)] for j in range(k)],
                [works[(j // 3) % len(works)] for j in range(k)],
                rems,
            )
        )
    _assert_engines_agree(
        fanouts=script, cancels=cancels, joins=joins, syncs=syncs, probes=probes
    )


def _long_fan_out_spec():
    """Rigid multi-node CPU phases long enough to straddle checkpoints."""
    app = {
        "name": "app",
        "phases": [
            {"tasks": [{"type": "cpu", "flops": 4e12}], "iterations": 3},
        ],
    }
    jobs = [
        {"id": j, "submit_time": 2.0 * j, "num_nodes": 2 + (j % 3), "application": app}
        for j in range(1, 7)
    ]
    platform = {
        "name": "rows",
        "nodes": {"count": 8, "flops": 1e12},
        "network": {"topology": "star", "bandwidth": 1e10, "pfs_bandwidth": 1e11},
        "pfs": {"read_bw": 1e11, "write_bw": 8e10},
    }
    return {
        "platform": platform,
        "workload": {"inline": {"jobs": jobs}},
        "algorithm": "easy",
    }


class TestRowSnapshots:
    def test_capture_and_restore_mid_row(self):
        spec = _long_fan_out_spec()
        _, _, snapshots = snapshot_run(spec, 5)
        widest = [
            max((len(m) for m in snap.state["model"]["slots"]["act"] if m), default=0)
            for snap in snapshots
        ]
        assert max(widest) > 1, "no checkpoint landed inside a multi-member row"
        assert assert_resume_identical(spec, snapshot_every=5) == len(snapshots)

    def test_row_run_matches_object_engine(self):
        spec = _long_fan_out_spec()
        rows_fp, rows_events = cold_run(spec)
        old = array_engine_enabled()
        set_array_engine_enabled(False)
        try:
            objects_fp, objects_events = cold_run(spec)
        finally:
            set_array_engine_enabled(old)
        assert rows_fp == objects_fp
        assert rows_events == objects_events
        assert json.loads(rows_fp)["num_jobs"] == 6
