"""The removal path's connectivity check against an independent reference.

``FairShareModel._remove`` decides whether a removal disconnected its
component with a bounded search and flood-fills only when it did.  These
tests pin that the partition and the ``splits`` count are exactly what a
from-scratch union-find says they must be, after every simulated instant
of random multi-resource execute/cancel/finish churn, and that the
flood-fill runs only for removals that really split.

The reference below shares no code with the model.  It learns the order
of operations from the event stream: every activity's ``done`` event is
triggered at the moment the model removes it, and each admission is
logged through a marker event triggered right after ``execute``.  Both
are zero-delay NORMAL events, so they are processed in the order they
were triggered, which is the order the model saw the operations.  That
order matters: removing a hub then a side link can split twice where the
reverse order splits once.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.des import Environment
from repro.sharing import Activity, FairShareModel, SharedResource


# -- the reference ----------------------------------------------------------


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union_find_groups(activities):
    """Connected groups of ``activities`` (linked through shared resources),
    as a set of frozensets, by union-find over activity ids."""
    acts = list(activities)
    parent = list(range(len(acts)))
    owner = {}
    for i, act in enumerate(acts):
        for res in act.usages:
            if res in owner:
                ri, rj = _find(parent, owner[res]), _find(parent, i)
                if ri != rj:
                    parent[ri] = rj
            else:
                owner[res] = i
    groups = {}
    for i, act in enumerate(acts):
        groups.setdefault(_find(parent, i), set()).add(act)
    return {frozenset(group) for group in groups.values()}


class _Reference:
    """Running set and split count, replayed from the logged operations."""

    def __init__(self):
        self.running = set()
        self.splits = 0

    def add(self, act):
        self.running.add(act)

    def remove(self, act):
        before = next(g for g in _union_find_groups(self.running) if act in g)
        self.running.discard(act)
        rest = before - {act}
        after = [g for g in _union_find_groups(self.running) if g & rest]
        if len(after) > 1:
            self.splits += 1


def _model_groups(model):
    groups = {frozenset(comp.acts) for comp in model._components}
    groups.update(frozenset([act]) for act in model._slot_of)
    return groups


# -- the churn driver -------------------------------------------------------


@st.composite
def _scripts(draw):
    """(capacities, [(start, work, resource indices, cancel_at)], engine).

    Start and cancel times and work sizes come from small grids, so many
    operations land on one instant and equal-rate activities finish
    together; most activities use two or more resources.
    """
    n_res = draw(st.integers(min_value=3, max_value=8))
    capacities = [draw(st.sampled_from([1.0, 2.0, 5.0])) for _ in range(n_res)]
    n_act = draw(st.integers(min_value=3, max_value=14))
    script = []
    for _ in range(n_act):
        start = draw(st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.5]))
        work = draw(st.sampled_from([2.0, 4.0, 7.5, 12.0]))
        # Leaves on one resource, links between neighbours on a line of
        # resources (bridges, so removals can really disconnect), and hubs.
        first = draw(st.integers(min_value=0, max_value=n_res - 1))
        kind = draw(st.sampled_from(["leaf", "link", "link", "hub"]))
        if kind == "leaf":
            indices = [first]
        elif kind == "link":
            indices = [first, (first + 1) % n_res]
        else:
            indices = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_res - 1),
                    min_size=2,
                    max_size=4,
                    unique=True,
                )
            )
        cancel_at = draw(st.one_of(st.none(), st.sampled_from([1.0, 2.0, 3.0, 4.5])))
        script.append((start, work, tuple(indices), cancel_at))
    return capacities, script, draw(st.booleans())


def _mismatches(capacities, script, array_engine):
    """Run ``script``; list every instant where model and reference differ."""
    env = Environment()
    model = FairShareModel(env, array_engine=array_engine)
    resources = [SharedResource(f"r{i}", c) for i, c in enumerate(capacities)]
    reference = _Reference()

    def submit(env, start, work, indices, cancel_at):
        if start > 0:
            yield env.timeout(start)
        act = Activity(work, {resources[i]: 1.0 for i in indices})
        model.execute(act)
        act.done.callbacks.append(lambda _e: reference.remove(act))
        marker = env.event()
        marker.callbacks.append(lambda _e: reference.add(act))
        marker.succeed()
        if cancel_at is not None and cancel_at > start:
            yield env.timeout(cancel_at - start)
            model.cancel(act)  # no-op if it finished already

    for start, work, indices, cancel_at in script:
        env.process(submit(env, start, work, indices, cancel_at))

    mismatches = []
    while env.peek() != float("inf"):
        env.step()
        if env.peek() > env.now:  # the instant is complete
            expected = _union_find_groups(reference.running)
            if _model_groups(model) != expected:
                mismatches.append((env.now, "partition"))
            if model.splits != reference.splits:
                mismatches.append((env.now, "splits", model.splits, reference.splits))
    assert not reference.running and not model.activities
    return mismatches


# Two leaves joined only by a bridge, cancelled mid-run: a small script
# whose removal really disconnects a component.  About a quarter of the
# generated scripts split as well.
_BRIDGE = ([1.0, 1.0], [(0.0, 7.5, (0,), None), (0.0, 7.5, (1,), None),
                        (0.0, 7.5, (0, 1), 1.0)], True)


@given(_scripts())
@example(_BRIDGE)
@settings(max_examples=150, deadline=None)
def test_property_partition_and_splits_match_union_find(case):
    capacities, script, array_engine = case
    assert _mismatches(capacities, script, array_engine) == []


def test_mutation_always_connected_is_caught(monkeypatch):
    """A check that never reports a disconnection must fail the property."""
    monkeypatch.setattr(
        FairShareModel, "_still_connected", lambda self, activity: True
    )
    with pytest.raises(AssertionError):
        test_property_partition_and_splits_match_union_find()


# -- unit cases -------------------------------------------------------------


def _model_with(usage_sets):
    """A model running one activity per usage set (all at t=0)."""
    env = Environment()
    model = FairShareModel(env)
    names = sorted({name for usages in usage_sets for name in usages})
    resources = {name: SharedResource(name, 10.0) for name in names}
    acts = [
        Activity(1000.0, {resources[name]: 1.0 for name in usages})
        for usages in usage_sets
    ]
    for act in acts:
        model.execute(act)
    env.run(until=0.0)
    return env, model, acts


def _record_split_calls(monkeypatch, model):
    calls = []
    original = model._split

    def counted(comp):
        calls.append(len(comp.acts))
        return original(comp)

    monkeypatch.setattr(model, "_split", counted)
    return calls


def test_hub_connected_removal_skips_flood_fill(monkeypatch):
    # a and b both use the hub and r1; removing a leaves r1 reached
    # through b, so the component stays whole without a flood-fill.
    env, model, (a, b, c) = _model_with([("hub", "r1"), ("hub", "r1"), ("hub",)])
    calls = _record_split_calls(monkeypatch, model)
    model.cancel(a)
    env.run(until=1.0)
    assert calls == []
    assert model.component_count == 1
    assert (model.splits, model.floodfill_calls) == (0, 0)
    assert (model.connectivity_checks, model.connectivity_visits) == (1, 1)


def test_bridge_removal_is_detected_and_split(monkeypatch):
    env, model, (left, right, bridge) = _model_with([("r1",), ("r2",), ("r1", "r2")])
    calls = _record_split_calls(monkeypatch, model)
    model.cancel(bridge)
    env.run(until=1.0)
    assert calls == [2]
    assert _model_groups(model) == {frozenset([left]), frozenset([right])}
    assert (model.splits, model.floodfill_calls, model.floodfill_visits) == (1, 1, 2)
    assert model.connectivity_checks == 1


def test_two_removals_from_one_component_at_one_instant(monkeypatch):
    # A chain p -r1- a -r2- q -r2- b -r3- s.  The links a and b share r2
    # with q at equal rates and carry little work, so they finish together
    # while the leaves keep running; each removal splits off one leaf.
    env = Environment()
    model = FairShareModel(env)
    r1, r2, r3 = (SharedResource(f"r{i}", 10.0) for i in (1, 2, 3))
    p = Activity(1000.0, {r1: 1.0})
    q = Activity(1000.0, {r2: 1.0})
    s = Activity(1000.0, {r3: 1.0})
    a = Activity(20.0, {r1: 1.0, r2: 1.0})
    b = Activity(20.0, {r2: 1.0, r3: 1.0})
    for act in (p, a, q, b, s):
        model.execute(act)
    env.run(until=0.0)
    assert model.component_count == 1
    calls = _record_split_calls(monkeypatch, model)
    env.run(until=10.0)
    assert a.finished_at == b.finished_at
    assert _model_groups(model) == {frozenset([p]), frozenset([q]), frozenset([s])}
    assert len(calls) == model.splits == model.floodfill_calls == 2
    assert model.connectivity_checks == 2


def test_removal_order_within_an_instant_decides_the_split_count():
    # Hub h links r1, r2, r3; side link x links r1 and r2.  Removing x
    # first keeps everything joined through h, then h's removal splits
    # once into three groups.
    env, model, (h, x, p1, p2, p3) = _model_with(
        [("r1", "r2", "r3"), ("r1", "r2"), ("r1",), ("r2",), ("r3",)]
    )
    model.cancel(x)
    model.cancel(h)
    env.run(until=1.0)
    assert model.splits == model.floodfill_calls == 1
    assert _model_groups(model) == {frozenset([p1]), frozenset([p2]), frozenset([p3])}
