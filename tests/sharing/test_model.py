"""Tests for the FairShareModel event-driven activity engine."""

import pytest

from repro.des import Environment
from repro.sharing import Activity, ActivityCancelled, FairShareModel, SharedResource


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def model(env):
    return FairShareModel(env)


def run_activity(env, model, activity, until=None):
    model.execute(activity)
    env.run(until=until if until is not None else activity.done)
    return activity


class TestBasics:
    def test_single_activity_completion_time(self, env, model):
        r = SharedResource("cpu", 100.0)
        a = Activity(1000.0, {r: 1.0})
        run_activity(env, model, a)
        assert env.now == pytest.approx(10.0)
        assert a.finished_at == pytest.approx(10.0)
        assert a.remaining == 0.0

    def test_zero_work_completes_immediately(self, env, model):
        r = SharedResource("cpu", 100.0)
        a = Activity(0.0, {r: 1.0})
        model.execute(a)
        assert a.done.triggered
        env.run()
        assert env.now == 0.0

    def test_bounded_activity_respects_bound(self, env, model):
        r = SharedResource("cpu", 100.0)
        a = Activity(100.0, {r: 1.0}, bound=10.0)
        run_activity(env, model, a)
        assert env.now == pytest.approx(10.0)

    def test_double_execute_rejected(self, env, model):
        r = SharedResource("cpu", 100.0)
        a = Activity(10.0, {r: 1.0})
        model.execute(a)
        with pytest.raises(ValueError):
            model.execute(a)

    def test_payload_carried(self, env, model):
        r = SharedResource("cpu", 100.0)
        a = Activity(10.0, {r: 1.0}, payload={"task": 7})
        run_activity(env, model, a)
        assert a.done.value is a
        assert a.payload == {"task": 7}


class TestSharing:
    def test_two_activities_share_then_speed_up(self, env, model):
        # Both start together on a 100-unit/s resource with 1000 work each:
        # they share (rate 50) until t=20 when both finish simultaneously.
        r = SharedResource("cpu", 100.0)
        a = Activity(1000.0, {r: 1.0})
        b = Activity(1000.0, {r: 1.0})
        model.execute(a)
        model.execute(b)
        env.run()
        assert a.finished_at == pytest.approx(20.0)
        assert b.finished_at == pytest.approx(20.0)

    def test_short_activity_finishes_then_long_accelerates(self, env, model):
        # a: 500 work, b: 1500 work on cap 100.  Shared rate 50 until a done
        # at t=10; b then runs at 100: remaining 1000 work → +10 s → t=20.
        r = SharedResource("cpu", 100.0)
        a = Activity(500.0, {r: 1.0})
        b = Activity(1500.0, {r: 1.0})
        model.execute(a)
        model.execute(b)
        env.run()
        assert a.finished_at == pytest.approx(10.0)
        assert b.finished_at == pytest.approx(20.0)

    def test_late_arrival_slows_down_running_activity(self, env, model):
        # a starts alone at t=0 (rate 100); b arrives at t=5.  a has 500 work
        # left → shared rate 50 → a finishes at t=15.
        r = SharedResource("cpu", 100.0)
        a = Activity(1000.0, {r: 1.0})
        model.execute(a)

        def late(env, model):
            yield env.timeout(5.0)
            b = Activity(10000.0, {r: 1.0})
            model.execute(b)
            yield b.done

        env.process(late(env, model))
        env.run(until=a.done)
        assert env.now == pytest.approx(15.0)

    def test_weighted_sharing_affects_finish_order(self, env, model):
        r = SharedResource("cpu", 90.0)
        light = Activity(300.0, {r: 1.0}, weight=1.0)  # rate 30 → t=10
        heavy = Activity(600.0, {r: 1.0}, weight=2.0)  # rate 60 → t=10
        model.execute(light)
        model.execute(heavy)
        env.run()
        assert light.finished_at == pytest.approx(10.0)
        assert heavy.finished_at == pytest.approx(10.0)

    def test_multi_resource_flow(self, env, model):
        l1 = SharedResource("l1", 50.0)
        l2 = SharedResource("l2", 100.0)
        flow = Activity(500.0, {l1: 1.0, l2: 1.0})
        run_activity(env, model, flow)
        assert env.now == pytest.approx(10.0)  # bottleneck l1


class TestCancellation:
    def test_cancel_fails_done_event_defused(self, env, model):
        r = SharedResource("cpu", 100.0)
        a = Activity(1000.0, {r: 1.0})
        model.execute(a)

        def canceller(env, model, a):
            yield env.timeout(2.0)
            model.cancel(a)

        env.process(canceller(env, model, a))
        env.run()
        assert a.done.triggered
        assert not a.done.ok
        assert isinstance(a.done.value, ActivityCancelled)
        assert not a.running

    def test_cancel_frees_capacity_for_others(self, env, model):
        r = SharedResource("cpu", 100.0)
        a = Activity(10000.0, {r: 1.0})
        b = Activity(1000.0, {r: 1.0})
        model.execute(a)
        model.execute(b)

        def canceller(env, model, a):
            yield env.timeout(2.0)
            model.cancel(a)

        env.process(canceller(env, model, a))
        env.run(until=b.done)
        # b: 2 s at rate 50 (100 work done) then rate 100 → 9 more seconds.
        assert env.now == pytest.approx(11.0)

    def test_cancel_finished_activity_is_noop(self, env, model):
        r = SharedResource("cpu", 100.0)
        a = Activity(100.0, {r: 1.0})
        run_activity(env, model, a)
        model.cancel(a)  # no raise

    def test_cancel_preserves_partial_progress_accounting(self, env, model):
        r = SharedResource("cpu", 100.0)
        a = Activity(1000.0, {r: 1.0})
        model.execute(a)

        def canceller(env, model, a):
            yield env.timeout(3.0)
            model.cancel(a)

        env.process(canceller(env, model, a))
        env.run()
        assert a.remaining == pytest.approx(700.0)


class TestProcessIntegration:
    def test_process_waits_on_activity(self, env, model):
        r = SharedResource("cpu", 10.0)

        def proc(env, model):
            a = Activity(100.0, {r: 1.0})
            model.execute(a)
            yield a.done
            return env.now

        p = env.process(proc(env, model))
        env.run()
        assert p.value == pytest.approx(10.0)

    def test_sequential_activities(self, env, model):
        r = SharedResource("cpu", 10.0)

        def proc(env, model):
            for _ in range(3):
                a = Activity(50.0, {r: 1.0})
                model.execute(a)
                yield a.done
            return env.now

        p = env.process(proc(env, model))
        env.run()
        assert p.value == pytest.approx(15.0)

    def test_parallel_activities_via_all_of(self, env, model):
        r1 = SharedResource("a", 10.0)
        r2 = SharedResource("b", 10.0)

        def proc(env, model):
            acts = [Activity(100.0, {r1: 1.0}), Activity(50.0, {r2: 1.0})]
            events = [model.execute(a).done for a in acts]
            yield env.all_of(events)
            return env.now

        p = env.process(proc(env, model))
        env.run()
        assert p.value == pytest.approx(10.0)

    def test_resolves_counter_increments(self, env, model):
        r = SharedResource("cpu", 10.0)
        a = Activity(10.0, {r: 1.0})
        run_activity(env, model, a)
        assert model.resolves >= 1


class TestNumericalRobustness:
    def test_many_equal_activities_finish_together(self, env, model):
        r = SharedResource("cpu", 100.0)
        acts = [Activity(100.0, {r: 1.0}) for _ in range(20)]
        for a in acts:
            model.execute(a)
        env.run()
        for a in acts:
            assert a.finished_at == pytest.approx(20.0)

    def test_tiny_work_amounts(self, env, model):
        r = SharedResource("cpu", 1.0)
        a = Activity(1e-12, {r: 1.0})
        run_activity(env, model, a)
        assert env.now <= 1e-10

    def test_huge_work_amounts(self, env, model):
        r = SharedResource("cpu", 1e12)
        a = Activity(1e18, {r: 1.0})
        run_activity(env, model, a)
        assert env.now == pytest.approx(1e6)

    def test_staggered_arrivals_monotone_finishes(self, env, model):
        r = SharedResource("cpu", 100.0)
        finishes = []

        def submit(env, model, delay, work):
            yield env.timeout(delay)
            a = Activity(work, {r: 1.0})
            model.execute(a)
            yield a.done
            finishes.append(env.now)

        for i in range(5):
            env.process(submit(env, model, i * 1.0, 100.0 + 10 * i))
        env.run()
        assert len(finishes) == 5
        assert finishes == sorted(finishes)

    @pytest.mark.parametrize("array_engine", [True, False])
    @pytest.mark.parametrize("shared", [False, True])
    def test_completion_below_clock_resolution_finishes(self, array_engine, shared):
        # At t=1e6 the clock resolves ~1.2e-10 s, and this activity needs
        # 1e-11 s (2e-11 s when shared): its completion time rounds to
        # ``now`` while its remaining work is far above the finish
        # tolerance.  It must finish at this instant, not re-arm a wake at
        # the same time forever.
        env = Environment()
        env.run(until=1e6)
        model = FairShareModel(env, array_engine=array_engine)
        r = SharedResource("r", 1e11)
        short = Activity(1.0, {r: 1.0})
        model.execute(short)
        if shared:
            model.execute(Activity(1e12, {r: 1.0}))
        for _ in range(100):  # bounded: a regression would never finish
            if short.finished_at is not None:
                break
            env.step()
        assert short.finished_at == 1e6
        assert short.remaining == 0.0
