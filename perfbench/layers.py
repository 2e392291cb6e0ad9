"""Per-layer spans and counters, wrapped around the program from outside.

The program has no timer hook yet, so the traced run replaces each
layer's entry points with timing wrappers -- on the objects the child
built, on classes, or on module attributes -- and puts the originals
back afterwards.  Nothing under ``src/`` is edited.

A span's *self time* is its duration minus the time of the spans it
encloses, so the self times of all layers add up to the traced time
spent inside them.  Layer names follow the ``repro`` modules.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Generator, List, Tuple

#: ``BatchSystem`` methods that other layers call into.
BATCH_METHODS = (
    "start_job",
    "order_reconfiguration",
    "commit_reconfiguration",
    "kill_job",
    "on_scheduling_point",
    "on_evolving_request",
)
MONITOR_HOOKS = (
    "on_submit",
    "on_start",
    "on_reconfigure",
    "on_end",
    "on_node_failure",
    "on_node_repair",
    "on_queue_drop",
)
ROUTE_METHODS = ("route", "route_to_pfs", "route_from_pfs")

_MISSING = object()


class LayerTracer:
    """Accumulates span self times, call counts and per-call samples."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Inclusive per-call durations of the layers listed in ``sampled``.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.sampled = {"scheduler"}
        #: Work counters measured at the wrapped boundaries.
        self.counts: Counter = Counter()
        #: Child-time accumulators of the open spans (index 0: no span).
        self._stack: List[float] = [0.0]
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------

    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of ``layer``."""
        stack, self_s, calls = self._stack, self.self_s, self.calls
        samples = self.samples[layer] if layer in self.sampled else None

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self_s[layer] += duration - stack.pop()
                stack[-1] += duration
                calls[layer] += 1
                if samples is not None:
                    samples.append(duration)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def forward(self, layer: str, gen: Generator) -> Generator:
        """Drive ``gen`` and time each resumption as a span of ``layer``.

        Used for ``JobExecutor.run``: the batch system delegates to it with
        ``yield from``, so sends, throws and close pass through unchanged.
        """
        stack, self_s, calls = self._stack, self.self_s, self.calls
        value: Any = None
        error: BaseException | None = None
        while True:
            stack.append(0.0)
            start = perf_counter()
            try:
                if error is None:
                    out = gen.send(value)
                else:
                    out = gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                duration = perf_counter() - start
                self_s[layer] += duration - stack.pop()
                stack[-1] += duration
                calls[layer] += 1
            try:
                value, error = (yield out), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the executor
                value, error = None, exc

    # -- patching ---------------------------------------------------------

    def patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        """Set ``owner.name`` to ``wrapper``; :meth:`restore` undoes it."""
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, wrapper)

    def wrap(self, owner: Any, name: str, layer: str) -> None:
        self.patch(owner, name, self.timed(layer, getattr(owner, name)))

    def restore(self, keep: int = 0) -> None:
        """Put back patched attributes, newest first, until ``keep`` remain."""
        while len(self._undo) > keep:
            owner, name, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)

    @property
    def patched(self) -> int:
        return len(self._undo)


def install_program_wrappers(tracer: LayerTracer) -> None:
    """Wrap the layers reached through classes and module attributes.

    These cover objects the child does not hold: executors are created per
    job start, compiled expressions live inside application models, and
    the campaign runner builds its own simulations.
    """
    import repro.sharing.model as sharing_model
    import repro.workload as workload
    from repro.campaign import CampaignRunner
    from repro.engine import JobExecutor
    from repro.expressions.compiler import CompiledExpression

    run = JobExecutor.run
    tracer.patch(JobExecutor, "run", lambda ex: tracer.forward("engine", run(ex)))
    tracer.wrap(CompiledExpression, "evaluate", "expressions")
    tracer.wrap(sharing_model, "solve_max_min", "sharing.solve")
    tracer.wrap(workload, "jobs_from_swf_block", "workload")
    tracer.wrap(CampaignRunner, "run", "campaign")


def install_simulation_wrappers(tracer: LayerTracer, sim: Any) -> None:
    """Wrap the entry points of one built simulation's objects."""
    batch = sim.batch
    model = batch.model
    tracer.wrap(sim.env, "run", "des")
    for name in BATCH_METHODS:
        tracer.wrap(batch, name, "batch")
    tracer.wrap(batch.algorithm, "schedule", "scheduler")
    for name in MONITOR_HOOKS:
        tracer.wrap(batch.monitor, name, "monitoring")
    for name in ROUTE_METHODS:
        tracer.wrap(batch.platform, name, "platform")
    _wrap_admission(tracer, model)
    tracer.wrap(model, "cancel", "sharing.cancel")
    # The completion path has no public entry: the kernel calls back into
    # ``_wake_fired`` (the flood-fill runs inside it, via ``_remove``), and
    # the same-instant re-solve runs from ``_do_resolve``.
    tracer.wrap(model, "_wake_fired", "sharing.wake")
    tracer.wrap(model, "_do_resolve", "sharing.flush")
    tracer.wrap(model, "_solve_slots", "sharing.solve")
    split = tracer.timed("sharing.floodfill", model._split)
    counts = tracer.counts

    def floodfill(comp):
        counts["floodfill_visited"] += len(comp.acts)
        return split(comp)

    tracer.patch(model, "_split", floodfill)


def _wrap_admission(tracer: LayerTracer, model: Any) -> None:
    """Time ``execute``/``execute_many`` and count activities admitted.

    ``execute_many`` falls back to ``execute`` for some activities; those
    nested calls are timed but not counted a second time.
    """
    execute = tracer.timed("sharing.admit", model.execute)
    execute_many = tracer.timed("sharing.admit", model.execute_many)
    counts = tracer.counts
    in_batch: List[None] = []

    def admit(activity):
        if not in_batch:
            counts["admitted"] += 1
        return execute(activity)

    def admit_many(activities):
        activities = list(activities)
        counts["admitted"] += len(activities)
        in_batch.append(None)
        try:
            return execute_many(activities)
        finally:
            in_batch.pop()

    tracer.patch(model, "execute", admit)
    tracer.patch(model, "execute_many", admit_many)
