"""One measured command of a workload, run in a fresh interpreter.

``run.py`` starts it as::

    python3 perfbench/child.py <request.json> <result.json>

The request names the checkout, the workload, the instance seed and
whether to trace.  The child imports ``repro.cli`` as the ``elastisim``
entry point does, then builds and runs the simulation, or runs
``elastisim campaign run`` in-process for the study.  It writes a JSON
result: the monotonic time at which the first ``Simulation.run``
started, host seconds and processed events of every ``Simulation.run``,
the result fingerprints, peak RSS and, when traced, the per-layer spans
and counters.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(request_path: str, result_path: str) -> int:
    request = json.loads(Path(request_path).read_text())
    root = Path(request["root"])
    started = time.perf_counter()
    import repro.cli  # noqa: F401  (what the elastisim entry point imports)

    import_s = time.perf_counter() - started
    import repro

    if Path(repro.__file__).resolve().parents[1] != (root / "src").resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not {root / 'src'}")

    from layers import LayerTracer, install_program_wrappers, install_simulation_wrappers
    from repro.batch import Simulation
    from workloads import WORKLOADS

    workload = WORKLOADS[request["workload"]]
    traced = bool(request["trace"])
    tracer = LayerTracer()
    runs: list = []
    result: dict = {"import_s": import_s, "runs": runs}
    original_run = Simulation.run

    def probed_run(sim, *args, **kwargs):
        """``Simulation.run`` with its start time, host time and events kept."""
        result.setdefault("first_run_t", time.monotonic())
        events = sim.env.processed_events
        keep = tracer.patched
        if traced:
            install_simulation_wrappers(tracer, sim)
        start = time.perf_counter()
        try:
            return original_run(sim, *args, **kwargs)
        finally:
            run_s = time.perf_counter() - start
            tracer.restore(keep)
            runs.append(_run_counters(sim, sim.env.processed_events - events, run_s))

    tracer.patch(Simulation, "run", tracer.timed("sim", probed_run) if traced else probed_run)
    if traced:
        install_program_wrappers(tracer)
    try:
        if workload.kind == "sim":
            result["fingerprints"] = _run_sim(workload, request["seed"], tracer if traced else None)
        else:
            result["fingerprints"] = _run_study(request)
    finally:
        tracer.restore()
    if traced:
        result["layers"] = {
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "scheduler_call_s": tracer.samples["scheduler"],
        }
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))
    return 0


def _run_counters(sim, events: int, run_s: float) -> dict:
    """What the program itself counted in one ``Simulation.run``."""
    monitor = sim.batch.monitor
    run = {"events": events, "run_s": run_s, "invocations": sim.batch.invocations}
    solver = monitor.solver
    if solver is not None:
        run.update(
            resolves=solver.resolves,
            solved_activities=solver.solved_activities,
            max_solve_scope=solver.max_solve_scope,
            splits=solver.splits,
        )
    stats = monitor.expressions
    if stats is not None:
        run.update(
            expr_evaluations=stats.evaluations,
            expr_hits=stats.memo_hits + stats.constant_hits,
        )
    return run


def _run_sim(workload, seed: int, tracer) -> dict:
    from repro import Simulation, platform_from_dict
    from repro.campaign import result_fingerprint
    from repro.workload import WorkloadSpec, generate_workload

    platform = platform_from_dict(workload.platform)
    build = generate_workload if tracer is None else tracer.timed("workload", generate_workload)
    jobs = build(WorkloadSpec(**workload.generate), seed=seed)
    sim = Simulation(platform, jobs, algorithm=workload.algorithm)
    monitor = sim.run()
    # The record a campaign scenario would carry, so fingerprints compare
    # with ``elastisim campaign run --fingerprints``.
    record = {"result": dict(monitor.run_record(), invocations=sim.batch.invocations)}
    return {workload.name: result_fingerprint(record)}


def _run_study(request: dict) -> dict:
    from repro.cli import main as cli_main

    work = Path(request["work_dir"])
    fingerprints = work / "fingerprints.json"
    code = cli_main(
        [
            "campaign", "run",
            "--spec", request["spec"],
            "--workers", "1",
            "--no-cache",
            "--quiet",
            "--output-dir", str(work / "report"),
            "--fingerprints", str(fingerprints),
        ]
    )
    if code != 0:
        raise SystemExit(f"elastisim campaign run exited with {code}")
    return json.loads(fingerprints.read_text())


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
