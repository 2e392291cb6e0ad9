"""The repository's benchmark: host cost of simulating malleable workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sched-e5 --seed 3 --seconds 40 --trace 0

Workloads are defined in ``workloads.py`` and explained in ``NOTES.md``.
A run turns ``--seed`` into the workload's fixed list of instance seeds
and runs one command per instance, then repeats instances round-robin
while ``--seconds`` lasts.

Every measured command runs in a fresh interpreter (``child.py``).  The
compiled-expression source cache, the topology route cache and the
peak RSS are process-wide, so reusing a process would measure warm
caches and a stale memory high-water mark; users pay a cold process on
every ``elastisim run`` and every campaign worker.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``wall_s``: seconds from spawning a command to its exit; the median
  per instance, averaged over the instances.
* ``setup_s``: seconds from spawn to the first ``Simulation.run``
  (interpreter start, imports, platform and workload build,
  ``Simulation`` construction); median over all commands.
* ``events_per_s``: processed events over host seconds inside
  ``Simulation.run``, summed over all commands.
* ``peak_rss_mb``: peak resident memory of a command; median.

``--trace 1`` reports the per-layer metrics instead.  It runs instance 0
only, alternating untraced and traced commands; the traced ones wrap
each layer's entry points from outside (``layers.py``).

Each command's result fingerprints and processed events are compared
with ``expected.json`` when the instance seed is listed there, and with
every other command of the same instance in the run.  A command that
raises, stalls past its deadline or mismatches counts as failed; any
failure makes the run exit 1.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload, study_spec  # noqa: E402

#: A run ends within this many seconds whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "events_per_s": "1/s", "peak_rss_mb": "MB"}


class Command:
    """The outcome of one measured command."""

    def __init__(self, instance: int, traced: bool) -> None:
        self.instance = instance
        self.traced = traced
        self.spawned = 0.0
        self.wall_s = 0.0
        self.result: Dict[str, Any] = {}
        self.error: Optional[str] = None

    @property
    def setup_s(self) -> float:
        return self.result["first_run_t"] - self.spawned

    @property
    def events(self) -> int:
        return sum(run["events"] for run in self.result["runs"])

    @property
    def run_s(self) -> float:
        return sum(run["run_s"] for run in self.result["runs"])


def run_command(
    root: Path, workload: Workload, instance: int, traced: bool, work: Path, timeout: float
) -> Command:
    """Run one command of ``workload`` in a fresh interpreter and time it."""
    command = Command(instance, traced)
    work.mkdir(parents=True, exist_ok=True)
    request: Dict[str, Any] = {
        "root": str(root),
        "workload": workload.name,
        "seed": instance,
        "trace": traced,
        "work_dir": str(work),
    }
    if workload.kind == "study":
        spec = work / "study.json"
        spec.write_text(json.dumps(study_spec(root, instance), indent=2))
        request["spec"] = str(spec)
    request_path, result_path = work / "request.json", work / "result.json"
    request_path.write_text(json.dumps(request))
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [sys.executable, str(HERE / "child.py"), str(request_path), str(result_path)]
    command.spawned = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        command.error = f"no exit within {timeout:.0f} s (stalled)"
        return command
    finally:
        if proc.poll() is None:  # timed out, or this run is being stopped
            proc.kill()
            proc.communicate()
    command.wall_s = time.monotonic() - command.spawned
    if proc.returncode != 0 or not result_path.exists():
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        command.error = f"exit {proc.returncode}: {tail[0]}"
        return command
    command.result = json.loads(result_path.read_text())
    return command


def check(commands: List[Command], workload: Workload, expected: Dict[str, Any]) -> int:
    """Mark commands whose output is wrong; return the failed simulations."""
    seen: Dict[int, Any] = {}
    failed = 0
    for command in commands:
        if command.error is None:
            fingerprints = command.result["fingerprints"]
            outcome = command_outcome(command)
            if len(fingerprints) != workload.simulations_per_command or not all(
                map(_accounts_for_every_job, fingerprints.values())
            ):
                command.error = f"instance {command.instance}: jobs unaccounted for"
            for source, want in (
                ("expected.json", expected.get(str(command.instance))),
                ("an earlier command", seen.setdefault(command.instance, outcome)),
            ):
                if want is not None and want != outcome:
                    command.error = f"instance {command.instance}: output differs from {source}"
        if command.error is not None:
            failed += workload.simulations_per_command
    return failed


def command_outcome(command: Command) -> Dict[str, Any]:
    """What must repeat exactly: the SHA-256 of each result fingerprint
    (canonical JSON of the run record) and the processed events."""
    return {
        "fingerprints": {
            name: hashlib.sha256(fp.encode()).hexdigest()
            for name, fp in command.result["fingerprints"].items()
        },
        "processed_events": command.events,
    }


def _accounts_for_every_job(fingerprint: str) -> bool:
    """A result in which every submitted job completed or was killed."""
    result = json.loads(fingerprint)
    summary = result["summary"]
    return (
        result["processed_events"] > 0
        and summary["completed_jobs"] + summary["killed_jobs"] == result["num_jobs"]
    )


def measure(
    root: Path, workload: Workload, seed: int, seconds: float, traced: bool, work: Path
) -> List[Command]:
    """Run commands until the time is up (at least one full round)."""
    started = time.monotonic()
    deadline = started + seconds
    hard_deadline = started + HARD_LIMIT_S
    if traced:
        # Instance 0 only: untraced and traced commands alternate.
        plan = [(seed, False), (seed, True)]
    else:
        plan = [(instance, False) for instance in workload.instances(seed)]
    commands: List[Command] = []
    while True:
        step = plan[len(commands) % len(plan)]
        now = time.monotonic()
        if len(commands) >= len(plan):
            same = [c.wall_s for c in commands if (c.instance, c.traced) == step and c.wall_s]
            estimate = statistics.median(same) if same else 0.0
            if now + estimate > deadline:
                break
        if now >= hard_deadline:
            break
        commands.append(
            run_command(root, workload, step[0], step[1], work, hard_deadline - now)
        )
    return commands


def end_to_end(commands: List[Command]) -> Dict[str, float]:
    ok = [c for c in commands if c.error is None]
    by_instance: Dict[int, List[float]] = {}
    for command in ok:
        by_instance.setdefault(command.instance, []).append(command.wall_s)
    return {
        "wall_s": statistics.fmean(statistics.median(w) for w in by_instance.values()),
        "setup_s": statistics.median(c.setup_s for c in ok),
        "events_per_s": sum(c.events for c in ok) / sum(c.run_s for c in ok),
        "peak_rss_mb": statistics.median(c.result["rss_mb"] for c in ok),
    }


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _layer_metrics(command: Command) -> Dict[str, tuple]:
    """Per-layer metric -> (unit, value) for one traced command."""
    layers = command.result["layers"]
    self_s, calls, counts = layers["self_s"], layers["calls"], layers["counts"]
    runs = command.result["runs"]

    def total(key: str) -> int:
        return sum(run.get(key, 0) for run in runs)

    resolves, evaluations = total("resolves"), total("expr_evaluations")
    floodfills = calls.get("sharing.floodfill", 0)
    reported = ("des", "engine", "batch", "scheduler", "sharing.admit", "sharing.solve",
                "sharing.floodfill", "sharing.wake", "sharing.cancel", "sharing.flush",
                "expressions", "platform", "monitoring", "workload", "campaign")
    attributed = sum(self_s.get(layer, 0.0) for layer in reported)
    call_s = layers["scheduler_call_s"]
    return {
        "des.events": ("count", total("events")),
        "des.self_s": ("s", self_s.get("des", 0.0)),
        "engine.resumes": ("count", calls.get("engine", 0)),
        "engine.self_s": ("s", self_s.get("engine", 0.0)),
        "batch.calls": ("count", calls.get("batch", 0)),
        "batch.self_s": ("s", self_s.get("batch", 0.0)),
        "scheduler.invocations": ("count", calls.get("scheduler", 0)),
        "scheduler.busy_s": ("s", self_s.get("scheduler", 0.0)),
        "scheduler.call_p50_us": ("us", percentile(call_s, 50) * 1e6),
        "scheduler.call_p99_us": ("us", percentile(call_s, 99) * 1e6),
        "sharing.admitted": ("count", counts.get("admitted", 0)),
        "sharing.admit_s": ("s", self_s.get("sharing.admit", 0.0)),
        "sharing.resolves": ("count", resolves),
        "sharing.mean_solve_scope": (
            "activities", total("solved_activities") / resolves if resolves else 0.0),
        "sharing.max_solve_scope": (
            "activities", max((run.get("max_solve_scope", 0) for run in runs), default=0)),
        "sharing.solve_s": ("s", self_s.get("sharing.solve", 0.0)),
        "sharing.floodfill_calls": ("count", floodfills),
        "sharing.floodfill_visited": ("count", counts.get("floodfill_visited", 0)),
        "sharing.floodfill_s": ("s", self_s.get("sharing.floodfill", 0.0)),
        "sharing.splits": ("count", total("splits")),
        "sharing.split_yield": ("ratio", total("splits") / floodfills if floodfills else 0.0),
        "sharing.wakes": ("count", calls.get("sharing.wake", 0)),
        "sharing.wake_s": ("s", self_s.get("sharing.wake", 0.0)),
        "sharing.cancels": ("count", calls.get("sharing.cancel", 0)),
        "sharing.cancel_s": ("s", self_s.get("sharing.cancel", 0.0)),
        "sharing.flushes": ("count", calls.get("sharing.flush", 0)),
        "sharing.flush_s": ("s", self_s.get("sharing.flush", 0.0)),
        "expressions.evaluations": ("count", calls.get("expressions", 0)),
        "expressions.hit_rate": (
            "ratio", total("expr_hits") / evaluations if evaluations else 0.0),
        "expressions.busy_s": ("s", self_s.get("expressions", 0.0)),
        "platform.routes": ("count", calls.get("platform", 0)),
        "platform.route_s": ("s", self_s.get("platform", 0.0)),
        "monitoring.calls": ("count", calls.get("monitoring", 0)),
        "monitoring.busy_s": ("s", self_s.get("monitoring", 0.0)),
        "cli.import_s": ("s", command.result["import_s"]),
        "workload.build_s": ("s", self_s.get("workload", 0.0)),
        "campaign.scenarios": ("count", calls.get("sim", 0) if "campaign" in calls else 0),
        "campaign.overhead_s": ("s", self_s.get("campaign", 0.0)),
        "trace.wall_s": ("s", command.wall_s),
        "trace.unattributed_s": (
            "s", command.wall_s - command.result["import_s"] - attributed),
    }


def per_layer(commands: List[Command]) -> tuple[Dict[str, Dict[str, Any]], Optional[str]]:
    """Per-layer metrics: medians over traced commands for times, the
    counts of the first traced command (which every other must repeat)."""
    traced = [c for c in commands if c.traced and c.error is None]
    plain = [c for c in commands if not c.traced and c.error is None]
    per_command = [_layer_metrics(c) for c in traced]
    metrics: Dict[str, Dict[str, Any]] = {}
    problem = None
    for name, (unit, value) in per_command[0].items():
        values = [m[name][1] for m in per_command]
        if unit == "count":
            if len(set(values)) > 1:
                problem = f"{name} differs between traced commands: {values}"
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    overhead = (
        statistics.median(c.wall_s for c in traced) / statistics.median(c.wall_s for c in plain)
        - 1.0
    )
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics, problem


def load_expected(workload: Workload) -> Dict[str, Any]:
    return json.loads((HERE / "expected.json").read_text()).get(workload.name, {})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="benchmark seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running command
    # is killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd().resolve()
    needed = ("src/repro/__init__.py", "data/study_trace.swf")
    missing = [p for p in needed if not (root / p).is_file()]
    if missing:
        print(f"not the root of a checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed

    # Compile the sources once, so no measured command pays for bytecode.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")],
                   check=True, stdout=subprocess.DEVNULL)
    work = root / ".perfbench-work" / str(os.getpid())
    try:
        commands = measure(root, workload, seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = check(commands, workload, load_expected(workload))
    attempted = workload.simulations_per_command * len(commands)
    for command in commands:
        if command.error is not None:
            print(f"FAILED: {command.error}", file=sys.stderr)
    metrics: Dict[str, Dict[str, Any]] = {}
    wanted = {False, True} if args.trace else {False}
    complete = {c.traced for c in commands if c.error is None} == wanted
    if complete:
        if args.trace:
            metrics, problem = per_layer(commands)
            if problem is not None:
                print(f"FAILED: {problem}", file=sys.stderr)
                failed = max(failed, 1)
        else:
            metrics = {
                name: {"value": value, "unit": END_TO_END_UNITS[name]}
                for name, value in end_to_end(commands).items()
            }
    else:
        failed = attempted
    instances = sorted({c.instance for c in commands})
    print(f"workload {workload.name}, seed {seed}: {len(commands)} commands over "
          f"{len(instances)} instance(s), trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_fraction':28s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} simulations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
