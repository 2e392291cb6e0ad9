"""Record the expected outputs of benchmark instances into expected.json.

Run from the root of a checkout::

    python3 perfbench/record_expected.py                  # default and held-out seeds
    python3 perfbench/record_expected.py --seeds 1-10     # these benchmark seeds too

For every workload and every instance of the chosen benchmark seeds it
runs one command, as the benchmark does, and stores the result
fingerprints and processed events.  Existing entries must match what
is recorded now; a difference aborts without writing, since it means
the program's output changed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import run
from spread import parse_seeds
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="", help="benchmark seeds besides the defaults")
    parser.add_argument("--workload", action="append", help="limit to these workloads")
    args = parser.parse_args()

    root = Path.cwd().resolve()
    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text())
    work = root / ".perfbench-work" / "record"
    extra = parse_seeds(args.seeds) if args.seeds else []
    try:
        for workload in WORKLOADS.values():
            if args.workload and workload.name not in args.workload:
                continue
            entries = expected.setdefault(workload.name, {})
            seeds = [workload.default_seed, workload.held_out_seed, *extra]
            for instance in sorted({i for s in seeds for i in workload.instances(s)}):
                command = run.run_command(root, workload, instance, False, work, 600.0)
                if command.error is not None:
                    print(f"{workload.name} {instance}: {command.error}", file=sys.stderr)
                    return 1
                outcome = run.command_outcome(command)
                if entries.setdefault(str(instance), outcome) != outcome:
                    print(f"{workload.name} {instance}: output changed", file=sys.stderr)
                    return 1
                print(f"{workload.name} {instance}: {command.events} events", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
