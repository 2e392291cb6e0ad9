"""Partition upkeep on I/O-heavy workloads: work counters, not walls.

Small rows of the ROADMAP "I/O probe" (10 GB/s links, PFS at 20 GB/s,
half the jobs malleable, I/O on every job, ``malleable`` scheduler):
40 jobs on a 128-node fat-tree, where multi-hop routes make removals
really disconnect components, and 40 jobs on a 512-node star, where all
PFS traffic forms one component that never splits.

The run emits ``BENCH_io.json``.  Its columns ``events``, ``resolves``,
``splits``, ``floodfill_visits`` and ``connectivity_visits`` are
deterministic counts, so CI gates them against
``benchmarks/baselines/BENCH_io.json``: a removal path that flood-fills
components which stay connected shows up as a jump in
``floodfill_visits`` without any wall-clock measurement.  ``wall_s`` is
reported for reading only.
"""

import time

import pytest

from repro import Simulation, platform_from_dict
from repro.workload import WorkloadSpec, generate_workload

from benchmarks.common import print_table, write_bench_json

SEED = 5
NUM_JOBS = 40

_rows = []


def _probe_platform(num_nodes: int, topology: str):
    return platform_from_dict(
        {
            "name": f"io-{topology}-{num_nodes}",
            "nodes": {"count": num_nodes, "flops": 1e12},
            "network": {
                "topology": topology,
                "bandwidth": 10e9,
                "latency": 1e-6,
                "pfs_bandwidth": 50e9,
            },
            "pfs": {"read_bw": 20e9, "write_bw": 20e9},
        }
    )


def _probe_jobs():
    spec = WorkloadSpec(
        num_jobs=NUM_JOBS,
        mean_interarrival=10,
        max_request=32,
        mean_runtime=200,
        malleable_fraction=0.5,
        input_bytes_per_flop=1e-4,
        output_bytes_per_flop=1e-4,
        walltime_slack=float("inf"),
    )
    return generate_workload(spec, seed=SEED)


@pytest.mark.benchmark(group="io-partition")
@pytest.mark.parametrize("num_nodes,topology", [(128, "fat_tree"), (512, "star")])
def test_io_partition_counters(benchmark, num_nodes, topology):
    def run():
        sim = Simulation(_probe_platform(num_nodes, topology), _probe_jobs(), algorithm="malleable")
        start = time.perf_counter()
        sim.run()
        return sim, time.perf_counter() - start

    sim, wall = benchmark.pedantic(run, rounds=1, iterations=1)
    model = sim.batch.model
    _rows.append(
        [
            f"{NUM_JOBS} jobs / {num_nodes} nodes {topology}",
            sim.env.processed_events,
            model.resolves,
            model.splits,
            model.floodfill_calls,
            model.floodfill_visits,
            model.connectivity_checks,
            model.connectivity_visits,
            wall,
        ]
    )
    # The flood-fill runs only for removals that really disconnect.
    assert model.floodfill_calls == model.splits


_HEADER = [
    "configuration",
    "events",
    "resolves",
    "splits",
    "floodfill_calls",
    "floodfill_visits",
    "connectivity_checks",
    "connectivity_visits",
    "wall_s",
]


@pytest.mark.benchmark(group="io-partition")
def test_io_partition_report(benchmark):
    benchmark.pedantic(lambda: True, rounds=1, iterations=1)
    assert _rows, "the counter rows must run first"
    print_table(
        "I/O partition upkeep",
        _HEADER,
        _rows,
        note="counts are deterministic and gated in CI; wall_s is advisory",
    )
    write_bench_json("io", title="I/O partition upkeep", header=_HEADER, rows=_rows)
