"""Acceptance: the fuzzer catches a deliberately injected solver bug.

The mutation loosens the max-min loop's saturation tolerance from 1e-12
(relative, i.e. "saturated up to float drift") to 1e-1: resources with
up to 10% of their capacity left count as saturated and freeze their
users, robbing them of their last slice of bandwidth.

Every engine mode shares the one progressive-filling loop, so the
differential oracle compares the mutant with itself and stays silent
(asserted on the caught scenario below).  The ``maxmin`` oracle certifies
each solve independently — loads against capacities, and a bottleneck
for every activity below its bound — and is what flags it.

The test requires the whole kill chain to work: a bounded seed search
finds a triggering scenario, the full oracle stack reports it, and the
shrinker reduces it to a minimal reproducer (<= 3 jobs on <= 8 nodes)
that still fails under the mutant and passes on the clean engine.
"""

import inspect

import pytest

import repro.sharing.model as sharing_model
from repro.fuzz import check_scenario, generate_scenario, shrink_failure
from repro.fuzz.runner import FuzzFailure

#: The exact source line being mutated; if the kernel changes shape, this
#: assertion failing is the signal to re-derive the mutation, not to
#: delete the test.
SATURATION_LINE = "tol[res] = max(1e-12, 1e-12 * res.capacity)"
MUTATED_LINE = "tol[res] = max(1e-12, 1e-1 * res.capacity)"

SEED_SEARCH_BOUND = 50


@pytest.fixture()
def mutated_scalar_kernel(monkeypatch):
    source = inspect.getsource(sharing_model._solve_scalar)
    assert SATURATION_LINE in source, (
        "max-min kernel changed; update the injected mutation"
    )
    namespace = dict(vars(sharing_model))
    exec(  # noqa: S102 - building the mutant from audited source
        compile(source.replace(SATURATION_LINE, MUTATED_LINE),
                "<mutant>", "exec"),
        namespace,
    )
    monkeypatch.setattr(
        sharing_model, "_solve_scalar", namespace["_solve_scalar"]
    )


def _find_caught_case():
    for seed in range(SEED_SEARCH_BOUND):
        scenario = generate_scenario(seed)
        failures = check_scenario(scenario)
        if failures:
            return scenario, failures
    return None, None


def test_oracle_stack_catches_and_shrinks_mutant(mutated_scalar_kernel):
    scenario, failures = _find_caught_case()
    assert scenario is not None, (
        f"mutant survived {SEED_SEARCH_BOUND} fuzz seeds — the oracle "
        "stack lost its teeth"
    )
    assert [f.oracle for f in failures] == ["maxmin"]
    # Every lane runs the mutant: the differential oracle cannot see it.
    assert check_scenario(scenario, ["differential"]) == []

    small, evals = shrink_failure(
        FuzzFailure(
            seed=scenario["seed"],
            algorithm=scenario["algorithm"],
            scenario=scenario,
            failures=failures,
        )
    )
    jobs = small["workload"]["inline"]["jobs"]
    assert len(jobs) <= 3, f"reproducer kept {len(jobs)} jobs"
    assert small["platform"]["nodes"]["count"] <= 8, (
        f"reproducer kept {small['platform']['nodes']['count']} nodes"
    )
    # Still a reproducer under the mutant...
    assert any(f.oracle == "maxmin" for f in check_scenario(small, ["maxmin"]))


def test_clean_engine_passes_what_the_mutant_fails():
    # The same search space is oracle-clean without the mutation (the
    # smoke sweep covers breadth; this pins the specific seeds the
    # mutation test leans on).
    for seed in range(10):
        scenario = generate_scenario(seed)
        assert check_scenario(scenario, ["differential", "maxmin"]) == []
