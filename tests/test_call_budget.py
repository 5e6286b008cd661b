"""Counted-cost guard for the recursion's hot path.

A timed benchmark run on a shared machine cannot resolve a 5% change in
speed, but the number of Python function calls a run makes is exact. These
tests count the `call` events that `sys.setprofile` reports during one
telescoped estimate, per evaluation of the recursion, and fail when the
count rises above the figure recorded here. A change that makes the hot
path cheaper lowers a figure to its own; a change that must add calls
raises it and says why.

CALLS_PER_EVALUATION guards the partition-cycle regime (every block a
singleton, beta > 0). With the flat singleton kernel (`decay._lean_vector`),
the leaf rule answered inside `decay._node_vector`, breadth-first region
walks (`decay._read_region`) and one step Instance per telescoping pass, the
run makes 2 858 calls for 404 evaluations; with heap walks and an Instance
per step it made 3 081, with the leaf rule in a helper of its own 3 888, and
the evaluator before the kernel 5 786.

GENERAL_CALLS_PER_EVALUATION guards the general block path: a caterpillar
at q = 6 and beta = 0, whose spine vertices are high-degree, so blocks
reach five vertices and the colour memo serves most children. The run makes
72 845 calls for 179 evaluations, with the beta = 0 cut-off counting F in
`blocks._backtrack_proper` instead of building it through `feasible_tuples`;
building it, it made 73 430; with an Instance per telescoping step and a
generator in `decay._region_steps` 73 462, and with the leaf rule in a helper
of its own 79 341.
"""

import gc
import sys

from pottsdecay import PottsParams, estimate_partition, generate_caterpillar, generate_cycle

CALLS_PER_EVALUATION = 2858 / 404
GENERAL_CALLS_PER_EVALUATION = 72845 / 179


def _count_calls(graph, params, L):
    """The Python calls of one telescoped estimate, and its diagnostics."""
    # The first run imports what numpy's seeded generator needs; only the
    # second is counted.
    estimate_partition(graph, params, L=L, order_seed=1)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A garbage collection inside the run could call finalizers of objects
    # other tests left behind, so the collector waits until the count ends.
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        est = estimate_partition(graph, params, L=L, order_seed=1)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, est.diagnostics


def _assert_within(calls, diag, budget):
    evaluations = diag.evaluations
    assert calls / evaluations <= budget, (
        f"{calls} Python calls for {evaluations} evaluations, "
        f"{calls / evaluations:.3f} per evaluation > {budget:.3f}"
    )


def test_calls_per_evaluation_stay_within_budget():
    calls, diag = _count_calls(generate_cycle(60), PottsParams(4, "0.5"), 8)
    _assert_within(calls, diag, CALLS_PER_EVALUATION)


def test_general_path_calls_per_evaluation_stay_within_budget():
    calls, diag = _count_calls(generate_caterpillar(6, 1), PottsParams(6, 0), 4)
    # The run must take the general path, with multi-vertex blocks and
    # colour-memo hits.
    assert diag.max_block_size > 1 and diag.cache_hits > 0
    _assert_within(calls, diag, GENERAL_CALLS_PER_EVALUATION)
