"""Counted-cost guard for the recursion's hot path.

A timed benchmark run on a shared machine cannot resolve a 5% change in
speed, but the number of Python function calls a run makes is exact. This
test counts the `call` events that `sys.setprofile` reports during one
telescoped estimate on the partition-cycle regime (every block a singleton,
beta > 0), per evaluation of the recursion, and fails when the count rises
above the figure recorded here. A change that makes the hot path cheaper
lowers CALLS_PER_EVALUATION to its own figure; a change that must add calls
raises it and says why.

With the flat singleton kernel (`decay._lean_vector`) the run makes 3 888
calls for 404 evaluations; the evaluator it replaced made 5 786.
"""

import gc
import sys

from pottsdecay import PottsParams, estimate_partition, generate_cycle

CALLS_PER_EVALUATION = 3888 / 404


def test_calls_per_evaluation_stay_within_budget():
    graph = generate_cycle(60)
    params = PottsParams(4, "0.5")
    # The first run imports what numpy's seeded generator needs; only the
    # second is counted.
    estimate_partition(graph, params, L=8, order_seed=1)
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
        est = estimate_partition(graph, params, L=8, order_seed=1)
    finally:
        sys.setprofile(None)
        gc.enable()
    evaluations = est.diagnostics.evaluations
    assert calls / evaluations <= CALLS_PER_EVALUATION, (
        f"{calls} Python calls for {evaluations} evaluations, "
        f"{calls / evaluations:.3f} per evaluation > {CALLS_PER_EVALUATION:.3f}"
    )
