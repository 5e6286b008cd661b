"""A max_calls abort on a colour that `decay._lean_vector` charges
without a memo.

At a singleton node, a boundary index whose children cannot read v's pin
evaluates one child and charges each further colour of F as a memo hit:
the subtree's calls, terminations and infeasible events, one cache hit, and
the limit check. A cap that lands on the k-th charge must abort there, with
the same partial diagnostics as the general path, which keeps every colour
in `_memo_child`.
"""

from dataclasses import asdict
from unittest import mock

import pytest

from pottsdecay import (
    BudgetError,
    Instance,
    PottsParams,
    RecursionLimits,
    decay,
    generate,
    marginal_vector,
)

PARAMS = PottsParams(4, "0.5")  # F is the whole palette: one child, three charges
GRAPH = generate("cycle", n=12)
ROOT_ELL = 3


def _abort(limits):
    with pytest.raises(BudgetError) as info:
        marginal_vector(Instance(GRAPH, PARAMS), 0, ROOT_ELL, limits)
    return str(info.value), asdict(info.value.diagnostics)


@pytest.mark.parametrize("k", [2, 3])
def test_cap_on_kth_charged_colour_matches_general_path(k):
    # Vertex 0's boundary edges run to 1 (index 0) and 11 (index 1). Index
    # 1's children lose edge (0, 11), so at depth 2 their read region is
    # 11, 10, 9, 8: it misses vertex 0, and the index is not keyed.
    g0 = GRAPH.remove_edges([(0, 1), (0, 11)])
    g1 = GRAPH.remove_edges([(0, 11)])
    assert 0 not in decay._read_region(g1, PARAMS, {0}, 11, ROOT_ELL - 1)
    _, first = marginal_vector(Instance(g0, PARAMS), 1, ROOT_ELL - 1)
    _, second = marginal_vector(Instance(g1, PARAMS), 11, ROOT_ELL - 1)
    assert second.recursive_calls > 1

    # The root, index 0's child, index 1's child, then k - 1 charges fit
    # under the cap; the k-th charge exceeds it.
    cap = 1 + first.recursive_calls + k * second.recursive_calls
    message, partial = _abort(RecursionLimits(max_calls=cap))
    assert message.startswith(f"recursion call budget {cap} exceeded")
    assert partial["recursive_calls"] == cap + second.recursive_calls
    assert partial["evaluations"] == 1 + first.evaluations + second.evaluations
    assert partial["cache_hits"] == first.cache_hits + second.cache_hits + k
    assert partial["termination_events"] == (
        first.termination_events + (k + 1) * second.termination_events
    )

    with mock.patch.object(decay, "_lean_vector", lambda *args: None):
        general = _abort(RecursionLimits(max_calls=cap))
    assert (message, partial) == general
