"""Partition-function estimation by telescoping conditional marginals.

Z equals the weight of any positive-weight anchor configuration divided by
the product of its sequential conditional marginals, each conditioned on the
previously fixed vertices. Substituting estimated marginals for exact ones
turns the identity into an estimator whose accuracy is controlled entirely
by the recursion depth.

Region-scoped conditionals. The step at v hands its conditional only the
earlier pins that decay._region_steps lists for v, so log Z and every
per-vertex marginal are those of the step that carries all earlier pins.
Each node of the recursion then copies and checks O(region) pins, not O(n).
The colour memo's held colours shrink to the region's, so its evaluations
and cache_hits may fall. One step Instance serves the whole pass: each step
replaces its pins with the step's region pins, which are the instance's
own, already checked, or anchor colours in 1..q, so no step builds an
Instance or checks its pins again (find_feasible_config grows its Instance
in place the same way). Each step still calls marg or marg_coloring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import DEFAULT_BLOCK_BUDGET, first_feasible_tuple, minimal_permissive_block
from .decay import (
    MargDiagnostics,
    _check_q,
    _depth,
    _limits,
    _region_steps,
    default_depth,
    marg,
    marg_coloring,
)
from .errors import InfeasibleError
from .model import (
    Configuration,
    Instance,
    _check_instance,
    _check_int,
    _check_seed,
    monochromatic_edges,
)


@dataclass
class PartitionEstimate:
    """Result of one telescoped run.

    diagnostics merges the MargDiagnostics of every conditional (counters
    summed, block and F sizes maxed; raw_sum stays None); exact is True when
    no conditional hit the depth limit, so log_z is exact up to rounding.
    """

    log_z: float
    anchor: Configuration
    per_vertex: list = field(default_factory=list)
    depth_used: int = 0
    anchor_log_weight: float = 0.0
    diagnostics: MargDiagnostics = field(default_factory=MargDiagnostics)

    @property
    def z(self):
        return math.exp(self.log_z)

    @property
    def exact(self):
        return self.diagnostics.termination_events == 0


def find_feasible_config(instance, block_budget=DEFAULT_BLOCK_BUDGET):
    """A positive-weight total configuration extending the pinning.

    beta > 0: color every unpinned vertex 1. beta = 0: walk the unpinned
    vertices in ascending id and, at each one not yet colored, close it into
    its minimal permissive block treating already-colored vertices as
    pinned, and give that block its first proper coloring (backtracking);
    low-degree leftovers end up as singleton blocks, which is exactly greedy
    list-coloring. One Instance is built and its pins grow in place, so the
    search is linear in n on a sparse graph. Raises InfeasibleError when a
    block has no proper coloring, and BudgetError when a block outgrows
    block_budget, which must be an integer >= 0 (ParseError) at every beta.
    """
    _check_instance(instance)
    params = instance.params
    _check_q(params)
    _check_int(block_budget, "block_budget", 0)
    if params.beta > 0:
        colors = {v: instance.pinned.get(v, 1) for v in range(instance.graph.n)}
        return Configuration(colors)
    for a, b in instance.graph.edges:
        ca = instance.pinned.get(a)
        if ca is not None and ca == instance.pinned.get(b):
            raise InfeasibleError(
                f"pinned endpoints of edge ({a}, {b}) share color {ca}"
            )
    # Every pin added below is a colour in 1..q that first_feasible_tuple
    # chose for a vertex of the graph, so none needs Instance's checks again.
    current = Instance(instance.graph, params, instance.pinned)
    for v in instance.unpinned():
        if v in current.pinned:
            continue
        block = minimal_permissive_block(current, (v,), block_budget)
        tup = first_feasible_tuple(current, block.vertices)
        if tup is None:
            raise InfeasibleError(
                f"no proper coloring of the block around vertex {v} "
                "is consistent with its surroundings"
            )
        current.pinned.update(zip(block.vertices, tup))
    return Configuration(current.pinned)


def estimate_partition(graph, params, L=None, pinned=None, order_seed=None, limits=None):
    """Estimate Z by telescoping estimated conditional marginals.

    Vertices are processed in ascending id, or in a reproducible random
    order when order_seed is given (useful as a self-consistency check:
    different orders must agree when the depth is generous). L defaults to
    ceil(3 ln n).
    """
    if order_seed is not None:
        _check_seed(order_seed, "order_seed")
    instance = Instance(graph, params, pinned)
    if L is None:
        L = default_depth(graph.n)
    depth = _depth(L)
    limits = _limits(limits)
    anchor = find_feasible_config(instance, limits.block_budget)
    full = {v: anchor[v] for v in range(graph.n)}
    mono = monochromatic_edges(graph, full)
    if params.beta == 0:
        anchor_log = 0.0
        if mono:
            raise InfeasibleError("anchor configuration is not proper")
    else:
        anchor_log = mono * math.log(params.beta_float)
    order = instance.unpinned()
    if order_seed is not None:
        rng = np.random.Generator(np.random.Philox(key=order_seed))
        order = [order[i] for i in rng.permutation(len(order))]
    estimate = marg if params.beta > 0 else marg_coloring
    log_z = anchor_log
    pins = dict(instance.pinned)
    per_vertex = []
    diagnostics = MargDiagnostics()
    # The region pins are the instance's own or anchor colours, so each step
    # sets them on one Instance without checking them again.
    step = Instance(graph, params)
    for v, region_pins in _region_steps(instance, order, depth):
        step.pinned = {u: pins[u] for u in region_pins}
        x = anchor[v]
        p, diag = estimate(step, v, x, depth, limits=limits)
        diagnostics.merge(diag)
        if p <= 0.0:
            raise InfeasibleError(
                f"conditional marginal vanished at vertex {v} under truncation"
            )
        log_z -= math.log(p)
        per_vertex.append((v, x, p))
        pins[v] = x
    return PartitionEstimate(
        log_z=log_z,
        anchor=anchor,
        per_vertex=per_vertex,
        depth_used=depth,
        anchor_log_weight=anchor_log,
        diagnostics=diagnostics,
    )
