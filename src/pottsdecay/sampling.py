"""Approximate Gibbs sampling by sequential conditional draws.

Each vertex in ascending id order gets a color drawn from the estimated
conditional distribution given everything sampled so far. With exact
conditionals this is a perfect Gibbs sampler; with truncated estimates the
output law is within a total-variation error controlled by the depth. This
sequential form is our reading of the standard counting-to-sampling
reduction; we implement the conditional chain directly rather than a
rejection scheme.

Reach-keyed cache. A depth-L estimate at v reads only the pins that
decay._region_steps lists for v, computed once per batch. A conditional is
keyed by v and the colours of those pins, relabelled in order of first
appearance (decay._canonical's rule, no colour held). A miss evaluates
marginal_distribution on the batch's one step Instance, whose pins it
replaces with the canonical region pins (palette colours on vertices of the
graph, so they need no check); every other pattern of the class reads the
vector back through the colour permutation, once, and is then stored under
its own key. This moves no float: the restricted instance reads exactly the
values the full one reads, the estimator is colour-equivariant bit for bit
(see decay's module docstring), and the normalising math.fsum does not
depend on order. The cache lives for one sample_batch call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decay import (
    _canonical,
    _check_q,
    _depth,
    _limits,
    _permute,
    _region_steps,
    marginal_distribution,
)
from .errors import InfeasibleError, ParseError, _check_seed
from .exact import exact_gibbs_table
from .model import Configuration, Instance, _check_instance, weight


@dataclass
class SampleBatch:
    """Configurations drawn by the sequential sampler, with bookkeeping.

    conditionals_evaluated counts the conditionals the batch computed (the
    cache's misses); termination_events sums the depth terminations of every
    drawn conditional, cache hits included, so it does not depend on the
    cache, and 0 certifies that every conditional was exact.
    """

    configurations: list = field(default_factory=list)
    seed: int = 0
    depth: int = 0
    log_proposals: list = field(default_factory=list)
    conditionals_evaluated: int = 0
    termination_events: int = 0

    def __len__(self):
        return len(self.configurations)


def _rng_for(seed, index):
    return np.random.Generator(np.random.Philox(key=(seed << 64) + index))


def _draw(vec, r):
    """The colour whose prefix sum of vec first passes the uniform r."""
    acc = 0.0
    last_positive = None
    for i, p in enumerate(vec):
        if p > 0.0:
            last_positive = i
            acc += p
            if r < acc:
                return i + 1
    if last_positive is None:
        raise InfeasibleError("conditional vector has no positive entry")
    return last_positive + 1


def sample_batch(instance, L, n_samples, seed, threads=1, limits=None):
    """Draw n_samples configurations with per-sample Philox streams.

    Sample i uses the stream keyed by (seed, i), so results are independent
    of batch splitting. seed must lie in [0, 2**64): the stream key is
    seed * 2**64 + i, below Philox's 2**128. Each conditional depends on
    every earlier draw, so the sampler runs on one thread; `threads` accepts
    only 1 and goes with ROADMAP item 1's "Pass no `threads=`" bullet.
    """
    _check_instance(instance)
    if isinstance(threads, bool) or not isinstance(threads, int) or threads != 1:
        raise ParseError(f"sample_batch runs on one thread, got threads={threads!r}")
    _check_q(instance.params)
    if isinstance(n_samples, bool) or not isinstance(n_samples, int) or n_samples < 1:
        raise ParseError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    _check_seed(seed, bits=64)
    depth = _depth(L)
    limits = _limits(limits)
    colours = range(1, instance.params.q + 1)
    # steps lists (v, the pinned vertices of v's read region, ascending) in
    # sampling order; entries[v] maps a pattern of colours on those vertices
    # to (v's conditional vector, its termination events).
    steps = _region_steps(instance, instance.unpinned(), depth)
    entries = {v: {} for v, _ in steps}
    # Each miss sets the canonical region pins, palette colours on vertices
    # of the graph, on this one Instance without checking them again.
    step = Instance(instance.graph, instance.params)
    batch = SampleBatch(seed=seed, depth=depth)
    for i in range(n_samples):
        # One uniform per step, drawn in one call: the same doubles, in the
        # same order, as one rng.random() per step.
        uniforms = _rng_for(seed, i).random(len(steps)).tolist()
        colors = dict(instance.pinned)
        logp = 0.0
        for (v, region_pins), r in zip(steps, uniforms):
            pat = tuple([colors[x] for x in region_pins])
            known = entries[v]
            entry = known.get(pat)
            if entry is None:
                canon, moves = _canonical(pat, (), colours)
                entry = known.get(canon)
                if entry is None:
                    step.pinned = dict(zip(region_pins, canon))
                    vec, diag = marginal_distribution(step, v, depth, limits=limits)
                    entry = known[canon] = (vec, diag.termination_events)
                    batch.conditionals_evaluated += 1
                if moves:
                    entry = known[pat] = (_permute(entry[0], moves), entry[1])
            vec, events = entry
            c = _draw(vec, r)
            logp += math.log(vec[c - 1])
            colors[v] = c
            batch.termination_events += events
        cfg = Configuration(colors)
        if instance.params.beta == 0 and weight(instance, cfg) <= 0.0:
            raise InfeasibleError("sampler produced an improper coloring")
        batch.configurations.append(cfg)
        batch.log_proposals.append(logp)
    return batch


def empirical_tv(batch, instance, budget=10**6):
    """Total-variation distance between the batch and the exact Gibbs law."""
    if not isinstance(batch, SampleBatch):
        raise ParseError(f"expected a SampleBatch, got {type(batch).__name__}")
    probs = exact_gibbs_table(instance, budget)
    n = instance.graph.n
    counts = {}
    for cfg in batch.configurations:
        key = tuple(cfg[v] for v in range(n))
        counts[key] = counts.get(key, 0) + 1
    total = len(batch.configurations)
    acc = 0.0
    for key, p in probs.items():
        acc += abs(counts.pop(key, 0) / total - p)
    for leftover in counts.values():
        acc += leftover / total
    return 0.5 * acc
