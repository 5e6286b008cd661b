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
marginal_distribution on an instance holding only the canonical region
pins; every other pattern of the class reads the vector back through the
colour permutation, once, and is then stored under its own key.
This moves no float: the restricted instance reads exactly the values the
full one reads, the estimator is colour-equivariant bit for bit (see
decay's module docstring), and the normalising math.fsum does not depend on
order. The cache lives for one sample_batch call.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .decay import (
    RecursionLimits,
    _canonical,
    _depth,
    _permute,
    _region_steps,
    marginal_distribution,
)
from .errors import InfeasibleError, ParseError
from .exact import exact_gibbs_table
from .model import Configuration, Instance, _check_seed, weight


@dataclass
class SampleBatch:
    """Configurations drawn by the sequential sampler, with bookkeeping.

    conditionals_evaluated counts the conditionals the batch computed (the
    cache's misses); termination_events sums the depth terminations of every
    drawn conditional, cache hits included, so it does not depend on the
    cache, and 0 certifies that every conditional was exact. Neither depends
    on the thread count: a miss is computed under the batch's lock, once.
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


class _ReachCache:
    """The conditionals of one sample_batch call, keyed by reach.

    steps lists (v, the pinned vertices of v's read region, ascending) in
    sampling order. entries[v] maps a pattern of colours on those vertices
    to (v's conditional vector, its termination events). Only canonical
    patterns are computed, on an instance pinned on the region alone; any
    other pattern is read back from its canonical one through the colour
    permutation and stored under its own key, so a repeated pattern costs
    one lookup. A computation holds the lock, so each canonical pattern is
    computed once whatever the thread count.
    """

    def __init__(self, instance, depth, limits):
        self.instance = instance
        self.depth = depth
        self.limits = limits
        self.colours = range(1, instance.params.q + 1)
        # bytes keys keep the batch's keys out of CPython's small-tuple free
        # lists, which grow peak memory; a colour fits in a byte if q < 256.
        self.key = bytes if instance.params.q < 256 else tuple
        self.lock = threading.Lock()
        self.steps = _region_steps(instance, instance.unpinned(), depth)
        self.entries = {v: {} for v, _ in self.steps}

    def conditional(self, v, region_pins, colors):
        """v's conditional vector given the sampled colors, its termination
        events, and whether this request computed it."""
        pat = [colors[x] for x in region_pins]
        entries = self.entries[v]
        key = self.key(pat)
        entry = entries.get(key)
        if entry is not None:
            return entry[0], entry[1], False
        canon, moves = _canonical(pat, (), self.colours)
        canon_key = self.key(canon)
        entry = entries.get(canon_key)
        missed = False
        if entry is None:
            with self.lock:
                entry = entries.get(canon_key)
                if entry is None:
                    pins = dict(zip(region_pins, canon))
                    step = Instance(self.instance.graph, self.instance.params, pins)
                    vec, diag = marginal_distribution(step, v, self.depth, limits=self.limits)
                    entry = entries[canon_key] = (vec, diag.termination_events)
                    missed = True
        if moves:
            entry = entries[key] = (_permute(entry[0], moves), entry[1])
        return entry[0], entry[1], missed


def _draw(vec, rng):
    r = float(rng.random())
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


def _sample_one(cache, rng):
    """One configuration, its log proposal, misses and termination events."""
    instance = cache.instance
    colors = dict(instance.pinned)
    logp = 0.0
    evaluated = terminations = 0
    for v, region_pins in cache.steps:
        vec, events, missed = cache.conditional(v, region_pins, colors)
        c = _draw(vec, rng)
        logp += math.log(vec[c - 1])
        colors[v] = c
        evaluated += missed
        terminations += events
    cfg = Configuration(colors)
    if instance.params.beta == 0 and weight(instance, cfg) <= 0.0:
        raise InfeasibleError("sampler produced an improper coloring")
    return cfg, logp, evaluated, terminations


def sample_batch(instance, L, n_samples, seed, threads=1, limits=None):
    """Draw n_samples configurations with per-sample Philox streams.

    Sample i uses the stream keyed by (seed, i), so results are independent
    of batch splitting and of the thread count. seed must lie in
    [0, 2**64): the stream key is seed * 2**64 + i, below Philox's 2**128.
    """
    if instance.params.q < 3:
        raise ParseError("the estimator needs q >= 3")
    if n_samples < 1:
        raise ParseError("n_samples must be >= 1")
    _check_seed(seed, bits=64)
    depth = _depth(L)
    cache = _ReachCache(instance, depth, limits or RecursionLimits())

    def one(i):
        return _sample_one(cache, _rng_for(seed, i))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, range(n_samples)))
    else:
        results = [one(i) for i in range(n_samples)]
    return SampleBatch(
        configurations=[r[0] for r in results],
        seed=seed,
        depth=depth,
        log_proposals=[r[1] for r in results],
        conditionals_evaluated=sum(r[2] for r in results),
        termination_events=sum(r[3] for r in results),
    )


def empirical_tv(batch, instance, budget=10**6):
    """Total-variation distance between the batch and the exact Gibbs law."""
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
