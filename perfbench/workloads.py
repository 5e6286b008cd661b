"""Benchmark workloads: seeded inputs, the operation each one times, and the
checks applied to every operation's output.

Every input is a function of the workload seed alone. Operations are drawn
from a fixed, seed-determined sequence: op i is always the same call for a
given seed, so a slow or failing op is never skipped or re-drawn. No call is
repeated within a run, so a cache that outlives one call cannot gain from
replayed inputs; the untimed warm-up op WARMUP_OP is a call that no timed
op makes.

The package is looked up through module attributes at call time
(``decay.marginal_vector`` rather than a bound name), so the tracer in
``tracing.py`` sees these calls when it wraps them.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from pottsdecay import counting, decay, graph, model, sampling

LOGZ_TOLERANCE = 1e-6
# Op i's seeds live in [seed * OP_SLOTS, (seed + 1) * OP_SLOTS); the warm-up
# op -1 takes the last slot, which no timed op reaches.
OP_SLOTS = 1 << 32
WARMUP_OP = -1


class CheckFailed(Exception):
    """An operation returned an output that fails the workload's check."""


def _rng(seed, stream):
    # One Philox stream per (key, purpose); generate_gnp itself uses the bare key.
    return np.random.Generator(np.random.Philox(key=(seed << 8) | stream))


def _digest(floats, ints=()):
    h = hashlib.sha256()
    h.update(struct.pack(f"<{len(floats)}d", *floats))
    h.update(struct.pack(f"<{len(ints)}q", *ints))
    return h.hexdigest()[:16]


def _op_key(seed, i):
    return seed * OP_SLOTS + i % OP_SLOTS


def hub_connector_graph(n_hubs, hub_degree, seed):
    """Random hub/connector bipartite graph reproducible from the seed.

    Each hub gets hub_degree edges, each to its own connector vertex, and
    every connector joins two distinct hubs (a subdivided random
    hub_degree-regular multigraph). At q = 6 hubs are high-degree and
    connectors low-degree, so the block of a connector is itself plus its
    two hubs: the recursion meets 3-vertex blocks throughout, whatever the
    seed.
    """
    rng = _rng(seed, 2)
    stubs = np.repeat(np.arange(n_hubs), hub_degree)
    while True:
        pairs = stubs[rng.permutation(stubs.size)].reshape(-1, 2).tolist()
        if all(a != b for a, b in pairs):
            break
    edges = []
    for c, (a, b) in enumerate(pairs):
        edges.append((a, n_hubs + c))
        edges.append((b, n_hubs + c))
    return graph.Graph(n_hubs + len(pairs), edges)


class Workload:
    """Interface: setup(seed), prepare(i), run(i), check(out), digest(out)."""

    def prepare(self, i):
        """Build, untimed, whatever op i needs beyond set-up."""


class MarginalWorkload(Workload):
    """Op i: marginal_vector(inst_g, v, depth) over a stream of seeded graphs.

    Graph g of the stream has n vertices and serves ops g*n .. g*n + n - 1,
    one per vertex in a seeded order, so no vertex is queried twice in a
    run. Graph 0 is keyed by the seed itself (seed 1 gives criterion 9's
    instance on marginal-gnp2000) and graph g by seed + g * OP_SLOTS; the
    warm-up op falls on graph -1, which no timed op uses. prepare() builds
    the next graph between two ops, outside their timing, as set-up builds
    graph 0.
    """

    # trace_ops: ops in a traced run, sized so that its traced and untraced
    # passes take about 20 s together.
    # tail_percentile: the highest of 50/75/90/95/99 that leaves ten ops
    # beyond it at half the usual ops per 20 s run (see spec.json).

    def setup(self, seed):
        self.seed = seed
        self.graph_index = None

    @property
    def reference_ops(self):
        return self.n

    def prepare(self, i):
        g = i // self.n
        if g != self.graph_index:
            self.instance = None  # free the last graph first, so peak RSS holds one
            key = self.seed + (g % OP_SLOTS) * OP_SLOTS
            self.instance = model.Instance(self.build_graph(key), self.params)
            self.order = [int(v) for v in _rng(key, 1).permutation(self.n)]
            self.graph_index = g

    def run(self, i):
        v = self.order[i % self.n]
        vec, diag = decay.marginal_vector(self.instance, v, self.depth)
        return v, vec, diag

    def check(self, out):
        v, vec, diag = out
        cap = self.params.marginal_upper_bound(self.instance.graph.degree(v))
        if len(vec) != self.params.q:
            raise CheckFailed(f"vertex {v}: {len(vec)} entries for q={self.params.q}")
        for x in vec:
            if not 0.0 <= x <= cap:
                raise CheckFailed(f"vertex {v}: entry {x!r} outside [0, {cap!r}]")
        if not diag.raw_sum > 0.0:
            raise CheckFailed(f"vertex {v}: raw sum {diag.raw_sum!r} is not positive")
        return {}

    def digest(self, out):
        v, vec, diag = out
        return _digest(list(vec) + [diag.raw_sum], [v])


class MarginalGnp2000(MarginalWorkload):
    """Criterion 9's instance family: gnp(2000, 4), q = 17, beta = 0."""

    name = "marginal-gnp2000"
    params = model.PottsParams(17, 0)
    depth = 0
    n = 2000
    trace_ops = 800
    tail_percentile = 95

    def build_graph(self, key):
        return graph.generate_gnp(self.n, 4, key)


class MarginalBlocks(MarginalWorkload):
    """Hub/connector graph with 120 hubs of degree 4 (360 vertices), q = 6."""

    name = "marginal-blocks"
    params = model.PottsParams(6, 0)
    depth = 1
    n_hubs = 120
    n = n_hubs + n_hubs * 4 // 2
    trace_ops = 800
    tail_percentile = 95

    def build_graph(self, key):
        return hub_connector_graph(self.n_hubs, 4, key)


class PartitionCycle(Workload):
    """Op i: estimate_partition(cycle(200), q=4, beta=0.5, L=8, order_seed_i)."""

    name = "partition-cycle"
    reference_ops = 160
    trace_ops = 25
    tail_percentile = 75
    n = 200
    params = model.PottsParams(4, "0.5")
    depth = 8

    def setup(self, seed):
        self.graph = graph.generate_cycle(self.n)
        self.seed = seed
        q, b, n = self.params.q, self.params.beta_float, self.n
        # Z = (q-1+b)^n + (q-1)(b-1)^n, taken in log form to stay finite.
        self.log_z = n * math.log(q - 1 + b) + math.log1p(
            (q - 1) * ((b - 1) / (q - 1 + b)) ** n
        )

    def run(self, i):
        return counting.estimate_partition(
            self.graph, self.params, L=self.depth, order_seed=_op_key(self.seed, i)
        )

    def check(self, est):
        err = abs(est.log_z - self.log_z)
        if not err <= LOGZ_TOLERANCE:
            raise CheckFailed(f"|log Z_hat - log Z| = {err!r} > {LOGZ_TOLERANCE}")
        return {"logz_abs_err": err}

    def digest(self, est):
        return _digest([est.log_z] + [p for _, _, p in est.per_vertex])


class SampleCycle(Workload):
    """Op i: sample_batch(Instance(cycle(40), q=6, beta=0), L=4, 5 samples, seed_i)."""

    name = "sample-cycle"
    reference_ops = 160
    trace_ops = 20
    tail_percentile = 75
    params = model.PottsParams(6, 0)
    depth = 4
    n_samples = 5

    def setup(self, seed):
        self.instance = model.Instance(graph.generate_cycle(40), self.params)
        self.seed = seed

    def run(self, i):
        return sampling.sample_batch(
            self.instance, self.depth, self.n_samples, seed=_op_key(self.seed, i), threads=1
        )

    def check(self, batch):
        g = self.instance.graph
        q = self.params.q
        if len(batch) != self.n_samples or len(batch.log_proposals) != self.n_samples:
            raise CheckFailed(f"batch holds {len(batch)} samples, wanted {self.n_samples}")
        for cfg in batch.configurations:
            if sorted(cfg) != list(range(g.n)):
                raise CheckFailed("sample does not color every vertex exactly once")
            if any(not 1 <= cfg[v] <= q for v in range(g.n)):
                raise CheckFailed("sample uses a color outside 1..q")
            if any(cfg[a] == cfg[b] for a, b in g.edges):
                raise CheckFailed("sample is not a proper coloring")
        for lp in batch.log_proposals:
            if not math.isfinite(lp):
                raise CheckFailed(f"log proposal {lp!r} is not finite")
        return {}

    def digest(self, batch):
        ints = [cfg[v] for cfg in batch.configurations for v in range(self.instance.graph.n)]
        return _digest(list(batch.log_proposals), ints)


WORKLOADS = {
    cls.name: cls for cls in (MarginalGnp2000, MarginalBlocks, PartitionCycle, SampleCycle)
}
