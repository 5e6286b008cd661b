"""Per-layer tracing from outside the package.

``Tracer.install`` replaces module-level names of the package with wrappers
that record one span per call (name, start, end, parent span, op id) and a
few counts read off arguments and results; ``uninstall`` puts the originals
back. Spans stay in memory until ``write_spans`` at the end of the run.

Self time of a span is its duration minus the durations of its direct
child spans, so summing self time per layer never counts a nanosecond twice.
"""

from __future__ import annotations

import gzip
from collections import defaultdict
from time import perf_counter

from pottsdecay import counting, decay, graph, sampling

ROOT_SPAN = "decay.root"


class Tracer:
    """Span recorder for one traced run; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counts = defaultdict(int)
        self._saved = []

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if name == ROOT_SPAN and stack and spans[stack[-1]][0] == ROOT_SPAN:
                # marginal_distribution -> marginal_vector: one root, not two.
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _patch(self, owner, attr, name, after=None):
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(name, fn, after))

    def install(self):
        c = self.counts

        def copied(args, out):
            c["graph.edges_copied"] += args[0].m

        def closure(args, out):
            c["blocks.closure.size_sum"] += len(out.vertices)

        def feasible(args, out):
            c["blocks.feasible.tuples"] += len(out)

        def root(counter=None):
            def after(args, out):
                diag = out[1]
                if counter is not None:
                    c[counter] += 1
                c["decay.recursive_calls"] += diag.recursive_calls
                c["decay.termination_events"] += diag.termination_events
                c["decay.max_block_size"] = max(c["decay.max_block_size"], diag.max_block_size)
                c["decay.max_f_size"] = max(c["decay.max_f_size"], diag.max_f_size)

            return after

        def batch(args, out):
            instance = args[0]
            c["sampling.conditionals_requested"] += len(out) * len(instance.unpinned())

        self._patch(graph.Graph, "remove_edges", "graph.remove_edges", copied)
        self._patch(graph.Graph, "induced_edges", "graph.induced_edges")
        self._patch(decay, "Instance", "model.instance")
        self._patch(decay, "minimal_permissive_block", "blocks.closure", closure)
        self._patch(decay, "feasible_tuples", "blocks.feasible", feasible)
        self._patch(decay, "escape_paths", "decay.escape_paths")
        self._patch(decay, "marginal_vector", ROOT_SPAN, root())
        self._patch(counting, "marg", ROOT_SPAN, root("counting.conditionals"))
        self._patch(counting, "marg_coloring", ROOT_SPAN, root("counting.conditionals"))
        self._patch(counting, "find_feasible_config", "counting.find_feasible")
        self._patch(counting, "estimate_partition", "counting.estimate")
        self._patch(
            sampling, "marginal_distribution", ROOT_SPAN, root("sampling.conditionals_computed")
        )
        self._patch(sampling, "sample_batch", "sampling.batch", batch)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_times(self):
        """Per span name: number of spans and total self seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[k]
        return calls, self_s

    def metrics(self):
        """Every per-layer metric, as {name: (value, unit)}."""
        calls, self_s = self.self_times()
        c = self.counts
        rec = c["decay.recursive_calls"]
        closures = calls["blocks.closure"]
        requested = c["sampling.conditionals_requested"]
        computed = c["sampling.conditionals_computed"]
        return {
            "graph.remove_edges.calls": (calls["graph.remove_edges"], "count"),
            "graph.remove_edges.self_s": (self_s["graph.remove_edges"], "s"),
            "graph.edges_copied": (c["graph.edges_copied"], "count"),
            "graph.induced_edges.calls": (calls["graph.induced_edges"], "count"),
            "graph.induced_edges.self_s": (self_s["graph.induced_edges"], "s"),
            "model.instance.calls": (calls["model.instance"], "count"),
            "model.instance.self_s": (self_s["model.instance"], "s"),
            "blocks.closure.calls": (closures, "count"),
            "blocks.closure.self_s": (self_s["blocks.closure"], "s"),
            "blocks.closure.mean_size": (
                c["blocks.closure.size_sum"] / closures if closures else 0.0,
                "vertices",
            ),
            "blocks.feasible.calls": (calls["blocks.feasible"], "count"),
            "blocks.feasible.self_s": (self_s["blocks.feasible"], "s"),
            "blocks.feasible.tuples": (c["blocks.feasible.tuples"], "count"),
            "decay.root.calls": (calls[ROOT_SPAN], "count"),
            "decay.root.self_s": (self_s[ROOT_SPAN], "s"),
            "decay.escape_paths.self_s": (self_s["decay.escape_paths"], "s"),
            "decay.recursive_calls": (rec, "count"),
            "decay.termination_events": (c["decay.termination_events"], "count"),
            "decay.termination_ratio": (
                c["decay.termination_events"] / rec if rec else 0.0,
                "ratio",
            ),
            "decay.eval_ratio": (closures / rec if rec else 0.0, "ratio"),
            "decay.max_block_size": (c["decay.max_block_size"], "vertices"),
            "decay.max_f_size": (c["decay.max_f_size"], "count"),
            "counting.conditionals": (c["counting.conditionals"], "count"),
            "counting.find_feasible.self_s": (self_s["counting.find_feasible"], "s"),
            "counting.self_s": (self_s["counting.estimate"], "s"),
            "sampling.conditionals_requested": (requested, "count"),
            "sampling.conditionals_computed": (computed, "count"),
            "sampling.prefix_hit_ratio": (
                1.0 - computed / requested if requested else 0.0,
                "ratio",
            ),
            "sampling.self_s": (self_s["sampling.batch"], "s"),
        }

    def write_spans(self, path):
        """Write spans as gzipped CSV: name,start_s,end_s,parent,op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
