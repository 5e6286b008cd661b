"""Self-test of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

1. Smoke: a one-op run of every workload, untraced and traced, prints a
   result line whose metrics are exactly the ones BENCHMARK.json names,
   with the same units.
2. Checks bite: corrupted outputs (a perturbed log Z, an improper sample,
   a non-finite log proposal, a marginal entry above its cap) fail their
   output check with no reference digest to fall back on; a float changed
   in its last bit fails the seed-1 digest; and a seed-2 run whose ops
   return a perturbed log Z exits 1 with "correct": false.
3. Traced counts repeat exactly across two traced runs of the same seed.
4. No op repeats a call: on the marginal workloads the first two graphs'
   ops query distinct (graph, vertex) pairs and the graphs differ, and the
   warm-up op lies outside the timed sequence.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import subprocess
import sys

from run import HERE, ROOT, WORKLOAD_NAMES, Runner, _load_package, _reference, main

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def smoke():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in WORKLOAD_NAMES:
            code, res = run_bench(
                "--workload", name, "--trace", str(trace), "--max-ops", "1"
            )
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(
                code == 0
                and set(res) == {"correct", "attempted", "failed", "metrics"}
                and res["correct"]
                and res["failed"] == 0
                and res["attempted"] >= 1
                and got == want
                and all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                f"smoke {name} --trace {trace}: every {key} metric with its unit",
            )


class _Fixed:
    """A workload whose every op returns one given output."""

    def __init__(self, workload, out):
        self.workload = workload
        self.out = out

    def prepare(self, i):
        pass

    def run(self, i):
        return self.out

    def check(self, out):
        return self.workload.check(out)

    def digest(self, out):
        return self.workload.digest(out)


def corrupt_one(name, mutate, ref):
    """Op 0 passes as returned and fails once mutate() changed its output."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    wl.setup(1)
    wl.prepare(0)
    out = wl.run(0)
    bad = copy.deepcopy(out)
    mutate(bad)
    return Runner(_Fixed(wl, out), ref).op(0)[1] and not Runner(_Fixed(wl, bad), ref).op(0)[1]


def _improper(batch):
    cfg = batch.configurations[0]
    cfg.assignment[1] = cfg.assignment[0]


def _last_bit(out):
    vec = out[1]
    vec[0] = math.nextafter(vec[0], math.inf)


def checks_bite():
    # No reference: the output checks alone must catch these.
    cases = [
        ("partition-cycle", "perturbed log Z", lambda e: setattr(e, "log_z", e.log_z + 1e-3)),
        ("sample-cycle", "improper sample", _improper),
        (
            "sample-cycle",
            "non-finite log proposal",
            lambda b: b.log_proposals.__setitem__(0, -math.inf),
        ),
        ("marginal-blocks", "marginal entry above its cap", lambda o: o[1].__setitem__(0, 1.0)),
    ]
    for name, what, mutate in cases:
        expect(corrupt_one(name, mutate, None), f"check catches {what} on {name}")
    # Only the seed-1 digest can catch a float that moved within tolerance.
    expect(
        corrupt_one("marginal-gnp2000", _last_bit, _reference("marginal-gnp2000", 1)),
        "digest catches a float changed in its last bit on marginal-gnp2000",
    )

    from pottsdecay import counting

    real = counting.estimate_partition

    def perturbed(*args, **kwargs):
        est = real(*args, **kwargs)
        est.log_z += 1e-3
        return est

    counting.estimate_partition = perturbed
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(
                ["--workload", "partition-cycle", "--seed", "2", "--max-ops", "2"]
            )
    finally:
        counting.estimate_partition = real
    res = json.loads(buf.getvalue().strip().splitlines()[-1])
    expect(
        code == 1 and res["correct"] is False and res["failed"] == 2,
        "a run with corrupted outputs exits 1 with correct=false",
    )


def trace_repeats():
    # Times and the traced/untraced time ratio vary; every other metric is a count.
    timed = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "s"} | {"trace.time_ratio"}
    for name in WORKLOAD_NAMES:
        runs = [
            run_bench("--workload", name, "--trace", "1", "--seed", "2", "--max-ops", "3")[1]
            for _ in range(2)
        ]
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if k not in timed} for r in runs
        ]
        expect(
            bool(counts[0]) and counts[0] == counts[1], f"traced counts repeat exactly on {name}"
        )


def no_replay():
    from workloads import OP_SLOTS, WARMUP_OP, WORKLOADS, MarginalWorkload, _op_key

    for name in WORKLOAD_NAMES:
        wl = WORKLOADS[name]()
        wl.setup(1)
        if isinstance(wl, MarginalWorkload):
            seen, edges = set(), []
            for i in range(2 * wl.n):
                wl.prepare(i)
                seen.add((wl.graph_index, wl.order[i % wl.n]))
                if i % wl.n == 0:
                    edges.append(sorted(wl.instance.graph.edges))
            wl.prepare(WARMUP_OP)
            ok = len(seen) == 2 * wl.n and edges[0] != edges[1] and wl.graph_index not in (0, 1)
        else:
            ok = _op_key(1, WARMUP_OP) == 2 * OP_SLOTS - 1 != _op_key(1, 0)
        expect(ok, f"no op repeats a call, warm-up outside the ops, on {name}")


if __name__ == "__main__":
    _load_package()
    smoke()
    checks_bite()
    trace_repeats()
    no_replay()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    sys.exit(1 if FAILURES else 0)
