"""pottsdecay benchmark: end-to-end op metrics, output checks, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py                      # all four workloads, seed 1
    python3 perfbench/run.py --workload partition-cycle --seed 3 --seconds 20
    python3 perfbench/run.py --workload sample-cycle --trace 1

Without --workload each workload runs in a fresh child process, one after
the other. With --workload the process measures that one workload as a
closed loop with one client and one thread: after set-up and one untimed
warm-up op (a call that no timed op makes) it runs ops back to back for
--seconds seconds (default: run_seconds in BENCHMARK.json), times each op,
and checks each op's output (see workloads.py). The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (see spec.json). setup_s is the
median time of fresh child processes that each import the package, build
the workload's inputs and run the warm-up op, then exit.

Speed correction. On a shared machine the CPU's speed drifts: a fixed
Python loop timed for 60 s in one process on a 2-vCPU Intel Xeon virtual
machine gave 5 s-window medians from 14.5 ms to 21.5 ms, and wall ops/s of
one seed varied by up to 40% between runs. So the timed loop also times a
fixed pure-Python calibration loop (no package code) about every 0.1 s, and
every reported time is the measured wall time scaled to a machine on which
that loop takes CAL_REF_S. The raw wall figures are printed next to the
scaled ones (wall_*). The scale is a property of the machine, not of the
program: a change to the package moves the scaled and wall figures alike.

--trace 1 runs a fixed list of ops (the first trace_ops ops of the seed's
sequence) traced, and reports per-layer counts and self times over it. A
fresh child process runs the same list untraced, so that neither pass sees
state the other left behind; the ratio of the two passes' speed-corrected
times is the tracing overhead. Self times are wall times. The spans go to
.perfbench_out/ as gzipped CSV. The fixed list makes every count repeat
exactly for a given seed.

The process exits 1 after printing the result when any op fails its output
check or raises a PottsError; any other exception aborts it with a
traceback and no result line.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("marginal-gnp2000", "marginal-blocks", "partition-cycle", "sample-cycle")
SETUP_SAMPLES = 3
# Speed correction (see the module docstring): the calibration loop runs
# CAL_WINDOW times before the timed loop and again whenever CAL_INTERVAL_S
# has passed since its last run. Each op's wall time is scaled by CAL_REF_S
# over the median of the CAL_WINDOW calibrations around it; CAL_REF_S is the
# loop's median time on the 2-vCPU Xeon VM the bounds were set on, so
# scaled times read as seconds there.
CAL_WINDOW = 5
CAL_INTERVAL_S = 0.1
CAL_REF_S = 0.0014
CHILD_TIMEOUT_S = 170


def _load_package():
    """Import the package from this checkout's src/, never from site-packages."""
    if not (SRC / "pottsdecay" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'pottsdecay'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import pottsdecay

    if Path(pottsdecay.__file__).resolve().parent != SRC / "pottsdecay":
        sys.exit(f"perfbench: imported pottsdecay from {pottsdecay.__file__}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--max-ops", type=int, default=None, help="stop after this many ops (smoke runs)"
    )
    p.add_argument("--child", choices=("setup", "untraced"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seed < 0 or args.seconds <= 0 or (args.max_ops is not None and args.max_ops < 1):
        p.error("--seed must be >= 0, --seconds > 0 and --max-ops >= 1")
    return args


def _nearest_rank(sorted_values, p):
    return sorted_values[max(math.ceil(p / 100 * len(sorted_values)), 1) - 1]


class Runner:
    """Runs ops of one workload and applies every output check."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.failures = []
        self.extras = []

    def op(self, i):
        """Run op i; return (seconds, ok). A PottsError or failed check is not ok."""
        from pottsdecay.errors import PottsError
        from workloads import CheckFailed

        self.workload.prepare(i)
        t0 = time.perf_counter()
        try:
            out = self.workload.run(i)
        except PottsError as exc:
            dt = time.perf_counter() - t0
            self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            return dt, False
        dt = time.perf_counter() - t0
        try:
            self.extras.append(self.workload.check(out))
            ref = self.reference
            if ref and i < len(ref):
                got = self.workload.digest(out)
                if got != ref[i]:
                    raise CheckFailed(f"digest {got} differs from reference {ref[i]}")
        except CheckFailed as exc:
            self.failures.append(f"op {i}: {exc}")
            return dt, False
        return dt, True


def _setup(name, seed):
    from workloads import WARMUP_OP, WORKLOADS

    wl = WORKLOADS[name]()
    wl.setup(seed)
    wl.prepare(WARMUP_OP)
    wl.run(WARMUP_OP)
    wl.prepare(0)
    return wl


def _setup_samples(name, seed):
    """Speed-corrected set-up times of SETUP_SAMPLES fresh processes.

    Each child times the calibration loop at its start and after set-up, so
    the correction uses the CPU speed the child itself saw.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed), "--child", "setup",
    ]
    walls, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE, text=True
        )
        cal = json.loads(proc.stdout)["calibration_s"]
        wall = time.perf_counter() - t0 - sum(cal)
        walls.append(wall)
        scaled.append(wall * CAL_REF_S / statistics.median(cal))
    return walls, scaled


def _setup_child(args):
    """Child side of _setup_samples: set up once, print the calibrations."""
    cal = [_time_calibration() for _ in range(CAL_WINDOW)]
    _load_package()
    _setup(args.workload, args.seed)
    cal += [_time_calibration() for _ in range(CAL_WINDOW)]
    print(json.dumps({"calibration_s": cal}))
    return 0


def _reference(name, seed):
    if seed != 1:
        return None
    return json.loads((HERE / "reference.json").read_text())[name]


def calibration_loop():
    """Fixed pure-Python work, no package code: dict, tuple and list traffic
    like the recursion's hot loops. Its time tracks the machine's speed."""
    counts = {}
    for i in range(1500):
        key = (i % 61, i % 53)
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def _time_calibration():
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def _timed_ops(runner, more, before=None):
    """Run ops 0, 1, ... while more(ops run so far) holds, timing the
    calibration loop between them (see the module docstring).

    Returns the ops as (wall seconds, ok, speed-corrected seconds) and the
    calibration timings.
    """
    cal = [_time_calibration() for _ in range(CAL_WINDOW)]
    ops = []  # (wall seconds, ok, index of the last calibration before the op)
    last_cal = time.perf_counter()
    while more(len(ops)):
        if before is not None:
            before(len(ops))
        dt, ok = runner.op(len(ops))
        ops.append((dt, ok, len(cal) - 1))
        if time.perf_counter() - last_cal >= CAL_INTERVAL_S:
            cal.append(_time_calibration())
            last_cal = time.perf_counter()

    def scale(j):
        # Median of the calibrations around index j: the machine's speed then.
        lo = max(j - CAL_WINDOW // 2, 0)
        return CAL_REF_S / statistics.median(cal[lo : lo + CAL_WINDOW])

    return [(dt, ok, dt * scale(j)) for dt, ok, j in ops], cal


def run_end_to_end(args):
    wl = _setup(args.workload, args.seed)
    setup_wall, setup = _setup_samples(args.workload, args.seed)
    runner = Runner(wl, _reference(args.workload, args.seed))
    start = time.perf_counter()
    ops, cal = _timed_ops(
        runner,
        lambda n: time.perf_counter() - start < args.seconds
        and (args.max_ops is None or n < args.max_ops),
    )
    scaled = [(sdt, ok) for _, ok, sdt in ops]
    lat = sorted(dt for dt, ok in scaled if ok)
    p = wl.tail_percentile
    wall = sorted(dt for dt, ok, _ in ops if ok)
    metrics = {
        "ops_per_s": (len(lat) / sum(dt for dt, _ in scaled), "1/s"),
        "op_p50_s": (_nearest_rank(lat, 50) if lat else math.nan, "s"),
        "op_tail_s": (_nearest_rank(lat, p) if lat else math.nan, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    notes = {
        "op_tail_percentile": f"p{p}",
        "op_count": len(lat),
        "ops_beyond_tail": len(lat) - math.ceil(p / 100 * len(lat)),
        "failed_frac": (len(ops) - len(lat)) / len(ops),
        "speed_scale_median": CAL_REF_S / statistics.median(cal),
        "wall_ops_per_s": len(wall) / sum(dt for dt, _, _ in ops),
        "wall_op_p50_s": _nearest_rank(wall, 50) if wall else math.nan,
        "wall_op_tail_s": _nearest_rank(wall, p) if wall else math.nan,
        "wall_setup_samples_s": [round(s, 4) for s in setup_wall],
    }
    errs = [e["logz_abs_err"] for e in runner.extras if "logz_abs_err" in e]
    if errs:
        notes["logz_abs_err"] = statistics.median(errs)
        notes["logz_abs_err_max"] = max(errs)
    return len(ops), runner.failures, metrics, notes


def _trace_ops(wl, args):
    return wl.trace_ops if args.max_ops is None else min(args.max_ops, wl.trace_ops)


def _untraced_child(args):
    """Child side of run_traced: the traced op list, untraced, in a fresh process."""
    wl = _setup(args.workload, args.seed)
    runner = Runner(wl, _reference(args.workload, args.seed))
    n_ops = _trace_ops(wl, args)
    ops, _ = _timed_ops(runner, lambda n: n < n_ops)
    print(json.dumps({"seconds": sum(sdt for _, _, sdt in ops), "failures": runner.failures}))
    return 0


def run_traced(args):
    from tracing import Tracer

    wl = _setup(args.workload, args.seed)
    runner = Runner(wl, _reference(args.workload, args.seed))
    n_ops = _trace_ops(wl, args)
    tracer = Tracer()
    tracer.install()
    try:
        ops, _ = _timed_ops(runner, lambda n: n < n_ops, lambda i: setattr(tracer, "op", i))
    finally:
        tracer.uninstall()
    traced = sum(sdt for _, _, sdt in ops)
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--max-ops", str(n_ops), "--child", "untraced",
    ]
    proc = subprocess.run(
        cmd, check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    child = json.loads(proc.stdout)
    untraced = child["seconds"]
    metrics = tracer.metrics()
    metrics["trace.time_ratio"] = (traced / untraced, "ratio")
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write_spans(spans)
    notes = {
        "traced_ops": n_ops,
        "trace.overhead_ops_per_s": n_ops / untraced - n_ops / traced,
        "spans": len(tracer.spans),
        "spans_file": str(spans),
    }
    return 2 * n_ops, runner.failures + child["failures"], metrics, notes


def run_all(args):
    """Each workload in a fresh child process; exit non-zero if any failed."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.max_ops is not None:
            cmd += ["--max-ops", str(args.max_ops)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except json.JSONDecodeError:
            results[name] = None  # the child aborted before its result line
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None):
    args = _parse(argv)
    if args.child == "setup":
        return _setup_child(args)
    _load_package()
    if args.child == "untraced":
        return _untraced_child(args)
    if args.workload is None:
        return run_all(args)
    run = run_traced if args.trace else run_end_to_end
    attempted, failures, metrics, notes = run(args)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    for key, value in notes.items():
        print(f"  {key:34s} {value}")
    for line in failures:
        print(f"  FAILED {line}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
