"""Write reference.json: the seed-1 output digest of each workload op.

    python3 perfbench/make_reference.py [workload ...]

A run at seed 1 compares the digest of every returned float with this file,
so a float that changes fails its op. Regenerate only in a change that says
which floats move and why. The file holds the first reference_ops ops of
each workload (on marginal workloads, every vertex of graph 0) and leaves
later ops to the output checks alone.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORKLOAD_NAMES, _load_package

def digests(name):
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    wl.setup(1)
    out = []
    for i in range(wl.reference_ops):
        wl.prepare(i)
        result = wl.run(i)
        wl.check(result)
        out.append(wl.digest(result))
    return out


def main(names):
    _load_package()
    path = HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    for name in names or WORKLOAD_NAMES:
        ref[name] = digests(name)
        print(f"{name}: {len(ref[name])} digests", flush=True)
    path.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
