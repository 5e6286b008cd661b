"""Sequential sampler sanity: distance to the true Gibbs law shrinks with n.

Draws batches of growing size from the estimated conditionals and measures
total variation against the exact Gibbs table (enumerated by brute force).
The sampler keys one Philox stream per sample index, so the small batches
are literal prefixes of the large ones; that is checked at the bottom
instead of just claimed.
"""

from pottsdecay import (
    Instance,
    PottsParams,
    empirical_tv,
    generate,
    monochromatic_edges,
    sample_batch,
)


def tv_scan(label, instance, depth, sizes, seed):
    print(f"{label} (seed {seed}):")
    print(f"  {'samples':>8}  {'empirical TV':>13}")
    for n in sizes:
        batch = sample_batch(instance, depth, n, seed)
        tv = empirical_tv(batch, instance)
        print(f"  {n:>8}  {tv:>13.4f}")
    print()


def main():
    tri = Instance(generate("cycle", n=3), PottsParams(3, 0))
    tv_scan("triangle, q=3, beta=0 (6 proper colorings)", tri,
            depth=4, sizes=(60, 600, 6000), seed=42)

    soft = Instance(generate("path", n=4), PottsParams(3, "0.5"))
    tv_scan("path(4), q=3, beta=1/2 (all 81 configurations)", soft,
            depth=8, sizes=(100, 1000, 10000), seed=5)

    # at beta > 0 improper configurations carry weight; here Z = 3 * 2.5^3
    # and the 24 proper colorings hold 24/46.875 = 51.2% of it, so the
    # sampler should produce clashes in just under half its draws
    batch = sample_batch(soft, 8, 2000, seed=5)
    mono = sum(
        1 for c in batch.configurations
        if monochromatic_edges(soft.graph, c) > 0
    )
    print(f"improper draws at beta=1/2: {mono} of {len(batch)} "
          f"(Gibbs puts 48.8% of its mass on clashing configurations)")

    big = sample_batch(tri, 4, 64, seed=42)
    small = sample_batch(tri, 4, 16, seed=42)
    assert big.configurations[:16] == small.configurations
    print("prefix stability: checked")


if __name__ == "__main__":
    main()
