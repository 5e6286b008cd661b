import ast
import itertools
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pottsdecay import (
    Block,
    BudgetError,
    Graph,
    Instance,
    ParseError,
    PottsError,
    PottsParams,
    e_delta_profile,
    feasible_tuples,
    first_feasible_tuple,
    generate_caterpillar,
    generate_complete,
    generate_gnp,
    generate_path,
    generate_star,
    minimal_permissive_block,
    monochromatic_edges,
    verify_locally_sparse,
)
from pottsdecay import blocks
from pottsdecay.blocks import _closure_sizes
from pottsdecay.saw import _saws


def _min_first_block(instance, seeds, block_budget=blocks.DEFAULT_BLOCK_BUDGET):
    """The minimal permissive block grown lowest-numbered candidate first,
    with the budget checked at each absorption: the reference that
    minimal_permissive_block, which grows through blocks._absorb, must match.
    """
    graph = instance.graph
    params = instance.params
    pinned = instance.pinned
    seeds = sorted(set(seeds))
    if not seeds:
        raise ParseError("block seed set must be non-empty")
    for s in seeds:
        if not (0 <= s < graph.n):
            raise ParseError(f"seed vertex {s} out of range")
        if s in pinned:
            raise ParseError(f"seed vertex {s} is pinned")
    inside = set(seeds)
    if len(inside) > block_budget:
        raise BudgetError(f"block budget {block_budget} exceeded by seed set")
    candidates = set()

    def scan(u):
        for w in graph.adjacency[u]:
            if w in inside or w in pinned:
                continue
            if graph.degree(w) > params.max_low_degree:
                candidates.add(w)

    for s in seeds:
        scan(s)
    while candidates:
        w = min(candidates)
        candidates.discard(w)
        inside.add(w)
        if len(inside) > block_budget:
            raise BudgetError(
                f"block budget {block_budget} exceeded growing from seeds {seeds}"
            )
        scan(w)
    return Block(inside, blocks._boundary_edges(graph, inside))


def _is_permissive(instance, vertices):
    inside = set(vertices)
    for u in inside:
        for w in instance.graph.adjacency[u]:
            if w in inside or w in instance.pinned:
                continue
            if instance.graph.degree(w) > instance.params.max_low_degree:
                return False
    return True


def test_block_fields():
    b = Block([3, 1], [(1, 0), (3, 4)])
    assert b.vertices == (1, 3)
    assert b.m == 2


def test_star_center_block_stays_singleton():
    # q=7 beta=0: leaves (degree 1) are low, center (degree 5) is high
    inst = Instance(generate_star(5), PottsParams(7, 0))
    b = minimal_permissive_block(inst, [0])
    assert b.vertices == (0,)
    assert b.m == 5
    assert b.boundary_edges == ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5))


def test_star_leaf_block_absorbs_center():
    inst = Instance(generate_star(5), PottsParams(7, 0))
    b = minimal_permissive_block(inst, [1])
    assert b.vertices == (0, 1)
    assert b.boundary_edges == ((0, 2), (0, 3), (0, 4), (0, 5))


def test_path_blocks_never_inflate():
    # path degrees <= 2 < threshold 4 at q=7
    inst = Instance(generate_path(20), PottsParams(7, 0))
    for l in range(6):
        b = minimal_permissive_block(inst, list(range(l + 1)))
        assert len(b.vertices) == l + 1


def test_complete8_block_swallows_graph():
    inst = Instance(generate_complete(8), PottsParams(3, 0))
    b = minimal_permissive_block(inst, [0])
    assert b.vertices == tuple(range(8))
    assert b.m == 0


def test_pinned_boundary_not_absorbed():
    # center is high-degree but pinned, so a leaf block keeps it outside
    inst = Instance(generate_star(5), PottsParams(7, 0), {0: 1})
    b = minimal_permissive_block(inst, [1])
    assert b.vertices == (1,)
    assert b.boundary_edges == ((1, 0),)


def test_block_seed_validation():
    inst = Instance(generate_path(3), PottsParams(3, 0), {0: 1})
    with pytest.raises(ParseError):
        minimal_permissive_block(inst, [])
    with pytest.raises(ParseError):
        minimal_permissive_block(inst, [9])
    with pytest.raises(ParseError):
        minimal_permissive_block(inst, [0])


def test_block_budget():
    inst = Instance(generate_complete(8), PottsParams(3, 0))
    with pytest.raises(BudgetError):
        minimal_permissive_block(inst, [0], block_budget=4)


@pytest.mark.parametrize("budget", ["x", None, -1, 2.0, True])
def test_budgets_are_checked(budget):
    # A negative budget is a ParseError, as for the oracles' budgets.
    inst = Instance(generate_path(3), PottsParams(7, 0))
    with pytest.raises(ParseError, match="block_budget"):
        minimal_permissive_block(inst, [0], budget)
    with pytest.raises(ParseError, match="config_budget"):
        feasible_tuples(inst, [0], budget)
    assert minimal_permissive_block(inst, [0], 1).vertices == (0,)
    with pytest.raises(BudgetError):
        feasible_tuples(inst, [0], 0)


def test_block_budget_stops_the_growth(monkeypatch):
    # Every vertex of gnp(300, 8) is high-degree at q = 3, so the closure of
    # vertex 0 is its whole component; a failing call absorbs at most
    # budget + 1 vertices of it, not the component.
    inst = Instance(generate_gnp(300, 8, seed=1), PottsParams(3, 0))
    absorb = blocks._absorb
    absorbed = []

    def counting(*args):
        new = absorb(*args)
        absorbed.extend(new)
        return new

    monkeypatch.setattr(blocks, "_absorb", counting)
    assert len(minimal_permissive_block(inst, [0], inst.graph.n).vertices) > 64
    for budget, seeds in ((1, [0]), (3, [0]), (64, [0]), (64, [5, 0, 9])):
        absorbed.clear()
        with pytest.raises(BudgetError, match="growing from seeds"):
            minimal_permissive_block(inst, seeds, budget)
        assert len(absorbed) == len(set(absorbed)) <= budget + 1


@pytest.mark.parametrize("seeds", [["a", 1], [[1]], [1, 2.5], [True]])
def test_seeds_checked_before_sorting(seeds):
    inst = Instance(generate_path(4), PottsParams(3, 0))
    with pytest.raises(ParseError, match="vertex must be an integer"):
        minimal_permissive_block(inst, seeds)


def _hub_connector(rng, hubs, connectors):
    """Hubs 0..hubs-1; each connector joins two distinct random hubs."""
    edges = []
    for c in range(connectors):
        a, b = rng.sample(range(hubs), 2)
        edges += [(a, hubs + c), (b, hubs + c)]
    return Graph(hubs + connectors, edges)


def _block_outcome(build, instance, seeds, budget):
    try:
        return build(instance, seeds, budget)
    except PottsError as err:
        return type(err), str(err)


def test_block_matches_min_first_reference():
    # minimal_permissive_block grows breadth-first through blocks._absorb and
    # stops once the closure passes its budget; every Block, and every
    # error's type and message, must be the min-first reference's.
    rng = random.Random(20261101)
    seen = Counter()
    for i in range(300):
        family = ("gnp", "hubs", "caterpillar")[i % 3]
        if family == "gnp":
            n = rng.randint(2, 30)
            graph = generate_gnp(n, min(n, rng.choice([2, 3, 4, 6])), seed=rng.randrange(2**16))
        elif family == "hubs":
            hubs = rng.randint(2, 8)
            graph = _hub_connector(rng, hubs, rng.randint(1, 4 * hubs))
        else:
            graph = generate_caterpillar(rng.randint(1, 8), rng.randint(0, 4))
        params = PottsParams(rng.randint(3, 7), rng.choice(["0", "0.25", "0.5"]))
        pins = {}
        if i % 2:
            for v in rng.sample(range(graph.n), rng.randint(1, max(1, graph.n // 4))):
                pins[v] = rng.randint(1, params.q)
        instance = Instance(graph, params, pins)
        seeds = rng.sample(range(graph.n), min(graph.n, rng.randint(1, 3)))
        budget = (0, 1, 3, 64, graph.n)[i % 5]
        got = _block_outcome(minimal_permissive_block, instance, seeds, budget)
        assert got == _block_outcome(_min_first_block, instance, seeds, budget)
        if isinstance(got, Block):
            seen["block", params.beta > 0, len(got.vertices) > len(seeds)] += 1
        elif "growing" in got[1]:
            seen["budget trips mid-growth"] += 1
        elif "seed set" in got[1]:
            seen["budget trips on the seeds"] += 1
        else:
            seen["pinned seed"] += 1
    # Blocks at beta = 0 and beta > 0, grown past their seeds or not, and
    # each of the three errors, every one at least 5 times.
    assert min(seen.values()) >= 5 and len(seen) == 7, seen


def test_closure_is_permissive_and_minimal():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(3, 9)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        inst = Instance(
            Graph(n, edges),
            PottsParams(rng.choice([3, 4, 5]), rng.choice(["0", "0.25"])),
            {},
        )
        seed = rng.randrange(n)
        b = minimal_permissive_block(inst, [seed])
        got = set(b.vertices)
        assert _is_permissive(inst, got)
        # minimal: contained in every permissive superset of the seed
        rest = [v for v in range(n) if v != seed]
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                cand = {seed, *extra}
                if _is_permissive(inst, cand):
                    assert got <= cand
                    break
            else:
                continue
            break


def test_feasible_tuples_star_block():
    inst = Instance(generate_star(5), PottsParams(7, 0))
    b = minimal_permissive_block(inst, [1])
    F = feasible_tuples(inst, b.vertices, 10**6)
    assert len(F) == 42  # ordered proper pairs on an edge with q=7
    assert F == sorted(F)
    assert all(t[0] != t[1] for t in F)


def test_feasible_tuples_forced_color():
    # v's two pinned neighbors use colors 1 and 2, so only color 3 remains
    g = Graph(3, [(0, 1), (1, 2)])
    inst = Instance(g, PottsParams(3, 0), {0: 1, 2: 2})
    F = feasible_tuples(inst, (1,), 100)
    assert F == [(3,)]
    assert first_feasible_tuple(inst, (1,)) == (3,)


def test_feasible_tuples_infeasible_block():
    inst = Instance(generate_complete(4), PottsParams(3, 0))
    F = feasible_tuples(inst, tuple(range(4)), 10**6)
    assert F == []
    assert first_feasible_tuple(inst, tuple(range(4))) is None


def test_feasible_tuples_beta_positive_includes_monochromatic():
    g = generate_path(2)
    inst = Instance(g, PottsParams(3, "0.5"))
    F = feasible_tuples(inst, (0, 1), 100)
    assert len(F) == 9  # every assignment is feasible at beta > 0
    assert (1, 1) in F


def test_feasible_tuples_beta_positive_singleton_is_a_fresh_list():
    inst = Instance(generate_path(3), PottsParams(4, "0.5"))
    F = feasible_tuples(inst, (1,), 100)
    assert F == [(1,), (2,), (3,), (4,)]
    F.append((9,))
    F[0] = (7,)
    assert feasible_tuples(inst, (1,), 100) == [(1,), (2,), (3,), (4,)]
    with pytest.raises(BudgetError):
        feasible_tuples(inst, (1,), 3)


def test_feasible_tuples_config_budget():
    inst = Instance(generate_complete(8), PottsParams(5, "0.5"))
    with pytest.raises(BudgetError):
        feasible_tuples(inst, tuple(range(8)), 1000)


def test_feasible_matches_brute_force():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 6)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        g = Graph(n, edges)
        beta = rng.choice(["0", "0.5"])
        q = rng.randint(3, 6) if beta == "0" else rng.choice([3, 4])
        pins = {v: rng.randint(1, q) for v in range(n) if rng.random() < 0.3}
        inst = Instance(g, PottsParams(q, beta), pins)
        verts = tuple(v for v in range(n) if v not in pins)
        if not verts:
            continue
        F = feasible_tuples(inst, verts, 10**6)
        expect = []
        for t in itertools.product(range(1, q + 1), repeat=len(verts)):
            colors = dict(pins)
            colors.update(zip(verts, t))
            sub = [
                e
                for e in g.edges
                if e[0] in colors and e[1] in colors
                and (e[0] in verts or e[1] in verts)
            ]
            mono = sum(1 for a, b in sub if colors[a] == colors[b])
            if inst.params.beta > 0 or mono == 0:
                expect.append(t)
        assert F == expect
        assert first_feasible_tuple(inst, verts) == (expect[0] if expect else None)
        if expect:
            with pytest.raises(BudgetError, match=f"budget {len(F) - 1} exceeded"):
                feasible_tuples(inst, verts, len(F) - 1)
            assert feasible_tuples(inst, verts, len(F)) == expect


def _cut_off_reference(inst, verts, vpos, budget):
    """(|F|, v's colours in F) from feasible_tuples, or its BudgetError."""
    try:
        F = feasible_tuples(inst, verts, budget)
    except BudgetError as err:
        return "BudgetError", str(err)
    return len(F), {t[vpos] for t in F}


def _cut_off_count(inst, verts, vpos, budget):
    """The count the recursion's beta = 0 cut-off asks the search for."""
    try:
        return blocks._backtrack_proper(inst, verts, budget, count_at=vpos)
    except BudgetError as err:
        return "BudgetError", str(err)


def test_cut_off_count_matches_feasible_tuples():
    # The cut-off reads |F| and the colours of v in F without building F;
    # it must agree with F itself, raise the same BudgetError at budget
    # |F| - 1 and pass at |F|, for every position of v.
    rng = random.Random(11)
    empty = budgets_hit = 0
    cases = [
        (Instance(generate_complete(4), PottsParams(3, 0)), (0, 1, 2, 3)),
        (Instance(generate_path(3), PottsParams(3, 0), {0: 1, 2: 2}), (1,)),
    ]
    for _ in range(300):
        n = rng.randint(2, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, [e for e in pairs if rng.random() < 0.5])
        q = rng.randint(3, 5)
        pins = {v: rng.randint(1, q) for v in range(n) if rng.random() < 0.3}
        free = [v for v in range(n) if v not in pins]
        if free:
            verts = tuple(sorted(rng.sample(free, rng.randint(1, len(free)))))
            cases.append((Instance(g, PottsParams(q, 0), pins), verts))
    for inst, verts in cases:
        n_f = len(feasible_tuples(inst, verts))
        empty += not n_f
        for vpos in range(len(verts)):
            for budget in {n_f - 1, n_f, 10**6} - {-1}:
                got = _cut_off_count(inst, verts, vpos, budget)
                assert got == _cut_off_reference(inst, verts, vpos, budget)
                budgets_hit += got[0] == "BudgetError"
    assert empty >= 2 and budgets_hit > 100


def test_feasible_tuples_empty_block():
    # no vertices: the one empty configuration, in both regimes
    g = generate_path(3)
    for beta in ("0", "0.5"):
        inst = Instance(g, PottsParams(3, beta), {0: 1})
        assert feasible_tuples(inst, ()) == [()]
        assert first_feasible_tuple(inst, ()) == ()


def test_verify_locally_sparse_exhaustive():
    g = generate_path(10)
    rep = verify_locally_sparse(g, PottsParams(7, 0), 3)
    assert rep["mode"] == "exhaustive"
    assert rep["worst_ratio"] == 1.0
    assert rep["paths_checked"] > 0
    assert rep["worst_block_size"] == len(rep["worst_path"])


def test_verify_locally_sparse_detects_inflation():
    # at q=4 every degree>=1 vertex is high, so closures swallow components
    g = generate_star(6)
    rep = verify_locally_sparse(g, PottsParams(4, 0), 1)
    assert rep["worst_ratio"] == 7.0  # singleton leaf walk swells to all 7
    assert rep["worst_block_size"] == 7


def test_verify_locally_sparse_sampled_reproducible():
    g = generate_gnp(60, 3, seed=4)
    r1 = verify_locally_sparse(g, PottsParams(17, 0), 4, mode="sampled", trials=80, seed=9)
    r2 = verify_locally_sparse(g, PottsParams(17, 0), 4, mode="sampled", trials=80, seed=9)
    assert r1 == r2
    assert r1["paths_checked"] == 80
    with pytest.raises(ParseError):
        verify_locally_sparse(g, PottsParams(17, 0), 4, mode="bogus")
    for bad in (-1, 2**128):
        with pytest.raises(ParseError, match="seed"):
            verify_locally_sparse(g, PottsParams(17, 0), 4, mode="sampled", seed=bad)
    for bad in (0, -3):
        with pytest.raises(ParseError, match="trials"):
            verify_locally_sparse(g, PottsParams(17, 0), 4, mode="sampled", trials=bad)


def test_verify_locally_sparse_walk_budget():
    g = generate_complete(9)
    with pytest.raises(BudgetError):
        verify_locally_sparse(g, PottsParams(3, "0.5"), 6, walk_budget=50)


def test_verify_locally_sparse_checks_every_walk_once():
    # e_delta_profile at delta = 1 counts walks with a walker of its own
    cases = [(generate_gnp(30, 3, seed=2), 4), (generate_complete(5), 4), (generate_star(6), 2)]
    for g, l_max in cases:
        rep = verify_locally_sparse(g, PottsParams(7, 0), l_max)
        counts = [sum(e_delta_profile(g, v, l_max, 1)) for v in range(g.n)]
        assert rep["paths_checked"] == sum(counts)


def test_verify_locally_sparse_long_walks():
    # 1100-edge walks are scanned without Python recursion; the budget stops them
    g = generate_path(1200)
    with pytest.raises(BudgetError, match="walk budget 1105"):
        verify_locally_sparse(g, PottsParams(7, 0), 1100, walk_budget=1105)


def _from_scratch_scan(graph, params, l_max):
    """The exhaustive scan with each walk's closure computed from scratch."""
    bare = Instance(graph, params, {})
    worst_ratio, worst_path, worst_block, checked = 0.0, (), 0, 0
    for v in range(graph.n):
        for walk in _saws(graph.adjacency, v, l_max):
            checked += 1
            size = len(_min_first_block(bare, set(walk), graph.n).vertices)
            if size / len(walk) > worst_ratio:
                worst_ratio, worst_path, worst_block = size / len(walk), tuple(walk), size
    return {
        "mode": "exhaustive",
        "l_max": l_max,
        "paths_checked": checked,
        "worst_ratio": worst_ratio,
        "worst_path": list(worst_path),
        "worst_block_size": worst_block,
    }


def test_verify_locally_sparse_incremental_closure_matches_from_scratch():
    # The exhaustive scan grows each closure along the walk and undoes it on
    # backtrack; every walk's closure size, and the report, must be the
    # from-scratch scan's.
    rng = random.Random(20261019)
    for _ in range(60):
        n = rng.randint(1, 11)
        g = generate_gnp(n, min(n, rng.choice([1, 2, 3, 4])), seed=rng.randrange(2**16))
        params = PottsParams(rng.randint(3, 7), rng.choice(["0", "0.25", "0.5"]))
        l_max = rng.randint(0, 5)
        bare = Instance(g, params, {})
        for v in range(n):
            sizes = [
                (tuple(w), k)
                for w, k in _closure_sizes(g.adjacency, params.max_low_degree, v, l_max)
            ]
            assert sizes == [
                (tuple(w), len(_min_first_block(bare, set(w), n).vertices))
                for w in _saws(g.adjacency, v, l_max)
            ]
        assert verify_locally_sparse(g, params, l_max) == _from_scratch_scan(g, params, l_max)


def _from_scratch_sampled(graph, params, l_max, trials, seed):
    """The sampled scan with each trial's closure from _min_first_block."""
    bare = Instance(graph, params, {})
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst_ratio, worst_path, worst_block = 0.0, (), 0
    for _ in range(trials):
        v = int(rng.integers(graph.n))
        walk = [v]
        visited = {v}
        while len(walk) - 1 < l_max:
            options = [w for w in graph.adjacency[walk[-1]] if w not in visited]
            if not options:
                break
            w = options[int(rng.integers(len(options)))]
            walk.append(w)
            visited.add(w)
        size = len(_min_first_block(bare, set(walk), graph.n).vertices)
        if size / len(walk) > worst_ratio:
            worst_ratio, worst_path, worst_block = size / len(walk), tuple(walk), size
    return {
        "mode": "sampled",
        "l_max": l_max,
        "paths_checked": trials,
        "worst_ratio": worst_ratio,
        "worst_path": list(worst_path),
        "worst_block_size": worst_block,
    }


def test_verify_locally_sparse_sampled_matches_from_scratch():
    # Sampled mode grows each trial's closure along its walk with
    # blocks._absorb; its report must be the from-scratch scan's.
    rng = random.Random(20261020)
    inflated = 0
    for _ in range(60):
        n = rng.randint(1, 40)
        g = generate_gnp(n, min(n, rng.choice([1, 2, 3, 4, 6])), seed=rng.randrange(2**16))
        params = PottsParams(rng.randint(3, 9), rng.choice(["0", "0.25", "0.5"]))
        l_max = rng.randint(0, 8)
        trials = rng.randint(1, 40)
        seed = rng.randrange(2**32)
        rep = verify_locally_sparse(g, params, l_max, mode="sampled", trials=trials, seed=seed)
        assert rep == _from_scratch_sampled(g, params, l_max, trials, seed)
        inflated += rep["worst_ratio"] > 1.0
    assert 10 <= inflated <= 50
    # The scan builds no Instance: blocks.py calls Instance nowhere (it
    # imports the class only to test an argument's type).
    tree = ast.parse(Path(blocks.__file__).read_text())
    called = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert "Instance" not in called
