"""Source hygiene: every name a package module imports is used in it, no
package module raises a bare ValueError (a PottsError subclass carries the
CLI's exit code), no package function calls itself by name (a walk that
recurses once per step fails on long walks with a bare RecursionError), the
CLI schemas list every MargDiagnostics counter, `pottsdecay.__all__` is
exactly, and only, what `__init__.py` imports, every package attribute
the benchmark's tracer (`perfbench/tracing.py`) patches exists, no
package module uses `functools.lru_cache` or `functools.cache`, no
package module but `graph.py` calls `Graph.__new__` (every graph view is
built by `graph._view`), `decay.py` builds an `Instance` in
`_node_vector` only and never calls `remove_edges` (a child of the
recursion is built in one place), `blocks.py` grows every closure
through `_absorb` and calls `min` nowhere (one closure step, in no
particular absorption order), and `decay._block_terms` calls
`escape_paths` and `induced_edges` outside every `if` (one code path for
every block shape), `decay._block_terms` alone calls `_memo_child` (the
colour memo has one home), `blocks._backtrack_proper` alone lists a
palette's candidate colours and serves `feasible_tuples`,
`first_feasible_tuple` and `decay._block_vector`'s cut-off (the
proper-colouring search has one home), `decay._node_vector` alone calls
`_lean_vector` and `_block_vector` (every call of the recursion enters
through one call step, which answers a leaf in its own frame), the
"q >= 3" check is written once, in `decay.py`, no function named in
`__all__` only indexes the result of another `__all__` name (one public
entry per quantity), and every module-level private function is named
by package code other than its own definition (no helper lives on for
tests alone).

The package's `__init__.py` is exempt from the import check (it imports to
re-export), and so are `from __future__` imports.
"""

import ast
import json
from pathlib import Path

import pytest

import pottsdecay
from pottsdecay import MargDiagnostics, counting, decay, graph, sampling

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pottsdecay"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_flags_unused_and_accepts_used():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import fsum, inf\n"
        "x = np.zeros(fsum([1.0]))\n"
    )
    assert _unused_imports(source) == [(2, "os"), (4, "inf")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(path.read_text())
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused
    )


def _bare_value_errors(source):
    """Lines that raise ValueError itself, called or not."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_bare_value_error_only():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('bad')\n"
        "    try:\n"
        "        g()\n"
        "    except ValueError:\n"
        "        raise\n"
        "    raise ParseError('bad')\n"
        "raise ValueError\n"
    )
    assert _bare_value_errors(source) == [3, 9]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_bare_value_error(path):
    lines = _bare_value_errors(path.read_text())
    assert not lines, f"{path.name}: bare ValueError raised at lines {lines}; raise ParseError"


def _self_calls(source):
    """Names of the functions whose bodies call them by name."""
    return sorted(
        f.name
        for f in ast.walk(ast.parse(source))
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == f.name
            for c in ast.walk(f)
        )
    )


def test_checker_flags_self_calls_only():
    source = (
        "def walk(path):\n"
        "    def rec(p):\n"
        "        return [rec(p[1:])] if p else []\n"
        "    return rec(path)\n"
        "def f(x):\n"
        "    return g(x) + x.f()\n"
    )
    assert _self_calls(source) == ["rec"]


# _fmt walks a report whose nesting is fixed by the CLI's own schemas.
SELF_CALLS_ALLOWED = {"cli._fmt"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_self_calls(path):
    names = {f"{path.stem}.{name}" for name in _self_calls(path.read_text())}
    extra = sorted(names - SELF_CALLS_ALLOWED)
    assert not extra, f"{path.name}: functions calling themselves: {extra}; keep a stack"


CACHE_NAMES = {"lru_cache", "cache"}


def _functools_caches(source):
    """Lines that import or name functools.lru_cache or functools.cache."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name in CACHE_NAMES for alias in node.names):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in CACHE_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_functools_caches_only():
    source = (
        "import functools\n"
        "from functools import lru_cache, partial\n"
        "from functools import cache as c\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def f(q):\n"
        "    return functools.reduce(max, [q], partial(int)())\n"
        "memo = functools.cache(f)\n"
        "cache = {}\n"
    )
    assert _functools_caches(source) == [2, 3, 4, 7]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_functools_caches(path):
    # Every cache of the package is scoped to one call (see ROADMAP.md); a
    # process-wide functools cache outlives it and hides from the benchmark.
    lines = _functools_caches(path.read_text())
    assert not lines, f"{path.name}: functools cache at lines {lines}; scope it to one call"


def _graph_new_lines(source):
    """Lines that name Graph.__new__."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr == "__new__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "Graph"
    )


def test_checker_flags_graph_new_only():
    source = (
        "view = Graph.__new__(Graph)\n"
        "make = Graph.__new__\n"
        "other = Block.__new__(Block)\n"
        "g = Graph(3, [])\n"
        "h = g.remove_edges([])\n"
    )
    assert _graph_new_lines(source) == [1, 2]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_graph_views_are_built_in_graph_only(path):
    lines = _graph_new_lines(path.read_text())
    if path.name == "graph.py":
        assert lines, "graph.py no longer builds views with Graph.__new__; update this check"
    else:
        assert not lines, f"{path.name}: Graph.__new__ at lines {lines}; use graph._view"


def _child_builds(source):
    """(line, name, function) of every call named Instance or remove_edges,
    plain or as an attribute; function is the innermost enclosing def's
    name, or None at module level."""
    found = []
    stack = [(ast.parse(source), None)]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in ("Instance", "remove_edges"):
                found.append((node.lineno, name, func))
        stack.extend((child, func) for child in ast.iter_child_nodes(node))
    return sorted(found)


def test_checker_finds_child_builds():
    source = (
        "def _node_vector(root):\n"
        "    return Instance(_view(root), p)\n"
        "def _block_terms(g):\n"
        "    h = g.remove_edges([])\n"
        "    def evaluate(c):\n"
        "        return Instance(h, p, c)\n"
        "    return model.Instance(h, p), InstanceError(h)\n"
        "x = Instance(g, p)\n"
    )
    assert _child_builds(source) == [
        (2, "Instance", "_node_vector"),
        (4, "remove_edges", "_block_terms"),
        (6, "Instance", "evaluate"),
        (7, "Instance", "_block_terms"),
        (8, "Instance", None),
    ]


def test_decay_builds_children_in_node_vector_only():
    builds = _child_builds((PACKAGE / "decay.py").read_text())
    assert builds, "decay.py builds no Instance; update this check"
    wrong = [b for b in builds if b[1:] != ("Instance", "_node_vector")]
    assert not wrong, f"decay.py builds children outside _node_vector: {wrong}"


def _calls_by_function(source):
    """{function: names it calls, plain or as an attribute}; function is the
    innermost enclosing def's name, or None at module level."""
    calls = {}
    stack = [(ast.parse(source), None)]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            calls.setdefault(func, set()).add(name)
        stack.extend((child, func) for child in ast.iter_child_nodes(node))
    return calls


def test_checker_maps_calls_to_functions():
    source = (
        "def grow(adj, seeds):\n"
        "    def pick(c):\n"
        "        return min(c)\n"
        "    return [_absorb(adj, s) for s in seeds], blocks._absorb(adj, 0)\n"
        "def idle():\n"
        "    return absorb\n"
        "x = max(1, 2)\n"
    )
    assert _calls_by_function(source) == {
        "grow": {"_absorb"},
        "pick": {"min"},
        None: {"max"},
    }


def test_blocks_grows_every_closure_through_absorb():
    calls = _calls_by_function((PACKAGE / "blocks.py").read_text())
    for name in ("minimal_permissive_block", "_closure_sizes", "verify_locally_sparse"):
        assert "_absorb" in calls.get(name, ()), f"blocks.{name} does not call _absorb"
    with_min = sorted(f for f, names in calls.items() if "min" in names)
    assert not with_min, f"blocks.py calls min in {with_min}; grow closures with _absorb"


def _callers(source, name):
    """The functions that call `name`, plain or as an attribute, sorted;
    None stands for module level."""
    calls = _calls_by_function(source)
    return sorted((f for f, names in calls.items() if name in names), key=str)


def test_checker_finds_memo_callers():
    source = (
        "def terms(g):\n"
        "    return [decay._memo_child(m, k) for k in g]\n"
        "def lean(g):\n"
        "    def inner():\n"
        "        return _memo_child(g)\n"
        "    return memo_child(g), _memo_children(g), _memo_child\n"
    )
    assert _callers(source, "_memo_child") == ["inner", "terms"]


def test_colour_memo_has_one_home():
    # _lean_vector declines a node whose children can read its pin, so it
    # evaluates no child through the colour memo.
    callers = _callers((PACKAGE / "decay.py").read_text(), "_memo_child")
    assert "_lean_vector" not in callers, "decay._lean_vector calls _memo_child"
    assert callers == ["_block_terms"]


def _palette_filters(source):
    """The functions, sorted, with a comprehension over the palette
    `range(1, ...)` filtered by a `not in` test: the start of a
    proper-colouring search's per-position candidate lists."""
    found = set()
    stack = [(ast.parse(source), None)]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif isinstance(node, ast.comprehension):
            it = node.iter
            palette = (
                isinstance(it, ast.Call)
                and getattr(it.func, "id", None) == "range"
                and len(it.args) == 2
                and getattr(it.args[0], "value", None) == 1
            )
            if palette and any(
                isinstance(c, ast.Compare) and isinstance(c.ops[0], ast.NotIn)
                for c in node.ifs
            ):
                found.add(func)
        stack.extend((child, func) for child in ast.iter_child_nodes(node))
    return sorted(found, key=str)


def test_checker_finds_palette_filters():
    source = (
        "def search(q, bn):\n"
        "    return [c for c in range(1, q + 1) if c not in bn]\n"
        "def other(q, bn, adj):\n"
        "    a = [c for c in range(q) if c not in bn]\n"
        "    b = [c for c in range(1, q + 1) if c in bn]\n"
        "    return a, b, [w for w in adj if w not in bn]\n"
        "x = {c for c in range(1, 5) if c not in (2,)}\n"
    )
    assert _palette_filters(source) == [None, "search"]


def test_proper_colouring_search_has_one_home():
    # One search lists each position's candidate colours. feasible_tuples,
    # first_feasible_tuple and the recursion's beta = 0 cut-off all run it.
    source = (PACKAGE / "blocks.py").read_text()
    assert _palette_filters(source) == ["_backtrack_proper"]
    assert _callers(source, "_backtrack_proper") == ["feasible_tuples", "first_feasible_tuple"]
    decay_callers = _callers((PACKAGE / "decay.py").read_text(), "_backtrack_proper")
    assert decay_callers == ["_block_vector"]


CALL_STEP = ("_lean_vector", "_block_vector")


def test_checker_finds_call_step_callers():
    source = (
        "def _node_vector(r):\n"
        "    return _lean_vector(r) or decay._block_vector(r)\n"
        "def _root_vector(r):\n"
        "    def evaluate(k):\n"
        "        return _lean_vector(k)\n"
        "    return _node_vector(r), _block_vector\n"
        "x = _block_vector(0)\n"
    )
    assert {name: _callers(source, name) for name in CALL_STEP} == {
        "_lean_vector": ["_node_vector", "evaluate"],
        "_block_vector": [None, "_node_vector"],
    }


def test_recursion_enters_through_node_vector():
    # One call step: the root, a lean node's children and the colour memo's
    # misses all call _node_vector, which counts the call, answers a leaf
    # and tries _lean_vector before the general path.
    source = (PACKAGE / "decay.py").read_text()
    for name in CALL_STEP:
        callers = _callers(source, name)
        assert callers == ["_node_vector"], f"decay.{name} is called from {callers}"


def _unreferenced_private_functions(sources):
    """The module-level private functions of {module: source} that no
    module names, as "module.function", sorted. A name counts when it is
    read as a plain name or an attribute anywhere in the sources; a def and
    an import are not reads, and neither is docstring text."""
    defined = []
    named = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return sorted(f"{m}.{f}" for m, f in defined if f not in named)


def test_checker_flags_unreferenced_private_functions_only():
    sources = {
        "a": (
            "from .b import _imported\n"
            "def _called():\n"
            "    return 1\n"
            "def _tests_only():\n"
            '    """Only the docstring of _tests_only names it."""\n'
            "def _read_by_attribute():\n"
            "    return 2\n"
            "def _imported_only():\n"
            "    return 3\n"
            "def public():\n"
            "    def _nested():\n"
            "        return 4\n"
            "    return _called() + b._read_by_attribute\n"
        ),
        "b": "from .a import _imported_only\ndef _imported():\n    return _imported\n",
    }
    assert _unreferenced_private_functions(sources) == ["a._imported_only", "a._tests_only"]


def test_every_private_function_is_named_by_package_code():
    # A helper that only tests still call (as a leaf rule folded into its
    # caller would be) is dead package code; delete it or inline it.
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    unreferenced = _unreferenced_private_functions(sources)
    assert not unreferenced, f"private functions no package code names: {unreferenced}"


def test_q_check_has_one_home():
    found = [p.name for p in MODULES for _ in range(p.read_text().count("needs q >= 3"))]
    assert found == ["decay.py"], f"the q >= 3 check is written in {found}"


def _unconditional_calls(source, function):
    """Names the top-level function `function` calls, plain or as an
    attribute, outside every if statement and conditional expression (and
    outside nested functions and lambdas, which it need not call)."""
    tree = ast.parse(source)
    stack = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == function]
    assert stack, f"no function {function}"
    stack = list(stack[0].body)
    names = set()
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.IfExp, ast.FunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            f = node.func
            names.add(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None))
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_checker_finds_unconditional_calls():
    source = (
        "def terms(g, b):\n"
        "    x = g.induced_edges(b) if b else ()\n"
        "    if len(b) == 1:\n"
        "        y = escape_paths(g, b)\n"
        "    else:\n"
        "        y = walk(g)\n"
        "    for i in range(3):\n"
        "        z = g.pos(i)\n"
        "    def inner():\n"
        "        return hidden()\n"
        "    return sorted(y)\n"
        "def other():\n"
        "    return escape_paths()\n"
    )
    assert _unconditional_calls(source, "terms") == {"range", "pos", "sorted"}


def test_block_terms_treats_every_block_alike():
    # One code path for every block: no shortcut skips the escape-path walk
    # or the internal-edge scan for a block of some shape.
    calls = _unconditional_calls((PACKAGE / "decay.py").read_text(), "_block_terms")
    missing = sorted({"escape_paths", "induced_edges"} - calls)
    assert not missing, f"decay._block_terms calls {missing} only under an if"


@pytest.mark.parametrize("schema", ["marginal", "partition"])
def test_schema_lists_every_diagnostics_key(schema):
    doc = json.loads((PACKAGE / "schemas" / f"{schema}.json").read_text())
    keys = doc["properties"]["diagnostics"]["properties"]
    assert set(keys) == set(MargDiagnostics().as_dict())


def test_all_is_sorted_and_unique():
    names = pottsdecay.__all__
    assert names == sorted(set(names))


def test_all_matches_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    assert len(imported) == len(set(imported))
    assert set(imported) == set(pottsdecay.__all__)


def test_all_names_importable():
    namespace = {}
    exec("from pottsdecay import *", namespace)
    assert all(name in namespace for name in pottsdecay.__all__)


def _called_name(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _index_wrappers(source, public):
    """Module-level functions named in `public` whose body, past a leading
    docstring and any `_check_*` calls, is one `return` of a subscripted
    call of another name in `public`."""
    found = []
    for f in ast.parse(source).body:
        if not isinstance(f, ast.FunctionDef) or f.name not in public:
            continue
        body = f.body[1:] if ast.get_docstring(f) is not None else f.body
        body = [
            s
            for s in body
            if not (
                isinstance(s, ast.Expr)
                and isinstance(s.value, ast.Call)
                and str(_called_name(s.value)).startswith("_check_")
            )
        ]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        value = body[0].value
        if (
            isinstance(value, ast.Subscript)
            and isinstance(value.value, ast.Call)
            and _called_name(value.value) in public - {f.name}
        ):
            found.append(f.name)
    return sorted(found)


def test_checker_flags_index_wrappers_only():
    source = (
        "def count(g, v, l):\n"
        "    'One length.'\n"
        "    _check_int(l, 'l', 0)\n"
        "    return profile(g, v, l)[l]\n"
        "def prob(inst, v, x):\n"
        "    return pkg.vector(inst, v)[x - 1]\n"
        "def profile(g, v, l):\n"
        "    return _sums(g, v, l)[0]\n"
        "def vector(inst, v):\n"
        "    check(v)\n"
        "    return profile(inst, v, 1)[0]\n"
        "def first(g):\n"
        "    return first(g)[0]\n"
        "def low(p, d):\n"
        "    return d <= p.max_low\n"
        "def _private(g):\n"
        "    return profile(g, 0, 1)[1]\n"
    )
    public = {"count", "prob", "profile", "vector", "first", "low"}
    assert _index_wrappers(source, public) == ["count", "prob"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_public_index_wrappers(path):
    # A public name that returns one entry of another public name's result
    # is a second entry for the same quantity: callers index the result.
    found = _index_wrappers(path.read_text(), set(pottsdecay.__all__))
    assert not found, f"{path.name}: {found} only index another public name's result"


def _patch_points(source):
    """(owner, attribute) of every self._patch(owner, "attr", ...) call."""
    return [
        (ast.unparse(node.args[0]), node.args[1].value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_patch"
        and isinstance(node.args[1], ast.Constant)
    ]


def test_checker_finds_patch_points():
    source = (
        "def install(self):\n"
        "    self._patch(graph.Graph, 'remove_edges', 'graph.remove_edges', copied)\n"
        "    self._patch(decay, 'Instance', 'model.instance')\n"
        "    self._wrap('x', f)\n"
    )
    assert _patch_points(source) == [("graph.Graph", "remove_edges"), ("decay", "Instance")]


PATCH_OWNERS = {
    "graph.Graph": graph.Graph,
    "decay": decay,
    "counting": counting,
    "sampling": sampling,
}


def test_tracer_patch_points_exist():
    # A refactor that drops a patched name breaks the traced benchmark run.
    points = _patch_points((ROOT / "perfbench" / "tracing.py").read_text())
    assert points
    missing = [
        f"{owner}.{attr}"
        for owner, attr in points
        if owner not in PATCH_OWNERS or not hasattr(PATCH_OWNERS[owner], attr)
    ]
    assert not missing, f"tracer patches names the package lacks: {missing}"
