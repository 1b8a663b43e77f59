"""Source checks on the package: runtime invariants must survive `python -O`,
which strips `assert`, no function keeps a local it never reads, and no
function, class or method goes unreferenced (no linter is installed to
catch dead stores or dead code)."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import covergames

SRC = Path(covergames.__file__).parent


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert found == [], f"assert and __debug__ code vanish under python -O: {found}"


def test_invariant_failure_exits_3_under_python_O():
    # a net radius at epsilon breaks Haver's delta < epsilon / 2 invariant
    script = (
        "from covergames import cli, haver\n"
        "haver.paired_delta = lambda eps, n: eps\n"
        "code, doc = cli.run(['demo', '--label', 'unit_interval_8', '--horizon', '2'])\n"
        "print(code, doc['checks'][-1]['name'])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.stdout.split() == ["3", "invariant"], out.stderr


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (*_FUNCTIONS, ast.Lambda, ast.ClassDef)


def _own_scope(func):
    """The nodes of a function's body, without those of nested definitions."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _unread_locals(func) -> set[str]:
    own = list(_own_scope(func))
    stored = {n.id for n in own if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    for n in own:
        if isinstance(n, (ast.Global, ast.Nonlocal)):
            stored -= set(n.names)
    # reads in nested definitions count: closures read the enclosing locals
    read = {
        n.id for n in ast.walk(func) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return stored - read - {"_"}


def test_package_functions_read_every_local_they_assign():
    found = [
        f"{path.name}:{node.lineno} {node.name}: {sorted(names)}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, _FUNCTIONS) and (names := _unread_locals(node))
    ]
    assert found == [], f"locals assigned but never read: {found}"


# the fixture API: writers and lookups that tests and tests/golden/freeze.py
# call, which no package code needs
FIXTURE_API = {
    "dump_json",
    "cover_to_json",
    "coverseq_to_json",
    "selections_to_json",
    "space_to_json",
    "SampledSpace.index_of",
    "SampledSpace.points",
    "detect_structure",
    "region_mask",
    "block_index",
}


def _definitions(tree):
    """(qualified name, bare name, is a method) of each top-level function
    and class and of each method defined directly in a top-level class;
    dunder methods run implicitly and are left out."""
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTIONS) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, True


def test_package_definitions_are_all_referenced():
    # the re-exports in __init__.py count as no reference
    trees = [
        ast.parse(path.read_text(), str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    ]
    # a method is reached as an attribute; a local variable of the same name
    # is no reference to it
    names, attrs = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    found = sorted(
        qualified
        for tree in trees
        for qualified, name, method in _definitions(tree)
        if name not in (attrs if method else names | attrs)
        and qualified not in FIXTURE_API
    )
    assert found == [], f"defined but referenced nowhere in the package: {found}"


def test_only_the_space_reads_first_axis_windows():
    # metric queries on the coordinate table have one owner: SampledSpace
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "space.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "axis0_window"
    ]
    assert found == [], f"axis0_window called outside space.py: {found}"


def test_only_the_space_reads_point_tuples():
    # every query reads the integer table: the Fraction tuples of
    # SampledSpace.points are built for the tests alone
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "space.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "points"
    ]
    assert found == [], f".points read outside space.py: {found}"


def test_only_covers_decides_containment():
    # containment has one decider, covers.containers: no other module calls
    # the kinds of evidence it combines
    evidence = {"_family_verdicts", "_family_contains", "_corner_verdicts"}
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "covers.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None))) in evidence
    ]
    assert found == [], f"containment decided outside covers.py: {found}"


def test_families_have_one_type():
    # every family is a BoxFamily: no code path asks whether it is one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and "BoxFamily" in ast.unparse(node.args[1])
    ]
    assert found == [], f"a family type is tested: {found}"


def _references(tree):
    """(enclosing top-level definition or None, node, name) of every name
    read, attribute and import in a module."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            yield getattr(top, "name", None), node, name


def test_only_the_block_builder_builds_block_families():
    # a block's families have one builder, screenability._block: only it
    # reaches the Cantor and point-isolating families, and no other module
    # witnesses a class
    families = {"_pointwise_family", "_cantor_level_family"}
    found = [
        f"{path.name}:{getattr(node, 'lineno', top)} {name}"
        for path in sorted(SRC.glob("*.py"))
        for top, node, name in _references(ast.parse(path.read_text(), str(path)))
        if (name in families and (path.name, top) != ("screenability.py", "_block"))
        or (name == "_witness_class" and path.name != "screenability.py")
    ]
    assert found == [], f"block families built outside screenability._block: {found}"
    # a BoxFamily is made by the block builders of screenability alone (and
    # as a subfamily by BoxFamily itself), and no other module reaches them
    builders = {"build_brick_grid", "_queried_family"}
    made = {
        (path.name, top.name)
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(), str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "BoxFamily"
    }
    allowed = {("screenability.py", b) for b in builders} | {("covers.py", "BoxFamily")}
    assert made and made <= allowed, f"BoxFamily made outside the block builders: {made}"
    reached = [
        f"{path.name}:{getattr(node, 'lineno', top)} {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "screenability.py"
        for top, node, name in _references(ast.parse(path.read_text(), str(path)))
        if name in {"_point_boxes", "_cantor_level_boxes", "_queried_family"}
    ]
    assert reached == [], f"box family builders reached outside screenability: {reached}"



def test_only_the_member_builder_queries_ball_members():
    # region members have one builder, covers._make_members: only it asks
    # the space for the members of balls (the complements' field of the same
    # name is read, never called), and no class has a query that answers
    # for one ball at a time
    calls = {
        (path.name, top.name)
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(), str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "balls"
    }
    assert calls == {("covers.py", "_make_members")}, calls
    single = [
        f"{path.name} {qualified}"
        for path in sorted(SRC.glob("*.py"))
        for qualified, name, method in _definitions(ast.parse(path.read_text(), str(path)))
        if method and name == "ball"
    ]
    assert single == [], f"a one-ball query is defined: {single}"
