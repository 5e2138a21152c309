"""Every public name of the package, and every member of its public
classes, is reached by the program.

The modules and perfbench are parsed with ``ast``, not imported.  A name in
a module's ``__all__`` counts as reached when code reads it (as a name or an
attribute) in another package module or in perfbench, or in its own module
outside its own definition.  perfbench's tracer also reaches the attributes
named by the strings of ``spans.TARGETS``.  A module's top-level UPPER_CASE
constants, public or not, must be reached by the same rule.  A method or
property of a class named in ``__all__`` counts as reached when that code
reads it as an attribute outside its own definition.  Such a class defines no dunder
method but ``__post_init__``: operators and calls are read by no attribute
access, so they would escape the check.  Tests do not count: a name only
tests call is library surface no command, suite or workload uses, and a
table only tests read belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Public names, and members as "Class.member", kept although nothing in the
# program calls them.
ALLOWED = {
    "lattice_count_L": "the exact lattice counts of acceptance criterion 12",
    "report_from_json": "the inverse of report_to_json, checked by the JSON round trip",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defines(node: ast.stmt, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _attributes(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Attributes read in ``tree``, outside the subtree ``skip``."""
    reads, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            reads.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return reads


def _reads(tree: ast.Module, skip: str | None = None) -> set[str]:
    """Names and attributes read in ``tree``, outside the top-level
    definition of ``skip``."""
    names = set()
    for top in tree.body:
        if skip is not None and _defines(top, skip):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _assigned(tree: ast.Module, name: str) -> ast.expr | None:
    """The value of the top-level assignment to ``name``, if there is one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and _defines(node, name):
            return node.value
    return None


def _public(tree: ast.Module) -> list[str]:
    names = _assigned(tree, "__all__")
    return [e.value for e in names.elts] if names else []


def _constants(tree: ast.Module) -> list[str]:
    """The top-level UPPER_CASE names a module assigns."""
    return [t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets
            if isinstance(t, ast.Name) and t.id.lstrip("_").isupper()]


def _unreached() -> list[str]:
    """The public names, constants and "Class.member"s the program does not
    reach."""
    src = {p.name: _parse(p) for p in sorted((ROOT / "src" / "galoiscensus").glob("*.py"))}
    bench = {p.name: _parse(p) for p in sorted((ROOT / "perfbench").glob("*.py"))}
    targets = _assigned(bench["spans.py"], "TARGETS")
    traced = {part for row in targets.elts for part in row.elts[2].value.split(".")}
    bench_reads = set().union(traced, *map(_reads, bench.values()))
    unreached = []
    for name, tree in src.items():
        outside = set().union(bench_reads, *(_reads(t) for n, t in src.items() if n != name))
        for public in dict.fromkeys([*_public(tree), *_constants(tree)]):
            if public not in outside and public not in _reads(tree, skip=public):
                unreached.append(public)
    program = [*src.values(), *bench.values()]
    for tree in src.values():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in _public(tree)):
                continue
            for member in cls.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if member.name.startswith("__") and member.name.endswith("__"):
                    reached = member.name == "__post_init__"
                else:
                    reached = member.name in traced or any(
                        member.name in _attributes(t, skip=member) for t in program
                    )
                if not reached:
                    unreached.append(f"{cls.name}.{member.name}")
    return unreached


def test_every_public_name_is_reached():
    unreached = _unreached()
    assert [n for n in unreached if n not in ALLOWED] == []
    assert sorted(ALLOWED) == sorted(n for n in unreached if n in ALLOWED), "stale ALLOWED entry"
