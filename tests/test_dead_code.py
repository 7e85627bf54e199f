"""Every function, class and method in ``src/homsim`` has a caller outside
the tests.

A definition counts as used when its name is read (a bare name or an
attribute) somewhere in ``src/homsim`` outside its own body, in
``scripts/`` or in ``perfbench/``.  Imports and ``__all__`` strings do not
count, so a re-export alone keeps nothing alive.  The match is by name
only, which errs on the side of keeping a definition.  Dunder methods are
called by Python itself; ``coincidence`` and ``total_coincidence`` are the
single-point entries that the exact-oracle gates are written against.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALLOWED = {"coincidence", "total_coincidence"}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(tree: ast.AST) -> list[tuple[str, set[int]]]:
    """(name, ids of the definitions that enclose the read) of every name
    or attribute read in ``tree``."""
    out = []

    def visit(node, enclosing):
        if isinstance(node, _DEFS):
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name):
            out.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)
    visit(tree, frozenset())
    return out


def unreferenced() -> list[str]:
    defs, reads = [], []
    for path in sorted((ROOT / "src" / "homsim").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defs += [(path.stem, node) for node in ast.walk(tree) if isinstance(node, _DEFS)]
        reads += _reads(tree)
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            reads += _reads(ast.parse(path.read_text(), str(path)))
    readers: dict[str, list[set[int]]] = {}
    for name, enclosing in reads:
        readers.setdefault(name, []).append(enclosing)
    return [f"{module}.{node.name}" for module, node in defs
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in ALLOWED
            and all(id(node) in enclosing for enclosing in readers.get(node.name, []))]


def test_every_definition_has_a_caller_outside_the_tests():
    assert unreferenced() == []
