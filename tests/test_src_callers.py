"""Static scans of `src/subdepth`.

Every function, class and method defined there has a caller in `src/` or is
a target of the benchmark's per-layer tracing.  The scan is by name:

- a module-level function counts as called when its name appears under
  `src/` as a bare name or in an import, other than its own definition; an
  attribute such as `G.conjugacy_classes()` may name a method of the same
  name, so it does not count for the function;
- a class or a method counts as called when its name appears as a name, an
  attribute or an import, so two methods that share a name cannot be told
  apart (a reference to one counts for both);
- a tracing target exempts only the definition it names, a module-level
  function or a method of the named class;
- a function that only calls itself counts as called.

No `assert` statement appears in `src/`: `python -O` would skip it, and a
failed check would exit 0.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "subdepth"

# kept without a caller in src/, besides dunders, which Python calls:
# ExactMatrix (a class here covers its methods), solve_kernel and rref, while
# the benchmark's tracing names solve_kernel and rref as targets
ALLOWED = {"ExactMatrix", "solve_kernel", "rref"}


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _tracing_targets() -> set[tuple]:
    """(class or None, name) of each (module, "attr" or "Class.method")
    target in TARGETS of bench/tracing.py."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "TARGETS":
            targets = ast.literal_eval(node.value)
            return {(owner or None, name) for owner, _, name in
                    (attr.rpartition(".") for _, attr, _ in targets.values())}
    raise LookupError("no TARGETS in bench/tracing.py")


def _definitions(tree: ast.Module):
    """(name, enclosing class or None, node) for every def and class."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield child.name, owner, child
                yield from walk(child, child.name if isinstance(child, ast.ClassDef)
                                else owner)
            else:
                yield from walk(child, owner)
    yield from walk(tree, None)


def _references(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(bare names and imported names, attribute names)."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names, attrs


def test_every_src_definition_has_a_caller():
    trees = _trees()
    refs = [_references(t) for t in trees.values()]
    names = set().union(*(n for n, _ in refs))
    attrs = set().union(*(a for _, a in refs))
    traced = _tracing_targets()

    def called(name, owner, node):
        if owner is None and not isinstance(node, ast.ClassDef):
            return name in names
        return name in names or name in attrs

    orphans = [f"{module}:{node.lineno} {name}"
               for module, tree in trees.items()
               for name, owner, node in _definitions(tree)
               if not called(name, owner, node) and name not in ALLOWED
               and (owner, name) not in traced and owner not in ALLOWED
               and not (name.startswith("__") and name.endswith("__"))]
    assert orphans == [], "defined in src/ but never called there: " + ", ".join(orphans)


def test_src_has_no_assert_statement():
    found = [f"{module}:{node.lineno}"
             for module, tree in _trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], "assert statements in src/: " + ", ".join(found)
