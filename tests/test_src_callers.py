"""Static scans of `src/subdepth`.

Every function, class and method defined there has a caller in `src/` or is
a target of the benchmark's per-layer tracing.  The scan is by name:

- a module-level function, or a function nested in a function or method,
  counts as called when its name appears under `src/` as a bare name or in
  an import, other than its own definition; an attribute such as
  `G.conjugacy_classes()` may name a method of the same name, so it does not
  count for the function;
- a method counts as called when its name appears as an attribute or an
  import: a bare name, such as the field `subgroup` of a dataclass, does not
  count for it.  Two methods that share a name cannot be told apart (a
  reference to one counts for both);
- a class counts as called when its name appears as a name, an attribute or
  an import;
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
    """(name, enclosing class or None, node, whether a method) for every def
    and class; a method is a def directly in a class body."""
    def walk(node, owner, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                is_class = isinstance(child, ast.ClassDef)
                yield child.name, owner, child, in_class and not is_class
                yield from walk(child, child.name if is_class else owner, is_class)
            else:
                yield from walk(child, owner, in_class)
    yield from walk(tree, None, False)


def _references(tree: ast.Module) -> tuple[set[str], set[str], set[str]]:
    """(bare names, imported names, attribute names)."""
    names, imports, attrs = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            imports.add(node.name.rpartition(".")[2])
    return names, imports, attrs


def test_every_src_definition_has_a_caller():
    names, imports, attrs = (set().union(*refs) for refs in
                             zip(*map(_references, _trees().values())))
    traced = _tracing_targets()

    def called(name, node, is_method):
        if isinstance(node, ast.ClassDef):
            return name in names or name in imports or name in attrs
        if is_method:
            return name in attrs or name in imports
        return name in names or name in imports

    orphans = [f"{module}:{node.lineno} {name}"
               for module, tree in _trees().items()
               for name, owner, node, is_method in _definitions(tree)
               if not called(name, node, is_method) and name not in ALLOWED
               and (owner, name) not in traced and owner not in ALLOWED
               and not (name.startswith("__") and name.endswith("__"))]
    assert orphans == [], "defined in src/ but never called there: " + ", ".join(orphans)


def test_src_has_no_assert_statement():
    found = [f"{module}:{node.lineno}"
             for module, tree in _trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], "assert statements in src/: " + ", ".join(found)
