"""Every function, class and method defined in `src/subdepth` has a caller in
`src/` or is a target of the benchmark's per-layer tracing.

The scan is by name: a definition counts as called when its name appears
anywhere under `src/` as a name, an attribute or an import other than its own
definition.  So it cannot tell apart two methods that share a name (a
reference to one counts for both), and a function that only calls itself
counts as called.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "subdepth"

# kept without a caller in src/, besides dunders, which Python calls:
# ExactMatrix (a class here covers its methods), solve_kernel and rref, while
# the benchmark's tracing names solve_kernel and rref as targets; and
# CharacterTable.inner_product and subgroups_up_to_conjugacy, which the d(Q)
# character test and the sweep over subgroup classes (ROADMAP items 1 and 3)
# are to call
ALLOWED = {"ExactMatrix", "solve_kernel", "rref", "inner_product",
           "subgroups_up_to_conjugacy"}


def _tracing_targets() -> set[str]:
    """The last name of each (module, "attr" or "Class.method") target in
    TARGETS of bench/tracing.py."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "TARGETS":
            targets = ast.literal_eval(node.value)
            return {attr.rpartition(".")[2] for _, attr, _ in targets.values()}
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


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_src_definition_has_a_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = set().union(*(_references(t) for t in trees.values()))
    allowed = ALLOWED | _tracing_targets()
    orphans = [f"{module}:{node.lineno} {name}"
               for module, tree in trees.items()
               for name, owner, node in _definitions(tree)
               if name not in referenced and name not in allowed
               and owner not in ALLOWED
               and not (name.startswith("__") and name.endswith("__"))]
    assert orphans == [], "defined in src/ but never called there: " + ", ".join(orphans)
