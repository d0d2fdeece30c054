"""The package's public functions are the ones something outside the tests uses.

A top-level function of ``src/segment_bethe`` whose name has no leading
underscore must be referenced in the package outside its own definition,
exported by the package ``__init__``, or named inside backticks in README.
One that only the tests call belongs with the tests (``oracles``).  And no
module imports another module's private (underscore, not dunder) name: what
two modules share is public.  The sources are parsed, not imported.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _identifiers(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _exported(init: ast.Module) -> set:
    for node in init.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def orphans(root=ROOT) -> list:
    """``module.function`` for each public function nothing outside it uses."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((root / "src" / "segment_bethe").glob("*.py"))
    }
    spans = re.findall(r"(`+)(.+?)\1", (root / "README.md").read_text("utf-8"), re.S)
    allowed = _exported(trees["__init__"]) | {
        name for _, span in spans for name in re.findall(r"\w+", span)
    }
    # Each top-level statement's identifiers, collected once.
    statements = [
        (stem, node, set(_identifiers(node)))
        for stem, tree in trees.items()
        for node in tree.body
    ]
    out = []
    for stem, node, _ in statements:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        used = any(
            node.name in names
            for _, other, names in statements
            if other is not node
        )
        if not (used or node.name in allowed):
            out.append(f"{stem}.{node.name}")
    return out


def test_every_public_function_has_a_caller_outside_the_tests():
    assert orphans() == []


def private_imports(root=ROOT) -> list:
    """``module <- source.name`` for each private name a module imports from
    another module of the package."""
    out = []
    for path in sorted((root / "src" / "segment_bethe").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.level or (node.module or "").startswith("segment_bethe")):
                continue
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not name.endswith("__"):
                    out.append(f"{path.stem} <- {node.module}.{name}")
    return out


def test_no_module_imports_a_private_name_of_another():
    assert private_imports() == []
