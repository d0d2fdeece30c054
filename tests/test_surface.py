"""The package's public functions are the ones something outside the tests uses.

A top-level function of ``src/segment_bethe`` whose name has no leading
underscore must be referenced in the package outside its own definition,
or named in a script under ``bench/`` or ``tools/``; an export from the
package ``__init__`` or a mention in README alone does not keep it.  One
that only the tests call belongs with the tests (``oracles``).  No
module imports another module's private (underscore, not dunder) name: what
two modules share is public.  And every defaulted parameter of the package
is set by some call outside the tests: a value or calling mode that only
the tests choose is not an option of the package.  The sources are parsed,
not imported.
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


def orphans(root=ROOT) -> list:
    """``module.function`` for each public function nothing outside it uses."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((root / "src" / "segment_bethe").glob("*.py"))
    }
    scripts = sorted((root / "bench").glob("*.py"))
    scripts += sorted((root / "tools").glob("*.py"))
    named = {w for path in scripts for w in re.findall(r"\w+", path.read_text("utf-8"))}
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
        if not (used or node.name in named):
            out.append(f"{stem}.{node.name}")
    return out


def test_every_public_function_has_a_caller_outside_the_tests():
    assert orphans() == []


def test_an_export_or_readme_mention_alone_keeps_no_function(tmp_path):
    files = {
        "src/segment_bethe/__init__.py": (
            "from .mod import exported\n__all__ = ['exported']\n"
        ),
        "src/segment_bethe/mod.py": (
            "def exported(): pass\n"
            "def mentioned(): pass\n"
            "def scripted(): pass\n"
            "def called(): pass\n"
            "def _caller(): return called()\n"
        ),
        "README.md": "`mentioned()` and `exported()`\n",
        "bench/run.py": "LAYERS = ['mod.scripted']\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert orphans(tmp_path) == ["mod.exported", "mod.mentioned"]


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


def _definitions(tree: ast.Module):
    """``(callee, qualname, fn, method)`` for every function and method of a
    module.  A call reaches ``__init__`` by its class's name."""
    stack = [(node, None) for node in tree.body]
    while stack:
        node, cls = stack.pop()
        if isinstance(node, ast.ClassDef):
            stack += [(sub, node.name) for sub in node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list
            )
            callee = cls if cls and node.name == "__init__" else node.name
            qualname = f"{cls}.{node.name}" if cls else node.name
            yield callee, qualname, node, bool(cls) and not static
            stack += [(sub, None) for sub in node.body]


def _defaults(fn, method: bool) -> list:
    """``(position, name)`` of each defaulted parameter as a caller passes
    it (a method's ``self`` left out); ``None`` for keyword-only ones."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args][int(method) :]
    first = len(positional) - len(args.defaults)
    out = [(k, positional[k]) for k in range(first, len(positional))]
    kw = zip(args.kwonlyargs, args.kw_defaults)
    return out + [(None, a.arg) for a, d in kw if d is not None]


def _callee(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def unset_defaults(root=ROOT) -> list:
    """``module.function(parameter)`` for each defaulted parameter of the
    package that no call in ``src``, ``bench`` or ``tools`` sets, by
    keyword or by position.  Calls are matched by the callee's name."""
    package = sorted((root / "src" / "segment_bethe").glob("*.py"))
    callers = package + sorted((root / "bench").glob("*.py"))
    callers += sorted((root / "tools").glob("*.py"))
    # callee name -> the positions and keywords its calls pass; a * or **
    # argument passes everything of its kind.
    passed: dict = {}
    for path in callers:
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            seen = passed.setdefault(_callee(call), set())
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            seen.add("*" if starred else len(call.args))
            seen.update("**" if k.arg is None else k.arg for k in call.keywords)
    out = []
    for path in package:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for callee, qualname, fn, method in _definitions(tree):
            seen = passed.get(callee, set())
            widest = max((n for n in seen if isinstance(n, int)), default=0)
            for position, name in _defaults(fn, method):
                by_position = position is not None and (
                    "*" in seen or widest > position
                )
                if not (by_position or "**" in seen or name in seen):
                    out.append(f"{path.stem}.{qualname}({name})")
    return sorted(out)


def test_every_default_is_set_by_a_caller_outside_the_tests():
    assert unset_defaults() == []
