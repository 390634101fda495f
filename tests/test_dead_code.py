"""Every public definition in ``src/minkdev`` is run by the library, the CLI
or the benchmark, or named below with its reason.

A public top-level function or class, or a public method of such a class,
counts as referenced when a ``Name``, an ``Attribute`` or an import in
``src/minkdev/*.py`` or ``benchmarks/*.py`` names it.  The package's
``__init__.py`` does not count: an export that nothing runs is dead.  An
annotated field of a top-level class counts as used when that code names it
as an attribute or as a keyword argument, and a public module-level
constant when that code reads it.  Tests do not count either: code that
only its own tests call is dead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "minkdev").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))

#: Public definitions that nothing in the library or the benchmark runs.
ALLOWED = {
    "pairing": "the probability-weighted pairing, a reference in the duality tests",
    "canonical_report": "the byte-identity serialisation the acceptance tests compare with",
    "is_comonotone": "the exact pairwise condition the comonotone sampler is tested against",
}


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _scan():
    """``(qualified name, name)`` of each public definition, and every name
    referenced in the library, outside its ``__init__.py``, or the benchmark."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in LIBRARY + BENCHMARKS}
    defined = [(f"{path.stem}.{qualname}", name)
               for path in LIBRARY for qualname, name in _public_definitions(trees[path])]
    referencing = [tree for path, tree in trees.items() if path.name != "__init__.py"]
    return defined, set().union(*map(_referenced_names, referencing))


def _fields(tree: ast.Module):
    """``(qualified name, name)`` of each annotated field of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def _attributes_and_keywords(tree: ast.Module) -> set[str]:
    return {node.attr if isinstance(node, ast.Attribute) else node.arg
            for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.keyword))}


def test_every_field_is_named_by_library_or_benchmark_code():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in LIBRARY + BENCHMARKS]
    fields = [(f"{path.stem}.{qualname}", name)
              for path, tree in zip(LIBRARY, trees) for qualname, name in _fields(tree)]
    named = set().union(*map(_attributes_and_keywords, trees))
    assert fields
    assert [qualname for qualname, name in fields if name not in named] == []


def test_every_public_definition_runs():
    defined, referenced = _scan()
    assert defined and referenced
    dead = [qualname for qualname, name in defined
            if name not in referenced and name not in ALLOWED]
    assert dead == []
    # an allowlisted definition that gained a caller, or was deleted, leaves the list
    assert set(ALLOWED) <= {name for _, name in defined} - referenced


def _constants(tree: ast.Module):
    """Names of the public module-level constants of a module."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield name.id


def _reads(tree: ast.Module) -> set[str]:
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_every_public_constant_is_read_by_library_or_benchmark_code():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in LIBRARY + BENCHMARKS}
    constants = [(path.stem, name) for path in LIBRARY if path.name != "__init__.py"
                 for name in _constants(trees[path])]
    read = set().union(*(_reads(tree) for path, tree in trees.items() if path.name != "__init__.py"))
    assert constants
    assert [f"{module}.{name}" for module, name in constants if name not in read] == []
