"""The package holds what the verifier runs: every public function and
method under src/bocskit/ is referenced in the package, or is an entry
point named in ENTRY_POINTS with the reason it stays.  A reference is
matched by name only, so the check is coarse, but a function that only
the tests call fails it."""

import ast
from collections import Counter
from pathlib import Path

import bocskit

# (module, qualified name): why it has no caller in the package
ENTRY_POINTS = {
    ("cli", "main"): "the bocskit command group",
    ("cli", "classify"): "a command of the command line interface",
    ("cli", "bocs"): "a command of the command line interface",
    ("cli", "burt_butler"): "a command of the command line interface",
    ("cli", "verify"): "a command of the command line interface",
    ("cli", "fixtures"): "a command of the command line interface",
    ("corpus", "random_corpus"): "builds the benchmark's random corpus",
    ("linalg", "Matrix.solve"):
        "the benchmark traces it by name, and tests use it as the "
        "reference for solve_columns and MapSpace.coords",
}


def _package():
    root = Path(bocskit.__file__).parent
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(root.glob("*.py"))}


def _public_defs(tree):
    """(qualified name, def node) of the public module-level functions
    and the public methods of module-level classes."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{item.name}", item) for item in node.body
                    if isinstance(item, ast.FunctionDef)]
    return [(name, node) for name, node in out
            if not name.rsplit(".", 1)[-1].startswith("_")]


def _references(tree):
    """How often each identifier is read as a name, an attribute or an
    import in tree."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_public_function_has_a_caller_in_the_package():
    package = _package()
    everywhere = sum(map(_references, package.values()), Counter())
    defined, unreached = set(), []
    for module, tree in package.items():
        for name, node in _public_defs(tree):
            defined.add((module, name))
            bare = name.rsplit(".", 1)[-1]
            # a call from the function's own body is not a caller
            if everywhere[bare] == _references(node)[bare]:
                unreached.append((module, name))
    assert [key for key in unreached if key not in ENTRY_POINTS] == []
    assert set(ENTRY_POINTS) <= defined
