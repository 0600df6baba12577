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


def _sums_into_a_dict(node):
    """Whether node is d[k] = d.get(k, ...) + term with a term that is not
    a constant: a scalar summed into a sparse dict, as a counter of ones
    is not."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
        return False
    target, value = node.targets[0], node.value
    return (isinstance(target, ast.Subscript)
            and isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add)
            and isinstance(value.left, ast.Call)
            and isinstance(value.left.func, ast.Attribute)
            and value.left.func.attr == "get"
            and ast.dump(value.left.func.value) == ast.dump(target.value)
            and not isinstance(value.right, ast.Constant))


def test_only_linalg_reads_pivots_or_sums_sparse_terms():
    """linalg is the one exact kernel: no other module reads a Span's
    pivots, imports complement_pivots or sums terms into a sparse dict
    itself; they ask Span for quotient coordinates and normal forms, and
    sum through linalg._sum_terms and linalg._apply_cols."""
    found = []
    for module, tree in _package().items():
        if module == "linalg":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "pivots":
                found.append((module, node.lineno, "reads .pivots"))
            elif isinstance(node, ast.ImportFrom) and any(
                    alias.name.endswith("complement_pivots")
                    for alias in node.names):
                found.append((module, node.lineno, "complement_pivots"))
            elif _sums_into_a_dict(node):
                found.append((module, node.lineno, "sparse term sum"))
    assert found == []
