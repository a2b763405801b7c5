"""The public surface of the package, pinned name by name.

Growing or shrinking ``tree_amity.__all__`` means editing this list, and
giving a tree more state than its own means editing ``TREE_SLOTS``.
"""

import ast
import re
from pathlib import Path

import tree_amity

PUBLIC_NAMES = [
    "AuditRecord",
    "AuditReport",
    "BUDGET_EXCEEDED",
    "CBShape",
    "CycleDetected",
    "Disconnected",
    "DuplicateEdge",
    "EdgeBijection",
    "EmptyTree",
    "EqualEdges",
    "FOUND",
    "HookViolation",
    "InvalidBijection",
    "InvalidNumbering",
    "MalformedLine",
    "Numbering",
    "NumberingPairViolation",
    "PROVED_NONE",
    "PreconditionFailed",
    "SearchBudget",
    "SearchResult",
    "SelfLoop",
    "ShapeMismatch",
    "SizeMismatch",
    "SubtreePair",
    "SweepRecord",
    "SweepReport",
    "TooSmall",
    "Tree",
    "TreeAmityError",
    "bijection_from_pair",
    "check_friendly_bijection",
    "check_friendly_numbering",
    "check_precondition",
    "enumerate_free_trees",
    "find_subtree_pair",
    "find_trunk",
    "format_bijection",
    "format_numbering",
    "format_tree",
    "make_cb",
    "number_by_trunk",
    "number_parity_center",
    "numbering_to_path_bijection",
    "parse_bijection",
    "parse_numbering",
    "parse_tree",
    "parse_tree_labeled",
    "search_bijection",
    "search_numbering",
    "small_n_pair",
    "sweep_cb_universal",
    "sweep_hypothesis",
    "sweep_question_path",
    "symmetry_audit",
]


def test_all_lists_exactly_the_pinned_names():
    assert sorted(tree_amity.__all__) == PUBLIC_NAMES


# what a tree keeps: its edges and adjacency, and its centers and rooting
TREE_SLOTS = ("n", "m", "edges", "adj", "degrees", "_centers", "_rooting")


def test_a_tree_keeps_exactly_the_pinned_state():
    assert tree_amity.Tree.__slots__ == TREE_SLOTS


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(tree_amity, name) is not None, name


def test_no_assert_in_the_package():
    """``python -O`` strips asserts, so no check in the package may be one."""

    found = []
    for path in sorted(Path(tree_amity.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_unused_import_in_the_package():
    """Every name a package module imports is used there or exported."""

    found = []
    for path in sorted(Path(tree_amity.__file__).parent.glob("*.py")):
        imported = {}
        needed = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.Name):
                needed.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                needed.update(ast.literal_eval(node.value))
        found += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in needed
        ]
    assert found == []


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node, inside=()):
    """(name, enclosing definitions) of every ast Name and Attribute under node."""
    if isinstance(node, ast.Name):
        yield node.id, inside
    elif isinstance(node, ast.Attribute):
        yield node.attr, inside
    if isinstance(node, DEFINITIONS):
        inside = inside + (node,)
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


def test_every_unexported_definition_has_a_caller():
    """Every function, method and class the package defines is named by
    the package outside its own definition, by ``scripts/`` or
    ``perfbench/``, or by the entry point in ``pyproject.toml``.

    Dunders and the names in ``tree_amity.__all__`` are exempt.  Code that
    only the tests call belongs in the tests.
    """

    package = Path(tree_amity.__file__).parent
    root = package.parent.parent
    called = set(re.findall(r'"[\w.]+:(\w+)"', (root / "pyproject.toml").read_text()))
    for path in [*root.glob("scripts/*.py"), *root.glob("perfbench/*.py")]:
        called.update(name for name, _ in _references(ast.parse(path.read_text())))
    modules = {path: ast.parse(path.read_text(), str(path)) for path in package.glob("*.py")}
    refs = [ref for tree in modules.values() for ref in _references(tree)]
    found = []
    for path, tree in sorted(modules.items()):
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in tree_amity.__all__ or name in called:
                continue
            if not any(ref == name and node not in inside for ref, inside in refs):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
