"""The public surface of the package, pinned name by name.

Growing or shrinking ``tree_amity.__all__`` means editing this list.
"""

import ast
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
    "count_free_trees",
    "enumerate_free_trees",
    "find_subtree_pair",
    "find_trunk",
    "format_bijection",
    "format_numbering",
    "format_tree",
    "invert_bijection",
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
    "unlinked",
]


def test_all_lists_exactly_the_pinned_names():
    assert sorted(tree_amity.__all__) == PUBLIC_NAMES


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
