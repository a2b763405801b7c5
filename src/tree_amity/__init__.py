"""Friendly numberings and friendly bijections on trees.

A tree's edges can be numbered 1..m so that for every pair of
consecutive numbers, the numbers met along the path between their two
edges pair up consistently; such numberings are called friendly, and
they are one face of a more general notion of friendly edge bijections
between trees.  This package provides the checkers for both notions,
two constructive numbering algorithms (trunk-based and
parity-center-based), a branch-size criterion for friendliness to
double stars together with the bijection a split induces, exhaustive
backtracking searches, free-tree enumeration, and desk-scale surveys
over the open questions, all behind a ``tree-amity`` command line.
"""

from .amity import (
    EdgeBijection,
    HookViolation,
    Numbering,
    NumberingPairViolation,
    check_friendly_bijection,
    check_friendly_numbering,
    format_bijection,
    format_numbering,
    numbering_to_path_bijection,
    parse_bijection,
    parse_numbering,
)
from .cb import (
    CBShape,
    SubtreePair,
    bijection_from_pair,
    find_subtree_pair,
    make_cb,
    small_n_pair,
)
from .enumeration import enumerate_free_trees
from .errors import (
    CycleDetected,
    Disconnected,
    DuplicateEdge,
    EmptyTree,
    EqualEdges,
    InvalidBijection,
    InvalidNumbering,
    MalformedLine,
    PreconditionFailed,
    SelfLoop,
    ShapeMismatch,
    SizeMismatch,
    TooSmall,
    TreeAmityError,
)
from .parity import (
    check_precondition,
    number_parity_center,
)
from .search import (
    BUDGET_EXCEEDED,
    FOUND,
    PROVED_NONE,
    AuditRecord,
    AuditReport,
    SearchBudget,
    SearchResult,
    SweepRecord,
    SweepReport,
    search_bijection,
    search_numbering,
    sweep_cb_universal,
    sweep_hypothesis,
    sweep_question_path,
    symmetry_audit,
)
from .trees import (
    Tree,
    format_tree,
    parse_tree,
    parse_tree_labeled,
)
from .trunk import (
    find_trunk,
    number_by_trunk,
)

__version__ = "0.1.0"

__all__ = [
    "Tree",
    "parse_tree",
    "parse_tree_labeled",
    "format_tree",
    "Numbering",
    "EdgeBijection",
    "NumberingPairViolation",
    "HookViolation",
    "check_friendly_numbering",
    "check_friendly_bijection",
    "numbering_to_path_bijection",
    "parse_numbering",
    "format_numbering",
    "parse_bijection",
    "format_bijection",
    "find_trunk",
    "number_by_trunk",
    "check_precondition",
    "number_parity_center",
    "CBShape",
    "SubtreePair",
    "make_cb",
    "find_subtree_pair",
    "bijection_from_pair",
    "small_n_pair",
    "enumerate_free_trees",
    "FOUND",
    "PROVED_NONE",
    "BUDGET_EXCEEDED",
    "SearchBudget",
    "SearchResult",
    "search_numbering",
    "search_bijection",
    "AuditRecord",
    "AuditReport",
    "symmetry_audit",
    "SweepRecord",
    "SweepReport",
    "sweep_question_path",
    "sweep_hypothesis",
    "sweep_cb_universal",
    "TreeAmityError",
    "MalformedLine",
    "SelfLoop",
    "DuplicateEdge",
    "CycleDetected",
    "Disconnected",
    "EqualEdges",
    "EmptyTree",
    "PreconditionFailed",
    "SizeMismatch",
    "ShapeMismatch",
    "TooSmall",
    "InvalidNumbering",
    "InvalidBijection",
]
