"""Command-line interface.

Subcommands cover checking (check-numbering, check-bijection),
construction (number, cb-pair), the double-star criterion
(cb-criterion), backtracking search (search), desk-scale surveys
(sweep, audit-symmetry), and tree generation (enumerate).

Exit codes are a stable contract:

* 0: success / the property holds
* 1: a verified violation or verified nonexistence
* 2: input error (unreadable or malformed files, bad arguments)
* 3: method inapplicable or search budget exhausted
* 4: internal error: a witness the package built failed re-verification,
  or the run crashed; never a statement about the input

Reports are JSON documents tagged with ``"schema": "tree-amity/1"``.
Every embedded witness is stored in the same text formats the parsers
accept, together with the input trees, so a report can be re-loaded and
re-verified without the original files.  A report is written record by
record, with no copy of the whole document built in memory, and every
command checks that its report's directory exists before it does any
work.  The ``--jobs`` flag controls worker-pool width for sweeps and
audits; the TREE_AMITY_JOBS environment variable overrides it when set.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Sequence

from .amity import (
    HookViolation,
    NumberingPairViolation,
    check_friendly_bijection,
    check_friendly_numbering,
    format_bijection,
    format_numbering,
    parse_bijection,
    parse_numbering,
    verified,
)
from .cb import bijection_from_pair, find_subtree_pair, make_cb, small_n_pair
from .enumeration import enumerate_free_trees
from .errors import EmptyTree, PreconditionFailed, ShapeMismatch, TreeAmityError
from .parity import number_parity_center
from .search import (
    FOUND,
    PROVED_NONE,
    SearchBudget,
    SearchResult,
    search_bijection,
    search_numbering,
    sweep_cb_universal,
    sweep_hypothesis,
    sweep_question_path,
    symmetry_audit,
)
from .trees import Tree, format_tree, parse_tree_labeled
from .trunk import number_by_trunk

SCHEMA = "tree-amity/1"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INAPPLICABLE = 3
EXIT_INTERNAL = 4

__all__ = ["main", "main_entry", "build_parser", "SCHEMA"]


# -- small helpers ------------------------------------------------------------


def _read_file(path: str) -> tuple[str, dict]:
    data = Path(path).read_bytes()
    text = data.decode("utf-8")
    entry = {
        "path": path,
        "sha256": hashlib.sha256(data).hexdigest(),
        "text": text,
    }
    return text, entry


def _load_tree(path: str):
    text, entry = _read_file(path)
    tree, labels = parse_tree_labeled(text)
    return tree, labels, entry


def _resolve_jobs(flag: int | None) -> int:
    env = os.environ.get("TREE_AMITY_JOBS")
    if env is not None:
        jobs = int(env)
    elif flag is not None:
        jobs = flag
    else:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return jobs


def _budget_from(args, default_exhaustive: bool = False) -> SearchBudget:
    limits = {"max_nodes": args.max_nodes, "time_limit": args.time_limit}
    given = {name: value for name, value in limits.items() if value is not None}
    if args.exhaustive or (default_exhaustive and not given):
        return SearchBudget(exhaustive=True)
    return SearchBudget(**given)


def _emit_report(path: str | None, command: str, body: dict) -> None:
    """Write the JSON report of one command (schema tag, command name,
    body) to ``path``, or to stdout when ``path`` is None.

    The bytes are those of ``json.dumps(doc, indent=2)`` and a newline,
    written record by record so that no copy of the whole document is
    held.  Everything but ``records`` is encoded at once, before the file
    is opened.  ``records``, when present, is the body's last key, and
    each record is a flat dict of str, int, bool and None, which the C
    encoder writes on its own.
    """
    doc = {"schema": SCHEMA, "command": command, **body}
    records = doc.pop("records", None)
    head = json.dumps(doc, indent=2)
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as out:
        if records is None:
            out.write(head + "\n")
            return
        out.write(head[:-2] + ',\n  "records": [')  # head ends in "\n}"
        for i, rec in enumerate(records):
            # the record's fields as indent=2 lays them out at depth 3
            fields = json.dumps(rec, separators=(",\n      ", ": "))[1:-1]
            out.write(f"{',' if i else ''}\n    {{\n      {fields}\n    }}")
        out.write("\n  ]\n}\n" if records else "]\n}\n")


def _require_out_dir(path: str | None) -> None:
    """Raise the error that opening ``path`` would raise when its
    directory is missing, so that a command fails before it runs, not
    after.  The directory is only known to exist when this returns."""
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _write_report(args, command: str, inputs: list[dict], payload: dict) -> None:
    if args.out:
        _emit_report(args.out, command, {"inputs": inputs, **payload})


def _edge_label(tree: Tree, labels, eid: int) -> list[int]:
    u, v = tree.edges[eid]
    return [labels[u], labels[v]]


def _numbering_violation_dict(flaw: NumberingPairViolation, tree: Tree, labels) -> dict:
    return {
        "kind": "numbering-pair",
        "k": flaw.k,
        "j": flaw.j,
        "partner": flaw.partner(),
        "s": flaw.s,
        "path_edges": [_edge_label(tree, labels, e) for e in flaw.path_edges],
        "path_numbers": list(flaw.path_numbers),
    }


def _hook_violation_dict(flaw: HookViolation, source: Tree, s_labels, target: Tree, t_labels) -> dict:
    return {
        "kind": "hook",
        "p_vertex": s_labels[flaw.p_vertex],
        "q_vertex": s_labels[flaw.q_vertex],
        "hooking": flaw.hooking,
        "edge_pair": [_edge_label(target, t_labels, e) for e in flaw.edge_pair],
        "crossing": flaw.crossing,
    }


# -- check commands -----------------------------------------------------------


def cmd_check_numbering(args) -> int:
    tree, labels, tree_entry = _load_tree(args.tree)
    text, num_entry = _read_file(args.numbering)
    nu = parse_numbering(text, tree, labels)
    started = time.monotonic()
    flaw = check_friendly_numbering(nu)
    elapsed = time.monotonic() - started
    if flaw is None:
        print("ok: numbering is friendly")
        outcome, witness, code = "ok", None, EXIT_OK
    else:
        print(
            f"violation at consecutive pair k={flaw.k}: number {flaw.j} lies "
            f"on the path between edges {flaw.k} and {flaw.k + 1} but its "
            f"partner {flaw.partner()} does not (path numbers: "
            f"{list(flaw.path_numbers)})"
        )
        outcome, code = "violation", EXIT_VIOLATION
        witness = _numbering_violation_dict(flaw, tree, labels)
    _write_report(args, "check-numbering", [tree_entry, num_entry], {
        "outcome": outcome,
        "witness": witness,
        "elapsed": elapsed,
    })
    return code


def cmd_check_bijection(args) -> int:
    source, s_labels, src_entry = _load_tree(args.source)
    target, t_labels, dst_entry = _load_tree(args.target)
    text, bij_entry = _read_file(args.bijection)
    bj = parse_bijection(text, source, target, s_labels, t_labels)
    started = time.monotonic()
    flaw = check_friendly_bijection(bj)
    elapsed = time.monotonic() - started
    if flaw is None:
        print("ok: bijection is friendly")
        outcome, witness, code = "ok", None, EXIT_OK
    else:
        side = flaw.p_vertex if flaw.hooking == "p" else flaw.q_vertex
        other = flaw.q_vertex if flaw.hooking == "p" else flaw.p_vertex
        pair = [_edge_label(target, t_labels, e) for e in flaw.edge_pair]
        print(
            f"violation at vertex pair ({s_labels[flaw.p_vertex]}, "
            f"{s_labels[flaw.q_vertex]}): the image of the coboundary of "
            f"{s_labels[side]} hooks onto the image for {s_labels[other]} "
            f"(edges {pair[0]} and {pair[1]} cross it {flaw.crossing} times)"
        )
        outcome, code = "violation", EXIT_VIOLATION
        witness = _hook_violation_dict(flaw, source, s_labels, target, t_labels)
    _write_report(args, "check-bijection", [src_entry, dst_entry, bij_entry], {
        "outcome": outcome,
        "witness": witness,
        "elapsed": elapsed,
    })
    return code


# -- construction commands ----------------------------------------------------


def cmd_number(args) -> int:
    tree, labels, tree_entry = _load_tree(args.tree)
    budget = _budget_from(args)
    started = time.monotonic()
    tried = []
    nu = res = None
    methods = [args.method] if args.method != "auto" else [
        "trunk", "parity-center", "search",
    ]
    for method in methods:
        if method == "search":
            res = search_numbering(tree, budget)
            tried.append(f"search:{res.status}")
            nu = res.witness
            break
        try:
            nu = number_by_trunk(tree) if method == "trunk" else number_parity_center(tree)
        except (PreconditionFailed, EmptyTree):
            tried.append(f"{method}:inapplicable")
            continue
        tried.append(f"{method}:ok")
        break
    elapsed = time.monotonic() - started
    witness = None
    if nu is not None:
        verified(nu, f"{method} numbering")
        witness = format_numbering(nu, labels)
        sys.stdout.write(witness)
        outcome, code = "ok", EXIT_OK
    elif res is not None:
        outcome, code = res.status, _search_exit(res, "numbering")
    else:
        print(f"no applicable method (tried: {', '.join(tried)})", file=sys.stderr)
        outcome, code = "inapplicable", EXIT_INAPPLICABLE
    _write_report(args, "number", [tree_entry], {
        "outcome": outcome,
        "method": method if nu is not None else None,
        "tried": tried,
        "witness": witness,
        "nodes": res.nodes if res is not None else 0,
        "elapsed": elapsed,
    })
    return code


def _print_pair(tree: Tree, labels, pair) -> None:
    u, v = tree.edges[pair.shared]
    print(f"shared edge: {labels[u]} {labels[v]}")
    for name, part in (("part 1", pair.e1), ("part 2", pair.e2)):
        rendered = " ".join(
            f"({labels[tree.edges[e][0]]},{labels[tree.edges[e][1]]})"
            for e in sorted(part)
        )
        print(f"{name} ({len(part)} edges): {rendered}")


def _pair_dict(tree: Tree, labels, pair) -> dict:
    return {
        "shared": _edge_label(tree, labels, pair.shared),
        "e1": [_edge_label(tree, labels, e) for e in sorted(pair.e1)],
        "e2": [_edge_label(tree, labels, e) for e in sorted(pair.e2)],
    }


def cmd_cb_criterion(args) -> int:
    tree, labels, tree_entry = _load_tree(args.tree)
    n1, n2 = args.n1, args.n2
    if n1 < 1 or n2 < 1:
        # bad input, not a size mismatch; checked without building the
        # double star, which a huge part size would make costly
        raise ShapeMismatch("double star parts must each have at least one edge")
    started = time.monotonic()
    needed = n1 + n2 - 1
    pair = find_subtree_pair(tree, n1, n2) if tree.m == needed else None
    elapsed = time.monotonic() - started
    if tree.m != needed:
        print(
            f"not friendly: tree has {tree.m} edges, the ({n1},{n2}) double "
            f"star needs {needed}"
        )
        result = {"outcome": "size-mismatch", "witness": None}
    elif pair is None:
        print(
            f"not friendly: no connected edge subtrees of sizes {n1} and "
            f"{n2} sharing exactly one edge"
        )
        result = {"outcome": "no-pair", "witness": None}
    else:
        cb = make_cb(n1, n2)
        bj = verified(bijection_from_pair(tree, pair, cb), "pair-induced bijection")
        witness = format_bijection(bj, target_labels=labels)
        print(f"friendly to the ({n1},{n2}) double star")
        _print_pair(tree, labels, pair)
        sys.stdout.write(witness)
        result = {
            "outcome": "ok",
            "pair": _pair_dict(tree, labels, pair),
            "witness": witness,
            "double_star": format_tree(cb.tree),
        }
    _write_report(args, "cb-criterion", [tree_entry], {**result, "elapsed": elapsed})
    return EXIT_OK if result["outcome"] == "ok" else EXIT_VIOLATION


def cmd_cb_pair(args) -> int:
    tree, labels, tree_entry = _load_tree(args.tree)
    started = time.monotonic()
    pair = small_n_pair(tree, args.n)
    cb = make_cb(tree.m - args.n + 1, args.n)
    bj = verified(bijection_from_pair(tree, pair, cb), "pair-induced bijection")
    elapsed = time.monotonic() - started
    _print_pair(tree, labels, pair)
    _write_report(args, "cb-pair", [tree_entry], {
        "outcome": "ok",
        "pair": _pair_dict(tree, labels, pair),
        "witness": format_bijection(bj, target_labels=labels),
        "double_star": format_tree(cb.tree),
        "elapsed": elapsed,
    })
    return EXIT_OK


# -- search and surveys -------------------------------------------------------


def _search_exit(res: SearchResult, what: str) -> int:
    """The exit code of a search for a friendly ``what`` ("numbering" or
    "bijection"); a proof of absence or an exhausted budget is also
    reported on stderr."""
    if res.status == FOUND:
        return EXIT_OK
    if res.status == PROVED_NONE:
        print(
            f"verified: no friendly {what} exists ({res.nodes} nodes searched)",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    print(f"search budget exhausted after {res.nodes} nodes", file=sys.stderr)
    return EXIT_INAPPLICABLE


def cmd_search(args) -> int:
    tree, labels, tree_entry = _load_tree(args.tree)
    budget = _budget_from(args)
    inputs = [tree_entry]
    witness_text = None
    if args.target is None:
        what, res = "numbering", search_numbering(tree, budget)
        if res.witness is not None:
            witness_text = format_numbering(res.witness, labels)
    else:
        target, t_labels, target_entry = _load_tree(args.target)
        inputs.append(target_entry)
        what, res = "bijection", search_bijection(tree, target, budget)
        if res.witness is not None:
            witness_text = format_bijection(res.witness, labels, t_labels)
    _write_report(args, "search", inputs, {
        "outcome": res.status,
        "what": what,
        "witness": witness_text,
        "nodes": res.nodes,
        "elapsed": res.elapsed,
    })
    if witness_text is not None:
        sys.stdout.write(witness_text)
    return _search_exit(res, what)


def cmd_sweep(args) -> int:
    jobs = _resolve_jobs(args.jobs)
    budget = _budget_from(args, default_exhaustive=True)
    if args.kind == "cb":
        if args.n1 is None or args.n2 is None:
            raise ValueError("--kind cb requires --n1 and --n2")
        report = sweep_cb_universal(
            args.n1, args.n2, budget=budget, jobs=jobs, confirm=args.confirm
        )
    else:
        if args.max_edges is None:
            raise ValueError(f"--kind {args.kind} requires -m")
        if args.kind == "question-path":
            report = sweep_question_path(args.max_edges, budget=budget, jobs=jobs)
        else:
            report = sweep_hypothesis(
                args.max_edges, args.kind, budget=budget, jobs=jobs
            )
    _emit_report(args.out, "sweep", report.to_json_dict())
    counts = ", ".join(f"{k}={v}" for k, v in report.counts().items()) or "empty"
    findings = report.findings
    print(
        f"sweep {report.kind}: {len(report.records)} trees ({counts}); "
        f"{len(findings)} finding(s)",
        file=sys.stderr,
    )
    for rec in findings:
        shape = rec.tree.strip().replace("\n", " / ")
        detail = f" ({rec.detail})" if rec.detail else ""
        print(f"  finding [{rec.outcome}] {rec.code}: {shape}{detail}", file=sys.stderr)
    return EXIT_OK


def cmd_audit_symmetry(args) -> int:
    jobs = _resolve_jobs(args.jobs)
    report = symmetry_audit(args.max_edges, jobs=jobs)
    _emit_report(args.out, "audit-symmetry", report.to_json_dict())
    print(
        f"audit: {len(report.records)} pairs, {report.total_friendly} friendly "
        f"bijections, {report.total_failures} inverse failures",
        file=sys.stderr,
    )
    return EXIT_OK if report.total_failures == 0 else EXIT_VIOLATION


def cmd_enumerate(args) -> int:
    first = True
    for tree in enumerate_free_trees(args.max_edges):
        if not first:
            sys.stdout.write("\n")
        sys.stdout.write(format_tree(tree))
        first = False
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-nodes", type=int, default=None,
                     help="node budget for backtracking (default 10^7)")
    sub.add_argument("--time-limit", type=float, default=None,
                     help="wall-clock budget in seconds (default 60)")
    sub.add_argument("--exhaustive", action="store_true",
                     help="ignore budgets and run to completion")


def _add_report_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--report", dest="out", metavar="REPORT",
                     help="write a JSON run report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tree-amity",
        description=(
            "Friendly numberings and friendly bijections on trees: "
            "checkers, constructions, searches, and surveys."
        ),
    )
    parser.set_defaults(out=None)  # --report and --out share it: main checks it
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-numbering",
                       help="verify a friendly numbering against its tree")
    p.add_argument("tree", help="tree file ('u v' edge lines)")
    p.add_argument("numbering", help="numbering file ('u v k' lines)")
    _add_report_flag(p)
    p.set_defaults(func=cmd_check_numbering)

    p = sub.add_parser("check-bijection",
                       help="verify a friendly bijection between two trees")
    p.add_argument("source", help="source tree file")
    p.add_argument("target", help="target tree file")
    p.add_argument("bijection", help="bijection file ('u1 v1 -> u2 v2' lines)")
    _add_report_flag(p)
    p.set_defaults(func=cmd_check_bijection)

    p = sub.add_parser("number", help="construct or search a friendly numbering")
    p.add_argument("tree", help="tree file")
    p.add_argument("--method", choices=["trunk", "parity-center", "auto", "search"],
                   default="auto",
                   help="construction to use; auto tries trunk, then "
                        "parity-center, then search")
    _add_budget_flags(p)
    _add_report_flag(p)
    p.set_defaults(func=cmd_number)

    p = sub.add_parser("cb-criterion",
                       help="decide friendliness to a double star by the "
                            "subtree-pair criterion")
    p.add_argument("--n1", type=int, required=True, help="edges at one center")
    p.add_argument("--n2", type=int, required=True, help="edges at the other")
    p.add_argument("tree", help="tree file")
    _add_report_flag(p)
    p.set_defaults(func=cmd_cb_criterion)

    p = sub.add_parser("cb-pair",
                       help="construct a subtree pair with a small part "
                            "of size n (always exists for n in 2..4)")
    p.add_argument("--n", type=int, choices=[2, 3, 4], required=True,
                   help="size of the small part")
    p.add_argument("tree", help="tree file")
    _add_report_flag(p)
    p.set_defaults(func=cmd_cb_pair)

    p = sub.add_parser("search",
                       help="backtracking search for a friendly numbering "
                            "(one tree) or bijection (two trees)")
    p.add_argument("tree", help="tree file")
    p.add_argument("target", nargs="?", default=None,
                   help="target tree file; if given, search a bijection "
                        "from the first tree onto this one")
    _add_budget_flags(p)
    _add_report_flag(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="survey all trees of bounded size")
    p.add_argument("--kind", choices=["question-path", "d4", "odd", "cb"],
                   required=True,
                   help="question-path: numberability of every tree; "
                        "d4: diameter-at-most-4 family; odd: all-odd-degree "
                        "family with an equidistant vertex; cb: double-star "
                        "criterion over all trees of the matching size")
    p.add_argument("-m", "--max-edges", type=int, default=None,
                   help="size bound in edges (required unless --kind cb)")
    p.add_argument("--n1", type=int, default=None, help="double-star part 1")
    p.add_argument("--n2", type=int, default=None, help="double-star part 2")
    p.add_argument("--confirm", action="store_true",
                   help="for --kind cb: double-check criterion failures by "
                        "exhaustive bijection search")
    _add_budget_flags(p)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: all cores; "
                        "TREE_AMITY_JOBS overrides)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("audit-symmetry",
                       help="check every friendly bijection between "
                            "same-size trees against its inverse")
    p.add_argument("-m", "--max-edges", type=int, required=True,
                   help="size bound in edges (factorial cost; 7 is "
                        "a reasonable maximum)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: all cores; "
                        "TREE_AMITY_JOBS overrides)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_audit_symmetry)

    p = sub.add_parser("enumerate",
                       help="emit one representative per isomorphism class "
                            "of trees with the given edge count")
    p.add_argument("-m", "--max-edges", type=int, required=True,
                   help="edge count")
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _require_out_dir(args.out)
        return args.func(args)
    except (TreeAmityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # VerificationFailed, RecursionError or any other fault of the
        # package: exit 1 would claim a verified violation
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
