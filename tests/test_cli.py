"""End-to-end command line behavior: exit codes, formats, reports."""

import argparse
import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import pytest

import tree_amity
import tree_amity.cb as cb_module
from helpers import path, relabeled, spider, star, tri_y
from oracles import report_text
from tree_amity import (
    check_friendly_bijection,
    check_friendly_numbering,
    format_tree,
    make_cb,
    parse_bijection,
    parse_numbering,
    parse_tree,
    parse_tree_labeled,
    sweep_hypothesis,
    sweep_question_path,
)
from tree_amity import amity, cli
from tree_amity.amity import NumberingPairViolation
from tree_amity.cli import main


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def tree_file(tmp_path, name, tree):
    return write(tmp_path, name, format_tree(tree))


# -- checking -------------------------------------------------------------------


def test_check_numbering_accepts(tmp_path, capsys):
    t = tree_file(tmp_path, "t.txt", path(3))
    nb = write(tmp_path, "n.txt", "0 1 1\n1 2 2\n2 3 3\n")
    assert main(["check-numbering", t, nb]) == 0
    assert "ok" in capsys.readouterr().out


def test_check_numbering_rejects(tmp_path, capsys):
    t = tree_file(tmp_path, "t.txt", path(3))
    nb = write(tmp_path, "n.txt", "0 1 1\n1 2 3\n2 3 2\n")
    assert main(["check-numbering", t, nb]) == 1
    out = capsys.readouterr().out
    assert "violation" in out


def test_check_numbering_bad_input(tmp_path, capsys):
    t = tree_file(tmp_path, "t.txt", path(3))
    nb = write(tmp_path, "n.txt", "0 1 1\n1 2 1\n2 3 2\n")
    assert main(["check-numbering", t, nb]) == 2
    assert main(["check-numbering", t, str(tmp_path / "absent.txt")]) == 2
    capsys.readouterr()


def test_a_bad_numbering_or_mapping_is_named_in_one_short_line(tmp_path, capsys):
    """A repeated number on a 2,000-edge path, or a repeated target edge,
    is named by its value, not by printing every entry."""
    t = tree_file(tmp_path, "t.txt", path(2000))
    numbers = list(range(1, 2001))
    numbers[5] = 5
    nb = write(tmp_path, "n.txt", "".join(f"{i} {i + 1} {k}\n" for i, k in enumerate(numbers)))
    assert main(["check-numbering", t, nb]) == 2
    err = capsys.readouterr().err
    assert err == "error: numbers must be a bijection onto 1..2000, but 5 repeats\n"
    targets = list(range(2000))
    targets[5] = 4
    mp = write(tmp_path, "b.txt", "".join(
        f"{i} {i + 1} -> {j} {j + 1}\n" for i, j in enumerate(targets)
    ))
    assert main(["check-bijection", t, t, mp]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and len(err) < 200
    assert "4 repeats" in err


def test_check_numbering_report(tmp_path, capsys):
    t = tree_file(tmp_path, "t.txt", path(3))
    nb = write(tmp_path, "n.txt", "0 1 1\n1 2 2\n2 3 3\n")
    rep = str(tmp_path / "report.json")
    assert main(["check-numbering", t, nb, "--report", rep]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["schema"] == "tree-amity/1"
    assert doc["command"] == "check-numbering"
    assert "seed" not in doc
    assert doc["outcome"] == "ok"
    assert len(doc["inputs"]) == 2
    for entry in doc["inputs"]:
        assert set(entry) >= {"path", "sha256", "text"}
    # the report embeds enough to replay the run without the files
    t2, labels = parse_tree_labeled(doc["inputs"][0]["text"])
    nu = parse_numbering(doc["inputs"][1]["text"], t2, labels)
    assert check_friendly_numbering(nu) is None


def test_check_bijection_both_ways(tmp_path, capsys):
    src = tree_file(tmp_path, "s.txt", path(4))
    dst = tree_file(tmp_path, "d.txt", path(4))
    good = write(
        tmp_path, "good.txt",
        "0 1 -> 0 1\n1 2 -> 1 2\n2 3 -> 2 3\n3 4 -> 3 4\n",
    )
    bad = write(
        tmp_path, "bad.txt",
        "0 1 -> 0 1\n1 2 -> 2 3\n2 3 -> 1 2\n3 4 -> 3 4\n",
    )
    assert main(["check-bijection", src, dst, good]) == 0
    assert "ok" in capsys.readouterr().out
    assert main(["check-bijection", src, dst, bad]) == 1
    assert "hooks" in capsys.readouterr().out


# -- constructing ----------------------------------------------------------------


def test_number_trunk_on_a_path(tmp_path, capsys):
    t = tree_file(tmp_path, "t.txt", path(4))
    assert main(["number", t, "--method", "trunk"]) == 0
    out = capsys.readouterr().out
    tree, labels = parse_tree_labeled(format_tree(path(4)))
    nu = parse_numbering(out, tree, labels)
    assert check_friendly_numbering(nu) is None
    assert nu.numbers == (1, 2, 3, 4)


def test_number_parity_center_on_a_star(tmp_path, capsys):
    t = tree_file(tmp_path, "t.txt", star(4))
    assert main(["number", t, "--method", "parity-center"]) == 0
    capsys.readouterr()


def test_number_reports_inapplicable_methods(tmp_path, capsys):
    t = tree_file(tmp_path, "t.txt", tri_y())
    assert main(["number", t, "--method", "trunk"]) == 3
    assert "no applicable method" in capsys.readouterr().err
    assert main(["number", t, "--method", "parity-center"]) == 3
    capsys.readouterr()


def test_number_on_the_single_vertex(tmp_path, capsys):
    t = write(tmp_path, "t.txt", ".\n")
    rep = str(tmp_path / "r.json")
    assert main(["number", t, "--report", rep]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["tried"] == ["trunk:inapplicable", "parity-center:ok"]
    assert main(["number", t, "--method", "trunk"]) == 3
    assert "no applicable method" in capsys.readouterr().err


def test_number_auto_falls_back_to_search(tmp_path, capsys):
    t = tree_file(tmp_path, "t.txt", tri_y())
    rep = str(tmp_path / "r.json")
    assert main(["number", t, "--exhaustive", "--report", rep]) == 0
    out = capsys.readouterr().out
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["method"] == "search"
    assert doc["tried"] == [
        "trunk:inapplicable",
        "parity-center:inapplicable",
        "search:found",
    ]
    tree, labels = parse_tree_labeled(format_tree(tri_y()))
    nu = parse_numbering(out, tree, labels)
    assert check_friendly_numbering(nu) is None


def test_number_budget_exhaustion(tmp_path, capsys):
    t = tree_file(tmp_path, "t.txt", tri_y())
    rep = str(tmp_path / "r.json")
    budget = ["--max-nodes", "10"]
    assert main(["number", t, "--method", "search", *budget, "--report", rep]) == 3
    number_err = capsys.readouterr().err
    assert "budget" in number_err
    # search reports the same outcome in the same words
    assert main(["search", t, *budget]) == 3
    assert capsys.readouterr().err == number_err
    doc = json.loads((tmp_path / "r.json").read_text())
    assert number_err == f"search budget exhausted after {doc['nodes']} nodes\n"
    assert doc["nodes"] > 0
    assert (doc["outcome"], doc["method"], doc["tried"], doc["witness"]) == (
        "budget", None, ["search:budget"], None,
    )


# -- double stars ------------------------------------------------------------------


def test_cb_criterion_accepts(tmp_path, capsys):
    t = tree_file(tmp_path, "t.txt", path(7))
    assert main(["cb-criterion", t, "--n1", "4", "--n2", "4"]) == 0
    out = capsys.readouterr().out
    assert "friendly to the (4,4) double star" in out
    assert "shared edge:" in out


def test_cb_criterion_rejects_the_triple_spider(tmp_path, capsys):
    t = tree_file(tmp_path, "t.txt", spider(3, 3, 3))
    assert main(["cb-criterion", t, "--n1", "5", "--n2", "5"]) == 1
    assert "not friendly" in capsys.readouterr().out


def test_cb_criterion_size_mismatch(tmp_path, capsys):
    t = tree_file(tmp_path, "t.txt", path(4))
    rep = str(tmp_path / "r.json")
    assert main(["cb-criterion", t, "--n1", "4", "--n2", "4", "--report", rep]) == 1
    assert "needs" in capsys.readouterr().out
    assert json.loads((tmp_path / "r.json").read_text())["outcome"] == "size-mismatch"


@pytest.mark.parametrize("n1", ["0", "-2"])
def test_cb_criterion_rejects_empty_parts(tmp_path, capsys, n1):
    t = tree_file(tmp_path, "t.txt", path(3))
    assert main(["cb-criterion", t, "--n1", n1, "--n2", "3"]) == 2
    captured = capsys.readouterr()
    assert "not friendly" not in captured.out
    assert "at least one edge" in captured.err


def _assert_cb_witness_replays(report):
    doc = json.loads(report.read_text())
    cb_tree, cb_labels = parse_tree_labeled(doc["double_star"])
    tgt, labels = parse_tree_labeled(doc["inputs"][0]["text"])
    b = parse_bijection(doc["witness"], cb_tree, tgt, cb_labels, labels)
    assert check_friendly_bijection(b) is None


def test_cb_criterion_witness_replays(tmp_path, capsys):
    target = star(3)
    t = tree_file(tmp_path, "t.txt", target)
    rep = str(tmp_path / "r.json")
    assert main(["cb-criterion", t, "--n1", "2", "--n2", "2", "--report", rep]) == 0
    capsys.readouterr()
    _assert_cb_witness_replays(tmp_path / "r.json")


def test_cb_pair_commands(tmp_path, capsys):
    t = tree_file(tmp_path, "t.txt", path(5))
    rep = str(tmp_path / "r.json")
    assert main(["cb-pair", t, "--n", "2", "--report", rep]) == 0
    assert "part 2 (2 edges)" in capsys.readouterr().out
    _assert_cb_witness_replays(tmp_path / "r.json")
    short = tree_file(tmp_path, "short.txt", path(2))
    assert main(["cb-pair", short, "--n", "3"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["cb-pair", t, "--n", "5"])
    capsys.readouterr()


# stdout of cb-criterion --n1 4 --n2 2 and cb-pair --n 2 on SPLIT_TREE, by sha256
SPLIT_TREE = "0 1\n1 2\n2 3\n3 4\n2 5\n"
SPLIT_DIGESTS = {
    ("cb-criterion", "--n1", "4", "--n2", "2"):
        "ebaf3ae081d7617ee78d77fd82e3c0943fa5a69563d549b8fb38b78afc244187",
    ("cb-pair", "--n", "2"):
        "2ccfd72bffb26ba88aa2c10ca34d4de5576a104513012c2aded8222e32051ff4",
}


def test_both_double_star_commands_report_one_split(tmp_path, capsys):
    t = write(tmp_path, "t.txt", SPLIT_TREE)
    docs = []
    for argv, want in SPLIT_DIGESTS.items():
        rep = tmp_path / "r.json"
        assert main([*argv, t, "--report", str(rep)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv
        doc = json.loads(rep.read_text())
        assert doc.pop("command") == argv[0]
        del doc["elapsed"]
        docs.append(doc)
    assert docs[0] == docs[1]


# -- searching ---------------------------------------------------------------------


def test_search_numbering_roundtrip(tmp_path, capsys):
    t = tree_file(tmp_path, "t.txt", spider(2, 2, 1))
    assert main(["search", t]) == 0
    out = capsys.readouterr().out
    tree, labels = parse_tree_labeled(format_tree(spider(2, 2, 1)))
    nu = parse_numbering(out, tree, labels)
    assert check_friendly_numbering(nu) is None


def test_search_bijection_between_files(tmp_path, capsys):
    a = tree_file(tmp_path, "a.txt", path(3))
    b = tree_file(tmp_path, "b.txt", star(3))
    assert main(["search", a, b]) == 0
    capsys.readouterr()


def test_search_on_the_single_vertex(tmp_path, capsys):
    a = write(tmp_path, "a.txt", ".\n")
    b = write(tmp_path, "b.txt", ".\n")
    assert main(["search", a]) == 0
    assert main(["search", a, b]) == 0
    capsys.readouterr()


def test_search_proves_absence(tmp_path, capsys):
    cb = tree_file(tmp_path, "cb.txt", make_cb(5, 5).tree)
    sp = tree_file(tmp_path, "sp.txt", spider(3, 3, 3))
    assert main(["search", cb, sp, "--exhaustive"]) == 1
    assert "no friendly bijection" in capsys.readouterr().err
    assert main(["search", cb, sp, "--max-nodes", "5"]) == 3
    capsys.readouterr()


def test_search_rejects_a_nan_time_limit(tmp_path, capsys):
    t = tree_file(tmp_path, "t.txt", path(3))
    assert main(["search", t, "--time-limit", "nan"]) == 2
    assert "time_limit" in capsys.readouterr().err


# -- surveys -----------------------------------------------------------------------


def test_sweep_question_path(tmp_path, capsys):
    out = str(tmp_path / "sweep.json")
    assert main(["sweep", "--kind", "question-path", "-m", "4", "--out", out]) == 0
    err = capsys.readouterr().err
    assert "0 finding(s)" in err
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["schema"] == "tree-amity/1"
    assert doc["kind"] == "question-path"
    assert doc["counts"] == {"found": 7}
    for rec in doc["records"]:
        tree, labels = parse_tree_labeled(rec["tree"])
        nu = parse_numbering(rec["witness"], tree, labels)
        assert check_friendly_numbering(nu) is None


def test_sweep_cb(tmp_path, capsys):
    out = str(tmp_path / "cb.json")
    assert main(
        ["sweep", "--kind", "cb", "--n1", "2", "--n2", "2", "--out", out]
    ) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "cb.json").read_text())
    assert len(doc["records"]) == 2
    assert doc["counts"] == {"found": 2}


def test_sweep_prints_each_finding(tmp_path, capsys):
    out = str(tmp_path / "cb.json")
    assert main(["sweep", "--kind", "cb", "--n1", "5", "--n2", "5", "--confirm",
                 "--jobs", "1", "--out", out]) == 0
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if "finding [" in line]
    assert line.startswith(f"  finding [none] {spider(3, 3, 3).canonical_code()}: ")
    assert line.endswith("(no subtree pair; exhaustive bijection search agrees)")


def test_report_records_carry_the_record_fields(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--kind", "d4", "-m", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    rec = sweep_hypothesis(3, "d4").records[-1]
    doc = json.loads(out.read_text())["records"][-1]
    assert list(doc) == list(asdict(rec))
    assert doc == asdict(rec)


def test_sweep_argument_errors(tmp_path, capsys):
    assert main(["sweep", "--kind", "cb", "--n1", "2"]) == 2
    assert main(["sweep", "--kind", "d4"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["question-path", "d4", "odd"])
def test_sweep_rejects_sizes_below_one(tmp_path, capsys, kind):
    assert main(["sweep", "--kind", kind, "-m", "-2"]) == 2
    assert main(["sweep", "--kind", kind, "-m", "0"]) == 2
    assert "max_edges must be at least 1" in capsys.readouterr().err


def test_jobs_must_be_positive(capsys):
    assert main(["audit-symmetry", "-m", "2", "--jobs", "0"]) == 2
    assert capsys.readouterr().err == "error: --jobs must be at least 1, got 0\n"


def test_jobs_come_from_the_flag_alone(tmp_path, capsys, monkeypatch):
    # the environment names no worker count, not even a bad one
    outs = [tmp_path / "plain.json", tmp_path / "env.json"]
    argv = ["sweep", "--kind", "question-path", "-m", "3", "--jobs", "1", "--out"]
    assert main([*argv, str(outs[0])]) == 0
    monkeypatch.setenv("TREE_AMITY_JOBS", "0")
    assert main([*argv, str(outs[1])]) == 0
    capsys.readouterr()
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_reports_do_not_depend_on_the_worker_count(tmp_path, capsys):
    for argv in (["sweep", "--kind", "question-path", "-m", "9"],
                 ["audit-symmetry", "-m", "4"]):
        outs = [tmp_path / f"jobs{jobs}.json" for jobs in (1, 2)]
        for jobs, out in zip((1, 2), outs):
            assert main([*argv, "--jobs", str(jobs), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
    capsys.readouterr()


# sha256 of each report at --jobs 1, and of the enumerate output: a
# change to any record, its order or its layout shows here
REPORT_DIGESTS = {
    ("sweep", "--kind", "question-path", "-m", "9"):
        "6cec976975579fa45bd0c985c149e19264ad3cf9e828703ffd8ef97944edeca3",
    ("sweep", "--kind", "d4", "-m", "8"):
        "9e7c45303ef51b0a7fe8bfdff97d7052f522e87adb251837eee26fc63e7f26e4",
    ("sweep", "--kind", "odd", "-m", "9"):
        "4233c52a5e3e9b2605ebb3e517f356cb3e26b9f073a0a3c05f20e38ff859d4f6",
    ("sweep", "--kind", "cb", "--n1", "5", "--n2", "5", "--confirm"):
        "dd651e3eb80cc57157ede871bf7d55da56dad6164ea167d2b539d7c9623685c4",
    ("audit-symmetry", "-m", "5"):
        "acd7942ad2875d2169d145178a9545004dd9a6659dc90f54f4d8489b084105c4",
}
ENUMERATE_6_DIGEST = "33005f596241c7ac6a20e14b542c2339e0d3013aa504d8de70b45c54b8c6f489"


def test_reports_match_their_pinned_digests(tmp_path, capsys):
    out = tmp_path / "report.json"
    for argv, want in REPORT_DIGESTS.items():
        assert main([*argv, "--jobs", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, argv
    capsys.readouterr()
    assert main(["enumerate", "-m", "6"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATE_6_DIGEST


def test_audit_symmetry_cli(tmp_path, capsys):
    out = str(tmp_path / "audit.json")
    assert main(["audit-symmetry", "-m", "3", "--out", out]) == 0
    assert "0 inverse failures" in capsys.readouterr().err
    doc = json.loads((tmp_path / "audit.json").read_text())
    assert doc["command"] == "audit-symmetry"
    assert all(rec["inverse_failures"] == 0 for rec in doc["records"])


def test_enumerate_output(capsys):
    assert main(["enumerate", "-m", "3"]) == 0
    blocks = [b for b in capsys.readouterr().out.split("\n\n") if b.strip()]
    assert len(blocks) == 2
    codes = {parse_tree(b).canonical_code() for b in blocks}
    assert len(codes) == 2


def test_enumerate_single_vertex(capsys):
    assert main(["enumerate", "-m", "0"]) == 0
    assert capsys.readouterr().out.strip() == "."


# -- reports -----------------------------------------------------------------------


@pytest.fixture
def emitted(monkeypatch):
    """Every (path, command, body) the report writer is given, in order.

    A survey's records come as an iterator that makes each dict as it is
    drawn; the body kept here holds them drawn into a list, and the
    writer gets a fresh iterator over that list."""
    calls = []
    emit = cli._emit_report

    def note(path, command, body):
        if "records" in body:
            records = body["records"]
            assert iter(records) is records, "records handed over as a whole list"
            body = {**body, "records": list(records)}
            calls.append((path, command, body))
            body = {**body, "records": iter(body["records"])}
        else:
            calls.append((path, command, body))
        emit(path, command, body)

    monkeypatch.setattr(cli, "_emit_report", note)
    return calls


SURVEYS = [
    ["sweep", "--kind", "question-path", "-m", "6"],
    ["sweep", "--kind", "d4", "-m", "6"],
    ["sweep", "--kind", "odd", "-m", "7"],
    ["sweep", "--kind", "odd", "-m", "2"],  # no tree qualifies: "records": []
    ["sweep", "--kind", "cb", "--n1", "5", "--n2", "5", "--confirm"],  # a null witness
    ["audit-symmetry", "-m", "4"],
]


@pytest.mark.parametrize("argv", SURVEYS, ids=" ".join)
def test_survey_reports_match_the_whole_document_encoding(tmp_path, capsys, emitted, argv):
    out = tmp_path / "report.json"
    assert main([*argv, "--jobs", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    ((to, command, body),) = emitted
    assert to == str(out)
    assert out.read_bytes() == report_text(command, body).encode("utf-8")


def test_a_survey_writes_the_same_bytes_to_stdout_and_to_its_out_file(tmp_path, capsys):
    argv = ["sweep", "--kind", "d4", "-m", "5", "--jobs", "1"]
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def _report_inputs(tmp_path):
    """Input files for the commands that take --report, by name."""
    texts = {
        "p3": format_tree(path(3)),
        "p4": format_tree(path(4)),
        "p5": format_tree(path(5)),
        "p7": format_tree(path(7)),
        "friendly": "0 1 1\n1 2 2\n2 3 3\n",
        "unfriendly": "0 1 1\n1 2 3\n2 3 2\n",
        "hooked": "0 1 -> 0 1\n1 2 -> 2 3\n2 3 -> 1 2\n3 4 -> 3 4\n",
        # two 7-edge trees with no friendly bijection between them
        "a7": "0 1\n1 2\n2 3\n3 4\n4 5\n4 6\n1 7\n",
        "b7": "0 1\n1 2\n2 3\n3 4\n2 5\n5 6\n2 7\n",
    }
    return {name: write(tmp_path, f"{name}.txt", text) for name, text in texts.items()}


REPORTED_RUNS = {
    "check-numbering ok": (["check-numbering", "p3", "friendly"], 0, "ok"),
    "check-numbering violation": (["check-numbering", "p3", "unfriendly"], 1, "violation"),
    "check-bijection violation": (["check-bijection", "p4", "p4", "hooked"], 1, "violation"),
    "number": (["number", "p3"], 0, "ok"),
    "cb-criterion": (["cb-criterion", "--n1", "4", "--n2", "4", "p7"], 0, "ok"),
    "cb-pair": (["cb-pair", "--n", "2", "p5"], 0, "ok"),
    "search none": (["search", "a7", "b7", "--exhaustive"], 1, "none"),
}


@pytest.mark.parametrize("name", list(REPORTED_RUNS))
def test_run_reports_match_the_whole_document_encoding(tmp_path, capsys, emitted, name):
    argv, code, outcome = REPORTED_RUNS[name]
    files = _report_inputs(tmp_path)
    out = tmp_path / "report.json"
    assert main([files.get(a, a) for a in argv] + ["--report", str(out)]) == code
    capsys.readouterr()
    ((to, command, body),) = emitted
    assert (to, body["outcome"]) == (str(out), outcome)
    assert out.read_bytes() == report_text(command, body).encode("utf-8")


def test_writing_a_report_holds_no_copy_of_it(tmp_path):
    """Encoding the whole document at once would hold 5.5 times the report."""
    body = sweep_question_path(10, jobs=1).to_json_dict()
    body["records"] = list(body["records"])  # made before the count starts
    out = tmp_path / "question-path-10.json"
    tracemalloc.start()
    try:
        cli._emit_report(str(out), "sweep", body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 2


_SUBCOMMANDS = next(
    action.choices for action in cli.build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
)
# the report flag of every command that writes a report
_REPORT_FLAG = {
    name: flag
    for name, sub in _SUBCOMMANDS.items()
    for flag in ("--out", "--report") if flag in sub._option_string_actions
}

# the arguments before the report flag of every command that writes a
# report (a command missing here fails the test); TREE is a 3-edge path
_WORK_ARGV = {
    "check-numbering": ["TREE", "NUMBERING"],
    "check-bijection": ["TREE", "TREE", "BIJECTION"],
    "number": ["TREE"],
    "cb-criterion": ["TREE", "--n1", "2", "--n2", "2"],
    "cb-pair": ["TREE", "--n", "2"],
    "search": ["TREE", "TREE", "--exhaustive"],
    "sweep": ["--kind", "question-path", "-m", "3"],
    "audit-symmetry": ["-m", "2"],
}

# every function of the package that a command calls to do its work
_WORK = (
    "search_numbering", "search_bijection", "number_by_trunk",
    "number_parity_center", "check_friendly_numbering",
    "check_friendly_bijection", "find_subtree_pair", "small_n_pair",
    "sweep_cb_universal", "sweep_hypothesis", "sweep_question_path",
    "symmetry_audit",
)


@pytest.mark.parametrize("command", sorted(_REPORT_FLAG))
def test_a_report_path_in_a_missing_directory_exits_2(tmp_path, capsys, monkeypatch, command):
    # every command must fail before it works, not after: working exits 4;
    # a report path that is a directory fails the same way
    def ran(*args, **kwargs):
        raise RuntimeError("the command did its work")

    for work in _WORK:
        monkeypatch.setattr(cli, work, ran)
    files = {
        "TREE": tree_file(tmp_path, "t.txt", path(3)),
        "NUMBERING": write(tmp_path, "n.txt", "0 1 1\n1 2 2\n2 3 3\n"),
        "BIJECTION": write(tmp_path, "b.txt", "0 1 -> 0 1\n1 2 -> 1 2\n2 3 -> 2 3\n"),
    }
    argv = [command, *(files.get(a, a) for a in _WORK_ARGV[command]), _REPORT_FLAG[command]]
    for bad in (str(tmp_path / "absent" / "report.json"), str(tmp_path)):
        assert main(argv + [bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and bad in err
        assert err.count("\n") == 1
    # with a report path it can write, the same command reaches its work
    assert main(argv + [str(tmp_path / "r.json")]) == 4
    assert "the command did its work" in capsys.readouterr().err


# -- internal errors and entry points ------------------------------------------------

SRC_DIR = str(Path(tree_amity.__file__).resolve().parents[1])


def _run_python(*args, timeout=120):
    paths = [SRC_DIR] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_commands_load_only_what_they_run(tmp_path):
    """A survey and an audit with one worker and a check without a report
    load neither the digest nor the process pool; a check with a report
    loads the digest, of each input file's bytes.  Run in a fresh
    interpreter, since the test runner loads hashlib itself."""
    tree = tmp_path / "t.txt"
    tree.write_bytes("\ufeff# chemin à trois arêtes\n0 1\n1 2\n2 3\n".encode("utf-8"))
    numbering = tmp_path / "n.txt"
    numbering.write_bytes(b"0 1 1\n1 2 2\n2 3 3\n")
    script = (
        "import json, sys\n"
        "import tree_amity\n"
        "from tree_amity.cli import main\n"
        "t, nb, d = sys.argv[1:]\n"
        "heavy = ('hashlib', '_hashlib', 'concurrent.futures', 'multiprocessing')\n"
        "codes = [\n"
        "    main(['sweep', '--kind', 'question-path', '-m', '6', '--jobs', '1',\n"
        "          '--out', d + '/sweep.json']),\n"
        "    main(['audit-symmetry', '-m', '4', '--jobs', '1', '--out', d + '/audit.json']),\n"
        "    main(['check-numbering', t, nb]),\n"
        "]\n"
        "before = [m for m in heavy if m in sys.modules]\n"
        "codes.append(main(['check-numbering', t, nb, '--report', d + '/r.json']))\n"
        "after = [m for m in heavy if m in sys.modules]\n"
        "print(json.dumps([codes, before, after]))\n"
    )
    proc = _run_python("-c", script, str(tree), str(numbering), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    codes, before, after = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert before == []
    assert after == ["hashlib", "_hashlib"]
    doc = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    assert [list(entry) for entry in doc["inputs"]] == [["path", "sha256", "text"]] * 2
    for entry, file in zip(doc["inputs"], (tree, numbering)):
        assert entry["path"] == str(file)
        assert entry["sha256"] == hashlib.sha256(file.read_bytes()).hexdigest()
        assert entry["text"].encode("utf-8") == file.read_bytes()


def _fake_violation(nu):
    return NumberingPairViolation(k=1, j=2, s=0, path_edges=(), path_numbers=())


def test_failed_reverification_exits_internal(tmp_path, capsys, monkeypatch):
    t = tree_file(tmp_path, "t.txt", path(3))
    monkeypatch.setattr(amity, "check_friendly_numbering", _fake_violation)
    assert main(["number", t]) == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: VerificationFailed")
    assert captured.err.count("\n") == 1


def test_failed_reverification_exits_internal_under_optimize(tmp_path):
    """A numbering witness and a bijection witness that fail their
    re-check stop the command under -O too."""
    t = tree_file(tmp_path, "t.txt", path(3))
    for checker, command in (
        ("check_friendly_numbering", ["number", t]),
        ("check_friendly_bijection", ["search", t, t]),
    ):
        script = (
            "import sys\n"
            "from tree_amity import amity\n"
            "from tree_amity.cli import main\n"
            f"amity.{checker} = lambda witness: 'fake violation'\n"
            "raise SystemExit(main(sys.argv[1:]))\n"
        )
        proc = _run_python("-O", "-c", script, *command)
        assert proc.returncode == 4, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("internal error: VerificationFailed")


def test_cb_pair_without_a_split_exits_internal(tmp_path, capsys, monkeypatch):
    t = tree_file(tmp_path, "t.txt", path(5))
    monkeypatch.setattr(cb_module, "find_subtree_pair", lambda tree, n1, n2: None)
    assert main(["cb-pair", t, "--n", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: VerificationFailed")
    assert captured.err.count("\n") == 1


def test_unexpected_crash_exits_internal(tmp_path, capsys, monkeypatch):
    t = tree_file(tmp_path, "t.txt", path(3))

    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "search_numbering", crash)
    assert main(["search", t]) == 4
    assert capsys.readouterr().err == (
        "internal error: RecursionError: maximum recursion depth exceeded\n"
    )


def test_search_command_numbers_a_1500_edge_path(tmp_path, capsys):
    t = tree_file(tmp_path, "t.txt", relabeled(path(1500), random.Random(1500)))
    proc = _run_python("-m", "tree_amity", "search", t)
    assert proc.returncode == 0, proc.stderr
    nb = write(tmp_path, "n.txt", proc.stdout)
    assert main(["check-numbering", t, nb]) == 0
    capsys.readouterr()


def test_python_dash_m_runs_the_cli():
    proc = _run_python("-m", "tree_amity", "enumerate", "-m", "3")
    assert proc.returncode == 0, proc.stderr
    shapes = [parse_tree(block) for block in proc.stdout.split("\n\n")]
    assert sorted(max(t.degrees) for t in shapes) == [2, 3]


# -- the survey script ---------------------------------------------------------------

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_sweeps.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_sweeps", SCRIPT)
    run_sweeps = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_sweeps)
    return run_sweeps


def test_run_sweeps_writes_cli_reports(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert _load_script().main([
        "--question-edges", "4", "--d4-edges", "4", "--odd-edges", "5",
        "--cb", "2", "2", "--audit-edges", "3", "--out-dir", str(out_dir),
    ]) == 0
    lines = re.findall(
        r"^(\S+): exit 0 in \d+\.\ds -> .+ \((\d+) bytes; peak RSS so far (\d+\.\d) MiB\)$",
        capsys.readouterr().out, re.MULTILINE,
    )
    summary = [(name, size) for name, size, _ in lines]
    peaks = [float(peak) for _, _, peak in lines]
    assert peaks == sorted(peaks) and peaks[0] > 0  # a running maximum
    commands = {
        "audit-3": ["audit-symmetry", "-m", "3"],
        "cb-2-2": ["sweep", "--kind", "cb", "--n1", "2", "--n2", "2", "--confirm"],
        "d4-4": ["sweep", "--kind", "d4", "-m", "4"],
        "odd-5": ["sweep", "--kind", "odd", "-m", "5"],
        "question-path-4": ["sweep", "--kind", "question-path", "-m", "4"],
    }
    assert sorted(f.stem for f in out_dir.glob("*.json")) == list(commands)
    for name, argv in commands.items():
        out = tmp_path / f"{name}.json"
        assert main([*argv, "--jobs", "1", "--out", str(out)]) == 0
        assert (out_dir / f"{name}.json").read_bytes() == out.read_bytes(), name
    capsys.readouterr()
    assert sorted(summary) == [
        (name, str((out_dir / f"{name}.json").stat().st_size)) for name in commands
    ]


def test_run_sweeps_returns_the_worst_exit_code(tmp_path, monkeypatch, capsys):
    run_sweeps = _load_script()
    monkeypatch.setattr(run_sweeps.cli, "main",
                        lambda argv: 1 if argv[0] == "audit-symmetry" else 0)
    assert run_sweeps.main(["--out-dir", str(tmp_path)]) == 1
    capsys.readouterr()
