"""One workload in one fresh process; started by run.py.

The process imports the package from the checkout's ``src``, builds the
workload's inputs from the seed, runs one small warm-up operation per
operation type, and then prints ``ready``; the time from its start to that
line is its set-up time.  What follows depends on ``--mode``:

* ``setup`` exits at once.
* ``measure`` repeats the workload's operation list, each operation timed
  on its own with garbage collected beforehand, until the next repetition
  would end after ``--seconds``; it always completes at least one.
* ``trace`` runs the list once plainly, once with every module boundary
  traced, then repeats the largest call of each memory-measured function
  under tracemalloc.

Every output is checked outside the timed region.  The last line printed is
one JSON object with the results.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the package path above)


def run_op(op, tally: dict, patch=None) -> float | None:
    """Run one operation, then check it; returns its time, or None when it
    raised.  A raise or a failed check counts as a failed operation.
    ``patch``, when given, installs tracing around the run alone and returns
    the function that removes it."""
    tally["attempted"] += 1
    gc.collect()
    elapsed = None
    try:
        unpatch = patch() if patch else None
        try:
            start = time.perf_counter()
            result = op.run()
            elapsed = time.perf_counter() - start
        finally:
            if unpatch:
                unpatch()
        op.check(result)
    except Exception:  # any failure of the program counts, and the run goes on
        tally["failed"] += 1
        print(f"operation {op.name} failed:", file=sys.stderr)
        traceback.print_exc()
    return elapsed


def run_list(ops, tally: dict, op_times: dict | None = None, patch=None) -> float:
    total = 0.0
    for op in ops:
        elapsed = run_op(op, tally, patch)
        total += elapsed or 0.0
        if op_times is not None:
            op_times.setdefault(op.name, []).append(elapsed)
    return total


def measure(ops, seconds: float, tally: dict) -> dict:
    walls = []
    op_times: dict = {}
    started = time.perf_counter()
    while True:
        walls.append(run_list(ops, tally, op_times))
        spent = time.perf_counter() - started
        if spent + spent / len(walls) > seconds:
            break
    return {"walls": walls, "op_times": op_times}


def trace(ops, tally: dict, trace_out: Path) -> dict:
    import tracing

    plain = run_list(ops, tally)
    recorder = tracing.Recorder()
    traced = run_list(ops, tally, patch=lambda: tracing.patch(recorder, [workloads]))
    peaks = tracing.replay_peaks(recorder)
    trace_out.write_text(json.dumps(recorder.to_json()) + "\n", encoding="utf-8")
    return {"layers": layer_metrics(recorder, peaks, traced - plain)}


def layer_metrics(recorder, peaks: dict, overhead: float) -> dict:
    """The per-layer metrics; a layer the workload never calls reads 0."""
    def group(name):
        return recorder.groups.get(name, {"time_s": 0.0, "calls": 0})

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out = {}
    enum = group("enumeration.enumerate")
    out["enumeration.enumerate_s"] = enum["time_s"]
    out["enumeration.trees"] = enum["calls"]
    for kind in ("numbering", "bijection"):
        g = group(f"search.{kind}")
        out[f"search.{kind}_s"] = g["time_s"]
        out[f"search.{kind}_nodes"] = g.get("nodes", 0)
        out[f"search.{kind}_nodes_per_s"] = rate(g.get("nodes", 0), g["time_s"])
    out["trees.build_s"] = group("trees.build")["time_s"]
    out["trees.build_calls"] = group("trees.build")["calls"]
    out["trees.query_s"] = group("trees.query")["time_s"]
    out["trees.peak_mb"] = peaks.get("trees", 0.0)
    for kind in ("numbering", "bijection"):
        g = group(f"amity.check_{kind}")
        out[f"amity.check_{kind}_s"] = g["time_s"]
        out[f"amity.check_{kind}_calls"] = g["calls"]
        out[f"amity.check_{kind}_peak_mb"] = peaks.get(f"amity.check_{kind}", 0.0)
    out["trunk.find_s"] = group("trunk.find")["time_s"]
    out["trunk.number_s"] = group("trunk.number")["time_s"]
    out["parity.precondition_s"] = group("parity.precondition")["time_s"]
    out["parity.number_s"] = group("parity.number")["time_s"]
    pair = group("cb.find_pair")
    out["cb.find_pair_s"] = pair["time_s"]
    out["cb.find_pair_calls"] = pair["calls"]
    out["cb.pair_hit_ratio"] = rate(pair.get("hits", 0), pair["calls"])
    own = recorder.self_times()
    out["cli.report_s"] = sum(own[s["id"]] for s in recorder.spans if s["name"] == "cli.main")
    out["trace.overhead_s"] = overhead
    return out


def record_jobs() -> list[int]:
    """Make ``cli`` note every job count it resolves for a sweep or audit;
    returns the list the counts go to."""
    from tree_amity import cli

    seen: list[int] = []
    resolve = cli._resolve_jobs

    def resolve_and_note(flag):
        jobs = resolve(flag)
        seen.append(jobs)
        return jobs

    cli._resolve_jobs = resolve_and_note
    return seen


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--trace-out", type=Path, required=True)
    args = parser.parse_args()

    tally = {"attempted": 0, "failed": 0}
    jobs_seen = record_jobs()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=ROOT / ".perfbench") as tmp:
        warm_up, ops = workloads.build(args.workload, args.seed, Path(tmp))
        for op in warm_up:
            run_op(op, tally)
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "measure":
            out = measure(ops, args.seconds, tally)
        else:
            out = trace(ops, tally, args.trace_out)
    out.update(tally)
    # The job counts the sweeps and audits ran with; ``large`` runs no
    # command and works in this one process.
    out["jobs"] = max(jobs_seen, default=1)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
