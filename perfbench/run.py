"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's ``src``; nothing needs building.  The run

* starts ``SETUP_SAMPLES`` fresh processes that only set the workload up,
  and times each from its start to its ``ready`` line;
* starts one more fresh process that sets up the same way (a further
  set-up sample) and then measures the workload for ``--seconds`` (with
  ``--trace 0``) or runs the traced pass (with ``--trace 1``);
* prints an ``{"environment": ...}`` line, then as its last line one JSON
  object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``):

* ``wall_s``: median time of the workload's operation list;
* ``setup_s``: median set-up time over all set-up samples;
* ``peak_rss_mb``: peak resident memory of the measuring process;
* ``ok_share``: operations that succeeded and passed their check, over
  operations attempted.

With ``--trace 1`` the metrics are the per-layer ones listed in
BENCHMARK.json.  The exit code is 0 when a result was printed, also for a
run whose outputs were wrong (``correct`` is then false); it is 2 when the
package or a worker could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 8
WORKER_TIMEOUT_S = 170.0


class RunError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    # The variable overrides --jobs inside the package; every run is
    # single-worker (see README.md).
    env.pop("TREE_AMITY_JOBS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, mode: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns the process
    and its set-up time."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--trace-out", str(WORK / f"trace-{args.workload}-{args.seed}.json"),
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - started
    if line.strip() != "ready":
        finish(proc)
        raise RunError(f"{mode} worker did not get ready (got {line!r})")
    return proc, setup


def finish(proc: subprocess.Popen) -> str:
    """Wait for a worker and return the rest of its output."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker timed out") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return out


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, check=False)
    return got.stdout.strip() or None


def run(args, declared: dict) -> tuple[dict, dict]:
    load_start = os.getloadavg()[0]
    setups = []
    for _ in range(SETUP_SAMPLES):
        proc, setup = start_worker(args, "setup")
        finish(proc)
        setups.append(setup)
    mode = "trace" if args.trace else "measure"
    proc, setup = start_worker(args, mode)
    setups.append(setup)
    result = json.loads(finish(proc).strip().splitlines()[-1])

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        values = result["layers"]
    else:
        values = {
            "wall_s": statistics.median(result["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_share": (attempted - failed) / attempted,
        }
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        raise RunError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    environment = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "load_1m_start": load_start,
        "load_1m_end": os.getloadavg()[0],
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": result["jobs"],
        "samples": {"wall_s": len(result.get("walls", [])), "setup_s": len(setups)},
        "walls": result.get("walls"),
        "setups": setups,
        "op_times": result.get("op_times"),
    }
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return environment, line


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Run one workload of the tree-amity benchmark.")
    parser.add_argument("--workload", choices=[w["name"] for w in declared["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tree_amity" / "__init__.py").is_file():
        print(f"error: no tree_amity package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        environment, line = run(args, declared)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment}))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
