"""Benchmark of the qtwoparty CLI: four workloads, checked outputs, metrics by name and unit.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of feasibility-search, commitment-exact-grid,
commitment-paper-scale, qkd-demon-trials, or ``all`` for the four in turn
(each prints its own lines; the exit status is the worst). For one workload
the run

1. makes the workload's inputs from the seed (``workloads``);
2. with ``--trace 0``, times the set-up of a fresh CLI process several times;
3. starts one worker process that runs whole rounds of the workload's CLI
   invocations in-process through ``qtwoparty.cli.main`` for S seconds,
   traced or not (``worker``), with BLAS threads capped at the core count;
4. checks every round's outputs against the oracles (``checks``,
   ``oracles``), after the oracles' own checks against the program;
5. prints each metric, then as the last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
   metrics untraced, the per-layer metrics (``layers``) traced.

Exit status: 0 when every check holds, 1 when one fails, 2 when the
benchmark cannot run (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")

SETUP_SAMPLES = 7
DEADLINE_S = 170.0


def cap_blas_threads() -> None:
    """Cap BLAS and OpenMP threads, here and in every child, at the cores this process may use."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cores


def measure_setup(deadline) -> float:
    """Median time from process start until the CLI's parser is built."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC],
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"the CLI does not start:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip()) - t0)
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark raises SystemExit, on which subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "qtwoparty", "cli.py")):
        print(f"error: no qtwoparty sources under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(name, args.seed, args.seconds, args.trace) for name in names)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    """Run, check and report one workload; returns the exit status."""
    deadline = time.monotonic() + DEADLINE_S
    rundir = os.path.join(RUNS, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    plan = workloads.plan(workload, seed)
    plan.update(seconds=seconds, trace=bool(trace), dir=rundir, src=SRC)
    plan_path = os.path.join(rundir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh, indent=1)

    try:
        setup_s = None if trace else measure_setup(deadline)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), plan_path],
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if proc.returncode != 0:
        print(f"error: the worker exited with status {proc.returncode}", file=sys.stderr)
        return 2
    with open(os.path.join(rundir, "worker.json")) as fh:
        worker = json.load(fh)

    sys.path.insert(0, SRC)
    import checks
    import oracles

    fails = [f"oracle self-check: {m}" for m in oracles.selfcheck(rundir)]
    fails += checks.check(plan, worker["rounds"], worker["records"])
    ops = [r for r in worker["records"] if r["round"] >= 0]
    failed = sum(1 for r in ops if r["status"] != 0)

    if trace:
        import layers

        try:
            metrics = layers.per_layer(os.path.join(rundir, "spans.npz"), worker)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(r["s"] for r in worker["rounds"]), "s"),
            "peak_rss_mib": (worker["peak_rss_kib"] / 1024.0, "MiB"),
        }
    for rnd in worker["rounds"]:
        shutil.rmtree(rnd["dir"])
    shutil.rmtree(os.path.join(rundir, "probes"), ignore_errors=True)

    for msg in fails:
        print(f"CHECK FAILED: {msg}")
    print(f"workload {workload} seed {seed} trace {trace}: "
          f"{len(worker['rounds'])} rounds, {len(ops)} operations, {failed} failed, "
          f"{'all checks hold' if not fails else f'{len(fails)} checks failed'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    result = {
        "correct": not fails,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(rundir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
