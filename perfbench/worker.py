"""Run one workload's rounds in a fresh process, in-process through qtwoparty.cli.main.

Usage: python3 perfbench/worker.py PLAN_JSON

``run.py`` writes the plan (invocations, seconds, trace flag, directories)
and starts this script as the single process that carries the load. Rounds
repeat until ``seconds`` have passed, and never fewer than ``rounds_min``.
The results go to ``worker.json`` in the run directory, spans (traced runs
only) to ``spans.npz``.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback


def peak_rss_kib() -> int:
    """Peak resident memory of this process image (VmHWM).

    ``ru_maxrss`` would also count the image of the parent this process was
    started from, which can exceed the worker's own peak.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def invoke(main, argv) -> int:
    """One operation: exit status of cli.main, or 1 if it raised."""
    try:
        return int(main(argv))
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def main(plan_path: str) -> None:
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    t0 = time.perf_counter()
    import qtwoparty
    import qtwoparty.cli
    import_s = time.perf_counter() - t0

    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(qtwoparty)
    cli = qtwoparty.cli

    records = []
    rounds = []
    start = time.perf_counter()
    while len(rounds) < plan["rounds_min"] or time.perf_counter() - start < plan["seconds"]:
        rdir = os.path.join(plan["dir"], f"round{len(rounds)}")
        os.makedirs(rdir)
        total = 0.0
        for inv in plan["invocations"]:
            argv = [a.replace("{dir}", rdir) for a in inv["argv"]]
            if tracer is not None:
                tracer.run = len(records)
            t = time.perf_counter()
            status = invoke(cli.main, argv)
            dt = time.perf_counter() - t
            total += dt
            records.append({"round": len(rounds), "sub": argv[0], "status": status, "s": dt})
        rounds.append({"dir": rdir, "s": total})
    peak_kib = peak_rss_kib()

    if tracer is not None:
        import probes

        pdir = os.path.join(plan["dir"], "probes")
        os.makedirs(pdir)
        for label, step in probes.steps(qtwoparty, plan["seed"], pdir):
            tracer.run = len(records)
            t = time.perf_counter()
            step()
            records.append({"round": -1, "sub": label, "status": 0, "s": time.perf_counter() - t})
        tracer.save(os.path.join(plan["dir"], "spans.npz"))

    with open(os.path.join(plan["dir"], "worker.json"), "w") as fh:
        json.dump(
            {"import_s": import_s, "peak_rss_kib": peak_kib, "rounds": rounds, "records": records},
            fh,
        )


if __name__ == "__main__":
    main(sys.argv[1])
