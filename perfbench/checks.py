"""Output checks per workload, against the oracles and properties the method must have.

``check`` runs the workload's checks on the first round's output files and
requires every later round of the run to reproduce those files byte for
byte (the program is deterministic for fixed inputs). It returns a list of
failure messages, empty when every check holds. No check compares with a
stored copy of an earlier run's output.
"""

from __future__ import annotations

import csv
import json
import math
import os

import oracles
import workloads

BC_HEADER = [
    "theta", "M", "N", "f", "d", "f_plus_d", "alice_quantum", "bob_quantum",
    "alice_classical", "bob_classical_raw", "bob_classical_clipped", "exact_or_interval",
]
FD_SLACK = 1e-9        # the obstruction's own tolerance: f + d >= 1 - 1e-9
BRACKET_TOL = 1e-12    # Fuchs-van de Graaf bracket, and d against the block oracle
F_REL, F_ABS = 1e-9, 1e-14
RESIDUAL_TOL = 1e-12
CORRELATOR_TOL = 1e-12
SIGMAS = 4.0


def _read_bc_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != BC_HEADER:
        raise ValueError(f"{path}: header {rows[0]}")
    out = []
    for raw in rows[1:]:
        row = dict(zip(BC_HEADER, raw))
        out.append({k: (v if k == "exact_or_interval" else int(v) if k in ("M", "N") else float(v))
                    for k, v in row.items()})
    return out


def _check_bc_row(row: dict, theta: float) -> list[str]:
    """Properties every commitment row must have, exact or interval."""
    m, n, f, d = row["M"], row["N"], row["f"], row["d"]
    where = f"(M, N, theta) = ({m}, {n}, {theta!r})"
    fails = []
    if row["theta"] != theta:
        fails.append(f"{where}: theta column reads {row['theta']!r}")
    if not f + d >= 1.0 - FD_SLACK:
        fails.append(f"{where}: f + d = {f + d!r} < 1 - 1e-9")
    if not (1.0 - f - BRACKET_TOL <= d <= math.sqrt(max(0.0, 1.0 - f * f)) + BRACKET_TOL):
        fails.append(f"{where}: d = {d!r} outside [1 - f, sqrt(1 - f^2)] for f = {f!r}")
    f_ref = oracles.binomial_tail_f(m, n, theta)
    if not math.isclose(f, f_ref, rel_tol=F_REL, abs_tol=F_ABS):
        fails.append(f"{where}: f = {f!r}, binomial tail gives {f_ref!r}")
    alice, raw, bob = oracles.classical_bounds(m, n, theta)
    for col, ref in (("alice_classical", alice), ("bob_classical_raw", raw), ("bob_classical_clipped", bob)):
        if not math.isclose(row[col], ref, rel_tol=F_REL, abs_tol=F_ABS):
            fails.append(f"{where}: {col} = {row[col]!r}, closed form gives {ref!r}")
    derived = (("f_plus_d", f + d), ("alice_quantum", 0.5 * (1 + f * f)), ("bob_quantum", 0.5 * (1 + d)))
    for col, ref in derived:
        if abs(row[col] - ref) > 1e-15:
            fails.append(f"{where}: {col} = {row[col]!r}, from f and d {ref!r}")
    return fails


def _bc_outputs(plan, rdir, extra) -> list[str]:
    fails = []
    for inv in plan["invocations"]:
        rows = _read_bc_csv(os.path.join(rdir, inv["output"]))
        if [(r["M"], r["N"]) for r in rows] != [tuple(p) for p in inv["rows"]]:
            fails.append(f"{inv['output']}: rows {[(r['M'], r['N']) for r in rows]}")
            continue
        for row in rows:
            fails += _check_bc_row(row, inv["theta"])
            fails += extra(row, inv["theta"])
    return fails


def check_exact_grid(plan, rdir) -> list[str]:
    def exact(row, theta):
        m, n, d = row["M"], row["N"], row["d"]
        fails = []
        if row["exact_or_interval"] != "exact":
            fails.append(f"({m}, {n}): grid row labelled {row['exact_or_interval']!r}")
        ref = oracles.block_trace_distance(m, n)
        if abs(d - ref) > BRACKET_TOL:
            fails.append(f"({m}, {n}): d = {d!r}, block oracle gives {ref!r}")
        if n == 1 and abs(d - math.sin(2 * theta) ** m) > BRACKET_TOL:
            fails.append(f"({m}, 1): d = {d!r} differs from sin(2 theta)^M")
        return fails

    return _bc_outputs(plan, rdir, exact)


def check_paper_scale(plan, rdir) -> list[str]:
    return _bc_outputs(plan, rdir, lambda row, theta: [])


def check_feasibility(plan, rdir) -> list[str]:
    dims = workloads.FEASIBILITY_DIMS
    starts = oracles.start_points(dims, workloads.FEASIBILITY_RESTARTS, plan["search_seed"])
    fails = []
    for inv in plan["invocations"]:
        with open(os.path.join(rdir, inv["output"])) as fh:
            report = json.load(fh)
        families = [f for f in workloads.FAMILIES if f not in inv["drop"]]
        floor = report["best_total_residual"]
        comps = report["components"]
        if sorted(comps) != sorted(families):
            fails.append(f"{inv['output']}: components {sorted(comps)}")
            continue
        if not floor >= 0.0:
            fails.append(f"{inv['output']}: floor {floor!r} < 0")
        if abs(floor - math.fsum(comps.values())) > RESIDUAL_TOL:
            fails.append(f"{inv['output']}: floor {floor!r} != sum of components")
        for r, x0 in enumerate(starts):
            start = math.fsum(oracles.residual(x0, dims, families).values())
            if floor > start + RESIDUAL_TOL:
                fails.append(f"{inv['output']}: floor {floor!r} above restart {r}'s start {start!r}")
    return fails


def check_qkd(plan, rdir) -> list[str]:
    fails = []
    target = 2 * math.sqrt(2)
    # CLI defaults: alice (0, pi/4), bob (pi/8, 3pi/8); t = 0.4, t_eve = 0.8, eta_B = 0.8
    alice, bob = (0.0, math.pi / 4), (math.pi / 8, 3 * math.pi / 8)
    rates = {"none": 0.4 * 0.8, "demon": 0.8 * 0.8 / len(bob)}
    for inv in plan["invocations"]:
        where = inv["output"]
        with open(os.path.join(rdir, inv["output"])) as fh:
            stats = json.load(fh)["stats"]
        counts, corr = stats["cell_counts"], stats["correlators"]
        s = corr[0][0] - corr[0][1] + corr[1][0] + corr[1][1]
        var = sum(
            (1 - math.cos(2 * (alice[i] - bob[j])) ** 2) / counts[i][j]
            for i in range(2) for j in range(2)
        )
        if abs(s - target) > SIGMAS * math.sqrt(var):
            fails.append(f"{where}: CHSH {s!r} more than 4 sigma from 2 sqrt(2)")
        if abs(stats["chsh_value"] - s) > CORRELATOR_TOL:
            fails.append(f"{where}: chsh_value {stats['chsh_value']!r} != correlator sum {s!r}")
        rate, n = rates[inv["attack"]], inv["n_pairs"]
        observed = stats["n_coincident"] / n
        if abs(observed - rate) > SIGMAS * math.sqrt(rate * (1 - rate) / n):
            fails.append(f"{where}: coincidence rate {observed!r} more than 4 sigma from {rate!r}")
        if inv["attack"] == "demon" and stats["eve_knowledge_fraction"] != 1.0:
            fails.append(f"{where}: knowledge fraction {stats['eve_knowledge_fraction']!r} != 1")
        if inv["trials_csv"]:
            tally = oracles.retally_trials(os.path.join(rdir, inv["trials_csv"]), 2, 2)
            if tally["rows"] != n:
                fails.append(f"{where}: trial CSV has {tally['rows']} rows, expected {n}")
            if tally["n_coincident"] != stats["n_coincident"] or tally["cell_counts"] != counts:
                fails.append(f"{where}: re-tallied counts differ from the JSON")
            if any(abs(a - b) > CORRELATOR_TOL
                   for ra, rb in zip(tally["correlators"], corr) for a, b in zip(ra, rb)):
                fails.append(f"{where}: re-tallied correlators differ from the JSON")
            if not tally["eve_matches"]:
                fails.append(f"{where}: a coincident trial has b_set != e_set or b_out != e_out")
    return fails


CHECKS = {
    "feasibility-search": check_feasibility,
    "commitment-exact-grid": check_exact_grid,
    "commitment-paper-scale": check_paper_scale,
    "qkd-demon-trials": check_qkd,
}


def check(plan, rounds, records) -> list[str]:
    """Workload checks on the first round; byte-identical outputs in every later round.

    Invocations that failed (non-zero status) in the first round are left
    out: ``failed`` counts them, and the checks speak of the others.
    """
    n = len(plan["invocations"])
    ok = [r["status"] == 0 for r in records if r["round"] >= 0]
    passed = [i for i in range(n) if ok[i]]
    first = rounds[0]["dir"]
    try:
        fails = CHECKS[plan["workload"]](dict(plan, invocations=[plan["invocations"][i] for i in passed]), first)
    except Exception as exc:  # an unreadable or malformed output is a failed check
        fails = [f"outputs could not be checked: {exc!r}"]
    for i in passed:
        inv = plan["invocations"][i]
        for name in (inv["output"], inv.get("trials_csv")):
            if name is None:
                continue
            with open(os.path.join(first, name), "rb") as fh:
                ref = fh.read()
            for k, rnd in enumerate(rounds[1:], start=1):
                if not ok[k * n + i]:
                    continue
                with open(os.path.join(rnd["dir"], name), "rb") as fh:
                    if fh.read() != ref:
                        fails.append(f"{name}: {os.path.basename(rnd['dir'])} differs from round0")
    return fails
