"""The four workloads: the qtwoparty CLI invocations of one round, made from a seed.

Every round of a run repeats the same invocations; only the output
directory changes (``{dir}`` in an argument is replaced by the round's
directory). An operation is one invocation of ``qtwoparty.cli.main``.
"""

from __future__ import annotations

import math

import numpy as np

PI6 = repr(math.pi / 6)

FAMILIES = ("half_bit", "half_hash", "wrong_bit", "bob_info", "alice_blind")
FEASIBILITY_DIMS = (2, 2, 2)
FEASIBILITY_RESTARTS = 2
FEASIBILITY_MAX_ITERS = 60

EXACT_CAP = 12          # criterion 3's grid: every (M, N) with M*N <= 12
PAPER_M, PAPER_N = 60, 6
PAPER_ANGLES = 4

QKD_STATS_PAIRS = 1_000_000
QKD_STATS_SEEDS = 2
QKD_CSV_PAIRS = 200_000


def n_params(dims) -> int:
    """Length of the feasibility search's parameter vector: two states and three G_i."""
    da, db, du = dims
    return 4 * da * db * du + 6 * db * db


def paper_scale_blocks() -> list[tuple[int, int, int, int]]:
    """(m_lo, m_hi, n_lo, n_hi) rectangles covering EXACT_CAP < M*N, M <= 60, N <= 6."""
    blocks = [(m, m, EXACT_CAP // m + 1, PAPER_N) for m in range(1, EXACT_CAP + 1)]
    blocks = [b for b in blocks if b[2] <= PAPER_N]
    return blocks + [(EXACT_CAP + 1, PAPER_M, 1, PAPER_N)]


def _feasibility(rng) -> dict:
    seed = int(rng.integers(0, 2**31))
    dims = [str(d) for d in FEASIBILITY_DIMS]
    common = ["--restarts", str(FEASIBILITY_RESTARTS), "--max-iters", str(FEASIBILITY_MAX_ITERS),
              "--seed", str(seed)]
    return {
        # two rounds at least, so every run compares repeated reports
        "rounds_min": 2,
        "invocations": [
            {"argv": ["ot-feasibility", "--dims", *dims, *common, "--output", "{dir}/search_full.json"],
             "output": "search_full.json", "drop": []},
            {"argv": ["ot-feasibility", "--dims", *dims, *common, "--drop", "alice_blind",
                      "--output", "{dir}/search_drop.json"],
             "output": "search_drop.json", "drop": ["alice_blind"]},
        ],
        "search_seed": seed,
    }


def _exact_grid(rng) -> dict:
    # the grid is fixed by criterion 3 and by the rational oracle's angle,
    # so the seed does not change it
    del rng
    invocations = []
    for m in range(1, EXACT_CAP + 1):
        out = f"grid_m{m}.csv"
        invocations.append({
            "argv": ["bc-analyze", "--theta", PI6, "--m-range", str(m), str(m),
                     "--n-range", "1", str(EXACT_CAP // m), "--output", "{dir}/" + out],
            "output": out, "theta": math.pi / 6,
            "rows": [(m, n) for n in range(1, EXACT_CAP // m + 1)],
        })
    return {"rounds_min": 1, "invocations": invocations}


def _paper_scale(rng) -> dict:
    # angles in (0, pi/4]; 1 - random() lies in (0, 1]
    thetas = sorted(float(math.pi / 4 * (1.0 - r)) for r in rng.random(PAPER_ANGLES))
    invocations = []
    for i, theta in enumerate(thetas):
        for m_lo, m_hi, n_lo, n_hi in paper_scale_blocks():
            out = f"paper_t{i}_m{m_lo}.csv"
            invocations.append({
                "argv": ["bc-analyze", "--theta", repr(theta), "--m-range", str(m_lo), str(m_hi),
                         "--n-range", str(n_lo), str(n_hi), "--interval", "--output", "{dir}/" + out],
                "output": out, "theta": theta,
                "rows": [(m, n) for m in range(m_lo, m_hi + 1) for n in range(n_lo, n_hi + 1)],
            })
    return {"rounds_min": 1, "invocations": invocations, "thetas": thetas}


def _qkd(rng) -> dict:
    seeds = [int(s) for s in rng.integers(0, 2**31, size=QKD_STATS_SEEDS + 1)]
    invocations = []
    for seed in seeds[:QKD_STATS_SEEDS]:
        for attack in ("none", "demon"):
            out = f"qkd_{attack}_{seed}.json"
            invocations.append({
                "argv": ["qkd-demon", "--n-pairs", str(QKD_STATS_PAIRS), "--attack", attack,
                         "--seed", str(seed), "--output", "{dir}/" + out],
                "output": out, "attack": attack, "n_pairs": QKD_STATS_PAIRS, "trials_csv": None,
            })
    seed = seeds[-1]
    invocations.append({
        "argv": ["qkd-demon", "--n-pairs", str(QKD_CSV_PAIRS), "--attack", "demon",
                 "--seed", str(seed), "--trials-csv", "{dir}/trials.csv",
                 "--output", "{dir}/qkd_trials.json"],
        "output": "qkd_trials.json", "attack": "demon", "n_pairs": QKD_CSV_PAIRS,
        "trials_csv": "trials.csv",
    })
    return {"rounds_min": 1, "invocations": invocations}


WORKLOADS = {
    "feasibility-search": _feasibility,
    "commitment-exact-grid": _exact_grid,
    "commitment-paper-scale": _paper_scale,
    "qkd-demon-trials": _qkd,
}


def plan(name: str, seed: int) -> dict:
    """Inputs of one workload for one seed: the same seed gives the same plan."""
    out = WORKLOADS[name](np.random.default_rng(seed))
    out["workload"] = name
    out["seed"] = seed
    return out
