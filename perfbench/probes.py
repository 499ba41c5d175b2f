"""Layer probes for a traced run: small calls into every traced layer.

A workload reaches only some layers, yet a traced run reports every
per-layer metric. After the workload's rounds, a traced run calls each
layer once more at fixed small sizes (and at the dense sizes the exact grid
uses), each step under its own run id. A per-layer metric is taken from the
workload's spans when they hold any call it measures, and from these probe
spans otherwise. Probes call the public functions directly, so they keep
measuring a layer even when the CLI path stops reaching it.
"""

from __future__ import annotations

import math
import os

import numpy as np

import workloads

# (M, N) rows whose W has dimension 256 (first dense call, which pays the
# one-off start-up of the BLAS threads), 1024, 2048 and 4096
DENSE_ROWS = ((1, 8), (2, 5), (1, 11), (2, 6))
SMALL_DIMS = (2, 4, 8)
SMALL_CALLS = 50
FAMILY_CANDIDATES = 20

RESIDUAL_FAMILY_PREFIX = "residual_family:"


def steps(package, seed: int, outdir: str):
    """(label, callable) pairs; each callable makes one probe step's calls."""
    cli, bc, linalg, consistency = package.cli, package.bc, package.linalg, package.consistency
    rng = np.random.default_rng([seed, 1])
    theta = repr(float(math.pi / 4 * (1.0 - rng.random())))
    out = lambda name: os.path.join(outdir, name)  # noqa: E731

    def dense():
        for m, n in DENSE_ROWS:
            params = bc.BcParams(m, n, math.pi / 6)
            linalg.trace_distance(bc.build_w(params, 0), bc.build_w(params, 1))

    def small():
        for dim in SMALL_DIMS:
            for _ in range(SMALL_CALLS):
                a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                linalg.trace_distance(a + a.conj().T, b + b.conj().T)

    dims = workloads.FEASIBILITY_DIMS
    candidates = []

    def family(fam):
        config = consistency.relax([fam])

        def run():
            if not candidates:  # decoded inside the first family step's run id
                candidates.extend(
                    consistency.candidate_from_vector(rng.standard_normal(workloads.n_params(dims)), dims)
                    for _ in range(FAMILY_CANDIDATES)
                )
            for c in candidates:
                consistency.residual(c, config)

        return run

    def main(argv):
        return lambda: cli.main(argv)

    yield "ot-feasibility", main([
        "ot-feasibility", "--dims", *map(str, dims), "--restarts", "1", "--max-iters", "2",
        "--seed", str(seed), "--output", out("probe_search.json")])
    yield "bc-analyze-exact", main([
        "bc-analyze", "--theta", workloads.PI6, "--m-range", "1", "4", "--n-range", "1", "2",
        "--output", out("probe_exact.csv")])
    yield "bc-analyze-interval", main([
        "bc-analyze", "--theta", theta, "--m-range", "13", "20", "--n-range", "1", "2",
        "--interval", "--output", out("probe_interval.csv")])
    yield "qkd-demon", main([
        "qkd-demon", "--n-pairs", "20000", "--attack", "demon", "--seed", str(seed),
        "--trials-csv", out("probe_trials.csv"), "--output", out("probe_qkd.json")])
    yield "dense", dense
    yield "small", small
    for fam in workloads.FAMILIES:
        yield RESIDUAL_FAMILY_PREFIX + fam, family(fam)
