"""Command-line front end with reproducible, manifest-backed runs.

Subcommands
-----------
ot-analyze      transfer-protocol table over a theta grid (CSV/JSON)
bc-analyze      commitment cheat-probability sweep over an (M, N) grid
ot-feasibility  constraint-residual search report (JSON)
qkd-demon       key-distribution run statistics and rate analysis (JSON)
replay          re-run any of the above from its manifest

Every run writes a manifest next to its output recording the subcommand,
the fully resolved parameter set, the seed, the artifact version and the
output paths; ``replay`` reproduces the output files byte-identically.
Angles are radians by default; append ``deg`` for degrees (e.g. ``30deg``).
Floats in CSV output carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import __version__, bc, consistency, linalg, ot, qkd

MANIFEST_SUFFIX = ".manifest.json"

EXIT_OK = 0
EXIT_SENTINEL = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Bad arguments detected after parsing; maps to exit status 2."""


def parse_angle(text: str) -> float:
    """Angle in radians; a 'deg' suffix converts from degrees."""
    s = text.strip().lower()
    try:
        if s.endswith("deg"):
            return math.radians(float(s[:-3]))
        if s.endswith("rad"):
            return float(s[:-3])
        return float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed angle {text!r}; use radians (e.g. 0.5236) or degrees (e.g. 30deg)"
        ) from None


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(subcommand: str, parameters: dict, seed, outputs: list[str]) -> str:
    """Serialize the run manifest next to the primary output."""
    manifest = {
        "artifact_version": __version__,
        "subcommand": subcommand,
        "parameters": parameters,
        "seed": seed,
        "outputs": outputs,
    }
    path = outputs[0] + MANIFEST_SUFFIX
    _write_json(path, manifest)
    return path


# ---------------------------------------------------------------------------
# runners: pure functions of their resolved parameter dicts, so a manifest
# replay goes through exactly the same code path as the original call
# ---------------------------------------------------------------------------


def _ot_params(theta: float) -> ot.OtParams:
    """Protocol parameters for an angle; one outside (0, pi/4] is a usage error."""
    try:
        return ot.OtParams(float(theta))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def run_ot_analyze(params: dict) -> int:
    grid = [_ot_params(t) for t in params["thetas"]]
    if not grid:
        raise UsageError("the theta grid is empty; pass --theta and/or --grid")
    header = ["theta", "p", "q", "honest_success", "honest_hash", "degenerate"]
    rows = []
    json_rows = []
    for p in grid:
        sec = ot.partial_security(p)
        dist = ot.honest_distribution(p, 0)
        row = [p.theta, sec.p, sec.q, dist[ot.BIT0], dist[ot.HASH], p.is_degenerate]
        rows.append(row)
        json_rows.append(dict(zip(header, [row[0], row[1], row[2], row[3], row[4], bool(row[5])])))
    if params["format"] == "csv":
        _write_csv(params["output"], header, rows)
    else:
        _write_json(params["output"], json_rows)
    return EXIT_OK


BC_HEADER = [
    "theta",
    "M",
    "N",
    "f",
    "d",
    "f_plus_d",
    "alice_quantum",
    "bob_quantum",
    "alice_classical",
    "bob_classical_raw",
    "bob_classical_clipped",
    "exact_or_interval",
]


def run_bc_analyze(params: dict) -> int:
    theta = float(params["theta"])
    _ot_params(theta)  # refuses an angle outside (0, pi/4]
    m_lo, m_hi = params["m_range"]
    n_lo, n_hi = params["n_range"]
    if m_lo < 1 or n_lo < 1 or m_hi < m_lo or n_hi < n_lo:
        raise UsageError("ranges must satisfy 1 <= lo <= hi")
    exact_cap = int(params["exact_cap"])
    if not params["interval"] and m_hi * n_hi > exact_cap:
        raise UsageError(
            f"M*N up to {m_hi * n_hi} exceeds the exact-computation cap {exact_cap}; "
            "pass --interval to emit rigorous interval rows instead"
        )
    try:
        reports = bc.sweep(
            theta, range(m_lo, m_hi + 1), range(n_lo, n_hi + 1), exact_cap=exact_cap
        )
    except linalg.DimensionCapError as exc:
        raise UsageError(str(exc)) from None

    rows = []
    json_rows = []
    sentinel_fired = False
    for rep in reports:
        if rep.f_plus_d < 1.0 - 1e-9:
            sentinel_fired = True
        row = [
            rep.params.theta,
            rep.params.m,
            rep.params.n,
            rep.f,
            rep.d.value,
            rep.f_plus_d,
            rep.alice_quantum,
            rep.bob_quantum,
            rep.classical.alice,
            rep.classical.bob_raw,
            rep.classical.bob,
            "exact" if rep.d.exact else "interval",
        ]
        rows.append(row)
        json_rows.append(dict(zip(BC_HEADER, row)))
    if params["format"] == "csv":
        _write_csv(params["output"], BC_HEADER, rows)
    else:
        _write_json(params["output"], json_rows)
    if sentinel_fired:
        print("invariant sentinel: some row has f + d < 1 - 1e-9", file=sys.stderr)
        return EXIT_SENTINEL
    return EXIT_OK


def run_ot_feasibility(params: dict) -> int:
    dims = tuple(int(d) for d in params["dims"])
    dropped = list(params.get("drop") or [])
    config = consistency.drop(*dropped) if dropped else consistency.FULL_CONFIG
    try:
        report = consistency.search(
            dims,
            restarts=int(params["restarts"]),
            max_iters=int(params["max_iters"]),
            seed=int(params["seed"]),
            config=config,
        )
    except (linalg.DimensionCapError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    _write_json(params["output"], report.to_json_dict())
    return EXIT_OK


def run_qkd_demon(params: dict) -> int:
    try:
        config = qkd.QkdConfig(
            n_pairs=int(params["n_pairs"]),
            alice_settings=tuple(params["alice_angles"]),
            bob_settings=tuple(params["bob_angles"]),
            visibility=float(params["visibility"]),
            channel_transmission_honest=float(params["t_honest"]),
            channel_transmission_eve=float(params["t_eve"]),
            bob_detector_eff=float(params["bob_eff"]),
            attack=params["attack"],
            seed=int(params["seed"]),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    trials_csv = params.get("trials_csv")
    stats, trials = qkd.simulate(config, keep_trials=bool(trials_csv))
    if trials_csv:
        trials.write_csv(trials_csv)
    payload = {
        "stats": stats.to_json_dict(),
        "rate_analysis": qkd.rate_analysis(config, stats).to_json_dict(),
    }
    _write_json(params["output"], payload)
    return EXIT_OK


RUNNERS = {
    "ot-analyze": run_ot_analyze,
    "bc-analyze": run_bc_analyze,
    "ot-feasibility": run_ot_feasibility,
    "qkd-demon": run_qkd_demon,
}


def run_with_manifest(subcommand: str, params: dict, seed) -> int:
    outputs = [params["output"]]
    if params.get("trials_csv"):
        outputs.append(params["trials_csv"])
    status = RUNNERS[subcommand](params)
    write_manifest(subcommand, params, seed, outputs)
    return status


def replay(manifest_path: str) -> int:
    """Re-run a recorded invocation; outputs are reproduced byte-identically."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    sub = manifest.get("subcommand")
    if sub not in RUNNERS:
        raise UsageError(f"manifest names unknown subcommand {sub!r}")
    return run_with_manifest(sub, manifest["parameters"], manifest.get("seed"))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtwoparty",
        description="Numerics for quantum two-party protocols and the QKD coincidence attack.",
    )
    parser.add_argument("--version", action="version", version=f"qtwoparty {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, default_format):
        p.add_argument("--output", required=True, help="primary output file path")
        p.add_argument("--format", choices=("csv", "json"), default=default_format)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("ot-analyze", help="transfer protocol probabilities over a theta grid")
    common(p, "csv")
    p.add_argument("--theta", type=parse_angle, action="append", default=[],
                   help="grid point; repeatable")
    p.add_argument("--grid", nargs=3, metavar=("START", "STOP", "COUNT"),
                   help="inclusive linear grid: two angles and a count")

    p = sub.add_parser("bc-analyze", help="commitment cheat probabilities over an (M, N) grid")
    common(p, "csv")
    p.add_argument("--theta", type=parse_angle, required=True)
    p.add_argument("--m-range", nargs=2, type=int, metavar=("LO", "HI"), required=True)
    p.add_argument("--n-range", nargs=2, type=int, metavar=("LO", "HI"), required=True)
    p.add_argument("--exact-cap", type=int, default=bc.EXACT_CAP,
                   help="largest M*N whose d is computed exactly from the block structure")
    p.add_argument("--interval", action="store_true",
                   help="emit Fuchs-van de Graaf interval rows above the exact cap")

    p = sub.add_parser("ot-feasibility", help="constraint-residual search for ideal transfer")
    common(p, "json")
    p.add_argument("--dims", nargs=3, type=int, metavar=("DA", "DB", "DU"), default=[2, 2, 2])
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--max-iters", type=int, default=60)
    p.add_argument("--drop", action="append", choices=consistency.FAMILIES, default=[],
                   help="constraint family to drop; repeatable")

    p = sub.add_parser("qkd-demon", help="key-distribution run with optional interception attack")
    common(p, "json")
    p.add_argument("--n-pairs", type=int, default=100_000)
    p.add_argument("--alice-angles", nargs="+", type=parse_angle,
                   default=[0.0, math.pi / 4])
    p.add_argument("--bob-angles", nargs="+", type=parse_angle,
                   default=[math.pi / 8, 3 * math.pi / 8])
    p.add_argument("--visibility", type=float, default=1.0)
    p.add_argument("--t-honest", type=float, default=0.4)
    p.add_argument("--t-eve", type=float, default=0.8)
    p.add_argument("--bob-eff", type=float, default=0.8)
    p.add_argument("--attack", choices=(qkd.ATTACK_NONE, qkd.ATTACK_DEMON),
                   default=qkd.ATTACK_NONE)
    p.add_argument("--trials-csv", default=None, help="also stream per-trial records to this CSV")

    p = sub.add_parser("replay", help="re-run a recorded invocation from its manifest")
    p.add_argument("manifest", help="path to a .manifest.json file")

    return parser


def _params_from_args(args) -> dict:
    if args.subcommand == "ot-analyze":
        thetas = list(args.theta)
        if args.grid:
            start, stop, count = parse_angle(args.grid[0]), parse_angle(args.grid[1]), int(args.grid[2])
            if count < 1:
                raise UsageError("grid COUNT must be >= 1")
            if count == 1:
                thetas.append(start)
            else:
                step = (stop - start) / (count - 1)
                thetas.extend(start + i * step for i in range(count))
        return {"thetas": thetas, "output": args.output, "format": args.format}
    if args.subcommand == "bc-analyze":
        return {
            "theta": args.theta,
            "m_range": list(args.m_range),
            "n_range": list(args.n_range),
            "exact_cap": args.exact_cap,
            "interval": bool(args.interval),
            "output": args.output,
            "format": args.format,
        }
    if args.subcommand == "ot-feasibility":
        return {
            "dims": list(args.dims),
            "restarts": args.restarts,
            "max_iters": args.max_iters,
            "seed": args.seed,
            "drop": list(args.drop),
            "output": args.output,
        }
    if args.subcommand == "qkd-demon":
        return {
            "n_pairs": args.n_pairs,
            "alice_angles": [float(a) for a in args.alice_angles],
            "bob_angles": [float(a) for a in args.bob_angles],
            "visibility": args.visibility,
            "t_honest": args.t_honest,
            "t_eve": args.t_eve,
            "bob_eff": args.bob_eff,
            "attack": args.attack,
            "seed": args.seed,
            "trials_csv": args.trials_csv,
            "output": args.output,
        }
    raise UsageError(f"no parameter mapping for {args.subcommand!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "replay":
            return replay(args.manifest)
        params = _params_from_args(args)
        return run_with_manifest(args.subcommand, params, getattr(args, "seed", None))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
