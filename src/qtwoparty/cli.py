"""Command-line front end with reproducible, manifest-backed runs.

Subcommands
-----------
ot-analyze      transfer-protocol table over a theta grid (CSV or JSON)
bc-analyze      commitment cheat-probability sweep over an (M, N) grid (CSV or JSON)
ot-feasibility  constraint-residual search report (JSON)
qkd-demon       key-distribution run statistics and rate analysis (JSON)
replay          re-run any of the above from its manifest

Only the two table subcommands, ``ot-analyze`` and ``bc-analyze``, take
``--format`` (csv by default). Every run writes a manifest next to its
output recording the subcommand, the fully resolved parameter set, the
seed, the artifact version and the output paths. ``replay`` reads each
recorded value back through the flag that records it: its ``type`` and
``choices`` per argument, its ``nargs`` count, its ``append`` or
``store_true`` shape, and its ``default`` when absent. It reruns only a
manifest equal, as JSON per key (``1`` is not ``1.0``) and in its top-level
seed, to what ``main`` would record, so outputs come back byte-identically.
Angles are radians by default; append ``deg`` for degrees (e.g. ``30deg``).
Floats in CSV output carry 17 significant digits.

Which bytes are fixed where: manifests record only the parsed parameters,
and ``qkd-demon`` outputs rest on ``SeedSequence`` seeding, the PCG64
stream and integer arithmetic, so both are the same on every build;
tests/test_golden.py holds the ``qkd-demon`` digests. The ``ot-analyze``,
``bc-analyze`` and ``ot-feasibility`` outputs are fixed per numpy/BLAS
build only: other BLAS kernels and SIMD dispatch levels move them in their
last bits. Their 1e-12 pins are the check across builds.

Exit status: 0 on success, 1 when ``bc-analyze``'s f + d >= 1 sentinel
fires, and 2 for any refused input. A flag that argparse rejects prints
its usage message; a value, grid, manifest or parameter set that the CLI
or the library refuses prints one ``error:`` line, such as ``<key> must be
<what its flag accepts>, got <value>``, and no output is written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys

from . import __version__, bc, consistency, linalg, ot, qkd

MANIFEST_SUFFIX = ".manifest.json"

EXIT_OK = 0
EXIT_SENTINEL = 1
EXIT_USAGE = 2


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


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(params: dict, header: list[str], rows: list[list]) -> None:
    """Rows to ``params["output"]``: CSV, or JSON objects keyed by the header."""
    if params["format"] != "csv":
        _write_json(params["output"], [dict(zip(header, row)) for row in rows])
        return
    with open(params["output"], "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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
# replay goes through exactly the same code path as the original call. A
# runner gets only what the parser's actions store, from the command line or
# read back from a manifest (``replay``); the library checks each value's
# range, and its refusal, a ValueError, is a usage error (``main``).
# ---------------------------------------------------------------------------


def run_ot_analyze(params: dict) -> int:
    grid = [ot.OtParams(t) for t in params["thetas"]]
    if not grid:
        raise ValueError("the theta grid is empty; pass --theta and/or --grid")
    rows = []
    for p in grid:
        sec = ot.partial_security(p)
        dist = ot.honest_distribution(p, 0)
        rows.append([p.theta, sec.p, sec.q, dist[ot.BIT0], dist[ot.HASH], p.is_degenerate])
    _write_table(params, ["theta", "p", "q", "honest_success", "honest_hash", "degenerate"], rows)
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
    theta = params["theta"]
    ot.OtParams(theta)  # refuses an angle outside (0, pi/4] before the ranges
    m_lo, m_hi = params["m_range"]
    n_lo, n_hi = params["n_range"]
    if m_lo < 1 or n_lo < 1 or m_hi < m_lo or n_hi < n_lo:
        raise ValueError("ranges must satisfy 1 <= lo <= hi")
    exact_cap = linalg.check_integer("exact_cap", params["exact_cap"], 0)
    if not params["interval"] and m_hi * n_hi > exact_cap:
        raise ValueError(
            f"M*N up to {m_hi * n_hi} exceeds the exact-computation cap {exact_cap}; "
            "pass --interval to emit rigorous interval rows instead"
        )
    reports = bc.sweep(theta, range(m_lo, m_hi + 1), range(n_lo, n_hi + 1), exact_cap=exact_cap)
    rows = [
        [
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
        for rep in reports
    ]
    _write_table(params, BC_HEADER, rows)
    if any(rep.f_plus_d < 1.0 - 1e-9 for rep in reports):
        print("invariant sentinel: some row has f + d < 1 - 1e-9", file=sys.stderr)
        return EXIT_SENTINEL
    return EXIT_OK


def run_ot_feasibility(params: dict) -> int:
    report = consistency.search(
        params["dims"],
        restarts=params["restarts"],
        max_iters=params["max_iters"],
        seed=params["seed"],
        config=consistency.drop(*params["drop"]),
    )
    _write_json(params["output"], report.to_json_dict())
    return EXIT_OK


def run_qkd_demon(params: dict) -> int:
    config = qkd.QkdConfig(
        n_pairs=params["n_pairs"],
        alice_settings=params["alice_angles"],
        bob_settings=params["bob_angles"],
        visibility=params["visibility"],
        channel_transmission_honest=params["t_honest"],
        channel_transmission_eve=params["t_eve"],
        bob_detector_eff=params["bob_eff"],
        attack=params["attack"],
        seed=params["seed"],
    )
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
    # a run that fails takes back the outputs it created, so none is left half made
    created = [path for path in outputs if not os.path.lexists(path)]
    try:
        status = RUNNERS[subcommand](params)
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    write_manifest(subcommand, params, seed, outputs)
    return status


# how a refusal names one argument of each flag type
_TYPE_NAMES = {None: "a string", int: "an integer", float: "a number", parse_angle: "an angle"}


def _read_arg(action, key: str, value, alternative: str = ""):
    """One recorded argument read back through ``action``'s ``type`` and ``choices``."""
    try:
        item = (action.type or str)(value if isinstance(value, str) else json.dumps(value))
        if json.dumps(item) == json.dumps(value) and (not action.choices or item in action.choices):
            return item
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        pass
    what = f"one of {list(action.choices)}" if action.choices else _TYPE_NAMES[action.type]
    raise ValueError(f"{key} must be {what}{alternative}, got {value!r}")


def _read_back(action, key: str, given: dict):
    """What parsing stores through ``action`` for ``given[key]``; see the module docstring."""
    value = given.get(key, action.default)
    if key not in given or not action.required and json.dumps(value) == json.dumps(action.default):
        return value  # the flag's absence; ``replay`` refuses a missing key
    n = action.nargs
    if n == 0:  # a flag without arguments stores its const
        if json.dumps(value) == json.dumps(action.const):
            return value
        what = f"{json.dumps(action.const)} or {json.dumps(action.default)}"
    elif n is None and not isinstance(action, argparse._AppendAction):
        optional = action.default is None and not action.required
        return _read_arg(action, key, value, " or null" if optional else "")
    else:  # a list: an int nargs takes exactly that many, "+" at least one, append any number
        fixed = isinstance(n, int)
        if isinstance(value, list) and (len(value) == n if fixed else len(value) >= (n == "+")):
            return [_read_arg(action, f"{key}[{i}]", v) for i, v in enumerate(value)]
        what = f"a list of {n} values" if fixed else "a non-empty list" if n == "+" else "a list"
    raise ValueError(f"{key} must be {what}, got {value!r}")


def replay(parser: argparse.ArgumentParser, manifest_path: str) -> int:
    """Re-run a recorded invocation through ``parser``; the module docstring states the contract."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError("the manifest is not a JSON object")
    sub = manifest.get("subcommand")
    if not isinstance(sub, str) or sub not in RUNNERS:
        raise ValueError(f"manifest names unknown subcommand {sub!r}")
    params, seed = manifest.get("parameters"), manifest.get("seed")
    if not isinstance(params, dict):
        raise ValueError("the manifest's parameters are not a JSON object")
    # undo _reshape: a table run records --seed only as the top-level seed (any other
    # run's is checked against its parameters' below), and ot-analyze --theta as thetas
    given = {"seed": seed, **params}
    keys = {"theta": "thetas"} if sub == "ot-analyze" else {}
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {a.dest: _read_back(a, keys.get(a.dest, a.dest), given)
              for a in subparsers.choices[sub]._actions if a.default is not argparse.SUPPRESS}
    recorded_seed = _reshape(sub, parsed)
    if parsed.keys() != params.keys():
        raise ValueError(f"{sub} manifest parameters: missing {sorted(parsed.keys() - params)}, "
                         f"unexpected {sorted(params.keys() - parsed)}")
    if json.dumps(seed) != json.dumps(recorded_seed):
        raise ValueError(f"seed must be the parameters' seed {recorded_seed!r}, got {seed!r}")
    return run_with_manifest(sub, parsed, seed)


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

    def common(p, table=False):
        p.add_argument("--output", required=True, help="primary output file path")
        if table:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("ot-analyze", help="transfer protocol probabilities over a theta grid")
    common(p, table=True)
    p.add_argument("--theta", type=parse_angle, action="append", default=[],
                   help="grid point; repeatable")
    p.add_argument("--grid", nargs=3, metavar=("START", "STOP", "COUNT"),
                   help="inclusive linear grid: two angles and a count")

    p = sub.add_parser("bc-analyze", help="commitment cheat probabilities over an (M, N) grid")
    common(p, table=True)
    p.add_argument("--theta", type=parse_angle, required=True)
    p.add_argument("--m-range", nargs=2, type=int, metavar=("LO", "HI"), required=True)
    p.add_argument("--n-range", nargs=2, type=int, metavar=("LO", "HI"), required=True)
    p.add_argument("--exact-cap", type=int, default=bc.EXACT_CAP,
                   help="largest M*N whose d is computed exactly from the block structure")
    p.add_argument("--interval", action="store_true",
                   help="emit Fuchs-van de Graaf interval rows above the exact cap")

    p = sub.add_parser("ot-feasibility", help="constraint-residual search for ideal transfer")
    common(p)
    p.add_argument("--dims", nargs=3, type=int, metavar=("DA", "DB", "DU"), default=[2, 2, 2])
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--max-iters", type=int, default=60)
    p.add_argument("--drop", action="append", choices=consistency.FAMILIES, default=[],
                   help="constraint family to drop; repeatable")

    p = sub.add_parser("qkd-demon", help="key-distribution run with optional interception attack")
    common(p)
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


def _grid_thetas(grid) -> list[float]:
    """The inclusive linear grid of ``--grid START STOP COUNT``, or [] without one."""
    if grid is None:
        return []
    try:
        start, stop, count = parse_angle(grid[0]), parse_angle(grid[1]), int(grid[2])
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise ValueError(f"--grid: {exc}") from None
    if count < 1:
        raise ValueError("grid COUNT must be >= 1")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _reshape(sub: str, params: dict):
    """Turn parsed arguments into the recorded parameters, in place; returns the seed."""
    # the table runners ignore the seed; the manifest keeps it at top level only
    seed = params.pop("seed") if sub in ("ot-analyze", "bc-analyze") else params["seed"]
    if sub == "ot-analyze":
        params["thetas"] = params.pop("theta") + _grid_thetas(params.pop("grid"))
    return seed


def main(argv=None) -> int:
    parser = build_parser()
    params = vars(parser.parse_args(argv))
    sub = params.pop("subcommand")
    try:
        if sub == "replay":
            return replay(parser, params["manifest"])
        del parser  # cyclic garbage; held through a run, it raises the run's peak memory
        seed = _reshape(sub, params)
        return run_with_manifest(sub, params, seed)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
