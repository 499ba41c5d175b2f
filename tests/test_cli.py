"""Command-line interface: outputs, manifests, error paths, replay."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import pytest

from qtwoparty import bc, cli


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# ot-analyze
# ---------------------------------------------------------------------------


def test_ot_analyze_single_point(tmp_path):
    out = tmp_path / "ot.csv"
    assert run(["ot-analyze", "--theta", str(math.pi / 6), "--output", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert abs(float(row["theta"]) - 0.5235987755982988) < 1e-15
    assert abs(float(row["p"]) - 2 / 3) < 1e-12
    assert abs(float(row["q"]) - 0.9330127018922193) < 1e-12
    assert abs(float(row["honest_success"]) - 0.5) < 1e-12
    assert abs(float(row["honest_hash"]) - 0.5) < 1e-12
    assert row["degenerate"] == "0"
    assert (tmp_path / "ot.csv.manifest.json").exists()


def test_ot_analyze_degree_suffix(tmp_path):
    out = tmp_path / "deg.csv"
    assert run(["ot-analyze", "--theta", "30deg", "--output", str(out)]) == 0
    assert abs(float(read_csv(out)[0]["p"]) - 2 / 3) < 1e-12


def test_ot_analyze_empty_grid_usage_error(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    assert run(["ot-analyze", "--output", str(out)]) == cli.EXIT_USAGE
    assert "empty" in capsys.readouterr().err


def test_ot_analyze_out_of_range_usage_error(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    assert run(["ot-analyze", "--theta", "1.0", "--output", str(out)]) == cli.EXIT_USAGE
    assert "(0, pi/4]" in capsys.readouterr().err


def test_ot_analyze_grid_flags_degenerate_endpoint(tmp_path):
    out = tmp_path / "grid.csv"
    assert run(["ot-analyze", "--grid", "0.1", str(math.pi / 4), "5",
                "--output", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 5
    assert [r["degenerate"] for r in rows] == ["0", "0", "0", "0", "1"]


def test_ot_analyze_malformed_angle_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["ot-analyze", "--theta", "halfpi", "--output", str(tmp_path / "x.csv")])
    assert err.value.code == 2


def test_ot_analyze_json_format(tmp_path):
    out = tmp_path / "ot.json"
    assert run(["ot-analyze", "--theta", "30deg", "--format", "json",
                "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload[0]["q"] - 0.9330127018922193) < 1e-12


# ---------------------------------------------------------------------------
# bc-analyze
# ---------------------------------------------------------------------------


def test_bc_analyze_grid(tmp_path):
    out = tmp_path / "bc.csv"
    assert run(["bc-analyze", "--theta", str(math.pi / 6),
                "--m-range", "1", "3", "--n-range", "1", "3",
                "--output", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 9
    for row in rows:
        assert float(row["f_plus_d"]) >= 1 - 1e-9
        assert row["exact_or_interval"] == "exact"


def test_bc_analyze_orthogonal_rows(tmp_path):
    out = tmp_path / "bc4.csv"
    assert run(["bc-analyze", "--theta", "45deg",
                "--m-range", "1", "2", "--n-range", "1", "2",
                "--output", str(out)]) == 0
    for row in read_csv(out):
        assert float(row["f"]) < 1e-12
        assert abs(float(row["d"]) - 1.0) < 1e-10


def test_bc_analyze_cap_requires_interval_flag(tmp_path, capsys):
    out = tmp_path / "big.csv"
    code = run(["bc-analyze", "--theta", str(math.pi / 6),
                "--m-range", "5", "5", "--n-range", "4", "4",
                "--output", str(out)])
    assert code == cli.EXIT_USAGE
    assert "--interval" in capsys.readouterr().err

    assert run(["bc-analyze", "--theta", str(math.pi / 6),
                "--m-range", "5", "5", "--n-range", "4", "4", "--interval",
                "--output", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0]["exact_or_interval"] == "interval"
    assert float(rows[0]["f_plus_d"]) >= 1 - 1e-9


def test_bc_analyze_exact_cap_beyond_dense_sizes(tmp_path):
    # 2^16-dimensional W operators would need 32 GiB; the block sum needs 9 terms
    out = tmp_path / "m16.csv"
    theta = math.pi / 6
    assert run(["bc-analyze", "--theta", str(theta), "--m-range", "16", "16",
                "--n-range", "1", "1", "--exact-cap", "16", "--output", str(out)]) == 0
    (row,) = read_csv(out)
    assert row["exact_or_interval"] == "exact"
    assert math.isclose(float(row["d"]), bc.mixture_trace_distance(16, theta), rel_tol=1e-12)


def test_bc_analyze_refuses_exact_rows_over_term_budget(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the block sum started before the budget was checked")

    monkeypatch.setattr(bc, "_block_trace_distance", never)
    out = tmp_path / "big.csv"
    code = run(["bc-analyze", "--theta", "30deg", "--m-range", "200", "200",
                "--n-range", "50", "50", "--exact-cap", "100000", "--output", str(out)])
    assert code == cli.EXIT_USAGE
    assert "block terms" in capsys.readouterr().err
    assert not out.exists()


def test_bc_analyze_out_of_range_theta_usage_error(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    assert run(["bc-analyze", "--theta", "1.0", "--m-range", "1", "1",
                "--n-range", "1", "1", "--output", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "(0, pi/4]" in err
    assert not out.exists()


def test_bc_analyze_bad_range(tmp_path):
    assert run(["bc-analyze", "--theta", "30deg", "--m-range", "3", "1",
                "--n-range", "1", "1", "--output", str(tmp_path / "r.csv")]) == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# ot-feasibility
# ---------------------------------------------------------------------------


def test_ot_feasibility_report(tmp_path):
    out = tmp_path / "feas.json"
    assert run(["ot-feasibility", "--dims", "2", "2", "2", "--restarts", "2",
                "--max-iters", "4", "--seed", "3", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["dims"] == [2, 2, 2]
    assert payload["best_total_residual"] > 0
    assert payload["relaxations"] == []
    assert set(payload["components"]) == {"half_bit", "half_hash", "wrong_bit", "bob_info", "alice_blind"}


def test_ot_feasibility_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["ot-feasibility", "--dims", "2", "2", "2", "--restarts", "2",
            "--max-iters", "4", "--seed", "1"]
    assert run(args + ["--output", str(a)]) == 0
    assert run(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ot_feasibility_relaxations(tmp_path):
    out = tmp_path / "relax.json"
    assert run(["ot-feasibility", "--dims", "1", "1", "1", "--restarts", "2",
                "--max-iters", "10", "--drop", "alice_blind", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["relaxations"] == ["alice_blind"]
    assert payload["best_total_residual"] >= 0.5  # scalar labs keep the info gap


def test_ot_feasibility_dims_over_cap(tmp_path, capsys):
    assert run(["ot-feasibility", "--dims", "64", "64", "2", "--restarts", "1",
                "--max-iters", "1", "--output", str(tmp_path / "o.json")]) == cli.EXIT_USAGE
    assert "cap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# qkd-demon
# ---------------------------------------------------------------------------


def test_qkd_demon_honest(tmp_path):
    out = tmp_path / "qkd.json"
    assert run(["qkd-demon", "--n-pairs", "100000", "--seed", "7",
                "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    s = payload["stats"]["chsh_value"]
    se = payload["stats"]["chsh_stderr"]
    assert abs(s - 2 * math.sqrt(2)) <= 4 * se
    assert payload["rate_analysis"]["stealth_feasible"] is True


def test_qkd_demon_attack_and_trials(tmp_path):
    out = tmp_path / "attack.json"
    trials = tmp_path / "trials.csv"
    assert run(["qkd-demon", "--n-pairs", "50000", "--seed", "8", "--attack", "demon",
                "--trials-csv", str(trials), "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["stats"]["eve_knowledge_fraction"] == 1.0
    assert trials.exists()
    manifest = json.loads((tmp_path / "attack.json.manifest.json").read_text())
    assert str(trials) in manifest["outputs"]


def test_qkd_demon_zero_visibility(tmp_path):
    out = tmp_path / "v0.json"
    assert run(["qkd-demon", "--n-pairs", "100000", "--seed", "9",
                "--visibility", "0", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["stats"]["chsh_value"]) <= 4 * payload["stats"]["chsh_stderr"]


def test_qkd_demon_bad_config(tmp_path, capsys):
    assert run(["qkd-demon", "--n-pairs", "10", "--visibility", "2.0",
                "--output", str(tmp_path / "x.json")]) == cli.EXIT_USAGE
    assert "visibility" in capsys.readouterr().err


def test_qkd_demon_degree_angles(tmp_path):
    out = tmp_path / "deg.json"
    assert run(["qkd-demon", "--n-pairs", "1000", "--seed", "2",
                "--alice-angles", "0deg", "45deg", "--bob-angles", "22.5deg", "67.5deg",
                "--output", str(out)]) == 0
    manifest = json.loads((tmp_path / "deg.json.manifest.json").read_text())
    assert abs(manifest["parameters"]["alice_angles"][1] - math.pi / 4) < 1e-12


# ---------------------------------------------------------------------------
# manifests and replay
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv_builder",
    [
        lambda d: ["ot-analyze", "--theta", "30deg", "--output", str(d / "out.csv")],
        lambda d: ["bc-analyze", "--theta", "30deg", "--m-range", "1", "2",
                   "--n-range", "1", "2", "--output", str(d / "out.csv")],
        lambda d: ["ot-feasibility", "--dims", "2", "2", "2", "--restarts", "2",
                   "--max-iters", "3", "--seed", "5", "--output", str(d / "out.json")],
        lambda d: ["qkd-demon", "--n-pairs", "20000", "--seed", "6", "--attack", "demon",
                   "--trials-csv", str(d / "trials.csv"), "--output", str(d / "out.json")],
    ],
    ids=["ot-analyze", "bc-analyze", "ot-feasibility", "qkd-demon"],
)
def test_replay_reproduces_outputs_byte_identically(tmp_path, argv_builder):
    argv = argv_builder(tmp_path)
    assert run(argv) == 0
    manifest_path = next(p for p in tmp_path.iterdir() if p.name.endswith(".manifest.json"))
    manifest = json.loads(manifest_path.read_text())
    originals = {path: Path(path).read_bytes() for path in manifest["outputs"]}
    original_manifest = manifest_path.read_bytes()
    for path in manifest["outputs"]:
        Path(path).write_bytes(b"clobbered")
    assert run(["replay", str(manifest_path)]) == 0
    for path, blob in originals.items():
        assert Path(path).read_bytes() == blob
    assert manifest_path.read_bytes() == original_manifest


def test_replay_unknown_subcommand(tmp_path, capsys):
    bogus = tmp_path / "bogus.manifest.json"
    bogus.write_text(json.dumps({"subcommand": "nope", "parameters": {}}))
    assert run(["replay", str(bogus)]) == cli.EXIT_USAGE
    assert "unknown subcommand" in capsys.readouterr().err


def test_manifest_contents(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["ot-analyze", "--theta", "0.5", "--output", str(out), "--seed", "17"]) == 0
    manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "ot-analyze"
    assert manifest["seed"] == 17
    assert manifest["artifact_version"]
    assert manifest["outputs"] == [str(out)]
    assert manifest["parameters"]["thetas"] == [0.5]


def test_replay_refuses_unknown_drop_family(tmp_path, capsys):
    out = tmp_path / "t.json"
    manifest = tmp_path / "typo.manifest.json"
    manifest.write_text(json.dumps({
        "subcommand": "ot-feasibility",
        "seed": 0,
        "parameters": {"dims": [1, 1, 1], "restarts": 1, "max_iters": 1, "seed": 0,
                       "drop": ["alice_blnd"], "output": str(out)},
    }))
    assert run(["replay", str(manifest)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: unknown constraint families") and err.count("\n") == 1
    assert not out.exists()


def test_replay_invalid_json_manifest_usage_error(tmp_path, capsys):
    bogus = tmp_path / "broken.manifest.json"
    bogus.write_text("{not json")
    assert run(["replay", str(bogus)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


FEASIBILITY_PARAMETERS = {"dims": [1, 1, 1], "restarts": 1, "max_iters": 1, "seed": 0,
                          "drop": []}


@pytest.mark.parametrize(
    "manifest, message",
    [
        ([1, 2], "not a JSON object"),
        ({"subcommand": ["ot-feasibility"], "parameters": {}}, "unknown subcommand"),
        ({"subcommand": "qkd-demon", "seed": 0, "parameters": [1]}, "not a JSON object"),
        ({"subcommand": "ot-feasibility", "seed": 0,
          "parameters": {k: v for k, v in FEASIBILITY_PARAMETERS.items() if k != "restarts"}},
         "missing ['restarts']"),
        ({"subcommand": "ot-feasibility", "seed": 0,
          "parameters": {**FEASIBILITY_PARAMETERS, "format": "csv"}},
         "unexpected ['format']"),
    ],
    ids=["list", "subcommand-not-string", "parameters-list", "missing-key", "extra-key"],
)
def test_replay_refuses_malformed_manifest(tmp_path, capsys, manifest, message):
    out = tmp_path / "out.json"
    if isinstance(manifest, dict) and isinstance(manifest["parameters"], dict):
        manifest["parameters"]["output"] = str(out)
    path = tmp_path / "bad.manifest.json"
    path.write_text(json.dumps(manifest))
    assert run(["replay", str(path)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.manifest.json"]


# ---------------------------------------------------------------------------
# refusals at the boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("grid", [["0.1", "0.5", "x"], ["foo", "0.5", "3"]],
                         ids=["bad-count", "bad-angle"])
def test_ot_analyze_malformed_grid_usage_error(tmp_path, capsys, grid):
    out = tmp_path / "g.csv"
    assert run(["ot-analyze", "--grid", *grid, "--output", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: --grid: ") and err.count("\n") == 1
    assert not out.exists()
    assert not (tmp_path / "g.csv.manifest.json").exists()


@pytest.mark.parametrize("sub", ["ot-feasibility", "qkd-demon"])
def test_format_only_on_table_subcommands(tmp_path, sub):
    with pytest.raises(SystemExit) as err:
        run([sub, "--format", "csv", "--output", str(tmp_path / "x.json")])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# the manifest's parameter set of each default invocation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, parameters",
    [
        (["ot-analyze", "--theta", "30deg"],
         {"thetas": [math.radians(30)], "format": "csv"}),
        (["bc-analyze", "--theta", "30deg", "--m-range", "1", "2", "--n-range", "1", "3"],
         {"theta": math.radians(30), "m_range": [1, 2], "n_range": [1, 3], "exact_cap": 12,
          "interval": False, "format": "csv"}),
        (["ot-feasibility"],
         {"dims": [2, 2, 2], "restarts": 200, "max_iters": 60, "seed": 0, "drop": []}),
        (["qkd-demon"],
         {"n_pairs": 100_000, "alice_angles": [0.0, math.pi / 4],
          "bob_angles": [math.pi / 8, 3 * math.pi / 8], "visibility": 1.0, "t_honest": 0.4,
          "t_eve": 0.8, "bob_eff": 0.8, "attack": "none", "seed": 0, "trials_csv": None}),
    ],
    ids=["ot-analyze", "bc-analyze", "ot-feasibility", "qkd-demon"],
)
def test_manifest_parameters_of_default_invocations(tmp_path, monkeypatch, argv, parameters):
    # replay round-trips whatever a manifest holds, so only a pin catches a key
    # that leaks in or drops out; the runner is stubbed because the manifest
    # records the parameters it is handed, and the default search takes seconds
    seen = []
    monkeypatch.setitem(cli.RUNNERS, argv[0], lambda params: seen.append(dict(params)) or 0)
    out = tmp_path / "out"
    assert run([*argv, "--output", str(out)]) == 0
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    assert manifest["parameters"] == seen[0]
    recorded = manifest["parameters"]
    assert recorded.pop("output") == str(out)
    assert recorded == parameters
    assert manifest["seed"] == 0
