"""Acceptance gate: one numbered check per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines. Criterion 3 is marked ``slow``; ``-m "not slow"`` leaves it out
while iterating. Criteria 6 and 6s run their 200-restart searches in about
10 s and 4 s on 2 cores, so they run in every lane.

Criterion 6 is the feasibility evidence: with all five constraint families
the search at dims (2, 2, 2) stays well away from zero, and dropping
sender-blindness admits an exact candidate. The relaxation cannot hold at
d_B = 2. There, zero wrong-bit probability with half/half statistics forces
both signal marginals on B to be pure. Unambiguous discrimination then caps
their overlap at 1/2, so D(rho_0^BU, rho_1^BU) >= sqrt(3)/2 and the
receiver-information residual is at least sqrt(3)/2 - 1/2 whatever the
candidate. The check therefore pins that obstruction at (2, 2, 2) and
witnesses the relaxation one receiver dimension up, at (2, 3, 2), where
purified mixed marginals satisfy every family except sender-blindness.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qtwoparty import bc, cli, consistency as cons, linalg, ot, qkd

import dense_oracle as oracle

THETA_GRID = [(i / 100) * math.pi / 4 for i in range(1, 101)]
PI6 = math.pi / 6

# regression baselines pinned from the first 200-restart runs (seed 0,
# max_iters 40); deterministic per seed thereafter
FULL_RESIDUAL_222 = 0.31976917880168243
DROP_ALICE_SEARCH_222 = 0.304253333296421
USD_WITNESS_DROP_ALICE_222 = math.sqrt(3) / 2 - 0.5


def _blas_fingerprint():
    """numpy version and BLAS/LAPACK build, for the messages of BLAS-dependent pins."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy without the dicts mode
        return f"numpy {np.__version__}"
    libs = "; ".join(
        f"{lib} {deps[lib].get('name')} {deps[lib].get('version')}"
        for lib in ("blas", "lapack")
        if lib in deps
    )
    return f"numpy {np.__version__}; {libs}"


def _report(num, ok, text):
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {num}: {text}", flush=True)


def test_01_usd_outcome_probabilities():
    t0 = time.time()
    for theta in THETA_GRID:
        c2 = math.cos(2 * theta)
        povm = ot.make_usd_povm(theta)
        for b in (0, 1):
            psi = ot.make_states(theta)[b]
            correct = float(psi @ povm.effect(f"bit{b}") @ psi)
            hash_p = float(psi @ povm.effect(ot.HASH) @ psi)
            wrong = float(psi @ povm.effect(f"bit{1 - b}") @ psi)
            assert abs(correct - (1 - c2)) <= 1e-10
            assert abs(hash_p - c2) <= 1e-10
            assert wrong <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, True, f"USD outcome probabilities on 100-point grid ({elapsed:.2f}s)")


def test_02_cheat_closed_forms_and_certificate():
    t0 = time.time()
    for theta in THETA_GRID:
        c2 = math.cos(2 * theta)
        cheat = ot.alice_cheat_hash_prob(theta)
        q = ot.bob_helstrom_prob(theta)
        assert abs(cheat.hash_prob - 2 * c2 / (1 + c2)) <= 1e-10
        assert abs(q - (1 + math.sin(2 * theta)) / 2) <= 1e-10
        # optimality certificate: the top eigenvalue of the hash effect is
        # the true maximum and it equals the |0> matrix element
        ehash = ot.make_usd_povm(theta).effect(ot.HASH)
        top = float(np.linalg.eigvalsh(ehash)[-1])
        assert abs(top - cheat.hash_prob) <= 1e-9
        if not ot.OtParams(theta).is_degenerate:
            # eigenvector only defined away from the degenerate point, where
            # the hash effect vanishes and every state is trivially optimal
            assert abs(cheat.optimal_state[0]) >= 1 - 1e-9
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(2, True, f"cheat probabilities match closed forms; |0> is optimal ({elapsed:.2f}s)")


@pytest.mark.slow
def test_03_commitment_exact_grid():
    t0 = time.time()
    pairs = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]
    assert len(pairs) == 35
    for m, n in pairs:
        params = bc.BcParams(m, n, PI6)
        f = bc.compute_f(params)
        w0 = bc.build_w(params, 0)
        w1 = bc.build_w(params, 1)
        f0, f1 = (oracle.parity_factor(m, n, PI6, bit) for bit in (0, 1))
        direct = np.linalg.norm(f0.T @ f1, "nuc")
        d = linalg.trace_distance(w0, w1)
        assert abs(f - direct) <= 1e-8, (m, n)
        assert f + d >= 1 - 1e-9, (m, n)
        packaged = bc.compute_d(params)
        assert packaged.exact and abs(packaged.value - d) <= 1e-12, (m, n)
        if (m, n) == (1, 1):
            assert abs(f - 0.5) <= 1e-10
            assert abs(d - math.sqrt(3) / 2) <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(
        3,
        True,
        "f + d >= 1, multiplicativity and the packaged exact d on all 35 rows "
        f"({elapsed:.1f}s)",
    )


def test_04_quantum_beats_classical_intuition():
    t0 = time.time()
    rep = bc.cheat_report(bc.BcParams(60, 6, PI6))
    assert rep.classical.alice < 0.1
    assert rep.classical.bob < 0.1
    assert rep.alice_quantum > 0.51
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(
        4,
        True,
        "at (M, N) = (60, 6): classical bounds "
        f"{rep.classical.alice:.4f}/{rep.classical.bob:.4f} < 0.1 while the sender "
        f"steers with prob {rep.alice_quantum:.4f} ({elapsed:.1f}s)",
    )


def test_05_fuchs_van_de_graaf_suite():
    t0 = time.time()
    count = 0
    for dim in (2, 3, 4, 8):
        for k in range(256):
            a = oracle.random_density(dim, (5, dim, k, 0))
            b = oracle.random_density(dim, (5, dim, k, 1))
            f = oracle.fidelity(a, b)
            d = linalg.trace_distance(a, b)
            assert d - (1 - f) >= -1e-8
            assert math.sqrt(max(0.0, 1 - f * f)) - d >= -1e-8
            count += 1
    elapsed = time.time() - t0
    assert count >= 1000
    assert elapsed < 30.0
    _report(5, True, f"1 - F <= D <= sqrt(1 - F^2) on {count} random pairs ({elapsed:.1f}s)")


def test_06_feasibility_evidence_as_stated():
    t0 = time.time()
    # the proven (2,2,2) obstruction: the honest discrimination protocol
    # without sender-blindness still misses receiver-information
    obstruction = cons.residual(cons.usd_witness((2, 2, 2)), cons.drop("alice_blind")).total
    steer = cons.steerable_witness((2, 3, 2))
    relaxed = cons.residual(steer, cons.drop("alice_blind")).total
    violated = [
        fam
        for fam, value in cons.residual(steer).components.items()
        if value > cons.ZERO_COMPONENT_TOL
    ]
    full = cons.search((2, 2, 2), restarts=200, max_iters=40, seed=0)
    elapsed = time.time() - t0

    ok_full_pin = abs(full.best_total_residual - FULL_RESIDUAL_222) <= 1e-12
    ok_obstruction_pin = abs(obstruction - USD_WITNESS_DROP_ALICE_222) <= 1e-12
    ok_relaxed_small = relaxed <= 1e-6
    ok_only_alice = violated == ["alice_blind"]
    ok_margin = full.best_total_residual > relaxed

    verdict = ok_full_pin and ok_obstruction_pin and ok_relaxed_small and ok_only_alice and ok_margin
    _report(
        6,
        verdict,
        f"full-search residual at (2,2,2) {full.best_total_residual:.6f} (pinned: {ok_full_pin}); "
        f"d_B = 2 obstruction without sender-blindness {obstruction:.6f} "
        f"(pinned: {ok_obstruction_pin}); drop-sender-blindness residual at (2,3,2) "
        f"{relaxed:.1e} (<= 1e-6: {ok_relaxed_small}, blocked only by sender-blindness: "
        f"{ok_only_alice}, below full search: {ok_margin}) ({elapsed:.0f}s, budget 600s)",
    )
    assert ok_full_pin, (
        f"full-constraint search floor at (2,2,2) drifted: {full.best_total_residual!r} "
        f"vs pinned {FULL_RESIDUAL_222!r} ({_blas_fingerprint()})"
    )
    assert ok_obstruction_pin, (
        "d_B = 2 obstruction drifted: discrimination witness without sender-blindness "
        f"scores {obstruction!r}, expected sqrt(3)/2 - 1/2 = {USD_WITNESS_DROP_ALICE_222!r} "
        f"({_blas_fingerprint()})"
    )
    assert ok_relaxed_small, (
        "dropping sender-blindness no longer admits a feasible candidate at (2,3,2): "
        f"steerable witness residual {relaxed:.3e} > 1e-6"
    )
    assert ok_only_alice, (
        f"the (2,3,2) steerable witness should violate only alice_blind, violates {violated}"
    )
    assert ok_margin, (
        f"full-search floor {full.best_total_residual:.6f} does not exceed the relaxed "
        f"residual {relaxed:.3e}"
    )


def test_06s_supplementary_feasible_relaxations():
    t0 = time.time()
    # the relaxation that is actually satisfied by the honest protocol:
    # drop the receiver-information bound
    usd_relaxed = cons.residual(cons.usd_witness((2, 2, 2)), cons.drop("bob_info")).total
    assert usd_relaxed <= 1e-12
    # dropping sender-blindness is satisfiable one receiver dimension up
    steer_relaxed = cons.residual(
        cons.steerable_witness((2, 3, 2)), cons.drop("alice_blind")
    ).total
    assert steer_relaxed <= 1e-12
    # and the searched drop-sender-blindness floor at (2,2,2) is pinned and
    # strictly below the full-constraint floor
    drop_alice = cons.search(
        (2, 2, 2), restarts=200, max_iters=40, seed=0, config=cons.drop("alice_blind")
    )
    assert abs(drop_alice.best_total_residual - DROP_ALICE_SEARCH_222) <= 1e-12, (
        "drop-sender-blindness search floor at (2,2,2) drifted: "
        f"{drop_alice.best_total_residual!r} vs pinned {DROP_ALICE_SEARCH_222!r} "
        f"({_blas_fingerprint()})"
    )
    margin = FULL_RESIDUAL_222 - drop_alice.best_total_residual
    assert margin > 0
    elapsed = time.time() - t0
    _report(
        "6s",
        True,
        f"drop receiver-info -> {usd_relaxed:.1e} at (2,2,2); drop sender-blindness -> "
        f"{steer_relaxed:.1e} at (2,3,2); searched drop-sender-blindness floor "
        f"{drop_alice.best_total_residual:.6f} sits {margin:.4f} below the full floor ({elapsed:.0f}s)",
    )


QKD_KW = dict(
    alice_settings=(0.0, math.pi / 4),
    bob_settings=(math.pi / 8, 3 * math.pi / 8),
    visibility=1.0,
    channel_transmission_honest=0.4,
    channel_transmission_eve=0.8,
    bob_detector_eff=0.8,
)


def test_07_qkd_honest_baseline():
    t0 = time.time()
    stats, _ = qkd.simulate(qkd.QkdConfig(n_pairs=1_000_000, attack="none", seed=7, **QKD_KW))
    elapsed = time.time() - t0
    target = 2 * math.sqrt(2)
    assert abs(stats.chsh_value - target) <= 4 * stats.chsh_stderr
    assert elapsed < 30.0
    _report(
        7,
        True,
        f"honest million-pair run: S = {stats.chsh_value:.4f} +- {stats.chsh_stderr:.4f} "
        f"vs 2*sqrt(2) ({elapsed:.1f}s)",
    )


def test_08_qkd_demon_attack():
    t0 = time.time()
    config = qkd.QkdConfig(n_pairs=1_000_000, attack="demon", seed=7, **QKD_KW)
    stats, trials = qkd.simulate(config, keep_trials=True)
    target = 2 * math.sqrt(2)
    assert abs(stats.chsh_value - target) <= 4 * stats.chsh_stderr
    assert stats.eve_knowledge_fraction == 1.0
    coin = trials.coincident
    assert np.array_equal(trials.bob_setting[coin], trials.eve_setting[coin])
    assert np.array_equal(trials.bob_outcome[coin], trials.eve_outcome[coin])
    # rate stealth: t_eve >= |bob settings| * t_honest, and both simulated
    # rates sit within four binomial sigmas of their analytic values
    report = qkd.rate_analysis(config, stats)
    assert report.stealth_feasible
    assert config.channel_transmission_eve >= len(config.bob_settings) * config.channel_transmission_honest
    assert report.observed_within_4sigma
    honest_cfg = qkd.QkdConfig(n_pairs=1_000_000, attack="none", seed=8, **QKD_KW)
    honest_report = qkd.rate_analysis(honest_cfg, qkd.simulate(honest_cfg)[0])
    assert honest_report.observed_within_4sigma
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(
        8,
        True,
        f"demon attack: S = {stats.chsh_value:.4f}, interceptor knows 100% of accepted "
        f"outcomes, rates match analytic stealth values ({elapsed:.1f}s)",
    )


def test_09_manifest_determinism(tmp_path):
    t0 = time.time()
    invocations = [
        ["ot-analyze", "--theta", "30deg", "--seed", "1",
         "--output", str(tmp_path / "ot.csv")],
        ["bc-analyze", "--theta", "30deg", "--m-range", "1", "2", "--n-range", "1", "2",
         "--seed", "2", "--output", str(tmp_path / "bc.csv")],
        ["ot-feasibility", "--dims", "2", "2", "2", "--restarts", "3", "--max-iters", "5",
         "--seed", "3", "--output", str(tmp_path / "feas.json")],
        ["qkd-demon", "--n-pairs", "50000", "--attack", "demon", "--seed", "4",
         "--trials-csv", str(tmp_path / "trials.csv"), "--output", str(tmp_path / "qkd.json")],
    ]
    for argv in invocations:
        assert cli.main(argv) == 0
        manifest_path = argv[argv.index("--output") + 1] + cli.MANIFEST_SUFFIX
        manifest = json.loads(Path(manifest_path).read_text())
        originals = {p: Path(p).read_bytes() for p in manifest["outputs"]}
        for p in manifest["outputs"]:
            Path(p).write_bytes(b"tampered")
        assert cli.main(["replay", manifest_path]) == 0
        for p, blob in originals.items():
            assert Path(p).read_bytes() == blob, f"{argv[0]} replay not byte-identical for {p}"
    elapsed = time.time() - t0
    _report(9, True, f"all four subcommands replay byte-identically from manifests ({elapsed:.1f}s)")
