"""Key-distribution simulation: honest statistics, the demon attack, rates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qtwoparty import qkd

S_QUANTUM = 2 * math.sqrt(2)

CHSH_KW = dict(
    alice_settings=(0.0, math.pi / 4),
    bob_settings=(math.pi / 8, 3 * math.pi / 8),
)


def test_config_validation():
    with pytest.raises(ValueError):
        qkd.QkdConfig(n_pairs=0)
    with pytest.raises(ValueError):
        qkd.QkdConfig(n_pairs=10, alice_settings=())
    with pytest.raises(ValueError):
        qkd.QkdConfig(n_pairs=10, visibility=1.5)
    with pytest.raises(ValueError):
        qkd.QkdConfig(n_pairs=10, channel_transmission_honest=0.0)
    with pytest.raises(ValueError):
        qkd.QkdConfig(n_pairs=10, attack="evil")


def test_honest_chsh_reaches_quantum_value():
    stats = qkd.simulate(qkd.QkdConfig(n_pairs=400_000, seed=3, **CHSH_KW))
    assert abs(stats.chsh_value - S_QUANTUM) <= 4 * stats.chsh_stderr
    # per-cell correlators against the closed form V cos 2(a - b)
    for i, a in enumerate(CHSH_KW["alice_settings"]):
        for j, b in enumerate(CHSH_KW["bob_settings"]):
            expected = math.cos(2 * (a - b))
            assert abs(stats.correlators[i, j] - expected) <= 4 * stats.correlator_stderr[i, j]


def test_reduced_visibility_scales_chsh():
    stats = qkd.simulate(qkd.QkdConfig(n_pairs=400_000, visibility=0.5, seed=4, **CHSH_KW))
    assert abs(stats.chsh_value - S_QUANTUM / 2) <= 4 * stats.chsh_stderr
    assert stats.chsh_value < 2.0


def test_zero_visibility_uncorrelated():
    stats = qkd.simulate(qkd.QkdConfig(n_pairs=200_000, visibility=0.0, seed=5, **CHSH_KW))
    assert abs(stats.chsh_value) <= 4 * stats.chsh_stderr


def test_attack_preserves_bell_violation_and_leaks_everything():
    config = qkd.QkdConfig(n_pairs=400_000, attack=qkd.ATTACK_DEMON, seed=6, **CHSH_KW)
    stats, trials = qkd.simulate(config, keep_trials=True)
    assert abs(stats.chsh_value - S_QUANTUM) <= 4 * stats.chsh_stderr
    # exact, not statistical: every accepted outcome is the interceptor's
    assert stats.eve_knowledge_fraction == 1.0
    coin = trials.coincident
    assert np.array_equal(trials.bob_outcome[coin], trials.eve_outcome[coin])
    assert np.array_equal(trials.bob_setting[coin], trials.eve_setting[coin])
    # non-coincident attacked trials never register at the receiver
    assert np.all(trials.bob_outcome[~coin] == qkd.NO_DETECTION)


def test_attack_correlators_match_honest_cells():
    config = qkd.QkdConfig(n_pairs=400_000, attack=qkd.ATTACK_DEMON, seed=7, **CHSH_KW)
    stats = qkd.simulate(config)
    for i, a in enumerate(CHSH_KW["alice_settings"]):
        for j, b in enumerate(CHSH_KW["bob_settings"]):
            expected = math.cos(2 * (a - b))
            assert abs(stats.correlators[i, j] - expected) <= 4 * stats.correlator_stderr[i, j]


def test_marginals_are_unbiased():
    for attack in (qkd.ATTACK_NONE, qkd.ATTACK_DEMON):
        stats = qkd.simulate(qkd.QkdConfig(n_pairs=300_000, attack=attack, seed=8, **CHSH_KW))
        half_width = 4 * math.sqrt(0.25 / stats.n_coincident)
        assert abs(stats.alice_plus_fraction - 0.5) <= half_width
        assert abs(stats.bob_plus_fraction - 0.5) <= half_width


def test_simulation_deterministic():
    config = qkd.QkdConfig(n_pairs=50_000, attack=qkd.ATTACK_DEMON, seed=9, **CHSH_KW)
    a = qkd.simulate(config)
    b = qkd.simulate(config)
    assert a.n_coincident == b.n_coincident
    assert a.chsh_value == b.chsh_value
    assert np.array_equal(a.cell_counts, b.cell_counts)
    assert np.array_equal(a.correlators, b.correlators)


# ---------------------------------------------------------------------------
# CHSH combination
# ---------------------------------------------------------------------------


def _stats_with_correlators(e, counts=10_000):
    e = np.asarray(e, dtype=float)
    cfg = qkd.QkdConfig(n_pairs=counts, **CHSH_KW)
    return qkd.QkdRunStats(
        config=cfg,
        n_coincident=counts,
        coincidence_rate=1.0,
        cell_counts=np.full(e.shape, counts // e.size, dtype=int),
        correlators=e,
        correlator_stderr=np.zeros_like(e),
        chsh_value=None,
        chsh_stderr=None,
        alice_plus_fraction=0.5,
        bob_plus_fraction=0.5,
        eve_knowledge_fraction=None,
    )


def test_chsh_deterministic_correlations_reach_classical_bound():
    s, se = qkd.chsh(_stats_with_correlators([[1.0, 1.0], [1.0, 1.0]]))
    assert s == 2.0 and se == 0.0


def test_chsh_quantum_cells():
    r = math.sqrt(2) / 2
    s, _ = qkd.chsh(_stats_with_correlators([[r, -r], [r, r]]))
    assert abs(s - S_QUANTUM) < 1e-12


def test_chsh_empty_cell_is_an_error():
    stats = _stats_with_correlators([[1.0, 1.0], [1.0, 1.0]])
    hollow = qkd.QkdRunStats(
        **{**stats.__dict__, "cell_counts": np.array([[5, 5], [5, 0]])}
    )
    with pytest.raises(qkd.InsufficientDataError):
        qkd.chsh(hollow)


# ---------------------------------------------------------------------------
# rate analysis
# ---------------------------------------------------------------------------


def test_rate_stealth_feasible():
    config = qkd.QkdConfig(n_pairs=10, channel_transmission_honest=0.4, **CHSH_KW)
    report = qkd.rate_analysis(config)
    assert abs(report.required_t_eve - 0.8) < 1e-12
    assert report.stealth_feasible and not report.rate_detectable


def test_rate_stealth_infeasible():
    config = qkd.QkdConfig(n_pairs=10, channel_transmission_honest=0.6, **CHSH_KW)
    report = qkd.rate_analysis(config)
    assert abs(report.required_t_eve - 1.2) < 1e-12
    assert report.rate_detectable and not report.stealth_feasible


def test_rate_degenerate_single_setting():
    config = qkd.QkdConfig(
        n_pairs=10,
        alice_settings=(0.0,),
        bob_settings=(0.0,),
        channel_transmission_honest=1.0,
        channel_transmission_eve=1.0,
        bob_detector_eff=1.0,
    )
    report = qkd.rate_analysis(config)
    assert report.honest_rate == report.attack_rate == 1.0


def test_simulated_rates_match_analytic():
    for attack in (qkd.ATTACK_NONE, qkd.ATTACK_DEMON):
        config = qkd.QkdConfig(
            n_pairs=200_000,
            attack=attack,
            seed=10,
            channel_transmission_honest=0.4,
            channel_transmission_eve=0.8,
            **CHSH_KW,
        )
        report = qkd.rate_analysis(config, qkd.simulate(config))
        assert report.observed_within_4sigma
        # stealth: matched rates by construction (t_eve = 2 * t_honest, 2 settings)
        assert abs(report.attack_rate - report.honest_rate) < 1e-12


def test_single_setting_run_has_no_default_chsh():
    config = qkd.QkdConfig(n_pairs=5_000, alice_settings=(0.0,), bob_settings=(0.1,))
    stats = qkd.simulate(config)
    assert stats.chsh_value is None


def test_trials_csv(tmp_path):
    config = qkd.QkdConfig(n_pairs=200, attack=qkd.ATTACK_DEMON, seed=11, **CHSH_KW)
    _, trials = qkd.simulate(config, keep_trials=True)
    path = tmp_path / "trials.csv"
    trials.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "trial,a_set,b_set,a_out,b_out,e_set,e_out,coincident"
    assert len(lines) == 201
    # honest runs leave the interceptor columns empty
    config_h = qkd.QkdConfig(n_pairs=50, seed=12, **CHSH_KW)
    _, trials_h = qkd.simulate(config_h, keep_trials=True)
    path_h = tmp_path / "honest.csv"
    trials_h.write_csv(path_h)
    first = path_h.read_text().splitlines()[1].split(",")
    assert first[5] == "" and first[6] == ""
