"""Key-distribution simulation: honest statistics, the demon attack, rates."""

from __future__ import annotations

import csv
import json
import math
import tracemalloc
from dataclasses import replace

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
    stats, _ = qkd.simulate(qkd.QkdConfig(n_pairs=400_000, seed=3, **CHSH_KW))
    assert abs(stats.chsh_value - S_QUANTUM) <= 4 * stats.chsh_stderr
    # per-cell correlators against the closed form V cos 2(a - b)
    for i, a in enumerate(CHSH_KW["alice_settings"]):
        for j, b in enumerate(CHSH_KW["bob_settings"]):
            expected = math.cos(2 * (a - b))
            assert abs(stats.correlators[i, j] - expected) <= 4 * stats.correlator_stderr[i, j]


def test_reduced_visibility_scales_chsh():
    stats, _ = qkd.simulate(qkd.QkdConfig(n_pairs=400_000, visibility=0.5, seed=4, **CHSH_KW))
    assert abs(stats.chsh_value - S_QUANTUM / 2) <= 4 * stats.chsh_stderr
    assert stats.chsh_value < 2.0


def test_zero_visibility_uncorrelated():
    stats, _ = qkd.simulate(qkd.QkdConfig(n_pairs=200_000, visibility=0.0, seed=5, **CHSH_KW))
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
    stats, _ = qkd.simulate(config)
    for i, a in enumerate(CHSH_KW["alice_settings"]):
        for j, b in enumerate(CHSH_KW["bob_settings"]):
            expected = math.cos(2 * (a - b))
            assert abs(stats.correlators[i, j] - expected) <= 4 * stats.correlator_stderr[i, j]


def test_marginals_are_unbiased():
    for attack in (qkd.ATTACK_NONE, qkd.ATTACK_DEMON):
        stats, _ = qkd.simulate(qkd.QkdConfig(n_pairs=300_000, attack=attack, seed=8, **CHSH_KW))
        half_width = 4 * math.sqrt(0.25 / stats.n_coincident)
        assert abs(stats.alice_plus_fraction - 0.5) <= half_width
        assert abs(stats.bob_plus_fraction - 0.5) <= half_width


def test_simulation_deterministic():
    config = qkd.QkdConfig(n_pairs=50_000, attack=qkd.ATTACK_DEMON, seed=9, **CHSH_KW)
    a, _ = qkd.simulate(config)
    b, _ = qkd.simulate(config)
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
        report = qkd.rate_analysis(config, qkd.simulate(config)[0])
        assert report.observed_within_4sigma
        # stealth: matched rates by construction (t_eve = 2 * t_honest, 2 settings)
        assert abs(report.attack_rate - report.honest_rate) < 1e-12


def test_single_setting_run_has_no_default_chsh():
    config = qkd.QkdConfig(n_pairs=5_000, alice_settings=(0.0,), bob_settings=(0.1,))
    stats, _ = qkd.simulate(config)
    assert stats.chsh_value is None


def test_simulate_returns_trials_only_when_kept():
    config = qkd.QkdConfig(n_pairs=1_000, attack=qkd.ATTACK_DEMON, seed=17, **CHSH_KW)
    stats, trials = qkd.simulate(config)
    assert trials is None
    kept_stats, kept = qkd.simulate(config, keep_trials=True)
    assert json.dumps(kept_stats.to_json_dict()) == json.dumps(stats.to_json_dict())
    assert kept.coincident.sum() == stats.n_coincident


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


# ---------------------------------------------------------------------------
# trial CSV bytes
# ---------------------------------------------------------------------------


def _csv_writer_oracle(trials, path):
    """The row-by-row ``csv.writer`` loop whose bytes ``write_csv`` must keep."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "a_set", "b_set", "a_out", "b_out", "e_set", "e_out", "coincident"])
        has_eve = trials.eve_setting is not None
        for i in range(trials.alice_setting.size):
            writer.writerow(
                [
                    i,
                    int(trials.alice_setting[i]),
                    int(trials.bob_setting[i]),
                    int(trials.alice_outcome[i]),
                    int(trials.bob_outcome[i]),
                    int(trials.eve_setting[i]) if has_eve else "",
                    int(trials.eve_outcome[i]) if has_eve else "",
                    int(trials.coincident[i]),
                ]
            )


def _assert_csv_matches_oracle(trials, tmp_path):
    trials.write_csv(tmp_path / "fast.csv")
    _csv_writer_oracle(trials, tmp_path / "oracle.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


ELEVEN_SETTINGS = tuple(k * math.pi / 22 for k in range(11))


@pytest.mark.parametrize("attack", [qkd.ATTACK_NONE, qkd.ATTACK_DEMON])
@pytest.mark.parametrize(
    "n_pairs",
    [1, 9, 10, 11, qkd.CSV_CHUNK_ROWS - 1, qkd.CSV_CHUNK_ROWS, qkd.CSV_CHUNK_ROWS + 1],
)
def test_write_csv_matches_csv_writer_bytes(tmp_path, attack, n_pairs):
    config = qkd.QkdConfig(n_pairs=n_pairs, attack=attack, seed=13, **CHSH_KW)
    _, trials = qkd.simulate(config, keep_trials=True)
    _assert_csv_matches_oracle(trials, tmp_path)


@pytest.mark.parametrize("attack", [qkd.ATTACK_NONE, qkd.ATTACK_DEMON])
@pytest.mark.parametrize(
    "settings",
    [(ELEVEN_SETTINGS, ELEVEN_SETTINGS), ((0.0,), (0.1,))],
    ids=["eleven-settings", "single-setting"],
)
def test_write_csv_bytes_at_other_setting_counts(tmp_path, attack, settings):
    # eleven settings give two-digit setting indices, in the interceptor's too
    a, b = settings
    config = qkd.QkdConfig(
        n_pairs=5_000, alice_settings=a, bob_settings=b, attack=attack, seed=14
    )
    _, trials = qkd.simulate(config, keep_trials=True)
    if len(a) == 11:
        assert trials.alice_setting.max() == 10
    _assert_csv_matches_oracle(trials, tmp_path)


def test_write_csv_bytes_at_int64_extremes(tmp_path):
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    col = np.array([lo, -(10**18), -10, -9, -1, 0, 1, 9, 10, 10**18, hi], dtype=np.int64)
    cols = [np.roll(col, k) for k in range(7)]
    _assert_csv_matches_oracle(qkd.TrialData(*cols), tmp_path)
    _assert_csv_matches_oracle(qkd.TrialData(*cols[:4], None, None, cols[6]), tmp_path)


def test_write_csv_matches_oracle_on_arbitrary_columns(tmp_path, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis.extra import numpy as hnp

    st = hypothesis.strategies
    value = st.one_of(st.integers(-12, 12), st.integers(-(2**63), 2**63 - 1))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        hnp.arrays(np.int64, st.tuples(st.just(7), st.integers(0, 30)), elements=value),
        st.booleans(),
        st.integers(1, 8),
    )
    def check(cols, honest, chunk):
        cols = list(cols)
        if honest:
            cols[4] = cols[5] = None
        # small chunks, so chunks of different widths meet in one file
        monkeypatch.setattr(qkd, "CSV_CHUNK_ROWS", chunk)
        _assert_csv_matches_oracle(qkd.TrialData(*cols), tmp_path)

    check()


def test_write_csv_memory_bounded_in_rows(tmp_path):
    # rows are formatted a chunk at a time, so four chunks' worth needs no
    # more working memory than one
    def peak(chunks):
        config = qkd.QkdConfig(
            n_pairs=chunks * qkd.CSV_CHUNK_ROWS, attack=qkd.ATTACK_DEMON, seed=15, **CHSH_KW
        )
        _, trials = qkd.simulate(config, keep_trials=True)
        tracemalloc.start()
        try:
            trials.write_csv(tmp_path / f"trials_{chunks}.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = peak(1), peak(4)
    assert four <= 1.25 * one, (one, four)


# ---------------------------------------------------------------------------
# cell tallies
# ---------------------------------------------------------------------------


def _add_at_stats_json(stats, trials) -> str:
    """``stats`` with its cells re-tallied from the trials by ``np.add.at``, as JSON text."""
    na, nb = stats.cell_counts.shape
    coin = trials.coincident
    counts = np.zeros((na, nb), dtype=int)
    sums = np.zeros((na, nb), dtype=float)
    if coin.any():
        cells = (trials.alice_setting[coin], trials.bob_setting[coin])
        np.add.at(counts, cells, 1)
        np.add.at(sums, cells, (trials.alice_outcome * trials.bob_outcome)[coin].astype(float))
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        stderr = np.where(
            counts > 0, np.sqrt(np.maximum(1.0 - corr**2, 0.0) / np.maximum(counts, 1)), np.nan
        )
    expected = replace(
        stats, cell_counts=counts, correlators=corr, correlator_stderr=stderr,
        chsh_value=None, chsh_stderr=None,
    )
    if na >= 2 and nb >= 2:
        try:
            s, se = qkd.chsh(expected)
        except qkd.InsufficientDataError:
            s = se = None
        expected = replace(expected, chsh_value=s, chsh_stderr=se)
    return json.dumps(expected.to_json_dict())


THREE_SETTINGS = (0.0, math.pi / 6, math.pi / 3)


@pytest.mark.parametrize(
    "kw",
    [
        dict(n_pairs=100_000, **CHSH_KW),
        dict(n_pairs=100_000, attack=qkd.ATTACK_DEMON, **CHSH_KW),
        dict(n_pairs=100_000, alice_settings=THREE_SETTINGS, bob_settings=THREE_SETTINGS),
        dict(n_pairs=100_000, alice_settings=THREE_SETTINGS, bob_settings=THREE_SETTINGS,
             attack=qkd.ATTACK_DEMON),
        dict(n_pairs=20_000, alice_settings=(0.0,), bob_settings=(0.1,)),
        dict(n_pairs=1, channel_transmission_honest=0.01, bob_detector_eff=0.01, **CHSH_KW),
    ],
    ids=["honest", "demon", "3x3-honest", "3x3-demon", "single-setting", "no-coincidences"],
)
def test_stats_match_add_at_oracle(kw):
    stats, trials = qkd.simulate(qkd.QkdConfig(seed=16, **kw), keep_trials=True)
    if kw["n_pairs"] == 1:
        assert stats.n_coincident == 0
    assert json.dumps(stats.to_json_dict()) == _add_at_stats_json(stats, trials)
