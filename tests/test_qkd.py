"""Key-distribution simulation: honest statistics, the demon attack, rates."""

from __future__ import annotations

import csv
import json
import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from qtwoparty import qkd

import qkd_oracle

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
    # a non-finite setting is refused by name, not carried into a cosine
    for name in ("alice_settings", "bob_settings"):
        for bad in (math.nan, math.inf, -math.inf, "nan"):
            with pytest.raises(ValueError, match=name):
                qkd.QkdConfig(n_pairs=10, **{name: (bad, 0.0)})
    with pytest.raises(ValueError):
        qkd.QkdConfig(n_pairs=10, visibility=1.5)
    with pytest.raises(ValueError):
        qkd.QkdConfig(n_pairs=10, channel_transmission_honest=0.0)
    with pytest.raises(ValueError):
        qkd.QkdConfig(n_pairs=10, attack="evil")
    # a fractional, textual or boolean pair count is refused, not truncated
    for n_pairs in (2.7, "10", True, np.bool_(True)):
        with pytest.raises(ValueError):
            qkd.QkdConfig(n_pairs=n_pairs)
    # numeric fields are stored as the floats they were validated as
    config = qkd.QkdConfig(
        n_pairs=10.0, visibility="0.5", channel_transmission_honest=np.float32(0.5),
        channel_transmission_eve=1, bob_detector_eff="0.8",
    )
    assert type(config.n_pairs) is int and config.n_pairs == 10
    assert (config.visibility, config.bob_detector_eff) == (0.5, 0.8)
    for name in ("visibility", "channel_transmission_honest", "channel_transmission_eve",
                 "bob_detector_eff"):
        assert type(getattr(config, name)) is float, name
    qkd.simulate(config)


def test_config_refuses_unusable_seed():
    # each used to be accepted, and simulate then failed inside SeedSequence
    for seed, message in ((1.5, "seed must be an integer, got 1.5"),
                          (None, "seed must be an integer, got None"),
                          ("3", "seed must be an integer, got '3'"),
                          (True, "seed must be an integer, got True"),
                          (-1, "seed must be >= 0, got -1")):
        with pytest.raises(ValueError, match=re.escape(message)):
            qkd.QkdConfig(n_pairs=10, seed=seed)
    for seed in (3.0, np.int64(3), np.uint8(3)):
        config = qkd.QkdConfig(n_pairs=10, seed=seed)
        assert type(config.seed) is int and config.seed == 3
        assert json.dumps(qkd.simulate(config)[0].to_json_dict()) == json.dumps(
            qkd.simulate(replace(config, seed=3))[0].to_json_dict()
        )


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
        cell_counts=np.full(e.shape, counts // e.size, dtype=int),
        correlators=e,
        correlator_stderr=np.zeros_like(e),
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
    hollow = replace(stats, cell_counts=np.array([[5, 5], [5, 0]]))
    with pytest.raises(qkd.InsufficientDataError):
        qkd.chsh(hollow)
    # the stats themselves report no CHSH pair
    assert hollow.chsh_value is None and hollow.chsh_stderr is None


# ---------------------------------------------------------------------------
# derived values: the count, the rate and the CHSH pair come from the cells
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        dict(n_pairs=5_000, alice_settings=(0.0,), bob_settings=CHSH_KW["bob_settings"]),
        dict(n_pairs=5_000, alice_settings=CHSH_KW["alice_settings"], bob_settings=(0.1,)),
        dict(n_pairs=3, channel_transmission_honest=0.01, bob_detector_eff=0.01, **CHSH_KW),
    ],
    ids=["one-alice-setting", "one-bob-setting", "2x2-no-coincidences"],
)
def test_chsh_pair_is_none_without_a_full_chsh_table(kw):
    stats, _ = qkd.simulate(qkd.QkdConfig(**kw))
    if kw["n_pairs"] == 3:
        assert stats.n_coincident == 0
    assert stats.chsh_value is None and stats.chsh_stderr is None


def test_derived_values_of_a_3x4_run():
    config = qkd.QkdConfig(
        n_pairs=50_000, alice_settings=(0.0, math.pi / 4, 0.3),
        bob_settings=(*CHSH_KW["bob_settings"], 0.0, 2.0), seed=5,
    )
    stats, _ = qkd.simulate(config)
    assert stats.cell_counts.shape == (3, 4)
    assert (stats.chsh_value, stats.chsh_stderr) == qkd.chsh(stats)
    assert stats.n_coincident == stats.cell_counts.sum()
    assert stats.coincidence_rate.hex() == (stats.n_coincident / config.n_pairs).hex()


@pytest.mark.parametrize("name", ["n_coincident", "coincidence_rate", "chsh_value", "chsh_stderr"])
def test_derived_values_are_not_init_arguments(name):
    stats, _ = qkd.simulate(qkd.QkdConfig(n_pairs=1_000, seed=1, **CHSH_KW))
    given = {f.name: getattr(stats, f.name) for f in fields(stats) if f.init}
    with pytest.raises(TypeError, match=name):
        qkd.QkdRunStats(**{**given, name: 1.0})


def test_replace_derives_the_values_again():
    stats, _ = qkd.simulate(qkd.QkdConfig(n_pairs=20_000, seed=1, **CHSH_KW))
    counts = 2 * stats.cell_counts
    doubled = replace(stats, cell_counts=counts, correlators=-stats.correlators)
    assert doubled.n_coincident == 2 * stats.n_coincident
    assert doubled.coincidence_rate == 2 * stats.n_coincident / stats.config.n_pairs
    assert (doubled.chsh_value, doubled.chsh_stderr) == (-stats.chsh_value, stats.chsh_stderr)
    counts = counts.copy()
    counts[0, 1] = 0
    hollow = replace(doubled, cell_counts=counts)
    assert hollow.n_coincident == counts.sum() < doubled.n_coincident
    assert hollow.chsh_value is None and hollow.chsh_stderr is None


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
    assert stats.chsh_value is None and stats.chsh_stderr is None


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
    # each read of a column decodes it in full, so read each once
    columns = [getattr(trials, f.name) for f in fields(qkd_oracle.Trials)]
    n = columns[0].size
    columns = [[""] * n if col is None else col.astype(int).tolist() for col in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "a_set", "b_set", "a_out", "b_out", "e_set", "e_out", "coincident"])
        for i, row in enumerate(zip(*columns)):
            writer.writerow([i, *row])


def _assert_csv_matches_oracle(trials, tmp_path):
    trials.write_csv(tmp_path / "fast.csv")
    _csv_writer_oracle(trials, tmp_path / "oracle.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


ELEVEN_SETTINGS = tuple(k * math.pi / 22 for k in range(11))


def _rows_at_block_seam(trials, blocks, offset):
    """The number of trials that fills ``blocks`` of ``write_csv``'s blocks, plus ``offset``.

    A block holds as many rows as fit in ``8 * CHUNK_ROWS`` bytes at the
    file's widest row: the last trial index's digits and the widest row text
    after the index, which is fixed by the key table. The block size depends
    on the row count through its digits, so take the one count that agrees.
    """
    text = max(len("," + ",".join("" if col is None else str(int(col[k])) for col in trials.table) + "\r\n")
               for k in range(trials.table[0].size))
    for digits in range(1, 8):
        n_pairs = blocks * (8 * qkd.CHUNK_ROWS // (digits + text)) + offset
        if len(str(n_pairs - 1)) == digits:
            return n_pairs
    raise AssertionError((blocks, offset, text))


# one block's rows - 1, exactly and + 1, and two blocks + 1
BLOCK_SEAMS = {"block-1": (1, -1), "block": (1, 0), "block+1": (1, 1), "2blocks+1": (2, 1)}


# rows where the trial index gains a digit, the seams of one slice and of
# four, and rows whose last index reaches 10**5 or stops one short; then the
# seams of write_csv's own blocks at the widths of the 2 x 2 demon run and the
# honest eleven-setting run, which BLOCK_SEAMS names and the test computes
@pytest.mark.parametrize(
    "n_pairs, attack, settings",
    [pytest.param(n, attack, CHSH_KW, id=f"{n}-{attack}") for n in (
        1, 9, 10, 11, qkd.CHUNK_ROWS - 1, qkd.CHUNK_ROWS, qkd.CHUNK_ROWS + 1,
        4 * qkd.CHUNK_ROWS - 1, 4 * qkd.CHUNK_ROWS, 4 * qkd.CHUNK_ROWS + 1, 99_999, 100_000, 100_001)
     for attack in (qkd.ATTACK_NONE, qkd.ATTACK_DEMON)]
    + [pytest.param(seam, attack, settings, id=f"{name}-{attack}-{seam}")
       for name, attack, settings in (
           ("2x2", qkd.ATTACK_DEMON, CHSH_KW),
           ("eleven", qkd.ATTACK_NONE, dict(alice_settings=ELEVEN_SETTINGS, bob_settings=ELEVEN_SETTINGS)))
       for seam in BLOCK_SEAMS],
)
def test_write_csv_matches_csv_writer_bytes(tmp_path, n_pairs, attack, settings):
    config = qkd.QkdConfig(n_pairs=1, attack=attack, seed=13, **settings)
    if n_pairs in BLOCK_SEAMS:
        n_pairs = _rows_at_block_seam(qkd.simulate(config, keep_trials=True)[1], *BLOCK_SEAMS[n_pairs])
    _, trials = qkd.simulate(replace(config, n_pairs=n_pairs), keep_trials=True)
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


def test_write_csv_matches_oracle_on_simulated_trials(tmp_path, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.sampled_from([qkd.ATTACK_NONE, qkd.ATTACK_DEMON]),
        st.integers(1, 11),
        st.integers(1, 11),
        # trial indices cross from one to two and from two to three digits
        st.one_of(st.integers(1, 12), st.integers(95, 130)),
        # blocks of 1 to 11 rows: 8 * chunk bytes at rows of 17 to 25 bytes
        st.integers(1, 24),
        st.integers(0, 2**32 - 1),
    )
    def check(attack, na, nb, n_pairs, chunk, seed):
        # small blocks, so blocks of different index widths meet in one file
        monkeypatch.setattr(qkd, "CHUNK_ROWS", chunk)
        config = qkd.QkdConfig(
            n_pairs=n_pairs, alice_settings=ELEVEN_SETTINGS[:na], bob_settings=ELEVEN_SETTINGS[:nb],
            attack=attack, seed=seed,
        )
        _, trials = qkd.simulate(config, keep_trials=True)
        _assert_csv_matches_oracle(trials, tmp_path)

    check()


def test_write_csv_memory_bounded_in_rows(tmp_path):
    # rows are formatted a block at a time, so four slices' worth needs no
    # more working memory than one
    def peak(chunks):
        config = qkd.QkdConfig(
            n_pairs=chunks * qkd.CHUNK_ROWS, attack=qkd.ATTACK_DEMON, seed=15, **CHSH_KW
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


@pytest.mark.parametrize(
    "config",
    [qkd.QkdConfig(n_pairs=200_000, attack=qkd.ATTACK_DEMON, seed=3, **CHSH_KW),
     qkd.QkdConfig(n_pairs=20_000, alice_settings=ELEVEN_SETTINGS, bob_settings=ELEVEN_SETTINGS, seed=4)],
    ids=["demon-2x2", "honest-eleven"],
)
def test_write_csv_peak_within_three_slice_columns(tmp_path, config):
    # a block of row text is at most one 64-bit slice column of simulate,
    # 8 * CHUNK_ROWS bytes, and the writer holds it beside at most two
    # more of that size: its row text gathered from the key table, then the
    # bytes left once the pads are dropped
    _, trials = qkd.simulate(config, keep_trials=True)
    tracemalloc.start()
    try:
        trials.write_csv(tmp_path / "trials.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * qkd.CHUNK_ROWS, (peak, 3 * 8 * qkd.CHUNK_ROWS)


# ---------------------------------------------------------------------------
# cell tallies
# ---------------------------------------------------------------------------


def _add_at_stats_json(stats, trials) -> str:
    """``stats`` re-tallied from the trials by ``np.add.at`` and masked means, as JSON text."""
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

    def fraction(hits):
        return float(hits[coin].mean()) if coin.any() else math.nan

    eve = None
    if trials.eve_outcome is not None:
        eve = fraction(trials.bob_outcome == trials.eve_outcome)
    expected = replace(
        stats, cell_counts=counts, correlators=corr, correlator_stderr=stderr,
        alice_plus_fraction=fraction(trials.alice_outcome > 0),
        bob_plus_fraction=fraction(trials.bob_outcome > 0),
        eve_knowledge_fraction=eve,
    )
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


# ---------------------------------------------------------------------------
# the per-trial oracle: same draws, so the same bytes
# ---------------------------------------------------------------------------

# the first two of each side are the CHSH settings; the rest give 3- and 4-setting tables
ALICE_FOUR = (0.0, math.pi / 4, 0.3, 1.2)
BOB_FOUR = (math.pi / 8, 3 * math.pi / 8, 0.0, 2.0)


def _first_difference(got, ref, path="stats"):
    """Path and values of the first JSON cell where ``got`` and ``ref`` differ, or None."""
    if isinstance(ref, dict) and isinstance(got, dict) and got.keys() == ref.keys():
        items = ((f"{path}.{k}", got[k], ref[k]) for k in ref)
    elif isinstance(ref, list) and isinstance(got, list) and len(got) == len(ref):
        items = ((f"{path}[{i}]", g, r) for i, (g, r) in enumerate(zip(got, ref)))
    else:
        got, ref = json.dumps(got), json.dumps(ref)
        return None if got == ref else f"{path}: {got:.80} != {ref:.80}"
    return next(filter(None, (_first_difference(g, r, p) for p, g, r in items)), None)


def _assert_matches_oracle(config):
    # plain comparisons in an `if`, not `assert`, and on a mismatch one short
    # line: a config with tens of thousands of settings would make pytest's
    # diff of the JSON texts, or its repr of the config, take minutes
    stats, trials = qkd.simulate(config, keep_trials=True)
    ref_stats, ref_trials = qkd_oracle.simulate(config, keep_trials=True)
    run = (f"n_pairs={config.n_pairs} seed={config.seed} attack={config.attack} "
           f"settings={len(config.alice_settings)}x{len(config.bob_settings)}")
    ref_json = json.dumps(ref_stats.to_json_dict())
    for got in (stats, qkd.simulate(config)[0]):
        if json.dumps(got.to_json_dict()) != ref_json:
            where = _first_difference(got.to_json_dict(), ref_stats.to_json_dict())
            pytest.fail(f"{run}: {where}", pytrace=False)
    for name in (f.name for f in fields(qkd_oracle.Trials)):
        got, ref = getattr(trials, name), getattr(ref_trials, name)
        if ref is None or got is None:
            if got is not ref:
                pytest.fail(f"{run}: {name} is {got!r:.40} against {ref!r:.40}", pytrace=False)
            continue
        if got.dtype != ref.dtype or got.shape != ref.shape:
            pytest.fail(f"{run}: {name} is {got.dtype}{got.shape} against {ref.dtype}{ref.shape}",
                        pytrace=False)
        if not np.array_equal(got, ref):
            i = int(np.flatnonzero(got != ref)[0])
            pytest.fail(f"{run}: {name} first differs at trial {i}: {got[i]} != {ref[i]}",
                        pytrace=False)
    return stats


@pytest.mark.parametrize("attack", [qkd.ATTACK_NONE, qkd.ATTACK_DEMON])
@pytest.mark.parametrize("n_pairs", [1, 7, 4 * qkd.CHUNK_ROWS + 1])
@pytest.mark.parametrize("visibility", [0.0, 0.37, 1.0])
def test_simulate_matches_per_trial_oracle(attack, n_pairs, visibility):
    for na in range(1, 5):
        for nb in range(1, 5):
            for seed in (0, 1, 2):
                _assert_matches_oracle(qkd.QkdConfig(
                    n_pairs=n_pairs, alice_settings=ALICE_FOUR[:na],
                    bob_settings=BOB_FOUR[:nb], visibility=visibility, attack=attack,
                    seed=seed,
                ))


@pytest.mark.parametrize("attack", [qkd.ATTACK_NONE, qkd.ATTACK_DEMON])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simulate_matches_oracle_without_coincidences(attack, seed):
    config = qkd.QkdConfig(
        n_pairs=7, channel_transmission_honest=1e-6, channel_transmission_eve=1e-6,
        bob_detector_eff=1e-6, attack=attack, seed=seed, **CHSH_KW,
    )
    assert _assert_matches_oracle(config).n_coincident == 0


@pytest.mark.parametrize("keep_trials", [False, True])
@pytest.mark.parametrize("attack", [qkd.ATTACK_NONE, qkd.ATTACK_DEMON])
def test_simulate_peak_memory_within_oracle(attack, keep_trials):
    config = qkd.QkdConfig(n_pairs=1_000_000, attack=attack, seed=18, **CHSH_KW)

    def peak(simulate):
        tracemalloc.start()
        try:
            simulate(config, keep_trials=keep_trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    new, ref = peak(qkd.simulate), peak(qkd_oracle.simulate)
    assert new <= ref, (new, ref)


# ---------------------------------------------------------------------------
# the stream facts the chunked pass rests on, and its chunk seams
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("high", range(1, 12))
def test_uint32_draws_equal_int64_draws(high):
    # below 2**32 numpy takes one bounded 32-bit draw per value for both dtypes
    for n in (1, 2, 7, 64, 1001):
        wide, narrow = np.random.default_rng(high), np.random.default_rng(high)
        got = narrow.integers(0, high, size=n, dtype=np.uint32)
        want = wide.integers(0, high, size=n)
        assert np.array_equal(got, want), (np.__version__, high, n)
        assert narrow.bit_generator.state == wide.bit_generator.state, (np.__version__, high, n)


@pytest.mark.parametrize("high", range(1, 12))
def test_sliced_uint32_draws_equal_one_call(high):
    # a uint32 value takes one bounded 32-bit draw, and the unused half of a
    # 64-bit word waits in the bit generator, so slices continue one call's stream
    for rows, sizes in ((1, (1, 2, 9)), (3, (1, 3, 4, 10)), (7, (6, 7, 8, 30)),
                        (qkd.CHUNK_ROWS, (qkd.CHUNK_ROWS - 1, qkd.CHUNK_ROWS + 1))):
        for n in sizes:
            for lead in (0, 1):  # one 32-bit draw first leaves half a word buffered
                whole, sliced = np.random.default_rng(high), np.random.default_rng(high)
                for r in (whole, sliced):
                    r.integers(0, 3, size=lead, dtype=np.uint32)
                want = whole.integers(0, high, size=n, dtype=np.uint32)
                got = np.concatenate([
                    sliced.integers(0, high, size=min(rows, n - lo), dtype=np.uint32)
                    for lo in range(0, n, rows)
                ])
                case = (np.__version__, high, rows, n, lead)
                assert np.array_equal(got, want), case
                assert sliced.bit_generator.state == whole.bit_generator.state, case


# 2**31 + 1 rejects about half of its halves
@pytest.mark.parametrize("high", [*range(1, 12), 2**31 + 1])
def test_raw_draws_equal_uint32_draws(high):
    # simulate's bounded draws, made from raw words, are numpy's in values, in
    # the raw stream's position and in the half left waiting, slice by slice
    for rows, sizes in ((1, (1, 2, 9)), (3, (3, 4, 10)), (7, (7, 8, 30)),
                        (qkd.CHUNK_ROWS, (qkd.CHUNK_ROWS - 1, qkd.CHUNK_ROWS + 1))):
        for n in sizes:
            for lead in (0, 1):  # one 32-bit draw first leaves half a word waiting
                rng, raw = np.random.default_rng(high), np.random.default_rng(high)
                draws = qkd._RawDraws(raw.bit_generator, 0)
                rng.integers(0, 3, size=lead, dtype=np.uint32)
                draws.integers(3, lead)
                # a column of its own, started at the half the lead draw stopped at
                started = qkd._RawDraws(np.random.default_rng(high).bit_generator, draws.used)
                want = rng.integers(0, high, size=n, dtype=np.uint32)
                state = rng.bit_generator.state
                case = (np.__version__, high, rows, n, lead)
                for column in (draws, started):
                    got = np.concatenate([column.integers(high, min(rows, n - lo))
                                          for lo in range(0, n, rows)])
                    assert np.array_equal(got, want), case
                    assert column.half.tolist() == [state["uinteger"]] * state["has_uint32"], case
                assert raw.bit_generator.state["state"] == state["state"], case
                # the counted halves put the next column where numpy's next draw is
                after = qkd._RawDraws(np.random.default_rng(high).bit_generator, draws.used)
                want = rng.integers(0, 5, size=3, dtype=np.uint32)
                assert np.array_equal(after.integers(5, 3), want), case


# the edges, then values that are not multiples of 2**-53
@pytest.mark.parametrize("p", [0.0, 2.0**-53, 0.5, 1 - 2.0**-53, 1.0, 1e-300, 1 / 3,
                               *(np.random.default_rng(21).random(3) ** 3).tolist()])
def test_raw_draws_below_equal_uniform_draws(p):
    rng, raw = np.random.default_rng(22), np.random.default_rng(22)
    draws = qkd._RawDraws(raw.bit_generator, 0)
    # one limit for every uniform compares as a limit per uniform does
    one = qkd._RawDraws(np.random.default_rng(22).bit_generator, 0)
    limit = draws.limit(p)
    for n in (1, 7, 1001):
        case = (np.__version__, p.hex(), n)
        want = rng.random(n) < p
        assert np.array_equal(draws.below(np.full(n, limit), n), want), case
        assert np.array_equal(one.below(limit, n), want), case
        assert raw.bit_generator.state == rng.bit_generator.state, case
    # random() is k * 2**-53 for k = w >> 11, so the integer compare is exact
    # at the values next to p
    edge = math.ceil(math.ldexp(p, 53))
    for k in range(max(edge - 2, 0), min(edge + 3, 2**53)):
        assert (k < limit) == (k * 2.0**-53 < p), (np.__version__, p.hex(), k)


def test_raw_draws_below_at_the_drawn_value():
    # p equal to the next uniform, and one float either side of it
    u = np.random.default_rng(24).random()
    assert u < 0.5  # so the floats next to u are not multiples of 2**-53
    for p in (np.nextafter(u, 0.0), u, np.nextafter(u, 1.0)):
        draws = qkd._RawDraws(np.random.default_rng(24).bit_generator, 0)
        assert draws.below(draws.limit(p), 1)[0] == (u < p), (np.__version__, p.hex())


def test_simulate_draws_from_the_raw_stream_alone(monkeypatch):
    # the bytes rest on SeedSequence seeding and the PCG64 raw stream, so a
    # generator without Generator's methods gives the same run
    config = qkd.QkdConfig(n_pairs=5000, bob_settings=THREE_SETTINGS,
                           attack=qkd.ATTACK_DEMON, seed=23)
    want = qkd.simulate(config, keep_trials=True)

    class RawStreamOnly:
        def __init__(self, seed):
            self.bit_generator = np.random.PCG64(seed)

    monkeypatch.setattr(np.random, "default_rng", RawStreamOnly)
    got = qkd.simulate(config, keep_trials=True)
    assert json.dumps(got[0].to_json_dict()) == json.dumps(want[0].to_json_dict())
    assert got[1].key.tobytes() == want[1].key.tobytes()


@pytest.mark.parametrize("attack", [qkd.ATTACK_NONE, qkd.ATTACK_DEMON])
@pytest.mark.parametrize("na, nb", [(2, 2), (3, 4), (1, 3), (3, 1)])
def test_key_holds_the_draws_in_draw_order(attack, na, nb):
    # a trial's key is its draws in mixed radix, in the order they are drawn;
    # at odd n a column after one odd run of halves starts on a word's high half
    config = qkd.QkdConfig(n_pairs=5001, alice_settings=ALICE_FOUR[:na], bob_settings=BOB_FOUR[:nb],
                           visibility=0.37, attack=attack, seed=na * nb)
    key = qkd.simulate(config, keep_trials=True)[1].key
    ref = qkd_oracle.simulate(config, keep_trials=True)[1]
    demon = attack == qkd.ATTACK_DEMON
    radix = (na, nb, 2, nb, 2, 2) if demon else (na, nb, 2, 2, 2)
    a_set, b_set, a_plus, *eve_set, agree, coincident = np.unravel_index(key, radix)
    assert np.array_equal(a_set, ref.alice_setting)
    assert np.array_equal(b_set, ref.bob_setting)
    assert np.array_equal(a_plus, ref.alice_outcome > 0)
    assert len(eve_set) == demon and all(np.array_equal(e, ref.eve_setting) for e in eve_set)
    assert np.array_equal(coincident, ref.coincident)
    # the receiver's outcome is read only on coincident trials
    kept = ref.coincident
    assert np.array_equal(agree[kept], ref.bob_outcome[kept] == ref.alice_outcome[kept])
    assert 0 < agree[kept].sum() < kept.sum() < config.n_pairs


# 2**32 mod 54161 halves of each 2**32 are rejected, 1.26e-5 of them
WIDE_SIDE = tuple(k * 1e-4 for k in range(54161))


def _rejects(seed, n, start):
    """Whether a bounded draw over WIDE_SIDE rejects one of halves [start, start + n)."""
    words = np.random.default_rng(seed).bit_generator.random_raw((start + n + 1) // 2)
    halves = words.astype("<u8").view("<u4")[start:start + n]
    return bool((halves * np.uint32(len(WIDE_SIDE)) < 2**32 % len(WIDE_SIDE)).any())


@pytest.mark.parametrize("side", ["alice_settings", "bob_settings"])
def test_column_starts_after_a_rejection_match_oracle(side):
    # a rejected half moves every later column's start, so the pass that
    # assumed none is run again from the counted starts; the oracle draws
    # through numpy's own rejection
    n = 60_000
    start = 0 if side == "alice_settings" else n  # where the wide column's halves begin
    rejecting = [seed for seed in range(6) if _rejects(seed, n, start)]
    assert 0 < len(rejecting) < 6, rejecting
    for seed in range(6):
        _assert_matches_oracle(qkd.QkdConfig(n_pairs=n, seed=seed, **{side: WIDE_SIDE}))


@pytest.mark.parametrize("chunk", [1, 3, 7])
def test_simulate_matches_oracle_across_chunk_seams(monkeypatch, chunk):
    monkeypatch.setattr(qkd, "CHUNK_ROWS", chunk)
    for n_pairs in range(1, 31):
        for attack in (qkd.ATTACK_NONE, qkd.ATTACK_DEMON):
            for na in range(1, 5):
                for nb in range(1, 5):
                    _assert_matches_oracle(qkd.QkdConfig(
                        n_pairs=n_pairs, alice_settings=ALICE_FOUR[:na],
                        bob_settings=BOB_FOUR[:nb], visibility=0.37, attack=attack,
                        seed=n_pairs,
                    ))


@pytest.mark.parametrize("attack", [qkd.ATTACK_NONE, qkd.ATTACK_DEMON])
@pytest.mark.parametrize("n_pairs", [qkd.CHUNK_ROWS - 1, qkd.CHUNK_ROWS, 2 * qkd.CHUNK_ROWS + 1,
                                     4 * qkd.CHUNK_ROWS - 1, 4 * qkd.CHUNK_ROWS,
                                     8 * qkd.CHUNK_ROWS + 1])
def test_simulate_matches_oracle_at_default_chunk_seams(attack, n_pairs):
    for na, nb in ((2, 2), (3, 4)):
        _assert_matches_oracle(qkd.QkdConfig(
            n_pairs=n_pairs, alice_settings=ALICE_FOUR[:na], bob_settings=BOB_FOUR[:nb],
            attack=attack, seed=19,
        ))


# settings enough that the demon's code needs uint32: 33 * 33 * 2 * 33 codes,
# four keys each
MANY_SETTINGS = tuple(k * math.pi / 66 for k in range(33))


@pytest.mark.parametrize("attack", [qkd.ATTACK_NONE, qkd.ATTACK_DEMON])
def test_simulate_matches_oracle_at_wide_codes(attack):
    assert np.min_scalar_type(4 * 33**3 * 2 - 1) == np.uint32
    for n_pairs in (1, 7, 500):
        _assert_matches_oracle(qkd.QkdConfig(
            n_pairs=n_pairs, alice_settings=MANY_SETTINGS, bob_settings=MANY_SETTINGS,
            visibility=0.37, attack=attack, seed=n_pairs,
        ))


# A run holds one slice of working arrays, whatever n_pairs: each slice is
# drawn through every column and its keys counted and dropped. Kept trials add
# one key per trial at full length, one byte at the 2 x 2 settings, and a
# table per key. One slice was measured at 18.5 (honest) and 18.7 (demon)
# bytes per row, kept or not, at 2**18 and 10**6 pairs: a uniform column's
# raw words and gathered integer limits, 8 bytes each, its bool result and
# the slice's one-byte keys; the intp copies of the keys in ``take`` and
# ``bincount`` are freed before those are made. The honest coincident column
# compares its words with one limit, so at visibility 0, where no honest
# column gathers, the honest figure is 17.6, set by the bounded integer
# columns. The allowance of 40 leaves a 2.1x margin. A stats-only bound has
# no per-pair term: one byte per pair held at full length fits in it at
# 10**5 pairs, but not at 4 * 10**6.
CODE_BYTES_PER_PAIR = 1
CHUNK_BYTES_PER_ROW = 40


def _simulate_peak(config, keep_trials):
    qkd.simulate(replace(config, n_pairs=1))  # numpy imports numpy.random on first use
    tracemalloc.start()
    try:
        qkd.simulate(config, keep_trials=keep_trials)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "attack, keep_trials",
    [(qkd.ATTACK_NONE, False), (qkd.ATTACK_DEMON, False),
     (qkd.ATTACK_NONE, True), (qkd.ATTACK_DEMON, True)],
    ids=["none", "demon", "none-kept", "demon-kept"],
)
def test_stats_only_memory_per_pair(attack, keep_trials):
    # kept trials hold a key per pair; a stats-only run holds one slice at any n
    for n in (1_000_000,) if keep_trials else (100_000, 4_000_000):
        config = qkd.QkdConfig(n_pairs=n, attack=attack, seed=20, **CHSH_KW)
        peak = _simulate_peak(config, keep_trials)
        bound = CODE_BYTES_PER_PAIR * n * keep_trials + CHUNK_BYTES_PER_ROW * qkd.CHUNK_ROWS
        assert peak <= bound, (n, peak / qkd.CHUNK_ROWS, bound / qkd.CHUNK_ROWS)
