"""The per-trial coincidence simulation that the tests check ``qkd.simulate`` against.

This is ``qkd.simulate`` as it was before it took its agreement thresholds
from a per-setting table and its tallies from one count over a per-trial
key: a cosine per trial, a float64 correlation column, and masked gathers
for every statistic. It makes the same random draws in the same order, so
the two must give the same stats and the same trial columns, byte for byte.
Its kept trials are full-length columns in a plain record, ``Trials``, under
the seven names that ``qkd.TrialData`` decodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qtwoparty.qkd import (
    ATTACK_DEMON,
    ATTACK_NONE,
    NO_DETECTION,
    QkdConfig,
    QkdRunStats,
)


@dataclass(frozen=True)
class Trials:
    """Per-trial columns; outcomes are +-1 with 0 meaning no detection."""

    alice_setting: np.ndarray
    bob_setting: np.ndarray
    alice_outcome: np.ndarray
    bob_outcome: np.ndarray
    eve_setting: np.ndarray | None
    eve_outcome: np.ndarray | None
    coincident: np.ndarray


def _correlated_partner(rng, first: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """Second +-1 outcome with E[first * second] = corr and uniform marginal."""
    agree = rng.random(first.size) < 0.5 * (1.0 + corr)
    return np.where(agree, first, -first)


def simulate(config: QkdConfig, *, keep_trials: bool = False):
    """Run the trial-slot model; returns (stats, trials), trials None unless kept.

    Honest path: the pair is measured at both ends and the receiver's
    photon survives channel-plus-detector loss as one Bernoulli draw.
    Attack path: the interceptor measures the flying photon against her own
    uniformly drawn setting, and the engineered signal registers at the
    receiver only on matching settings, through the replaced channel.
    Deterministic per (config, seed): one private generator per call.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_pairs
    a_angles = np.array(config.alice_settings)
    b_angles = np.array(config.bob_settings)

    a_set = rng.integers(0, a_angles.size, size=n)
    b_set = rng.integers(0, b_angles.size, size=n)
    a_out = 2 * rng.integers(0, 2, size=n) - 1

    if config.attack == ATTACK_NONE:
        corr = config.visibility * np.cos(2.0 * (a_angles[a_set] - b_angles[b_set]))
        b_raw = _correlated_partner(rng, a_out, corr)
        p_detect = config.channel_transmission_honest * config.bob_detector_eff
        registered = rng.random(n) < p_detect
        b_out = np.where(registered, b_raw, NO_DETECTION)
        e_set = e_out = None
    else:
        e_set = rng.integers(0, b_angles.size, size=n)
        corr = config.visibility * np.cos(2.0 * (a_angles[a_set] - b_angles[e_set]))
        e_out = _correlated_partner(rng, a_out, corr)
        p_deliver = config.channel_transmission_eve * config.bob_detector_eff
        registered = (e_set == b_set) & (rng.random(n) < p_deliver)
        b_out = np.where(registered, e_out, NO_DETECTION)

    coincident = b_out != NO_DETECTION  # the sender always registers

    n_coin = int(coincident.sum())
    na, nb = a_angles.size, b_angles.size
    # tallies in trial order, as sequential adds: the +-1 sums are exact
    prod = (a_out[coincident] * b_out[coincident]).astype(float)
    cell = a_set[coincident] * nb + b_set[coincident]
    cell_counts = np.bincount(cell, minlength=na * nb).reshape(na, nb)
    cell_sums = np.bincount(cell, weights=prod, minlength=na * nb).reshape(na, nb)
    with np.errstate(invalid="ignore", divide="ignore"):
        correlators = np.where(cell_counts > 0, cell_sums / np.maximum(cell_counts, 1), np.nan)
        stderr = np.where(
            cell_counts > 0,
            np.sqrt(np.maximum(1.0 - correlators**2, 0.0) / np.maximum(cell_counts, 1)),
            np.nan,
        )

    if n_coin:
        alice_plus = float((a_out[coincident] > 0).mean())
        bob_plus = float((b_out[coincident] > 0).mean())
    else:
        alice_plus = bob_plus = math.nan

    eve_fraction = None
    if config.attack == ATTACK_DEMON:
        eve_fraction = (
            float((b_out[coincident] == e_out[coincident]).mean()) if n_coin else math.nan
        )

    stats = QkdRunStats(
        config=config,
        cell_counts=cell_counts,
        correlators=correlators,
        correlator_stderr=stderr,
        alice_plus_fraction=alice_plus,
        bob_plus_fraction=bob_plus,
        eve_knowledge_fraction=eve_fraction,
    )

    trials = None
    if keep_trials:
        trials = Trials(
            alice_setting=a_set,
            bob_setting=b_set,
            alice_outcome=a_out,
            bob_outcome=b_out,
            eve_setting=e_set,
            eve_outcome=e_out,
            coincident=coincident,
        )
    return stats, trials
