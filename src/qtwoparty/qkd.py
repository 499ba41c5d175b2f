"""Entanglement-based key distribution under coincidence post-selection.

One polarization-entangled pair per trial slot: both parties pick a
polarizer setting uniformly at random and joint +-1 outcomes follow the
correlation E(alpha, beta) = V cos 2(alpha - beta) with uniform marginals.
Photons get lost (channel transmission, detector efficiency), so the
parties keep only *coincident* slots where both registered. That filter is
the attack surface: an interceptor measures the flying photon herself
against a uniformly chosen setting from the receiver's published set, then
sends a signal engineered to register only when the receiver's setting
matches hers, carrying her outcome. Post-selected statistics still violate
the Bell bound, yet the interceptor knows every accepted outcome; the only
trace is the coincidence rate, which she can repair with a better channel
whenever t_eve >= (number of receiver settings) * t_honest.

The sender's detectors are taken as perfectly efficient so the coincidence
filter is driven entirely by the receiver's arm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

ATTACK_NONE = "none"
ATTACK_DEMON = "demon"

NO_DETECTION = 0

CSV_CHUNK_ROWS = 1 << 16

# fills the byte matrix around each value's characters; dropped on output
_PAD = 0
# a uint64 divisor keeps the digit arithmetic in uint64 under numpy 1.x promotion
_TEN = np.uint64(10)


class InsufficientDataError(ValueError):
    """A requested statistic has an empty cell."""


@dataclass(frozen=True)
class QkdConfig:
    """Run parameters; the sender's detectors are perfectly efficient."""

    n_pairs: int
    alice_settings: tuple[float, ...] = (0.0, math.pi / 4)
    bob_settings: tuple[float, ...] = (math.pi / 8, 3 * math.pi / 8)
    visibility: float = 1.0
    channel_transmission_honest: float = 0.4
    channel_transmission_eve: float = 0.8
    bob_detector_eff: float = 0.8
    attack: str = ATTACK_NONE
    seed: int = 0

    def __post_init__(self):
        if int(self.n_pairs) < 1:
            raise ValueError("n_pairs must be >= 1")
        object.__setattr__(self, "n_pairs", int(self.n_pairs))
        object.__setattr__(self, "alice_settings", tuple(float(a) for a in self.alice_settings))
        object.__setattr__(self, "bob_settings", tuple(float(a) for a in self.bob_settings))
        if not self.alice_settings or not self.bob_settings:
            raise ValueError("setting lists must be nonempty")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")
        for name in ("channel_transmission_honest", "channel_transmission_eve", "bob_detector_eff"):
            val = float(getattr(self, name))
            if not 0.0 < val <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {val}")
        if self.attack not in (ATTACK_NONE, ATTACK_DEMON):
            raise ValueError(f"attack must be {ATTACK_NONE!r} or {ATTACK_DEMON!r}")


class _DecimalField:
    """Decimal text of one chunk of an integer column, any int64 value.

    ``put`` writes each value into a row of ``width`` bytes: the sign in the
    first byte, the digits right-aligned, pad bytes between.
    """

    def __init__(self, col: np.ndarray):
        col = np.asarray(col, dtype=np.int64)
        self.neg = col < 0
        # |col| in uint64, where the wrap-around negation is exact for int64 min too
        self.mag = col.astype(np.uint64)
        np.negative(self.mag, out=self.mag, where=self.neg)
        self.digits = len(str(int(self.mag.max())))
        self.width = self.digits + bool(self.neg.any())

    def put(self, block: np.ndarray) -> None:
        if self.width > self.digits:
            block[:, 0] = np.where(self.neg, ord("-"), _PAD)
        q = self.mag
        for j in range(self.digits):
            nxt = q // _TEN
            digit = (q - nxt * _TEN).astype(np.uint8)
            digit += ord("0")
            if j:
                digit[q == 0] = _PAD  # no leading zeros
            block[:, -1 - j] = digit
            q = nxt


@dataclass(frozen=True)
class TrialData:
    """Per-trial record arrays; outcomes are +-1 with 0 meaning no detection."""

    alice_setting: np.ndarray
    bob_setting: np.ndarray
    alice_outcome: np.ndarray
    bob_outcome: np.ndarray
    eve_setting: np.ndarray | None
    eve_outcome: np.ndarray | None
    coincident: np.ndarray

    def write_csv(self, path) -> None:
        """Stream trials as CSV (trial, a_set, b_set, a_out, b_out, e_set, e_out, coincident).

        The bytes are those of ``csv.writer`` in its default dialect: rows end
        in CRLF, every value is a plain decimal integer (``coincident`` as 0 or
        1), and honest runs leave ``e_set`` and ``e_out`` empty. Rows are
        formatted ``CSV_CHUNK_ROWS`` at a time as one byte matrix, so memory
        stays bounded in the number of trials.
        """
        columns = (
            self.alice_setting,
            self.bob_setting,
            self.alice_outcome,
            self.bob_outcome,
            self.eve_setting,
            self.eve_outcome,
            self.coincident,
        )
        n = self.alice_setting.size
        with open(path, "wb") as fh:
            fh.write(b"trial,a_set,b_set,a_out,b_out,e_set,e_out,coincident\r\n")
            for lo in range(0, n, CSV_CHUNK_ROWS):
                hi = min(lo + CSV_CHUNK_ROWS, n)
                fields = [_DecimalField(np.arange(lo, hi))]
                fields += [None if c is None else _DecimalField(c[lo:hi]) for c in columns]
                # one byte per separator and two for the row end
                width = sum(f.width for f in fields if f is not None) + len(fields) + 1
                rows = np.zeros((hi - lo, width), dtype=np.uint8)
                start = 0
                for f in fields:
                    if f is not None:
                        f.put(rows[:, start:start + f.width])
                        start += f.width
                    rows[:, start] = ord(",")
                    start += 1
                rows[:, -2:] = (ord("\r"), ord("\n"))  # over the comma after the last field
                flat = rows.ravel()
                fh.write(flat[flat != _PAD])


@dataclass(frozen=True)
class QkdRunStats:
    """Post-selected statistics of one run.

    Correlators, their standard errors and the marginals are computed over
    coincident trials only. ``chsh_value``/``chsh_stderr`` combine settings
    0 and 1 on each side with sign pattern +,-,+,+ (see ``chsh``) and are
    None when either side has fewer than two settings.
    ``eve_knowledge_fraction`` is None for honest runs.
    """

    config: QkdConfig
    n_coincident: int
    coincidence_rate: float
    cell_counts: np.ndarray
    correlators: np.ndarray
    correlator_stderr: np.ndarray
    chsh_value: float | None
    chsh_stderr: float | None
    alice_plus_fraction: float
    bob_plus_fraction: float
    eve_knowledge_fraction: float | None

    def to_json_dict(self) -> dict:
        return {
            "n_pairs": self.config.n_pairs,
            "attack": self.config.attack,
            "seed": self.config.seed,
            "n_coincident": self.n_coincident,
            "coincidence_rate": self.coincidence_rate,
            "cell_counts": self.cell_counts.tolist(),
            "correlators": [[None if math.isnan(x) else x for x in row] for row in self.correlators.tolist()],
            "correlator_stderr": [
                [None if math.isnan(x) else x for x in row] for row in self.correlator_stderr.tolist()
            ],
            "chsh_value": self.chsh_value,
            "chsh_stderr": self.chsh_stderr,
            "alice_plus_fraction": self.alice_plus_fraction,
            "bob_plus_fraction": self.bob_plus_fraction,
            "eve_knowledge_fraction": self.eve_knowledge_fraction,
        }


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
        n_coincident=n_coin,
        coincidence_rate=n_coin / n,
        cell_counts=cell_counts,
        correlators=correlators,
        correlator_stderr=stderr,
        chsh_value=None,
        chsh_stderr=None,
        alice_plus_fraction=alice_plus,
        bob_plus_fraction=bob_plus,
        eve_knowledge_fraction=eve_fraction,
    )
    if na >= 2 and nb >= 2:
        try:
            s, se = chsh(stats)
        except InsufficientDataError:
            s = se = None
        stats = replace(stats, chsh_value=s, chsh_stderr=se)

    trials = None
    if keep_trials:
        trials = TrialData(
            alice_setting=a_set,
            bob_setting=b_set,
            alice_outcome=a_out,
            bob_outcome=b_out,
            eve_setting=e_set,
            eve_outcome=e_out,
            coincident=coincident,
        )
    return stats, trials


# (setting cell, sign) terms of the CHSH combination
_CHSH_TERMS = (((0, 0), 1.0), ((0, 1), -1.0), ((1, 0), 1.0), ((1, 1), 1.0))


def chsh(stats: QkdRunStats) -> tuple[float, float]:
    """Bell combination S = E00 - E01 + E10 + E11 with propagated binomial error.

    Raises InsufficientDataError when one of the four cells has no coincidences.
    """
    s = 0.0
    var = 0.0
    for (i, j), sign in _CHSH_TERMS:
        if stats.cell_counts[i, j] == 0:
            raise InsufficientDataError(f"no coincident trials in setting cell ({i}, {j})")
        s += sign * float(stats.correlators[i, j])
        var += float(stats.correlator_stderr[i, j]) ** 2
    return s, math.sqrt(var)


@dataclass(frozen=True)
class RateReport:
    """Analytic coincidence rates and the attack's rate-stealth condition."""

    honest_rate: float
    attack_rate: float
    expected_rate: float          # for the config as given
    required_t_eve: float         # minimum replaced-channel transmission for stealth
    stealth_feasible: bool        # required_t_eve <= 1
    rate_detectable: bool         # attack cannot hide in the coincidence rate
    observed_rate: float | None = None
    observed_within_4sigma: bool | None = None
    rate_stderr: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "honest_rate": self.honest_rate,
            "attack_rate": self.attack_rate,
            "expected_rate": self.expected_rate,
            "required_t_eve": self.required_t_eve,
            "stealth_feasible": self.stealth_feasible,
            "rate_detectable": self.rate_detectable,
            "observed_rate": self.observed_rate,
            "observed_within_4sigma": self.observed_within_4sigma,
            "rate_stderr": self.rate_stderr,
        }


def rate_analysis(config: QkdConfig, stats: QkdRunStats | None = None) -> RateReport:
    """Coincidence-rate algebra for the honest and attacked channel.

    Honest rate: t_honest * eta_B. Attack rate: the engineered signal only
    registers on the 1/k setting match, so t_eve * eta_B / k. Hiding the
    attack in the rate requires t_eve >= k * t_honest, impossible (hence
    rate-detectable) when that exceeds 1. If ``stats`` is given, its
    observed rate is compared to the analytic value within four binomial
    standard errors.
    """
    k = len(config.bob_settings)
    honest_rate = config.channel_transmission_honest * config.bob_detector_eff
    attack_rate = config.channel_transmission_eve * config.bob_detector_eff / k
    expected = honest_rate if config.attack == ATTACK_NONE else attack_rate
    required = k * config.channel_transmission_honest
    feasible = required <= 1.0

    observed = within = stderr = None
    if stats is not None:
        observed = stats.coincidence_rate
        stderr = math.sqrt(expected * (1.0 - expected) / config.n_pairs)
        within = abs(observed - expected) <= 4.0 * stderr
    return RateReport(
        honest_rate=honest_rate,
        attack_rate=attack_rate,
        expected_rate=expected,
        required_t_eve=required,
        stealth_feasible=feasible,
        rate_detectable=not feasible,
        observed_rate=observed,
        observed_within_4sigma=within,
        rate_stderr=stderr,
    )
