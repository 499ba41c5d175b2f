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

A run is reproducible from its config and seed: ``simulate`` draws n
values per column from one generator, column after column in one fixed
order (see its docstring), and that order is the contract that trial
CSVs and recorded statistics rest on. Each value is made from the PCG64
raw stream by numpy's own recipe, which ``_RawDraws`` states: Lemire's
bounded draw on 32-bit halves of raw words for settings and outcomes,
and one raw word shifted right by 11 for each uniform. A trial's key
holds its draws in mixed radix, in that order: one byte at the default
settings. Every column is drawn and folded into the keys in
``CHUNK_ROWS`` slices, so the key array is the only full-length array of
a run. The statistics are one count over the keys, so every cell count
and +-1 sum is an exact integer. A kept trial is its key: ``TrialData``
holds the key array and one table of each key's column values, and
decodes or writes columns from the two.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg

ATTACK_NONE = "none"
ATTACK_DEMON = "demon"

NO_DETECTION = 0

# trials per slice of the streamed pass in ``simulate``, and rows per block of
# ``TrialData.write_csv``
CHUNK_ROWS = 1 << 14

# fills the byte matrix around each value's characters; dropped on output by
# bytes.translate, which deletes NUL bytes, so it must stay 0
_PAD = 0


class InsufficientDataError(ValueError):
    """A requested statistic has an empty cell."""


class _RawDraws:
    """numpy's ``Generator`` draws made from PCG64 raw words, by numpy's own recipe.

    ``integers(high, size)`` gives ``integers(0, high, size, dtype=np.uint32)``
    by Lemire's bounded draw (ACM TOMACS 29(1), 3 (2019)), and
    ``below(limit(p))`` gives ``random(size) < p``. ``half`` holds a word's
    unused high half until the next bounded draw, as ``next_uint32``'s
    buffer does; the bit generator's own buffer is neither read nor filled.
    """

    def __init__(self, bit_generator):
        self.raw = bit_generator.random_raw
        self.half = np.empty(0, dtype=np.uint32)

    def integers(self, high: int, size: int) -> np.ndarray:
        """``size`` draws in [0, high), as uint64."""
        if high == 1 or not size:  # numpy draws nothing for a single value
            return np.zeros(size, dtype=np.uint64)
        # a half is rejected where the low word of half * high falls below this;
        # 0 exactly for powers of two
        reject_below = (2**32 - high) % high
        parts = []
        while size:
            # the fewest words that can give ``size`` draws; "<u8" then "<u4"
            # reads each word's low half first on any byte order
            halves = self.raw((size - self.half.size + 1) // 2).astype("<u8", copy=False).view("<u4")
            if self.half.size:
                halves = np.concatenate((self.half, halves))
            taken, stop = halves[:size], size
            # uint32 products wrap to their low words
            if reject_below and (taken * np.uint32(high) < reject_below).any():
                kept = np.flatnonzero(halves * np.uint32(high) >= reject_below)[:size]
                taken = halves[kept]
                stop = kept[-1] + 1 if kept.size == size else halves.size
            # a half after the draw's last one waits
            self.half = halves[stop:].copy()
            # the high word of the 64-bit product; dtype= widens it under both
            # numpy 1.x's and 2.x's promotion rules
            taken = np.multiply(taken, high, dtype=np.uint64)
            taken >>= np.uint64(32)
            parts.append(taken)
            size -= taken.size
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    @staticmethod
    def limit(p):
        """``ceil(p * 2**53)`` as uint64: ``random()`` is ``(w >> 11) * 2**-53``."""
        return np.ceil(np.ldexp(p, 53)).astype(np.uint64)

    def below(self, limits: np.ndarray) -> np.ndarray:
        """Whether each of ``limits.size`` uniforms falls below its probability."""
        words = self.raw(limits.size)
        words >>= np.uint64(11)
        return words < limits


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
        object.__setattr__(self, "n_pairs", linalg.check_integer("n_pairs", self.n_pairs, 1))
        object.__setattr__(self, "seed", linalg.check_integer("seed", self.seed, 0))
        for name in ("alice_settings", "bob_settings"):
            angles = tuple(float(a) for a in getattr(self, name))
            if not angles or not all(map(math.isfinite, angles)):
                raise ValueError(f"{name} must be a nonempty list of finite angles, got {angles}")
            object.__setattr__(self, name, angles)
        visibility = float(self.visibility)
        if not 0.0 <= visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {visibility}")
        object.__setattr__(self, "visibility", visibility)
        for name in ("channel_transmission_honest", "channel_transmission_eve", "bob_detector_eff"):
            val = float(getattr(self, name))
            if not 0.0 < val <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {val}")
            object.__setattr__(self, name, val)
        if self.attack not in (ATTACK_NONE, ATTACK_DEMON):
            raise ValueError(f"attack must be {ATTACK_NONE!r} or {ATTACK_DEMON!r}")


def _decoded(row: int):
    """The property that decodes one column of the trial table, None where absent."""

    def column(self):
        values = self.table[row]
        return None if values is None else values.take(self.key)

    return property(column)


@dataclass(frozen=True)
class TrialData:
    """Kept trials: each trial's key, and each key's values in one small table.

    ``key`` is the per-trial key of ``simulate``: the trial's draws in draw
    order in mixed radix, a_set, b_set, a_plus, the interceptor's setting
    (attack path only), agree and coincident, in the narrowest unsigned
    dtype that holds every key. ``table`` holds, per column of the trial CSV
    after the trial index, that column's value for every key: int64 arrays,
    with outcomes +-1 and 0 meaning no detection; a bool array for
    ``coincident``; and None for the interceptor's two columns on honest
    runs. The seven column names are read-only properties that decode the
    full-length column with ``take`` on each read.
    """

    key: np.ndarray
    table: tuple[np.ndarray | None, ...]

    alice_setting = _decoded(0)
    bob_setting = _decoded(1)
    alice_outcome = _decoded(2)
    bob_outcome = _decoded(3)
    eve_setting = _decoded(4)
    eve_outcome = _decoded(5)
    coincident = _decoded(6)

    def write_csv(self, path) -> None:
        """Stream trials as CSV (trial, a_set, b_set, a_out, b_out, e_set, e_out, coincident).

        The bytes are those of ``csv.writer`` in its default dialect: rows end
        in CRLF, every value is a plain decimal integer (``coincident`` as 0 or
        1), and honest runs leave ``e_set`` and ``e_out`` empty. Each key's row
        text after the trial index is formatted once, into a byte table padded
        with ``_PAD``. Rows are built ``CHUNK_ROWS`` at a time as one byte
        matrix, the trial index's digits beside the key's row text, and the
        pads are dropped by ``bytes.translate``, which deletes the NUL bytes
        ``_PAD == 0`` stands for. Memory stays bounded in the number of trials.
        """
        values = [[""] * len(self.table[0]) if col is None else col.astype(np.int64).tolist()
                  for col in self.table]
        # numpy's bytes dtype pads each row on the right with NUL, which is _PAD
        suffix = np.array([("," + ",".join(map(str, row)) + "\r\n").encode() for row in zip(*values)])
        suffix = suffix.view(np.uint8).reshape(suffix.size, -1)
        n = self.key.size
        with open(path, "wb") as fh:
            fh.write(b"trial,a_set,b_set,a_out,b_out,e_set,e_out,coincident\r\n")
            for lo in range(0, n, CHUNK_ROWS):
                hi = min(lo + CHUNK_ROWS, n)
                width = len(str(hi - 1))
                rows = np.empty((hi - lo, width + suffix.shape[1]), dtype=np.uint8)
                rows[:, width:] = suffix.take(self.key[lo:hi], axis=0)
                # the trial index, right-aligned, with pads in place of leading zeros
                q = np.arange(lo, hi, dtype=np.min_scalar_type(hi))  # narrow divides run faster
                for j in range(width):
                    nxt = q // 10
                    digit = rows[:, width - 1 - j]
                    np.add(q - nxt * 10, ord("0"), out=digit, casting="unsafe")
                    if j:
                        digit[q == 0] = _PAD
                    q = nxt
                fh.write(rows.tobytes().translate(None, b"\x00"))


@dataclass(frozen=True)
class QkdRunStats:
    """Post-selected statistics of one run.

    A run gives the coincident trials' cell counts, their correlators with
    standard errors, the two plus-fractions, and ``eve_knowledge_fraction``
    (None for honest runs). The other four values are derived from those in
    ``__post_init__``, so they are not init arguments and ``replace`` derives
    them again: ``n_coincident`` is the sum of ``cell_counts``,
    ``coincidence_rate`` is that over the config's ``n_pairs``, and
    ``chsh_value``/``chsh_stderr`` are ``chsh`` of the stats, which combines
    settings 0 and 1 on each side with sign pattern +,-,+,+. Both are None
    when either side has fewer than two settings or a CHSH cell is empty.
    """

    config: QkdConfig
    cell_counts: np.ndarray
    correlators: np.ndarray
    correlator_stderr: np.ndarray
    alice_plus_fraction: float
    bob_plus_fraction: float
    eve_knowledge_fraction: float | None
    n_coincident: int = field(init=False)
    coincidence_rate: float = field(init=False)
    chsh_value: float | None = field(init=False)
    chsh_stderr: float | None = field(init=False)

    def __post_init__(self):
        n_coin = int(self.cell_counts.sum())
        object.__setattr__(self, "n_coincident", n_coin)
        object.__setattr__(self, "coincidence_rate", n_coin / self.config.n_pairs)
        s = se = None
        if min(self.cell_counts.shape) >= 2:
            with contextlib.suppress(InsufficientDataError):
                s, se = chsh(self)
        object.__setattr__(self, "chsh_value", s)
        object.__setattr__(self, "chsh_stderr", se)

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


def simulate(config: QkdConfig, *, keep_trials: bool = False):
    """Run the trial-slot model; returns (stats, trials), trials None unless kept.

    Honest path: the pair is measured at both ends and the receiver's
    photon survives channel-plus-detector loss as one Bernoulli draw.
    Attack path: the interceptor measures the flying photon against her own
    uniformly drawn setting, and the engineered signal registers at the
    receiver only on matching settings, through the replaced channel.

    Deterministic per (config, seed): one private PCG64 generator per call,
    seeded through ``SeedSequence`` as ``np.random.default_rng`` seeds it.
    Its draws are the reproducibility contract: n of each column, column
    after column in this order: the sender's settings, the receiver's
    settings, the sender's outcomes, the interceptor's settings (attack path
    only), the agreement uniforms and the registration uniforms. A trial's
    partner outcome agrees with the sender's when its agreement uniform
    falls below (1 + E) / 2, and the receiver registers when his
    registration uniform falls below the registration probability. On the
    attack path the receiver registers only the interceptor's signal and
    reads her outcome, so every coincident outcome is hers. Each draw is made
    from the generator's raw 64-bit words by ``_RawDraws``, numpy's own
    recipe for ``integers(0, h, dtype=np.uint32)`` and ``random()``: a
    setting or outcome is Lemire's bounded draw on one 32-bit half of a
    word, low half first, with numpy's rejection step, and a word's unused
    high half waits for the next integer column; a uniform is one whole word
    ``w``, ``(w >> 11) * 2**-53``, compared as the integer ``w >> 11``
    against ``ceil(p * 2**53)``. So the bytes rest on ``SeedSequence``
    seeding and the PCG64 raw stream alone, which numpy's compatibility
    policy fixes, and on no ``Generator`` method.

    A trial's key holds those draws in that order, in mixed radix
    (na, nb, 2[, nb], 2, 2): the integer draws as drawn, then agree and
    coincident, each uniform column's outcome. ``np.unravel_index`` over
    that radix gives each key's digits, from which the statistics and the
    kept trials' table are read. The key is held in the narrowest unsigned
    dtype that holds every key, one byte at 2 x 2 settings, and it is the
    only full-length array of a run, with trials kept or not; the
    statistics are one count over it. Each column is drawn in
    ``CHUNK_ROWS`` slices and folded into the keys slice by slice, so the
    keys drawn so far pick each uniform's limit. The slices leave the draws
    as they are: the waiting half carries a column's halves across slices,
    and each uniform takes one whole word, so a column's slices match one
    full-length draw.
    """
    draws = _RawDraws(np.random.default_rng(config.seed).bit_generator)
    n = config.n_pairs
    a_angles = np.array(config.alice_settings)
    b_angles = np.array(config.bob_settings)
    na, nb = a_angles.size, b_angles.size
    demon = config.attack == ATTACK_DEMON

    # one key per trial, its draws in mixed radix in draw order: a_set, b_set,
    # a_plus (the sender's outcome is 2 * a_plus - 1), on the attack path the
    # interceptor's setting, then agree and coincident from the two uniform columns
    radix = (na, nb, 2, nb, 2, 2) if demon else (na, nb, 2, 2, 2)
    a_of, b_of, a_plus_of, *rest, agree_of, coincident_of = np.unravel_index(
        np.arange(math.prod(radix)), radix)
    # the partner measures the sender's twin photon
    partner_of = rest[0] if demon else b_of
    # P(partner agrees with the sender) = (1 + E) / 2 per setting pair, E = V cos 2(a - b)
    p_agree = 0.5 * (1.0 + config.visibility * np.cos(2.0 * (a_angles[:, None] - b_angles)))
    # the sender always registers, so a coincidence is the receiver's registration;
    # on the attack path only where the interceptor's setting is his, and a
    # uniform is never below 0.0
    t = config.channel_transmission_eve if demon else config.channel_transmission_honest
    p_register = np.where(partner_of == b_of, t * config.bob_detector_eff, 0.0)
    # a uniform column's limit per key drawn before it, which is the key with
    # every later digit 0: every 4th key for agree, every 2nd for coincident
    limits = [None] * (len(radix) - 2) + [
        draws.limit(p_agree[a_of, partner_of][::4]), draws.limit(p_register[::2])]

    key = np.zeros(n, dtype=np.min_scalar_type(a_of.size - 1))
    for high, per_prefix in zip(radix, limits):
        for lo in range(0, n, CHUNK_ROWS):
            digits = key[lo:lo + CHUNK_ROWS]
            if per_prefix is None:
                draw = draws.integers(high, digits.size)
            else:
                # every prefix lies in its table, so mode="clip" only spares take its bounds check
                draw = draws.below(per_prefix.take(digits, mode="clip"))
            digits *= high
            np.add(digits, draw, out=digits, dtype=key.dtype)
            del draw  # the last slice of draws would outlive its column
    tally = np.zeros(a_of.size, dtype=np.int64)
    for lo in range(0, n, CHUNK_ROWS):  # bincount copies its input to intp
        tally += np.bincount(key[lo:lo + CHUNK_ROWS], minlength=tally.size)
    # coincident trials by (a_set, b_set, a_plus, agree), over the interceptor's setting
    tally = tally.reshape(na, nb, 2, -1, 2, 2)[..., 1].sum(axis=3)
    cell_counts = tally.sum(axis=(2, 3))
    # a_out * b_out is +1 where they agree and -1 elsewhere: exact integer sums
    cell_sums = (tally[..., 1] - tally[..., 0]).sum(axis=2).astype(float)
    n_coin = int(cell_counts.sum())
    with np.errstate(invalid="ignore", divide="ignore"):
        correlators = np.where(cell_counts > 0, cell_sums / np.maximum(cell_counts, 1), np.nan)
        stderr = np.where(
            cell_counts > 0,
            np.sqrt(np.maximum(1.0 - correlators**2, 0.0) / np.maximum(cell_counts, 1)),
            np.nan,
        )

    if n_coin:
        alice_plus = int(tally[:, :, 1].sum()) / n_coin
        # the receiver reads +1 where agreement and the sender's +1 coincide
        bob_plus = int(tally[:, :, 1, 1].sum() + tally[:, :, 0, 0].sum()) / n_coin
    else:
        alice_plus = bob_plus = math.nan

    eve_fraction = None
    if demon:
        # b_out == e_out on every coincident trial: the receiver registers only
        # the interceptor's signal, and reads her outcome
        eve_fraction = 1.0 if n_coin else math.nan

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
        # each key's columns, read from its digits
        a_out_of = 2 * a_plus_of - 1
        partner_out_of = np.where(agree_of, a_out_of, -a_out_of)
        # the receiver reads the partner's outcome where he registers, NO_DETECTION elsewhere
        columns = [a_of, b_of, a_out_of, partner_out_of * coincident_of]
        columns += [partner_of, partner_out_of] if demon else [None, None]
        # int64, the dtype of the default integer draws, and a bool coincident
        table = [None if col is None else col.astype(np.int64) for col in columns]
        trials = TrialData(key, (*table, coincident_of.astype(bool)))
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
