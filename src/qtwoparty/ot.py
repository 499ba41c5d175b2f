"""Partially secure oblivious transfer from unambiguous state discrimination.

The sender encodes a bit in one of two non-orthogonal real qubit states

    |psi_0> = cos(theta)|0> + sin(theta)|1>
    |psi_1> = cos(theta)|0> - sin(theta)|1>        0 < theta <= pi/4

and the receiver measures the three-outcome POVM that discriminates them
unambiguously: outcomes ``bit0`` and ``bit1`` are never wrong, and the
inconclusive ``hash`` outcome fires with probability cos(2 theta) under
honest play. The protocol is only *partially* secure:

* a dishonest sender maximizes the receiver's hash rate by sending |0>,
  reaching p = 2 cos(2 theta) / (1 + cos(2 theta));
* a dishonest receiver guesses the bit with the minimum-error (Helstrom)
  measurement, succeeding with q = (1 + sin(2 theta)) / 2.

All reported probabilities come from the actual operators (matrix elements
and spectra); the closed forms above are reserved for cross-checks in the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

THETA_MAX = math.pi / 4
_DEGENERATE_ATOL = 1e-12

BIT0 = "bit0"
BIT1 = "bit1"
HASH = "hash"
OUTCOME_LABELS = (BIT0, BIT1, HASH)

STRATEGIES = ("honest", "alice_cheats", "bob_cheats")


@dataclass(frozen=True)
class OtParams:
    """Protocol angle theta in radians, 0 < theta <= pi/4.

    theta = pi/4 makes the two signal states orthogonal; the protocol
    degenerates (no hash outcome) and is admitted only as a flagged limit.
    """

    theta: float

    def __post_init__(self):
        th = float(self.theta)
        if not math.isfinite(th) or th <= 0.0 or th > THETA_MAX + _DEGENERATE_ATOL:
            raise ValueError(
                f"theta must lie in (0, pi/4], got {self.theta!r}"
            )
        object.__setattr__(self, "theta", min(th, THETA_MAX))

    @property
    def is_degenerate(self) -> bool:
        """True at the orthogonal limit theta = pi/4."""
        return abs(self.theta - THETA_MAX) <= _DEGENERATE_ATOL

    @property
    def overlap(self) -> float:
        """<psi_0|psi_1> = cos(2 theta)."""
        return math.cos(2 * self.theta)


def _coerce(params) -> OtParams:
    return params if isinstance(params, OtParams) else OtParams(float(params))


def make_states(params: OtParams | float) -> tuple[np.ndarray, np.ndarray]:
    """The two signal states as real unit vectors (|psi_0>, |psi_1>)."""
    params = _coerce(params)
    c, s = math.cos(params.theta), math.sin(params.theta)
    return np.array([c, s]), np.array([c, -s])


def _usd_effects(theta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw unambiguous-discrimination effects for any angle, unchecked.

    E_b is proportional to the projector orthogonal to the *other* signal
    state, so Tr(rho_b E_{1-b}) vanishes identically. E_hash is formed by
    completeness; it is not positive for theta > pi/4, where ``linalg.Povm``
    refuses the three (callers pass an ``OtParams`` angle).
    """
    c, s = math.cos(theta), math.sin(theta)
    norm = 1.0 + math.cos(2 * theta)
    e0 = np.array([[s * s, s * c], [s * c, c * c]]) / norm
    e1 = np.array([[s * s, -s * c], [-s * c, c * c]]) / norm
    ehash = np.eye(2) - e0 - e1
    return e0, e1, ehash


def make_usd_povm(params: OtParams | float) -> linalg.Povm:
    """Three-outcome POVM {bit0, bit1, hash} that never misidentifies the bit."""
    params = _coerce(params)
    e0, e1, ehash = _usd_effects(params.theta)
    return linalg.Povm(((BIT0, e0), (BIT1, e1), (HASH, ehash)))


def honest_distribution(params: OtParams | float, bit: int) -> dict[str, float]:
    """Born-rule outcome probabilities when both parties follow the protocol."""
    params = _coerce(params)
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    psi = make_states(params)[bit]
    return make_usd_povm(params).probabilities(linalg.projector(psi))


@dataclass(frozen=True)
class AliceCheat:
    """Sender's best hash-forcing attack: the probability and the state achieving it."""

    hash_prob: float
    optimal_state: np.ndarray


def alice_cheat_hash_prob(params: OtParams | float) -> AliceCheat:
    """Maximum hash probability a dishonest sender can force.

    Returns <0|E_hash|0> together with the top eigenvector of the hash
    effect as the maximizing-state certificate (the top eigenvalue is the
    true maximum over all input states).
    """
    params = _coerce(params)
    ehash = make_usd_povm(params).effect(HASH)
    p = float(ehash[0, 0].real)
    w, v = linalg.hermitian_eig(ehash)
    return AliceCheat(hash_prob=p, optimal_state=v[:, 0])


def helstrom_povm(params: OtParams | float) -> linalg.Povm:
    """Minimum-error two-outcome measurement {bit0, bit1} for the signal pair.

    Projects onto the positive/negative eigenspaces of rho_0 - rho_1.
    """
    params = _coerce(params)
    psi0, psi1 = make_states(params)
    delta = linalg.projector(psi0) - linalg.projector(psi1)
    w, v = linalg.hermitian_eig(delta)
    pos = v[:, w > 0]
    guess0 = pos @ pos.conj().T if pos.size else np.zeros_like(delta)
    return linalg.Povm(((BIT0, guess0), (BIT1, np.eye(2) - guess0)))


def bob_helstrom_prob(params: OtParams | float) -> float:
    """Receiver's best bit-guessing probability, 1/2 + D(rho_0, rho_1)/2."""
    params = _coerce(params)
    psi0, psi1 = make_states(params)
    d = linalg.trace_distance(linalg.projector(psi0), linalg.projector(psi1))
    return 0.5 + 0.5 * d


@dataclass(frozen=True)
class PartialSecurityPair:
    """The protocol's two cheat ceilings: hash-forcing p and bit-guessing q."""

    p: float
    q: float


def partial_security(params: OtParams | float) -> PartialSecurityPair:
    params = _coerce(params)
    return PartialSecurityPair(
        p=alice_cheat_hash_prob(params).hash_prob,
        q=bob_helstrom_prob(params),
    )


@dataclass(frozen=True)
class OtSimulation:
    """Empirical outcome tallies for repeated single-shot rounds.

    ``counts[bit][label]`` tallies outcomes given the transferred bit;
    ``expected[bit][label]`` holds the analytic per-round probabilities and
    ``four_sigma(label)`` the matching 4-sigma binomial half-width for the
    pooled frequency, so callers can judge convergence directly.
    """

    params: OtParams
    strategy: str
    n_rounds: int
    seed: object
    counts: dict[int, dict[str, int]]
    bit_counts: dict[int, int]
    expected: dict[int, dict[str, float]]

    @property
    def frequencies(self) -> dict[str, float]:
        """Pooled outcome frequencies over all rounds."""
        out = {}
        for label in OUTCOME_LABELS:
            out[label] = sum(self.counts[b].get(label, 0) for b in (0, 1)) / self.n_rounds
        return out

    def four_sigma(self, label: str) -> float:
        """4-sigma binomial half-width for the pooled frequency of ``label``.

        Uses the bit-averaged analytic probability (bits are drawn 50/50).
        """
        p = 0.5 * (self.expected[0].get(label, 0.0) + self.expected[1].get(label, 0.0))
        return 4.0 * math.sqrt(max(p * (1 - p), 1e-300) / self.n_rounds)


def _strategy_distributions(params: OtParams, strategy: str) -> dict[int, dict[str, float]]:
    """Per-bit outcome distributions for each play style, from the operators."""
    povm = make_usd_povm(params)
    psi0, psi1 = make_states(params)
    if strategy == "honest":
        return {
            0: povm.probabilities(linalg.projector(psi0)),
            1: povm.probabilities(linalg.projector(psi1)),
        }
    if strategy == "alice_cheats":
        # the sender ignores her bit and sends |0> to force the hash outcome
        zero = linalg.projector(np.array([1.0, 0.0]))
        dist = povm.probabilities(zero)
        return {0: dist, 1: dict(dist)}
    if strategy == "bob_cheats":
        guess = helstrom_povm(params)
        return {
            0: {**guess.probabilities(linalg.projector(psi0)), HASH: 0.0},
            1: {**guess.probabilities(linalg.projector(psi1)), HASH: 0.0},
        }
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def simulate_rounds(
    params: OtParams | float,
    n_rounds: int,
    *,
    strategy: str = "honest",
    seed=0,
) -> OtSimulation:
    """Monte-Carlo rounds of the protocol under one play style.

    Each round draws the transferred bit uniformly and samples the
    measurement outcome from the exact per-bit distribution. Deterministic
    per seed; one private generator per call.
    """
    params = _coerce(params)
    if int(n_rounds) != n_rounds:
        raise ValueError(f"n_rounds must be an integer, got {n_rounds!r}")
    n_rounds = int(n_rounds)
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    rng = np.random.default_rng(seed)
    bits_arr = rng.integers(0, 2, size=n_rounds)

    dists = _strategy_distributions(params, strategy)
    probs = {
        b: np.array([max(dists[b].get(lab, 0.0), 0.0) for lab in OUTCOME_LABELS])
        for b in (0, 1)
    }
    for b in (0, 1):
        probs[b] = probs[b] / probs[b].sum()

    outcome_idx = np.empty(n_rounds, dtype=int)
    for b in (0, 1):
        positions = np.flatnonzero(bits_arr == b)
        if positions.size:
            outcome_idx[positions] = rng.choice(len(OUTCOME_LABELS), size=positions.size, p=probs[b])

    counts = {
        b: {
            lab: int(((bits_arr == b) & (outcome_idx == i)).sum())
            for i, lab in enumerate(OUTCOME_LABELS)
        }
        for b in (0, 1)
    }

    return OtSimulation(
        params=params,
        strategy=strategy,
        n_rounds=n_rounds,
        seed=seed,
        counts=counts,
        bit_counts={b: int((bits_arr == b).sum()) for b in (0, 1)},
        expected=dists,
    )
