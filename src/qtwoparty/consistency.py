"""Feasibility numerics for the defining constraints of ideal oblivious transfer.

A candidate realization is a pair of pure states |psi_0>, |psi_1> on a
tripartite space A (x) B (x) U (sender's lab, receiver's lab, rest of the
universe) together with a three-outcome POVM {bit0, bit1, hash} on B. The
task definition imposes five constraint families, scored here as residuals:

* ``half_bit``    Tr(rho_b^B E_b) = 1/2 for b = 0, 1
* ``half_hash``   Tr(rho_b^B E_hash) = 1/2 for b = 0, 1
* ``wrong_bit``   Tr(rho_b^B E_{1-b}) = 0 for b = 0, 1
* ``bob_info``    D(rho_0^BU, rho_1^BU) = 1/2 (the receiver, even owning
                  everything outside the sender's lab, guesses the bit no
                  better than conclusive-outcome-plus-coin-flip)
* ``alice_blind`` the sender cannot tell which outcome occurred: for every
                  effect F on AU, <psi_b|F (x) E_b|psi_b> = <psi_b|F (x)
                  E_hash|psi_b>. Quantifying over F is compiled away: the
                  equality holds for all effects iff the two conditional AU
                  operators Tr_B[(E_b) psi_b] and Tr_B[(E_hash) psi_b]
                  coincide, so the residual is their trace-norm distance.
                  Imposed for both b = 0 and b = 1 (the requirement is
                  bit-symmetric even though one bit suffices to state it).

No candidate in any dimension satisfies all five; ``search`` gathers
numerical evidence at fixed dimensions by multi-restart derivative-free
descent, and ``relax`` isolates which family blocks feasibility. Two exact
hand-built candidates are provided: ``usd_witness`` (the honest
unambiguous-discrimination protocol; satisfies everything except
``bob_info``) and ``steerable_witness`` (mixed signal marginals purified
into the sender's lab; satisfies everything except ``alice_blind``, and
needs a three-dimensional B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, ot

FAMILIES = ("half_bit", "half_hash", "wrong_bit", "bob_info", "alice_blind")

ZERO_COMPONENT_TOL = 1e-10

# Pattern-descent step: the first probe size, and the size below which a
# restart stops.
STEP0 = 0.3
STEP_TOL = 1e-6

# Restarts descended together in one lockstep block, so the search's working
# memory does not grow with the number of restarts. Where a block of that
# many would hold more than SEARCH_BLOCK_BYTES of the largest per-probe
# operator, at dimension products near the cap, blocks are smaller.
SEARCH_BLOCK = 64
SEARCH_BLOCK_BYTES = 64 << 20

# Probes per batch call of the descent: each live restart speculates on a
# window of its next PROBE_STACK // (2 * live) coordinates, but at least
# one, so from PROBE_STACK / 2 live restarts on a call holds one coordinate
# of each; never more than the two probes per restart of a full block. On
# two cores a two-restart (2, 2, 2) search ran at about the same speed with
# stacks of 16 to 64 probes, and took 1.7 times as long with stacks of 4,
# one coordinate per restart.
PROBE_STACK = 32


@dataclass(frozen=True)
class ConstraintConfig:
    """Which distinct constraint families to evaluate; each counts once in the total."""

    families: tuple[str, ...] = FAMILIES

    def __post_init__(self):
        fams = tuple(self.families)
        if not fams:
            raise ValueError("at least one constraint family must stay active")
        unknown = [f for f in fams if f not in FAMILIES]
        if unknown:
            raise ValueError(f"unknown constraint families {unknown}; valid: {FAMILIES}")
        repeated = sorted({f for f in fams if fams.count(f) > 1})
        if repeated:
            raise ValueError(f"constraint families must be distinct, repeated: {repeated}")
        object.__setattr__(self, "families", fams)

    @property
    def dropped(self) -> tuple[str, ...]:
        return tuple(f for f in FAMILIES if f not in self.families)


FULL_CONFIG = ConstraintConfig()


def relax(families) -> ConstraintConfig:
    """Configuration evaluating only the given nonempty subset of families."""
    return ConstraintConfig(tuple(families))


def drop(*families: str) -> ConstraintConfig:
    """Configuration with the named families removed from the full set."""
    unknown = [f for f in families if f not in FAMILIES]  # kept, so ConstraintConfig refuses them
    return relax([f for f in FAMILIES if f not in families] + unknown)


def _dims(dims) -> tuple[int, int, int]:
    """(d_A, d_B, d_U) as ints; a fractional dim is refused, not truncated."""
    try:
        da, db, du = dims
    except (TypeError, ValueError):
        raise ValueError(f"dims must be three positive integers, got {dims!r}") from None
    return tuple(linalg.check_integer(f"dims[{i}]", d, 1) for i, d in enumerate((da, db, du)))


@dataclass(frozen=True)
class TripartiteCandidate:
    """Pure states on A (x) B (x) U plus the receiver's three-outcome POVM on B.

    Subsystem order is A, B, U with the leftmost factor most significant.
    """

    dims: tuple[int, int, int]
    psi0: np.ndarray
    psi1: np.ndarray
    povm: linalg.Povm

    def __post_init__(self):
        da, db, du = _dims(self.dims)
        object.__setattr__(self, "dims", (da, db, du))
        total = da * db * du
        psi0 = linalg.check_pure(np.asarray(self.psi0), name="psi0")
        psi1 = linalg.check_pure(np.asarray(self.psi1), name="psi1")
        if psi0.shape != (total,) or psi1.shape != (total,):
            raise ValueError(
                f"states must live on dimension {total} = {da}*{db}*{du}, "
                f"got {psi0.shape} and {psi1.shape}"
            )
        if self.povm.dim != db:
            raise ValueError(f"POVM dimension {self.povm.dim} does not match d_B = {db}")
        if set(self.povm.labels) != {ot.BIT0, ot.BIT1, ot.HASH}:
            raise ValueError(f"POVM labels must be {{bit0, bit1, hash}}, got {self.povm.labels}")
        object.__setattr__(self, "psi0", psi0)
        object.__setattr__(self, "psi1", psi1)


@dataclass(frozen=True)
class ResidualReport:
    """Per-family constraint deviations; pairs are (b = 0, b = 1) values.

    Families outside the evaluated configuration are None. ``total`` is the
    plain sum of the evaluated components; ``ZERO_COMPONENT_TOL`` is the
    level above which a component counts as violated.
    """

    half_bit: tuple[float, float] | None
    half_hash: tuple[float, float] | None
    wrong_bit: tuple[float, float] | None
    bob_info: float | None
    alice_blind: tuple[float, float] | None
    config: ConstraintConfig
    total: float

    @property
    def components(self) -> dict[str, float]:
        """Summed residual per evaluated family."""
        out: dict[str, float] = {}
        for fam in self.config.families:
            val = getattr(self, fam)
            out[fam] = float(sum(val)) if isinstance(val, tuple) else float(val)
        return out


def residual(
    candidate: TripartiteCandidate,
    config: ConstraintConfig = FULL_CONFIG,
) -> ResidualReport:
    """Constraint residuals of a candidate under the given configuration.

    The candidate is scored as a stack of one by ``_Batch``, the search's
    own evaluator.
    """
    psis = (psi.reshape(1, *candidate.dims) for psi in (candidate.psi0, candidate.psi1))
    effects = np.stack([candidate.povm.effect(lab) for lab in _LABELS])[None]
    batch = _Batch(*psis, effects, config)
    values = {
        fam: (float(batch.per_bit[0][fam][0]), float(batch.per_bit[1][fam][0]))
        if fam in batch.per_bit[0] else None
        for fam in _BIT_FAMILIES
    }
    values["bob_info"] = None if batch.bob is None else float(batch.bob[0])
    return ResidualReport(config=config, total=float(batch.total[0]), **values)


# The evaluation below works on stacks of arrays that are already valid, one
# candidate per leading index: ``residual`` reaches it with a stack of one
# checked candidate, and the search with stacks of decoded probes, which are
# valid by construction. Each stacked operation gives, per candidate, the
# same bytes as the same operation on that candidate alone, so a value does
# not depend on the stack it was computed in. Only forms checked to have
# that property are used (tests/test_consistency.py pins them): batched
# matmul, ``trace`` over the last two axes, ``eigh``/``eigvalsh`` and the
# einsum contractions below. The einsum trace ``kii->k`` and
# ``np.linalg.norm(axis=1)`` do not have it.

_LABELS = (ot.BIT0, ot.BIT1, ot.HASH)
_BIT_FAMILIES = ("half_bit", "half_hash", "wrong_bit", "alice_blind")
_MARGINAL_FAMILIES = ("half_bit", "half_hash", "wrong_bit")


def _state_part(psi3: np.ndarray, config: ConstraintConfig) -> tuple:
    """(psi3, rho^B, rho^BU) of a stack of (dA, dB, dU)-shaped states.

    rho^B = Tr_AU |psi><psi| and rho^BU = Tr_A |psi><psi|, the latter
    flattened to (dB*dU) square matrices. Each marginal is None when no
    active family needs it; they depend on the state alone, so the search
    reuses them across POVM moves.
    """
    active = config.families
    k, _, db, du = psi3.shape
    rho_b = rho_bu = None
    if any(f in active for f in _MARGINAL_FAMILIES):
        rho_b = np.einsum("kabu,kacu->kbc", psi3, psi3.conj())
    if "bob_info" in active:
        rho_bu = np.einsum("kabu,kacw->kbucw", psi3, psi3.conj()).reshape(k, db * du, db * du)
    return psi3, rho_b, rho_bu


def _au_conditional(psi3: np.ndarray, effect: np.ndarray) -> np.ndarray:
    """Tr_B[(I_A (x) E (x) I_U)|psi><psi|] as operators on A (x) U, one per stacked state."""
    k, da, _, du = psi3.shape
    op = np.einsum("kbc,kacu,kebw->kauew", effect, psi3, psi3.conj())
    return op.reshape(k, da * du, da * du)


def _bit_values(part: tuple, effects: np.ndarray, b: int, config: ConstraintConfig) -> dict:
    """Values of the active per-bit families for psi_b, one per stacked candidate.

    ``part`` comes from ``_state_part``; ``effects`` stacks the (bit0, bit1,
    hash) effects on B of each candidate.
    """
    psi3, rho, _ = part
    active = config.families
    out = {}
    if rho is not None:
        # Tr(rho E) for E = bit0, bit1, hash
        p = (rho[:, None] @ effects).trace(axis1=-2, axis2=-1).real
        if "half_bit" in active:
            out["half_bit"] = np.abs(p[:, b] - 0.5)
        if "half_hash" in active:
            out["half_hash"] = np.abs(p[:, 2] - 0.5)
        if "wrong_bit" in active:
            out["wrong_bit"] = np.maximum(0.0, p[:, 1 - b])
    if "alice_blind" in active:
        out["alice_blind"] = linalg.trace_norms(
            _au_conditional(psi3, effects[:, b]) - _au_conditional(psi3, effects[:, 2])
        )
    return out


def _bob_info(parts) -> np.ndarray:
    """|D(rho_0^BU, rho_1^BU) - 1/2| from the two states' parts."""
    # linalg.trace_distance, clamp included, per pair
    d = 0.5 * linalg.trace_norms(parts[0][2] - parts[1][2])
    return np.abs(np.minimum(np.maximum(d, 0.0), 1.0) - 0.5)


def _total(per_bit, bob_info, config: ConstraintConfig) -> np.ndarray:
    """Sum of the active families, in the configuration's order."""
    total = 0.0
    for fam in config.families:
        total = total + (bob_info if fam == "bob_info" else per_bit[0][fam] + per_bit[1][fam])
    return total


def _candidate(dims: tuple[int, int, int], psis, effects: np.ndarray) -> TripartiteCandidate:
    """The candidate with states ``psis`` and (bit0, bit1, hash) effects ``effects``."""
    povm = linalg.Povm(tuple(zip(_LABELS, effects)))
    return TripartiteCandidate(dims, psis[0].reshape(-1), psis[1].reshape(-1), povm)


def usd_witness(dims=(2, 2, 2), theta: float = math.pi / 6) -> TripartiteCandidate:
    """Honest unambiguous-discrimination protocol embedded at the given dims.

    At cos(2 theta) = 1/2 this satisfies half_bit, half_hash, wrong_bit and
    alice_blind exactly; only bob_info is violated, by sin(2 theta) - 1/2.
    Requires d_B >= 2.
    """
    da, db, du = _dims(dims)
    if db < 2:
        raise ValueError("usd_witness needs d_B >= 2")
    psis = np.zeros((2, da, db, du))
    psis[:, 0, :2, 0] = ot.make_states(theta)
    effects = np.zeros((3, db, db))
    effects[:, :2, :2] = ot._usd_effects(ot.OtParams(theta).theta)
    effects[2, 2:, 2:] = np.eye(db - 2)  # the hash absorbs the rest of B
    return _candidate((da, db, du), psis, effects)


def steerable_witness(dims=(2, 3, 2)) -> TripartiteCandidate:
    """Mixed-marginal candidate meeting every family except alice_blind.

    rho_0^B = (|0><0| + |1><1|)/2 and rho_1^B = (|0><0| + |2><2|)/2 with
    projective effects E_0 = |1><1|, E_1 = |2><2|, E_hash = I - E_0 - E_1 give
    exact half/half statistics, zero wrong-bit probability, and
    D(rho_0^BU, rho_1^BU) = 1/2. The purification into A is precisely what
    lets the sender learn the outcome, so alice_blind fails (residual 1 per
    bit). Requires d_A >= 2 and d_B >= 3.
    """
    da, db, du = _dims(dims)
    if da < 2 or db < 3:
        raise ValueError("steerable_witness needs d_A >= 2 and d_B >= 3")
    psis = np.zeros((2, da, db, du))
    psis[:, 0, 0, 0] = psis[0, 1, 1, 0] = psis[1, 1, 2, 0] = 1 / math.sqrt(2)
    effects = np.zeros((3, db, db))
    effects[0, 1, 1] = effects[1, 2, 2] = 1.0
    effects[2] = np.eye(db) - effects[0] - effects[1]
    return _candidate((da, db, du), psis, effects)


# ---------------------------------------------------------------------------
# numerical feasibility search
# ---------------------------------------------------------------------------


def _n_params(dims: tuple[int, int, int]) -> int:
    da, db, du = dims
    total = da * db * du
    return 4 * total + 6 * db * db


def candidate_from_vector(x: np.ndarray, dims: tuple[int, int, int]) -> TripartiteCandidate:
    """Decode a raw real parameter vector into a valid candidate.

    States are normalized complex vectors; the POVM comes from the
    square-root parameterization E_i = S^{-1/2} G_i^dag G_i S^{-1/2} with
    S = sum_i G_i^dag G_i of the three complex matrices G_i. That gives
    positive effects, which sum to the identity only where S is
    invertible. ``linalg.Povm`` refuses, with ValueError, a POVM segment
    whose S is singular (an all-zero segment, or G_i sharing a kernel
    vector), since its decoded effects miss completeness.
    """
    dims = _dims(dims)
    x = np.asarray(x, dtype=float)
    if x.shape != (_n_params(dims),):
        raise ValueError(f"parameter vector must have length {_n_params(dims)}")
    psi0, psi1, effects = _decode(x[None], dims)
    return _candidate(dims, (psi0[0], psi1[0]), effects[0])


def _segment_bounds(dims: tuple[int, int, int]) -> tuple:
    """(start, stop) of the psi0, psi1 and POVM parts of a parameter vector."""
    total = dims[0] * dims[1] * dims[2]
    return (0, 2 * total), (2 * total, 4 * total), (4 * total, _n_params(dims))


def _decode(x: np.ndarray, dims: tuple[int, int, int]) -> tuple:
    """Stacks of psi0, psi1 (K, dA, dB, dU) and effects (K, 3, dB, dB) from K parameter rows."""
    bounds = _segment_bounds(dims)
    psi0, psi1 = (_decode_states(x[:, lo:hi]).reshape(-1, *dims) for lo, hi in bounds[:2])
    return psi0, psi1, _decode_povms(x[:, bounds[2][0] :], dims[1])


def _decode_states(segs: np.ndarray) -> np.ndarray:
    """Normalized complex states from rows of real and imaginary halves.

    The squared norm is taken as ``np.linalg.norm`` takes it, from dot
    products of the real and the imaginary parts, here as batched matmuls.
    A row of norm below 1e-12 decodes to the first basis vector.
    """
    total = segs.shape[1] // 2
    v = segs[:, :total] + 1j * segs[:, total:]
    re, im = v.real[:, None], v.imag[:, None]
    nrm = np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0]
    null = nrm[:, 0] < 1e-12
    if null.any():
        v[null] = 0.0
        v[null, 0] = 1.0
        nrm[null] = 1.0
    return v / nrm


def _decode_povms(segs: np.ndarray, db: int) -> np.ndarray:
    """The stacked (bit0, bit1, hash) effects from rows of 6 * dB^2 POVM parameters."""
    g = segs.reshape(-1, 3, 2, db, db)
    gs = g[:, :, 0] + 1j * g[:, :, 1]
    grams = gs.conj().transpose(0, 1, 3, 2) @ gs
    s = grams[:, 0] + grams[:, 1] + grams[:, 2]
    w, v = np.linalg.eigh(s)
    floor = np.maximum(w[:, -1:], 1.0) * 1e-14
    inv_sqrt = (v / np.sqrt(np.maximum(w, floor))[:, None]) @ v.conj().transpose(0, 2, 1)
    effects = inv_sqrt[:, None] @ grams @ inv_sqrt[:, None]
    # symmetrize away matmul round-off so the Povm invariants hold crisply
    return (effects + effects.conj().transpose(0, 1, 3, 2)) / 2


@dataclass(frozen=True)
class FeasibilityReport:
    """Best residual found over all restarts, with its breakdown.

    ``restart_residuals`` keeps every restart's final value, in restart
    order, and ``to_json_dict`` does not write it. Its minimum is
    ``best_total_residual``, first reached at ``best_restart``.
    """

    dims: tuple[int, int, int]
    restarts: int
    max_iters: int
    seed: int
    config: ConstraintConfig
    best_total_residual: float
    best_report: ResidualReport
    best_restart: int
    evaluations: int
    sweeps: int
    restart_residuals: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "restarts": self.restarts,
            "max_iters": self.max_iters,
            "seed": self.seed,
            "relaxations": list(self.config.dropped),
            "best_total_residual": self.best_total_residual,
            "components": self.best_report.components,
            "iterations": {"evaluations": self.evaluations, "sweeps": self.sweeps},
        }


class _Batch:
    """Decoded parts and values of a stack of points, one per restart.

    Built from decoded arrays: the psi0 and psi1 stacks, shaped
    (K, dA, dB, dU), and the (K, 3, dB, dB) effects. It is the one place
    that scores a candidate from scratch; ``residual`` builds a stack of
    one. Holds, per point, its states and marginals, effects, per-bit
    values, ``bob_info`` and total. ``score`` takes a segment (0 and 1 for
    psi0 and psi1, 2 for the POVM), the point each probe moves and the
    probes, and recomputes only that segment for each probe, against its
    point's cached rest; ``keep`` makes chosen probes of the last call the
    new points. A state move re-scores that bit's terms and ``bob_info``; a
    POVM move re-scores both bits and keeps ``bob_info``.
    """

    def __init__(self, psi0: np.ndarray, psi1: np.ndarray, effects: np.ndarray,
                 config: ConstraintConfig):
        self.dims = psi0.shape[1:]
        self.config = config
        self.with_bob = "bob_info" in config.families
        self.parts = [_state_part(psi, config) for psi in (psi0, psi1)]
        self.effects = effects
        self.per_bit = [_bit_values(self.parts[b], self.effects, b, config) for b in (0, 1)]
        self.bob = _bob_info(self.parts) if self.with_bob else None
        self.total = _total(self.per_bit, self.bob, config)

    def score(self, seg: int, rows: np.ndarray, probes: np.ndarray) -> np.ndarray:
        """Totals of the points ``rows`` with segment ``seg`` replaced by the rows of ``probes``."""
        config = self.config
        if seg < 2:
            other = 1 - seg
            moved = _state_part(_decode_states(probes).reshape(-1, *self.dims), config)
            other_bits = {f: v[rows] for f, v in self.per_bit[other].items()}
            per_bit = [other_bits, other_bits]
            per_bit[seg] = _bit_values(moved, self.effects.take(rows, 0), seg, config)
            bob = None
            if self.with_bob:
                parts = [(None, None, self.parts[other][2].take(rows, 0))] * 2
                parts[seg] = moved
                bob = _bob_info(parts)
        else:
            # bob_info does not see the POVM
            moved = _decode_povms(probes, self.dims[1])
            per_bit = [
                _bit_values((psi3.take(rows, 0), None if rho is None else rho.take(rows, 0), None),
                            moved, b, config)
                for b, (psi3, rho, _) in enumerate(self.parts)
            ]
            bob = self.bob[rows] if self.with_bob else None
        total = _total(per_bit, bob, config)
        self.scored = (seg, moved, per_bit, bob, total)
        return total

    def keep(self, points: np.ndarray, taken: np.ndarray) -> None:
        """Make the last scored probes ``taken`` the new ``points``."""
        seg, moved, per_bit, bob, total = self.scored
        self.total[points] = total[taken]
        if seg < 2:
            for a, new in zip(self.parts[seg], moved):
                if a is not None:
                    a[points] = new.take(taken, 0)
            kept_bits = (seg,)
            if self.with_bob:
                self.bob[points] = bob[taken]
        else:
            self.effects[points] = moved.take(taken, 0)
            kept_bits = (0, 1)
        for b in kept_bits:
            for fam, v in self.per_bit[b].items():
                v[points] = per_bit[b][fam][taken]


def _descend(x0: np.ndarray, dims: tuple[int, int, int], config: ConstraintConfig,
             max_iters: int):
    """Coordinate-wise pattern descent of a block of restarts, run in lockstep.

    Each row of ``x0`` starts one restart. The trace-norm terms are
    non-smooth at eigenvalue crossings, so no gradients: each sweep tries
    +step, then -step, on every coordinate in turn, keeping strict
    improvements; a sweep without improvement halves the step, from
    ``STEP0`` until it falls below ``STEP_TOL``, where that restart stops.
    Step, sweep count, evaluation count and stopping are per restart.

    Within a segment each live restart speculates on a window of its next
    ``width`` coordinates, ``PROBE_STACK // (2 * live)`` but at least one and
    never past the 2 * ``_block_size`` probes of a full block. The +step and
    -step probes of every window, each built from its restart's current
    point, go through one ``_Batch.score``; ``_Batch`` recomputes only the
    segment. Per restart, the first coordinate of the window whose +step
    improves, or else whose -step does, is taken; the restart's next window
    starts just past it, and the rest of the window is discarded. A window
    without improvement moves the restart on past all of it. While
    ``PROBE_STACK / 2`` or more restarts are live, each window is one
    coordinate, so all of them probe the same coordinate in each call.

    ``evaluations`` counts the probes a descent of one restart alone would
    make: two per rejected coordinate and one or two for the taken one,
    plus one for the starting point. Every probe before a restart's taken
    coordinate is the probe that descent makes, and each probe's value is
    the float ``residual`` gives for its decoded candidate, so every restart
    follows the path it would follow alone, whatever the window. The one
    known exception is dims (1, 2, 1): there the alice_blind einsum sums a
    candidate's terms in an order that depends on the stack's size, and so
    on the window, so a stacked value can differ from ``residual``'s in its
    last bits and a restart's path from its path alone
    (tests/test_consistency.py marks those cases xfail).

    Returns the final points and, per restart, the best value and the
    evaluation and sweep counts.
    """
    x = np.array(x0, dtype=float)
    count = x.shape[0]
    batch = _Batch(*_decode(x, dims), config)
    best = batch.total  # kept up to date by batch.keep
    evals = np.ones(count, dtype=np.int64)
    sweeps = np.zeros(count, dtype=np.int64)
    step = np.full(count, STEP0)
    live = np.arange(count)
    stack = min(PROBE_STACK, 2 * _block_size(dims))
    ar = np.arange(2 * max(count, stack))  # numbers the probes of a call
    for _ in range(max_iters):
        if not live.size:
            break
        sweeps[live] += 1
        improved = np.zeros(count, dtype=bool)
        width = max(1, stack // (2 * live.size))
        for seg, (lo, hi) in enumerate(_segment_bounds(dims)):
            n = hi - lo
            xs = x[:, lo:hi]
            # each live restart tries every coordinate of the segment once:
            # two probes, less the -step one where +step is taken
            evals[live] += 2 * n
            active = live
            start = np.zeros(live.size, dtype=np.int64)
            while active.size:
                # each active restart's window: coordinates start .. start +
                # span - 1 of the segment, as probes first .. first + span - 1
                span = np.minimum(n - start, width)
                first = span.cumsum() - span
                offset = start - first
                owner = active.repeat(span)
                m = owner.size
                coord = ar[:m] + offset.repeat(span)
                rows = np.concatenate([owner, owner])  # the +step probes, then the -step probes
                probes = xs.take(rows, axis=0)
                delta = step[owner]
                probes[ar[:m], coord] += delta
                probes[ar[m:2 * m], coord] -= delta
                vals = batch.score(seg, rows, probes)
                bar = best[owner] - 1e-15
                up = vals[:m] < bar
                found = up | (vals[m:] < bar)
                # Integer arrays are never compared here, hence the astype(bool)
                # filter below: on numpy 2.4.6 (x86-64) the first int64
                # comparison faults in about 128 KiB of compiled loops that
                # the rest of a search never runs, and peak RSS shows it.
                # Each window's first improving coordinate, or n where none is:
                hit = np.minimum.reduceat(np.where(found, coord, n), first)
                moved = np.logical_or.reduceat(found, first)
                if moved.any():
                    points = active[moved]
                    c = hit[moved]
                    j = c - offset[moved]
                    plus = up[j]
                    evals[points] -= plus
                    taken = j + m * ~plus
                    xs[points, c] = probes[taken, c]
                    improved[points] = True
                    batch.keep(points, taken)
                # the next window starts just past the taken coordinate, or
                # past this window
                start = np.minimum(hit + 1, start + span)
                going = (n - start).astype(bool)
                active = active[going]
                start = start[going]
        stalled = live[~improved[live]]
        step[stalled] *= 0.5
        live = live[~(step[live] < STEP_TOL)]
    return x, best, evals, sweeps


def _block_size(dims: tuple[int, int, int]) -> int:
    """Restarts per lockstep block at these dims.

    ``SEARCH_BLOCK``, or fewer where the largest operator of each +step and
    -step probe (rho^BU or an A (x) U conditional) would exceed
    ``SEARCH_BLOCK_BYTES`` over the block.
    """
    da, db, du = dims
    probe_bytes = 2 * 16 * max(da * du, db * du) ** 2
    return max(1, min(SEARCH_BLOCK, SEARCH_BLOCK_BYTES // probe_bytes))


def search(
    dims=(2, 2, 2),
    restarts: int = 200,
    max_iters: int = 60,
    seed: int = 0,
    config: ConstraintConfig = FULL_CONFIG,
) -> FeasibilityReport:
    """Multi-restart derivative-free minimization of the total residual.

    Deterministic for fixed (dims, restarts, max_iters, seed, config): each
    restart owns a generator spawned from the base seed sequence and the
    minimum is reduced in restart order. Non-convergence is not an error;
    the best point found is reported.

    The restarts run in blocks of at most ``SEARCH_BLOCK``, each block in
    lockstep through ``_descend``, so memory does not grow with the number
    of restarts. ``_descend`` scores a window of each live restart's next
    coordinates per batch call: up to ``PROBE_STACK`` probes in all while
    few restarts are live, one coordinate each once ``PROBE_STACK / 2`` or
    more are. Restarts are independent, and a probe's value depends neither
    on its block nor on its window, so neither changes a trajectory.
    ``evaluations`` and ``sweeps`` add up the per-restart counts of
    ``_descend``; ``evaluations`` counts the probes each restart would score
    alone, not those scored past the move a restart takes.
    ``restart_residuals`` keeps each restart's final value.

    Arguments are checked here, once. The descent scores raw vectors and
    checks nothing per probe. Only the best point goes through
    ``candidate_from_vector`` and ``residual``, with their checks, to give
    ``best_report``.
    """
    dims = _dims(dims)
    if int(np.prod(dims)) > linalg.DEFAULT_DIM_CAP:
        raise linalg.DimensionCapError(
            f"total dimension {int(np.prod(dims))} exceeds cap {linalg.DEFAULT_DIM_CAP}"
        )
    restarts = linalg.check_integer("restarts", restarts, 1)
    max_iters = linalg.check_integer("max_iters", max_iters, 1)
    seed = linalg.check_integer("seed", seed, 0)

    n = _n_params(dims)
    block = _block_size(dims)
    # spawning in blocks gives the same children as spawning all at once
    seeds = np.random.SeedSequence(seed)
    best_val = math.inf
    best_x = None
    best_restart = -1
    evals_total = 0
    sweeps_total = 0
    restart_residuals = []
    for first in range(0, restarts, block):
        children = seeds.spawn(min(block, restarts - first))
        x0 = np.stack([np.random.default_rng(child).standard_normal(n) for child in children])
        x, vals, evals, sweeps = _descend(x0, dims, config, max_iters)
        evals_total += int(evals.sum())
        sweeps_total += int(sweeps.sum())
        restart_residuals += vals.tolist()
        for k, val in enumerate(restart_residuals[first:]):
            if val < best_val:
                best_val = val
                best_x = x[k].copy()
                best_restart = first + k

    best_report = residual(candidate_from_vector(best_x, dims), config)
    return FeasibilityReport(
        dims=dims,
        restarts=restarts,
        max_iters=max_iters,
        seed=seed,
        config=config,
        best_total_residual=float(best_val),
        best_report=best_report,
        best_restart=best_restart,
        evaluations=evals_total,
        sweeps=sweeps_total,
        restart_residuals=tuple(restart_residuals),
    )
