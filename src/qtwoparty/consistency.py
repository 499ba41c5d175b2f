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


@dataclass(frozen=True)
class ConstraintConfig:
    """Which constraint families to evaluate; each counts once in the total."""

    families: tuple[str, ...] = FAMILIES

    def __post_init__(self):
        fams = tuple(self.families)
        if not fams:
            raise ValueError("at least one constraint family must stay active")
        unknown = [f for f in fams if f not in FAMILIES]
        if unknown:
            raise ValueError(f"unknown constraint families {unknown}; valid: {FAMILIES}")
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
    return relax([f for f in FAMILIES if f not in families])


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
        da, db, du = (int(d) for d in self.dims)
        if min(da, db, du) < 1:
            raise ValueError(f"dims must be positive, got {self.dims}")
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
    sum over evaluated families and vanishes only when every evaluated
    component is below 1e-10.
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


def _bob_marginal(psi3: np.ndarray) -> np.ndarray:
    """rho^B = Tr_AU |psi><psi| from the (dA, dB, dU)-shaped state."""
    return np.einsum("abu,acu->bc", psi3, psi3.conj())


def _bu_marginal(psi3: np.ndarray) -> np.ndarray:
    """rho^BU = Tr_A |psi><psi|, flattened to a (dB*dU) square matrix."""
    db, du = psi3.shape[1], psi3.shape[2]
    rho = np.einsum("abu,acw->bucw", psi3, psi3.conj())
    return rho.reshape(db * du, db * du)


def _au_conditional(psi3: np.ndarray, effect: np.ndarray) -> np.ndarray:
    """Tr_B[(I_A (x) E (x) I_U)|psi><psi|] as an operator on A (x) U."""
    da, db, du = psi3.shape
    op = np.einsum("bc,acu,ebw->auew", effect, psi3, psi3.conj())
    return op.reshape(da * du, da * du)


def residual(
    candidate: TripartiteCandidate,
    config: ConstraintConfig = FULL_CONFIG,
) -> ResidualReport:
    """Constraint residuals of a candidate under the given configuration."""
    parts = tuple(_state_part(psi.reshape(candidate.dims), config)
                  for psi in (candidate.psi0, candidate.psi1))
    effects = tuple(candidate.povm.effect(lab) for lab in (ot.BIT0, ot.BIT1, ot.HASH))
    per_bit = tuple(_bit_values(parts[b], effects, b, config) for b in (0, 1))
    bob_info = _bob_info(parts) if "bob_info" in config.families else None
    values = {
        fam: (per_bit[0][fam], per_bit[1][fam]) if fam in per_bit[0] else None
        for fam in _BIT_FAMILIES
    }
    values["bob_info"] = bob_info
    return ResidualReport(config=config, total=_total(per_bit, bob_info, config), **values)


# The evaluation below works on arrays that are already valid: ``residual``
# reaches it through a checked candidate, and the search objective through
# the decoders, whose outputs are valid by construction. Both run the same
# operations in the same order, so they give the same floats.

_BIT_FAMILIES = ("half_bit", "half_hash", "wrong_bit", "alice_blind")
_MARGINAL_FAMILIES = ("half_bit", "half_hash", "wrong_bit")


def _state_part(psi3: np.ndarray, config: ConstraintConfig) -> tuple:
    """(psi3, rho^B, rho^BU) of one (dA, dB, dU)-shaped state.

    Each marginal is None when no active family needs it; they depend on
    the state alone, so the search reuses them across POVM moves.
    """
    active = config.families
    rho_b = _bob_marginal(psi3) if any(f in active for f in _MARGINAL_FAMILIES) else None
    rho_bu = _bu_marginal(psi3) if "bob_info" in active else None
    return psi3, rho_b, rho_bu


def _bit_values(part: tuple, effects, b: int, config: ConstraintConfig) -> dict:
    """Values of the active per-bit families for psi_b.

    ``part`` comes from ``_state_part``; ``effects`` are the (bit0, bit1,
    hash) effects on B.
    """
    psi3, rho, _ = part
    active = config.families
    out = {}
    if "half_bit" in active:
        out["half_bit"] = abs(float((rho @ effects[b]).trace().real) - 0.5)
    if "half_hash" in active:
        out["half_hash"] = abs(float((rho @ effects[2]).trace().real) - 0.5)
    if "wrong_bit" in active:
        out["wrong_bit"] = max(0.0, float((rho @ effects[1 - b]).trace().real))
    if "alice_blind" in active:
        out["alice_blind"] = linalg.trace_norm(
            _au_conditional(psi3, effects[b]) - _au_conditional(psi3, effects[2])
        )
    return out


def _bob_info(parts) -> float:
    """|D(rho_0^BU, rho_1^BU) - 1/2| from the two states' parts."""
    return abs(linalg.trace_distance(parts[0][2], parts[1][2]) - 0.5)


def _total(per_bit, bob_info, config: ConstraintConfig) -> float:
    """Sum of the active families, in the configuration's order."""
    total = 0.0
    for fam in config.families:
        total += bob_info if fam == "bob_info" else per_bit[0][fam] + per_bit[1][fam]
    return float(total)


def usd_witness(dims=(2, 2, 2), theta: float = math.pi / 6) -> TripartiteCandidate:
    """Honest unambiguous-discrimination protocol embedded at the given dims.

    At cos(2 theta) = 1/2 this satisfies half_bit, half_hash, wrong_bit and
    alice_blind exactly; only bob_info is violated, by sin(2 theta) - 1/2.
    Requires d_B >= 2.
    """
    da, db, du = (int(d) for d in dims)
    if db < 2:
        raise ValueError("usd_witness needs d_B >= 2")
    psi0, psi1 = ot.make_states(theta)
    e0, e1, ehash = ot._usd_effects(ot.OtParams(theta).theta)

    def embed_state(v2):
        v = np.zeros(db)
        v[:2] = v2
        return v

    def embed_effect(m2, absorb_rest: bool):
        m = np.zeros((db, db))
        m[:2, :2] = m2
        if absorb_rest and db > 2:
            m[2:, 2:] = np.eye(db - 2)
        return m

    a0 = np.zeros(da)
    a0[0] = 1.0
    u0 = np.zeros(du)
    u0[0] = 1.0
    povm = linalg.Povm(
        (
            (ot.BIT0, embed_effect(e0, False)),
            (ot.BIT1, embed_effect(e1, False)),
            (ot.HASH, embed_effect(ehash, True)),
        )
    )
    return TripartiteCandidate(
        dims=(da, db, du),
        psi0=np.kron(a0, np.kron(embed_state(psi0), u0)),
        psi1=np.kron(a0, np.kron(embed_state(psi1), u0)),
        povm=povm,
    )


def steerable_witness(dims=(2, 3, 2)) -> TripartiteCandidate:
    """Mixed-marginal candidate meeting every family except alice_blind.

    rho_0^B = (|0><0| + |1><1|)/2 and rho_1^B = (|0><0| + |2><2|)/2 with
    projective effects E_0 = |1><1|, E_1 = |2><2|, E_hash = |0><0| give
    exact half/half statistics, zero wrong-bit probability, and
    D(rho_0^BU, rho_1^BU) = 1/2. The purification into A is precisely what
    lets the sender learn the outcome, so alice_blind fails (residual 1 per
    bit). Requires d_A >= 2 and d_B >= 3.
    """
    da, db, du = (int(d) for d in dims)
    if da < 2 or db < 3:
        raise ValueError("steerable_witness needs d_A >= 2 and d_B >= 3")
    u0 = np.zeros(du)
    u0[0] = 1.0

    def basis(dim, i):
        v = np.zeros(dim)
        v[i] = 1.0
        return v

    psi0 = (
        np.kron(basis(da, 0), np.kron(basis(db, 0), u0))
        + np.kron(basis(da, 1), np.kron(basis(db, 1), u0))
    ) / math.sqrt(2)
    psi1 = (
        np.kron(basis(da, 0), np.kron(basis(db, 0), u0))
        + np.kron(basis(da, 1), np.kron(basis(db, 2), u0))
    ) / math.sqrt(2)

    e0 = np.outer(basis(db, 1), basis(db, 1))
    e1 = np.outer(basis(db, 2), basis(db, 2))
    ehash = np.eye(db) - e0 - e1
    povm = linalg.Povm(((ot.BIT0, e0), (ot.BIT1, e1), (ot.HASH, ehash)))
    return TripartiteCandidate(dims=(da, db, du), psi0=psi0, psi1=psi1, povm=povm)


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
    S = sum_i G_i^dag G_i, which enforces positivity and completeness for
    any choice of the three complex matrices G_i.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (_n_params(dims),):
        raise ValueError(f"parameter vector must have length {_n_params(dims)}")
    seg0, seg1, povm_seg = _segments(x, dims)
    effects = _decode_povm(povm_seg, dims[1])
    povm = linalg.Povm(((ot.BIT0, effects[0]), (ot.BIT1, effects[1]), (ot.HASH, effects[2])))
    return TripartiteCandidate(
        dims=dims, psi0=_decode_state(seg0), psi1=_decode_state(seg1), povm=povm
    )


def _segments(x: np.ndarray, dims: tuple[int, int, int]):
    """The psi0, psi1 and POVM parts of a parameter vector."""
    total = dims[0] * dims[1] * dims[2]
    return x[: 2 * total], x[2 * total : 4 * total], x[4 * total :]


def _decode_state(seg: np.ndarray) -> np.ndarray:
    """Normalized complex state from its real and imaginary halves."""
    total = seg.size // 2
    v = seg[:total] + 1j * seg[total:]
    nrm = np.linalg.norm(v)
    if nrm < 1e-12:
        v = np.zeros(total, dtype=complex)
        v[0] = 1.0
        nrm = 1.0
    return v / nrm


def _decode_povm(seg: np.ndarray, db: int) -> np.ndarray:
    """The (bit0, bit1, hash) effects, stacked, from the 6 * dB^2 POVM parameters."""
    g = seg.reshape(3, 2, db, db)
    gs = g[:, 0] + 1j * g[:, 1]
    grams = gs.conj().transpose(0, 2, 1) @ gs
    s = grams[0] + grams[1] + grams[2]
    w, v = np.linalg.eigh(s)
    floor = max(float(w[-1]), 1.0) * 1e-14
    inv_sqrt = (v / np.sqrt(np.maximum(w, floor))) @ v.conj().T
    effects = inv_sqrt @ grams @ inv_sqrt
    # symmetrize away matmul round-off so the Povm invariants hold crisply
    return (effects + effects.conj().transpose(0, 2, 1)) / 2


@dataclass(frozen=True)
class FeasibilityReport:
    """Best residual found over all restarts, with its breakdown."""

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


class _Objective:
    """Total residual of a raw parameter vector, without building a candidate.

    Returns exactly ``residual(candidate_from_vector(x, dims), config).total``:
    both run the same helpers on the same arrays. Descent changes one
    coordinate per probe, so consecutive vectors mostly differ in one of the
    psi0, psi1 and POVM segments. A call decodes only the segments whose
    bytes changed since the previous call. A state move re-scores that bit's
    terms and recomputes ``bob_info``; a POVM move re-scores both bits
    against the kept states and marginals and keeps ``bob_info``.
    """

    def __init__(self, dims: tuple[int, int, int], config: ConstraintConfig):
        self.dims = dims
        self.config = config
        self.keys = [None, None, None]  # raw bytes of the psi0, psi1 and POVM segments
        self.parts = [None, None]
        self.effects = None
        self.per_bit = [None, None]
        self.bob_info = None

    def __call__(self, x: np.ndarray) -> float:
        segs = _segments(x, self.dims)
        keys = [seg.tobytes() for seg in segs]
        povm_moved = keys[2] != self.keys[2]
        if povm_moved:
            self.effects = _decode_povm(segs[2], self.dims[1])
        state_moved = False
        for b in (0, 1):
            if keys[b] != self.keys[b]:
                psi3 = _decode_state(segs[b]).reshape(self.dims)
                self.parts[b] = _state_part(psi3, self.config)
                state_moved = True
            elif not povm_moved:
                continue
            self.per_bit[b] = _bit_values(self.parts[b], self.effects, b, self.config)
        if state_moved and "bob_info" in self.config.families:
            self.bob_info = _bob_info(self.parts)
        self.keys = keys
        return _total(self.per_bit, self.bob_info, self.config)


def _descend(objective, x0: np.ndarray, max_iters: int):
    """Coordinate-wise pattern descent with a shrinking step.

    The trace-norm terms are non-smooth at eigenvalue crossings, so no
    gradients: each sweep tries +-step on every coordinate, keeping strict
    improvements; a sweep without improvement halves the step, from
    ``STEP0`` until it falls below ``STEP_TOL``. ``x`` is
    changed in place, one coordinate per probe, so consecutive calls of
    ``objective`` see vectors that differ in one or two coordinates; the
    search objective reuses everything those coordinates do not touch.
    """
    x = x0.copy()
    best = objective(x)
    evals = 1
    step = STEP0
    sweeps = 0
    for _ in range(max_iters):
        sweeps += 1
        improved = False
        for i in range(x.size):
            base = x[i]
            for delta in (step, -step):
                x[i] = base + delta
                val = objective(x)
                evals += 1
                if val < best - 1e-15:
                    best = val
                    improved = True
                    base = x[i]
                    break
                x[i] = base
        if not improved:
            step *= 0.5
            if step < STEP_TOL:
                break
    return x, best, evals, sweeps


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

    Arguments are checked here, once. The descent scores raw vectors with
    ``_Objective``, which checks nothing per call and keeps, across calls
    and restarts, what a move did not change. Only the best point goes
    through ``candidate_from_vector`` and ``residual``, with their checks,
    to give ``best_report``.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or min(dims) < 1:
        raise ValueError(f"dims must be three positive integers, got {dims}")
    if int(np.prod(dims)) > linalg.DEFAULT_DIM_CAP:
        raise linalg.DimensionCapError(
            f"total dimension {int(np.prod(dims))} exceeds cap {linalg.DEFAULT_DIM_CAP}"
        )
    if restarts < 1 or max_iters < 1:
        raise ValueError("restarts and max_iters must be >= 1")

    objective = _Objective(dims, config)

    n = _n_params(dims)
    children = np.random.SeedSequence(seed).spawn(restarts)
    best_val = math.inf
    best_x = None
    best_restart = -1
    evals_total = 0
    sweeps_total = 0
    for r, child in enumerate(children):
        rng = np.random.default_rng(child)
        x0 = rng.standard_normal(n)
        x, val, evals, sweeps = _descend(objective, x0, max_iters)
        evals_total += evals
        sweeps_total += sweeps
        if val < best_val:
            best_val = val
            best_x = x
            best_restart = r

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
    )
