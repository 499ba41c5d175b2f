"""Constraint residuals: oracles, witnesses, symmetries, and the search."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qtwoparty import consistency as cons
from qtwoparty import linalg, ot


def _random_candidate(dims, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(cons._n_params(dims))
    return cons.candidate_from_vector(x, dims)


# ---------------------------------------------------------------------------
# independent evaluator: dense kron matrices + the linalg partial trace
# ---------------------------------------------------------------------------


def _residual_dense_oracle(cand: cons.TripartiteCandidate) -> dict:
    da, db, du = cand.dims
    dims = [da, db, du]
    proj = [linalg.projector(cand.psi0), linalg.projector(cand.psi1)]
    effects = {lab: cand.povm.effect(lab) for lab in (ot.BIT0, ot.BIT1, ot.HASH)}

    def lifted(e):
        return np.kron(np.eye(da), np.kron(e, np.eye(du)))

    out = {"half_bit": [], "half_hash": [], "wrong_bit": [], "alice_blind": []}
    for b in (0, 1):
        rho_b = linalg.partial_trace(proj[b], dims, keep={1})
        e_b = effects[f"bit{b}"]
        e_wrong = effects[f"bit{1 - b}"]
        out["half_bit"].append(abs(float(np.trace(rho_b @ e_b).real) - 0.5))
        out["half_hash"].append(abs(float(np.trace(rho_b @ effects[ot.HASH]).real) - 0.5))
        out["wrong_bit"].append(max(0.0, float(np.trace(rho_b @ e_wrong).real)))
        sigma = linalg.partial_trace(lifted(e_b) @ proj[b], dims, keep={0, 2})
        tau = linalg.partial_trace(lifted(effects[ot.HASH]) @ proj[b], dims, keep={0, 2})
        out["alice_blind"].append(float(np.abs(np.linalg.eigvalsh((sigma + sigma.conj().T) / 2 - (tau + tau.conj().T) / 2)).sum()))
    bu0 = linalg.partial_trace(proj[0], dims, keep={1, 2})
    bu1 = linalg.partial_trace(proj[1], dims, keep={1, 2})
    out["bob_info"] = abs(linalg.trace_distance(bu0, bu1) - 0.5)
    return out


def _assert_matches_dense_oracle(cand):
    rep = cons.residual(cand)
    oracle = _residual_dense_oracle(cand)
    for fam in ("half_bit", "half_hash", "wrong_bit", "alice_blind"):
        for b in (0, 1):
            assert abs(getattr(rep, fam)[b] - oracle[fam][b]) < 1e-10, (cand.dims, fam, b)
    assert abs(rep.bob_info - oracle["bob_info"]) < 1e-10, cand.dims


def test_residual_matches_dense_oracle():
    for seed in range(20):
        _assert_matches_dense_oracle(_random_candidate((2, 2, 2), seed))


def test_residual_matches_dense_oracle_odd_dims():
    # d_A != d_U: a state reshaped with A and U swapped passes at (2, 3, 2) only
    for dims in ((2, 3, 2), (1, 2, 3), (3, 2, 1)):
        for seed in range(5):
            _assert_matches_dense_oracle(_random_candidate(dims, seed))


# ---------------------------------------------------------------------------
# trivial candidates with known residuals
# ---------------------------------------------------------------------------


def _product_candidate(psi_b0, psi_b1, povm):
    a = np.array([1.0, 0.0])
    u = np.array([1.0, 0.0])
    return cons.TripartiteCandidate(
        dims=(2, 2, 2),
        psi0=np.kron(a, np.kron(psi_b0, u)),
        psi1=np.kron(a, np.kron(psi_b1, u)),
        povm=povm,
    )


def test_residual_deterministic_learning_candidate():
    # receiver's POVM is {bit0 = I, rest = 0}: the hash never fires
    povm = linalg.Povm(
        ((ot.BIT0, np.eye(2)), (ot.BIT1, np.zeros((2, 2))), (ot.HASH, np.zeros((2, 2))))
    )
    psi0, psi1 = ot.make_states(math.pi / 6)
    rep = cons.residual(_product_candidate(psi0, psi1, povm))
    assert abs(rep.half_hash[0] - 0.5) < 1e-12
    assert abs(rep.half_hash[1] - 0.5) < 1e-12


def test_residual_identical_states_candidate():
    # psi0 = psi1 carries no bit: D = 0 where 1/2 is required
    povm = ot.make_usd_povm(math.pi / 6)
    psi0, _ = ot.make_states(math.pi / 6)
    rep = cons.residual(_product_candidate(psi0, psi0, povm))
    assert abs(rep.bob_info - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# hand-built witnesses zeroing individual families
# ---------------------------------------------------------------------------


def test_usd_witness_components():
    rep = cons.residual(cons.usd_witness())
    assert rep.half_bit[0] < 1e-12 and rep.half_bit[1] < 1e-12
    assert rep.half_hash[0] < 1e-12 and rep.half_hash[1] < 1e-12
    assert rep.wrong_bit[0] < 1e-12 and rep.wrong_bit[1] < 1e-12
    assert rep.alice_blind[0] < 1e-12 and rep.alice_blind[1] < 1e-12
    # the one failing family: D = sin(2 theta) = sqrt(3)/2, not 1/2
    assert abs(rep.bob_info - (math.sqrt(3) / 2 - 0.5)) < 1e-12


def test_usd_witness_feasible_when_bob_info_dropped():
    rep = cons.residual(cons.usd_witness(), cons.drop("bob_info"))
    assert rep.total <= 1e-12
    assert rep.bob_info is None


def test_usd_witness_embeds_in_larger_b():
    rep = cons.residual(cons.usd_witness(dims=(2, 3, 2)), cons.drop("bob_info"))
    assert rep.total <= 1e-12


def test_steerable_witness_components():
    rep = cons.residual(cons.steerable_witness())
    assert rep.half_bit[0] < 1e-12 and rep.half_bit[1] < 1e-12
    assert rep.half_hash[0] < 1e-12 and rep.half_hash[1] < 1e-12
    assert rep.wrong_bit[0] < 1e-12 and rep.wrong_bit[1] < 1e-12
    assert rep.bob_info < 1e-12
    # what the purification costs: the sender can read off the outcome
    assert abs(rep.alice_blind[0] - 1.0) < 1e-12
    assert abs(rep.alice_blind[1] - 1.0) < 1e-12


def test_steerable_witness_feasible_when_alice_blind_dropped():
    rep = cons.residual(cons.steerable_witness(), cons.drop("alice_blind"))
    assert rep.total <= 1e-12


def test_witness_dimension_requirements():
    with pytest.raises(ValueError):
        cons.usd_witness(dims=(2, 1, 2))
    with pytest.raises(ValueError):
        cons.steerable_witness(dims=(2, 2, 2))


# ---------------------------------------------------------------------------
# symmetries and configuration plumbing
# ---------------------------------------------------------------------------


def _haar_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_residual_local_unitary_invariance():
    rng = np.random.default_rng(31)
    for seed in range(8):
        cand = _random_candidate((2, 2, 2), 100 + seed)
        ua, ub, uu = (_haar_unitary(2, rng) for _ in range(3))
        big = np.kron(ua, np.kron(ub, uu))
        povm = linalg.Povm(
            tuple((lab, ub @ e @ ub.conj().T) for lab, e in cand.povm.effects)
        )
        rotated = cons.TripartiteCandidate(
            dims=cand.dims, psi0=big @ cand.psi0, psi1=big @ cand.psi1, povm=povm
        )
        base = cons.residual(cand)
        rot = cons.residual(rotated)
        assert abs(base.total - rot.total) < 1e-9
        for fam in cons.FAMILIES:
            v0, v1 = getattr(base, fam), getattr(rot, fam)
            if isinstance(v0, tuple):
                assert max(abs(a - b) for a, b in zip(v0, v1)) < 1e-9
            else:
                assert abs(v0 - v1) < 1e-9


def test_relax_validation():
    with pytest.raises(ValueError):
        cons.relax([])
    with pytest.raises(ValueError):
        cons.relax(["nonsense"])
    cfg = cons.drop("alice_blind")
    assert cfg.dropped == ("alice_blind",)
    assert "alice_blind" not in cfg.families


def test_residual_respects_relaxation():
    cand = _random_candidate((2, 2, 2), 3)
    full = cons.residual(cand)
    partial = cons.residual(cand, cons.relax(["bob_info"]))
    assert partial.half_bit is None
    assert abs(partial.total - full.bob_info) < 1e-12


@pytest.mark.parametrize(
    "config", [cons.FULL_CONFIG, cons.drop("alice_blind"), cons.relax(["bob_info"])]
)
def test_total_is_sum_of_components(config):
    # exact: the total adds the components left to right, in family order
    # (spelled out because sum() compensates float rounding from Python 3.12)
    for seed in range(4):
        rep = cons.residual(_random_candidate((2, 2, 2), seed), config)
        expected = 0
        for value in rep.components.values():
            expected += value
        assert rep.total == expected, (seed, rep.total.hex(), expected.hex())


def test_candidate_from_vector_produces_valid_povm():
    for seed in range(10):
        cand = _random_candidate((2, 2, 2), 200 + seed)
        assert linalg.validate_povm(cand.povm).ok
        linalg.check_pure(cand.psi0)
        linalg.check_pure(cand.psi1)
    with pytest.raises(ValueError):
        cons.candidate_from_vector(np.zeros(3), (2, 2, 2))


# ---------------------------------------------------------------------------
# search behavior
# ---------------------------------------------------------------------------


def test_search_deterministic():
    a = cons.search((2, 2, 2), restarts=3, max_iters=6, seed=12)
    b = cons.search((2, 2, 2), restarts=3, max_iters=6, seed=12)
    assert a.best_total_residual == b.best_total_residual
    assert a.best_restart == b.best_restart
    assert a.evaluations == b.evaluations
    assert a.best_report.components == b.best_report.components


def _candidate_objective(dims, config):
    # slow oracle for the search objective: decode and validate a whole
    # candidate on every call, then score it
    return lambda x: cons.residual(cons.candidate_from_vector(x, dims), config).total


@pytest.mark.parametrize(
    "dims, config",
    [
        ((2, 2, 2), cons.FULL_CONFIG),
        ((2, 2, 2), cons.drop("alice_blind")),
        ((2, 3, 2), cons.relax(["half_hash", "bob_info", "alice_blind"])),
        ((1, 2, 3), cons.drop("bob_info")),
    ],
)
def test_objective_matches_residual_exactly(dims, config):
    # every value of the search objective must be the very float that
    # residual() gives for the decoded candidate, whichever segment moved
    rng = np.random.default_rng(31)
    n = cons._n_params(dims)
    half = 2 * dims[0] * dims[1] * dims[2]
    segments = ((0, half), (half, 2 * half), (2 * half, n))  # psi0, psi1, POVM
    x = rng.standard_normal(n)
    objective = cons._Objective(dims, config)
    slow = _candidate_objective(dims, config)
    for k in range(90):
        i = int(rng.integers(*segments[k % 3]))
        base = x[i]
        # a descent probe: +step, -step, then keep one or restore
        for value in (base + 0.3, base - 0.3, base + rng.choice([0.3, 0.0])):
            x[i] = value
            got, want = objective(x), slow(x)
            assert got == want, f"move {k} at coordinate {i}: {got.hex()} != {want.hex()}"


@pytest.mark.parametrize("config", [cons.FULL_CONFIG, cons.drop("alice_blind")])
def test_search_follows_candidate_objective(config):
    # descents driven by the candidate objective must take the same
    # trajectories as search, so the best value, evaluation and sweep
    # counts and the best restart all agree exactly
    dims, restarts, max_iters, seed = (2, 2, 2), 3, 20, 4
    rep = cons.search(dims, restarts=restarts, max_iters=max_iters, seed=seed, config=config)
    slow = _candidate_objective(dims, config)
    runs = []
    for child in np.random.SeedSequence(seed).spawn(restarts):
        x0 = np.random.default_rng(child).standard_normal(cons._n_params(dims))
        runs.append(cons._descend(slow, x0, max_iters))
    values = [run[1] for run in runs]
    best = values.index(min(values))
    assert rep.best_total_residual.hex() == values[best].hex()
    assert rep.best_restart == best
    assert rep.evaluations == sum(run[2] for run in runs)
    assert rep.sweeps == sum(run[3] for run in runs)


def test_search_scalar_dims_floor():
    # with one-dimensional labs the info constraint alone contributes 1/2
    rep = cons.search((1, 1, 1), restarts=5, max_iters=30, seed=0)
    assert rep.best_total_residual >= 0.5


def test_search_relaxed_beats_full():
    full = cons.search((2, 2, 2), restarts=4, max_iters=10, seed=5)
    relaxed = cons.search((2, 2, 2), restarts=4, max_iters=10, seed=5,
                          config=cons.drop("bob_info"))
    assert relaxed.best_total_residual <= full.best_total_residual
    assert full.best_total_residual > 0.0


def test_search_argument_validation():
    with pytest.raises(ValueError):
        cons.search((2, 2), restarts=1, max_iters=1)
    with pytest.raises(ValueError):
        cons.search((2, 2, 2), restarts=0)
    with pytest.raises(linalg.DimensionCapError):
        cons.search((64, 64, 2), restarts=1, max_iters=1)


def test_report_json_shape():
    rep = cons.search((2, 2, 2), restarts=2, max_iters=4, seed=1,
                      config=cons.drop("alice_blind"))
    payload = rep.to_json_dict()
    assert payload["dims"] == [2, 2, 2]
    assert payload["relaxations"] == ["alice_blind"]
    assert set(payload["components"]) == set(cons.FAMILIES) - {"alice_blind"}
    assert payload["iterations"]["evaluations"] > 0
