"""Constraint residuals: oracles, witnesses, symmetries, and the search."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from qtwoparty import consistency as cons
from qtwoparty import bc, linalg, ot

import dense_oracle as oracle


def _random_candidate(dims, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(cons._n_params(dims))
    return cons.candidate_from_vector(x, dims)


# ---------------------------------------------------------------------------
# independent evaluator: dense kron matrices + the oracle partial trace
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
        rho_b = oracle.partial_trace(proj[b], dims, keep={1})
        e_b = effects[f"bit{b}"]
        e_wrong = effects[f"bit{1 - b}"]
        out["half_bit"].append(abs(float(np.trace(rho_b @ e_b).real) - 0.5))
        out["half_hash"].append(abs(float(np.trace(rho_b @ effects[ot.HASH]).real) - 0.5))
        out["wrong_bit"].append(max(0.0, float(np.trace(rho_b @ e_wrong).real)))
        sigma = oracle.partial_trace(lifted(e_b) @ proj[b], dims, keep={0, 2})
        tau = oracle.partial_trace(lifted(effects[ot.HASH]) @ proj[b], dims, keep={0, 2})
        out["alice_blind"].append(float(np.abs(np.linalg.eigvalsh((sigma + sigma.conj().T) / 2 - (tau + tau.conj().T) / 2)).sum()))
    bu0 = oracle.partial_trace(proj[0], dims, keep={1, 2})
    bu1 = oracle.partial_trace(proj[1], dims, keep={1, 2})
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
# stacked numpy forms: per matrix, the same bytes as the call on that matrix
# ---------------------------------------------------------------------------
#
# The search scores many candidates per numpy call and must reproduce the
# floats of scoring each one alone. Forms that do NOT give the same bytes,
# and so must not be used: the einsum trace ``einsum("kjii->kj")`` (differs
# from ``ndarray.trace`` at d_B >= 4) and ``np.linalg.norm(v, axis=1)``
# (differs from the per-vector ``np.linalg.norm`` in about a fifth of
# cases). A numpy upgrade that breaks one of the forms below fails here.


def _random_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("db", [2, 3, 4, 6])
def test_stacked_forms_match_per_matrix_bytes(db):
    rng = np.random.default_rng(db)
    k = 40
    for da, du in ((2, 2), (1, 3), (3, 1)):
        dims = (da, db, du)
        total = da * db * du
        # norm: matmuls over the real and imaginary parts, as np.linalg.norm
        segs = rng.standard_normal((k, 2 * total))
        states = cons._decode_states(segs)
        for seg, got in zip(segs, states):
            v = seg[:total] + 1j * seg[total:]
            assert got.tobytes() == (v / np.linalg.norm(v)).tobytes()
        psi3 = states.reshape(k, *dims)
        # the three marginal einsums
        _, rho_b, rho_bu = cons._state_part(psi3, cons.FULL_CONFIG)
        effects = _random_stack(rng, (k, 3, db, db))
        au = cons._au_conditional(psi3, effects[:, 2])
        for j in range(k):
            p = psi3[j]
            assert rho_b[j].tobytes() == np.einsum("abu,acu->bc", p, p.conj()).tobytes()
            bu = np.einsum("abu,acw->bucw", p, p.conj()).reshape(db * du, db * du)
            assert rho_bu[j].tobytes() == bu.tobytes()
            e = np.ascontiguousarray(effects[j, 2])
            au_j = np.einsum("bc,acu,ebw->auew", e, p, p.conj()).reshape(da * du, da * du)
            assert au[j].tobytes() == au_j.tobytes()
        # per-bit values: trace over the last two axes of a batched matmul,
        # and eigvalsh for the trace norm
        part = (psi3, rho_b, rho_bu)
        for b in (0, 1):
            got = cons._bit_values(part, effects, b, cons.FULL_CONFIG)
            for j in range(k):
                rho, e = rho_b[j], effects[j]
                p = psi3[j]
                au = [np.einsum("bc,acu,ebw->auew", np.ascontiguousarray(e[i]), p, p.conj())
                      .reshape(da * du, da * du) for i in (b, 2)]
                want = {
                    "half_bit": abs(float((rho @ e[b]).trace().real) - 0.5),
                    "half_hash": abs(float((rho @ e[2]).trace().real) - 0.5),
                    "wrong_bit": max(0.0, float((rho @ e[1 - b]).trace().real)),
                    "alice_blind": float(np.abs(np.linalg.eigvalsh(au[0] - au[1])).sum()),
                }
                for fam, value in want.items():
                    assert got[fam][j].hex() == value.hex(), (dims, b, j, fam)
        # eigvalsh again, in the receiver-information distance
        other = cons._state_part(cons._decode_states(rng.standard_normal((k, 2 * total)))
                                 .reshape(k, *dims), cons.FULL_CONFIG)
        bob = cons._bob_info((part, other))
        for j in range(k):
            want = abs(linalg.trace_distance(rho_bu[j], other[2][j]) - 0.5)
            assert bob[j].hex() == want.hex(), (dims, j)


# At (1, 2, 1) the alice_blind einsum "kbc,kacu,kebw->kauew" sums each
# candidate's four terms in an order that depends on the stack: alone it
# adds the two terms of each row of E and then the two row sums, and in a
# stack it adds the four terms one by one, so some candidates differ in the
# last bits. In the search the stack is the window of coordinates its
# restarts score at once, so there the order depends on the window too, and
# a restart's path can differ from its path alone. No form found keeps the
# (2, 2, 2) pins and fixes it. On numpy 2.4.6 the order still depended on the
# stack with numpy's SIMD dispatch cut to X86_V3 and to the X86_V2 baseline,
# so it is not the dispatch level that picks it there; a numpy build whose
# einsum sums the two ways alike may pass these cases.
STACK_DEPENDENT_121 = pytest.mark.xfail(
    strict=False,
    reason="the (1, 2, 1) einsum's summation order depends on the stack's size, "
           "and in the search on the window")


@pytest.mark.parametrize("dims", [
    pytest.param((1, 2, 1), marks=STACK_DEPENDENT_121), (1, 3, 1), (1, 2, 2), (2, 2, 1)])
def test_au_conditional_per_matrix_bytes_at_single_dims(dims):
    da, db, du = dims
    x = np.random.default_rng(0).standard_normal((60, cons._n_params(dims)))
    psi3, _, effects = cons._decode(x, dims)
    au = cons._au_conditional(psi3, effects[:, 2])
    for j in range(x.shape[0]):
        p = psi3[j]
        want = np.einsum("bc,acu,ebw->auew", np.ascontiguousarray(effects[j, 2]), p, p.conj())
        assert au[j].tobytes() == want.reshape(da * du, da * du).tobytes(), (dims, j)


@pytest.mark.parametrize("dims", [
    pytest.param((1, 2, 1), marks=STACK_DEPENDENT_121), (1, 3, 1), (1, 2, 2), (2, 2, 1), (2, 2, 2)])
def test_residual_matches_batch_totals(dims):
    # the search's stacked totals are the floats residual gives each candidate
    config = cons.drop("bob_info")
    x = np.random.default_rng(0).standard_normal((60, cons._n_params(dims)))
    batch = cons._Batch(*cons._decode(x, dims), config)
    for j in range(x.shape[0]):
        alone = cons.residual(cons.candidate_from_vector(x[j], dims), config).total
        assert alone.hex() == float(batch.total[j]).hex(), (dims, j)


def test_stacked_evaluation_independent_of_stack():
    # a candidate's family values are the same alone and inside any stack
    dims = (2, 3, 2)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, cons._n_params(dims)))
    stacked = cons._Batch(*cons._decode(x, dims), cons.FULL_CONFIG)
    for j in range(x.shape[0]):
        alone = cons._Batch(*cons._decode(x[j : j + 1], dims), cons.FULL_CONFIG)
        for b in (0, 1):
            for fam, v in stacked.per_bit[b].items():
                assert v[j].tobytes() == alone.per_bit[b][fam][0].tobytes(), (j, b, fam)
        assert stacked.bob[j].tobytes() == alone.bob[0].tobytes()
        assert stacked.effects[j].tobytes() == alone.effects[0].tobytes()


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


@pytest.mark.parametrize("dims", [(1, 2, 1), (2, 3, 2), (3, 4, 2)])
def test_usd_witness_embeds_in_larger_b(dims):
    rep = cons.residual(cons.usd_witness(dims=dims), cons.drop("bob_info"))
    assert rep.total <= 1e-12


@pytest.mark.parametrize("dims", [(2, 3, 1), (2, 3, 2), (4, 5, 3)])
def test_steerable_witness_components(dims):
    rep = cons.residual(cons.steerable_witness(dims))
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


def test_config_refuses_repeated_families():
    # each family counts once in the total, so a repeat is refused, not summed twice
    with pytest.raises(ValueError, match=r"must be distinct, repeated: \['bob_info'\]"):
        cons.relax(["bob_info", "bob_info"])
    with pytest.raises(ValueError, match=r"repeated: \['half_bit', 'wrong_bit'\]"):
        cons.ConstraintConfig(("wrong_bit", "half_bit", "wrong_bit", "half_bit"))


def test_split_hash_effect_is_not_a_povm():
    # hash split into two equal halves is a valid measurement with four
    # outcomes, but residual would score only the first half: a Povm
    # refuses the repeated label, so no such candidate can be built
    effects = dict(cons.usd_witness().povm.effects)
    half = effects[ot.HASH] / 2
    with pytest.raises(ValueError, match=r"repeated: \['hash'\]"):
        linalg.Povm(((ot.BIT0, effects[ot.BIT0]), (ot.BIT1, effects[ot.BIT1]),
                     (ot.HASH, half), (ot.HASH, half)))


def test_drop_refuses_unknown_family_names():
    # a misspelt name must not silently give the full constraint set
    with pytest.raises(ValueError) as err:
        cons.drop("alice_blnd")
    with pytest.raises(ValueError) as config_err:
        cons.ConstraintConfig(("alice_blnd",))
    assert str(err.value) == str(config_err.value)
    assert str(err.value).startswith("unknown constraint families ['alice_blnd']; valid: ")
    with pytest.raises(ValueError, match=r"\['nonsense'\]"):
        cons.drop("bob_info", "nonsense")
    assert cons.drop() == cons.FULL_CONFIG
    with pytest.raises(ValueError, match="at least one"):
        cons.drop(*cons.FAMILIES)


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
        oracle.assert_povm(cand.povm)
        linalg.check_pure(cand.psi0)
        linalg.check_pure(cand.psi1)
    with pytest.raises(ValueError):
        cons.candidate_from_vector(np.zeros(3), (2, 2, 2))


@pytest.mark.parametrize("dims", [(2, 2, 2), (1, 3, 2)])
def test_candidate_from_vector_refuses_singular_povm_segment(dims):
    # S = sum_i G_i^dag G_i singular: the decoded effects cannot sum to I
    rng = np.random.default_rng(17)
    _, _, (lo, hi) = cons._segment_bounds(dims)
    db = dims[1]
    zero = rng.standard_normal(cons._n_params(dims))
    zero[lo:] = 0.0
    with pytest.raises(ValueError, match=r"not a POVM: completeness\[sum\]"):
        cons.candidate_from_vector(zero, dims)
    # every G_i (real and imaginary part) sends the last basis vector to 0
    shared = rng.standard_normal(cons._n_params(dims))
    shared[lo:hi].reshape(3, 2, db, db)[..., -1] = 0.0
    with pytest.raises(ValueError, match=r"not a POVM: completeness\[sum\]"):
        cons.candidate_from_vector(shared, dims)
    # a kernel that only one G_i has leaves S invertible
    one = rng.standard_normal(cons._n_params(dims))
    one[lo:hi].reshape(3, 2, db, db)[0, ..., -1] = 0.0
    oracle.assert_povm(cons.candidate_from_vector(one, dims).povm)


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


def _scalar_descend(objective, x0, max_iters):
    # slow oracle for the lockstep descent: one restart, one probe per call,
    # +step then -step on each coordinate, the step halved after a sweep
    # without improvement
    x = x0.copy()
    best = objective(x)
    evals = 1
    step = cons.STEP0
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
            if step < cons.STEP_TOL:
                break
    return x, best, evals, sweeps


def _starts(dims, restarts, seed):
    children = np.random.SeedSequence(seed).spawn(restarts)
    return [np.random.default_rng(c).standard_normal(cons._n_params(dims)) for c in children]


def _oracle_runs(dims, config, restarts, max_iters, seed):
    slow = _candidate_objective(dims, config)
    return [_scalar_descend(slow, x0, max_iters) for x0 in _starts(dims, restarts, seed)]


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
    # every score of the batched evaluator must be the very float that
    # residual() gives for the decoded candidate, whichever segment moved,
    # for every row of a batch that repeats points as the descent does
    rng = np.random.default_rng(31)
    bounds = cons._segment_bounds(dims)
    slow = _candidate_objective(dims, config)
    x = rng.standard_normal((4, cons._n_params(dims)))
    x[1, : bounds[0][1]] = 0.0  # psi0 of norm 0 decodes to the first basis vector
    batch = cons._Batch(*cons._decode(x, dims), config)
    assert [v.hex() for v in batch.total] == [slow(row).hex() for row in x]
    zero_rows = 0
    for k in range(45):
        seg = k % 3
        lo, hi = bounds[seg]
        rows = rng.integers(0, 4, size=6)
        batch.fix(seg, rows)
        for _ in range(2):
            i = int(rng.integers(lo, hi))
            probes = x[rows, lo:hi]
            probes[:, i - lo] += rng.choice([0.3, -0.3], size=rows.size)
            if seg < 2 and k % 2:
                probes[k % rows.size] = 0.0  # the norm fallback beside normal rows
                zero_rows += 1
            got = batch.score(probes)
            for j, point in enumerate(rows):
                moved = x[point].copy()
                moved[lo:hi] = probes[j]
                want = slow(moved)
                assert got[j] == want, f"move {k}, row {j}: {got[j].hex()} != {want.hex()}"
            # keep some probes, at most one per point, as the descent does
            points, taken = np.unique(rows, return_index=True)
            chosen = rng.random(points.size) < 0.5
            batch.keep(points[chosen], taken[chosen])
            x[points[chosen], lo:hi] = probes[taken[chosen]]
    assert zero_rows > 0
    assert [v.hex() for v in batch.total] == [slow(row).hex() for row in x]


@pytest.mark.parametrize(
    "dims, config, restarts, max_iters",
    [
        ((2, 2, 2), cons.FULL_CONFIG, 3, 20),
        ((2, 2, 2), cons.drop("alice_blind"), 3, 20),
        # at d_B >= 4 an einsum trace would change the sums
        ((2, 4, 2), cons.FULL_CONFIG, 2, 3),
        ((3, 3, 3), cons.FULL_CONFIG, 2, 2),
        # restarts stop at different sweeps, so the live masks shrink and the
        # windows widen
        ((1, 1, 1), cons.FULL_CONFIG, 5, 60),
        # one restart: each window spans its whole segment at (1, 1, 1), and
        # 16 of the POVM segment's 24 coordinates at (2, 2, 2)
        ((1, 1, 1), cons.FULL_CONFIG, 1, 60),
        ((2, 2, 2), cons.drop("alice_blind"), 1, 20),
        # a full block: windows of one coordinate, as long as no restart stops
        ((1, 1, 1), cons.FULL_CONFIG, cons.SEARCH_BLOCK, 4),
        # one-coordinate windows until fewer than 16 restarts are live, then wider
        ((1, 1, 1), cons.FULL_CONFIG, 20, 60),
    ],
)
def test_descend_matches_scalar_oracle(dims, config, restarts, max_iters):
    # each restart of the lockstep descent must take the path the scalar
    # descent takes alone: the same final point, best value, evaluation
    # count and sweep count
    seed = 4
    runs = _oracle_runs(dims, config, restarts, max_iters, seed)
    x, best, evals, sweeps = cons._descend(
        np.stack(_starts(dims, restarts, seed)), dims, config, max_iters
    )
    for r, (x_r, best_r, evals_r, sweeps_r) in enumerate(runs):
        assert best[r].hex() == best_r.hex(), r
        assert evals[r] == evals_r, r
        assert sweeps[r] == sweeps_r, r
        assert x[r].tobytes() == x_r.tobytes(), r
    if (dims, restarts) == ((1, 1, 1), 5):
        assert len(set(sweeps.tolist())) > 1
    if restarts == 20:
        assert (sweeps < sweeps.max()).sum() > restarts - cons.PROBE_STACK // 2


def _count_scores(monkeypatch):
    # the row count of every stack _Batch.score is given
    stacks = []
    score = cons._Batch.score

    def counted(self, probes):
        stacks.append(probes.shape[0])
        return score(self, probes)

    monkeypatch.setattr(cons._Batch, "score", counted)
    return stacks


def test_few_restarts_score_windows_in_few_calls(monkeypatch):
    # one batch call per coordinate per sweep would be 56 * 60 = 3360 calls;
    # windows of 8 coordinates take under half of that
    dims, max_iters = (2, 2, 2), 60
    stacks = _count_scores(monkeypatch)
    rep = cons.search(dims, restarts=2, max_iters=max_iters, seed=0)
    assert rep.sweeps == 2 * max_iters
    assert len(stacks) < cons._n_params(dims) * max_iters / 2, len(stacks)
    assert max(stacks) == cons.PROBE_STACK


def test_window_stack_within_block_budget(monkeypatch):
    # a block below 16 restarts caps the windows: no stack holds more than
    # the two probes per restart of a full block. Real dims with a block that
    # small hold 400-dimensional operators, so the budget is shrunk to give
    # (2, 2, 2) a block of 5. The paths stay those of the default budget.
    dims = (2, 2, 2)
    default = cons.search(dims, restarts=7, max_iters=6, seed=8)
    # five restarts' +step and -step 4 x 4 complex operators
    monkeypatch.setattr(cons, "SEARCH_BLOCK_BYTES", 5 * 2 * 16 * 4**2)
    block = cons._block_size(dims)
    assert block == 5
    stacks = _count_scores(monkeypatch)
    small = cons.search(dims, restarts=7, max_iters=6, seed=8)
    assert max(stacks) == 2 * block, max(stacks)
    assert small.restart_residuals == default.restart_residuals
    assert small.evaluations == default.evaluations


def _assert_search_follows_oracle(dims, config, restarts, max_iters, seed):
    rep = cons.search(dims, restarts=restarts, max_iters=max_iters, seed=seed, config=config)
    runs = _oracle_runs(dims, config, restarts, max_iters, seed)
    values = [run[1] for run in runs]
    best = values.index(min(values))
    assert rep.best_total_residual.hex() == values[best].hex()
    assert rep.best_restart == best
    assert rep.evaluations == sum(run[2] for run in runs)
    assert rep.sweeps == sum(run[3] for run in runs)


@pytest.mark.parametrize("config", [cons.FULL_CONFIG, cons.drop("alice_blind")])
def test_search_follows_candidate_objective(config):
    # scalar descents driven by the candidate objective must take the same
    # trajectories as search, so the best value, evaluation and sweep
    # counts and the best restart all agree exactly
    _assert_search_follows_oracle((2, 2, 2), config, restarts=3, max_iters=20, seed=4)


def test_search_spans_blocks():
    # one block plus one restart: the second block holds a single restart,
    # and the reduction runs across blocks in restart order
    _assert_search_follows_oracle(
        (1, 1, 1), cons.FULL_CONFIG, restarts=cons.SEARCH_BLOCK + 1, max_iters=4, seed=2
    )


def test_restart_residuals_hold_every_restart():
    rep = cons.search((2, 2, 2), restarts=4, max_iters=10, seed=5)
    values = rep.restart_residuals
    assert len(values) == 4
    assert min(values) == rep.best_total_residual
    assert values.index(min(values)) == rep.best_restart


def test_restart_residuals_are_a_prefix_of_more_restarts():
    # restart k's start and path do not depend on how many restarts run
    # beside it, though its windows do
    few = cons.search((2, 2, 2), restarts=3, max_iters=8, seed=7)
    more = cons.search((2, 2, 2), restarts=6, max_iters=8, seed=7)
    assert [v.hex() for v in few.restart_residuals] == [
        v.hex() for v in more.restart_residuals[:3]]


def test_search_memory_bounded_in_restarts():
    # restarts run in blocks, so four blocks' worth needs no more working
    # memory than one
    def peak(restarts):
        tracemalloc.start()
        try:
            cons.search((2, 2, 2), restarts=restarts, max_iters=1, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = peak(cons.SEARCH_BLOCK), peak(4 * cons.SEARCH_BLOCK)
    assert four <= 1.25 * one, (one, four)


def test_block_size_shrinks_for_large_operators():
    assert cons._block_size((2, 2, 2)) == cons.SEARCH_BLOCK
    # each probe's 256 x 256 complex rho^BU: 2 MiB for the +step and -step pair
    assert cons._block_size((16, 16, 16)) == cons.SEARCH_BLOCK_BYTES // (2 << 20)
    # a 4096 x 4096 A (x) U operator alone exceeds the budget: one restart per block
    assert cons._block_size((64, 1, 64)) == 1


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


def test_fractional_dims_and_counts_are_refused():
    # each used to be truncated, or to fail inside numpy with TypeError
    usd = cons.usd_witness()
    calls = {
        r"dims\[1\] must be an integer, got 2\.5": [
            lambda: cons.search((2, 2.5, 2), restarts=1, max_iters=1),
            lambda: cons.usd_witness(dims=(2, 2.5, 2)),
            lambda: cons.steerable_witness(dims=(2, 2.5, 2)),
            lambda: cons.candidate_from_vector(np.zeros(77), (2, 2.5, 2)),
        ],
        r"dims\[0\] must be >= 1": [
            lambda: cons.candidate_from_vector(np.zeros(24), (0, 2, 2)),
        ],
        r"dims\[0\] must be an integer, got 2\.5": [
            lambda: cons.TripartiteCandidate((2.5, 2, 2), usd.psi0, usd.psi1, usd.povm),
        ],
        r"dims\[2\] must be an integer, got '2'": [
            lambda: cons.usd_witness(dims=(2, 2, "2")),
        ],
        r"restarts must be an integer, got 2\.5": [
            lambda: cons.search((2, 2, 2), restarts=2.5, max_iters=1),
        ],
        r"restarts must be an integer, got True": [
            lambda: cons.search((2, 2, 2), restarts=True, max_iters=1),
        ],
        r"max_iters must be an integer, got 1\.5": [
            lambda: cons.search((2, 2, 2), restarts=1, max_iters=1.5),
        ],
        r"seed must be an integer, got None": [
            lambda: cons.search((2, 2, 2), restarts=1, max_iters=1, seed=None),
        ],
        r"seed must be an integer, got 1\.5": [
            lambda: cons.search((2, 2, 2), restarts=1, max_iters=1, seed=1.5),
        ],
        r"seed must be >= 0, got -1": [
            lambda: cons.search((2, 2, 2), restarts=1, max_iters=1, seed=-1),
        ],
        r"dims must be three positive integers, got 5": [
            lambda: cons.search(5, restarts=1, max_iters=1),
        ],
        r"exact_cap must be an integer, got 12\.5": [
            lambda: bc.sweep(math.pi / 6, [1], [1], exact_cap=12.5),
        ],
    }
    for message, refused in calls.items():
        for call in refused:
            with pytest.raises(ValueError, match=message):
                call()
    # integral values of other types are stored as ints
    rep = cons.search((2.0, np.int64(2), 2), restarts=1.0, max_iters=np.int32(1),
                      seed=np.uint8(0))
    assert [type(v) for v in (*rep.dims, rep.restarts, rep.max_iters, rep.seed)] == [int] * 6
    assert cons.steerable_witness(dims=(2.0, 3, 2)).dims == (2, 3, 2)


def test_report_json_shape():
    rep = cons.search((2, 2, 2), restarts=2, max_iters=4, seed=1,
                      config=cons.drop("alice_blind"))
    payload = rep.to_json_dict()
    assert list(payload) == ["dims", "restarts", "max_iters", "seed", "relaxations",
                             "best_total_residual", "components", "iterations"]
    assert payload["dims"] == [2, 2, 2]
    assert payload["relaxations"] == ["alice_blind"]
    assert set(payload["components"]) == set(cons.FAMILIES) - {"alice_blind"}
    assert payload["iterations"]["evaluations"] > 0
