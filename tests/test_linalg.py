"""Package linear algebra, and the dense test oracle, against independent references."""

from __future__ import annotations

import numpy as np
import pytest

from qtwoparty import linalg
from qtwoparty.ot import make_usd_povm

import dense_oracle as oracle


def ket(dim, i):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


# ---------------------------------------------------------------------------
# tensor product
# ---------------------------------------------------------------------------


def test_tensor_identity():
    out = oracle.tensor_product(np.eye(2), np.eye(2))
    assert np.array_equal(out, np.eye(4))


def test_tensor_basis_ordering():
    # |0><0| (x) |1><1| with the left factor most significant: entry (1, 1)
    out = oracle.tensor_product(linalg.projector(ket(2, 0)), linalg.projector(ket(2, 1)))
    expected = np.diag([0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(out, expected)


def test_tensor_trace_multiplies():
    for k in range(20):
        a = oracle.random_density(2, (10, k))
        b = oracle.random_density(2, (11, k))
        # oracle: direct multiplication of the individual traces
        lhs = np.trace(oracle.tensor_product(a, b))
        rhs = np.trace(a) * np.trace(b)
        assert abs(lhs - rhs) < 1e-12


def test_tensor_dim_cap():
    assert linalg.DEFAULT_DIM_CAP == 4096
    with pytest.raises(linalg.DimensionCapError):
        oracle.tensor_product(np.eye(64), np.eye(128))
    # the boundary itself is allowed
    oracle.tensor_product(np.eye(64), np.eye(64))


def test_tensor_rejects_non_finite_imaginary_part():
    bad = np.array([[1, 0], [0, complex(0, np.nan)]])
    for a, b in ((bad, np.eye(2)), (np.eye(2), bad)):
        with pytest.raises(ValueError):
            oracle.tensor_product(a, b)
    with pytest.raises(ValueError):
        oracle.tensor_product(np.array([[complex(1, np.inf)]]), np.eye(2))


def test_tensor_power():
    a = oracle.random_density(2, 3)
    assert np.allclose(
        oracle.tensor_power(a, 3),
        oracle.tensor_product(oracle.tensor_product(a, a), a),
    )
    with pytest.raises(ValueError):
        oracle.tensor_power(a, 0)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------


def test_partial_trace_product_state():
    a = oracle.random_density(2, 1)
    b = oracle.random_density(2, 2)
    reduced = oracle.partial_trace(oracle.tensor_product(a, b), [2, 2], keep={0})
    assert np.abs(reduced - a).max() < 1e-10


def test_partial_trace_maximally_entangled():
    bell = (np.kron(ket(2, 0), ket(2, 0)) + np.kron(ket(2, 1), ket(2, 1))) / np.sqrt(2)
    rho = linalg.projector(bell)
    for keep in ({0}, {1}):
        reduced = oracle.partial_trace(rho, [2, 2], keep=keep)
        assert np.abs(reduced - np.eye(2) / 2).max() < 1e-12


def _partial_trace_loops(rho, dims, keep):
    """Index-summation oracle: explicit loops over kept/traced multi-indices."""
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    out_dim = int(np.prod(kept_dims))
    out = np.zeros((out_dim, out_dim), dtype=complex)
    resh = rho.reshape(list(dims) * 2)
    n = len(dims)
    for ki in np.ndindex(*kept_dims):
        for kj in np.ndindex(*kept_dims):
            total = 0.0 + 0.0j
            traced_dims = [dims[i] for i in traced]
            for t in np.ndindex(*traced_dims) if traced else [()]:
                row = [0] * n
                col = [0] * n
                for pos, i in enumerate(keep):
                    row[i] = ki[pos]
                    col[i] = kj[pos]
                for pos, i in enumerate(traced):
                    row[i] = t[pos]
                    col[i] = t[pos]
                total += resh[tuple(row) + tuple(col)]
            i_flat = int(np.ravel_multi_index(ki, kept_dims)) if kept_dims else 0
            j_flat = int(np.ravel_multi_index(kj, kept_dims)) if kept_dims else 0
            out[i_flat, j_flat] = total
    return out


def test_partial_trace_against_loop_oracle():
    dims = [2, 3, 2]
    for k in range(50):
        rho = oracle.random_density(12, (123, k))
        for keep in ({0}, {1}, {2}, {0, 2}, {0, 1}):
            fast = oracle.partial_trace(rho, dims, keep)
            slow = _partial_trace_loops(rho, dims, keep)
            assert np.abs(fast - slow).max() < 1e-12
            assert abs(np.trace(fast) - 1.0) < 1e-10


def test_partial_trace_errors():
    rho = oracle.random_density(4, 0)
    with pytest.raises(ValueError):
        oracle.partial_trace(rho, [2, 3], keep={0})
    with pytest.raises(ValueError):
        oracle.partial_trace(rho, [2, 2], keep=set())
    with pytest.raises(ValueError):
        oracle.partial_trace(rho, [2, 2], keep={5})


# ---------------------------------------------------------------------------
# integer check
# ---------------------------------------------------------------------------


def test_check_integer_accepts_integral_values_only():
    for value in (3, 3.0, np.int64(3), np.uint8(3)):
        got = linalg.check_integer("k", value, 0)
        assert type(got) is int and got == 3
    for value in (2.5, None, "3", True, np.bool_(False), float("nan"), float("inf"), [3]):
        with pytest.raises(ValueError, match=r"^k must be an integer, got "):
            linalg.check_integer("k", value, 0)
    with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
        linalg.check_integer("k", 0, 1)


# ---------------------------------------------------------------------------
# trace distance and fidelity
# ---------------------------------------------------------------------------


def test_trace_distance_identity_and_orthogonal():
    rho = oracle.random_density(3, 9)
    assert linalg.trace_distance(rho, rho) == 0.0
    p0 = linalg.projector(ket(2, 0))
    p1 = linalg.projector(ket(2, 1))
    assert abs(linalg.trace_distance(p0, p1) - 1.0) < 1e-12


def test_trace_distance_pure_state_oracle():
    # oracle: for pure states D = sqrt(1 - |<x|y>|^2); overlap cos(2 theta) = 1/2
    theta = np.pi / 6
    psi0 = np.array([np.cos(theta), np.sin(theta)])
    psi1 = np.array([np.cos(theta), -np.sin(theta)])
    d = linalg.trace_distance(linalg.projector(psi0), linalg.projector(psi1))
    assert abs(d - np.sqrt(3) / 2) < 1e-12


def test_trace_distance_shape_error_and_symmetry():
    with pytest.raises(ValueError):
        linalg.trace_distance(np.eye(2), np.eye(3))
    a = oracle.random_density(4, 1)
    b = oracle.random_density(4, 2)
    assert abs(linalg.trace_distance(a, b) - linalg.trace_distance(b, a)) < 1e-12


def test_fidelity_identity_and_orthogonal():
    rho = oracle.random_density(4, 3)
    assert abs(oracle.fidelity(rho, rho) - 1.0) < 1e-10
    assert oracle.fidelity(linalg.projector(ket(2, 0)), linalg.projector(ket(2, 1))) < 1e-12


def test_fidelity_pure_pairs_overlap_oracle():
    for k in range(50):
        x = oracle.random_pure(4, (2, k))
        y = oracle.random_pure(4, (3, k))
        f = oracle.fidelity(linalg.projector(x), linalg.projector(y))
        assert abs(f - abs(np.vdot(x, y))) < 1e-10


def test_fidelity_shape_and_psd_errors():
    with pytest.raises(ValueError):
        oracle.fidelity(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        oracle.fidelity(np.diag([1.5, -0.5]), np.eye(2) / 2)


# The oracle fidelity diagonalises only the support of its first argument;
# rank-deficient cases against closed forms that need no matrix square root.


def _random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_spectrum(dim, rank, seed):
    w = np.zeros(dim)
    w[:rank] = np.random.default_rng(seed).random(rank) + 0.1
    return w / w.sum()


@pytest.mark.parametrize("dim", [4, 8, 16])
def test_fidelity_rank_one_first_argument(dim):
    # F(|x><x|, b) = sqrt(<x|b|x>), for b of full rank and of rank 2
    for k in range(10):
        x = oracle.random_pure(dim, (20, dim, k))
        u = _random_unitary(dim, (21, dim, k))
        for b in (
            oracle.random_density(dim, (22, dim, k)),
            (u * _random_spectrum(dim, 2, (23, dim, k))) @ u.conj().T,
        ):
            expected = np.sqrt(np.vdot(x, b @ x).real)
            assert abs(oracle.fidelity(linalg.projector(x), b) - expected) < 1e-10


@pytest.mark.parametrize("dim", [4, 8, 16])
@pytest.mark.parametrize("rank", ["1", "2", "full"])
def test_fidelity_commuting_rank_deficient(dim, rank):
    # a and b diagonal in one random frame: F = sum_i sqrt(a_i b_i)
    r = dim if rank == "full" else int(rank)
    for k in range(10):
        u = _random_unitary(dim, (30, dim, k))
        wa = _random_spectrum(dim, r, (31, dim, k))
        for rank_b in (2, dim):
            wb = np.random.default_rng((32, dim, k, rank_b)).permutation(
                _random_spectrum(dim, rank_b, (33, dim, k))
            )
            a = (u * wa) @ u.conj().T
            b = (u * wb) @ u.conj().T
            expected = float(np.sqrt(wa * wb).sum())
            assert abs(oracle.fidelity(a, b) - expected) < 1e-10, (dim, r, rank_b)


@pytest.mark.parametrize("dim", [4, 8, 16])
def test_fidelity_symmetric_on_rank_deficient_pairs(dim):
    for k in range(10):
        for rank_a, rank_b in ((1, dim), (2, 3), (2, dim), (dim, dim)):
            ua = _random_unitary(dim, (40, dim, k))
            ub = _random_unitary(dim, (41, dim, k))
            a = (ua * _random_spectrum(dim, rank_a, (42, dim, k))) @ ua.conj().T
            b = (ub * _random_spectrum(dim, rank_b, (43, dim, k))) @ ub.conj().T
            assert abs(oracle.fidelity(a, b) - oracle.fidelity(b, a)) < 1e-10, (rank_a, rank_b)


# ---------------------------------------------------------------------------
# POVM validation, which is construction: a Povm is valid or is not built
# ---------------------------------------------------------------------------


def test_validate_povm_singleton_identity():
    povm = linalg.Povm((("all", np.eye(2)),))
    assert povm.labels == ("all",)


def test_validate_povm_double_identity():
    with pytest.raises(ValueError, match=r"completeness\[sum\] fails by 1\.000e\+00"):
        linalg.Povm((("a", np.eye(2)), ("b", np.eye(2))))


def test_validate_povm_negative_effect():
    with pytest.raises(ValueError, match=r"positivity\[b\] fails by 5\.000e-01"):
        linalg.Povm((("a", np.diag([1.5, 1.0])), ("b", np.diag([-0.5, 0.0]))))


def test_validate_povm_repeated_label():
    half = np.eye(2) / 2
    with pytest.raises(ValueError, match=r"labels must be distinct, repeated: \['a'\]"):
        linalg.Povm((("a", half), ("a", half)))


def test_validate_povm_non_hermitian_effect():
    # the skew parts cancel in the sum, so hermiticity alone is at fault,
    # worst in c
    skew = np.array([[0.0, 1e-6], [-1e-6, 0.0]])
    third = np.eye(2) / 3
    with pytest.raises(ValueError, match=r"hermiticity\[c\] fails by 4\.000e-06"):
        linalg.Povm((("a", third + skew), ("b", third + skew), ("c", third - 2 * skew)))


def test_validate_povm_usd():
    # eigenvalue-check oracle: each effect PSD and the sum is the identity
    povm = make_usd_povm(np.pi / 6)
    oracle.assert_povm(povm)
    effects = tuple((label, eff.copy()) for label, eff in povm.effects)
    rebuilt = linalg.Povm(effects)
    assert all(a is b for (_, a), (_, b) in zip(rebuilt.effects, effects))


def test_povm_structural_errors():
    with pytest.raises(ValueError):
        linalg.Povm(())
    with pytest.raises(ValueError):
        linalg.Povm((("a", np.eye(2)), ("b", np.eye(3))))
    with pytest.raises(ValueError):
        linalg.Povm((("a", np.ones((2, 3))),))


# ---------------------------------------------------------------------------
# random state generation
# ---------------------------------------------------------------------------


def test_random_density_deterministic_and_valid():
    assert np.array_equal(oracle.random_density(4, 42), oracle.random_density(4, 42))
    for seed in range(100):
        oracle.check_density(oracle.random_density(4, seed))


def test_random_density_dim_one():
    assert np.allclose(oracle.random_density(1, 0), [[1.0]])


def test_random_pure_deterministic_and_valid():
    assert np.array_equal(oracle.random_pure(5, 7), oracle.random_pure(5, 7))
    for seed in range(50):
        linalg.check_pure(oracle.random_pure(3, seed))
    with pytest.raises(ValueError):
        oracle.random_pure(0, 1)


# ---------------------------------------------------------------------------
# cross-cutting invariants
# ---------------------------------------------------------------------------


def test_fuchs_van_de_graaf_sandwich():
    for dim in (2, 3, 4, 8):
        for k in range(40):
            a = oracle.random_density(dim, (dim, k, 0))
            b = oracle.random_density(dim, (dim, k, 1))
            f = oracle.fidelity(a, b)
            d = linalg.trace_distance(a, b)
            assert d - (1.0 - f) >= -1e-8
            assert np.sqrt(max(0.0, 1.0 - f * f)) - d >= -1e-8


def test_fidelity_multiplicativity():
    for k in range(25):
        a = oracle.random_density(2, (0, k))
        b = oracle.random_density(2, (1, k))
        c = oracle.random_density(2, (2, k))
        d = oracle.random_density(2, (3, k))
        lhs = oracle.fidelity(oracle.tensor_product(a, c), oracle.tensor_product(b, d))
        rhs = oracle.fidelity(a, b) * oracle.fidelity(c, d)
        assert abs(lhs - rhs) < 1e-8


def test_trace_distance_unitary_invariance():
    # unitary frames from the eigenvectors of random Hermitian matrices
    rng = np.random.default_rng(11)
    for k in range(25):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        _, u = np.linalg.eigh((g + g.conj().T) / 2)
        a = oracle.random_density(4, (4, k))
        b = oracle.random_density(4, (5, k))
        lhs = linalg.trace_distance(u @ a @ u.conj().T, u @ b @ u.conj().T)
        assert abs(lhs - linalg.trace_distance(a, b)) < 1e-9


def test_partial_trace_inverts_tensor_product():
    for k in range(20):
        a = oracle.random_density(3, (6, k))
        b = oracle.random_density(2, (7, k))
        recovered = oracle.partial_trace(oracle.tensor_product(a, b), [3, 2], keep={0})
        assert np.abs(recovered - a).max() < 1e-10
