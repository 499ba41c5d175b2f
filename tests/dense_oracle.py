"""Dense operator toolkit that the test suite checks the package against.

Nothing in ``qtwoparty`` needs these: the package computes f and d in closed
form or over block classes, and takes its marginals with its own einsums.
The tests build the same quantities from full 2^k-dimensional matrices,
through the general-purpose routines here, and compare:

    tensor composition   tensor_product, tensor_power
    partial trace        partial_trace
    fidelity             F(a, b) = Tr|sqrt(a) sqrt(b)|
    parity factors       parity_factor, with W_bit = F F^T
    factored distance    parity_trace_distance, from the parity factors
    steering certificate steering_certificate, from the parity factors
    density checks       check_density
    POVM check           assert_povm
    seeded random states random_pure, random_density

Subsystem ordering is most-significant-left: in ``tensor_product(a, b)``
the left factor varies slowest in the row index, matching ``numpy.kron``.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

from qtwoparty import ot
from qtwoparty.linalg import (
    DEFAULT_DIM_CAP,
    HERMITICITY_ATOL,
    PSD_EIG_TOL,
    DimensionCapError,
    _as_square,
    hermiticity_defect,
)

TRACE_ATOL = 1e-10


def check_density(rho: np.ndarray, *, name: str = "rho") -> np.ndarray:
    """Validate the density-operator invariants; returns the array unchanged.

    Hermitian within 1e-10 (entrywise), unit trace within 1e-10, and no
    eigenvalue below -1e-9.
    """
    rho = _as_square(rho, name)
    dev = hermiticity_defect(rho)
    if dev > HERMITICITY_ATOL:
        raise ValueError(f"{name} not Hermitian: max |M - M^dag| = {dev:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"{name} trace {tr} is not 1 within {TRACE_ATOL}")
    w = np.linalg.eigvalsh(rho)
    if w[0] < -PSD_EIG_TOL:
        raise ValueError(f"{name} has eigenvalue {w[0]:.3e} below -{PSD_EIG_TOL}")
    return rho


def assert_povm(povm) -> None:
    """Assert each effect is PSD within 1e-9 and the effects sum to I within 1e-10.

    Reads the eigenvalues and the sum directly, not through ``linalg.Povm``.
    """
    effects = np.stack([eff for _, eff in povm.effects])
    assert np.linalg.eigvalsh(effects)[:, 0].min() >= -1e-9
    assert np.abs(effects.sum(axis=0) - np.eye(povm.dim)).max() < 1e-10


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor as the most significant subsystem.

    Raises DimensionCapError if the composed row dimension exceeds
    ``DEFAULT_DIM_CAP``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("tensor factors must be finite")
    rows = a.shape[0] * b.shape[0]
    if rows > DEFAULT_DIM_CAP:
        raise DimensionCapError(
            f"tensor product dimension {rows} exceeds cap {DEFAULT_DIM_CAP}"
        )
    return np.kron(a, b)


def tensor_power(a: np.ndarray, n: int) -> np.ndarray:
    """n-fold tensor power a (x) a (x) ... (x) a."""
    if n < 1:
        raise ValueError("tensor power requires n >= 1")
    out = np.asarray(a)
    for _ in range(n - 1):
        out = tensor_product(out, a)
    return out


def partial_trace(rho: np.ndarray, subsystem_dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``subsystem_dims`` lists the factor dimensions left to right (most
    significant first); their product must equal the operator dimension.
    Kept subsystems retain their original relative order.
    """
    rho = _as_square(rho, "rho")
    dims = [int(d) for d in subsystem_dims]
    if any(d < 1 for d in dims):
        raise ValueError("subsystem dimensions must be positive")
    total = int(np.prod(dims))
    if total != rho.shape[0]:
        raise ValueError(
            f"product of subsystem dims {dims} = {total} does not match operator dim {rho.shape[0]}"
        )
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must be a nonempty set of subsystem indices")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")

    n = len(dims)
    kept_dim = int(np.prod([dims[k] for k in keep]))
    resh = rho.reshape(dims + dims)
    # Row index of subsystem i is axis i, column index is axis n + i; traced
    # subsystems get the same einsum label on both.
    row_idx = list(range(n))
    col_idx = [n + i if i in keep else i for i in range(n)]
    out_idx = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(resh, row_idx + col_idx, out_idx)
    return reduced.reshape(kept_dim, kept_dim)


def clamp_psd_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Zero out negative eigenvalues down to -PSD_EIG_TOL; larger negatives error."""
    w = np.asarray(w, dtype=float)
    if w.min(initial=0.0) < -PSD_EIG_TOL:
        raise ValueError(f"eigenvalue {w.min():.3e} below -{PSD_EIG_TOL}; operator is not PSD")
    return np.maximum(w, 0.0)


def _truncate_numerical_zeros(w: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Zero eigenvalues that are indistinguishable from 0 at working precision.

    A rank-deficient operator comes out of eigh with junk eigenvalues of
    order dim * eps * max(w); square-rooting those would inject O(sqrt(eps))
    noise per spurious mode, which at dimension 4096 dominates everything
    else. Anything below 64 * dim * eps relative to the top eigenvalue, or
    below the caller-supplied absolute noise ``floor``, is treated as an
    exact zero.
    """
    if w.size == 0 or w.max() <= 0.0:
        return w
    cutoff = max(w.max() * w.size * np.finfo(float).eps * 64.0, floor)
    w = w.copy()
    w[w < cutoff] = 0.0
    return w


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """F(a, b) = Tr|sqrt(a) sqrt(b)| = Tr sqrt(sqrt(a) b sqrt(a)).

    Eigendecomposes ``a`` and keeps its support: with X = V_r sqrt(w_r) over
    the r eigenvalues that survive the clamp and the truncation,
    sqrt(a) b sqrt(a) = V_r X^dag b X V_r^dag has the nonzero spectrum of the
    r x r matrix X^dag b X, so only that is diagonalised. Every intermediate
    stays Hermitian. Symmetric in its arguments; equals |<x|y>| on pure
    states.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    wa, va = np.linalg.eigh(_as_square(a))
    wa = _truncate_numerical_zeros(clamp_psd_eigenvalues(wa))
    support = wa > 0.0
    x = va[:, support] * np.sqrt(wa[support])
    inner = x.conj().T @ b @ x
    # the sandwich carries matmul noise at scale lam_max(a) * lam_max(b);
    # Tr(b) bounds lam_max(b) for PSD b without another decomposition
    noise_floor = (
        64.0 * a.shape[0] * np.finfo(float).eps * float(wa.max()) * max(float(np.trace(b).real), 0.0)
    )
    w = _truncate_numerical_zeros(
        clamp_psd_eigenvalues(np.linalg.eigvalsh(inner)), floor=noise_floor
    )
    f = float(np.sqrt(w).sum())
    return float(min(max(f, 0.0), 1.0))


def parity_factor(m: int, n: int, theta: float, bit: int) -> np.ndarray:
    """F with W_bit = F F^T for the commitment's N-fold parity mixture.

    The columns of the single-string factor are the product states of the
    2^(M-1) M-bit strings of parity ``bit``, scaled by 2^(-(M-1)/2); the
    N-fold power is its ``kron`` power, so F is 2^(MN) x 2^((M-1)N). Then
    F(W_0, W_1) = ||F_0^T F_1||_1 (polar decomposition), an r_0 x r_1
    singular-value problem in place of a 2^(MN)-dimensional eigenproblem.
    """
    states = ot.make_states(theta)
    columns = [
        reduce(np.kron, (states[b] for b in s))
        for s in itertools.product((0, 1), repeat=m)
        if sum(s) % 2 == bit
    ]
    single = np.stack(columns, axis=1) / math.sqrt(len(columns))
    return reduce(np.kron, [single] * n)


def parity_trace_distance(f0: np.ndarray, f1: np.ndarray) -> float:
    """D(W_0, W_1) from the parity factors, W_b = F_b F_b^T.

    With A = [F_0 F_1] = QR (reduced) and J = diag(I, -I), W_0 - W_1 =
    A J A^T = Q (R J R^T) Q^T, and Q has orthonormal columns, so the nonzero
    spectrum of W_0 - W_1 is that of the symmetric R J R^T. Its size is
    r_0 + r_1 = 2^((M-1)N+1), below 2^(MN) whenever N >= 2.
    """
    r = np.linalg.qr(np.hstack([f0, f1]), mode="r")
    j = np.concatenate([np.ones(f0.shape[1]), -np.ones(f1.shape[1])])
    return 0.5 * float(np.abs(np.linalg.eigvalsh((r * j) @ r.T)).sum())


def steering_certificate(f0: np.ndarray, f1: np.ndarray) -> tuple[float, float]:
    """|<phi|psi_b>|^2 for b = 0, 1: the steering committer's unveil probabilities.

    Each factor is a purification of its W_b, psi_b = vec(F_b), with the
    committer holding the column index. The SVD F_0^T F_1 = U S V^T gives
    the Uhlmann rotation: psi_1 = vec(F_1 V U^T) still purifies W_1, and
    <psi_0|psi_1> = Tr S = F(W_0, W_1). The committer prepares phi, the
    normalised psi_0 + psi_1, so each overlap squared is (1 + F)/2.
    """
    u, _, vt = np.linalg.svd(f0.T @ f1)
    psi = (f0.ravel(), (f1 @ vt.T @ u.T).ravel())
    phi = psi[0] + psi[1]
    phi /= np.linalg.norm(phi)
    return tuple(float(phi @ p) ** 2 for p in psi)


def random_pure(dim: int, seed) -> np.ndarray:
    """Seeded Haar-ish random pure state from a standard complex normal vector."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, seed) -> np.ndarray:
    """Seeded random density operator G G^dag / Tr(G G^dag)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    # symmetrize away the last ulp of asymmetry from the matmul
    return (rho + rho.conj().T) / 2
