"""Dense linear algebra on small Hilbert spaces.

The protocol modules share the primitives here: Hermitian spectral
decomposition, POVM and state checks, and the two standard
distinguishability measures

    trace distance   D(x, y) = (1/2) Tr|x - y|
    fidelity         F(w, t) = Tr|sqrt(w) sqrt(t)|

Operators are plain numpy arrays (real or complex); the functions are
dtype-agnostic, and real symmetric input keeps the much faster real LAPACK
paths. Tensor composition and partial trace serve only the dense W
operators of ``bc.build_w`` and the test suite's oracles; the constraint
residuals of ``consistency`` take their marginals with their own einsums.
Subsystem ordering is most-significant-left: in ``tensor_product(a, b)``
the left factor varies slowest in the row index, matching ``numpy.kron``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Dimensions above this are refused (tensor composition, ``bc.build_w`` and
# the feasibility search's dims); keeps every eigendecomposition desk-scale.
DEFAULT_DIM_CAP = 4096

# Invariant tolerances for the operator carriers.
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
PSD_EIG_TOL = 1e-9
EIG_HERMITICITY_ATOL = 1e-8
PURE_NORM_ATOL = 1e-12
POVM_COMPLETENESS_ATOL = 1e-10


class DimensionCapError(ValueError):
    """Raised when a composed operator would exceed the dimension cap."""


def _as_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def hermiticity_defect(m: np.ndarray) -> float:
    """Max entrywise |M - M^dagger|."""
    return float(np.abs(m - m.conj().T).max())


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


def check_pure(psi: np.ndarray, *, name: str = "psi") -> np.ndarray:
    """Validate a pure-state vector: finite, 1-d, unit norm within 1e-12."""
    psi = np.asarray(psi)
    if psi.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {psi.shape}")
    if not np.isfinite(psi).all():
        raise ValueError(f"{name} has non-finite entries")
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > PURE_NORM_ATOL:
        raise ValueError(f"{name} norm {nrm} is not 1 within {PURE_NORM_ATOL}")
    return psi


def projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a state vector."""
    psi = np.asarray(psi)
    return np.outer(psi, psi.conj())


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


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns.

    Rejects input whose hermiticity defect exceeds ``EIG_HERMITICITY_ATOL``.
    """
    m = _as_square(m, "matrix")
    dev = hermiticity_defect(m)
    if dev > EIG_HERMITICITY_ATOL:
        raise ValueError(f"matrix not Hermitian within {EIG_HERMITICITY_ATOL}: defect {dev:.3e}")
    w, v = np.linalg.eigh(m)
    return w[::-1].copy(), v[:, ::-1].copy()


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


def trace_norm(m: np.ndarray) -> float:
    """Tr|M| for Hermitian M (sum of absolute eigenvalues)."""
    return float(trace_norms(_as_square(m)))


def trace_norms(m: np.ndarray) -> np.ndarray:
    """Tr|M| of each Hermitian matrix in a stack of shape (..., n, n), unchecked.

    Each entry has the bytes ``trace_norm`` gives for that matrix alone.
    """
    return np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) Tr|a - b| for equal-dimension Hermitian operators."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    d = 0.5 * trace_norm(a - b)
    return float(min(max(d, 0.0), 1.0))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """F(a, b) = Tr|sqrt(a) sqrt(b)| = Tr sqrt(sqrt(a) b sqrt(a)).

    Computed by eigendecomposing ``a``, sandwiching ``b`` between sqrt(a),
    and summing square roots of the clamped eigenvalues; this keeps every
    intermediate Hermitian. Symmetric in its arguments; equals |<x|y>| on
    pure states.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    wa, va = np.linalg.eigh(_as_square(a))
    wa = _truncate_numerical_zeros(clamp_psd_eigenvalues(wa))
    ra = (va * np.sqrt(wa)) @ va.conj().T
    inner = ra @ b @ ra
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


@dataclass(frozen=True)
class Povm:
    """Ordered list of labeled measurement effects on one Hilbert space.

    Structural problems (non-square, mismatched dimensions) are rejected at
    construction; the numeric invariants (hermiticity, positivity,
    completeness) are checked by :func:`validate_povm`, which reports rather
    than raises.
    """

    effects: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self):
        if not self.effects:
            raise ValueError("a POVM needs at least one effect")
        mats = []
        for label, m in self.effects:
            mats.append((label, _as_square(np.asarray(m), f"effect {label!r}")))
        dims = {m.shape[0] for _, m in mats}
        if len(dims) != 1:
            raise ValueError(f"effects have mismatched dimensions: {sorted(dims)}")
        object.__setattr__(self, "effects", tuple(mats))

    @property
    def dim(self) -> int:
        return self.effects[0][1].shape[0]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.effects)

    def effect(self, label: str) -> np.ndarray:
        for lab, m in self.effects:
            if lab == label:
                return m
        raise KeyError(label)

    def probabilities(self, rho: np.ndarray) -> dict[str, float]:
        """Born-rule outcome probabilities Tr(rho E) for each effect."""
        return {lab: float(np.trace(rho @ m).real) for lab, m in self.effects}


@dataclass(frozen=True)
class PovmViolation:
    invariant: str
    label: str
    magnitude: float

    def __str__(self) -> str:
        return f"{self.invariant}[{self.label}]: {self.magnitude:.3e}"


@dataclass(frozen=True)
class PovmValidation:
    violations: tuple[PovmViolation, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def validate_povm(povm: Povm) -> PovmValidation:
    """Report every violated POVM invariant with its magnitude.

    Checks each effect for hermiticity and positivity, and the effect sum
    for completeness (entrywise distance from the identity). An empty report
    means the POVM is valid.
    """
    violations: list[PovmViolation] = []
    total = np.zeros((povm.dim, povm.dim), dtype=complex)
    for label, m in povm.effects:
        dev = hermiticity_defect(m)
        if dev > HERMITICITY_ATOL:
            violations.append(PovmViolation("hermiticity", label, dev))
        w = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if w[0] < -PSD_EIG_TOL:
            violations.append(PovmViolation("positivity", label, float(-w[0])))
        total += m
    defect = float(np.abs(total - np.eye(povm.dim)).max())
    if defect > POVM_COMPLETENESS_ATOL:
        violations.append(PovmViolation("completeness", "sum", defect))
    return PovmValidation(tuple(violations))


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
