"""Dense linear algebra on small Hilbert spaces.

The protocol modules share the primitives here: Hermitian spectral
decomposition, POVM and pure-state checks, and the trace distance

    D(x, y) = (1/2) Tr|x - y|

with the trace norm under it, for one matrix or a stack.

Operators are plain numpy arrays (real or complex); the functions are
dtype-agnostic, and real symmetric input keeps the much faster real LAPACK
paths. The constraint residuals of ``consistency`` take their marginals
with their own einsums, and ``bc`` computes f in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Dimensions above this are refused (``bc.build_w`` and the feasibility
# search's dims); keeps every eigendecomposition desk-scale.
DEFAULT_DIM_CAP = 4096

# Invariant tolerances for the operator carriers.
HERMITICITY_ATOL = 1e-10
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
