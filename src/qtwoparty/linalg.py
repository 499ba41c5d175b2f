"""Dense linear algebra on small Hilbert spaces.

The protocol modules share the primitives here: the integer check
``check_integer`` that every count and seed goes through, the pure-state
check, the measurement carrier ``Povm`` and the trace distance

    D(x, y) = (1/2) Tr|x - y|

with the trace norm under it, for one matrix or a stack.

Operators are plain numpy arrays (real or complex); the functions are
dtype-agnostic, and real symmetric input keeps the much faster real LAPACK
paths. A ``Povm`` is a valid measurement or is not constructed; its
constructor is the one place that checks hermiticity, positivity and
completeness of measurement effects. The constraint residuals of
``consistency`` take their marginals with their own einsums, and ``bc``
computes f in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Dimensions above this are refused (``bc.build_w`` and the feasibility
# search's dims); keeps every eigendecomposition desk-scale.
DEFAULT_DIM_CAP = 4096

# Invariant tolerances for the operator carriers.
HERMITICITY_ATOL = 1e-10
PSD_EIG_TOL = 1e-9
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


def hermiticity_defect(m: np.ndarray) -> np.ndarray:
    """Max entrywise |M - M^dagger|, for one matrix or each of a stack (..., n, n)."""
    return np.abs(m - np.swapaxes(m.conj(), -1, -2)).max(axis=(-2, -1))


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


def check_integer(name: str, value, least: int) -> int:
    """``value`` as an int >= ``least``; a ValueError naming ``name`` otherwise.

    A bool and a fractional or non-numeric value are refused; an integral
    value of another type (3.0, np.int64(3)) is returned as an int.
    """
    try:
        as_int = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        as_int = None
    if as_int is None or as_int != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if as_int < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return as_int


def projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a state vector."""
    psi = np.asarray(psi)
    return np.outer(psi, psi.conj())


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
    """Ordered list of distinctly labeled measurement effects on one Hilbert space.

    A Povm is a valid measurement or is not constructed. Construction
    raises ValueError, naming the invariant, the label and the magnitude,
    unless the effects are square with one dimension, the labels are
    distinct, each effect is Hermitian within ``HERMITICITY_ATOL`` with
    smallest eigenvalue at least ``-PSD_EIG_TOL``, and the effects sum to
    the identity within ``POVM_COMPLETENESS_ATOL`` (entrywise). The stored
    arrays are the ones given.
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
        labels = [label for label, _ in mats]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ValueError(f"not a POVM: labels must be distinct, repeated: {repeated}")
        # one stacked pass; each invariant reports its worst effect
        stack = np.stack([m for _, m in mats])
        checks = (
            ("hermiticity", labels, HERMITICITY_ATOL, hermiticity_defect(stack)),
            ("positivity", labels, PSD_EIG_TOL, -np.linalg.eigvalsh(stack)[:, 0]),
            ("completeness", ["sum"], POVM_COMPLETENESS_ATOL,
             [np.abs(stack.sum(axis=0) - np.eye(stack.shape[1])).max()]),
        )
        for invariant, names, tol, magnitudes in checks:
            i = int(np.argmax(magnitudes))
            if magnitudes[i] > tol:
                raise ValueError(f"not a POVM: {invariant}[{names[i]}] fails by "
                                 f"{float(magnitudes[i]):.3e} (tolerance {tol})")
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

