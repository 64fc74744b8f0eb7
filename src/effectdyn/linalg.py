"""Dense complex linear algebra for Hermitian operators.

Spectral decompositions, unitary propagators, commutators and norms on
small dense matrices; the Hermiticity check, adjoints, unitaries and norms
also take (k, d, d) stacks. Everything here is pure and operates on
immutable inputs; returned arrays are new allocations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonHermitianError

# Max-entry deviation of M from M†, relative to the max entry magnitude.
HERMITICITY_RTOL = 1e-10


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce input to a square complex matrix with finite entries."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(m: np.ndarray) -> np.ndarray:
    """M† of a matrix, or of each slice of a stack."""
    return m.swapaxes(-1, -2).conj()


def hermitian_parts(stack: np.ndarray) -> tuple[np.ndarray, list[float], list[float]]:
    """Check every slice of a (k, d, d) stack for Hermiticity, without raising.

    Returns the symmetrized slices (M + M†)/2, each slice's defect
    max|M - M†| and the bound it must not exceed, HERMITICITY_RTOL times
    max(1, max|M|). Symmetrizing removes round-off asymmetry before any
    eigendecomposition.
    """
    adj = adjoint(stack)
    defect = np.maximum.reduce(np.abs(stack - adj), axis=(-2, -1), initial=0.0).tolist()
    scale = np.maximum.reduce(np.abs(stack), axis=(-2, -1), initial=0.0).tolist()
    return (stack + adj) / 2.0, defect, [HERMITICITY_RTOL * max(1.0, x) for x in scale]


def non_hermitian_error(defect: float, bound: float) -> NonHermitianError:
    return NonHermitianError(f"hermiticity defect {defect:.3e} exceeds tolerance {bound:.3e}")


def require_hermitian(m) -> np.ndarray:
    """Check Hermiticity and return the symmetrized matrix (M + M†)/2.

    The one-matrix case of hermitian_parts; raises NonHermitianError.
    """
    h, defect, bound = hermitian_parts(as_complex_matrix(m)[None])
    if defect[0] > bound[0]:
        raise non_hermitian_error(defect[0], bound[0])
    return h[0]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix.

    ``eigenvalues`` is real and ascending; column j of ``vectors`` is the
    eigenvector for eigenvalue j.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]


def eigh(m) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    Raises NonHermitianError when the input fails the Hermiticity check;
    eigenvalues come back ascending and real.
    """
    h = require_hermitian(m)
    w, v = np.linalg.eigh(h)
    return SpectralDecomposition(_readonly(w), _readonly(v))


def unitary_from_decomposition(d: SpectralDecomposition, t: float) -> np.ndarray:
    """exp(-i t a) from a precomputed decomposition of a, or of each slice of a stacked one.

    Exact for Hermitian a; returns the identity exactly at t = 0.
    """
    if t == 0:
        return np.broadcast_to(np.eye(d.dim, dtype=complex), d.vectors.shape).copy()
    phase = np.exp(-1j * t * d.eigenvalues)
    return (d.vectors * phase[..., None, :]) @ adjoint(d.vectors)


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"incompatible shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


def operator_norm(m) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix."""
    return float(operator_norms(require_hermitian(m)))


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest absolute eigenvalue of each matrix in a stack (or of one matrix).

    The slices are Hermitian up to round-off from batched arithmetic; each is
    symmetrized, without a Hermiticity check, before its eigensolve.
    """
    h = (stack + adjoint(stack)) / 2.0
    return np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1)


def spectral_norm(m) -> float:
    """Largest singular value; valid for arbitrary (non-Hermitian) matrices."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def projection_defect(m: np.ndarray) -> float:
    """Spectral norm of M^2 - M (zero iff M is idempotent)."""
    return spectral_norm(m @ m - m)


def trace_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """tr(A B) without forming the full product."""
    return complex(np.sum(a * b.T))
