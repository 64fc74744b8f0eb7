"""Dense complex linear algebra for Hermitian operators.

Spectral decompositions, commutators and norms on small dense matrices;
the Hermiticity check, adjoints and norms also take (k, d, d) stacks.
Everything here is pure and operates on immutable inputs; returned arrays
are new allocations. The checked entry points (as_complex_matrix,
require_hermitian, eigh, operator_norm) serve outside callers; the package
reads matrices it has admitted through the unchecked ones (hermitian_eigh,
operator_norms, commutator). unitary_from_decomposition has no caller in
the package: every evolution is a read of evolution.EigenFrame. It stays
while bench/tracer.py traces it, and leaves with that span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EffectdynError, NonHermitianError

# Max-entry deviation of M from M†, relative to the max entry magnitude.
HERMITICITY_RTOL = 1e-10


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce input to a nonempty square complex matrix with finite entries."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionMismatchError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise EffectdynError("matrix entries must be finite")
    return m


def adjoint(m: np.ndarray) -> np.ndarray:
    """M† of a matrix, or of each slice of a stack."""
    return m.swapaxes(-1, -2).conj()


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(M + M†)/2 of a matrix or a stack, as M/2 + M†/2, which no finite entry overflows.

    The halves of entries of magnitude at least 2**-1021 are exact, so the sum
    has the bits of (M + M†)/2; subnormal entries and a zero's sign may differ.
    The package's one copy of it, but for hermitian_parts, which shares the
    halves with the Hermiticity defect, and serialization.trajectory_csv,
    which forms only the upper triangle.
    """
    h = m * 0.5
    h += adjoint(h)
    return h


def hermitian_parts(stack: np.ndarray) -> tuple[np.ndarray, list[float], list[float]]:
    """Check every slice of a (k, d, d) stack for Hermiticity, without raising.

    Returns the symmetrized slices (M + M†)/2 (hermitian_part), each slice's
    defect max|M - M†| and the bound it must not exceed, HERMITICITY_RTOL times
    max(1, max|M|). Symmetrizing removes round-off asymmetry before any
    eigendecomposition. The moduli are taken over M/2 and, in a stack with an
    entry of modulus 2**1022 or more, over (M - M†)/4, so none overflows: a
    defect beyond the float range is inf, its bound finite. Scaled back, both
    keep the unscaled bits where each part of M is 0 or at least 2**-1021 in
    magnitude, but for a subnormal defect in such a stack.
    """
    h = stack * 0.5
    h_adj = adjoint(h)
    d = h - h_adj  # (M - M†)/2
    scale = np.maximum.reduce(np.abs(h), axis=(-2, -1), initial=0.0).tolist()
    h += h_adj
    huge = max(scale, default=0.0) >= 2.0**1021
    d *= 0.5 if huge else 2.0
    defect = np.maximum.reduce(np.abs(d), axis=(-2, -1), initial=0.0).tolist()
    bounds = [max(HERMITICITY_RTOL, 2.0 * HERMITICITY_RTOL * x) for x in scale]
    return h, [4.0 * x for x in defect] if huge else defect, bounds


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


def readonly(a: np.ndarray) -> np.ndarray:
    """``a`` itself, made read-only: how every cached or admitted array is stored."""
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
    return hermitian_eigh(require_hermitian(m))


def hermitian_eigh(h: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of a matrix that is already Hermitian bit for bit, unchecked.

    For a matrix that has been through require_hermitian or an admission,
    (H + H†)/2 is H itself, so eigh's check and symmetrization would only
    repeat work. The arrays returned are read-only.
    """
    w, v = np.linalg.eigh(h)
    return SpectralDecomposition(readonly(w), readonly(v))


def unitary_from_decomposition(d: SpectralDecomposition, t: float) -> np.ndarray:
    """exp(-i t a) from a precomputed decomposition of a, or of each slice of a stacked one.

    Exact for Hermitian a; returns the identity exactly at t = 0. Raises
    EffectdynError where t * w is not finite (it overflows for an eigenvalue w
    beyond 1 at a finite t near the float limit). No package code calls it:
    evolutions read EigenFrame, whose time rule is EigenFrame.check_phases.
    It is kept only because bench/tracer.py traces it, and goes with that span.
    """
    if t == 0:
        return np.broadcast_to(np.eye(d.dim, dtype=complex), d.vectors.shape).copy()
    if not math.isfinite(abs(float(t)) * float(np.abs(d.eigenvalues).max())):
        raise EffectdynError(f"phase t*w must be finite, got t = {float(t)!r}")
    phase = np.exp(-1j * t * d.eigenvalues)
    return (d.vectors * phase[..., None, :]) @ adjoint(d.vectors)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] = AB - BA of two matrices of one shape, unchecked (callers check the dimensions)."""
    return a @ b - b @ a


def operator_norm(m) -> float:
    """Largest absolute eigenvalue of a Hermitian matrix."""
    return float(operator_norms(require_hermitian(m)))


def operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest absolute eigenvalue of each matrix in a stack (or of one matrix).

    The slices are Hermitian up to round-off from batched arithmetic; each is
    symmetrized, without a Hermiticity check, before its eigensolve.
    """
    return np.max(np.abs(np.linalg.eigvalsh(hermitian_part(stack))), axis=-1)


def spectral_norm(m) -> float | np.ndarray:
    """Largest singular value of a matrix, or of each matrix in a stack; any matrices.

    The value np.linalg.norm(m, 2, axis=(-2, -1)) takes, without its axis
    handling; one matrix gives a float. The package's one route to the
    spectral norm, but for the closed_forms oracles, which keep their own.
    """
    s = np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False).max(axis=-1)
    return float(s) if s.ndim == 0 else s


def projection_defect(m: np.ndarray) -> float:
    """Spectral norm of M^2 - M (zero iff M is idempotent)."""
    return spectral_norm(m @ m - m)


def trace_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """tr(A B) without forming the full product."""
    return complex(np.sum(a * b.T))
