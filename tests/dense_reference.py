"""Dense references for the package's roots, evolutions and time-dependent products.

Every function takes plain arrays, never an Effect, so none can read a
cached decomposition or root: each eigensolves what it needs itself. The
module imports numpy and nothing from effectdyn, so it shares no code with
what it checks (test_dense_reference_imports_only_numpy).
"""

from __future__ import annotations

import numpy as np

# The one zero rule for roots: eigenvalues at or below
# ROOT_ZERO_CUTOFF * max(1, top eigenvalue) count as exact zeros, the
# package's rule (effects.SQRT_ZERO_CUTOFF) written out again.
ROOT_ZERO_CUTOFF = 1e-13


def root(a: np.ndarray) -> np.ndarray:
    """a^{1/2} of a PSD matrix: its eigenvalues clipped at 0, the zero rule's taken as 0."""
    w, v = np.linalg.eigh(a)
    r = np.maximum(w, 0.0)
    r[r <= ROOT_ZERO_CUTOFF * max(1.0, w[-1])] = 0.0
    return (v * np.sqrt(r)) @ v.conj().T


def unitary(a: np.ndarray, t: float) -> np.ndarray:
    """e^{-ita} of a Hermitian a, formed densely from its eigensystem."""
    w, v = np.linalg.eigh(a)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def conjugation(a: np.ndarray, m: np.ndarray, t: float) -> np.ndarray:
    """e^{-ita} m e^{ita}: b(t|a) for m = b, and the state evolved for -t for m = rho."""
    u = unitary(a, t)
    return u @ m @ u.conj().T


def time_seq_product(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """a[t]b = s (u b u†) s, s = a^{1/2} and u = e^{-ita}."""
    s = root(a)
    return s @ conjugation(a, b, t) @ s


def gap_polar(a: np.ndarray, b: np.ndarray, t: float) -> float:
    """||a[t]b - b[t]a|| by the polar route, with no frame and no a[t]b formed.

    With X = a^{1/2} b^{1/2} = U|X| (U = P Q† from one SVD X = P S Q†),
    a o b = X X† = U (b o a) U†, so with V_t = e^{itb} e^{-ita} U and
    a[t]b = e^{-ita} (a o b) e^{ita}, the gap is
    ||V_t (b o a) V_t† - b o a|| = ||[V_t, b o a]||, b o a = X† X. It holds
    for any polar factor, so a singular X needs no care.
    """
    x = root(a) @ root(b)
    p, _, qh = np.linalg.svd(x)
    v_t = unitary(b, -t) @ unitary(a, t) @ (p @ qh)
    c = x.conj().T @ x
    return float(np.linalg.norm(v_t @ c - c @ v_t, 2))
