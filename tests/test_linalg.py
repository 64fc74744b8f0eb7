import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectdyn import classify_scaled_projection, linalg, validate_effect
from effectdyn.errors import DimensionMismatchError, EffectdynError, NonHermitianError

from support import random_hermitian


def test_require_hermitian_symmetrizes_roundoff():
    m = np.array([[1.0, 0.5 + 1e-14j], [0.5 - 3e-14j, 0.25]])
    h = linalg.require_hermitian(m)
    assert np.array_equal(h, h.conj().T)


def test_require_hermitian_rejects_skew():
    with pytest.raises(NonHermitianError):
        linalg.require_hermitian(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_hermiticity_defect_is_scale_relative():
    big = 1e8 * np.eye(2)
    big[0, 1] = 1e-4  # relative defect 1e-12, under the 1e-10 gate
    linalg.require_hermitian(big)


def test_eigh_reconstructs_and_orders(rng):
    m = random_hermitian(5, rng)
    d = linalg.eigh(m)
    assert np.all(np.diff(d.eigenvalues) >= 0)
    rebuilt = (d.vectors * d.eigenvalues) @ d.vectors.conj().T
    assert np.max(np.abs(rebuilt - (m + m.conj().T) / 2)) < 1e-12


def test_eigh_known_values():
    # (1/2) * ones has spectrum {0, 1}
    d = linalg.eigh(np.full((2, 2), 0.5))
    assert np.allclose(d.eigenvalues, [0.0, 1.0], atol=1e-15)


def test_clustering_groups_degenerate_eigenvalues():
    # eigenvalues within the cluster gap count as one; the classifier owns the grouping
    out = classify_scaled_projection(validate_effect(np.diag([0.0, 0.5, 0.5 + 1e-12])))
    assert out.scale == pytest.approx(0.5, abs=1e-12)
    assert linalg.projection_defect(out.projection.matrix) < 1e-12
    assert np.trace(out.projection.matrix).real == pytest.approx(2.0, abs=1e-12)
    assert classify_scaled_projection(validate_effect(np.diag([0.5, 0.5 + 1e-12, 1.0]))) is None


def unitary_exp(a, t: float) -> np.ndarray:
    return linalg.unitary_from_decomposition(linalg.eigh(a), t)


def test_unitary_exp_identity_at_zero_exactly():
    a = np.diag([1.0, 0.5])
    assert np.array_equal(unitary_exp(a, 0.0), np.eye(2))


def test_unitary_exp_diagonal_case():
    a = np.diag([1.0, 0.5])
    u = unitary_exp(a, 0.7)
    expected = np.diag([np.exp(-0.7j), np.exp(-0.35j)])
    assert np.max(np.abs(u - expected)) < 1e-15


def test_unitary_exp_is_unitary(rng):
    a = random_hermitian(4, rng)
    u = unitary_exp(a, -2.3)
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-13


def test_unitary_exp_rejects_a_phase_that_overflows():
    # an eigenvalue admitted just above 1 times the largest float is not finite
    d = linalg.eigh(np.diag([-0.9e-9, 1.0 + 0.9e-9]))
    with pytest.raises(EffectdynError, match="phase t\\*w must be finite"):
        linalg.unitary_from_decomposition(d, np.finfo(float).max)


def test_commutator_convention_and_dimension_check():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    y = np.diag([1.0, 0.0])
    assert np.array_equal(linalg.commutator(x, y), x @ y - y @ x)
    with pytest.raises(DimensionMismatchError):
        linalg.commutator(x, np.eye(3))


def test_norms_agree_on_hermitian(rng):
    m = random_hermitian(4, rng)
    assert linalg.operator_norm(m) == pytest.approx(linalg.spectral_norm(m), abs=1e-12)


def test_trace_inner():
    a = np.diag([1.0, 0.0])
    b = np.diag([1.0, 0.5])
    assert linalg.trace_inner(a, b) == pytest.approx(1.0)


@settings(deadline=None, max_examples=25)
@given(dim=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), t=st.floats(-20, 20))
def test_unitary_group_law(dim, seed, t):
    # e^{-i(t+s)a} = e^{-ita} e^{-isa}, the one-parameter group property
    a = random_hermitian(dim, np.random.default_rng(seed))
    s = 0.5 * t + 1.0
    lhs = unitary_exp(a, t + s)
    rhs = unitary_exp(a, t) @ unitary_exp(a, s)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_projection_defect():
    assert linalg.projection_defect(np.diag([1.0, 0.0])) == 0.0
    assert linalg.projection_defect(np.diag([0.5, 0.0])) == pytest.approx(0.25)


def test_half_angle_identity_for_deviation_scale():
    # |e^{-it} - 1| = sqrt(2(1 - cos t)) underpins the closed-form deviation
    for t in (0.0, 0.3, math.pi, 5.0):
        assert abs(np.exp(-1j * t) - 1) == pytest.approx(math.sqrt(2 * (1 - math.cos(t))), abs=1e-12)
