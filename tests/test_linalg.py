import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectdyn import classify_scaled_projection, commutator_norm, linalg, validate_effect
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


@pytest.mark.parametrize("dim", range(1, 9))
def test_spectral_norm_of_a_stack_is_each_matrix_s(dim):
    # one SVD maximum per slice, bit for bit its own call and np.linalg.norm(·, 2)'s
    rng = np.random.default_rng(dim)
    stack = rng.standard_normal((5, dim, dim)) + 1j * rng.standard_normal((5, dim, dim))
    norms = linalg.spectral_norm(stack)
    assert norms.shape == (5,)
    assert norms.tolist() == [linalg.spectral_norm(m) for m in stack]
    assert norms.tobytes() == np.linalg.norm(stack, 2, axis=(-2, -1)).tobytes()
    assert type(linalg.spectral_norm(stack[0])) is float


def test_unitary_exp_rejects_a_phase_that_overflows():
    # an eigenvalue admitted just above 1 times the largest float is not finite
    d = linalg.eigh(np.diag([-0.9e-9, 1.0 + 0.9e-9]))
    with pytest.raises(EffectdynError, match="phase t\\*w must be finite"):
        linalg.unitary_from_decomposition(d, np.finfo(float).max)


def test_commutator_convention_and_dimension_check():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    y = np.diag([1.0, 0.0])
    assert np.array_equal(linalg.commutator(x, y), x @ y - y @ x)
    # linalg.commutator takes checked operands; commutator_norm checks their dimensions.
    with pytest.raises(DimensionMismatchError, match=r"^dimension mismatch: \(2, 3\)$"):
        commutator_norm(validate_effect(np.diag([1.0, 0.0])), validate_effect(np.eye(3) / 2.0))


def test_norms_agree_on_hermitian(rng):
    m = random_hermitian(4, rng)
    assert linalg.operator_norm(m) == pytest.approx(linalg.spectral_norm(m), abs=1e-12)


def test_operator_norm_of_huge_entries_is_finite():
    # M + M† of these overflows, though every entry is finite; halving first does not
    assert linalg.operator_norm(np.diag([1e308, -1e308])) == 1e308
    assert linalg.operator_norm(np.array([[0.0, 1e308], [1e308, 0.0]])) == 1e308
    stack = np.array([np.full((2, 2), 8e307), 1e308 * np.eye(2)])
    assert linalg.operator_norms(stack).tolist() == pytest.approx([1.6e308, 1e308], rel=1e-15)


@settings(deadline=None, max_examples=60)
@given(
    dim=st.integers(1, 6),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-300, 300),
    skew=st.booleans(),
)
def test_hermitian_part_is_the_half_sum_bit_for_bit(dim, count, seed, exponent, skew):
    # M/2 + M†/2 rounds to the bits of (M + M†)/2 for every entry of
    # magnitude at least 2**-1021, whose halves are exact; a skew stack makes
    # the sums cancel. Parts below 2**-1021, zeros included, are raised to it:
    # subnormal entries, and the sign of a zero, may differ.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, count, dim, dim)) * 10.0**exponent
    m = x[0] + 1j * x[1]
    if skew:
        m = m - linalg.adjoint(m) * (1.0 + np.finfo(float).eps * rng.integers(-4, 5, m.shape))
    parts = np.stack([m.real, m.imag])
    small = np.abs(parts) < 2.0**-1021
    parts[small] = np.copysign(2.0**-1021, parts[small])
    m = parts[0] + 1j * parts[1]
    assert linalg.hermitian_part(m).tobytes() == ((m + linalg.adjoint(m)) / 2.0).tobytes()


def _reference_hermitian_parts(stack):
    """Each slice's defect max|M - M†| and bound HERMITICITY_RTOL * max(1, max|M|), unscaled."""
    with np.errstate(over="ignore"):
        defect = np.max(np.abs(stack - linalg.adjoint(stack)), axis=(-2, -1)).tolist()
        scale = np.max(np.abs(stack), axis=(-2, -1)).tolist()
    return defect, [linalg.HERMITICITY_RTOL * max(1.0, x) for x in scale]


@settings(deadline=None, max_examples=200)
@given(
    dim=st.integers(1, 8),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-300, 300),
    skew=st.sampled_from([0.0, 1e-13, 1.0]),
)
def test_hermiticity_defects_and_bounds_are_those_of_the_unscaled_entries(
    dim, count, seed, exponent, skew
):
    # taken from M/2 and (M - M†)/2 and scaled back, they have the bits of the
    # maxima over M for parts of magnitude at least 2**-1021, subnormal defects
    # included (a skew of 1e-13 at exponent -300 makes them); smaller parts,
    # zeros included, are raised to it
    rng = np.random.default_rng(seed)
    shape = (2, count, dim, dim)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5, shape)
    m = (x[0] + 1j * x[1]) * 10.0**exponent
    m = linalg.hermitian_part(m) + skew * m
    parts = np.stack([m.real, m.imag])
    small = np.abs(parts) < 2.0**-1021
    parts[small] = np.copysign(2.0**-1021, parts[small])
    m = parts[0] + 1j * parts[1]
    assert linalg.hermitian_parts(m)[1:] == _reference_hermitian_parts(m)


def test_a_subnormal_defect_keeps_the_bits_of_the_unscaled_one():
    # |M - M†| = sqrt(2) * 2**-1072 rounds to 6 * 2**-1074; taken over
    # (M - M†)/4 and scaled back it would round to 4 * 2**-1074
    a = 2.0**-1020
    b = a + 2.0**-1072
    m = np.array([[a, complex(a, a)], [complex(b, -b), a]])[None]
    assert linalg.hermitian_parts(m)[1] == _reference_hermitian_parts(m)[0] == [6 * 2.0**-1074]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_defect_beyond_the_float_range_is_refused_at_a_finite_bound():
    # 0.5 I plus an anti-Hermitian part: |M - M†| and max|M| both pass the float range
    z = 1.5e308 + 1.5e308j
    anti = np.array([[0.5, z], [-np.conj(z), 0.5]])
    _, defects, bounds = linalg.hermitian_parts(anti[None])
    assert defects == [math.inf] and math.isfinite(bounds[0])
    with pytest.raises(NonHermitianError, match=r"defect inf exceeds tolerance 2\.121e\+298"):
        linalg.require_hermitian(anti)
    # below the float range, a stack with an entry of modulus 2**1022 or more
    # takes its defects from (M - M†)/4, scaled back: the same as unscaled here
    big = np.array([[4.5e307, 0.25 + 3e300j], [0.5 - 1e300j, 1.0]])[None]
    assert linalg.hermitian_parts(big)[1:] == _reference_hermitian_parts(big)


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
