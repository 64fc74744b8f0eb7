import numpy as np
import pytest

from effectdyn import (
    CoexistenceWitness,
    Effect,
    commutator_norm,
    commutes,
    commuting_witness,
    distribution,
    effect_evolution,
    evolve_state,
    explorer,
    identity_effect,
    linalg,
    maximally_mixed_state,
    probability,
    sequential_product,
    validate_effect,
    validate_observable,
    validate_state,
    verify_coexistence_witness,
    zero_effect,
)
from effectdyn.effects import (
    SQRT_ZERO_CUTOFF,
    Admission,
    admit_effects,
    admit_in_order,
    product_tol,
    stacked_roots,
)
from effectdyn.errors import (
    DimensionMismatchError,
    EffectdynError,
    NonHermitianError,
    NotCommutingError,
    SpectrumOutOfRangeError,
    TraceNotOneError,
)

import dense_reference
from support import dense_route_allowance, random_effect, random_state, random_unitary
from support import reference_state, state_faults, state_outcome


@pytest.mark.parametrize(
    "make",
    [
        lambda: validate_effect(np.zeros((0, 0))),
        lambda: identity_effect(0),
        lambda: zero_effect(0),
        lambda: validate_state(np.zeros((0, 0))),
        lambda: explorer.random_effect(0, np.random.default_rng(0)),
    ],
    ids=["validate_effect", "identity_effect", "zero_effect", "validate_state", "random_effect"],
)
def test_empty_matrix_is_a_dimension_mismatch(make):
    with pytest.raises(DimensionMismatchError, match="nonempty square matrix"):
        make()


def test_validate_effect_accepts_boundaries():
    for m in (np.zeros((2, 2)), np.eye(2), np.diag([1.0, 0.5])):
        e = validate_effect(m)
        assert isinstance(e, Effect)
        assert not e.matrix.flags.writeable


def test_validate_effect_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        validate_effect(np.array([[0.5, 0.2], [0.3, 0.5]]))


def test_validate_effect_spectrum_bounds_carry_eigenvalue():
    with pytest.raises(SpectrumOutOfRangeError) as info:
        validate_effect(2 * np.eye(2))
    assert info.value.eigenvalue == pytest.approx(2.0)
    with pytest.raises(SpectrumOutOfRangeError) as info:
        validate_effect(np.diag([-0.01, 0.5]))
    assert info.value.eigenvalue == pytest.approx(-0.01)


# Hermitian, each part of each entry finite, but |z| of the off-diagonal
# entries passes the float range: an eigensolve returns NaN eigenvalues.
OVERFLOW = np.array([[0.5, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0.5]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_spectrum_that_is_not_finite_is_refused():
    for validate in (validate_effect, validate_state):
        with pytest.raises(SpectrumOutOfRangeError, match="eigenvalues are not finite"):
            validate(OVERFLOW)
    # in a stack, only its own slice is refused, in its turn
    stack = np.array([np.eye(2) / 2, OVERFLOW, np.diag([2.0, 0.0])])
    admission = Admission.of(stack)
    assert admission.admit(0, 1e-9).eig_max == 0.5
    with pytest.raises(SpectrumOutOfRangeError, match="not finite"):
        admission.admit(1, 1e-9)
    with pytest.raises(SpectrumOutOfRangeError, match="not finite"):
        admit_effects(stack, (1e-9,) * 3)
    # an eigenvalue that overflows makes the spectrum not finite: the others
    # are then rounding of the overflow (-5.6e292 for {0, 0, 3e308}), not
    # eigenvalues to report
    for dim in (2, 3):
        with pytest.raises(SpectrumOutOfRangeError, match="eigenvalues are not finite"):
            validate_effect(np.full((dim, dim), 1e308))
    # a product that overflows into NaN entries, whose eigensolve returns 0s
    a = validate_effect(np.diag([0.0, 1e200]), 1e308)
    b = validate_effect(np.full((2, 2), 0.5e154), 1e308)
    with pytest.raises(SpectrumOutOfRangeError, match="not finite"):
        sequential_product(a, b)


def test_validate_effect_checks_shape_and_finiteness():
    for m in (np.ones((2, 3)), np.zeros((0, 0)), np.ones(3)):
        with pytest.raises(DimensionMismatchError) as info:
            validate_effect(m)
        assert str(info.value) == f"expected a nonempty square matrix, got shape {m.shape}"
    with pytest.raises(EffectdynError, match="matrix entries must be finite"):
        validate_effect(np.full((2, 2), np.inf))


def _until_error(takes) -> list:
    """Each take() in turn as a value, up to and including the first that raises.

    A value is its type, matrix bits, tol and, for an Effect, eig_min and
    eig_max; an error is its type, text and eigenvalue.
    """
    outcomes = []
    for take in takes:
        try:
            x = take()
        except EffectdynError as exc:
            return [*outcomes, (type(exc), str(exc), repr(getattr(exc, "eigenvalue", None)))]
        extremes = (x.eig_min, x.eig_max) if isinstance(x, Effect) else None
        outcomes.append((type(x), x.matrix.tobytes(), x.tol, extremes))
    return outcomes


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", range(1, 9))
def test_admit_in_order_admits_as_one_matrix_at_a_time(dim, monkeypatch):
    rng = np.random.default_rng(dim)
    z = 1.5e308 + 1.5e308j
    spread = np.eye(dim, dtype=complex) / 2
    if dim > 1:
        spread[0, 1], spread[1, 0] = z, np.conj(z)
    skew = np.eye(dim, dtype=complex) / 2
    skew[0, -1] += 0.5j
    effect_faults = {
        "valid": random_effect(dim, rng).matrix,
        "non_hermitian": skew,
        "below": np.eye(dim) * -0.1,
        "above": np.eye(dim) * 1.1,
        "huge": np.full((dim, dim), 1e308),
        "non_finite_spectrum": spread,
    }
    state_cases = {
        fault: m
        for fault, m in state_faults(dim, rng).items()
        if m.ndim == 2 and 0 < m.shape[0] == m.shape[1] and np.isfinite(m).all()
    }
    wider, one = random_effect(dim + 1, rng).matrix, random_effect(1, rng).matrix
    rho = random_state(dim, rng).matrix
    for tol in (1e-9, 1e-3):
        for as_state, faults in ((False, effect_faults), (True, state_cases)):
            for fault, m in faults.items():
                # shapes interleaved; the state slots are 1 or 3
                matrices = [wider, m, one, rho]
                states = {1, 3} if as_state else {3}
                checks = [reference_state if k in states else validate_effect for k in range(4)]
                ref = _until_error([lambda c=c, x=x: c(x, tol) for c, x in zip(checks, matrices)])
                admitted = admit_in_order(matrices, tol, states)
                got = _until_error([lambda: next(admitted)] * 4)
                assert got == ref, (fault, as_state, tol)
    # one eigensolve per shape, all before the first matrix is admitted
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    admitted = admit_in_order([wider, rho, one, effect_faults["valid"]], 1e-9, {1})
    groups = [(1, 2, 2), (3, 1, 1)]  # at dim 1, one and the valid effect join rho
    if dim > 1:
        groups = [(1, dim + 1, dim + 1), (2, dim, dim), (1, 1, 1)]
    next(admitted)
    assert shapes == groups
    assert len(list(admitted)) == 3 and shapes == groups


def test_validate_effect_tolerates_roundoff_overshoot():
    e = validate_effect(np.diag([1.0 + 5e-10, -5e-10]))
    # raw extremes preserved
    assert e.eig_max > 1.0
    assert e.eig_min < 0.0


def test_effect_sqrt_known_value():
    e = validate_effect(np.diag([1.0, 0.5]))
    assert np.allclose(e.sqrt, np.diag([1.0, 2.0 ** -0.5]), atol=1e-15)


@pytest.mark.parametrize("dim", range(1, 9))
def test_decomposition_eigensolves_the_stored_matrix_as_is(monkeypatch, dim):
    # admission stores (M + M†)/2, which is Hermitian bit for bit, so the
    # cached decomposition is linalg.eigh's without its check: here M has a
    # round-off asymmetry that admission removes
    rng = np.random.default_rng(dim)
    effects = [random_effect(dim, rng), explorer.random_effect(dim, rng)]
    skewed = random_effect(dim, rng).matrix.copy()
    skewed[0, -1] += 1e-13j
    effects.append(validate_effect(skewed))
    for e in effects:
        assert np.array_equal(linalg.require_hermitian(e.matrix), e.matrix)
    expected = [linalg.eigh(e.matrix) for e in effects]

    def refuse(m):
        raise AssertionError("an admitted matrix is checked again")

    monkeypatch.setattr(linalg, "require_hermitian", refuse)
    monkeypatch.setattr(linalg, "hermitian_parts", refuse)
    for e, d in zip(effects, expected):
        got = e.decomposition
        assert got.eigenvalues.tobytes() == d.eigenvalues.tobytes()
        assert got.vectors.tobytes() == d.vectors.tobytes()
        assert not got.eigenvalues.flags.writeable and not got.vectors.flags.writeable
        roots = e.sqrt_eigenvalues
        assert roots is e.sqrt_eigenvalues  # cached: one array per effect
        assert not roots.flags.writeable
        w = np.clip(d.eigenvalues, 0.0, None)
        w[w <= SQRT_ZERO_CUTOFF * max(1.0, e.eig_max)] = 0.0
        assert np.array_equal(roots, np.sqrt(w))
        assert not e.sqrt.flags.writeable


@pytest.mark.parametrize("dim", range(1, 9))
def test_stacked_roots_decompose_fresh_effects_in_one_stacked_eigh(monkeypatch, dim):
    # effects without a cached decomposition get theirs, and their square
    # roots, from one eigh of their stack, bit for bit what each computes
    # alone; an effect listed twice is solved once, and a cached one is not
    # solved again
    rng = np.random.default_rng(dim)
    cached, a, b, c = (random_effect(dim, rng) for _ in range(4))
    cached.decomposition
    alone = [validate_effect(e.matrix) for e in (cached, a, b, c)]
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(np.shape(m)) or eigh(m))
    for e in alone:  # each alone, through its properties
        e.sqrt
    calls.clear()
    d, root, s = stacked_roots([a, cached, b, a, c])
    assert calls == [(3, dim, dim)]
    for e, want in zip((cached, a, b, c), alone):
        for name in ("eigenvalues", "vectors"):
            got = getattr(e.decomposition, name)
            assert got.tobytes() == getattr(want.decomposition, name).tobytes()
            assert not got.flags.writeable
        assert e.sqrt_eigenvalues.tobytes() == want.sqrt_eigenvalues.tobytes()
        assert not e.sqrt_eigenvalues.flags.writeable
        assert e.sqrt.tobytes() == want.sqrt.tobytes()
        assert not e.sqrt.flags.writeable
    order = (a, cached, b, a, c)
    assert np.array_equal(d.vectors, [e.decomposition.vectors for e in order])
    assert np.array_equal(root, [e.sqrt_eigenvalues for e in order])
    assert np.array_equal(s, [e.sqrt for e in order])
    # every effect fresh, each once: the stacks of the one pass themselves
    d, root, s = stacked_roots([validate_effect(e.matrix) for e in (a, b)])
    for k, want in enumerate(alone[1:3]):
        assert d.eigenvalues[k].tobytes() == want.decomposition.eigenvalues.tobytes()
        assert d.vectors[k].tobytes() == want.decomposition.vectors.tobytes()
        assert root[k].tobytes() == want.sqrt_eigenvalues.tobytes()
        assert s[k].tobytes() == want.sqrt.tobytes()


@pytest.mark.parametrize("dim", range(1, 9))
def test_effect_properties_fill_their_cache_without_the_stacked_gather(monkeypatch, dim):
    # a fresh effect's first property read runs the fill alone, bit for bit
    # the stacked values, and never stacked_roots, which would also gather
    # the cached arrays into new stacks
    rng = np.random.default_rng(dim)
    stacked = [random_effect(dim, rng) for _ in range(3)]
    d, root, s = stacked_roots(stacked)

    def no_gather(effects):
        raise AssertionError("stacked_roots was called")

    monkeypatch.setattr("effectdyn.effects.stacked_roots", no_gather)
    for k, e in enumerate(stacked):
        for first in ("decomposition", "sqrt_eigenvalues", "sqrt"):
            fresh = validate_effect(e.matrix)
            getattr(fresh, first)
            assert fresh.decomposition.eigenvalues.tobytes() == d.eigenvalues[k].tobytes()
            assert fresh.decomposition.vectors.tobytes() == d.vectors[k].tobytes()
            assert fresh.sqrt_eigenvalues.tobytes() == root[k].tobytes()
            assert fresh.sqrt.tobytes() == s[k].tobytes()


def test_effect_norm():
    assert validate_effect(np.diag([0.25, 0.75])).norm == pytest.approx(0.75)


def test_validate_state():
    rho = validate_state(np.eye(3) / 3)
    assert rho.dim == 3
    with pytest.raises(TraceNotOneError):
        validate_state(np.eye(2))
    with pytest.raises(SpectrumOutOfRangeError):
        validate_state(np.diag([1.5, -0.5]))
    assert np.allclose(maximally_mixed_state(4).matrix, np.eye(4) / 4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", range(1, 9))
def test_validate_state_is_the_reference_sequence(dim):
    faults = state_faults(dim, np.random.default_rng(dim))
    for fault, m in faults.items():
        for tol in (1e-9, 1e-3):
            got = state_outcome(validate_state, m, tol)
            assert got == state_outcome(reference_state, m, tol), (fault, tol)
            assert isinstance(got[0], bytes) == (fault == "valid"), (fault, tol)


def test_probability_known_and_clamped():
    rho = validate_state(np.diag([1.0, 0.0]))
    assert probability(rho, validate_effect(np.diag([1.0, 0.5]))) == 1.0
    assert probability(rho, zero_effect(2)) == 0.0
    assert probability(maximally_mixed_state(2), validate_effect(np.diag([1.0, 0.5]))) == pytest.approx(0.75)
    with pytest.raises(DimensionMismatchError):
        probability(rho, identity_effect(3))
    # two eigenvalues of rho at -0.9e-9 put tr(rho a) at -1.8e-9, beyond the
    # operands' tolerance but within the bound (d - 1) t_rho + t_a + ... that a
    # distribution allows: each probability is clamped as the distribution of
    # {a, I - a} clamps it
    rho = validate_state(np.diag([1.0 + 1.8e-9, -0.9e-9, -0.9e-9]))
    a = validate_effect(np.diag([0.0, 1.0, 1.0]))
    not_a = validate_effect(np.eye(3) - a.matrix)
    dist = distribution(validate_observable([a, not_a]), rho)
    assert dist.probabilities == (0.0, 1.0)
    assert (probability(rho, a), probability(rho, not_a)) == dist.probabilities


def test_sequential_product_frozen_value():
    # a = diag(1, 1/2), b = ones/2: a o b = (1/2)[[1, 2^-1/2], [2^-1/2, 1/2]]
    a = validate_effect(np.diag([1.0, 0.5]))
    b = validate_effect(np.full((2, 2), 0.5))
    expected = 0.5 * np.array([[1.0, 2.0 ** -0.5], [2.0 ** -0.5, 0.5]])
    assert np.max(np.abs(sequential_product(a, b).matrix - expected)) < 1e-15


def test_sequential_product_commuting_case_is_plain_product(rng):
    a = validate_effect(np.diag([0.2, 0.9]))
    b = validate_effect(np.diag([0.4, 0.1]))
    assert np.allclose(sequential_product(a, b).matrix, a.matrix @ b.matrix, atol=1e-15)


def test_sequential_product_identity_and_zero(rng):
    b = random_effect(3, rng)
    assert np.allclose(sequential_product(identity_effect(3), b).matrix, b.matrix, atol=1e-15)
    assert np.allclose(sequential_product(zero_effect(3), b).matrix, 0.0, atol=1e-15)


def test_sequential_product_dominated_by_first_factor(rng):
    for _ in range(20):
        a, b = random_effect(4, rng), random_effect(4, rng)
        diff = sequential_product(a, b).matrix - a.matrix
        assert np.max(np.linalg.eigvalsh(diff)) <= 1e-12


def test_commutes():
    a = validate_effect(np.diag([1.0, 0.5]))
    b = validate_effect(np.full((2, 2), 0.5))
    assert commutes(a, validate_effect(np.diag([0.5, 0.5])))
    assert not commutes(a, b)


def test_commutator_norm_of_operands_admitted_beyond_the_float_range_of_ab(rng):
    # a and b scaled by 2^k and 2^j, admitted at a tol of their scale: the norm
    # is that of the unit pair times 2^(k + j) exactly, even where ab overflows;
    # a commuting pair whose ab overflows reads 0, and a norm beyond the float
    # range is refused, with no RuntimeWarning on the way
    x, y = random_effect(3, rng), random_effect(3, rng)
    unit = commutator_norm(x, y)
    for k, j in ((0, 0), (600, 0), (0, 600), (600, 400), (1000, 20)):
        a = validate_effect(x.matrix * 2.0**k, 2.0**k)
        b = validate_effect(y.matrix * 2.0**j, 2.0**j)
        assert commutator_norm(a, b) == unit * 2.0 ** (k + j)
    a = validate_effect(np.diag([0.5, 0.25]) * 2.0**600, 2.0**600)
    b = validate_effect(np.diag([0.3, 0.7]) * 2.0**600, 2.0**600)
    assert commutator_norm(a, b) == 0.0 and commutes(a, b)
    big = validate_effect(x.matrix * 2.0**1000, 2.0**1000)
    with pytest.raises(EffectdynError, match="float range"):
        commutator_norm(big, validate_effect(y.matrix * 2.0**100, 2.0**100))


def test_commuting_witness_frozen_value():
    a = validate_effect(np.diag([1.0, 0.5]))
    b = validate_effect(np.diag([0.5, 0.5]))
    w = commuting_witness(a, b)
    assert np.allclose(w.a1.matrix, np.diag([0.5, 0.25]), atol=1e-15)
    assert np.allclose(w.b1.matrix, np.diag([0.0, 0.25]), atol=1e-15)
    assert np.allclose(w.c.matrix, np.diag([0.5, 0.25]), atol=1e-15)
    assert verify_coexistence_witness(a, b, w)
    complement = w.complement()
    total = w.a1.matrix + w.b1.matrix + w.c.matrix + complement.matrix
    assert np.allclose(total, np.eye(2), atol=1e-12)


def test_commuting_witness_random_pairs(rng):
    from support import random_commuting_pair

    for dim in (2, 3, 5):
        a, b = random_commuting_pair(dim, rng)
        assert verify_coexistence_witness(a, b, commuting_witness(a, b))


def test_commuting_witness_admits_compound_product():
    # each operand overshoots 1 by 6e-7 within its tolerance 1e-6, so ab
    # reaches 1 + 1.2e-6: inside product_tol, outside the operands' own tolerance
    a = validate_effect(np.diag([1.0 + 6e-7, 0.3]), 1e-6)
    b = validate_effect(np.diag([1.0 + 6e-7, 0.2]), 1e-6)
    w = commuting_witness(a, b)
    assert w.c.tol == pytest.approx(2e-6, rel=1e-5)
    assert verify_coexistence_witness(a, b, w)


def test_product_tol_does_not_cancel_below_eps():
    # (1 + t)(1 + t) - 1 rounds to 0 for t = 1e-16, which would admit the
    # product at a tolerance tighter than either operand's
    assert product_tol(1e-16, 1e-16) >= 2e-16


def test_commuting_witness_requires_commutation():
    a = validate_effect(np.diag([1.0, 0.5]))
    b = validate_effect(np.full((2, 2), 0.5))
    with pytest.raises(NotCommutingError):
        commuting_witness(a, b)


def test_verify_witness_rejects_wrong_decomposition():
    a = validate_effect(np.diag([1.0, 0.5]))
    b = validate_effect(np.diag([0.5, 0.5]))
    w = commuting_witness(a, b)
    # swap roles: decomposes (b, a), not (a, b), unless a == b
    assert not verify_coexistence_witness(a, b, CoexistenceWitness(w.b1, w.a1, w.c))


def test_verify_witness_rejects_sum_above_identity():
    half = validate_effect(0.75 * np.eye(2))
    w = CoexistenceWitness(half, half, zero_effect(2))
    # members are fine but a1 + b1 + c = 1.5 I > I
    assert not verify_coexistence_witness(
        validate_effect(0.75 * np.eye(2)), validate_effect(0.75 * np.eye(2)), w
    )


def _verify_member_by_member(a, b, witness):
    """verify_coexistence_witness with each member checked by its own validate_effect."""
    members = (witness.a1, witness.b1, witness.c)
    tol = max(x.tol for x in (a, b, *members))
    try:
        for member in members:
            validate_effect(member.matrix, tol)
    except (SpectrumOutOfRangeError, ValueError):
        return False
    if float(np.max(np.linalg.eigvalsh(sum(m.matrix for m in members)))) > 1.0 + tol:
        return False
    res_a = linalg.operator_norm(a.matrix - witness.a1.matrix - witness.c.matrix)
    res_b = linalg.operator_norm(b.matrix - witness.b1.matrix - witness.c.matrix)
    return res_a <= tol and res_b <= tol


def test_witnesses_admit_members_as_validate_effect_does(rng):
    # commuting_witness admits its three members in one pass: each is what
    # validate_effect gives for it at product_tol, bit for bit; and
    # verify_coexistence_witness, admitting its members in one pass, decides
    # as checking each with validate_effect does, also for members that are
    # out of range, not Hermitian or not finite, or that a tolerance admits
    from support import random_commuting_pair, random_unitary

    def fields(e):
        return e.matrix.tobytes(), e.eig_min, e.eig_max, e.tol

    bogus = {
        "above": lambda d: np.diag([2.0] + [0.0] * (d - 1)),
        "below": lambda d: np.diag([-1e-6] + [0.0] * (d - 1)),
        "skew": lambda d: np.triu(np.full((d, d), 0.3)),
        "nan": lambda d: np.full((d, d), np.nan),
        "inf": lambda d: np.diag([np.inf] + [0.0] * (d - 1)),
    }
    for dim in range(1, 9):
        # each of the last pair overshoots 1 by 6e-7 within its tolerance
        # 1e-6, so its witness's c does beyond 1e-6: only the loosest
        # tolerance, c's own, admits it
        u = random_unitary(dim, rng)
        over = [validate_effect((u * (1.0 + 6e-7)) @ u.conj().T, 1e-6)] * 2
        pairs = [random_commuting_pair(dim, rng) for _ in range(3)] + [over]
        for pair, tols in zip(pairs, ((1e-9, 1e-9), (1e-6, 1e-9), (1e-9, 1e-5), (1e-6, 1e-6))):
            a, b = (validate_effect(e.matrix, tol) for e, tol in zip(pair, tols))
            w = commuting_witness(a, b)
            prod = linalg.hermitian_part(a.matrix @ b.matrix)
            tol = product_tol(a.tol, b.tol)
            want = [validate_effect(m, tol) for m in (a.matrix - prod, b.matrix - prod, prod)]
            assert [fields(m) for m in (w.a1, w.b1, w.c)] == [fields(m) for m in want]
            witnesses = [w, CoexistenceWitness(w.b1, w.a1, w.c)]
            members = [w.a1, w.b1, w.c]
            for make in bogus.values():
                odd = Effect(make(dim), 0.0, 1.0, 1e-6)  # in each place in turn
                witnesses += [CoexistenceWitness(*members[:k], odd, *members[k + 1 :]) for k in range(3)]
            for witness in witnesses:
                got = verify_coexistence_witness(a, b, witness)
                assert got == _verify_member_by_member(a, b, witness)
            assert verify_coexistence_witness(a, b, w)


def test_verify_witness_rejects_invalid_member():
    # construct an out-of-range "effect" directly, bypassing validation
    bogus = Effect(np.diag([2.0, 0.0]), 0.0, 2.0)
    w = CoexistenceWitness(bogus, zero_effect(2), zero_effect(2))
    assert not verify_coexistence_witness(
        validate_effect(np.diag([1.0, 0.0])), zero_effect(2), w
    )


def test_evolve_state_preserves_spectrum_and_duality(rng):
    rho = random_state(3, rng)
    a = random_effect(3, rng)
    b = random_effect(3, rng)
    t = 1.3
    moved = evolve_state(rho, a, t)
    assert np.allclose(
        np.linalg.eigvalsh(moved.matrix), np.linalg.eigvalsh(rho.matrix), atol=1e-12
    )
    # Heisenberg/Schrodinger duality: tr(rho(t) b) = tr(rho b(t|a))
    lhs = np.trace(moved.matrix @ b.matrix).real
    rhs = np.trace(rho.matrix @ effect_evolution(b, a, t).matrix).real
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_evolve_state_takes_the_frames_time_rule():
    # a reaches 1 + 0.9e-9, admitted at the default tol: at the largest float
    # t w overflows but t (w_1 - w_0) does not, so rho evolves as b(t|a) does
    t = np.finfo(float).max
    rho = validate_state([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
    a, b = validate_effect(np.diag([0.5, 1.0 + 0.9e-9])), validate_effect([[0.3, 0.1j], [-0.1j, 0.7]])
    lhs = np.trace(evolve_state(rho, a, t).matrix @ b.matrix).real
    assert lhs == pytest.approx(np.trace(rho.matrix @ effect_evolution(b, a, t).matrix).real, abs=1e-12)
    # a spread of 1 + 1.8e-9 overflows t (w_1 - w_0) itself
    with pytest.raises(EffectdynError, match=r"phase t\*\(w_j - w_k\) must be finite"):
        evolve_state(rho, validate_effect(np.diag([-0.9e-9, 1.0 + 0.9e-9])), t)


def test_evolve_state_matches_the_dense_reference():
    # e^{ita} rho e^{-ita} against the dense unitary of dense_reference, to
    # rounding and the rounding of the phases (dense_route_allowance): dims
    # 1-8, a generic and a rank-deficient a, |t| up to 1e8
    for seed in range(5):
        for dim in range(1, 9):
            rng = np.random.default_rng([seed, dim])
            rho, u, w = random_state(dim, rng), random_unitary(dim, rng), rng.uniform(0.0, 1.0, dim)
            for spectrum in (w, np.where(np.arange(dim) < dim // 2, 0.0, w)):
                a = validate_effect((u * spectrum) @ u.conj().T)
                for t in (0.0, 1e-9, 1.3, -2.1, 1e3, -1e8, 1e8):
                    want = dense_reference.conjugation(a.matrix, rho.matrix, -t)
                    residual = linalg.spectral_norm(evolve_state(rho, a, t).matrix - want)
                    assert residual <= dense_route_allowance(a.matrix, rho.matrix, t), (dim, t)
