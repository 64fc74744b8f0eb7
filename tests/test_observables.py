import math

import numpy as np
import pytest

from effectdyn import (
    Effect,
    conditioned_observable,
    convex_combination,
    distribution,
    effect_evolution,
    evolve_state,
    identity_effect,
    linalg,
    maximally_mixed_state,
    obs_evolution,
    obs_seq_product,
    obs_time_seq_product,
    sequential_product,
    time_conditional_observable,
    time_seq_product,
    validate_effect,
    validate_observable,
    validate_state,
)
from effectdyn.effects import stacked_roots
from effectdyn.errors import (
    ConsistencyError,
    DimensionMismatchError,
    LabelCollisionError,
    MemberNotEffectError,
    OutcomeSetMismatchError,
    SchemaError,
    SumNotIdentityError,
    WeightsNotNormalizedError,
)

from effectdyn.evolution import EigenFrame
from effectdyn.observables import ROUNDING_UNITS, Observable

from support import random_effect, random_observable, random_state


def binary(a):
    """The yes/no observable {a, I - a}."""
    return validate_observable([a.matrix, np.eye(a.dim) - a.matrix], ["yes", "no"])


def test_validate_observable_accepts_binary(rng):
    a = random_effect(3, rng)
    obs = binary(a)
    assert obs.outcomes == ("yes", "no")
    assert obs.dim == 3
    assert len(obs) == 2


def test_validate_observable_sum_failure_carries_residual():
    m = np.diag([1.0, 0.5])
    with pytest.raises(SumNotIdentityError) as info:
        validate_observable([m, m])
    assert info.value.residual == pytest.approx(1.0)


@pytest.mark.parametrize("dim", range(2, 9))
def test_sum_check_residual_is_the_operator_norm_of_the_sum_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    for n in (1, 2, 3, 5):
        obs = random_observable(dim, n, rng)
        total = np.zeros((dim, dim), dtype=complex)
        for e in obs.effects:
            total += e.matrix
        assert obs.sum_residual == linalg.operator_norm(total - np.eye(dim))
        # a product observable keeps the residual of its own sum check
        product = obs_seq_product(obs, obs)
        total = sum((e.matrix for e in product.effects), np.zeros((dim, dim), dtype=complex))
        assert product.sum_residual == linalg.operator_norm(total - np.eye(dim))


def test_sum_check_refuses_a_residual_that_is_not_a_number():
    member = validate_effect(np.eye(2))
    broken = Effect(np.full((2, 2), np.nan), member.eig_min, member.eig_max, member.tol)
    with pytest.raises(SumNotIdentityError):
        validate_observable([broken])


def test_validate_observable_member_failure():
    with pytest.raises(MemberNotEffectError):
        validate_observable([np.diag([2.0, 0.0]), np.diag([-1.0, 1.0])])


def test_validate_observable_label_rules():
    p = np.diag([1.0, 0.0])
    q = np.diag([0.0, 1.0])
    with pytest.raises(SchemaError):
        validate_observable([p, q], ["x", "x"])
    with pytest.raises(SchemaError):
        validate_observable([p, q], ["onlyone"])
    with pytest.raises(SchemaError):
        validate_observable([])
    obs = validate_observable([p, q])
    assert obs.outcomes == ("0", "1")


def test_validate_observable_mixed_dims():
    with pytest.raises(DimensionMismatchError, match=r"^dimension mismatch: \(2, 3\)$"):
        validate_observable([np.eye(2) / 2, np.eye(3) / 2])


def test_distribution_known_values(rng):
    eye = validate_observable([np.eye(2)], ["all"])
    assert distribution(eye, random_state(2, rng)).probabilities == (1.0,)

    proj = validate_observable([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], ["p", "q"])
    dist = distribution(proj, maximally_mixed_state(2))
    assert dist.probabilities == (pytest.approx(0.5), pytest.approx(0.5))

    a = validate_effect(np.diag([1.0, 0.5]))
    rho = validate_state(np.diag([1.0, 0.0]))
    dist = distribution(binary(a), rho)
    assert dist.probabilities[0] == 1.0
    assert dist.probabilities[1] == 0.0
    assert dist.as_dict() == {"yes": 1.0, "no": 0.0}


def test_distribution_sums_to_one(rng):
    for dim, n in ((2, 2), (3, 4), (4, 3)):
        obs = random_observable(dim, n, rng)
        dist = distribution(obs, random_state(dim, rng))
        assert sum(dist.probabilities) == pytest.approx(1.0, abs=1e-10)
        assert all(p >= -1e-12 for p in dist.probabilities)


def test_distribution_dimension_check(rng):
    with pytest.raises(DimensionMismatchError):
        distribution(random_observable(2, 2, rng), random_state(3, rng))


def test_distribution_checks_the_raw_sum_then_clamps():
    # both sets of inputs are admitted at the default tolerance; the clamped
    # probabilities used to be summed against a tighter 1e-10 bound and raised
    hot = validate_observable([np.diag([0.5 + 5e-10, 0.5]), np.diag([0.5, 0.5])])
    dist = distribution(hot, validate_state(np.diag([1.0, 0.0])))
    assert dist.probabilities == pytest.approx((0.5, 0.5), abs=1e-9)
    split = validate_observable([np.diag([0.0, 1.0]), np.diag([0.5, 0.0]), np.diag([0.5, 0.0])])
    dist = distribution(split, validate_state(np.diag([1.0 + 5e-10, -5e-10])))
    assert dist.probabilities[0] == 0.0
    assert all(0.0 <= p <= 1.0 for p in dist.probabilities)
    assert sum(dist.probabilities) == pytest.approx(1.0, abs=2e-9)
    # a state admitted at tol may have d - 1 eigenvalues near -tol, so a
    # probability can reach -(d - 1) tol; it is clamped, not left negative
    spread = validate_observable([np.diag([0.0, 1.0, 1.0]), np.diag([1.0, 0.0, 0.0])])
    dist = distribution(spread, validate_state(np.diag([1.0 + 1.6e-9, -0.8e-9, -0.8e-9])))
    assert dist.probabilities == (0.0, 1.0)
    # an Observable built without its sum check: a raw sum off 1 by more than
    # the observable's tol plus STATE_TRACE_TOL, 1.1e-9 here, is refused
    rho = validate_state(np.diag([1.0, 0.0]))
    for off, refused in ((1.0e-9, False), (1.2e-9, True)):
        short = Observable(("x",), (validate_effect(np.diag([1.0 - off, 1.0])),), 0.0)
        if refused:
            with pytest.raises(ConsistencyError, match="distribution sums to 0.99999999"):
                distribution(short, rho)
        else:
            assert distribution(short, rho).probabilities == (1.0 - off,)


def test_obs_seq_product_labels_and_identity_cases(rng):
    a_obs = random_observable(2, 2, rng)
    eye = validate_observable([np.eye(2)], ["i"])
    left = obs_seq_product(a_obs, eye)
    assert left.outcomes == ("0⊗i", "1⊗i")
    for got, src in zip(left.effects, a_obs.effects):
        assert np.max(np.abs(got.matrix - src.matrix)) < 1e-12
    right = obs_seq_product(eye, a_obs)
    for got, src in zip(right.effects, a_obs.effects):
        assert np.max(np.abs(got.matrix - src.matrix)) < 1e-12


def test_obs_seq_product_commuting_projections_by_hand():
    p = np.diag([1.0, 0.0, 0.0])
    q = np.diag([1.0, 1.0, 0.0])
    obs_p = validate_observable([p, np.eye(3) - p], ["p", "np"])
    obs_q = validate_observable([q, np.eye(3) - q], ["q", "nq"])
    product = obs_seq_product(obs_p, obs_q)
    expected = [p @ q, p @ (np.eye(3) - q), (np.eye(3) - p) @ q, (np.eye(3) - p) @ (np.eye(3) - q)]
    for got, want in zip(product.effects, expected):
        assert np.max(np.abs(got.matrix - want)) < 1e-12


def test_conditioned_observable_cases(rng):
    b_obs = random_observable(3, 3, rng)
    eye = validate_observable([np.eye(3)], ["i"])
    # conditioning on the trivial observable changes nothing
    same = conditioned_observable(b_obs, eye)
    assert same.outcomes == b_obs.outcomes
    for got, src in zip(same.effects, b_obs.effects):
        assert np.max(np.abs(got.matrix - src.matrix)) < 1e-12
    # conditioning the trivial observable gives the trivial observable
    trivial = conditioned_observable(eye, b_obs)
    assert np.max(np.abs(trivial.effects[0].matrix - np.eye(3))) < 1e-10


def test_conditioned_observable_qubit_hand_check():
    p = validate_effect(np.diag([1.0, 0.0]))
    ip = validate_effect(np.diag([0.0, 1.0]))
    b = validate_effect(np.full((2, 2), 0.5))
    a_obs = validate_observable([p, ip], ["p", "ip"])
    b_obs = binary(b)
    cond = conditioned_observable(b_obs, a_obs)
    expected_yes = (
        sequential_product(p, b).matrix + sequential_product(ip, b).matrix
    )
    # p o b + (I-p) o b = diag entries of b here: pbp + (I-p)b(I-p)
    assert np.allclose(expected_yes, np.diag([0.5, 0.5]), atol=1e-14)
    assert np.max(np.abs(cond.effects[0].matrix - expected_yes)) < 1e-14


def test_obs_evolution_reduces_and_matches_example(rng):
    b_obs = random_observable(3, 2, rng)
    a = random_effect(3, rng)
    same = obs_evolution(b_obs, a, 0.0)
    for got, src in zip(same.effects, b_obs.effects):
        assert np.max(np.abs(got.matrix - src.matrix)) < 1e-14

    from effectdyn import closed_forms

    a1, b1 = closed_forms.example1_effects()
    t = 1.3
    moved = obs_evolution(binary(b1), a1, t)
    assert np.max(np.abs(moved.effects[0].matrix - closed_forms.example1_evolution(t))) < 1e-12
    assert np.max(
        np.abs(moved.effects[1].matrix - (np.eye(2) - closed_forms.example1_evolution(t)))
    ) < 1e-12


def test_obs_evolution_distribution_duality(rng):
    b_obs = random_observable(3, 3, rng)
    a = random_effect(3, rng)
    rho = random_state(3, rng)
    t = -2.1
    lhs = distribution(obs_evolution(b_obs, a, t), rho).probabilities
    rhs = distribution(b_obs, evolve_state(rho, a, t)).probabilities
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_obs_time_seq_product_at_zero(rng):
    a_obs = random_observable(3, 2, rng)
    b_obs = random_observable(3, 2, rng)
    plain = obs_seq_product(a_obs, b_obs)
    timed = obs_time_seq_product(a_obs, b_obs, 0.0)
    assert timed.outcomes == plain.outcomes
    for got, want in zip(timed.effects, plain.effects):
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-12


def test_obs_time_seq_product_effectwise_definition(rng):
    a_obs = random_observable(2, 2, rng)
    b_obs = random_observable(2, 2, rng)
    t = 0.9
    timed = obs_time_seq_product(a_obs, b_obs, t)
    k = 0
    for ax in a_obs.effects:
        for by in b_obs.effects:
            want = time_seq_product(ax, by, t).matrix
            assert np.max(np.abs(timed.effects[k].matrix - want)) < 1e-13
            k += 1


def test_obs_time_seq_product_distribution_formula(rng):
    # Phi(x,y) = tr(e^{itA_x} rho e^{-itA_x} A_x o B_y)
    a_obs = random_observable(2, 2, rng)
    b_obs = random_observable(2, 2, rng)
    rho = random_state(2, rng)
    t = 1.7
    dist = distribution(obs_time_seq_product(a_obs, b_obs, t), rho).probabilities
    k = 0
    for ax in a_obs.effects:
        moved_rho = evolve_state(rho, ax, t)
        for by in b_obs.effects:
            expected = np.trace(moved_rho.matrix @ sequential_product(ax, by).matrix).real
            assert dist[k] == pytest.approx(expected, abs=1e-12)
            k += 1


def test_time_conditional_reduces_at_zero_and_trivial_a(rng):
    a_obs = random_observable(3, 2, rng)
    b_obs = random_observable(3, 3, rng)
    at_zero = time_conditional_observable(b_obs, a_obs, 0.0)
    plain = conditioned_observable(b_obs, a_obs)
    for got, want in zip(at_zero.effects, plain.effects):
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-12

    eye = validate_observable([np.eye(3)], ["i"])
    for t in (0.0, 2.5):
        same = time_conditional_observable(b_obs, eye, t)
        for got, src in zip(same.effects, b_obs.effects):
            assert np.max(np.abs(got.matrix - src.matrix)) < 1e-12


def test_marginal_identity(rng):
    # summing A[t]B over x reproduces (B|A)(t|A)
    a_obs = random_observable(3, 2, rng)
    b_obs = random_observable(3, 3, rng)
    t = -1.4
    product = obs_time_seq_product(a_obs, b_obs, t)
    cond = time_conditional_observable(b_obs, a_obs, t)
    n_b = len(b_obs)
    for y in range(n_b):
        total = sum(
            product.effects[x * n_b + y].matrix for x in range(len(a_obs))
        )
        assert np.max(np.abs(total - cond.effects[y].matrix)) < 1e-10


def test_convex_combination_basics(rng):
    b1 = random_observable(2, 3, rng)
    single = convex_combination([1.0], [b1])
    for got, src in zip(single.effects, b1.effects):
        assert np.max(np.abs(got.matrix - src.matrix)) < 1e-14
    mixed = convex_combination([0.5, 0.5], [b1, b1])
    for got, src in zip(mixed.effects, b1.effects):
        assert np.max(np.abs(got.matrix - src.matrix)) < 1e-14


def test_convex_combination_errors(rng):
    b1 = random_observable(2, 2, rng)
    b2 = random_observable(2, 2, rng)
    with pytest.raises(WeightsNotNormalizedError):
        convex_combination([0.7, 0.7], [b1, b2])
    with pytest.raises(WeightsNotNormalizedError):
        convex_combination([1.5, -0.5], [b1, b2])
    relabeled = validate_observable([e.matrix for e in b2.effects], ["x", "y"])
    with pytest.raises(OutcomeSetMismatchError):
        convex_combination([0.5, 0.5], [b1, relabeled])
    with pytest.raises(WeightsNotNormalizedError):
        convex_combination([0.5, 0.5], [b1])
    wider = validate_observable([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])])
    with pytest.raises(DimensionMismatchError, match=r"^dimension mismatch: \(2, 3\)$"):
        convex_combination([0.5, 0.5], [b1, wider])


def tight_observable(dim: int, n_outcomes: int, rng) -> Observable:
    """A random POVM {S^-1/2 G_x S^-1/2} whose members are admitted at its own sum residual."""
    x = rng.standard_normal((n_outcomes, dim, dim)) + 1j * rng.standard_normal((n_outcomes, dim, dim))
    g = x @ x.conj().swapaxes(1, 2)
    w, v = np.linalg.eigh(g.sum(axis=0))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    members = [linalg.hermitian_part(inv_root @ gx @ inv_root) for gx in g]
    tol = max(float(linalg.operator_norms(sum(members) - np.eye(dim))), 1e-300)
    return validate_observable([validate_effect(m, tol) for m in members])


def test_convex_combination_allows_for_the_rounding_of_its_weighted_members():
    # each operand passes its own sum check with no slack, so the mixture's
    # check must allow for the rounding of its k·m weighted members
    rng = np.random.default_rng(1)
    eps = np.finfo(float).eps
    for _ in range(300):
        a, b = tight_observable(2, 2, rng), tight_observable(2, 2, rng)
        w = float(rng.uniform(0.05, 0.95))
        mixed = convex_combination([w, 1.0 - w], [a, b])
        # k·m·d = 2·2·2 units of eps
        assert mixed.sum_residual <= max(a.tol, b.tol) + ROUNDING_UNITS * 8 * eps


def test_product_labels_that_collide_are_refused(rng):
    # the outcome pairs (a, b⊗c) and (a⊗b, c) both join to the label a⊗b⊗c
    a = validate_observable([e.matrix for e in random_observable(2, 2, rng).effects], ["a", "a⊗b"])
    b = validate_observable([e.matrix for e in random_observable(2, 2, rng).effects], ["b⊗c", "c"])
    message = (
        "outcome pairs ('a', 'b⊗c') and ('a⊗b', 'c') both give the product label 'a⊗b⊗c'"
    )
    with pytest.raises(LabelCollisionError) as info:
        obs_seq_product(a, b)
    assert str(info.value) == message
    with pytest.raises(LabelCollisionError) as info:
        obs_time_seq_product(a, b, 0.7)
    assert str(info.value) == message


def test_convex_linearity_under_time_seq_product(rng):
    # A[t](sum_i w_i B_i) = sum_i w_i (A[t]B_i)
    a_obs = random_observable(2, 2, rng)
    b1 = random_observable(2, 2, rng)
    b2 = validate_observable([e.matrix for e in random_observable(2, 2, rng).effects], b1.outcomes)
    w = (0.3, 0.7)
    t = 2.2
    lhs = obs_time_seq_product(a_obs, convex_combination(w, [b1, b2]), t)
    rhs_parts = [obs_time_seq_product(a_obs, bi, t) for bi in (b1, b2)]
    for k in range(len(lhs)):
        want = w[0] * rhs_parts[0].effects[k].matrix + w[1] * rhs_parts[1].effects[k].matrix
        assert np.max(np.abs(lhs.effects[k].matrix - want)) < 1e-10


def test_every_output_passes_validation(rng):
    # validate_observable is the funnel for all constructors; build a few of
    # each and rely on construction-time checks
    a_obs = random_observable(3, 2, rng)
    b_obs = random_observable(3, 2, rng)
    a = random_effect(3, rng)
    for t in (0.0, 0.8, math.pi):
        obs_seq_product(a_obs, b_obs)
        conditioned_observable(b_obs, a_obs)
        obs_evolution(b_obs, a, t)
        obs_time_seq_product(a_obs, b_obs, t)
        time_conditional_observable(b_obs, a_obs, t)


def _observable_with_rank_deficient_member(dim, n, rng):
    """n members S^{-1/2} G_x S^{-1/2}; G_0 has rank dim - 1 (when n > 1 and dim > 1)."""
    grams = []
    for x in range(n):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if x == 0 and n > 1 and dim > 1:
            g[:, 0] = 0.0
        grams.append(g @ g.conj().T)
    w, v = np.linalg.eigh(sum(grams))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return validate_observable([inv_root @ g @ inv_root for g in grams])


def _dense_time_seq_product(a, b, t):
    """a^{1/2} e^{-ita} b e^{ita} a^{1/2} from two eigendecompositions, eigenvalues below 1e-12 as 0."""
    w, v = np.linalg.eigh(a)
    root = (v * np.sqrt(np.where(w > 1e-12, w, 0.0))) @ v.conj().T
    u = (v * np.exp(-1j * t * w)) @ v.conj().T
    return root @ u @ b @ u.conj().T @ root


def test_stacked_products_match_a_dense_reference(rng):
    # every member of A o B, A[t]B, (B|A) and (B|A)(t|A) against a per-pair
    # dense reference written here, at dims 1-8 with 1-4 outcomes; and the
    # frame of a stacked decomposition against each pair's own frame
    for dim in range(1, 9):
        for n in range(1, 5):
            a_obs = _observable_with_rank_deficient_member(dim, n, rng)
            b_obs = _observable_with_rank_deficient_member(dim, 5 - n, rng)
            if n > 1 and dim > 1:
                assert np.linalg.matrix_rank(a_obs.effects[0].matrix, tol=1e-10) == dim - 1
            pairs = [(ax, by) for ax in a_obs.effects for by in b_obs.effects]
            decomposition, _, _ = stacked_roots([ax for ax, _ in pairs])
            stacked = EigenFrame._from_decomposition(
                decomposition, np.array([by.matrix for _, by in pairs])
            )
            for t in (0.0, 1.3, -40.0):
                for (ax, by), slice_ in zip(pairs, stacked.at(t)):
                    one = EigenFrame.evolution(ax, by).at(t)
                    assert np.max(np.abs(slice_ - one)) < 1e-14
                want = [
                    [_dense_time_seq_product(ax.matrix, by.matrix, t) for by in b_obs.effects]
                    for ax in a_obs.effects
                ]
                got = [obs_time_seq_product(a_obs, b_obs, t)]
                if t == 0.0:
                    got.append(obs_seq_product(a_obs, b_obs))
                for product in got:
                    for k, member in enumerate(product.effects):
                        x, y = divmod(k, len(b_obs))
                        assert np.max(np.abs(member.matrix - want[x][y])) < 1e-12
                got = [time_conditional_observable(b_obs, a_obs, t)]
                if t == 0.0:
                    got.append(conditioned_observable(b_obs, a_obs))
                for cond in got:
                    for y, member in enumerate(cond.effects):
                        total = sum(want[x][y] for x in range(len(a_obs)))
                        assert np.max(np.abs(member.matrix - total)) < 1e-12


def test_stacked_evolution_matches_each_members_frame(rng):
    # every member of B(t|a), read from one frame of a, is the member's own
    # frame EigenFrame.evolution(a, B_y) read at t and admitted at
    # max(a.tol, B_y.tol), bit for bit: dims 1-8, 1-4 outcomes with a
    # rank-deficient member, a generic a and a rank-deficient one
    for dim in range(1, 9):
        for n in range(1, 5):
            b_obs = _observable_with_rank_deficient_member(dim, n, rng)
            deficient = _observable_with_rank_deficient_member(dim, 2, rng).effects[0]
            for a in (random_effect(dim, rng), validate_effect(deficient.matrix, 3e-9)):
                for t in (0.0, 1.3, -40.0, 1e4):
                    got = obs_evolution(b_obs, a, t)
                    assert got.outcomes == b_obs.outcomes
                    for member, by in zip(got.effects, b_obs.effects, strict=True):
                        want = validate_effect(EigenFrame.evolution(a, by).at(t), max(a.tol, by.tol))
                        assert member.matrix.tobytes() == want.matrix.tobytes()
                        assert (member.eig_min, member.eig_max) == (want.eig_min, want.eig_max)
                        assert member.tol == want.tol


def test_stacked_products_admit_each_pair_at_its_own_tolerance(rng):
    from effectdyn.effects import product_tol

    a_obs = random_observable(3, 3, rng)
    b_obs = random_observable(3, 2, rng)
    a_obs = validate_observable(
        [validate_effect(e.matrix, tol) for e, tol in zip(a_obs.effects, (1e-9, 3e-7, 2e-8))]
    )
    b_obs = validate_observable(
        [validate_effect(e.matrix, tol) for e, tol in zip(b_obs.effects, (5e-6, 1e-9))]
    )
    for product in (obs_seq_product(a_obs, b_obs), obs_time_seq_product(a_obs, b_obs, 0.8)):
        tols = [member.tol for member in product.effects]
        assert tols == [product_tol(ax.tol, by.tol) for ax in a_obs.effects for by in b_obs.effects]
    for cond in (conditioned_observable(b_obs, a_obs), time_conditional_observable(b_obs, a_obs, 0.8)):
        assert all(member.tol == product_tol(a_obs.tol, b_obs.tol) for member in cond.effects)


def test_consistency_error_names_the_first_pair(rng, monkeypatch):
    from effectdyn import evolution

    a_obs = random_observable(3, 3, rng)
    b_obs = random_observable(3, 2, rng)
    monkeypatch.setattr(evolution, "CROSS_CHECK_TOL", 0.0)
    messages = []
    for ax in a_obs.effects:
        for by in b_obs.effects:
            with pytest.raises(ConsistencyError) as info:
                time_seq_product(ax, by, 0.7)
            messages.append(str(info.value))
    first = messages[0]
    assert messages.count(first) == 1  # the residual in the message tells the pairs apart
    for call in (
        lambda: obs_time_seq_product(a_obs, b_obs, 0.7),
        lambda: time_conditional_observable(b_obs, a_obs, 0.7),
    ):
        with pytest.raises(ConsistencyError) as info:
            call()
        assert str(info.value) == first


def gram_observable(dim, n, rng):
    """n members S^{-1/2} G_x S^{-1/2}, S = sum G_x, each symmetrized: I up to rounding."""
    grams = []
    for _ in range(n):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        grams.append(x @ x.conj().T)
    w, v = np.linalg.eigh(sum(grams))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [(m + m.conj().T) / 2.0 for m in (inv_sqrt @ g @ inv_sqrt for g in grams)]


def test_products_admitted_near_eps_allow_for_their_rounding():
    # admitted at 1e-15, the exact products sum to I within 2e-15, but the
    # computed sums are off by up to about 4e-15: the sum check allows for it
    checked = 0
    for i in range(120):
        rng = np.random.default_rng([5, i])
        n = 2 + i % 3
        t = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        try:
            a, b = (
                validate_observable(
                    [validate_effect(m, 1e-15) for m in gram_observable(2, n, rng)]
                )
                for _ in range(2)
            )
        except SumNotIdentityError:
            continue  # an input whose own sum is off by more than 1e-15
        obs_time_seq_product(a, b, t)
        time_conditional_observable(b, a, t)
        checked += 1
    assert checked >= 90


@pytest.mark.parametrize("op", ["tseq", "tcond"])
def test_product_sum_off_by_1e_12_still_raises(monkeypatch, op):
    from effectdyn import observables

    a = validate_observable([validate_effect(np.diag([x, 1.0 - x]), 1e-15) for x in (1.0, 0.0)])
    half = np.full((2, 2), 0.5)
    b = validate_observable([validate_effect(m, 1e-15) for m in (half, np.eye(2) - half)])
    exact = observables.time_seq_products

    def skewed(lefts, rights, t):
        first, *rest = exact(lefts, rights, t)
        return (validate_effect(first.matrix + 1e-12 * np.eye(2), first.tol), *rest)

    monkeypatch.setattr(observables, "time_seq_products", skewed)
    with pytest.raises(SumNotIdentityError) as info:
        obs_time_seq_product(a, b, 0.7) if op == "tseq" else time_conditional_observable(b, a, 0.7)
    assert info.value.residual == pytest.approx(1e-12, rel=1e-3)


def test_evolution_admitted_near_eps_allows_for_its_rounding():
    # admitted at 1e-15, the evolved members sum to I within 1e-15 exactly,
    # but their computed sum is off by up to about 1.6e-15: the check allows for it
    from support import random_unitary

    checked = {2: 0, 4: 0}
    for dim, draws in ((2, 150), (4, 600)):  # few dim-4 draws sum to I within 1e-15
        for i in range(draws):
            rng = np.random.default_rng([6, dim, i])
            members = gram_observable(dim, 2 + i % 3, rng)
            try:
                b = validate_observable([validate_effect(m, 1e-15) for m in members])
            except SumNotIdentityError:
                continue  # an input whose own sum is off by more than 1e-15
            for _ in range(4):
                u = random_unitary(dim, rng)
                a = validate_effect((u * rng.uniform(0.0, 1.0, dim)) @ u.conj().T, 1e-15)
                obs_evolution(b, a, float(rng.uniform(-10.0, 10.0)))
                checked[dim] += 1
    assert checked[2] >= 400 and checked[4] >= 20


def test_evolution_sum_off_by_1e_12_still_raises(monkeypatch):
    from effectdyn import observables

    m = np.array([[0.5, 0.2], [0.2, 0.3]])
    b = validate_observable([validate_effect(x, 1e-15) for x in (m, np.eye(2) - m)])
    a = validate_effect(np.diag([0.9, 0.2]), 1e-15)
    exact = observables.effect_evolutions

    def skewed(rights, a, t):
        first, *rest = exact(rights, a, t)  # B_0(t|a) first
        return (validate_effect(first.matrix + 1e-12 * np.eye(2), first.tol), *rest)

    monkeypatch.setattr(observables, "effect_evolutions", skewed)
    with pytest.raises(SumNotIdentityError) as info:
        obs_evolution(b, a, 0.7)
    assert info.value.residual == pytest.approx(1e-12, rel=1e-3)
