import ast
import cmath
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectdyn import (
    ConsistencyError,
    classify_scaled_projection,
    closed_forms,
    commuting_witness,
    constancy_bruteforce,
    constancy_classifier,
    deviation_norm,
    effect_evolution,
    evolution_derivative,
    explorer,
    identity_effect,
    linalg,
    max_seq_deviation,
    projection_evolution_closed_form,
    seq_deviation_profile,
    seq_product_derivative,
    sequential_product,
    time_seq_product,
    validate_effect,
    verify_coexistence_witness,
    zero_effect,
)
from effectdyn.effects import sequential_products
from effectdyn.errors import EffectdynError, EmptyGridError, InvalidOrderError, NotAProjectionError
from effectdyn.evolution import EigenFrame, effect_evolutions, time_seq_products
from effectdyn.observables import obs_time_seq_product, time_conditional_observable, validate_observable

import dense_reference
from support import (
    dense_route_allowance,
    random_commuting_pair,
    random_effect,
    random_projection,
    random_scaled_projection,
    random_support_commuting_pair,
    random_unitary,
)

GRID = np.linspace(0.0, 4.0 * math.pi, 33)


def example1():
    return closed_forms.example1_effects()


def test_evolution_at_zero_is_exact():
    a, b = example1()
    assert np.array_equal(effect_evolution(b, a, 0.0).matrix, b.matrix)


def test_evolution_matches_example1_closed_form():
    a, b = example1()
    worst = max(
        np.max(np.abs(effect_evolution(b, a, t).matrix - closed_forms.example1_evolution(t)))
        for t in GRID
    )
    assert worst < 1e-12


def test_evolution_preserves_spectrum_and_trace(rng):
    for dim in (2, 3, 5):
        a, b = random_effect(dim, rng), random_effect(dim, rng)
        moved = effect_evolution(b, a, -7.7)
        assert np.allclose(
            np.linalg.eigvalsh(moved.matrix), np.linalg.eigvalsh(b.matrix), atol=1e-12
        )
        assert np.trace(moved.matrix).real == pytest.approx(np.trace(b.matrix).real, abs=1e-12)


def test_evolution_matches_example2_closed_form():
    params = closed_forms.QubitExampleParams(0.7, 0.6, 0.3, 0.2 - 0.1j)
    a, b = params.effect_a(), params.effect_b()
    for t in (0.0, 1.0, math.pi, -4.2):
        phase = cmath.exp(-1j * 0.7 * t)
        expected = np.array(
            [[0.6, phase * (0.2 - 0.1j)], [np.conj(phase * (0.2 - 0.1j)), 0.3]]
        )
        assert np.max(np.abs(effect_evolution(b, a, t).matrix - expected)) < 1e-14


def test_derivative_rejects_bad_order():
    a, b = example1()
    for n in (0, -1, 1.5):
        with pytest.raises(InvalidOrderError):
            evolution_derivative(b, a, 0.0, n)


@pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan])
def test_derivative_rejects_non_finite_order(n):
    a, b = example1()
    with pytest.raises(InvalidOrderError, match="positive integer"):
        evolution_derivative(b, a, 0.0, n)


def test_derivative_refuses_orders_too_large_to_compute():
    # an integer order beyond the float range, and an order whose power of
    # the largest |w_j - w_k| = 1.001 overflows for a admitted beyond [0, 1]
    a, b = example1()
    over = validate_effect(np.diag([-5e-4, 1.0005]), 1e-3)
    half = validate_effect(np.full((2, 2), 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidOrderError, match="at most 2"):
            evolution_derivative(b, a, 0.3, 10**400)
        with pytest.raises(InvalidOrderError, match="too large"):
            evolution_derivative(half, over, 0.3, 10**6)
        # the same a keeps its moderate orders
        assert np.isfinite(evolution_derivative(half, over, 0.3, 1500)).all()


def test_both_derivative_reads_take_one_order_rule():
    # a = diag(0, 1e200) and b = 0.5e154 [[1, 1], [1, 1]] at tol 1e308:
    # |w_j - w_k| ||X||_F passes the float range at order 1, so at's order 1
    # and evolve's derivative_norm column are refused alike, not NaN; a frame
    # whose ||X||_F itself is beyond the float range leaves no order at all
    a = validate_effect(np.diag([0.0, 1e200]), 1e308)
    b = validate_effect(np.full((2, 2), 0.5e154), 1e308)
    frame = EigenFrame.evolution(a, b)
    with pytest.raises(InvalidOrderError, match="derivative order 1 is too large"):
        frame.at(0.0, 1)
    with pytest.raises(InvalidOrderError, match="derivative_norm"):
        frame.trajectory([0.0, 1.0])
    assert np.isfinite(frame.at(1.0)).all()
    wide = validate_effect(np.full((2, 2), 0.8e308), 1.7e308)
    with pytest.raises(InvalidOrderError, match="too large"):
        evolution_derivative(wide, validate_effect(np.diag([0.0, 2.0]), 1.0), 0.0, 1)


def test_derivative_accepts_integral_orders():
    a, b = example1()
    first = evolution_derivative(b, a, 0.4, 1)
    second = evolution_derivative(b, a, 0.4, 2)
    assert np.array_equal(evolution_derivative(b, a, 0.4, 2.0), second)
    assert not np.array_equal(first, second)


def test_every_frame_refuses_orders_it_cannot_compute():
    # EigenFrame.at is the one order rule, for both kinds of frame and a stack:
    # an order whose power of |w_j - w_k| = 1.001 overflows, one past the float
    # range, a negative one and a fraction are refused, never computed
    over = validate_effect(np.diag([-5e-4, 1.0005]), 1e-3)
    half = validate_effect(np.full((2, 2), 0.5))
    frames = (
        EigenFrame.evolution(over, half),
        EigenFrame.product(over, half),
        EigenFrame.stacked_products((over, half), (half, over)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for frame in frames:
            for n in (10**6, 10**400, -1, 0.5):
                with pytest.raises(InvalidOrderError):
                    frame.at(0.3, n)
            assert np.isfinite(frame.at(0.3, 1500)).all()


def test_derivative_phase_is_exact_at_every_order():
    # a = diag(0, 1): |w_j - w_k| is 0 or 1, so order n differs from order
    # n mod 4 only in the phase (-i)^n, which must not drift as n grows; the
    # reference is order 4, not b(t|a): every bracket removes its diagonal
    a = validate_effect(np.diag([0.0, 1.0]))
    b = validate_effect(np.full((2, 2), 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fourth = evolution_derivative(b, a, 0.3, 4)
        for n in [1500] + [4 * 10**k for k in range(4, 11)] + [2**52]:
            assert np.max(np.abs(evolution_derivative(b, a, 0.3, n) - fourth)) <= 1e-15
        first = evolution_derivative(b, a, 0.3, 1)
        assert np.max(np.abs(evolution_derivative(b, a, 0.3, 4 * 10**10 + 1) - first)) <= 1e-15
        assert np.max(np.abs(fourth - effect_evolution(b, a, 0.3).matrix)) > 0.1


def test_check_phases_admits_a_time_or_a_grid():
    # the frames' one time rule returns the times as floats, of their shape
    frame = EigenFrame.evolution(validate_effect(np.diag([0.0, 1.0])), identity_effect(2))
    one = frame.check_phases(2)
    assert one.dtype == float and one.shape == () and one == 2.0
    grid = frame.check_phases([[0, -1.5], [3, 4]])
    assert grid.dtype == float and np.array_equal(grid, [[0.0, -1.5], [3.0, 4.0]])
    for empty in ([], np.empty((0, 3))):
        with pytest.raises(EmptyGridError):
            frame.check_phases(empty)
    for bad in (math.nan, math.inf, [0.0, -math.inf]):
        with pytest.raises(EffectdynError, match="phase"):
            frame.check_phases(bad)


def test_derivative_zero_for_commuting(rng):
    a, b = random_commuting_pair(3, rng)
    for n in (1, 2, 3):
        assert np.max(np.abs(evolution_derivative(b, a, 2.2, n))) < 1e-12


def test_derivative_matches_example1_matrix():
    a, b = example1()
    for t in (0.0, 1.0, math.pi):
        phase = cmath.exp(-0.5j * t)
        expected = 0.25j * np.array([[0.0, -phase], [np.conj(phase), 0.0]])
        assert np.max(np.abs(evolution_derivative(b, a, t) - expected)) < 1e-14
        eigs = np.linalg.eigvalsh(evolution_derivative(b, a, t))
        assert np.allclose(eigs, [-0.25, 0.25], atol=1e-12)


def test_derivative_is_hermitian_at_all_orders(rng):
    a, b = random_effect(4, rng), random_effect(4, rng)
    for n in (1, 2, 3, 4):
        d = evolution_derivative(b, a, 0.9, n)
        assert np.max(np.abs(d - d.conj().T)) == 0.0


def test_derivative_matches_finite_difference(rng):
    h = 1e-4
    for dim in (2, 4):
        a, b = random_effect(dim, rng), random_effect(dim, rng)
        t = float(rng.uniform(-3, 3))
        fd = (effect_evolution(b, a, t + h).matrix - effect_evolution(b, a, t - h).matrix) / (2 * h)
        err_h = np.max(np.abs(fd - evolution_derivative(b, a, t)))
        fd2 = (
            effect_evolution(b, a, t + h / 2).matrix - effect_evolution(b, a, t - h / 2).matrix
        ) / h
        err_h2 = np.max(np.abs(fd2 - evolution_derivative(b, a, t)))
        assert 3.0 <= err_h / err_h2 <= 5.0


def test_second_derivative_differentiates_the_first(rng):
    a, b = random_effect(3, rng), random_effect(3, rng)
    h, t = 1e-4, 0.4
    fd = (evolution_derivative(b, a, t + h) - evolution_derivative(b, a, t - h)) / (2 * h)
    assert np.max(np.abs(fd - evolution_derivative(b, a, t, 2))) < 1e-6


def test_deviation_norm_zero_at_zero_and_example2():
    params = closed_forms.QubitExampleParams(0.3, 0.5, 0.5, 0.25 + 0.25j)
    a, b = params.effect_a(), params.effect_b()
    assert deviation_norm(b, a, 0.0) == 0.0
    for t in (0.5, 2.0, math.pi / 0.3):
        assert deviation_norm(b, a, t) == pytest.approx(
            closed_forms.example2_deviation(params, t), abs=1e-12
        )


def test_time_seq_product_at_zero_is_sequential_product(rng):
    a, b = random_effect(3, rng), random_effect(3, rng)
    assert np.max(np.abs(time_seq_product(a, b, 0.0).matrix - sequential_product(a, b).matrix)) < 1e-15


def test_time_seq_product_with_identity(rng):
    b = random_effect(3, rng)
    for t in (0.0, 1.0, -5.5):
        assert np.max(np.abs(time_seq_product(identity_effect(3), b, t).matrix - b.matrix)) < 1e-14


def test_time_seq_product_constant_for_scaled_projection(rng):
    for dim in (2, 3):
        scale, p, a = random_scaled_projection(dim, rng)
        b = random_effect(dim, rng)
        target = closed_forms.example3_constant_product(scale, p, b, 0.0).matrix
        worst = max(
            np.max(np.abs(time_seq_product(a, b, t).matrix - target)) for t in GRID
        )
        assert worst < 1e-12


def test_time_seq_product_dominated_by_a(rng):
    a, b = random_effect(4, rng), random_effect(4, rng)
    for t in (0.0, 2.0, -9.0):
        diff = time_seq_product(a, b, t).matrix - a.matrix
        assert np.max(np.linalg.eigvalsh(diff)) <= 1e-12


def test_seq_product_derivative_zero_cases(rng):
    a, b = random_commuting_pair(4, rng)
    assert np.max(np.abs(seq_product_derivative(a, b, 1.1))) < 1e-12
    scale, p, sp = random_scaled_projection(3, rng)
    assert np.max(np.abs(seq_product_derivative(sp, random_effect(3, rng), 0.7))) < 1e-12


def test_seq_product_derivative_example1_norm():
    # ||i[a o b, a]|| = 2^(-5/2) for the first worked pair, any t
    a, b = example1()
    for t in (0.0, 1.0):
        norm = np.max(np.abs(np.linalg.eigvalsh(seq_product_derivative(a, b, t))))
        assert norm == pytest.approx(2.0 ** -2.5, abs=1e-14)


def test_seq_product_derivative_matches_finite_difference(rng):
    a, b = random_effect(3, rng), random_effect(3, rng)
    h, t = 1e-4, -0.8
    fd = (time_seq_product(a, b, t + h).matrix - time_seq_product(a, b, t - h).matrix) / (2 * h)
    assert np.max(np.abs(fd - seq_product_derivative(a, b, t))) < 1e-7


def test_classify_scaled_projection_known_cases():
    out = classify_scaled_projection(validate_effect(np.diag([0.3, 0.3, 0.0])))
    assert out is not None
    assert out.scale == pytest.approx(0.3, abs=1e-12)
    assert np.allclose(out.projection.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    assert classify_scaled_projection(validate_effect(np.diag([1.0, 0.5]))) is None
    assert classify_scaled_projection(zero_effect(3)) is None
    # the nonzero eigenvalues may span 2 tol: 1.5 tol is one cluster, 3 tol is not
    assert classify_scaled_projection(validate_effect(np.diag([0.0, 0.5, 0.5 + 1.5e-6]), 1e-6))
    assert classify_scaled_projection(validate_effect(np.diag([0.0, 0.5, 0.5 + 3e-6]), 1e-6)) is None

    out = classify_scaled_projection(identity_effect(4))
    assert out is not None and out.scale == 1.0
    assert np.allclose(out.projection.matrix, np.eye(4), atol=1e-12)


def test_classify_scaled_projection_rotated(rng):
    scale, p, a = random_scaled_projection(4, rng)
    out = classify_scaled_projection(a)
    assert out is not None
    assert out.scale == pytest.approx(scale, abs=1e-10)
    assert np.max(np.abs(out.projection.matrix - p.matrix)) < 1e-10
    assert np.max(np.abs(scale * out.projection.matrix - a.matrix)) < 1e-10


def test_classifier_example1_not_constant():
    a, b = example1()
    report = constancy_classifier(a, b)
    assert not report.constant
    assert report.reason == "Neither"
    assert report.residual == pytest.approx(2.0 ** -2.5, abs=1e-14)


def test_classifier_scaled_projection_reason(rng):
    p = validate_effect(np.diag([1.0, 0.0]))
    a = validate_effect(0.3 * p.matrix)
    b = validate_effect(np.full((2, 2), 0.5))
    report = constancy_classifier(a, b)
    assert report.constant and report.reason == "ScaledProjection"
    assert report.decomposition is not None
    assert report.decomposition.scale == pytest.approx(0.3, abs=1e-12)


def test_classifier_commuting_reason_and_precedence(rng):
    a, b = random_commuting_pair(3, rng)
    assert constancy_classifier(a, b).reason == "Commuting"
    # a = lambda*I is both commuting and a scaled projection; Commuting wins
    lam_eye = validate_effect(0.6 * np.eye(3))
    assert constancy_classifier(lam_eye, random_effect(3, rng)).reason == "Commuting"
    # a = 0 commutes with everything
    report = constancy_classifier(zero_effect(3), random_effect(3, rng))
    assert report.constant and report.reason == "Commuting"


def test_classifier_tolerance_override():
    a, b = (validate_effect(e.matrix, tol=1.0) for e in example1())
    # residual 2^(-5/2) ~ 0.177 is below the absurdly loose tolerance both operands carry
    report = constancy_classifier(a, b)
    assert report.constant and report.reason == "Commuting"


def test_classifier_constant_on_support_of_singular_a():
    # [a, b] != 0 and a = diag(0, .3, .6) is no scaled projection, but b's
    # compression to the support of a is diagonal, so a[t]b is constant.
    a = validate_effect(np.diag([0.0, 0.3, 0.6]))
    b = validate_effect(np.array([[0.5, 0.2, 0.0], [0.2, 0.5, 0.0], [0.0, 0.0, 0.5]]))
    report = constancy_classifier(a, b)
    assert report.constant and report.reason == "CommutingOnSupport"
    assert report.residual == 0.0 and max_seq_deviation(a, b, GRID) == 0.0
    assert constancy_bruteforce(a, b, GRID)


def test_an_eigenvalue_of_1e_11_keeps_its_root():
    # a = diag(ε, .3, .6) with ε = 1e-11, and b coupling |0> and |1> by 0.2:
    # a∘b couples them by c = 0.2 √(0.3 ε), so ||[a∘b, a]|| = c (0.3 - ε) and
    # ||a[t]b - a∘b|| = 2c |sin(t (0.3 - ε) / 2)|. A root that drops √ε = 3.2e-6
    # reads CommutingOnSupport and a deviation of 0
    small = 1e-11
    a = validate_effect(np.diag([small, 0.3, 0.6]))
    b = validate_effect(np.array([[0.5, 0.2, 0.0], [0.2, 0.5, 0.0], [0.0, 0.0, 0.5]]))
    c = 0.2 * math.sqrt(0.3 * small)
    report = constancy_classifier(a, b)
    assert (report.constant, report.reason) == (False, "Neither")
    assert report.residual == pytest.approx(c * (0.3 - small), rel=1e-6)
    times = np.linspace(0.0, 30.0, 301)
    want = 2.0 * c * float(np.abs(np.sin(times * (0.3 - small) / 2.0)).max())
    assert max_seq_deviation(a, b, times) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("dim", range(3, 9))
def test_classifier_constant_on_support_of_random_singular_a(dim):
    # a singular, with two or more distinct nonzero eigenvalues, and b whose
    # compression to a's support commutes with a there while [a, b] != 0:
    # the classifier answers CommutingOnSupport and the grid agrees
    rng = np.random.default_rng(dim)
    for _ in range(25):
        a, b = random_support_commuting_pair(dim, rng)
        report = constancy_classifier(a, b)
        assert (report.constant, report.reason) == (True, "CommutingOnSupport")
        assert report.residual <= max(a.tol, b.tol)
        assert constancy_bruteforce(a, b, GRID)


@settings(deadline=None, max_examples=150)
@given(
    log_tol=st.floats(-12.0, -3.0),
    kernel=st.integers(0, 2),
    splits=st.lists(st.floats(0.0, 10.0), min_size=0, max_size=2),
    scale=st.floats(0.05, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_classifier_near_degenerate_spectra(log_tol, kernel, splits, scale, seed):
    # a has `kernel` eigenvalues within tol of 0 and a cluster scale + split * tol
    # with splits up to 10 * tol, in a random eigenbasis; both operands admitted at tol.
    tol = 10.0**log_tol
    rng = np.random.default_rng(seed)
    spectrum = [*rng.uniform(-tol, tol, kernel), scale, *(scale + x * tol for x in splits)]
    dim = max(len(spectrum), 2)
    spectrum += [0.0] * (dim - len(spectrum))
    u = random_unitary(dim, rng)
    a = validate_effect((u * spectrum) @ u.conj().T, tol)
    b = validate_effect(random_effect(dim, rng).matrix, tol)
    report = constancy_classifier(a, b)
    assert report.constant == (report.residual <= tol)
    if report.reason == "Commuting":
        commutator = linalg.spectral_norm(linalg.commutator(a.matrix, b.matrix))
        assert commutator <= tol * max(1.0, a.norm * b.norm)
    if report.reason == "ScaledProjection":
        d = report.decomposition
        assert linalg.spectral_norm(a.matrix - d.scale * d.projection.matrix) <= tol + 1e-12


def test_bruteforce_grid_cases():
    a, b = example1()
    grid = np.append(np.linspace(0.0, 10.0, 101), math.pi)
    assert not constancy_bruteforce(a, b, grid)
    assert constancy_bruteforce(a, b, [0.0])  # degenerate grid: documented pitfall
    with pytest.raises(EmptyGridError):
        constancy_bruteforce(a, b, [])
    # a deviation of about 1e-7 is no constancy: in a's eigenbasis a[t]b - a∘b
    # is [[0, z], [z̄, 0]] with z = c (e^{-0.4it} - 1), c = 1e-7 sqrt(0.21)
    a, b = validate_effect(np.diag([0.3, 0.7])), validate_effect([[0.5, 1e-7], [1e-7, 0.5]])
    want = 2e-7 * math.sqrt(0.21) * np.abs(np.sin(0.2 * GRID)).max()
    assert max_seq_deviation(a, b, GRID) == pytest.approx(want, rel=1e-6)
    assert not constancy_bruteforce(a, b, GRID)


def test_bruteforce_constant_for_scaled_projection(rng):
    scale, p, a = random_scaled_projection(3, rng)
    assert constancy_bruteforce(a, random_effect(3, rng), GRID)


@pytest.mark.parametrize("scale", [1e3, 1e6])
def test_bruteforce_constant_for_a_scaled_projection_of_large_scale(scale):
    # a = 0.7 s·p, p a rank-2 projection, and b = s·B, both admitted at tol s:
    # a[t]b is constant, and its deviation on the grid is rounding (5.8e-7 at
    # s = 1e3 and 310 at s = 1e6 with numpy 2.4.6), within BRUTEFORCE_TOL at
    # the scale of the pair, max(1, ||a|| ||b||), but not within it alone
    rng = np.random.default_rng(2)
    p = random_projection(3, 2, rng)
    a = validate_effect(0.7 * scale * p.matrix, scale)
    b = validate_effect(scale * random_effect(3, rng).matrix, scale)
    assert constancy_bruteforce(a, b, np.linspace(0.0, 4.0 * math.pi, 33))


def test_deviation_profile_matches_pointwise(rng):
    a, b = random_effect(3, rng), random_effect(3, rng)
    base = sequential_product(a, b).matrix
    profile = seq_deviation_profile(a, b, GRID)
    for t, value in zip(GRID, profile):
        direct = np.max(np.abs(np.linalg.eigvalsh(time_seq_product(a, b, t).matrix - base)))
        assert value == pytest.approx(direct, abs=1e-12)


def test_max_seq_deviation_frozen_example1():
    # || a[pi]b - a o b || = 1/2 for the first worked pair
    a, b = example1()
    assert max_seq_deviation(a, b, [math.pi]) == pytest.approx(0.5, abs=1e-12)


def test_projection_closed_form_matches_generic(rng):
    for dim in (2, 3, 4):
        rank = int(rng.integers(1, dim))
        p = random_projection(dim, rank, rng)
        b = random_effect(dim, rng)
        scale = float(rng.uniform(0.1, 1.0))
        a = validate_effect(scale * p.matrix)
        for t in (0.0, 0.9, -4.0, 2 * math.pi / scale):
            lhs = projection_evolution_closed_form(b, scale, p, t).matrix
            rhs = effect_evolution(b, a, t).matrix
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_projection_closed_form_period_and_zero(rng):
    p = random_projection(3, 2, rng)
    b = random_effect(3, rng)
    assert np.max(np.abs(projection_evolution_closed_form(b, 0.5, p, 0.0).matrix - b.matrix)) < 1e-14
    full_period = projection_evolution_closed_form(b, 0.5, p, 4 * math.pi).matrix
    assert np.max(np.abs(full_period - b.matrix)) < 1e-12


@pytest.mark.parametrize(
    "scale, t",
    [(0.5, math.inf), (0.5, -math.inf), (0.5, math.nan), (math.inf, 1.0), (-math.inf, 1.0),
     (0.0, math.inf), (1e200, 1e200)],
)
def test_projection_closed_form_refuses_a_non_finite_phase(rng, scale, t):
    p = random_projection(3, 1, rng)
    b = random_effect(3, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EffectdynError, match=r"^phase scale\*t must be finite"):
            projection_evolution_closed_form(b, scale, p, t)


def test_projection_closed_form_keeps_finite_phases(rng):
    p = random_projection(2, 1, rng)
    b = random_effect(2, rng)
    pm, bm = p.matrix, b.matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e308, -1e308, 3.5e15, 0.9):
            phase = np.exp(-1j * 0.5 * t)
            expected = (
                bm
                + 2.0 * (1.0 - np.cos(0.5 * t)) * (pm @ (bm @ pm))
                + (phase - 1.0) * (pm @ bm)
                + (np.conj(phase) - 1.0) * (bm @ pm)
            )
            got = projection_evolution_closed_form(b, 0.5, p, t).matrix
            assert np.array_equal(got, validate_effect(expected).matrix)


def test_projection_closed_form_rejects_non_projection(rng):
    with pytest.raises(NotAProjectionError):
        projection_evolution_closed_form(
            random_effect(2, rng), 0.5, validate_effect(np.diag([0.5, 0.5])), 1.0
        )
    with pytest.raises(NotAProjectionError):
        projection_evolution_closed_form(random_effect(2, rng), 0.5, zero_effect(2), 1.0)


# --- the evolution identities, spot-checked here; volume runs live in the
# --- acceptance suite


def test_group_law(rng):
    a, b = random_effect(4, rng), random_effect(4, rng)
    t1, t2 = 0.8, -2.5
    lhs = effect_evolution(b, a, t1 + t2).matrix
    rhs = effect_evolution(effect_evolution(b, a, t1), a, t2).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_delay_composition(rng):
    a, b = random_effect(3, rng), random_effect(3, rng)
    t1, t2 = 1.4, 0.3
    lhs = time_seq_product(a, b, t1 + t2).matrix
    rhs = effect_evolution(time_seq_product(a, b, t1), a, t2).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_commuting_pairs_give_symmetric_product(rng):
    a, b = random_commuting_pair(4, rng)
    for t in (0.0, 1.0, -3.3):
        gap = time_seq_product(a, b, t).matrix - time_seq_product(b, a, t).matrix
        assert np.max(np.abs(gap)) < 1e-12


def test_witness_transport_spot_check(rng):
    from effectdyn import effect_evolution as evolve

    a, b = random_commuting_pair(3, rng)
    c = random_effect(3, rng)
    w = commuting_witness(a, b)
    t = 1.9
    from effectdyn import CoexistenceWitness

    moved = CoexistenceWitness(
        evolve(w.a1, c, t), evolve(w.b1, c, t), evolve(w.c, c, t)
    )
    assert verify_coexistence_witness(evolve(a, c, t), evolve(b, c, t), moved)
    seq = CoexistenceWitness(
        time_seq_product(c, w.a1, t), time_seq_product(c, w.b1, t), time_seq_product(c, w.c, t)
    )
    assert verify_coexistence_witness(
        time_seq_product(c, a, t), time_seq_product(c, b, t), seq
    )


# -- EigenFrame ----------------------------------------------------------------


def _frame_cases(rng):
    """(a, b) pairs: generic and rank-deficient a at dims 2-8, plus a spectrum
    {0, .5, .5 + 1e-9} with a near-degenerate pair."""
    cases = []
    for dim in range(2, 9):
        u = random_unitary(dim, rng)
        generic = rng.uniform(0.0, 1.0, dim)
        deficient = np.where(np.arange(dim) < dim // 2, 0.0, generic)
        for w in (generic, deficient):
            cases.append((validate_effect((u * w) @ u.conj().T), random_effect(dim, rng)))
    u = random_unitary(3, rng)
    near = np.array([0.0, 0.5, 0.5 + 1e-9])
    cases.append((validate_effect((u * near) @ u.conj().T), random_effect(3, rng)))
    return cases


def test_eigen_frame_matches_dense_reference(rng):
    times = np.array([0.0, 0.7, -2.3, 25.0])
    for a, b in _frame_cases(rng):
        s = dense_reference.root(a.matrix)
        for frame, m in (
            (EigenFrame.evolution(a, b), b.matrix),
            (EigenFrame.product(a, b), s @ b.matrix @ s),
        ):
            want = np.array([dense_reference.conjugation(a.matrix, m, t) for t in times])
            assert np.max(np.abs(frame.at(times) - want)) < 1e-12
            for t, w in zip(times, want):
                assert np.max(np.abs(frame.at(t) - w)) < 1e-12
            deviation = [np.max(np.abs(np.linalg.eigvalsh(w - m))) for w in want]
            assert np.max(np.abs(frame.deviation_norms(times) - deviation)) < 1e-12
            derivative = [
                np.max(np.abs(np.linalg.eigvalsh(1j * (w @ a.matrix - a.matrix @ w))))
                for w in want
            ]
            assert np.max(np.abs(frame.trajectory(times)[2] - derivative)) < 1e-12
            nested = want
            for n in (1, 2, 3):
                nested = 1j * (nested @ a.matrix - a.matrix @ nested)
                assert np.max(np.abs(frame.at(times, n) - nested)) < 1e-12
        # d/dt a[t]b against the dense i[a[t]b, a] it replaced
        for t in times:
            a_t_b = dense_reference.conjugation(a.matrix, s @ b.matrix @ s, t)
            dense = 1j * (a_t_b @ a.matrix - a.matrix @ a_t_b)
            assert np.max(np.abs(seq_product_derivative(a, b, t) - dense)) < 1e-12


def test_derivative_norms_take_one_eigensolve_for_a_grid(rng, monkeypatch):
    # ||i[M(t), a]|| is the norm of a unitary conjugate of i[M, a], so on a
    # 129-point grid the trajectory's derivative column costs one eigensolve
    # (after the deviation column's stacked one) and its value holds at every t
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(m):
        m = np.asarray(m)
        solved.append(m.size // (m.shape[-1] * m.shape[-1]))
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    times = np.linspace(-3.0, 25.0, 129)
    for a, b in _frame_cases(rng):
        s = dense_reference.root(a.matrix)
        for frame, m in (
            (EigenFrame.evolution(a, b), b.matrix),
            (EigenFrame.product(a, b), s @ b.matrix @ s),
        ):
            solved.clear()
            norms = frame.trajectory(times)[2]
            assert solved == [times.size, 1] and norms.shape == times.shape
            for t, value in zip(times, norms):
                w = dense_reference.conjugation(a.matrix, m, t)
                dense = np.linalg.norm(1j * (w @ a.matrix - a.matrix @ w), 2)
                assert value == pytest.approx(dense, abs=1e-12)
    with pytest.raises(EmptyGridError):
        frame.trajectory([])
    # a reaches 1 + 5e-10 (admitted at the default tol), so t * freq overflows
    edge = EigenFrame.evolution(validate_effect(np.diag([1.0 + 5e-10, 0.0])), random_effect(2, rng))
    with pytest.raises(EffectdynError, match="phase"):
        edge.trajectory([0.0, 1.7976931348623157e308])


def test_trajectory_rotates_each_time_once_and_matches_the_readers(rng, monkeypatch):
    # at, deviation_norms and the one-eigensolve derivative norm, bit for bit,
    # from one E_t ⊙ X per time: each reader alone forms it again
    times = np.linspace(-3.0, 25.0, 65)
    rotated = EigenFrame._rotated
    calls = []

    def counting(self, t, order=0):
        calls.append(order)
        return rotated(self, t, order)

    for a, b in _frame_cases(rng):
        for frame in (EigenFrame.evolution(a, b), EigenFrame.product(a, b)):
            derivative = np.full(times.shape, frame._derivative_norm())
            want = (frame.at(times), frame.deviation_norms(times), derivative)
            with monkeypatch.context() as m:
                m.setattr(EigenFrame, "_rotated", counting)
                calls.clear()
                got = frame.trajectory(times)
                assert calls == [0]
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    with pytest.raises(EmptyGridError):
        frame.trajectory([])


def test_eigen_frame_rejects_empty_grid(rng):
    frame = EigenFrame.evolution(random_effect(2, rng), random_effect(2, rng))
    for empty in ([], np.empty((0,))):
        with pytest.raises(EmptyGridError):
            frame.at(empty)


def test_eigen_frame_reads_a_grid_as_its_times_one_by_one(rng):
    # at(times, order) stacks at(t, order) for each t, bit for bit: both kinds
    # of frame, orders 0-2, dims 1-8, for a generic and a rank-deficient a
    times = np.array([0.0, 0.7, -2.3, 25.0, -1e3])
    for dim in range(1, 9):
        u = random_unitary(dim, rng)
        generic = rng.uniform(0.0, 1.0, dim)
        for w in (generic, np.where(np.arange(dim) < (dim + 1) // 2, 0.0, generic)):
            a = validate_effect((u * w) @ u.conj().T)
            b = random_effect(dim, rng)
            for frame in (EigenFrame.evolution(a, b), EigenFrame.product(a, b)):
                for order in (0, 1, 2):
                    grid = frame.at(times, order)
                    assert grid.shape == (times.size, dim, dim)
                    for t, m in zip(times.tolist(), grid):
                        assert np.array_equal(frame.at(t, order), m)


def _with_broken_sqrt(a, rng, size=1e-6):
    """A copy of a whose cached square root is off by size (g + gᵀ), g standard normal.

    Its decomposition is cached first, as each property caches it before the
    square root, so the one-pass fill of stacked_roots leaves the copy as it is.
    """
    copy = validate_effect(a.matrix)
    copy.decomposition
    g = rng.standard_normal(a.matrix.shape)
    vars(copy)["sqrt"] = a.sqrt + size * (g + g.T)
    return copy


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda a: effect_evolutions([], a, 0.5), ()),
        (lambda a: sequential_products([], []), ()),
        (lambda a: time_seq_products([], [], 0.5), ()),
        (lambda a: EigenFrame.stacked_products([], []), "no dimension"),
    ],
    ids=["effect_evolutions", "sequential_products", "time_seq_products", "stacked_products"],
)
def test_empty_families(call, want):
    # no member gives no results, and a frame of no pairs has no dimension to build from
    a = validate_effect(np.diag([0.25, 0.75]))
    if want == ():
        assert call(a) == ()
    else:
        with pytest.raises(EffectdynError, match=want):
            call(a)


def test_consistency_error_when_routes_disagree_at_construction(rng):
    # a root off by 1e-6 shifts a∘b and with it a[t]b at every t; a check of
    # one t's value against s (u b u†) s misses that near t = 0, where u is
    # I or nearly so, but the frame's check at construction holds for every t
    # (t = 0 is the CLI default)
    a, b = random_effect(3, rng), random_effect(3, rng)
    broken = _with_broken_sqrt(a, rng)
    with pytest.raises(ConsistencyError):
        EigenFrame.product(broken, b)
    for t in (0.0, 1e-7, 1e-5, 1.0):
        with pytest.raises(ConsistencyError):
            time_seq_product(broken, b, t)
    a_obs = validate_observable([broken, validate_effect(np.eye(3) - a.matrix)])
    b_obs = validate_observable([b, validate_effect(np.eye(3) - b.matrix)])
    with pytest.raises(ConsistencyError):
        obs_time_seq_product(a_obs, b_obs, 0.0)
    with pytest.raises(ConsistencyError):
        time_conditional_observable(b_obs, a_obs, 0.0)


def test_a_root_fault_of_1e_8_is_caught():
    # a fault of 1e-8 (g + gᵀ) in the cached root moves a∘b by about 1e-8 off
    # the second route; a check of 1e-6 lets every such frame pass
    for dim in (2, 3, 4, 8):
        for seed in range(5):
            rng = np.random.default_rng([dim, seed])
            a, b = random_effect(dim, rng), random_effect(dim, rng)
            with pytest.raises(ConsistencyError):
                EigenFrame.product(_with_broken_sqrt(a, rng, 1e-8), b)


def _item3_pair(tol=1e6):
    """a = [[.5, .2], [.2, .5]] and b with eigenvalues 0.5 and 1e6 on (|0> ± |1>)/√2, admitted at tol."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    a = validate_effect(np.array([[0.5, 0.2], [0.2, 0.5]]), tol)
    return a, validate_effect(h @ np.diag([0.5, 1e6]) @ h, tol)


def test_the_cross_check_bound_scales_with_the_pair(rng):
    # the routes of a pair of scale ||a|| ||b|| = 7e5 round apart by more than
    # 1e-10; the bound 1e-10 max(1, ||a|| ||b||) admits that rounding, and
    # still catches a root fault of 1e-8, which moves a∘b by about 1e-2
    a, b = _item3_pair()
    frame = EigenFrame.product(a, b)
    assert np.array_equal(frame.x, EigenFrame.evolution(a, sequential_product(a, b)).x)
    value = time_seq_product(a, b, 0.7).matrix
    assert np.max(np.abs(np.linalg.eigvalsh(value) - np.linalg.eigvalsh(frame.x))) <= 1e-10 * b.norm
    broken = _with_broken_sqrt(a, rng, 1e-8)
    with pytest.raises(ConsistencyError, match=f"bound {1e-10 * a.norm * b.norm:.3e}"):
        EigenFrame.product(broken, b)


def test_admitted_pairs_up_to_tol_1e12_pass_the_cross_check():
    # dims 2-8, tol 1 to 1e12, each operand at unit scale or scaled to its tol:
    # no pair raises ConsistencyError, and each a[t]b keeps the spectrum of
    # a∘b to the rounding of the pair's scale
    for dim in range(2, 9):
        for log_tol in range(0, 13, 3):
            tol = 10.0**log_tol
            rng = np.random.default_rng([dim, log_tol])
            for scale_a, scale_b in ((1.0, 1.0), (1.0, tol), (tol, 1.0), (tol, tol)):
                m_a, m_b = (random_effect(dim, rng).matrix for _ in range(2))
                a, b = validate_effect(scale_a * m_a, tol), validate_effect(scale_b * m_b, tol)
                frame = EigenFrame.product(a, b)
                spectrum = np.linalg.eigvalsh(frame.x)
                value = np.linalg.eigvalsh(time_seq_product(a, b, 0.7).matrix)
                assert np.max(np.abs(value - spectrum)) <= 1e-12 * max(1.0, a.norm * b.norm)


def test_eigen_frame_products_stack_product_bit_for_bit(rng):
    # each frame of one stacked pass is the one-pair frame of its pair, and
    # the frame of a∘b built alone, every field bit for bit: dims 1-8, a
    # generic and a rank-deficient a, and the swapped pairs of a scan
    for dim in range(1, 9):
        u = random_unitary(dim, rng)
        w = np.where(np.arange(dim) < dim // 2, 0.0, rng.uniform(0.0, 1.0, dim))
        deficient = validate_effect((u * w) @ u.conj().T)
        a, b = random_effect(dim, rng), random_effect(dim, rng)
        lefts, rights = [a, b, deficient], [b, a, random_effect(dim, rng)]
        frames = EigenFrame.stacked_products(lefts, rights)
        assert all(len(getattr(frames, field)) == 3 for field in ("vectors", "freq", "x"))
        for k, (left, right) in enumerate(zip(lefts, rights)):
            for single in (
                EigenFrame.product(left, right),
                EigenFrame.evolution(left, sequential_product(left, right)),
            ):
                for field in ("vectors", "freq", "x"):
                    assert np.array_equal(getattr(frames, field)[k], getattr(single, field)), field


def test_eigen_frame_products_check_every_slice(rng):
    # one corrupted pair anywhere in the stack fails the one stacked cross-check
    a, b, c = (random_effect(3, rng) for _ in range(3))
    broken = _with_broken_sqrt(a, rng)
    EigenFrame.stacked_products([a, b, c], [b, c, a])
    for lefts in ([broken, b, c], [a, b, broken]):
        with pytest.raises(ConsistencyError):
            EigenFrame.stacked_products(lefts, [b, c, a])


_PARITY_TIMES = (0.0, 1e-3, -1e-3, 1.0, -1.0, 1e4, 1e8, -1e8, 1e10)


def _dense_parity(seed: int):
    """(residual, allowance) of time_seq_products against dense_reference, per pair and time.

    Dims 1-8, each with a generic pair both ways and a singular left operand.
    """
    rng = np.random.default_rng(seed)
    out = []
    for dim in range(1, 9):
        u = random_unitary(dim, rng)
        w = np.where(np.arange(dim) < (dim + 1) // 2, 0.0, rng.uniform(0.0, 1.0, dim))
        singular = validate_effect((u * w) @ u.conj().T)
        a, b = explorer.random_effect(dim, rng), explorer.random_effect(dim, rng)
        lefts, rights = [a, b, singular], [b, a, a]
        products = sequential_products(lefts, rights)
        for t in _PARITY_TIMES:
            values = time_seq_products(lefts, rights, t)
            for left, right, ab, value in zip(lefts, rights, products, values):
                dense = dense_reference.time_seq_product(left.matrix, right.matrix, t)
                residual = linalg.spectral_norm(value.matrix - dense)
                out.append((residual, dense_route_allowance(left.matrix, ab.matrix, t)))
    return out


def test_time_seq_products_match_the_dense_route():
    # every a[t]b, read from its frame, is the dense s (u b u†) s to rounding
    # and the rounding of the phases, at every listed t, also at |t| = 1e10
    for residual, allowance in _dense_parity(3):
        assert residual <= allowance


def test_dense_reference_imports_only_numpy():
    # it takes plain arrays and imports no effectdyn code, so it shares no
    # eigensolve, root or phase with what it checks
    tree = ast.parse(Path(dense_reference.__file__).read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {name.partition(".")[0] for name in names} <= {"numpy", *sys.stdlib_module_names}


def test_dense_parity_catches_a_shared_decomposition_fault(monkeypatch):
    # every cached eigenvalue 1e-7 off moves the frame's roots and phases
    # together, so the frame's own check passes; the dense reference, which
    # eigensolves a itself, does not move with it
    solve = linalg.hermitian_eigh

    def shifted(h):
        d = solve(h)
        return linalg.SpectralDecomposition(d.eigenvalues * (1.0 + 1e-7), d.vectors)

    monkeypatch.setattr(linalg, "hermitian_eigh", shifted)
    assert any(residual > allowance for residual, allowance in _dense_parity(3))


def test_dense_parity_catches_a_doubled_phase(monkeypatch):
    # a frame read at 2t instead of t passes the frame's own check, built at
    # no t, but not the parity with the dense route
    rotated = EigenFrame._rotated

    def doubled(self, t, order=0):
        return rotated(self, 2.0 * np.asarray(t), order)

    monkeypatch.setattr(EigenFrame, "_rotated", doubled)
    assert any(residual > allowance for residual, allowance in _dense_parity(3))


def test_products_keep_their_spectrum_at_huge_t():
    # the frame's phases t (w_j - w_0) round by about eps |t|, but E_t ⊙ X is
    # D X D† for a diagonal unitary D, so a[t]b keeps the spectrum of a∘b;
    # phases t (w_j - w_k) rounded entry by entry used to push it out of
    # [-tol, 1 + tol] (SpectrumOutOfRangeError) at |t| >= 7.7e9
    for seed in range(15):
        for dim in range(3, 9):
            rng = np.random.default_rng(seed)
            a, b = explorer.random_effect(dim, rng), explorer.random_effect(dim, rng)
            for x, y in ((a, b), (b, a)):
                spectrum = np.linalg.eigvalsh(sequential_product(x, y).matrix)
                for t in np.geomspace(7.7e9, 1e12, 5):
                    value = time_seq_product(x, y, t).matrix
                    assert np.max(np.abs(np.linalg.eigvalsh(value) - spectrum)) < 1e-13
