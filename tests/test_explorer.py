import math

import numpy as np
import pytest

from effectdyn import (
    ScanConfig,
    evolution,
    explorer,
    closed_forms,
    conjecture_scan,
    minimize_gap,
    seq_deviation_profile,
    sequential_product,
    symmetry_gap,
    symmetry_gap_profile,
    validate_effect,
)
from effectdyn.errors import (
    CommutingPairError,
    DimensionMismatchError,
    EffectdynError,
    EmptyGridError,
)
from effectdyn.evolution import EigenFrame
from effectdyn.explorer import (
    CANDIDATE_LABEL,
    CANDIDATE_THRESHOLD,
    CERTIFY_RTOL,
    PUNCTURED_RADIUS,
    random_effect,
)

from support import random_commuting_pair

# frozen at first build: random_effect(2, default_rng(42))
SEED42_DIM2 = np.array(
    [
        [0.60741389551445291, -0.05103070988738196 - 0.25204364869093515j],
        [-0.05103070988738196 + 0.25204364869093515j, 0.83155253473958779],
    ]
)


def test_random_effect_always_valid():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 3, 6):
        for _ in range(5):
            e = random_effect(dim, rng)  # validate_effect runs inside
            assert e.dim == dim
            assert e.eig_min >= -1e-12 and e.eig_max <= 1.0 + 1e-12


def test_random_effect_seed42_frozen_matrix():
    e = random_effect(2, np.random.default_rng(42))
    assert np.max(np.abs(e.matrix - SEED42_DIM2)) == 0.0


def test_random_effect_deterministic_per_state():
    first = random_effect(3, np.random.default_rng(99)).matrix
    second = random_effect(3, np.random.default_rng(99)).matrix
    assert np.array_equal(first, second)


def test_random_pairs_rarely_commute():
    rng = np.random.default_rng(0)
    from effectdyn.explorer import commutator_norm

    norms = [
        commutator_norm(random_effect(2, rng), random_effect(2, rng)) for _ in range(200)
    ]
    assert min(norms) > 0.0
    assert sum(n > 1e-3 for n in norms) >= 195  # near-commuting draws are rare


def test_symmetry_gap_commuting_pair(rng):
    a, b = random_commuting_pair(3, rng)
    for t in (0.0, 1.0, -7.7):
        assert symmetry_gap(a, b, t) < 1e-12


def test_symmetry_gap_at_zero_is_product_asymmetry():
    a, b = closed_forms.example1_effects()
    expected = np.max(
        np.abs(
            np.linalg.eigvalsh(
                sequential_product(a, b).matrix - sequential_product(b, a).matrix
            )
        )
    )
    assert symmetry_gap(a, b, 0.0) == pytest.approx(expected, abs=1e-14)
    assert symmetry_gap(a, b, 0.0) > 0.01


def test_symmetry_gap_profile_matches_pointwise(rng):
    # the search's kernel, batched and at one time, against the dense
    # cross-checked route; the last a of each dim has a zero eigenvalue
    ts = np.linspace(-3.0, 3.0, 41)
    for dim in range(2, 9):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        singular = validate_effect(q @ np.diag([0.0, *rng.uniform(0.1, 1.0, dim - 1)]) @ q.conj().T)
        b = random_effect(dim, rng)
        for a in (random_effect(dim, rng), singular):
            profile = symmetry_gap_profile(a, b, ts)
            gap = explorer._gap_kernel(explorer._frames(a, b))
            for t, value in zip(ts, profile):
                dense = symmetry_gap(a, b, t)
                assert value == pytest.approx(dense, abs=1e-12)
                assert gap(t) == pytest.approx(dense, abs=1e-12)
    a = random_effect(3, np.random.default_rng(5))
    with pytest.raises(DimensionMismatchError):
        symmetry_gap_profile(a, random_effect(2, np.random.default_rng(7)), ts)


def test_gap_profiles_reject_empty_grid():
    a = random_effect(2, np.random.default_rng(5))
    b = random_effect(2, np.random.default_rng(6))
    for profile in (symmetry_gap_profile, seq_deviation_profile):
        with pytest.raises(EmptyGridError):
            profile(a, b, [])


def test_conjecture_scan_uses_only_eigenframes(monkeypatch):
    # the refinement must not fall back to the cross-checked scalar route
    def forbidden(*args, **kwargs):
        raise AssertionError("scan evaluated a gap outside its eigenframes")

    monkeypatch.setattr(explorer, "symmetry_gap", forbidden)
    monkeypatch.setattr(explorer, "time_seq_product", forbidden)
    monkeypatch.setattr(evolution, "time_seq_product", forbidden)
    built = []
    product = EigenFrame.product.__func__

    def counting_product(cls, a, b):
        built.append((a, b))
        return product(cls, a, b)

    monkeypatch.setattr(EigenFrame, "product", classmethod(counting_product))
    result = conjecture_scan(ScanConfig(dim=3, trials=2, seed=4))
    assert len(result.records) == 2
    assert len(built) == 4  # (a, b) and (b, a) once per trial


def test_scan_config_validation():
    with pytest.raises(EffectdynError):
        ScanConfig(dim=1)
    with pytest.raises(EffectdynError):
        ScanConfig(dim=9)
    with pytest.raises(EffectdynError):
        ScanConfig(trials=-1)
    with pytest.raises(EffectdynError):
        ScanConfig(t_window=(1.0, 1.0))
    with pytest.raises(EffectdynError):
        ScanConfig(t_window=(0.0, math.inf))
    with pytest.raises(EffectdynError):
        ScanConfig(grid_points=4)
    with pytest.raises(EffectdynError):
        ScanConfig(grid_points=explorer.MAX_KNOTS + 1)
    with pytest.raises(EffectdynError):
        ScanConfig(commutator_floor=0.0)
    with pytest.raises(EffectdynError):
        ScanConfig(seed=-1)


def test_minimize_gap_rejects_commuting_pair(rng):
    a, b = random_commuting_pair(2, rng)
    with pytest.raises(CommutingPairError):
        minimize_gap(a, b, ScanConfig(dim=2))


def test_minimize_gap_below_grid_and_matches_dense_scan():
    cfg = ScanConfig(dim=2, trials=1, grid_points=256)
    rng = np.random.default_rng(11)
    for _ in range(3):
        a, b = random_effect(2, rng), random_effect(2, rng)
        t_star, min_gap = minimize_gap(a, b, cfg)
        lo, hi = cfg.t_window
        assert lo <= t_star <= hi
        grid = np.linspace(lo, hi, cfg.grid_points)
        gaps = symmetry_gap_profile(a, b, grid)
        assert min_gap <= np.min(gaps) + 1e-15
        dense = symmetry_gap_profile(a, b, np.linspace(lo, hi, 100_001))
        assert min_gap <= np.min(dense) + 1e-8
        assert abs(min_gap - np.min(dense)) < 1e-6  # dense grid is itself coarse


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_minimize_gap_reproduces_each_scan_record(dim):
    # one search per pair: the scan's window minimum, to the last bit
    cfg = ScanConfig(dim=dim, trials=40, seed=11)
    records = conjecture_scan(cfg).records
    assert len(records) == 40
    for r in records:
        assert minimize_gap(r.a, r.b, cfg) == (r.t_star, r.min_gap)


def test_minimize_gap_window_excluding_zero():
    rng = np.random.default_rng(13)
    a, b = random_effect(2, rng), random_effect(2, rng)
    cfg = ScanConfig(dim=2, t_window=(2.0, 3.0), grid_points=64)
    t_star, min_gap = minimize_gap(a, b, cfg)
    assert 2.0 <= t_star <= 3.0


def test_conjecture_scan_empty():
    result = conjecture_scan(ScanConfig(dim=2, trials=0))
    assert result.records == ()
    assert result.summary["global_min"] is None
    assert result.summary["candidates"] == []


def test_conjecture_scan_deterministic():
    cfg = ScanConfig(dim=2, trials=8, seed=123, grid_points=64)
    first = conjecture_scan(cfg)
    second = conjecture_scan(cfg)
    assert first.summary == second.summary
    for r1, r2 in zip(first.records, second.records):
        assert r1.t_star == r2.t_star and r1.min_gap == r2.min_gap
        assert np.array_equal(r1.a.matrix, r2.a.matrix)


def test_conjecture_scan_filter_soundness_and_ranking():
    cfg = ScanConfig(dim=3, trials=6, seed=5, grid_points=64)
    result = conjecture_scan(cfg)
    assert len(result.records) == 6
    for r in result.records:
        assert r.commutator_norm >= cfg.commutator_floor
        assert r.min_gap >= 0.0
        assert r.punctured_min_gap is not None
        # both values are refinement-limited upper bounds of their window
        # minima, so they may cross at convergence-tolerance level when the
        # minimizer sits just outside the removed neighborhood
        assert r.punctured_min_gap >= r.min_gap - 1e-8
    ranked = result.summary["ranking"]
    gaps = [entry["min_gap"] for entry in ranked]
    assert gaps == sorted(gaps)
    assert result.summary["global_min"]["min_gap"] == gaps[0]
    assert sum(result.summary["histogram"]["counts"]) == len(result.records)


def test_conjecture_scan_high_floor_skips_all():
    # ||[a,b]|| <= 2||a|| ||b|| <= 2, so a floor of 3 filters every draw and
    # exercises the bounded-redraw path
    cfg = ScanConfig(dim=2, trials=3, seed=1, commutator_floor=3.0, grid_points=64)
    result = conjecture_scan(cfg)
    assert result.records == ()
    assert result.summary["skipped"] == 3


def test_punctured_window_semantics():
    rng = np.random.default_rng(17)
    a, b = random_effect(2, rng), random_effect(2, rng)
    # window strictly inside the removed neighborhood: no punctured minimum
    tight = ScanConfig(
        dim=2,
        trials=1,
        t_window=(-PUNCTURED_RADIUS / 2, PUNCTURED_RADIUS / 2),
        grid_points=32,
        seed=17,
    )
    result = conjecture_scan(tight)
    assert all(r.punctured_min_gap is None for r in result.records)


def test_candidate_label_is_cautious():
    assert "candidate" in CANDIDATE_LABEL
    assert "counterexample" not in CANDIDATE_LABEL
    assert CANDIDATE_THRESHOLD == 1e-8


def test_scan_candidates_empty_for_generic_draws():
    result = conjecture_scan(ScanConfig(dim=2, trials=8, seed=2, grid_points=64))
    # generic random pairs sit far above the candidate threshold
    assert result.summary["candidates"] == []


# -- certified search ---------------------------------------------------------


def _dense_minima(a, b, lo, hi):
    """The gap's minima over 10⁵ + 1 evenly spaced times in [lo, hi] ∋ 0: all, and |t| >= R.

    Exact without evaluating every time: d/dt a[t]b = i[a[t]b, a] with both
    norms at most 1, so each product moves at most 2 per unit t and the gap
    at most 4 (5 leaves room for the admission tolerance). A block of times
    whose first gap exceeds the smallest first gap by more than 5 times the
    block's width cannot hold the minimum.
    """
    ts = np.linspace(lo, hi, 100_001)
    outer = np.abs(ts) >= PUNCTURED_RADIUS
    blocks = np.array_split(ts[outer], 3125)
    heads = symmetry_gap_profile(a, b, [block[0] for block in blocks])
    reach = np.array([5.0 * (block[-1] - block[0]) for block in blocks])
    kept = [block for block, k in zip(blocks, heads - reach <= heads.min()) if k]
    punctured = float(np.min(symmetry_gap_profile(a, b, np.concatenate(kept))))
    return min(punctured, float(np.min(symmetry_gap_profile(a, b, ts[~outer])))), punctured


def test_certified_lower_bounds_hold_against_dense_minima():
    # 54 pairs at dims 2-8; h is the initial knot spacing
    exercised = 0
    for dim in range(2, 9):
        cfg = ScanConfig(dim=dim, trials=10 - dim // 2, seed=dim)
        lo, hi = cfg.t_window
        h = (hi - lo) / (cfg.grid_points - 1)
        for r in conjecture_scan(cfg).records:
            dense, punctured = _dense_minima(r.a, r.b, lo, hi)
            assert 0.0 <= r.min_gap_lower <= min(dense, r.min_gap)
            assert 0.0 <= r.punctured_min_gap_lower <= min(punctured, r.punctured_min_gap)
            # certified to CERTIFY_RTOL of the reported minimum
            assert r.min_gap_lower >= (1.0 - CERTIFY_RTOL) * r.min_gap
            assert r.punctured_min_gap_lower >= (1.0 - CERTIFY_RTOL) * r.punctured_min_gap
            if dense > explorer._lipschitz(explorer._frames(r.a, r.b)) * h:
                exercised += 1
                assert r.min_gap_lower > 0.0
    assert exercised >= 10


def test_lipschitz_constant_bounds_the_gap_slope():
    # |gap(t) - gap(s)| <= L |t - s| between neighbors of a fine grid, up to rounding
    ts = np.linspace(-4.0 * math.pi, 4.0 * math.pi, 4001)
    for dim in range(2, 9):
        cfg = ScanConfig(dim=dim, trials=3, seed=30 + dim)
        for r in conjecture_scan(cfg).records:
            steps = np.abs(np.diff(symmetry_gap_profile(r.a, r.b, ts)))
            lip = explorer._lipschitz(explorer._frames(r.a, r.b))
            assert np.all(steps <= lip * (ts[1] - ts[0]) + 1e-14)


def test_search_finds_the_basin_at_zero():
    # dim 2, seed 5, trial 59: the fixed 512-point grid of earlier releases had
    # no point at t = 0 and settled for 0.1086565 at t = -7.5675
    records = conjecture_scan(ScanConfig(dim=2, trials=60, seed=5)).records
    r = next(r for r in records if r.trial == 59)
    assert r.min_gap <= 0.1086054
    assert abs(r.t_star) < 1e-6
    assert r.min_gap_lower > 0.0


def _scaled_projection(dim, rank, scale, rng):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return validate_effect(scale * q[:, :rank] @ q[:, :rank].conj().T)


def test_constant_gap_bound_stays_below_minimum(monkeypatch):
    # both operands are scaled projections, so a[t]b and b[t]a are constant:
    # L is rounding noise and only the slack keeps the bound under the gap,
    # and golden refinement stops at its two starting points in each window
    single_calls = []
    kernel = explorer._gap_kernel

    def counting_kernel(frames):
        gap = kernel(frames)

        def counted(t):
            if np.ndim(t) == 0:
                single_calls.append(t)
            return gap(t)

        return counted

    monkeypatch.setattr(explorer, "_gap_kernel", counting_kernel)
    rng = np.random.default_rng(21)
    for dim in (2, 3, 4, 6):
        for rank in range(1, dim):
            a = _scaled_projection(dim, rank, 0.7, rng)
            b = _scaled_projection(dim, dim - rank, 0.4, rng)
            frames = explorer._frames(a, b)
            assert explorer._lipschitz(frames) < 1e-12
            single_calls.clear()
            full, punctured = explorer._certified_search(frames, ScanConfig(dim=dim))
            for window in (full, punctured):
                assert 0.0 < window.lower <= window.min_gap
            assert len(single_calls) in (2, 4)  # two per distinct bracket


def test_constant_gap_is_certified_on_a_huge_window():
    # L is rounding noise, so 2 S / L dwarfs a window of width 1e9 and the
    # up-front knot bound does not refuse it; the bound is still certified
    rng = np.random.default_rng(22)
    for dim in (2, 3, 4, 6):
        for rank in range(1, dim):
            a = _scaled_projection(dim, rank, 0.7, rng)
            b = _scaled_projection(dim, dim - rank, 0.4, rng)
            cfg = ScanConfig(dim=dim, t_window=(0.0, 1e9))
            full, punctured = explorer._certified_search(explorer._frames(a, b), cfg)
            for window in (full, punctured):
                assert 0.0 < window.lower <= window.min_gap
                assert window.min_gap == pytest.approx(symmetry_gap(a, b, 0.0), rel=1e-12)


def test_scan_reports_certified_brackets(monkeypatch):
    # a threshold above every gap makes each trial a candidate
    monkeypatch.setattr(explorer, "CANDIDATE_THRESHOLD", 1.0)
    result = conjecture_scan(ScanConfig(dim=3, trials=6, seed=5))
    assert result.summary["certified_positive"] == 6
    brackets = {c["trial"]: c["bracket"] for c in result.summary["candidates"]}
    assert brackets == {r.trial: [r.min_gap_lower, r.min_gap] for r in result.records}


LARGEST = 1.7976931348623157e308


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_midpoints_near_the_largest_float_do_not_overflow():
    # knots a few floats below the largest one: each midpoint adds two
    # halves, so no sum overflows and the scan warns of nothing
    result = conjecture_scan(ScanConfig(trials=2, t_window=(1.797693134862315e308, LARGEST)))
    assert len(result.records) == 2
    assert all(0.0 <= r.min_gap_lower <= r.min_gap for r in result.records)


def _overflowing_pair():
    """a reaches 1 + 5e-10 (admitted at the default tol), so t * freq overflows near 1.8e308."""
    return validate_effect(np.diag([1.0 + 5e-10, 0.0])), validate_effect(np.full((2, 2), 0.5))


def test_gap_search_checks_its_phases_once_before_any_gap(monkeypatch):
    times, checks = [], []
    kernel, check = explorer._gap_kernel, EigenFrame.check_phases

    def counting_kernel(frames):
        gap = kernel(frames)
        return lambda t: times.append(t) or gap(t)

    def counting_check(frame, t_max):
        checks.append(t_max)
        return check(frame, t_max)

    monkeypatch.setattr(explorer, "_gap_kernel", counting_kernel)
    monkeypatch.setattr(EigenFrame, "check_phases", counting_check)
    a, b = _overflowing_pair()
    with pytest.raises(EffectdynError, match="phase"):
        minimize_gap(a, b, ScanConfig(t_window=(1.7976931348623155e308, LARGEST)))
    assert times == []
    # a search that runs checks each frame once, at the window's largest |t|
    checks.clear()
    minimize_gap(a, b, ScanConfig(t_window=(-3.0, 5.0)))
    assert checks == [5.0, 5.0]
    assert len(times) > 2


def test_gap_profile_checks_its_phases():
    a, b = _overflowing_pair()
    for t in (math.nan, math.inf, -math.inf, LARGEST):
        with pytest.raises(EffectdynError, match="phase"):
            symmetry_gap_profile(a, b, [0.0, t])
    assert np.all(np.isfinite(symmetry_gap_profile(a, b, [0.0, 1e300])))
