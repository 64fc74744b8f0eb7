import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from effectdyn import (
    ScanConfig,
    evolution,
    explorer,
    linalg,
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
    random_effect,
)

from dense_reference import ROOT_ZERO_CUTOFF, gap_polar
from support import random_commuting_pair, reference_bounds
from support import random_effect as random_uniform_effect

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


@pytest.mark.parametrize("dim", range(2, 9))
def test_drawn_pair_is_two_random_effects_bit_for_bit(dim):
    # the (seed, trial) contract: a trial's pair, drawn, normed and admitted
    # as one stack, is what two random_effect calls on the same generator
    # give, down to the admission's extremal eigenvalues
    for seed in range(3):
        for trial in range(4):
            cfg = ScanConfig(dim=dim, seed=seed)
            a, b, norm = explorer._draw_pair(cfg, trial)
            rng = np.random.default_rng([seed, trial])
            for got, want in zip((a, b), (random_effect(dim, rng), random_effect(dim, rng))):
                assert got.matrix.tobytes() == want.matrix.tobytes()
                assert (got.eig_min, got.eig_max, got.tol) == (want.eig_min, want.eig_max, want.tol)
                assert not got.matrix.flags.writeable
            assert norm == explorer.commutator_norm(a, b)


@pytest.mark.parametrize("dim", range(2, 9))
def test_pair_frames_match_products_of_fresh_effects_bit_for_bit(dim):
    # a trial's stacked frames, built on one stacked pass of decompositions
    # and square roots, against EigenFrame.stacked_products on the same matrices
    # admitted afresh, each decomposed and rooted alone by its properties
    for trial in range(4):
        a, b, _ = explorer._draw_pair(ScanConfig(dim=dim, seed=7), trial)
        frames = explorer._frames(a, b)
        fa, fb = validate_effect(a.matrix), validate_effect(b.matrix)
        for stacked, alone in ((a, fa), (b, fb)):
            want = linalg.hermitian_eigh(alone.matrix)
            assert stacked.decomposition.eigenvalues.tobytes() == want.eigenvalues.tobytes()
            assert stacked.decomposition.vectors.tobytes() == want.vectors.tobytes()
            assert stacked.sqrt_eigenvalues.tobytes() == alone.sqrt_eigenvalues.tobytes()
            assert stacked.sqrt.tobytes() == alone.sqrt.tobytes()
        fresh = EigenFrame.stacked_products((fa, fb), (fb, fa))
        for field in ("vectors", "freq", "x"):
            assert getattr(frames, field).tobytes() == getattr(fresh, field).tobytes()


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


@pytest.mark.parametrize("dim", range(2, 9))
def test_symmetry_gap_is_that_of_two_one_pair_products_bit_for_bit(dim):
    def pair(k):
        rng = np.random.default_rng([dim, k])
        return random_effect(dim, rng), random_effect(dim, rng)

    for k, t in enumerate((0.0, 1.7, -1.7, 1e4)):
        a, b = pair(k)
        ref_a, ref_b = pair(k)
        ab = evolution.time_seq_product(ref_a, ref_b, t).matrix
        ba = evolution.time_seq_product(ref_b, ref_a, t).matrix
        expected = linalg.operator_norm(ab - ba)
        assert symmetry_gap(a, b, t) == expected, t  # neither effect decomposed yet
        assert symmetry_gap(a, b, t) == expected, t  # both cached


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
            branches = explorer._gap_kernel(explorer._frames(a, b))
            for t, value in zip(ts, profile):
                dense = symmetry_gap(a, b, t)
                assert value == pytest.approx(dense, abs=1e-12)
                assert max(branches(t)) == pytest.approx(dense, abs=1e-12)
    a = random_effect(3, np.random.default_rng(5))
    with pytest.raises(DimensionMismatchError):
        symmetry_gap_profile(a, random_effect(2, np.random.default_rng(7)), ts)


_EPS = float(np.finfo(float).eps)
_POLAR_TIMES = (0.0, 0.7, -3.1, 25.0, 1e4)


def _polar_tolerance(a, b, t: float) -> float:
    """How far gap_polar and the frames' gap may part at t, from their error terms.

    - Rounding: each route eigensolves, roots, multiplies and takes a norm of
      matrices of norm <= 1, a few d eps per step: 16 d eps in all.
    - Phases: per side, the frame's phases and the dense ones part by
      eps |t| (2 (w_max - w_min) + max|w|) ||X||_F (support.dense_route_allowance),
      ||X||_F <= sqrt(d), for the spectrum w of a and of b.
    - Roots: one eigensolve moves an eigenvalue w by at most
      err = 8 d eps max(1, w_max), so two routes' roots of it part by
      err / sqrt(w - err) above the zero rule's cutoff and by up to
      sqrt(cutoff + err) within err of it; a root enters the gap up to four
      times. The polar route also reads each effect as its root squared,
      which drops each eigenvalue below the cutoff (twice per side).
    """
    d = a.dim
    total = 16.0 * d * _EPS
    for e in (a, b):
        w = np.linalg.eigvalsh(e.matrix)
        total += _EPS * abs(t) * math.sqrt(d) * (2.0 * (w[-1] - w[0]) + np.abs(w).max())
        err = 8.0 * d * _EPS * max(1.0, w[-1])
        cut = ROOT_ZERO_CUTOFF * max(1.0, w[-1])
        above = w[w >= cut + err]
        near = w[(w > cut - err) & (w < cut + err)]
        root = (err / np.sqrt(above - err)).max(initial=0.0)
        if near.size:
            root = max(root, math.sqrt(cut + err))
        total += 4.0 * root + 2.0 * np.abs(w[w < cut + err]).max(initial=0.0)
    return total


@pytest.mark.parametrize("dim", range(2, 9))
def test_gap_agrees_with_the_frame_free_polar_route(dim):
    # boundary spectra (explorer draws: an eigenvalue at 0 or 1) and interior
    # ones (Haar eigenvectors, eigenvalues uniform on [0, 1])
    rng = np.random.default_rng([12, dim])
    pairs = [explorer._random_effects(dim, 2, rng) for _ in range(20)]
    pairs += [(random_uniform_effect(dim, rng), random_uniform_effect(dim, rng)) for _ in range(20)]
    for a, b in pairs:
        profile = symmetry_gap_profile(a, b, _POLAR_TIMES)
        for t, value in zip(_POLAR_TIMES, profile):
            polar, tol = gap_polar(a.matrix, b.matrix, t), _polar_tolerance(a, b, t)
            assert abs(symmetry_gap(a, b, t) - polar) <= tol, (t, polar)
            assert abs(value - polar) <= tol, (t, polar)


@pytest.mark.parametrize("window", [(-4.0 * math.pi, 4.0 * math.pi), (1e4, 1e4 + 8.0 * math.pi)])
@pytest.mark.parametrize("dim", range(2, 9))
def test_scan_min_gap_agrees_with_the_polar_route(dim, window):
    for r in conjecture_scan(ScanConfig(dim=dim, trials=6, t_window=window, seed=5)).records:
        polar = gap_polar(r.a.matrix, r.b.matrix, r.t_star)
        assert abs(r.min_gap - polar) <= _polar_tolerance(r.a, r.b, r.t_star), (r.trial, polar)


def test_a_search_that_reaches_max_knots_midway_is_refused(monkeypatch):
    # a cap of 20 knots is too low for the up-front refusal to prove, so the
    # search evaluates its 16 initial knots and stops at its first split round
    rng = np.random.default_rng(0)
    a, b = random_effect(3, rng), random_effect(3, rng)
    evaluated = []
    gaps = explorer._gaps
    monkeypatch.setattr(
        explorer, "_gaps", lambda br, ts, known: evaluated.append(len(ts)) or gaps(br, ts, known)
    )
    monkeypatch.setattr(explorer, "MAX_KNOTS", 20)
    with pytest.raises(EffectdynError, match="needs more than 20 knots"):
        minimize_gap(a, b, ScanConfig(dim=3))
    assert evaluated == [explorer.INITIAL_KNOTS]


@pytest.mark.parametrize("dim", [0, -1])
def test_random_effect_refuses_a_dimension_below_one(dim):
    # as validate_effect refuses an empty matrix, not numpy's bare ValueError
    shape = rf"expected a nonempty square matrix, got shape \({dim}, {dim}\)"
    with pytest.raises(DimensionMismatchError, match=shape):
        random_effect(dim, np.random.default_rng(0))


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
    monkeypatch.setattr(explorer, "time_seq_products", forbidden)
    monkeypatch.setattr(evolution, "time_seq_product", forbidden)
    built = []
    products = EigenFrame.stacked_products.__func__

    def counting_products(cls, lefts, rights):
        built.append(list(zip(lefts, rights)))
        return products(cls, lefts, rights)

    monkeypatch.setattr(EigenFrame, "stacked_products", classmethod(counting_products))
    result = conjecture_scan(ScanConfig(dim=3, trials=2, seed=4))
    assert len(result.records) == 2
    assert sum(map(len, built)) == 4  # (a, b) and (b, a) once per trial
    # both in one stacked pass per trial
    assert built == [[(r.a, r.b), (r.b, r.a)] for r in result.records]


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
        ScanConfig(commutator_floor=0.0)
    with pytest.raises(EffectdynError):
        ScanConfig(seed=-1)
    # an infinite floor would redraw every pair and write Infinity, which is not JSON
    for floor in (math.inf, math.nan):
        with pytest.raises(EffectdynError, match="commutator_floor must be positive and finite"):
            ScanConfig(commutator_floor=floor)


@pytest.mark.parametrize(
    "fields",
    [
        {"t_window": (1.0,)},
        {"t_window": None},
        {"t_window": ("a", "b")},
        {"t_window": (0.0, 1j)},
        {"commutator_floor": "x"},
        {"commutator_floor": None},
    ],
)
def test_scan_config_refuses_a_window_or_floor_that_is_not_real(fields):
    # checked before any comparison, which would raise Python's own error
    with pytest.raises(EffectdynError):
        ScanConfig(**fields)


@pytest.mark.parametrize("field", ["dim", "trials", "seed"])
def test_scan_config_rejects_non_integers(field):
    # a float count used to construct and then fail deep in the scan with TypeError
    for value in (2.5, 16.0, "8", None, True):
        with pytest.raises(EffectdynError, match=f"{field} must be an integer"):
            ScanConfig(**{field: value})
    assert getattr(ScanConfig(**{field: np.int64(8)}), field) == 8


def test_minimize_gap_rejects_commuting_pair(rng):
    a, b = random_commuting_pair(2, rng)
    with pytest.raises(CommutingPairError):
        minimize_gap(a, b, ScanConfig(dim=2))


def test_minimize_gap_below_grid_and_matches_dense_scan():
    cfg = ScanConfig(dim=2, trials=1)
    rng = np.random.default_rng(11)
    for _ in range(3):
        a, b = random_effect(2, rng), random_effect(2, rng)
        t_star, min_gap = minimize_gap(a, b, cfg)
        lo, hi = cfg.t_window
        assert lo <= t_star <= hi
        # the initial knots: the search never reports a minimum above a knot
        knots = np.linspace(lo, hi, explorer.INITIAL_KNOTS)
        assert min_gap <= np.min(symmetry_gap_profile(a, b, knots)) + 1e-15
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
    cfg = ScanConfig(dim=2, t_window=(2.0, 3.0))
    t_star, min_gap = minimize_gap(a, b, cfg)
    assert 2.0 <= t_star <= 3.0


def test_conjecture_scan_empty():
    result = conjecture_scan(ScanConfig(dim=2, trials=0))
    assert result.records == ()
    assert result.summary["recorded"] == 0
    assert result.summary["candidates"] == []


def test_conjecture_scan_deterministic():
    cfg = ScanConfig(dim=2, trials=8, seed=123)
    first = conjecture_scan(cfg)
    second = conjecture_scan(cfg)
    assert first.summary == second.summary
    for r1, r2 in zip(first.records, second.records):
        assert r1.t_star == r2.t_star and r1.min_gap == r2.min_gap
        assert np.array_equal(r1.a.matrix, r2.a.matrix)


def test_conjecture_scan_filter_soundness_and_ranking():
    cfg = ScanConfig(dim=3, trials=6, seed=5)
    result = conjecture_scan(cfg)
    assert len(result.records) == 6
    for r in result.records:
        assert r.commutator_norm >= cfg.commutator_floor
        assert r.min_gap >= 0.0
    # the records are the one place each result is written, in trial order;
    # the summary only counts and flags them
    assert [r.trial for r in result.records] == list(range(6))
    assert result.summary["recorded"] == len(result.records)
    certified = sum(r.min_gap_lower > 0.0 for r in result.records)
    assert result.summary["certified_positive"] == certified
    assert result.summary["candidates"] == [
        {"trial": r.trial, "label": CANDIDATE_LABEL}
        for r in result.records
        if r.min_gap < CANDIDATE_THRESHOLD
    ]
    assert sum(result.summary["histogram"]["counts"]) == len(result.records)


def test_histogram_counts_as_np_histogram():
    # half-open bins and a closed last one, [1, inf]: every edge, its float
    # neighbours, inf, values outside [0, inf] and NaN, and random gaps
    edges = np.array(explorer._HISTOGRAM_EDGES)
    rng = np.random.default_rng(0)
    cases = [
        [],
        edges.tolist(),
        np.nextafter(edges, -np.inf).tolist(),
        np.nextafter(edges, np.inf).tolist(),
        [math.inf, math.inf, -0.0, -1e-300, math.nan, 2.0],
    ]
    cases += [(10.0 ** rng.uniform(-14.0, 1.0, n)).tolist() for n in (1, 7, 300)]
    for gaps in cases:
        histogram = explorer._histogram(gaps)
        assert histogram["counts"] == np.histogram(gaps, bins=edges)[0].tolist(), gaps
        assert histogram["bins"][0] == "[0, 1e-12)" and histogram["bins"][-1] == "[1, inf)"


def test_conjecture_scan_high_floor_skips_all():
    # ||[a,b]|| <= 2||a|| ||b|| <= 2, so a floor of 3 filters every draw and
    # exercises the bounded-redraw path
    cfg = ScanConfig(dim=2, trials=3, seed=1, commutator_floor=3.0)
    result = conjecture_scan(cfg)
    assert result.records == ()
    assert result.summary["skipped"] == 3


def test_candidate_label_is_cautious():
    assert "candidate" in CANDIDATE_LABEL
    assert "counterexample" not in CANDIDATE_LABEL
    assert CANDIDATE_THRESHOLD == 1e-8


def test_scan_candidates_empty_for_generic_draws():
    result = conjecture_scan(ScanConfig(dim=2, trials=8, seed=2))
    # generic random pairs sit far above the candidate threshold
    assert result.summary["candidates"] == []


# -- certified search ---------------------------------------------------------


def _dense_minimum(a, b, ts):
    """The smallest gap at the sorted times ts (inf if none), without evaluating every time.

    d/dt a[t]b = i[a[t]b, a] with both norms at most 1, so each product moves
    at most 2 per unit t and the gap at most 4 (5 leaves room for the
    admission tolerance). A block of times whose first gap exceeds the
    smallest gap seen by more than 5 times the block's span cannot hold the
    minimum; the others are halved until each holds one time.
    """
    if ts.size == 0:
        return math.inf
    starts, size = np.arange(0, ts.size, 128), 128
    heads = symmetry_gap_profile(a, b, ts[starts])
    best = float(heads.min())
    while size > 1:
        span = ts[np.minimum(starts + size - 1, ts.size - 1)] - ts[starts]
        kept = heads - 5.0 * span <= best
        starts, heads, size = starts[kept], heads[kept], size // 2
        halves = starts[starts + size < ts.size] + size
        if halves.size:
            half_heads = symmetry_gap_profile(a, b, ts[halves])
            best = min(best, float(half_heads.min()))
            starts, heads = np.concatenate([starts, halves]), np.concatenate([heads, half_heads])
    return best


def test_certified_lower_bounds_hold_against_dense_minima():
    # 85 pairs at dims 2-8 on the default window and 85 on each of two far
    # from t = 0, where the phases t*freq_j0 round by about eps |t|, 2e-8 rad
    # at 1e8; h is the initial knot spacing, and few pairs at dims 3-8 have a
    # minimum above L h, so dim 2, the cheapest to scan densely, brings most
    # of the exercised pairs
    exercised = 0
    windows = [(-4.0 * math.pi, 4.0 * math.pi)] + [(t, t + 8.0 * math.pi) for t in (1e4, 1e8)]
    for window in windows:
        for dim in range(2, 9):
            trials = 40 if dim == 2 else 10 - dim // 2
            cfg = ScanConfig(dim=dim, trials=trials, seed=dim, t_window=window)
            lo, hi = cfg.t_window
            h = (hi - lo) / (explorer.INITIAL_KNOTS - 1)
            for r in conjecture_scan(cfg).records:
                dense = _dense_minimum(r.a, r.b, np.linspace(lo, hi, 100_001))
                assert 0.0 <= r.min_gap_lower <= min(dense, r.min_gap)
                # certified to CERTIFY_RTOL of the reported minimum
                assert r.min_gap_lower >= (1.0 - CERTIFY_RTOL) * r.min_gap
                if dense > explorer._lipschitz(explorer._frames(r.a, r.b)) * h:
                    exercised += 1
                    assert r.min_gap_lower > 0.0
    assert exercised >= 35


def test_secant_bound_is_exact_on_a_concave_cap(monkeypatch):
    # a fake gap with g'' = -K everywhere, K the pair's curvature bound
    # computed here from the frames: each neighbour's secant, extended over an
    # interval, overshoots the gap by exactly what K takes off, so the
    # certified bound meets the minimum, at the window's edge, to rounding; a
    # smaller K would put it above. Its slope stays below L, so the cones hold.
    a = random_effect(3, np.random.default_rng(5))
    b = random_effect(3, np.random.default_rng(6))
    frames = explorer._frames(a, b)
    curv = sum(np.linalg.norm(m, 2) for m in frames.freq**2 * frames.x)
    hi = explorer._lipschitz(frames) / curv
    mid, top = 0.6 * hi, 0.05 + curv * (0.6 * hi) ** 2 / 2.0

    def gap(t):
        return top - curv * (np.asarray(t, dtype=float) - mid) ** 2 / 2.0

    monkeypatch.setattr(explorer, "_gap_kernel", lambda _frames: lambda t: (gap(t), gap(t)))
    found = explorer._certified_search(frames, ScanConfig(dim=3, t_window=(0.0, hi)))
    lowest = gap(0.0)
    assert lowest - 1e-12 <= found.lower <= lowest
    assert found.min_gap == lowest


def _record_knots(monkeypatch) -> list:
    """Record every batch of knots that the search hands to _profile.

    _refine's stencil times reach _profile too, through _gaps; they are not
    knots, so the batches handed over while _refine runs are left out.
    """
    batches, refining = [], []
    profile, refine = explorer._profile, explorer._refine

    def recording_profile(branches, times):
        if not refining:
            batches.append(np.array(times))
        return profile(branches, times)

    def marked_refine(*args):
        refining.append(True)
        try:
            return refine(*args)
        finally:
            refining.pop()

    monkeypatch.setattr(explorer, "_profile", recording_profile)
    monkeypatch.setattr(explorer, "_refine", marked_refine)
    return batches


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_search_needs_few_knots(monkeypatch, dim):
    # near a smooth minimum the neighbouring secants certify at a spacing the
    # cones reach only 6-10 halvings later: cones alone placed 188-315 knots
    # per trial on average on these scans, the 66 initial ones included
    batches = _record_knots(monkeypatch)
    for seed in range(30):
        assert len(conjecture_scan(ScanConfig(dim=dim, trials=1, seed=seed)).records) == 1
    assert sum(batch.size for batch in batches) / 30 <= 100


def test_final_intervals_fit_the_up_front_refusal(monkeypatch):
    # every interval a finished search leaves is at most max(2 S / L, H, 2 u)
    # wide, H = (L + sqrt(L^2 + 4 K S)) / K, which is what lets the search
    # refuse a window before any gap: here the first knots are twice that
    # far apart, and the search must split them
    eps = np.finfo(float).eps
    batches = _record_knots(monkeypatch)
    for dim in (2, 3, 4, 8):
        for seed in range(2):
            rng = np.random.default_rng(seed)
            frames = explorer._frames(random_effect(dim, rng), random_effect(dim, rng))
            lip, curv = explorer._lipschitz(frames), explorer._curvature(frames)
            scale = sum(np.linalg.norm(x) for x in frames.x)
            widest = max(2.0 * scale / lip, (lip + math.sqrt(lip**2 + 4.0 * curv * scale)) / curv)
            batches.clear()
            hi = 2.0 * (explorer.INITIAL_KNOTS - 1) * widest
            explorer._certified_search(frames, ScanConfig(dim=dim, t_window=(0.0, hi)))
            ts = np.unique(np.concatenate(batches))
            assert ts[0] == 0.0 and ts[-1] == hi
            assert np.diff(ts).max() <= (1.0 + 8.0 * eps) * widest


def _phase_drift(frames) -> float:
    """P of _certified_search: the sum over both frames of ||G ⊙ X||_F.

    G_jk = (freq_j0 + freq_k0) / 2, the most that the phase of E_t's entry jk
    can be off per unit of eps |t|, and 0 where freq_jk = 0, where E_t is 1.
    """
    total = 0.0
    for freq, x in zip(frames.freq, frames.x):
        g = np.add.outer(freq[:, 0], freq[:, 0]) / 2.0
        g[freq == 0.0] = 0.0
        total += float(np.linalg.norm(g * x))
    return total


def _search_slack(frames, window) -> float:
    """The search's slack on ``window`` (_certified_search)."""
    eps = np.finfo(float).eps
    scale = sum(np.linalg.norm(x) for x in frames.x)
    top = max(abs(x) for x in window)
    return explorer._SLACK_UNITS * eps * scale + eps * top * _phase_drift(frames)


@pytest.mark.parametrize("window", [(-4.0 * math.pi, 4.0 * math.pi), (1e4, 1e4 + 8.0 * math.pi)])
@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_finished_search_is_a_fixed_point_of_the_full_rule(monkeypatch, dim, window):
    # the search re-bounds only the intervals a split changes; bounding every
    # final interval afresh with the vectorized reference must give the same
    # window bounds bit for bit and leave no interval that the rule would split
    profile = explorer._profile
    batches = _record_knots(monkeypatch)
    cfg = ScanConfig(dim=dim, t_window=window)
    rebounded = 0
    for seed in range(4):
        rng = np.random.default_rng([dim, seed])
        frames = explorer._frames(random_effect(dim, rng), random_effect(dim, rng))
        batches.clear()
        found = explorer._certified_search(frames, cfg)
        ts = np.sort(np.concatenate(batches))
        gs = np.maximum(*profile(explorer._gap_kernel(frames), ts))
        lip, slack = explorer._lipschitz(frames), _search_slack(frames, window)
        bounds = reference_bounds(ts, gs, lip, explorer._curvature(frames), slack)
        assert found.lower == max(0.0, float(np.min(bounds)))
        mids = ts[:-1] / 2.0 + ts[1:] / 2.0
        split = (
            (bounds < (1.0 - CERTIFY_RTOL) * np.min(gs))
            & (lip * np.diff(ts) > 2.0 * slack)
            & (ts[:-1] < mids)
            & (mids < ts[1:])
        )
        assert not split.any()
        rebounded += len(batches) > 1
    assert rebounded >= 3  # most searches split intervals after their first pass


def _degenerate_stencils():
    """(ts, gs, lip, curv, slack) cases on which the bound's arithmetic divides by zero or overflows."""
    rng = np.random.default_rng(0)
    ts = np.linspace(0.0, 3.0, 7)
    yield ts, np.full(7, 0.25), 1.0, 0.0, 1e-16  # curv = 0, constant gap: 0 / 0
    yield ts, np.zeros(7), 0.0, 0.0, 0.0  # all zero, slack = 0
    yield ts, rng.uniform(0.0, 1.0, 7), 2.0, 3.0, 0.0  # slack = 0
    narrow = np.array([0.0, 1.0, 1.0 + 1e-6, 2.0 + 1e-6, 3.0, 3.0 + 1e-6, 4.0])
    yield narrow, rng.uniform(0.0, 1.0, 7), 1.5, 2.0, 1e-16  # neighbours 10^6 times narrower
    yield narrow, np.full(7, 0.5), 1.5, 0.0, 0.0
    even = np.arange(6.0)  # dl + dr = 0 on interval 2 with dl != 0, where numpy's weight is inf
    yield even, np.array([1.0, 0.75, 0.5, 0.625, 0.375, 1.0]), 1.0, 0.0, 1e-16
    yield even, np.array([3.0, 2.75, 2.5, 2.625, 0.375, 1.0]), 1.0, 1.0, 1e-16
    for curv in (0.0, 1e-300, 1.0):
        for gs in (np.full(4, 0.5), rng.uniform(0.0, 2.0, 4)):
            for lip, slack in ((0.5, 0.0), (0.5, 1e-16), (4.0, 1e-16)):
                # widths near 1e308, where the lines overflow (and with L = 4, the cones)
                yield np.array([-1.7e308, -0.6e308, 0.5e308, 1.6e308]), gs, lip, curv, slack
                yield np.array([-1.7e308, -1e-300, 0.0, 1.6e308]), gs, lip, curv, slack


def test_interval_bound_matches_the_vectorized_reference():
    # the scalar bound reproduces numpy's arithmetic: NaN-propagating maxima
    # and minima, fmax, and the weight dr / (dl + dr) at dl + dr = 0, which
    # Python would raise on; zeros are compared as values, since numpy itself
    # signs them by the array's length
    rng = np.random.default_rng(1)
    cases = list(_degenerate_stencils())
    for _ in range(300):
        n = int(rng.integers(2, 40))
        ts = np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 1.0, n))))
        cases.append((ts, rng.uniform(0.0, 2.0, n + 1), *rng.uniform(0.0, 5.0, 2), 1e-15))
    lowest = 0
    for ts, gs, lip, curv, slack in cases:
        ref = reference_bounds(ts, gs, lip, curv, slack)
        tl, gl = ts.tolist(), gs.tolist()
        got = [explorer._interval_bound(tl, gl, i, lip, curv, slack) for i in range(ts.size - 1)]
        assert np.array_equal(got, ref), (ts, gs, lip, curv, slack)
        lowest += int(np.sum(np.isneginf(ref)))
    assert lowest > 0  # the overflowing widths reach -inf


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


_REFINE = explorer._refine


@dataclass
class _Refinement:
    """One call of _refine: its result and the times of each of its kernel calls."""

    result: tuple
    calls: list


def _refine_recorded(branches, bracket, known, lip, slack) -> _Refinement:
    """_refine on the bracket, with the times of each of its gap kernel calls recorded."""
    calls = []

    def recording(t):
        calls.append(np.array(t))
        return branches(t)

    return _Refinement(_REFINE(recording, bracket, known, lip, slack), calls)


def _record_refinements(monkeypatch) -> list:
    """Record each call of _refine, as a _Refinement."""
    refinements = []

    def recording_refine(*args):
        refinements.append(_refine_recorded(*args))
        return refinements[-1].result

    monkeypatch.setattr(explorer, "_refine", recording_refine)
    return refinements


def test_constant_gap_bound_stays_below_minimum(monkeypatch):
    # both operands are scaled projections, so a[t]b and b[t]a are constant:
    # L is rounding noise and only the slack keeps the bound under the gap,
    # and the refinement of the best knot's bracket stops by its first round
    refinements = _record_refinements(monkeypatch)
    rng = np.random.default_rng(21)
    for dim in (2, 3, 4, 6):
        for rank in range(1, dim):
            a = _scaled_projection(dim, rank, 0.7, rng)
            b = _scaled_projection(dim, dim - rank, 0.4, rng)
            frames = explorer._frames(a, b)
            assert explorer._lipschitz(frames) < 1e-12
            refinements.clear()
            found = explorer._certified_search(frames, ScanConfig(dim=dim))
            assert 0.0 < found.lower <= found.min_gap
            [refinement] = refinements  # one per search
            assert len(refinement.calls) <= 1


def test_constant_gap_is_certified_on_a_huge_window():
    # L is rounding noise, so 2 S / L dwarfs a window of width 1e9 and the
    # up-front knot bound does not refuse it; the bound is still certified
    rng = np.random.default_rng(22)
    for dim in (2, 3, 4, 6):
        for rank in range(1, dim):
            a = _scaled_projection(dim, rank, 0.7, rng)
            b = _scaled_projection(dim, dim - rank, 0.4, rng)
            cfg = ScanConfig(dim=dim, t_window=(0.0, 1e9))
            found = explorer._certified_search(explorer._frames(a, b), cfg)
            assert 0.0 < found.lower <= found.min_gap
            assert found.min_gap == pytest.approx(symmetry_gap(a, b, 0.0), rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_refinement_needs_few_evaluations(monkeypatch, dim):
    # each round evaluates a stencil of three times in one batch;
    # Brent's method with a kink polish, one time per call, made 15-43 calls
    # per trial on these scans, and golden section alone 73-105
    refinements = _record_refinements(monkeypatch)
    for seed in range(30):
        assert len(conjecture_scan(ScanConfig(dim=dim, trials=1, seed=seed)).records) == 1
    calls = [t for r in refinements for t in r.calls]
    assert all(np.ndim(t) == 1 for t in calls)
    assert len(calls) / 30 <= 12
    assert sum(t.size for t in calls) / 30 <= 45


def _search_fake_branches(monkeypatch, frames, low, high):
    """The certified search on the window (1, 2) by a fake kernel with the branches low and
    high, and the times of each of its refinement's kernel calls."""

    def branches(t):
        t = np.asarray(t, dtype=float)
        return low(t), high(t)

    monkeypatch.setattr(explorer, "_gap_kernel", lambda _frames: branches)
    refinements = _record_refinements(monkeypatch)
    return explorer._certified_search(frames, ScanConfig(dim=3, t_window=(1.0, 2.0))), refinements


def test_refinement_finds_a_kink_between_unequal_slopes(monkeypatch):
    # branches that are lines of slopes -0.3 L and 0.7 L, crossing at t0
    # between knots: the gap is a V with its minimum g0 on the kink, and the
    # crossing of the two fitted branches lands on it within rounding
    eps = np.finfo(float).eps
    frames = explorer._frames(
        random_effect(3, np.random.default_rng(5)), random_effect(3, np.random.default_rng(6))
    )
    lip = explorer._lipschitz(frames)
    t0, g0 = 1.2345678, 0.05
    found, refinements = _search_fake_branches(
        monkeypatch, frames, lambda t: g0 + 0.3 * lip * (t0 - t), lambda t: g0 + 0.7 * lip * (t - t0)
    )
    slack = explorer._SLACK_UNITS * eps * sum(np.linalg.norm(x) for x in frames.x)
    slack += eps * 2.0 * _phase_drift(frames)  # the phases' share at |t| <= 2
    assert g0 <= found.min_gap <= g0 + 2.0 * slack
    [refinement] = refinements
    calls = refinement.calls
    assert all(np.ndim(t) == 1 for t in calls) and len(calls) <= 6


@pytest.mark.parametrize("rise", [1.0, -1.0])
def test_refinement_stops_at_once_on_a_monotone_gap(monkeypatch, rise):
    # a gap rising (or falling) at L / 2 across the window: the best knot is
    # an edge, its bracket's first stencil puts the model minimum on that
    # edge, already evaluated, and the refinement ends after that one call
    frames = explorer._frames(
        random_effect(3, np.random.default_rng(5)), random_effect(3, np.random.default_rng(6))
    )
    lip = explorer._lipschitz(frames)

    def gap(t):
        return 0.05 + lip * (0.25 + rise * (t - 1.5) / 2.0)

    found, refinements = _search_fake_branches(monkeypatch, frames, gap, gap)
    edge = 1.0 if rise > 0.0 else 2.0
    assert (found.t_star, found.min_gap) == (edge, gap(edge))
    assert [len(r.calls) for r in refinements] == [1]


def _check_no_lower_gap_nearby(r, cfg):
    """No time of the window within 1e-6 of a refined minimum has a lower gap beyond rounding.

    Two evaluated gaps may differ by twice the slack, plus the rounding of
    their phases t * freq: each is off by at most eps |t| |freq| / 2, which
    moves the gap by at most eps |t| L / 2, about 3e-13 at |t| = 1e4.
    """
    eps = np.finfo(float).eps
    frames = explorer._frames(r.a, r.b)
    slack = explorer._SLACK_UNITS * eps * sum(np.linalg.norm(x) for x in frames.x)
    lip = explorer._lipschitz(frames)
    lo, hi = cfg.t_window
    ts = np.linspace(r.t_star - 1e-6, r.t_star + 1e-6, 2001)
    ts = ts[(lo <= ts) & (ts <= hi)]
    rounding = 2.0 * slack + eps * abs(r.t_star) * lip
    gaps = symmetry_gap_profile(r.a, r.b, ts)
    assert np.min(gaps) >= r.min_gap - rounding, (r.trial, r.t_star, r.min_gap - np.min(gaps))


@pytest.mark.parametrize(
    "dim, window",
    [(2, None), (3, None), (4, None), (8, None), (3, (1e4, 1e4 + 8.0 * math.pi))],
)
def test_refined_minima_are_local_minima_to_rounding(dim, window):
    # the refinement stops within sqrt(eps) of the minimizer in absolute t,
    # which leaves rounding only, also at |t| = 1e4 where a tolerance
    # relative to |t| would not; at a kink its model finds the crossing
    cfg = ScanConfig(dim=dim, trials=24, seed=5, **({} if window is None else {"t_window": window}))
    records = conjecture_scan(cfg).records
    assert len(records) == 24
    for r in records:
        _check_no_lower_gap_nearby(r, cfg)


@pytest.mark.parametrize("start", [None, 1e4, 1e6, 1e8])
@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_scan_minima_are_symmetry_gaps_at_any_distance_from_zero(dim, start):
    # the kernel reads each frame's phases through EigenFrame.phased, as
    # symmetry_gap's checked frames do, so a record's minimum is the gap at
    # its t_star to the rounding of the arithmetic, however far the window
    # lies from t = 0, where phases rounded another way would part by about
    # eps |t|
    window = {} if start is None else {"t_window": (start, start + 8.0 * math.pi)}
    records = conjecture_scan(ScanConfig(dim=dim, trials=20, seed=7, **window)).records
    assert len(records) == 20
    for r in records:
        assert abs(symmetry_gap(r.a, r.b, r.t_star) - r.min_gap) <= 1e-12, (r.trial, r.t_star)
        assert 0.0 <= r.min_gap_lower <= r.min_gap


def test_kink_polish_reaches_the_branch_crossing():
    # at dim 4 many window minima sit where λ_max and -λ_min of
    # a[t]b - b[t]a cross; the refinement's two fitted branches cross there too
    records = conjecture_scan(ScanConfig(dim=4, trials=40, seed=5)).records
    on_kink = 0
    for r in records:
        low, high = explorer._gap_kernel(explorer._frames(r.a, r.b))(r.t_star)
        on_kink += abs(high - low) < 1e-12
    assert on_kink >= len(records) / 4


def test_scan_reports_certified_brackets(monkeypatch):
    # a threshold above every gap makes each trial a candidate
    monkeypatch.setattr(explorer, "CANDIDATE_THRESHOLD", 1.0)
    # and its bracket is its record's [min_gap_lower, min_gap]
    result = conjecture_scan(ScanConfig(dim=3, trials=6, seed=5))
    assert result.summary["certified_positive"] == 6
    assert result.summary["candidates"] == [
        {"trial": r.trial, "label": CANDIDATE_LABEL} for r in result.records
    ]
    assert all(0.0 < r.min_gap_lower <= r.min_gap for r in result.records)


def test_certified_bound_allows_for_phase_rounding(monkeypatch):
    # a fake kernel whose true gap L |t - t0| reaches 0 at t0 and whose
    # readings are high by eps |t| P, as far as the frames' rounded phases
    # t*freq_j0 can move a gap: the window's lower bound must not rise above 0
    eps = np.finfo(float).eps
    a = random_effect(3, np.random.default_rng(5))
    b = random_effect(3, np.random.default_rng(6))
    frames = explorer._frames(a, b)
    lip, drift = explorer._lipschitz(frames), _phase_drift(frames)
    assert drift > lip / 2.0  # beyond the rounding of phases t*freq_jk
    t0 = 1e4 + 1.2345

    def fake_kernel(_frames):
        def branches(t):
            t = np.asarray(t, dtype=float)
            reading = lip * np.abs(t - t0) + eps * np.abs(t) * drift
            return reading, reading

        return branches

    monkeypatch.setattr(explorer, "_gap_kernel", fake_kernel)
    cfg = ScanConfig(dim=3, t_window=(1e4, 1e4 + 8.0 * math.pi))
    assert explorer._certified_search(frames, cfg).lower == 0.0


LARGEST = 1.7976931348623157e308


def test_scan_trial_imports_no_masked_arrays():
    # the start knots are deduplicated in place, with no sort; np.unique's
    # first call would also import numpy.ma (about 10 ms)
    code = (
        "import sys\n"
        "from effectdyn import explorer\n"
        "explorer.conjecture_scan(explorer.ScanConfig(dim=3, trials=1, seed=5))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    # the child imports the effectdyn this test imported
    src = str(Path(explorer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_first_pass_evaluates_each_distinct_knot_once(monkeypatch):
    # np.linspace(lo, hi, INITIAL_KNOTS) on a window 4 floats wide repeats
    # its floats: the first pass evaluates each of the 5 once, and no later
    # round evaluates a knot again
    batches = _record_knots(monkeypatch)
    rng = np.random.default_rng(0)
    frames = explorer._frames(random_effect(2, rng), random_effect(2, rng))
    lo = 1.797693134862315e308
    explorer._certified_search(frames, ScanConfig(t_window=(lo, LARGEST)))
    assert len(batches[0]) == 5
    assert batches[0].tolist() == sorted(set(np.linspace(lo, LARGEST, explorer.INITIAL_KNOTS)))
    knots = np.concatenate(batches)
    assert np.unique(knots).size == knots.size
    # a window wider than INITIAL_KNOTS - 1 float spacings keeps all its knots
    batches.clear()
    explorer._certified_search(frames, ScanConfig(t_window=(-1.0, 1.0)))
    assert np.array_equal(batches[0], np.linspace(-1.0, 1.0, explorer.INITIAL_KNOTS))


@pytest.mark.parametrize("window", [(-4.0 * math.pi, 4.0 * math.pi), (1e4, 1e4 + 8.0 * math.pi)])
@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_search_evaluates_no_time_twice(monkeypatch, dim, window):
    # every time the kernel receives in one search, knots, midpoints and
    # refinement stencils, is new: the refinement reads its bracket's knots
    # and its own earlier points instead of evaluating them again
    times = []
    kernel = explorer._gap_kernel

    def recording_kernel(frames):
        branches = kernel(frames)
        return lambda t: times.append(np.array(t, dtype=float).ravel()) or branches(t)

    monkeypatch.setattr(explorer, "_gap_kernel", recording_kernel)
    cfg = ScanConfig(dim=dim, t_window=window)
    refined = 0
    for seed in range(10):
        rng = np.random.default_rng([dim, seed])
        frames = explorer._frames(random_effect(dim, rng), random_effect(dim, rng))
        times.clear()
        explorer._certified_search(frames, cfg)
        ts = np.concatenate(times)
        assert np.unique(ts).size == ts.size
        refined += any(t.size <= 3 for t in times[1:])  # a stencil's new times
    assert refined >= 5


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
    # a search that runs checks both frames, stacked, once, at the window's largest |t|
    checks.clear()
    minimize_gap(a, b, ScanConfig(t_window=(-3.0, 5.0)))
    assert checks == [5.0]
    # the knots in one batch first; every later call is a batch of at most
    # three times, a refinement's stencil (a is nearly a projection, so its
    # near-constant gap may need none)
    assert np.ndim(times[0]) == 1 and len(times[0]) > 3
    assert all(np.ndim(t) == 1 and len(t) <= 3 for t in times[1:])


def test_gap_profile_checks_its_phases():
    a, b = _overflowing_pair()
    for t in (math.nan, math.inf, -math.inf, LARGEST):
        with pytest.raises(EffectdynError, match="phase"):
            symmetry_gap_profile(a, b, [0.0, t])
    assert np.all(np.isfinite(symmetry_gap_profile(a, b, [0.0, 1e300])))
