"""Certified randomized search over the symmetry gap ||a[t]b - b[t]a||.

Whether a[t]b = b[t]a at a single time t can hold for a noncommuting pair
(a, b) is an open question; this module scans random noncommuting pairs for
small gaps. Every minimum comes with a certified lower bound on its window:
the pair's two eigenframes give a global Lipschitz constant L of the gap in
t, so two knots h apart bound the gap between them from below, and an
adaptive interval search (Piyavskii–Shubert style) splits intervals until
each window's bound is within CERTIFY_RTOL of its best gap; golden section
then refines each window's best knot until that bound leaves only rounding.
One kernel, in the eigenbasis of a, evaluates every gap of the search; its
reference is symmetry_gap, through the dense cross-checked time_seq_product.
A positive ``min_gap_lower`` proves a[t]b != b[t]a for every t in the
window, and only there: the gap is almost periodic in t, so the window says
nothing about t outside it. What exactly is certified, and to what
rounding, is stated in _certified_search. A minimum below
CANDIDATE_THRESHOLD is never reported as a counterexample, only as a
candidate for independent high-precision verification.

Determinism contract: trial k draws from a fresh generator seeded with
(seed, k), so results are byte-identical for a fixed config regardless of
execution order or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .effects import Effect, validate_effect
from .errors import CommutingPairError, EffectdynError, EmptyGridError
from .evolution import EigenFrame, time_seq_product

# Pairs with ||[a,b]|| below the floor are uninformative (near-commuting
# pairs have near-zero gap for trivial reasons) and are redrawn.
DEFAULT_COMMUTATOR_FLOOR = 1e-3
# Grid minima below this are flagged for follow-up, never asserted.
CANDIDATE_THRESHOLD = 1e-8
CANDIDATE_LABEL = "candidate — requires independent high-precision verification"
# Radius of the excluded neighborhood of t=0 for the punctured minima: at
# t=0 the gap is ||a∘b - b∘a||, already governed by commutation, so minima
# away from 0 are reported separately.
PUNCTURED_RADIUS = 0.1
# The search splits an interval until its certified lower bound is within
# this fraction of the best gap found in each window that contains it.
CERTIFY_RTOL = 1e-3
# Most knots one search may hold. Its work grows linearly with the window's
# width (about 12 knots per unit of t for some dim-2 pairs), so a search that
# needs more raises EffectdynError instead of running out of time or memory.
MAX_KNOTS = 1 << 20

_REDRAW_LIMIT = 64
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Rounding slack of one evaluated gap, in units of eps * (||X_a||_F + ||X_b||_F);
# see _certified_search.
_SLACK_UNITS = 8.0
_EVAL_CHUNK = 16384

_HISTOGRAM_EDGES = (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, math.inf)


@dataclass(frozen=True)
class ScanConfig:
    """Parameters of a conjecture scan, validated at construction (EffectdynError).

    The defaults are those of the ``scan`` command. ``grid_points`` is the
    number of evenly spaced initial knots of the certified search; the search
    decides everything else (_certified_search).
    """

    dim: int = 2
    trials: int = 100
    t_window: tuple[float, float] = (-4.0 * math.pi, 4.0 * math.pi)
    grid_points: int = 64
    seed: int = 0
    commutator_floor: float = DEFAULT_COMMUTATOR_FLOOR

    def __post_init__(self) -> None:
        if not 2 <= self.dim <= 8:
            raise EffectdynError(f"dim must be in [2, 8], got {self.dim}")
        if self.trials < 0:
            raise EffectdynError("trials must be nonnegative")
        lo, hi = self.t_window
        if not (lo < hi and math.isfinite(hi - lo)):
            raise EffectdynError(f"t_window must be finite with t_min < t_max, got {self.t_window}")
        if not 8 <= self.grid_points <= MAX_KNOTS:
            raise EffectdynError(f"grid_points must be in [8, {MAX_KNOTS}], got {self.grid_points}")
        if not 0 <= self.seed < 2**64:
            raise EffectdynError("seed must fit in 64 unsigned bits")
        if not self.commutator_floor > 0.0:
            raise EffectdynError("commutator_floor must be positive")


@dataclass(frozen=True)
class ScanRecord:
    """One scanned pair: where its symmetry gap is smallest and how small.

    ``min_gap_lower`` is a certified lower bound of the gap over the whole
    window, so the window minimum lies in [min_gap_lower, min_gap].
    ``punctured_*`` carry the same over the window with |t| < 0.1 removed
    (None when the window lies inside the removed neighborhood). The fields
    are in the order of the scan JSON record.
    """

    trial: int
    commutator_norm: float
    t_star: float
    min_gap: float
    min_gap_lower: float
    punctured_t_star: float | None
    punctured_min_gap: float | None
    punctured_min_gap_lower: float | None
    a: Effect
    b: Effect


@dataclass(frozen=True)
class _WindowMinimum:
    t_star: float
    min_gap: float
    lower: float


@dataclass(frozen=True)
class ScanResult:
    records: tuple[ScanRecord, ...]
    summary: dict


def random_effect(dim: int, rng: np.random.Generator) -> Effect:
    """Draw an effect: (I + H/||H||)/2 for a GUE-style Hermitian H.

    G has independent standard complex Gaussian entries, H = (G + G†)/2;
    dividing by the operator norm puts the spectrum of H/||H|| in [-1, 1],
    so the result is a valid effect by construction.
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    norm = linalg.operator_norm(h)
    if norm == 0.0:
        return validate_effect(np.eye(dim) / 2.0)
    return validate_effect((np.eye(dim) + h / norm) / 2.0)


def symmetry_gap(a: Effect, b: Effect, t: float) -> float:
    """||a[t]b - b[t]a||; zero for commuting pairs at every t."""
    delta = time_seq_product(a, b, t).matrix - time_seq_product(b, a, t).matrix
    return linalg.operator_norm(delta)


def symmetry_gap_profile(a: Effect, b: Effect, times) -> np.ndarray:
    """``symmetry_gap`` over a whole grid, through the pair's two eigenframes."""
    return _profile(_gap_kernel(_frames(a, b)), times)


def _frames(a: Effect, b: Effect) -> tuple[EigenFrame, EigenFrame]:
    return EigenFrame.product(a, b), EigenFrame.product(b, a)


def _gap_kernel(frames: tuple[EigenFrame, EigenFrame]):
    """The pair's gap at one t (a float) or at every t of an array, in the eigenbasis of a.

    With W = V_a† V_b, V_a† (a[t]b - b[t]a) V_a = E^a_t ⊙ X_a - W (E^b_t ⊙ X_b) W†,
    so each time costs two matrix products and one eigensolve, and the gap is
    max(-λ_min, λ_max) of that Hermitian matrix.
    """
    fa, fb = frames
    w = fa.vectors.conj().T @ fb.vectors
    w_inv = w.conj().T
    rate_a, rate_b = -1j * fa.freq, -1j * fb.freq

    def gap(t):
        phase = np.asarray(t, dtype=float)[..., None, None]
        m = np.exp(phase * rate_a) * fa.x - w @ (np.exp(phase * rate_b) * fb.x) @ w_inv
        e = np.linalg.eigvalsh(m).T  # eigenvalue index first: e[0], e[-1] per time
        return np.maximum(-e[0], e[-1])

    return gap


def _profile(gap, times) -> np.ndarray:
    """``gap`` at every t of a nonempty grid, in chunks to bound memory."""
    ts = np.asarray(times, dtype=float).ravel()
    if ts.size == 0:
        raise EmptyGridError("time grid is empty")
    return np.concatenate([gap(ts[i : i + _EVAL_CHUNK]) for i in range(0, ts.size, _EVAL_CHUNK)])


def _golden_refine(gap, lo: float, hi: float, lip: float, slack: float) -> tuple[float, float]:
    """Golden-section minimization of ``gap`` on [lo, hi], stopped by the search's split rule.

    It ends once L (hi - lo) <= 2 slack, where no time of the bracket can
    differ from its evaluated points by more than the rounding of a gap, or
    once the points are no longer distinct floats.
    """
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = gap(x1), gap(x2)
    while lip * (hi - lo) > 2.0 * slack and lo < x1 < x2 < hi:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = gap(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = gap(x2)
    return (x1, float(f1)) if f1 <= f2 else (x2, float(f2))


def _lipschitz(frames: tuple[EigenFrame, EigenFrame]) -> float:
    """L = ||freq ⊙ X||_F of a[t]b plus that of b[t]a: the gap moves at most L per unit t.

    d/dt M(t) = V((-i freq) ⊙ E_t ⊙ X)V† and every phase in E_t has modulus
    1, so ||d/dt M(t)||_2 <= ||freq ⊙ X||_F at every t; the gap is a norm of
    the difference of the two products.
    """
    return float(sum(np.linalg.norm(f.freq * f.x) for f in frames))


def _certified_search(
    frames: tuple[EigenFrame, EigenFrame], cfg: ScanConfig
) -> tuple[_WindowMinimum, _WindowMinimum | None]:
    """Gap minimum and certified lower bound over the window and the punctured window.

    The punctured window removes |t| < PUNCTURED_RADIUS. Knots start as
    ``grid_points`` evenly spaced times plus ±PUNCTURED_RADIUS, so each
    interval lies wholly inside or outside the removed neighborhood.
    On an interval of length h between knots with gaps g_i and g_{i+1},

        gap >= (g_i + g_{i+1} - L h)/2 - slack,   L = _lipschitz(frames),

    slack = _SLACK_UNITS * eps * (||X_a||_F + ||X_b||_F) covering the rounding
    of each evaluated gap (against a 34-digit evaluation of the same frames,
    _gap_kernel was off by at most 3.0 such units on 170 pairs, dims 2-8).
    Each round evaluates, in one batch, the midpoints of every interval whose
    bound is below (1 - CERTIFY_RTOL) times the best knot gap of a window
    containing it, unless L h is already within twice the slack or the
    midpoint is no longer a new float; a search that would hold more than
    MAX_KNOTS knots raises EffectdynError, before any gap is evaluated when
    the window alone implies it (below). Each window's minimum is then refined
    by golden section between the neighbors of its best knot, under the same
    rule: it stops once L times the bracket width is within twice the slack,
    so a constant gap is evaluated only at the two starting points. The two
    windows share that work when their brackets coincide. Knots, midpoints
    and golden points all go through one kernel, _gap_kernel.

    What is certified is the gap as the frames compute it. The frames hold
    the eigenvalues of a and b as computed in float64; at an eigenvalue
    within rounding of 0 the square root moves by about sqrt(eps), so the
    exact gap of the stored matrices may differ from the frames' by about
    1e-8, and a lower bound that small proves nothing about them.

    The refusal up front: with S = ||X_a||_F + ||X_b||_F, every gap is at
    most S, since a[t]b = V (E_t ⊙ X) V† with |E_t| = 1 entrywise has
    spectral norm at most ||X||_F; a computed gap exceeds S by at most the
    slack. So an interval left unsplit because its bound reached
    (1 - CERTIFY_RTOL) best >= 0 has L h <= g_i + g_{i+1} - 2 slack <= 2 S,
    one left unsplit by the slack rule has L h <= 2 slack < 2 S, and one
    whose midpoint is no longer a new float has h <= u, T = max |t| over
    the window and u = T - nextafter(T, 0), since the floats in [-T, T] are
    at most u apart. (The midpoint sum overflows only for |t| >= 2^1023,
    where u = 2^971 and the rule refuses any window wider than about
    4e298.) Every final interval is at most max(2 S / L, 2 u) wide, so a
    search that ends holds more than width / max(2 S / L, 2 u) knots, and
    when that exceeds MAX_KNOTS the window is refused at once. For the
    default 8π window that count stayed below 6 on 800 random pairs at dims
    2, 3, 4 and 8.
    """
    lo, hi = cfg.t_window
    lip = _lipschitz(frames)
    scale = float(sum(np.linalg.norm(f.x) for f in frames))
    slack = _SLACK_UNITS * np.finfo(float).eps * scale
    top = max(abs(lo), abs(hi))
    ulp = top - math.nextafter(top, 0.0)
    if (hi - lo) * lip > MAX_KNOTS * 2.0 * scale and hi - lo > MAX_KNOTS * 2.0 * ulp:
        raise _too_wide(lo, hi)
    ts = np.linspace(lo, hi, cfg.grid_points)
    extra = [x for x in (-PUNCTURED_RADIUS, PUNCTURED_RADIUS) if lo < x < hi and x not in ts]
    ts = np.insert(ts, np.searchsorted(ts, extra), extra)
    gap = _gap_kernel(frames)
    gs = _profile(gap, ts)
    while True:
        h = np.diff(ts)
        bounds = (gs[:-1] + gs[1:] - lip * h) / 2.0 - slack
        punctured = (ts[1:] <= -PUNCTURED_RADIUS) | (ts[:-1] >= PUNCTURED_RADIUS)
        best = np.where(punctured, np.min(gs, where=_knots(punctured), initial=np.inf), gs.min())
        mids = (ts[:-1] + ts[1:]) / 2.0
        split = np.flatnonzero(
            (bounds < (1.0 - CERTIFY_RTOL) * best)
            & (lip * h > 2.0 * slack)
            & (ts[:-1] < mids)
            & (mids < ts[1:])
        )
        if split.size == 0:
            break
        if ts.size + split.size > MAX_KNOTS:
            raise _too_wide(lo, hi)
        ts = np.insert(ts, split + 1, mids[split])
        gs = np.insert(gs, split + 1, _profile(gap, mids[split]))

    refined: dict[tuple[float, float], tuple[float, float]] = {}

    def window_minimum(inside: np.ndarray) -> _WindowMinimum:
        k = int(np.argmin(np.where(_knots(inside), gs, np.inf)))
        bracket = (
            float(ts[k - 1] if k > 0 and inside[k - 1] else ts[k]),
            float(ts[k + 1] if k < inside.size and inside[k] else ts[k]),
        )
        if bracket not in refined:
            refined[bracket] = _golden_refine(gap, *bracket, lip, slack)
        t_ref, gap_ref = refined[bracket]
        if gap_ref > gs[k]:
            t_ref, gap_ref = float(ts[k]), float(gs[k])
        return _WindowMinimum(t_ref, gap_ref, max(0.0, float(np.min(bounds[inside]))))

    full = window_minimum(np.ones(h.size, dtype=bool))
    return full, window_minimum(punctured) if punctured.any() else None


def _too_wide(lo: float, hi: float) -> EffectdynError:
    return EffectdynError(
        f"the certified search over a window of width {hi - lo!r} needs more than "
        f"{MAX_KNOTS} knots; narrow the window"
    )


def _knots(intervals: np.ndarray) -> np.ndarray:
    """Mask of the knots that bound at least one interval in the mask ``intervals``."""
    knots = np.zeros(intervals.size + 1, dtype=bool)
    knots[:-1] |= intervals
    knots[1:] |= intervals
    return knots


def minimize_gap(a: Effect, b: Effect, cfg: ScanConfig) -> tuple[float, float]:
    """Smallest symmetry gap of a noncommuting pair over the config window.

    Returns (t_star, min_gap) of the window minimum of the certified search
    that conjecture_scan runs, so it reproduces each scan record's pair
    exactly; it is never above the gap at any of the search's knots.
    Raises CommutingPairError when ||[a,b]|| is below the commutator floor
    (near-commuting pairs have trivially small gaps).
    """
    if commutator_norm(a, b) < cfg.commutator_floor:
        raise CommutingPairError(
            f"pair commutes within floor {cfg.commutator_floor}; gap search is uninformative"
        )
    full, _ = _certified_search(_frames(a, b), cfg)
    return full.t_star, full.min_gap


def commutator_norm(a: Effect, b: Effect) -> float:
    """||ab - ba|| (spectral norm)."""
    return linalg.spectral_norm(linalg.commutator(a.matrix, b.matrix))


def _draw_pair(cfg: ScanConfig, trial: int) -> tuple[Effect, Effect, float] | None:
    rng = np.random.default_rng([cfg.seed, trial])
    for _ in range(_REDRAW_LIMIT):
        a = random_effect(cfg.dim, rng)
        b = random_effect(cfg.dim, rng)
        norm = commutator_norm(a, b)
        if norm >= cfg.commutator_floor:
            return a, b, norm
    return None


def _histogram(gaps: list[float]) -> dict:
    counts = np.histogram(gaps, bins=_HISTOGRAM_EDGES)[0].tolist()
    labels = [f"[{lo:g}, {hi:g})" for lo, hi in zip(_HISTOGRAM_EDGES, _HISTOGRAM_EDGES[1:])]
    return {"bins": labels, "counts": counts}


def conjecture_scan(cfg: ScanConfig) -> ScanResult:
    """Scan random noncommuting pairs for small symmetry gaps.

    Per trial: draw a pair (redrawing while ||[a,b]|| is under the floor,
    bounded attempts), build its two eigenframes, and run the certified
    search with them over the window and the punctured window. The summary
    ranks trials by min_gap, counts the trials whose window lower bound is
    positive, and flags sub-threshold minima, each with its bracket
    [lower, min_gap], as verification candidates — it never claims a
    counterexample.
    """
    records: list[ScanRecord] = []
    skipped = 0
    for trial in range(cfg.trials):
        drawn = _draw_pair(cfg, trial)
        if drawn is None:
            skipped += 1
            continue
        a, b, norm = drawn
        full, punctured = _certified_search(_frames(a, b), cfg)
        records.append(
            ScanRecord(
                trial=trial,
                commutator_norm=norm,
                t_star=full.t_star,
                min_gap=full.min_gap,
                min_gap_lower=full.lower,
                punctured_t_star=None if punctured is None else punctured.t_star,
                punctured_min_gap=None if punctured is None else punctured.min_gap,
                punctured_min_gap_lower=None if punctured is None else punctured.lower,
                a=a,
                b=b,
            )
        )
    ranking = sorted(records, key=lambda r: (r.min_gap, r.trial))
    summary: dict = {
        "dim": cfg.dim,
        "trials": cfg.trials,
        "recorded": len(records),
        "skipped": skipped,
        "certified_positive": sum(r.min_gap_lower > 0.0 for r in records),
        "commutator_floor": cfg.commutator_floor,
        "global_min": None,
        "punctured_global_min": None,
        "histogram": _histogram([r.min_gap for r in records]),
        "candidates": [
            {
                "trial": r.trial,
                "t_star": r.t_star,
                "min_gap": r.min_gap,
                "bracket": [r.min_gap_lower, r.min_gap],
                "label": CANDIDATE_LABEL,
            }
            for r in ranking
            if r.min_gap < CANDIDATE_THRESHOLD
        ],
        "ranking": [
            {"trial": r.trial, "t_star": r.t_star, "min_gap": r.min_gap}
            for r in ranking
        ],
    }
    if records:
        top = ranking[0]
        summary["global_min"] = {
            "trial": top.trial,
            "commutator_norm": top.commutator_norm,
            "t_star": top.t_star,
            "min_gap": top.min_gap,
        }
        punctured_ranked = [r for r in records if r.punctured_min_gap is not None]
        if punctured_ranked:
            ptop = min(punctured_ranked, key=lambda r: (r.punctured_min_gap, r.trial))
            summary["punctured_global_min"] = {
                "trial": ptop.trial,
                "t_star": ptop.punctured_t_star,
                "min_gap": ptop.punctured_min_gap,
            }
    return ScanResult(tuple(records), summary)
