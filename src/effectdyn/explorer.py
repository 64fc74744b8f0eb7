"""Randomized search over the symmetry gap ||a[t]b - b[t]a||.

Whether a[t]b = b[t]a at a single time t can hold for a noncommuting pair
(a, b) is an open question; this module scans random noncommuting pairs for
small gaps. It can only ever produce *candidates* for independent
high-precision verification — a small numerical minimum is never reported as
a counterexample, and the scan proves nothing either way.

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
from .errors import CommutingPairError
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

_REDRAW_LIMIT = 64
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_EVAL_CHUNK = 16384

_HISTOGRAM_EDGES = (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, math.inf)


@dataclass(frozen=True)
class ScanConfig:
    """Parameters of a conjecture scan; validated at construction."""

    dim: int = 2
    trials: int = 100
    t_window: tuple[float, float] = (-4.0 * math.pi, 4.0 * math.pi)
    grid_points: int = 512
    refine_iters: int = 60
    seed: int = 0
    commutator_floor: float = DEFAULT_COMMUTATOR_FLOOR

    def __post_init__(self) -> None:
        if not 2 <= self.dim <= 8:
            raise ValueError(f"dim must be in [2, 8], got {self.dim}")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        lo, hi = self.t_window
        if not lo < hi:
            raise ValueError(f"t_window must satisfy t_min < t_max, got {self.t_window}")
        if self.grid_points < 8:
            raise ValueError("grid_points must be at least 8")
        if self.refine_iters < 1:
            raise ValueError("refine_iters must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not self.commutator_floor > 0.0:
            raise ValueError("commutator_floor must be positive")


@dataclass(frozen=True)
class ScanRecord:
    """One scanned pair: where its symmetry gap is smallest and how small.

    ``punctured_*`` carry the minimum over the window with |t| <= 0.1
    removed (None when the window lies inside the removed neighborhood).
    """

    trial: int
    commutator_norm: float
    t_star: float
    min_gap: float
    a: Effect
    b: Effect
    punctured_t_star: float | None
    punctured_min_gap: float | None


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
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
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
    return _gap_profile(_frames(a, b), times)


def _frames(a: Effect, b: Effect) -> tuple[EigenFrame, EigenFrame]:
    return EigenFrame.product(a, b), EigenFrame.product(b, a)


def _gap_profile(frames: tuple[EigenFrame, EigenFrame], times) -> np.ndarray:
    """Gap at every t, in chunks to bound memory.

    An empty grid becomes one empty chunk, which the frames reject.
    """
    fa, fb = frames
    ts = np.asarray(times, dtype=float).ravel()
    chunks = np.array_split(ts, max(1, math.ceil(ts.size / _EVAL_CHUNK)))
    return np.concatenate(
        [linalg.operator_norms(fa.matrices(c) - fb.matrices(c)) for c in chunks]
    )


def _golden_refine(gap, lo: float, hi: float, iters: int) -> tuple[float, float]:
    """Golden-section minimization of ``gap`` on [lo, hi]."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = gap(x1), gap(x2)
    for _ in range(iters):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = gap(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = gap(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _minimize_on_window(
    frames: tuple[EigenFrame, EigenFrame], lo: float, hi: float, cfg: ScanConfig
) -> tuple[float, float]:
    """Grid scan plus golden-section refinement around the best grid point."""
    grid = np.linspace(lo, hi, cfg.grid_points)
    gaps = _gap_profile(frames, grid)
    best = int(np.argmin(gaps))
    bracket_lo = grid[max(best - 1, 0)]
    bracket_hi = grid[min(best + 1, cfg.grid_points - 1)]
    fa, fb = frames
    t_ref, gap_ref = _golden_refine(
        lambda t: float(linalg.operator_norms(fa.at(t) - fb.at(t))),
        float(bracket_lo),
        float(bracket_hi),
        cfg.refine_iters,
    )
    if gap_ref <= gaps[best]:
        return t_ref, gap_ref
    return float(grid[best]), float(gaps[best])


def minimize_gap(a: Effect, b: Effect, cfg: ScanConfig) -> tuple[float, float]:
    """Smallest symmetry gap of a noncommuting pair over the config window.

    Returns (t_star, min_gap), never above the gap at any grid point.
    Raises CommutingPairError when ||[a,b]|| is below the commutator floor
    (near-commuting pairs have trivially small gaps).
    """
    if commutator_norm(a, b) < cfg.commutator_floor:
        raise CommutingPairError(
            f"pair commutes within floor {cfg.commutator_floor}; gap search is uninformative"
        )
    return _minimize_on_window(_frames(a, b), *cfg.t_window, cfg)


def commutator_norm(a: Effect, b: Effect) -> float:
    """||ab - ba|| (spectral norm)."""
    return linalg.spectral_norm(linalg.commutator(a.matrix, b.matrix))


def _punctured_minimum(
    frames: tuple[EigenFrame, EigenFrame], cfg: ScanConfig
) -> tuple[float, float] | None:
    lo, hi = cfg.t_window
    best: tuple[float, float] | None = None
    for sub_lo, sub_hi in ((lo, min(hi, -PUNCTURED_RADIUS)), (max(lo, PUNCTURED_RADIUS), hi)):
        if sub_lo >= sub_hi:
            continue
        t, gap = _minimize_on_window(frames, sub_lo, sub_hi, cfg)
        if best is None or gap < best[1]:
            best = (t, gap)
    return best


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
    labels = [
        f"[{_HISTOGRAM_EDGES[i]:g}, {_HISTOGRAM_EDGES[i + 1]:g})"
        for i in range(len(counts))
    ]
    return {"bins": labels, "counts": counts}


def conjecture_scan(cfg: ScanConfig) -> ScanResult:
    """Scan random noncommuting pairs for small symmetry gaps.

    Per trial: draw a pair (redrawing while ||[a,b]|| is under the floor,
    bounded attempts), build its two eigenframes, and minimize the gap with
    them over the window and over the punctured window. The summary ranks
    trials by min_gap and flags sub-threshold minima as verification
    candidates — it never claims a counterexample.
    """
    records: list[ScanRecord] = []
    skipped = 0
    for trial in range(cfg.trials):
        drawn = _draw_pair(cfg, trial)
        if drawn is None:
            skipped += 1
            continue
        a, b, norm = drawn
        frames = _frames(a, b)
        t_star, min_gap = _minimize_on_window(frames, *cfg.t_window, cfg)
        punctured = _punctured_minimum(frames, cfg)
        records.append(
            ScanRecord(
                trial=trial,
                commutator_norm=norm,
                t_star=t_star,
                min_gap=min_gap,
                a=a,
                b=b,
                punctured_t_star=None if punctured is None else punctured[0],
                punctured_min_gap=None if punctured is None else punctured[1],
            )
        )
    ranking = sorted(records, key=lambda r: (r.min_gap, r.trial))
    summary: dict = {
        "dim": cfg.dim,
        "trials": cfg.trials,
        "recorded": len(records),
        "skipped": skipped,
        "commutator_floor": cfg.commutator_floor,
        "global_min": None,
        "punctured_global_min": None,
        "histogram": _histogram([r.min_gap for r in records]),
        "candidates": [
            {"trial": r.trial, "t_star": r.t_star, "min_gap": r.min_gap, "label": CANDIDATE_LABEL}
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
