"""Certified randomized search over the symmetry gap ||a[t]b - b[t]a||.

Whether a[t]b = b[t]a at a single time t can hold for a noncommuting pair
(a, b) is an open question; this module scans random noncommuting pairs for
small gaps. Every minimum comes with a certified lower bound on its window.
The pair's two eigenframes give a global Lipschitz constant L of the gap in
t, so two knots h apart bound the gap between them from below (a cone,
Piyavskii–Shubert style), and a bound K on the second derivative of
a[t]b - b[t]a, so the gap plus K t^2 / 2 is convex and the secants of an
interval's neighbours, extended over it, bound it from below to within
K h^2 / 8: near a smooth minimum that second-order bound is within
CERTIFY_RTOL at a spacing the cones reach only after 6-10 more halvings.
An adaptive interval search starts from INITIAL_KNOTS evenly spaced knots
and splits intervals until the window's bound, the better of the two, is
within CERTIFY_RTOL of its best gap; after its first pass it re-bounds only
the intervals whose knots a split changed, one scalar bound at a time. A
model search then refines the best knot (_refine): each round reads a
stencil of three times, evaluating in one batch those not yet known, and
fits a parabola to each of the gap's two branches, so a smooth minimum sits
at a vertex and a kink where the branches cross. The search keeps both
branches of every knot, so the refinement reads its bracket's three knots
instead of evaluating them again, and no time is evaluated twice. Its
tolerance is
absolute in t: at a smooth minimum with curvature g'', a position error d
costs about g'' d^2 / 2, which is at rounding level once d is about
sqrt(eps), whatever |t| is, so the tolerance is sqrt(eps) plus the float
spacing 4 eps |t|, not the usual sqrt(eps) |t|. One kernel, in the
eigenbasis of a, evaluates every gap of the search; its reference is
symmetry_gap, which reads the pair's checked frames (time_seq_products), and
tests/dense_reference.py's gap_polar is the frame-free one. The kernel and
symmetry_gap share one phase rule, EigenFrame.phased, so they part by the
rounding of their arithmetic alone, at any |t|. A positive
``min_gap_lower`` proves a[t]b != b[t]a for every t in the window, and only
there: the gap is almost periodic in t, so the window says nothing about t
outside it. What exactly is certified, and to what rounding, is stated in
_certified_search. The window is searched whole, t = 0 included: a scanned
pair does not commute, and a∘b = b∘a only if ab = ba (Gudder and Nagy,
J. Math. Phys. 42, 2001), so its gap at t = 0, ||a∘b - b∘a||, is positive
and no trivial zero there can hide a small gap elsewhere. A minimum below
CANDIDATE_THRESHOLD is never reported as a counterexample, only as a
candidate for independent high-precision verification, flagged by trial:
its bracket is its record's [min_gap_lower, min_gap].

Determinism contract: trial k draws from a fresh generator seeded with
(seed, k), so results are byte-identical for a fixed config regardless of
execution order or thread count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .effects import DECISION_TOL, Effect, admit_effects, commutator_norm
from .errors import CommutingPairError, DimensionMismatchError, EffectdynError
# time_seq_product stays importable here: bench/tracer.py wraps each import site of it
from .evolution import EigenFrame, time_seq_product, time_seq_products  # noqa: F401

# Pairs with ||[a,b]|| below the floor are uninformative (near-commuting
# pairs have near-zero gap for trivial reasons) and are redrawn.
DEFAULT_COMMUTATOR_FLOOR = 1e-3
# Grid minima below this are flagged for follow-up, never asserted.
CANDIDATE_THRESHOLD = 1e-8
CANDIDATE_LABEL = "candidate — requires independent high-precision verification"
# Evenly spaced knots the search starts from, before it places the rest itself
# where the bound needs them; on the default window 16 cost less per trial
# than 64, 32 or 8 (each fewer start knots costs more split rounds). Over 200
# one-trial scans (seeds 0-199) on the default window a search evaluated
# 39.4, 31.9, 31.0 and 30.4 knots on average at dims 2, 3, 4 and 8, these 16
# included, in a median of 7-8 split rounds; from 64 it took 78.7, 73.5,
# 73.7 and 74.0 knots in 5-6 rounds, each a few numpy calls but each knot an
# eigensolve and a bound. Cones alone, without the second-order bound, took
# 264, 184, 205 and 253 knots in 9-10 rounds.
INITIAL_KNOTS = 16
# The search splits an interval until its certified lower bound is within
# this fraction of the best gap found in the window.
CERTIFY_RTOL = 1e-3
# Most knots one search may hold. Its work grows linearly with the window's
# width (up to about 3 knots per unit of t for dim-2 pairs, 24 with cones
# alone), so a search that
# needs more raises EffectdynError instead of running out of time or memory.
MAX_KNOTS = 1 << 20

_REDRAW_LIMIT = 64
_EPS = float(np.finfo(float).eps)
_INF = math.inf
# Rounding slack of one evaluated gap's arithmetic, in units of
# eps * (||X_a||_F + ||X_b||_F); the search adds that of its phases (see
# _certified_search). The largest error measured is 1.8 units, so 8 is a
# margin of 4.4 over it, and 4 would still cover it.
_SLACK_UNITS = 8.0
_EVAL_CHUNK = 16384

_HISTOGRAM_EDGES = (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, math.inf)
_HISTOGRAM_LABELS = tuple(
    f"[{lo:g}, {hi:g})" for lo, hi in zip(_HISTOGRAM_EDGES, _HISTOGRAM_EDGES[1:])
)


def _is_real(value) -> bool:
    """Whether value is a real number, bool excluded (JSON would write it true/false)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ScanConfig:
    """Parameters of a conjecture scan, validated at construction (EffectdynError).

    The defaults are those of the ``scan`` command. The certified search
    starts from INITIAL_KNOTS evenly spaced knots and places the rest itself
    (_certified_search).
    """

    dim: int = 2
    trials: int = 100
    t_window: tuple[float, float] = (-4.0 * math.pi, 4.0 * math.pi)
    seed: int = 0
    commutator_floor: float = DEFAULT_COMMUTATOR_FLOOR

    def __post_init__(self) -> None:
        for name in ("dim", "trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise EffectdynError(f"{name} must be an integer, got {value!r}")
        if not 2 <= self.dim <= 8:
            raise EffectdynError(f"dim must be in [2, 8], got {self.dim}")
        if self.trials < 0:
            raise EffectdynError("trials must be nonnegative")
        if not (
            isinstance(self.t_window, (tuple, list))
            and len(self.t_window) == 2
            and all(map(_is_real, self.t_window))
        ):
            raise EffectdynError(f"t_window must be a pair of real numbers, got {self.t_window!r}")
        lo, hi = self.t_window
        if not (lo < hi and math.isfinite(hi - lo)):
            raise EffectdynError(f"t_window must be finite with t_min < t_max, got {self.t_window}")
        if not 0 <= self.seed < 2**64:
            raise EffectdynError("seed must fit in 64 unsigned bits")
        if not (_is_real(self.commutator_floor) and 0.0 < self.commutator_floor < math.inf):
            raise EffectdynError(
                f"commutator_floor must be positive and finite, got {self.commutator_floor!r}"
            )


@dataclass(frozen=True)
class ScanRecord:
    """One scanned pair: where its symmetry gap is smallest and how small.

    ``min_gap_lower`` is a certified lower bound of the gap over the whole
    window, so the window minimum lies in [min_gap_lower, min_gap], the
    bracket of a scan candidate. The fields are in the order of the scan
    JSON record, the one place each result is written.
    """

    trial: int
    commutator_norm: float
    t_star: float
    min_gap: float
    min_gap_lower: float
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
    so the result is a valid effect by construction. The one-effect case of
    _random_effects.
    """
    return _random_effects(dim, 1, rng)[0]


def _random_effects(dim: int, count: int, rng: np.random.Generator) -> tuple[Effect, ...]:
    """``count`` effects drawn, normed and admitted as one (count, dim, dim) stack.

    Effect k is the one the k-th of ``count`` random_effect calls in a row
    would draw, to the last bit: the generator fills the stack in the order
    of those calls, and numpy solves a stack of eigenproblems slice by slice
    with the LAPACK call it makes for one matrix. An H of norm 0 gives I/2.
    """
    if dim < 1:  # refused as validate_effect refuses an empty matrix
        raise DimensionMismatchError(f"expected a nonempty square matrix, got shape {(dim, dim)}")
    x = rng.standard_normal((count, 2, dim, dim))
    g = x[:, 0] + 1j * x[:, 1]
    h = linalg.hermitian_part(g)  # Hermitian exactly: entry kj is the conjugate of entry jk
    norms = linalg.operator_norms(h)
    norms[norms == 0.0] = math.inf  # then H = 0 and H / inf = 0
    return admit_effects((np.eye(dim) + h / norms[:, None, None]) / 2.0, (DECISION_TOL,) * count)


def symmetry_gap(a: Effect, b: Effect, t: float) -> float:
    """||a[t]b - b[t]a||; zero for commuting pairs at every t."""
    ab, ba = time_seq_products((a, b), (b, a), t)
    return float(linalg.operator_norms(ab.matrix - ba.matrix))


def symmetry_gap_profile(a: Effect, b: Effect, times) -> np.ndarray:
    """``symmetry_gap`` over a whole grid, through the pair's two eigenframes."""
    frames = _frames(a, b)
    return np.maximum(*_profile(_gap_kernel(frames), frames.check_phases(times)))


def _frames(a: Effect, b: Effect) -> EigenFrame:
    """The frames of a[t]b and b[t]a, built in one stacked pass as slices 0 and 1 of one frame."""
    return EigenFrame.stacked_products((a, b), (b, a))


def _gap_kernel(frames: EigenFrame):
    """The gap's two branches at one t (a float) or at every t of an array, in the eigenbasis of a.

    With W = V_a† V_b, V_a† (a[t]b - b[t]a) V_a = R_a - W R_b W†, where
    R = E_t ⊙ X of each frame is read by EigenFrame.phased, the phase rule of
    every frame read, symmetry_gap's included; so each time costs two matrix
    products and one eigensolve, and the kernel's gap at t is symmetry_gap's
    to rounding of the arithmetic alone, at any |t|. The kernel
    returns the branches (-λ_min, λ_max) of that Hermitian matrix: the gap
    is their maximum, and they cross where h = λ_max + λ_min changes sign.
    It does not check its phases: each caller runs EigenFrame.check_phases
    on the stacked frames once, on its grid or at its window's largest |t|.
    """
    w = linalg.adjoint(frames.vectors[0]) @ frames.vectors[1]
    w_inv = linalg.adjoint(w)

    def branches(t):
        r = frames.phased(t)
        m = r[..., 0, :, :] - w @ r[..., 1, :, :] @ w_inv
        e = np.linalg.eigvalsh(m).T  # eigenvalue index first: e[0], e[-1] per time
        return -e[0], e[-1]

    return branches


def _profile(branches, times) -> tuple[np.ndarray, np.ndarray]:
    """The two ``branches`` at every t of a nonempty grid, in chunks; the gap is their maximum."""
    ts = np.asarray(times, dtype=float).ravel()
    chunks = [branches(ts[i : i + _EVAL_CHUNK]) for i in range(0, ts.size, _EVAL_CHUNK)]
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate([c[0] for c in chunks]), np.concatenate([c[1] for c in chunks])


def _gaps(branches, times: list, known: dict) -> list:
    """The gap at each of ``times``, none of them in ``known``, which gains each one's branches."""
    low, high = _profile(branches, times)
    known.update(zip(times, zip(low.tolist(), high.tolist())))
    return np.maximum(low, high).tolist()


def _refine(branches, bracket, known: dict, lip: float, slack: float) -> tuple[float, float]:
    """The lowest gap on the bracket [lo, hi] that a two-branch model search reads, and its t.

    The search keeps a stencil c - r, c, c + r, clipped to [lo, hi], and
    fits a parabola through it to each branch, -λ_min and λ_max of
    a[t]b - b[t]a. The gap is the larger branch, so the model's minimum on
    the stencil lies at one of its points, at a convex branch's vertex or
    where the branches cross (a kink): c moves to the one of them with the
    lowest model maximum, and r to min(r / 2, max(|step|, r / 64)). The
    model is never extrapolated: at small r its curvature is mostly
    rounding. The search stops once L r <= 2 slack, the search's split rule
    (so a constant gap costs no evaluation), once its stencil's points are
    no longer distinct floats (so also once c is an edge of [lo, hi], whose
    gap is then known), or once its model predicts no gain beyond the slack
    and r is within tol = sqrt(eps) + 4 eps |c| + slack / L, derived in
    _certified_search. ``known`` maps each time already evaluated, such as
    the bracket's knots, to its branches: a stencil reads those, and each
    round evaluates its new times (none if all are known) in one kernel
    call, through _gaps, which adds them to ``known``, so no time is
    evaluated twice.
    Returns (lo, inf) for a bracket on which it reads nothing.

    Over one-trial scans with seeds 0-29 on the default window, a trial made
    0-4 refinement calls at dim 2 (mean 3.1) and 4-6 at dims 3, 4 and 8
    (means 4.5, 4.6 and 4.7), and evaluated 6.1, 10.8, 11.2 and 11.0 new
    times on average; 17-22 % of its minima at dims 3, 4 and 8 were kinks.
    Brent's method with a kink polish, one time per call, made 15.4-42.5
    calls on average.

    The 4 eps |c| in the stop rule saves evaluations far from t = 0, where
    a stencil radius of a few ulps of c reads only the rounding of the
    phases. Without it, over 60 searches per centre (dims 2, 3 and 8, seeds
    0-19, 8π windows), windows centred at 0 and 1e4 were unchanged; centre
    1e6 cost 4 more evaluations and 1e8-1e12 cost 12-29 more, and 1-4
    minima per centre moved by up to 67 ulps in t and 9.6e-6 relative in
    the gap, within its phase slack. No bound from the float spacing
    separates the two rules: with the term, one refinement already
    evaluates up to 9 new times within 8 ulps of a known time.
    """
    lo, hi = bracket
    atol = math.sqrt(_EPS) + slack / lip if lip > 0.0 else math.inf
    best = (lo, math.inf)
    c, r = lo / 2.0 + hi / 2.0, hi / 2.0 - lo / 2.0
    while True:
        ts = [max(lo, c - r), c, min(hi, c + r)]
        if not (lip * r > 2.0 * slack and ts[0] < c < ts[2]):
            return best
        new = [t for t in ts if t not in known]
        if new:
            _gaps(branches, new, known)
        ys = tuple(zip(*map(known.__getitem__, ts)))  # (-λ_min, λ_max) at each of ts
        for t, gap in zip(ts, map(max, *ys)):
            if gap < best[1]:
                best = (t, gap)
        step, predicted = _model_step(ts, ys)
        if predicted >= best[1] - slack and r <= atol + 4.0 * _EPS * abs(c):
            return best
        c, r = min(max(c + step, lo), hi), min(r / 2.0, max(abs(step), r / 64.0))


def _model_step(ts: list[float], branch_values) -> tuple[float, float]:
    """The step from ts[1] to the two-branch model's minimum on the stencil ts, and that minimum.

    Each branch's three values give its parabola y_1 + slope s + curv s^2 in
    s = t - ts[1]; the model is the larger parabola, and its minimum on the
    stencil lies at an end, at a convex parabola's vertex or where the two cross.
    """
    c = ts[1]
    left, right = ts[0] - c, ts[2] - c
    models = []
    for y0, y1, y2 in branch_values:
        rise = (y2 - y1) / right
        curv = (rise - (y0 - y1) / left) / (right - left)
        models.append((y1, rise - curv * right, curv))
    steps = [left, 0.0, right] + [-b / (2.0 * k) for _, b, k in models if k > 0.0]
    # the parabolas cross where p s^2 + q s + w = 0, solved without cancellation
    w, q, p = (u - v for u, v in zip(*models))
    disc = q * q - 4.0 * p * w
    if disc >= 0.0:
        z = -(q + math.copysign(math.sqrt(disc), q)) / 2.0
        steps += [z / p] if p else []
        steps += [w / z] if z else []

    def model(s: float) -> float:
        return max(y + s * (b + s * k) for y, b, k in models)

    step = min((min(max(s, left), right) for s in steps), key=model)
    return step, model(step)


def _curvature(frames: EigenFrame) -> float:
    """K >= ||M''(t)||_2 at every t, for M(t) = a[t]b - b[t]a: the gap plus K t^2 / 2 is convex.

    d^2/dt^2 of a frame's value is V((-freq^2) ⊙ E_t ⊙ X)V†, and E_t ⊙ Y is
    a diagonal unitary conjugate of Y, so its norm is ||freq^2 ⊙ X||_2 at
    every t; freq^2 ⊙ X is Hermitian. eigvalsh returns each of its
    eigenvalues within a small multiple of d eps times that norm, which the
    factor 1 + 8 d eps covers, a rounding of its own, not the gap's
    (_SLACK_UNITS): on 420 frames (dims 2-8, 30 pairs each), the float norm
    was at most 1.09 d eps times the norm below a 40-digit mpmath eigensolve
    of the same frames, so 8 is a margin of 7.3 over it.
    """
    dim = frames.x.shape[-1]
    norms = sum(linalg.operator_norms(frames.freq**2 * frames.x).tolist())
    return (1.0 + 8.0 * dim * _EPS) * norms


def _interval_bound(ts: list, gs: list, i: int, lip: float, curv: float, slack: float) -> float:
    """A lower bound of the gap on [ts[i], ts[i + 1]]: the larger of its cone and its secant bound.

    The cone is (g_i + g_{i+1} - L h) / 2 - slack (_certified_search). The
    secant bound: g + K (t - c)^2 / 2 is convex for any c (_curvature), so on
    an interval I of width h with midpoint c the secant of that function
    through a neighbouring interval, extended over I, lies below it. Written
    for the gap, the left neighbour (width h', secant slope d of g) gives the
    line g_i + s (d - K (h' + h) / 2) over s in [0, h], after the K h^2 / 8
    that (t - c)^2 <= h^2 / 4 costs; the right neighbour gives its mirror
    image from g_{i+1}. The gap on I is at least the larger of the two lines,
    and the smallest value of that maximum over I is the largest, over
    weights w in [0, 1], of the smaller end of w * left + (1 - w) * right.
    The candidates w = 1 (the left line alone), w = 0 (the right one) and the
    w at which that mix is flat reach it; the edge intervals have one line.
    So the bound reads the knots i - 1 to i + 2 and nothing else.

    Each knot's gap is off by at most ``slack``, so an extended line is off
    by at most slack (1 + 2 h / h'), and its arithmetic, a few roundings of
    at most eps / 2 each, by at most 8 eps (g + h |d| + K (h' + h) h / 2).
    Each line's allowance is their sum, e; a mix is off by at most the
    larger e, and its own rounding by 2 eps times the two lines' sizes, at
    most a quarter of e_left + e_right. Where the secant bound is not finite
    (huge h, or a neighbour far narrower than I), the interval keeps its cone.

    The knots must be strictly increasing, as a search's are: they start as
    distinct floats and each midpoint is a new float, so every width h' a
    neighbour's secant divides by is positive. The arithmetic is that of
    numpy's elementwise rules, on Python floats: maxima and minima propagate
    NaN except the one fmax, which skips it, and nothing is raised to a
    power, which can raise OverflowError. Where dl + dr = 0, numpy's weight
    dr / 0 is NaN or infinite, which gives the same bound as w = 0: a mix at
    a weight of 0 or 1 is that line less at least its own allowance. A call
    costs about 1.1-2 us in process.
    """
    t0, t1, g0, g1 = ts[i], ts[i + 1], gs[i], gs[i + 1]
    h = t1 - t0
    half = curv / 2.0
    dl, el, dr, er = 0.0, _INF, 0.0, _INF  # an edge's missing line has allowance inf
    if i:  # the secant of interval i - 1, continued over i
        near = t0 - ts[i - 1]
        run = h * ((g0 - gs[i - 1]) / near)
        bend = (near + h) * h * half
        dl = run - bend
        el = slack + 2.0 * slack * h / near + 8.0 * _EPS * (g0 + abs(run) + bend)
    if i + 2 < len(ts):  # that of interval i + 1, continued back over i
        near = ts[i + 2] - t1
        run = h * -((gs[i + 2] - g1) / near)
        bend = (near + h) * h * half
        dr = run - bend
        er = slack + 2.0 * slack * h / near + 8.0 * _EPS * (g1 + abs(run) + bend)
    # the weight at which the mix w * left + (1 - w) * right is flat; with
    # dl + dr = 0 there is none, and w = 0 makes the mix one line less more
    # than its allowance, never above ``single``, as numpy's NaN or inf would
    total = dl + dr
    w = dr / total if total else 0.0
    if w < 0.0:
        w = 0.0
    elif w > 1.0:
        w = 1.0
    rise = g1 - g0
    x, y = g1 + dr - w * (rise + dr), g1 - w * (rise - dl)
    mixed = y if y < x or y != y else x
    x, y = g0 + (0.0 if dl >= 0.0 else dl) - el, g1 + (0.0 if dr >= 0.0 else dr) - er
    single = y if y > x or y != y else x
    mixed -= (er if er > el or er != er else el) + (el + er) / 4.0
    lower = mixed if mixed > single or single != single else single
    if not -_INF < lower < _INF:
        lower = -_INF
    cone = (g0 + g1 - lip * h) / 2.0 - slack
    return lower if lower > cone else cone


def _lipschitz(frames: EigenFrame) -> float:
    """L = ||freq ⊙ X||_F of a[t]b plus that of b[t]a: the gap moves at most L per unit t.

    d/dt M(t) = V((-i freq) ⊙ E_t ⊙ X)V† and every phase in E_t has modulus
    1, so ||d/dt M(t)||_2 <= ||freq ⊙ X||_F at every t; the gap is a norm of
    the difference of the two products.
    """
    return float(sum(map(np.linalg.norm, frames.freq * frames.x)))


def _certified_search(frames: EigenFrame, cfg: ScanConfig) -> _WindowMinimum:
    """Gap minimum and certified lower bound over the config window.

    Knots start as INITIAL_KNOTS evenly spaced times, each distinct float
    once (a window fewer than INITIAL_KNOTS floats wide has fewer), so no
    interval has width 0. On an interval of length h between knots with
    gaps g_i and g_{i+1},

        gap >= (g_i + g_{i+1} - L h)/2 - slack,   L = _lipschitz(frames),

    slack = _SLACK_UNITS * eps * (||X_a||_F + ||X_b||_F) + eps T P covering
    the rounding of each evaluated gap, T = max |t| over the window. The first
    term covers the kernel's arithmetic: against a 34-digit evaluation of the
    same frames at the same rounded phases, _gap_kernel was off by at most
    1.8 such units on 175 scan pairs, dims 2-8, at 12 times each on the
    default window and 12 in [1e8, 1e8 + 8 pi] (1.72 there). The second
    covers its phases, which EigenFrame.phased forms as e_j conj(e_k) with
    e_j = exp(-it freq_j0). Their exact values, which define the frames'
    gap, are t (freq_j0 - freq_k0): freq_j0 = w_j - w_0 as stored, so these
    differ from t freq_jk by the rounding of the stored differences alone.
    Each t freq_j0 rounds by at most eps |t freq_j0| / 2, and freq_j0 >= 0
    (the eigenvalues ascend), so the phase of entry jk of E_t is off by at
    most eps |t| G_jk, where G_jk = (freq_j0 + freq_k0) / 2 (``drift``), and
    G_jk = 0 where freq_jk is 0 and E_t is exactly 1. A phase error d moves
    a unit entry by at most |d|, so E_t ⊙ X moves by at most
    eps |t| ||G ⊙ X||_F in norm, and the gap, the norm of a difference of the
    two frames' values in which W is unitary, by at most eps |t| P <= eps T P,
    P = ||G ⊙ X_a||_F + ||G ⊙ X_b||_F with each frame's own G. P >= L / 2,
    since |freq_jk| <= freq_j0 + freq_k0: phases t freq_jk rounded entry by
    entry would need only eps T L / 2, but would not be symmetry_gap's.
    Against exact phases the kernel's gap on those pairs stayed within 0.18
    of this slack on the default window, and within 0.52 of it near 1e8.
    Near a smooth minimum that cone is off by about L h / 2, so on its own it
    certifies only once h is about 2 CERTIFY_RTOL gap / L. The interval's
    bound (_interval_bound) is therefore the larger of the cone and a
    second-order bound, which extends the secants of its neighbours over it
    and takes off K h^2 / 8 and a little more, K = _curvature(frames): its
    error shrinks like K h^2 rather than L h. Where that bound is not finite
    the cone stands alone.
    Each round evaluates, in one batch, the midpoints of every interval whose
    bound is below (1 - CERTIFY_RTOL) times the best knot gap, unless L h is
    already within twice the slack or the midpoint is no longer a new float.
    The first pass bounds every interval; after it, a round re-bounds only
    the two halves of each interval it split and the interval on each side
    of that one, since an interval's bound reads its knots i - 1 to i + 2
    and nothing else, and applies the split rule to those alone (Shubert's
    sequential method likewise bounds only the intervals a new evaluation
    creates). An untouched interval cannot become
    splittable: its bound, width and midpoint are unchanged, and the best
    gap only falls as knots are added, so its threshold only falls. So every
    round splits exactly the intervals the full rule would, and the knots,
    bounds and results are those of bounding every interval every round. A
    search that would hold more than MAX_KNOTS knots raises EffectdynError,
    before any gap is evaluated when the window alone implies it (below).
    The minimum is then refined on one bracket, between the neighbors of the
    best knot (_refine), on a stencil of radius r that shrinks every round.
    The search keeps both branches, -λ_min and λ_max, of every knot, and the
    refinement reads those of its bracket's three knots, evaluating only new
    times; its first stencil is often exactly those knots. It stops
    under the same rule as the splitting, once L r is within twice the
    slack, so a constant gap is not evaluated again, or once its model
    predicts no gain beyond the slack and r is within the absolute
    tolerance tol = sqrt(eps) + 4 eps |t| + slack / L:
    near a smooth minimum t* the gap is about g* + g'' (t - t*)^2 / 2, so a
    position error of sqrt(eps) costs about g'' eps / 2, rounding level, at
    any |t|, while the usual sqrt(eps) |t| would cost g'' eps t^2 / 2, about
    1e-9 at |t| = 1e4. The 4 eps |t| keeps that radius above the float
    spacing at t, and a step of slack / L cannot move the gap by more than
    its rounding. Where the minimum is a kink, a crossing of the branches
    λ_max and -λ_min of a[t]b - b[t]a, the gap is not smooth and a position
    error d costs about |slope| d; there the model's minimum is the crossing
    of its two parabolas, each within O(r^3) of its branch. The search keeps
    its best knot if the refinement ends above it. Knots, midpoints and
    refinement points all go through one kernel, _gap_kernel, each time once.

    What is certified is the gap as the frames compute it. The frames hold
    the eigenvalues of a and b as computed in float64; at an eigenvalue
    within rounding of 0 the square root moves by about sqrt(eps), so the
    exact gap of the stored matrices may differ from the frames' by about
    1e-8, and a lower bound that small proves nothing about them.

    The refusal up front: with S = ||X_a||_F + ||X_b||_F, every gap is at
    most S, since a[t]b = V (E_t ⊙ X) V† with |E_t| = 1 entrywise has
    spectral norm at most ||X||_F; a computed gap exceeds S by at most the
    slack. An interval left unsplit because its bound reached
    (1 - CERTIFY_RTOL) best >= 0 has a cone >= 0 or a second-order bound
    >= 0. A cone >= 0 means L h <= g_i + g_{i+1} - 2 slack <= 2 S. The
    second-order bound is at most the larger of its two lines' means over
    the interval less their allowances, and a neighbour's computed secant
    slope is at most L + 2 slack / h', which that allowance covers, so a
    bound >= 0 means K h^2 / 4 - L h / 2 <= S, that is h <= H with
    H = (L + sqrt(L^2 + 4 K S)) / K (no limit when K = 0): wider than
    2 S / L for some pairs, so the cones' limit alone no longer holds. An
    interval whose midpoint is no longer a new float has h <= u, with
    u = T - nextafter(T, 0), since the floats in [-T, T] are at most u apart.
    One left unsplit by the slack rule has L h <= 2 slack, so
    h <= 8 eps (2 S / L) + eps T <= (1 + 8 eps) max(2 S / L, 2 u), as
    u >= eps T / 2. (Midpoints are t_i/2 + t_{i+1}/2, which cannot
    overflow, even for |t| >= 2^1023, where u = 2^971 and the rule refuses
    any window wider than about 4e298.) Every final interval is at most
    (1 + 8 eps) max(2 S / L, H, 2 u) wide, so a search that ends holds at
    least 1 + width / ((1 + 8 eps) max(2 S / L, H, 2 u)) knots, more than
    MAX_KNOTS whenever width / max(2 S / L, H, 2 u) exceeds MAX_KNOTS, and
    then the window is refused at once: the refusal still never turns away a
    window that a search could finish. It promises no more: the search may
    still reach MAX_KNOTS on a narrower window and raise then. For the
    default 8π window that count stayed below 6 on 800 random pairs at
    dims 2, 3, 4 and 8. After that refusal, and still before any gap is
    evaluated, the phases of both frames are checked at T
    (EigenFrame.check_phases).

    Cost, in process on a 2-vCPU machine: on the default window a later
    round re-bounds about 6 intervals at dims 3-8 (15 at dim 2), where one
    numpy pass over all of them took about 80 numpy calls, and re-bounding
    only those cut a search from 0.87 to 0.69 ms per pair at dim 2 and from
    1.93 to 1.52 ms at dim 8 (medians of 5). A wide window splits hundreds
    of intervals per round and pays the scalar bound for each: a search took
    about 3.8 ms per pair at width 400 and 8 ms at width 1000 at dim 2 (6.4
    and 13 ms at dim 8), where one numpy pass per round over every interval
    took 1.9 and 3.1 ms at dim 2.
    """
    lo, hi = cfg.t_window
    lip, curv = _lipschitz(frames), _curvature(frames)
    scale = float(sum(map(np.linalg.norm, frames.x)))
    top = max(abs(lo), abs(hi))
    drift = np.where(frames.freq == 0.0, 0.0, frames.freq[..., :, :1] - frames.freq[..., :1, :]) / 2.0
    slack = _SLACK_UNITS * _EPS * scale + _EPS * top * float(sum(map(np.linalg.norm, drift * frames.x)))
    ulp = top - math.nextafter(top, 0.0)
    if (
        (hi - lo) * lip > MAX_KNOTS * 2.0 * scale
        and (hi - lo) * curv > MAX_KNOTS * (lip + math.sqrt(lip * lip + 4.0 * curv * scale))
        and hi - lo > MAX_KNOTS * 2.0 * ulp
    ):
        raise _too_wide(lo, hi)
    # linspace repeats floats, next to each other, on a narrow window
    ts = list(dict.fromkeys(np.linspace(lo, hi, INITIAL_KNOTS).tolist()))
    frames.check_phases(top)
    branches = _gap_kernel(frames)
    known: dict = {}  # t -> (-λ_min, λ_max) at every time evaluated
    gs = _gaps(branches, ts, known)
    best = min(gs)
    bounds = [_interval_bound(ts, gs, i, lip, curv, slack) for i in range(len(ts) - 1)]
    touched = range(len(bounds))
    while True:
        split, mids = [], []
        for i in touched:
            t0, t1 = ts[i], ts[i + 1]
            mid = t0 / 2.0 + t1 / 2.0
            if (
                bounds[i] < (1.0 - CERTIFY_RTOL) * best
                and lip * (t1 - t0) > 2.0 * slack
                and t0 < mid < t1
            ):
                split.append(i)
                mids.append(mid)
        if not split:
            break
        if len(ts) + len(split) > MAX_KNOTS:
            raise _too_wide(lo, hi)
        gaps = _gaps(branches, mids, known)
        for i, t, g in zip(reversed(split), reversed(mids), reversed(gaps)):
            ts.insert(i + 1, t)
            gs.insert(i + 1, g)
            bounds.insert(i, -math.inf)
        best = min(best, *gaps)
        # the halves of split interval i, now i + r and i + r + 1 after the r
        # splits before it, and the interval on each side read changed knots
        changed = {j for r, i in enumerate(split) for j in range(i + r - 1, i + r + 3)}
        touched = sorted(changed - {-1, len(bounds)})
        for j in touched:
            bounds[j] = _interval_bound(ts, gs, j, lip, curv, slack)

    k = gs.index(best)
    bracket = ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]
    t_ref, gap_ref = _refine(branches, bracket, known, lip, slack)
    if gap_ref > gs[k]:
        t_ref, gap_ref = ts[k], gs[k]
    return _WindowMinimum(t_ref, gap_ref, max(0.0, min(bounds)))


def _too_wide(lo: float, hi: float) -> EffectdynError:
    return EffectdynError(
        f"the certified search over a window of width {hi - lo!r} needs more than "
        f"{MAX_KNOTS} knots; narrow the window"
    )


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
    found = _certified_search(_frames(a, b), cfg)
    return found.t_star, found.min_gap


def _draw_pair(cfg: ScanConfig, trial: int) -> tuple[Effect, Effect, float] | None:
    rng = np.random.default_rng([cfg.seed, trial])
    for _ in range(_REDRAW_LIMIT):
        a, b = _random_effects(cfg.dim, 2, rng)
        norm = commutator_norm(a, b)
        if norm >= cfg.commutator_floor:
            return a, b, norm
    return None


def _histogram(gaps: list[float]) -> dict:
    """Counts of ``gaps`` per bin of _HISTOGRAM_EDGES.

    The bins are half-open but the last, [1, inf], which is closed; a value
    outside [0, inf] (or NaN) counts nowhere.
    """
    counts = np.histogram(gaps, bins=_HISTOGRAM_EDGES)[0].tolist()
    return {"bins": list(_HISTOGRAM_LABELS), "counts": counts}


def conjecture_scan(cfg: ScanConfig) -> ScanResult:
    """Scan random noncommuting pairs for small symmetry gaps.

    Per trial: draw a pair (redrawing while ||[a,b]|| is under the floor,
    bounded attempts), build its two eigenframes, and run the certified
    search with them over the window. The summary
    holds only what no record does: the counts of recorded and skipped
    trials and of trials whose window lower bound is positive, the histogram
    of min_gap, and, in trial order, each trial with min_gap below
    CANDIDATE_THRESHOLD as {"trial", "label"}: a verification candidate with
    its record's bracket [min_gap_lower, min_gap], never a counterexample.
    """
    records: list[ScanRecord] = []
    skipped = 0
    for trial in range(cfg.trials):
        drawn = _draw_pair(cfg, trial)
        if drawn is None:
            skipped += 1
            continue
        a, b, norm = drawn
        found = _certified_search(_frames(a, b), cfg)
        records.append(
            ScanRecord(
                trial=trial,
                commutator_norm=norm,
                t_star=found.t_star,
                min_gap=found.min_gap,
                min_gap_lower=found.lower,
                a=a,
                b=b,
            )
        )
    summary: dict = {
        "recorded": len(records),
        "skipped": skipped,
        "certified_positive": sum(r.min_gap_lower > 0.0 for r in records),
        "histogram": _histogram([r.min_gap for r in records]),
        "candidates": [
            {"trial": r.trial, "label": CANDIDATE_LABEL}
            for r in records
            if r.min_gap < CANDIDATE_THRESHOLD
        ],
    }
    return ScanResult(tuple(records), summary)
