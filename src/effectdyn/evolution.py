"""Unitary time evolution of effects and the constancy classification.

The a-evolution of an effect b is b(t|a) = e^{-ita} b e^{ita}: the influence
on b of an effect a that occurred time t ago but was never recorded. The
time-dependent sequential product a[t]b = a o b(t|a) models "measure a, wait
t, then measure b". a[t]b is constant in t exactly when [a o b, a] =
-a^{1/2}[a, b]a^{1/2} vanishes, i.e. when [a, PbP] = 0 for the support
projection P of a. Only for invertible a, or a with one distinct nonzero
eigenvalue, is that "[a, b] = 0 or a = lambda p". The classifier decides
this algebraically and the bruteforce grid check is its independent oracle.

Both go through one kernel, :class:`EigenFrame`: in the eigenbasis V of a,
e^{-ita} m e^{ita} = V (E_t ⊙ V†mV) V† with E_t(j,k) = e^{-it(w_j - w_k)},
so a frame is built once per pair, from a's cached Effect.decomposition,
and each t costs only the phases. A family of effects evolved by one a,
B(t|a) of an observable, shares one frame of a whose m is their stack
(effect_evolutions; effect_evolution is its one-effect case). A state
evolves by the dual rule, e^{ita} rho e^{-ita}: its frame read at -t
(evolve_state). In V, [·, a] scales entry jk by -(w_j - w_k), so time
derivatives and deviations are frame reads as well. A frame has three
readers: EigenFrame.at(t, order), at one time or on a grid of times, and
deviation_norms and trajectory (evolve's columns), on a grid. Every time
they take passes the package's one time rule, check_times: |t| <= T_MAX =
2^52, beyond which a read's phase error, about eps |t| |w_j - w_k|, is the
size of what moves. Every derivative order passes one rule,
EigenFrame._admitted_order. One method forms the phases, EigenFrame.phased,
for those readers and for the scan's gap kernel (explorer._gap_kernel), so
the scan's gap and symmetry_gap share one phase rule at every t. A frame of
a[t]b validates a∘b and cross-checks its two routes once, when it is built,
which covers every t; every a[t]b, time_seq_product's included, is read
from such a frame. Admitted once; a frame read keeps its source's spectrum:
b(t|a), a[t]b and rho(t) are unitary conjugates of b, a∘b and rho, so each
is its source with the read as its matrix (effects.conjugates), and no read
is eigensolved again. Only classify_scaled_projection groups coincident
eigenvalues. Derived effects and decisions use the loosest operand's
admission tolerance, Effect.tol; products compound it (product_tol).

Commutator convention: [x, y] = xy - yx, so d/dt b(t|a) = i[b(t|a), a].
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .effects import (
    Effect,
    State,
    _check_dims,
    _pair_bound,
    admit_effects,
    commutator_norm,
    commutes,
    conjugates,
    products_and_roots,
    sequential_product,
)
from .errors import (
    ConsistencyError,
    EffectdynError,
    EmptyGridError,
    InvalidOrderError,
    NotAProjectionError,
)

# Fixed numerical bounds, not user decisions: neither follows --tol.
# Grid-sampled constancy decisions (see constancy_bruteforce). One order looser
# than the default admission tolerance: the grid maximum underestimates the
# true supremum.
BRUTEFORCE_TOL = 1e-8
# Agreement required between the two computed forms of a[t]b's frame (see
# _cross_check).
CROSS_CHECK_TOL = 1e-10
_FLOAT_MAX = float(np.finfo(float).max)
# Largest |t| any time rule admits (check_times). A read's phase t (w_j - w_k)
# is off by about eps |t| |w_j - w_k|, so at 2^52 = 1/eps that error is the
# size of what moves: for a = [[.6, .2], [.2, .3]] and b = [[.5, .1i], [-.1i,
# .4]], the float b(t|a) is off by 7.8e-6 at t = 1e12 and 3.2e-2 at 2^52 (in
# spectral norm, against a 400-digit mpmath evaluation), and at 1e300 by 0.21,
# more than the exact b(t|a) has moved from b (0.17).
T_MAX = 2.0**52
# Largest derivative order a frame takes: numpy's power takes the order as a
# float, which holds every integer only up to 2^53.
MAX_DERIVATIVE_ORDER = 2**53

REASON_COMMUTING = "Commuting"
REASON_SCALED_PROJECTION = "ScaledProjection"
REASON_COMMUTING_ON_SUPPORT = "CommutingOnSupport"
REASON_NEITHER = "Neither"


@dataclass(frozen=True, eq=False)
class ScaledProjectionDecomposition:
    """a = lambda * p with p a nonzero projection and lambda in (0, 1]."""

    scale: float
    projection: Effect


@dataclass(frozen=True, eq=False)
class ConstancyReport:
    """Outcome of the constancy decision for a pair (a, b).

    ``residual`` is ||[a o b, a]||; ``constant`` holds iff it is at most the
    operands' tolerance, or the rounding of the pair (a o b, a) where that
    is larger (see constancy_classifier). ``reason`` is
    "Commuting", "ScaledProjection", "CommutingOnSupport" (see
    constancy_classifier) or "Neither"; the decomposition is attached for
    the scaled-projection case.
    """

    constant: bool
    reason: str
    residual: float
    decomposition: ScaledProjectionDecomposition | None = None


@dataclass(frozen=True, eq=False)
class EigenFrame:
    """e^{-ita} m e^{ita} at any t, as V (E_t ⊙ X) V† with X = V† m V.

    ``vectors`` is the eigenbasis V of a and ``freq`` holds the frequencies
    w_j - w_k, so E_t = exp(-it freq). A frame serves one pair or, with each
    field stacked along a leading axis, a stack of pairs (see at).
    """

    vectors: np.ndarray
    freq: np.ndarray
    x: np.ndarray

    @classmethod
    def evolution(cls, a: Effect, b: Effect) -> EigenFrame:
        """Frame of b(t|a), that is m = b."""
        _check_dims(a.dim, b.dim)
        return cls._from_decomposition(a.decomposition, b.matrix)

    @classmethod
    def _from_decomposition(cls, d: linalg.SpectralDecomposition, m: np.ndarray) -> EigenFrame:
        """Frame of e^{-ita} m e^{ita} from the decomposition d of a; d and m may be stacked."""
        v = d.vectors
        return cls(v, _frequencies(d.eigenvalues), linalg.adjoint(v) @ m @ v)

    @classmethod
    def product(cls, a: Effect, b: Effect) -> EigenFrame:
        """Frame of a[t]b, that is m = a∘b (validated), cross-checked once.

        The one-pair case of stacked_products: its slice 0.
        """
        frame = cls.stacked_products([a], [b])[0]
        return cls(frame.vectors[0], frame.freq[0], frame.x[0])

    @classmethod
    def stacked_products(cls, lefts, rights) -> tuple[EigenFrame, tuple[Effect, ...]]:
        """The frames of a[t]b, and each a∘b, for every aligned pair (lefts[k], rights[k]).

        One frame with each field stacked along a leading axis, slice k pair
        k's frame, built in one stacked pass: a∘b of every pair admitted at
        its product_tol, with the lefts' roots stacked once
        (products_and_roots), then one stacked cross-check. a^{1/2} is
        diag(√w) in V, so the second route a^{1/2} b(t|a) a^{1/2} is
        V (E_t ⊙ (√w_j B_jk √w_k)) V† with B = V†bV: comparing X with
        √w_j B_jk √w_k covers every t. Both X and B are frames of the lefts'
        stacked decomposition (_from_decomposition). The first pair whose
        routes differ beyond CROSS_CHECK_TOL raises ConsistencyError
        (_cross_check). No pairs raise EffectdynError: there is no dimension
        to build a frame from. The admitted products come
        back with the frame, as the sources of its reads (time_seq_products).
        """
        if not lefts:
            raise EffectdynError("no pairs to build a frame from: an empty family has no dimension")
        ab, (d, root, _) = products_and_roots(lefts, rights)
        frame, b_frame = (cls._from_decomposition(d, np.array([e.matrix for e in m])) for m in (ab, rights))
        _cross_check(frame.x, root[:, :, None] * b_frame.x * root[:, None, :])
        return frame, ab

    def at(self, t, order: int = 0) -> np.ndarray:
        """The order-th time derivative i^order [...[M(t), a]..., a] (order 0: M(t)) at t.

        t is one time or an array of times, for one frame or a stack of
        frames: each time gives one matrix, or one stack, and the result has
        the shape t.shape + x.shape. A nonzero order passes the frames' one
        order rule (_admitted_order) first. The factor's phase is exact
        (_rotated), and the phases are those of every frame read (phased).
        """
        order = self._admitted_order(order) if order else 0
        return self._in_basis(self._rotated(t, order))

    def _admitted_order(self, order) -> int:
        """The frames' one order rule: ``order`` as an int, or InvalidOrderError.

        It refuses an order that is not an integer (an integer is compared,
        never converted to float), one below 0 or above MAX_DERIVATIVE_ORDER,
        and one at which f^order ||X||_F, f the largest |w_j - w_k|, would pass
        half the float range. No entry, or partial sum forming one, of
        V (f^order E ⊙ X) V† exceeds f^order ||X||_F (Cauchy–Schwarz), so the
        half covers rounding only. f exceeds 1 only for an a admitted beyond
        [0, 1]; an input a reaches f = 1 + 2 TOL_MAX = 1.2, where an order
        near 3,900 is refused.
        """
        integral = isinstance(order, numbers.Integral) or math.isfinite(order) and int(order) == order
        if not integral or order < 0:
            raise InvalidOrderError(f"derivative order must be 0 or a positive integer, got {order!r}")
        if order > MAX_DERIVATIVE_ORDER:
            raise InvalidOrderError(f"derivative order must be at most 2**53, got {order!r}")
        f = float(np.abs(self.freq).max())
        if f > 1.0:
            budget = math.log(_FLOAT_MAX / 2.0) - math.log(max(1.0, float(np.linalg.norm(self.x))))
            if order > budget / math.log(f):
                raise InvalidOrderError(
                    f"derivative order {order!r} is too large: |w_j - w_k|^n overflows at "
                    f"|w_j - w_k| = {f!r}"
                )
        return int(order)

    def deviation_norms(self, times) -> np.ndarray:
        """||M(t) - M(0)|| for every t in ``times``."""
        return linalg.operator_norms(self._rotated(times) - self.x)

    def trajectory(self, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """at(times) and deviation_norms(times), bit for bit, and ||d/dt M(t)|| at each time.

        Those two readers each form E_t ⊙ X; this forms and checks it once
        per time, for a grid read whole (cli evolve).
        """
        rotated = self._rotated(times)
        return (
            self._in_basis(rotated),
            linalg.operator_norms(rotated - self.x),
            np.full(rotated.shape[:-2], self._derivative_norm()),
        )

    def _in_basis(self, m: np.ndarray) -> np.ndarray:
        """V m V†: from the frame's basis back to the standard one."""
        return self.vectors @ m @ linalg.adjoint(self.vectors)

    def _derivative_norm(self):
        """||i[M(t), a]|| = ||d/dt M(t)||, the norm of (-i freq) ⊙ X, the same at every t.

        i[M(t), a] = e^{-ita} i[M, a] e^{ita} is a unitary conjugate of its
        value at t = 0, so one eigensolve serves every t. It needs no order
        rule: f ||X||_F, f the largest |w_j - w_k|, stays near 1 for operands
        admitted within TOL_MAX.
        """
        return linalg.operator_norms(self.x * (-1j * self.freq))

    def _rotated(self, t, order: int = 0) -> np.ndarray:
        """(-i freq)^order ⊙ E_t ⊙ X: at(t, order) in the frame's basis.

        t passes check_times and is read by phased; the order is one that at
        admitted, its factor (-i)^(order mod 4), exactly, times freq^order.
        """
        rotated = self.phased(check_times(t))
        return rotated * ((1, -1j, -1, 1j)[order % 4] * self.freq**order) if order else rotated

    def phased(self, times) -> np.ndarray:
        """E_t ⊙ X, E_t = exp(-it freq), at every t of ``times``: the one rule of a frame's phases.

        Unchecked: a caller passes the times through check_times first (a
        frame's readers, through _rotated; a scan, its window in ScanConfig).
        Each time gives one slice, of every frame of a stack, so the result
        has the shape times.shape + x.shape. E_t is formed as e ⊗ ē with
        e_j = exp(-it freq_j0), so E_t ⊙ X = D X D† for the diagonal unitary
        D = diag(e) even where the phases t freq_j0 round: the spectrum of X
        is kept at every t. E_t is exactly 1 where freq is 0. Each phase
        t freq_j0 rounds once, so entry jk's phase is off by at most
        eps |t| (freq_j0 + freq_k0) / 2, where freq is not 0.
        """
        e = np.exp(-1j * np.multiply.outer(times, self.freq[..., :, 0]))
        rotated = e[..., :, None] * self.x * e.conj()[..., None, :]
        return np.where(self.freq == 0.0, self.x, rotated)


def check_times(times) -> np.ndarray:
    """The package's one time rule: ``times``, one or a grid, as a float array of its shape.

    An empty grid raises EmptyGridError, and a NaN or any |t| above T_MAX
    EffectdynError, which names the range. Within it no phase overflows:
    |t (w_j - w_k)| <= 2^52 (1 + 2 TOL_MAX) for operands admitted within
    TOL_MAX, so no rule on a frame's spectrum is needed.
    """
    ts = np.asarray(times, dtype=float)
    if ts.size == 0:
        raise EmptyGridError("time grid is empty")
    outside = ~(np.abs(ts) <= T_MAX)  # NaN included
    if outside.any():
        raise EffectdynError(f"time must be in [-2^52, 2^52], got {float(ts[outside].flat[0])!r}")
    return ts


def _frequencies(w: np.ndarray) -> np.ndarray:
    """w_j - w_k for the eigenvalues w of a, or of each slice of a stack."""
    return w[..., :, None] - w[..., None, :]


def _cross_check(value: np.ndarray, second_route: np.ndarray) -> None:
    """Raise ConsistencyError where a slice's two routes differ beyond CROSS_CHECK_TOL.

    Takes a stack; the first failing slice raises. The residual is the
    spectral norm of each slice's difference. No slice's exceeds the
    Frobenius norm of the whole stack's, so a stack whose Frobenius norm is
    within the bound passes without singular values.
    """
    diff = value - second_route
    if math.sqrt(np.vdot(diff, diff).real) <= CROSS_CHECK_TOL:
        return
    for residual in linalg.spectral_norm(diff):
        if residual > CROSS_CHECK_TOL:
            raise ConsistencyError(
                f"the two forms of a[t]b disagree by {residual:.3e} (bound "
                f"{CROSS_CHECK_TOL:.3e}); this indicates a numerical defect, not a "
                "property of the inputs"
            )


def effect_evolution(b: Effect, a: Effect, t: float) -> Effect:
    """b(t|a) = e^{-ita} b e^{ita}, the a-evolution of b.

    Unitary conjugation, so the spectrum (and trace) of b is preserved. The
    one-effect case of effect_evolutions.
    """
    return effect_evolutions([b], a, t)[0]


def effect_evolutions(rights, a: Effect, t: float) -> tuple[Effect, ...]:
    """b(t|a) for every b in ``rights``, of a's dimension, in one stacked pass.

    The dimensions are checked first (DimensionMismatchError names the first
    b that differs), then one frame of the stack of every b, from a's cached
    decomposition, is read at t once. Admitted once; a frame read keeps its
    source's spectrum: b(t|a) is b at max(a.tol, b.tol) with the read as
    its matrix (effects.conjugates), never eigensolved again. No effects
    give ().
    """
    if not rights:
        return ()
    for b in rights:
        _check_dims(a.dim, b.dim)
    frame = EigenFrame._from_decomposition(a.decomposition, np.array([b.matrix for b in rights]))
    return conjugates(frame.at(t), rights, [max(a.tol, b.tol) for b in rights])


def evolve_state(rho: State, a: Effect, t: float) -> State:
    """e^{ita} rho e^{-ita}: the state after the unitary a-channel runs for time t.

    The dual of b(t|a) (tr(rho(t) b) = tr(rho b(t|a))): the frame of rho
    under a, from a's cached decomposition, read at -t, so its time rule is
    check_times, as for every evolution; a NaN or |t| above T_MAX raises
    EffectdynError. Admitted once; a frame read keeps its source's spectrum:
    rho(t) is rho at max(rho.tol, a.tol) with the read as its matrix
    (effects.conjugates), so it keeps rho's spectrum and trace without a
    second admission.
    """
    _check_dims(rho.dim, a.dim)
    frame = EigenFrame._from_decomposition(a.decomposition, rho.matrix)
    return conjugates(frame.at(-t)[None], [rho], [max(rho.tol, a.tol)])[0]


def evolution_derivative(b: Effect, a: Effect, t: float, n: int = 1) -> np.ndarray:
    """n-th time derivative of b(t|a): i^n [ ... [[b(t|a), a], a] ..., a].

    Each bracket is [x, y] = xy - yx; read from the frame of b(t|a). The
    result is Hermitian for every n (round-off skew is symmetrized away).
    InvalidOrderError refuses an n below 1 here, and every n that
    EigenFrame.at's order rule refuses.
    """
    if not n >= 1:
        raise InvalidOrderError(f"derivative order must be a positive integer, got {n!r}")
    return linalg.hermitian_part(EigenFrame.evolution(a, b).at(t, n))


def deviation_norm(b: Effect, a: Effect, t: float) -> float:
    """||b(t|a) - b||: how far the a-evolution has moved b at time t."""
    return float(EigenFrame.evolution(a, b).deviation_norms([t])[0])


def time_seq_product(a: Effect, b: Effect, t: float) -> Effect:
    """a[t]b = a o b(t|a): measure a, wait time t, then measure b.

    Since e^{-ita} commutes with a^{1/2}, this is (a o b)(t|a), the value at t
    of the checked frame of a o b (EigenFrame.product), which keeps the
    spectrum a o b was admitted with. The one-pair case of time_seq_products.
    """
    return time_seq_products([a], [b], t)[0]


def time_seq_products(lefts, rights, t: float) -> tuple[Effect, ...]:
    """a[t]b for every aligned pair (lefts[k], rights[k]) of one dimension, in one stacked pass.

    Pair k takes the steps of time_seq_product: a o b admitted at the pair's
    product_tol, its frame built and cross-checked by
    EigenFrame.stacked_products, and read at t. Admitted once; a frame read
    keeps its source's spectrum: a[t]b is a o b with the read as its matrix
    (effects.conjugates), never eigensolved again. Each check runs over the
    whole stack before the next; its first failing pair raises. No pairs
    give ().
    """
    if not lefts:
        return ()
    frame, products = EigenFrame.stacked_products(lefts, rights)
    return conjugates(frame.at(t), products, [p.tol for p in products])


def seq_product_derivative(a: Effect, b: Effect, t: float) -> np.ndarray:
    """d/dt a[t]b = i[a[t]b, a] from its checked frame; Hermitian, zero for all t iff constant."""
    return linalg.hermitian_part(EigenFrame.product(a, b).at(t, 1))


def projection_evolution_closed_form(
    b: Effect, scale: float, p: Effect, t: float
) -> Effect:
    """b(t|lambda*p) for a projection p, without forming the unitary.

    Expands e^{-it lambda p} = I + (e^{-i lambda t} - 1) p, giving

        b + 2(1 - cos(lambda t)) pbp + (e^{-i lambda t} - 1) pb
          + (e^{i lambda t} - 1) bp.

    Serves as the module's cross-check against effect_evolution(b, scale*p, t).
    Raises EffectdynError where the phase scale * t is not finite, and
    NotAProjectionError when p fails p^2 = p or p = 0 within p.tol.
    """
    scale, t = float(scale), float(t)
    if not math.isfinite(scale * t):
        raise EffectdynError(f"phase scale*t must be finite, got scale = {scale!r}, t = {t!r}")
    pm = p.matrix
    if linalg.projection_defect(pm) > p.tol or p.norm <= p.tol:
        raise NotAProjectionError("closed form requires a nonzero projection")
    phase = np.exp(-1j * scale * t)
    bp = b.matrix @ pm
    pb = pm @ b.matrix
    out = (
        b.matrix
        + 2.0 * (1.0 - np.cos(scale * t)) * (pm @ bp)
        + (phase - 1.0) * pb
        + (np.conj(phase) - 1.0) * bp
    )
    return admit_effects(out[None], (max(b.tol, p.tol),))[0]


def seq_deviation_profile(a: Effect, b: Effect, times) -> np.ndarray:
    """||a[t]b - a o b|| for every t in ``times``, from the pair's EigenFrame.

    Each time slice costs one small Hermitian eigensolve and no
    back-transform. Raises EmptyGridError on an empty grid.
    """
    return EigenFrame.product(a, b).deviation_norms(times)


def max_seq_deviation(a: Effect, b: Effect, times) -> float:
    """max over the grid of ||a[t]b - a o b||; 0 means constant on the grid."""
    return float(np.max(seq_deviation_profile(a, b, times)))


def constancy_bruteforce(a: Effect, b: Effect, grid) -> bool:
    """Grid-sampled constancy: max_t ||a[t]b - a o b|| <= BRUTEFORCE_TOL.

    Independent oracle for the classifier. A constant a[t]b deviates by
    rounding that grows with ||a|| ||b|| and with |t| ||a||, the phase error
    of a's repeated eigenvalue; operands admitted within TOL_MAX keep it far
    below the bound on grids of moderate |t|. A degenerate grid such as {0}
    trivially returns true — callers choose grids that actually probe the
    dynamics. Raises EmptyGridError on an empty grid.
    """
    return max_seq_deviation(a, b, grid) <= BRUTEFORCE_TOL


def classify_scaled_projection(a: Effect) -> ScaledProjectionDecomposition | None:
    """Decompose a = lambda * p, within a.tol, if a's spectrum is {0, lambda} or {lambda}.

    This is the one place that groups eigenvalues: those with |w| <= a.tol
    count as zero, and the rest must exist and span at most 2 * a.tol. Then
    lambda is their midpoint (capped at 1) and p the projection onto their
    eigenvectors, so ||a - lambda p|| <= a.tol. Returns None otherwise. p is
    the Hermitian part of V V†, V those eigenvectors, at a.tol; its spectrum
    is {0, 1} ({1} at full rank) by construction, so it is not eigensolved
    again, which would refuse it for its own rounding at a tol near eps.
    """
    d = a.decomposition
    nonzero = np.abs(d.eigenvalues) > a.tol
    w = d.eigenvalues[nonzero]
    if w.size == 0 or w[-1] - w[0] > 2.0 * a.tol:
        return None
    cols = d.vectors[:, nonzero]
    scale = min(float(w[0] + w[-1]) / 2.0, 1.0)
    p = linalg.readonly(linalg.hermitian_part(cols @ cols.conj().T))
    return ScaledProjectionDecomposition(scale, Effect(p, 0.0 if w.size < a.dim else 1.0, 1.0, a.tol))


def constancy_classifier(a: Effect, b: Effect) -> ConstancyReport:
    """Decide whether a[t]b is constant in t, and why.

    Constancy is [a o b, a] = -a^{1/2}[a, b]a^{1/2} = 0, decided algebraically
    (no time sampling) by the rule of commutes for a o b against a: the
    residual ||[a o b, a]|| is at most max(a.tol, b.tol), or the rounding of
    the pair (a o b, a) where that is larger (effects._pair_bound); decisions
    do not compound, so the tolerance is the operands', not a o b's
    product_tol. The reason is the
    first that applies: Commuting, ScaledProjection (so a = lambda*I reports
    Commuting), else CommutingOnSupport; exactly, the last is [a, PbP] = 0
    for the support projection P of a singular a with two or more distinct
    nonzero eigenvalues.
    """
    ab = sequential_product(a, b)
    residual = commutator_norm(ab, a)
    if residual > _pair_bound(max(a.tol, b.tol), ab, a):
        return ConstancyReport(False, REASON_NEITHER, residual)
    if commutes(a, b):
        return ConstancyReport(True, REASON_COMMUTING, residual)
    decomposition = classify_scaled_projection(a)
    if decomposition is not None:
        return ConstancyReport(True, REASON_SCALED_PROJECTION, residual, decomposition)
    return ConstancyReport(True, REASON_COMMUTING_ON_SUPPORT, residual)
