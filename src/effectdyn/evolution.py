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
and each t costs only the phases. In V, [·, a] scales entry jk by
-(w_j - w_k), so time derivatives and deviations are frame reads as well.
One reader, EigenFrame.at(t, order), serves one time or a grid of times,
and every phase it forms passes EigenFrame.check_phases. A frame of a[t]b
validates a∘b and cross-checks its two routes once, when it is built; the
public time_seq_product checks its one t against the dense form. Only
classify_scaled_projection groups coincident eigenvalues. Derived effects
and decisions use the loosest operand's admission tolerance, Effect.tol;
products compound it (product_tol).

Commutator convention: [x, y] = xy - yx, so d/dt b(t|a) = i[b(t|a), a].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .effects import (
    Effect,
    admit_effects,
    commutes,
    sequential_product,
    sequential_products,
    stacked_roots,
    validate_effect,
)
from .errors import (
    ConsistencyError,
    DimensionMismatchError,
    EffectdynError,
    EmptyGridError,
    InvalidOrderError,
    NotAProjectionError,
)

# Fixed numerical bounds, not user decisions: neither follows --tol.
# Grid-sampled constancy decisions (one order looser than the algebraic one:
# the grid maximum underestimates the true supremum).
BRUTEFORCE_TOL = 1e-8
# Agreement required between the two computed forms of a[t]b.
CROSS_CHECK_TOL = 1e-10

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
    operands' tolerance. ``reason`` is "Commuting", "ScaledProjection",
    "CommutingOnSupport" (see constancy_classifier) or "Neither"; the
    decomposition is attached for the scaled-projection case.
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
        if a.dim != b.dim:
            raise DimensionMismatchError(f"dimensions {a.dim} and {b.dim} differ")
        return cls._from_decomposition(a.decomposition, b.matrix)

    @classmethod
    def _from_decomposition(cls, d: linalg.SpectralDecomposition, m: np.ndarray) -> EigenFrame:
        """Frame of e^{-ita} m e^{ita} from the decomposition d of a; d and m may be stacked."""
        v, w = d.vectors, d.eigenvalues
        return cls(v, w[..., :, None] - w[..., None, :], linalg.adjoint(v) @ m @ v)

    @classmethod
    def product(cls, a: Effect, b: Effect) -> EigenFrame:
        """Frame of a[t]b, that is m = a∘b (validated), cross-checked once.

        a^{1/2} is diag(√w) in V, so the second route a^{1/2} b(t|a) a^{1/2}
        is V (E_t ⊙ (√w_j B_jk √w_k)) V† with B = V†bV: comparing X with
        √w_j B_jk √w_k covers every t. Raises ConsistencyError beyond
        CROSS_CHECK_TOL.
        """
        frame = cls.evolution(a, sequential_product(a, b))
        v, root = frame.vectors, a.sqrt_eigenvalues
        _cross_check(frame.x, root[:, None] * (v.conj().T @ b.matrix @ v) * root)
        return frame

    def at(self, t, order: int = 0) -> np.ndarray:
        """The order-th time derivative (order 0: the operator) at t.

        t is one time, for one frame or each frame of a stack, or an array
        of times for one frame, which gives one matrix per time, stacked.
        """
        return self.vectors @ self._rotated(t, order) @ linalg.adjoint(self.vectors)

    def check_phases(self, t_max: float) -> None:
        """Raise EffectdynError unless t * freq is finite for every |t| <= t_max.

        An admitted effect may reach 1 + tol, so a finite t can overflow a
        phase into NaN. The largest |t * freq| is t_max times the largest |freq|.
        """
        if not math.isfinite(t_max * float(np.abs(self.freq).max())):
            raise EffectdynError(f"phase t*(w_j - w_k) must be finite, got |t| = {t_max!r}")

    def deviation_norms(self, times) -> np.ndarray:
        """||M(t) - M(0)|| for every t in ``times``."""
        return linalg.operator_norms(self._rotated(times) - self.x)

    def derivative_norms(self, times) -> np.ndarray:
        """||d/dt M(t)|| = ||i[M(t), a]|| for every t in ``times``."""
        return linalg.operator_norms(self._rotated(times, 1))

    def _rotated(self, t, order: int = 0) -> np.ndarray:
        """(-i freq)^order ⊙ E_t ⊙ X at t, with E_t = exp(-it freq); the one empty-grid check.

        In V, [., a] scales entry jk by -freq_jk, so this is the order-th
        derivative i^order [...[M(t), a]..., a] in the frame's basis. An
        array of times gives one slice per time; check_phases guards them all.
        """
        ts = np.asarray(t, dtype=float)
        if ts.size == 0:
            raise EmptyGridError("time grid is empty")
        self.check_phases(float(np.abs(ts).max()))
        rotated = np.exp(-1j * ts[..., None, None] * self.freq) * self.x
        return rotated * (-1j * self.freq) ** order if order else rotated


def _cross_check(value: np.ndarray, second_route: np.ndarray) -> None:
    """Raise ConsistencyError where the two routes differ beyond CROSS_CHECK_TOL.

    Takes one matrix or a stack; the first failing slice raises.
    """
    for residual in np.atleast_1d(np.linalg.norm(value - second_route, 2, axis=(-2, -1))):
        if residual > CROSS_CHECK_TOL:
            raise ConsistencyError(
                f"the two forms of a[t]b disagree by {residual:.3e} (bound "
                f"{CROSS_CHECK_TOL:g}); this indicates a numerical defect, not a "
                "property of the inputs"
            )


def effect_evolution(b: Effect, a: Effect, t: float) -> Effect:
    """b(t|a) = e^{-ita} b e^{ita}, the a-evolution of b.

    Unitary conjugation, so the spectrum (and trace) of b is preserved.
    """
    return validate_effect(EigenFrame.evolution(a, b).at(t), max(a.tol, b.tol))


def evolution_derivative(b: Effect, a: Effect, t: float, n: int = 1) -> np.ndarray:
    """n-th time derivative of b(t|a): i^n [ ... [[b(t|a), a], a] ..., a].

    Each bracket is [x, y] = xy - yx; read from the frame of b(t|a). The
    result is Hermitian for every n (round-off skew is symmetrized away).
    Raises InvalidOrderError for n < 1.
    """
    if int(n) != n or n < 1:
        raise InvalidOrderError(f"derivative order must be a positive integer, got {n!r}")
    return _hermitian_derivative(EigenFrame.evolution(a, b), t, int(n))


def _hermitian_derivative(frame: EigenFrame, t: float, n: int) -> np.ndarray:
    m = frame.at(t, n)
    return (m + m.conj().T) / 2.0


def deviation_norm(b: Effect, a: Effect, t: float) -> float:
    """||b(t|a) - b||: how far the a-evolution has moved b at time t."""
    return float(EigenFrame.evolution(a, b).deviation_norms([t])[0])


def time_seq_product(a: Effect, b: Effect, t: float) -> Effect:
    """a[t]b = a o b(t|a): measure a, wait time t, then measure b.

    Since e^{-ita} commutes with a^{1/2}, this is (a o b)(t|a), the value of
    the frame of a o b. For one t, that value is checked directly against
    the dense form a^{1/2} b(t|a) a^{1/2} (ConsistencyError beyond
    CROSS_CHECK_TOL) instead of through EigenFrame.product's check for every
    t, and returned validated at product_tol of the operands. The one-pair
    case of time_seq_products.
    """
    return time_seq_products([a], [b], t)[0]


def time_seq_products(lefts, rights, t: float) -> tuple[Effect, ...]:
    """a[t]b for every aligned pair (lefts[k], rights[k]) of one dimension, in one stacked pass.

    Pair k takes the steps of time_seq_product: a o b admitted at its
    product_tol (sequential_products), its value from the stacked frame of
    a o b, the dense cross-check against a^{1/2} (u b u†) a^{1/2} with
    u = e^{-ita} (exactly I at t = 0), and the value's admission at that
    product_tol. Each check runs over the whole stack before the next; its
    first failing pair raises.
    """
    ab = sequential_products(lefts, rights)
    d, s = stacked_roots(lefts)  # cached by sequential_products
    value = EigenFrame._from_decomposition(d, np.array([e.matrix for e in ab])).at(t)
    u = linalg.unitary_from_decomposition(d, t)
    b = np.array([e.matrix for e in rights])
    _cross_check(value, s @ (u @ b @ linalg.adjoint(u)) @ s)
    return admit_effects(value, [e.tol for e in ab])


def seq_product_derivative(a: Effect, b: Effect, t: float) -> np.ndarray:
    """d/dt a[t]b = i[a[t]b, a] from its checked frame; Hermitian, zero for all t iff constant."""
    return _hermitian_derivative(EigenFrame.product(a, b), t, 1)


def projection_evolution_closed_form(
    b: Effect, scale: float, p: Effect, t: float
) -> Effect:
    """b(t|lambda*p) for a projection p, without forming the unitary.

    Expands e^{-it lambda p} = I + (e^{-i lambda t} - 1) p, giving

        b + 2(1 - cos(lambda t)) pbp + (e^{-i lambda t} - 1) pb
          + (e^{i lambda t} - 1) bp.

    Serves as the module's cross-check against effect_evolution(b, scale*p, t).
    Raises NotAProjectionError when p fails p^2 = p or p = 0 within p.tol.
    """
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
    return validate_effect(out, max(b.tol, p.tol))


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
    """Grid-sampled constancy: true iff max_t ||a[t]b - a o b|| <= BRUTEFORCE_TOL.

    Independent oracle for the classifier. A degenerate grid such as {0}
    trivially returns true — callers choose grids that actually probe the
    dynamics. Raises EmptyGridError on an empty grid.
    """
    return max_seq_deviation(a, b, grid) <= BRUTEFORCE_TOL


def classify_scaled_projection(a: Effect) -> ScaledProjectionDecomposition | None:
    """Decompose a = lambda * p, within a.tol, if a's spectrum is {0, lambda} or {lambda}.

    This is the one place that groups eigenvalues: those with |w| <= a.tol
    count as zero, and the rest must exist and span at most 2 * a.tol. Then
    lambda is their midpoint (capped at 1) and p the projection onto their
    eigenvectors, so ||a - lambda p|| <= a.tol. Returns None otherwise.
    """
    d = a.decomposition
    nonzero = np.abs(d.eigenvalues) > a.tol
    w = d.eigenvalues[nonzero]
    if w.size == 0 or w[-1] - w[0] > 2.0 * a.tol:
        return None
    cols = d.vectors[:, nonzero]
    scale = min(float(w[0] + w[-1]) / 2.0, 1.0)
    return ScaledProjectionDecomposition(scale, validate_effect(cols @ cols.conj().T, a.tol))


def constancy_classifier(a: Effect, b: Effect) -> ConstancyReport:
    """Decide whether a[t]b is constant in t, and why.

    Constancy is [a o b, a] = -a^{1/2}[a, b]a^{1/2} = 0 within the operands'
    tolerance, decided algebraically (no time sampling). The reason is the
    first that applies: Commuting, ScaledProjection (so a = lambda*I reports
    Commuting), else CommutingOnSupport; exactly, the last is [a, PbP] = 0
    for the support projection P of a singular a with two or more distinct
    nonzero eigenvalues.
    """
    residual = float(
        linalg.spectral_norm(
            linalg.commutator(sequential_product(a, b).matrix, a.matrix)
        )
    )
    if residual > max(a.tol, b.tol):
        return ConstancyReport(False, REASON_NEITHER, residual)
    if commutes(a, b):
        return ConstancyReport(True, REASON_COMMUTING, residual)
    decomposition = classify_scaled_projection(a)
    if decomposition is not None:
        return ConstancyReport(True, REASON_SCALED_PROJECTION, residual, decomposition)
    return ConstancyReport(True, REASON_COMMUTING_ON_SUPPORT, residual)
