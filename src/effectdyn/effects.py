"""Effects, states, probabilities, the sequential product and coexistence.

An effect is a Hermitian operator a with 0 <= a <= I; it models a yes-no
measurement. A state is a positive operator with unit trace. The
sequential product a o b = a^(1/2) b a^(1/2) is the effect of measuring a
and then b immediately afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    EffectdynError,
    NotCommutingError,
    SpectrumOutOfRangeError,
    TraceNotOneError,
)

# Default admission tolerance. Each Effect/State keeps the one it was admitted
# at; derived values (compounded for products, see product_tol) and yes/no
# decisions use the loosest operand's, a decision on a pair no tighter than
# its rounding (_pair_bound).
DECISION_TOL = 1e-9
# Largest admission tolerance (check_tol). An effect admitted at tol has norm at
# most 1 + tol, and a∘b of two at most (1 + tol)^2, which is 1.21 < 2 here: so
# no operand that commutator_norm or a product reads reaches norm 2, and no
# product of admitted operands overflows. The paper's a^(1/2) and a∘b are
# defined for 0 <= a <= I only; at tol 1 an "effect" could have eigenvalue -1.
TOL_MAX = 0.1
# Fixed numerical bounds, not user decisions: neither follows --tol.
STATE_TRACE_TOL = 1e-10
# Rounding allowed a yes/no decision on a value bilinear in a pair (x, y), such
# as ||xy - yx||, per unit of ||x|| ||y||. The residual of a commuting pair, and
# ||[a o b, a]|| of a scaled projection a, measured at most 6 eps per unit on
# dims 2-8, so this is about 750 times that; it is what decides at a tol below
# 1e-12.
_PAIR_ROUNDING = 1e-12
# Eigenvalues at or below this (relative) scale are treated as exact zeros
# when taking the square root. sqrt is non-Lipschitz at 0: an exact zero the
# eigensolver perturbs to ~1e-16 would otherwise contribute ~1e-8 to a^{1/2}
# and wreck downstream residuals for rank-deficient effects.
SQRT_ZERO_CUTOFF = 1e-13


@dataclass(frozen=True, eq=False)
class Effect:
    """Hermitian operator with spectrum inside [0, 1] (within tolerance).

    Instances are produced by :func:`validate_effect`; the stored matrix is
    read-only, so effects are safe to share across threads, and symmetrized:
    it is (M + M†)/2 of the input M, which is Hermitian bit for bit, so
    ``decomposition`` eigensolves it as it is, with no second check.
    ``eig_min``/``eig_max`` are the raw extremal eigenvalues found at
    validation time, and ``tol`` is the tolerance they were admitted at.
    Admitted once; a frame read keeps its source's spectrum: b(t|a) and
    a[t]b, unitary conjugates of b and a∘b, are made by :func:`conjugates`
    with the eig_min/eig_max of b and a∘b.
    """

    matrix: np.ndarray
    eig_min: float
    eig_max: float
    tol: float = DECISION_TOL

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def norm(self) -> float:
        """Operator norm (largest absolute eigenvalue)."""
        return max(abs(self.eig_min), abs(self.eig_max))

    @cached_property
    def decomposition(self) -> linalg.SpectralDecomposition:
        """Ascending eigenvalues and eigenvectors of ``matrix``, read-only; see _decompose."""
        return _roots(self)["decomposition"]

    @cached_property
    def sqrt_eigenvalues(self) -> np.ndarray:
        """Square roots of ``decomposition.eigenvalues``, noise-level ones zeroed; read-only."""
        return _roots(self)["sqrt_eigenvalues"]

    @cached_property
    def sqrt(self) -> np.ndarray:
        """The unique positive square root, diagonal in ``decomposition``; read-only."""
        return _roots(self)["sqrt"]


def clamp_unit(value: float, tol: float) -> float:
    """Snap values within ``tol`` of 0 or 1 onto the boundary."""
    if -tol <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + tol:
        return 1.0
    return value


def _roots(e: Effect) -> dict:
    """The instance dict of e, once _decompose has cached e's three spectral values in it."""
    _decompose((e,))
    return vars(e)  # where each cached_property keeps its value


def _decompose(effects) -> None:
    """Cache ``decomposition``, ``sqrt_eigenvalues`` and ``sqrt`` of each effect not yet decomposed.

    The one place that eigensolves an effect and takes its root: the effects
    that have not cached their decomposition yet get all three from one
    stacked pass, one eigh of their matrices, which numpy solves slice by
    slice with the LAPACK call it makes for one matrix. The three are always
    cached together, so an effect without a cached decomposition has cached
    none of them. The square roots are those of the eigenvalues clipped at
    0, with those at or below SQRT_ZERO_CUTOFF * max(1, eig_max) taken as
    exact zeros.
    """
    fresh = list({id(e): e for e in effects if "decomposition" not in vars(e)}.values())
    if fresh:
        d = linalg.hermitian_eigh(np.array([e.matrix for e in fresh]))
        clipped = np.maximum(d.eigenvalues, 0.0)  # what np.clip(w, 0.0, None) computes
        clipped[clipped <= SQRT_ZERO_CUTOFF * np.maximum(1.0, [[e.eig_max] for e in fresh])] = 0.0
        root = linalg.readonly(np.sqrt(clipped))
        sqrt = linalg.readonly((d.vectors * root[:, None, :]) @ linalg.adjoint(d.vectors))
        for e, w, v, r, s in zip(fresh, d.eigenvalues, d.vectors, root, sqrt):
            vars(e).update(
                decomposition=linalg.SpectralDecomposition(w, v), sqrt_eigenvalues=r, sqrt=s
            )


def stacked_roots(effects) -> tuple[linalg.SpectralDecomposition, np.ndarray, np.ndarray]:
    """Each effect's cached ``decomposition``, ``sqrt_eigenvalues`` and ``sqrt``, stacked.

    The fill of _decompose, which eigensolves the effects not yet
    decomposed in one pass, then the gather of every effect's three values.
    """
    _decompose(effects)
    d = [e.decomposition for e in effects]
    w, v = np.array([x.eigenvalues for x in d]), np.array([x.vectors for x in d])
    root, sqrt = np.array([e.sqrt_eigenvalues for e in effects]), np.array([e.sqrt for e in effects])
    return linalg.SpectralDecomposition(w, v), root, sqrt


@dataclass(frozen=True, eq=False)
class Admission:
    """The stacked pass that admits every input matrix, effect or state, and its per-slice checks.

    ``of`` takes one Hermiticity pass and one eigensolve of a (k, d, d) stack:
    ``matrices`` are the symmetrized slices and ``spectra`` their ascending
    eigenvalues (both read-only), ``defects`` and ``bounds`` each slice's
    Hermiticity defect and the bound it must not exceed, ``lows`` and ``highs``
    its extremal eigenvalues. ``admit`` checks one slice as an effect and
    ``admit_state`` as a state, so a caller holding slices from several
    sources (the operand files of one command) eigensolves them together and
    still checks them source by source. Every slice's symmetrized matrix is
    finite, since its input is (linalg.hermitian_parts), and no product of
    operands admitted within TOL_MAX overflows. A slice with an eigenvalue
    that is not finite (an input file's norm beyond the float range) gets a
    NaN spectrum, which _finite_matrix refuses: the rest of its eigenvalues
    are then rounding of that overflow, not bounds to report.
    """

    matrices: np.ndarray
    defects: list[float]
    bounds: list[float]
    spectra: np.ndarray
    lows: list[float]
    highs: list[float]

    @classmethod
    def of(cls, stack: np.ndarray) -> Admission:
        h, defects, bounds = linalg.hermitian_parts(stack)
        w = np.linalg.eigvalsh(h)
        w = linalg.readonly(np.where(np.isfinite(w).all(axis=-1, keepdims=True), w, math.nan))
        return cls(linalg.readonly(h), defects, bounds, w, w[:, 0].tolist(), w[:, -1].tolist())

    def admit(self, i: int, tol: float) -> Effect:
        """Slice i as an Effect admitted at tol, or the error validate_effect raises for it.

        Its Hermiticity is checked before its lowest and then its highest
        eigenvalue, and its spectrum's finiteness last.
        """
        low, high = self._checked_extremes(i, tol)
        if high > 1.0 + tol:
            raise SpectrumOutOfRangeError(f"eigenvalue {high!r} above 1 + {tol!r}", high)
        return Effect(self._finite_matrix(i), low, high, tol)

    def admit_state(self, i: int, tol: float) -> State:
        """Slice i as a State admitted at tol, or the error validate_state raises for it.

        Its Hermiticity is checked before its lowest eigenvalue and then its
        trace, and its spectrum's finiteness last.
        """
        self._checked_extremes(i, tol)
        with np.errstate(over="ignore"):  # a diagonal near the float limit sums to inf, not 1
            tr = float(np.trace(self.matrices[i]).real)
        if abs(tr - 1.0) > STATE_TRACE_TOL:
            raise TraceNotOneError(f"trace {tr!r} differs from 1 beyond {STATE_TRACE_TOL}")
        return State(self._finite_matrix(i), tol)

    def _checked_extremes(self, i: int, tol: float) -> tuple[float, float]:
        """Slice i's extremal eigenvalues, once its Hermiticity and then its lowest one pass."""
        low = self.lows[i]
        if self.defects[i] > self.bounds[i]:
            raise linalg.non_hermitian_error(self.defects[i], self.bounds[i])
        if low < -tol:
            raise SpectrumOutOfRangeError(f"eigenvalue {low!r} below -{tol!r}", low)
        return low, self.highs[i]

    def _finite_matrix(self, i: int) -> np.ndarray:
        """Slice i's matrix, once its spectrum is finite: the check each admission runs last.

        NaN eigenvalues compare false with any bound, so they pass every check
        before this one. They come from an eigensolve of a matrix whose
        entries' moduli exceed the float range, or from ``of``, which gives
        them to a matrix whose eigensolve returned an eigenvalue that is not
        finite.
        """
        low, high = self.lows[i], self.highs[i]
        if math.isnan(low) or math.isnan(high):
            raise SpectrumOutOfRangeError(
                "eigenvalues are not finite: the matrix's norm exceeds the float range", low
            )
        return self.matrices[i]


def admit_effects(stack: np.ndarray, tols) -> tuple[Effect, ...]:
    """The checks of validate_effect on every slice of a (k, d, d) stack, slice i at tols[i].

    One Admission pass covers the whole stack; then the slices are admitted
    in order, and the first failing slice raises what validate_effect would.
    Returns one Effect per slice.
    """
    admission = Admission.of(stack)
    return tuple(map(admission.admit, range(len(tols)), tols))


def conjugates(stack: np.ndarray, sources, tols) -> tuple:
    """Slice k of a (k, d, d) stack of conjugates U m U†, m the matrix of sources[k], as sources[k].

    Admitted once; a frame read keeps its source's spectrum. U m U† has the
    spectrum and trace of m for a unitary U, so slice k is not admitted
    again: it becomes the source, an Effect or a State, with the slice's
    Hermitian part (the bits Admission stores) as its matrix and tols[k] as
    its tolerance; an Effect keeps the source's eig_min and eig_max. The
    source's cached decomposition is not carried over, since it is not the
    slice's. A second eigensolve would only refuse valid reads for its own
    rounding at a tol near eps.
    """
    h = linalg.readonly(linalg.hermitian_part(stack))
    return tuple(replace(s, matrix=m, tol=tol) for s, m, tol in zip(sources, h, tols))


def admit_in_order(matrices, tol: float, states):
    """Each of ``matrices``, square of any sizes, admitted at tol in input order, when asked for.

    Matrix k is admitted as a State if k is in ``states``, else as an Effect.
    Before the first is yielded, every matrix is eigensolved with the others
    of its shape, one Admission pass per shape; then each is checked when the
    caller asks for it, so a caller may run checks of its own in between (an
    observable's sum check before the next file's matrices). The first failing
    matrix raises what validate_effect or validate_state raises for it.
    """
    slots = [None] * len(matrices)  # each matrix's (Admission, slice index)
    for shape in dict.fromkeys(m.shape for m in matrices):
        group = [k for k, m in enumerate(matrices) if m.shape == shape]
        admission = Admission.of(np.array([matrices[k] for k in group]))
        for i, k in enumerate(group):
            slots[k] = (admission, i)
    for k, (admission, i) in enumerate(slots):
        yield (admission.admit_state if k in states else admission.admit)(i, tol)


def check_tol(tol: float, name: str = "tol") -> float:
    """``tol`` if 0 < tol <= TOL_MAX, the range of every admission tolerance a caller chooses.

    Else EffectdynError naming ``name`` and the range; NaN is out of range.
    validate_effect, validate_state and the CLI's --tol check it. A derived
    value is admitted at its compounded product_tol, which may exceed
    TOL_MAX, so Admission does not.
    """
    if not 0.0 < tol <= TOL_MAX:
        raise EffectdynError(f"{name} must be in (0, {TOL_MAX!r}], got {tol!r}")
    return tol


def validate_effect(matrix, tol: float = DECISION_TOL) -> Effect:
    """Validate 0 <= M <= I and build an :class:`Effect` that keeps ``tol``.

    The one-matrix case of admit_effects. Raises EffectdynError for a tol
    outside (0, TOL_MAX] (check_tol), NonHermitianError when M is not
    Hermitian and SpectrumOutOfRangeError (carrying the offending
    eigenvalue) when the spectrum leaves [-tol, 1 + tol] or is not finite.
    """
    return admit_effects(linalg.as_complex_matrix(matrix)[None], (check_tol(tol),))[0]


def identity_effect(dim: int) -> Effect:
    return validate_effect(np.eye(dim))


def zero_effect(dim: int) -> Effect:
    return validate_effect(np.zeros((dim, dim)))


@dataclass(frozen=True, eq=False)
class State:
    """Positive unit-trace operator admitted at ``tol``; made by :func:`validate_state`.

    rho(t) of evolution.evolve_state is rho read from a frame (:func:`conjugates`).
    """

    matrix: np.ndarray
    tol: float = DECISION_TOL

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def validate_state(matrix, tol: float = DECISION_TOL) -> State:
    """Validate positivity and unit trace and build a :class:`State` that keeps ``tol``.

    The one-matrix case of Admission.admit_state. Raises EffectdynError for a
    tol outside (0, TOL_MAX] (check_tol), NonHermitianError,
    SpectrumOutOfRangeError (an eigenvalue below -tol or not finite) and TraceNotOneError.
    """
    return Admission.of(linalg.as_complex_matrix(matrix)[None]).admit_state(0, check_tol(tol))


def maximally_mixed_state(dim: int) -> State:
    return validate_state(np.eye(dim) / dim)


def _check_dims(*dims: int) -> None:
    """Raise DimensionMismatchError, "dimension mismatch: (...)", unless all dims are equal.

    The one dimension check of two or more operands, for every command and
    kernel: products, evolutions, frames, probabilities, distributions.
    """
    if len(set(dims)) > 1:
        raise DimensionMismatchError(f"dimension mismatch: {dims}")


def clamp_probability(p: float, rho: State, tol: float) -> float:
    """p = tr(rho x), x admitted at tol, clamped onto [0, 1] within what the operands allow.

    The bound: rho = rho+ - rho- with rho+, rho- >= 0; at most d - 1 eigenvalues of
    rho are negative, each >= -t_rho, so tr(rho-) <= n = (d - 1) t_rho and
    tr(rho+) <= 1 + tau + n (tau = STATE_TRACE_TOL). As -t <= x <= 1 + t,
    -(n + e) <= tr(rho x) <= 1 + n + tau + e, e = t (1 + tau + 2n).
    """
    n = (rho.dim - 1) * rho.tol
    return clamp_unit(p, n + STATE_TRACE_TOL + tol * (1.0 + STATE_TRACE_TOL + 2.0 * n))


def probability(rho: State, a: Effect) -> float:
    """tr(rho a): probability that the effect occurs in the given state.

    Clamped onto [0, 1] within the bound clamp_probability derives, as
    observables.distribution clamps each outcome's.
    """
    _check_dims(rho.dim, a.dim)
    return clamp_probability(float(linalg.trace_inner(rho.matrix, a.matrix).real), rho, a.tol)


def product_tol(tol_a: float, tol_b: float) -> float:
    """Admission tolerance of a product of operands admitted at tol_a and tol_b.

    With -t <= x <= 1 + t for both, a^{1/2} b a^{1/2} (and its sum over a's
    in an observable) lies in [-t_b(1 + t_a), (1 + t_a)(1 + t_b)]. The bound
    is written t_a + t_b + t_a t_b: (1 + t_a)(1 + t_b) - 1 cancels to 0
    when both tolerances are below eps.
    """
    return tol_a + tol_b + tol_a * tol_b


def sequential_product(a: Effect, b: Effect) -> Effect:
    """a o b = a^(1/2) b a^(1/2): measure a, then b immediately after.

    The result is re-validated as an effect, at product_tol, rather than
    trusted; it always satisfies a o b <= a, and equals ab when a and b
    commute. The one-pair case of sequential_products.
    """
    return sequential_products([a], [b])[0]


def sequential_products(lefts, rights) -> tuple[Effect, ...]:
    """a o b for every aligned pair (lefts[k], rights[k]) of one dimension, in one stacked pass.

    Pair k is admitted at product_tol of its own operands' tolerances, after
    DimensionMismatchError is checked pair by pair. No pairs give ().
    """
    return products_and_roots(lefts, rights)[0] if lefts else ()


def products_and_roots(lefts, rights):
    """sequential_products and the stacked_roots(lefts) it multiplied by, for callers using both.

    A product that admission refuses for its spectrum raises
    SpectrumOutOfRangeError, with its eigenvalue, under a message naming a∘b.
    """
    for a, b in zip(lefts, rights):
        _check_dims(a.dim, b.dim)
    roots = stacked_roots(lefts)
    stack = roots[2] @ np.array([e.matrix for e in rights]) @ roots[2]
    tols = [product_tol(a.tol, b.tol) for a, b in zip(lefts, rights)]
    try:
        return admit_effects(stack, tols), roots
    except SpectrumOutOfRangeError as exc:  # name the matrix the user never wrote
        raise SpectrumOutOfRangeError(f"a∘b is refused: {exc}", exc.eigenvalue) from None


def commutator_norm(a: Effect, b: Effect) -> float:
    """||ab - ba|| (spectral norm) of two effects of one dimension.

    The package's one commutator norm: commutes, constancy_classifier and the
    scan's draws read it. Its operands, effects and products admitted within
    TOL_MAX, have norms below 2, so no product in it overflows.
    """
    _check_dims(a.dim, b.dim)
    return linalg.spectral_norm(linalg.commutator(a.matrix, b.matrix))


def _pair_bound(tol: float, x: Effect, y: Effect) -> float:
    """max(tol, _PAIR_ROUNDING · ||x|| ||y||): the bound of a yes/no decision on the pair (x, y).

    A value bilinear in x and y, such as xy - yx, rounds by a few eps per
    unit of ||x|| ||y||, so a decision on it allows tol or that rounding,
    whichever is larger: commutes, and the constancy test of
    evolution.constancy_classifier (on the pair (a o b, a)), at the
    operands' tol. The rounding decides at a tol below 1e-12. The scale
    never multiplies tol itself.
    """
    return max(tol, _PAIR_ROUNDING * x.norm * y.norm)


def commutes(a: Effect, b: Effect) -> bool:
    """True iff ||ab - ba|| <= max(tol, _PAIR_ROUNDING · ||a|| ||b||), tol the operands' (_pair_bound)."""
    return commutator_norm(a, b) <= _pair_bound(max(a.tol, b.tol), a, b)


@dataclass(frozen=True, eq=False)
class CoexistenceWitness:
    """Decomposition witnessing that two effects coexist.

    Witnesses a = a1 + c and b = b1 + c with a1 + b1 + c <= I, so both
    effects arise as outcome sums of the single four-outcome observable
    {a1, b1, c, I - a1 - b1 - c}. The complement is derived on demand, not
    stored. Construction does not re-check the sum condition; use
    :func:`verify_coexistence_witness`.
    """

    a1: Effect
    b1: Effect
    c: Effect

    def complement(self) -> Effect:
        """d = I - a1 - b1 - c, the fourth observable member."""
        dim = self.a1.dim
        rest = np.eye(dim) - self.a1.matrix - self.b1.matrix - self.c.matrix
        return admit_effects(rest[None], (max(self.a1.tol, self.b1.tol, self.c.tol),))[0]


def verify_coexistence_witness(a: Effect, b: Effect, witness: CoexistenceWitness) -> bool:
    """Check that a witness actually decomposes the pair (a, b).

    True iff all three members are valid effects, a1 + b1 + c <= I, and
    a = a1 + c, b = b1 + c, all within the loosest operand's tolerance. The
    members are admitted together, in one admit_effects pass.
    """
    members = (witness.a1, witness.b1, witness.c)
    _check_dims(a.dim, b.dim, *(m.dim for m in members))
    tol = max(x.tol for x in (a, b, *members))
    try:  # one admission, as validate_effect would admit each member
        admit_effects(np.array([linalg.as_complex_matrix(m.matrix) for m in members]), (tol,) * 3)
    except (SpectrumOutOfRangeError, ValueError):
        return False
    total = witness.a1.matrix + witness.b1.matrix + witness.c.matrix
    if float(np.max(np.linalg.eigvalsh(total))) > 1.0 + tol:
        return False
    res_a = linalg.operator_norm(a.matrix - witness.a1.matrix - witness.c.matrix)
    res_b = linalg.operator_norm(b.matrix - witness.b1.matrix - witness.c.matrix)
    return res_a <= tol and res_b <= tol


def commuting_witness(a: Effect, b: Effect) -> CoexistenceWitness:
    """Standard coexistence witness (a - ab, b - ab, ab) for a commuting pair.

    All three are admitted at product_tol: in a joint eigenbasis their
    eigenvalues are x*y, x*(1 - y) and (1 - x)*y with x and 1 - x in
    [-t_a, 1 + t_a] and y and 1 - y in [-t_b, 1 + t_b], so each lies in
    [-max(t_a(1 + t_b), t_b(1 + t_a)), (1 + t_a)(1 + t_b)]; one admit_effects
    pass admits all three. Raises NotCommutingError when the pair does not
    commute.
    """
    if not commutes(a, b):
        raise NotCommutingError("commuting_witness requires a commuting pair")
    prod = linalg.hermitian_part(a.matrix @ b.matrix)  # exact ab is Hermitian; drop round-off skew
    members = np.array([a.matrix - prod, b.matrix - prod, prod])
    return CoexistenceWitness(*admit_effects(members, (product_tol(a.tol, b.tol),) * 3))

