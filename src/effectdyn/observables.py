"""Observables (finite effect families summing to I) and their calculus.

Covers outcome distributions, the sequential product A o B, conditioning
(B|A), the a-evolution B(t|a), the time-dependent product A[t]B, the
time-dependent conditional observable (B|A)(t|A), and convex combinations.
Every operation funnels its output through validate_observable, so the
normalization arguments behind each construction are re-checked numerically
on every call, at the loosest admission tolerance of the members involved;
the sum check of a product observable, an evolved one or a convex combination
adds an allowance for the rounding of its computed terms, the n·m products,
the n evolved members or the k·m weighted members (_rounding).

Every operation is one stacked pass. A o B, A[t]B, (B|A) and (B|A)(t|A)
each run their n·m pairs (A_x, B_y) through the pair kernels
(effects.sequential_products, evolution.time_seq_products), and B(t|a) its
n members through one frame of a (evolution.effect_evolutions): a fixed
number of numpy calls on (n·m, d, d) or (n, d, d) stacks, whatever n and m,
with every step and check of the one-pair sequential_product and
time_seq_product, or the one-effect effect_evolution, kept. Where numpy's
stacked calls equal its per-matrix ones bit for bit (they do in numpy
2.4.6), so do the results; the outcome sums add in x order from zero, as a
loop would. Each check runs over the whole stack before the next; its first
failing pair or member raises. The pairs run x-major, (A_0, B_0),
(A_0, B_1), ..., in every operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .effects import (
    STATE_TRACE_TOL,
    Effect,
    State,
    _check_dims,
    admit_effects,
    clamp_probability,
    product_tol,
    sequential_products,
    validate_effect,
)
from .errors import (
    ConsistencyError,
    EffectdynError,
    LabelCollisionError,
    MemberNotEffectError,
    OutcomeSetMismatchError,
    SchemaError,
    SumNotIdentityError,
    WeightsNotNormalizedError,
)
# time_seq_product (the one-pair case of time_seq_products) is not called here
# but stays importable from this module: bench/tracer.py wraps every import
# site of it, and the tracer's self-test names this one.
from .evolution import effect_evolutions, time_seq_product, time_seq_products  # noqa: F401

# Convex weights must sum to 1 this closely; a fixed bound that does not follow --tol.
WEIGHT_SUM_TOL = 1e-12

# Joins outcome labels of product observables: (x, y) -> "x⊗y".
PRODUCT_LABEL_SEP = "⊗"

# Rounding allowance of a derived observable's sum check, in units of d·eps
# per computed term (a pair (A_x, B_y) or an evolved member); see _rounding.
ROUNDING_UNITS = 4.0


@dataclass(frozen=True, eq=False)
class Observable:
    """Ordered family of effects summing to the identity.

    ``outcomes`` are unique string labels parallel to ``effects``; both are
    stored in declaration order and all iteration is order-stable. ``tol``
    is the loosest admission tolerance among the members. ``sum_residual``
    is ||sum_x A_x - I||, the residual of the sum check that admitted it
    (validate_observable).
    """

    outcomes: tuple[str, ...]
    effects: tuple[Effect, ...]
    sum_residual: float

    @property
    def dim(self) -> int:
        return self.effects[0].dim

    @property
    def tol(self) -> float:
        return max(e.tol for e in self.effects)

    def __len__(self) -> int:
        return len(self.effects)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probabilities tr(rho A_x) per outcome; sums to 1 within tolerance."""

    outcomes: tuple[str, ...]
    probabilities: tuple[float, ...]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.outcomes, self.probabilities))


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def validate_observable(effects, outcomes=None, *, rounding: float = 0.0) -> Observable:
    """Check that the effects form an observable and build it.

    Members may be Effect instances or raw matrices; raw members are
    validated at the default tolerance (MemberNotEffectError on failure).
    The sum must be I within the loosest member's tolerance plus
    ``rounding``, the allowance for the rounding of computed members
    (SumNotIdentityError, carrying the residual, on failure, also when the
    residual is not a number); the observable keeps it as ``sum_residual``.
    The residual is ||sum_x A_x - I|| with no second Hermiticity check: the
    admitted members, and so their sum, are Hermitian bit for bit.
    Labels default to "0", "1", ...; duplicates are rejected.
    """
    members: list[Effect] = []
    for i, m in enumerate(effects):
        if isinstance(m, Effect):
            members.append(m)
        else:
            try:
                members.append(validate_effect(m))
            except EffectdynError as exc:
                raise MemberNotEffectError(f"member {i} is not an effect: {exc}") from exc
    if not members:
        raise SchemaError("an observable needs at least one effect")
    _check_dims(*(m.dim for m in members))
    labels = _default_labels(len(members)) if outcomes is None else tuple(str(o) for o in outcomes)
    if len(labels) != len(members):
        raise SchemaError(
            f"{len(labels)} outcome labels for {len(members)} effects"
        )
    if len(set(labels)) != len(labels):
        raise SchemaError("outcome labels must be unique")
    dim = members[0].dim
    total = np.zeros((dim, dim), dtype=complex)
    for m in members:
        total += m.matrix
    # every admitted member is Hermitian bit for bit, and so is their sum
    residual = float(linalg.operator_norms(total - np.eye(dim)))
    bound = max(m.tol for m in members) + rounding
    if not residual <= bound:
        raise SumNotIdentityError(
            f"effects sum to I only within {residual:.3g} (> {bound!r})", residual
        )
    return Observable(labels, tuple(members), residual)


def distribution(a: Observable, rho: State) -> OutcomeDistribution:
    """The probability measure x -> tr(rho A_x) of A in the state rho.

    The raw sum must be 1 within what the inputs allow, the observable's
    tolerance plus STATE_TRACE_TOL (ConsistencyError beyond it); then each
    probability is clamped onto [0, 1] within the bound its operands allow
    (effects.clamp_probability, at the observable's tolerance).
    """
    _check_dims(rho.dim, a.dim)
    raw = [float(linalg.trace_inner(rho.matrix, m.matrix).real) for m in a.effects]
    bound = a.tol + STATE_TRACE_TOL
    if abs(sum(raw) - 1.0) > bound:
        raise ConsistencyError(f"distribution sums to {sum(raw)!r}, off 1 beyond {bound!r}")
    return OutcomeDistribution(a.outcomes, tuple(clamp_probability(p, rho, a.tol) for p in raw))


def product_label(x: str, y: str) -> str:
    return f"{x}{PRODUCT_LABEL_SEP}{y}"


def _product_labels(a: Observable, b: Observable) -> list[str]:
    """Labels x⊗y in input order; LabelCollisionError if two pairs (x, y) join to one label."""
    pairs: dict[str, tuple[str, str]] = {}
    for x in a.outcomes:
        for y in b.outcomes:
            label = product_label(x, y)
            if label in pairs:
                raise LabelCollisionError(
                    f"outcome pairs {pairs[label]!r} and {(x, y)!r} both give the "
                    f"product label {label!r}"
                )
            pairs[label] = (x, y)
    return list(pairs)


def _pairs(products, a: Observable, b: Observable, *args) -> tuple[Effect, ...]:
    """products(A_x, B_y, *args) for all n·m pairs in one stacked pass, x-major."""
    lefts = [ax for ax in a.effects for _ in b.effects]
    rights = [by for _ in a.effects for by in b.effects]
    return products(lefts, rights, *args)


def _rounding(terms: int, dim: int) -> float:
    """Rounding allowance of a sum check over ``terms`` computed d×d terms: 4 terms d eps.

    The exact terms sum to I within the admission tolerance, but each
    computed term, a product A_x o B_y or A_x[t]B_y, an evolved member
    e^{-ita} B_y e^{ita} (matrix products after an eigendecomposition) or a
    weighted member w_i B_iy, is off by a few d·eps, and the sum check adds
    up all of them. On about 1,400 random pairs of 2-4 outcome observables
    at dims 2, 4 and 8, the computed sums of A o B, A[t]B, (B|A) and
    (B|A)(t|A) were off from I by at most 2.06 n m d eps more than the
    operands' own sums; on 13,500 random 2-4 outcome observables B at dims
    2, 4 and 8 and t in [-10, 10], the sums of B(t|a) were off by at most
    2.68 n d eps more than B's own; on 6,006 convex combinations of k = 2-3
    observables of 2-4 outcomes at dims 2-8, each admitted at its own sum
    residual, the sums were off by at most 0.10 k m d eps more than the
    operands' loosest tolerance. So the allowance is ROUNDING_UNITS = 4 such
    units per term: 7.1e-15 for two 2-outcome qubit observables, 1.1e-13 for
    two 4-outcome ones at dim 8, 3.6e-15 for one evolved 2-outcome qubit
    observable.
    """
    return ROUNDING_UNITS * terms * dim * np.finfo(float).eps


def _pairwise(products, a: Observable, b: Observable, *args) -> Observable:
    """Effects products(A_x, B_y, *args) over the product outcome set, input order.

    The labels are checked before any product is computed; the sum check
    allows for the products' rounding (_rounding).
    """
    labels = _product_labels(a, b)
    members = _pairs(products, a, b, *args)
    return validate_observable(members, labels, rounding=_rounding(len(a) * len(b), a.dim))


def _conditioned(products, b: Observable, a: Observable, *args) -> Observable:
    """Effect y is sum_x products(A_x, B_y, *args), summed once every pair is admitted."""
    terms = np.array([e.matrix for e in _pairs(products, a, b, *args)])
    terms = terms.reshape(len(a), len(b), a.dim, a.dim)
    return _outcome_sums(b.outcomes, terms, product_tol(a.tol, b.tol))


def _outcome_sums(outcomes, terms: np.ndarray, tol: float) -> Observable:
    """Effect y is the sum of terms[:, y], added in order from zero and admitted at tol.

    The sum check allows for the rounding of the k·m computed d×d terms (_rounding).
    """
    k, m, d, _ = terms.shape
    total = np.zeros(terms.shape[1:], dtype=complex)
    for term in terms:
        total = total + term
    members = admit_effects(total, (tol,) * len(total))
    return validate_observable(members, outcomes, rounding=_rounding(k * m, d))


def obs_seq_product(a: Observable, b: Observable) -> Observable:
    """A o B: effects A_x o B_y over the product outcome set, input order."""
    return _pairwise(sequential_products, a, b)


def conditioned_observable(b: Observable, a: Observable) -> Observable:
    """(B|A): effects sum_x A_x o B_y — B after a nonselective A measurement."""
    return _conditioned(sequential_products, b, a)


def obs_evolution(b: Observable, a: Effect, t: float) -> Observable:
    """B(t|a): each member evolved, e^{-ita} B_y e^{ita}, in one stacked pass; outcomes unchanged.

    The sum check allows for the rounding of the n evolved members (_rounding).
    """
    members = effect_evolutions(b.effects, a, t)
    return validate_observable(members, b.outcomes, rounding=_rounding(len(b), b.dim))


def obs_time_seq_product(a: Observable, b: Observable, t: float) -> Observable:
    """A[t]B: effects A_x[t]B_y = A_x o (B_y evolved by A_x for time t)."""
    return _pairwise(time_seq_products, a, b, t)


def time_conditional_observable(b: Observable, a: Observable, t: float) -> Observable:
    """(B|A)(t|A): effects sum_x A_x[t]B_y; reduces to (B|A) at t = 0."""
    return _conditioned(time_seq_products, b, a, t)


def convex_combination(weights, observables) -> Observable:
    """sum_i w_i B_i over a shared outcome set, weights on the simplex.

    Raises WeightsNotNormalizedError when the weights do not sum to 1 (or
    leave [0, 1], or are not one per observable), and OutcomeSetMismatchError
    or DimensionMismatchError when the outcome sets or dimensions differ.
    """
    ws = [float(w) for w in weights]
    obs = list(observables)
    if len(ws) != len(obs) or not obs:
        raise WeightsNotNormalizedError(f"{len(ws)} weights for {len(obs)} observables")
    if not all(0.0 <= w <= 1.0 for w in ws) or abs(sum(ws) - 1.0) > WEIGHT_SUM_TOL:
        raise WeightsNotNormalizedError(
            f"weights must lie in [0,1] and sum to 1, got {ws}"
        )
    first = obs[0]
    for o in obs[1:]:
        if o.outcomes != first.outcomes:
            raise OutcomeSetMismatchError(
                f"outcome sets differ: {first.outcomes} vs {o.outcomes}"
            )
    _check_dims(*(o.dim for o in obs))
    terms = [w * np.stack([e.matrix for e in o.effects]) for w, o in zip(ws, obs)]
    return _outcome_sums(first.outcomes, np.stack(terms), max(o.tol for o in obs))
