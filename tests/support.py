"""Deterministic random generators shared by the test modules.

Everything is driven by an explicit numpy Generator so any failing case is
reproducible from the seed in the test.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from effectdyn import Effect, State, linalg, serialization, validate_effect, validate_state
from effectdyn.effects import STATE_TRACE_TOL
from effectdyn.errors import EffectdynError, SchemaError, SpectrumOutOfRangeError, TraceNotOneError
from effectdyn.observables import Observable, validate_observable


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_effect(dim: int, rng: np.random.Generator) -> Effect:
    """Spectrum-uniform effect: random eigenbasis, eigenvalues ~ U[0, 1]."""
    u = random_unitary(dim, rng)
    w = rng.uniform(0.0, 1.0, dim)
    return validate_effect((u * w) @ u.conj().T)


def random_state(dim: int, rng: np.random.Generator) -> State:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return validate_state(rho / np.trace(rho).real)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_projection(dim: int, rank: int, rng: np.random.Generator) -> Effect:
    u = random_unitary(dim, rng)
    cols = u[:, :rank]
    return validate_effect(cols @ cols.conj().T)


def random_commuting_pair(dim: int, rng: np.random.Generator) -> tuple[Effect, Effect]:
    """Two effects sharing a random eigenbasis (so [a, b] = 0 exactly-ish)."""
    u = random_unitary(dim, rng)
    wa = rng.uniform(0.0, 1.0, dim)
    wb = rng.uniform(0.0, 1.0, dim)
    return (
        validate_effect((u * wa) @ u.conj().T),
        validate_effect((u * wb) @ u.conj().T),
    )


def random_scaled_projection(dim: int, rng: np.random.Generator) -> tuple[float, Effect, Effect]:
    """(scale, p, scale*p) with p a random projection of random rank."""
    rank = int(rng.integers(1, dim + 1))
    p = random_projection(dim, rank, rng)
    scale = float(rng.uniform(0.05, 1.0))
    return scale, p, validate_effect(scale * p.matrix)


def random_support_commuting_pair(dim: int, rng: np.random.Generator) -> tuple[Effect, Effect]:
    """A pair (a, b), dim >= 3, whose a[t]b is constant only because [a, PbP] = 0.

    a = V diag(0, ..., 0, w) with at least two distinct w in [0.1, 0.9], so a
    is singular and no scaled projection. In a's eigenbasis, kernel first,
    b = [[E, C†], [C, D]] with D diagonal and positive on the support, so it
    commutes there with a, C free, so [a, b] != 0, and E = C†D⁻¹C + F with
    F ⪰ 0, so b ⪰ 0 (its Schur complement is F); b is scaled to top eigenvalue 0.95.
    """
    kernel = int(rng.integers(1, dim - 1))
    support = dim - kernel
    w = rng.uniform(0.1, 0.9, support)
    w[:2] = rng.uniform(0.1, 0.45), rng.uniform(0.55, 0.9)
    d = rng.uniform(0.1, 1.0, support)
    c = rng.standard_normal((support, kernel)) + 1j * rng.standard_normal((support, kernel))
    g = rng.standard_normal((kernel, kernel)) + 1j * rng.standard_normal((kernel, kernel))
    e = c.conj().T @ (c / d[:, None]) + g @ g.conj().T
    b = np.block([[e, c.conj().T], [c, np.diag(d)]])
    b = (b + b.conj().T) / 2.0
    b *= 0.95 / np.linalg.eigvalsh(b)[-1]
    v = random_unitary(dim, rng)
    a = (v * np.concatenate([np.zeros(kernel), w])) @ v.conj().T
    return validate_effect(a), validate_effect(v @ b @ v.conj().T)


def random_observable(dim: int, n_outcomes: int, rng: np.random.Generator) -> Observable:
    """Random POVM: normalize positive blocks G_i G_i† by the inverse root of their sum."""
    blocks = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(g @ g.conj().T)
    return validate_observable(normalized_members(blocks))


def normalized_members(grams) -> list[np.ndarray]:
    """S^{-1/2} G_x S^{-1/2} for positive G_x, S = sum G_x: members summing to I up to rounding."""
    w, v = np.linalg.eigh(np.sum(grams, axis=0))
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return [inv_root @ g @ inv_root for g in grams]


def reference_bounds(ts, gs, lip: float, curv: float, slack: float) -> np.ndarray:
    """Every interval's certified gap bound, vectorized: the reference for explorer._interval_bound.

    The larger of each interval's cone (g_i + g_{i+1} - L h) / 2 - slack and
    its secant bound, both as explorer._interval_bound derives them: each
    interior knot starts two lines, the secant of the interval on one side
    continued over the other less K (h' + h) h / 2, with allowance
    slack (1 + 2 h / h') + 8 eps (g + h |d| + K (h' + h) h / 2); an edge's
    missing line has allowance inf, and a secant bound that is not finite is
    -inf, so the cone stands alone there.
    """
    eps = float(np.finfo(float).eps)
    ts, gs = np.asarray(ts, dtype=float), np.asarray(gs, dtype=float)
    h = np.diff(ts)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cone = (gs[:-1] + gs[1:] - lip * h) / 2.0 - slack
        rise = np.diff(gs)
        slope = rise / h
        # knot k (interior) starts two lines: row 0 continues the secant of
        # interval k - 1 over interval k, row 1 that of interval k over k - 1
        own = np.stack((h[1:], h[:-1]))
        near = own[::-1]
        run = own * np.stack((slope[:-1], -slope[1:]))
        bend = (near + own) * own * (curv / 2.0)
        line_drop = run - bend
        line_err = slack + 2.0 * slack * own / near + 8.0 * eps * (gs[1:-1] + np.abs(run) + bend)
        drop, err = np.zeros((2, h.size)), np.full((2, h.size), np.inf)
        drop[0, 1:], err[0, 1:] = line_drop[0], line_err[0]
        drop[1, :-1], err[1, :-1] = line_drop[1], line_err[1]
        (dl, dr), (el, er) = drop, err
        w = np.minimum(np.maximum(dr / (dl + dr), 0.0), 1.0)
        g_r = gs[1:]
        mixed = np.minimum(g_r + dr - w * (rise + dr), g_r - w * (rise - dl))
        lower = np.fmax(
            np.maximum(gs[:-1] + np.minimum(dl, 0.0) - el, g_r + np.minimum(dr, 0.0) - er),
            mixed - (np.maximum(el, er) + (el + er) / 4.0),
        )
    return np.maximum(cone, np.where(np.isfinite(lower), lower, -np.inf))


_EPS = float(np.finfo(float).eps)


def dense_route_allowance(a: np.ndarray, m: np.ndarray, t: float) -> float:
    """How far a frame's e^{-ita} m e^{ita} and dense_reference's may part at t; a, m of norm <= 1.

    Rounding: each route eigensolves a (the same matrix) and multiplies
    matrices of norm <= 1, a few d eps per step, 16 d eps in all. Phases, which
    grow with |t|: in a's eigenbasis both routes are D X D† up to rounding,
    X = V†mV and D = diag(exp(-it w_j)) (see EigenFrame._rotated); for a[t]b,
    m = a o b, as the dense s (u b u†) s is u (a o b) u† with s diagonal in V.
    The frame's phase t (w_j - w_0) of D_jj rounds twice, by at most
    eps |t| (w_max - w_min) in all; the dense route's t w_j rounds by at most
    eps |t| |w_j| / 2. So the routes' D differ by phases r_j with
    |r_j| <= eps |t| (w_max - w_min + max|w| / 2), which move entry jk by at
    most |r_j - r_k| |X_jk|, the whole by at most 2 max|r| ||X||_F in norm:
    eps |t| (2 (w_max - w_min) + max|w|) ||m||_F, at most 3 eps |t| max|w| ||m||_F
    for a spectrum >= 0.
    """
    w = np.linalg.eigvalsh(a)  # ascending
    spread = 2.0 * (w[-1] - w[0]) + np.abs(w).max()
    return _EPS * (16.0 * a.shape[0] + abs(t) * spread * float(np.linalg.norm(m)))


def state_faults(dim: int, rng: np.random.Generator) -> dict:
    """A valid random state of dim and one matrix per fault validate_state refuses, by name.

    The faults that need two diagonal entries are left out at dim 1.
    """
    rho = random_state(dim, rng).matrix
    skew = rho.copy()
    skew[0, -1] += 0.5j
    faults = {
        "valid": rho,
        "non_hermitian": skew,
        "below": np.diag([-0.2] + [1.2 / (dim - 1)] * (dim - 1)) if dim > 1 else -rho,
        "trace": rho * 0.9,
        "non_square": np.ones((dim, dim + 1)) / dim,
        "non_finite_entry": np.where(np.eye(dim) == 1, np.nan, rho),
        "empty": np.zeros((0, 0)),
    }
    if dim > 1:
        faults["trace_overflow"] = np.diag([1.7e308] * dim)  # finite entries, sum inf
        # finite entries, eigenvalue inf: at dim 3 the others are +-5.6e292, rounding
        faults["spectrum_overflow"] = np.full((dim, dim), 1e308)
        z = 1.5e308 + 1.5e308j
        spread = np.zeros((dim, dim), dtype=complex)
        spread[0, 0] = spread[1, 1] = 0.5
        spread[0, 1], spread[1, 0] = z, np.conj(z)
        faults["non_finite_spectrum"] = spread
    return faults


def reference_state(matrix, tol: float) -> State:
    """validate_state as a sequence of its own: the reference for Admission.admit_state.

    The matrix gets a Hermiticity check and an eigensolve by itself; then the
    lowest eigenvalue, the trace (summed with overflow ignored) and last the
    finiteness of the spectrum are checked, in validate_state's order. A
    spectrum with an eigenvalue that is not finite has no lowest eigenvalue
    to check (NaN).
    """
    h = linalg.require_hermitian(matrix)
    w = np.linalg.eigvalsh(h)
    lo = float(w[0]) if np.isfinite(w).all() else math.nan
    if lo < -tol:
        raise SpectrumOutOfRangeError(f"eigenvalue {lo!r} below -{tol!r}", lo)
    with np.errstate(over="ignore"):
        tr = float(np.trace(h).real)
    if abs(tr - 1.0) > STATE_TRACE_TOL:
        raise TraceNotOneError(f"trace {tr!r} differs from 1 beyond {STATE_TRACE_TOL}")
    if not np.isfinite(w).all():
        raise SpectrumOutOfRangeError(
            "eigenvalues are not finite: the matrix's norm exceeds the float range", lo
        )
    h.setflags(write=False)
    return State(h, tol)


def state_outcome(check, *args) -> tuple:
    """check(*args) as a value: the state's bits, tol and write flag, or the error's type and text.

    A SpectrumOutOfRangeError's eigenvalue is part of the value.
    """
    try:
        rho = check(*args)
    except (EffectdynError, ValueError) as exc:
        return type(exc), str(exc), repr(getattr(exc, "eigenvalue", None))
    return rho.matrix.tobytes(), rho.tol, rho.matrix.flags.writeable


def reference_load(kind: str, path: str, tol: float):
    """One operand file read, parsed and admitted on its own: the reference for cli._load.

    kind is "effect", "observable" or "state", as in cli._load.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc
    if kind == "observable":
        outcomes, matrices = serialization.parse_observable_json(text)
        return validate_observable([validate_effect(m, tol) for m in matrices], outcomes)
    matrix = serialization.parse_operator_json(text)
    return (reference_state if kind == "state" else validate_effect)(matrix, tol)


def reference_load_error(files, tol: float) -> tuple[int, str] | None:
    """The exit code and stderr of the first file of (kind, path) pairs that fails to load.

    The files are loaded one after another with reference_load, and the
    first error is reported as cli.main reports it; None if every file loads.
    """
    for kind, path in files:
        try:
            reference_load(kind, path, tol)
        except SchemaError as exc:
            return 3, f"error: {exc}\n"
        except (EffectdynError, OSError) as exc:
            return 2, f"error: {exc}\n"
    return None
