"""Deterministic random generators shared by the test modules.

Everything is driven by an explicit numpy Generator so any failing case is
reproducible from the seed in the test.
"""

from __future__ import annotations

import numpy as np

from effectdyn import Effect, State, validate_effect, validate_state
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


def random_observable(dim: int, n_outcomes: int, rng: np.random.Generator) -> Observable:
    """Random POVM: normalize positive blocks G_i G_i† by the inverse root of their sum."""
    blocks = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(g @ g.conj().T)
    total = np.sum(blocks, axis=0)
    w, v = np.linalg.eigh(total)
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    return validate_observable([inv_root @ blk @ inv_root for blk in blocks])


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
