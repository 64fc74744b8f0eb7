"""Independent output checker for the effectdyn benchmark.

Every formula here is written from the definitions with plain numpy
eigendecompositions; nothing from effectdyn is imported. A check returns the
list of ways an output misses its reference; an empty list is a pass.

    a∘b    = a^{1/2} b a^{1/2}
    b(t|a) = e^{-ita} b e^{ita}
    a[t]b  = e^{-ita} (a∘b) e^{ita}
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from workloads import matrix_from_document

ENTRY_TOL = 1e-10
SUM_TO_IDENTITY_TOL = 1e-9
DISTRIBUTION_SUM_TOL = 1e-10
# Eigenvalues this close to 0 are rounding noise of an exact zero; their
# square roots (~1e-8) would otherwise swamp the 1e-10 comparisons.
_SQRT_ZERO = 1e-12


def _herm(m: np.ndarray) -> np.ndarray:
    return (m + np.conj(np.swapaxes(m, -1, -2))) / 2.0


def _sqrt_psd(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(_herm(a))
    w = np.where(w <= _SQRT_ZERO, 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def seq_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    s = _sqrt_psd(a)
    return s @ b @ s


def conjugate_by(a: np.ndarray, m: np.ndarray, times) -> np.ndarray:
    """e^{-ita} m e^{ita} for every t in ``times`` (stacked on axis 0)."""
    w, v = np.linalg.eigh(_herm(a))
    ts = np.asarray(times, dtype=float).reshape(-1, 1, 1)
    phases = np.exp(-1j * ts * (w[:, None] - w[None, :]))
    return v @ (phases * (v.conj().T @ m @ v)) @ v.conj().T


def operator_norm(m: np.ndarray) -> np.ndarray:
    """Largest |eigenvalue| of each Hermitian matrix in the stack."""
    return np.max(np.abs(np.linalg.eigvalsh(_herm(m))), axis=-1)


def spectral_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[0])


def symmetry_gap(a: np.ndarray, b: np.ndarray, t: float) -> float:
    """||a[t]b - b[t]a||."""
    ab = conjugate_by(a, seq_product(a, b), [t])[0]
    ba = conjugate_by(b, seq_product(b, a), [t])[0]
    return float(operator_norm(ab - ba))


def _load_operator(path: Path) -> np.ndarray:
    return matrix_from_document(json.loads(path.read_text(encoding="utf-8")))


def _load_observable(path: Path) -> tuple[list[str], list[np.ndarray]]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc["outcomes"], [matrix_from_document(e) for e in doc["effects"]]


def _near(name: str, got: float, want: float, tol: float, misses: list[str]) -> None:
    if not abs(got - want) <= tol:
        misses.append(f"{name}: got {got!r}, reference {want!r} (tolerance {tol:g})")


def _key_values(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def check_scan(request: dict, json_text: str, csv_text: str) -> list[str]:
    misses: list[str] = []
    records = json.loads(json_text)["records"]
    if len(records) != request["expect"]["trials"]:
        misses.append(f"{len(records)} records for {request['expect']['trials']} trials")
    rows = list(csv.reader(io.StringIO(csv_text)))[1:]
    if len(rows) != len(records):
        misses.append(f"CSV has {len(rows)} rows for {len(records)} records")
    for rec, row in zip(records, rows):
        if [int(row[0])] + [float(x) for x in row[1:]] != [
            rec["trial"], rec["commutator_norm"], rec["t_star"], rec["min_gap"]
        ]:
            misses.append(f"trial {rec['trial']}: CSV row {row} differs from JSON")
        a, b = matrix_from_document(rec["a"]), matrix_from_document(rec["b"])
        tag = f"trial {rec['trial']}"
        _near(f"{tag} commutator_norm", rec["commutator_norm"],
              spectral_norm(a @ b - b @ a), ENTRY_TOL, misses)
        _near(f"{tag} gap at t_star", rec["min_gap"],
              symmetry_gap(a, b, rec["t_star"]), ENTRY_TOL, misses)
        if rec["punctured_t_star"] is not None:
            _near(f"{tag} gap at punctured_t_star", rec["punctured_min_gap"],
                  symmetry_gap(a, b, rec["punctured_t_star"]), ENTRY_TOL, misses)
    return misses


def check_trajectory(request: dict, paths: list[Path], stdout: str) -> list[str]:
    expect = request["expect"]
    a, b = (_load_operator(p) for p in paths)
    d = a.shape[0]
    rows = list(csv.reader(io.StringIO(stdout)))
    if len(rows) != expect["steps"] + 2 or len(rows[0]) != 2 * d * d + 3:
        return [f"CSV shape {len(rows)}x{len(rows[0]) if rows else 0} is wrong"]
    values = np.array(rows[1:], dtype=float)
    times = np.linspace(expect["t0"], expect["t1"], expect["steps"] + 1)
    base = b if expect["mode"] == "evolution" else seq_product(a, b)
    want = conjugate_by(a, base, times)
    got = values[:, 1 : 1 + 2 * d * d : 2] + 1j * values[:, 2 : 2 + 2 * d * d : 2]
    misses: list[str] = []
    for name, g, w in (
        ("t", values[:, 0], times),
        ("entries", got, want.reshape(len(times), d * d)),
        ("deviation", values[:, -2], operator_norm(want - base)),
        ("derivative_norm", values[:, -1], operator_norm(1j * (want @ a - a @ want))),
    ):
        err = float(np.max(np.abs(g - w)))
        if not err <= ENTRY_TOL:
            misses.append(f"{name} off the reference by {err:.3e}")
    return misses


def _check_classify(request: dict, paths: list[Path], stdout: str) -> list[str]:
    expect = request["expect"]
    a, b = (_load_operator(p) for p in paths)
    got = _key_values(stdout)
    misses: list[str] = []
    for key, want in (
        ("constant", "true" if expect["constant"] else "false"),
        ("reason", expect["reason"]),
    ):
        if got.get(key) != want:
            misses.append(f"{key}: got {got.get(key)!r}, built as {want!r}")
    ab = seq_product(a, b)
    _near("residual", float(got.get("residual", "nan")),
          spectral_norm(ab @ a - a @ ab), ENTRY_TOL, misses)
    if "scale" in expect:
        _near("scale", float(got.get("scale", "nan")), expect["scale"], ENTRY_TOL, misses)
    if "rank" in expect and got.get("projection_rank") != str(expect["rank"]):
        misses.append(f"projection_rank: got {got.get('projection_rank')!r}, built as {expect['rank']}")
    return misses


def _reference_observable(request: dict, paths: list[Path]) -> tuple[list[str], list[np.ndarray]]:
    kind = request["kind"]
    labels_a, obs_a = _load_observable(paths[0])
    labels_b, obs_b = _load_observable(paths[1])
    t = request["expect"].get("t", 0.0)
    if kind == "observable-tseq":
        labels = [f"{x}⊗{y}" for x in labels_a for y in labels_b]
        return labels, [conjugate_by(ax, seq_product(ax, by), [t])[0] for ax in obs_a for by in obs_b]
    members = [
        sum(conjugate_by(ax, seq_product(ax, by), [t])[0] for ax in obs_a) for by in obs_b
    ]
    return labels_b, members


def _check_members(labels, members, doc: dict, misses: list[str]) -> None:
    if doc["outcomes"] != labels:
        misses.append(f"outcomes {doc['outcomes']} differ from {labels}")
        return
    got = [matrix_from_document(e) for e in doc["effects"]]
    err = max(float(np.max(np.abs(g - w))) for g, w in zip(got, members))
    if not err <= ENTRY_TOL:
        misses.append(f"effects off the reference by {err:.3e}")
    d = got[0].shape[0]
    residual = float(operator_norm(sum(got) - np.eye(d)))
    if not residual <= SUM_TO_IDENTITY_TOL:
        misses.append(f"effects sum to I only within {residual:.3e}")


def _check_distribution(dist: dict, rho: np.ndarray, labels, members, misses: list[str]) -> None:
    if list(dist) != list(labels):
        misses.append(f"distribution outcomes {list(dist)} differ from {list(labels)}")
        return
    want = [float(np.real(np.trace(rho @ m))) for m in members]
    for (label, p), w in zip(dist.items(), want):
        _near(f"probability of {label}", p, w, ENTRY_TOL, misses)
    _near("distribution sum", math.fsum(dist.values()), 1.0, DISTRIBUTION_SUM_TOL, misses)


def check_calculus(request: dict, paths: list[Path], stdout: str) -> list[str]:
    kind = request["kind"]
    if kind.startswith("classify"):
        return _check_classify(request, paths, stdout)
    misses: list[str] = []
    if kind == "validate-observable":
        labels, members = _load_observable(paths[0])
        got = _key_values(stdout)
        if got.get("valid") != "true":
            misses.append(f"valid: {got.get('valid')!r}")
        if got.get("outcomes") != repr(labels):
            misses.append(f"outcomes: {got.get('outcomes')!r}")
        if not float(got.get("sum_residual", "nan")) <= SUM_TO_IDENTITY_TOL:
            misses.append(f"sum_residual: {got.get('sum_residual')!r}")
        return misses
    doc = json.loads(stdout)
    if kind == "observable-dist":
        labels, members = _load_observable(paths[0])
        rho = _load_operator(paths[1])
        _check_distribution(doc, rho, labels, members, misses)
        return misses
    labels, members = _reference_observable(request, paths)
    if kind == "observable-tcond":
        rho = _load_operator(paths[2])
        _check_distribution(doc["distribution"], rho, labels, members, misses)
        doc = doc["observable"]
    _check_members(labels, members, doc, misses)
    return misses
