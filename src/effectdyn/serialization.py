"""JSON and CSV formats for operators, observables, trajectories and scans.

Operator document: {"dim": n, "entries": [[[re, im], ...], ...]} with
canonical field order dim -> entries. Observable document:
{"outcomes": [...], "effects": [operator documents]}. Trajectory CSV columns:
t, e_00_re, e_00_im, ..., deviation, derivative_norm. Scan CSV columns:
trial, commutator_norm, t_star, min_gap. All floats in CSV are written with
17 significant digits so residuals survive a round trip; writers are
deterministic byte-for-byte.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import SchemaError
from .explorer import ScanConfig, ScanResult
from .observables import Observable, OutcomeDistribution

_FLOAT_FMT = ".17g"


def operator_to_document(matrix: np.ndarray) -> dict:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SchemaError(f"operator must be square, got shape {m.shape}")
    return {
        "dim": int(m.shape[0]),
        "entries": np.stack([m.real, m.imag], axis=-1).tolist(),
    }


def document_to_matrix(doc) -> np.ndarray:
    """Parse an operator document into a complex matrix (SchemaError if malformed)."""
    if not isinstance(doc, dict):
        raise SchemaError(f"operator document must be an object, got {type(doc).__name__}")
    missing = {"dim", "entries"} - doc.keys()
    if missing:
        raise SchemaError(f"operator document missing fields: {sorted(missing)}")
    dim = doc["dim"]
    entries = doc["entries"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(entries, list) or len(entries) != dim:
        raise SchemaError(f"entries must be a list of {dim} rows")
    out = np.empty((dim, dim), dtype=complex)
    bad_entry = "entry ({},{}) must be an [re, im] pair of finite numbers"
    try:
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != dim:
                raise SchemaError(f"row {i} must be a list of {dim} [re, im] pairs")
            for j, pair in enumerate(row):
                if (  # type(), as JSON true/false load as bool, a subclass of int
                    not isinstance(pair, list)
                    or len(pair) != 2
                    or not all(type(v) in (int, float) and math.isfinite(v) for v in pair)
                ):
                    raise SchemaError(bad_entry.format(i, j))
                out[i, j] = complex(pair[0], pair[1])
    except OverflowError:  # an integer beyond the float range
        raise SchemaError(bad_entry.format(i, j)) from None
    return out


def _decode(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def operator_json(matrix: np.ndarray) -> str:
    return json.dumps(operator_to_document(matrix), indent=2) + "\n"


def parse_operator_json(text: str) -> np.ndarray:
    return document_to_matrix(_decode(text))


def observable_to_document(obs: Observable) -> dict:
    return {
        "outcomes": list(obs.outcomes),
        "effects": [operator_to_document(e.matrix) for e in obs.effects],
    }


def observable_json(obs: Observable) -> str:
    return json.dumps(observable_to_document(obs), indent=2) + "\n"


def parse_observable_document(doc) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """Parse an observable document into (labels, matrices); validation is separate."""
    if not isinstance(doc, dict):
        raise SchemaError("observable document must be an object")
    missing = {"outcomes", "effects"} - doc.keys()
    if missing:
        raise SchemaError(f"observable document missing fields: {sorted(missing)}")
    outcomes = doc["outcomes"]
    effects = doc["effects"]
    if not isinstance(outcomes, list) or not all(isinstance(o, str) for o in outcomes):
        raise SchemaError("outcomes must be a list of strings")
    if not isinstance(effects, list) or len(effects) != len(outcomes):
        raise SchemaError("effects must be a list parallel to outcomes")
    return tuple(outcomes), [document_to_matrix(e) for e in effects]


def parse_observable_json(text: str) -> tuple[tuple[str, ...], list[np.ndarray]]:
    return parse_observable_document(_decode(text))


def distribution_json(dist: OutcomeDistribution) -> str:
    return json.dumps(dist.as_dict(), indent=2) + "\n"


def trajectory_header(dim: int) -> list[str]:
    cols = ["t"]
    for i in range(dim):
        for j in range(dim):
            cols.append(f"e_{i}{j}_re")
            cols.append(f"e_{i}{j}_im")
    cols.extend(["deviation", "derivative_norm"])
    return cols


def _csv(header: list[str], table) -> str:
    """The header line, then one line per row of a numeric table, each value in _FLOAT_FMT."""
    rows = np.asarray(table, dtype=float).reshape(-1, len(header))
    line = ",".join(["%" + _FLOAT_FMT] * len(header)) + "\n"
    return ",".join(header) + "\n" + "".join(line % tuple(row) for row in rows.tolist())


def trajectory_csv(times, matrices, deviations, derivative_norms) -> str:
    """Render evolution samples as CSV, one row per time, 17-digit floats."""
    times = np.asarray(times, dtype=float).ravel()
    if not times.size:
        raise SchemaError("trajectory needs at least one sample")
    m = np.asarray(matrices, dtype=complex)
    entries = np.stack([m.real, m.imag], axis=-1).reshape(times.size, -1)
    table = np.column_stack([times, entries, deviations, derivative_norms])
    return _csv(trajectory_header(m.shape[1]), table)


def scan_csv(result: ScanResult) -> str:
    table = [(r.trial, r.commutator_norm, r.t_star, r.min_gap) for r in result.records]
    return _csv(["trial", "commutator_norm", "t_star", "min_gap"], table)


def scan_json(cfg: ScanConfig, result: ScanResult) -> str:
    doc = {
        "config": {
            "dim": cfg.dim,
            "trials": cfg.trials,
            "t_window": list(cfg.t_window),
            "grid_points": cfg.grid_points,
            "seed": cfg.seed,
            "commutator_floor": cfg.commutator_floor,
        },
        "summary": result.summary,
        "records": [
            {
                "trial": r.trial,
                "commutator_norm": r.commutator_norm,
                "t_star": r.t_star,
                "min_gap": r.min_gap,
                "min_gap_lower": r.min_gap_lower,
                "punctured_t_star": r.punctured_t_star,
                "punctured_min_gap": r.punctured_min_gap,
                "punctured_min_gap_lower": r.punctured_min_gap_lower,
                "a": operator_to_document(r.a.matrix),
                "b": operator_to_document(r.b.matrix),
            }
            for r in result.records
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
