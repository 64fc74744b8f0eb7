"""JSON and CSV formats for operators, observables, trajectories and scans.

Operator document: {"dim": n, "entries": [[[re, im], ...], ...]} with
canonical field order dim -> entries. Observable document:
{"outcomes": [...], "effects": [operator documents]}. Trajectory CSV columns:
t, e_00_re, e_00_im, ..., deviation, derivative_norm. Scan CSV columns:
trial, commutator_norm, t_star, min_gap. All floats in CSV are written with
17 significant digits so residuals survive a round trip; writers are
deterministic byte-for-byte.

Every JSON document is written by to_json, whose text is exactly that of
json.dumps(doc, indent=2): floats through float.__repr__ (NaN and
±Infinity as json spells them), strings with json's ASCII escaping. The
stdlib writes indented JSON with its pure-Python encoder, at a Python call
per value; to_json fills each operator document, the bulk of every
document, into a layout cached per (dim, depth) instead.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain

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


_ESCAPE = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def to_json(doc) -> str:
    """json.dumps(doc, indent=2), byte for byte; dict keys must be strings."""
    out: list[str] = []
    _encode(doc, 0, out)
    return "".join(out)


def _encode(o, depth: int, out: list[str]) -> None:
    """Append the text of o at nesting depth ``depth``, dispatching as json's encoder does."""
    if isinstance(o, str):
        out.append(_ESCAPE(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        text = float.__repr__(o)
        out.append(_NON_FINITE.get(text, text))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        indent = "\n" + "  " * (depth + 1)
        for i, item in enumerate(o):
            out.append(("[" if i == 0 else ",") + indent)
            _encode(item, depth + 1, out)
        out.append("\n" + "  " * depth + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        if len(o) == 2 and next(iter(o)) == "dim" and "entries" in o:
            text = _operator_text(o["dim"], o["entries"], depth)
            if text is not None:
                out.append(text)
                return
        indent = "\n" + "  " * (depth + 1)
        for i, (key, value) in enumerate(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out.append(("{" if i == 0 else ",") + indent + _ESCAPE(key) + ": ")
            _encode(value, depth + 1, out)
        out.append("\n" + "  " * depth + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _operator_text(dim, entries, depth: int) -> str | None:
    """An operator document's text from its cached layout; None unless it has the exact shape."""
    if type(dim) is not int or type(entries) is not list or len(entries) != dim:
        return None
    if not all(type(row) is list and len(row) == dim for row in entries):
        return None
    pairs = list(chain.from_iterable(entries))
    if not all(type(pair) is list and len(pair) == 2 for pair in pairs):
        return None
    try:  # floats only: any other value takes the general route
        texts = list(map(float.__repr__, chain.from_iterable(pairs)))
    except TypeError:
        return None
    if not _NON_FINITE.keys().isdisjoint(texts):
        texts = [_NON_FINITE.get(x, x) for x in texts]
    return _operator_layout(dim, depth) % tuple(texts)


@functools.lru_cache(maxsize=64)
def _operator_layout(dim: int, depth: int) -> str:
    """The text of a dim×dim operator document at ``depth``, with %s for each number."""
    slots = {"dim": dim, "entries": [[["%s", "%s"]] * dim] * dim}
    text = json.dumps(slots, indent=2).replace('"%s"', "%s")
    return text.replace("\n", "\n" + "  " * depth)


def _decode(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def operator_json(matrix: np.ndarray) -> str:
    return to_json(operator_to_document(matrix)) + "\n"


def parse_operator_json(text: str) -> np.ndarray:
    return document_to_matrix(_decode(text))


def observable_to_document(obs: Observable) -> dict:
    return {
        "outcomes": list(obs.outcomes),
        "effects": [operator_to_document(e.matrix) for e in obs.effects],
    }


def observable_json(obs: Observable) -> str:
    return to_json(observable_to_document(obs)) + "\n"


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
    return to_json(dist.as_dict()) + "\n"


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
    return to_json(doc) + "\n"
