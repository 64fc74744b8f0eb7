"""JSON and CSV formats for operators, observables, trajectories and scans.

Operator document: {"dim": n, "entries": [[[re, im], ...], ...]} with
canonical field order dim -> entries. Observable document:
{"outcomes": [...], "effects": [operator documents]}. Trajectory CSV columns:
t, e_00_re, e_00_im, ..., deviation, derivative_norm; each matrix is
written as its Hermitian part (see trajectory_csv). Scan CSV columns:
trial, commutator_norm, t_star, min_gap. All floats in CSV are written with
17 significant digits so residuals survive a round trip; writers are
deterministic byte-for-byte.

Every JSON document is written by to_json, whose text is exactly that of
json.dumps(doc, indent=2) with each operator as its operator document:
floats through float.__repr__ (NaN and ±Infinity as json spells them),
strings with json's ASCII escaping. Documents hold operators as their
matrices, and to_json writes each matrix, the bulk of every document, by
filling a layout cached per (dim, depth) with its entries; the stdlib's
pure-Python indented encoder would spend a Python call per value.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import operator
from itertools import chain

import numpy as np

from .effects import Effect
from .errors import SchemaError
from .explorer import ScanConfig, ScanResult
from .observables import Observable, OutcomeDistribution

_FLOAT_FMT = ".17g"


def operator_to_document(matrix: np.ndarray) -> dict:
    """The plain-JSON form of a matrix, the one to_json writes for it (and parses back)."""
    m = _square(matrix)
    return {"dim": int(m.shape[0]), "entries": _interleaved(m).tolist()}


def _square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SchemaError(f"operator must be square, got shape {m.shape}")
    return m


def _interleaved(m: np.ndarray) -> np.ndarray:
    """[re, im] of every entry of a complex matrix, along a new last axis."""
    return np.stack([m.real, m.imag], axis=-1)


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
    values = _entry_values(entries, dim)
    if values is None:
        raise _malformed_entries(entries, dim)
    return values.view(complex).reshape(dim, dim)


def _entry_values(entries: list, dim: int) -> np.ndarray | None:
    """Every re and im of dim rows of dim [re, im] pairs as one float array; None if malformed."""
    if not all(isinstance(row, list) and len(row) == dim for row in entries):
        return None
    pairs = list(chain.from_iterable(entries))
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
        return None
    flat = list(chain.from_iterable(pairs))
    if not set(map(type, flat)) <= {int, float}:  # type(): JSON true/false load as bool
        return None
    try:
        values = np.array(flat, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    return values if np.isfinite(values).all() else None


_BAD_ENTRY = "entry ({},{}) must be an [re, im] pair of finite numbers"


def _malformed_entries(entries: list, dim: int) -> SchemaError:
    """The error for the first malformed row or entry, in row-major order."""
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != dim:
            return SchemaError(f"row {i} must be a list of {dim} [re, im] pairs")
        for j, pair in enumerate(row):
            if _entry_values([[pair]], 1) is None:
                return SchemaError(_BAD_ENTRY.format(i, j))
    raise AssertionError("entries are well formed")


_ESCAPE = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def to_json(doc) -> str:
    """json.dumps(doc, indent=2), byte for byte, each complex ndarray as its operator document.

    Dict keys must be strings; an ndarray must be a square complex matrix.
    """
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
    elif isinstance(o, np.ndarray):
        texts = list(map(float.__repr__, _interleaved(o).ravel().tolist()))
        if not _NON_FINITE.keys().isdisjoint(texts):
            texts = [_NON_FINITE.get(x, x) for x in texts]
        out.append(_operator_layout(len(o), depth) % tuple(texts))
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
        indent = "\n" + "  " * (depth + 1)
        for i, (key, value) in enumerate(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out.append(("{" if i == 0 else ",") + indent + _ESCAPE(key) + ": ")
            _encode(value, depth + 1, out)
        out.append("\n" + "  " * depth + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


@functools.lru_cache(maxsize=64)
def _operator_layout(dim: int, depth: int) -> str:
    """The text of a dim×dim operator document at ``depth``, with %s for each number."""
    slots = {"dim": dim, "entries": [[["%s", "%s"]] * dim] * dim}
    text = json.dumps(slots, indent=2).replace('"%s"', "%s")
    return text.replace("\n", "\n" + "  " * depth)


def _decode(text: str):
    try:
        return json.loads(text)
    # ValueError: malformed JSON (JSONDecodeError) or an integer literal beyond
    # int's digit limit; RecursionError: nested too deeply
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc


def operator_json(matrix: np.ndarray) -> str:
    return to_json(_square(matrix)) + "\n"


def parse_operator_json(text: str) -> np.ndarray:
    return document_to_matrix(_decode(text))


def observable_to_document(obs: Observable) -> dict:
    return {
        "outcomes": list(obs.outcomes),
        "effects": [e.matrix for e in obs.effects],
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
    """Render evolution samples as CSV, one row per time, 17-digit floats.

    Each matrix M is written as the Hermitian matrix H whose upper triangle,
    diagonal included, is that of (M + M†)/2 (the normalization every
    Effect gets) and whose lower triangle is the conjugate of that upper
    triangle. Only t, the upper triangle, deviation and derivative_norm are
    formatted, in one % pass: a strict-lower real part reuses the text of
    its upper mirror, and a strict-lower imaginary part is that text with
    its sign flipped (a leading '-' toggled, 'nan' kept). The lower triangle
    of (M + M†)/2 itself would not match those texts: where Im M_ij equals
    Im M_ji, both (x - y)/2 and (y - x)/2 are +0, while the conjugate of +0
    is -0.
    """
    times = np.asarray(times, dtype=float).ravel()
    if not times.size:
        raise SchemaError("trajectory needs at least one sample")
    m = np.asarray(matrices, dtype=complex)
    rows, cols, width, flipped, order = _hermitian_layout(m.shape[1])
    upper = (m[:, rows, cols] + m[:, cols, rows].conj()) / 2.0
    entries = np.stack([upper.real, upper.imag], axis=-1).reshape(times.size, -1)
    table = np.column_stack([times, entries, deviations, derivative_norms])
    texts = (",".join(["%" + _FLOAT_FMT] * table.size) % tuple(table.ravel().tolist())).split(",")
    lines = []
    for k in range(0, len(texts), width):
        row = texts[k : k + width]
        upper_imag = map(row.__getitem__, flipped)
        row += [x[1:] if x[0] == "-" else x if x == "nan" else "-" + x for x in upper_imag]
        lines.append(",".join(order(row)))
    return ",".join(trajectory_header(m.shape[1])) + "\n" + "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=16)
def _hermitian_layout(dim: int):
    """How trajectory_csv lays out a row of a dim×dim matrix from its upper triangle.

    Returns the upper triangle's row and column indices, the number of
    formatted fields per row (t, re and im of each upper entry, deviation,
    derivative_norm), the fields of the strict-upper imaginary parts, whose
    flipped texts follow the formatted ones in a row's list, and a getter
    that picks a full row, in header order, from that list.
    """
    rows, cols = np.triu_indices(dim)
    upper = {(i, j): 1 + 2 * p for p, (i, j) in enumerate(zip(rows.tolist(), cols.tolist()))}
    width = 2 * len(upper) + 3
    flipped = [f + 1 for (i, j), f in upper.items() if i != j]
    after = {f: width + q for q, f in enumerate(flipped)}
    order = [0]
    for i in range(dim):
        for j in range(dim):
            f = upper[min(i, j), max(i, j)]
            order += [f, f + 1 if i <= j else after[f + 1]]
    order += [width - 2, width - 1]
    return rows, cols, width, flipped, operator.itemgetter(*order)


def scan_csv(result: ScanResult) -> str:
    table = [(r.trial, r.commutator_norm, r.t_star, r.min_gap) for r in result.records]
    return _csv(["trial", "commutator_norm", "t_star", "min_gap"], table)


# Keys of the retired punctured window (|t| >= 0.1), still written before
# "a" in every record, always null ("no punctured window"), so that readers of
# the older schema, bench/reference.py's check_scan among them, keep working.
_NULL_PUNCTURED = dict.fromkeys(("punctured_t_star", "punctured_min_gap", "punctured_min_gap_lower"))


def scan_json(cfg: ScanConfig, result: ScanResult) -> str:
    """The config, the summary and the records; config and record keys in dataclass field order.

    Each record also holds the _NULL_PUNCTURED keys, all null, before its pair.
    """
    records = []
    for r in result.records:
        doc = _fields_document(r)
        pair = {"a": doc.pop("a"), "b": doc.pop("b")}
        records.append({**doc, **_NULL_PUNCTURED, **pair})
    doc = {"config": _fields_document(cfg), "summary": result.summary, "records": records}
    return to_json(doc) + "\n"


def _fields_document(obj) -> dict:
    """A dataclass as a to_json document: keys in field order, each Effect as its matrix."""
    doc = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return {k: v.matrix if isinstance(v, Effect) else v for k, v in doc.items()}
