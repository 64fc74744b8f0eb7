"""JSON and CSV formats for operators, observables, trajectories and scans.

Operator document: {"dim": n, "entries": [[[re, im], ...], ...]} with
canonical field order dim -> entries. Observable document:
{"outcomes": [...], "effects": [operator documents]}. Trajectory CSV columns:
t, e_00_re, e_00_im, ..., deviation, derivative_norm; each matrix is
written as its Hermitian part (see trajectory_csv). Scan CSV columns:
trial, commutator_norm, t_star, min_gap. Every float in CSV is written as
'%.17g' % x, 17 significant digits, so residuals survive a round trip (the
trajectory's through fieldtext, the scan's through %); writers are
deterministic byte-for-byte.

Every JSON document is written by to_json, whose text is exactly that of
json.dumps(doc, indent=2) with each operator as its operator document:
floats as float.__repr__ writes them (NaN and ±Infinity as json spells
them), strings with json's ASCII escaping. Documents hold operators as their
matrices, the bulk of every document. to_json writes the rest as json's
encoder does and gathers the matrices, whose entries then fill a layout
cached per (dim, depth). Below KERNEL_FLOATS floats in all, float.__repr__
writes them one by one. From there up, fieldtext.repr_records writes them
all, repr's exact text from one numpy pass (with float.__repr__ itself for
the few values it leaves undecided), each number after a one-byte code for
the layout piece before it, and the codes are then replaced by the pieces.
The stdlib's pure-Python indented encoder would spend a Python call per
value.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import fieldtext, linalg
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

    Dict keys must be strings; an ndarray must be a square matrix (SchemaError
    otherwise, as in operator_to_document).
    """
    out: list[str] = []
    matrices: list[tuple[int, np.ndarray, int]] = []
    _encode(doc, 0, out, matrices)
    if matrices:
        _write_matrices(out, matrices)
    return "".join(out)


# A document whose matrices hold at least this many floats has them all
# formatted by fieldtext.repr_records, one call per _BLOCK_FIELDS of them
# (one call for every document the commands write but the largest scan
# reports). That path costs about 70 µs more than the per-float one however
# few the floats are, and then about 0.15 µs a float against about 0.7 µs
# for float.__repr__, so the two break even at about 200 to 290 floats,
# depending on the document. At 256 floats, a one-trial dim-8 scan report,
# the kernel measured 0-12 % faster (medians of paired runs), about 15 µs:
# too little to pay for building its tables in a scan process (about 0.7 MB
# of peak RSS), so one-trial scan reports (16, 64 and 256 floats) stay on
# the per-float path. In process, to_json of a dim-8 observable tseq of two
# 4-outcome observables (2048 floats) took 0.53 ms where the per-float
# writer it replaced took 1.40 ms, and no document size got slower (fastest
# of 40 interleaved calls each, 16 to 2048 floats).
KERNEL_FLOATS = 288


def _write_matrices(out: list[str], matrices: list[tuple[int, np.ndarray, int]]) -> None:
    """Fill each (slot, matrix, depth) into out[slot]: its operator document at that depth.

    Per float, each matrix's texts fill its layout (_operator_pieces). With
    the kernel, every number is written once, after the code of the layout
    piece before it; the text is then cut at the codes that start a matrix,
    and each matrix's codes are replaced by its pieces.
    """
    values = np.concatenate([m.ravel() for _, m, _ in matrices]).view(float)  # re, im, ...
    pieces = [_operator_pieces(len(m), depth) for _, m, depth in matrices]
    finite = np.isfinite(values).all()
    if values.size < KERNEL_FLOATS:
        texts = list(map(float.__repr__, values.tolist()))
        if not finite:
            texts = [_NON_FINITE.get(x, x) for x in texts]
        start = 0
        for (slot, m, _), p in zip(matrices, pieces):
            out[slot] = p.layout % tuple(texts[start : start + 2 * m.size])
            start += 2 * m.size
        return
    codes = np.concatenate([p.codes for p in pieces])
    blocks = []
    for start in range(0, values.size, _BLOCK_FIELDS):
        words = fieldtext.repr_records(values[start : start + _BLOCK_FIELDS])
        words[:, 0] |= codes[start : start + _BLOCK_FIELDS]  # the separator slot
        blocks.append(words.tobytes().translate(None, b"\0"))
    text = b"".join(blocks)
    if not finite:
        text = text.replace(b"nan", b"NaN").replace(b"inf", b"Infinity")  # -inf: -Infinity
    for (slot, _, _), p, entries in zip(matrices, pieces, text.split(_START)[1:]):
        for code, separator in p.separators:
            entries = entries.replace(code, separator)
        out[slot] = p.head + entries.decode("ascii") + p.tail


def _encode(o, depth: int, out: list[str], matrices: list) -> None:
    """Append the text of o at nesting depth ``depth``, dispatching as json's encoder does.

    A matrix with entries gets an empty slot in out, and (slot, matrix,
    depth) in matrices, for _write_matrices to fill.
    """
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
        m = _square(o)
        if m.size:
            matrices.append((len(out), m, depth))
            out.append("")
        else:  # no numbers to write
            out.append(_operator_pieces(0, depth).layout)
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        indent = "\n" + "  " * (depth + 1)
        for i, item in enumerate(o):
            out.append(("[" if i == 0 else ",") + indent)
            _encode(item, depth + 1, out, matrices)
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
            _encode(value, depth + 1, out, matrices)
        out.append("\n" + "  " * depth + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


# Codes, written before each number of a matrix, for the layout piece that
# goes there: _START before its first number, _CODES[k] before the others.
# No float's text holds one.
_START, _CODES = b"\x04", (b"\x01", b"\x02", b"\x03")


class _Pieces(NamedTuple):
    layout: str  # a matrix's operator document with %s for each number
    head: str  # the layout up to its first number
    tail: str  # and after its last
    separators: tuple[tuple[bytes, bytes], ...]  # (code, the piece between two numbers)
    codes: np.ndarray  # the code before each number, as a record's first word


@functools.lru_cache(maxsize=64)
def _operator_pieces(dim: int, depth: int) -> _Pieces:
    """The layout of a dim×dim operator document at ``depth``, and the same cut at its numbers."""
    slots = {"dim": dim, "entries": [[["%s", "%s"]] * dim] * dim}
    layout = json.dumps(slots, indent=2).replace("\n", "\n" + "  " * depth).replace('"%s"', "%s")
    head, *between = layout.split("%s")
    tail = between.pop() if between else ""  # dim 0: all head
    distinct = list(dict.fromkeys(between))  # within a pair, between pairs, between rows
    code_bytes = _START + b"".join(_CODES[distinct.index(b)] for b in between)
    codes = np.frombuffer(code_bytes, np.uint8).astype(np.uint64)
    codes.flags.writeable = False
    separators = tuple((code, b.encode("ascii")) for code, b in zip(_CODES, distinct))
    return _Pieces(layout, head, tail, separators, codes)


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


# Fields formatted per fieldtext.records or repr_records call, which bounds
# the writers' memory, and record bytes joined per translate. Each kernel
# call pays a fixed cost of about 70 numpy calls (70-120 us), so large blocks
# pay it rarely: against these sizes, 4,096-field blocks cost 4.8 % of
# evolve's rows per second and 1,024-field blocks 16 %, and one
# translate per block instead of per 64 KiB chunk 4.7 % (2-vCPU machine).
# A block's temporaries pass the malloc mmap threshold (a 9,675-field dim-8
# evolve block allocates about 1.6 MB per call); the 64 KiB chunks do not.
_BLOCK_FIELDS = 1 << 14
_TEXT_BYTES = 1 << 16


def trajectory_csv(times, matrices, deviations, derivative_norms) -> str:
    """Render evolution samples as CSV, one row per time, each field '%.17g' % x.

    Each matrix M is written as the Hermitian matrix H whose upper triangle,
    diagonal included, is that of linalg.hermitian_part(M), M/2 + M†/2 (the
    normalization every Effect gets, which no finite entry overflows), and
    whose lower triangle is the conjugate of that upper triangle. Only t,
    the upper triangle, deviation and derivative_norm are formatted, by
    fieldtext.records in blocks of at most _BLOCK_FIELDS: a strict-lower
    real part reuses the record of its upper mirror, and a strict-lower
    imaginary part is that record with its sign toggled (nan kept unsigned),
    the text of -x. The lower triangle of the Hermitian part itself would
    not match those texts: where Im M_ij equals Im M_ji, both x/2 - y/2 and
    y/2 - x/2 are +0, while the conjugate of +0 is -0.

    On a 2-vCPU machine (Python 3.11, numpy 2.4) this writer ran a 129-row
    trajectory 2.0-2.8x faster than the one-'%'-pass writer it replaced at
    dims 2, 4 and 8 (at dim 8 about 2.5 ms against 6.3 ms, fastest of 200
    interleaved calls), and the benchmark's trajectory workload went from
    32k to 61k rows/s (medians of 10 alternating 12 s pairs).
    """
    times = np.asarray(times, dtype=float).ravel()
    if not times.size:
        raise SchemaError("trajectory needs at least one sample")
    m = np.asarray(matrices, dtype=complex)
    header, rows, cols, order, flipped, heads = _hermitian_layout(m.shape[1])
    upper = linalg.hermitian_part(m)[:, rows, cols]
    entries = np.ascontiguousarray(upper).view(float)  # re, im of each entry
    table = np.column_stack([times, entries, deviations, derivative_norms])
    step = max(1, _BLOCK_FIELDS // table.shape[1])
    lines = max(1, _TEXT_BYTES // (8 * fieldtext.WORDS * len(order)))
    parts = [header]
    for start in range(0, len(table), step):
        block = table[start : start + step]
        words = fieldtext.records(block)
        nan = np.isnan(block[:, order[flipped]])  # '%' never signs nan: undo its toggle
        has_nan = nan.any()
        for k in range(0, len(block), lines):
            text = words[k : k + lines].take(order, axis=1)
            text[..., 0] ^= heads
            if has_nan:
                text[:, flipped, 0] ^= nan[k : k + lines] * fieldtext.SIGN
            parts.append(text.tobytes().translate(None, b"\0").decode("ascii"))
    parts.append("\n")
    return "".join(parts)


@functools.lru_cache(maxsize=16)
def _hermitian_layout(dim: int):
    """How trajectory_csv lays out a row of a dim×dim matrix from its upper triangle.

    Returns the header line, without its newline; the upper triangle's row
    and column indices; the formatted field (t, re and im of each upper
    entry, deviation, derivative_norm) of each column in header order; the
    columns that are strict-lower imaginary parts, written as their mirror's
    text negated; and what word 0 of each column's record is XOR-ed with:
    the separator before it ('\\n' before t, so each line ends the one
    before it, else ','), and for those columns the sign.
    """
    rows, cols = np.triu_indices(dim)
    upper = {(i, j): 1 + 2 * p for p, (i, j) in enumerate(zip(rows.tolist(), cols.tolist()))}
    width = 2 * len(upper) + 3
    order, flipped = [0], []
    for i in range(dim):
        for j in range(dim):
            f = upper[min(i, j), max(i, j)]
            if i > j:
                flipped.append(len(order) + 1)
            order += [f, f + 1]
    order += [width - 2, width - 1]
    heads = np.full(len(order), ord(","), dtype=np.uint64)
    heads[0] = ord("\n")
    heads[flipped] |= fieldtext.SIGN
    header = ",".join(trajectory_header(dim))
    return header, rows, cols, np.array(order), np.array(flipped, dtype=int), heads


def scan_csv(result: ScanResult) -> str:
    """One row per record, each field '%.17g' % x written by '%' itself.

    fieldtext's fixed cost, about 0.12 ms a call against 2 us for '%' of
    four numbers, would outweigh it on the scan's few rows.
    """
    table = [(r.trial, r.commutator_norm, r.t_star, r.min_gap) for r in result.records]
    return _csv(["trial", "commutator_norm", "t_star", "min_gap"], table)


# Keys of the retired punctured window (|t| >= 0.1), still written before
# "a" in every record, always null ("no punctured window"), so that readers of
# the older schema, bench/reference.py's check_scan among them, keep working.
# That window was retired because its minimum could never flag a candidate
# the full window misses, and at dims 3, 4 and 8 it sat on the cut's edge
# |t| = 0.1 in 170, 167 and 189 of 200 records, an artifact of the cut.
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
