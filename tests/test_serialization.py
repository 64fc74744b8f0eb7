import json
import math

import numpy as np
import pytest

from effectdyn import ScanConfig, conjecture_scan, explorer, serialization, validate_effect
from effectdyn.errors import SchemaError
from effectdyn.observables import validate_observable


def test_operator_roundtrip_byte_identical(rng):
    m = np.array([[0.5, 0.1 - 0.2j], [0.1 + 0.2j, 0.25]])
    text = serialization.operator_json(m)
    parsed = serialization.parse_operator_json(text)
    assert np.array_equal(parsed, m)
    assert serialization.operator_json(parsed) == text


def test_operator_document_field_order():
    doc = serialization.operator_to_document(np.eye(2))
    assert list(doc.keys()) == ["dim", "entries"]


def test_operator_document_matches_per_entry_reference(rng):
    # the writer's bytes are pinned to a per-entry loop, signed zeros and
    # subnormals included, for complex and real input at every dimension
    def reference(m):
        m = np.asarray(m, dtype=complex)
        entries = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        return {"dim": int(m.shape[0]), "entries": entries}

    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0 / 3.0, 1e308])
    for k in range(160):
        dim = 1 + k % 8
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for part in (m.real, m.imag):
            mask = rng.random((dim, dim)) < 0.4
            part[mask] = rng.choice(special, mask.sum())
        if k % 4 == 0:
            m = m.real
        expected = json.dumps(reference(m), indent=2)
        assert json.dumps(serialization.operator_to_document(m), indent=2) == expected


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        {"dim": 2},
        {"entries": []},
        {"dim": 0, "entries": []},
        {"dim": 2, "entries": [[[0, 0], [0, 0]]]},
        {"dim": 1, "entries": [[[0, 0, 0]]]},
        {"dim": 1, "entries": [[["x", 0]]]},
        {"dim": 1, "entries": [[0.5]]},
    ],
)
def test_document_to_matrix_rejects_malformed(doc):
    with pytest.raises(SchemaError):
        serialization.document_to_matrix(doc)


def test_document_to_matrix_matches_per_entry_reference(rng):
    # values, signed zeros included, and the first bad row or (i, j) in each
    # error message are pinned to a per-entry loop
    def reference(doc):
        dim, entries = doc["dim"], doc["entries"]
        out = np.empty((dim, dim), dtype=complex)
        for i, row in enumerate(entries):
            if not isinstance(row, list) or len(row) != dim:
                raise SchemaError(f"row {i} must be a list of {dim} [re, im] pairs")
            for j, pair in enumerate(row):
                try:
                    ok = (
                        isinstance(pair, list)
                        and len(pair) == 2
                        and all(type(v) in (int, float) and math.isfinite(v) for v in pair)
                    )
                except OverflowError:
                    ok = False
                if not ok:
                    raise SchemaError(f"entry ({i},{j}) must be an [re, im] pair of finite numbers")
                out[i, j] = complex(pair[0], pair[1])
        return out

    bad = [True, None, "1", 10**400, math.inf, math.nan, [0.0], [0.0, 0.0, 0.0], (0.0, 0.0), 0.5]
    for k in range(300):
        dim = 1 + k % 5
        values = rng.choice([0.0, -0.0, 1.5, -2.0, 5e-324, 1e308], (dim, dim, 2)).tolist()
        entries = [[[re, int(im)] if k % 7 == 0 else [re, im] for re, im in row] for row in values]
        for _ in range(k % 3):
            i, j = rng.integers(dim, size=2)
            spot = rng.integers(3)
            choice = bad[rng.integers(len(bad))]
            if spot == 2:
                entries[i][j] = choice
            elif isinstance(entries[i][j], list):
                entries[i][j][spot] = choice
        if k % 11 == 0:
            entries[rng.integers(dim)] = entries[0][:-1]
        doc = {"dim": dim, "entries": entries}
        try:
            expected = reference(doc)
        except SchemaError as exc:
            with pytest.raises(SchemaError) as got:
                serialization.document_to_matrix(doc)
            assert str(got.value) == str(exc)
        else:
            m = serialization.document_to_matrix(doc)
            assert m.dtype == complex and m.shape == (dim, dim)
            assert m.tobytes() == expected.tobytes()


def test_parse_operator_json_rejects_bad_json():
    with pytest.raises(SchemaError):
        serialization.parse_operator_json("{nope")


def test_non_square_matrix_rejected():
    with pytest.raises(SchemaError):
        serialization.operator_to_document(np.zeros((2, 3)))


@pytest.mark.parametrize("shape", [(2, 3), (2, 2, 2), (4,), (), (0, 1)])
def test_writer_rejects_an_array_that_is_not_a_square_matrix(shape):
    # the writer raises what operator_to_document raises for the same array,
    # wherever the array sits in the document
    array = np.zeros(shape)
    with pytest.raises(SchemaError) as expected:
        serialization.operator_to_document(array)
    for doc in (array, {"effects": [np.eye(2), array]}, [array, np.eye(9)]):
        with pytest.raises(SchemaError) as raised:
            serialization.to_json(doc)
        assert str(raised.value) == str(expected.value)


def test_writer_rejects_what_json_dumps_cannot_write():
    with pytest.raises(TypeError, match="^keys must be str, not int$"):
        serialization.to_json({"effects": {1: 2}})
    with pytest.raises(TypeError, match="^Object of type object is not JSON serializable$"):
        serialization.to_json([1.5, object()])


def test_observable_roundtrip():
    obs = validate_observable(
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], ["up", "down"]
    )
    text = serialization.observable_json(obs)
    outcomes, matrices = serialization.parse_observable_json(text)
    assert outcomes == ("up", "down")
    rebuilt = validate_observable([validate_effect(m) for m in matrices], outcomes)
    assert serialization.observable_json(rebuilt) == text


def test_parse_observable_rejects_mismatched_lengths():
    doc = {"outcomes": ["a"], "effects": []}
    with pytest.raises(SchemaError):
        serialization.parse_observable_document(doc)
    with pytest.raises(SchemaError):
        serialization.parse_observable_document({"outcomes": [1], "effects": []})


def test_trajectory_csv_header_and_precision():
    times = [0.0, 1.0 / 3.0]
    mats = [np.eye(2, dtype=complex), np.full((2, 2), 1.0 / 7.0, dtype=complex)]
    text = serialization.trajectory_csv(times, mats, [0.0, 0.125], [0.25, 0.25])
    lines = text.strip().split("\n")
    assert lines[0] == "t,e_00_re,e_00_im,e_01_re,e_01_im,e_10_re,e_10_im,e_11_re,e_11_im,deviation,derivative_norm"
    assert len(lines) == 3
    # 17 significant digits survive the round trip exactly
    second = lines[2].split(",")
    assert float(second[0]) == 1.0 / 3.0
    assert float(second[1]) == 1.0 / 7.0


def test_trajectory_csv_writes_the_hermitian_part_of_each_matrix(rng):
    # the bytes are pinned to the generic writer's %.17g of H: upper triangle
    # that of (M + M†)/2, lower triangle its conjugate, signed zeros,
    # subnormals, overflow and non-finite values included
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan])

    def sprinkle(x):
        mask = rng.random(x.shape) < 0.3
        x[mask] = rng.choice(special, mask.sum())
        return x

    for k in range(96):
        dim, n = 1 + k % 8, 1 + k % 5
        m = sprinkle(rng.standard_normal((n, dim, dim))).astype(complex)
        m.imag = sprinkle(rng.standard_normal((n, dim, dim)))
        times, deviations, norms = (sprinkle(rng.standard_normal(n)) for _ in range(3))
        with np.errstate(invalid="ignore", over="ignore"):
            h = (m + m.conj().swapaxes(-1, -2)) / 2.0
            text = serialization.trajectory_csv(times, m, deviations, norms)
        lower = np.tril_indices(dim, -1)
        h[:, lower[0], lower[1]] = h[:, lower[1], lower[0]].conj()
        entries = np.stack([h.real, h.imag], axis=-1).reshape(n, -1)
        table = np.column_stack([times, entries, deviations, norms])
        assert text == serialization._csv(serialization.trajectory_header(dim), table)


def test_trajectory_csv_rows_spanning_several_blocks(rng):
    # 600 dim-8 rows hold 45,000 formatted fields: three fieldtext blocks of
    # at most _BLOCK_FIELDS, each joined in several pieces of _TEXT_BYTES;
    # the bytes are the generic writer's, nan in a late mirrored entry included
    n, dim = 600, 8
    assert n * (dim * (dim + 1) + 3) > 2 * serialization._BLOCK_FIELDS
    m = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    m[-1, 0, 1] = complex(0.5, np.nan)
    times, deviations, norms = (rng.standard_normal(n) for _ in range(3))
    with np.errstate(invalid="ignore"):
        text = serialization.trajectory_csv(times, m, deviations, norms)
        h = (m + m.conj().swapaxes(-1, -2)) / 2.0
    lower = np.tril_indices(dim, -1)
    h[:, lower[0], lower[1]] = h[:, lower[1], lower[0]].conj()
    entries = np.stack([h.real, h.imag], axis=-1).reshape(n, -1)
    table = np.column_stack([times, entries, deviations, norms])
    assert text == serialization._csv(serialization.trajectory_header(dim), table)
    assert ",nan," in text.splitlines()[-1]


def test_trajectory_csv_rejects_empty():
    with pytest.raises(SchemaError):
        serialization.trajectory_csv([], [], [], [])


def test_scan_serialization_shapes():
    cfg = ScanConfig(dim=2, trials=3, seed=9)
    result = conjecture_scan(cfg)
    csv_text = serialization.scan_csv(result)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "trial,commutator_norm,t_star,min_gap"
    assert len(lines) == 4

    doc = json.loads(serialization.scan_json(cfg, result))
    assert set(doc.keys()) == {"config", "summary", "records"}
    assert doc["config"]["seed"] == 9
    assert len(doc["records"]) == 3
    rec = doc["records"][0]
    assert rec["a"]["dim"] == 2
    # round-trip the recorded pair
    back = serialization.document_to_matrix(rec["a"])
    assert back.shape == (2, 2)


def test_scan_json_key_order(monkeypatch):
    # a threshold above every gap makes each trial a candidate
    monkeypatch.setattr(explorer, "CANDIDATE_THRESHOLD", 1.0)
    cfg = ScanConfig(dim=2, trials=3, seed=9)
    doc = json.loads(serialization.scan_json(cfg, conjecture_scan(cfg)))
    assert list(doc) == ["config", "summary", "records"]
    assert list(doc["config"]) == ["dim", "trials", "t_window", "seed", "commutator_floor"]
    # each setting is written once, in config, and each result once, in its
    # record: the summary holds only counts, the histogram and candidate flags
    assert list(doc["summary"]) == [
        "recorded", "skipped", "certified_positive", "histogram", "candidates",
    ]
    assert [list(c) for c in doc["summary"]["candidates"]] == [["trial", "label"]] * 3
    assert [list(rec) for rec in doc["records"]] == [
        [
            "trial", "commutator_norm", "t_star", "min_gap", "min_gap_lower",
            "punctured_t_star", "punctured_min_gap", "punctured_min_gap_lower", "a", "b",
        ]
    ] * 3


def test_scan_json_writes_null_punctured_keys():
    # the search has one window; the retired punctured window's keys stay in
    # each record, all null, on the default window and on one inside |t| < 0.1
    keys = ("punctured_t_star", "punctured_min_gap", "punctured_min_gap_lower")
    for window in ((-4.0 * math.pi, 4.0 * math.pi), (-0.05, 0.05)):
        cfg = ScanConfig(dim=2, trials=3, seed=17, t_window=window)
        records = json.loads(serialization.scan_json(cfg, conjecture_scan(cfg)))["records"]
        assert len(records) == 3
        assert all(rec[k] is None for rec in records for k in keys)


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]
LABELS = ['say "yes"', "back\\slash", "tab\tnew\nline\x00\x1f", "x⊗y", "\U0001d11e clef", "", "plain"]


def _scalar(rng):
    pick = rng.integers(8)
    if pick == 0:
        return float(rng.choice(SPECIAL_FLOATS))
    if pick == 1:
        return np.float64(rng.choice([*SPECIAL_FLOATS, rng.standard_normal()]))
    if pick == 2:
        return int(rng.integers(-10**18, 10**18))
    if pick == 3:
        return bool(rng.integers(2))
    if pick == 4:
        return None
    if pick == 5:
        return str(rng.choice(LABELS))
    return [[], {}][pick - 6]


def _spiced_operator(rng, dim):
    """An operator document with special values, np.float64 and other scalars mixed into its entries."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    doc = serialization.operator_to_document(m)
    for row in doc["entries"]:
        for pair in row:
            for k in range(2):
                roll = rng.random()
                if roll < 0.15:
                    pair[k] = float(rng.choice(SPECIAL_FLOATS))
                elif roll < 0.25:
                    pair[k] = np.float64(pair[k])
                elif roll < 0.27:
                    pair[k] = _scalar(rng)
    return doc


def _random_document(rng, depth=0):
    kind = rng.integers(4 if depth < 3 else 1)
    if kind == 0:
        return _scalar(rng)
    if kind == 1:
        return [_random_document(rng, depth + 1) for _ in range(rng.integers(4))]
    if kind == 2:
        return {
            f"{rng.choice(LABELS)}{i}": _random_document(rng, depth + 1)
            for i in range(rng.integers(4))
        }
    return _spiced_operator(rng, int(rng.integers(4)))


def test_writer_matches_json_dumps_on_random_documents(rng):
    for _ in range(400):
        doc = _random_document(rng)
        assert serialization.to_json(doc) == json.dumps(doc, indent=2)
    for dim in range(1, 9):
        doc = {"observable": {"outcomes": LABELS, "effects": [_spiced_operator(rng, dim)] * 2}}
        assert serialization.to_json(doc) == json.dumps(doc, indent=2)


def _plain(doc):
    """doc with every matrix in it replaced by its operator document."""
    if isinstance(doc, np.ndarray):
        return serialization.operator_to_document(doc)
    if isinstance(doc, dict):
        return {k: _plain(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_plain(v) for v in doc]
    return doc


def _special_matrix(rng, dim):
    """A complex matrix with signed zeros, subnormals, huge values, nan and ±inf in both parts."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    for part in (m.real, m.imag):
        mask = rng.random((dim, dim)) < 0.4
        part[mask] = rng.choice(SPECIAL_FLOATS, mask.sum())
    return m


def test_writer_pins_matrices_to_their_operator_documents(rng):
    # a matrix anywhere in a document is written as json.dumps writes its
    # operator document there, non-finite entries as NaN and ±Infinity
    for k in range(64):
        dim = 1 + k % 8
        m = _special_matrix(rng, dim)
        dist = {label: float(rng.choice(SPECIAL_FLOATS)) for label in LABELS[:3]}
        for doc in (
            m,
            [m, 0.5, m],
            [np.zeros((0, 0)), m, {"empty": np.zeros((0, 0))}],
            {"a": m, "b": None},
            {"observable": {"outcomes": LABELS[:2], "effects": [m, m]}, "distribution": dist},
        ):
            assert serialization.to_json(doc) == json.dumps(_plain(doc), indent=2)
        assert serialization.operator_json(m) == json.dumps(_plain(m), indent=2) + "\n"


def test_writer_matches_json_dumps_on_every_output(rng, monkeypatch, tmp_path, capsys):
    # every JSON output of the package, captured as the document handed to the
    # writer, must come out exactly as json.dumps(doc, indent=2) would write it
    # with each matrix in it as its operator document
    from effectdyn import cli, distribution
    from support import random_observable, random_state

    obs_a = validate_observable([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], ['"p"', "q⊗"])
    b = np.full((2, 2), 0.5)
    obs_b = validate_observable([b, np.eye(2) - b], ["\\u⊗", "v\n\U0001d11e"])
    files = {
        "a": serialization.observable_json(obs_a),
        "b": serialization.observable_json(obs_b),
        "rho": serialization.operator_json(np.eye(2) / 2),
    }
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")

    documents = []
    writer = serialization.to_json
    monkeypatch.setattr(serialization, "to_json", lambda doc: documents.append(doc) or writer(doc))
    texts = []
    for dim in (1, 2, 5, 8):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m.real[rng.random((dim, dim)) < 0.3] = -0.0
        m.imag[0, 0] = 5e-324
        texts.append(serialization.operator_json(m))
        obs = random_observable(dim, 3, rng)
        obs = validate_observable([e.matrix for e in obs.effects], LABELS[2:5])
        texts.append(serialization.observable_json(obs))
        texts.append(serialization.distribution_json(distribution(obs, random_state(dim, rng))))
    cfg = ScanConfig(dim=2, trials=3, seed=4)
    texts.append(serialization.scan_json(cfg, conjecture_scan(cfg)))
    argv = ["observable", "tcond", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    assert cli.main([*argv, "--t", "0.7", "--state", str(tmp_path / "rho.json")]) == 0
    texts.append(capsys.readouterr().out)
    for doc, text in zip(documents, texts, strict=True):
        assert text == json.dumps(_plain(doc), indent=2) + "\n"


@pytest.mark.parametrize("offset", [-2, 0, 2])
def test_writer_matches_json_dumps_around_the_kernel_crossover(rng, monkeypatch, offset):
    # documents whose matrices hold just below, at and just above KERNEL_FLOATS
    # floats, formatted per float and by fieldtext.repr_records respectively,
    # with special values, matrices of several sizes and at several depths
    calls = []
    records = serialization.fieldtext.repr_records
    monkeypatch.setattr(
        serialization.fieldtext, "repr_records", lambda v: calls.append(v.size) or records(v)
    )
    floats = serialization.KERNEL_FLOATS + offset
    for _ in range(8):
        dims = [3, 2, 1]  # 18 + 8 + 2 floats, then 2 per 1×1 matrix
        dims += [1] * ((floats - 28) // 2)
        matrices = [_special_matrix(rng, dim) for dim in dims]
        nested = {"first": matrices[0], "rest": [{"m": m, "x": float(rng.random())} for m in matrices[1:]]}
        for doc in (matrices, nested):
            calls.clear()
            assert serialization.to_json(doc) == json.dumps(_plain(doc), indent=2)
            assert calls == ([floats] if offset >= 0 else [])


def test_writer_in_several_kernel_blocks_matches_json_dumps(rng, monkeypatch):
    # blocks that cut matrices, and entries, anywhere: the text is that of one block
    monkeypatch.setattr(serialization, "_BLOCK_FIELDS", 37)
    for _ in range(8):
        matrices = [_special_matrix(rng, dim) for dim in rng.integers(1, 9, 12)]
        doc = {"effects": matrices, "more": [{"m": m} for m in matrices[:3]]}
        assert 2 * sum(m.size for m in matrices) >= serialization.KERNEL_FLOATS
        assert serialization.to_json(doc) == json.dumps(_plain(doc), indent=2)
