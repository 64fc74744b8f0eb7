import json

import numpy as np
import pytest

from effectdyn import ScanConfig, conjecture_scan, serialization, validate_effect
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


def test_parse_operator_json_rejects_bad_json():
    with pytest.raises(SchemaError):
        serialization.parse_operator_json("{nope")


def test_non_square_matrix_rejected():
    with pytest.raises(SchemaError):
        serialization.operator_to_document(np.zeros((2, 3)))


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


def test_trajectory_csv_rejects_empty():
    with pytest.raises(SchemaError):
        serialization.trajectory_csv([], [], [], [])


def test_scan_serialization_shapes():
    cfg = ScanConfig(dim=2, trials=3, seed=9, grid_points=64)
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
    assert "punctured_min_gap" in rec
    # round-trip the recorded pair
    back = serialization.document_to_matrix(rec["a"])
    assert back.shape == (2, 2)
