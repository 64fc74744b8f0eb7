"""Self-tests of the benchmark: python3 -m pytest -q bench

They run the real library from src/ on small generated inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

CLI = run.load_cli()

# Metric names exactly as the benchmark's defining issue lists them.
ISSUE_END_TO_END = ("setup_s", "throughput_per_s", "op_p50_ms", "op_tail_ms", "failed_frac", "peak_rss_mb")
ISSUE_FUNCTIONS = {
    "cli": ["main"],
    "serialization": [
        "parse_operator_json", "parse_observable_json", "observable_to_document",
        "distribution_json", "trajectory_csv", "scan_json", "scan_csv",
    ],
    "explorer": [
        "conjecture_scan", "minimize_gap", "symmetry_gap_profile", "symmetry_gap",
        "random_effect", "commutator_norm",
    ],
    "observables": [
        "validate_observable", "distribution", "obs_time_seq_product",
        "time_conditional_observable", "conditioned_observable",
    ],
    "evolution": [
        "effect_evolution", "evolution_derivative", "time_seq_product",
        "seq_product_derivative", "constancy_classifier", "classify_scaled_projection",
    ],
    "effects": ["validate_effect", "validate_state", "sequential_product", "commutes"],
    "linalg": [
        "eigh", "require_hermitian", "operator_norm", "spectral_norm",
        "unitary_from_decomposition", "commutator",
    ],
    "numpy": ["eigh", "eigvalsh", "norm2"],
}
ISSUE_EXTRA = (
    "serialization.trajectory_csv.bytes", "serialization.scan_json.bytes", "numpy.eigvalsh.matrices",
    "explorer.gap_evals_per_trial", "explorer.profile_calls_per_trial", "explorer.draws_per_trial",
    "evolution.evolutions_per_row", "numpy.eigensolves_per_op", "effects.validations_per_op",
    "trace.overhead_frac",
)


def issue_layer_metrics() -> list[str]:
    names = [f"{layer}.{fn}.{stat}" for layer, fns in ISSUE_FUNCTIONS.items()
             for fn in fns for stat in ("calls", "self_ms")]
    return names + [f"{layer}.errors" for layer in ISSUE_FUNCTIONS] + list(ISSUE_EXTRA)


def _shift_first_number(text: str, after: str) -> str:
    """Add 1e-6 to the first number that follows ``after`` in ``text``."""
    head, sep, tail = text.partition(after)
    assert sep, f"{after!r} not in output"
    end = 0
    while end < len(tail) and tail[end] in "0123456789.-+eE":
        end += 1
    return head + sep + repr(float(tail[:end]) + 1e-6) + tail[end:]


def _perturb(kind: str, result: dict) -> dict:
    """The op's result with one output number moved by 1e-6."""
    out = dict(result)
    if kind == "scan":
        doc = json.loads(out["json"])
        doc["records"][0]["min_gap"] += 1e-6
        out["json"] = json.dumps(doc)
    elif kind.startswith("evolve"):
        rows = list(csv.reader(io.StringIO(out["stdout"])))
        rows[1][1] = repr(float(rows[1][1]) + 1e-6)
        out["stdout"] = "".join(",".join(r) + "\n" for r in rows)
    elif kind.startswith("classify"):
        out["stdout"] = _shift_first_number(out["stdout"], "residual: ")
    elif kind == "validate-observable":
        out["stdout"] = _shift_first_number(out["stdout"], "sum_residual: ")
    else:
        doc = json.loads(out["stdout"])
        if kind == "observable-dist":
            doc["o0"] += 1e-6
        else:
            effects = doc["observable"]["effects"] if kind == "observable-tcond" else doc["effects"]
            effects[0]["entries"][0][0][0] += 1e-6
        out["stdout"] = json.dumps(doc, indent=2) + "\n"
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_checker_passes_real_outputs_and_flags_1e6_perturbations(workload, tmp_path):
    manifest = workloads.generate(workload, 7, 0.1, tmp_path)
    cycle = workloads.WORKLOADS[workload].cycle
    seen = set()
    for request in manifest["requests"][:cycle]:
        if request["kind"] in seen:
            continue
        seen.add(request["kind"])
        with open(tmp_path / workloads.INPUTS, "rb") as inputs:
            result = run.run_request(CLI, request, tmp_path, inputs)
        if request["kind"] == "classify-near-degenerate":
            # Raises ClassifierInconsistencyError at the first benchmarked commit.
            if result["code"] != 0:
                assert run.check(request, tmp_path, result)[0].startswith("exit 2")
                continue
        assert run.check(request, tmp_path, result) == [], request["kind"]
        assert run.check(request, tmp_path, _perturb(request["kind"], result)), request["kind"]
    assert seen == set(manifest["kinds"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_byte_deterministic(workload, tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    workloads.generate(workload, 3, 0.5, first)
    workloads.generate(workload, 3, 0.5, second)
    workloads.generate(workload, 4, 0.5, other)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    assert (first / "manifest.json").read_bytes() != (other / "manifest.json").read_bytes()


def test_op_tail_leaves_ten_samples_beyond():
    for n in range(2 * run.MIN_TAIL_SAMPLES, 20000, 7):
        p = run.tail_percentile(n)
        values = list(range(n))
        beyond = sum(1 for v in values if v > run.percentile(values, p))
        assert beyond >= run.MIN_TAIL_SAMPLES, (n, p)
        higher = [q for q in run.TAIL_LADDER if q > p]
        if higher:
            assert n - math.ceil(n * higher[0] / 100.0) < run.MIN_TAIL_SAMPLES, (n, p)


def test_checker_is_independent_of_the_library():
    source = (run.HERE / "reference.py").read_text(encoding="utf-8")
    assert "effectdyn" not in source.split('"""', 2)[2]


def test_tracer_wraps_every_import_site_and_restores_them():
    from effectdyn import evolution, explorer, observables

    original = evolution.time_seq_product
    t = tracer.Tracer()
    with t.installed():
        assert explorer.time_seq_product is not original
        assert observables.time_seq_product is explorer.time_seq_product
        assert evolution.time_seq_product is explorer.time_seq_product
    for module in (evolution, explorer, observables):
        assert module.time_seq_product is original
    assert t.missing == []


def _last_json_line(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_every_metric_is_declared_and_reported():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    assert set(ISSUE_END_TO_END) <= set(end_to_end) | set(layer)
    assert set(issue_layer_metrics()) <= set(layer)
    assert layer == tracer.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    result, stdout = _last_json_line("calculus", 0)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert list(result["metrics"]) == end_to_end
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(result["metrics"][n]["unit"] == units[n] for n in end_to_end)
    for name in ISSUE_END_TO_END:
        assert f"{name} " in stdout
    assert result["correct"]

    result, _ = _last_json_line("calculus", 1)
    assert list(result["metrics"]) == layer
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(result["metrics"][n]["unit"] == units[n] for n in layer)


def test_scan_trace_counts_whole_calls_per_trial():
    result, _ = _last_json_line("scan", 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.main.calls"] == workloads.WORKLOADS["scan"].trace_ops
    for name in ("explorer.profile_calls_per_trial", "explorer.gap_evals_per_trial"):
        assert metrics[name] >= 1 and metrics[name] == int(metrics[name]), name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
