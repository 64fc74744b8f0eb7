"""Seeded inputs for the effectdyn benchmark workloads.

Everything the library receives is generated here from the workload seed
with plain numpy and written as JSON during set-up; the library itself is
never called. The same (workload, seed, seconds) always writes the same
bytes. Set-up writes two files: ``inputs.jsonl``, one operator or observable
document per line, and ``manifest.json``, which lists every request with
its argv, the lines it reads, its work units and what the checker expects,
together with the reason each workload and request kind exists. Before each
op, ``prepare`` copies that request's documents into the files its argv
names, outside the timed region: thousands of small files would make
set-up time mostly a measure of the disk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIMS = (2, 4, 8)

SCAN_TRIALS = 1
TRAJECTORY_STEPS = 128
NEAR_DEGENERATE_TOL = "1e-6"
NEAR_DEGENERATE_SPLIT = 1e-6
INPUTS = "inputs.jsonl"


@dataclass(frozen=True)
class Workload:
    why: str
    unit: str
    # Requests per cycle: one of each (kind, dim, ...) combination, so a run
    # that ends on a cycle boundary always has the same mix.
    cycle: int
    # Requests generated per second of run, above the rate this workload
    # completes at the first benchmarked commit (about 19, 27 and 310). The
    # timed loop stops early if it uses them all up, so no input is sent twice.
    rate_cap: int
    # Requests replayed under tracing (whole cycles).
    trace_ops: int


WORKLOADS = {
    "scan": Workload(
        why="effectdyn scan: repeated gap evaluations on one (a, b) per trial, "
        "so per-pair reuse in explorer/evolution shows here",
        unit="trials",
        cycle=3,
        rate_cap=40,
        trace_ops=12,
    ),
    "trajectory": Workload(
        why="effectdyn evolve: dense per-time rows from the same evolution kernel, "
        "plus 17-digit CSV formatting",
        unit="rows",
        cycle=6,
        rate_cap=40,
        trace_ops=12,
    ),
    "calculus": Workload(
        why="classify, observable and validate requests on fresh inputs each time, "
        "so parsing, validation and eigensolves dominate and no kernel is reused",
        unit="requests",
        cycle=81,
        rate_cap=420,
        trace_ops=81,
    ),
}

KIND_WHY = {
    "scan": "one scan op; throughput counts its trials",
    "evolve-evolution": "b(t|a) rows: effect_evolution and evolution_derivative per row",
    "evolve-seqprod": "a[t]b rows: time_seq_product and seq_product_derivative per row",
    "classify-generic": "noncommuting pair, expected Neither",
    "classify-commuting": "shared eigenbasis, expected Commuting",
    "classify-scaled-projection": "a = lambda*p, expected ScaledProjection",
    "classify-near-degenerate": "--tol 1e-6 on spectrum {0, .5, .5+1e-6} (a = .5p within "
    "tol), expected ScaledProjection; fails at the first benchmarked commit and stays in the mix",
    "observable-tseq": "A[t]B over 2-4 outcome observables",
    "observable-tcond": "(B|A)(t|A) plus its distribution in a state",
    "observable-cond": "(B|A)",
    "observable-dist": "distribution of an observable in a state",
    "validate-observable": "validate --kind observable",
}

CALCULUS_KINDS = (
    "classify-generic",
    "classify-commuting",
    "classify-scaled-projection",
    "classify-near-degenerate",
    "observable-tseq",
    "observable-tcond",
    "observable-cond",
    "observable-dist",
    "validate-observable",
)

# Independent streams of the workload seed.
_STREAM_TIMED = 0
_STREAM_WARMUP = 1


def pool_size(workload: str, seconds: float) -> int:
    """Timed requests to generate: whole cycles, at least 20 requests."""
    w = WORKLOADS[workload]
    wanted = max(20, w.trace_ops, math.ceil(w.rate_cap * seconds))
    return w.cycle * math.ceil(wanted / w.cycle)


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian(u: np.ndarray, spectrum) -> np.ndarray:
    m = (u * np.asarray(spectrum, dtype=float)) @ u.conj().T
    return (m + m.conj().T) / 2.0


def _effect(rng: np.random.Generator, d: int) -> np.ndarray:
    return _hermitian(_unitary(rng, d), rng.uniform(0.05, 0.95, d))


def _observable(rng: np.random.Generator, d: int, n: int) -> list[np.ndarray]:
    """n positive operators S^{-1/2} G_x S^{-1/2} with S = sum G_x, so they sum to I."""
    grams = []
    for _ in range(n):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        grams.append(x @ x.conj().T)
    w, v = np.linalg.eigh(sum(grams))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    members = [inv_sqrt @ g @ inv_sqrt for g in grams]
    return [(m + m.conj().T) / 2.0 for m in members]


def _state(rng: np.random.Generator, d: int) -> np.ndarray:
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = x @ x.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def operator_document(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "entries": np.stack([m.real, m.imag], -1).tolist()}


def matrix_from_document(doc: dict) -> np.ndarray:
    pairs = np.asarray(doc["entries"], dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


class _Bundle:
    """Appends input documents to the JSON-lines file; returns each one's byte range."""

    def __init__(self, f):
        self.f = f
        self.offset = 0

    def _put(self, doc: dict) -> list[int]:
        line = (json.dumps(doc) + "\n").encode("utf-8")
        self.f.write(line)
        span = [self.offset, len(line)]
        self.offset += len(line)
        return span

    def operator(self, m: np.ndarray) -> list[int]:
        return self._put(operator_document(m))

    def observable(self, members: list[np.ndarray]) -> list[int]:
        return self._put(
            {
                "outcomes": [f"o{i}" for i in range(len(members))],
                "effects": [operator_document(m) for m in members],
            }
        )


def _scan_request(seed: int, stream: int, i: int) -> dict:
    d = DIMS[i % 3]
    scan_seed = int(np.random.SeedSequence([seed, stream, i]).generate_state(1)[0])
    return {
        "kind": "scan",
        "dim": d,
        "work": SCAN_TRIALS,
        "argv": ["scan", "--dim", str(d), "--trials", str(SCAN_TRIALS), "--seed", str(scan_seed)],
        "inputs": [],
        "expect": {"trials": SCAN_TRIALS},
    }


def _trajectory_request(rng: np.random.Generator, i: int, out: _Bundle) -> dict:
    d = DIMS[i % 3]
    mode = ("evolution", "seqprod")[i % 2]
    a, b = out.operator(_effect(rng, d)), out.operator(_effect(rng, d))
    return {
        "kind": f"evolve-{mode}",
        "dim": d,
        "work": TRAJECTORY_STEPS + 1,
        "argv": ["evolve", "{a}", "{b}", "--steps", str(TRAJECTORY_STEPS), "--mode", mode],
        "inputs": [a, b],
        "expect": {"mode": mode, "steps": TRAJECTORY_STEPS, "t0": 0.0, "t1": 2.0 * math.pi},
    }


def _classify_request(rng: np.random.Generator, kind: str, d: int, out: _Bundle) -> dict:
    expect: dict = {}
    argv = ["classify", "{a}", "{b}"]
    if kind == "classify-generic":
        a, b = _effect(rng, d), _effect(rng, d)
        expect = {"constant": False, "reason": "Neither"}
    elif kind == "classify-commuting":
        u = _unitary(rng, d)
        a = _hermitian(u, rng.uniform(0.05, 0.95, d))
        b = _hermitian(u, rng.uniform(0.05, 0.95, d))
        expect = {"constant": True, "reason": "Commuting"}
    elif kind == "classify-scaled-projection":
        rank = int(rng.integers(1, d))
        scale = float(rng.uniform(0.2, 0.9))
        a = _hermitian(_unitary(rng, d), [scale] * rank + [0.0] * (d - rank))
        b = _effect(rng, d)
        expect = {"constant": True, "reason": "ScaledProjection", "scale": scale, "rank": rank}
    else:
        # Three distinct eigenvalues need dim >= 3, so dim 2 becomes 3 here.
        d = max(d, 3)
        spectrum = [0.0] * (d - 2) + [0.5, 0.5 + NEAR_DEGENERATE_SPLIT]
        a = _hermitian(_unitary(rng, d), spectrum)
        b = _effect(rng, d)
        argv = ["--tol", NEAR_DEGENERATE_TOL] + argv
        expect = {"constant": True, "reason": "ScaledProjection", "rank": 2}
    return {
        "kind": kind,
        "dim": d,
        "work": 1,
        "argv": argv,
        "inputs": [out.operator(a), out.operator(b)],
        "expect": expect,
    }


def _observable_request(
    rng: np.random.Generator, kind: str, d: int, n: int, out: _Bundle
) -> dict:
    t = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
    expect = {"outcomes": n}
    obs_a = out.observable(_observable(rng, d, n))
    if kind == "observable-dist":
        argv = ["observable", "dist", "{a}", "--state", "{b}"]
        inputs = [obs_a, out.operator(_state(rng, d))]
    elif kind == "validate-observable":
        argv = ["validate", "--kind", "observable", "{a}"]
        inputs = [obs_a]
    else:
        inputs = [obs_a, out.observable(_observable(rng, d, n))]
        argv = ["observable", kind.split("-")[1], "{a}", "{b}"]
        if kind in ("observable-tseq", "observable-tcond"):
            argv += ["--t", repr(t)]
            expect["t"] = t
        if kind == "observable-tcond":
            argv += ["--state", "{c}"]
            inputs.append(out.operator(_state(rng, d)))
    return {
        "kind": kind,
        "dim": d,
        "work": 1,
        "argv": argv,
        "inputs": inputs,
        "expect": expect,
    }


def _calculus_request(rng: np.random.Generator, i: int, out: _Bundle) -> dict:
    pos = i % WORKLOADS["calculus"].cycle
    kind = CALCULUS_KINDS[pos % 9]
    d = DIMS[(pos // 9) % 3]
    n = 2 + pos // 27
    if kind.startswith("classify"):
        return _classify_request(rng, kind, d, out)
    return _observable_request(rng, kind, d, n, out)


def _requests(workload: str, seed: int, stream: int, count: int, out: _Bundle) -> list[dict]:
    reqs = []
    for i in range(count):
        if workload == "scan":
            reqs.append(_scan_request(seed, stream, i))
        elif workload == "trajectory":
            reqs.append(_trajectory_request(_rng(seed, stream, i), i, out))
        else:
            reqs.append(_calculus_request(_rng(seed, stream, i), i, out))
    return reqs


def generate(workload: str, seed: int, seconds: float, root: Path) -> dict:
    """Write the inputs and the manifest under ``root``; return the manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    root.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[workload]
    with open(root / INPUTS, "wb") as f:
        out = _Bundle(f)
        manifest = {
            "workload": workload,
            "seed": seed,
            "why": w.why,
            "unit": w.unit,
            "warmup": _requests(workload, seed, _STREAM_WARMUP, w.cycle, out),
            "requests": _requests(workload, seed, _STREAM_TIMED, pool_size(workload, seconds), out),
        }
    manifest["kinds"] = {r["kind"]: KIND_WHY[r["kind"]] for r in manifest["warmup"]}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def input_paths(request: dict, root: Path) -> list[Path]:
    """Where ``prepare`` puts the request's input documents, in argv order."""
    return [root / f"{slot}.json" for slot in "abc"[: len(request["inputs"])]]


def prepare(request: dict, root: Path, inputs) -> list[str]:
    """Copy the request's documents from the open ``inputs`` file; return its argv."""
    paths = input_paths(request, root)
    for path, (offset, length) in zip(paths, request["inputs"]):
        inputs.seek(offset)
        path.write_bytes(inputs.read(length))
    slots = {p.stem: str(p) for p in paths}
    return [arg.format(**slots) if arg.startswith("{") else arg for arg in request["argv"]]
