"""effectdyn benchmark: one workload per run, as a closed loop with one caller.

    python3 bench/run.py --workload {scan,trajectory,calculus} --seed N \
        --seconds S --trace {0,1}

The library is imported from ``src/`` in the checkout that holds this
directory. Every op is one ``effectdyn.cli.main([...])`` call in this
process, with stdout captured in memory, on inputs that set-up generated
from the seed (workloads.py). The loop runs until the ops have taken
``--seconds`` of busy time at reference speed (speed.py), then finishes the
current cycle of request kinds. Each output is checked against reference.py
between ops, outside the timed region, and the first ops are replayed to
check that their outputs repeat byte for byte.

An op fails on a nonzero exit, an escaped exception or an output that misses
its reference; ``ok_frac`` is the share that did not fail (``failed_frac``,
its complement, is zero on two workloads and so cannot carry a relative
bound). ``correct`` is false only when an op exited 0 with a wrong output or
an output did not repeat; an op that errors out is a failure, not a wrong
answer.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced replay of the
first ops (tracer.py). The lines before it give the environment and a
readable summary. Work files go to ``.bench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import reference
import speed
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

SETUP_REPEATS = 3
MIN_TAIL_SAMPLES = 10
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_cli():
    """Import effectdyn.cli from the checkout's src/ and nowhere else."""
    if not (SRC / "effectdyn" / "__init__.py").is_file():
        raise BenchError(f"no effectdyn sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import effectdyn.cli

    if not Path(effectdyn.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"effectdyn was imported from {effectdyn.cli.__file__}, not {SRC}")
    return effectdyn.cli


def run_request(cli, request: dict, root: Path, inputs) -> dict:
    """One op: cli.main on the request's argv, timed, stdout kept in memory.

    ``inputs`` is the open inputs file that set-up wrote under ``root``.
    """
    argv = workloads.prepare(request, root, inputs)
    if request["kind"] == "scan":
        argv += ["--out", str(root / "scan-out")]
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    result = {"code": code, "stdout": out.getvalue(), "seconds": seconds}
    if code != 0:
        result["error"] = error or err.getvalue().strip()
    elif request["kind"] == "scan":
        result["json"] = (root / "scan-out.json").read_text(encoding="utf-8")
        result["csv"] = (root / "scan-out.csv").read_text(encoding="utf-8")
    return result


def check(request: dict, root: Path, result: dict) -> list[str]:
    """Ways the op's output misses its reference (empty when it passes)."""
    if result["code"] != 0:
        return [f"exit {result['code']}: {result['error']}"]
    kind = request["kind"]
    paths = workloads.input_paths(request, root)
    try:
        if kind == "scan":
            return reference.check_scan(request, result["json"], result["csv"])
        if kind.startswith("evolve"):
            return reference.check_trajectory(request, paths, result["stdout"])
        return reference.check_calculus(request, paths, result["stdout"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"output does not parse: {type(exc).__name__}: {exc}"]


def output_bytes(result: dict) -> tuple:
    return (result["code"], result["stdout"], result.get("json"), result.get("csv"))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile that leaves at least 10 of n samples beyond it."""
    best = None
    for p in TAIL_LADDER:
        if n - math.ceil(n * p / 100.0) >= MIN_TAIL_SAMPLES:
            best = p
    return best


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(len(sorted_values) * p / 100.0), 1) - 1]


def environment() -> dict:
    try:
        build = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: build.get(k) for k in ("blas", "lapack")}
    except TypeError:  # numpy < 1.25 has no mode argument
        text = io.StringIO()
        with redirect_stdout(text):
            np.show_config()
        blas = {"show_config": text.getvalue()}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": blas,
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def warm(cli, manifest: dict, root: Path) -> None:
    run_ops(cli, manifest["warmup"], root, lambda i, request, result: {})


def probe_setup(args) -> int:
    """Child process of measure_setup: generate and write the inputs, warm up, report."""
    cli = load_cli()
    root = Path(args.setup_probe)
    warm(cli, workloads.generate(args.workload, args.seed, args.seconds, root), root)
    print(f"ready {time.monotonic()!r}")
    return 0


def measure_setup(args, work: Path) -> tuple[list[float], Path]:
    """Set up SETUP_REPEATS times in fresh processes; return the times and the last inputs.

    Each time runs from process spawn to the end of the warm-up: the
    interpreter, ``import effectdyn.cli``, input generation and writing, and
    one cycle of warm-up ops. Times are at reference speed (speed.py).
    """
    times = []
    for k in range(SETUP_REPEATS):
        root = work / f"setup{k}"
        cmd = [
            sys.executable, str(HERE / "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--setup-probe", str(root),
        ]
        before = speed.sample()
        spawned = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
        ready = float(proc.stdout.split()[-1])
        times.append(speed.at_reference(ready - spawned, before, speed.sample()))
    return times, root


def run_ops(cli, requests: list[dict], root: Path, consume, seconds=math.inf, cycle=1) -> list[dict]:
    """Run requests back to back; ``consume(i, request, result)`` makes each op's record.

    Stops once the ops' busy time at reference speed reaches ``seconds``,
    but only on a cycle boundary (or when the requests run out), so every
    run has the same mix of request kinds and, whatever the machine's
    speed, about the same number of ops. Consuming and speed sampling
    happen between ops, outside the timed region; each record gets the
    op's time at reference speed as "seconds".
    """
    records, segment = [], []
    busy, since_sample = 0.0, 0.0
    before = speed.sample()
    with open(root / workloads.INPUTS, "rb") as inputs:
        for i, request in enumerate(requests):
            if i % cycle == 0 and busy >= seconds and len(records) >= 2 * MIN_TAIL_SAMPLES:
                break
            result = run_request(cli, request, root, inputs)
            # The closing speed sample is not taken yet; the opening one will do.
            busy += speed.at_reference(result["seconds"], before, before)
            since_sample += result["seconds"]
            record = consume(i, request, result)
            record["raw_seconds"] = result["seconds"]
            records.append(record)
            segment.append(record)
            if since_sample >= speed.SAMPLE_EVERY_S:
                before = _rescale(segment, before)
                segment, since_sample = [], 0.0
    _rescale(segment, before)
    return records


def _rescale(segment: list[dict], before: float) -> float:
    """Set each record's time at reference speed; return the closing speed sample."""
    after = speed.sample()
    for r in segment:
        r["seconds"] = speed.at_reference(r["raw_seconds"], before, after)
    return after


def timed_loop(cli, manifest: dict, root: Path, seconds: float, keep: int) -> list[dict]:
    """The measured run: every output is checked, the first ``keep`` are kept."""

    def consume(i, request, result):
        op = {"work": request["work"], "misses": check(request, root, result)}
        if i < keep:
            op["output"] = output_bytes(result)
        return op

    cycle = workloads.WORKLOADS[manifest["workload"]].cycle
    return run_ops(cli, manifest["requests"], root, consume, seconds, cycle)


def replay(cli, manifest: dict, root: Path, ops: list[dict], count: int) -> list[float]:
    """Re-run the first ``count`` ops; a byte difference is a miss. Returns their times."""

    def consume(i, request, result):
        if output_bytes(result) != ops[i]["output"]:
            ops[i]["misses"].append("output differs from an identical earlier op")
            ops[i]["nondeterministic"] = True
        return {}

    records = run_ops(cli, manifest["requests"][:count], root, consume)
    return [r["seconds"] for r in records]


def end_to_end(ops: list[dict], setup_times: list[float]) -> tuple[dict, dict]:
    latencies = sorted(op["seconds"] for op in ops)
    busy = math.fsum(latencies)
    ok = [op for op in ops if not op["misses"]]
    raw_busy = math.fsum(op["raw_seconds"] for op in ops)
    p = tail_percentile(len(latencies))
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_per_s": (sum(op["work"] for op in ok) / busy, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * percentile(latencies, p), "ms"),
        "ok_frac": (len(ok) / len(ops), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)}: {[round(t, 4) for t in setup_times]}",
        "throughput_per_s": f"{sum(op['work'] for op in ok) / raw_busy:.6g} at this machine's speed",
        "op_p50_ms": f"{1e3 * statistics.median(op['raw_seconds'] for op in ops):.6g} at this machine's speed",
        "op_tail_ms": f"p{p:g} of {len(latencies)} ops, {len(latencies) - math.ceil(len(latencies) * p / 100.0)} beyond",
        "ok_frac": f"failed_frac {1 - len(ok) / len(ops):.6g} ({len(ops) - len(ok)} of {len(ops)})",
    }
    return values, notes


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 2**10


def per_layer(
    t: tracing.Tracer, manifest: dict, ops: list[dict], untraced_s: list[float], traced_s: list[float]
) -> tuple[dict, dict]:
    n = len(traced_s)
    requests = manifest["requests"][:n]
    stats = t.aggregate()
    values: dict[str, tuple[float, str]] = {}
    for name, s in stats.items():
        values[f"{name}.calls"] = (s["calls"], "count")
        values[f"{name}.self_ms"] = (s["self_ms"], "ms")
        if name in tracing.BYTES_OF:
            values[f"{name}.bytes"] = (t.bytes[name], "bytes")
    values["numpy.eigvalsh.matrices"] = (t.matrices, "count")
    for layer in [*tracing.LAYERS, "numpy"]:
        values[f"{layer}.errors"] = (t.errors[layer], "count")

    def ratio(num: float, base: float) -> float:
        return num / base if base else 0.0

    calls = {name: s["calls"] for name, s in stats.items()}
    trials = sum(r["work"] for r in requests if r["kind"] == "scan")
    evolution_ops = {i for i, r in enumerate(requests) if r["kind"] == "evolve-evolution"}
    rows = sum(requests[i]["work"] for i in evolution_ops)
    failed = sum(1 for op in ops if op["misses"])
    values.update(
        {
            "explorer.gap_evals_per_trial": (ratio(calls["explorer.symmetry_gap"], trials), "calls/trial"),
            "explorer.profile_calls_per_trial": (
                ratio(calls["explorer.symmetry_gap_profile"], trials), "calls/trial"),
            "explorer.draws_per_trial": (ratio(calls["explorer.random_effect"], trials), "calls/trial"),
            "evolution.evolutions_per_row": (
                ratio(t.calls_in_ops("evolution.effect_evolution", evolution_ops), rows), "calls/row"),
            "numpy.eigensolves_per_op": (ratio(calls["numpy.eigh"] + t.matrices, n), "count/op"),
            "effects.validations_per_op": (
                ratio(calls["effects.validate_effect"] + calls["effects.validate_state"], n), "count/op"),
            "trace.overhead_frac": (
                ratio(math.fsum(traced_s), math.fsum(untraced_s) / 2.0) - 1.0, "ratio"),
            "failed_frac": (ratio(failed, len(ops)), "ratio"),
        }
    )
    notes = {
        "explorer.gap_evals_per_trial": f"base {trials} trials in {n} traced ops",
        "evolution.evolutions_per_row": f"base {rows} rows of {len(evolution_ops)} evolution-mode ops",
        "numpy.eigensolves_per_op": f"numpy.eigh calls + eigvalsh matrices over {n} ops",
        "effects.validations_per_op": f"validate_effect + validate_state calls over {n} ops",
        "failed_frac": f"{failed} of {len(ops)} untraced ops",
    }
    if t.missing:
        notes["cli.main.calls"] = f"functions not found, reported as 0: {t.missing}"
    return {name: values[name] for name in tracing.metric_names()}, notes


def benchmark(args) -> int:
    load_before = os.getloadavg()
    cli = load_cli()
    spec = workloads.WORKLOADS[args.workload]
    work = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times, root = measure_setup(args, work)
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        warm(cli, manifest, root)
        ops = timed_loop(cli, manifest, root, args.seconds, keep=spec.trace_ops)
        untraced_s = replay(cli, manifest, root, ops, spec.trace_ops)
        if args.trace:
            t = tracing.Tracer()
            with t.installed():
                traced_s = replay(cli, manifest, root, ops, spec.trace_ops)
            # Untraced replays on both sides of the traced one, against drift.
            untraced_s += replay(cli, manifest, root, ops, spec.trace_ops)
            spans = RUNS / f"spans-{args.workload}.csv.gz"
            t.write(spans)
            values, notes = per_layer(t, manifest, ops, untraced_s, traced_s)
            notes["trace.overhead_frac"] = f"spans in {spans.relative_to(ROOT)}"
        else:
            values, notes = end_to_end(ops, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    env["loadavg_start"], env["loadavg_end"] = load_before, os.getloadavg()
    print("env " + json.dumps(env, sort_keys=True))
    failed = [op for op in ops if op["misses"]]
    print(f"workload {args.workload} ({spec.unit}), seed {args.seed}: {manifest['why']}")
    print(f"ops {len(ops)}, failed {len(failed)}, failed_frac {len(failed) / len(ops):.6g}")
    for name, (value, unit) in values.items():
        print(f"  {name} = {value!r} {unit}" + (f"  [{notes[name]}]" if name in notes else ""))
    for op in failed[:5]:
        print(f"  miss: {op['misses'][0]}")
    result = {
        "correct": not any(op.get("nondeterministic") for op in ops)
        and all(op["misses"][0].startswith("exit ") for op in failed),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return probe_setup(args) if args.setup_probe else benchmark(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
