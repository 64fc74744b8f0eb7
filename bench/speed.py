"""Machine-speed samples, to report op times at one fixed reference speed.

On a shared machine the same op can take 1.6x longer for seconds at a time
while a neighbour is busy, which swamps the differences the benchmark must
resolve. So between ops (outside the timed region) the benchmark times a
fixed kernel that never touches effectdyn, made of the kinds of work an
effectdyn op does: building and running an argparse parser (pure Python),
small Hermitian eigensolves through numpy, a JSON round trip and 17-digit
float formatting. Each op's time is then scaled by REFERENCE_S / (kernel
time around that op). The result is the op's time on a machine that runs
the kernel in REFERENCE_S: a slower or busier machine inflates op and
kernel alike, and the ratio stays put.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

REFERENCE_S = 0.0015
# Sample again once this much op time has passed since the last sample.
SAMPLE_EVERY_S = 0.1

# Bound at import, so the tracer's numpy wrappers never see these calls.
_eigvalsh, _eigh = np.linalg.eigvalsh, np.linalg.eigh

_g = np.random.default_rng(20210515)
_H = _g.standard_normal((8, 8)) + 1j * _g.standard_normal((8, 8))
_H = _H + _H.conj().T
_DOC = {"entries": _g.standard_normal((8, 8, 2)).tolist()}
_VALUES = _g.standard_normal(64).tolist()


def _kernel() -> float:
    start = time.perf_counter()
    for _ in range(2):
        parser = argparse.ArgumentParser(prog="kernel")
        sub = parser.add_subparsers(dest="command", required=True)
        for name in ("one", "two", "three", "four"):
            p = sub.add_parser(name, help=f"{name} help")
            p.add_argument("file")
            p.add_argument("--t", type=float, default=0.0)
            p.add_argument("--mode", choices=("a", "b"), default="a")
        parser.parse_args(["three", "f.json", "--t", "0.5"])
    _eigvalsh(_H)
    _eigh(_H)
    json.loads(json.dumps(_DOC))
    ",".join(format(v, ".17g") for v in _VALUES)
    return time.perf_counter() - start


def sample() -> float:
    """Seconds the kernel takes right now (median of three runs)."""
    return statistics.median(_kernel() for _ in range(3))


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two samples, rescaled to reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
