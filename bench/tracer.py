"""Spans around calls into each effectdyn layer, recorded from outside.

The tracer replaces each traced public function at every module attribute
that is bound to it: the defining module and every ``from … import`` site
(``explorer.time_seq_product`` and ``observables.time_seq_product`` as well
as ``evolution.time_seq_product``). A few ``numpy.linalg`` entry points are
wrapped the same way, to count the LAPACK kernels behind each layer. Spans
(name, start, end, parent, op) are kept in flat arrays in memory and written
out after the run; self time is a span's duration minus that of its direct
children. Everything runs on one thread, so there is no wait time.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = {
    "cli": ("effectdyn.cli", ("main",)),
    "serialization": (
        "effectdyn.serialization",
        (
            "parse_operator_json",
            "parse_observable_json",
            "observable_to_document",
            "distribution_json",
            "trajectory_csv",
            "scan_json",
            "scan_csv",
        ),
    ),
    "explorer": (
        "effectdyn.explorer",
        (
            "conjecture_scan",
            "minimize_gap",
            "symmetry_gap_profile",
            "symmetry_gap",
            "random_effect",
            "commutator_norm",
        ),
    ),
    "observables": (
        "effectdyn.observables",
        (
            "validate_observable",
            "distribution",
            "obs_time_seq_product",
            "time_conditional_observable",
            "conditioned_observable",
        ),
    ),
    "evolution": (
        "effectdyn.evolution",
        (
            "effect_evolution",
            "evolution_derivative",
            "time_seq_product",
            "seq_product_derivative",
            "constancy_classifier",
            "classify_scaled_projection",
        ),
    ),
    "effects": (
        "effectdyn.effects",
        ("validate_effect", "validate_state", "sequential_product", "commutes"),
    ),
    "linalg": (
        "effectdyn.linalg",
        (
            "eigh",
            "require_hermitian",
            "operator_norm",
            "spectral_norm",
            "unitary_from_decomposition",
            "commutator",
        ),
    ),
}
# numpy.linalg attribute -> span name; norm is traced only for ord=2 (one SVD).
NUMPY_KERNELS = {"eigh": "numpy.eigh", "eigvalsh": "numpy.eigvalsh", "norm": "numpy.norm2"}
# Functions whose returned text is also measured in bytes.
BYTES_OF = ("serialization.trajectory_csv", "serialization.scan_json")

DERIVED = (
    "explorer.gap_evals_per_trial",
    "explorer.profile_calls_per_trial",
    "explorer.draws_per_trial",
    "evolution.evolutions_per_row",
    "numpy.eigensolves_per_op",
    "effects.validations_per_op",
    "trace.overhead_frac",
    "failed_frac",
)


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns]
    return names + list(NUMPY_KERNELS.values())


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    out = []
    for name in span_names():
        out += [f"{name}.calls", f"{name}.self_ms"]
        if name in BYTES_OF:
            out.append(f"{name}.bytes")
        if name == "numpy.eigvalsh":
            out.append("numpy.eigvalsh.matrices")
    out += [f"{layer}.errors" for layer in [*LAYERS, "numpy"]]
    return out + list(DERIVED)


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self):
        self.names = span_names()
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.nid = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.current_op = -1  # ops are numbered by their root (cli.main) span
        self.errors: Counter = Counter()
        self.bytes: Counter = Counter()
        self.matrices = 0
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        nid = self.name_id[name]
        layer = name.split(".")[0]
        count_bytes = name in BYTES_OF
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # a root span starts the next op
                self.current_op += 1
            idx = len(self.nid)
            self.nid.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if count_bytes:
                self.bytes[name] += len(result.encode())
            return result

        return traced

    def _numpy_wrappers(self) -> dict:
        eigvalsh = self._wrap("numpy.eigvalsh", np.linalg.eigvalsh)
        norm2 = self._wrap("numpy.norm2", np.linalg.norm)
        plain_norm = np.linalg.norm

        def count_eigvalsh(a, *args, **kwargs):
            shape = np.shape(a)
            self.matrices += math.prod(shape[:-2]) if len(shape) > 2 else 1
            return eigvalsh(a, *args, **kwargs)

        def norm(x, *args, **kwargs):
            order = args[0] if args else kwargs.get("ord")
            return (norm2 if order == 2 else plain_norm)(x, *args, **kwargs)

        return {
            "eigh": self._wrap("numpy.eigh", np.linalg.eigh),
            "eigvalsh": functools.wraps(np.linalg.eigvalsh)(count_eigvalsh),
            "norm": functools.wraps(plain_norm)(norm),
        }

    @contextmanager
    def installed(self):
        """Swap every traced binding for its wrapper; restore them on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "effectdyn"]
        saved = []
        try:
            for layer, (mod_name, fns) in LAYERS.items():
                home = sys.modules.get(mod_name)
                for fn_name in fns:
                    name = f"{layer}.{fn_name}"
                    original = getattr(home, fn_name, None)
                    if original is None:
                        self.missing.append(name)
                        continue
                    wrapper = self._wrap(name, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                saved.append((mod, attr, original))
                                setattr(mod, attr, wrapper)
            for attr, wrapper in self._numpy_wrappers().items():
                saved.append((np.linalg, attr, getattr(np.linalg, attr)))
                setattr(np.linalg, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """calls and self_ms per span name."""
        n = len(self.nid)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[self.nid[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
        return {
            name: {"calls": calls[name], "self_ms": 1e3 * self_s[name]} for name in self.names
        }

    def calls_in_ops(self, name: str, ops: set[int]) -> int:
        nid = self.name_id[name]
        return sum(1 for i in range(len(self.nid)) if self.nid[i] == nid and self.op[i] in ops)

    def write(self, path: Path) -> None:
        """Write every span as gzipped CSV, times in seconds from the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("span,name,start_s,end_s,parent,op\n")
            for i in range(len(self.nid)):
                f.write(
                    f"{i},{self.names[self.nid[i]]},{self.start[i] - origin:.9f},"
                    f"{self.end[i] - origin:.9f},{self.parent[i]},{self.op[i]}\n"
                )
