"""Single-string mutants of the package, each run against the tier-1 suite; stdlib only.

A mutant is (file under src/effectdyn, source string, replacement).
For each one the runner copies src/ to a temporary directory, replaces every
occurrence of the string (one at least must occur), and runs the tier-1 suite with
-x against the copy. A failing test kills the mutant; a passing suite means
no test needs the original at its value. pytest does not collect this file.

    python tests/mutants.py                     # every mutant, one at a time
    python tests/mutants.py --only _TOL         # the mutants whose edit names _TOL
    python tests/mutants.py --only eigh tests/test_evolution.py  # these tests only

It prints one markdown table row per mutant as it finishes.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_EIGH = "d = linalg.hermitian_eigh(np.array([e.matrix for e in fresh]))"

MUTANTS = [
    # the shared decomposition: every cached eigenvalue 1e-7 off, roots and phases with it
    ("effects.py", _EIGH, _EIGH + "\n        d = type(d)(d.eigenvalues * (1.0 + 1e-7), d.vectors)"),
    # looser checks
    ("evolution.py", "CROSS_CHECK_TOL = 1e-10", "CROSS_CHECK_TOL = 1e-6"),
    ("observables.py", "WEIGHT_SUM_TOL = 1e-12", "WEIGHT_SUM_TOL = 1e-6"),
    ("evolution.py", "BRUTEFORCE_TOL = 1e-8", "BRUTEFORCE_TOL = 1e-6"),
    ("effects.py", "SQRT_ZERO_CUTOFF = 1e-13", "SQRT_ZERO_CUTOFF = 1e-9"),
    ("effects.py", "STATE_TRACE_TOL = 1e-10", "STATE_TRACE_TOL = 1e-6"),
    ("evolution.py", "> 2.0 * a.tol", "> 4.0 * a.tol"),  # classify_scaled_projection's cluster
    # rounding allowances and margins
    ("effects.py", "SQRT_ZERO_CUTOFF = 1e-13", "SQRT_ZERO_CUTOFF = 0.0"),
    ("observables.py", "ROUNDING_UNITS = 4.0", "ROUNDING_UNITS = 1.0"),
    ("observables.py", "ROUNDING_UNITS = 4.0", "ROUNDING_UNITS = 0.0"),
    ("explorer.py", "_SLACK_UNITS = 8.0", "_SLACK_UNITS = 4.0"),
    ("explorer.py", "_SLACK_UNITS = 8.0", "_SLACK_UNITS = 0.0"),
    ("explorer.py", "+ 8.0 * _EPS * (g", "+ 0.0 * _EPS * (g"),  # the secant bound's rounding term
    # the scan slack's phase term, and that term for phases rounded entry by entry
    ("explorer.py", " + _EPS * top * float(sum(map(np.linalg.norm, drift * frames.x)))", ""),
    ("explorer.py", "float(sum(map(np.linalg.norm, drift * frames.x)))", "lip / 2.0"),
    ("explorer.py", "(1.0 + 8.0 * dim * _EPS) * norms", "norms"),  # _curvature's factor
    ("explorer.py", "r <= atol + 4.0 * _EPS * abs(c)", "r <= atol"),  # _refine's stop rule
    # the frames' order budget
    ("evolution.py", "math.log(_FLOAT_MAX / 2.0)", "math.log(_FLOAT_MAX)"),
    # one copy of each frame rule: the cross-check's scale, the order rule of
    # derivative_norm and the writer's Hermitian part
    ("evolution.py", "_pair_bound(CROSS_CHECK_TOL, a, b, CROSS_CHECK_TOL)", "CROSS_CHECK_TOL"),
    ("evolution.py", '        self._admitted_order(1, "the derivative_norm column (order 1)")\n', ""),
    ("serialization.py", "linalg.hermitian_part(m)[:, rows, cols]", "(m[:, rows, cols] + m[:, cols, rows].conj()) / 2.0"),
    # operands near the float limit: the commutator's scaling, and admission
    # eigensolving every slice, a non-finite product's included
    ("effects.py", "max(0, math.frexp(e.norm)[1] - 1)", "0"),
    ("effects.py", "w[finite] = np.linalg.eigvalsh(h[finite])", "w = np.linalg.eigvalsh(h)"),
    # one bound for every decision on a pair: the classifier's and the grid
    # oracle's without the pair's rounding, and the pair's scale times tol,
    # which passes every pair once tol >= 2
    ("evolution.py", "_pair_bound(max(a.tol, b.tol), ab, a)", "max(a.tol, b.tol)"),
    ("evolution.py", "_pair_bound(BRUTEFORCE_TOL, a, b, BRUTEFORCE_TOL)", "BRUTEFORCE_TOL"),
    ("effects.py", "max(tol, per_unit * x.norm * y.norm)", "tol * max(1.0, x.norm * y.norm)"),
]


def run(file: str, old: str, new: str, tests: list[str]) -> str:
    """The outcome of one mutant: "killed (first failing test)" or "survived"."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "src")
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "effectdyn" / file
        text = target.read_text(encoding="utf-8")
        if old not in text:
            raise SystemExit(f"{old!r} is not in {file}: the mutant is stale")
        target.write_text(text.replace(old, new), encoding="utf-8")
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return "survived"
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return f"killed (`{first.group(1) if first else f'exit {done.returncode}'}`)"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default="", help="run the mutants whose edit contains this")
    parser.add_argument("tests", nargs="*", default=["tests"], help="pytest paths (default: tests)")
    args = parser.parse_args()
    print("| mutant | result |\n|---|---|", flush=True)
    for file, old, new in MUTANTS:
        edit = re.sub(r"\n\s*", "; ", f"{file}: `{old}` → `{new}`")
        if args.only in edit:
            print(f"| {edit} | {run(file, old, new, args.tests)} |", flush=True)


if __name__ == "__main__":
    main()
