"""Command-line interface.

Subcommands: validate (operator/observable files), evolve (trajectory CSV),
classify (constancy report), observable (distributions and the observable
calculus), examples (built-in worked-example cross-checks), scan (randomized
symmetry-gap search with certified lower bounds). Data goes to stdout (or to
files for scan); all diagnostics go to stderr. Exit codes: 0 success,
1 examples failure, 2 invalid inputs or flags, 3 parse failure.

A command's operand files (classify, evolve, observable, an optional --state
included) go through one loader, _load: each file is read with one
unbuffered binary read and parsed, then every matrix they hold, effect or
state, is eigensolved in one stacked pass per shape (effects.Admission), and
then each file's checks run in file order, an observable's members' and then
its sum check. The first admission error wins, and only then a read or
parse error, which stops the reading at its file; so the error is the one
reading and admitting the files one by one would give, though a later file
is read even when an earlier one fails its checks, and a faulty --state is
reported before an error of the computation itself. validate prints what one
Admission of its file records, or, for an observable, admits it as _load does.
Each observable subcommand names its operands in OBSERVABLE_COMMANDS, and
one table, _OPERANDS, declares each operand once: its argparse flag and the
kind of file it names, which _operands hands to _load.

``main(argv)`` may be called repeatedly in one process (from scripts,
notebooks or tests): the parser is built on the first call and reused, and
each call parses its argv into a fresh namespace. A word that is a negative
number, such as -1e-05, is always a value (``--t -1e-05``), never an option.

scan rewrites its two output files in place (_rewrite): it writes over an
existing file from its start and then cuts it to the new length, with the
bytes of a fresh write. Truncating a file to zero and writing it again makes
ext4 (auto_da_alloc) flush it on close, which cost a rerun of scan into the
same prefix more than the write itself.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import stat
import sys
from pathlib import Path

import numpy as np

from . import closed_forms, evolution, linalg, serialization
from .effects import DECISION_TOL, Admission, admit_in_order, validate_effect
from .errors import EffectdynError, SchemaError
from .explorer import ScanConfig, conjecture_scan, random_effect
from .observables import (
    conditioned_observable,
    convex_combination,
    distribution,
    obs_evolution,
    obs_seq_product,
    obs_time_seq_product,
    time_conditional_observable,
    validate_observable,
)

EXIT_OK = 0
EXIT_EXAMPLES_FAILED = 1
EXIT_INVALID = 2
EXIT_PARSE = 3

# A word that is a negative decimal number, exponent form included: -1, -.5, -1.5e-05.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative number word as a value, not as an option.

    argparse takes a word starting with "-" for a value only if its
    _negative_number_matcher, -N or -N.N, matches, so ``--t -1e-05`` failed
    with "expected one argument". No option here looks like a number, so
    every such word is a value. The subparsers are built from the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _floats(text: str) -> list[float]:
    try:
        return [float(w) for w in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated numbers, got {text!r}") from None


def _rewrite(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 in place: no truncation before the write.

    The file is opened without O_TRUNC (created with mode 0o666 less the
    umask if missing), written from its start, and then, if it is a regular
    file, cut to the new length. OSError propagates (exit 2 in main). On an
    ext4 disk a truncate-and-rewrite of a 3 KB file cost 0.2-0.4 ms, for the
    flush on close, against under 0.02 ms in place.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest) :]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _read_text(path: str) -> str:
    """The text of Path(path).read_text(encoding="utf-8"), from one unbuffered binary read.

    The bytes are decoded as a whole, and text mode's newline translation
    (CRLF and a lone CR to LF) is applied only where a CR occurs. A missing
    file or a directory raises the OSError of that call; bytes that are not
    UTF-8 raise SchemaError.
    """
    with open(path, "rb", buffering=0) as f:
        data = f.readall()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _parse(kind: str, text: str):
    if kind == "observable":
        return serialization.parse_observable_json(text)
    return serialization.parse_operator_json(text)


def _load(files, tol: float) -> list:
    """The value of each of a command's operand files, given as (kind, path), admitted at tol.

    kind is "effect", "observable" or "state". Every file is read and
    parsed first, in order, up to the first one that fails. Then _admit
    eigensolves every matrix of the parsed files (an effect's, each member of
    an observable, a state's) together, one Admission pass per shape, and
    runs each file's checks, file by file: an effect's (Admission.admit), an
    observable's members' and then its sum check (validate_observable), a
    state's (Admission.admit_state). The first failing check raises; if none
    fails, the error that stopped the reading does. So the first error is the
    one that reading and admitting the files one after another would raise;
    an optional --state is one of the files, checked before any computation.
    """
    parsed, failure = [], None
    for kind, path in files:
        try:
            parsed.append((kind, _parse(kind, _read_text(path))))
        except (SchemaError, OSError) as exc:
            failure = exc
            break
    values = _admit(parsed, tol)
    if failure is not None:
        raise failure
    return values


def _admit(parsed, tol: float) -> list:
    """The value of each parsed (kind, document), admitted at tol in one pass, as _load says."""
    matrices, states = [], set()
    for kind, doc in parsed:
        if kind == "state":
            states.add(len(matrices))
        matrices += doc[1] if kind == "observable" else [doc]
    admitted = admit_in_order(matrices, tol, states)
    return [
        validate_observable([next(admitted) for _ in doc[1]], doc[0]) if kind == "observable"
        else next(admitted)
        for kind, doc in parsed
    ]


def _fmt_eigs(values) -> str:
    return "[" + ", ".join(format(float(v), ".17g") for v in values) + "]"


def cmd_validate(args) -> int:
    """Print what one admission of the file records, or why it is invalid (exit 2).

    An effect or a state is one Admission of its matrix: its
    hermiticity_residual, eigenvalues and trace come from that record, with
    no second eigensolve. An observable is parsed here, so a parse error
    still exits 3, and then admitted by _admit, the loader's per-shape pass,
    members of mixed dimensions included; any admission or sum-check error
    prints valid: false and exits 2.
    """
    text = _read_text(args.file)
    if args.kind == "observable":
        doc = serialization.parse_observable_json(text)
        try:
            (obs,) = _admit([("observable", doc)], args.tol)
        except EffectdynError as exc:
            print("valid: false")
            print(f"reason: {exc}")
            return EXIT_INVALID
        print("valid: true")
        print(f"outcomes: {list(obs.outcomes)}")
        print(f"sum_residual: {obs.sum_residual:.3e}")
        return EXIT_OK
    admission = Admission.of(serialization.parse_operator_json(text)[None])
    residual = admission.defects[0]
    try:
        obj = (admission.admit_state if args.kind == "state" else admission.admit)(0, args.tol)
    except EffectdynError as exc:
        print("valid: false")
        print(f"hermiticity_residual: {residual:.3e}")
        print(f"reason: {exc}")
        return EXIT_INVALID
    print("valid: true")
    print(f"hermiticity_residual: {residual:.3e}")
    print(f"eigenvalues: {_fmt_eigs(admission.spectra[0])}")
    if args.kind == "state":
        print(f"trace: {float(np.trace(obj.matrix).real):.17g}")
    return EXIT_OK


# Most time steps one evolve may take (rows = steps + 1), refused before any
# grid is formed. Its output grows by about 2.6 KB per row at dim 8; its
# memory does not: evolve forms and writes the grid in blocks of BLOCK_ROWS
# rows, about 11 KB per row at dim 8, so only the time grid itself (8 bytes
# per row) grows with the steps. At dim 8 the peak RSS was 48 and 49 MB at
# 20,000 and 80,000 steps, where writing the grid in one piece took 244 and
# 670 MB. A MemoryError is reported as refused input.
MAX_STEPS = 1 << 20
BLOCK_ROWS = 1024


def cmd_evolve(args) -> int:
    """Write the trajectory CSV block by block, byte-identical to one trajectory_csv call.

    Every phase of the whole window is checked before the first byte, and the
    first block is formed before it too, so refused input leaves stdout empty.
    A later block that does not fit in memory still exits 2, after the rows
    before it.
    """
    if not 0 <= args.steps <= MAX_STEPS:
        raise EffectdynError(f"--steps must be in [0, {MAX_STEPS}], got {args.steps}")
    if not math.isfinite(args.t1 - args.t0):
        raise EffectdynError(f"time window must have finite width, got {(args.t0, args.t1)}")
    a, b = _load([("effect", args.a_file), ("effect", args.b_file)], args.tol)
    frames = evolution.EigenFrame
    frame = (frames.evolution if args.mode == "evolution" else frames.product)(a, b)
    try:
        times = frame.check_phases(np.linspace(args.t0, args.t1, args.steps + 1))
        for start in range(0, len(times), BLOCK_ROWS):
            block = times[start : start + BLOCK_ROWS]
            csv = serialization.trajectory_csv(block, *frame.trajectory(block))
            sys.stdout.write(csv if start == 0 else csv.partition("\n")[2])  # one header
    except MemoryError:
        raise EffectdynError(f"--steps {args.steps}: the grid does not fit in memory") from None
    return EXIT_OK


def cmd_classify(args) -> int:
    a, b = _load([("effect", args.a_file), ("effect", args.b_file)], args.tol)
    report = evolution.constancy_classifier(a, b)
    print(f"constant: {'true' if report.constant else 'false'}")
    print(f"reason: {report.reason}")
    print(f"residual: {report.residual:.17g}")
    if report.decomposition is not None:
        print(f"scale: {report.decomposition.scale:.17g}")
        print(
            "projection_rank: "
            f"{int(round(float(np.trace(report.decomposition.projection.matrix).real)))}"
        )
    return EXIT_OK


# Each observable subcommand, declared once for the parser and the dispatch:
# its help, its operands (see _OPERANDS and _operands) in the order
# its library call takes them, and that call. The calls are lambdas, so each
# library name is looked up in this module when the command runs and sees any
# rebinding of it (such as a tracing wrapper). Only "dist" emits a distribution.
OBSERVABLE_COMMANDS = {
    "dist": ("distribution of an observable in a state", ("observable", "state"),
             lambda obs, rho: distribution(obs, rho)),
    "seqprod": ("sequential product A∘B", ("a_file", "b_file"),
                lambda a, b: obs_seq_product(a, b)),
    "tseq": ("time-dependent product A[t]B", ("a_file", "b_file", "t"),
             lambda a, b, t: obs_time_seq_product(a, b, t)),
    "cond": ("conditioned observable (B|A): B after a nonselective A", ("a_file", "b_file"),
             lambda a, b: conditioned_observable(b, a)),
    "tcond": ("time-dependent conditional observable (B|A)(t|A)", ("a_file", "b_file", "t"),
              lambda a, b, t: time_conditional_observable(b, a, t)),
    "evolve": ("a-evolution B(t|a) of an observable", ("observable", "effect", "t"),
               lambda b, a, t: obs_evolution(b, a, t)),
    "convex": ("convex combination of observables", ("weights", "files"),
               lambda weights, files: convex_combination(weights, files)),
}
# Each operand's argparse flag, the kind of file it names (see _load; None
# for a value flag) and its argparse spec.
_OPERANDS = {
    "t": ("--t", None, {"type": _finite, "default": 0.0,
                        "help": "the time t (default %(default)s)"}),
    "weights": ("--weights", None, {"type": _floats, "required": True,
                                    "help": "comma-separated, one per file, summing to 1"}),
    "state": ("--state", "state", {"required": True, "help": "state file"}),
    "files": ("files", "observable",
              {"nargs": "+", "help": "observable files, of one outcome set"}),
    "observable": ("observable", "observable", {"help": "observable file"}),
    "a_file": ("a_file", "observable",
               {"help": "observable A (the conditioning one in cond and tcond)"}),
    "b_file": ("b_file", "observable",
               {"help": "observable B (the conditioned one in cond and tcond)"}),
    "effect": ("effect", "effect", {"help": "operator file for the evolving effect a"}),
}


def _operands(args, names) -> list:
    """The value of each named operand: flags as parsed, every file given loaded by one _load.

    A file flag left unset (an optional --state) is None.
    """
    paths = {n: p for n in names if _OPERANDS[n][1] and (p := getattr(args, n)) is not None}
    files = [
        (_OPERANDS[name][1], path)
        for name, value in paths.items()
        for path in (value if name == "files" else [value])
    ]
    loaded = iter(_load(files, args.tol))
    return [
        getattr(args, name) if name not in paths
        else [next(loaded) for _ in paths[name]] if name == "files"
        else next(loaded)
        for name in names
    ]


def cmd_observable(args) -> int:
    _, operands, call = OBSERVABLE_COMMANDS[args.obs_cmd]
    if args.obs_cmd == "dist":
        sys.stdout.write(serialization.distribution_json(call(*_operands(args, operands))))
        return EXIT_OK
    *values, rho = _operands(args, (*operands, "state"))  # the optional --state, in the same pass
    result = call(*values)
    doc = serialization.observable_to_document(result)
    if rho is not None:
        doc = {"observable": doc, "distribution": distribution(result, rho).as_dict()}
    sys.stdout.write(serialization.to_json(doc) + "\n")
    return EXIT_OK


def _examples_report():
    """Cross-check the generic evolution code against every closed form.

    Returns (name, target, residual) triples, each residual taken against
    the closed_forms oracles.
    """
    checks = []
    grid = np.linspace(0.0, 4.0 * math.pi, 64)

    a1, b1 = closed_forms.example1_effects()
    res1 = 0.0
    for t in grid:
        evolved = evolution.effect_evolution(b1, a1, t).matrix
        res1 = max(res1, float(np.max(np.abs(evolved - closed_forms.example1_evolution(t)))))
        eigs = np.linalg.eigvalsh(evolution.evolution_derivative(b1, a1, t))
        res1 = max(res1, float(np.max(np.abs(eigs - closed_forms.example1_derivative_eigs()))))
    checks.append(
        (
            "example 1: a=diag(1,1/2), b=ones/2",
            "evolved (1/2)[[1,e^{-it/2}],[e^{it/2},1]]; derivative eigenvalues ±1/4",
            res1,
        )
    )

    res2 = 0.0
    for scale in (0.3, 0.7, 1.0):
        for b12 in (0.1, 0.25 + 0.25j):
            params = closed_forms.QubitExampleParams(scale, 0.5, 0.5, b12)
            a2, b2 = params.effect_a(), params.effect_b()
            for t in grid:
                res2 = max(
                    res2,
                    abs(
                        evolution.deviation_norm(b2, a2, t)
                        - closed_forms.example2_deviation(params, t)
                    ),
                )
            res2 = max(
                res2,
                abs(evolution.deviation_norm(b2, a2, math.pi / scale) - 2.0 * abs(b12)),
            )
            eigs = np.linalg.eigvalsh(evolution.evolution_derivative(b2, a2, 1.7))
            res2 = max(
                res2,
                float(np.max(np.abs(eigs - closed_forms.example2_derivative_eigs(params)))),
            )
    checks.append(
        (
            "example 2: a=λ·diag(1,0), general qubit b",
            "deviation √(2(1−cos λt))|b12|, maximum 2|b12| at t=π/λ, derivative eigenvalues ±λ|b12|",
            res2,
        )
    )

    rng = np.random.default_rng(7)
    res3 = 0.0
    hadamard_p = np.full((2, 2), 0.5)
    for dim, proj in ((2, np.diag([1.0, 0.0])), (2, hadamard_p), (3, np.diag([1.0, 1.0, 0.0]))):
        p = validate_effect(proj)
        b3 = random_effect(dim, rng)
        for scale in (0.3, 1.0):
            a3 = validate_effect(scale * p.matrix)
            target = closed_forms.example3_constant_product(scale, p, b3, 0.0).matrix
            for t in np.linspace(0.0, 4.0 * math.pi, 17):
                diff = evolution.time_seq_product(a3, b3, t).matrix - target
                res3 = max(res3, float(linalg.operator_norms(diff)))
    checks.append(
        (
            "example 3: a=λp for a projection p",
            "a[t]b = λpbp = a∘b for all t (constant product)",
            res3,
        )
    )
    return checks


def cmd_examples(args) -> int:
    failures = 0
    for name, target, residual in _examples_report():
        ok = residual <= evolution.CROSS_CHECK_TOL
        failures += 0 if ok else 1
        print(f"{name}: {'PASS' if ok else 'FAIL'}  max residual {residual:.3e}")
        print(f"  target: {target}")
    return EXIT_OK if failures == 0 else EXIT_EXAMPLES_FAILED


def cmd_scan(args) -> int:
    cfg = ScanConfig(
        dim=args.dim,
        trials=args.trials,
        t_window=(args.tmin, args.tmax),
        seed=args.seed,
        commutator_floor=args.floor,
    )
    result = conjecture_scan(cfg)
    json_path = Path(f"{args.out}.json")
    csv_path = Path(f"{args.out}.csv")
    _rewrite(json_path, serialization.scan_json(cfg, result))
    _rewrite(csv_path, serialization.scan_csv(result))
    gap_note = "no records" if not result.records else (
        f"global min gap {min(r.min_gap for r in result.records):.3e}, "
        f"{result.summary['certified_positive']} certified positive on the window"
    )
    print(
        f"wrote {json_path} and {csv_path} ({len(result.records)} records, {gap_note})",
        file=sys.stderr,
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The effectdyn argument parser, built once per process and shared.

    Every call returns the same parser, so callers must not mutate it (no
    add_argument, set_defaults or similar). Parsing does not mutate it:
    parse_args builds a fresh namespace, with fresh lists, on each call.
    """
    parser = _Parser(
        prog="effectdyn",
        description="Quantum effect calculus under unitary time evolution. "
        "Data goes to stdout (scan: to files), diagnostics to stderr.",
        epilog="exit codes: 0 success, 1 an examples check failed, 2 invalid input or "
        "flag values, 3 a malformed input file. A negative time in exponent form may "
        "follow its flag as the next word: --t -1e-05. Run effectdyn COMMAND --help for "
        "the flags of a command.",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=DECISION_TOL,
        help="admission tolerance of every input and everything derived from it, "
        f"and of every yes/no decision (commutation, constancy; default {DECISION_TOL:g})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "validate",
        help="validate an operator or observable JSON file",
        description="Print valid: true or false, then for an effect or state its "
        "hermiticity_residual and eigenvalues (a state also its trace), for an "
        "observable its outcomes and sum_residual, or the reason it is invalid "
        "(exit 2).",
    )
    p.add_argument("file", help="operator or observable JSON file")
    p.add_argument(
        "--kind",
        choices=("effect", "state", "observable"),
        default="effect",
        help="what the file must hold (default %(default)s)",
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "evolve",
        help="emit a trajectory CSV on stdout",
        description="Write a CSV with one row per time of the grid t0 ... t1: the "
        "columns t; e_ij_re and e_ij_im (e_01_re: row 0, column 1), each entry of "
        "M(t) = b(t|a) (or a[t]b with --mode seqprod), written as its Hermitian part; deviation, "
        "||M(t) - M(0)||; and derivative_norm, ||dM/dt||, the same on every row. "
        "Every field is the text of '%.17g'.",
    )
    p.add_argument("a_file", help="effect generating the evolution")
    p.add_argument("b_file", help="effect being evolved")
    p.add_argument("--t0", type=_finite, default=0.0, help="first time (default %(default)s)")
    p.add_argument(
        "--t1", type=_finite, default=2.0 * math.pi, help="last time (default %(default)s, 2π)"
    )
    p.add_argument(
        "--steps",
        type=int,
        default=64,
        help=f"rows = steps + 1 (inclusive grid), at most {MAX_STEPS} (default %(default)s)",
    )
    p.add_argument(
        "--mode",
        choices=("evolution", "seqprod"),
        default="evolution",
        help="evolution: b(t|a); seqprod: a[t]b (default %(default)s)",
    )
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser(
        "classify",
        help="decide whether a[t]b is constant, and why",
        description="Print constant: true or false; reason: Commuting, ScaledProjection, "
        "CommutingOnSupport or Neither; residual, ||[a∘b, a]||; and for "
        "ScaledProjection (a = scale * p) the scale and projection_rank.",
    )
    p.add_argument("a_file", help="effect a")
    p.add_argument("b_file", help="effect b")
    p.set_defaults(func=cmd_classify)

    output = (
        "Write the result's observable document to stdout, or with --state, "
        '{"observable": ..., "distribution": ...}.'
    )
    p = sub.add_parser("observable", help="observable calculus on JSON files", description=output)
    obs_sub = p.add_subparsers(dest="obs_cmd", required=True)

    for name, (help_text, operands, _) in OBSERVABLE_COMMANDS.items():
        description = "Write {outcome: probability} as JSON." if name == "dist" else output
        q = obs_sub.add_parser(name, help=help_text, description=f"{help_text}. {description}")
        for operand in operands:
            flag, _, spec = _OPERANDS[operand]
            q.add_argument(flag, **spec)
        if "state" not in operands:
            q.add_argument("--state", default=None, help="also emit the distribution in this state")
        q.set_defaults(func=cmd_observable)

    p = sub.add_parser(
        "examples",
        help="re-run the built-in worked-example cross-checks",
        description="Recompute the built-in worked examples through the generic code and "
        "compare each with its closed form: one PASS or FAIL line per example, with its "
        "largest residual; exit 1 if one fails.",
    )
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser(
        "scan",
        help="randomized symmetry-gap search (writes JSON + CSV)",
        description="Search random noncommuting pairs for the smallest gap "
        "||a[t]b - b[t]a|| on the window, each with a certified lower bound. Writes "
        "PREFIX.json (config, summary, records) and PREFIX.csv (trial, "
        "commutator_norm, t_star, min_gap), each rewritten in place: an existing file "
        "is overwritten from its start and cut to the new length. A summary line goes "
        "to stderr.",
    )
    d = ScanConfig()  # the one home of every scan default
    p.add_argument("--dim", type=int, default=d.dim, help="dimension, 2 to 8 (default %(default)s)")
    p.add_argument("--trials", type=int, default=d.trials, help="pairs drawn (default %(default)s)")
    p.add_argument(
        "--seed",
        type=int,
        default=d.seed,
        help="trial k draws from the generator of (seed, k) (default %(default)s)",
    )
    p.add_argument(
        "--tmin",
        type=_finite,
        default=d.t_window[0],
        help="window start (default %(default)s, -4π)",
    )
    p.add_argument(
        "--tmax", type=_finite, default=d.t_window[1], help="window end (default %(default)s, 4π)"
    )
    p.add_argument(
        "--floor",
        type=_finite,
        default=d.commutator_floor,
        help="pairs with ||[a, b]|| below it are redrawn (default %(default)s)",
    )
    p.add_argument(
        "--out", default="scan", help="output prefix for .json/.csv (default %(default)s)"
    )
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (math.isfinite(args.tol) and args.tol > 0):
        print("error: --tol must be positive and finite", file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EffectdynError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
