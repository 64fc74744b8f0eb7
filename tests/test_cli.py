import argparse
import collections
import contextlib
import hashlib
import itertools
import json
import math
import os
import pathlib
import re
import sys
import tracemalloc

import numpy as np
import pytest

from effectdyn import (
    cli,
    closed_forms,
    evolution,
    explorer,
    identity_effect,
    serialization,
    validate_effect,
)
from effectdyn.errors import SchemaError
from effectdyn.serialization import operator_to_document
from effectdyn.observables import validate_observable

from support import (
    random_effect,
    reference_load,
    reference_load_error,
    state_faults,
    state_outcome,
)


def write_op(path, matrix):
    matrix = np.asarray(matrix, dtype=complex)
    path.write_text(serialization.operator_json(matrix), encoding="utf-8")
    return str(path)


def write_obs(path, matrices, outcomes):
    obs = validate_observable([validate_effect(m) for m in matrices], outcomes)
    path.write_text(serialization.observable_json(obs), encoding="utf-8")
    return str(path)


# Admitted at the default --tol; its eigenvalue gap 1 + 1.8e-9 times the
# largest float overflows, so every phase of a frame of it is out of range there.
EDGE = np.diag([-0.9e-9, 1.0 + 0.9e-9])
MAX_FLOAT = "1.7976931348623157e308"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("ops")
    p = np.diag([1.0, 0.0])
    b = np.full((2, 2), 0.5)
    out = {
        "a": write_op(root / "a.json", np.diag([1.0, 0.5])),
        "b": write_op(root / "b.json", b),
        "diag": write_op(root / "diag.json", np.diag([0.5, 0.25])),
        "sp": write_op(root / "sp.json", 0.3 * p),
        "rho": write_op(root / "rho.json", np.eye(2) / 2.0),
        "bad_entry": write_op(root / "bad_entry.json", np.diag([2.0, 0.0])),
        "hot": write_op(root / "hot.json", np.diag([1.0 + 5e-7, 0.5])),
        "third": write_op(root / "third.json", np.full((3, 3), 1.0 / 3.0)),
        "edge": write_op(root / "edge.json", EDGE),
        "obs_a": write_obs(root / "obs_a.json", [p, np.eye(2) - p], ["p", "q"]),
        "obs_edge": write_obs(root / "obs_edge.json", [EDGE, np.eye(2) - EDGE], ["e", "f"]),
        "obs_b": write_obs(root / "obs_b.json", [b, np.eye(2) - b], ["u", "v"]),
    }
    bad = root / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    out["bad_json"] = str(bad)
    out["root"] = root
    return out


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(capsys, argv):
    """The exit status of argv, whether returned or raised by argparse."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


# -- parser reuse -----------------------------------------------------------


def test_reused_parser_leaks_no_state(files, capsys):
    assert cli.build_parser() is cli.build_parser()
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    # a flag given once is not remembered by the next call
    assert run(capsys, ["--tol", "1e-6", "validate", files["hot"]])[0] == 0
    assert run(capsys, ["validate", files["hot"]])[0] == 2
    tcond = ["observable", "tcond", files["obs_a"], files["obs_b"], "--t", "0.4"]
    code, out, _ = run(capsys, [*tcond, "--state", files["rho"]])
    assert code == 0 and "distribution" in json.loads(out)
    code, out, _ = run(capsys, tcond)
    assert code == 0 and "distribution" not in json.loads(out)
    # nargs="+" and --weights lists are built afresh on every call
    alone = run(capsys, ["observable", "convex", "--weights", "1", files["obs_a"]])
    assert alone[0] == 0
    convex = ["observable", "convex", "--weights", ".5,.5", files["obs_a"], files["obs_a"]]
    assert run(capsys, convex)[0] == 0
    assert run(capsys, ["observable", "convex", "--weights", "1", files["obs_a"]]) == alone
    # an omitted --t falls back to its default, not to the last value given
    soft = np.diag([1.0, 0.5])  # not a scaled projection, so A[t]B moves with t
    obs_soft = write_obs(files["root"] / "obs_soft.json", [soft, np.eye(2) - soft], ["s", "r"])
    tseq = ["observable", "tseq", obs_soft, files["obs_b"]]
    at_one, at_zero = run(capsys, [*tseq, "--t", "1"]), run(capsys, [*tseq, "--t", "0"])
    assert at_one[1] != at_zero[1]
    assert run(capsys, tseq) == at_zero
    assert cli.build_parser() is parser


def test_argparse_exits_do_not_break_the_cached_parser(files, capsys):
    argv = ["observable", "tseq", files["obs_a"], files["obs_b"], "--t", "0.7",
            "--state", files["rho"]]
    before = run(capsys, argv)
    assert before[0] == 0
    for interruption, status in ((["observable", "tseq", "--bogus"], 2), (["--help"], 0),
                                 ([*argv, "--bogus"], 2), (["observable", "tseq", "--help"], 0)):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(interruption)
        assert excinfo.value.code == status, interruption
        capsys.readouterr()
        assert run(capsys, argv) == before, interruption


# -- the README's CLI synopsis ----------------------------------------------

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# One synopsis token: a flag, bracketed when optional, with its value (the
# default of an optional one), or a positional placeholder.
TOKEN = re.compile(r"(\[)?(--[a-z0-9-]+)(?: ([^\s\]]+))?\]?|(\S+)")


def subcommands(parser) -> dict:
    """The name -> parser map of a parser's subcommands, empty for a leaf."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def command_tree(parser, path=()):
    """(path, parser) of every command, the top level's path ()."""
    yield path, parser
    for name, sub in subcommands(parser).items():
        yield from command_tree(sub, (*path, name))


def long_flags(parser) -> dict:
    """Each --flag of a parser but --help, mapped to its action."""
    return {
        flag: action
        for action in parser._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }


def readme_cli() -> tuple[str, list[str]]:
    """The README's CLI section, and the lines of its synopsis, its first text block."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return section, section.split("```text\n", 1)[1].split("```", 1)[0].splitlines()


def readme_value(text: str):
    """A default as the synopsis writes it: a number, a multiple of π, or a word."""
    if text.endswith("π"):
        return float(text[:-1]) * math.pi
    try:
        return float(text)
    except ValueError:
        return text


def synopsis(line: str):
    """One synopsis line's command path, flags as {flag: (optional, value)} and positionals."""
    words = line.split()
    assert words[0] == "effectdyn", line
    parser, path = cli.build_parser(), []
    while len(words) > len(path) + 1 and words[len(path) + 1] in subcommands(parser):
        path.append(words[len(path) + 1])
        parser = subcommands(parser)[path[-1]]
    flags, positionals = {}, []
    for bracket, flag, value, positional in TOKEN.findall(" ".join(words[len(path) + 1 :])):
        if flag:
            assert flag not in flags, line
            flags[flag] = (bool(bracket), value or None)
        else:
            positionals.append(positional)
    return tuple(path), flags, positionals


def test_readme_synopsis_matches_the_parser():
    lines = readme_cli()[1]
    documented = {}
    for line in lines:
        path, flags, positionals = synopsis(line)
        assert path not in documented, f"two synopsis lines for {path}"
        documented[path] = flags, positionals
    for path, parser in command_tree(cli.build_parser()):
        declared = long_flags(parser)
        if subcommands(parser) and not declared:
            continue  # a group such as `observable`, documented by its subcommands' lines
        assert path in documented, f"effectdyn {' '.join(path)} has no synopsis line"
        flags, positionals = documented.pop(path)
        assert set(flags) - {"--help"} == set(declared), path
        for flag, action in declared.items():
            optional, value = flags[flag]
            assert optional == (not action.required), (path, flag)
            if not optional:
                continue
            assert value is not None, (path, flag)
            if action.default is None:  # no default: a placeholder in capitals
                assert value.isupper(), (path, flag, value)
            elif action.choices:  # the first choice listed is the default
                assert value.split("|") == list(action.choices), (path, flag)
                assert action.default == action.choices[0], (path, flag)
            else:
                assert readme_value(value) == action.default, (path, flag, value)
        if not subcommands(parser):
            arguments = [a for a in parser._actions if not a.option_strings]
            assert len(positionals) == len(arguments), path
    assert not documented, f"synopsis lines for commands the parser lacks: {list(documented)}"
    assert any("[--help]" in line for line in lines)


def test_readme_cli_section_names_only_parser_flags():
    section, lines = readme_cli()
    known = {flag for _, parser in command_tree(cli.build_parser()) for flag in long_flags(parser)}
    shown = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    assert shown - {"--help"} <= known, shown - known
    # the defaults a user reads first
    assert "[--tol 1e-9]" in lines[0]
    evolve, scan = synopsis(next(x for x in lines if " evolve A B" in x))[1], synopsis(lines[-1])[1]
    assert evolve["--steps"] == (True, "64")
    assert {f: scan[f][1] for f in ("--dim", "--trials", "--tmin", "--tmax", "--floor")} == {
        "--dim": "2", "--trials": "100", "--tmin": "-4π", "--tmax": "4π", "--floor": "1e-3"
    }


def test_every_command_has_help(capsys):
    helps = {}
    for path, _ in command_tree(cli.build_parser()):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*path, "--help"])
        assert excinfo.value.code == 0, path
        out = capsys.readouterr().out
        assert out.startswith(" ".join(["usage: effectdyn", *path])), path
        helps[path] = " ".join(out.split())
    # the help holds the per-flag and per-column detail the README leaves to it
    for column in ("t;", "e_ij_re", "e_ij_im", "deviation", "derivative_norm"):
        assert column in helps["evolve",], column
    assert "rewritten in place" in helps["scan",]
    assert "exit codes: 0 success" in helps[()]


# -- validate ---------------------------------------------------------------


def test_validate_effect_ok(files, capsys):
    code, out, err = run(capsys, ["validate", files["a"]])
    assert code == 0
    assert "valid: true" in out
    assert "eigenvalues: [0.5, 1]" in out
    assert err == ""


def test_validate_effect_out_of_range(files, capsys):
    code, out, _ = run(capsys, ["validate", files["bad_entry"]])
    assert code == 2
    assert "valid: false" in out
    assert "reason:" in out


def test_validate_overshoot_reports_value_and_bound(files, capsys):
    code, out, _ = run(capsys, ["validate", files["hot"]])
    assert code == 2
    assert "reason: eigenvalue 1.0000005 above 1 + 1e-09" in out


def test_validate_state(files, capsys):
    code, out, _ = run(capsys, ["validate", files["rho"], "--kind", "state"])
    assert code == 0
    assert "trace: 1" in out


def test_validate_state_rejects_effect_without_unit_trace(files, capsys):
    code, out, _ = run(capsys, ["validate", files["a"], "--kind", "state"])
    assert code == 2


def test_validate_observable(files, capsys):
    code, out, _ = run(capsys, ["validate", files["obs_a"], "--kind", "observable"])
    assert code == 0
    assert "outcomes: ['p', 'q']" in out
    assert "sum_residual:" in out


def test_validate_parse_failure(files, capsys):
    code, out, err = run(capsys, ["validate", files["bad_json"]])
    assert code == 3
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize(
    "value", ["NaN", "Infinity", pytest.param("1" + "0" * 400, id="beyond_float_range")]
)
def test_non_finite_entry_is_parse_failure(files, capsys, value):
    path = files["root"] / "entry.json"
    path.write_text(f'{{"dim": 1, "entries": [[[{value}, 0]]]}}', encoding="utf-8")
    code, out, err = run(capsys, ["validate", str(path)])
    assert (code, out) == (3, "")
    assert "finite" in err


@pytest.mark.parametrize(
    "document",
    ['{"dim": true, "entries": [[[1, 0]]]}', '{"dim": 1, "entries": [[[true, false]]]}'],
    ids=["dim", "entries"],
)
def test_boolean_in_operator_is_parse_failure(files, capsys, document):
    path = files["root"] / "boolean.json"
    path.write_text(document, encoding="utf-8")
    code, out, err = run(capsys, ["validate", str(path)])
    assert (code, out) == (3, "")
    assert "error:" in err


@pytest.mark.parametrize(
    "name, data",
    [
        ("deep.json", b"[" * 100_000 + b"]" * 100_000),
        ("non_utf8.json", b"\xff\xfe"),
        ("long_int.json", b'{"dim": 1, "entries": [[[' + b"1" * 5000 + b", 0]]]}"),
    ],
    ids=["nested_too_deeply", "non_utf8", "integer_beyond_digit_limit"],
)
@pytest.mark.parametrize("command", ["validate", "observable"])
def test_unreadable_json_is_parse_failure(files, capsys, name, data, command):
    path = files["root"] / name
    path.write_bytes(data)
    if command == "validate":
        argv = ["validate", str(path)]
    else:
        argv = ["observable", "seqprod", files["obs_a"], str(path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("error:") and err.count("\n") == 1
    if name == "non_utf8.json":
        assert str(path) in err


@pytest.mark.parametrize(
    "document, message",
    [
        ("[]", "observable document must be an object"),
        ('"yes"', "observable document must be an object"),
        ('{"effects": []}', "observable document missing fields: ['outcomes']"),
        ('{"outcomes": []}', "observable document missing fields: ['effects']"),
        ("{}", "observable document missing fields: ['effects', 'outcomes']"),
    ],
    ids=["array", "string", "no_outcomes", "no_effects", "empty_object"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--kind", "observable", "{path}"],
        ["observable", "dist", "{path}", "--state", "{rho}"],
        ["observable", "tseq", "{path}", "{obs_a}", "--t", "0.5"],
    ],
    ids=["validate", "dist", "tseq"],
)
def test_observable_document_of_the_wrong_form_is_parse_failure(
    files, capsys, document, message, argv
):
    path = files["root"] / "wrong_form.json"
    path.write_text(document, encoding="utf-8")
    code, out, err = run(capsys, [arg.format(path=path, **files) for arg in argv])
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_missing_file_is_invalid_input(files, capsys):
    code, _, err = run(capsys, ["validate", str(files["root"] / "nope.json")])
    assert code == 2
    assert "error:" in err


def test_unknown_flag_exits_2(files):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["validate", files["a"], "--bogus"])
    assert excinfo.value.code == 2


def test_tol_must_be_positive(files, capsys):
    code, _, err = run(capsys, ["--tol", "-1", "validate", files["a"]])
    assert code == 2
    assert "--tol" in err


def test_tol_override_loosens_validation(files, capsys):
    code, out, _ = run(capsys, ["validate", files["hot"]])
    assert code == 2
    code, out, _ = run(capsys, ["--tol", "1e-5", "validate", files["hot"]])
    assert code == 0
    assert "valid: true" in out


def test_tol_override_reaches_state_files(files, capsys):
    rho = write_op(files["root"] / "rho_hot.json", np.diag([1.0 + 1e-7, -1e-7]))
    dist = ["observable", "dist", files["obs_b"], "--state", rho]
    wrapped = ["observable", "seqprod", files["obs_a"], files["obs_b"], "--state", rho]
    for argv in (["validate", rho, "--kind", "state"], dist, wrapped):
        assert run(capsys, argv)[0] == 2
        code, out, err = run(capsys, ["--tol", "1e-6", *argv])
        assert (code, err) == (0, "")
    assert json.loads(run(capsys, ["--tol", "1e-6", *dist])[1]) == {"u": 0.5, "v": 0.5}
    # the probabilities are clamped at --tol too, not at the default tolerance
    dist = ["--tol", "1e-6", "observable", "dist", files["obs_a"], "--state", rho]
    assert json.loads(run(capsys, dist)[1]) == {"p": 1.0, "q": 0.0}


def test_tol_override_reaches_everything_derived(files, capsys):
    # a passes `--tol 1e-6 validate`, so every value derived from it must be
    # admitted, summed and clamped at that tolerance too, not at the default
    root = files["root"]
    a = np.diag([1.0 + 5e-7, 0.3])
    hot = write_op(root / "hot_a.json", a)
    doc = {"outcomes": ["x", "y"], "effects": [operator_to_document(a), operator_to_document(np.eye(2) - a)]}
    (root / "obs_hot.json").write_text(json.dumps(doc), encoding="utf-8")
    obs, pure = str(root / "obs_hot.json"), write_op(root / "pure.json", np.diag([1.0, 0.0]))
    assert run(capsys, ["--tol", "1e-6", "validate", hot])[0] == 0
    code, out, err = run(capsys, ["--tol", "1e-6", "classify", hot, write_op(root / "eye.json", np.eye(2))])
    assert (code, err) == (0, "") and "constant: true" in out
    for argv in (
        ["seqprod", obs, files["obs_a"]],
        ["tseq", obs, files["obs_a"], "--t", "1.3"],
        ["cond", obs, files["obs_a"]],
        ["tcond", obs, files["obs_a"], "--t", "1.3"],
        ["convex", "--weights", "0.5,0.5", obs, obs],
        ["dist", obs],
    ):
        code, out, err = run(capsys, ["--tol", "1e-6", "observable", *argv, "--state", pure])
        assert (code, err) == (0, ""), argv
        doc = json.loads(out)
        probabilities = list(doc.get("distribution", doc).values())
        assert all(0.0 <= p <= 1.0 for p in probabilities), (argv, probabilities)


def test_tol_compounds_for_products(files, capsys):
    # each operand overshoots 1 by 0.6 tol, within --tol 1e-6, so products of
    # two of them overshoot by 1.2 tol and must still be admitted
    root = files["root"]
    a = write_op(root / "over_a.json", np.diag([1.0 + 6e-7, 0.3]))
    b = write_op(root / "over_b.json", np.diag([1.0 + 6e-7, 0.2]))
    code, out, err = run(capsys, ["--tol", "1e-6", "classify", a, b])
    assert (code, err) == (0, "") and "constant: true" in out
    half = np.diag([0.5, 0.5])
    doc = {"outcomes": ["x", "y"], "effects": [operator_to_document(half + np.diag([6e-7, 0.0])),
                                               operator_to_document(half)]}
    (root / "obs_over.json").write_text(json.dumps(doc), encoding="utf-8")
    obs = str(root / "obs_over.json")
    for argv in (["seqprod", obs, obs], ["tseq", obs, obs, "--t", "0.4"], ["cond", obs, obs],
                 ["tcond", obs, obs, "--t", "0.4"]):
        code, _, err = run(capsys, ["--tol", "1e-6", "observable", *argv])
        assert (code, err) == (0, ""), argv


def test_evolve_rows_and_header(files, capsys):
    code, out, _ = run(capsys, ["evolve", files["a"], files["b"], "--steps", "4"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert lines[0].startswith("t,e_00_re,e_00_im,")
    assert lines[0].endswith("deviation,derivative_norm")


def test_evolve_single_point(files, capsys):
    code, out, _ = run(
        capsys,
        ["evolve", files["a"], files["b"], "--t0", str(math.pi), "--t1", str(math.pi), "--steps", "0"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    row = [float(v) for v in lines[1].split(",")]
    # b(pi|a) off-diagonal is -i/2 for the built-in qubit pair
    assert abs(row[3]) < 1e-12 and abs(row[4] + 0.5) < 1e-12
    assert abs(row[10] - 0.25) < 1e-12  # derivative norm is 1/4 at every t


def test_evolve_commuting_pair_is_flat(files, capsys):
    code, out, _ = run(capsys, ["evolve", files["a"], files["diag"], "--steps", "8"])
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        row = [float(v) for v in line.split(",")]
        assert row[-2] < 1e-12 and row[-1] < 1e-12


def test_evolve_seqprod_deviation(files, capsys):
    code, out, _ = run(
        capsys,
        [
            "evolve", files["a"], files["b"],
            "--mode", "seqprod", "--t0", "0", "--t1", str(math.pi), "--steps", "1",
        ],
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert float(rows[0][-2]) == 0.0
    assert abs(float(rows[1][-2]) - 0.5) < 1e-12


@pytest.mark.parametrize("mode", ["evolution", "seqprod"])
def test_evolve_rows_mirror_their_upper_triangle(capsys, tmp_path, rng, mode):
    # below the diagonal each row repeats the texts above it, the imaginary
    # ones negated, and every entry stays within 2.2e-16 of the frame's
    def negated(text):
        return text[1:] if text.startswith("-") else text if text == "nan" else "-" + text

    for dim in (1, 2, 3, 5, 8):
        a, b = random_effect(dim, rng), random_effect(dim, rng)
        paths = [write_op(tmp_path / f"{x}.json", e.matrix) for x, e in (("a", a), ("b", b))]
        code, out, _ = run(capsys, ["evolve", *paths, "--steps", "16", "--mode", mode])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 17
        texts = np.array([row[1:-2] for row in rows]).reshape(17, dim, dim, 2)
        for i in range(dim):
            for j in range(i):
                assert (texts[:, i, j, 0] == texts[:, j, i, 0]).all()
                assert list(texts[:, i, j, 1]) == [negated(x) for x in texts[:, j, i, 1]]
        values = texts.astype(float)
        times = np.array([float(row[0]) for row in rows])
        frames = {"evolution": evolution.EigenFrame.evolution, "seqprod": evolution.EigenFrame.product}
        m = frames[mode](a, b).at(times)
        assert np.abs(values[..., 0] - m.real).max() <= 2.2e-16
        assert np.abs(values[..., 1] - m.imag).max() <= 2.2e-16


def test_evolve_dimension_mismatch_is_invalid_input(files, capsys, tmp_path):
    b3 = write_op(tmp_path / "b3.json", np.full((3, 3), 1.0 / 3.0))
    for mode in ("evolution", "seqprod"):
        code, _, err = run(capsys, ["evolve", files["a"], b3, "--mode", mode])
        assert code == 2
        assert "error:" in err


@pytest.mark.parametrize(
    "argv, dims",
    [
        (["evolve", "a", "third", "--mode", "evolution"], (2, 3)),
        (["evolve", "a", "third", "--mode", "seqprod"], (2, 3)),
        (["classify", "a", "third"], (2, 3)),
        (["observable", "evolve", "obs_a", "third", "--t", "0.9"], (3, 2)),
        (["observable", "tseq", "obs_a", "obs_third", "--t", "0.9"], (2, 3)),
        (["observable", "dist", "obs_a", "--state", "rho_third"], (3, 2)),
    ],
    ids=["evolve", "evolve-seqprod", "classify", "observable-evolve", "observable-tseq", "dist"],
)
def test_operands_of_two_dimensions_give_one_mismatch_line(files, capsys, tmp_path, argv, dims):
    third = np.full((3, 3), 1.0 / 3.0)
    paths = {
        **files,
        "obs_third": write_obs(tmp_path / "obs3.json", [third, np.eye(3) - third], ["x", "y"]),
        "rho_third": write_op(tmp_path / "rho3.json", np.eye(3) / 3.0),
    }
    code, out, err = run(capsys, [paths.get(arg, arg) for arg in argv])
    assert (code, out, err) == (2, "", f"error: dimension mismatch: {dims}\n")


def test_evolve_negative_steps_is_invalid_input(files, capsys):
    code, _, err = run(capsys, ["evolve", files["a"], files["b"], "--steps", "-3"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("steps", ["1000000000000", "100000000000000000000", str(cli.MAX_STEPS + 1)])
def test_evolve_too_many_steps_is_refused_before_any_grid(files, capsys, monkeypatch, steps):
    # refused up front, whatever the machine's memory: no grid is formed
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was formed")

    monkeypatch.setattr(cli.np, "linspace", no_grid)
    code, out, err = run(capsys, ["evolve", files["a"], files["b"], "--steps", steps])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "--steps" in err


def test_evolve_out_of_memory_is_invalid_input(files, capsys, monkeypatch):
    # a grid within MAX_STEPS that still does not fit is reported, not a traceback
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(serialization, "trajectory_csv", exhausted)
    code, out, err = run(capsys, ["evolve", files["a"], files["b"], "--steps", "64"])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "--steps 64" in err


def _evolve_pair(tmp_path, dim, rng):
    return [write_op(tmp_path / f"{name}.json", random_effect(dim, rng).matrix) for name in "ab"]


def _one_shot_csv(paths, mode, times):
    """trajectory_csv of the whole grid in one call, as evolve wrote it before it wrote blocks."""
    a, b = (validate_effect(serialization.parse_operator_json(open(p).read())) for p in paths)
    frame = (evolution.EigenFrame.evolution if mode == "evolution" else evolution.EigenFrame.product)(a, b)
    return serialization.trajectory_csv(times, *frame.trajectory(times))


@pytest.mark.parametrize("steps", [0, 5, 6, 13, 40])
def test_evolve_in_blocks_matches_one_trajectory_csv(tmp_path, capsys, monkeypatch, rng, steps):
    # 1 to 6 blocks of 7 rows, the last one full or not: one header, every row once
    monkeypatch.setattr(cli, "BLOCK_ROWS", 7)
    paths = _evolve_pair(tmp_path, 3, rng)
    for mode in ("evolution", "seqprod"):
        argv = ["evolve", *paths, "--t0", "-0.3", "--t1", "2.9", "--steps", str(steps), "--mode", mode]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == _one_shot_csv(paths, mode, np.linspace(-0.3, 2.9, steps + 1))


class _HashingSink:
    """A stdout that keeps only a digest of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode("ascii"))
        return len(text)


def test_evolve_memory_is_bounded_by_the_block(tmp_path, monkeypatch, rng):
    # the peak of 16 blocks is that of 4: the grid is formed and written
    # block by block, and the bytes are those of the one-shot text
    monkeypatch.setattr(cli, "BLOCK_ROWS", 64)
    paths = _evolve_pair(tmp_path, 8, rng)
    with contextlib.redirect_stdout(_HashingSink()):  # build the cached tables first
        cli.main(["evolve", *paths, "--steps", "1"])
    peaks = []
    for blocks in (4, 16):
        steps = 64 * blocks - 1
        sink = _HashingSink()
        stdout, sys.stdout = sys.stdout, sink
        tracemalloc.start()
        try:
            assert cli.main(["evolve", *paths, "--steps", str(steps)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            sys.stdout = stdout
        text = _one_shot_csv(paths, "evolution", np.linspace(0.0, 2.0 * math.pi, steps + 1))
        assert sink.digest.hexdigest() == hashlib.sha256(text.encode("ascii")).hexdigest()
    assert peaks[1] < 1.2 * peaks[0], peaks


def test_evolve_rotates_each_time_once(files, capsys, monkeypatch):
    rotated = evolution.EigenFrame._rotated
    calls = []

    def counting(self, t, order=0):
        calls.append(np.size(t))
        return rotated(self, t, order)

    monkeypatch.setattr(evolution.EigenFrame, "_rotated", counting)
    for mode in ("evolution", "seqprod"):
        calls.clear()
        code, _, _ = run(capsys, ["evolve", files["a"], files["b"], "--steps", "8", "--mode", mode])
        assert code == 0 and calls == [9]


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "@edge", "@b", "--t0", "0", "--t1", MAX_FLOAT, "--steps", "1"],
        ["observable", "evolve", "@obs_b", "@edge", "--t", MAX_FLOAT],
        ["observable", "tseq", "@obs_edge", "@obs_b", "--t", MAX_FLOAT],
        ["observable", "tcond", "@obs_edge", "@obs_b", "--t", MAX_FLOAT],
    ],
    ids=["evolve", "observable evolve", "observable tseq", "observable tcond"],
)
def test_finite_time_whose_phase_overflows_is_invalid_input(files, capsys, argv):
    code, out, err = run(capsys, [str(files[x[1:]]) if x[0] == "@" else x for x in argv])
    assert (code, out) == (2, "")
    assert err == "error: phase t*(w_j - w_k) must be finite, got |t| = 1.7976931348623157e+308\n"


# -- classify ---------------------------------------------------------------


def test_classify_nonconstant(files, capsys):
    code, out, _ = run(capsys, ["classify", files["a"], files["b"]])
    assert code == 0
    assert "constant: false" in out
    assert "reason: Neither" in out
    assert f"residual: {2.0 ** -2.5:.17g}" in out


def test_classify_commuting(files, capsys):
    code, out, _ = run(capsys, ["classify", files["a"], files["diag"]])
    assert code == 0
    assert "constant: true" in out
    assert "reason: Commuting" in out


def test_classify_scaled_projection(files, capsys):
    code, out, _ = run(capsys, ["classify", files["sp"], files["b"]])
    assert code == 0
    assert "constant: true" in out
    assert "reason: ScaledProjection" in out
    scale_line = next(ln for ln in out.split("\n") if ln.startswith("scale:"))
    assert abs(float(scale_line.split(":")[1]) - 0.3) < 1e-15
    assert "projection_rank: 1" in out


def test_classify_tol_override(files, capsys):
    code, out, _ = run(capsys, ["--tol", "1.0", "classify", files["a"], files["b"]])
    assert code == 0
    assert "constant: true" in out


def test_classify_at_a_tolerance_below_eps(files, capsys):
    # every entry 1/3: admitted at --tol 1e-16, its product with itself has an
    # eigenvalue near -6e-17, inside the compound tolerance of about 2e-16
    third = files["third"]
    assert run(capsys, ["--tol", "1e-16", "validate", third])[0] == 0
    code, _, err = run(capsys, ["--tol", "1e-16", "classify", third, third])
    assert code == 0, err


# -- observable -------------------------------------------------------------


def test_observable_dist(files, capsys):
    code, out, _ = run(capsys, ["observable", "dist", files["obs_a"], "--state", files["rho"]])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"p": 0.5, "q": 0.5}


def test_observable_calls_are_looked_up_when_the_command_runs(files, capsys, monkeypatch):
    # a rebinding of a library call in effectdyn.cli, as a tracing wrapper makes,
    # is what the observable subcommands call
    calls = collections.Counter()
    for name in ("obs_time_seq_product", "distribution"):

        def counting(*args, _call=getattr(cli, name), _name=name):
            calls[_name] += 1
            return _call(*args)

        monkeypatch.setattr(cli, name, counting)
    tseq = ["observable", "tseq", files["obs_a"], files["obs_b"], "--t", "0.4"]
    assert run(capsys, tseq)[0] == 0
    assert calls == {"obs_time_seq_product": 1}
    assert run(capsys, ["observable", "dist", files["obs_a"], "--state", files["rho"]])[0] == 0
    assert calls == {"obs_time_seq_product": 1, "distribution": 1}


def test_observable_seqprod_labels(files, capsys):
    code, out, _ = run(capsys, ["observable", "seqprod", files["obs_a"], files["obs_b"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["outcomes"] == ["p⊗u", "p⊗v", "q⊗u", "q⊗v"]
    assert len(doc["effects"]) == 4


def test_observable_tseq_at_zero_matches_seqprod(files, capsys):
    code, out_seq, _ = run(capsys, ["observable", "seqprod", files["obs_a"], files["obs_b"]])
    assert code == 0
    code, out_tseq, _ = run(
        capsys, ["observable", "tseq", files["obs_a"], files["obs_b"], "--t", "0"]
    )
    assert code == 0
    assert out_tseq == out_seq


@pytest.mark.parametrize("sub", ["tseq", "tcond"])
def test_observable_products_at_large_t(sub, tmp_path, capsys):
    # at t = 1e8 the phases round by about 1e-8 rad; each a[t]b still passes,
    # as its frame's cross-check, made when it is built, holds at every t
    rng = np.random.default_rng(3)
    paths = []
    for name in ("obs_a", "obs_b"):
        m = explorer.random_effect(4, rng).matrix
        paths.append(write_obs(tmp_path / f"{name}.json", [m, np.eye(4) - m], ["y", "n"]))
    code, out, err = run(capsys, ["observable", sub, *paths, "--t", "1e8"])
    assert (code, err) == (0, "")
    assert json.loads(out)["effects"]


@pytest.mark.parametrize("sub", ["tseq", "tcond"])
def test_observable_products_at_huge_t(sub, tmp_path, capsys):
    # at t = 1e11 each a[t]b keeps the spectrum of a∘b: phases rounded entry
    # by entry used to push one below -tol, "eigenvalue -2.87e-09 below ...", exit 2
    rng = np.random.default_rng(3)
    paths = []
    for name in ("obs_a", "obs_b"):
        m = explorer.random_effect(6, rng).matrix
        paths.append(write_obs(tmp_path / f"{name}.json", [m, np.eye(6) - m], ["y", "n"]))
    code, out, err = run(capsys, ["observable", sub, *paths, "--t", "1e11"])
    assert (code, err) == (0, "")
    assert json.loads(out)["effects"]


def test_observable_tcond_at_zero_matches_cond(files, capsys):
    code, out_cond, _ = run(capsys, ["observable", "cond", files["obs_a"], files["obs_b"]])
    assert code == 0
    code, out_tcond, _ = run(
        capsys, ["observable", "tcond", files["obs_a"], files["obs_b"], "--t", "0"]
    )
    assert code == 0
    assert out_tcond == out_cond


def test_observable_tcond_is_tseq_marginal(files, capsys):
    code, out_tseq, _ = run(
        capsys, ["observable", "tseq", files["obs_a"], files["obs_b"], "--t", "1.3"]
    )
    code, out_tcond, _ = run(
        capsys, ["observable", "tcond", files["obs_a"], files["obs_b"], "--t", "1.3"]
    )
    tseq_out, tseq_mats = serialization.parse_observable_document(json.loads(out_tseq))
    tcond_out, tcond_mats = serialization.parse_observable_document(json.loads(out_tcond))
    for k, label in enumerate(tcond_out):
        total = sum(
            m for lab, m in zip(tseq_out, tseq_mats) if lab.endswith("⊗" + label)
        )
        assert np.max(np.abs(total - tcond_mats[k])) < 1e-12


def test_observable_evolve(files, capsys):
    code, out, _ = run(
        capsys, ["observable", "evolve", files["obs_b"], files["a"], "--t", "2.0"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcomes"] == ["u", "v"]


def test_observable_state_wrapper(files, capsys):
    code, out, _ = run(
        capsys,
        ["observable", "seqprod", files["obs_a"], files["obs_b"], "--state", files["rho"]],
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc.keys()) == {"observable", "distribution"}
    assert abs(sum(doc["distribution"].values()) - 1.0) < 1e-12


def test_observable_convex(files, capsys):
    code, out, _ = run(
        capsys,
        ["observable", "convex", "--weights", "0.25,0.75", files["obs_a"], files["obs_a"]],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["outcomes"] == ["p", "q"]


def test_observable_convex_bad_weights(files, capsys):
    code, _, err = run(
        capsys,
        ["observable", "convex", "--weights", "0.5,0.6", files["obs_a"], files["obs_a"]],
    )
    assert code == 2
    assert "error:" in err


def test_observable_convex_outcome_mismatch(files, capsys):
    code, _, err = run(
        capsys,
        ["observable", "convex", "--weights", "0.5,0.5", files["obs_a"], files["obs_b"]],
    )
    assert code == 2


def test_observable_convex_count_and_dimension_mismatch(files, capsys):
    p3 = np.diag([1.0, 0.0, 0.0])
    obs_a3 = write_obs(files["root"] / "obs_a3.json", [p3, np.eye(3) - p3], ["p", "q"])
    for weights, second in (("0.5,0.5", obs_a3), ("0.5,0.25,0.25", files["obs_a"])):
        argv = ["observable", "convex", "--weights", weights, files["obs_a"], second]
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_colliding_product_labels_are_invalid_input(files, capsys):
    # both files are valid; only their product labels collide: a⊗b ⊗ c = a ⊗ b⊗c
    p = np.diag([1.0, 0.0])
    a = write_obs(files["root"] / "collide_a.json", [p, np.eye(2) - p], ["a⊗b", "a"])
    b = write_obs(files["root"] / "collide_b.json", [p, np.eye(2) - p], ["c", "b⊗c"])
    message = (
        "error: outcome pairs ('a⊗b', 'c') and ('a', 'b⊗c') both give the product "
        "label 'a⊗b⊗c'\n"
    )
    for argv in (["seqprod", a, b], ["tseq", a, b, "--t", "0.5"]):
        assert run(capsys, ["observable", *argv]) == (2, "", message), argv
    # (B|A) keeps B's labels, so the same files are fine there
    assert run(capsys, ["observable", "cond", a, b])[0] == 0


def _write_raw_observable(path, matrices, outcomes):
    """An observable file whose members are written as given, unvalidated."""
    doc = {"outcomes": outcomes, "effects": [operator_to_document(np.asarray(m, complex)) for m in matrices]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_observable_file_errors_come_member_by_member(files, capsys):
    low = np.diag([1.5, -0.5])  # out of range below and above: below is reported
    skew = np.array([[0.5, 1.0], [0.0, 0.5]])  # not Hermitian, spectrum in range
    skew_high = np.array([[1.5, 1.0], [0.0, 0.5]])  # not Hermitian and out of range
    in_range = np.diag([0.5, 0.25])
    root = files["root"]
    cases = [
        ([low, skew], "eigenvalue -0.5 below -1e-09"),
        ([skew, low], "hermiticity defect 1.000e+00 exceeds tolerance 1.000e-10"),
        ([in_range, skew_high], "hermiticity defect 1.000e+00 exceeds tolerance 1.500e-10"),
        ([in_range, 4 * in_range, skew], "eigenvalue 2.0 above 1 + 1e-09"),
    ]
    for k, (members, message) in enumerate(cases):
        labels = [f"m{i}" for i in range(len(members))]
        path = _write_raw_observable(root / f"raw{k}.json", members, labels)
        code, _, err = run(capsys, ["observable", "cond", path, files["obs_a"]])
        assert (code, err) == (2, f"error: {message}\n"), members
        code, out, _ = run(capsys, ["validate", "--kind", "observable", path])
        assert (code, out) == (2, f"valid: false\nreason: {message}\n"), members


def test_observable_file_of_mixed_dimensions_is_invalid_input(files, capsys):
    root = files["root"]
    mixed = _write_raw_observable(root / "mixed.json", [np.eye(2) / 2, np.eye(3) / 2], ["x", "y"])
    code, _, err = run(capsys, ["observable", "tseq", mixed, mixed])
    assert (code, err) == (2, "error: dimension mismatch: (2, 3)\n")
    # each member is admitted before the dimensions are compared
    bad = _write_raw_observable(root / "mixed_bad.json", [np.eye(2) / 2, 2 * np.eye(3)], ["x", "y"])
    code, _, err = run(capsys, ["validate", "--kind", "observable", bad])
    assert code == 2
    code, _, err = run(capsys, ["observable", "tcond", files["obs_a"], bad])
    assert (code, err) == (2, "error: eigenvalue 2.0 above 1 + 1e-09\n")


# Hermitian, with every part of every entry finite, but |z| of its
# off-diagonal entries passes the float range, so its eigenvalues are NaN.
OVERFLOW = np.array([[0.5, 1.5e308 + 1.5e308j], [1.5e308 - 1.5e308j, 0.5]])


# 0.5 I plus an anti-Hermitian part: |M - M†| and max|M| both pass the float range.
ANTI = np.array([[0.5, 1.5e308 + 1.5e308j], [-1.5e308 + 1.5e308j, 0.5]])


def test_an_observable_file_gets_one_exit_code_from_every_command(files, capsys):
    # a file that parses but is not an observable fails alike in validate and in
    # every observable subcommand: repeated labels and no effects are malformed
    # input (exit 3, one error line), members of two dimensions invalid input (exit 2)
    root = files["root"]
    half = np.eye(2) / 2
    cases = [
        ("dup", [half, half], ["x", "x"], 3, "outcome labels must be unique"),
        ("empty", [], [], 3, "an observable needs at least one effect"),
        ("mixed", [half, np.eye(3) / 2], ["x", "y"], 2, "dimension mismatch: (2, 3)"),
    ]
    for name, members, labels, expected, message in cases:
        path = _write_raw_observable(root / f"one_code_{name}.json", members, labels)
        code, out, err = run(capsys, ["validate", "--kind", "observable", path])
        if expected == 2:
            assert (code, out, err) == (2, f"valid: false\nreason: {message}\n", ""), name
        else:
            assert (code, out, err) == (3, "", f"error: {message}\n"), name
        for argv in (
            ["dist", path, "--state", files["rho"]],
            ["seqprod", path, path],
            ["tseq", path, path, "--t", "0.5"],
            ["cond", path, path],
            ["tcond", path, path, "--t", "0.5"],
            ["evolve", path, files["a"], "--t", "0.5"],
            ["convex", "--weights", "1", path],
        ):
            code, out, err = run(capsys, ["observable", *argv])
            assert (code, out, err) == (expected, "", f"error: {message}\n"), (name, argv)


def _operand_faults(root, kind):
    """One file per fault of an operand of ``kind``, "effect", "observable" or "state", by name."""
    root.mkdir()
    paths = {"missing": str(root / "missing.json")}
    for fault, data in (("non_utf8", b"\xff\xfe"), ("malformed", b"{not json")):
        (root / f"{fault}.json").write_bytes(data)
        paths[fault] = str(root / f"{fault}.json")
    members = {
        "none": np.diag([1.0, 0.5]),
        "non_hermitian": np.array([[0.5, 1.0], [0.0, 0.5]]),
        "out_of_range": np.diag([2.0, 0.0]),
        "non_finite": OVERFLOW,
        "anti_hermitian_overflow": ANTI,
    }
    if kind == "state":
        members.update(none=np.diag([0.75, 0.25]), out_of_range=np.diag([1.5, -0.5]))
        members.update(trace=np.diag([0.3, 0.3]), trace_overflow=np.diag([1.7e308, 1.7e308]))
    for fault, m in members.items():
        if kind != "observable":
            paths[fault] = write_op(root / f"{fault}.json", m)
        else:
            paths[fault] = _write_raw_observable(root / f"{fault}.json", [m, np.eye(2) - m], ["x", "y"])
    if kind == "observable":
        half = np.eye(2) / 2
        paths["bad_sum"] = _write_raw_observable(root / "bad_sum.json", [half, half / 2], ["x", "y"])
        paths["mixed_dims"] = _write_raw_observable(
            root / "mixed_dims.json", [np.eye(2) / 2, np.eye(3) / 2], ["x", "y"]
        )
    return paths


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, kinds",
    [
        (["classify", "{}", "{}"], ("effect", "effect")),
        (["evolve", "--steps", "2", "{}", "{}"], ("effect", "effect")),
        (["observable", "tseq", "--t", "0.5", "{}", "{}"], ("observable", "observable")),
        (["observable", "cond", "{}", "{}"], ("observable", "observable")),
        (["observable", "dist", "{}", "--state", "{}"], ("observable", "state")),
        (
            ["observable", "tcond", "{}", "{}", "--t", "0.3", "--state", "{}"],
            ("observable", "observable", "state"),
        ),
    ],
    ids=["classify", "evolve", "tseq", "cond", "dist", "tcond_state"],
)
def test_operand_errors_are_those_of_loading_file_by_file(tmp_path, capsys, argv, kinds):
    # every combination of faults across the operand files gives the exit code
    # and stderr of reading and admitting the files one after another
    faults = {kind: _operand_faults(tmp_path / kind, kind) for kind in set(kinds)}
    for names in itertools.product(*(faults[kind] for kind in kinds)):
        paths = [faults[kind][name] for kind, name in zip(kinds, names)]
        slots = iter(paths)
        code, out, err = run(capsys, [next(slots) if arg == "{}" else arg for arg in argv])
        expected = reference_load_error(list(zip(kinds, paths)), 1e-9)
        if expected is None:
            assert (code, err) == (0, ""), names
        else:
            assert (code, out, err) == (expected[0], "", expected[1]), names


def test_one_eigensolve_admits_every_operand_file(files, monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    effects = [("effect", files["a"]), ("effect", files["b"])]
    loaded = cli._load(effects, 1e-9)
    assert shapes == [(2, 2, 2)]  # both files of classify, in one call
    observables = [("observable", files["obs_a"]), ("observable", files["obs_b"])]
    shapes.clear()
    observed = cli._load(observables, 1e-9)
    assert shapes == [(4, 2, 2), (2, 2), (2, 2)]  # both observables, then each sum check
    with_state = [("observable", files["obs_a"]), ("state", files["rho"])]
    shapes.clear()
    obs_a, rho = cli._load(with_state, 1e-9)
    assert shapes == [(3, 2, 2), (2, 2)]  # the members and the state, then the sum check
    monkeypatch.undo()
    ref = reference_load(*with_state[1], 1e-9)
    assert (rho.matrix.tobytes(), rho.tol) == (ref.matrix.tobytes(), ref.tol)
    pairs = list(zip(loaded, [reference_load(*f, 1e-9) for f in effects]))
    for obs, ref in zip(observed, [reference_load(*f, 1e-9) for f in observables]):
        assert (obs.outcomes, obs.sum_residual) == (ref.outcomes, ref.sum_residual)
        pairs += zip(obs.effects, ref.effects)
    for got, ref in pairs:
        assert got.matrix.tobytes() == ref.matrix.tobytes()
        assert (got.eig_min, got.eig_max, got.tol) == (ref.eig_min, ref.eig_max, ref.tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", range(1, 9))
def test_a_state_file_is_admitted_as_the_reference_admits_it(tmp_path, dim):
    # every fault an operator document can carry; the others fail to parse
    for fault, m in state_faults(dim, np.random.default_rng(dim)).items():
        if m.ndim == 2 and 0 < m.shape[0] == m.shape[1] and np.isfinite(m).all():
            path = write_op(tmp_path / f"{fault}.json", m)
            got = state_outcome(lambda: cli._load([("state", path)], 1e-9)[0])
            assert got == state_outcome(reference_load, "state", path, 1e-9), fault


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["validate", "{a}"], [(1, 2, 2)]),
        (["validate", "--kind", "state", "{rho}"], [(1, 2, 2)]),
        (["validate", "--kind", "observable", "{obs_a}"], [(2, 2, 2), (2, 2)]),
        (["classify", "{a}", "{b}"], [(2, 2, 2), (1, 2, 2)]),
        (["observable", "dist", "{obs_a}", "--state", "{rho}"], [(3, 2, 2), (2, 2)]),
        (["observable", "tcond", "{obs_a}", "{obs_a}", "--t", "0.3", "--state", "{rho}"], None),
    ],
    ids=["validate", "validate_state", "validate_observable", "classify", "dist", "tcond"],
)
def test_each_matrix_a_command_reads_is_eigensolved_once(files, capsys, monkeypatch, argv, calls):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert run(capsys, [arg.format(**files) for arg in argv])[0] == 0
    if calls is None:  # the state joins both observables' members in the first call
        assert len(shapes) == 7 and shapes[0] == (5, 2, 2)
    else:
        assert shapes == calls


def test_a_faulty_state_is_reported_before_an_error_of_the_computation(files, capsys):
    # both observables load, but their product labels collide: a⊗ ⊗ b = a ⊗ ⊗b
    p = np.diag([1.0, 0.0])
    a = write_obs(files["root"] / "collide_left.json", [p, np.eye(2) - p], ["a⊗", "a"])
    b = write_obs(files["root"] / "collide_right.json", [p, np.eye(2) - p], ["b", "⊗b"])
    tseq = ["observable", "tseq", a, b, "--t", "0.5"]
    code, _, err = run(capsys, tseq)
    assert (code, err) == (2, "error: outcome pairs ('a⊗', 'b') and ('a', '⊗b') both give the "
                              "product label 'a⊗⊗b'\n")
    code, out, err = run(capsys, [*tseq, "--state", files["a"]])
    assert (code, out, err) == (2, "", "error: trace 1.5 differs from 1 beyond 1e-10\n")
    code, out, err = run(capsys, [*tseq, "--state", files["bad_json"]])
    assert code == 3 and out == "" and err.startswith("error: invalid JSON")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{anti}"],
        ["validate", "--kind", "state", "{anti}"],
        ["validate", "--kind", "observable", "{anti_obs}"],
        ["classify", "{anti}", "{b}"],
        ["classify", "{b}", "{anti}"],
        ["observable", "dist", "{obs_b}", "--state", "{anti}"],
    ],
)
def test_a_defect_beyond_the_float_range_is_non_hermitian(files, capsys, argv):
    root = files["root"]
    paths = {
        "anti": write_op(root / "anti.json", ANTI),
        "anti_obs": _write_raw_observable(
            root / "anti_obs.json", [ANTI, np.eye(2) - ANTI], ["x", "y"]
        ),
        **files,
    }
    code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    message = "hermiticity defect inf exceeds tolerance 2.121e+298\n"
    assert code == 2
    if argv[0] == "validate":
        assert out.startswith("valid: false\n") and out.endswith(f"reason: {message}") and err == ""
    else:
        assert (out, err) == ("", f"error: {message}")


def test_every_operand_file_is_read_before_any_is_admitted(files, capsys, monkeypatch):
    read, read_text = [], cli._read_text
    monkeypatch.setattr(cli, "_read_text", lambda path: read.append(path) or read_text(path))
    code, _, err = run(capsys, ["classify", files["bad_entry"], files["b"]])
    assert (code, err) == (2, "error: eigenvalue 2.0 above 1 + 1e-09\n")
    assert read == [files["bad_entry"], files["b"]]
    # a file that fails to parse stops the reading there
    read.clear()
    code, _, err = run(capsys, ["observable", "tseq", files["bad_json"], files["obs_b"]])
    assert code == 3 and read == [files["bad_json"]]


@pytest.mark.parametrize(
    "data",
    [b'{"dim": 1}\n', b"a\r\nb\r\n", b"a\rb\r", b"a\r\r\nb\rc\n\r", "\ufeff{}".encode(), b"", "é\r\n".encode()],
    ids=["lf", "crlf", "lone_cr", "mixed", "bom", "empty", "non_ascii"],
)
def test_read_text_is_path_read_text(tmp_path, data):
    path = tmp_path / "file.json"
    path.write_bytes(data)
    assert cli._read_text(str(path)) == path.read_text(encoding="utf-8")


def test_read_text_raises_what_path_read_text_raises(tmp_path):
    for name, data in [("start", b"\xff\xfe"), ("late", b" " * 20000 + b"\xc3("), ("cut", b"{\xe2\x82")]:
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as ref:
            path.read_text(encoding="utf-8")
        with pytest.raises(SchemaError) as got:
            cli._read_text(str(path))
        assert str(got.value) == f"{path} is not UTF-8 text: {ref.value}"
    for path in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(OSError) as ref:
            path.read_text(encoding="utf-8")
        with pytest.raises(OSError) as got:
            cli._read_text(str(path))
        assert (type(got.value), str(got.value)) == (type(ref.value), str(ref.value))


# Finite entries whose M + M† overflows: each admission must still see the
# spectrum and refuse it, on an eigenvalue of +-1e308 or, where one
# overflows to inf, as not finite, and a state's diagonal may sum to inf,
# with no RuntimeWarning on the way.
HUGE = np.full((2, 2), 1e308)
HUGE_STATE = np.array([[0.5, 1e308], [1e308, 0.5]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{huge}"],
        ["validate", "--kind", "state", "{huge_state}"],
        ["validate", "--kind", "state", "{huge}"],
        ["validate", "--kind", "observable", "{huge_obs}"],
        ["classify", "{huge}", "{b}"],
        ["observable", "dist", "{obs_b}", "--state", "{huge_state}"],
        ["observable", "dist", "{obs_b}", "--state", "{huge}"],
        ["observable", "tseq", "{huge_obs}", "{obs_b}", "--t", "0.5"],
        ["observable", "cond", "{huge_obs}", "{obs_b}"],
        # entries whose modulus passes the float range: a NaN spectrum
        ["validate", "{overflow}"],
        ["validate", "--kind", "state", "{overflow}"],
        ["validate", "--kind", "observable", "{overflow_obs}"],
        ["classify", "{overflow}", "{b}"],
        ["classify", "{b}", "{overflow}"],
        ["observable", "dist", "{obs_b}", "--state", "{overflow}"],
        ["observable", "tseq", "{obs_b}", "{overflow_obs}", "--t", "0.5"],
    ],
)
def test_huge_finite_entries_are_refused(files, capsys, argv):
    root = files["root"]
    paths = {
        "huge": write_op(root / "huge.json", HUGE),
        "huge_state": write_op(root / "huge_state.json", HUGE_STATE),
        "huge_obs": _write_raw_observable(root / "huge_obs.json", [HUGE, np.eye(2)], ["x", "y"]),
        "overflow": write_op(root / "overflow.json", OVERFLOW),
        "overflow_obs": _write_raw_observable(
            root / "overflow_obs.json", [OVERFLOW, np.eye(2) - OVERFLOW], ["x", "y"]
        ),
        **files,
    }
    code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert code == 2
    assert "nan" not in (out + err).lower()
    if any("overflow" in arg for arg in argv):
        assert "eigenvalues are not finite" in out + err
    if argv[0] == "validate":
        assert out.startswith("valid: false\n") and err == ""
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def _in_rotated_basis(spectrum, angle):
    c, s = math.cos(angle), math.sin(angle)
    r = np.array([[c, -s], [s, c]])
    return r @ np.diag(spectrum) @ r.T


HUGE_SPECTRA = ((0.5, 1e308), (0.2, 1e200), (0.3, 1e154), (0.3, 0.8))


def _scaled_pairs():
    """(s, x, y): a dim-3 and a dim-5 pair of effects times s, at s = 1e160, 1e250, 1e307."""
    rng = np.random.default_rng(17)
    for dim in (3, 5):
        qx, qy = (np.linalg.qr(rng.standard_normal((dim, dim)))[0] for _ in range(2))
        x, y = ((q * np.linspace(*ends, dim)) @ q.T for q, ends in ((qx, (0.1, 0.9)), (qy, (0.2, 0.7))))
        for s in (1e160, 1e250, 1e307):
            yield s, s * x, s * y


@pytest.mark.parametrize(
    "command",
    [["classify"], ["evolve"], ["evolve", "--mode", "seqprod"],
     *(["observable", name] for name in ("seqprod", "tseq", "cond", "tcond"))],
    ids=" ".join,
)
def test_operands_near_the_float_limit_get_an_answer_or_one_error_line(tmp_path, capsys, command):
    # at --tol 1e308, each ordered pair of four operands, eigenvalues up to 1e308,
    # in a basis of their own, and at --tol s, both orders of each pair of
    # _scaled_pairs, whose a∘b overflows (an observable command takes the
    # observables {x, s·I − x} of the pair): exit 0 with no nan or inf
    # written, or exit 2 with one error line, and no RuntimeWarning (tier-1
    # makes it an error) and no exception, such as an eigensolver's that
    # does not converge on a matrix that is not finite
    observable = command[0] == "observable"
    runs = []
    if not observable:
        paths = [
            write_op(tmp_path / f"op{k}.json", _in_rotated_basis(w, 0.3 + 0.4 * k))
            for k, w in enumerate(HUGE_SPECTRA)
        ]
        runs += [("1e308", x, y) for x, y in itertools.permutations(paths, 2)]
    for k, (s, *pair) in enumerate(_scaled_pairs()):
        x, y = (
            _write_raw_observable(tmp_path / f"obs{k}{n}.json", [m, s * np.eye(len(m)) - m], ["p", "q"])
            if observable else write_op(tmp_path / f"op{k}{n}.json", m)
            for n, m in enumerate(pair)
        )
        runs += [(repr(s), x, y), (repr(s), y, x)]
    extra = ["--steps", "2"] if command[0] == "evolve" else []
    extra += ["--t", "0.7"] if command[-1] in ("tseq", "tcond") else []
    for tol, x, y in runs:
        code, out, err = run(capsys, ["--tol", tol, *command, x, y, *extra])
        if code == 0:
            assert "nan" not in out and "inf" not in out and err == "", (x, y)
        else:
            assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1, (x, y)


def _large_scale_pair(tmp_path, a_spectrum):
    """a = q·diag(a_spectrum)·q^T and b = 1e9·B, B of spectrum {.1, .5, .9}, both dim 3."""
    q, r = (np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))[0] for seed in (1, 2))
    a = write_op(tmp_path / "a.json", (q * a_spectrum) @ q.T)
    return a, write_op(tmp_path / "b.json", 1e9 * (r * [0.1, 0.5, 0.9]) @ r.T)


@pytest.mark.parametrize(
    "tol, a_spectrum, lines",
    [
        # a = 0.7e9·P, P a rank-2 projection: at a --tol that admits b, each
        # eigenvalue of a is within tol of 0, so no nonzero group makes it a
        # scaled projection, and [a, PbP] = 0 on its support P is the reason
        ("1e9", [0.7e9, 0.7e9, 0.0], ["constant: true", "reason: CommutingOnSupport"]),
        ("1e12", [0.7e9, 0.7e9, 0.0], ["constant: true", "reason: CommutingOnSupport"]),
        # a = 1e9·P at a tol just below 1e9: its nonzero group is a scaled projection
        ("999999999.5", [1e9, 1e9, 0.0], ["constant: true", "reason: ScaledProjection"]),
        # a generic a of the same scale neither commutes with b nor is a projection
        ("1e9", [0.1e9, 0.5e9, 0.9e9], ["constant: false", "reason: Neither"]),
        ("1e12", [0.1e9, 0.5e9, 0.9e9], ["constant: false", "reason: Neither"]),
    ],
    ids=["support-1e9", "support-1e12", "projection", "generic-1e9", "generic-1e12"],
)
def test_classify_at_large_scale_allows_rounding_but_not_scale_times_tol(tmp_path, capsys, tol, a_spectrum, lines):
    # ||[a∘b, a]|| of a constant a[t]b rounds to about eps·||a∘b||·||a|| (6e10 and
    # 1e11 here), beyond tol; a generic pair's (4.9e25) is within tol·||a∘b||·||a||
    code, out, err = run(capsys, ["--tol", tol, "classify", *_large_scale_pair(tmp_path, a_spectrum)])
    assert (code, err) == (0, "") and out.splitlines()[:2] == lines


def test_evolve_writes_the_hermitian_part_of_entries_near_the_float_limit(tmp_path, capsys):
    # b = diag(1e308, 0.5): (M + M†)/2 overflows to inf, M/2 + M†/2 does not
    a = write_op(tmp_path / "a.json", np.diag([0.0, 1.0]))
    b = write_op(tmp_path / "b.json", np.diag([1e308, 0.5]))
    code, out, err = run(capsys, ["--tol", "1e308", "evolve", a, b, "--steps", "1"])
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 2 and all(row.split(",")[1:3] == ["1e+308", "0"] for row in rows)


def test_evolve_seqprod_of_a_pair_at_scale_1e6_passes_its_cross_check(tmp_path, capsys):
    # the routes of a pair of scale ||a|| ||b|| = 7e5 round apart by more than
    # 1e-10, within the bound 1e-10 max(1, ||a|| ||b||)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    a = write_op(tmp_path / "a.json", [[0.5, 0.2], [0.2, 0.5]])
    b = write_op(tmp_path / "b.json", h @ np.diag([0.5, 1e6]) @ h)
    code, out, err = run(capsys, ["--tol", "1e6", "evolve", a, b, "--mode", "seqprod"])
    assert (code, err) == (0, "") and len(out.splitlines()) == 66


def test_evolve_refuses_a_derivative_norm_beyond_the_float_range(tmp_path, capsys):
    # |w_j - w_k| = 1e200 times entries of 0.5e154 passes the float range:
    # the derivative_norm column takes at's order rule at order 1
    a = write_op(tmp_path / "a.json", np.diag([0.0, 1e200]))
    b = write_op(tmp_path / "b.json", np.full((2, 2), 0.5e154))
    code, out, err = run(capsys, ["--tol", "1e308", "evolve", a, b, "--steps", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: the derivative_norm column") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["observable", "convex", "--weights", "x,1", "@obs_a", "@obs_a"],
        ["observable", "convex", "--weights", "0.5,x", "@obs_a", "@obs_a"],
        ["observable", "tseq", "@obs_a", "@obs_a", "--t", "abc"],
        ["scan", "--trials", "1", "--tmin", "abc", "--out", "@root"],
        ["observable", "convex", "--weights", "0.5,,0.5", "@obs_a", "@obs_a"],
        ["observable", "convex", "--weights", "1,", "@obs_a"],
        ["observable", "convex", "--weights", "nan,1", "@obs_a", "@obs_a"],
        ["observable", "tseq", "@obs_a", "@obs_a", "--t", "nan"],
        ["observable", "tcond", "@obs_a", "@obs_a", "--t", "inf"],
        ["evolve", "@a", "@b", "--t1", "nan"],
        ["evolve", "@a", "@b", "--t1", "inf"],
        ["evolve", "@a", "@b", "--t0", "nan", "--mode", "seqprod"],
        ["evolve", "@a", "@b", "--t0=-1e308", "--t1=1e308", "--steps", "2"],
        ["scan", "--trials", "1", "--tmax", "inf", "--out", "@root"],
        ["scan", "--trials", "1", "--tmin=-1e308", "--tmax=1e308", "--out", "@root"],
        ["scan", "--trials", "3", "--floor", "inf", "--out", "@root"],
        ["scan", "--trials", "3", "--floor", "nan", "--out", "@root"],
        ["--tol", "nan", "evolve", "@a", "@b"],
    ],
    ids=" ".join,
)
def test_non_finite_or_malformed_flags_are_invalid_input(files, capsys, argv):
    # "@key" stands for the fixture file files[key]
    code, err = exit_code(capsys, [str(files[x[1:]]) if x[0] == "@" else x for x in argv])
    assert code == 2
    assert "error:" in err
    # the message names the flag's format, not the function that parses it
    assert "_finite" not in err and "_floats" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["observable", "tseq", "@obs_a", "@obs_b", "--t", "-1e-05"],
        ["evolve", "@a", "@b", "--steps", "3", "--t0", "-1e-05"],
        ["evolve", "@a", "@b", "--steps", "3", "--t1", "-2.5E+1"],
        ["scan", "--trials", "1", "--tmin", "-1e-05"],
        ["scan", "--trials", "1", "--tmin=-1", "--tmax", "-1e-05"],
    ],
    ids=lambda argv: argv[-2],
)
def test_negative_exponent_form_time_follows_its_flag(files, tmp_path, capsys, argv):
    # a negative time in exponent form, written as the word after its flag,
    # is that flag's value: the same output as the one word --flag=value
    argv = [str(files[x[1:]]) if x[0] == "@" else x for x in argv]
    outputs = []
    for i, words in enumerate((argv, argv[:-2] + [f"{argv[-2]}={argv[-1]}"])):
        scan = words[0] == "scan"
        prefix = tmp_path / f"scan{i}"
        code, out, _ = run(capsys, words + (["--out", str(prefix)] if scan else []))
        assert code == 0
        written = [prefix.with_suffix(ext).read_bytes() for ext in (".json", ".csv")] if scan else []
        outputs.append((out, written))
    assert outputs[0] == outputs[1]


# -- examples ---------------------------------------------------------------


def test_examples_pass(capsys):
    code, out, _ = run(capsys, ["examples"])
    assert code == 0
    lines = out.strip().split("\n")
    pass_lines = [ln for ln in lines if ": PASS" in ln]
    assert len(pass_lines) == 3
    assert "FAIL" not in out
    assert "±1/4" in out
    assert "2|b12|" in out
    assert "λpbp" in out


def test_examples_fault_injection(capsys, monkeypatch):
    # one wrong closed form per worked example must fail that example's check
    evolution, deviation = closed_forms.example1_evolution, closed_forms.example2_deviation
    product = closed_forms.example3_constant_product
    monkeypatch.setattr(closed_forms, "example1_evolution", lambda t: evolution(t) + 1.0)
    monkeypatch.setattr(closed_forms, "example2_deviation", lambda *a: deviation(*a) + 1.0)
    monkeypatch.setattr(
        closed_forms, "example3_constant_product", lambda *a: identity_effect(product(*a).dim)
    )
    code, out, _ = run(capsys, ["examples"])
    assert code == 1
    assert out.count("FAIL") == 3


# -- scan -------------------------------------------------------------------


def test_scan_deterministic_outputs(tmp_path, capsys):
    base = ["scan", "--dim", "2", "--trials", "4", "--seed", "11"]
    code, out, err = run(capsys, base + ["--out", str(tmp_path / "one")])
    assert code == 0
    assert out == ""
    assert "wrote" in err
    code, _, _ = run(capsys, base + ["--out", str(tmp_path / "two")])
    assert code == 0
    for ext in (".json", ".csv"):
        first = (tmp_path / "one").with_suffix(ext).read_bytes()
        second = (tmp_path / "two").with_suffix(ext).read_bytes()
        assert first == second
    doc = json.loads((tmp_path / "one.json").read_text())
    assert doc["summary"]["recorded"] + doc["summary"]["skipped"] == 4


def test_scan_zero_trials(tmp_path, capsys):
    code, _, err = run(
        capsys, ["scan", "--trials", "0", "--out", str(tmp_path / "empty")]
    )
    assert code == 0
    doc = json.loads((tmp_path / "empty.json").read_text())
    assert doc["summary"]["recorded"] == 0
    assert doc["records"] == []
    assert "(0 records, no records)" in err


def test_scan_stderr_names_the_smallest_record_gap(tmp_path, capsys):
    out = tmp_path / "scan"
    argv = ["scan", "--dim", "3", "--trials", "5", "--seed", "7", "--out", str(out)]
    code, _, err = run(capsys, argv)
    assert code == 0
    records = json.loads((tmp_path / "scan.json").read_text())["records"]
    smallest = min(r["min_gap"] for r in records)
    certified = sum(r["min_gap_lower"] > 0 for r in records)
    assert err == (
        f"wrote {out}.json and {out}.csv (5 records, global min gap {smallest:.3e}, "
        f"{certified} certified positive on the window)\n"
    )


def test_scan_window_beyond_the_knot_cap_is_invalid_input(tmp_path, capsys):
    # the search's work grows with the window's width: at this one it would
    # need about 10^10 knots, so it is refused at once and names the width
    argv = ["scan", "--trials", "1", "--tmin", "0", "--tmax", "1e9", "--out", str(tmp_path / "x")]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "window of width 1000000000.0" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "window",
    [
        ["--dim", "8", "--trials", "1", "--tmin", "0", "--tmax", "1e9"],
        ["--trials", "3", "--tmin", "1e308", "--tmax", MAX_FLOAT],
    ],
)
def test_hopeless_scan_window_is_refused_before_any_gap(window, monkeypatch, tmp_path, capsys):
    # the window alone proves the search would need more than MAX_KNOTS knots:
    # by L·width at 1e9, by the spacing of the floats near the largest one
    times = []
    kernel = explorer._gap_kernel

    def counting_kernel(frames):
        gap = kernel(frames)
        return lambda t: times.append(t) or gap(t)

    monkeypatch.setattr(explorer, "_gap_kernel", counting_kernel)
    code, out, err = run(capsys, ["scan", *window, "--out", str(tmp_path / "x")])
    assert (code, out, times) == (2, "", [])
    assert f"needs more than {explorer.MAX_KNOTS} knots" in err
    assert list(tmp_path.iterdir()) == []


def test_scan_bad_dim(tmp_path, capsys):
    code, _, err = run(capsys, ["scan", "--dim", "1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("stale", ["x" * 100_000, "y"], ids=["longer", "shorter"])
def test_scan_rewrites_existing_outputs_in_place(tmp_path, capsys, stale):
    # a rerun into the same prefix writes over the old files without first
    # truncating them; whether they were longer or shorter than the new
    # output, it leaves exactly the bytes of a fresh prefix
    argv = ["scan", "--dim", "3", "--trials", "3", "--seed", "7", "--out"]
    assert run(capsys, argv + [str(tmp_path / "fresh")])[0] == 0
    for ext in (".json", ".csv"):
        (tmp_path / f"stale{ext}").write_text(stale)
    assert run(capsys, argv + [str(tmp_path / "stale")])[0] == 0
    for ext in (".json", ".csv"):
        assert (tmp_path / f"stale{ext}").read_bytes() == (tmp_path / f"fresh{ext}").read_bytes()


def test_scan_output_modes_are_those_of_a_plain_write(tmp_path, capsys):
    # a new file gets 0o666 less the umask, an existing one keeps its mode,
    # and a path that is not a regular file is written but not cut
    old_umask = os.umask(0o027)
    try:
        assert run(capsys, ["scan", "--trials", "1", "--out", str(tmp_path / "new")])[0] == 0
    finally:
        os.umask(old_umask)
    assert (tmp_path / "new.json").stat().st_mode & 0o777 == 0o640
    (tmp_path / "kept.json").write_text("{}")
    (tmp_path / "kept.json").chmod(0o604)
    assert run(capsys, ["scan", "--trials", "1", "--out", str(tmp_path / "kept")])[0] == 0
    assert (tmp_path / "kept.json").stat().st_mode & 0o777 == 0o604
    for ext in (".json", ".csv"):
        (tmp_path / f"null{ext}").symlink_to(os.devnull)
    assert run(capsys, ["scan", "--trials", "1", "--out", str(tmp_path / "null")])[0] == 0


@pytest.mark.parametrize("where", ["missing_directory", "directory_in_the_way"])
def test_scan_into_an_unwritable_prefix_is_invalid_input(tmp_path, capsys, where):
    if where == "directory_in_the_way":
        (tmp_path / "scan.json").mkdir()
        prefix = tmp_path / "scan"
    else:
        prefix = tmp_path / "missing" / "scan"
    code, out, err = run(capsys, ["scan", "--trials", "1", "--out", str(prefix)])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
