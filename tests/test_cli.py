"""Tests for the command-line interface: behavior, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

import slocc3 as s
from slocc3 import cli
from slocc3.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_outputs_tensor_json(capsys):
    code, out = run_cli(
        ["parse", "--ket", "|000>+|111>", "--dims", "2,2,2", "--output", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"] == [2, 2, 2]
    assert doc["entries"][0] == [1.0, 0.0]


def test_print_roundtrip(tmp_path, capsys):
    t = s.parse_ket("|000>-2|111>", (2, 2, 2))
    path = tmp_path / "t.json"
    path.write_text(s.tensor_to_json(t))
    code, out = run_cli(["print", str(path)], capsys)
    assert code == 0
    assert out.strip() == "|000>-2|111>"


def test_rank_ghz(capsys):
    code, out = run_cli(
        ["rank", "--ket", "|000>+|111>", "--dims", "2,2,2", "--output", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] == 2 and doc["upper"] == 2


def test_detpoly_text(capsys):
    code, out = run_cli(
        ["detpoly", "--ket", "|000>+|111>+|222>", "--dims", "3,3,3"], capsys
    )
    assert code == 0
    assert out.strip() == "x*y*z"


def test_detpoly_equiv_strict_exit(tmp_path, capsys):
    t1 = s.parse_ket("|000>+|111>+|222>", (3, 3, 3))
    # generic random tensor: no substitution relates the two determinants
    rng = np.random.default_rng(9)
    t2 = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    p1.write_text(s.tensor_to_json(t1))
    p2.write_text(s.tensor_to_json(t2))
    code, out = run_cli(
        ["detpoly-equiv", str(p1), str(p2), "--restarts", "4", "--strict"], capsys
    )
    assert code in (0, 4)  # strict maps NoCandidateFound to 4
    if "NoCandidateFound" in out:
        assert code == 4


def test_ptrace_json(capsys):
    code, out = run_cli(
        ["ptrace", "--ket", "|000>+|111>", "--dims", "2,2,2", "--traced", "A",
         "--output", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["party_dims"] == [2, 2]
    assert doc["rows"] == 4


@pytest.mark.parametrize("scale", [1e170, 1e-170])
def test_ptrace_out_of_range_scale_is_a_numeric_error(tmp_path, capsys, scale):
    """The reduced density of a state at 1e+-170 over- or underflows: exit 3
    and no payload, never Infinity/NaN in the JSON."""
    path = tmp_path / "t.json"
    path.write_text(s.tensor_to_json(s.ghz_state() * scale))
    code, out = run_cli(["ptrace", str(path), "--traced", "A", "--output", "json"], capsys)
    assert code == cli.EXIT_NUMERIC == 3
    assert out == ""


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("path_kind", ["laplace", "interpolation"])
def test_detpoly_overflow_is_a_numeric_error(tmp_path, capsys, mode, path_kind):
    """Determinant coefficients past the float range exit 3 with no payload
    in either output mode: 1e360 from a 3x3x3 ket, NaN from a 7x7x3 tensor."""
    if path_kind == "laplace":
        source = ["--ket", "1e120|000>+1e120|111>+1e120|222>", "--dims", "3,3,3"]
    else:
        rng = np.random.default_rng(0)
        path = tmp_path / "t.json"
        path.write_text(s.tensor_to_json(
            1e50 * (rng.standard_normal((7, 7, 3)) + 1j * rng.standard_normal((7, 7, 3)))))
        source = [str(path)]
    code, out = run_cli(["detpoly", *source, "--output", mode], capsys)
    assert code == cli.EXIT_NUMERIC == 3
    assert out == ""


def test_only_the_requested_format_is_built(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("built an output format that was not asked for")

    ket = ["--ket", "|000>+|111>", "--dims", "2,2,2"]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "print_ket", refuse)
        patch.setattr(cli.np, "array_str", refuse)
        assert run_cli(["ptrace", *ket, "--traced", "A", "--output", "json"], capsys)[0] == 0
        assert run_cli(["parse", *ket, "--output", "json"], capsys)[0] == 0
    with monkeypatch.context() as patch:
        patch.setattr(cli, "density_to_json", refuse)
        patch.setattr(cli, "tensor_to_json", refuse)
        assert run_cli(["ptrace", *ket, "--traced", "A"], capsys)[0] == 0
        assert run_cli(["parse", *ket], capsys)[0] == 0


def test_product_count_w(capsys):
    code, out = run_cli(
        ["product-count", "--ket", "|001>+|010>+|100>", "--dims", "2,2,2",
         "--traced", "A", "--output", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["independent_count"] == 1
    assert doc["exactness"] == "Exact"


def test_range_compare_ghz_w(tmp_path, capsys):
    p1, p2 = tmp_path / "ghz.json", tmp_path / "w.json"
    p1.write_text(s.tensor_to_json(s.ghz_state()))
    p2.write_text(s.tensor_to_json(s.w_state()))
    code, out = run_cli(
        ["range-compare", str(p1), str(p2), "--traced", "A", "--output", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "Inequivalent"


def test_range_compare_strict_inconclusive(tmp_path, capsys):
    p1 = tmp_path / "ghz.json"
    p1.write_text(s.tensor_to_json(s.ghz_state()))
    code, out = run_cli(
        ["range-compare", str(p1), str(p1), "--traced", "A", "--strict"], capsys
    )
    assert code == 4


GHZ = ["--ket", "|000>+|111>", "--dims", "2,2,2"]
NO_STRICT = [
    ["parse", *GHZ],
    ["print", *GHZ],
    ["rank", *GHZ],
    ["detpoly", "--ket", "|000>+|111>+|222>", "--dims", "3,3,3"],
    ["ptrace", *GHZ, "--traced", "A"],
    ["slocc-apply", *GHZ, "--a", "EYE", "--b", "EYE", "--c", "EYE"],
    ["classify2mn", *GHZ],
    ["catalog", "list"],
    ["lhrgm", "--kind", "omega0", "--m", "3", "--n", "3", "--base-ket", "|000>+|011>"],
    ["build335", "--psi-ket", "|000>+|011>", "--psi-dims", "2,2,2"],
]


@pytest.mark.parametrize("argv", NO_STRICT, ids=[a[0] for a in NO_STRICT])
def test_strict_is_a_usage_error_where_no_verdict_is_inconclusive(argv, tmp_path, capsys):
    """Only detpoly-equiv, product-count and range-compare take --strict;
    the other commands run without it and reject it as a usage error."""
    eye = tmp_path / "eye.json"
    eye.write_text(s.matrix_to_json(np.eye(2)))
    argv = [str(eye) if a == "EYE" else a for a in argv]
    assert run_cli(argv, capsys)[0] == 0
    code = main([*argv, "--strict"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE == 1
    assert captured.out == ""
    assert captured.err == "usage error: unrecognized arguments: --strict\n"


@pytest.mark.parametrize("command,default", [
    ("rank", 32), ("detpoly-equiv", 64), ("product-count", 16), ("range-compare", 16),
])
def test_restarts_default_shows_in_help(command, default, capsys):
    assert main([command, "--help"]) == 0
    assert f"random starts (default: {default})" in capsys.readouterr().out


def test_slocc_apply(tmp_path, capsys):
    t = tmp_path / "t.json"
    t.write_text(s.tensor_to_json(s.ghz_state()))
    eye = s.matrix_to_json(np.eye(2))
    for name in ("a", "b", "c"):
        (tmp_path / f"{name}.json").write_text(eye)
    code, out = run_cli(
        ["slocc-apply", str(t), "--a", str(tmp_path / "a.json"),
         "--b", str(tmp_path / "b.json"), "--c", str(tmp_path / "c.json"),
         "--output", "json"],
        capsys,
    )
    assert code == 0
    np.testing.assert_array_equal(s.tensor_from_json(out), s.ghz_state())


def test_classify2mn(capsys):
    code, out = run_cli(
        ["classify2mn", "--ket", "|000>+|111>", "--dims", "2,2,2",
         "--output", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["entry"] == "2x2x2-1"


def test_catalog_commands(capsys):
    code, out = run_cli(["catalog", "list", "--output", "json"], capsys)
    assert code == 0
    entries = json.loads(out)
    assert any(e["id"] == "2x3x6-1" for e in entries)

    code, out = run_cli(["catalog", "get", "ghz", "--output", "json"], capsys)
    assert code == 0
    assert json.loads(out)["id"] == "2x2x2-1"

    code, out = run_cli(["catalog", "build", "w", "--output", "json"], capsys)
    assert code == 0
    np.testing.assert_array_equal(s.tensor_from_json(out), s.w_state())


@pytest.mark.parametrize("action", ["get", "build"])
def test_catalog_unknown_id_is_a_usage_error(action, capsys):
    code = main(["catalog", action, "nope"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "usage error: unknown catalog id 'nope'\n"


def test_lhrgm_command(capsys):
    code, out = run_cli(
        ["lhrgm", "--kind", "omega0", "--m", "3", "--n", "3",
         "--base-ket", "|000>+|011>"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "|000>+|011>+|022>+|122>"


def test_build335_command(capsys):
    code, out = run_cli(
        ["build335", "--psi-ket", "|000>+|011>", "--psi-dims", "2,2,2",
         "--alpha", "0,0,0,0,1", "--output", "json"],
        capsys,
    )
    assert code == 0
    t = s.tensor_from_json(out)
    assert t.shape == (3, 3, 5)
    assert t[2, 0, 4] == 1.0


def test_build335_psi_ket_without_dims_names_its_own_flags(capsys):
    code = main(["build335", "--psi-ket", "|000>"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--psi-ket requires --psi-dims" in err


def test_build335_without_psi_names_its_own_flags(capsys):
    code = main(["build335"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--psi-ket with --psi-dims or --psi-file" in err


def test_exit_code_format_error(capsys):
    code = main(["parse", "--ket", "|0(", "--dims", "2,2,2"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("entry", [5, ["a", 0], [None, 0]])
def test_exit_code_format_error_on_a_non_pair_entry(tmp_path, capsys, entry):
    """A tensor JSON entry that is not a pair of numbers is a format error
    (exit 2), not a traceback."""
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"dims": [1, 1, 2], "entries": [[1.0, 0.0], entry]}))
    code = main(["print", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("format error: ")


def test_exit_code_usage_error(capsys):
    code = main(["not-a-command"])
    capsys.readouterr()
    assert code == 1


def test_exit_code_missing_file(capsys):
    code = main(["print", "/nonexistent/tensor.json"])
    capsys.readouterr()
    assert code == 2


def test_exit_code_directory_as_file(tmp_path, capsys):
    code = main(["print", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("format error: ")


def test_exit_code_directory_as_detpoly_equiv_input(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(s.tensor_to_json(s.parse_ket("|000>+|111>+|222>", (3, 3, 3))))
    code = main(["detpoly-equiv", str(tmp_path), str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("format error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--ket", "|000>+|111>", "--dims", "2,2,2", "--restarts", "0"],
        ["rank", "--ket", "|000>+|111>", "--dims", "2,2,2", "--restarts", "-3"],
        ["rank", "--ket", "|000>+|111>", "--dims", "2,2,2", "--max-iter", "0"],
        ["rank", "--ket", "|000>+|111>", "--dims", "2,2,2", "--max-iter", "-1"],
        ["product-count", "--ket", "|000>+|111>+|222>", "--dims", "3,3,3",
         "--traced", "A", "--restarts", "0"],
        ["detpoly-equiv", "T1", "T1", "--restarts", "0"],
    ],
)
def test_nonpositive_counts_rejected(argv, tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(s.tensor_to_json(s.parse_ket("|000>+|111>+|222>", (3, 3, 3))))
    code = main([str(path) if a == "T1" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "must be positive" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--ket", "|000>+|111>", "--dims", "2,2,2", "--tol-als"],
        ["detpoly-equiv", "T1", "T1", "--tol-equiv"],
        ["product-count", "--ket", "|000>+|111>+|222>", "--dims", "3,3,3",
         "--traced", "A", "--tol-minor"],
        ["range-compare", "T1", "T1", "--traced", "A", "--tol-minor"],
    ],
)
def test_non_finite_tolerances_rejected(argv, value, tmp_path, capsys):
    """A NaN tolerance compares false with every minor, so product-count
    would report 0 exact product vectors for a range that holds 3."""
    path = tmp_path / "t.json"
    path.write_text(s.tensor_to_json(s.parse_ket("|000>+|111>+|222>", (3, 3, 3))))
    code = main([str(path) if a == "T1" else a for a in argv] + [value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "must be positive and finite" in captured.err


def _run_subprocess(args, interpreter_flags=()):
    return subprocess.run(
        [sys.executable, *interpreter_flags, "-m", "slocc3"] + args,
        capture_output=True, check=False,
    )


@pytest.mark.parametrize(
    "args",
    [
        ["rank", "--ket", "|000>+|111>", "--dims", "2,2,2", "--seed", "3",
         "--output", "json"],
        ["product-count", "--ket", "|000>+|111>+|222>", "--dims", "3,3,3",
         "--traced", "A", "--seed", "7", "--output", "json"],
    ],
)
def test_repeat_runs_byte_identical(args):
    first = _run_subprocess(args)
    second = _run_subprocess(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def _assert_same_under_optimize_flag(args):
    plain = _run_subprocess(args)
    optimized = _run_subprocess(args, ["-O"])
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout == optimized.stdout


def test_rank_answer_same_under_optimize_flag():
    """No rank answer may depend on ``assert`` or ``__debug__``."""
    _assert_same_under_optimize_flag(
        ["rank", "--ket", "|012>+|021>+|102>+|120>+|201>+|210>", "--dims", "3,3,3",
         "--output", "json"])


def test_product_count_same_under_optimize_flag():
    """Nor may a product-vector count or the reduced density behind it."""
    _assert_same_under_optimize_flag(
        ["product-count", "--ket", "|000>+|111>+|222>", "--dims", "3,3,3",
         "--traced", "A"])


def test_product_count_strict_exact_k3(capsys):
    """A k = 3 range is counted exactly, so --strict does not exit 4."""
    code, out = run_cli(
        ["product-count", "--ket", "|000>+|111>+|222>", "--dims", "3,3,3",
         "--traced", "A", "--strict", "--output", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exactness"] == "Exact"
    assert doc["independent_count"] == 3


@pytest.mark.parametrize("value", ["nan", "1e309", "inf", "1+nanj"])
@pytest.mark.parametrize(
    "argv",
    [
        ["lhrgm", "--kind", "omega0", "--m", "2", "--n", "2", "--base-ket", "|000>+|100>",
         "--a", "{}"],
        ["lhrgm", "--kind", "omega0", "--m", "2", "--n", "2", "--base-ket", "|000>+|100>",
         "--chi", "1,{}"],
        ["build335", "--psi-ket", "|000>+|011>", "--psi-dims", "2,2,2", "--alpha", "0,0,0,0,{}"],
    ],
)
def test_non_finite_coefficients_rejected(argv, value, capsys):
    """A NaN or overflowing coefficient is rejected where it is parsed, so
    it never reaches the constructors or the ket printer."""
    code = main([a.format(value) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"format error: bad complex number {value!r}\n"


@pytest.mark.parametrize("precision", ["-3", "0"])
def test_print_precision_must_be_positive(precision, capsys):
    code = main(["print", "--ket", "|000>+|111>", "--dims", "2,2,2", "--precision", precision])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--precision must be positive and finite" in captured.err
