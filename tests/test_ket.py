"""Tests for the ket expression parser and printer."""

import subprocess
import sys
import threading

import numpy as np
import pytest

import slocc3 as s
from slocc3.cli import main
from slocc3.ket import MAX_NESTING, KetSyntaxError


def test_parse_ghz():
    t = s.parse_ket("|000>+|111>", (2, 2, 2))
    expected = np.zeros((2, 2, 2), dtype=complex)
    expected[0, 0, 0] = expected[1, 1, 1] = 1
    np.testing.assert_array_equal(t, expected)


def test_parse_comma_indices():
    t = s.parse_ket("|0,1,2>", (2, 3, 5))
    assert t[0, 1, 2] == 1
    assert np.count_nonzero(t) == 1


def test_parse_w_with_coefficient():
    t = s.parse_ket("(1/sqrt(3))(|001>+|010>+|100>)", (2, 2, 2))
    c = 1 / np.sqrt(3)
    for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        assert abs(t[idx] - c) < 1e-12


def test_parse_adjacency_is_tensor_product():
    np.testing.assert_array_equal(
        s.parse_ket("|0>|1>|2>", (2, 3, 4)), s.parse_ket("|0,1,2>", (2, 3, 4))
    )


def test_parse_complex_coefficients():
    t = s.parse_ket("(1+2i)|000>-i|111>", (2, 2, 2))
    assert t[0, 0, 0] == 1 + 2j
    assert t[1, 1, 1] == -1j


def test_parse_combines_like_terms():
    t = s.parse_ket("|000>+|000>-2|000>", (2, 2, 2))
    assert not np.any(t)


def test_parse_is_linear_on_disjoint_terms():
    e1, e2 = "2|000>+3|011>", "0.5|111>-|101>"
    combined = s.parse_ket(e1 + "+" + e2, (2, 2, 2))
    np.testing.assert_array_equal(
        combined,
        s.parse_ket(e1, (2, 2, 2)) + s.parse_ket(e2, (2, 2, 2)),
    )


def test_parse_normalize_flag():
    t = s.parse_ket("|000>+|111>", (2, 2, 2), normalize=True)
    assert abs(np.linalg.norm(t) - 1.0) < 1e-14


def test_parse_errors_report_position():
    with pytest.raises(KetSyntaxError) as err:
        s.parse_ket("|000> + @", (2, 2, 2))
    assert "position" in str(err.value)


def _nested(levels):
    return "(" * levels + "|000>" + ")" * levels


def test_deep_nesting_is_a_syntax_error_at_an_open_parenthesis(capsys):
    text = _nested(300)
    with pytest.raises(KetSyntaxError, match="nested too deeply") as err:
        s.parse_ket(text, (2, 2, 2))
    assert text[err.value.pos] == "("
    assert main(["rank", "--ket", text, "--dims", "2,2,2"]) == 2
    assert "nested too deeply (at position" in capsys.readouterr().err


def test_240_nested_levels_parse_from_a_shallow_stack():
    """A fresh thread starts as shallow as the CLI's entry point does."""
    parsed = []
    thread = threading.Thread(target=lambda: parsed.append(s.parse_ket(_nested(240), (2, 2, 2))))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    np.testing.assert_array_equal(parsed[0], s.parse_ket("|000>", (2, 2, 2)))


def _below(frames, fn):
    """fn() called ``frames`` interpreter frames deeper than the caller."""
    return _below(frames - 1, fn) if frames else fn()


def _in_thread(fn):
    """fn() in a fresh thread, as shallow as the CLI's entry point."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    return out[0]


def _cli_rank(text):
    return subprocess.run([sys.executable, "-m", "slocc3", "rank", "--ket", text,
                           "--dims", "2,2,2"], capture_output=True, text=True, check=False)


def _nesting_error_pos(text):
    with pytest.raises(KetSyntaxError, match="nested too deeply") as err:
        s.parse_ket(text, (2, 2, 2))
    return err.value.pos


def test_over_deep_ket_reports_one_position_from_any_stack():
    """The nesting limit is a count of open parentheses, not the
    interpreter's recursion limit: the '(' that opens level MAX_NESTING + 1
    is reported from a deep frame, a fresh thread and the CLI alike."""
    text = _nested(300)
    want = MAX_NESTING
    assert text[want] == "("
    assert _nesting_error_pos(text) == want
    assert _below(300, lambda: _nesting_error_pos(text)) == want
    assert _in_thread(lambda: _nesting_error_pos(text)) == want
    proc = _cli_rank(text)
    assert proc.returncode == 2
    assert f"nested too deeply (at position {want})" in proc.stderr
    # the '(' of sqrt number MAX_NESTING + 1
    assert _nesting_error_pos("sqrt(" * 300 + "4" + ")" * 300 + "|000>") == 5 * want + 4
    assert _nesting_error_pos(_nested(MAX_NESTING + 1)) == want
    s.parse_ket(_nested(MAX_NESTING), (2, 2, 2))


def test_240_nested_levels_parse_from_a_deep_frame_and_the_cli():
    text = _nested(240)
    np.testing.assert_array_equal(_below(300, lambda: s.parse_ket(text, (2, 2, 2))),
                                  s.parse_ket("|000>", (2, 2, 2)))
    proc = _cli_rank(text)
    assert proc.returncode == 0, proc.stderr


def test_long_sign_chains_are_loops_not_nesting():
    """Unary signs apply in a loop, so thousands of them neither recurse nor
    count towards the nesting limit."""
    np.testing.assert_array_equal(s.parse_ket("-" * 5001 + "|000>", (2, 2, 2)),
                                  -s.parse_ket("|000>", (2, 2, 2)))


@pytest.mark.parametrize("text", ["|\u00b200>", "|1,\u00b2,0>", "|\u2460,0,0>"])
def test_non_decimal_digit_in_a_ket_is_a_syntax_error(text, capsys):
    """Superscript and circled digits pass ``str.isdigit`` but not ``int``."""
    with pytest.raises(KetSyntaxError, match="bad ket indices") as err:
        s.parse_ket(text, (2, 2, 2))
    assert err.value.pos == 0
    assert main(["rank", "--ket", text, "--dims", "2,2,2"]) == 2
    assert "bad ket indices" in capsys.readouterr().err


def test_decimal_digits_of_any_script_index_a_ket():
    """Ket digits are what ``int`` and the number token's ``\\d`` accept."""
    assert s.parse_ket("|\u0661,\u0660,\u0661>", (2, 2, 2))[1, 0, 1] == 1


def test_parse_rejects_out_of_range_index():
    with pytest.raises(KetSyntaxError):
        s.parse_ket("|005>", (2, 2, 2))


def test_parse_rejects_empty():
    with pytest.raises(KetSyntaxError):
        s.parse_ket("", (2, 2, 2))
    with pytest.raises(KetSyntaxError):
        s.parse_ket("   ", (2, 2, 2))


def test_parse_rejects_wrong_party_count():
    with pytest.raises(KetSyntaxError):
        s.parse_ket("|00>", (2, 2, 2))


def test_digit_run_needs_small_dims():
    assert s.parse_ket("|0,11,0>", (2, 12, 2))[0, 11, 0] == 1
    with pytest.raises(KetSyntaxError):
        s.parse_ket("|011>", (2, 12, 2))


def test_scalar_zero_parses_to_zero_tensor():
    t = s.parse_ket("0", (2, 2, 2))
    assert not np.any(t)
    with pytest.raises(KetSyntaxError):
        s.parse_ket("3", (2, 2, 2))


def test_print_canonical_forms():
    assert s.print_ket(s.ghz_state()) == "|000>+|111>"
    assert s.print_ket(s.zero_tensor((2, 2, 2))) == "0"
    t = s.parse_ket("|111>+|000>", (2, 2, 2))
    assert s.print_ket(t) == "|000>+|111>"


def test_print_negative_and_complex_coefficients():
    t = s.parse_ket("|000>-|111>", (2, 2, 2))
    assert s.print_ket(t) == "|000>-|111>"
    t2 = s.parse_ket("(-0.5+1i)|000>", (2, 2, 2))
    assert s.parse_ket(s.print_ket(t2), (2, 2, 2))[0, 0, 0] == -0.5 + 1j


def test_print_uses_commas_for_large_dims():
    t = s.zero_tensor((2, 12, 2))
    t[1, 11, 0] = 1
    assert s.print_ket(t) == "|1,11,0>"


def test_roundtrip_random_tensors():
    """parse(print(t)) reproduces t within 1e-12 per entry."""
    rng = np.random.default_rng(1)
    for dims in [(2, 2, 2), (2, 3, 4), (3, 3, 3), (1, 2, 5)]:
        for _ in range(10):
            t = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
            back = s.parse_ket(s.print_ket(t), dims)
            assert np.max(np.abs(back - t)) < 1e-12


def test_roundtrip_with_precision_option():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    text = s.print_ket(t, precision=6)
    back = s.parse_ket(text, (2, 2, 2))
    assert np.max(np.abs(back - t)) < 1e-5
