"""Tests for the canonical-state catalog and state builders."""

import numpy as np
import pytest

import slocc3 as s


def test_all_entries_parse_and_match_system():
    entries = s.catalog_list()
    assert len([e for e in entries if e.table_row]) == 26
    for entry in entries:
        t = entry.build()
        assert t.shape == entry.system
        assert s.local_ranks(t) == entry.local_ranks, entry.id


def test_catalog_get_and_aliases():
    assert s.catalog_get("ghz").id == "2x2x2-1"
    assert s.catalog_get("w").id == "2x2x2-2"
    np.testing.assert_array_equal(s.catalog_build("ghz"), s.ghz_state())
    np.testing.assert_array_equal(
        s.catalog_build("1x1x1-1"), s.parse_ket("|000>", (1, 1, 1))
    )


def test_catalog_unknown_id():
    with pytest.raises(KeyError):
        s.catalog_get("definitely-not-there")


def test_rank_notes_populated_only_where_known():
    assert s.catalog_get("ghz").rank_note["rank"] == 2
    assert s.catalog_get("w").rank_note["rank"] == 3
    assert s.catalog_get("3x3x3-diag").rank_note["rank"] == 3
    assert s.catalog_get("3x3x3-perm").rank_note["rank"] == 4
    ws = s.catalog_get("w-squared")
    assert ws.rank_note["rank"] == 7 and ws.rank_note["upper_bound"] == 8
    assert s.catalog_get("2x3x3-1").rank_note["rank"] == 3
    assert s.catalog_get("1x3x3-1").rank_note is None


def test_w_squared_entry_matches_regrouping():
    np.testing.assert_array_equal(
        s.catalog_build("w-squared"), s.kron_regroup(s.w_state(), s.w_state())
    )


def test_lhrgm_omega0_worked_example():
    base = s.parse_ket("|000>+|011>", (2, 2, 2))
    out = s.lhrgm_build("omega0", 3, 3, base, a=1, b=1)
    expected = s.parse_ket("|022>+|122>+|000>+|011>", (2, 3, 3))
    np.testing.assert_array_equal(out, expected)


def test_lhrgm_omega1_shape_and_terms():
    base = s.parse_ket("|000>+|011>", (2, 2, 2))
    out = s.lhrgm_build("omega1", 3, 4, base)
    expected = s.parse_ket("|023>+|122>+|000>+|011>", (2, 3, 4))
    np.testing.assert_array_equal(out, expected)


def test_lhrgm_side_conditions():
    base = s.parse_ket("|000>+|011>", (2, 2, 2))
    chi = [1.0, 0.0]
    with pytest.raises(ValueError):
        s.lhrgm_build("omega2", 3, 3, base, a=1, b=0, chi=chi)
    with pytest.raises(ValueError):
        s.lhrgm_build("omega3", 3, 3, base, a=0, b=1, chi=chi)
    out2 = s.lhrgm_build("omega2", 3, 3, base, a=0, b=1, chi=chi)
    assert out2[0, 2, 0] == 1.0
    out3 = s.lhrgm_build("omega3", 3, 3, base, a=1, b=0, chi=chi)
    assert out3[1, 2, 0] == 1.0


def test_lhrgm_dim_validation():
    base = s.parse_ket("|000>+|011>", (2, 2, 2))
    with pytest.raises(ValueError):
        s.lhrgm_build("omega0", 4, 4, base)  # base should be 2x3x3
    with pytest.raises(ValueError):
        s.lhrgm_build("omega2", 3, 3, base)  # chi missing
    with pytest.raises(ValueError):
        s.lhrgm_build("omega9", 3, 3, base)


def test_lhrgm_omega1_generic_base_has_full_local_ranks():
    rng = np.random.default_rng(0)
    for m, n in ((3, 4), (3, 5), (2, 3)):
        base = rng.standard_normal((2, m - 1, n - 2)) + 1j * rng.standard_normal(
            (2, m - 1, n - 2)
        )
        out = s.lhrgm_build("omega1", m, n, base)
        assert s.local_ranks(out) == (2, m, n)


def test_build_335_embedding():
    ghz = s.ghz_state()
    padded = np.zeros((2, 3, 5), dtype=complex)
    padded[:2, :2, :2] = ghz
    out = s.build_335(padded, np.zeros(5), np.zeros(5), np.zeros(5))
    assert out.shape == (3, 3, 5)
    assert s.local_ranks(out) == (2, 2, 2)
    np.testing.assert_array_equal(out[:2, :2, :2], ghz)


def test_build_335_generic_completion_has_full_ranks():
    psi = s.catalog_build("2x3x4-5")
    padded = np.zeros((2, 3, 5), dtype=complex)
    padded[:, :, :4] = psi
    alpha = np.zeros(5)
    alpha[4] = 1.0
    rng = np.random.default_rng(1)
    beta = rng.standard_normal(5)
    gamma = rng.standard_normal(5)
    out = s.build_335(padded, alpha, beta, gamma)
    assert s.local_ranks(out) == (3, 3, 5)


def test_build_335_difference_is_on_top_slab():
    psi = np.zeros((2, 3, 5), dtype=complex)
    psi[0, 0, 0] = 1.0
    rng = np.random.default_rng(2)
    alpha, beta, gamma = (rng.standard_normal(5) for _ in range(3))
    full = s.build_335(psi, alpha, beta, gamma)
    bare = s.build_335(psi, np.zeros(5), np.zeros(5), np.zeros(5))
    diff = full - bare
    assert not np.any(diff[:2])
    assert np.any(diff[2])


def test_build_335_validates_inputs():
    with pytest.raises(ValueError):
        s.build_335(np.zeros((3, 3, 5)), np.zeros(5), np.zeros(5), np.zeros(5))
    with pytest.raises(ValueError):
        s.build_335(np.zeros((2, 2, 2)), np.zeros(4), np.zeros(5), np.zeros(5))
