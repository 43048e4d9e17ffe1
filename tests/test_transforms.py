"""Tests for slice transformations and local maps."""

import numpy as np
import pytest

import slocc3 as s


def _t1_t2():
    t1 = s.parse_ket("|000>+|111>+|222>", (3, 3, 3))
    t2 = np.zeros((3, 3, 3), dtype=complex)
    t2[0, 0, 0] = t2[1, 1, 0] = 1  # first slice diag(1,1,0)
    t2[1, 1, 1] = t2[2, 2, 1] = 1  # second slice diag(0,1,1)
    t2[0, 0, 2] = t2[2, 2, 2] = 1  # third slice diag(1,0,1)
    return t1, t2


def test_type1_identity():
    t1, _ = _t1_t2()
    np.testing.assert_array_equal(s.apply_type1(t1, np.eye(3), np.eye(3)), t1)


def test_type1_permutation_permutes_diagonal_units():
    t1, _ = _t1_t2()
    p = np.zeros((3, 3))
    p[0, 1] = p[1, 2] = p[2, 0] = 1  # 3-cycle
    out = s.apply_type1(t1, p, p.T)
    for k in range(3):
        expected = p @ s.tensor_slice(t1, 3, k) @ p.T
        np.testing.assert_allclose(s.tensor_slice(out, 3, k), expected)
        assert abs(np.trace(expected) - 1) < 1e-14  # still a diagonal unit


def test_type1_preserves_local_ranks():
    rng = np.random.default_rng(0)
    for trial in range(20):
        t = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        p = s.random_nonsingular(3, 2 * trial, cond_bound=100)
        q = s.random_nonsingular(3, 2 * trial + 1, cond_bound=100)
        assert s.local_ranks(s.apply_type1(t, p, q), 1e-8) == s.local_ranks(t, 1e-8)


def test_type1_rejects_singular():
    t1, _ = _t1_t2()
    sing = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        s.apply_type1(t1, sing, np.eye(3))


def test_type1_composition():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    p1, q1 = s.random_nonsingular(3, 10), s.random_nonsingular(3, 11)
    p2, q2 = s.random_nonsingular(3, 12), s.random_nonsingular(3, 13)
    lhs = s.apply_type1(s.apply_type1(t, p1, q1), p2, q2)
    rhs = s.apply_type1(t, p2 @ p1, q1 @ q2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_type2_identity():
    _, t2 = _t1_t2()
    np.testing.assert_array_equal(s.apply_type2(t2, np.eye(3)), t2)


def test_type2_worked_sequence_reaches_diagonal_form():
    """The three slice operations from the worked example turn T2 into T1."""
    t1, t2 = _t1_t2()
    g1 = np.eye(3, dtype=complex)
    g1[:, 0] = [0.5, -0.5, 0.5]  # new A = (A - B + C) / 2
    g2 = np.eye(3, dtype=complex)
    g2[:, 2] = [-1, 0, 1]  # new C = C - A
    g3 = np.eye(3, dtype=complex)
    g3[:, 1] = [0, 1, -1]  # new B = B - C
    step = s.apply_type2(s.apply_type2(s.apply_type2(t2, g1), g2), g3)
    np.testing.assert_array_equal(step, t1)
    composed = s.apply_type2(t2, g1 @ g2 @ g3)
    np.testing.assert_array_equal(composed, t1)


def test_type2_composition():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    g1 = s.random_nonsingular(3, 20)
    g2 = s.random_nonsingular(3, 21)
    lhs = s.apply_type2(s.apply_type2(t, g1), g2)
    np.testing.assert_allclose(lhs, s.apply_type2(t, g1 @ g2), atol=1e-12)


def test_type2_rejects_singular():
    _, t2 = _t1_t2()
    with pytest.raises(ValueError):
        s.apply_type2(t2, np.diag([1.0, 0.0, 1.0]))


def test_apply_slocc_identity():
    t = s.ghz_state()
    np.testing.assert_array_equal(
        s.apply_slocc(t, np.eye(2), np.eye(2), np.eye(2)), t
    )


def test_apply_slocc_bipartite_rotation():
    """Embedded bipartite map takes |01>-|10> to |00>+|11>."""
    singlet = s.parse_ket("|0,1,0>-|1,0,0>", (2, 2, 1))
    rot = np.array([[0, 1], [-1, 0]], dtype=complex)
    out = s.apply_slocc(singlet, np.eye(2), rot, np.eye(1))
    np.testing.assert_allclose(out, s.parse_ket("|0,0,0>+|1,1,0>", (2, 2, 1)))


def test_apply_slocc_allows_singular_maps():
    t = s.ghz_state()
    proj = np.diag([1.0, 0.0])
    out = s.apply_slocc(t, proj, np.eye(2), np.eye(2))
    np.testing.assert_array_equal(out, s.parse_ket("|000>", (2, 2, 2)))


def test_apply_slocc_shape_mismatch():
    with pytest.raises(ValueError):
        s.apply_slocc(s.ghz_state(), np.eye(3), np.eye(2), np.eye(2))


def test_slocc_local_rank_invariance_and_inverse():
    rng = np.random.default_rng(3)
    for trial in range(20):
        t = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        a, b, c = s.random_slocc((2, 3, 4), 100 + trial, cond_bound=50)
        image = s.apply_slocc(t, a, b, c)
        assert s.local_ranks(image, 1e-8) == s.local_ranks(t, 1e-8)
        back = s.apply_slocc(
            image, np.linalg.inv(a), np.linalg.inv(b), np.linalg.inv(c)
        )
        assert np.linalg.norm(back - t) < 1e-8 * np.linalg.norm(t)


def test_random_nonsingular_deterministic():
    m1 = s.random_nonsingular(3, 0)
    m2 = s.random_nonsingular(3, 0)
    np.testing.assert_array_equal(m1, m2)
    assert not np.array_equal(m1, s.random_nonsingular(3, 1))


def test_random_nonsingular_dim_one():
    m = s.random_nonsingular(1, 5)
    assert m.shape == (1, 1) and m[0, 0] != 0


def test_random_nonsingular_condition_bound():
    for seed in range(1000):
        m = s.random_nonsingular(3, seed, cond_bound=100.0)
        sv = np.linalg.svd(m, compute_uv=False)
        assert sv[0] / sv[-1] <= 100.0


def test_random_nonsingular_validates_args():
    with pytest.raises(ValueError):
        s.random_nonsingular(0, 0)
    with pytest.raises(ValueError):
        s.random_nonsingular(2, 0, cond_bound=1.0)


def test_random_nonsingular_refuses_nan_cond_bound_up_front(monkeypatch):
    """Once, a NaN bound made every draw fail and ended in ArithmeticError."""
    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was drawn")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(ValueError, match="cond_bound"):
        s.random_nonsingular(3, 0, cond_bound=np.nan)
