"""Tests for determinant polynomials and the substitution equivalence test."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slocc3 as s
from slocc3 import detpoly
from slocc3.detpoly import (
    HomPoly3,
    _det_poly_interpolate,
    _node_values,
    _value_residual,
    det_coefficients,
    det_grid,
    monomials,
)
from test_detpoly_reference import _det_poly_symbolic


def _t1_t2():
    t1 = s.parse_ket("|000>+|111>+|222>", (3, 3, 3))
    t2 = np.zeros((3, 3, 3), dtype=complex)
    t2[0, 0, 0] = t2[1, 1, 0] = 1
    t2[1, 1, 1] = t2[2, 2, 1] = 1
    t2[0, 0, 2] = t2[2, 2, 2] = 1
    return t1, t2


EXPLICIT_SUBSTITUTION = np.array(
    [[0.5, -0.5, 0.5], [0.5, 0.5, -0.5], [-0.5, 0.5, 0.5]], dtype=complex
)

F2_COEFFS = {
    (2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1, (0, 2, 1): 1,
    (1, 0, 2): 1, (0, 1, 2): 1, (1, 1, 1): 2,
}


def test_det_poly_worked_examples():
    t1, t2 = _t1_t2()
    f1 = s.det_poly(t1)
    assert f1.coeffs == {(1, 1, 1): 1}
    f2 = s.det_poly(t2)
    assert set(f2.coeffs) == set(F2_COEFFS)
    for exp, c in F2_COEFFS.items():
        assert abs(f2.coeffs[exp] - c) < 1e-10


def test_det_poly_zero_third_slice():
    """A = B = I2, C = 0 gives det(xI + yI) = (x + y)^2."""
    t = np.zeros((2, 2, 3), dtype=complex)
    t[:, :, 0] = np.eye(2)
    t[:, :, 1] = np.eye(2)
    f = s.det_poly(t)
    assert f.coeffs == {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}


def test_det_poly_requires_square_slices():
    with pytest.raises(ValueError):
        s.det_poly(np.zeros((2, 3, 3)))
    with pytest.raises(ValueError):
        s.det_poly(np.zeros((2, 2, 2)))


def test_det_poly_interpolation_matches_symbolic():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((7, 7, 3)) + 1j * rng.standard_normal((7, 7, 3))
    exact = _det_poly_symbolic(t)
    interp = s.det_poly(t)
    diff = exact.coeff_vector() - interp.coeff_vector()
    scale = np.max(np.abs(exact.coeff_vector()))
    assert np.max(np.abs(diff)) < 1e-9 * scale


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_det_coefficients_match_symbolic_with_batch_axes(n):
    """Coefficient grid [p, q] of det(x*A + y*B + C) is x^p y^q z^(n-p-q)."""
    rng = np.random.default_rng(10 + n)
    batch = rng.standard_normal((2, 3, n, n, 3)) + 1j * rng.standard_normal((2, 3, n, n, 3))
    grid = det_coefficients(batch[..., 0], batch[..., 1], batch[..., 2])
    assert grid.shape == (2, 3, n + 1, n + 1)
    for idx in np.ndindex(2, 3):
        exact = _det_poly_symbolic(batch[idx])
        ref = np.zeros((n + 1, n + 1), dtype=complex)
        for (p, q, _), c in exact.coeffs.items():
            ref[p, q] = c
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(grid[idx] - ref)) < 1e-12 * scale


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([2, 3, 4]), data=st.data())
def test_det_poly_agrees_with_sympy_on_gaussian_integers(n, data):
    """On Gaussian-integer entries in [-2, 2] every cofactor product is an
    exact integer, so the cofactor path equals sympy's expanded determinant
    exactly; the DFT kernel agrees to 1e-9 of the largest coefficient."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    parts = data.draw(st.lists(st.integers(-2, 2), min_size=6 * n * n, max_size=6 * n * n))
    entries = [complex(a, b) for a, b in zip(parts[::2], parts[1::2])]
    t = np.array(entries).reshape(n, n, 3)
    xyz = sympy.symbols("x y z")
    ring = sympy.ZZ_I[xyz]
    matrix = sympy.Matrix(n, n, lambda i, j: sum(
        (int(c.real) + sympy.I * int(c.imag)) * v for c, v in zip(t[i, j], xyz)))
    det = DomainMatrix.from_Matrix(matrix).convert_to(ring).det()
    exact = {exp: complex(c) for exp, c in sympy.Poly(ring.to_sympy(det), *xyz).terms()
             if c != 0}
    assert s.det_poly(t).coeffs == exact
    assert _det_poly_symbolic(t).coeffs == exact
    reference = HomPoly3(n, exact).coeff_vector()
    scale = max(np.max(np.abs(reference)), 1.0)
    assert np.max(np.abs(_det_poly_interpolate(t).coeff_vector() - reference)) <= 1e-9 * scale


@pytest.mark.parametrize("t", [
    s.parse_ket("1e120|000>+1e120|111>+1e120|222>", (3, 3, 3)),
    1e50 * (np.random.default_rng(0).standard_normal((7, 7, 3))
            + 1j * np.random.default_rng(1).standard_normal((7, 7, 3))),
], ids=["laplace", "interpolation"])
def test_det_poly_overflow_is_an_arithmetic_error(t):
    """Coefficients past the float range raise, never come out as inf/nan:
    1e360 on the Laplace path, an all-NaN grid on the interpolation path."""
    with pytest.raises(ArithmeticError, match="overflows"):
        s.det_poly(t)


@pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (4, 2)])
def test_det_grid_makes_its_nodes_once(monkeypatch, n, k):
    """The cached nodes give the values the per-call grid gave, bit for bit,
    and a second call builds no grid."""
    rng = np.random.default_rng(30 + n + k)
    slices = rng.standard_normal((k + 1, 2, n, n)) + 1j * rng.standard_normal((k + 1, 2, n, n))
    m = n + 1
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    points = np.stack(np.meshgrid(*[roots] * k, indexing="ij"), axis=-1).reshape(-1, k)
    mats = np.einsum("gi,...iab->...gab", points, np.stack(list(slices[:-1]), axis=-3))
    expected = np.linalg.det(mats + slices[-1][..., None, :, :]).reshape((2,) + (m,) * k)
    np.testing.assert_array_equal(det_grid(*slices), expected)

    def refuse(*args, **kwargs):
        raise AssertionError("node grid built again")

    monkeypatch.setattr(np, "exp", refuse)
    monkeypatch.setattr(np, "meshgrid", refuse)
    np.testing.assert_array_equal(det_grid(*slices), expected)


def test_residual_grid_values_are_the_substituted_polynomial():
    """f o G on the nodes is the determinant of the slices recombined by G,
    and the value residual vanishes at G against any multiple of them."""
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        t = rng.standard_normal((n, n, 3)) + 1j * rng.standard_normal((n, n, 3))
        monic, lead = s.monic_normalize(s.det_poly(t))
        g = s.random_nonsingular(3, 40 + n, cond_bound=20)
        w = np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
        sub = s.substitute(monic, g)
        expected = np.array([sub(1.0, y, z) for y in w for z in w])
        values = _node_values(t, g) / lead
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(values - expected)) < 1e-12 * scale
        x = np.concatenate([g.real.ravel(), g.imag.ravel()])
        residual = _value_residual(t, x, expected, x)
        assert residual.shape == (2 * (n + 1) ** 2 + 2,)
        assert np.max(np.abs(residual[:-2])) < 1e-12 * scale
        assert residual[-2] == 0.0 and residual[-1] == 0.0


def test_substitute_identity():
    _, t2 = _t1_t2()
    f2 = s.det_poly(t2)
    out = s.substitute(f2, np.eye(3))
    assert out.coeffs == f2.coeffs


def test_substitute_worked_example():
    """The explicit substitution maps f2 back to f1 = xyz."""
    t1, t2 = _t1_t2()
    f2 = s.det_poly(t2)
    out = s.substitute(f2, EXPLICIT_SUBSTITUTION)
    target = s.det_poly(t1)
    diff = out.coeff_vector() - target.coeff_vector()
    assert np.max(np.abs(diff)) < 1e-12


def test_substitute_composition():
    rng = np.random.default_rng(1)
    t = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    f = s.det_poly(t)
    for trial in range(10):
        g1 = s.random_nonsingular(3, 2 * trial, cond_bound=50)
        g2 = s.random_nonsingular(3, 2 * trial + 1, cond_bound=50)
        lhs = s.substitute(s.substitute(f, g1), g2)
        rhs = s.substitute(f, g1 @ g2)
        scale = max(np.max(np.abs(rhs.coeff_vector())), 1.0)
        assert np.max(np.abs(lhs.coeff_vector() - rhs.coeff_vector())) < 1e-12 * scale


def test_substitute_is_linear_and_degree_preserving():
    f = HomPoly3(2, {(2, 0, 0): 1.0, (0, 1, 1): 2.0})
    h = HomPoly3(2, {(1, 1, 0): -3.0})
    g = s.random_nonsingular(3, 7)
    combo = s.substitute(f + h, g)
    split = s.substitute(f, g) + s.substitute(h, g)
    assert combo.degree == 2
    np.testing.assert_allclose(combo.coeff_vector(), split.coeff_vector(), atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(degree=st.integers(1, 4), data=st.data())
def test_substitute_agrees_with_sympy_on_gaussian_integers(degree, data):
    """On Gaussian-integer f and G every product and sum is an exact integer,
    so f o G equals sympy's expansion coefficient for coefficient."""
    import sympy

    gaussian = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
    exps = monomials(degree)
    f = HomPoly3(degree, dict(zip(exps, data.draw(
        st.lists(gaussian, min_size=len(exps), max_size=len(exps))))))
    g = np.array(data.draw(st.lists(gaussian, min_size=9, max_size=9))).reshape(3, 3)
    xyz = sympy.symbols("x y z")

    def exact(c):
        return int(c.real) + sympy.I * int(c.imag)

    forms = [sum(exact(c) * v for c, v in zip(row, xyz)) for row in g]
    expr = sum(exact(c) * forms[0]**p * forms[1]**q * forms[2]**r
               for (p, q, r), c in f.coeffs.items())
    expected = {exp: complex(c) for exp, c in sympy.Poly(expr, *xyz).terms() if c != 0}
    assert s.substitute(f, g).coeffs == expected


def test_monic_normalize_scalar_multiple():
    f = HomPoly3(3, {(1, 1, 1): 3.0})
    normal, lead = s.monic_normalize(f)
    assert lead == 3.0
    assert normal.coeffs == {(1, 1, 1): 1.0}


def test_monic_normalize_f2_already_monic():
    _, t2 = _t1_t2()
    f2 = s.det_poly(t2)
    normal, lead = s.monic_normalize(f2)
    assert abs(lead - 1.0) < 1e-12
    assert np.max(np.abs(normal.coeff_vector() - f2.coeff_vector())) < 1e-12


def test_monic_normalize_scale_invariant_and_idempotent():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    f = s.det_poly(t)
    n1, _ = s.monic_normalize(f)
    n2, _ = s.monic_normalize(f * (2.5 - 1.5j))
    np.testing.assert_allclose(n1.coeff_vector(), n2.coeff_vector(), atol=1e-12)
    n3, lead = s.monic_normalize(n1)
    assert abs(lead - 1.0) < 1e-14
    np.testing.assert_allclose(n3.coeff_vector(), n1.coeff_vector(), atol=1e-14)


def test_monic_normalize_rejects_zero():
    with pytest.raises(ValueError):
        s.monic_normalize(HomPoly3(2, {}))


def test_equivariance_type1():
    rng = np.random.default_rng(4)
    for trial in range(15):
        n = (2, 3, 4)[trial % 3]
        t = rng.standard_normal((n, n, 3)) + 1j * rng.standard_normal((n, n, 3))
        p = s.random_nonsingular(n, 1000 + 2 * trial, cond_bound=50)
        q = s.random_nonsingular(n, 1001 + 2 * trial, cond_bound=50)
        lhs = s.det_poly(s.apply_type1(t, p, q)).coeff_vector()
        rhs = np.linalg.det(p) * np.linalg.det(q) * s.det_poly(t).coeff_vector()
        scale = max(np.max(np.abs(rhs)), np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def test_equivariance_type2():
    rng = np.random.default_rng(5)
    for trial in range(15):
        n = (2, 3, 4)[trial % 3]
        t = rng.standard_normal((n, n, 3)) + 1j * rng.standard_normal((n, n, 3))
        g = s.random_nonsingular(3, 2000 + trial, cond_bound=50)
        lhs = s.det_poly(s.apply_type2(t, g)).coeff_vector()
        rhs = s.substitute(s.det_poly(t), g).coeff_vector()
        scale = max(np.max(np.abs(rhs)), np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale


def test_equiv_test_self_is_identity():
    t1, _ = _t1_t2()
    verdict = s.detpoly_equiv_test(t1, t1)
    assert verdict.kind == "CandidateFound"
    assert verdict.residual == 0.0
    np.testing.assert_array_equal(verdict.g, np.eye(3))


def test_equiv_test_worked_pair():
    t1, t2 = _t1_t2()
    verdict = s.detpoly_equiv_test(t1, t2, restarts=64, seed=0)
    assert verdict.kind == "CandidateFound"
    assert verdict.residual < 1e-8
    # rows of G must match the linear factors of f2 up to scale/permutation
    rows = []
    for row in verdict.g:
        lead = row[np.argmax(np.abs(row))]
        rows.append(row / lead)
    targets = [np.array(v, complex) for v in ((1, 1, 0), (0, 1, 1), (1, 0, 1))]
    for target in targets:
        assert any(np.max(np.abs(r - target)) < 1e-4 for r in rows)


def test_equiv_test_certified_obstruction():
    t1, _ = _t1_t2()
    upper = np.zeros((3, 3, 3), dtype=complex)
    upper[0, 1, 0] = upper[0, 2, 1] = upper[1, 2, 2] = 1  # strictly upper slices
    verdict = s.detpoly_equiv_test(upper, t1)
    assert verdict.kind == "CertifiedObstruction"
    reversed_verdict = s.detpoly_equiv_test(t1, upper)
    assert reversed_verdict.kind == "CertifiedObstruction"


def test_equiv_test_both_zero():
    upper = np.zeros((3, 3, 3), dtype=complex)
    upper[0, 1, 0] = upper[0, 2, 1] = upper[1, 2, 2] = 1
    verdict = s.detpoly_equiv_test(upper, 2 * upper)
    assert verdict.kind == "CandidateFound"
    assert verdict.residual == 0.0


@pytest.mark.parametrize("scale", [1e-120, 1e120])
def test_equiv_test_scale_invariant(scale):
    """States differing only by a scalar are related at any scale."""
    diag = s.catalog_build("3x3x3-diag")
    for pair in ((diag * scale, diag), (diag, diag * scale)):
        verdict = s.detpoly_equiv_test(*pair)
        assert verdict.kind == "CandidateFound"
        assert verdict.residual < 1e-14
    upper = np.zeros((3, 3, 3), dtype=complex)
    upper[0, 1, 0] = upper[0, 2, 1] = upper[1, 2, 2] = 1
    assert s.detpoly_equiv_test(upper * scale, diag).kind == "CertifiedObstruction"
    assert s.detpoly_equiv_test(upper * scale, upper).kind == "CandidateFound"


def test_equiv_test_found_for_random_transform_pairs():
    rng = np.random.default_rng(6)
    for trial in range(50):
        n = (2, 3)[trial % 2]
        t = rng.standard_normal((n, n, 3)) + 1j * rng.standard_normal((n, n, 3))
        p = s.random_nonsingular(n, 3000 + trial, cond_bound=20)
        q = s.random_nonsingular(n, 3100 + trial, cond_bound=20)
        g = s.random_nonsingular(3, 3200 + trial, cond_bound=20)
        image = s.apply_type2(s.apply_type1(t, p, q), g)
        verdict = s.detpoly_equiv_test(t, image, restarts=64, seed=trial)
        assert verdict.kind == "CandidateFound", verdict.detail
        assert verdict.residual < 1e-8


def test_equiv_test_is_necessary_not_sufficient():
    """States of different rank can share a determinant polynomial.

    The six-permutation state's polynomial is 2*x*y*z, monic-equal to the
    diagonal state's x*y*z, so the substitution test passes with G = I even
    though the rank intervals separate the pair.
    """
    diag = s.parse_ket("|000>+|111>+|222>", (3, 3, 3))
    perm = s.parse_ket("|012>+|021>+|102>+|120>+|201>+|210>", (3, 3, 3))
    f_perm = s.det_poly(perm)
    assert f_perm.coeffs == {(1, 1, 1): 2}
    verdict = s.detpoly_equiv_test(diag, perm, restarts=4, seed=0)
    assert verdict.kind == "CandidateFound"
    assert verdict.residual < 1e-14


def test_equiv_test_builds_no_coefficient_polynomial(monkeypatch):
    """Search, verdict and zero tests all read the node grid: the test runs
    with det_poly, substitute, monic_normalize and HomPoly3 refusing."""
    t1, t2 = _t1_t2()
    upper = np.zeros((3, 3, 3), dtype=complex)
    upper[0, 1, 0] = upper[0, 2, 1] = upper[1, 2, 2] = 1

    def refuse(*args, **kwargs):
        raise AssertionError("coefficient polynomial built")

    for name in ("det_poly", "substitute", "monic_normalize"):
        monkeypatch.setattr(detpoly, name, refuse)
    for name, attr in list(vars(HomPoly3).items()):
        if callable(attr) or isinstance(attr, classmethod):
            monkeypatch.setattr(HomPoly3, name, refuse)
    related = s.detpoly_equiv_test(t1, t2, restarts=64, seed=0)
    assert related.kind == "CandidateFound" and related.residual < 1e-8
    same = s.detpoly_equiv_test(t2, t2)
    assert same.kind == "CandidateFound" and same.residual == 0.0
    both_zero = s.detpoly_equiv_test(upper, 2 * upper)
    assert both_zero.kind == "CandidateFound" and both_zero.residual == 0.0
    assert s.detpoly_equiv_test(upper, t1).kind == "CertifiedObstruction"


def _substitution_distance(t1, t2, g):
    """Relative distance of monic(f2) from the best multiple of
    monic(f1) o G, on the coefficients."""
    m1, _ = s.monic_normalize(s.det_poly(t1))
    m2, _ = s.monic_normalize(s.det_poly(t2))
    sub, target = s.substitute(m1, g).coeff_vector(), m2.coeff_vector()
    best = np.vdot(sub, target) / np.vdot(sub, sub).real * sub
    return np.linalg.norm(best - target) / np.linalg.norm(target)


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2**31 - 1),
       exponent=st.integers(-100, 100))
def test_equiv_test_on_scaled_images(n, seed, exponent):
    """Images under cond <= 20 type-1 and type-2 maps, times 10^exponent,
    are never an obstruction, and every G found passes the coefficient
    re-verification at 1e-4.  That distance is taken on the unscaled image:
    monic normalisation removes the scale."""
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((n, n, 3)) + 1j * rng.standard_normal((n, n, 3))
    p, q, g = (s.random_nonsingular(d, np.random.SeedSequence([seed, i]), cond_bound=20)
               for i, d in enumerate((n, n, 3)))
    image = s.apply_type2(s.apply_type1(t, p, q), g)
    verdict = s.detpoly_equiv_test(t, image * 10.0**exponent, restarts=64, seed=seed)
    assert verdict.kind != "CertifiedObstruction"
    if verdict.kind == "CandidateFound":
        assert verdict.residual < 1e-8
        assert _substitution_distance(t, image, verdict.g) <= 1e-4


def test_poly_text_and_json():
    _, t2 = _t1_t2()
    f2 = s.det_poly(t2)
    assert f2.to_text() == "x^2*y + x^2*z + x*y^2 + 2*x*y*z + x*z^2 + y^2*z + y*z^2"
    back = HomPoly3.from_json(f2.to_json())
    assert back.degree == f2.degree
    assert back.coeffs == f2.coeffs


def test_poly_text_writes_unit_imaginary_coefficients_as_kets_do():
    assert HomPoly3(2, {(2, 0, 0): 1j, (1, 1, 0): -1j}).to_text() == "i*x^2 - i*x*y"
    assert HomPoly3(0, {(0, 0, 0): -1j}).to_text() == "-i"
    assert HomPoly3(1, {(1, 0, 0): 2j, (0, 0, 1): 0.5 - 1j}).to_text() == "2i*x + (0.5-1i)*z"


@pytest.mark.parametrize("degree, exp", [
    (2, (3, -1, 0)), (2, (1, 1)), (2, (1, 1, 0, 0)), (2, (1.0, 1, 0)), (2, (1, 1, None)),
    (2, (1, 0, 0)),
])
def test_poly_rejects_exponents_off_its_degree(degree, exp):
    """An exponent is three non-negative integers summing to the degree,
    in the constructor and in JSON read back."""
    with pytest.raises(ValueError, match="exponent"):
        HomPoly3(degree, {exp: 1.0})
    doc = {"degree": degree, "terms": [{"exp": list(exp), "coef": [1.0, 0.0]}]}
    with pytest.raises(ValueError, match="exponent"):
        HomPoly3.from_json(json.dumps(doc))


@pytest.mark.parametrize("doc", [
    {"degree": 2, "terms": [{"exp": 5, "coef": [1, 0]}]},
    {"degree": 2, "terms": [{"coef": [1, 0]}]},
    {"degree": 2, "terms": [{"exp": [2, 0, 0]}]},
    {"degree": None, "terms": []},
    {"terms": []},
    {"degree": 2},
    {"degree": 2, "terms": 5},
    {"degree": 2, "terms": [{"exp": [2, 0, 0], "coef": "ab"}]},
    [2],
])
def test_poly_json_rejects_malformed_terms_with_value_error(doc):
    """Missing keys and values of the wrong type are ValueErrors, as they
    are for tensor JSON, never a KeyError or TypeError."""
    with pytest.raises(ValueError, match="malformed polynomial JSON"):
        HomPoly3.from_json(json.dumps(doc))


def test_monomials_order():
    assert monomials(2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)
    ]
