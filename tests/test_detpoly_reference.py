"""The grid Laplace expansion of ``det_poly`` against the cofactor expansion
it replaced.

``DictPoly`` and ``_det_poly_symbolic`` below are the sparse dict polynomial
and its recursive cofactor expansion over polynomial entries, kept verbatim
as the reference; only the class name differs.  On exact inputs (catalog
kets, Gaussian integers) every coefficient must be identical; on random
tensors the exact zeros must be the same and the rest agree to 1e-14 of the
largest coefficient.
"""

import itertools

import numpy as np
import pytest

import slocc3 as s
from slocc3.detpoly import monomials


# --- reference: the replaced dict polynomial and cofactor expansion ----------


class DictPoly:
    """Homogeneous complex polynomial in (x, y, z), monomial-coefficient map.

    Coefficients are stored sparsely; exact zeros are dropped.  The degree is
    carried explicitly so the zero polynomial of any degree is representable.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs=None):
        self.degree = int(degree)
        self.coeffs = {}
        if coeffs:
            for exp, c in coeffs.items():
                if sum(exp) != self.degree:
                    raise ValueError(f"exponent {exp} does not sum to {self.degree}")
                c = complex(c)
                if c != 0:
                    self.coeffs[tuple(exp)] = c

    @classmethod
    def linear(cls, cx, cy, cz):
        return cls(1, {(1, 0, 0): cx, (0, 1, 0): cy, (0, 0, 1): cz})

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("cannot add polynomials of different degree")
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, 0.0) + c
        return DictPoly(self.degree, out)

    def __mul__(self, other):
        if isinstance(other, DictPoly):
            out = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    out[exp] = out.get(exp, 0.0) + c1 * c2
            return DictPoly(self.degree + other.degree, out)
        out = {exp: c * other for exp, c in self.coeffs.items()}
        return DictPoly(self.degree, out)

    __rmul__ = __mul__

    def coeff_vector(self) -> np.ndarray:
        """Dense coefficient vector over the degree's monomials in lex order."""
        return np.array(
            [self.coeffs.get(exp, 0.0) for exp in monomials(self.degree)],
            dtype=complex,
        )


def _det_poly_symbolic(t) -> DictPoly:
    n = t.shape[0]
    entries = [
        [DictPoly.linear(t[i, j, 0], t[i, j, 1], t[i, j, 2]) for j in range(n)]
        for i in range(n)
    ]
    cache = {}

    def minor(rows_start: int, cols: tuple) -> DictPoly:
        # determinant of the submatrix on rows rows_start.. and the given columns
        if len(cols) == 1:
            return entries[rows_start][cols[0]]
        key = (rows_start, cols)
        if key in cache:
            return cache[key]
        acc = DictPoly(len(cols), {})
        sign = 1.0
        for pos, c in enumerate(cols):
            rest = cols[:pos] + cols[pos + 1 :]
            term = entries[rows_start][c] * minor(rows_start + 1, rest)
            acc = acc + term * sign
            sign = -sign
        cache[key] = acc
        return acc

    return minor(0, tuple(range(n)))


# --- the grid expansion against it -------------------------------------------


def _catalog_views():
    """Every n x n x 3 mode view of every catalog tensor."""
    for entry in s.catalog_list():
        t = entry.build()
        for perm in itertools.permutations(range(3)):
            view = t.transpose(perm)
            if view.shape[0] == view.shape[1] and view.shape[2] == 3:
                yield f"{entry.id}-{''.join(map(str, perm))}", view


CATALOG_VIEWS = dict(_catalog_views())


def test_catalog_has_twenty_views():
    assert len(CATALOG_VIEWS) == 20


@pytest.mark.parametrize("name", sorted(CATALOG_VIEWS))
def test_catalog_views_expand_as_before(name):
    view = CATALOG_VIEWS[name]
    assert s.det_poly(view).coeffs == _det_poly_symbolic(view).coeffs


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_gaussian_integer_tensors_expand_as_before(n):
    """Entries a + bi with a, b in [-2, 2]: every product and sum is an exact
    integer, so both expansions give the same coefficients bit for bit."""
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        parts = rng.integers(-2, 3, size=(2, n, n, 3))
        t = parts[0] + 1j * parts[1]
        assert s.det_poly(t).coeffs == _det_poly_symbolic(t).coeffs


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("density", [1.0, 0.5])
def test_random_tensors_expand_as_before(n, density):
    """Random dense and half-sparse tensors: the same exact zeros, and the
    other coefficients within 1e-14 of the largest."""
    rng = np.random.default_rng(200 + 10 * n + int(10 * density))
    for _ in range(20):
        t = rng.standard_normal((n, n, 3)) + 1j * rng.standard_normal((n, n, 3))
        t *= rng.random((n, n, 3)) < density
        got = s.det_poly(t).coeff_vector()
        ref = _det_poly_symbolic(t).coeff_vector()
        np.testing.assert_array_equal(got == 0, ref == 0)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
