"""Determinant polynomials of n x n x 3 tensors and the substitution test.

For a tensor with mode-3 slices A, B, C the determinant polynomial is
``f(x, y, z) = det(x*A + y*B + z*C)``, homogeneous of degree n.  Two tensors
related by slice transformations have determinant polynomials related by a
linear substitution of variables, which yields a necessary condition for
equivalence: ``f2`` must be a multiple of ``f1`` composed with some
nonsingular 3x3 matrix G acting on the variable row vector as
``x -> x @ G.T``.  :func:`detpoly_equiv_test` searches for such a G
numerically and never converts a failed search into a verdict of
inequivalence.

One kernel evaluates determinants of slice combinations: :func:`det_grid`
on a roots-of-unity grid, :func:`det_coefficients` its exact DFT inverse.
It serves ``det_poly`` for n >= 7, the pencil minors and every measure of
the equivalence test.  For n <= 6 ``det_poly`` expands cofactors exactly,
so the structural zeros of sparse tensors stay exact zeros.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .ket import _format_coeff
from .tensor import (as_tensor, complex_from_pairs, complex_to_pairs, ldexp, least_squares,
                     unit_exponent)
from .transforms import is_nonsingular, random_nonsingular

ZERO_POLY_TOL = 1e-10
DEFAULT_EQUIV_TOL = 1e-8
DEFAULT_RESTARTS = 64


def monomials(degree: int):
    """Exponent triples (p, q, r) with p+q+r = degree, lex order x > y > z."""
    out = []
    for p in range(degree, -1, -1):
        for q in range(degree - p, -1, -1):
            out.append((p, q, degree - p - q))
    return out


class HomPoly3:
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
    def constant(cls, value):
        return cls(0, {(0, 0, 0): value})

    @classmethod
    def linear(cls, cx, cy, cz):
        return cls(1, {(1, 0, 0): cx, (0, 1, 0): cy, (0, 0, 1): cz})

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("cannot add polynomials of different degree")
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, 0.0) + c
        return HomPoly3(self.degree, out)

    def __mul__(self, other):
        if isinstance(other, HomPoly3):
            out = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    out[exp] = out.get(exp, 0.0) + c1 * c2
            return HomPoly3(self.degree + other.degree, out)
        out = {exp: c * other for exp, c in self.coeffs.items()}
        return HomPoly3(self.degree, out)

    __rmul__ = __mul__

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def coeff_vector(self) -> np.ndarray:
        """Dense coefficient vector over the degree's monomials in lex order."""
        return np.array(
            [self.coeffs.get(exp, 0.0) for exp in monomials(self.degree)],
            dtype=complex,
        )

    def __call__(self, x, y, z):
        total = 0.0 + 0.0j
        for (p, q, r), c in self.coeffs.items():
            total += c * (x**p) * (y**q) * (z**r)
        return total

    def leading(self, rel_tol: float = 1e-12):
        """Lexicographically greatest monomial with a non-negligible coefficient."""
        scale = self.max_abs_coeff()
        if scale == 0.0:
            return None
        for exp in sorted(self.coeffs, reverse=True):
            if abs(self.coeffs[exp]) > rel_tol * scale:
                return exp
        return None

    def __repr__(self):
        return f"HomPoly3({self.degree}, {self.coeffs!r})"

    def to_text(self) -> str:
        """Render as e.g. ``x^2*y + 2*x*y*z - (0.5+1i)*z^3`` in lex order."""
        if not self.coeffs:
            return "0"
        parts = []
        for exp in sorted(self.coeffs, reverse=True):
            c = self.coeffs[exp]
            vars_ = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", exp) if e > 0)
            cs = _format_coeff(c, None)
            if vars_:
                body = vars_ if cs == "" else ("-" + vars_ if cs == "-" else f"{cs}*{vars_}")
            else:
                body = cs if cs not in ("", "-") else ("1" if cs == "" else "-1")
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def to_json(self) -> str:
        exps = sorted(self.coeffs, reverse=True)
        pairs = complex_to_pairs([self.coeffs[exp] for exp in exps])
        terms = [{"exp": list(exp), "coef": c} for exp, c in zip(exps, pairs)]
        return json.dumps({"degree": self.degree, "terms": terms})

    @classmethod
    def from_json(cls, text: str) -> "HomPoly3":
        doc = json.loads(text)
        terms = doc["terms"]
        coefs = complex_from_pairs([t["coef"] for t in terms])
        return cls(int(doc["degree"]), {tuple(t["exp"]): c for t, c in zip(terms, coefs)})


# --- determinant polynomial --------------------------------------------------


def det_poly(t) -> HomPoly3:
    """Determinant polynomial det(x*A + y*B + z*C) of an n x n x 3 tensor.

    Exact cofactor expansion over polynomial entries for n <= 6; for larger n
    the coefficients come from :func:`det_coefficients`.
    """
    t = _square_slices(t)
    if t.shape[0] <= 6:
        return _det_poly_symbolic(t)
    return _det_poly_interpolate(t)


def _square_slices(t) -> np.ndarray:
    """``t`` as an n x n x 3 tensor; ValueError for any other shape."""
    t = as_tensor(t)
    n1, n2, n3 = t.shape
    if n1 != n2:
        raise ValueError(f"slices must be square, got {n1} x {n2}")
    if n3 != 3:
        raise ValueError(f"expected 3 slices in mode 3, got {n3}")
    return t


def _det_poly_symbolic(t) -> HomPoly3:
    n = t.shape[0]
    entries = [
        [HomPoly3.linear(t[i, j, 0], t[i, j, 1], t[i, j, 2]) for j in range(n)]
        for i in range(n)
    ]
    cache = {}

    def minor(rows_start: int, cols: tuple) -> HomPoly3:
        # determinant of the submatrix on rows rows_start.. and the given columns
        if len(cols) == 1:
            return entries[rows_start][cols[0]]
        key = (rows_start, cols)
        if key in cache:
            return cache[key]
        acc = HomPoly3(len(cols), {})
        sign = 1.0
        for pos, c in enumerate(cols):
            rest = cols[:pos] + cols[pos + 1 :]
            term = entries[rows_start][c] * minor(rows_start + 1, rest)
            acc = acc + term * sign
            sign = -sign
        cache[key] = acc
        return acc

    return minor(0, tuple(range(n)))


def _det_poly_interpolate(t) -> HomPoly3:
    n = t.shape[0]
    grid = det_coefficients(*t.transpose(2, 0, 1))
    p, q = np.indices(grid.shape)
    if np.any(np.abs(grid[p + q > n]) > 1e-8 * max(np.max(np.abs(grid)), 1.0)):
        raise ArithmeticError(
            "determinant interpolation produced spurious high-order terms"
        )
    return HomPoly3(n, {(a, b, c): grid[a, b] for a, b, c in monomials(n)})


def det_grid(*slices) -> np.ndarray:
    """det(x_1*S_1 + ... + x_(k-1)*S_(k-1) + S_k) on a roots-of-unity grid.

    Every slice has shape ``(..., n, n)``; leading axes are batch axes.
    Entry ``[..., a_1, ..., a_(k-1)]`` of the result is the determinant at
    x_i = w^(a_i), w = exp(2*pi*i/(n+1)), a_i = 0..n.  All points and batch
    entries go through one ``np.linalg.det`` call.
    """
    *weighted, last = (np.asarray(s, dtype=complex) for s in slices)
    k = len(weighted)
    m = last.shape[-1] + 1
    mats = np.einsum("gi,...iab->...gab", _grid_points(m, k), np.stack(weighted, axis=-3))
    values = np.linalg.det(mats + last[..., None, :, :])
    return values.reshape(last.shape[:-2] + (m,) * k)


@functools.cache
def _grid_points(m: int, k: int) -> np.ndarray:
    """The m^k points of :func:`det_grid`, made once per (m, k); read-only,
    since every call shares it."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    points = np.stack(np.meshgrid(*[roots] * k, indexing="ij"), axis=-1).reshape(-1, k)
    points.setflags(write=False)
    return points


def det_coefficients(*slices) -> np.ndarray:
    """Coefficients of det(x_1*S_1 + ... + x_(k-1)*S_(k-1) + S_k).

    Entry ``[..., p_1, ..., p_(k-1)]`` is the coefficient of
    x_1^p_1 ... x_(k-1)^p_(k-1), p_i = 0..n.  :func:`det_grid` is a scaled
    inverse DFT of them, so the forward FFT over the grid size inverts it.
    """
    values = det_grid(*slices)
    axes = tuple(range(-(len(slices) - 1), 0))
    return np.fft.fftn(values, axes=axes) / values.shape[-1] ** len(axes)


# --- substitution and normalization ------------------------------------------


def substitute(f: HomPoly3, g) -> HomPoly3:
    """Polynomial f evaluated at the substituted variables x -> x @ G.T.

    Row i of G gives the linear form replacing variable i, so the worked
    substitution x -> (x-y+z)/2, ... is the matrix with rows
    (1,-1,1)/2, (1,1,-1)/2, (-1,1,1)/2.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (3, 3):
        raise ValueError("substitution matrix must be 3x3")
    forms = [HomPoly3.linear(*g[i]) for i in range(3)]
    # cache powers of each linear form up to the needed exponent
    powers = [[HomPoly3.constant(1.0)] for _ in range(3)]
    for var in range(3):
        need = max((exp[var] for exp in f.coeffs), default=0)
        for _ in range(need):
            powers[var].append(powers[var][-1] * forms[var])
    acc = HomPoly3(f.degree, {})
    for (p, q, r), c in f.coeffs.items():
        term = powers[0][p] * powers[1][q] * powers[2][r]
        acc = acc + term * c
    return acc


def monic_normalize(f: HomPoly3):
    """Divide by the coefficient of the lex-greatest nonzero monomial.

    Returns the normalized polynomial and the leading coefficient removed.
    """
    lead = f.leading()
    if lead is None:
        raise ValueError("cannot normalize the zero polynomial")
    c = f.coeffs[lead]
    return f * (1.0 / c), c


# --- equivalence test ---------------------------------------------------------


@dataclass
class EquivVerdict:
    """Outcome of the determinant-polynomial necessary-condition test.

    ``kind`` is one of ``CertifiedObstruction`` (exactly one determinant
    polynomial vanishes identically, so no substitution can exist),
    ``CandidateFound`` (a nonsingular G was found with residual below
    tolerance) or ``NoCandidateFound`` (search failed; explicitly
    inconclusive, never a proof of inequivalence).  ``residual`` is the
    relative squared distance |c*(f1 o G) - f2|^2 / |f2|^2 of f2 from the
    best multiple of f1 o G, in [0, 1]; for ``NoCandidateFound`` it is the
    best one found.
    """

    kind: str
    residual: float | None = None
    g: np.ndarray | None = None
    detail: str = ""

    def to_json(self) -> str:
        doc = {"kind": self.kind, "detail": self.detail}
        if self.residual is not None:
            doc["residual"] = self.residual
        if self.g is not None:
            doc["g"] = complex_to_pairs(self.g)
        return json.dumps(doc, sort_keys=True)


def detpoly_equiv_test(t1, t2, restarts: int = DEFAULT_RESTARTS, seed: int = 0,
                       tol: float = DEFAULT_EQUIV_TOL) -> EquivVerdict:
    """Necessary-condition equivalence test on determinant polynomials.

    One measure serves search and verdict: the relative squared distance
    |c*(f1 o G) - f2|^2 / |f2|^2 of f2 from the best multiple of f1 o G, in
    [0, 1], on the nodes of :func:`_node_values`.  A seeded multi-start
    Levenberg-Marquardt search minimises it over complex 3x3 matrices G;
    restart 0 starts from the identity, so self-comparison returns G = I
    with residual 0.  ``CandidateFound`` needs a residual below ``tol``; the
    default 1e-8 is a relative coefficient distance of 1e-4.  Each input is
    first scaled by an exact power of two (``tensor.unit_exponent``); a
    determinant polynomial is zero when its largest coefficient
    (:func:`det_coefficients`) at that scale is at most ``ZERO_POLY_TOL``.
    """
    t1, t2 = (ldexp(t, -unit_exponent(t)) for t in (_square_slices(t1), _square_slices(t2)))
    if t1.shape != t2.shape:
        raise ValueError("tensors must share dims")
    zero1, zero2 = (np.max(np.abs(det_coefficients(*t.transpose(2, 0, 1)))) <= ZERO_POLY_TOL
                    for t in (t1, t2))
    if zero1 and zero2:
        # the substitution equation is vacuously solvable, e.g. by the identity
        return EquivVerdict("CandidateFound", 0.0, np.eye(3, dtype=complex),
                            "both determinant polynomials are identically zero")
    if zero1 != zero2:
        which = "first" if zero1 else "second"
        return EquivVerdict("CertifiedObstruction", detail=f"only the {which} "
                            "determinant polynomial is identically zero")

    w1, w2 = (_node_values(t, np.eye(3)) for t in (t1, t2))
    best_res, best_g = np.inf, None
    for r in range(max(1, restarts)):
        # even restarts search G with f1 o G ~ f2, odd restarts the reverse
        # equation, whose solution inverts to a forward one, in other basins
        forward = r % 2 == 0
        g0 = (np.eye(3, dtype=complex) if r <= 1 else
              random_nonsingular(3, np.random.SeedSequence([seed, r]), cond_bound=100.0))
        t, target = (t1, w2) if forward else (t2, w1)
        x0 = np.concatenate([g0.real.ravel(), g0.imag.ravel()])
        sol = least_squares(lambda x: _value_residual(t, x, target, x0), x0, max_nfev=4000)
        g = (sol.x[:9] + 1j * sol.x[9:]).reshape(3, 3)
        if not is_nonsingular(g):
            continue
        if not forward:
            g = np.linalg.inv(g)
        diff = _best_multiple(_node_values(t1, g), w2)
        res = float(np.vdot(diff, diff).real / np.vdot(w2, w2).real)
        if res < best_res:
            best_res, best_g = res, g
        if best_res < tol:
            return EquivVerdict("CandidateFound", best_res, best_g, "substitution matrix found")
    return EquivVerdict("NoCandidateFound", best_res, None,
                        "no substitution found; test inconclusive")


def _node_values(t, g) -> np.ndarray:
    """det_poly(t) o G = det_poly(apply_type2(t, G)) on the nodes (1, y, z).

    y and z run over the (n+1)-th roots of unity, y the slower index.  On
    these nodes values and coefficients are related by a unitary (scaled
    DFT) map, so value-space least squares is coefficient-space least squares.
    """
    mixed = np.einsum("abi,ij->jab", t, g)
    return det_grid(mixed[1], mixed[2], mixed[0]).ravel()


def _best_multiple(v, target) -> np.ndarray:
    """c*v - target for the c of least norm, -target for a vanishing v; all
    multiples of v score alike, so G -> cG leaves the residual as it is."""
    vv = np.vdot(v, v).real
    return np.vdot(v, target) / vv * v - target if vv >= 1e-300 else -target


def _value_residual(t, x, target, x0) -> np.ndarray:
    """:func:`_best_multiple` of det_poly(t) o G against ``target`` on the
    nodes (real, then imaginary parts), then two gauge rows that fix |G| and
    the phase of <G0, G> at the start G0: they take the null space of
    G -> cG out of the Jacobian, which finds more related n = 4 pairs."""
    g, g0 = x[:9] + 1j * x[9:], x0[:9] + 1j * x0[9:]
    r = _best_multiple(_node_values(t, g.reshape(3, 3)), target)
    gauge = np.array([np.dot(x, x) - np.dot(x0, x0), np.vdot(g0, g).imag])
    return np.concatenate([r.real, r.imag, np.linalg.norm(target) / np.dot(x0, x0) * gauge])
